//! Repo-invariant lints for the GauRast workspace.
//!
//! The renderer's correctness story rests on invariants no compiler
//! checks: `unsafe` disjoint-slice writers must document their argument,
//! float ordering must be total (integer-key compatible), steady-state frames
//! must not allocate, deterministic pipeline code must not read clocks or
//! the environment, and hot loops must not hide O(n) assertion scans in
//! release builds. [`lint_source`] checks one file, [`lint_tree`] walks
//! the workspace and adds tree-level rules (crate-wide `unsafe` bans, and
//! that every required hot-path function still exists).
//!
//! Run against the repository with `cargo run -p gaurast-check -- lint`;
//! the binary exits non-zero when any finding is produced, which is how CI
//! enforces the invariants.

mod rules;
mod source;

pub use rules::{
    annotated, lint_source, Finding, ALLOC_TOKENS, ALLOW_ALLOC, ALLOW_NONDET, ALLOW_PANIC,
    ALLOW_RACE, DETERMINISTIC_PREFIXES, HOT_FILES, HOT_MARKER, NONDET_TOKENS, REQUIRED_HOT_FNS,
    UNSAFE_FREE_CRATES,
};
pub use source::{classify, has_word, test_region_start, Line};

use std::path::{Path, PathBuf};

/// Directories (repo-relative prefixes) the walker never descends into:
/// vendored dependencies, build output, VCS metadata, and the lint's own
/// deliberately-bad fixtures.
const EXCLUDED_PREFIXES: &[&str] = &[
    "vendor/",
    "target/",
    ".git/",
    "crates/check/tests/fixtures/",
];

/// Lints every `.rs` file under `root` (the workspace root) and applies
/// the tree-level rules. Findings are sorted by path then line for stable
/// output. I/O errors surface as `Err`; findings are not errors.
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let sources = workspace_sources(root)?;
    let mut findings = Vec::new();
    for (rel_str, content) in &sources {
        findings.extend(lint_source(rel_str, content));
    }
    rule_forbid_unsafe_crates(&sources, &mut findings);
    rules::rule_required_hot_fns_exist(&sources, &mut findings);
    findings.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    Ok(findings)
}

/// Reads every lintable `.rs` file under `root` in one pass, returning
/// `(repo-relative path with '/' separators, content)` pairs sorted by
/// path. Shared by [`lint_tree`] and the deep call-graph layer
/// ([`crate::graph`]) so the whole-repo analyses stay single-pass over the
/// tree (the CI time budget).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::new();
    for rel in &files {
        let content = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel_str, content));
    }
    Ok(sources)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let ty = entry.file_type()?;
        if ty.is_dir() {
            let with_slash = format!("{rel_str}/");
            if EXCLUDED_PREFIXES.iter().any(|p| with_slash.starts_with(p)) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if ty.is_file()
            && path.extension().is_some_and(|e| e == "rs")
            && !EXCLUDED_PREFIXES.iter().any(|p| rel_str.starts_with(p))
        {
            out.push(rel.to_path_buf());
        }
    }
    Ok(())
}

/// Tree-level rule: crates listed in [`UNSAFE_FREE_CRATES`] must carry
/// `#![forbid(unsafe_code)]` in their `lib.rs` and contain no `unsafe`
/// keyword in any source file (belt and braces — the attribute makes the
/// compiler enforce it, the lint catches the attribute being deleted).
fn rule_forbid_unsafe_crates(sources: &[(String, String)], out: &mut Vec<Finding>) {
    for krate in UNSAFE_FREE_CRATES {
        let src = if *krate == "." {
            "src/".to_string()
        } else {
            format!("{krate}/src/")
        };
        let lib = format!("{src}lib.rs");
        match sources.iter().find(|(p, _)| *p == lib) {
            None => out.push(Finding {
                rule: "forbid-unsafe",
                path: lib.clone(),
                line: 1,
                message: format!("unsafe-free crate `{krate}` has no src/lib.rs to certify"),
            }),
            Some((_, content)) => {
                if !content.contains("#![forbid(unsafe_code)]") {
                    out.push(Finding {
                        rule: "forbid-unsafe",
                        path: lib.clone(),
                        line: 1,
                        message: format!(
                            "crate `{krate}` is certified unsafe-free; its lib.rs must carry \
                             `#![forbid(unsafe_code)]`"
                        ),
                    });
                }
            }
        }
        for (path, content) in sources.iter().filter(|(p, _)| p.starts_with(&src)) {
            for (i, line) in classify(content).iter().enumerate() {
                if has_word(&line.code, "unsafe") {
                    out.push(Finding {
                        rule: "forbid-unsafe",
                        path: path.clone(),
                        line: i + 1,
                        message: format!(
                            "`unsafe` in certified unsafe-free crate `{krate}`; unsafe code \
                             is confined to gaurast-render and gaurast-bench"
                        ),
                    });
                }
            }
        }
    }
}
