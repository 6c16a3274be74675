//! The repo-invariant rules.
//!
//! Every rule operates on the classified line model of
//! [`super::source`] — token matching on comment-stripped,
//! literal-blanked code — and is scoped by repository-relative path, so
//! fixtures can exercise a rule by simulating the path it guards. Rules
//! skip `#[cfg(test)]` regions (in-crate test modules may scan, allocate,
//! and assert freely).
//!
//! Escape hatches are explicit and greppable:
//!
//! * `// SAFETY: …` above (or on) an `unsafe` site — required, not an
//!   escape;
//! * `// gaurast-check: hot-path` marks a steady-state function whose body
//!   the allocation and full-scan-assert rules police;
//! * `// gaurast-check: allow(alloc): reason` / `allow(nondet): reason` on
//!   a line suppresses those rules for that line only, with a stated
//!   reason.

use super::source::{classify, has_word, test_region_start, Line};

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (`unsafe-comment`, `float-ord`, …).
    pub rule: &'static str,
    /// Repository-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Files whose steady-state functions the hot-path rules police.
pub const HOT_FILES: &[&str] = &[
    "crates/render/src/sort.rs",
    "crates/render/src/tile.rs",
    "crates/render/src/rasterize.rs",
    "crates/render/src/pipeline.rs",
    "crates/render/src/simd/stage1.rs",
    "crates/render/src/simd/stage3.rs",
];

/// Steady-state functions that **must** carry the
/// `// gaurast-check: hot-path` marker, per hot file — deleting the
/// marker (and thereby the policing) is itself a lint error. The
/// selection matches the `gaurast_bench::alloc_counter` zero-allocation
/// measurement: these are the bodies that run per frame in steady state.
pub const REQUIRED_HOT_FNS: &[(&str, &str)] = &[
    ("crates/render/src/tile.rs", "bin_splats_pooled"),
    ("crates/render/src/tile.rs", "bin_splats_chunked"),
    // Stage 2's per-splat helpers: the tile rectangle, the chunk-owned
    // ranges of the shared buffers, a rectangle's difference-array corners
    // and the prefix sum that turns an array into per-tile counts.
    ("crates/render/src/tile.rs", "tile_rect"),
    ("crates/render/src/tile.rs", "new"),
    ("crates/render/src/tile.rs", "range"),
    ("crates/render/src/tile.rs", "add_corners"),
    ("crates/render/src/tile.rs", "integrate_counts"),
    // Stage 2 split for the frame driver's saturation-aware rounds: the
    // splat pass with the tile totals, one round (ordering its keys,
    // counting and placing its chunks, the scatter), the tile cursors
    // Stage 3 resumes up to, and the hand-back into the workload.
    ("crates/render/src/tile.rs", "place"),
    ("crates/render/src/tile.rs", "order_keys"),
    ("crates/render/src/tile.rs", "count_chunks"),
    ("crates/render/src/tile.rs", "scatter"),
    ("crates/render/src/tile.rs", "filled_ends"),
    ("crates/render/src/tile.rs", "into_workload"),
    ("crates/render/src/rasterize.rs", "rasterize_tile"),
    // The resumable Stage 3: restaging the arena-held jobs, one round
    // over the waiting tiles, a job's pixel planes, the saturation flags
    // the next scatter round reads, and the end of the frame: the merge
    // and each tile's write-back into the image.
    ("crates/render/src/rasterize.rs", "new"),
    ("crates/render/src/rasterize.rs", "resume"),
    ("crates/render/src/rasterize.rs", "of_slot"),
    ("crates/render/src/rasterize.rs", "start"),
    ("crates/render/src/rasterize.rs", "flag_saturated"),
    ("crates/render/src/rasterize.rs", "end_frame"),
    ("crates/render/src/rasterize.rs", "write_back"),
    // The one frame driver: marking it puts the whole per-frame subtree
    // (all three stages, the pool dispatch path) of every engine and free
    // `render` frame under the deep no-alloc/no-spawn purity rule, so
    // re-introducing a per-frame thread spawn or allocation there fails CI.
    ("crates/render/src/pipeline.rs", "run_frame"),
    // Its fused Stages 2–3: the scatter rounds and Stage-3 resumes.
    ("crates/render/src/pipeline.rs", "bin_and_rasterize_chunked"),
    // The AVX2 lane-group kernels: Stage 1's projection/conic groups and
    // Stage 3's per-row conic evaluation + blending run per frame in
    // steady state; marking them keeps fresh allocations (and, via the
    // deep layer, panics and nondeterminism) out of the vector path.
    ("crates/render/src/simd/stage1.rs", "preprocess_over_avx2"),
    ("crates/render/src/simd/stage3.rs", "rasterize_tile_avx2"),
];

/// Crates whose sources must stay deterministic: no wall clock, no
/// environment reads, no ambient randomness (the bit-identity contract —
/// same inputs, same bits, at every worker count). `gaurast-core` (timing,
/// service) and `gaurast-bench` (measurement) are intentionally absent.
pub const DETERMINISTIC_PREFIXES: &[&str] = &[
    "crates/math/src/",
    "crates/scene/src/",
    "crates/render/src/",
    "crates/hw/src/",
    "crates/gscore/src/",
    "crates/gpu/src/",
    "crates/sched/src/",
];

/// Crates the tree-level rule certifies unsafe-free: their `lib.rs` must
/// carry `#![forbid(unsafe_code)]` and no source may use the keyword.
/// `gaurast-render` (disjoint-slice writers) and `gaurast-bench`
/// (counting `GlobalAlloc`) are the only crates allowed `unsafe`. `"."` is
/// the workspace-root `gaurast-repro` facade crate.
pub const UNSAFE_FREE_CRATES: &[&str] = &[
    "crates/math",
    "crates/scene",
    "crates/gscore",
    "crates/gpu",
    "crates/sched",
    "crates/hw",
    "crates/core",
    "crates/check",
    ".",
];

/// Marker comment putting a function's body (and, for the deep layer, its
/// whole call subtree) under the hot-path rules.
pub const HOT_MARKER: &str = "gaurast-check: hot-path";
/// Escape hatch suppressing allocation findings on the annotated line.
pub const ALLOW_ALLOC: &str = "gaurast-check: allow(alloc)";
/// Escape hatch suppressing determinism findings on the annotated line.
pub const ALLOW_NONDET: &str = "gaurast-check: allow(nondet)";
/// Escape hatch suppressing panic-freedom findings on the annotated line
/// (deep layer only); the stated reason must carry the invariant proof.
pub const ALLOW_PANIC: &str = "gaurast-check: allow(panic)";
/// Escape hatch suppressing unsafe-instrumentation-coverage findings on
/// the annotated line (deep layer only); the stated reason must say where
/// the access range *is* registered (e.g. at every call site).
pub const ALLOW_RACE: &str = "gaurast-check: allow(race)";

/// Heap-allocating call tokens the hot-path rules match (fresh
/// allocations, not amortized growth of recycled arena buffers).
pub const ALLOC_TOKENS: &[&str] = &[
    "Vec::new",
    "vec!",
    ".to_vec(",
    ".collect(",
    ".clone(",
    "Box::new",
    "String::new",
    ".to_string(",
    ".to_owned(",
    "format!",
    "HashMap::new",
    "BTreeMap::new",
];

/// Wall-clock / environment / ambient-randomness tokens — the determinism
/// rule's line-level sources, shared with the deep taint analysis.
pub const NONDET_TOKENS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "env::var",
    "env::vars",
    "thread_rng",
    "random(",
];

const SCAN_TOKENS: &[&str] = &[
    ".all(",
    ".any(",
    ".iter(",
    "windows(",
    ".contains(",
    ".count(",
    ".position(",
    "is_depth_sorted",
    "is_sorted",
];

/// Lints one file's content against every path-applicable rule.
/// `rel_path` is the repository-relative path with `/` separators.
pub fn lint_source(rel_path: &str, content: &str) -> Vec<Finding> {
    let lines = classify(content);
    let end = test_region_start(&lines);
    let lines = &lines[..end];
    let mut findings = Vec::new();

    rule_unsafe_comment(rel_path, lines, &mut findings);
    if rel_path.starts_with("crates/render/src/") {
        rule_float_ord(rel_path, lines, &mut findings);
    }
    if DETERMINISTIC_PREFIXES
        .iter()
        .any(|p| rel_path.starts_with(p))
    {
        rule_determinism(rel_path, lines, &mut findings);
    }
    if HOT_FILES.contains(&rel_path) {
        let hot = hot_regions(lines);
        rule_hot_alloc(rel_path, lines, &hot, &mut findings);
        rule_hot_assert(rel_path, lines, &mut findings);
        rule_required_hot_markers(rel_path, lines, &hot, &mut findings);
    }
    findings
}

/// `true` when line `i` carries `needle` in its own comment or anywhere in
/// the contiguous block of comment/attribute/blank lines directly above it
/// (real code ends the block: the annotation must be *adjacent* to its
/// site, however many lines the comment itself spans).
pub fn annotated(lines: &[Line], i: usize, needle: &str) -> bool {
    if lines[i].comment.contains(needle) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let prev = &lines[j];
        if prev.comment.contains(needle) {
            return true;
        }
        let code = prev.code.trim();
        if !code.is_empty() && !code.starts_with("#[") {
            return false;
        }
    }
    false
}

/// `unsafe` (keyword, not substring) requires a `SAFETY:` comment on the
/// same line or in the comment block directly above.
fn rule_unsafe_comment(path: &str, lines: &[Line], out: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if !has_word(&line.code, "unsafe") {
            continue;
        }
        if !annotated(lines, i, "SAFETY:") {
            out.push(Finding {
                rule: "unsafe-comment",
                path: path.to_string(),
                line: i + 1,
                message: "`unsafe` without an adjacent `// SAFETY:` comment; state the \
                          disjointness/validity argument right above the site"
                    .to_string(),
            });
        }
    }
}

/// `partial_cmp` in the renderer orders floats non-totally; depth and key
/// ordering must go through `f32::total_cmp` or `sort::depth_key_bits`
/// (which are bit-compatible — the integer-key/comparison equivalence the
/// pipeline's determinism rests on).
fn rule_float_ord(path: &str, lines: &[Line], out: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if line.code.contains("partial_cmp") {
            out.push(Finding {
                rule: "float-ord",
                path: path.to_string(),
                line: i + 1,
                message: "float ordering via `partial_cmp` in the renderer; use \
                          `f32::total_cmp` (or `sort::depth_key_bits` for keys) so the \
                          order is total and integer-key compatible"
                    .to_string(),
            });
        }
    }
}

/// No wall clock / environment / ambient randomness inside deterministic
/// pipeline crates.
fn rule_determinism(path: &str, lines: &[Line], out: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if annotated(lines, i, ALLOW_NONDET) {
            continue;
        }
        for token in NONDET_TOKENS {
            if line.code.contains(token) {
                out.push(Finding {
                    rule: "determinism",
                    path: path.to_string(),
                    line: i + 1,
                    message: format!(
                        "`{token}` inside deterministic pipeline code; time/env/randomness \
                         belong in gaurast-core or gaurast-bench (or justify with \
                         `// {ALLOW_NONDET}: reason`)"
                    ),
                });
            }
        }
    }
}

/// Line ranges (0-based, inclusive) of function bodies marked
/// `// gaurast-check: hot-path`, with the function name.
fn hot_regions(lines: &[Line]) -> Vec<(String, usize, usize)> {
    let mut regions = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !line.comment.contains(HOT_MARKER) {
            continue;
        }
        // The marker must sit directly above the `fn` (attributes and the
        // signature may span a few lines).
        let Some(fn_line) = (i..lines.len().min(i + 7)).find(|&j| has_word(&lines[j].code, "fn"))
        else {
            continue;
        };
        let name = fn_name(&lines[fn_line].code).unwrap_or_default();
        // Brace-track from the first `{` at or after the fn line.
        let mut depth = 0i32;
        let mut started = false;
        let mut end = fn_line;
        'scan: for (j, l) in lines.iter().enumerate().skip(fn_line) {
            for c in l.code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => {
                        depth -= 1;
                        if started && depth == 0 {
                            end = j;
                            break 'scan;
                        }
                    }
                    _ => {}
                }
            }
            end = j;
        }
        regions.push((name, fn_line, end));
    }
    regions
}

/// The identifier following `fn ` in a signature line.
fn fn_name(code: &str) -> Option<String> {
    let at = code.find("fn ")?;
    let rest = code[at + 3..].trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// No heap-allocating calls inside hot-path function bodies (the
/// statically-enforced face of the `alloc_counter` zero-allocation
/// measurement).
fn rule_hot_alloc(
    path: &str,
    lines: &[Line],
    hot: &[(String, usize, usize)],
    out: &mut Vec<Finding>,
) {
    for (name, start, end) in hot {
        for (i, line) in lines.iter().enumerate().take(end + 1).skip(*start) {
            if annotated(lines, i, ALLOW_ALLOC) {
                continue;
            }
            for token in ALLOC_TOKENS {
                if line.code.contains(token) {
                    out.push(Finding {
                        rule: "hot-alloc",
                        path: path.to_string(),
                        line: i + 1,
                        message: format!(
                            "`{token}` inside hot-path fn `{name}`; steady-state frames \
                             must not allocate (measured by gaurast_bench::alloc_counter) \
                             — reuse arena scratch, or justify with \
                             `// {ALLOW_ALLOC}: reason`"
                        ),
                    });
                }
            }
        }
    }
}

/// Full-scan assertions in hot files must be `debug_assert!` — an O(n)
/// scan per frame is a measurement distortion in release and a hidden
/// hot-loop cost.
fn rule_hot_assert(path: &str, lines: &[Line], out: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        let Some(at) = find_plain_assert(&line.code) else {
            continue;
        };
        // Collect exactly the macro's argument span: from its opening paren
        // until parens balance (capped at a few lines), so an O(1) assert
        // is never blamed for a scan on a neighboring line.
        let mut arg = String::new();
        let mut depth = 0i32;
        let mut opened = false;
        'span: for (j, l) in lines
            .iter()
            .enumerate()
            .take(lines.len().min(i + 4))
            .skip(i)
        {
            let code = if j == i {
                &l.code[at..]
            } else {
                l.code.as_str()
            };
            for c in code.chars() {
                match c {
                    '(' => {
                        depth += 1;
                        opened = true;
                    }
                    ')' => depth -= 1,
                    _ => {}
                }
                arg.push(c);
                if opened && depth == 0 {
                    break 'span;
                }
            }
            arg.push('\n');
        }
        if SCAN_TOKENS.iter().any(|t| arg.contains(t)) {
            out.push(Finding {
                rule: "hot-assert",
                path: path.to_string(),
                line: i + 1,
                message: "full-scan `assert!` in a hot file; demote to `debug_assert!` \
                          (O(n) checks must not run in release hot loops)"
                    .to_string(),
            });
        }
    }
}

/// Position of a plain `assert!`/`assert_eq!`/`assert_ne!` invocation
/// (not `debug_assert…`).
fn find_plain_assert(code: &str) -> Option<usize> {
    for needle in ["assert!", "assert_eq!", "assert_ne!"] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(needle) {
            let at = from + rel;
            let prefixed = code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if !prefixed {
                return Some(at);
            }
            from = at + needle.len();
        }
    }
    None
}

/// The line of `lines` that defines a function named exactly `name`.
fn defines(lines: &[Line], name: &str) -> Option<usize> {
    lines
        .iter()
        .position(|l| has_word(&l.code, "fn") && fn_name(&l.code).as_deref() == Some(name))
}

/// The functions in [`REQUIRED_HOT_FNS`] must be marked: the marker is
/// what puts their bodies under the allocation rule, so deleting it
/// silently un-polices the hot path. That every entry names a function
/// at all is a property of the tree, checked by
/// [`rule_required_hot_fns_exist`].
fn rule_required_hot_markers(
    path: &str,
    lines: &[Line],
    hot: &[(String, usize, usize)],
    out: &mut Vec<Finding>,
) {
    for (file, required) in REQUIRED_HOT_FNS {
        if *file != path {
            continue;
        }
        let Some(def_line) = defines(lines, required) else {
            continue;
        };
        if !hot.iter().any(|(name, _, _)| name == required) {
            out.push(Finding {
                rule: "hot-marker",
                path: path.to_string(),
                line: def_line + 1,
                message: format!(
                    "steady-state fn `{required}` must carry `// {HOT_MARKER}` directly \
                     above its signature so the allocation rule polices its body"
                ),
            });
        }
    }
}

/// Tree-level half of the `hot-marker` rule: every [`REQUIRED_HOT_FNS`]
/// entry must name a function that its file defines outside the file's
/// test module. Otherwise a renamed or deleted steady-state function
/// leaves an entry that polices nothing.
pub(super) fn rule_required_hot_fns_exist(sources: &[(String, String)], out: &mut Vec<Finding>) {
    for (file, required) in REQUIRED_HOT_FNS {
        let defined = sources
            .iter()
            .find(|(path, _)| path == file)
            .is_some_and(|(_, content)| {
                let lines = classify(content);
                let end = test_region_start(&lines);
                defines(&lines[..end], required).is_some()
            });
        if !defined {
            out.push(Finding {
                rule: "hot-marker",
                path: file.to_string(),
                line: 1,
                message: format!(
                    "`REQUIRED_HOT_FNS` lists `{required}`, but {file} defines no such fn \
                     outside its tests; rename or remove the entry"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unsafe_without_safety_is_flagged_and_with_is_clean() {
        let bad = "fn f() {\n    let p = unsafe { *ptr };\n}\n";
        let f = lint_source("crates/hw/src/x.rs", bad);
        assert_eq!(rules_of(&f), ["unsafe-comment"]);
        let good = "fn f() {\n    // SAFETY: ptr is valid for reads, owned above.\n    let p = unsafe { *ptr };\n}\n";
        assert!(lint_source("crates/hw/src/x.rs", good).is_empty());
    }

    #[test]
    fn safety_on_same_line_counts() {
        let good = "unsafe impl Sync for X {} // SAFETY: only disjoint rows are handed out\n";
        assert!(lint_source("crates/render/src/pool.rs", good).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src = "// unsafe in a comment\nlet s = \"unsafe in a string\";\n";
        assert!(lint_source("crates/hw/src/x.rs", src).is_empty());
    }

    #[test]
    fn partial_cmp_flagged_only_in_render() {
        let src = "fn f() { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/render/src/x.rs", src)),
            ["float-ord"]
        );
        assert!(lint_source("crates/scene/src/x.rs", src).is_empty());
    }

    #[test]
    fn nondet_tokens_flagged_in_pipeline_crates_with_escape() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(
            rules_of(&lint_source("crates/render/src/x.rs", src)),
            ["determinism"]
        );
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
        let escaped =
            "fn f() { let v = std::env::var(K); } // gaurast-check: allow(nondet): config knob\n";
        assert!(lint_source("crates/render/src/x.rs", escaped).is_empty());
    }

    #[test]
    fn hot_alloc_flagged_inside_marked_fn_only() {
        let src = "\
// gaurast-check: hot-path
fn hot() {
    let v: Vec<u32> = xs.collect();
}
fn cold() {
    let v: Vec<u32> = xs.collect();
}
";
        let f = lint_source("crates/render/src/sort.rs", src);
        assert_eq!(rules_of(&f), ["hot-alloc"]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn hot_alloc_escape_hatch() {
        let src = "\
// gaurast-check: hot-path
fn hot() {
    let v = vec![0; n]; // gaurast-check: allow(alloc): tile-local buffer
}
";
        assert!(lint_source("crates/render/src/sort.rs", src).is_empty());
    }

    #[test]
    fn full_scan_assert_flagged_debug_assert_clean() {
        let src = "fn f() {\n    assert!(keys.windows(2).all(|w| w[0] <= w[1]));\n}\n";
        assert_eq!(
            rules_of(&lint_source("crates/render/src/sort.rs", src)),
            ["hot-assert"]
        );
        let good = "fn f() {\n    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]));\n}\n";
        assert!(lint_source("crates/render/src/sort.rs", good).is_empty());
    }

    #[test]
    fn o1_asserts_in_hot_files_are_fine() {
        let src = "fn f() {\n    assert_eq!(keys.len(), values.len(), \"one value per key\");\n}\n";
        assert!(lint_source("crates/render/src/sort.rs", src).is_empty());
    }

    #[test]
    fn o1_assert_above_a_scan_line_is_not_blamed() {
        let src = "\
fn f() {
    assert_eq!(keys.len(), values.len());
    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    let s: u64 = keys.iter().sum();
}
";
        assert!(lint_source("crates/render/src/sort.rs", src).is_empty());
    }

    #[test]
    fn multi_line_scan_assert_is_still_caught() {
        let src = "\
fn f() {
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
    );
}
";
        assert_eq!(
            rules_of(&lint_source("crates/render/src/sort.rs", src)),
            ["hot-assert"]
        );
    }

    #[test]
    fn missing_required_hot_marker_is_flagged() {
        let src = "\
// gaurast-check: hot-path
pub fn bin_splats_pooled() {}
pub fn bin_splats_chunked() {}
";
        assert_eq!(
            rules_of(&lint_source("crates/render/src/tile.rs", src)),
            ["hot-marker"]
        );
    }

    #[test]
    fn a_listed_function_missing_from_its_file_is_flagged() {
        let path = "crates/render/src/tile.rs";
        // A marked definition of every tile.rs entry except `skip`.
        let source = |skip: &str| -> String {
            REQUIRED_HOT_FNS
                .iter()
                .filter(|(file, name)| *file == path && *name != skip)
                .map(|(_, name)| format!("// {HOT_MARKER}\nfn {name}() {{}}\n"))
                .collect()
        };
        let findings = |content: String| {
            let mut out = Vec::new();
            rule_required_hot_fns_exist(&[(path.to_string(), content)], &mut out);
            out.retain(|f| f.path == path);
            out
        };
        assert!(findings(source("")).is_empty());
        let missing = findings(source("filled_ends"));
        assert_eq!(rules_of(&missing), ["hot-marker"]);
        assert!(missing[0].message.contains("`filled_ends`"), "{missing:?}");
        // Neither a longer name nor a definition in the test module counts.
        let near_misses = source("filled_ends")
            + "fn filled_ends_of() {}\n#[cfg(test)]\nmod tests {\n    fn filled_ends() {}\n}\n";
        assert_eq!(rules_of(&findings(near_misses)), ["hot-marker"]);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    fn t() {
        let t0 = Instant::now();
        let v: Vec<u32> = xs.collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }
}
";
        assert!(lint_source("crates/render/src/sort.rs", src).is_empty());
    }
}
