//! Paper-artifact crate of the GauRast workspace: the reproduction
//! binary lives in `src/bin/repro.rs`. The library hosts the counting
//! allocator that proves the steady-state zero-allocation contracts and
//! the artifact-path helper `repro` writes through. It times no frames:
//! performance of the frame path is measured by one harness, the
//! standalone `perfbench` package at the repository root.

#![deny(missing_docs)]

pub mod alloc_counter;

/// Where bench binaries drop their output files: `target/artifacts/`
/// under the workspace root — with the rest of the build output, ignored
/// by git, wiped by `cargo clean` — never the repository root, and
/// independent of the launch directory.
pub mod artifacts {
    use std::path::{Path, PathBuf};

    /// Directory artifacts land in: `<workspace root>/target/artifacts`.
    pub fn dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/artifacts")
    }

    /// Creates [`dir`] (if needed) and returns the full path for an
    /// artifact file named `name`.
    ///
    /// # Errors
    /// Propagates the I/O error when the directory cannot be created.
    pub fn path(name: &str) -> std::io::Result<PathBuf> {
        let dir = dir();
        std::fs::create_dir_all(&dir)?;
        // Canonicalize so printed paths read `…/target/artifacts/x`, not
        // `…/crates/bench/../../target/artifacts/x`.
        Ok(dir.canonicalize()?.join(name))
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn artifact_paths_stay_under_target() {
            let p = super::path("probe.json").unwrap();
            assert!(p.ends_with("target/artifacts/probe.json"), "{p:?}");
            assert!(p.parent().unwrap().is_dir());
        }
    }
}
