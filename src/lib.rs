//! Root facade for the GauRast reproduction workspace.
//!
//! This crate simply re-exports the public API of [`gaurast`] so that the
//! repository-level `examples/` and `tests/` directories can exercise the
//! whole system through a single dependency. See `crates/core` for the actual
//! facade implementation and `README.md` for the system inventory.

#![forbid(unsafe_code)]

pub use gaurast::*;

/// Workspace version string, kept in sync with the facade crate.
pub const WORKSPACE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Where example and repro binaries drop their output files.
///
/// Everything lands under `target/artifacts/` — next to the rest of the
/// build output, ignored by git, wiped by `cargo clean` — instead of
/// littering the repository root. The directory is anchored to this
/// crate's manifest directory (the workspace root), so artifacts land in
/// the same place no matter where the binary is launched from.
pub mod artifacts {
    use std::path::{Path, PathBuf};

    /// Directory examples write into: `<workspace root>/target/artifacts`.
    pub fn dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("target/artifacts")
    }

    /// Creates [`dir`] (if needed) and returns the full path for an
    /// artifact file named `name`.
    ///
    /// # Errors
    /// Propagates the I/O error when the directory cannot be created.
    pub fn path(name: &str) -> std::io::Result<PathBuf> {
        let dir = dir();
        std::fs::create_dir_all(&dir)?;
        Ok(dir.join(name))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::WORKSPACE_VERSION.is_empty());
    }

    #[test]
    fn artifact_paths_stay_under_target() {
        let p = super::artifacts::path("probe.txt").unwrap();
        assert!(p.ends_with("target/artifacts/probe.txt"), "{p:?}");
        assert!(p.parent().unwrap().is_dir());
        // The directory is inside the workspace's build output, never the
        // repository root.
        assert!(!p.parent().unwrap().ends_with("repo"));
    }
}
