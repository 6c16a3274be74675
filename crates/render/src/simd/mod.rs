//! Runtime-selected AVX2 data path for the Stage-1 and Stage-3 hot loops.
//!
//! The GauRast thesis is that 3DGS rendering is rasterizer-style
//! *data-parallel* work; this module demonstrates the same parallelism on
//! host vector units. Stage 1's per-Gaussian EWA projection + conic math
//! (`stage1`) runs over 8-Gaussian lane groups, and Stage 3's per-pixel
//! conic evaluation + front-to-back blending (`stage3`) runs over 8-pixel
//! groups along tile rows, using `core::arch` x86-64 AVX2 intrinsics.
//! Each stage has exactly two kernels: the verbatim scalar reference
//! (`preprocess_over`, `rasterize_tile`) and one AVX2 kernel here.
//!
//! # Bit-identity contract
//!
//! The AVX2 kernels are **not** allowed to change a single output bit
//! relative to the scalar reference, at any worker width. The recipe:
//!
//! 1. Each lane evaluates one Gaussian (Stage 1) or one pixel (Stage 3)
//!    with the reference's operations in the reference's order. Partial
//!    groups run through the same kernel: Stage 1 zeroes the unused lanes
//!    and finalizes only the gathered ones; Stage 3 pads each tile row to
//!    a multiple of 8 with dead pixels that no gate lets through.
//! 2. Each per-lane scalar operation becomes the corresponding
//!    *per-lane-exact* vector instruction: IEEE-754 add/sub/mul/div/sqrt/
//!    min/max/round are correctly rounded per lane, so `vaddps` ≡ 8 ×
//!    `vaddss` bit-for-bit. No FMA contraction, no reassociation, no
//!    approximate reciprocal/rsqrt instructions.
//! 3. The one transcendental, Stage 3's `exp`, is the repository's own
//!    [`gaurast_math::exp_f32`] in both kernels. Its steps are separately
//!    rounded `f64` operations (glibc's `expf` in its non-FMA form), so
//!    the AVX2 kernel evaluates it as two 4 × `f64` halves per lane group
//!    with the same operations in the same order and a table gather, and
//!    every lane matches the reference bit for bit.
//!
//! Branches become lane masks; operation-count tallies become mask
//! popcounts (each scalar branch tallies a constant op bundle, so a
//! popcount-scaled bundle reproduces the counts exactly).
//!
//! # Level selection
//!
//! Frames run at the host's level: [`detected_level`] probes the CPU
//! features a single time per process and caches the answer in a
//! `OnceLock` behind the [`crate::sync`] facade, so no
//! `is_x86_feature_detected!` ever runs inside per-frame code.
//! [`VectorMode`] only chooses between that level ([`VectorMode::Auto`])
//! and the scalar reference ([`VectorMode::Scalar`]). Callers that name a
//! level directly (`run_frame` and the `_level` entry points) are clamped
//! to [`detected_level`] at the Stage-1 and Stage-3 dispatch, so a host
//! without AVX2 runs the scalar reference — sound because both levels
//! render bit-identical frames.

use crate::sync::lazy::OnceLock;

#[cfg(target_arch = "x86_64")]
pub(crate) mod stage1;
#[cfg(target_arch = "x86_64")]
pub(crate) mod stage3;

/// Which kernels an engine session runs: the host's level or the scalar
/// reference. Every mode renders bit-identical frames — the choice trades
/// speed, never output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VectorMode {
    /// Always run the verbatim scalar reference kernels.
    Scalar,
    /// Run the AVX2 kernels when the host has AVX2, the scalar reference
    /// otherwise. The default.
    #[default]
    Auto,
}

/// Concrete kernel set chosen for a session/frame — the result of
/// resolving a [`VectorMode`] against the host CPU. Ordered by lane width
/// so `min` picks the narrower of a requested and a supported level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SimdLevel {
    /// Verbatim scalar reference kernels.
    #[default]
    Scalar,
    /// 8-wide AVX2 kernels.
    Avx2,
}

impl VectorMode {
    /// Resolves this mode to the concrete [`SimdLevel`] the kernels will
    /// run at on this host: `Scalar` stays scalar, `Auto` takes
    /// [`detected_level`].
    #[must_use]
    pub fn resolve(self) -> SimdLevel {
        match self {
            VectorMode::Scalar => SimdLevel::Scalar,
            VectorMode::Auto => detected_level(),
        }
    }
}

/// The widest [`SimdLevel`] the host CPU supports, probed once per
/// process and cached. Hosts without AVX2, and non-x86-64 hosts, report
/// [`SimdLevel::Scalar`].
#[must_use]
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(probe_level)
}

#[cfg(target_arch = "x86_64")]
fn probe_level() -> SimdLevel {
    if is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe_level() -> SimdLevel {
    SimdLevel::Scalar
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_resolve_to_scalar_and_the_detected_level() {
        assert_eq!(VectorMode::Scalar.resolve(), SimdLevel::Scalar);
        assert_eq!(VectorMode::Auto.resolve(), detected_level());
    }

    #[test]
    fn level_ordering_is_by_lane_width() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2);
    }
}
