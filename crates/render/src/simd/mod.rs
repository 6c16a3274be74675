//! Runtime-selected SIMD data path for the Stage-1 and Stage-3 hot loops.
//!
//! The GauRast thesis is that 3DGS rendering is rasterizer-style
//! *data-parallel* work; this module demonstrates the same parallelism on
//! host vector units. Stage 1's per-Gaussian EWA projection + conic math
//! (`stage1`) runs over 4/8-Gaussian lane groups, and Stage 3's
//! per-pixel conic evaluation + front-to-back blending (`stage3`) runs
//! over 4/8-pixel groups along tile rows, using `core::arch` x86-64
//! SSE4.1 / AVX2 intrinsics.
//!
//! # Bit-identity contract
//!
//! The SIMD kernels are **not** allowed to change a single output bit
//! relative to the scalar reference (`preprocess_over`, `rasterize_tile`),
//! at any worker width. The recipe:
//!
//! 1. The scalar kernels were first *restructured* into lane-group form
//!    (gather inputs, evaluate per lane in the exact original operation
//!    order, finalize in lane order) without vectorizing — proven
//!    bit-identical to the verbatim kernels by proptest.
//! 2. The SSE/AVX2 kernels then replace each per-lane scalar operation
//!    with the corresponding *per-lane-exact* vector instruction:
//!    IEEE-754 add/sub/mul/div/sqrt/min/max/round are correctly rounded
//!    per lane, so `addps` ≡ 4 × `addss` bit-for-bit. No FMA contraction,
//!    no reassociation, no approximate reciprocal/rsqrt instructions.
//! 3. Transcendentals stay scalar: `exp` is extracted per active lane and
//!    computed with the very same `f32::exp` the reference calls.
//!
//! Branches become lane masks; operation-count tallies become mask
//! popcounts (each scalar branch tallies a constant op bundle, so a
//! popcount-scaled bundle reproduces the counts exactly).
//!
//! # Level selection
//!
//! [`VectorMode`] is the user-facing knob
//! ([`crate::pipeline::RenderConfig::vector_mode`]); [`VectorMode::resolve`]
//! collapses it to a concrete [`SimdLevel`] exactly once per configuration
//! read, using CPU-feature detection that is probed a single time per
//! process and cached in a `OnceLock` behind the [`crate::sync`] facade —
//! no `is_x86_feature_detected!` ever runs inside per-frame code. The
//! [`VECTOR_ENV`] environment variable overrides the configured mode
//! (that is how CI forces the scalar path globally), and `Force*` modes
//! degrade to the best *supported* level at or below the forced one —
//! sound because every level renders bit-identical frames.

use crate::sync::lazy::OnceLock;

pub(crate) mod stage1;
pub(crate) mod stage3;

/// Environment variable overriding the configured [`VectorMode`]
/// (`scalar`, `auto`, `sse`, `avx2`). Unrecognized values are ignored.
/// Read once per process and cached; see [`VectorMode::resolve`].
pub const VECTOR_ENV: &str = "GAURAST_VECTOR";

/// User-facing selection of the vector data path, carried by
/// [`crate::pipeline::RenderConfig::vector_mode`] and the engine/service
/// builders. Every mode renders bit-identical frames — the knob trades
/// speed, never output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VectorMode {
    /// Always run the verbatim scalar reference kernels.
    Scalar,
    /// Pick the widest supported level at runtime (AVX2 → SSE4.1 →
    /// scalar). The default.
    #[default]
    Auto,
    /// Request the 4-wide SSE4.1 kernels; falls back to scalar when
    /// SSE4.1 is unsupported.
    ForceSse,
    /// Request the 8-wide AVX2 kernels; falls back to SSE4.1 or scalar
    /// when AVX2 is unsupported.
    ForceAvx2,
}

/// Concrete kernel set chosen for a session/frame — the result of
/// resolving a [`VectorMode`] against the host CPU (and the [`VECTOR_ENV`]
/// override). Ordered by lane width so `min` picks the narrower of a
/// requested and a supported level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum SimdLevel {
    /// Verbatim scalar reference kernels.
    #[default]
    Scalar,
    /// 4-wide SSE4.1 kernels.
    Sse,
    /// 8-wide AVX2 kernels.
    Avx2,
}

impl SimdLevel {
    /// Lane-group width of this level's kernels (1, 4, or 8 `f32` lanes).
    #[must_use]
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse => 4,
            SimdLevel::Avx2 => 8,
        }
    }
}

impl VectorMode {
    /// Resolves this mode to the concrete [`SimdLevel`] the kernels will
    /// run at on this host.
    ///
    /// The [`VECTOR_ENV`] override (if set and parseable) replaces the
    /// configured mode first; then `Auto` takes the detected level and
    /// `Force*` takes the minimum of the requested and detected levels
    /// (falling back is sound — all levels are bit-identical). Both the
    /// environment read and the CPUID probe are performed once per
    /// process and cached.
    #[must_use]
    pub fn resolve(self) -> SimdLevel {
        let mode = env_mode_override().unwrap_or(self);
        match mode {
            VectorMode::Scalar => SimdLevel::Scalar,
            VectorMode::Auto => detected_level(),
            VectorMode::ForceSse => SimdLevel::Sse.min(detected_level()),
            VectorMode::ForceAvx2 => SimdLevel::Avx2.min(detected_level()),
        }
    }
}

/// The widest [`SimdLevel`] the host CPU supports, probed once per
/// process and cached. Non-x86-64 hosts always report
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
    } else if is_x86_feature_detected!("sse4.1") {
        SimdLevel::Sse
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe_level() -> SimdLevel {
    SimdLevel::Scalar
}

/// The [`VECTOR_ENV`] override, read and parsed once per process.
/// `None` when the variable is unset or unparseable.
fn env_mode_override() -> Option<VectorMode> {
    static ENV_MODE: OnceLock<Option<VectorMode>> = OnceLock::new();
    *ENV_MODE.get_or_init(|| {
        // gaurast-check: allow(nondet): documented config knob, resolved once
        // per process and cached — never re-read inside the per-frame pipeline.
        let raw = std::env::var(VECTOR_ENV).ok()?;
        match raw.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(VectorMode::Scalar),
            "auto" => Some(VectorMode::Auto),
            "sse" | "force_sse" => Some(VectorMode::ForceSse),
            "avx2" | "force_avx2" => Some(VectorMode::ForceAvx2),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_mode_always_resolves_scalar_unless_env_overrides() {
        if std::env::var(VECTOR_ENV).is_err() {
            assert_eq!(VectorMode::Scalar.resolve(), SimdLevel::Scalar);
        }
    }

    #[test]
    fn force_modes_never_exceed_detection() {
        let detected = detected_level();
        assert!(VectorMode::ForceSse.resolve() <= SimdLevel::Sse.min(detected).max(detected));
        assert!(VectorMode::ForceAvx2.resolve() <= detected.max(SimdLevel::Avx2));
        assert!(VectorMode::Auto.resolve() <= detected);
    }

    #[test]
    fn level_ordering_is_by_lane_width() {
        assert!(SimdLevel::Scalar < SimdLevel::Sse);
        assert!(SimdLevel::Sse < SimdLevel::Avx2);
    }
}
