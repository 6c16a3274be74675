//! Scalar ≡ SIMD bit-identity: the [`gaurast_render::simd`] kernels must
//! reproduce the scalar reference *exactly* — every pixel bit, every
//! statistic, every FP-op tally — at every worker width, for hostile
//! scene content.
//!
//! On hosts without AVX2/SSE4.1 the forced modes resolve downward, so the
//! comparisons degrade to scalar-vs-scalar and stay trivially green; CI
//! runs on x86-64 where all three levels are exercised.

use gaurast_math::Vec3;
use gaurast_render::pipeline::{render, render_record_only, RenderConfig};
use gaurast_render::pool::WorkerPool;
use gaurast_render::preprocess::{preprocess_pooled, preprocess_pooled_level};
use gaurast_render::VectorMode;
use gaurast_scene::generator::SceneParams;
use gaurast_scene::{Camera, Gaussian3, GaussianScene};
use proptest::prelude::*;

const MODES: [VectorMode; 3] = [
    VectorMode::Scalar,
    VectorMode::ForceSse,
    VectorMode::ForceAvx2,
];

fn camera(width: u32, height: u32) -> Camera {
    Camera::look_at(
        Vec3::new(0.0, 6.0, -28.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        width,
        height,
        1.05,
    )
    .expect("valid camera")
}

/// Renders one scene under every vector mode and asserts the complete
/// output — image, workload, stats, op tallies — is bit-identical to the
/// scalar reference.
fn assert_modes_identical(scene: &GaussianScene, cam: &Camera, base: RenderConfig) {
    let reference = render(scene, cam, &base.with_vector_mode(VectorMode::Scalar));
    for mode in [
        VectorMode::ForceSse,
        VectorMode::ForceAvx2,
        VectorMode::Auto,
    ] {
        let out = render(scene, cam, &base.with_vector_mode(mode));
        assert_eq!(
            reference.image, out.image,
            "image diverged under {mode:?} (workers {})",
            base.workers
        );
        assert_eq!(reference.workload, out.workload, "workload under {mode:?}");
        assert_eq!(
            reference.preprocess, out.preprocess,
            "stage-1 stats under {mode:?}"
        );
        assert_eq!(reference.raster, out.raster, "stage-3 stats under {mode:?}");
    }
}

/// Gaussians spanning extreme scales and positions, exercising every cull
/// branch (depth, degenerate conic, non-finite, sub-pixel, off-screen).
fn hostile_gaussian() -> impl Strategy<Value = Gaussian3> {
    (
        -1.0e4f32..1.0e4,
        -1.0e3f32..1.0e3,
        -1.0e4f32..1.0e4,
        -4.0f32..8.0,
        0.05f32..1.0,
    )
        .prop_map(|(x, y, z, log_sigma, opacity)| {
            Gaussian3::isotropic(
                Vec3::new(x, y, z),
                10.0f32.powf(log_sigma),
                opacity,
                Vec3::new(0.9, 0.5, 0.1),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random well-formed scenes: full pipeline equality at random worker
    /// widths.
    #[test]
    fn simd_matches_scalar_on_random_scenes(
        n in 1usize..700,
        seed in 0u64..u64::MAX,
        workers in 1usize..9,
    ) {
        let scene = SceneParams::new(n).seed(seed).generate().expect("valid scene");
        let cam = camera(96, 64);
        assert_modes_identical(&scene, &cam, RenderConfig::default().with_workers(workers));
    }

    /// Hostile scenes (covariance overflow, NaN-adjacent math, every cull
    /// class) on small odd framebuffers.
    #[test]
    fn simd_matches_scalar_on_hostile_scenes(
        gaussians in prop::collection::vec(hostile_gaussian(), 1..64),
        width in 1u32..70,
        height in 1u32..70,
        workers in 1usize..5,
    ) {
        let scene = GaussianScene::from_gaussians(gaussians).expect("validated");
        let cam = Camera::look_at(
            Vec3::new(0.0, 40.0, -220.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            width,
            height,
            1.05,
        ).expect("valid camera");
        assert_modes_identical(&scene, &cam, RenderConfig::default().with_workers(workers));
    }

    /// Stage 1 in isolation: the pooled preprocess entry point must agree
    /// across levels on splats, cull counts, and op tallies.
    #[test]
    fn preprocess_levels_agree(
        n in 1usize..900,
        seed in 0u64..u64::MAX,
        workers in 1usize..5,
    ) {
        let scene = SceneParams::new(n).seed(seed).generate().expect("valid scene");
        let cam = camera(128, 96);
        let pool = WorkerPool::new(workers);
        let reference = preprocess_pooled(&scene, &cam, &pool);
        for mode in MODES {
            let out = preprocess_pooled_level(&scene, &cam, &pool, mode.resolve());
            prop_assert_eq!(&reference, &out, "level {:?}", mode.resolve());
        }
    }
}

/// Every worker width 1..=8 — the full width range the bit-identity
/// contract names.
#[test]
fn all_worker_widths_are_bit_identical() {
    let scene = SceneParams::new(1500)
        .seed(7)
        .generate()
        .expect("valid scene");
    let cam = camera(128, 96);
    for workers in 1..=8 {
        assert_modes_identical(&scene, &cam, RenderConfig::default().with_workers(workers));
    }
}

/// Splat counts congruent to 1..7 (mod 8) exercise every partial-tail lane
/// count of both the 4-wide and 8-wide kernels.
#[test]
fn lane_tail_counts_are_bit_identical() {
    let cam = camera(64, 48);
    for extra in 0usize..8 {
        let n = 8 + extra; // 8..=15 covers n % 8 ∈ {0..7} and n % 4 ∈ {0..3}
        let scene = SceneParams::new(n)
            .seed(extra as u64)
            .generate()
            .expect("valid scene");
        assert_modes_identical(&scene, &cam, RenderConfig::default().with_workers(1));
    }
}

/// Non-finite splat parameters at the validation boundary must take the
/// same cull branches in every mode.
#[test]
fn non_finite_projection_is_bit_identical() {
    // Huge scale → covariance overflow → non-finite radius cull.
    let scene = GaussianScene::from_gaussians(vec![
        Gaussian3::isotropic(
            Vec3::new(0.0, 0.0, 0.0),
            5.0e16,
            0.9,
            Vec3::new(1.0, 0.0, 0.0),
        ),
        Gaussian3::isotropic(Vec3::new(1.0, 0.5, 2.0), 0.3, 0.8, Vec3::new(0.0, 1.0, 0.0)),
        Gaussian3::isotropic(
            Vec3::new(-2.0, 1.0, -3.0),
            1.0e-6,
            0.7,
            Vec3::new(0.0, 0.0, 1.0),
        ),
    ])
    .expect("validated");
    let cam = camera(48, 32);
    assert_modes_identical(&scene, &cam, RenderConfig::default().with_workers(2));
}

/// Degenerate framebuffer shapes: a single pixel and a non-tile-multiple
/// odd size.
#[test]
fn tiny_and_odd_framebuffers_are_bit_identical() {
    let scene = SceneParams::new(300)
        .seed(3)
        .generate()
        .expect("valid scene");
    for (w, h) in [(1, 1), (33, 17)] {
        assert_modes_identical(
            &scene,
            &camera(w, h),
            RenderConfig::default().with_workers(2),
        );
    }
}

/// An empty scene (no visible splats anywhere) must produce identical
/// empty outputs.
#[test]
fn empty_visible_set_is_bit_identical() {
    // Everything far behind the camera: depth-culled wholesale.
    let scene = GaussianScene::from_gaussians(vec![Gaussian3::isotropic(
        Vec3::new(0.0, 0.0, -1.0e4),
        0.2,
        0.9,
        Vec3::new(1.0, 1.0, 1.0),
    )])
    .expect("validated");
    let cam = camera(32, 32);
    assert_modes_identical(&scene, &cam, RenderConfig::default().with_workers(2));
    for mode in MODES {
        let out = render_record_only(
            &scene,
            &cam,
            &RenderConfig::default().with_vector_mode(mode),
        );
        assert_eq!(out.workload.splats().len(), 0, "mode {mode:?}");
    }
}
