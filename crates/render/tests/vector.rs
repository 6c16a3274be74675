//! Scalar ≡ SIMD bit-identity: the [`gaurast_render::simd`] kernels must
//! reproduce the scalar reference *exactly* — every pixel bit, every
//! statistic, every FP-op tally — at every worker width, for hostile
//! scene content.
//!
//! Every comparison names its levels. A level the host lacks is clamped
//! to the widest one it has, so on hosts without AVX2 the comparisons
//! degrade to scalar-vs-scalar and stay trivially green; CI checks that
//! its runner has AVX2, so both levels are exercised there.

use gaurast_math::{Vec2, Vec3};
use gaurast_render::pipeline::{render, run_frame, RenderConfig, Stage1Input, WorkloadOutput};
use gaurast_render::pool::WorkerPool;
use gaurast_render::preprocess::{
    preprocess_pooled_level, preprocess_prepared_pooled_level,
    preprocess_prepared_visible_pooled_level,
};
use gaurast_render::rasterize::rasterize_with_level;
use gaurast_render::tile::bin_splats;
use gaurast_render::{FrameArena, Framebuffer, SimdLevel, Splat2D, DEFAULT_TILE_SIZE};
use gaurast_scene::generator::SceneParams;
use gaurast_scene::{Camera, Gaussian3, GaussianScene, PreparedScene};
use proptest::prelude::*;

const LEVELS: [SimdLevel; 2] = [SimdLevel::Scalar, SimdLevel::Avx2];

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

/// One frame through the frame driver at `level` over `pool`, into a
/// fresh framebuffer when `imaged`, record-only otherwise.
fn frame(
    input: Stage1Input<'_>,
    cam: &Camera,
    level: SimdLevel,
    pool: &WorkerPool,
    imaged: bool,
) -> (Option<Framebuffer>, WorkloadOutput) {
    let mut image = imaged.then(|| Framebuffer::new(cam.width(), cam.height()));
    let out = run_frame(
        input,
        cam,
        DEFAULT_TILE_SIZE,
        level,
        pool,
        &mut FrameArena::new(),
        image.as_mut(),
        |_| {},
    );
    (image, out)
}

/// Renders one raw scene at every SIMD level, with and without a
/// framebuffer, and asserts the complete output — image, workload, stats,
/// op tallies — is bit-identical to the scalar imaged reference. The free
/// [`render`] path (the host's detected level) must agree too.
fn assert_levels_identical(scene: &GaussianScene, cam: &Camera, workers: usize) {
    let pool = WorkerPool::new(workers);
    let input = Stage1Input::Raw(scene);
    let (reference_image, reference) = frame(input, cam, SimdLevel::Scalar, &pool, true);
    for level in LEVELS {
        for imaged in [true, false] {
            let (image, out) = frame(input, cam, level, &pool, imaged);
            if imaged {
                assert_eq!(
                    reference_image, image,
                    "image diverged at {level:?} (workers {workers})"
                );
            }
            assert_eq!(
                reference.workload, out.workload,
                "workload at {level:?} (imaged {imaged})"
            );
            assert_eq!(
                reference.preprocess, out.preprocess,
                "stage-1 stats at {level:?} (imaged {imaged})"
            );
            assert_eq!(
                reference.raster, out.raster,
                "stage-3 stats at {level:?} (imaged {imaged})"
            );
        }
    }
    let out = render(scene, cam, &RenderConfig::default().with_workers(workers));
    assert_eq!(reference_image.as_ref(), Some(&out.image), "render image");
    assert_eq!(reference.workload, out.workload, "render workload");
    assert_eq!(reference.preprocess, out.preprocess, "render stage-1 stats");
    assert_eq!(reference.raster, out.raster, "render stage-3 stats");
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
        assert_levels_identical(&scene, &cam, workers);
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
        assert_levels_identical(&scene, &cam, workers);
    }

    /// Stage 1 in isolation: the raw, prepared and visible-set `_level`
    /// entry points must agree across levels on splats, cull counts, and
    /// op tallies.
    #[test]
    fn preprocess_levels_agree(
        n in 1usize..900,
        seed in 0u64..u64::MAX,
        workers in 1usize..5,
    ) {
        let scene = SceneParams::new(n).seed(seed).generate().expect("valid scene");
        let cam = camera(128, 96);
        let pool = WorkerPool::new(workers);
        let reference = preprocess_pooled_level(&scene, &cam, &pool, SimdLevel::Scalar);
        let prepared = PreparedScene::prepare(scene.clone());
        let set = prepared.visible_set(&cam);
        for level in LEVELS {
            let raw = preprocess_pooled_level(&scene, &cam, &pool, level);
            prop_assert_eq!(&reference, &raw, "raw at {:?}", level);
            let full = preprocess_prepared_pooled_level(&prepared, &cam, &pool, level);
            prop_assert_eq!(&reference, &full, "prepared at {:?}", level);
            let culled =
                preprocess_prepared_visible_pooled_level(&prepared, &cam, &set, &pool, level);
            prop_assert_eq!(&reference, &culled, "visible set at {:?}", level);
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
        assert_levels_identical(&scene, &cam, workers);
    }
}

/// Splat counts congruent to 0..7 (mod 8) exercise every partial-tail lane
/// count of the 8-wide Stage-1 kernel.
#[test]
fn lane_tail_counts_are_bit_identical() {
    let cam = camera(64, 48);
    for extra in 0usize..8 {
        let n = 8 + extra; // 8..=15 covers n % 8 ∈ {0..7}
        let scene = SceneParams::new(n)
            .seed(extra as u64)
            .generate()
            .expect("valid scene");
        assert_levels_identical(&scene, &cam, 1);
    }
}

/// Non-finite splat parameters at the validation boundary must take the
/// same cull branches at every level.
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
    assert_levels_identical(&scene, &cam, 2);
}

/// Degenerate framebuffer shapes: a single pixel, a non-tile-multiple odd
/// size, and widths 17..=31, whose right-edge tiles run every row width
/// from 1 to 15 — every count of dead padding lanes in the Stage-3
/// kernel's first or second lane group.
#[test]
fn tiny_and_odd_framebuffers_are_bit_identical() {
    let scene = SceneParams::new(300)
        .seed(3)
        .generate()
        .expect("valid scene");
    let edge_widths = (17..=31).map(|w| (w, 9));
    for (w, h) in [(1, 1), (33, 17)].into_iter().chain(edge_widths) {
        assert_levels_identical(&scene, &camera(w, h), 2);
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
    assert_levels_identical(&scene, &cam, 2);
    let pool = WorkerPool::new(2);
    for level in LEVELS {
        let (_, out) = frame(Stage1Input::Raw(&scene), &cam, level, &pool, false);
        assert_eq!(out.workload.splats().len(), 0, "level {level:?}");
    }
}

/// Stage 1 clamps a requested level to the host's, the way Stage 3 does:
/// `Avx2` handed to each Stage-1 `_level` entry and to `run_frame` over
/// every input is sound on any host and reproduces the scalar output.
#[test]
fn stage1_clamps_a_level_above_the_host() {
    let scene = SceneParams::new(1500)
        .seed(5)
        .generate()
        .expect("valid scene");
    let cam = camera(96, 64);
    let prepared = PreparedScene::prepare(scene.clone());
    let set = prepared.visible_set(&cam);
    for workers in [1, 3] {
        let pool = WorkerPool::new(workers);
        let scalar = preprocess_pooled_level(&scene, &cam, &pool, SimdLevel::Scalar);
        let avx2 = SimdLevel::Avx2;
        assert_eq!(preprocess_pooled_level(&scene, &cam, &pool, avx2), scalar);
        assert_eq!(
            preprocess_prepared_pooled_level(&prepared, &cam, &pool, avx2),
            scalar
        );
        assert_eq!(
            preprocess_prepared_visible_pooled_level(&prepared, &cam, &set, &pool, avx2),
            scalar
        );
        let (reference_image, reference) = frame(
            Stage1Input::Raw(&scene),
            &cam,
            SimdLevel::Scalar,
            &pool,
            true,
        );
        for (label, input) in [
            ("raw", Stage1Input::Raw(&scene)),
            ("prepared", Stage1Input::Prepared(&prepared, None)),
            ("visible set", Stage1Input::Prepared(&prepared, Some(&set))),
        ] {
            let (image, out) = frame(input, &cam, avx2, &pool, true);
            assert_eq!(image, reference_image, "{label} (workers {workers})");
            assert_eq!(out, reference, "{label} (workers {workers})");
        }
    }
}

/// Stage-3 edge cases of the exponential and of its lane-group skip,
/// through hand-built splats on a 32×32 image with 16-pixel tiles:
/// opacities above, at and below the skip's bound (and −∞, which the skip
/// must exclude), NaN and −∞ powers, a power of −0, and lane groups whose
/// powers straddle the skip threshold. Compares the image, the
/// `RasterStats` and every tile's processed count; the images are
/// finite, so `Framebuffer` equality is bit equality.
#[test]
fn stage3_exp_edges_are_bit_identical() {
    let splat = |x: f32, y: f32, conic: [f32; 3], opacity: f32, depth: f32| Splat2D {
        mean: Vec2::new(x, y),
        conic,
        depth,
        color: Vec3::new(0.9, 0.5, 0.2),
        opacity,
        radius: 64.0,
        source: 0,
    };
    // power = −(dx² + dy²)/4: below −5.6 beyond 4.73 px from the mean.
    let round = [0.5, 0.0, 0.5];
    // Row y = 13.5 lies 4.9 px below a mean at y = 8.6, so every lane
    // group of that row is below −5.6, yet its pixels near x = 9.5 blend
    // once the opacity exceeds about 2.6.
    let deep_row = |opacity| vec![splat(9.5, 8.6, round, opacity, 1.0)];
    // Lanes x = 8.5..15.5 of a row through the means cross −5.6 at
    // x ≈ mean − 4.73, inside the lane group.
    let straddle = (0..12u8)
        .map(|k| {
            let k = f32::from(k);
            splat(12.0 + 0.25 * k, 4.5, round, 0.5 + 0.04 * k, 1.0 + k)
        })
        .collect();
    let cases: Vec<(&str, Vec<Splat2D>)> = vec![
        ("opacity 1000", deep_row(1000.0)),
        ("opacity 3", deep_row(3.0)),
        ("opacity 1", deep_row(1.0)),
        // Beyond 20.4 px the exponential underflows to 0 and
        // −∞ · 0 = NaN clamps to an alpha of 0.99, so far pixels blend.
        (
            "opacity -inf",
            vec![splat(2.5, 2.5, round, f32::NEG_INFINITY, 1.0)],
        ),
        // power NaN everywhere: alpha 0.99.
        (
            "NaN conic",
            vec![splat(9.5, 8.6, [f32::NAN, 0.0, 0.5], 0.8, 1.0)],
        ),
        // power −∞ off the mean's column (alpha 0), NaN on it (∞ · 0).
        (
            "inf conic",
            vec![splat(8.5, 8.6, [f32::INFINITY, 0.0, 0.5], 0.8, 1.0)],
        ),
        // power −0 at the pixel (8, 8).
        (
            "mean on a pixel center",
            vec![splat(8.5, 8.5, round, 0.7, 1.0)],
        ),
        ("straddling lane groups", straddle),
    ];
    let pool = WorkerPool::serial();
    for (label, splats) in cases {
        let run = |level| {
            let mut workload = bin_splats(splats.clone(), 32, 32, 16);
            let mut image = Framebuffer::new(32, 32);
            let stats = rasterize_with_level(&mut workload, Some(&mut image), &pool, level);
            let processed: Vec<u32> = [(0, 0), (1, 0), (0, 1), (1, 1)]
                .into_iter()
                .map(|(tx, ty)| workload.processed_count(tx, ty))
                .collect();
            (image, stats, processed)
        };
        let (reference_image, reference_stats, reference_processed) = run(SimdLevel::Scalar);
        for level in LEVELS {
            let (image, stats, processed) = run(level);
            assert!(image == reference_image, "{label}: image at {level:?}");
            assert_eq!(stats, reference_stats, "{label}: stats at {level:?}");
            assert_eq!(
                processed, reference_processed,
                "{label}: processed at {level:?}"
            );
        }
    }
}
