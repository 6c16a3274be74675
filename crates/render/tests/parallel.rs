//! Determinism of the intra-frame parallel pipeline: for random scenes and
//! cameras, a parallel render (`workers = 4`) must be **bit-identical** to
//! the serial path (`workers = 1`) — image bytes, preprocess op counts,
//! cull statistics, rasterization statistics, and per-tile processed
//! counts — and the record-only path must agree with the imaging path.

use gaurast_math::Vec3;
use gaurast_render::pipeline::{render, render_record_only, RenderConfig};
use gaurast_render::pool::WorkerPool;
use gaurast_render::preprocess::{preprocess_pooled_level, PREPROCESS_CHUNK};
use gaurast_render::SimdLevel;
use gaurast_scene::{Camera, Gaussian3, GaussianScene};
use proptest::prelude::*;

fn gaussian_strategy() -> impl Strategy<Value = Gaussian3> {
    (
        -8.0f32..8.0,
        -8.0f32..8.0,
        -8.0f32..8.0,
        0.02f32..1.2,
        0.05f32..0.99,
        0.0f32..1.0,
    )
        .prop_map(|(x, y, z, sigma, opacity, hue)| {
            Gaussian3::isotropic(
                Vec3::new(x, y, z),
                sigma,
                opacity,
                Vec3::new(hue, 1.0 - hue, 0.5),
            )
        })
}

fn camera_strategy() -> impl Strategy<Value = Camera> {
    (0.0f32..std::f32::consts::TAU, 2.0f32..10.0, -4.0f32..6.0).prop_map(|(theta, dist, height)| {
        Camera::look_at(
            Vec3::new(dist * 2.5 * theta.sin(), height, -dist * 2.5 * theta.cos()),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            96,
            80,
            1.05,
        )
        .expect("valid orbit camera")
    })
}

fn scene_of(gaussians: Vec<Gaussian3>) -> GaussianScene {
    GaussianScene::from_gaussians(gaussians).expect("non-empty random scene")
}

/// Asserts every observable of two render outputs is bit-identical.
fn assert_bit_identical(
    a: &gaurast_render::pipeline::RenderOutput,
    b: &gaurast_render::pipeline::RenderOutput,
) {
    assert_eq!(a.image, b.image, "image planes must be bit-identical");
    assert_eq!(a.preprocess, b.preprocess, "stage-1 stats must match");
    assert_eq!(a.raster, b.raster, "stage-3 stats must match");
    assert_eq!(a.workload, b.workload, "workloads must match");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_render_is_bit_identical_to_serial(
        gaussians in prop::collection::vec(gaussian_strategy(), 1..400),
        camera in camera_strategy(),
    ) {
        let scene = scene_of(gaussians);
        let serial = render(&scene, &camera, &RenderConfig::default().with_workers(1));
        let parallel = render(&scene, &camera, &RenderConfig::default().with_workers(4));
        assert_bit_identical(&serial, &parallel);
    }

    #[test]
    fn record_only_matches_imaging_path_at_any_width(
        gaussians in prop::collection::vec(gaussian_strategy(), 1..200),
        camera in camera_strategy(),
        workers in 1usize..5,
    ) {
        let scene = scene_of(gaussians);
        let cfg = RenderConfig::default().with_workers(workers);
        let full = render(&scene, &camera, &cfg);
        let counts = render_record_only(&scene, &camera, &cfg);
        prop_assert_eq!(counts.preprocess, full.preprocess);
        prop_assert_eq!(counts.raster, full.raster);
        prop_assert_eq!(counts.workload.blend_work(), full.workload.blend_work());
        for ty in 0..full.workload.tiles_y() {
            for tx in 0..full.workload.tiles_x() {
                prop_assert_eq!(
                    counts.workload.processed_count(tx, ty),
                    full.workload.processed_count(tx, ty)
                );
            }
        }
    }

    #[test]
    fn chunked_preprocess_stitches_in_index_order(
        gaussians in prop::collection::vec(gaussian_strategy(), 1..120),
        camera in camera_strategy(),
    ) {
        // Repeat the random scene until it spans several chunks, so the
        // chunked path actually splits.
        let n = gaussians.len();
        let copies = PREPROCESS_CHUNK / n + 2;
        let mut all = Vec::with_capacity(n * copies);
        for _ in 0..copies {
            all.extend(gaussians.iter().cloned());
        }
        let scene = scene_of(all);
        let stage1 = |pool: &WorkerPool| {
            preprocess_pooled_level(&scene, &camera, pool, SimdLevel::Scalar)
        };
        let serial = stage1(&WorkerPool::serial());
        let parallel = stage1(&WorkerPool::new(4));
        prop_assert_eq!(&serial, &parallel);
        // Source ids must be globally indexed and strictly increasing
        // (stitching in chunk order preserves the serial emission order).
        for w in serial.splats.windows(2) {
            prop_assert!(w[0].source < w[1].source);
        }
    }
}

/// Fixed scenes rendered at every pool width 1..=8: all outputs must equal
/// the serial frame bit for bit (the golden cross-check the proptests
/// randomize). The inputs are a synthetic mid-size scene and a NeRF-360
/// descriptor scene (Garden at unit-test scale, θ = 0.4).
#[test]
fn all_pool_widths_agree_on_fixed_scene() {
    use gaurast_scene::generator::SceneParams;
    use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};
    let synthetic = (
        "synthetic",
        SceneParams::new(3000).seed(7).generate().unwrap(),
        Camera::look_at(
            Vec3::new(0.0, 6.0, -28.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            160,
            112,
            1.05,
        )
        .unwrap(),
    );
    let desc = Nerf360Scene::Garden.descriptor();
    let garden = (
        "garden",
        desc.synthesize(SceneScale::UNIT_TEST),
        desc.camera(SceneScale::UNIT_TEST, 0.4).unwrap(),
    );
    for (name, scene, camera) in [synthetic, garden] {
        let serial = render(&scene, &camera, &RenderConfig::default().with_workers(1));
        assert!(serial.image.coverage() > 0.02, "{name}");
        for workers in 2..=8 {
            let out = render(
                &scene,
                &camera,
                &RenderConfig::default().with_workers(workers),
            );
            assert_eq!(out.image, serial.image, "{name} workers={workers}");
            assert_eq!(out.raster, serial.raster, "{name} workers={workers}");
            assert_eq!(
                out.preprocess, serial.preprocess,
                "{name} workers={workers}"
            );
            assert_eq!(out.workload, serial.workload, "{name} workers={workers}");
        }
    }
}

/// The ≥2× intra-frame scaling acceptance check: skipped (not failed) on
/// machines without at least 4 cores, asserted on capable multi-core
/// runners. Uses a raster-heavy frame so the parallel tile jobs dominate.
///
/// Ignored by default: wall-clock measurement is only meaningful without
/// concurrent harness neighbors stealing the cores mid-window. CI runs it
/// as a dedicated step:
/// `cargo test --release -p gaurast-render --test parallel -- --ignored
/// --test-threads=1`.
#[test]
#[ignore = "timing assertion; run dedicated with --ignored --test-threads=1"]
fn four_workers_reach_2x_on_multicore() {
    use gaurast_scene::generator::SceneParams;
    use std::time::Instant;

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores < 4 {
        eprintln!("skipping intra-frame scaling check: only {cores} core(s) available");
        return;
    }
    let scene = SceneParams::new(20_000).seed(42).generate().unwrap();
    let camera = Camera::look_at(
        Vec3::new(0.0, 6.0, -28.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        320,
        208,
        1.05,
    )
    .unwrap();
    let time_with = |workers: usize| {
        let cfg = RenderConfig::default().with_workers(workers);
        let _warmup = render(&scene, &camera, &cfg);
        let started = Instant::now();
        let frames = 3;
        for _ in 0..frames {
            let out = render(&scene, &camera, &cfg);
            assert!(out.raster.blends_committed > 0);
        }
        started.elapsed().as_secs_f64() / frames as f64
    };
    let serial = time_with(1);
    let parallel = time_with(4);
    let speedup = serial / parallel;
    assert!(
        speedup >= 2.0,
        "4-worker frame must be ≥2x serial on a {cores}-core host, got {speedup:.2}x \
         ({serial:.4}s vs {parallel:.4}s)"
    );
}
