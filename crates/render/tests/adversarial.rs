//! Adversarial-scene robustness of the preprocess → bin → rasterize
//! pipeline: extreme scales and positions, tiny and non-tile-multiple
//! framebuffers, empty visible sets, and non-finite inputs at the
//! validation boundary. Every case must complete without panicking, keep
//! non-finite values out of the framebuffer, and stay bit-identical
//! between the serial and parallel paths.

use gaurast_math::Vec3;
use gaurast_render::pipeline::{render, render_record_only, run_frame, RenderConfig, Stage1Input};
use gaurast_render::pool::WorkerPool;
use gaurast_render::preprocess::{
    preprocess_prepared_pooled_level, preprocess_prepared_visible_pooled_level,
};
use gaurast_render::rasterize::rasterize_with_level;
use gaurast_render::{FrameArena, Framebuffer, SimdLevel, DEFAULT_TILE_SIZE};
use gaurast_scene::{Camera, Gaussian3, GaussianScene, PreparedScene};
use proptest::prelude::*;

/// Gaussians spanning ten orders of magnitude in scale and far-flung
/// positions — the covariance-overflow and footprint-explosion regime.
fn hostile_gaussian_strategy() -> impl Strategy<Value = Gaussian3> {
    (
        -1.0e4f32..1.0e4,
        -1.0e3f32..1.0e3,
        -1.0e4f32..1.0e4,
        -4.0f32..8.0, // log10 sigma: 1e-4 .. 1e8
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

fn small_camera(width: u32, height: u32) -> Camera {
    Camera::look_at(
        Vec3::new(0.0, 40.0, -220.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        width,
        height,
        1.05,
    )
    .expect("valid camera")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hostile_scenes_render_without_panic_and_stay_finite(
        gaussians in prop::collection::vec(hostile_gaussian_strategy(), 1..60),
        width in 1u32..70,
        height in 1u32..70,
        workers in 1usize..5,
    ) {
        let scene = GaussianScene::from_gaussians(gaussians).expect("validated");
        let camera = small_camera(width, height);
        let cfg = RenderConfig::default().with_workers(workers);
        let out = render(&scene, &camera, &cfg);
        prop_assert_eq!(
            out.preprocess.visible + out.preprocess.culled,
            scene.len(),
            "every Gaussian accounted for"
        );
        // Nothing non-finite may reach the image.
        for c in out.image.colors() {
            prop_assert!(c.is_finite(), "non-finite pixel {c:?}");
        }
        // Serial and parallel agree even on hostile input.
        let serial = render(&scene, &camera, &RenderConfig::default().with_workers(1));
        prop_assert_eq!(&out.image, &serial.image);
        prop_assert_eq!(out.preprocess, serial.preprocess);
        prop_assert_eq!(out.raster, serial.raster);
    }

    /// The SIMD lane-group kernels on the same hostile regime: every
    /// level must take the identical cull branches (per-lane masks
    /// replicate the scalar branch priority, including NaN comparisons)
    /// and blend the identical pixels, with or without a framebuffer.
    #[test]
    fn hostile_scenes_vector_modes_are_bit_identical(
        gaussians in prop::collection::vec(hostile_gaussian_strategy(), 1..60),
        width in 1u32..70,
        height in 1u32..70,
        workers in 1usize..5,
    ) {
        let scene = GaussianScene::from_gaussians(gaussians).expect("validated");
        let camera = small_camera(width, height);
        let pool = WorkerPool::new(workers);
        let frame = |level: SimdLevel, imaged: bool| {
            let mut image = imaged.then(|| Framebuffer::new(camera.width(), camera.height()));
            let out = run_frame(
                Stage1Input::Raw(&scene),
                &camera,
                DEFAULT_TILE_SIZE,
                level,
                &pool,
                &mut FrameArena::new(),
                image.as_mut(),
                |_| {},
            );
            (image, out)
        };
        let (reference_image, reference) = frame(SimdLevel::Scalar, true);
        for level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            for imaged in [true, false] {
                let (image, out) = frame(level, imaged);
                if imaged {
                    prop_assert_eq!(&reference_image, &image, "image at {:?}", level);
                }
                prop_assert_eq!(&reference.workload, &out.workload, "workload at {:?}", level);
                prop_assert_eq!(reference.preprocess, out.preprocess, "stage-1 stats at {:?}", level);
                prop_assert_eq!(reference.raster, out.raster, "stage-3 stats at {:?}", level);
            }
        }
    }

    #[test]
    fn hostile_scenes_culled_path_is_bit_identical(
        gaussians in prop::collection::vec(hostile_gaussian_strategy(), 1..60),
        workers in 1usize..5,
    ) {
        // Giant scene extents inflate the conservative slack; the visible
        // set may then cull little — but never wrongly.
        let scene = GaussianScene::from_gaussians(gaussians).expect("validated");
        let prepared = PreparedScene::prepare(scene);
        let camera = small_camera(64, 48);
        let pool = WorkerPool::new(workers);
        let level = SimdLevel::Scalar;
        let full = preprocess_prepared_pooled_level(&prepared, &camera, &pool, level);
        let set = prepared.visible_set(&camera);
        let culled =
            preprocess_prepared_visible_pooled_level(&prepared, &camera, &set, &pool, level);
        prop_assert_eq!(&culled, &full);
    }
}

#[test]
fn nan_and_inf_parameters_rejected_at_validation() {
    let good = || Gaussian3::isotropic(Vec3::zero(), 0.3, 0.8, Vec3::one());
    let mut nan_pos = good();
    nan_pos.position = Vec3::new(f32::NAN, 0.0, 0.0);
    assert!(GaussianScene::from_gaussians(vec![nan_pos]).is_err());
    let mut inf_pos = good();
    inf_pos.position = Vec3::new(0.0, f32::INFINITY, 0.0);
    assert!(GaussianScene::from_gaussians(vec![inf_pos]).is_err());
    let mut nan_scale = good();
    nan_scale.scale = Vec3::new(0.1, f32::NAN, 0.1);
    assert!(GaussianScene::from_gaussians(vec![nan_scale]).is_err());
    let mut inf_scale = good();
    inf_scale.scale = Vec3::splat(f32::INFINITY);
    assert!(GaussianScene::from_gaussians(vec![inf_scale]).is_err());
    // A scene mixing one bad Gaussian into good ones reports the index.
    let mut bad = good();
    bad.position = Vec3::splat(f32::NAN);
    let err = GaussianScene::from_gaussians(vec![good(), bad]).unwrap_err();
    assert!(err.to_string().contains('1'), "offending index in {err}");
}

#[test]
fn covariance_overflow_is_culled_as_non_finite_not_binned() {
    // Extreme anisotropy whose eigenvalue computation overflows: without
    // the non-finite cull this splat would be binned with an infinite
    // radius and blend into every tile.
    let mut g = Gaussian3::isotropic(Vec3::zero(), 1.0, 0.9, Vec3::one());
    g.scale = Vec3::new(5.0e16, 1.0e-3, 1.0e-3);
    let scene = GaussianScene::from_gaussians(vec![g]).unwrap();
    let camera = Camera::look_at(
        Vec3::new(0.0, 0.0, -5.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        64,
        64,
        1.0,
    )
    .unwrap();
    let out = render_record_only(&scene, &camera, &RenderConfig::default());
    assert_eq!(out.preprocess.visible, 0);
    assert_eq!(out.preprocess.culled, 1);
    assert_eq!(out.preprocess.non_finite, 1, "counted cull reason");
    assert_eq!(out.workload.total_pairs(), 0, "nothing may be binned");
}

#[test]
fn one_by_one_framebuffer_renders() {
    let scene = GaussianScene::from_gaussians(vec![Gaussian3::isotropic(
        Vec3::zero(),
        0.5,
        0.9,
        Vec3::new(1.0, 0.0, 0.0),
    )])
    .unwrap();
    let camera = Camera::look_at(
        Vec3::new(0.0, 0.0, -4.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        1,
        1,
        1.0,
    )
    .unwrap();
    let out = render(&scene, &camera, &RenderConfig::default());
    assert_eq!(out.workload.tile_count(), 1);
    assert!(out.image.coverage() > 0.0, "the single pixel must be hit");
}

#[test]
fn non_tile_multiple_framebuffer_matches_serial() {
    use gaurast_scene::generator::SceneParams;
    let scene = SceneParams::new(500).seed(4).generate().unwrap();
    let camera = Camera::look_at(
        Vec3::new(0.0, 5.0, -25.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        33,
        17,
        1.05,
    )
    .unwrap();
    let serial = render(&scene, &camera, &RenderConfig::default().with_workers(1));
    let parallel = render(&scene, &camera, &RenderConfig::default().with_workers(4));
    assert_eq!(serial.workload.tiles_x(), 3);
    assert_eq!(serial.workload.tiles_y(), 2);
    assert_eq!(serial.image, parallel.image);
    assert_eq!(serial.raster, parallel.raster);
}

#[test]
fn empty_visible_set_renders_empty_frame() {
    use gaurast_scene::generator::SceneParams;
    let scene = SceneParams::new(300).seed(6).generate().unwrap();
    let prepared = PreparedScene::prepare(scene);
    // Camera facing directly away: the set is empty, and the pipeline
    // over it must agree with the full pipeline (which culls everything).
    let camera = Camera::look_at(
        Vec3::new(0.0, 0.0, -90.0),
        Vec3::new(0.0, 0.0, -180.0),
        Vec3::new(0.0, 1.0, 0.0),
        48,
        32,
        1.0,
    )
    .unwrap();
    let set = prepared.visible_set(&camera);
    assert!(set.is_empty());
    let pool = WorkerPool::new(4);
    let pre = preprocess_prepared_visible_pooled_level(
        &prepared,
        &camera,
        &set,
        &pool,
        SimdLevel::Scalar,
    );
    assert!(pre.splats.is_empty());
    assert_eq!(pre.culled, prepared.len());
    let mut workload = gaurast_render::tile::bin_splats_pooled(
        pre.splats,
        camera.width(),
        camera.height(),
        16,
        &mut FrameArena::new(),
        &pool,
    );
    let mut fb = Framebuffer::new(camera.width(), camera.height());
    let stats = rasterize_with_level(&mut workload, Some(&mut fb), &pool, SimdLevel::Scalar);
    assert_eq!(stats.blends_committed, 0);
    assert_eq!(fb.coverage(), 0.0);
}
