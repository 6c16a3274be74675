//! Bit-identity of the frustum-culled visible-set path.
//!
//! The hard invariant of the visibility subsystem: culling may only drop
//! Gaussians Stage 1 would have culled anyway, so for **any** scene,
//! camera, and worker count, rendering over a
//! [`gaurast_scene::VisibleSet`] must be bit-identical to rendering the
//! whole scene — splats, order, `source` ids, cull counts, FP-op
//! tallies, images, and rasterization statistics. These proptests
//! randomize all three axes; the fixed large-scene test at the bottom
//! checks the subsystem actually removes Stage-1 work for off-center
//! views.

use gaurast_math::{Quat, Vec3};
use gaurast_render::pool::WorkerPool;
use gaurast_render::preprocess::{
    preprocess_prepared_pooled_level, preprocess_prepared_visible_pooled_level, PreprocessOutput,
};
use gaurast_render::rasterize::rasterize_with_level;
use gaurast_render::tile::bin_splats_pooled;
use gaurast_render::{FrameArena, Framebuffer, SimdLevel};
use gaurast_scene::{Camera, Gaussian3, GaussianScene, PreparedScene, VisibleSet};
use proptest::prelude::*;

fn gaussian_strategy() -> impl Strategy<Value = Gaussian3> {
    (
        -12.0f32..12.0,
        -8.0f32..8.0,
        -12.0f32..12.0,
        0.02f32..1.5,
        0.05f32..15.0,
        0.05f32..0.99,
        0.0f32..std::f32::consts::TAU,
    )
        .prop_map(|(x, y, z, sigma, stretch, opacity, angle)| {
            let mut g =
                Gaussian3::isotropic(Vec3::new(x, y, z), sigma, opacity, Vec3::new(0.8, 0.4, 0.2));
            // Anisotropy + rotation so the projected footprints are not
            // axis-aligned circles.
            g.scale = Vec3::new(sigma, (sigma / stretch).max(1e-3), sigma * 0.7);
            g.rotation = Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), angle);
            g
        })
}

/// Cameras including strongly off-center and outward-facing views, so the
/// frustum regularly culls both laterally and by depth.
fn camera_strategy() -> impl Strategy<Value = Camera> {
    (
        0.0f32..std::f32::consts::TAU,
        2.0f32..35.0,
        -6.0f32..10.0,
        -20.0f32..20.0,
        -20.0f32..20.0,
    )
        .prop_map(|(theta, dist, height, tx, tz)| {
            let eye = Vec3::new(dist * theta.sin(), height, -dist * theta.cos());
            let target = Vec3::new(tx, 0.0, tz);
            let target = if (eye - target).length_squared() < 1.0 {
                target + Vec3::new(0.0, 0.0, 40.0)
            } else {
                target
            };
            Camera::look_at(eye, target, Vec3::new(0.0, 1.0, 0.0), 96, 80, 1.05)
                .expect("valid random camera")
        })
}

/// The full scalar Stage 1 over every Gaussian of `prepared`.
fn full_pass(prepared: &PreparedScene, camera: &Camera, pool: &WorkerPool) -> PreprocessOutput {
    preprocess_prepared_pooled_level(prepared, camera, pool, SimdLevel::Scalar)
}

/// The scalar Stage 1 over the survivors of `set` only.
fn culled_pass(
    prepared: &PreparedScene,
    camera: &Camera,
    set: &VisibleSet,
    pool: &WorkerPool,
) -> PreprocessOutput {
    preprocess_prepared_visible_pooled_level(prepared, camera, set, pool, SimdLevel::Scalar)
}

/// Renders a Stage-1 output through binning and tile-major rasterization.
fn raster_from(
    pre: PreprocessOutput,
    camera: &Camera,
    pool: &WorkerPool,
) -> (
    Framebuffer,
    gaurast_render::rasterize::RasterStats,
    gaurast_render::RasterWorkload,
) {
    let mut workload = bin_splats_pooled(
        pre.splats,
        camera.width(),
        camera.height(),
        16,
        &mut FrameArena::new(),
        pool,
    );
    let mut fb = Framebuffer::new(camera.width(), camera.height());
    let stats = rasterize_with_level(&mut workload, Some(&mut fb), pool, SimdLevel::Scalar);
    (fb, stats, workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn visible_set_stage1_is_bit_identical(
        gaussians in prop::collection::vec(gaussian_strategy(), 1..300),
        camera in camera_strategy(),
        workers in 1usize..5,
    ) {
        let scene = GaussianScene::from_gaussians(gaussians).expect("validated");
        let prepared = PreparedScene::prepare(scene);
        let pool = WorkerPool::new(workers);
        let full = full_pass(&prepared, &camera, &pool);
        let set = prepared.visible_set(&camera);
        prop_assert_eq!(set.len() + set.culled_total(), prepared.len());
        let culled = culled_pass(&prepared, &camera, &set, &pool);
        // Everything: splats (bit-exact fields), order, source ids, cull
        // counts, op tallies.
        prop_assert_eq!(&culled, &full);
        for w in culled.splats.windows(2) {
            prop_assert!(w[0].source < w[1].source, "splat order drifted");
        }
    }

    #[test]
    fn culled_render_matches_full_render(
        gaussians in prop::collection::vec(gaussian_strategy(), 1..200),
        camera in camera_strategy(),
        workers in 1usize..5,
    ) {
        let scene = GaussianScene::from_gaussians(gaussians).expect("validated");
        let prepared = PreparedScene::prepare(scene);
        let pool = WorkerPool::new(workers);
        let full = full_pass(&prepared, &camera, &pool);
        let set = prepared.visible_set(&camera);
        let culled = culled_pass(&prepared, &camera, &set, &pool);
        let (img_full, stats_full, work_full) = raster_from(full, &camera, &pool);
        let (img_culled, stats_culled, work_culled) = raster_from(culled, &camera, &pool);
        prop_assert_eq!(img_culled, img_full, "image bytes must match");
        prop_assert_eq!(stats_culled, stats_full, "raster stats must match");
        prop_assert_eq!(work_culled, work_full, "workloads must match");
    }
}

/// Regression (code review): a finite Gaussian far beside the frustum
/// with a huge anisotropic scale is *certain* to be off-image, but its
/// Stage-1 projection overflows (eigenvalue midpoint² → ∞) into the
/// non-finite cull branch — whose accounting differs from the off-screen
/// bundle a lateral certification would bill. The frustum must refuse to
/// certify it (its magnitude-scaled float padding already denies depth
/// certainty at such coordinates, with the overflow-headroom guard as
/// backstop), even through a zero-slack frustum, so the visible-set path
/// stays bit-identical.
#[test]
fn overflow_prone_side_gaussian_is_kept_not_lateral_certified() {
    let mut g = Gaussian3::isotropic(Vec3::new(-1.0e12, 0.0, 45.0), 1.0, 0.9, Vec3::one());
    g.scale = Vec3::new(1.0e10, 1.0e-3, 1.0e-3);
    let anchor = Gaussian3::isotropic(Vec3::zero(), 0.3, 0.8, Vec3::one());
    let scene = GaussianScene::from_gaussians(vec![g, anchor]).unwrap();
    let prepared = PreparedScene::prepare(scene);
    let camera = Camera::look_at(
        Vec3::new(0.0, 0.0, -5.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        96,
        80,
        1.05,
    )
    .unwrap();
    // Zero-slack frustum: the exact-camera path with the least padding.
    let set = prepared.visible_set_with(&camera.frustum());
    let full = full_pass(&prepared, &camera, &WorkerPool::serial());
    let culled = culled_pass(&prepared, &camera, &set, &WorkerPool::serial());
    assert_eq!(
        full.culled_non_finite, 1,
        "the side Gaussian must overflow in the full pass"
    );
    assert_eq!(culled, full, "accounting diverged for the overflow case");
    // The slackened frustum `visible_set` builds must agree as well.
    let set = prepared.visible_set(&camera);
    let culled = culled_pass(&prepared, &camera, &set, &WorkerPool::serial());
    assert_eq!(culled, full);
}

/// Acceptance: on a ≥50k-Gaussian scene, an off-center view must let the
/// frustum drop a substantial fraction of Stage-1 work — while remaining
/// bit-identical — and a centered view must not be degraded.
#[test]
fn off_center_camera_cuts_stage1_work_on_large_scene() {
    use gaurast_scene::generator::SceneParams;
    let scene = SceneParams::new(60_000).seed(17).generate().unwrap();
    let prepared = PreparedScene::prepare(scene);

    // Eye inside the cloud looking outward: most of the scene is behind
    // the camera (depth culls), much of the rest beside it (lateral).
    let off_center = Camera::look_at(
        Vec3::new(0.0, 2.0, 2.0),
        Vec3::new(0.0, 2.0, 60.0),
        Vec3::new(0.0, 1.0, 0.0),
        160,
        120,
        1.05,
    )
    .unwrap();
    let set = prepared.visible_set(&off_center);
    assert!(
        set.coverage() < 0.7,
        "expected >=30% Stage-1 reduction, kept {:.1}%",
        set.coverage() * 100.0
    );
    assert!(set.culled_depth() > 0, "outward view must depth-cull");

    let pool = WorkerPool::serial();
    let full = full_pass(&prepared, &off_center, &pool);
    let culled = culled_pass(&prepared, &off_center, &set, &pool);
    assert_eq!(culled, full, "large-scene bit-identity");

    // Centered view: whatever the frustum drops must still match.
    let centered = Camera::look_at(
        Vec3::new(0.0, 6.0, -40.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        160,
        120,
        1.05,
    )
    .unwrap();
    let set = prepared.visible_set(&centered);
    let full = full_pass(&prepared, &centered, &pool);
    let culled = culled_pass(&prepared, &centered, &set, &pool);
    assert_eq!(culled, full);
}
