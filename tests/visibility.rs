//! Engine-level acceptance of the visibility subsystem: frustum-culled
//! sessions must produce frames bit-identical to the full pass — images,
//! modeled times, energies, op counts, statistics — on **all four
//! backends**, the visible-set cache must be reused across frames and
//! sessions, and what the frustum dropped must be observable in the frame
//! reports.

use gaurast::backend::{BackendKind, CullStats, GpuPreset, ReferencePass};
use gaurast::engine::{EngineBuilder, ImagePolicy};
use gaurast::hw::RasterizerConfig;
use gaurast::render::pipeline::{run_frame, Stage1Input};
use gaurast::render::{FrameArena, Framebuffer, SimdLevel, WorkerPool, DEFAULT_TILE_SIZE};
use gaurast::scene::generator::SceneParams;
use gaurast::scene::Camera;
use gaurast_math::Vec3;
use std::sync::Arc;

fn off_center_camera() -> Camera {
    Camera::look_at(
        Vec3::new(24.0, 5.0, -18.0),
        Vec3::new(12.0, 0.0, -2.0),
        Vec3::new(0.0, 1.0, 0.0),
        96,
        64,
        1.05,
    )
    .unwrap()
}

#[test]
fn all_backends_are_bit_identical_with_culling() {
    let scene = SceneParams::new(2000).seed(41).generate().unwrap();
    let mut culled = EngineBuilder::new(scene)
        .backend(BackendKind::Software)
        .image_policy(ImagePolicy::Retain)
        .build()
        .unwrap();
    let cam = off_center_camera();
    // The full pass: the scalar Stage 1 over every Gaussian, no visible
    // set, with the reference image.
    let mut full_image = Framebuffer::new(cam.width(), cam.height());
    let full = run_frame(
        Stage1Input::Prepared(culled.prepared(), None),
        &cam,
        DEFAULT_TILE_SIZE,
        SimdLevel::Scalar,
        &WorkerPool::serial(),
        &mut FrameArena::new(),
        Some(&mut full_image),
        |_| {},
    );
    let reference = ReferencePass {
        preprocess: full.preprocess,
        cull: CullStats::default(),
        raster: full.raster,
        wall_s: 0.0,
        sort_wall_s: 0.0,
        image: None,
    };
    for kind in BackendKind::ALL {
        culled.switch_backend(kind);
        let a = culled.render_frame(&cam);
        assert!(
            a.stats.cull.frustum_total() > 0,
            "{kind}: the frustum must drop work in this view"
        );
        // Billed as an engine session's defaults configure it.
        let b = kind.execute(RasterizerConfig::scaled(), &full.workload, &reference, true);
        // Every kind here leaves the image to the engine, which
        // attaches the reference image. At FP32 the enhanced rasterizer's
        // PE datapath computes the same bits; `tests/engine_backends.rs`
        // checks that with `render_gaussian`.
        let img_b = b.image.as_ref().unwrap_or(&full_image);
        assert_eq!(
            a.image.unwrap().mean_abs_diff(img_b),
            0.0,
            "{kind}: image diverged"
        );
        assert_eq!(a.ops, b.ops, "{kind}: op counts diverged");
        assert_eq!(a.energy_j, b.energy_j, "{kind}: energy diverged");
        assert_eq!(a.stats.visible, full.preprocess.visible, "{kind}");
        assert_eq!(a.stats.culled, full.preprocess.culled, "{kind}");
        assert_eq!(a.stats.blend_work, full.workload.blend_work(), "{kind}");
        assert_eq!(a.stats.pairs, full.workload.total_pairs(), "{kind}");
        assert_eq!(
            a.stats.blends_committed, full.raster.blends_committed,
            "{kind}"
        );
        // Modeled backends must also bill identical time; the software
        // backend reports wall-clock, which legitimately differs.
        if kind != BackendKind::Software {
            assert_eq!(a.time_s, b.time_s, "{kind}: modeled time diverged");
        }
    }
    assert_eq!(culled.frames_rendered(), 4);
}

#[test]
fn sequence_reuses_cached_sets_on_exact_revisits() {
    let scene = SceneParams::new(1500).seed(9).generate().unwrap();
    let mut engine = EngineBuilder::new(scene)
        .backend(BackendKind::Cuda(GpuPreset::OrinNx))
        .build()
        .unwrap();
    let look = |eye_z: f32| {
        Camera::look_at(
            Vec3::new(0.0, 5.0, eye_z),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            64,
            64,
            1.05,
        )
        .unwrap()
    };
    // Sets are keyed by the exact camera: a repeated camera hits, an eye
    // one ulp away is a different camera and builds its own set.
    let cam = look(-26.0);
    let ulp = look(f32::from_bits((-26.0f32).to_bits() + 1));
    assert_ne!(cam.key(), ulp.key());
    let cams = [&cam, &cam, &ulp, &cam, &ulp, &ulp].map(Camera::clone);
    let out = engine.render_sequence(&cams);
    let hits: Vec<bool> = out.reports.iter().map(|r| r.stats.cull.cache_hit).collect();
    assert_eq!(hits, [false, true, false, true, true, true]);
    assert_eq!(engine.visibility_cache().misses(), 2);
    assert_eq!(engine.visibility_cache().hits(), 4);
    assert_eq!(engine.visibility_cache().len(), 2);
}

#[test]
fn shared_cache_across_sessions_builds_each_set_once() {
    let scene = SceneParams::new(800).seed(3).generate().unwrap();
    let cache = Arc::new(gaurast::scene::VisibilityCache::new());
    let mut a = EngineBuilder::new(scene)
        .visibility_cache(Arc::clone(&cache))
        .build()
        .unwrap();
    let mut b = EngineBuilder::shared(Arc::clone(a.prepared()))
        .visibility_cache(Arc::clone(&cache))
        .build()
        .unwrap();
    let cam = off_center_camera();
    let first = a.render_frame(&cam);
    let second = b.render_frame(&cam);
    assert!(!first.stats.cull.cache_hit);
    assert!(
        second.stats.cull.cache_hit,
        "session B reuses session A's set"
    );
    assert_eq!(cache.len(), 1);
    // Cloned sessions share the cache automatically.
    let mut c = b.clone();
    assert!(c.render_frame(&cam).stats.cull.cache_hit);
}
