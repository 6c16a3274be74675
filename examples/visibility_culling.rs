//! The frustum-culled visible-set subsystem from the outside: one scene,
//! two viewpoints, every engine frame bit-identical to the full pass over
//! the whole scene, measurably less Stage-1 work, and cache hits when a
//! camera sequence revisits a pose.
//!
//! ```text
//! cargo run --release --example visibility_culling
//! ```

use gaurast::backend::BackendKind;
use gaurast::engine::{EngineBuilder, ImagePolicy};
use gaurast::render::pipeline::{run_frame, Stage1Input};
use gaurast::render::{FrameArena, Framebuffer, SimdLevel, WorkerPool, DEFAULT_TILE_SIZE};
use gaurast::scene::generator::SceneParams;
use gaurast::scene::{Camera, PreparedScene};
use gaurast_math::Vec3;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let prepared = Arc::new(PreparedScene::prepare(
        SceneParams::new(50_000).seed(17).generate()?,
    ));
    println!(
        "scene: {} gaussians, spatial index {:?} ({} occupied cells)",
        prepared.len(),
        prepared.spatial_index().dims(),
        prepared.spatial_index().occupied_cells(),
    );

    // Every engine frame runs Stage 1 over the camera's visible set.
    let mut culled = EngineBuilder::shared(Arc::clone(&prepared))
        .backend(BackendKind::Enhanced)
        .image_policy(ImagePolicy::Retain)
        .build()?;
    // The full pass: Stage 1 over every Gaussian, no visible set.
    let pool = WorkerPool::new(0);
    let mut arena = FrameArena::new();
    let mut full = |cam: &Camera| {
        let mut image = Framebuffer::new(cam.width(), cam.height());
        let out = run_frame(
            Stage1Input::Prepared(&prepared, None),
            cam,
            DEFAULT_TILE_SIZE,
            SimdLevel::Scalar,
            &pool,
            &mut arena,
            Some(&mut image),
            |_| {},
        );
        (image, out.preprocess)
    };

    let centered = Camera::look_at(
        Vec3::new(0.0, 6.0, -40.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        320,
        208,
        1.05,
    )?;
    // Eye inside the cloud looking outward: most of the scene is behind
    // the camera or beside the frustum.
    let off_center = Camera::look_at(
        Vec3::new(0.0, 2.0, 2.0),
        Vec3::new(0.0, 2.0, 60.0),
        Vec3::new(0.0, 1.0, 0.0),
        320,
        208,
        1.05,
    )?;

    for (label, cam) in [("centered", &centered), ("off-center", &off_center)] {
        let a = culled.render_frame(cam);
        let (img_b, stage1) = full(cam);
        assert_eq!(
            a.image.unwrap().mean_abs_diff(&img_b),
            0.0,
            "frames must be bit-identical"
        );
        assert_eq!(
            (a.stats.visible, a.stats.culled),
            (stage1.visible, stage1.culled),
            "Stage-1 accounting must be bit-identical"
        );
        let cull = a.stats.cull;
        println!(
            "{label:<11} frustum dropped {:6} of {} ({:4} depth, {:4} lateral) — \
             image bit-identical, {} splats drawn either way",
            cull.frustum_total(),
            prepared.len(),
            cull.frustum_depth,
            cull.frustum_lateral,
            a.stats.visible,
        );
    }

    // A path that laps four viewpoints twice builds each visible set on
    // the first lap and reuses it, keyed by the exact camera, on the
    // second.
    const POSES: usize = 4;
    let path: Vec<Camera> = (0..2 * POSES)
        .map(|i| {
            Camera::look_at(
                Vec3::new((1 + i % POSES) as f32 * 0.5, 2.0, 2.0),
                Vec3::new(0.0, 2.0, 60.0),
                Vec3::new(0.0, 1.0, 0.0),
                320,
                208,
                1.05,
            )
        })
        .collect::<Result<_, _>>()?;
    let out = culled.render_sequence(&path);
    let hits = out
        .reports
        .iter()
        .filter(|r| r.stats.cull.cache_hit)
        .count();
    println!(
        "sequence: {} frames, {} visible-set cache hits ({} builds)",
        out.reports.len(),
        hits,
        out.reports.len() - hits,
    );
    assert_eq!(hits, POSES, "the second lap must reuse every set");
    Ok(())
}
