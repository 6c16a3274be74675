//! Shared-scene batch rendering through the [`RenderService`]: two scenes
//! prepared once into immutable `Arc<PreparedScene>` assets, a mixed batch
//! of render jobs fanned across a worker pool, responses returned in
//! request order with aggregate throughput and energy accounting, and one
//! pose sent to every backend, which the batch renders with a single
//! reference pass.
//!
//! ```text
//! cargo run --release --example render_service_batch
//! ```
//!
//! [`RenderService`]: gaurast::service::RenderService

use gaurast::backend::BackendKind;
use gaurast::scene::generator::SceneParams;
use gaurast::scene::stats::SceneStats;
use gaurast::scene::{Camera, PreparedScene};
use gaurast::service::{RenderRequest, RenderService};
use gaurast_math::Vec3;
use std::error::Error;
use std::sync::Arc;
use std::time::Instant;

fn orbit_camera(theta: f32) -> Result<Camera, Box<dyn Error>> {
    Ok(Camera::look_at(
        Vec3::new(24.0 * theta.sin(), 8.0, -24.0 * theta.cos()),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        320,
        208,
        1.05,
    )?)
}

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Two synthetic scenes, each prepared exactly once. A prepared
    //    scene is immutable and sits behind an Arc, so every session the
    //    service spawns shares the same asset — no copies, no redundant
    //    precomputation.
    let town = Arc::new(PreparedScene::prepare(
        SceneParams::new(12_000).seed(7).extent(10.0).generate()?,
    ));
    let museum = Arc::new(PreparedScene::prepare(
        SceneParams::new(6_000)
            .seed(41)
            .extent(8.0)
            .clusters(6)
            .generate()?,
    ));
    println!(
        "prepared assets: town ({} gaussians, extent {:.1}), museum ({} gaussians, extent {:.1})",
        SceneStats::compute(town.scene()).count,
        town.bounds().diagonal(),
        SceneStats::compute(museum.scene()).count,
        museum.bounds().diagonal()
    );

    // 2. A service over both scenes. The request-level worker count
    //    defaults to the machine's available parallelism, and each worker
    //    session renders its frames with a bounded intra-frame worker
    //    budget (request-level x frame-level parallelism never
    //    oversubscribes the machine — see `frame_worker_budget`).
    let service = RenderService::builder()
        .prepared("town", Arc::clone(&town))
        .prepared("museum", Arc::clone(&museum))
        .build()?;
    println!(
        "service: scenes {:?}, {} request workers x {} frame workers",
        service.scene_names(),
        service.workers(),
        service.frame_worker_budget(service.workers()),
    );

    // 3. A mixed batch: 12 viewpoints alternating between the scenes, on
    //    the enhanced-rasterizer backend.
    let mut requests = Vec::new();
    for i in 0..12 {
        let theta = i as f32 / 12.0 * std::f32::consts::TAU;
        let name = if i % 2 == 0 { "town" } else { "museum" };
        requests
            .push(RenderRequest::new(name, orbit_camera(theta)?).backend(BackendKind::Enhanced));
    }

    // 4. Sequential baseline: the same frames through one dedicated
    //    session per scene.
    let started = Instant::now();
    for name in ["town", "museum"] {
        let mut session = service.session(name, BackendKind::Enhanced)?;
        for req in requests.iter().filter(|r| r.scene == name) {
            session.render_frame(&req.camera);
        }
    }
    let sequential_s = started.elapsed().as_secs_f64();

    // 5. The batch, fanned across the worker pool. Responses come back in
    //    request order, bit-identical to single-session rendering.
    let batch = service.render_batch(&requests)?;
    println!("{batch}");
    assert!(
        batch
            .responses
            .iter()
            .zip(&requests)
            .all(|(resp, req)| resp.scene == req.scene),
        "responses must be in request order"
    );
    println!(
        "sequential: {:.1} ms | batch: {:.1} ms | ratio {:.2}x on {} workers",
        sequential_s * 1e3,
        batch.wall_s * 1e3,
        sequential_s / batch.wall_s.max(1e-12),
        batch.workers,
    );

    // 6. One pose on every backend: the four requests share a scene and a
    //    bit-identical camera, so the batch runs one reference pass and
    //    every backend bills its workload.
    let pose = orbit_camera(1.0)?;
    let all: Vec<_> = BackendKind::ALL
        .iter()
        .map(|&kind| RenderRequest::new("town", pose.clone()).backend(kind))
        .collect();
    let shared = service.render_batch(&all)?;
    println!("{shared}");
    assert_eq!(shared.passes, 1, "one pose, one reference pass");
    let first = &shared.responses[0].report.stats;
    assert!(
        shared
            .responses
            .iter()
            .all(|r| r.report.stats.pairs == first.pairs
                && r.report.stats.blend_work == first.blend_work),
        "every backend bills the same workload"
    );

    // 7. One-off jobs go through `submit`.
    let single = service.submit(RenderRequest::new("museum", orbit_camera(0.5)?))?;
    println!(
        "submit: museum frame in {:.3} ms modeled stage-3 time",
        single.report.time_s * 1e3
    );
    Ok(())
}
