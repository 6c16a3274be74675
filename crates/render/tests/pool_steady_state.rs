//! Counters of the persistent pool: every `WorkerPool::new` counts exactly
//! one construction and spawns its `width − 1` resident workers once, and
//! a long-lived session rendering 100+ consecutive frames through the
//! frame driver must construct **zero** new pools and spawn **zero** new
//! threads after warm-up — dispatches wake the parked workers instead.
//!
//! This file holds a single `#[test]` on purpose: the spawn/construction
//! counters are process-global, so the measurement must not race another
//! test creating pools in the same binary.

use gaurast_math::Vec3;
use gaurast_render::pipeline::{run_frame, Stage1Input, WorkloadOutput};
use gaurast_render::pool::{construction_count, spawned_thread_count, WorkerPool};
use gaurast_render::{FrameArena, Framebuffer, VectorMode, DEFAULT_TILE_SIZE};
use gaurast_scene::{Camera, PreparedScene};

#[test]
fn hundred_frame_session_spawns_nothing_in_steady_state() {
    let scene = gaurast_scene::generator::SceneParams::new(5000)
        .seed(23)
        .generate()
        .expect("generator scene");
    let prepared = PreparedScene::prepare(scene);
    let camera = Camera::look_at(
        Vec3::new(0.0, 6.0, -28.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        128,
        96,
        1.05,
    )
    .expect("fixed camera");
    let visible = prepared.visible_set(&camera);
    let level = VectorMode::default().resolve();

    // Session setup: one counted construction per `WorkerPool::new`, which
    // spawns `width − 1` resident workers (none for a serial width).
    let (constructions, spawned) = (construction_count(), spawned_thread_count());
    let pool = WorkerPool::new(4);
    assert_eq!(construction_count(), constructions + 1);
    assert_eq!(spawned_thread_count(), spawned + 3);
    let _serial = WorkerPool::new(1);
    assert_eq!(construction_count(), constructions + 2);
    assert_eq!(spawned_thread_count(), spawned + 3);
    let mut arena = FrameArena::new();

    // The engine's frame shape: a prepared scene over its visible set,
    // imaged, through one pool and one recycled arena.
    let frame = |arena: &mut FrameArena| -> (Framebuffer, WorkloadOutput) {
        let mut image = Framebuffer::new(camera.width(), camera.height());
        let out = run_frame(
            Stage1Input::Prepared(&prepared, Some(&visible)),
            &camera,
            DEFAULT_TILE_SIZE,
            level,
            &pool,
            arena,
            Some(&mut image),
            |_| {},
        );
        (image, out)
    };

    // Warm-up frame grows the arena buffers.
    let (reference_image, reference) = frame(&mut arena);
    reference.workload.clone().recycle_into(&mut arena);

    let constructions_before = construction_count();
    let spawned_before = spawned_thread_count();

    let mut last: Option<(Framebuffer, WorkloadOutput)> = None;
    for _ in 0..100 {
        if let Some((_, prev)) = last.take() {
            prev.workload.recycle_into(&mut arena);
        }
        last = Some(frame(&mut arena));
    }

    assert_eq!(
        construction_count(),
        constructions_before,
        "steady-state frames must not construct pools"
    );
    assert_eq!(
        spawned_thread_count(),
        spawned_before,
        "steady-state frames must not spawn threads"
    );

    // And the 101st frame is still bit-identical to the first.
    let (last_image, last) = last.expect("frames ran");
    assert_eq!(last_image, reference_image);
    assert_eq!(last, reference);
}
