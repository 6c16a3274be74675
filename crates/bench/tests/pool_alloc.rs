//! Measured (not asserted-by-inspection) allocation contracts, with the
//! counting allocator installed as this binary's global allocator:
//! three steady-state paths must perform **zero** heap allocations:
//! `WorkerPool::run` dispatches (the per-frame wakeup/claim/park
//! protocol), Stage 2 (`bin_splats_pooled` over a warm arena) and the
//! frame driver's fused Stages 2–3 (`bin_and_rasterize_chunked`: scatter
//! rounds, resumable Stage 3 and the end-of-frame image write over a warm
//! arena, imaged and record-only).
//!
//! Single `#[test]` on purpose: the allocation counter is process-global,
//! so the measured windows must not race another test's allocations in
//! this binary.

use gaurast_bench::alloc_counter::{allocation_count, CountingAllocator};
use gaurast_math::Vec3;
use gaurast_render::pipeline::bin_and_rasterize_chunked;
use gaurast_render::pool::{spawned_thread_count, WorkerPool};
use gaurast_render::preprocess::preprocess_pooled_level;
use gaurast_render::tile::{bin_splats_pooled, BIN_CHUNK};
use gaurast_render::{FrameArena, Framebuffer, SimdLevel, Splat2D};
use gaurast_scene::generator::SceneParams;
use gaurast_scene::Camera;
use std::sync::atomic::{AtomicU64, Ordering};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_dispatches_allocate_and_spawn_nothing() {
    assert!(
        allocation_count() > 0,
        "counting allocator must be installed in this binary"
    );

    let pool = WorkerPool::new(4);
    let sum = AtomicU64::new(0);
    // Warm-up dispatches: first wakeups, lazy thread-local init, any
    // one-time runtime setup on the worker threads.
    for _ in 0..3 {
        pool.run(64, |j| {
            sum.fetch_add(j as u64, Ordering::Relaxed);
        });
    }

    let allocs_before = allocation_count();
    let spawned_before = spawned_thread_count();
    for _ in 0..100 {
        pool.run(64, |j| {
            sum.fetch_add(j as u64, Ordering::Relaxed);
        });
    }
    assert_eq!(
        allocation_count(),
        allocs_before,
        "pool dispatches must not allocate in steady state"
    );
    assert_eq!(
        spawned_thread_count(),
        spawned_before,
        "pool dispatches must not spawn threads"
    );
    // 103 dispatches × Σ(0..64) — every job of every dispatch ran.
    assert_eq!(sum.load(Ordering::Relaxed), 103 * (63 * 64 / 2));

    // Steady-state Stage 2 on the same width-4 pool: a multi-chunk frame
    // (splat pass, then one round's key sort, count and scatter
    // dispatches) over a warm arena.
    let scene = SceneParams::new(12_000)
        .seed(42)
        .generate()
        .expect("valid scene");
    let camera = Camera::look_at(
        Vec3::new(0.0, 6.0, -28.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        160,
        104,
        1.05,
    )
    .expect("valid camera");
    let splats = preprocess_pooled_level(&scene, &camera, &pool, SimdLevel::Scalar).splats;
    assert!(
        splats.len() > BIN_CHUNK,
        "the frame must span several chunks"
    );
    let bin = |splats: Vec<Splat2D>, arena: &mut FrameArena| {
        bin_splats_pooled(splats, camera.width(), camera.height(), 16, arena, &pool)
    };
    // A warm-up frame sizes the arena. Each frame consumes its splats, so
    // the copies are made outside the measured window.
    let mut arena = FrameArena::new();
    bin(splats.clone(), &mut arena).recycle_into(&mut arena);
    let frames: Vec<Vec<Splat2D>> = (0..8).map(|_| splats.clone()).collect();
    let allocs_before = allocation_count();
    for copy in frames {
        bin(copy, &mut arena).recycle_into(&mut arena);
    }
    assert_eq!(
        allocation_count(),
        allocs_before,
        "steady-state Stage 2 must not allocate"
    );

    // Steady-state Stages 2–3 as the frame driver runs them, on the same
    // width-4 pool and arena: Stage 2's data path, the scatter rounds,
    // Stage 3's tile jobs (kept in the arena with their pixel planes) and
    // the image write allocate nothing.
    let (width, height) = (camera.width(), camera.height());
    let mut image = Framebuffer::new(width, height);
    for imaged in [false, true] {
        let mut frame = |splats: Vec<Splat2D>, arena: &mut FrameArena| {
            let (workload, stats) = bin_and_rasterize_chunked(
                splats,
                (width, height, 16),
                SimdLevel::Avx2,
                &pool,
                arena,
                imaged.then_some(&mut image),
                BIN_CHUNK,
                || {},
            );
            assert!(stats.blends_committed > 0, "the frame must blend");
            workload.recycle_into(arena);
        };
        frame(splats.clone(), &mut arena);
        let frames: Vec<Vec<Splat2D>> = (0..8).map(|_| splats.clone()).collect();
        for copy in frames {
            let allocs_before = allocation_count();
            frame(copy, &mut arena);
            assert_eq!(
                allocation_count() - allocs_before,
                0,
                "steady-state Stages 2-3 (imaged {imaged}) must not allocate"
            );
        }
    }
    assert_eq!(
        spawned_thread_count(),
        spawned_before,
        "frames must not spawn threads"
    );
}
