//! Intra-frame scaling: one raster-heavy frame rendered with 1/2/4/8
//! workers, plus the cost of the up-front `Framebuffer::clear` the
//! tile-major pass performs once per frame (kept out of the per-tile hot
//! loop — this measures what that discipline saves).
//!
//! On a single-core machine the multi-worker numbers simply converge to
//! the serial time (the decomposition is the same; there is nothing to
//! run it on); the ≥2× four-worker acceptance check lives in
//! `crates/render/tests/parallel.rs`, where it is skipped — not failed —
//! without at least 4 cores.

use criterion::{criterion_group, criterion_main, Criterion};
use gaurast_math::Vec3;
use gaurast_render::pipeline::{render_with_pool, RenderConfig};
use gaurast_render::pool::WorkerPool;
use gaurast_render::{FrameArena, Framebuffer};
use gaurast_scene::generator::SceneParams;
use gaurast_scene::Camera;

fn camera() -> Camera {
    Camera::look_at(
        Vec3::new(0.0, 6.0, -28.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        320,
        208,
        1.05,
    )
    .expect("valid camera")
}

fn bench_frame_scaling(c: &mut Criterion) {
    let scene = SceneParams::new(20_000)
        .seed(42)
        .generate()
        .expect("valid params");
    let cam = camera();

    let mut group = c.benchmark_group("frame_scaling");
    group.sample_size(10);

    let cfg = RenderConfig::default();
    for workers in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(workers);
        let mut arena = FrameArena::new();
        group.bench_function(format!("full_frame_workers_{workers}"), |b| {
            b.iter(|| {
                render_with_pool(&scene, &cam, &cfg, &mut arena, &pool)
                    .workload
                    .recycle_into(&mut arena);
            });
        });
    }

    // The once-per-frame clear the tile jobs never repeat.
    let mut fb = Framebuffer::new(cam.width(), cam.height());
    group.bench_function("framebuffer_clear", |b| {
        b.iter(|| fb.clear());
    });

    group.finish();
}

criterion_group!(benches, bench_frame_scaling);
criterion_main!(benches);
