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
use gaurast_render::pipeline::{render, render_with_pool, RenderConfig};
use gaurast_render::pool::WorkerPool;
use gaurast_render::preprocess::{preprocess_prepared_pooled, preprocess_prepared_visible_pooled};
use gaurast_render::{FrameArena, Framebuffer, VectorMode};
use gaurast_scene::generator::SceneParams;
use gaurast_scene::{Camera, PreparedScene};

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

/// Stage-1 cost with and without the frustum-culled visible set, for a
/// centered view (little to cull) and an off-center view (most of the
/// scene behind or beside the frustum). The outputs are bit-identical —
/// this measures exactly what the prefilter saves.
fn bench_visibility_culling(c: &mut Criterion) {
    let scene = SceneParams::new(50_000)
        .seed(17)
        .generate()
        .expect("valid params");
    let prepared = PreparedScene::prepare(scene);
    let pool = WorkerPool::serial();
    let centered = camera();
    let off_center = Camera::look_at(
        Vec3::new(0.0, 2.0, 2.0),
        Vec3::new(0.0, 2.0, 60.0),
        Vec3::new(0.0, 1.0, 0.0),
        320,
        208,
        1.05,
    )
    .expect("valid camera");

    let mut group = c.benchmark_group("visibility_culling");
    group.sample_size(10);
    for (label, cam) in [("centered", &centered), ("off_center", &off_center)] {
        group.bench_function(format!("stage1_full_{label}"), |b| {
            b.iter(|| preprocess_prepared_pooled(&prepared, cam, &pool));
        });
        let set = prepared.visible_set(cam);
        group.bench_function(
            format!(
                "stage1_culled_{label}_keep{}pct",
                (set.coverage() * 100.0).round() as u32
            ),
            |b| {
                b.iter(|| preprocess_prepared_visible_pooled(&prepared, cam, &set, &pool));
            },
        );
        group.bench_function(format!("visible_set_build_{label}"), |b| {
            b.iter(|| prepared.visible_set(cam));
        });
    }
    group.finish();
}

/// SIMD data-path A/B: one raster-heavy frame under every [`VectorMode`]
/// (verbatim scalar, 4-wide SSE4.1, 8-wide AVX2), serial and 4-wide —
/// forced modes degrade to the host's detected level, so on narrow CPUs
/// the records converge to the scalar time. Also writes the
/// machine-readable `BENCH_simd.json` artifact (Stage-1 ms, Stage-3 ms,
/// frames/s per mode, bit-identity asserted in the harness).
fn bench_vector_modes(c: &mut Criterion) {
    let scene = SceneParams::new(20_000)
        .seed(42)
        .generate()
        .expect("valid params");
    let cam = camera();

    let mut group = c.benchmark_group("vector_modes");
    group.sample_size(10);
    for workers in [1usize, 4] {
        let pool = WorkerPool::new(workers);
        let mut arena = FrameArena::new();
        for mode in [
            VectorMode::Scalar,
            VectorMode::ForceSse,
            VectorMode::ForceAvx2,
        ] {
            let cfg = RenderConfig::default().with_vector_mode(mode);
            group.bench_function(
                format!("full_frame_{mode:?}_workers_{workers}").to_lowercase(),
                |b| {
                    b.iter(|| {
                        render_with_pool(&scene, &cam, &cfg, &mut arena, &pool)
                            .workload
                            .recycle_into(&mut arena);
                    });
                },
            );
        }
    }
    group.finish();

    // Every vector mode through the full pipeline must stay bit-identical
    // (the cheap always-on guard next to the numbers).
    let cfg = RenderConfig::default().with_workers(1);
    let scene = SceneParams::new(4_000).seed(7).generate().expect("valid");
    let reference = render(&scene, &cam, &cfg.with_vector_mode(VectorMode::Scalar));
    for mode in [VectorMode::ForceSse, VectorMode::ForceAvx2] {
        let out = render(&scene, &cam, &cfg.with_vector_mode(mode));
        assert!(
            reference.image == out.image && reference.workload == out.workload,
            "vector mode {mode:?} diverged"
        );
    }

    // The machine-readable artifact rides along with the bench run.
    match gaurast_bench::simd_report::write_artifact(true) {
        Ok(summary) => println!("{summary}"),
        Err(e) => eprintln!("could not write BENCH_simd.json: {e}"),
    }
}

criterion_group!(
    benches,
    bench_frame_scaling,
    bench_vector_modes,
    bench_visibility_culling
);
criterion_main!(benches);
