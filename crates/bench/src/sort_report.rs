//! Stage-2 measurement harness: times the key-sorted radix/CSR path
//! against the legacy per-tile comparison path on one scene, counts
//! steady-state Stage-2 heap allocations, and serializes the result as the
//! machine-readable `BENCH_sort.json` artifact both `repro sort` and the
//! `frame_scaling` bench emit — the perf trajectory of the sort rewrite.

use crate::alloc_counter::allocation_count;
use gaurast_hw::dispatch::csr_queue_loads;
use gaurast_math::Vec3;
use gaurast_render::pipeline::{render_with_pool, RenderConfig, Stage2Mode};
use gaurast_render::pool::WorkerPool;
use gaurast_render::preprocess::preprocess_pooled;
use gaurast_render::tile::{bin_splats_legacy, bin_splats_pooled};
use gaurast_render::{FrameArena, Splat2D};
use gaurast_scene::generator::SceneParams;
use gaurast_scene::Camera;
use std::fmt::Write as _;
use std::time::Instant;

/// File name of the machine-readable artifact.
pub const BENCH_SORT_JSON: &str = "BENCH_sort.json";

/// One Stage-2 mode's measurements.
#[derive(Clone, Copy, Debug)]
pub struct ModeReport {
    /// Which Stage-2 implementation ran.
    pub mode: Stage2Mode,
    /// Mean Stage-2 (binning + sort) wall time per frame, milliseconds.
    pub stage2_ms: f64,
    /// Mean full-frame (Stages 1–3) wall time, milliseconds.
    pub full_frame_ms: f64,
    /// Full-pipeline frames per second (`1000 / full_frame_ms`).
    pub frames_per_s: f64,
    /// Heap allocations per steady-state Stage-2 call (−1 when the
    /// counting allocator is not installed in this binary). The
    /// persistent `WorkerPool` parks its resident workers between `run`
    /// calls — dispatches neither spawn nor allocate — so the key-sorted
    /// path's zero-allocation contract holds at every width.
    pub stage2_allocs_per_frame: i64,
}

/// The complete Stage-2 sort benchmark result.
#[derive(Clone, Debug)]
pub struct SortBenchReport {
    /// Gaussians in the benchmark scene.
    pub scene_gaussians: usize,
    /// Frame width, pixels.
    pub width: u32,
    /// Frame height, pixels.
    pub height: u32,
    /// Timed frames per mode (after one warm-up frame).
    pub frames_timed: u32,
    /// Worker-pool width the measurements ran with.
    pub workers: usize,
    /// (splat, tile) pairs the frame sorts.
    pub pairs: u64,
    /// Radix key-scatter operations the billed Stage-2 model issues for
    /// those pairs ([`gaurast_gpu::CudaGpuModel::sort_ops`], Orin NX
    /// host) — one per pair per scatter pass.
    pub sort_ops: u64,
    /// Key-sorted radix/CSR path (the default).
    pub keyed: ModeReport,
    /// Legacy per-tile comparison path (the escape hatch).
    pub legacy: ModeReport,
    /// Per-instance (splat, tile) key loads of the hardware dispatcher's
    /// round-robin schedule over the CSR offsets (15-instance scaled
    /// configuration) — the load-imbalance view of the sorted workload.
    pub dispatch_queue_loads: Vec<u64>,
}

impl SortBenchReport {
    /// Serializes the report as the `BENCH_sort.json` payload.
    pub fn to_json(&self) -> String {
        let mode_json = |m: &ModeReport| {
            format!(
                "{{\"mode\": \"{}\", \"stage2_ms\": {:.4}, \"full_frame_ms\": {:.4}, \
                 \"frames_per_s\": {:.3}, \"stage2_allocs_per_frame\": {}}}",
                match m.mode {
                    Stage2Mode::KeySorted => "key_sorted",
                    Stage2Mode::LegacyPerTile => "legacy_per_tile",
                },
                m.stage2_ms,
                m.full_frame_ms,
                m.frames_per_s,
                m.stage2_allocs_per_frame,
            )
        };
        let loads = self
            .dispatch_queue_loads
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n  \"bench\": \"stage2_sort\",\n  \"scene_gaussians\": {},\n  \
             \"width\": {},\n  \"height\": {},\n  \"frames_timed\": {},\n  \
             \"workers\": {},\n  \"pairs\": {},\n  \"sort_ops\": {},\n  \
             \"modes\": [\n    {},\n    {}\n  ],\n  \
             \"dispatch_queue_loads\": [{}]\n}}\n",
            self.scene_gaussians,
            self.width,
            self.height,
            self.frames_timed,
            self.workers,
            self.pairs,
            self.sort_ops,
            mode_json(&self.keyed),
            mode_json(&self.legacy),
            loads,
        )
    }

    /// Human-readable summary table of the same numbers.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "stage-2 sort — {} gaussians, {}x{}, {} pairs, {} worker(s), {} frame(s)",
            self.scene_gaussians,
            self.width,
            self.height,
            self.pairs,
            self.workers,
            self.frames_timed,
        )
        .unwrap();
        writeln!(
            out,
            "mode             stage2 ms   frame ms   frames/s   stage2 allocs/frame"
        )
        .unwrap();
        for m in [&self.keyed, &self.legacy] {
            writeln!(
                out,
                "{:<15} {:10.3} {:10.3} {:10.2}   {}",
                match m.mode {
                    Stage2Mode::KeySorted => "key-sorted",
                    Stage2Mode::LegacyPerTile => "legacy-per-tile",
                },
                m.stage2_ms,
                m.full_frame_ms,
                m.frames_per_s,
                if m.stage2_allocs_per_frame < 0 {
                    "n/a (counter not installed)".to_string()
                } else {
                    m.stage2_allocs_per_frame.to_string()
                },
            )
            .unwrap();
        }
        writeln!(
            out,
            "stage-2 speedup: {:.2}x; dispatch queue loads (min..max): {}..{}",
            self.legacy.stage2_ms / self.keyed.stage2_ms.max(1e-12),
            self.dispatch_queue_loads.iter().min().copied().unwrap_or(0),
            self.dispatch_queue_loads.iter().max().copied().unwrap_or(0),
        )
        .unwrap();
        out
    }

    /// Checks a serialized `BENCH_sort.json` payload for well-formedness:
    /// the required keys and both mode records must be present. Used by
    /// the CI smoke run.
    pub fn validate_json(json: &str) -> Result<(), String> {
        for key in [
            "\"bench\": \"stage2_sort\"",
            "\"scene_gaussians\"",
            "\"frames_timed\"",
            "\"pairs\"",
            "\"sort_ops\"",
            "\"mode\": \"key_sorted\"",
            "\"mode\": \"legacy_per_tile\"",
            "\"stage2_ms\"",
            "\"frames_per_s\"",
            "\"stage2_allocs_per_frame\"",
            "\"dispatch_queue_loads\"",
        ] {
            if !json.contains(key) {
                return Err(format!("missing {key}"));
            }
        }
        Ok(())
    }
}

/// `true` when a counting global allocator is actually installed in this
/// binary (probed by allocating).
fn counter_active() -> bool {
    let before = allocation_count();
    let probe = vec![0u8; 64];
    std::hint::black_box(&probe);
    allocation_count() > before
}

/// Measures one Stage-2 mode: mean Stage-2 wall, mean full-frame wall, and
/// steady-state Stage-2 allocations on the final frame.
fn measure_mode(
    mode: Stage2Mode,
    splats: &[Splat2D],
    scene: &gaurast_scene::GaussianScene,
    camera: &Camera,
    workers: usize,
    frames: u32,
    count_allocs: bool,
) -> ModeReport {
    let pool = WorkerPool::new(workers);
    let cfg = RenderConfig::default().with_stage2(mode);
    let mut arena = FrameArena::new();

    let bin = |splats: Vec<Splat2D>, arena: &mut FrameArena| {
        mode.bin(splats, camera.width(), camera.height(), 16, arena, &pool)
    };

    // Warm-up sizes the arena; the timed loop is the steady state.
    bin(splats.to_vec(), &mut arena).recycle_into(&mut arena);
    let mut stage2_s = 0.0;
    let mut allocs = -1i64;
    for frame in 0..frames {
        let copy = splats.to_vec(); // outside the measured region
        let before = allocation_count();
        let started = Instant::now();
        let workload = bin(copy, &mut arena);
        stage2_s += started.elapsed().as_secs_f64();
        if count_allocs && frame + 1 == frames {
            allocs = (allocation_count() - before) as i64;
        }
        workload.recycle_into(&mut arena);
    }

    // Full-pipeline pacing through the same pool and a recycled arena.
    let mut frame_arena = FrameArena::new();
    render_with_pool(scene, camera, &cfg, &mut frame_arena, &pool)
        .workload
        .recycle_into(&mut frame_arena);
    let started = Instant::now();
    for _ in 0..frames {
        render_with_pool(scene, camera, &cfg, &mut frame_arena, &pool)
            .workload
            .recycle_into(&mut frame_arena);
    }
    let full_frame_s = started.elapsed().as_secs_f64() / f64::from(frames);

    ModeReport {
        mode,
        stage2_ms: stage2_s / f64::from(frames) * 1e3,
        full_frame_ms: full_frame_s * 1e3,
        frames_per_s: 1.0 / full_frame_s.max(1e-12),
        stage2_allocs_per_frame: allocs,
    }
}

/// Runs the full Stage-2 A/B measurement on a deterministic synthetic
/// scene and returns the report. `quick` shrinks the scene and frame count
/// for smoke runs.
pub fn run(quick: bool) -> SortBenchReport {
    let (n, width, height, frames) = if quick {
        (4_000, 160, 104, 3)
    } else {
        (40_000, 320, 208, 8)
    };
    let scene = SceneParams::new(n)
        .seed(42)
        .generate()
        .expect("valid scene");
    let camera = Camera::look_at(
        Vec3::new(0.0, 6.0, -28.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        width,
        height,
        1.05,
    )
    .expect("valid camera");
    let workers = WorkerPool::new(0).workers();
    let pool = WorkerPool::new(workers);
    let pre = preprocess_pooled(&scene, &camera, &pool);
    let count_allocs = counter_active();

    let keyed = measure_mode(
        Stage2Mode::KeySorted,
        &pre.splats,
        &scene,
        &camera,
        workers,
        frames,
        count_allocs,
    );
    let legacy = measure_mode(
        Stage2Mode::LegacyPerTile,
        &pre.splats,
        &scene,
        &camera,
        workers,
        frames,
        count_allocs,
    );

    // Bit-identity of the two paths is asserted here too — the artifact
    // never reports a speedup over a divergent baseline.
    let mut arena = FrameArena::new();
    let keyed_w = bin_splats_pooled(pre.splats.clone(), width, height, 16, &mut arena, &pool);
    let legacy_w = bin_splats_legacy(
        pre.splats.clone(),
        width,
        height,
        16,
        &mut FrameArena::new(),
        &pool,
    );
    assert!(
        keyed_w == legacy_w,
        "key-sorted Stage 2 diverged from legacy"
    );

    SortBenchReport {
        scene_gaussians: n,
        width,
        height,
        frames_timed: frames,
        workers,
        pairs: keyed_w.total_pairs(),
        sort_ops: gaurast_gpu::device::orin_nx().sort_ops(keyed_w.total_pairs()),
        keyed,
        legacy,
        dispatch_queue_loads: csr_queue_loads(keyed_w.offsets(), 15),
    }
}

/// Runs the measurement, writes `BENCH_sort.json` under
/// `target/artifacts/` ([`crate::artifacts`]), re-validates the payload,
/// and returns the human summary.
pub fn write_artifact(quick: bool) -> std::io::Result<String> {
    let report = run(quick);
    let json = report.to_json();
    SortBenchReport::validate_json(&json)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let path = crate::artifacts::path(BENCH_SORT_JSON)?;
    std::fs::write(&path, &json)?;
    Ok(format!("{}wrote {}\n", report.summary(), path.display()))
}
