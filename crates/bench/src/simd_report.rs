//! SIMD data-path measurement harness: times Stage 1 (EWA projection +
//! conic math) and Stage 3 (conic evaluation + front-to-back blending)
//! under every [`VectorMode`] — verbatim scalar, 4-wide SSE4.1, 8-wide
//! AVX2 — on a small and a large scene, asserts the modes render
//! bit-identical frames, and serializes the result as the
//! machine-readable `BENCH_simd.json` artifact both `repro simd` and the
//! `frame_scaling` bench emit — the perf trajectory of the SoA + SIMD
//! rewrite.

use gaurast_math::Vec3;
use gaurast_render::pipeline::{render, render_with_pool, run_frame, RenderConfig, Stage1Input};
use gaurast_render::pool::WorkerPool;
use gaurast_render::preprocess::preprocess_pooled_level;
use gaurast_render::rasterize::rasterize_with_level;
use gaurast_render::{FrameArena, Framebuffer, SimdLevel, VectorMode};
use gaurast_scene::generator::SceneParams;
use gaurast_scene::{Camera, GaussianScene};
use std::fmt::Write as _;
use std::time::Instant;

/// File name of the machine-readable artifact.
pub const BENCH_SIMD_JSON: &str = "BENCH_simd.json";

/// The three modes the artifact always records, scalar first (the
/// baseline the speedup columns divide by).
const MODES: [VectorMode; 3] = [
    VectorMode::Scalar,
    VectorMode::ForceSse,
    VectorMode::ForceAvx2,
];

/// Stable artifact name of a mode.
fn mode_name(mode: VectorMode) -> &'static str {
    match mode {
        VectorMode::Scalar => "scalar",
        VectorMode::Auto => "auto",
        VectorMode::ForceSse => "force_sse",
        VectorMode::ForceAvx2 => "force_avx2",
    }
}

/// Stable artifact name of a resolved level.
fn level_name(level: SimdLevel) -> &'static str {
    match level {
        SimdLevel::Scalar => "scalar",
        SimdLevel::Sse => "sse",
        SimdLevel::Avx2 => "avx2",
    }
}

/// One vector mode's measurements on one scene/worker configuration.
#[derive(Clone, Copy, Debug)]
pub struct ModeReport {
    /// Which vector mode ran.
    pub mode: VectorMode,
    /// The concrete kernel set the mode resolved to on this host (a
    /// forced mode degrades to the best supported level at or below it).
    pub level: SimdLevel,
    /// Mean Stage-1 (projection + conic) wall time per frame, ms.
    pub stage1_ms: f64,
    /// Mean Stage-3 (conic evaluation + blending) wall time per frame, ms.
    pub stage3_ms: f64,
    /// Mean full-frame (Stages 1–3) wall time, milliseconds.
    pub full_frame_ms: f64,
    /// Full-pipeline frames per second (`1000 / full_frame_ms`).
    pub frames_per_s: f64,
    /// Combined Stage-1 + Stage-3 speedup over the scalar record of the
    /// same scene/worker run (`1.0` for the scalar record itself).
    pub combined_speedup_vs_scalar: f64,
}

/// All three mode measurements on one scene at one worker width.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scene label (`"small"` / `"large"`).
    pub scene: &'static str,
    /// Gaussians in the scene.
    pub scene_gaussians: usize,
    /// Frame width, pixels.
    pub width: u32,
    /// Frame height, pixels.
    pub height: u32,
    /// Worker-pool width the measurements ran with.
    pub workers: usize,
    /// Timed frames per mode (after one warm-up frame).
    pub frames_timed: u32,
    /// Scalar / SSE / AVX2 measurements, scalar first.
    pub modes: Vec<ModeReport>,
}

/// The complete SIMD data-path benchmark result.
#[derive(Clone, Debug)]
pub struct SimdBenchReport {
    /// The widest level the host CPU supports (forced modes degrade to
    /// it; on non-x86-64 hosts every record measures the scalar path).
    pub detected_level: SimdLevel,
    /// One record per (scene, worker width), each carrying all three
    /// modes.
    pub runs: Vec<RunReport>,
}

impl SimdBenchReport {
    /// Serializes the report as the `BENCH_simd.json` payload.
    pub fn to_json(&self) -> String {
        let mode_json = |m: &ModeReport| {
            format!(
                "{{\"mode\": \"{}\", \"level\": \"{}\", \"stage1_ms\": {:.4}, \
                 \"stage3_ms\": {:.4}, \"full_frame_ms\": {:.4}, \"frames_per_s\": {:.3}, \
                 \"combined_speedup_vs_scalar\": {:.3}}}",
                mode_name(m.mode),
                level_name(m.level),
                m.stage1_ms,
                m.stage3_ms,
                m.full_frame_ms,
                m.frames_per_s,
                m.combined_speedup_vs_scalar,
            )
        };
        let run_json = |r: &RunReport| {
            format!
            (
                "    {{\"scene\": \"{}\", \"scene_gaussians\": {}, \"width\": {}, \
                 \"height\": {}, \"workers\": {}, \"frames_timed\": {}, \"modes\": [\n      {}\n    ]}}",
                r.scene,
                r.scene_gaussians,
                r.width,
                r.height,
                r.workers,
                r.frames_timed,
                r.modes.iter().map(mode_json).collect::<Vec<_>>().join(",\n      "),
            )
        };
        format!(
            "{{\n  \"bench\": \"simd_vector\",\n  \"detected_level\": \"{}\",\n  \"runs\": [\n{}\n  ]\n}}\n",
            level_name(self.detected_level),
            self.runs.iter().map(run_json).collect::<Vec<_>>().join(",\n"),
        )
    }

    /// Human-readable summary table of the same numbers.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "simd data path — detected level: {}",
            level_name(self.detected_level)
        )
        .unwrap();
        for r in &self.runs {
            writeln!(
                out,
                "{} scene — {} gaussians, {}x{}, {} worker(s), {} frame(s)",
                r.scene, r.scene_gaussians, r.width, r.height, r.workers, r.frames_timed,
            )
            .unwrap();
            writeln!(
                out,
                "mode        level    stage1 ms   stage3 ms   frame ms   frames/s   s1+s3 speedup"
            )
            .unwrap();
            for m in &r.modes {
                writeln!(
                    out,
                    "{:<11} {:<8} {:>9.3} {:>11.3} {:>10.3} {:>10.2} {:>12.2}x",
                    mode_name(m.mode),
                    level_name(m.level),
                    m.stage1_ms,
                    m.stage3_ms,
                    m.full_frame_ms,
                    m.frames_per_s,
                    m.combined_speedup_vs_scalar,
                )
                .unwrap();
            }
        }
        out
    }

    /// Checks a serialized `BENCH_simd.json` payload for well-formedness:
    /// the required keys and all three mode records must be present. Used
    /// by the CI smoke run.
    pub fn validate_json(json: &str) -> Result<(), String> {
        for key in [
            "\"bench\": \"simd_vector\"",
            "\"detected_level\"",
            "\"scene_gaussians\"",
            "\"frames_timed\"",
            "\"mode\": \"scalar\"",
            "\"mode\": \"force_sse\"",
            "\"mode\": \"force_avx2\"",
            "\"stage1_ms\"",
            "\"stage3_ms\"",
            "\"frames_per_s\"",
            "\"combined_speedup_vs_scalar\"",
        ] {
            if !json.contains(key) {
                return Err(format!("missing {key}"));
            }
        }
        Ok(())
    }
}

/// Measures one vector mode on one scene: mean Stage-1, Stage-3, and
/// full-frame wall time over `frames` timed iterations (one warm-up each).
fn measure_mode(
    mode: VectorMode,
    scene: &GaussianScene,
    camera: &Camera,
    workers: usize,
    frames: u32,
) -> ModeReport {
    let level = mode.resolve();
    let pool = WorkerPool::new(workers);

    // Stage 1 in isolation, through the pooled chunked entry point.
    let _ = preprocess_pooled_level(scene, camera, &pool, level); // warm-up
    let started = Instant::now();
    for _ in 0..frames {
        std::hint::black_box(preprocess_pooled_level(scene, camera, &pool, level));
    }
    let stage1_ms = started.elapsed().as_secs_f64() / f64::from(frames) * 1e3;

    // Stage 3 in isolation: build one workload through the frame driver,
    // then rasterize it repeatedly (the pass clears the framebuffer itself
    // each call).
    let mut workload = run_frame(
        Stage1Input::Raw(scene),
        camera,
        16,
        level,
        &pool,
        &mut FrameArena::new(),
        None,
        |_| {},
    )
    .workload;
    let mut fb = Framebuffer::new(camera.width(), camera.height());
    let _ = rasterize_with_level(&mut workload, Some(&mut fb), &pool, level); // warm-up
    let started = Instant::now();
    for _ in 0..frames {
        std::hint::black_box(rasterize_with_level(
            &mut workload,
            Some(&mut fb),
            &pool,
            level,
        ));
    }
    let stage3_ms = started.elapsed().as_secs_f64() / f64::from(frames) * 1e3;

    // Full-pipeline pacing through the same pool and a recycled arena.
    let cfg = RenderConfig::default().with_vector_mode(mode);
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
        level,
        stage1_ms,
        stage3_ms,
        full_frame_ms: full_frame_s * 1e3,
        frames_per_s: 1.0 / full_frame_s.max(1e-12),
        combined_speedup_vs_scalar: 1.0, // filled in by the caller
    }
}

/// Measures all three modes on one scene/worker configuration, asserting
/// bit-identity against the scalar reference before reporting any number.
fn measure_run(
    label: &'static str,
    scene: &GaussianScene,
    n: usize,
    camera: &Camera,
    workers: usize,
    frames: u32,
) -> RunReport {
    // Bit-identity of every mode is asserted here too — the artifact
    // never reports a speedup over a divergent data path.
    let cfg = RenderConfig::default().with_workers(workers);
    let reference = render(scene, camera, &cfg.with_vector_mode(VectorMode::Scalar));
    for mode in [VectorMode::ForceSse, VectorMode::ForceAvx2] {
        let out = render(scene, camera, &cfg.with_vector_mode(mode));
        assert!(
            reference.image == out.image && reference.workload == out.workload,
            "vector mode {mode:?} diverged from scalar"
        );
    }

    let mut modes: Vec<ModeReport> = MODES
        .iter()
        .map(|&mode| measure_mode(mode, scene, camera, workers, frames))
        .collect();
    let scalar_combined = modes[0].stage1_ms + modes[0].stage3_ms;
    for m in &mut modes {
        m.combined_speedup_vs_scalar = scalar_combined / (m.stage1_ms + m.stage3_ms).max(1e-12);
    }

    RunReport {
        scene: label,
        scene_gaussians: n,
        width: camera.width(),
        height: camera.height(),
        workers,
        frames_timed: frames,
        modes,
    }
}

/// Runs the full SIMD A/B measurement on deterministic synthetic scenes
/// (a small and a large/40k-Gaussian one) and returns the report. `quick`
/// shrinks the frame count and skips the 4-wide runs for smoke runs; the
/// 40k scene is always measured — it is the record the ≥1.5× combined
/// Stage-1+Stage-3 acceptance criterion reads.
pub fn run(quick: bool) -> SimdBenchReport {
    let (frames, worker_widths): (u32, &[usize]) = if quick { (2, &[1]) } else { (6, &[1, 4]) };
    let camera = |w: u32, h: u32| {
        Camera::look_at(
            Vec3::new(0.0, 6.0, -28.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            w,
            h,
            1.05,
        )
        .expect("valid camera")
    };

    let small_n = 4_000;
    let large_n = 40_000;
    let small = SceneParams::new(small_n)
        .seed(42)
        .generate()
        .expect("valid scene");
    let large = SceneParams::new(large_n)
        .seed(42)
        .generate()
        .expect("valid scene");
    let small_cam = camera(192, 120);
    let large_cam = camera(320, 208);

    let mut runs = Vec::new();
    for &workers in worker_widths {
        runs.push(measure_run(
            "small", &small, small_n, &small_cam, workers, frames,
        ));
        runs.push(measure_run(
            "large", &large, large_n, &large_cam, workers, frames,
        ));
    }

    SimdBenchReport {
        detected_level: gaurast_render::simd::detected_level(),
        runs,
    }
}

/// Runs the measurement, writes `BENCH_simd.json` under
/// `target/artifacts/` ([`crate::artifacts`]), re-validates the payload,
/// and returns the human summary.
pub fn write_artifact(quick: bool) -> std::io::Result<String> {
    let report = run(quick);
    let json = report.to_json();
    SimdBenchReport::validate_json(&json)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let path = crate::artifacts::path(BENCH_SIMD_JSON)?;
    std::fs::write(&path, &json)?;
    Ok(format!("{}wrote {}\n", report.summary(), path.display()))
}
