//! Orbit playback: replays a 60-frame camera orbit through the
//! CUDA-collaborative pipeline with per-viewpoint costs from the real
//! models, reporting throughput and frame pacing (p50/p99) — the metrics an
//! AR/VR integrator reads off the paper's Fig. 8/11 story.
//!
//! ```text
//! cargo run --release --example orbit_playback
//! ```

use gaurast::gpu::device;
use gaurast::hw::{EnhancedRasterizer, RasterizerConfig};
use gaurast::render::pipeline::{render, RenderConfig};
use gaurast::scene::nerf360::{Nerf360Scene, SceneScale};
use gaurast::sched::{replay, FrameCost};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let desc = Nerf360Scene::Counter.descriptor();
    let scale = SceneScale::UNIT_TEST;
    let scene = desc.synthesize(scale);
    let hw = EnhancedRasterizer::new(RasterizerConfig::scaled());
    let orin = device::orin_nx();

    eprintln!("rendering 60 viewpoints ...");
    let mut frames = Vec::with_capacity(60);
    for i in 0..60 {
        let theta = i as f32 / 60.0 * std::f32::consts::TAU;
        let cam = desc.camera(scale, theta)?;
        let out = render(&scene, &cam, &RenderConfig::default());
        // Paper-scale extrapolation factor: calibrated work / measured work.
        let scale_up = desc.raster_work_per_frame / out.workload.blend_work().max(1) as f64;
        let stage3 = hw.simulate_gaussian(&out.workload).time_s * scale_up;
        let stages12 = orin.preprocess_time((desc.full_gaussians as f64 * 0.85) as u64)
            + orin.sort_time(desc.sort_pairs_per_frame as u64);
        frames.push(FrameCost {
            stages12_s: stages12,
            stage3_s: stage3,
        });
    }

    let report = replay(&frames);
    println!(
        "orbit of {} frames: {:.1} FPS average throughput",
        report.len(),
        report.throughput_fps()
    );
    println!(
        "frame pacing: p50 {:.2} ms, p99 {:.2} ms; worst latency {:.2} ms",
        report.interval_percentile_s(0.50) * 1e3,
        report.interval_percentile_s(0.99) * 1e3,
        report.max_latency_s() * 1e3,
    );
    println!("\nfirst 8 frames (CUDA row / rasterizer row):");
    // Render just the head of the orbit for readability.
    let head = replay(&frames[..8]);
    print!("{}", head.timeline.ascii_gantt(72));
    Ok(())
}
