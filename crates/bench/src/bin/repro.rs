//! Regenerates every table and figure of the GauRast paper's evaluation.
//!
//! ```text
//! cargo run --release -p gaurast-bench --bin repro            # everything
//! cargo run --release -p gaurast-bench --bin repro -- fig10   # one artifact
//! cargo run --release -p gaurast-bench --bin repro -- --quick # small scale
//! ```
//!
//! Artifact ids: `tab1 tab2 fig4 fig5 fig8 fig9 fig10 tab3 fig11 sec5c
//! sec5d ablations quality sweep compare batch scaling`.

use gaurast::backend::BackendKind;
use gaurast::engine::EngineBuilder;
use gaurast::experiments::{
    ablations, area, baseline, competitors, endtoend, methodology, pipelining, primitives, quality,
    raster_perf, sweep, Algorithm, EvaluationSet, ExperimentContext,
};
use gaurast::service::{RenderRequest, RenderService};
use gaurast_gpu::paper;
use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};

const ALL_IDS: [&str; 17] = [
    "tab1",
    "tab2",
    "fig4",
    "fig5",
    "fig8",
    "fig9",
    "fig10",
    "tab3",
    "fig11",
    "sec5c",
    "sec5d",
    "ablations",
    "quality",
    "sweep",
    "compare",
    "batch",
    "scaling",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let ids: Vec<&str> = if selected.is_empty() {
        ALL_IDS.to_vec()
    } else {
        for id in &selected {
            if !ALL_IDS.contains(id) {
                eprintln!("unknown artifact id {id}; known: {}", ALL_IDS.join(" "));
                std::process::exit(2);
            }
        }
        selected
    };

    let needs_set = ids.iter().any(|id| {
        matches!(
            *id,
            "fig4" | "fig5" | "fig8" | "fig10" | "tab3" | "fig11" | "sec5d"
        )
    });
    let csv = args.iter().any(|a| a == "--csv");
    let set = (needs_set || csv).then(|| {
        let ctx = if quick {
            ExperimentContext::quick()
        } else {
            ExperimentContext::repro()
        };
        eprintln!(
            "evaluating 7 scenes x 2 algorithms at 1/{} gaussians, 1/{} resolution ...",
            ctx.scale.gaussian_divisor, ctx.scale.resolution_divisor
        );
        EvaluationSet::compute(ctx)
    });
    let set = set.as_ref();
    if csv {
        let data = gaurast::report::evaluation_to_csv(set.expect("set computed"));
        match gaurast_bench::artifacts::path("gaurast_results.csv")
            .and_then(|path| std::fs::write(&path, data).map(|()| path))
        {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write gaurast_results.csv: {e}"),
        }
    }

    for id in ids {
        match id {
            "tab1" => section(&methodology::table1().to_string()),
            "tab2" => section(&primitives::table2().to_string()),
            "fig4" | "fig5" => {
                // Both come from the same baseline profile; print once per id
                // to keep the per-artifact interface uniform.
                let report = baseline::baseline_profile(set.expect("set computed"));
                section(&report.to_string());
            }
            "fig8" => section(&pipelining::figure8(set.expect("set computed")).to_string()),
            "fig9" => section(&area::figure9().to_string()),
            "fig10" => {
                let s = set.expect("set computed");
                let orig = raster_perf::figure10(s, Algorithm::Original);
                let mini = raster_perf::figure10(s, Algorithm::MiniSplatting);
                section(&orig.to_string());
                section(&mini.to_string());
                println!(
                    "paper: {:.0}x / {:.0}x (original), {:.0}x / {:.0}x (optimized)\n",
                    paper::FIG10_AVG_SPEEDUP_ORIGINAL,
                    paper::FIG10_AVG_ENERGY_ORIGINAL,
                    paper::FIG10_AVG_SPEEDUP_OPTIMIZED,
                    paper::FIG10_AVG_ENERGY_OPTIMIZED,
                );
            }
            "tab3" => section(&raster_perf::table3(set.expect("set computed")).to_string()),
            "fig11" => {
                let s = set.expect("set computed");
                section(&endtoend::figure11(s, Algorithm::Original).to_string());
                section(&endtoend::figure11(s, Algorithm::MiniSplatting).to_string());
                println!(
                    "paper: {:.0} FPS at {:.0}x (original), {:.0} FPS at {:.0}x (optimized)\n",
                    paper::FIG11_AVG_FPS_ORIGINAL,
                    paper::FIG11_E2E_SPEEDUP.0,
                    paper::FIG11_AVG_FPS_OPTIMIZED,
                    paper::FIG11_E2E_SPEEDUP.1,
                );
            }
            "sec5c" => {
                section(&competitors::section5c().to_string());
                let scale = if quick {
                    SceneScale::UNIT_TEST
                } else {
                    SceneScale::REPRO
                };
                section(&competitors::gscore_architecture(scale).to_string());
            }
            "sec5d" => section(&competitors::section5d(set.expect("set computed")).to_string()),
            "ablations" => {
                let scale = if quick {
                    SceneScale::UNIT_TEST
                } else {
                    SceneScale::REPRO
                };
                section(&ablations::ablations(Nerf360Scene::Garden, scale).to_string());
            }
            "quality" => {
                // Functional (bit-level) rendering is the slow path; keep it
                // at unit-test scale regardless.
                section(&quality::quality(SceneScale::UNIT_TEST).to_string());
            }
            "sweep" => {
                let scale = if quick {
                    SceneScale::UNIT_TEST
                } else {
                    SceneScale::REPRO
                };
                section(&sweep::pe_sweep(Nerf360Scene::Bicycle, scale).to_string());
            }
            "compare" => {
                // One engine call runs the identical workload on every
                // substrate (software, CUDA baseline, GSCore, GauRast).
                let scale = if quick {
                    SceneScale::UNIT_TEST
                } else {
                    SceneScale::REPRO
                };
                let desc = Nerf360Scene::Garden.descriptor();
                let mut engine = EngineBuilder::new(desc.synthesize(scale))
                    .build()
                    .expect("default configuration is valid");
                let cam = desc.camera(scale, 0.4).expect("descriptor camera");
                section(&engine.compare(&cam, &BackendKind::ALL).to_string());
            }
            "batch" => {
                // Shared-scene serving: two NeRF-360 scenes prepared once,
                // a 16-request batch fanned across the worker pool, versus
                // the same frames through one sequential session per scene.
                let scale = if quick {
                    SceneScale::UNIT_TEST
                } else {
                    SceneScale::REPRO
                };
                section(&batch_demo(scale));
            }
            "scaling" => {
                // Intra-frame parallel pipeline: one frame, growing worker
                // pools, bit-identical output, wall-clock speedup.
                let scale = if quick {
                    SceneScale::UNIT_TEST
                } else {
                    SceneScale::REPRO
                };
                section(&scaling_demo(scale));
            }
            _ => unreachable!("ids validated above"),
        }
    }
}

/// Runs the shared-scene batch demonstration and formats its report.
fn batch_demo(scale: SceneScale) -> String {
    use std::fmt::Write as _;
    use std::time::Instant;

    let scenes = [Nerf360Scene::Garden, Nerf360Scene::Counter];
    let mut builder = RenderService::builder();
    for scene in scenes {
        builder = builder.scene(scene.to_string(), scene.descriptor().synthesize(scale));
    }
    let service = builder.build().expect("default configuration is valid");

    let requests: Vec<RenderRequest> = (0..16)
        .map(|i| {
            let scene = scenes[i % scenes.len()];
            let theta = i as f32 / 16.0 * std::f32::consts::TAU;
            let cam = scene
                .descriptor()
                .camera(scale, theta)
                .expect("descriptor camera");
            RenderRequest::new(scene.to_string(), cam)
        })
        .collect();

    // Sequential baseline: the same frames through one session per scene.
    let started = Instant::now();
    for scene in scenes {
        let mut session = service
            .session(&scene.to_string(), BackendKind::Enhanced)
            .expect("scene registered");
        for req in requests.iter().filter(|r| r.scene == scene.to_string()) {
            session.render_frame(&req.camera);
        }
    }
    let sequential_s = started.elapsed().as_secs_f64();

    let batch = service
        .render_batch(&requests)
        .expect("all scenes registered");
    let mut out = String::new();
    writeln!(
        out,
        "shared-scene batch service — {} scenes, {} workers",
        scenes.len(),
        service.workers()
    )
    .unwrap();
    writeln!(out, "{batch}").unwrap();
    writeln!(
        out,
        "sequential single-session: {:.1} ms; batch wall: {:.1} ms ({:.2}x)",
        sequential_s * 1e3,
        batch.wall_s * 1e3,
        sequential_s / batch.wall_s.max(1e-12),
    )
    .unwrap();
    out
}

/// Renders one Garden frame with 1/2/4/8-wide intra-frame worker pools,
/// checks bit-identity against the serial frame, and reports the
/// wall-clock speedups — the `scaling` artifact tracked by the benchmark
/// JSON. Each width times its frames through one pool and one recycled
/// arena built before the clock starts, so no timed frame spawns threads.
fn scaling_demo(scale: SceneScale) -> String {
    use gaurast::render::pipeline::{render_with_pool, RenderConfig};
    use gaurast::render::{FrameArena, WorkerPool};
    use std::fmt::Write as _;
    use std::time::Instant;

    let desc = Nerf360Scene::Garden.descriptor();
    let scene = desc.synthesize(scale);
    let cam = desc.camera(scale, 0.4).expect("descriptor camera");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let mut out = String::new();
    writeln!(
        out,
        "intra-frame scaling — garden, {} gaussians, {}x{}, {} core(s)",
        scene.len(),
        cam.width(),
        cam.height(),
        cores
    )
    .unwrap();

    let cfg = RenderConfig::default();
    let time_frame = |workers: usize| {
        let pool = WorkerPool::new(workers);
        let mut arena = FrameArena::new();
        let recycled_frame = |arena: &mut FrameArena| {
            render_with_pool(&scene, &cam, &cfg, arena, &pool)
                .workload
                .recycle_into(arena);
        };
        recycled_frame(&mut arena); // warm-up: sizes the arena
        let started = Instant::now();
        let frames = 3;
        for _ in 0..frames {
            recycled_frame(&mut arena);
        }
        (
            started.elapsed().as_secs_f64() / f64::from(frames),
            render_with_pool(&scene, &cam, &cfg, &mut arena, &pool),
        )
    };

    let (serial_s, serial) = time_frame(1);
    writeln!(out, "workers   frame ms   speedup   bit-identical").unwrap();
    writeln!(
        out,
        "      1   {:8.2}      1.00x   reference",
        serial_s * 1e3
    )
    .unwrap();
    for workers in [2usize, 4, 8] {
        let (wall_s, frame) = time_frame(workers);
        let identical = frame.image == serial.image
            && frame.raster == serial.raster
            && frame.preprocess == serial.preprocess;
        assert!(identical, "workers={workers} diverged from serial");
        writeln!(
            out,
            "  {workers:5}   {:8.2}   {:7.2}x   yes",
            wall_s * 1e3,
            serial_s / wall_s.max(1e-12),
        )
        .unwrap();
    }
    if cores < 4 {
        writeln!(
            out,
            "note: {cores} core(s) available — speedups degenerate to ~1x here; \
             the >=2x @ 4 workers acceptance check runs (or skips) in \
             crates/render/tests/parallel.rs"
        )
        .unwrap();
    }
    out
}

fn section(text: &str) {
    println!("{text}");
    println!("{}", "=".repeat(78));
}
