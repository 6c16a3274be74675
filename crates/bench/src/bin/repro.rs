//! Regenerates every table and figure of the GauRast paper's evaluation.
//!
//! ```text
//! cargo run --release -p gaurast-bench --bin repro            # everything
//! cargo run --release -p gaurast-bench --bin repro -- fig10   # one artifact
//! cargo run --release -p gaurast-bench --bin repro -- --quick # small scale
//! ```
//!
//! Artifact ids: `tab1 tab2 fig4 fig5 fig8 fig9 fig10 tab3 fig11 sec5c
//! sec5d ablations quality sweep compare`. Frame timings are not an
//! artifact: perfbench (`perfbench/` at the repository root) is the one
//! harness that times frames.
//!
//! Exits 2 on an unknown artifact id, and 1 when `quality` finds an FP32
//! PE-datapath image that is not bit-exact with the software reference.

use gaurast::backend::BackendKind;
use gaurast::engine::EngineBuilder;
use gaurast::experiments::{
    ablations, area, baseline, competitors, endtoend, methodology, pipelining, primitives, quality,
    raster_perf, sweep, Algorithm, EvaluationSet, ExperimentContext,
};
use gaurast_gpu::paper;
use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};

const ALL_IDS: [&str; 15] = [
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
                let report = quality::quality(SceneScale::UNIT_TEST);
                section(&report.to_string());
                if !report.all_fp32_exact() {
                    eprintln!("quality: the FP32 PE datapath diverged from the software reference");
                    std::process::exit(1);
                }
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
            _ => unreachable!("ids validated above"),
        }
    }
}

fn section(text: &str) {
    println!("{text}");
    println!("{}", "=".repeat(78));
}
