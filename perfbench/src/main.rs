//! The repository benchmark: `Engine::render_frame` latency and
//! `RenderService` throughput on three workloads, plus a traced per-layer
//! run. See `perfbench/README.md` for the workloads, the metrics and the
//! layer each per-layer metric should move.
//!
//! ```text
//! perfbench --workload <orbit-garden|orbit-counter|service-mix>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the pinned configuration and every metric by name with its
//! unit, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits 1 when
//! any frame failed its correctness check, 2 on a usage error.

mod check;
mod run;
mod stats;
mod sys;
mod trace;
mod workload;

use run::Options;
use std::process::ExitCode;
use workload::{Kind, DEFAULT_SEED};

#[global_allocator]
static ALLOC: gaurast_bench::alloc_counter::CountingAllocator =
    gaurast_bench::alloc_counter::CountingAllocator;

/// The end-to-end metrics every untraced run reports, in order.
pub const END_TO_END: &[&str] = &[
    "frame_ms.p50",
    "batch_ms.p50",
    "fps",
    "cpu_ms_per_frame",
    "setup_s",
    "peak_rss_mb",
];

/// The per-layer metrics every traced run reports, in order.
pub const PER_LAYER: &[&str] = &[
    "scene.visibility_ms.p50",
    "scene.visibility_hit_frac",
    "scene.visible_frac",
    "render.preprocess_ms.p50",
    "render.splats",
    "render.bin_ms.p50",
    "render.pairs",
    "render.pairs_per_splat",
    "render.rasterize_ms.p50",
    "render.processed_pair_frac",
    "render.tiles_early_terminated_frac",
    "render.pool_spawns_per_frame",
    "render.allocs_per_frame",
    "hw.render_ms.p50",
    "hw.model_ms",
    "hw.utilization",
    "gscore.simulate_ms.p50",
    "gscore.model_ms",
    "gpu.model_ms",
    "model.speedup_vs_orin",
    "core.engine.overhead_ms",
    "core.service.session_open_ms.p50",
    "trace.frame_ms.p50",
    "trace.overhead_ms",
];

/// Environment variables that silently change which program runs.
const REFUSED_ENV: [&str; 2] = ["GAURAST_WORKERS", "GAURAST_VECTOR"];

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        kind: Kind::OrbitGarden,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.kind = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {var} set: it changes which program is measured"
        );
        return ExitCode::from(2);
    }

    let outcome = match opts.kind {
        Kind::ServiceMix => run::service(opts),
        _ => run::orbit(opts),
    };

    println!("workload = {}", opts.kind.name());
    println!("config.seed = {}", opts.seed);
    println!("config.seconds = {}", opts.seconds);
    println!("config.trace = {}", u8::from(opts.trace));
    println!("config.nproc = {}", sys::nproc());
    for (key, value) in &outcome.config {
        println!("config.{key} = {value}");
    }
    for m in outcome.metrics.0.iter().chain(&outcome.notes.0) {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let tally = outcome.tally;
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        outcome.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} frames failed",
            tally.failed, tally.attempted
        );
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = parse_args(&args(
            "--workload service-mix --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.kind, o.seed, o.seconds, o.trace),
            (Kind::ServiceMix, 7, 20.0, true)
        );
        let d = parse_args(&args("--workload orbit-counter")).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload orbit-garden --trace 2",
            "--workload orbit-garden --seconds -1",
            "--workload orbit-garden --seed",
            "--workload orbit-garden --frobnicate 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
