//! The workload loops. Each is one closed-loop client on the main thread:
//! set up (timed, several times), pass the correctness gate, then send its
//! next frame or batch only after the previous one returned, until the
//! time is up. With tracing on, every frame is also replayed layer by
//! layer (see [`crate::trace`]); end-to-end numbers come from untraced
//! runs only.

use crate::check::{plausible, FrameFacts};
use crate::stats::{mean, median, p90, Metrics, Tally};
use crate::sys;
use crate::trace::{Replayed, Replayer, Tracer};
use crate::workload::{
    build_scene, orbit_camera, service_round, Kind, OrbitPoses, Round, RING, SCALE, SERVICE_SCENES,
};
use gaurast::backend::{BackendKind, FrameReport};
use gaurast::engine::{Engine, EngineBuilder, ImagePolicy};
use gaurast::render::pool::spawned_thread_count;
use gaurast::render::VectorMode;
use gaurast::scene::nerf360::Nerf360Scene;
use gaurast::scene::{PreparedScene, VisibilityCache};
use gaurast::service::RenderService;
use gaurast_bench::alloc_counter::allocation_count;
use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Frames of the `orbit-garden` path the correctness gate compares (the
/// timed loop starts after them). `orbit-counter` checks its whole ring.
const GARDEN_SAMPLE: u64 = 6;

/// Intra-frame workers of the orbit sessions.
const ORBIT_WORKERS: usize = 2;

/// Request-level workers of the `service-mix` service.
const SERVICE_WORKERS: usize = 2;

/// What the command line asked for.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The pinned configuration, printed next to the metrics.
    pub config: Vec<(String, String)>,
    pub tally: Tally,
    /// The metrics of the run's JSON line.
    pub metrics: Metrics,
    /// Metrics printed for people only: the p90 when the rule allows it,
    /// `submit_ms.p50` (service-mix), `failed_frac`, sample counts.
    pub notes: Metrics,
}

/// Runs `f`, turning a panic into `None` (the panic counts as a failed
/// frame, and the loop goes on).
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Process-global counters read around the calls that produce frames.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    spawns: u64,
    allocs: u64,
}

impl Counts {
    fn now() -> Self {
        Self {
            spawns: spawned_thread_count(),
            allocs: allocation_count(),
        }
    }

    fn add_since(&mut self, start: Counts) {
        let now = Counts::now();
        self.spawns += now.spawns - start.spawns;
        self.allocs += now.allocs - start.allocs;
    }
}

/// The traced run's per-frame records, aggregated into the per-layer
/// metrics.
#[derive(Debug)]
struct TraceLog {
    tracer: Tracer,
    /// Replays of the fixed sample frames: exact shape and model metrics.
    sample: Vec<Replayed>,
    frames: u64,
    cache_hits: u64,
    visible_frac: Vec<f64>,
    counts: Counts,
    /// Per frame: its call's latency, and the latency plus its replay.
    latency_ms: Vec<f64>,
    traced_latency_ms: Vec<f64>,
    /// `render_frame` wall minus the replayed layer calls, per frame whose
    /// `render_frame` wall is observed directly.
    engine_overhead_ms: Vec<f64>,
    session_open_ms: Vec<f64>,
}

impl TraceLog {
    fn new() -> Self {
        Self {
            tracer: Tracer::new(),
            sample: Vec::new(),
            frames: 0,
            cache_hits: 0,
            visible_frac: Vec::new(),
            counts: Counts::default(),
            latency_ms: Vec::new(),
            traced_latency_ms: Vec::new(),
            engine_overhead_ms: Vec::new(),
            session_open_ms: Vec::new(),
        }
    }

    /// Records the real report of one traced frame.
    fn report(&mut self, report: &FrameReport, gaussians: usize) {
        self.frames += 1;
        self.cache_hits += u64::from(report.stats.cull.cache_hit);
        self.visible_frac
            .push(report.stats.visible as f64 / gaussians as f64);
    }

    /// The per-layer metrics.
    fn metrics(&self) -> Metrics {
        let p50 = |layer: &str| median(&self.tracer.durations(layer));
        let sum = |f: &dyn Fn(&Replayed) -> u64| self.sample.iter().map(f).sum::<u64>() as f64;
        let n = self.sample.len().max(1) as f64;
        let splats = sum(&|r| r.shape.splats);
        let pairs = sum(&|r| r.facts.pairs);
        let models: Vec<_> = self.sample.iter().filter_map(|r| r.models).collect();
        let model_ms = |f: &dyn Fn(&crate::trace::Models) -> f64| {
            mean(&models.iter().map(f).collect::<Vec<_>>())
        };
        let hw_ms = model_ms(&|m| m.hw_s * 1e3);
        let gpu_ms = model_ms(&|m| m.gpu_s * 1e3);
        let frames = self.frames.max(1) as f64;
        let hw_render = self.tracer.durations("hw.render");
        let mut m = Metrics::default();
        m.push("scene.visibility_ms.p50", p50("scene.visibility"), "ms");
        m.push(
            "scene.visibility_hit_frac",
            self.cache_hits as f64 / frames,
            "ratio",
        );
        m.push("scene.visible_frac", mean(&self.visible_frac), "ratio");
        m.push("render.preprocess_ms.p50", p50("render.preprocess"), "ms");
        m.push("render.splats", splats / n, "count");
        m.push("render.bin_ms.p50", p50("render.bin"), "ms");
        m.push("render.pairs", pairs / n, "count");
        m.push("render.pairs_per_splat", pairs / splats.max(1.0), "ratio");
        m.push("render.rasterize_ms.p50", p50("render.rasterize"), "ms");
        m.push(
            "render.processed_pair_frac",
            sum(&|r| r.shape.processed) / pairs.max(1.0),
            "ratio",
        );
        m.push(
            "render.tiles_early_terminated_frac",
            sum(&|r| r.shape.tiles_early_terminated) / sum(&|r| r.shape.tiles).max(1.0),
            "ratio",
        );
        m.push(
            "render.pool_spawns_per_frame",
            self.counts.spawns as f64 / frames,
            "count",
        );
        m.push(
            "render.allocs_per_frame",
            self.counts.allocs as f64 / frames,
            "count",
        );
        m.push("hw.render_ms.p50", median(&hw_render), "ms");
        m.push("hw.model_ms", hw_ms, "ms");
        m.push("hw.utilization", model_ms(&|m| m.hw_utilization), "ratio");
        m.push("gscore.simulate_ms.p50", p50("gscore.simulate"), "ms");
        m.push("gscore.model_ms", model_ms(&|m| m.gscore_s * 1e3), "ms");
        m.push("gpu.model_ms", gpu_ms, "ms");
        m.push(
            "model.speedup_vs_orin",
            if hw_ms > 0.0 { gpu_ms / hw_ms } else { 0.0 },
            "ratio",
        );
        m.push(
            "core.engine.overhead_ms",
            median(&self.engine_overhead_ms),
            "ms",
        );
        m.push(
            "core.service.session_open_ms.p50",
            median(&self.session_open_ms),
            "ms",
        );
        m.push("trace.frame_ms.p50", median(&self.latency_ms), "ms");
        m.push(
            "trace.overhead_ms",
            median(&self.traced_latency_ms) - median(&self.latency_ms),
            "ms",
        );
        m
    }
}

/// Timings of the untraced loop.
#[derive(Debug, Default)]
struct Timings {
    setup_s: Vec<f64>,
    frame_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    frames: u64,
    wall_s: f64,
    cpu_s: f64,
}

impl Timings {
    /// The end-to-end metrics (JSON) and the people-only notes.
    fn metrics(&self, tally: &Tally) -> (Metrics, Metrics) {
        let frames = self.frames.max(1) as f64;
        let mut m = Metrics::default();
        m.push("frame_ms.p50", median(&self.frame_ms), "ms");
        m.push("batch_ms.p50", median(&self.batch_ms), "ms");
        m.push("fps", self.frames as f64 / self.wall_s, "frames/s");
        m.push("cpu_ms_per_frame", self.cpu_s * 1e3 / frames, "ms");
        m.push("setup_s", median(&self.setup_s), "s");
        m.push("peak_rss_mb", sys::peak_rss_mb(), "MB");
        let mut notes = Metrics::default();
        if let Some(p) = p90(&self.frame_ms) {
            notes.push("frame_ms.p90", p, "ms");
        }
        notes.push("frame_ms.samples", self.frame_ms.len() as f64, "count");
        notes.push("batch_ms.samples", self.batch_ms.len() as f64, "count");
        if !self.submit_ms.is_empty() {
            notes.push("submit_ms.p50", median(&self.submit_ms), "ms");
            notes.push("submit_ms.samples", self.submit_ms.len() as f64, "count");
        }
        notes.push("failed_frac", tally.failed_frac(), "ratio");
        (m, notes)
    }
}

/// A serial scalar reference session over the same prepared scene: the
/// oracle of the correctness gate.
fn reference_session(
    prepared: &Arc<PreparedScene>,
    backend: BackendKind,
    policy: ImagePolicy,
) -> Engine {
    EngineBuilder::shared(Arc::clone(prepared))
        .backend(backend)
        .image_policy(policy)
        .workers(1)
        .vector_mode(VectorMode::Scalar)
        .build()
        .expect("the default configuration is valid")
}

/// Records a scene's size, resolution and mean pairs per frame.
fn scene_config(out: &mut Outcome, scene: Nerf360Scene, prepared: &PreparedScene, mean_pairs: f64) {
    let (w, h) = scene.descriptor().resolution_at(SCALE);
    out.config.push((
        format!("scene.{}", scene.name()),
        format!(
            "gaussians={} resolution={w}x{h} mean_pairs_per_frame={mean_pairs:.0}",
            prepared.len()
        ),
    ));
}

/// `orbit-garden` and `orbit-counter`.
pub fn orbit(opts: Options) -> Outcome {
    let scene = match opts.kind {
        Kind::OrbitGarden => Nerf360Scene::Garden,
        _ => Nerf360Scene::Counter,
    };
    let poses = OrbitPoses::new(scene, opts.seed, 0);
    let camera = |i: u64| orbit_camera(opts.kind, &poses, i);
    let mut out = Outcome::default();
    let mut t = Timings::default();

    // Set-up: scene synthesis, preparation, session build, first cold
    // frame.
    let mut engine = None;
    for _ in 0..if opts.trace { 1 } else { SETUP_REPS } {
        drop(engine.take());
        let started = Instant::now();
        let prepared = Arc::new(PreparedScene::prepare(build_scene(scene)));
        let mut e = EngineBuilder::shared(prepared)
            .backend(BackendKind::Enhanced)
            .image_policy(ImagePolicy::Discard)
            .workers(ORBIT_WORKERS)
            .build()
            .expect("the default configuration is valid");
        black_box(e.render_frame(&camera(0)));
        t.setup_s.push(started.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up ran");
    let prepared = Arc::clone(engine.prepared());
    let gaussians = prepared.len();
    out.config
        .push(("session.workers".into(), engine.workers().to_string()));
    out.config.push((
        "session.simd_level".into(),
        format!("{:?}", engine.simd_level()),
    ));

    // Correctness gate: the sample frames against the serial reference.
    let sample = match opts.kind {
        Kind::OrbitGarden => GARDEN_SAMPLE,
        _ => RING as u64,
    };
    let mut reference = reference_session(&prepared, BackendKind::Enhanced, ImagePolicy::Discard);
    let mut trace = opts.trace.then(TraceLog::new);
    let mut replayer = Replayer::new(
        engine.workers(),
        engine.simd_level(),
        Arc::new(VisibilityCache::new()),
    );
    let mut expected = HashMap::new();
    for i in 0..sample {
        let cam = camera(i);
        let want = FrameFacts::of(&reference.render_frame(&cam));
        let got = guarded(|| engine.render_frame(&cam)).map(|r| FrameFacts::of(&r));
        let mut ok = got == Some(want);
        if let Some(log) = trace.as_mut() {
            let r = replayer.frame(
                &mut log.tracer,
                i,
                &prepared,
                &cam,
                BackendKind::Enhanced,
                false,
                true,
            );
            ok &= r.facts == want;
            log.sample.push(r);
        }
        out.tally.record(ok);
        expected.insert(i % RING as u64, want);
    }
    drop(reference);
    let mean_pairs = mean(
        &expected
            .values()
            .map(|f| f.pairs as f64)
            .collect::<Vec<_>>(),
    );
    scene_config(&mut out, scene, &prepared, mean_pairs);

    // The timed loop: rounds of RING frames.
    let deadline = Duration::from_secs_f64(opts.seconds);
    let mut next = sample;
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    loop {
        let round_start = Instant::now();
        for _ in 0..RING {
            let cam = camera(next);
            let counts = Counts::now();
            let span_start = trace.as_ref().map(|log| log.tracer.now_ns());
            let started = Instant::now();
            let report = guarded(|| engine.render_frame(&cam));
            let wall = ms(started.elapsed());
            t.frame_ms.push(wall);
            t.frames += 1;
            let facts = report.as_ref().map(FrameFacts::of);
            let mut ok = match (&report, opts.kind) {
                (Some(r), Kind::OrbitGarden) => plausible(r, gaussians),
                (Some(_), _) => facts == expected.get(&(next % RING as u64)).copied(),
                (None, _) => false,
            };
            if let (Some(log), Some(r), Some(start)) = (trace.as_mut(), report.as_ref(), span_start)
            {
                let wall = log
                    .tracer
                    .close(next, 1, "core.engine.render_frame", None, start);
                log.counts.add_since(counts);
                log.report(r, gaussians);
                let replayed = replayer.frame(
                    &mut log.tracer,
                    next,
                    &prepared,
                    &cam,
                    BackendKind::Enhanced,
                    false,
                    false,
                );
                ok &= Some(replayed.facts) == facts;
                log.latency_ms.push(wall);
                log.traced_latency_ms.push(wall + replayed.wall_ms);
                log.engine_overhead_ms.push(wall - replayed.layers_ms);
            }
            out.tally.record(ok);
            next += 1;
        }
        t.batch_ms.push(ms(round_start.elapsed()));
        if t0.elapsed() >= deadline {
            break;
        }
    }
    t.wall_s = t0.elapsed().as_secs_f64();
    t.cpu_s = sys::cpu_seconds() - cpu0;
    finish(opts, out, &t, trace)
}

/// Fills the outcome's metrics and writes the spans of a traced run.
fn finish(opts: Options, mut out: Outcome, t: &Timings, trace: Option<TraceLog>) -> Outcome {
    let (metrics, notes) = t.metrics(&out.tally);
    match trace {
        Some(log) => {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!(
                    "spans-{}-seed{}.jsonl",
                    opts.kind.name(),
                    opts.seed
                ));
            match log.tracer.write(&path) {
                Ok(()) => out
                    .config
                    .push(("spans".into(), path.display().to_string())),
                Err(e) => eprintln!(
                    "perfbench: could not write spans to {}: {e}",
                    path.display()
                ),
            }
            out.metrics = log.metrics();
            out.notes
                .push("failed_frac", out.tally.failed_frac(), "ratio");
        }
        None => (out.metrics, out.notes) = (metrics, notes),
    }
    out
}

/// Checks one `service-mix` batch without a reference: every frame is
/// plausible, and the frames of one scene and pose agree across the four
/// backends on the workload and on the image (the enhanced rasterizer's PE
/// datapath is bit-exact with the reference in FP32).
fn check_batch(
    round: &Round,
    reports: Option<&[FrameReport]>,
    gaussians: &HashMap<&str, usize>,
) -> Vec<bool> {
    let Some(reports) = reports else {
        return vec![false; round.requests.len()];
    };
    let facts: Vec<FrameFacts> = reports.iter().map(FrameFacts::of).collect();
    (0..round.requests.len())
        .map(|i| {
            let first = round
                .poses
                .iter()
                .position(|&p| p == round.poses[i])
                .unwrap_or(i);
            let scene = round.requests[i].scene.as_str();
            reports.len() == round.requests.len()
                && plausible(&reports[i], gaussians.get(scene).copied().unwrap_or(0))
                && facts[i].workload() == facts[first].workload()
                && facts[i].image == facts[first].image
        })
        .collect()
}

/// `service-mix`.
pub fn service(opts: Options) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Timings::default();
    let first = service_round(opts.seed, 0);

    // Set-up: both scenes synthesized and prepared, the service built, and
    // one cold `submit` of the fixed submit class.
    let mut service = None;
    for _ in 0..if opts.trace { 1 } else { SETUP_REPS } {
        drop(service.take());
        let started = Instant::now();
        let mut builder = RenderService::builder()
            .workers(SERVICE_WORKERS)
            .image_policy(ImagePolicy::Retain);
        for (name, scene) in SERVICE_SCENES {
            builder = builder.scene(name, build_scene(scene));
        }
        let svc = builder.build().expect("the default configuration is valid");
        let cold = first.requests[first.submits[0]].clone();
        black_box(svc.submit(cold).expect("the scene is registered"));
        t.setup_s.push(started.elapsed().as_secs_f64());
        service = Some(svc);
    }
    let service = service.expect("at least one set-up ran");
    let prepared = |name: &str| -> Arc<PreparedScene> {
        Arc::clone(service.prepared(name).expect("the scene is registered"))
    };
    let gaussians: HashMap<&str, usize> = SERVICE_SCENES
        .iter()
        .map(|(name, _)| (*name, prepared(name).len()))
        .collect();
    let level = VectorMode::default().resolve();
    let batch_width = service.frame_worker_budget(SERVICE_WORKERS);
    let submit_width = service.frame_worker_budget(1);
    out.config
        .push(("service.workers".into(), SERVICE_WORKERS.to_string()));
    out.config.push((
        "service.batch_frame_workers".into(),
        batch_width.to_string(),
    ));
    out.config.push((
        "service.submit_frame_workers".into(),
        submit_width.to_string(),
    ));
    out.config
        .push(("session.simd_level".into(), format!("{level:?}")));

    // Correctness gate: round 0's batch against serial reference sessions.
    let mut trace = opts.trace.then(TraceLog::new);
    let cache = Arc::new(VisibilityCache::new());
    let mut batch_replayer = Replayer::new(batch_width, level, Arc::clone(&cache));
    let mut submit_replayer = Replayer::new(submit_width, level, cache);
    let batch = guarded(|| service.render_batch(&first.requests));
    let got: Vec<Option<FrameFacts>> = match &batch {
        Some(Ok(b)) => b
            .responses
            .iter()
            .map(|r| Some(FrameFacts::of(&r.report)))
            .collect(),
        _ => vec![None; first.requests.len()],
    };
    let mut references: HashMap<(&str, BackendKind), Engine> = HashMap::new();
    let mut pairs: HashMap<&str, Vec<f64>> = HashMap::new();
    for (i, req) in first.requests.iter().enumerate() {
        let scene = prepared(&req.scene);
        let reference = references
            .entry((req.scene.as_str(), req.backend))
            .or_insert_with(|| reference_session(&scene, req.backend, ImagePolicy::Retain));
        let want = FrameFacts::of(&reference.render_frame(&req.camera));
        let mut ok = got.get(i).copied().flatten() == Some(want);
        if let Some(log) = trace.as_mut() {
            let r = batch_replayer.frame(
                &mut log.tracer,
                i as u64,
                &scene,
                &req.camera,
                req.backend,
                true,
                true,
            );
            ok &= r.facts == want;
            log.sample.push(r);
        }
        out.tally.record(ok);
        pairs
            .entry(req.scene.as_str())
            .or_default()
            .push(want.pairs as f64);
    }
    drop(references);
    for (name, scene) in SERVICE_SCENES {
        let scene_pairs = pairs.get(name).map_or(0.0, |p| mean(p));
        scene_config(&mut out, scene, &prepared(name), scene_pairs);
    }

    // The timed loop: one batch, then its submits, per round.
    let deadline = Duration::from_secs_f64(opts.seconds);
    let mut frame_id = first.requests.len() as u64;
    let cpu0 = sys::cpu_seconds();
    let t0 = Instant::now();
    for index in 1.. {
        let round = service_round(opts.seed, index);
        let n = round.requests.len();
        let counts = Counts::now();
        let span_start = trace.as_ref().map(|log| log.tracer.now_ns());
        let started = Instant::now();
        let batch = guarded(|| service.render_batch(&round.requests));
        let wall = ms(started.elapsed());
        t.batch_ms.push(wall);
        t.frame_ms.extend(std::iter::repeat_n(wall, n));
        t.frames += n as u64;
        let reports: Option<Vec<FrameReport>> = match batch {
            Some(Ok(b)) => Some(b.responses.into_iter().map(|r| r.report).collect()),
            _ => None,
        };
        let mut oks = check_batch(&round, reports.as_deref(), &gaussians);
        if let (Some(log), Some(reports), Some(start)) =
            (trace.as_mut(), reports.as_ref(), span_start)
        {
            log.tracer
                .close(frame_id, n as u32, "core.service.render_batch", None, start);
            log.counts.add_since(counts);
            let mut replay_ms = 0.0;
            for (i, (req, report)) in round.requests.iter().zip(reports).enumerate() {
                log.report(report, gaussians[req.scene.as_str()]);
                let r = batch_replayer.frame(
                    &mut log.tracer,
                    frame_id + i as u64,
                    &prepared(&req.scene),
                    &req.camera,
                    req.backend,
                    true,
                    false,
                );
                oks[i] &= r.facts == FrameFacts::of(report);
                replay_ms += r.wall_ms;
            }
            log.latency_ms.extend(std::iter::repeat_n(wall, n));
            log.traced_latency_ms
                .extend(std::iter::repeat_n(wall + replay_ms, n));
        }
        for ok in oks {
            out.tally.record(ok);
        }
        frame_id += n as u64;

        for &i in &round.submits {
            let req = round.requests[i].clone();
            let want = reports.as_ref().map(|r| FrameFacts::of(&r[i]));
            let ok = match trace.as_mut() {
                // Traced: `submit` split into its two public calls.
                Some(log) => {
                    let counts = Counts::now();
                    let (session, open_ms) =
                        log.tracer.span(frame_id, "core.service.session", None, || {
                            service.session(&req.scene, req.backend)
                        });
                    log.session_open_ms.push(open_ms);
                    let (report, wall) =
                        log.tracer
                            .span(frame_id, "core.engine.render_frame", None, || {
                                session
                                    .ok()
                                    .and_then(|mut s| guarded(|| s.render_frame(&req.camera)))
                            });
                    log.counts.add_since(counts);
                    match report {
                        Some(report) => {
                            log.report(&report, gaussians[req.scene.as_str()]);
                            let r = submit_replayer.frame(
                                &mut log.tracer,
                                frame_id,
                                &prepared(&req.scene),
                                &req.camera,
                                req.backend,
                                true,
                                false,
                            );
                            log.latency_ms.push(open_ms + wall);
                            log.traced_latency_ms.push(open_ms + wall + r.wall_ms);
                            log.engine_overhead_ms.push(wall - r.layers_ms);
                            let facts = FrameFacts::of(&report);
                            r.facts == facts && Some(facts) == want
                        }
                        None => false,
                    }
                }
                None => {
                    let started = Instant::now();
                    let response = guarded(|| service.submit(req));
                    let wall = ms(started.elapsed());
                    t.submit_ms.push(wall);
                    t.frame_ms.push(wall);
                    matches!(response, Some(Ok(r)) if Some(FrameFacts::of(&r.report)) == want)
                }
            };
            out.tally.record(ok);
            t.frames += 1;
            frame_id += 1;
        }
        if t0.elapsed() >= deadline {
            break;
        }
    }
    t.wall_s = t0.elapsed().as_secs_f64();
    t.cpu_s = sys::cpu_seconds() - cpu0;
    finish(opts, out, &t, trace)
}
