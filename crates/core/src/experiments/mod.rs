//! Shared experiment machinery: scene evaluation at simulation scale and
//! extrapolation to the paper's full scale.
//!
//! The paper's checkpoints and its baseline GPU are not available to this
//! reproduction, so every quantitative experiment follows the same recipe:
//!
//! 1. synthesize the statistically calibrated scene at a reduced
//!    [`SceneScale`],
//! 2. open an [`Engine`](crate::engine::Engine) session over it: per
//!    frame, the engine runs the real software pipeline (Stages 1–3,
//!    record-only) to obtain the
//!    [`RasterWorkload`](gaurast_render::RasterWorkload) with exact
//!    per-tile processed counts,
//! 3. the *same workload* bills the baseline CUDA model and the GauRast
//!    cycle simulator (every substrate bills through
//!    [`BackendKind::execute`], which takes the frame's one workload),
//! 4. extrapolate absolute numbers to paper scale by normalizing the
//!    measured blend work to the per-scene calibrated work constant —
//!    the same factor scales both systems, so every ratio (speedup,
//!    energy improvement, FPS gain) is scale-free.

use crate::backend::{BackendKind, FrameReport};
use crate::engine::EngineBuilder;
use gaurast_gpu::{device, CudaGpuModel};
use gaurast_hw::RasterizerConfig;
use gaurast_render::pipeline::RenderConfig;
use gaurast_scene::mini_splatting::{simplify, MiniSplatConfig};
use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};
use gaurast_scene::PreparedScene;
use gaurast_sched::EndToEnd;
use std::sync::Arc;

pub mod ablations;
pub mod area;
pub mod baseline;
pub mod competitors;
pub mod endtoend;
pub mod methodology;
pub mod pipelining;
pub mod primitives;
pub mod quality;
pub mod raster_perf;
pub mod sweep;

/// Which 3DGS pipeline variant a result refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The original 3DGS algorithm (Kerbl et al. 2023).
    Original,
    /// The efficiency-optimized pipeline (Mini-Splatting, Fang & Wang
    /// 2024), reproduced by the importance-based simplifier.
    MiniSplatting,
}

impl Algorithm {
    /// Display label matching the paper's wording.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Original => "original 3DGS",
            Algorithm::MiniSplatting => "efficiency-optimized",
        }
    }
}

/// Experiment-wide configuration.
#[derive(Clone, Debug)]
pub struct ExperimentContext {
    /// Scene scale for the simulation runs.
    pub scale: SceneScale,
    /// Camera orbit angles averaged per scene.
    pub angles: Vec<f32>,
    /// Software pipeline configuration.
    pub render: RenderConfig,
    /// Hardware configuration (the paper's scaled design by default).
    pub hw: RasterizerConfig,
    /// Baseline device model.
    pub baseline: CudaGpuModel,
}

impl ExperimentContext {
    /// The reproduction configuration: 1/64 Gaussians, 1/8 resolution per
    /// axis, two viewpoints per scene (used by the `repro` binary).
    pub fn repro() -> Self {
        Self {
            scale: SceneScale::REPRO,
            angles: vec![0.4, 2.5],
            render: RenderConfig::default(),
            hw: RasterizerConfig::scaled(),
            baseline: device::orin_nx(),
        }
    }

    /// A tiny configuration for unit tests (single viewpoint, minimal
    /// scenes).
    pub fn quick() -> Self {
        Self {
            scale: SceneScale::UNIT_TEST,
            angles: vec![0.4],
            render: RenderConfig::default(),
            hw: RasterizerConfig::scaled(),
            baseline: device::orin_nx(),
        }
    }
}

/// One scene's complete evaluation for one algorithm, with both sim-scale
/// measurements and paper-scale extrapolations.
#[derive(Clone, Debug)]
pub struct SceneEvaluation {
    /// The scene.
    pub scene: Nerf360Scene,
    /// The algorithm variant.
    pub algorithm: Algorithm,
    /// Measured blend work per frame at sim scale.
    pub sim_blend_work: f64,
    /// Measured (splat, tile) sort pairs at sim scale.
    pub sim_pairs: f64,
    /// Fraction of scene Gaussians visible after culling.
    pub visible_fraction: f64,
    /// Fraction of Gaussians kept by the algorithm (1.0 for the original).
    pub keep_fraction: f64,
    /// Mean processed tile-list length at sim scale.
    pub sim_mean_list: f64,
    /// GauRast frame time at sim scale, s.
    pub hw_time_sim_s: f64,
    /// GauRast PE utilization.
    pub hw_utilization: f64,
    /// GauRast average power (integrated into the SoC node), W.
    pub gaurast_power_w: f64,
    /// Paper-scale blend work per frame.
    pub paper_work: f64,
    /// Paper-scale (splat, tile) sort pairs per frame.
    pub paper_pairs: f64,
    /// Paper-scale CUDA rasterization time, s.
    pub raster_cuda_paper_s: f64,
    /// Paper-scale GauRast rasterization time, s.
    pub raster_gaurast_paper_s: f64,
    /// Paper-scale Stage-1 (preprocess) time, s.
    pub preprocess_paper_s: f64,
    /// Paper-scale Stage-2 (sort) time, s.
    pub sort_paper_s: f64,
    /// Baseline device power while rasterizing, W.
    pub baseline_power_w: f64,
}

impl SceneEvaluation {
    /// Paper-scale Stages 1–2 time, s.
    pub fn stages12_paper_s(&self) -> f64 {
        self.preprocess_paper_s + self.sort_paper_s
    }

    /// Rasterization speedup (Fig. 10 left axis, Table III ratio).
    pub fn raster_speedup(&self) -> f64 {
        self.raster_cuda_paper_s / self.raster_gaurast_paper_s
    }

    /// Rasterization energy-efficiency improvement (Fig. 10 right axis).
    pub fn energy_improvement(&self) -> f64 {
        (self.baseline_power_w * self.raster_cuda_paper_s)
            / (self.gaurast_power_w * self.raster_gaurast_paper_s)
    }

    /// Baseline end-to-end frame time (everything on CUDA, serial), s.
    pub fn baseline_total_s(&self) -> f64 {
        self.stages12_paper_s() + self.raster_cuda_paper_s
    }

    /// Baseline FPS (Fig. 4 / Fig. 11 "w/o GauRast").
    pub fn baseline_fps(&self) -> f64 {
        1.0 / self.baseline_total_s()
    }

    /// Stage-3 share of the baseline frame (Fig. 5).
    pub fn raster_share(&self) -> f64 {
        self.raster_cuda_paper_s / self.baseline_total_s()
    }

    /// The end-to-end schedule comparison for this scene.
    ///
    /// # Panics
    /// Panics if the evaluation produced non-positive times (cannot happen
    /// for valid scenes).
    pub fn end_to_end(&self) -> EndToEnd {
        EndToEnd::new(
            self.stages12_paper_s(),
            self.raster_cuda_paper_s,
            self.raster_gaurast_paper_s,
        )
        .expect("scene evaluation times are positive")
    }

    /// GauRast end-to-end FPS under the CUDA-collaborative schedule
    /// (Fig. 11 "w/ GauRast").
    pub fn gaurast_fps(&self) -> f64 {
        self.end_to_end().gaurast_fps()
    }
}

/// Runs one algorithm variant's prepared scene through an engine session
/// (enhanced backend, record-only) and accumulates the per-viewpoint
/// measurements. Taking the shared asset keeps the scene preparation a
/// one-time cost even when several experiments revisit the same scene.
fn run_session(
    scene: Arc<PreparedScene>,
    ctx: &ExperimentContext,
    desc: &gaurast_scene::nerf360::SceneDescriptor,
) -> Accum {
    let scene_len = scene.len();
    let mut engine = EngineBuilder::shared(scene)
        .backend(BackendKind::Enhanced)
        .tile_size(ctx.render.tile_size)
        .hw_config(ctx.hw)
        .host(ctx.baseline.clone())
        .build()
        .expect("experiment context configurations are valid");
    let mut acc = Accum::default();
    for &theta in &ctx.angles {
        let cam = desc
            .camera(ctx.scale, theta)
            .expect("descriptor camera is valid");
        let report = engine.render_frame(&cam);
        acc.add(&report, scene_len);
    }
    acc.finish(ctx.angles.len() as f64);
    acc
}

/// Evaluates one scene for both algorithms under a context.
pub fn evaluate_scene(
    scene: Nerf360Scene,
    ctx: &ExperimentContext,
) -> (SceneEvaluation, SceneEvaluation) {
    let desc = scene.descriptor();
    let full_scene = desc.synthesize(ctx.scale);
    let mini_scene = simplify(&full_scene, MiniSplatConfig::PAPER).expect("paper config is valid");
    let full_len = full_scene.len();
    let mini_len = mini_scene.len();

    let acc_orig = run_session(Arc::new(PreparedScene::prepare(full_scene)), ctx, &desc);
    let acc_mini = run_session(Arc::new(PreparedScene::prepare(mini_scene)), ctx, &desc);

    // Paper-scale work: both algorithms use the calibrated per-scene
    // constants (back-derived from Table III); the Mini-Splatting
    // fractions come from its published workload reduction.
    let paper_work_orig = desc.raster_work_per_frame;
    let paper_work_mini = paper_work_orig * desc.mini_work_fraction;
    let paper_pairs_orig = desc.sort_pairs_per_frame;
    let paper_pairs_mini = paper_pairs_orig * desc.mini_pairs_fraction;

    let tiles_paper = f64::from(
        desc.width.div_ceil(ctx.render.tile_size) * desc.height.div_ceil(ctx.render.tile_size),
    );
    let mk = |acc: &Accum, algorithm, paper_work: f64, pairs_paper: f64, keep_fraction: f64| {
        // CUDA occupancy is driven by the per-tile sorted-queue depth.
        let mean_len_paper = pairs_paper / tiles_paper;
        let raster_cuda = ctx
            .baseline
            .raster_time_for_work(paper_work, mean_len_paper);
        // The cycle simulator's time scales linearly with work at fixed
        // statistics (utilization is scale-invariant).
        let raster_gaurast = acc.hw_time * (paper_work / acc.blend_work.max(1.0));
        let visible_paper = desc.full_gaussians as f64 * keep_fraction * acc.visible_frac;
        SceneEvaluation {
            scene,
            algorithm,
            sim_blend_work: acc.blend_work,
            sim_pairs: acc.pairs,
            visible_fraction: acc.visible_frac,
            keep_fraction,
            sim_mean_list: acc.mean_list,
            hw_time_sim_s: acc.hw_time,
            hw_utilization: acc.utilization,
            gaurast_power_w: acc.power_w,
            paper_work,
            paper_pairs: pairs_paper,
            raster_cuda_paper_s: raster_cuda,
            raster_gaurast_paper_s: raster_gaurast,
            preprocess_paper_s: ctx.baseline.preprocess_time(visible_paper as u64),
            sort_paper_s: ctx.baseline.sort_time(pairs_paper as u64),
            baseline_power_w: ctx.baseline.raster_power_w,
        }
    };

    let keep_mini = mini_len as f64 / full_len.max(1) as f64;
    (
        mk(
            &acc_orig,
            Algorithm::Original,
            paper_work_orig,
            paper_pairs_orig,
            1.0,
        ),
        mk(
            &acc_mini,
            Algorithm::MiniSplatting,
            paper_work_mini,
            paper_pairs_mini,
            keep_mini,
        ),
    )
}

/// Accumulator over camera angles.
#[derive(Default)]
struct Accum {
    blend_work: f64,
    pairs: f64,
    visible_frac: f64,
    mean_list: f64,
    hw_time: f64,
    utilization: f64,
    power_w: f64,
}

impl Accum {
    fn add(&mut self, report: &FrameReport, scene_len: usize) {
        self.blend_work += report.stats.blend_work as f64;
        self.pairs += report.stats.pairs as f64;
        self.visible_frac += report.stats.visible as f64 / scene_len.max(1) as f64;
        self.mean_list += report.stats.mean_list;
        self.hw_time += report.time_s;
        self.utilization += report.stats.utilization;
        self.power_w += report.average_power_w();
    }

    fn finish(&mut self, n: f64) {
        self.blend_work /= n;
        self.pairs /= n;
        self.visible_frac /= n;
        self.mean_list /= n;
        self.hw_time /= n;
        self.utilization /= n;
        self.power_w /= n;
    }
}

/// Full evaluation of all seven scenes for both algorithms.
#[derive(Clone, Debug)]
pub struct EvaluationSet {
    /// Context used.
    pub ctx: ExperimentContext,
    /// Per-scene results, original algorithm, paper scene order.
    pub original: Vec<SceneEvaluation>,
    /// Per-scene results, efficiency-optimized algorithm.
    pub mini: Vec<SceneEvaluation>,
}

impl EvaluationSet {
    /// Runs the full evaluation (the expensive step every experiment
    /// shares).
    pub fn compute(ctx: ExperimentContext) -> Self {
        let mut original = Vec::with_capacity(7);
        let mut mini = Vec::with_capacity(7);
        for scene in Nerf360Scene::ALL {
            let (o, m) = evaluate_scene(scene, &ctx);
            original.push(o);
            mini.push(m);
        }
        Self {
            ctx,
            original,
            mini,
        }
    }

    /// Per-algorithm slice.
    pub fn for_algorithm(&self, a: Algorithm) -> &[SceneEvaluation] {
        match a {
            Algorithm::Original => &self.original,
            Algorithm::MiniSplatting => &self.mini,
        }
    }

    /// Arithmetic mean of a metric over scenes.
    pub fn mean(&self, a: Algorithm, f: impl Fn(&SceneEvaluation) -> f64) -> f64 {
        let evals = self.for_algorithm(a);
        evals.iter().map(f).sum::<f64>() / evals.len() as f64
    }
}

/// Cached quick-scale evaluation set shared by this crate's test modules
/// (computing it is the expensive step; every experiment test reads from
/// the same run).
#[cfg(test)]
pub(crate) fn quick_set() -> &'static EvaluationSet {
    use std::sync::OnceLock;
    static SET: OnceLock<EvaluationSet> = OnceLock::new();
    SET.get_or_init(|| EvaluationSet::compute(ExperimentContext::quick()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(set: &EvaluationSet, a: Algorithm, scene: Nerf360Scene) -> &SceneEvaluation {
        set.for_algorithm(a)
            .iter()
            .find(|e| e.scene == scene)
            .expect("all scenes evaluated")
    }

    #[test]
    fn quick_evaluation_has_sane_shape() {
        let set = quick_set();
        let orig = find(set, Algorithm::Original, Nerf360Scene::Bonsai);
        let mini = find(set, Algorithm::MiniSplatting, Nerf360Scene::Bonsai);
        assert!(orig.sim_blend_work > 0.0);
        assert!(
            orig.raster_speedup() > 10.0,
            "speedup {}",
            orig.raster_speedup()
        );
        assert!(orig.raster_share() > 0.7, "share {}", orig.raster_share());
        assert!(mini.paper_work < orig.paper_work);
        assert!(mini.keep_fraction < 0.25);
        assert!(orig.gaurast_fps() > orig.baseline_fps());
    }

    #[test]
    fn energy_improvement_exceeds_speedup_when_power_lower() {
        let set = quick_set();
        let orig = find(set, Algorithm::Original, Nerf360Scene::Counter);
        if orig.gaurast_power_w < orig.baseline_power_w {
            assert!(orig.energy_improvement() > orig.raster_speedup());
        } else {
            assert!(orig.energy_improvement() < orig.raster_speedup());
        }
    }

    #[test]
    fn mini_splatting_is_faster_end_to_end() {
        let set = quick_set();
        let orig = find(set, Algorithm::Original, Nerf360Scene::Room);
        let mini = find(set, Algorithm::MiniSplatting, Nerf360Scene::Room);
        assert!(mini.baseline_fps() > orig.baseline_fps());
        assert!(mini.gaurast_fps() > orig.gaurast_fps());
    }

    #[test]
    fn utilization_is_representative_at_quick_scale() {
        // The quick scale must keep all 15 instances busy, otherwise every
        // extrapolated ratio would be meaningless.
        let set = quick_set();
        for e in &set.original {
            assert!(
                e.hw_utilization > 0.5,
                "{}: util {}",
                e.scene,
                e.hw_utilization
            );
        }
    }
}
