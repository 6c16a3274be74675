//! The session-based rendering engine — the workspace's unified entry
//! point over every execution substrate.
//!
//! An [`Engine`] owns a scene, a selected [`BackendKind`], and a
//! per-session [`FrameArena`] whose Stage-2 and Stage-3 buffers are
//! recycled across frames instead of reallocated (a retained image gets
//! a fresh framebuffer each frame, which moves into the report). Every
//! entry point bills a frame the same way: one reference pass (Stages
//! 1–2 and a reference Stage 3, record-only unless images are retained),
//! then [`BackendKind::execute`] of the finalized workload for each
//! requested kind, then the reference image attached to the rows that
//! serve it:
//!
//! * [`Engine::render_frame`] — one camera, one [`FrameReport`] on the
//!   session's kind;
//! * [`Engine::render_sequence`] — a camera path replayed through the
//!   CUDA-collaborative two-stage pipeline
//!   ([`gaurast_sched::sequence::replay`]), reporting throughput and
//!   frame pacing;
//! * [`Engine::compare`] — the same frame executed on several substrates
//!   for one-call cross-backend evaluation, returning the shared workload;
//! * [`Engine::render_shared`] — the same, for serving: one report per
//!   requested backend, each equal to [`Engine::render_frame`] on a
//!   session of that kind, with the Stage-2 buffers recycled (the
//!   `RenderService` batch path).
//!
//! Build one with [`EngineBuilder`]:
//!
//! ```
//! use gaurast::engine::EngineBuilder;
//! use gaurast::backend::BackendKind;
//! use gaurast::scene::generator::SceneParams;
//! use gaurast::scene::Camera;
//! use gaurast_math::Vec3;
//!
//! let scene = SceneParams::new(300).seed(5).generate()?;
//! let cam = Camera::look_at(Vec3::new(0.0, 5.0, -25.0), Vec3::zero(),
//!                           Vec3::new(0.0, 1.0, 0.0), 64, 64, 1.0)?;
//! let mut engine = EngineBuilder::new(scene)
//!     .backend(BackendKind::Enhanced)
//!     .build()?;
//! let report = engine.render_frame(&cam);
//! assert!(report.time_s > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod builder;

pub use builder::EngineBuilder;

use crate::backend::{BackendKind, FrameReport, ReferencePass};
use crate::report::{fmt_f, fmt_ms, TextTable};
use gaurast_gpu::CudaGpuModel;
use gaurast_hw::RasterizerConfig;
use gaurast_render::pipeline::run_frame;
use gaurast_render::pool::WorkerPool;
use gaurast_render::{FrameArena, Framebuffer, RasterWorkload, SimdLevel, VectorMode};
use gaurast_scene::{Camera, GaussianScene};
use gaurast_sched::{replay, FrameCost, SequenceReport};
use std::sync::Arc;
use std::time::Instant;

/// Error raised by engine construction or sequence rendering.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineError(pub(crate) String);

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine error: {}", self.0)
    }
}

impl std::error::Error for EngineError {}

/// Whether rendered images are kept in frame reports or dropped after the
/// statistics are recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ImagePolicy {
    /// Record statistics only; the reference pass runs in no-image mode
    /// and reports carry `image: None`. The default, and the fast path for
    /// architecture studies.
    #[default]
    Discard,
    /// Keep images: the reference pass renders into a fresh framebuffer
    /// that moves into the report, so every report carries an image.
    Retain,
}

/// Floor applied to modeled stage times before pipeline replay, which
/// rejects non-positive costs (an empty frame still occupies the units for
/// a scheduling instant).
const MIN_STAGE_S: f64 = 1e-12;

/// The result of [`Engine::render_sequence`]: per-frame backend reports
/// plus the pipelined schedule they produce.
#[derive(Clone, Debug)]
pub struct SequenceOutcome {
    /// Per-frame backend reports, in camera order.
    pub reports: Vec<FrameReport>,
    /// Per-frame stage costs fed to the pipeline (Stages 1–2 on the host
    /// device model, Stage 3 on the backend).
    pub costs: Vec<FrameCost>,
    /// The replayed CUDA-collaborative schedule (throughput, latency,
    /// pacing percentiles).
    pub schedule: SequenceReport,
}

impl SequenceOutcome {
    /// Average pipelined throughput over the sequence, frames per second.
    pub fn throughput_fps(&self) -> f64 {
        self.schedule.throughput_fps()
    }
}

/// The result of [`Engine::compare`]: the same finalized workload executed
/// on several substrates.
#[derive(Clone, Debug)]
pub struct ComparisonReport {
    /// One report per requested backend, in request order.
    pub rows: Vec<FrameReport>,
    /// The shared workload every row billed (kept for downstream
    /// analysis, e.g. GSCore workload refinement).
    pub workload: RasterWorkload,
}

impl ComparisonReport {
    /// The report of a given backend kind, if it was requested.
    pub fn get(&self, kind: BackendKind) -> Option<&FrameReport> {
        self.rows.iter().find(|r| r.kind == kind)
    }

    /// Rasterization speedup of `target` over `baseline`
    /// (`time(baseline) / time(target)`), when both were requested.
    pub fn speedup(&self, baseline: BackendKind, target: BackendKind) -> Option<f64> {
        let (b, t) = (self.get(baseline)?.time_s, self.get(target)?.time_s);
        (b > 0.0 && t > 0.0).then(|| b / t)
    }
}

impl std::fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cross-backend comparison (identical workload per row)")?;
        let mut t = TextTable::new(vec!["backend", "time ms", "fps", "energy mJ", "ops"]);
        for r in &self.rows {
            t.row(vec![
                r.kind.label().to_string(),
                fmt_ms(r.time_s),
                fmt_f(r.raster_fps(), 1),
                fmt_f(r.energy_j * 1e3, 3),
                r.ops.to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

/// A rendering session over one shared scene and one selected backend
/// kind. See the [module docs](self) for the full picture and
/// [`EngineBuilder`] for construction.
///
/// The scene is held as an `Arc<`[`GaussianScene`]`>`: sessions never copy
/// it, and it carries its world covariances, so spawning one session per
/// worker thread is cheap. `Clone` gives a fresh session (zero frames,
/// fresh arena) over the same shared scene and configuration.
#[derive(Debug)]
pub struct Engine {
    pub(crate) scene: Arc<GaussianScene>,
    pub(crate) tile_size: u32,
    /// Requested intra-frame worker count (0 = auto); `pool` is the
    /// resolved policy actually used.
    pub(crate) workers: usize,
    pub(crate) image_policy: ImagePolicy,
    pub(crate) hw_config: RasterizerConfig,
    pub(crate) host: CudaGpuModel,
    pub(crate) kind: BackendKind,
    /// Requested vector data path for the reference pass (output is
    /// bit-identical at every level — see [`VectorMode`]).
    pub(crate) vector_mode: VectorMode,
    /// `vector_mode` resolved against the host CPU once at session
    /// construction; every reference-pass stage dispatches on this.
    level: SimdLevel,
    pool: WorkerPool,
    /// The Stage-2 and Stage-3 buffers (CSR, processed counts, Stage 3's
    /// tile jobs with their pixel planes), handed to each frame; the
    /// workload's buffers come back with [`RasterWorkload::recycle_into`],
    /// so steady-state frames run Stages 2 and 3 without allocating.
    arena: FrameArena,
    frames: u64,
}

impl Clone for Engine {
    /// A fresh session over the same shared scene and configuration: the
    /// `Arc<GaussianScene>` is shared (no scene copy), and the frame
    /// counter, frame arena and worker pool start fresh.
    fn clone(&self) -> Self {
        Self::from_parts(
            Arc::clone(&self.scene),
            self.tile_size,
            self.workers,
            self.image_policy,
            self.hw_config,
            self.host.clone(),
            self.kind,
            self.vector_mode,
        )
    }
}

impl Engine {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        scene: Arc<GaussianScene>,
        tile_size: u32,
        workers: usize,
        image_policy: ImagePolicy,
        hw_config: RasterizerConfig,
        host: CudaGpuModel,
        kind: BackendKind,
        vector_mode: VectorMode,
    ) -> Self {
        Self {
            scene,
            tile_size,
            workers,
            image_policy,
            hw_config,
            host,
            kind,
            vector_mode,
            level: vector_mode.resolve(),
            pool: WorkerPool::new(workers),
            arena: FrameArena::new(),
            frames: 0,
        }
    }

    /// The scene this session renders.
    pub fn scene(&self) -> &GaussianScene {
        &self.scene
    }

    /// The shared scene this session renders. Clone the `Arc` to open
    /// further sessions over the identical scene (e.g. via
    /// [`EngineBuilder::shared`]).
    pub fn prepared(&self) -> &Arc<GaussianScene> {
        &self.scene
    }

    /// The selected backend kind.
    pub fn backend_kind(&self) -> BackendKind {
        self.kind
    }

    /// Tile edge in pixels.
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Intra-frame worker threads the reference pass fans Stage-1 chunks
    /// and per-tile Stage-2+3 jobs across (the resolved count; see
    /// [`EngineBuilder::workers`]). Results are bit-identical for every
    /// width.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Frames rendered so far in this session.
    pub fn frames_rendered(&self) -> u64 {
        self.frames
    }

    /// The requested vector data path for the reference pass (see
    /// [`EngineBuilder::vector_mode`]). Frames are bit-identical either
    /// way; only wall-clock time differs.
    pub fn vector_mode(&self) -> VectorMode {
        self.vector_mode
    }

    /// The concrete SIMD kernel set the reference pass runs — the
    /// session's [`Self::vector_mode`] resolved against the host CPU once
    /// at construction.
    pub fn simd_level(&self) -> SimdLevel {
        self.level
    }

    /// Switches the session to another backend, keeping the scene and
    /// frame arena. The frame counter continues.
    pub fn switch_backend(&mut self, kind: BackendKind) {
        self.kind = kind;
    }

    /// Replaces the enhanced-rasterizer hardware configuration (for
    /// design-space sweeps over one session).
    ///
    /// # Errors
    /// Returns [`EngineError`] when the configuration is invalid; the
    /// session keeps its previous configuration in that case.
    pub fn set_hw_config(&mut self, config: RasterizerConfig) -> Result<(), EngineError> {
        config
            .validate()
            .map_err(|e| EngineError(format!("invalid hardware configuration: {e}")))?;
        self.hw_config = config;
        Ok(())
    }

    /// Whether the session's reports carry images.
    fn retains_images(&self) -> bool {
        self.image_policy == ImagePolicy::Retain
    }

    /// Runs one frame through the render crate's frame driver
    /// ([`run_frame`]): Stage 1 over every Gaussian of the scene
    /// (it culls by depth and screen bounds itself), then Stage 2 into
    /// recycled session buffers and the reference Stage-3 pass
    /// (record-only unless images are retained) in saturation-aware
    /// scatter rounds, producing the finalized workload every backend
    /// bills. The Stage-2 clock stops after the splat pass and the CSR
    /// offsets; each round's depth ordering, count and scatter fall in
    /// the Stage-3 clock, which times them with the pass. When the session retains
    /// images the pass renders the reference image, and every backend but
    /// an FP16 enhanced rasterizer serves it. At FP32 the enhanced
    /// rasterizer's PE datapath computes the same bits; tests prove it by
    /// calling
    /// [`EnhancedRasterizer::render_gaussian`](gaurast_hw::EnhancedRasterizer::render_gaussian)
    /// directly. Every frame runs exactly one reference pass, so this is
    /// where the session counts frames.
    fn reference_pass(&mut self, camera: &Camera) -> (RasterWorkload, ReferencePass) {
        // The buffer moves into the reference pass (and from there into
        // the report) instead of being cloned every frame.
        let mut image = self
            .retains_images()
            .then(|| Framebuffer::new(camera.width(), camera.height()));
        // gaurast-check: allow(nondet): wall-clock stage timing. The
        // measured durations are reported *alongside* the frame, never fed
        // back into it — the image is a pure function of scene + camera.
        let mut stage_done = [Instant::now(); 3];
        let frame = run_frame(
            &self.scene,
            camera,
            self.tile_size,
            self.level,
            &self.pool,
            &mut self.arena,
            image.as_mut(),
            // gaurast-check: allow(nondet): the same output-independent
            // stage clock, read at each stage boundary.
            |stage| stage_done[stage as usize] = Instant::now(),
        );
        let [stage1_done, stage2_done, stage3_done] = stage_done;
        self.frames += 1;
        (
            frame.workload,
            ReferencePass {
                preprocess: frame.preprocess,
                raster: frame.raster,
                wall_s: (stage3_done - stage2_done).as_secs_f64().max(MIN_STAGE_S),
                sort_wall_s: (stage2_done - stage1_done).as_secs_f64().max(MIN_STAGE_S),
                image,
            },
        )
    }

    /// Stages 1–2 time on the session's host device model for a billed
    /// frame — what stays on the CUDA cores under the collaborative
    /// schedule.
    fn stages12_s(&self, report: &FrameReport) -> f64 {
        self.host.preprocess_time(report.stats.visible as u64)
            + self.host.sort_time(report.stats.pairs)
    }

    /// Renders one frame on the session's backend kind.
    pub fn render_frame(&mut self, camera: &Camera) -> FrameReport {
        let (workload, reference) = self.reference_pass(camera);
        let mut report =
            self.kind
                .execute(self.hw_config, &workload, &reference, self.retains_images());
        attach_reference_image(std::slice::from_mut(&mut report), reference.image);
        // Recycle the Stage-2 buffers (CSR, processed counts) for the next
        // frame.
        workload.recycle_into(&mut self.arena);
        report
    }

    /// Renders a camera sequence and replays it through the
    /// CUDA-collaborative two-stage pipeline: frame `i+1`'s Stages 1–2 run
    /// on the host device while frame `i`'s Stage 3 runs on the backend.
    /// Steady-state throughput therefore approaches
    /// `1 / max(t12, t3)` — exactly a
    /// [`PipelineSchedule`](gaurast_sched::PipelineSchedule) built from the
    /// same stage times.
    pub fn render_sequence(&mut self, cameras: &[Camera]) -> SequenceOutcome {
        let mut reports = Vec::with_capacity(cameras.len());
        let mut costs = Vec::with_capacity(cameras.len());
        for camera in cameras {
            let report = self.render_frame(camera);
            costs.push(FrameCost {
                stages12_s: self.stages12_s(&report).max(MIN_STAGE_S),
                stage3_s: report.time_s.max(MIN_STAGE_S),
            });
            reports.push(report);
        }
        let schedule = replay(&costs);
        SequenceOutcome {
            reports,
            costs,
            schedule,
        }
    }

    /// Executes the same frame on several substrates — one reference pass,
    /// one workload, one report per requested backend. The session's own
    /// kind is untouched.
    ///
    /// The finalized workload moves into the returned report (for
    /// downstream analysis), so its CSR and processed-count buffers leave
    /// the session and the frame after a `compare` re-seeds them once;
    /// Stage 3's tile jobs stay in the session arena. It holds what every
    /// backend bills: each tile's processed prefix and full list length
    /// (the frame's scatter rounds never write a saturated tile's tail).
    pub fn compare(&mut self, camera: &Camera, kinds: &[BackendKind]) -> ComparisonReport {
        let (rows, workload) = self.shared_pass(camera, kinds);
        ComparisonReport { rows, workload }
    }

    /// Renders one frame for several backends from one reference pass: one
    /// report per requested kind, in request order, each equal to what
    /// [`Engine::render_frame`] reports on a session of that kind (images
    /// bit-identical; the software backend's `time_s` is measured
    /// wall-clock time). As with [`Engine::compare`], the session's own
    /// kind is untouched and the frame counts once; unlike it, the Stage-2
    /// buffers return to the session arena for the next frame.
    pub fn render_shared(&mut self, camera: &Camera, kinds: &[BackendKind]) -> Vec<FrameReport> {
        let (rows, workload) = self.shared_pass(camera, kinds);
        workload.recycle_into(&mut self.arena);
        rows
    }

    /// One reference pass executed on every requested kind: the reports
    /// and the workload they billed.
    fn shared_pass(
        &mut self,
        camera: &Camera,
        kinds: &[BackendKind],
    ) -> (Vec<FrameReport>, RasterWorkload) {
        let (workload, reference) = self.reference_pass(camera);
        let mut rows: Vec<FrameReport> = kinds
            .iter()
            .map(|kind| kind.execute(self.hw_config, &workload, &reference, self.retains_images()))
            .collect();
        attach_reference_image(&mut rows, reference.image);
        (rows, workload)
    }
}

/// Attaches the reference image to every row that did not render its own
/// (all but an FP16 enhanced rasterizer's): clones for all but the last
/// such row, which takes the buffer, so one row costs no clone. A session
/// that discards images has no reference image, and its rows stay
/// image-less.
fn attach_reference_image(rows: &mut [FrameReport], mut image: Option<Framebuffer>) {
    let last = rows.iter().rposition(|r| r.image.is_none());
    for (i, row) in rows.iter_mut().enumerate() {
        if row.image.is_none() {
            row.image = if Some(i) == last {
                image.take()
            } else {
                image.clone()
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GpuPreset;
    use gaurast_math::Vec3;
    use gaurast_scene::generator::SceneParams;

    fn camera(w: u32, h: u32) -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 6.0, -28.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            w,
            h,
            1.05,
        )
        .unwrap()
    }

    fn engine(kind: BackendKind, policy: ImagePolicy) -> Engine {
        let scene = SceneParams::new(800).seed(21).generate().unwrap();
        EngineBuilder::new(scene)
            .backend(kind)
            .image_policy(policy)
            .build()
            .unwrap()
    }

    #[test]
    fn frame_reports_have_consistent_stats() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let r = e.render_frame(&camera(96, 64));
        assert!(r.time_s > 0.0 && r.energy_j > 0.0);
        assert!(r.stats.blend_work > 0 && r.stats.pairs > 0);
        assert!(r.stats.visible > 0);
        assert!(r.stats.utilization > 0.0 && r.stats.utilization <= 1.0);
        // The frame carries the measured Stage-2 wall split.
        assert!(r.stats.sort_s > 0.0);
        assert!(r.image.is_none(), "discard policy must drop images");
        assert_eq!(e.frames_rendered(), 1);
    }

    #[test]
    fn retained_images_match_across_software_and_enhanced() {
        let mut e = engine(BackendKind::Software, ImagePolicy::Retain);
        let cam = camera(64, 64);
        let sw = e.render_frame(&cam);
        e.switch_backend(BackendKind::Enhanced);
        let hw = e.render_frame(&cam);
        let (sw_img, hw_img) = (sw.image.unwrap(), hw.image.unwrap());
        assert_eq!(
            sw_img.mean_abs_diff(&hw_img),
            0.0,
            "the served FP32 image is the reference image"
        );
        // The served row is the reference image itself; the datapath claim
        // needs the PE render of the frame's workload.
        let cmp = e.compare(&cam, &[BackendKind::Enhanced]);
        let (pe_img, _) =
            gaurast_hw::EnhancedRasterizer::new(e.hw_config).render_gaussian(&cmp.workload);
        assert_eq!(sw_img.mean_abs_diff(&pe_img), 0.0, "FP32 must be bit-exact");
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let cam = camera(64, 64);
        let a = e.render_frame(&cam);
        let b = e.render_frame(&cam);
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.stats.blend_work, b.stats.blend_work);
        assert_eq!(e.frames_rendered(), 2);
    }

    #[test]
    fn compare_covers_all_kinds() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let report = e.compare(&camera(64, 64), &BackendKind::ALL);
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            assert!(row.time_s > 0.0, "{}: zero time", row.kind);
            assert_eq!(row.stats.blend_work, report.rows[0].stats.blend_work);
        }
        let speedup = report
            .speedup(BackendKind::Cuda(GpuPreset::OrinNx), BackendKind::Enhanced)
            .unwrap();
        assert!(speedup > 1.0, "gaurast must beat the edge GPU ({speedup})");
        assert!(report.to_string().contains("gscore"));
    }

    #[test]
    fn sequence_reaches_pipeline_steady_state() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let cams: Vec<Camera> = vec![camera(64, 64); 12];
        let out = e.render_sequence(&cams);
        assert_eq!(out.reports.len(), 12);
        let last = out.costs.last().unwrap();
        let schedule =
            gaurast_sched::PipelineSchedule::new(last.stages12_s, last.stage3_s).unwrap();
        let fps = out.throughput_fps();
        // Uniform costs: replayed throughput converges to the analytic
        // steady state (small deviation from the fill cycle).
        let steady = schedule.steady_state_fps();
        assert!(
            (fps - steady).abs() / steady < 0.15,
            "sequence {fps} vs steady-state {steady}"
        );
    }

    #[test]
    fn hw_config_sweep_over_one_session() {
        use gaurast_hw::RasterizerConfig;
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let cam = camera(96, 64);
        e.set_hw_config(RasterizerConfig::prototype()).unwrap();
        let slow = e.render_frame(&cam).time_s;
        e.set_hw_config(RasterizerConfig::scaled()).unwrap();
        let fast = e.render_frame(&cam).time_s;
        assert!(fast < slow, "15 modules must beat 1 ({fast} vs {slow})");
        let bad = RasterizerConfig {
            modules: 0,
            ..RasterizerConfig::prototype()
        };
        assert!(e.set_hw_config(bad).is_err());
    }

    #[test]
    fn invalid_hw_config_preserves_backend_and_config() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let cam = camera(64, 64);
        let before = e.render_frame(&cam);
        let config_before = e.hw_config;
        let bad = RasterizerConfig {
            modules: 0,
            ..RasterizerConfig::scaled()
        };
        assert!(e.set_hw_config(bad).is_err());
        // The rejected configuration must leave the session untouched:
        // same config, same backend, same results.
        assert_eq!(e.hw_config, config_before);
        assert_eq!(e.backend_kind(), BackendKind::Enhanced);
        let after = e.render_frame(&cam);
        assert_eq!(after.time_s, before.time_s);
        assert_eq!(after.stats.blend_work, before.stats.blend_work);
    }

    #[test]
    fn switch_backend_keeps_scene_config_and_frame_counter() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let cam = camera(64, 64);
        let hw = e.render_frame(&cam);
        let config = e.hw_config;
        e.switch_backend(BackendKind::Software);
        assert_eq!(e.backend_kind(), BackendKind::Software);
        assert_eq!(e.hw_config, config, "hw config survives the switch");
        let sw = e.render_frame(&cam);
        assert_eq!(sw.stats.blend_work, hw.stats.blend_work);
        assert_eq!(e.frames_rendered(), 2, "counter continues across switch");
        e.switch_backend(BackendKind::Enhanced);
        let back = e.render_frame(&cam);
        assert_eq!(back.time_s, hw.time_s, "round trip is lossless");
    }

    #[test]
    fn cloned_session_is_fresh_but_shares_the_scene() {
        let e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let mut clone = e.clone();
        assert!(Arc::ptr_eq(e.prepared(), clone.prepared()));
        assert_eq!(clone.frames_rendered(), 0);
        assert_eq!(clone.backend_kind(), e.backend_kind());
        let r = clone.render_frame(&camera(64, 64));
        assert!(r.stats.blend_work > 0);
        assert_eq!(e.frames_rendered(), 0, "original session untouched");
    }

    #[test]
    fn parallel_session_is_bit_identical_to_serial() {
        let scene = SceneParams::new(900).seed(4).generate().unwrap();
        let mut serial = EngineBuilder::new(scene)
            .backend(BackendKind::Software)
            .image_policy(ImagePolicy::Retain)
            .workers(1)
            .build()
            .unwrap();
        let mut parallel = EngineBuilder::shared(Arc::clone(serial.prepared()))
            .backend(BackendKind::Software)
            .image_policy(ImagePolicy::Retain)
            .workers(4)
            .build()
            .unwrap();
        let cam = camera(96, 64);
        let a = serial.render_frame(&cam);
        let b = parallel.render_frame(&cam);
        assert_eq!(serial.workers(), 1);
        assert_eq!(parallel.workers(), 4);
        assert_eq!(
            a.image.unwrap().mean_abs_diff(&b.image.unwrap()),
            0.0,
            "parallel reference pass must be bit-identical"
        );
        assert_eq!(a.stats.blend_work, b.stats.blend_work);
        assert_eq!(a.stats.blends_committed, b.stats.blends_committed);
        assert_eq!(a.stats.visible, b.stats.visible);
        assert_eq!(a.stats.culled, b.stats.culled);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn workers_knob_is_resolved_and_cloned() {
        let scene = SceneParams::new(100).seed(9).generate().unwrap();
        let e = EngineBuilder::new(scene).workers(3).build().unwrap();
        assert_eq!(e.workers(), 3);
        assert_eq!(e.clone().workers(), 3, "clone keeps the worker policy");
    }

    #[test]
    fn vector_modes_are_bit_identical_at_the_engine_level() {
        let scene = SceneParams::new(1200).seed(17).generate().unwrap();
        let mut scalar = EngineBuilder::new(scene)
            .backend(BackendKind::Software)
            .image_policy(ImagePolicy::Retain)
            .vector_mode(VectorMode::Scalar)
            .build()
            .unwrap();
        let mut auto = EngineBuilder::shared(Arc::clone(scalar.prepared()))
            .backend(BackendKind::Software)
            .image_policy(ImagePolicy::Retain)
            .vector_mode(VectorMode::Auto)
            .build()
            .unwrap();
        for (e, mode) in [(&scalar, VectorMode::Scalar), (&auto, VectorMode::Auto)] {
            assert_eq!(e.vector_mode(), mode);
            assert_eq!(e.clone().vector_mode(), mode, "clone keeps the mode");
            assert_eq!(e.simd_level(), mode.resolve());
        }
        assert_eq!(scalar.simd_level(), SimdLevel::Scalar);
        let cam = camera(96, 64);
        let a = scalar.render_frame(&cam);
        let b = auto.render_frame(&cam);
        assert_eq!(
            a.image
                .as_ref()
                .unwrap()
                .mean_abs_diff(b.image.as_ref().unwrap()),
            0.0,
            "vectorized frame must be bit-identical"
        );
        assert_eq!(a.ops, b.ops, "op tallies");
        assert_eq!(a.stats.visible, b.stats.visible);
        assert_eq!(a.stats.culled, b.stats.culled);
        assert_eq!(a.stats.blend_work, b.stats.blend_work);
        assert_eq!(a.stats.blends_committed, b.stats.blends_committed);
    }

    /// Pins Stage 1's cull and op accounting on an off-center frame at the
    /// scene's edge, where many of the 99 culls are by depth or off-image.
    /// The values are those the removed visible-set path reported; it
    /// dropped 22 of these culls by depth and 35 laterally before Stage 1
    /// and billed them back.
    #[test]
    fn off_center_frame_pins_stage1_accounting() {
        let scene = SceneParams::new(1500).seed(31).generate().unwrap();
        let mut e = EngineBuilder::new(scene)
            .backend(BackendKind::Software)
            .image_policy(ImagePolicy::Retain)
            .build()
            .unwrap();
        let cam = Camera::look_at(
            Vec3::new(22.0, 5.0, -20.0),
            Vec3::new(12.0, 0.0, -2.0),
            Vec3::new(0.0, 1.0, 0.0),
            96,
            64,
            1.05,
        )
        .unwrap();
        let r = e.render_frame(&cam);
        let s = r.stats;
        assert_eq!((s.visible, s.culled, s.culled_non_finite), (1401, 99, 0));
        assert_eq!(
            (s.pairs, s.blend_work, s.blends_committed, r.ops),
            (6683, 703_232, 286_558, 466_138)
        );
        let full = run_frame(
            e.scene(),
            &cam,
            e.tile_size(),
            SimdLevel::Scalar,
            &WorkerPool::serial(),
            &mut FrameArena::new(),
            None,
            |_| {},
        );
        let stage1 = gaurast_render::ops::OpCounts {
            add: 115_838,
            mul: 189_045,
            div: 2956,
            exp: 0,
            cmp: 12_994,
        };
        assert_eq!(full.preprocess.ops, stage1);
    }

    #[test]
    fn empty_sequence_is_harmless() {
        let mut e = engine(BackendKind::Software, ImagePolicy::Discard);
        let out = e.render_sequence(&[]);
        assert!(out.reports.is_empty());
        assert_eq!(out.schedule.throughput_fps(), 0.0);
    }
}
