//! The traced run's instruments: in-memory spans, and a replay of the
//! engine's reference-pass call sequence (visibility, Stage 1, Stage 2,
//! Stage 3, backend model) through each layer's public functions, timed
//! from outside around every call.
//!
//! The replay must reproduce the frame the program reported bit for bit
//! (see [`Replayed::facts`]); that is what ties the per-layer split to the
//! real `render_frame` path rather than to a side entry point.

use crate::check::{image_digest, FrameFacts};
use gaurast::backend::BackendKind;
use gaurast::gpu::{device, CudaGpuModel};
use gaurast::hw::power::PowerModel;
use gaurast::hw::{EnhancedRasterizer, RasterizerConfig};
use gaurast::render::pipeline::Stage2Mode;
use gaurast::render::preprocess::preprocess_prepared_visible_pooled_level;
use gaurast::render::rasterize::rasterize_with_level;
use gaurast::render::{FrameArena, Framebuffer, SimdLevel, WorkerPool, DEFAULT_TILE_SIZE};
use gaurast::scene::{Camera, PreparedScene, VisibilityCache};
use gaurast_gscore::{GscoreAccelerator, GscoreConfig};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// One timed call. Spans of one frame share `frame`; a batch span carries
/// the id of its first frame and the number of frames it returned.
#[derive(Clone, Debug)]
pub struct Span {
    pub frame: u64,
    pub frames: u32,
    pub layer: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span store, written out once when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span from `start_ns` to now and returns its duration in
    /// ms.
    pub fn close(
        &mut self,
        frame: u64,
        frames: u32,
        layer: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
    ) -> f64 {
        let span = Span {
            frame,
            frames,
            layer,
            parent,
            start_ns,
            end_ns: self.now_ns(),
        };
        let ms = span.ms();
        self.spans.push(span);
        ms
    }

    /// Runs `f` inside a one-frame span and returns its result and
    /// duration in ms.
    pub fn span<T>(
        &mut self,
        frame: u64,
        layer: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now_ns();
        let out = f();
        (out, self.close(frame, 1, layer, parent, start))
    }

    /// Durations (ms) of every span of `layer`.
    pub fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"frame\": {}, \"frames\": {}, \"layer\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.frame,
                s.frames,
                s.layer,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Parent name of every replay span.
const REPLAY: &str = "replay";

/// Workload shape of one replayed frame.
#[derive(Clone, Copy, Debug, Default)]
pub struct Shape {
    pub splats: u64,
    /// Σ per-tile processed counts: the pairs Stage 3 actually read.
    pub processed: u64,
    pub tiles: u64,
    pub tiles_early_terminated: u64,
}

/// The three modeled backends' results for one workload (simulated,
/// exact).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Models {
    pub hw_s: f64,
    pub hw_utilization: f64,
    pub gscore_s: f64,
    pub gpu_s: f64,
}

/// What replaying one frame produced.
#[derive(Clone, Copy, Debug)]
pub struct Replayed {
    /// The facts the frame's backend would report; must equal the real
    /// report's.
    pub facts: FrameFacts,
    pub shape: Shape,
    /// All three models' results, when asked for.
    pub models: Option<Models>,
    /// Σ of this frame's replay layer spans, ms.
    pub layers_ms: f64,
    /// Wall time of the whole replay, bookkeeping included, ms.
    pub wall_ms: f64,
}

/// A private copy of one session's reference-pass state: pool of the
/// session's width, Stage-2 arena, visible-set cache, SIMD level and the
/// backend models with the engine's default configurations.
#[derive(Debug)]
pub struct Replayer {
    pool: WorkerPool,
    arena: FrameArena,
    cache: Arc<VisibilityCache>,
    level: SimdLevel,
    hw: EnhancedRasterizer,
    power: PowerModel,
    gscore: GscoreAccelerator,
    gpu: CudaGpuModel,
}

impl Replayer {
    pub fn new(workers: usize, level: SimdLevel, cache: Arc<VisibilityCache>) -> Self {
        let hw_config = RasterizerConfig::scaled();
        Self {
            pool: WorkerPool::new(workers),
            arena: FrameArena::default(),
            cache,
            level,
            hw: EnhancedRasterizer::new(hw_config),
            power: PowerModel::integrated(hw_config),
            gscore: GscoreAccelerator::new(GscoreConfig::published()),
            gpu: device::orin_nx(),
        }
    }

    /// Replays one frame of `backend` on `camera`, recording a span per
    /// layer call under `frame`. With `all_models` the two models the
    /// frame's backend does not run are evaluated too (untimed).
    #[allow(clippy::too_many_arguments)]
    pub fn frame(
        &mut self,
        tracer: &mut Tracer,
        frame: u64,
        prepared: &PreparedScene,
        camera: &Camera,
        backend: BackendKind,
        retain: bool,
        all_models: bool,
    ) -> Replayed {
        let started = tracer.now_ns();
        let parent = Some(REPLAY);
        let ((visible, _hit), vis_ms) = tracer.span(frame, "scene.visibility", parent, || {
            self.cache.get_or_build(prepared, camera)
        });
        let (pre, pre_ms) = tracer.span(frame, "render.preprocess", parent, || {
            preprocess_prepared_visible_pooled_level(
                prepared, camera, &visible, &self.pool, self.level,
            )
        });
        let (splats, culled) = (pre.splats.len(), pre.culled);
        let (mut workload, bin_ms) = tracer.span(frame, "render.bin", parent, || {
            Stage2Mode::default().bin(
                pre.splats,
                camera.width(),
                camera.height(),
                DEFAULT_TILE_SIZE,
                &mut self.arena,
                &self.pool,
            )
        });
        let need_image = retain && backend != BackendKind::Enhanced;
        let ((raster, image), raster_ms) = tracer.span(frame, "render.rasterize", parent, || {
            let mut fb = need_image.then(|| Framebuffer::new(camera.width(), camera.height()));
            let stats = rasterize_with_level(&mut workload, fb.as_mut(), &self.pool, self.level);
            (stats, fb)
        });
        let mut image = image.as_ref().map(image_digest);

        // The frame's own backend call, timed.
        let (ops, model_bits, model_ms) = match backend {
            BackendKind::Software => (raster.pairs_evaluated, None, 0.0),
            BackendKind::Enhanced => {
                let (report, ms) = if retain {
                    let ((fb, report), ms) = tracer.span(frame, "hw.render", parent, || {
                        self.hw.render_gaussian(&workload)
                    });
                    image = Some(image_digest(&fb));
                    (report, ms)
                } else {
                    tracer.span(frame, "hw.simulate", parent, || {
                        self.hw.simulate_gaussian(&workload)
                    })
                };
                let energy = self.power.evaluate(&report).total_j();
                (report.pairs, Some((report.time_s, energy)), ms)
            }
            BackendKind::Cuda(_) => {
                let (t, ms) = tracer.span(frame, "gpu.raster_time", parent, || {
                    self.gpu.raster_time(&workload)
                });
                (
                    workload.blend_work(),
                    Some((t, self.gpu.raster_energy_j(t))),
                    ms,
                )
            }
            BackendKind::Gscore => {
                let (report, ms) = tracer.span(frame, "gscore.simulate", parent, || {
                    self.gscore.simulate(&workload)
                });
                (
                    report.refined.subtile_pixel_work,
                    Some((report.time_s, 0.0)),
                    ms,
                )
            }
        };
        let models = all_models.then(|| {
            let hw = self.hw.simulate_gaussian(&workload);
            Models {
                hw_s: hw.time_s,
                hw_utilization: hw.utilization,
                gscore_s: self.gscore.simulate(&workload).time_s,
                gpu_s: self.gpu.raster_time(&workload),
            }
        });

        let facts = FrameFacts {
            ops,
            pairs: workload.total_pairs(),
            blend_work: workload.blend_work(),
            blends_committed: raster.blends_committed,
            visible: splats,
            culled,
            model_bits: model_bits.map(|(t, e): (f64, f64)| (t.to_bits(), e.to_bits())),
            image,
        };
        let shape = Shape {
            splats: splats as u64,
            processed: workload.tiles().map(|t| u64::from(t.processed)).sum(),
            tiles: workload.tile_count() as u64,
            tiles_early_terminated: raster.tiles_early_terminated,
        };
        workload.recycle_into(&mut self.arena);
        Replayed {
            facts,
            shape,
            models,
            layers_ms: vis_ms + pre_ms + bin_ms + raster_ms + model_ms,
            wall_ms: tracer.close(frame, 1, REPLAY, None, started),
        }
    }
}
