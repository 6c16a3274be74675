//! End-to-end orchestration of the three-stage 3DGS pipeline.
//!
//! [`run_frame`] is the one frame driver: it runs Stage 1
//! (preprocessing), then Stage 2 and the reference Stage-3 pass fused into
//! saturation-aware rounds ([`bin_and_rasterize_chunked`]) over a
//! caller-held [`WorkerPool`] and [`FrameArena`], and reports each stage
//! boundary to the caller. Engine sessions and the free functions here
//! ([`render`], [`render_with_pool`], [`render_record_only`],
//! [`build_workload`]) all render through it.

use crate::framebuffer::Framebuffer;
use crate::ops::OpCounts;
use crate::pool::WorkerPool;
use crate::preprocess::{preprocess_pooled_level, PreprocessOutput, Splat2D};
use crate::rasterize::{RasterStats, Stage3};
use crate::simd::{detected_level, SimdLevel};
use crate::tile::{bin_splats_pooled, Binning, BIN_CHUNK};
use crate::workload::{FrameArena, RasterWorkload};
use crate::DEFAULT_TILE_SIZE;
use gaurast_scene::{Camera, GaussianScene};

/// Stage 2 as a method: [`Stage2Mode::bin`] forwards to
/// [`bin_splats_pooled`], Stage 2 in one scatter round (the frame driver
/// runs the same placement and scatter code in saturation-aware rounds).
/// The type exists for `perfbench/src/trace.rs`, whose traced replay calls
/// `Stage2Mode::default().bin(..)`; everything else calls
/// [`bin_splats_pooled`] directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stage2Mode;

impl Stage2Mode {
    /// Runs Stage 2 out of `arena` ([`bin_splats_pooled`]).
    pub fn bin(
        self,
        splats: Vec<crate::Splat2D>,
        width: u32,
        height: u32,
        tile_size: u32,
        arena: &mut FrameArena,
        pool: &WorkerPool,
    ) -> RasterWorkload {
        bin_splats_pooled(splats, width, height, tile_size, arena, pool)
    }
}

/// Pipeline configuration of the free render functions. Their Stage 1 and
/// Stage 3 run at the host's widest SIMD level
/// ([`crate::simd::detected_level`]); a caller that wants another level
/// names it in a [`run_frame`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RenderConfig {
    /// Tile edge in pixels (16 in the reference and in GauRast).
    pub tile_size: u32,
    /// Intra-frame worker threads: Stage 1 runs in Gaussian chunks,
    /// Stage 2's splat pass in chunks of the splat order and each scatter
    /// round's count and scatter in chunks of the depth order (the rounds'
    /// key ordering and the placement prefixes run on the calling thread),
    /// and Stage 3 as per-tile jobs over a pool this wide. `0` (the
    /// default) resolves to the `GAURAST_WORKERS` environment variable or
    /// the machine's available parallelism
    /// ([`crate::pool::resolve_workers`]); `1` is exactly the historical
    /// serial path. Output is bit-identical for every value.
    pub workers: usize,
}

impl Default for RenderConfig {
    fn default() -> Self {
        Self {
            tile_size: DEFAULT_TILE_SIZE,
            workers: 0,
        }
    }
}

impl RenderConfig {
    /// The worker pool this configuration selects (see
    /// [`RenderConfig::workers`]).
    pub fn worker_pool(&self) -> WorkerPool {
        WorkerPool::new(self.workers)
    }

    /// A configuration identical to this one but with an explicit worker
    /// count.
    pub fn with_workers(self, workers: usize) -> Self {
        Self { workers, ..self }
    }
}

/// Everything one frame produces: the image, the workload (with processed
/// counts filled in), and per-stage statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct RenderOutput {
    /// Rendered image.
    pub image: Framebuffer,
    /// The Stage-1/2 product consumed by the architecture models.
    pub workload: RasterWorkload,
    /// Stage-1 statistics (culling, FP ops).
    pub preprocess: PreprocessStats,
    /// Stage-3 statistics (pairs, blends, per-subtask ops).
    pub raster: RasterStats,
}

/// Stage-1 summary retained in [`RenderOutput`] (the splats themselves live
/// in the workload).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PreprocessStats {
    /// Gaussians surviving culling.
    pub visible: usize,
    /// Gaussians culled.
    pub culled: usize,
    /// Of `culled`, Gaussians dropped for a non-finite projection
    /// (overflowed covariance) — see
    /// [`PreprocessOutput::culled_non_finite`].
    pub non_finite: usize,
    /// FP operations spent in Stage 1.
    pub ops: OpCounts,
}

impl From<&PreprocessOutput> for PreprocessStats {
    fn from(p: &PreprocessOutput) -> Self {
        Self {
            visible: p.splats.len(),
            culled: p.culled,
            non_finite: p.culled_non_finite,
            ops: p.ops,
        }
    }
}

/// Everything [`run_frame`] produces apart from the image: the workload
/// with processed counts filled in, plus per-stage statistics —
/// [`RenderOutput`] minus the image.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadOutput {
    /// The Stage-1/2 product consumed by the architecture models, with the
    /// reference pass's processed counts recorded.
    pub workload: RasterWorkload,
    /// Stage-1 statistics (culling, FP ops).
    pub preprocess: PreprocessStats,
    /// Stage-3 statistics (pairs, blends, per-subtask ops).
    pub raster: RasterStats,
}

/// One of the three stages [`run_frame`] runs, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1: Gaussians projected to screen-space splats.
    Preprocess,
    /// Stage 2's splat pass: splats keyed and given their rectangles, the
    /// pairs totalled per tile and the CSR offsets laid out. Nothing is
    /// depth-ordered yet.
    Bin,
    /// Stage 2's scatter rounds, each ordering, counting, placing and
    /// scattering its keys, and the reference rasterization pass they
    /// feed.
    Rasterize,
}

/// Runs one frame: Stage 1 over every Gaussian of `scene`, reading the
/// world covariances it stores, then Stage 2 and the reference
/// Stage-3 pass out of `arena` in saturation-aware rounds
/// ([`bin_and_rasterize_chunked`] with [`BIN_CHUNK`]), fanned over
/// `pool`. Stages 1 and 3 run the kernels of SIMD `level`, clamped to
/// [`detected_level`] (every level renders the same bits;
/// [`SimdLevel::Scalar`] is the reference). The pass writes pixels only
/// when `image` is given; processed counts and statistics come from the
/// same tile jobs either way, so record-only and imaged frames agree bit
/// for bit. The workload holds each tile's processed prefix and full list
/// length, and equals what [`bin_splats_pooled`] followed by
/// [`crate::rasterize::rasterize_with_level`] leave.
///
/// `on_stage_done` is called after each stage, in order. [`Stage::Bin`]
/// fires once Stage 2's splat pass has laid out the CSR offsets, before
/// the first round, so a caller timing stages sees the rounds — each one's
/// key ordering, count, placement and scatter — in Stage 3's time: the
/// engine's `stats.sort_s` includes neither the depth ordering nor the
/// scatter, and the Software backend's `time_s` includes both. The driver
/// reads no clock: a caller that times stages reads one in the closure,
/// which keeps wall-clock time out of this deterministic crate.
///
/// Over a persistent pool, frames spawn no threads; once `arena` is warm
/// Stages 2 and 3 allocate nothing (Stage 3's tile jobs and their pixel
/// planes stay in the arena, and the image is written once, from the
/// jobs), provided each workload goes back through
/// [`RasterWorkload::recycle_into`].
///
/// # Panics
/// Panics when `tile_size` is zero or when `image` does not match the
/// camera's dimensions.
#[allow(clippy::too_many_arguments)]
// gaurast-check: hot-path
pub fn run_frame(
    scene: &GaussianScene,
    camera: &Camera,
    tile_size: u32,
    level: SimdLevel,
    pool: &WorkerPool,
    arena: &mut FrameArena,
    image: Option<&mut Framebuffer>,
    mut on_stage_done: impl FnMut(Stage),
) -> WorkloadOutput {
    let pre = preprocess_pooled_level(scene, camera, pool, level);
    let preprocess = PreprocessStats::from(&pre);
    on_stage_done(Stage::Preprocess);
    let (workload, raster) = bin_and_rasterize_chunked(
        pre.splats,
        (camera.width(), camera.height(), tile_size),
        level,
        pool,
        arena,
        image,
        BIN_CHUNK,
        || on_stage_done(Stage::Bin),
    );
    on_stage_done(Stage::Rasterize);
    WorkloadOutput {
        workload,
        preprocess,
        raster,
    }
}

/// Stages 2 and 3 of [`run_frame`] over `splats` on a `width × height`
/// image of `tile_size` tiles, in `chunk`-splat chunks of the depth order.
///
/// Stage 2's splat pass keys the splats, totals their pairs per tile and
/// lays out the CSR offsets, as [`crate::tile::bin_splats_chunked`] does;
/// then `on_placed` runs. The depth order is then scattered in rounds of
/// 1, 2, 4, … chunks. Each round first depth-orders only its own keys (a
/// selection of the nearest keys not yet sorted, then a sort of those),
/// counts and places its chunks, and writes only into tiles that have not
/// saturated; after it the resumable Stage 3 carries every tile that is
/// not done through the entries written so far, its pixel state held in
/// its job in `arena` between rounds. The rounds stop once no tile waits
/// for entries, and the end of the frame writes `image`. So Stage 3 does
/// exactly the work of one pass over the whole lists, keys no round
/// reaches are never sorted, and the scatter writes at most every pair:
/// all of them, in ⌈log2(chunks + 1)⌉ rounds, only when no tile
/// saturates.
///
/// The workload, image, processed counts and statistics equal those of
/// [`crate::tile::bin_splats_chunked`] followed by
/// [`crate::rasterize::rasterize_with_level`] at any width, level and
/// chunk size. Production passes [`BIN_CHUNK`]; the parameter lets tests
/// and the `gaurast-check` model suite run several rounds on a handful of
/// splats.
///
/// # Panics
/// Panics when `tile_size` or `chunk` is zero, the image is empty, `image`
/// does not match it, or the frame has more than `u32::MAX` pairs.
#[allow(clippy::too_many_arguments)]
// gaurast-check: hot-path
pub fn bin_and_rasterize_chunked(
    splats: Vec<Splat2D>,
    (width, height, tile_size): (u32, u32, u32),
    level: SimdLevel,
    pool: &WorkerPool,
    arena: &mut FrameArena,
    image: Option<&mut Framebuffer>,
    chunk: usize,
    on_placed: impl FnOnce(),
) -> (RasterWorkload, RasterStats) {
    let mut bins = Binning::place(splats, width, height, tile_size, arena, pool, chunk);
    on_placed();
    let jobs = std::mem::take(&mut arena.jobs);
    let mut stage3 = Stage3::new((width, height, tile_size), &bins.offsets, jobs, level);
    let (mut first, mut size) = (0, 1);
    loop {
        let end = (first + size).min(bins.chunks);
        bins.scatter(first..end, pool);
        let last = end == bins.chunks;
        let filled = bins.filled_ends();
        stage3.resume(
            &bins.splats,
            &bins.values,
            &bins.offsets,
            filled,
            last,
            pool,
        );
        if !stage3.flag_saturated(&mut bins.saturated) || last {
            break;
        }
        (first, size) = (end, 2 * size);
    }
    let mut processed = std::mem::take(&mut arena.processed);
    let (raster, jobs) = stage3.end_frame(image, &mut processed);
    arena.jobs = jobs;
    (bins.into_workload(arena, processed), raster)
}

/// Runs Stages 1–3 for one frame.
///
/// # Example
/// ```
/// use gaurast_render::pipeline::{render, RenderConfig};
/// use gaurast_scene::generator::SceneParams;
/// use gaurast_scene::Camera;
/// use gaurast_math::Vec3;
///
/// let scene = SceneParams::new(200).generate()?;
/// let cam = Camera::look_at(Vec3::new(0.0, 5.0, -25.0), Vec3::zero(),
///                           Vec3::new(0.0, 1.0, 0.0), 64, 64, 1.0)?;
/// let out = render(&scene, &cam, &RenderConfig::default());
/// assert!(out.workload.blend_work() > 0);
/// # Ok::<(), gaurast_scene::SceneError>(())
/// ```
pub fn render(scene: &GaussianScene, camera: &Camera, config: &RenderConfig) -> RenderOutput {
    render_with_pool(
        scene,
        camera,
        config,
        &mut FrameArena::new(),
        &config.worker_pool(),
    )
}

/// [`render`] with a caller-held [`FrameArena`] and persistent
/// [`WorkerPool`] — the form for loops over many frames. `pool` sets the
/// width (`config.workers` is not consulted). Steady-state frames spawn no
/// threads, and recycling each workload back into the arena
/// ([`RasterWorkload::recycle_into`]) keeps the Stage-2 data path
/// allocation-free.
pub fn render_with_pool(
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
    arena: &mut FrameArena,
    pool: &WorkerPool,
) -> RenderOutput {
    let mut image = Framebuffer::new(camera.width(), camera.height());
    let out = run_frame(
        scene,
        camera,
        config.tile_size,
        detected_level(),
        pool,
        arena,
        Some(&mut image),
        |_| {},
    );
    RenderOutput {
        image,
        workload: out.workload,
        preprocess: out.preprocess,
        raster: out.raster,
    }
}

/// Runs Stages 1–3 in record-only mode: the reference Stage-3 pass fills
/// the per-tile processed counts and statistics, but no framebuffer is
/// allocated or written. This is the entry point for workload construction
/// when the image would be discarded (the architecture-model path).
///
/// Record-only frames run the *same* driver as [`render`] — the only
/// difference is that Stage 3 gets no framebuffer — so all counts stay
/// bit-identical with the imaging path at every worker count.
pub fn render_record_only(
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
) -> WorkloadOutput {
    run_frame(
        scene,
        camera,
        config.tile_size,
        detected_level(),
        &config.worker_pool(),
        &mut FrameArena::new(),
        None,
        |_| {},
    )
}

/// Builds only the workload (Stages 1–2 plus a record-only reference
/// Stage-3 pass for the processed counts) — the common entry point for the
/// architecture models. Unlike a full [`render`], no framebuffer is
/// allocated or filled.
pub fn build_workload(
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
) -> RasterWorkload {
    render_record_only(scene, camera, config).workload
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::Vec3;
    use gaurast_scene::generator::SceneParams;
    use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};

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

    #[test]
    fn full_frame_has_work_and_coverage() {
        let scene = SceneParams::new(3000).seed(11).generate().unwrap();
        let out = render(&scene, &camera(128, 96), &RenderConfig::default());
        assert!(out.preprocess.visible > 100);
        assert!(out.workload.blend_work() > 0);
        assert!(
            out.image.coverage() > 0.05,
            "coverage {}",
            out.image.coverage()
        );
        assert!(out.raster.blends_committed > 0);
    }

    #[test]
    fn nerf360_scene_renders() {
        let desc = Nerf360Scene::Bonsai.descriptor();
        let scene = desc.synthesize(SceneScale::UNIT_TEST);
        let cam = desc.camera(SceneScale::UNIT_TEST, 0.3).unwrap();
        let out = render(&scene, &cam, &RenderConfig::default());
        assert!(out.image.coverage() > 0.01);
        assert!(out.workload.total_pairs() > 0);
    }

    #[test]
    fn tile_size_changes_grid_not_image() {
        let scene = SceneParams::new(500).generate().unwrap();
        let cam = camera(64, 64);
        let a = render(
            &scene,
            &cam,
            &RenderConfig {
                tile_size: 16,
                ..RenderConfig::default()
            },
        );
        let b = render(
            &scene,
            &cam,
            &RenderConfig {
                tile_size: 8,
                ..RenderConfig::default()
            },
        );
        assert_eq!(a.workload.tile_count(), 16);
        assert_eq!(b.workload.tile_count(), 64);
        // Rendered images agree except for tile-level early-termination
        // differences, which only suppress invisible (saturated) tails.
        assert!(a.image.mean_abs_diff(&b.image) < 1e-3);
    }

    #[test]
    fn build_workload_matches_render() {
        let scene = SceneParams::new(400).generate().unwrap();
        let cam = camera(64, 64);
        let cfg = RenderConfig::default();
        let w = build_workload(&scene, &cam, &cfg);
        let out = render(&scene, &cam, &cfg);
        assert_eq!(w.blend_work(), out.workload.blend_work());
    }

    #[test]
    fn mini_splatting_reduces_blend_work() {
        let scene = SceneParams::new(4000).seed(3).generate().unwrap();
        let simplified = gaurast_scene::mini_splatting::simplify(
            &scene,
            gaurast_scene::mini_splatting::MiniSplatConfig::PAPER,
        )
        .unwrap();
        let cam = camera(128, 128);
        let cfg = RenderConfig::default();
        let full = build_workload(&scene, &cam, &cfg);
        let mini = build_workload(&simplified, &cam, &cfg);
        let ratio = mini.blend_work() as f64 / full.blend_work() as f64;
        assert!(ratio < 0.7, "mini-splatting work ratio {ratio}");
        assert!(ratio > 0.02);
    }
}
