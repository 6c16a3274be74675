//! End-to-end orchestration of the three-stage 3DGS pipeline.
//!
//! [`run_frame`] is the one frame driver: it runs Stage 1
//! (preprocessing), Stage 2 ([`bin_splats_pooled`]) and the reference
//! Stage-3 pass over a caller-held [`WorkerPool`] and [`FrameArena`], and
//! reports each stage boundary to the caller. Engine sessions and the free
//! functions here ([`render`], [`render_with_pool`],
//! [`render_record_only`], [`build_workload`]) all render through it.

use crate::framebuffer::Framebuffer;
use crate::ops::OpCounts;
use crate::pool::WorkerPool;
use crate::preprocess::{
    preprocess_pooled_level, preprocess_prepared_pooled_level, PreprocessOutput,
};
use crate::rasterize::{rasterize_with_level, RasterStats};
use crate::simd::{detected_level, SimdLevel};
use crate::tile::bin_splats_pooled;
use crate::workload::{FrameArena, RasterWorkload};
use crate::DEFAULT_TILE_SIZE;
use gaurast_scene::{Camera, GaussianScene, PreparedScene};

/// Stage 2 as a method: [`Stage2Mode::bin`] forwards to
/// [`bin_splats_pooled`], the one Stage 2. The type exists for
/// `perfbench/src/trace.rs`, whose traced replay calls
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
    /// Stage 2's splat pass in chunks of the splat order and its count
    /// and scatter in chunks of the depth order, and
    /// Stage 3 as per-tile jobs over a pool this wide. `0` (the default) resolves to the
    /// `GAURAST_WORKERS` environment variable or the machine's available
    /// parallelism ([`crate::pool::resolve_workers`]); `1` is exactly the
    /// historical serial path. Output is bit-identical for every value.
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

/// Where one frame's Stage 1 reads its Gaussians from. Stage 1 runs over
/// every Gaussian of the scene either way, and both inputs render
/// bit-identical frames for the same scene and camera.
#[derive(Clone, Copy, Debug)]
pub enum Stage1Input<'a> {
    /// A raw scene: Stage 1 builds each Gaussian's world covariance from
    /// its rotation and scale, so nothing is prepared up front.
    Raw(&'a GaussianScene),
    /// A prepared scene: Stage 1 reads its precomputed covariances.
    Prepared(&'a PreparedScene),
}

/// One of the three stages [`run_frame`] runs, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1: Gaussians projected to screen-space splats.
    Preprocess,
    /// Stage 2: splats binned to tiles and depth-sorted into the CSR
    /// workload.
    Bin,
    /// Stage 3: the reference rasterization pass.
    Rasterize,
}

/// Runs one frame: Stage 1 over `input`, Stage 2 out of `arena`, then the
/// reference Stage-3 pass, fanned over `pool`. Stages 1 and 3 run the
/// kernels of SIMD `level`, clamped to [`detected_level`] (every level
/// renders the same bits; [`SimdLevel::Scalar`] is the reference). The
/// pass writes pixels only when `image` is given; processed counts and
/// statistics come from the same tile jobs either way, so record-only and
/// imaged frames agree bit for bit.
///
/// `on_stage_done` is called after each stage, in order. The driver reads
/// no clock: a caller that times stages reads one in the closure, which
/// keeps wall-clock time out of this deterministic crate.
///
/// Over a persistent pool, frames spawn no threads; once `arena` is warm
/// the Stage-2 data path allocates nothing, provided each workload goes
/// back through [`RasterWorkload::recycle_into`].
///
/// # Panics
/// Panics when `tile_size` is zero or when `image` does not match the
/// camera's dimensions.
#[allow(clippy::too_many_arguments)]
// gaurast-check: hot-path
pub fn run_frame(
    input: Stage1Input<'_>,
    camera: &Camera,
    tile_size: u32,
    level: SimdLevel,
    pool: &WorkerPool,
    arena: &mut FrameArena,
    image: Option<&mut Framebuffer>,
    mut on_stage_done: impl FnMut(Stage),
) -> WorkloadOutput {
    let pre = match input {
        Stage1Input::Raw(scene) => preprocess_pooled_level(scene, camera, pool, level),
        Stage1Input::Prepared(prepared) => {
            preprocess_prepared_pooled_level(prepared, camera, pool, level)
        }
    };
    let preprocess = PreprocessStats::from(&pre);
    on_stage_done(Stage::Preprocess);
    let mut workload = bin_splats_pooled(
        pre.splats,
        camera.width(),
        camera.height(),
        tile_size,
        arena,
        pool,
    );
    on_stage_done(Stage::Bin);
    let raster = rasterize_with_level(&mut workload, image, pool, level);
    on_stage_done(Stage::Rasterize);
    WorkloadOutput {
        workload,
        preprocess,
        raster,
    }
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
        Stage1Input::Raw(scene),
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
        Stage1Input::Raw(scene),
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
