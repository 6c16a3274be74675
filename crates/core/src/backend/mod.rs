//! The execution substrates and what they report per frame.
//!
//! The paper's evaluation is a *comparison* across execution substrates:
//! the software reference, the GauRast enhanced rasterizer, calibrated
//! CUDA baseline GPUs, and the GSCore accelerator. [`BackendKind`] names
//! them, and [`BackendKind::execute`] bills one finalized frame on one of
//! them and returns a [`FrameReport`], so experiments, examples, and the
//! [`Engine`](crate::engine::Engine) treat them interchangeably.
//!
//! All substrates bill exactly the same work: the engine runs Stages 1–2
//! and one reference Stage-3 pass per frame, producing a
//! [`RasterWorkload`] whose per-tile processed counts every substrate
//! consumes, so a speedup or energy ratio between two rows compares
//! identical work.

use gaurast_gscore::GscoreAccelerator;
use gaurast_hw::power::PowerModel;
use gaurast_hw::{EnhancedRasterizer, Precision, RasterizerConfig};
use gaurast_render::pipeline::PreprocessStats;
use gaurast_render::rasterize::RasterStats;
use gaurast_render::{Framebuffer, RasterWorkload};

/// Baseline GPU device preset for [`BackendKind::Cuda`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GpuPreset {
    /// NVIDIA Jetson Orin NX at 10 W — the paper's baseline edge SoC.
    OrinNx,
    /// NVIDIA Jetson Xavier NX — GSCore's host (§V-C).
    XavierNx,
    /// NVIDIA RTX A6000 — the ≥200 W desktop class of the introduction.
    RtxA6000,
    /// Apple M2 Pro running OpenSplat (§V-D).
    M2Pro,
}

impl GpuPreset {
    /// The calibrated analytical model of this device.
    pub fn model(self) -> gaurast_gpu::CudaGpuModel {
        use gaurast_gpu::device;
        match self {
            GpuPreset::OrinNx => device::orin_nx(),
            GpuPreset::XavierNx => device::xavier_nx(),
            GpuPreset::RtxA6000 => device::rtx_a6000(),
            GpuPreset::M2Pro => device::m2_pro(),
        }
    }
}

/// Which execution substrate a backend models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The software reference renderer (`gaurast_render`), timed on the
    /// host.
    Software,
    /// The GauRast enhanced rasterizer cycle model (`gaurast_hw`).
    Enhanced,
    /// A calibrated CUDA baseline GPU model (`gaurast_gpu`).
    Cuda(GpuPreset),
    /// The GSCore accelerator model (`gaurast_gscore`).
    Gscore,
}

impl BackendKind {
    /// Every comparable substrate, in the order the paper discusses them:
    /// software reference, CUDA baseline, GSCore, GauRast.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Software,
        BackendKind::Cuda(GpuPreset::OrinNx),
        BackendKind::Gscore,
        BackendKind::Enhanced,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Software => "software",
            BackendKind::Enhanced => "gaurast",
            BackendKind::Cuda(GpuPreset::OrinNx) => "cuda-orin-nx",
            BackendKind::Cuda(GpuPreset::XavierNx) => "cuda-xavier-nx",
            BackendKind::Cuda(GpuPreset::RtxA6000) => "cuda-rtx-a6000",
            BackendKind::Cuda(GpuPreset::M2Pro) => "cuda-m2-pro",
            BackendKind::Gscore => "gscore",
        }
    }

    /// Bills one finalized frame on this substrate: the `workload` with
    /// its processed counts recorded and the engine's `reference` pass
    /// over it. `hw_config` configures the enhanced rasterizer and is
    /// ignored by every other kind.
    ///
    /// Every report's `image` is `None` except a retained FP16 Enhanced
    /// frame's, which the PE datapath renders; the engine attaches the
    /// reference image to every other retained row, since that is what
    /// their modeled kernels compute (at FP32 the PE datapath's image bit
    /// for bit, which tests check against
    /// [`EnhancedRasterizer::render_gaussian`]). Time, energy, ops and
    /// utilization come from the same timing model either way.
    ///
    /// # Panics
    /// Panics for [`BackendKind::Enhanced`] when `hw_config` is invalid;
    /// use [`RasterizerConfig::validate`] to check first.
    pub fn execute(
        self,
        hw_config: RasterizerConfig,
        workload: &RasterWorkload,
        reference: &ReferencePass,
        retain_image: bool,
    ) -> FrameReport {
        let mut image = None;
        let mut utilization = 0.0;
        let (time_s, energy_j, ops) = match self {
            // The reference pass *is* the software substrate's execution:
            // its measured host wall-clock time. Host CPU energy is not
            // modeled.
            BackendKind::Software => (reference.wall_s, 0.0, reference.raster.pairs_evaluated),
            BackendKind::Enhanced => {
                let hw = EnhancedRasterizer::new(hw_config);
                let report = if retain_image && hw_config.precision != Precision::Fp32 {
                    let (pe_image, report) = hw.render_gaussian(workload);
                    image = Some(pe_image);
                    report
                } else {
                    hw.simulate_gaussian(workload)
                };
                utilization = report.utilization;
                let energy_j = PowerModel::integrated(hw_config)
                    .evaluate(&report)
                    .total_j();
                (report.time_s, energy_j, report.pairs)
            }
            // Stage 3 only, like every other kind; the session's host
            // model bills Stages 1–2.
            BackendKind::Cuda(preset) => {
                let model = preset.model();
                let time_s = model.raster_time(workload);
                (time_s, model.raster_energy_j(time_s), workload.blend_work())
            }
            // GSCore publishes no power model.
            BackendKind::Gscore => {
                let report = GscoreAccelerator::default().simulate(workload);
                (report.time_s, 0.0, report.refined.subtile_pixel_work)
            }
        };
        let preprocess = &reference.preprocess;
        FrameReport {
            kind: self,
            image,
            time_s,
            energy_j,
            ops,
            stats: FrameStats {
                blend_work: workload.blend_work(),
                pairs: workload.total_pairs(),
                mean_list: gaurast_gpu::mean_processed_len(workload),
                visible: preprocess.visible,
                culled: preprocess.culled,
                blends_committed: reference.raster.blends_committed,
                sort_s: reference.sort_wall_s,
                culled_non_finite: preprocess.non_finite,
                cull: CullStats::default(),
                utilization,
            },
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The per-frame product of the engine's reference pass, shared by every
/// backend executing that frame.
#[derive(Clone, Debug)]
pub struct ReferencePass {
    /// Stage-1 statistics of the frame.
    pub preprocess: PreprocessStats,
    /// Reference Stage-3 statistics (pairs, blends, FP-op tallies).
    pub raster: RasterStats,
    /// Host wall-clock seconds the reference Stage-3 pass took.
    pub wall_s: f64,
    /// Host wall-clock seconds Stage 2 took (depth sort + counting scatter
    /// into the CSR workload).
    pub sort_wall_s: f64,
    /// The reference image, present whenever the session retains images.
    /// [`BackendKind::execute`] leaves it in place; the engine moves it
    /// into the report afterwards (no per-frame framebuffer clone) unless
    /// the row rendered its own, which only an FP16 enhanced rasterizer
    /// does.
    pub image: Option<Framebuffer>,
}

/// The field the benchmark harness reads for its cache hit rate. Stage 1
/// runs over the whole scene and nothing is cached, so `cache_hit` is
/// always `false`. Kept for that harness until ROADMAP item 4b.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CullStats {
    /// Always `false`: no frame looks anything up in a cache.
    pub cache_hit: bool,
}

/// Frame statistics common to every backend, all filled by
/// [`BackendKind::execute`]. Every field but `utilization` comes from the
/// workload and the reference pass, so it is the same on every substrate
/// billing one frame.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FrameStats {
    /// Total Gaussian-pixel blend operations billed (`W`).
    pub blend_work: u64,
    /// (splat, tile) pairs — the Stage-2 sort workload.
    pub pairs: u64,
    /// Mean processed tile-list length over non-empty tiles.
    pub mean_list: f64,
    /// Gaussians surviving culling in Stage 1.
    pub visible: usize,
    /// Gaussians culled in Stage 1.
    pub culled: usize,
    /// Blends the reference pass committed (identical across backends).
    pub blends_committed: u64,
    /// Host wall-clock seconds of the reference pass's Stage 2 — the
    /// depth sort + counting scatter split out from the frame (the
    /// modeled device-side Stage-2 cost lives in the host model's
    /// radix-sort estimate, [`gaurast_gpu::CudaGpuModel::sort_time`]).
    pub sort_s: f64,
    /// Of `culled`, Gaussians dropped for a non-finite projection
    /// (overflowed covariance).
    pub culled_non_finite: usize,
    /// Always `CullStats { cache_hit: false }`; kept for the benchmark
    /// harness until ROADMAP item 4b.
    pub cull: CullStats,
    /// Execution-unit utilization, when the backend models one (0 for
    /// analytical backends).
    pub utilization: f64,
}

/// What one backend reports for one executed frame.
#[derive(Clone, Debug)]
pub struct FrameReport {
    /// Which substrate executed.
    pub kind: BackendKind,
    /// The rendered image, when requested and available. Every backend
    /// reports the reference pass's image, which is what its modeled
    /// kernels compute; for the enhanced rasterizer at FP32 that is the
    /// PE datapath's image bit for bit, which tests check against
    /// [`EnhancedRasterizer::render_gaussian`](gaurast_hw::EnhancedRasterizer::render_gaussian).
    /// An FP16 enhanced rasterizer reports the image its PE datapath
    /// renders.
    pub image: Option<Framebuffer>,
    /// Stage-3 (rasterization) time on this substrate, seconds.
    pub time_s: f64,
    /// Stage-3 energy on this substrate, joules. Zero for substrates
    /// without a power model (software host, GSCore's published envelope).
    pub energy_j: f64,
    /// Primitive-pixel operations this substrate issued for the frame (the
    /// backend-specific work measure: evaluated pairs for software, issued
    /// PE pairs for the enhanced rasterizer, billed blends for CUDA,
    /// subtile-refined work for GSCore).
    pub ops: u64,
    /// Common frame statistics.
    pub stats: FrameStats,
}

impl FrameReport {
    /// Frames per second this substrate's rasterization rate alone would
    /// sustain (0 for a zero-time frame, e.g. an empty workload).
    pub fn raster_fps(&self) -> f64 {
        if self.time_s > 0.0 {
            1.0 / self.time_s
        } else {
            0.0
        }
    }

    /// Average power over the frame, W (0 when no energy was modeled).
    pub fn average_power_w(&self) -> f64 {
        if self.time_s > 0.0 {
            self.energy_j / self.time_s
        } else {
            0.0
        }
    }
}
