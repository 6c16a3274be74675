//! The GauRast enhanced rasterizer as a backend.

use super::{Backend, BackendKind, Frame, FrameReport, FrameStats};
use gaurast_hw::power::PowerModel;
use gaurast_hw::{EnhancedRasterizer, Precision, RasterizerConfig};

/// Executes frames on the cycle-accurate GauRast model
/// ([`gaurast_hw::EnhancedRasterizer`]) with its activity-based power
/// model.
///
/// At FP32 the PE datapath computes the reference image bit for bit
/// (§V-A), so this backend reports no image of its own and the engine
/// attaches the reference pass's image, as it does for every other
/// backend. Tests prove that identity by calling
/// [`EnhancedRasterizer::render_gaussian`] directly instead of every
/// served frame recomputing it. An FP16 configuration renders its
/// retained images through the PE datapath, whose rounding differs.
#[derive(Clone, Debug)]
pub struct EnhancedRasterizerBackend {
    hw: EnhancedRasterizer,
    power: PowerModel,
}

impl EnhancedRasterizerBackend {
    /// Backend on the given hardware configuration, with the
    /// integrated-SoC power model the scene-level results use.
    ///
    /// # Panics
    /// Panics when the configuration is invalid; use
    /// [`RasterizerConfig::validate`] to check first.
    pub fn new(config: RasterizerConfig) -> Self {
        Self {
            hw: EnhancedRasterizer::new(config),
            power: PowerModel::integrated(config),
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &RasterizerConfig {
        self.hw.config()
    }
}

impl Backend for EnhancedRasterizerBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Enhanced
    }

    fn name(&self) -> String {
        let c = self.config();
        format!(
            "gaurast enhanced rasterizer ({} modules x {} PEs, {:?})",
            c.modules, c.pes_per_module, c.precision
        )
    }

    /// Bills the frame on the cycle model. Only a retained FP16 frame runs
    /// the functional PE render and reports its image; otherwise the
    /// report carries `image: None` and the engine attaches the reference
    /// image. Time, energy, ops and utilization come from the same timing
    /// report either way.
    fn execute(&mut self, frame: Frame<'_>) -> FrameReport {
        let (image, report) = if frame.retain_image && self.config().precision != Precision::Fp32 {
            let (img, rep) = self.hw.render_gaussian(frame.workload);
            (Some(img), rep)
        } else {
            (None, self.hw.simulate_gaussian(frame.workload))
        };
        let energy_j = self.power.evaluate(&report).total_j();
        FrameReport {
            kind: self.kind(),
            image,
            time_s: report.time_s,
            energy_j,
            ops: report.pairs,
            stats: FrameStats {
                utilization: report.utilization,
                ..FrameStats::default()
            },
        }
    }
}
