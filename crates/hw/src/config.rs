//! Hardware configuration of the enhanced rasterizer.

use std::fmt;

/// Numeric precision of the PE datapath.
///
/// The synthesized prototype uses FP32 (result-consistent with the software
/// reference); §V-C re-implements the datapath in FP16 for the GSCore
/// comparison.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE 754 binary32 — bit-exact with the software pipeline.
    #[default]
    Fp32,
    /// IEEE 754 binary16 — every intermediate rounded through half.
    Fp16,
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Precision::Fp32 => "fp32",
            Precision::Fp16 => "fp16",
        })
    }
}

/// Configuration of one enhanced-rasterizer module and its replication.
///
/// The paper's two design points are provided as constructors:
/// [`RasterizerConfig::prototype`] (the synthesized 16-PE module) and
/// [`RasterizerConfig::scaled`] (15 instances of it, matching the area of
/// the Orin NX's triangle-raster hardware).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RasterizerConfig {
    /// PEs per rasterizer module (16 in the prototype).
    pub pes_per_module: u32,
    /// Number of rasterizer module instances operating on distinct tiles.
    pub modules: u32,
    /// Clock frequency in Hz (1 GHz, 28 nm typical corner, 0.9 V).
    pub clock_hz: f64,
    /// Datapath precision.
    pub precision: Precision,
    /// Ping-pong (double-buffered) tile buffers; `false` is the
    /// single-buffer ablation, which exposes the tile loads double
    /// buffering hides behind compute.
    pub ping_pong: bool,
    /// Input gating of mode-mismatched units (`false` is the power
    /// ablation).
    pub input_gating: bool,
    /// Memory-interface words (FP values) transferred per cycle per module
    /// when filling a tile buffer.
    pub bus_words_per_cycle: u32,
    /// Extra pipeline-fill/drain cycles charged once per tile.
    pub pipeline_latency: u32,
}

impl RasterizerConfig {
    /// The synthesized 16-PE prototype (§V-A).
    pub fn prototype() -> Self {
        Self {
            pes_per_module: 16,
            modules: 1,
            clock_hz: 1.0e9,
            precision: Precision::Fp32,
            ping_pong: true,
            input_gating: true,
            bus_words_per_cycle: 16,
            pipeline_latency: 24,
        }
    }

    /// The scaled simulation target: 15 instances of the 16-PE module,
    /// area-matched to the baseline SoC's triangle rasterizer units (§V-A,
    /// "Simulator Setup").
    ///
    /// Note: the paper states this totals "300 PEs", but 15 × 16 = 240; we
    /// follow the structurally explicit reading (15 instances of the 16-PE
    /// module). All calibration constants in this workspace are derived for
    /// 240 PEs, which only rescales absolute times, not any speedup ratio.
    pub fn scaled() -> Self {
        Self {
            modules: 15,
            ..Self::prototype()
        }
    }

    /// Total PEs across all module instances.
    pub fn total_pes(&self) -> u32 {
        self.pes_per_module * self.modules
    }

    /// Peak Gaussian-pixel blend throughput (pairs per second): one pair
    /// per PE per cycle, fully pipelined.
    pub fn peak_pairs_per_second(&self) -> f64 {
        f64::from(self.total_pes()) * self.clock_hz
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.pes_per_module == 0 {
            return Err("pes_per_module must be positive".into());
        }
        if self.modules == 0 {
            return Err("modules must be positive".into());
        }
        if !self.clock_hz.is_finite() || self.clock_hz <= 0.0 {
            return Err(format!("clock must be positive, got {}", self.clock_hz));
        }
        if self.bus_words_per_cycle == 0 {
            return Err("bus width must be positive".into());
        }
        Ok(())
    }
}

impl Default for RasterizerConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_paper() {
        let c = RasterizerConfig::prototype();
        assert_eq!(c.total_pes(), 16);
        assert_eq!(c.clock_hz, 1.0e9);
        assert_eq!(c.precision, Precision::Fp32);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaled_is_15_modules_of_16_pes() {
        let c = RasterizerConfig::scaled();
        assert_eq!(c.modules, 15);
        assert_eq!(c.total_pes(), 240);
        assert_eq!(c.peak_pairs_per_second(), 240.0e9);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(RasterizerConfig {
            pes_per_module: 0,
            ..RasterizerConfig::prototype()
        }
        .validate()
        .is_err());
        assert!(RasterizerConfig {
            modules: 0,
            ..RasterizerConfig::prototype()
        }
        .validate()
        .is_err());
        assert!(RasterizerConfig {
            clock_hz: 0.0,
            ..RasterizerConfig::prototype()
        }
        .validate()
        .is_err());
        assert!(RasterizerConfig {
            bus_words_per_cycle: 0,
            ..RasterizerConfig::prototype()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn precision_displays() {
        assert_eq!(Precision::Fp32.to_string(), "fp32");
        assert_eq!(Precision::Fp16.to_string(), "fp16");
    }
}
