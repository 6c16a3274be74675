//! 28 nm area model of the enhanced rasterizer (Fig. 9).
//!
//! The model composes per-unit cell areas (see [`crate::fpu`]) into the
//! module floorplan the paper reports: a 1.57 mm × 1.55 mm macro whose area
//! splits into the PE block (89.2 %), the two tile buffers (10.1 %) and the
//! controller (0.1 %), with each PE splitting 79 % / 21 % between
//! pre-existing triangle logic and the Gaussian enhancement.
//!
//! Technology scaling to the baseline SoC's node (Orin NX, 8 nm-class) uses
//! a published-density-derived factor so the scaled 300-PE enhancement can
//! be expressed as a fraction of the SoC die (§V-A: ≈0.2 %).

use crate::config::{Precision, RasterizerConfig};
use crate::fpu::FpUnitKind;
use crate::pe::PeResources;

/// Per-PE staging flip-flops, muxes and local control, µm² at 28 nm FP32.
pub const PE_STAGING_UM2: f64 = 3_200.0;

/// SRAM density including periphery, µm² per bit at 28 nm.
pub const SRAM_UM2_PER_BIT: f64 = 0.938;

/// Tile-buffer capacity per buffer in KiB (two buffers per module).
pub const TILE_BUFFER_KIB: f64 = 16.0;

/// Controller area per module, µm².
pub const CONTROLLER_UM2: f64 = 2_430.0;

/// Routing/clock-tree overhead fraction of the module total.
pub const ROUTING_FRACTION: f64 = 0.006;

/// Area scale factor from 28 nm to the baseline SoC's 8 nm-class node.
pub const TECH_SCALE_AREA_28_TO_8: f64 = 0.12;

/// Die area of the baseline Jetson Orin NX SoC in mm².
pub const ORIN_NX_SOC_MM2: f64 = 450.0;

/// Area breakdown of one rasterizer module (all µm² unless noted).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AreaBreakdown {
    /// PE block (all PEs of one module).
    pub pe_block_um2: f64,
    /// Both tile buffers.
    pub tile_buffers_um2: f64,
    /// Top + dispatch controller and result collector.
    pub controller_um2: f64,
    /// Routing/clock overhead.
    pub routing_um2: f64,
    /// Triangle (pre-existing) portion of one PE.
    pub pe_triangle_um2: f64,
    /// Gaussian (enhancement) portion of one PE.
    pub pe_gaussian_um2: f64,
    /// Number of PEs in the module.
    pub pes: u32,
}

impl AreaBreakdown {
    /// Total module area in µm².
    pub fn total_um2(&self) -> f64 {
        self.pe_block_um2 + self.tile_buffers_um2 + self.controller_um2 + self.routing_um2
    }

    /// Total module area in mm².
    pub fn total_mm2(&self) -> f64 {
        self.total_um2() / 1.0e6
    }

    /// PE-block share of the module.
    pub fn pe_block_fraction(&self) -> f64 {
        self.pe_block_um2 / self.total_um2()
    }

    /// Tile-buffer share of the module.
    pub fn tile_buffer_fraction(&self) -> f64 {
        self.tile_buffers_um2 / self.total_um2()
    }

    /// Controller share of the module.
    pub fn controller_fraction(&self) -> f64 {
        self.controller_um2 / self.total_um2()
    }

    /// Gaussian-enhancement share of one PE (the paper's 21 %).
    pub fn enhancement_fraction(&self) -> f64 {
        self.pe_gaussian_um2 / (self.pe_gaussian_um2 + self.pe_triangle_um2)
    }
}

/// Area model for a rasterizer configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AreaModel {
    precision: Precision,
}

impl AreaModel {
    /// Model at the given datapath precision.
    pub const fn new(precision: Precision) -> Self {
        Self { precision }
    }

    /// Triangle-side area of one PE: the shared 9 ADD + 9 MUL, the divider,
    /// and staging.
    pub fn pe_triangle_um2(&self) -> f64 {
        let r = PeResources::PAPER;
        let p = self.precision;
        f64::from(r.shared_adders) * FpUnitKind::Add.area_um2(p)
            + f64::from(r.shared_multipliers) * FpUnitKind::Mul.area_um2(p)
            + f64::from(r.triangle_dividers) * FpUnitKind::Div.area_um2(p)
            + PE_STAGING_UM2 * staging_scale(p)
    }

    /// Gaussian-enhancement area of one PE: 2 ADD + 1 MUL + 1 EXP.
    pub fn pe_gaussian_um2(&self) -> f64 {
        let r = PeResources::PAPER;
        let p = self.precision;
        f64::from(r.gaussian_adders) * FpUnitKind::Add.area_um2(p)
            + f64::from(r.gaussian_multipliers) * FpUnitKind::Mul.area_um2(p)
            + f64::from(r.gaussian_exp_units) * FpUnitKind::Exp.area_um2(p)
    }

    /// Full breakdown of one module of `config`.
    pub fn module_breakdown(&self, config: &RasterizerConfig) -> AreaBreakdown {
        let pe_tri = self.pe_triangle_um2();
        let pe_gauss = self.pe_gaussian_um2();
        let pe_block = f64::from(config.pes_per_module) * (pe_tri + pe_gauss);
        let buffers =
            2.0 * TILE_BUFFER_KIB * 1024.0 * 8.0 * SRAM_UM2_PER_BIT * sram_scale(self.precision);
        let controller = CONTROLLER_UM2;
        let pre_routing = pe_block + buffers + controller;
        let routing = pre_routing * ROUTING_FRACTION / (1.0 - ROUTING_FRACTION);
        AreaBreakdown {
            pe_block_um2: pe_block,
            tile_buffers_um2: buffers,
            controller_um2: controller,
            routing_um2: routing,
            pe_triangle_um2: pe_tri,
            pe_gaussian_um2: pe_gauss,
            pes: config.pes_per_module,
        }
    }

    /// Total Gaussian-enhancement area across all instances of `config`, in
    /// mm² at 28 nm — the only *new* silicon GauRast adds.
    pub fn enhancement_mm2(&self, config: &RasterizerConfig) -> f64 {
        f64::from(config.total_pes()) * self.pe_gaussian_um2() / 1.0e6
    }

    /// The enhancement expressed as a fraction of the baseline SoC die,
    /// after technology scaling to the SoC's node.
    pub fn enhancement_soc_fraction(&self, config: &RasterizerConfig) -> f64 {
        self.enhancement_mm2(config) * TECH_SCALE_AREA_28_TO_8 / ORIN_NX_SOC_MM2
    }
}

fn staging_scale(p: Precision) -> f64 {
    match p {
        Precision::Fp32 => 1.0,
        Precision::Fp16 => 0.5,
    }
}

fn sram_scale(p: Precision) -> f64 {
    match p {
        Precision::Fp32 => 1.0,
        Precision::Fp16 => 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp32_breakdown() -> AreaBreakdown {
        AreaModel::new(Precision::Fp32).module_breakdown(&RasterizerConfig::prototype())
    }

    #[test]
    fn module_total_matches_layout() {
        // Paper layout: 1.57 mm × 1.55 mm ≈ 2.43 mm².
        let total = fp32_breakdown().total_mm2();
        assert!((total - 2.43).abs() < 0.08, "module total {total} mm²");
    }

    #[test]
    fn breakdown_fractions_match_fig9() {
        let b = fp32_breakdown();
        assert!(
            (b.pe_block_fraction() - 0.892).abs() < 0.01,
            "PE {}",
            b.pe_block_fraction()
        );
        assert!(
            (b.tile_buffer_fraction() - 0.101).abs() < 0.01,
            "buf {}",
            b.tile_buffer_fraction()
        );
        assert!(
            (b.controller_fraction() - 0.001).abs() < 0.001,
            "ctl {}",
            b.controller_fraction()
        );
    }

    #[test]
    fn enhancement_is_21_percent_of_pe() {
        let b = fp32_breakdown();
        let f = b.enhancement_fraction();
        assert!((f - 0.21).abs() < 0.01, "enhancement fraction {f}");
    }

    #[test]
    fn scaled_enhancement_is_0_2_percent_of_soc() {
        let model = AreaModel::new(Precision::Fp32);
        let frac = model.enhancement_soc_fraction(&RasterizerConfig::scaled());
        assert!((frac - 0.002).abs() < 0.0005, "SoC fraction {frac}");
    }

    #[test]
    fn fp16_module_smaller_than_fp32() {
        let fp32 = fp32_breakdown().total_um2();
        let fp16 = AreaModel::new(Precision::Fp16)
            .module_breakdown(&RasterizerConfig::prototype())
            .total_um2();
        assert!(fp16 < 0.6 * fp32);
    }

    #[test]
    fn fractions_sum_to_one() {
        let b = fp32_breakdown();
        let sum = b.pe_block_fraction()
            + b.tile_buffer_fraction()
            + b.controller_fraction()
            + b.routing_um2 / b.total_um2();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
