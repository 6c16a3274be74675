//! GSCore area comparison (§V-C).
//!
//! GSCore (Lee et al., ASPLOS 2024) is the only previously published
//! dedicated 3DGS accelerator. As in the paper, the comparison uses
//! GSCore's *published* envelope — 3.95 mm² of dedicated FP16 silicon
//! ([`GSCORE_AREA_MM2`]) achieving a 20× rasterization speedup over its
//! Jetson Xavier NX host — rather than a re-implementation. GauRast's cost
//! at the iso-performance point is only the Gaussian *enhancement* of an
//! existing 16-PE triangle rasterizer, re-synthesized in FP16.

use crate::paper::GSCORE_AREA_MM2;
use gaurast_hw::area::AreaModel;
use gaurast_hw::{Precision, RasterizerConfig};

/// Result of the §V-C comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AreaEfficiencyComparison {
    /// GauRast's added silicon at the iso-performance point, mm² (FP16).
    pub gaurast_added_mm2: f64,
    /// GSCore's dedicated area, mm².
    pub gscore_mm2: f64,
    /// Area-efficiency ratio (GSCore / GauRast) at iso-performance.
    pub ratio: f64,
}

/// Computes the comparison: a 16-PE FP16 GauRast module matches GSCore's
/// published throughput envelope while adding only the Gaussian datapath
/// (2 ADD + 1 MUL + 1 EXP per PE) to silicon that already exists.
pub fn compare() -> AreaEfficiencyComparison {
    let config = RasterizerConfig {
        precision: Precision::Fp16,
        ..RasterizerConfig::prototype()
    };
    let added = AreaModel::new(Precision::Fp16).enhancement_mm2(&config);
    AreaEfficiencyComparison {
        gaurast_added_mm2: added,
        gscore_mm2: GSCORE_AREA_MM2,
        ratio: GSCORE_AREA_MM2 / added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn ratio_matches_paper() {
        let c = compare();
        assert!(
            (c.gaurast_added_mm2 - 0.16).abs() < 0.01,
            "added {}",
            c.gaurast_added_mm2
        );
        assert!(
            (c.ratio - paper::GSCORE_AREA_EFFICIENCY_RATIO).abs() < 1.5,
            "ratio {}",
            c.ratio
        );
    }
}
