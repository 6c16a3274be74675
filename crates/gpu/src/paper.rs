//! Ground-truth numbers published in the GauRast paper.
//!
//! These are used (a) to calibrate the baseline GPU model and (b) as the
//! "paper" column of every table/figure reproduction the `repro` binary
//! prints and `tests/paper_reproduction.rs` checks.

/// Scene order used by every per-scene array below (the paper's order):
/// bicycle, stump, garden, room, counter, kitchen, bonsai.
pub const SCENE_NAMES: [&str; 7] = [
    "bicycle", "stump", "garden", "room", "counter", "kitchen", "bonsai",
];

/// Table III — absolute Gaussian-rasterization runtime of the CUDA baseline
/// on the Jetson Orin NX (original 3DGS algorithm), milliseconds.
pub const TABLE3_BASELINE_MS: [f64; 7] = [321.0, 149.0, 232.0, 236.0, 216.0, 269.0, 147.0];

/// Table III — absolute Gaussian-rasterization runtime with GauRast,
/// milliseconds.
pub const TABLE3_GAURAST_MS: [f64; 7] = [15.0, 6.0, 9.6, 10.5, 9.8, 12.2, 5.5];

/// Fig. 10 — average rasterization speedup, original 3DGS algorithm.
pub const FIG10_AVG_SPEEDUP_ORIGINAL: f64 = 23.0;

/// Fig. 10 — average energy-efficiency improvement, original 3DGS.
pub const FIG10_AVG_ENERGY_ORIGINAL: f64 = 24.0;

/// Fig. 10 — average rasterization speedup, efficiency-optimized pipeline.
pub const FIG10_AVG_SPEEDUP_OPTIMIZED: f64 = 20.0;

/// Fig. 10 — average energy-efficiency improvement, optimized pipeline.
pub const FIG10_AVG_ENERGY_OPTIMIZED: f64 = 22.0;

/// Fig. 11 — average end-to-end FPS with GauRast, original 3DGS.
pub const FIG11_AVG_FPS_ORIGINAL: f64 = 24.0;

/// Fig. 11 — average end-to-end FPS with GauRast, optimized pipeline.
pub const FIG11_AVG_FPS_OPTIMIZED: f64 = 46.0;

/// Fig. 11 — end-to-end speedup factors (original / optimized).
pub const FIG11_E2E_SPEEDUP: (f64, f64) = (6.0, 4.0);

/// Fig. 4 — baseline FPS band on the Orin NX across the seven scenes.
pub const FIG4_BASELINE_FPS_RANGE: (f64, f64) = (2.0, 5.0);

/// Fig. 5 — minimum Stage-3 (rasterization) share of baseline frame time.
pub const FIG5_MIN_RASTER_SHARE: f64 = 0.80;

/// §V-A — prototype typical power, W (16-PE module, 28 nm).
pub const PROTOTYPE_POWER_W: f64 = 1.7;

/// §V-C — GSCore envelope: dedicated area (mm², FP16) and its speedup on
/// the Xavier NX.
pub const GSCORE_AREA_MM2: f64 = 3.95;
/// §V-C — GSCore rasterization speedup on the Xavier NX.
pub const GSCORE_SPEEDUP_XAVIER: f64 = 20.0;
/// §V-C — GauRast-FP16 vs GSCore area-efficiency ratio.
pub const GSCORE_AREA_EFFICIENCY_RATIO: f64 = 24.7;

/// §V-D — M2 Pro FP32 capability relative to the Orin NX GPU.
pub const M2_PRO_FP32_RATIO: f64 = 2.6;
/// §V-D — GauRast rasterization speedup over the M2 Pro (bicycle scene).
pub const M2_PRO_SPEEDUP_BICYCLE: f64 = 11.2;

/// Per-scene baseline→GauRast speedups implied by Table III.
pub fn table3_speedups() -> [f64; 7] {
    let mut out = [0.0; 7];
    for i in 0..7 {
        out[i] = TABLE3_BASELINE_MS[i] / TABLE3_GAURAST_MS[i];
    }
    out
}

/// Geometric-free average of the Table III speedups (arithmetic mean, as
/// papers typically report).
pub fn table3_mean_speedup() -> f64 {
    table3_speedups().iter().sum::<f64>() / 7.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_speedups_in_expected_band() {
        for (i, s) in table3_speedups().iter().enumerate() {
            assert!((20.0..28.0).contains(s), "{}: {s}", SCENE_NAMES[i]);
        }
    }

    #[test]
    fn mean_speedup_matches_headline() {
        let mean = table3_mean_speedup();
        assert!(
            (mean - FIG10_AVG_SPEEDUP_ORIGINAL).abs() < 1.0,
            "mean {mean}"
        );
    }

    #[test]
    fn arrays_are_consistent() {
        assert_eq!(SCENE_NAMES.len(), TABLE3_BASELINE_MS.len());
        assert_eq!(SCENE_NAMES.len(), TABLE3_GAURAST_MS.len());
    }
}
