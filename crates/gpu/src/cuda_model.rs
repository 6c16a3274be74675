//! SM-level analytical model of CUDA 3DGS execution.
//!
//! The Gaussian-rasterization kernel (Stage 3) is modelled as
//! `time = blends / (peak_rate × efficiency)`, where `peak_rate` comes from
//! the device's FP32 datapath (one blend costs ~40 FP lane-operations) and
//! `efficiency` captures occupancy and divergence losses that grow as tile
//! lists shorten (warps idle at list tails and during per-pixel early
//! exits). Stages 1–2 are bandwidth-bound streaming passes.
//!
//! All constants are calibrated against the paper's Table III and validated
//! against Figs. 4–5 (see `tests` and the `gaurast` experiment harness).

use gaurast_render::RasterWorkload;

/// FP lane-operations per Gaussian-pixel blend on CUDA (arithmetic plus
/// address/predicate overhead).
pub const LANE_OPS_PER_BLEND: f64 = 40.0;

/// Bytes streamed per Gaussian in Stage 1 (parameters + SH coefficients +
/// written splat record).
pub const BYTES_PER_GAUSSIAN_PREPROCESS: f64 = 250.0;

/// Scatter passes of the reference GPU's Stage-2 LSD radix sort over
/// (splat, tile) pairs: 8-bit digits over the 32 significant bits of the
/// packed `tile << 32 | depth_bits` key (the tile half fits a handful of
/// active digits; uniform digits are skipped). This models the device's
/// pair sort, not the host reproduction's Stage 2, which sorts splats by
/// depth once and scatters them by tile (`gaurast_render::tile`) into
/// the same workload.
pub const SORT_RADIX_PASSES: f64 = 4.0;

/// Bytes moved per (splat, tile) pair per radix pass (8-byte key/value
/// record, read + write).
pub const BYTES_PER_PAIR_SORT_PASS: f64 = 16.0;

/// Bytes moved per (splat, tile) pair by the whole Stage-2 radix sort.
pub const BYTES_PER_PAIR_SORT: f64 = SORT_RADIX_PASSES * BYTES_PER_PAIR_SORT_PASS;

/// Analytical model of one CUDA device running the 3DGS pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct CudaGpuModel {
    /// Device name (for reports).
    pub name: String,
    /// CUDA cores (FP32 lanes).
    pub cuda_cores: u32,
    /// Sustained clock under the power limit, Hz.
    pub clock_hz: f64,
    /// Sustained DRAM bandwidth, bytes/s.
    pub mem_bw_bytes_per_s: f64,
    /// Peak efficiency of the rasterization kernel (asymptote for very long
    /// tile lists).
    pub base_efficiency: f64,
    /// Tile-list length at which efficiency halves relative to the
    /// asymptote's knee (occupancy/divergence knee).
    pub efficiency_knee: f64,
    /// Device power while rasterizing, W (edge SoCs run at their cap).
    pub raster_power_w: f64,
}

impl CudaGpuModel {
    /// Peak blend throughput (pairs/s) ignoring efficiency losses.
    pub fn peak_blend_rate(&self) -> f64 {
        f64::from(self.cuda_cores) * self.clock_hz / LANE_OPS_PER_BLEND
    }

    /// Kernel efficiency for a mean tile-list length `l` (the depth of the
    /// per-tile sorted queues — short queues leave warps idle at list
    /// tails and per-pixel early exits).
    pub fn efficiency(&self, l: f64) -> f64 {
        if l <= 0.0 {
            return 0.0;
        }
        self.base_efficiency * l / (l + self.efficiency_knee)
    }

    /// Effective blend throughput (pairs/s) at list length `l`.
    pub fn blend_rate(&self, l: f64) -> f64 {
        self.peak_blend_rate() * self.efficiency(l)
    }

    /// Stage-3 time for an explicit work amount (used for paper-scale
    /// extrapolation).
    ///
    /// # Panics
    /// Panics in debug builds for non-positive work with positive list
    /// length inconsistencies.
    pub fn raster_time_for_work(&self, blends: f64, mean_list_len: f64) -> f64 {
        debug_assert!(blends >= 0.0);
        if blends == 0.0 {
            return 0.0;
        }
        blends / self.blend_rate(mean_list_len.max(1.0))
    }

    /// Stage-3 time for a concrete workload at its own scale.
    pub fn raster_time(&self, w: &RasterWorkload) -> f64 {
        self.raster_time_for_work(w.blend_work() as f64, w.mean_list_len())
    }

    /// Stage-1 time for `visible` Gaussians (bandwidth-bound stream).
    pub fn preprocess_time(&self, visible: u64) -> f64 {
        visible as f64 * BYTES_PER_GAUSSIAN_PREPROCESS / self.mem_bw_bytes_per_s
    }

    /// Stage-2 time for `pairs` (splat, tile) sort keys, billed against
    /// the bandwidth-bound radix model ([`SORT_RADIX_PASSES`] scatter
    /// passes at [`BYTES_PER_PAIR_SORT_PASS`] bytes per pair each).
    pub fn sort_time(&self, pairs: u64) -> f64 {
        pairs as f64 * BYTES_PER_PAIR_SORT / self.mem_bw_bytes_per_s
    }

    /// Energy spent rasterizing for `t` seconds, J.
    pub fn raster_energy_j(&self, t: f64) -> f64 {
        self.raster_power_w * t
    }
}

/// Mean processed list length across non-empty tiles (the efficiency
/// model's argument).
pub fn mean_processed_len(w: &RasterWorkload) -> f64 {
    let mut sum = 0u64;
    let mut tiles = 0u64;
    for tile in w.tiles() {
        if tile.processed > 0 {
            sum += u64::from(tile.processed);
            tiles += 1;
        }
    }
    if tiles == 0 {
        0.0
    } else {
        sum as f64 / tiles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device;
    use crate::paper;

    #[test]
    fn efficiency_monotonic_and_bounded() {
        let m = device::orin_nx();
        let mut prev = 0.0;
        for &l in &[1.0, 10.0, 100.0, 1000.0, 10000.0] {
            let e = m.efficiency(l);
            assert!(e > prev && e < m.base_efficiency);
            prev = e;
        }
        assert_eq!(m.efficiency(0.0), 0.0);
    }

    #[test]
    fn paper_scale_baseline_raster_times_match_table3() {
        // The calibrated work constants (scene descriptors) divided by the
        // model's rate must land near Table III for every scene.
        use gaurast_scene::nerf360::Nerf360Scene;
        let m = device::orin_nx();
        for (i, scene) in Nerf360Scene::ALL.iter().enumerate() {
            let d = scene.descriptor();
            let tiles = f64::from(d.width.div_ceil(16) * d.height.div_ceil(16));
            let mean_len = d.sort_pairs_per_frame / tiles;
            let t = m.raster_time_for_work(d.raster_work_per_frame, mean_len);
            let expected = paper::TABLE3_BASELINE_MS[i] / 1e3;
            let err = (t - expected).abs() / expected;
            assert!(
                err < 0.10,
                "{}: model {t:.3} s vs paper {expected:.3} s",
                scene.name()
            );
        }
    }

    #[test]
    fn stage3_dominates_at_paper_scale() {
        // Fig. 5: rasterization is >80 % of baseline frame time.
        use gaurast_scene::nerf360::Nerf360Scene;
        let m = device::orin_nx();
        for scene in Nerf360Scene::ALL {
            let d = scene.descriptor();
            let tiles = f64::from(d.width.div_ceil(16) * d.height.div_ceil(16));
            let mean_len = d.sort_pairs_per_frame / tiles;
            let raster = m.raster_time_for_work(d.raster_work_per_frame, mean_len);
            // Visible fraction ~85 % (measured on the synthetic scenes).
            let visible = d.full_gaussians as f64 * 0.85;
            let pre = m.preprocess_time(visible as u64);
            let sort = m.sort_time(d.sort_pairs_per_frame as u64);
            let share = raster / (raster + pre + sort);
            assert!(
                share > paper::FIG5_MIN_RASTER_SHARE,
                "{}: share {share:.2}",
                scene.name()
            );
        }
    }

    #[test]
    fn sort_model_is_radix_passes_times_pairs() {
        let m = device::orin_nx();
        assert_eq!(m.sort_time(0), 0.0);
        // The per-pair byte total is exactly passes × bytes-per-pass.
        assert!((BYTES_PER_PAIR_SORT - SORT_RADIX_PASSES * BYTES_PER_PAIR_SORT_PASS).abs() < 1e-12);
        // sort_time bills the same bandwidth-bound total.
        let t = m.sort_time(1_000_000);
        assert!((t - 1e6 * BYTES_PER_PAIR_SORT / m.mem_bw_bytes_per_s).abs() < 1e-18);
    }

    #[test]
    fn raster_time_scales_linearly_with_work() {
        let m = device::orin_nx();
        let t1 = m.raster_time_for_work(1e9, 500.0);
        let t2 = m.raster_time_for_work(2e9, 500.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_work_is_free() {
        let m = device::orin_nx();
        assert_eq!(m.raster_time_for_work(0.0, 100.0), 0.0);
    }

    #[test]
    fn workload_raster_time_positive() {
        use gaurast_math::Vec3;
        use gaurast_render::pipeline::{render, RenderConfig};
        use gaurast_scene::generator::SceneParams;
        use gaurast_scene::Camera;
        let scene = SceneParams::new(500).generate().unwrap();
        let cam = Camera::look_at(
            Vec3::new(0.0, 5.0, -25.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            64,
            64,
            1.0,
        )
        .unwrap();
        let out = render(&scene, &cam, &RenderConfig::default());
        let m = device::orin_nx();
        let w = &out.workload;
        assert!(m.raster_time(w) > 0.0);
        assert!(m.preprocess_time(w.splats().len() as u64) > 0.0);
        assert!(m.sort_time(w.total_pairs()) > 0.0);
    }

    #[test]
    fn mean_processed_len_ignores_empty_tiles() {
        let w = gaurast_render::tile::bin_splats(vec![], 64, 64, 16);
        assert_eq!(mean_processed_len(&w), 0.0);
    }
}
