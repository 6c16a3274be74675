//! GSCore pipeline cost model: CCU → GSU → VRU.
//!
//! **Measured on the workload** (no assumptions): the shape-aware pair cull
//! and the subtile pixel work, computed exactly by [`crate::subtile`].
//!
//! **Taken from the GSCore paper's published envelope**: the end-to-end
//! 20× rasterization speedup on the Xavier NX, to which the VRU lane count
//! is calibrated. The published area (3.95 mm², FP16, 28 nm-class) lives
//! only in `gaurast_gpu::paper::GSCORE_AREA_MM2`, which §V-C's comparison
//! reads; this model prices time, not silicon, so no internal area split
//! is modeled.

use crate::subtile::{refine, RefinedWork};
use gaurast_render::RasterWorkload;

/// Configuration of the modeled accelerator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GscoreConfig {
    /// Volume-rendering lanes (blend operations per cycle, all VRU cores
    /// combined). The published design has 16 volume-rendering cores, each
    /// retiring one Gaussian-pixel blend per cycle.
    pub vru_lanes: u32,
    /// Culling/conversion throughput, splats per cycle.
    pub ccu_splats_per_cycle: u32,
    /// Sorting throughput, (splat, tile) keys per cycle (hierarchical
    /// bitonic sorter).
    pub gsu_keys_per_cycle: u32,
    /// Clock, Hz.
    pub clock_hz: f64,
}

impl GscoreConfig {
    /// The published design point.
    pub fn published() -> Self {
        Self {
            vru_lanes: 16,
            ccu_splats_per_cycle: 4,
            gsu_keys_per_cycle: 8,
            clock_hz: 1.0e9,
        }
    }
}

impl Default for GscoreConfig {
    fn default() -> Self {
        Self::published()
    }
}

/// Simulated frame result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GscoreFrameReport {
    /// Measured workload refinement (shape cull + subtile skipping).
    pub refined: RefinedWork,
    /// CCU cycles (stream every preprocessed splat once).
    pub ccu_cycles: u64,
    /// GSU cycles (sort all surviving pair keys).
    pub gsu_cycles: u64,
    /// VRU cycles (blend the subtile-refined work).
    pub vru_cycles: u64,
    /// Frame time at the configured clock, s. Stages overlap frame-to-
    /// frame, so the bottleneck stage bounds throughput; within one frame
    /// they serialize.
    pub time_s: f64,
}

impl GscoreFrameReport {
    /// Total in-frame cycles (stages serialized).
    pub fn total_cycles(&self) -> u64 {
        self.ccu_cycles + self.gsu_cycles + self.vru_cycles
    }

    /// The stage bounding steady-state throughput.
    pub fn bottleneck_cycles(&self) -> u64 {
        self.ccu_cycles.max(self.gsu_cycles).max(self.vru_cycles)
    }
}

/// The modeled accelerator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GscoreAccelerator {
    config: GscoreConfig,
}

impl GscoreAccelerator {
    /// Accelerator with `config`.
    ///
    /// # Panics
    /// Panics when any throughput parameter is zero.
    pub fn new(config: GscoreConfig) -> Self {
        assert!(
            config.vru_lanes > 0
                && config.ccu_splats_per_cycle > 0
                && config.gsu_keys_per_cycle > 0,
            "throughputs must be positive"
        );
        assert!(config.clock_hz > 0.0);
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &GscoreConfig {
        &self.config
    }

    /// Simulates one frame on a binned workload.
    pub fn simulate(&self, workload: &RasterWorkload) -> GscoreFrameReport {
        let refined = refine(workload);
        let ccu_cycles =
            (workload.splats().len() as u64).div_ceil(u64::from(self.config.ccu_splats_per_cycle));
        // GSU sorts the keys of pairs surviving the shape test (the CCU
        // emits refined keys).
        let gsu_cycles = refined
            .shape_pairs
            .div_ceil(u64::from(self.config.gsu_keys_per_cycle));
        let vru_cycles = refined
            .subtile_pixel_work
            .div_ceil(u64::from(self.config.vru_lanes));
        // Steady state: stages pipeline across frames, the slowest bounds
        // the frame rate.
        let time_s = ccu_cycles.max(gsu_cycles).max(vru_cycles) as f64 / self.config.clock_hz;
        GscoreFrameReport {
            refined,
            ccu_cycles,
            gsu_cycles,
            vru_cycles,
            time_s,
        }
    }
}

impl Default for GscoreAccelerator {
    fn default() -> Self {
        Self::new(GscoreConfig::published())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::Vec3;
    use gaurast_render::pipeline::{render, RenderConfig};
    use gaurast_scene::generator::SceneParams;
    use gaurast_scene::Camera;

    fn workload() -> RasterWorkload {
        let scene = SceneParams::new(3000).seed(8).generate().unwrap();
        let cam = Camera::look_at(
            Vec3::new(0.0, 6.0, -28.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            192,
            128,
            1.05,
        )
        .unwrap();
        render(&scene, &cam, &RenderConfig::default()).workload
    }

    #[test]
    fn vru_dominates_on_real_scenes() {
        // Rasterization must be the bottleneck stage — the same property
        // that motivates both GSCore and GauRast.
        let r = GscoreAccelerator::default().simulate(&workload());
        assert!(
            r.vru_cycles > r.ccu_cycles,
            "vru {} ccu {}",
            r.vru_cycles,
            r.ccu_cycles
        );
        assert!(
            r.vru_cycles > r.gsu_cycles,
            "vru {} gsu {}",
            r.vru_cycles,
            r.gsu_cycles
        );
        assert_eq!(r.bottleneck_cycles(), r.vru_cycles);
        assert!(r.total_cycles() >= r.bottleneck_cycles());
    }

    #[test]
    fn refinement_reduces_work_on_real_scenes() {
        let r = GscoreAccelerator::default().simulate(&workload());
        // Lower bound sits just under the measured value for the vendored
        // `rand` stream's draw of the seed-8 scene (1.17).
        assert!(
            (1.1..8.0).contains(&r.refined.work_reduction()),
            "work reduction {}",
            r.refined.work_reduction()
        );
        assert!(
            r.refined.shape_cull_fraction() < 0.7,
            "cull fraction {}",
            r.refined.shape_cull_fraction()
        );
    }

    #[test]
    fn gscore_beats_a_plain_16_lane_datapath() {
        // GSCore's refinements must make it faster per lane than a plain
        // rasterizer of equal VRU width: its cycles on refined work are
        // fewer than refined-less work / lanes.
        let w = workload();
        let r = GscoreAccelerator::default().simulate(&w);
        let plain_cycles = w
            .blend_work()
            .div_ceil(u64::from(GscoreConfig::published().vru_lanes));
        assert!(r.vru_cycles < plain_cycles);
    }

    #[test]
    #[should_panic(expected = "throughputs must be positive")]
    fn zero_lanes_rejected() {
        let _ = GscoreAccelerator::new(GscoreConfig {
            vru_lanes: 0,
            ..GscoreConfig::published()
        });
    }
}
