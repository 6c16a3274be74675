//! Descriptors for the seven NeRF-360 (Mip-NeRF 360) scenes the paper
//! evaluates on.
//!
//! The real dataset (photos + trained 3DGS checkpoints) is not available
//! offline; each descriptor instead records the published statistics of the
//! trained checkpoint — Gaussian count, rendering resolution, indoor/outdoor
//! structure — and can synthesize a statistically matched scene at a chosen
//! [`SceneScale`]. The architecture models consume per-frame work counts;
//! experiments carry them from the simulated scale to the paper's full
//! scale by normalizing the measured blend work to the descriptor's
//! calibrated [`SceneDescriptor::raster_work_per_frame`].

use crate::generator::SceneParams;
use crate::{Camera, GaussianScene, OrbitTrajectory, SceneError};
use gaurast_math::Vec3;

/// The seven scenes of the NeRF-360 dataset, in the paper's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Nerf360Scene {
    /// Outdoor: a bicycle in a park — the heaviest scene.
    Bicycle,
    /// Outdoor: a tree stump.
    Stump,
    /// Outdoor: a garden table.
    Garden,
    /// Indoor: a living room.
    Room,
    /// Indoor: a kitchen counter.
    Counter,
    /// Indoor: a full kitchen.
    Kitchen,
    /// Indoor: a bonsai tree — the lightest scene.
    Bonsai,
}

impl Nerf360Scene {
    /// All seven scenes in the paper's presentation order.
    pub const ALL: [Nerf360Scene; 7] = [
        Nerf360Scene::Bicycle,
        Nerf360Scene::Stump,
        Nerf360Scene::Garden,
        Nerf360Scene::Room,
        Nerf360Scene::Counter,
        Nerf360Scene::Kitchen,
        Nerf360Scene::Bonsai,
    ];

    /// Lower-case scene name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Nerf360Scene::Bicycle => "bicycle",
            Nerf360Scene::Stump => "stump",
            Nerf360Scene::Garden => "garden",
            Nerf360Scene::Room => "room",
            Nerf360Scene::Counter => "counter",
            Nerf360Scene::Kitchen => "kitchen",
            Nerf360Scene::Bonsai => "bonsai",
        }
    }

    /// `true` for the three unbounded outdoor scenes.
    pub fn is_outdoor(self) -> bool {
        matches!(
            self,
            Nerf360Scene::Bicycle | Nerf360Scene::Stump | Nerf360Scene::Garden
        )
    }

    /// The calibrated descriptor for this scene.
    pub fn descriptor(self) -> SceneDescriptor {
        // Full-scale Gaussian counts follow the published 3DGS checkpoints
        // (Kerbl et al. 2023, supplement); resolutions follow the standard
        // Mip-NeRF360 evaluation protocol (outdoor ÷4, indoor ÷2).
        // `raster_work_per_frame` is the paper-scale number of
        // Gaussian-pixel blend operations per frame, back-derived from the
        // paper's Table III GauRast runtimes (15 × 16-PE modules @ 1 GHz,
        // ~85 % utilization): the paper publishes runtimes, not blend
        // counts, so the count is inferred from the hardware that ran it.
        // `sort_pairs_per_frame` is the paper-scale (splat, tile) key count
        // of the Stage-2 radix sort, calibrated so the baseline stage
        // breakdown reproduces Fig. 5 (Stage 3 > 80 % everywhere) and the
        // end-to-end numbers reproduce Figs. 4/11.
        let (full_gaussians, width, height, work, sort_pairs): (u64, u32, u32, f64, f64) =
            match self {
                Nerf360Scene::Bicycle => (5_723_000, 1237, 822, 3.06e9, 34.0e6),
                Nerf360Scene::Stump => (4_957_000, 1245, 825, 1.22e9, 17.0e6),
                Nerf360Scene::Garden => (5_834_000, 1297, 840, 1.96e9, 22.0e6),
                Nerf360Scene::Room => (1_548_000, 1557, 1038, 2.14e9, 37.0e6),
                Nerf360Scene::Counter => (1_171_000, 1558, 1038, 2.00e9, 36.0e6),
                Nerf360Scene::Kitchen => (1_744_000, 1558, 1039, 2.49e9, 41.0e6),
                Nerf360Scene::Bonsai => (1_244_000, 1559, 1039, 1.12e9, 24.0e6),
            };
        let outdoor = self.is_outdoor();
        SceneDescriptor {
            scene: self,
            full_gaussians,
            width,
            height,
            raster_work_per_frame: work,
            sort_pairs_per_frame: sort_pairs,
            mini_work_fraction: 0.22,
            mini_pairs_fraction: 0.75,
            // Outdoor scenes: more background sky, larger extent, denser
            // coverage from large far-field splats.
            background_fraction: if outdoor { 0.35 } else { 0.12 },
            extent: if outdoor { 14.0 } else { 6.0 },
            clusters: if outdoor { 24 } else { 12 },
            mean_log_scale: if outdoor { -3.0 } else { -3.4 },
        }
    }
}

impl std::fmt::Display for Nerf360Scene {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How far the synthetic scene is scaled down from the paper's full scale.
///
/// Simulating millions of Gaussians at megapixel resolution cycle-by-cycle
/// is unnecessary: work counts scale linearly, so a smaller scene with the
/// same statistics gives the same architecture comparison. `gaussian_divisor`
/// and `resolution_divisor` shrink the Gaussian count and each image axis
/// respectively.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SceneScale {
    /// Divide the full Gaussian count by this.
    pub gaussian_divisor: u32,
    /// Divide each image dimension by this.
    pub resolution_divisor: u32,
}

impl SceneScale {
    /// Full paper scale (millions of Gaussians — slow; no artifact or
    /// benchmark runs it).
    pub const FULL: SceneScale = SceneScale {
        gaussian_divisor: 1,
        resolution_divisor: 1,
    };

    /// Default scale for the reproduction harness (1/64 Gaussians, 1/8 per
    /// axis resolution).
    pub const REPRO: SceneScale = SceneScale {
        gaussian_divisor: 64,
        resolution_divisor: 8,
    };

    /// Small scale for unit tests: enough tiles (~100) to keep all 15
    /// rasterizer instances busy so utilization — and hence every derived
    /// ratio — is representative of the full-scale behaviour.
    pub const UNIT_TEST: SceneScale = SceneScale {
        gaussian_divisor: 1024,
        resolution_divisor: 8,
    };
}

impl Default for SceneScale {
    fn default() -> Self {
        SceneScale::REPRO
    }
}

/// Calibrated description of one NeRF-360 scene.
#[derive(Clone, Debug, PartialEq)]
pub struct SceneDescriptor {
    /// Which scene this describes.
    pub scene: Nerf360Scene,
    /// Gaussian count of the trained full-scale checkpoint.
    pub full_gaussians: u64,
    /// Rendering width at the paper's protocol resolution.
    pub width: u32,
    /// Rendering height.
    pub height: u32,
    /// Paper-scale Gaussian-pixel blend operations per frame (calibration
    /// constant, back-derived from the paper's Table III GauRast runtime).
    pub raster_work_per_frame: f64,
    /// Paper-scale (splat, tile) sort-key count per frame (Stage-2
    /// calibration constant).
    pub sort_pairs_per_frame: f64,
    /// Fraction of `raster_work_per_frame` remaining under the
    /// efficiency-optimized pipeline (Mini-Splatting's published ~4.5×
    /// rasterization reduction).
    pub mini_work_fraction: f64,
    /// Fraction of `sort_pairs_per_frame` remaining under Mini-Splatting
    /// (fewer but larger splats keep tile duplication high).
    pub mini_pairs_fraction: f64,
    /// Fraction of Gaussians on the background shell.
    pub background_fraction: f32,
    /// Object-region half extent (world units).
    pub extent: f32,
    /// Object cluster count.
    pub clusters: usize,
    /// Mean of `ln(scale/extent)` for object Gaussians.
    pub mean_log_scale: f32,
}

impl SceneDescriptor {
    /// Gaussian count at the given scale (at least 1).
    pub fn gaussians_at(&self, scale: SceneScale) -> usize {
        ((self.full_gaussians / u64::from(scale.gaussian_divisor)).max(1)) as usize
    }

    /// Image dimensions at the given scale (at least 16×16).
    pub fn resolution_at(&self, scale: SceneScale) -> (u32, u32) {
        (
            (self.width / scale.resolution_divisor).max(16),
            (self.height / scale.resolution_divisor).max(16),
        )
    }

    /// Synthesizes the statistically matched scene at `scale`.
    ///
    /// Deterministic: the seed is derived from the scene name, so repeated
    /// calls (and different machines) agree bit-for-bit.
    pub fn synthesize(&self, scale: SceneScale) -> GaussianScene {
        let seed = self
            .scene
            .name()
            .bytes()
            .fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01B3)
            });
        SceneParams::new(self.gaussians_at(scale))
            .seed(seed)
            .extent(self.extent)
            .clusters(self.clusters)
            .background_fraction(self.background_fraction)
            .mean_log_scale(self.mean_log_scale)
            .sh_degree(1)
            .generate()
            .expect("descriptor parameters are valid by construction")
    }

    /// A representative evaluation camera at `scale` (on the NeRF-360-style
    /// orbit, angle `theta`).
    ///
    /// # Errors
    /// Propagates camera construction failures (cannot occur for valid
    /// descriptors).
    pub fn camera(&self, scale: SceneScale, theta: f32) -> Result<Camera, SceneError> {
        let (w, h) = self.resolution_at(scale);
        let orbit = OrbitTrajectory::new(
            Vec3::zero(),
            self.extent * 1.25,
            self.extent * 0.45,
            w,
            h,
            1.05, // ~60 degrees vertical, typical for the dataset
        )?;
        orbit.camera_at(theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenes_have_distinct_names() {
        let names: std::collections::HashSet<_> =
            Nerf360Scene::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn outdoor_classification() {
        assert!(Nerf360Scene::Bicycle.is_outdoor());
        assert!(!Nerf360Scene::Bonsai.is_outdoor());
        assert_eq!(
            Nerf360Scene::ALL.iter().filter(|s| s.is_outdoor()).count(),
            3
        );
    }

    #[test]
    fn bicycle_is_heaviest_bonsai_lightest() {
        let works: Vec<f64> = Nerf360Scene::ALL
            .iter()
            .map(|s| s.descriptor().raster_work_per_frame)
            .collect();
        let max = works.iter().cloned().fold(f64::MIN, f64::max);
        let min = works.iter().cloned().fold(f64::MAX, f64::min);
        assert_eq!(
            Nerf360Scene::Bicycle.descriptor().raster_work_per_frame,
            max
        );
        assert_eq!(Nerf360Scene::Bonsai.descriptor().raster_work_per_frame, min);
    }

    #[test]
    fn synthesize_is_deterministic() {
        let d = Nerf360Scene::Counter.descriptor();
        let a = d.synthesize(SceneScale::UNIT_TEST);
        let b = d.synthesize(SceneScale::UNIT_TEST);
        assert_eq!(a, b);
        assert_eq!(a.len(), d.gaussians_at(SceneScale::UNIT_TEST));
    }

    #[test]
    fn scales_order_counts() {
        let d = Nerf360Scene::Garden.descriptor();
        assert!(d.gaussians_at(SceneScale::FULL) > d.gaussians_at(SceneScale::REPRO));
        assert!(d.gaussians_at(SceneScale::REPRO) > d.gaussians_at(SceneScale::UNIT_TEST));
    }

    #[test]
    fn resolution_floors_at_16() {
        let d = Nerf360Scene::Bonsai.descriptor();
        let huge = SceneScale {
            gaussian_divisor: 1,
            resolution_divisor: 10_000,
        };
        assert_eq!(d.resolution_at(huge), (16, 16));
    }

    #[test]
    fn camera_sees_scene_center() {
        let d = Nerf360Scene::Room.descriptor();
        let cam = d.camera(SceneScale::UNIT_TEST, 0.7).unwrap();
        let px = cam.world_to_pixel(Vec3::zero()).unwrap();
        let (w, h) = d.resolution_at(SceneScale::UNIT_TEST);
        assert!((px.x - w as f32 / 2.0).abs() < 1.0);
        assert!((px.y - h as f32 / 2.0).abs() < 1.0);
    }

    #[test]
    fn paper_work_magnitudes_sane() {
        // Full-scale blend counts must be in the billions (§V, 300 PE @ 1 GHz
        // finishing in 5–15 ms).
        for s in Nerf360Scene::ALL {
            let w = s.descriptor().raster_work_per_frame;
            assert!((1.0e9..1.0e10).contains(&w), "{s}: {w}");
        }
    }
}
