//! Rendering-quality validation (§V-A's functional-accuracy claim, and the
//! quality cost of the §V-C FP16 variant).
//!
//! The paper validates that the FP32 RTL "matches perfectly without any
//! loss in rendering quality" against the software references. Our FP32
//! datapath is bit-exact by construction (see `gaurast_hw::pe`); this
//! experiment verifies it end-to-end on every scene and quantifies the
//! PSNR of the FP16 re-implementation.

use crate::backend::BackendKind;
use crate::engine::{EngineBuilder, ImagePolicy};
use crate::report::{fmt_f, TextTable};
use gaurast_hw::{EnhancedRasterizer, Precision, RasterizerConfig};
use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};

/// Quality of one scene's hardware renders against the software reference.
#[derive(Clone, Debug, PartialEq)]
pub struct QualityRow {
    /// Scene.
    pub scene: Nerf360Scene,
    /// `true` when the FP32 hardware image is bit-identical.
    pub fp32_bit_exact: bool,
    /// PSNR of the FP16 hardware image vs the FP32 reference, dB.
    pub fp16_psnr_db: f32,
    /// Mean absolute per-channel error of FP16.
    pub fp16_mean_abs_err: f32,
}

/// The full quality report.
#[derive(Clone, Debug, PartialEq)]
pub struct QualityReport {
    /// One row per scene.
    pub rows: Vec<QualityRow>,
}

impl QualityReport {
    /// `true` when FP32 matched bit-for-bit on every scene.
    pub fn all_fp32_exact(&self) -> bool {
        self.rows.iter().all(|r| r.fp32_bit_exact)
    }

    /// Minimum FP16 PSNR across scenes.
    pub fn min_fp16_psnr(&self) -> f32 {
        self.rows
            .iter()
            .map(|r| r.fp16_psnr_db)
            .fold(f32::INFINITY, f32::min)
    }
}

/// Runs the quality validation at the given scale. Each scene opens a
/// retained-image engine session for the software reference image; the
/// prototype's PE datapath then renders the identical finalized workload
/// at both precisions through
/// [`EnhancedRasterizer::render_gaussian`], so the FP32 column compares
/// the datapath itself against the reference, not the served image.
pub fn quality(scale: SceneScale) -> QualityReport {
    let rows = Nerf360Scene::ALL
        .iter()
        .map(|&scene| {
            let desc = scene.descriptor();
            let gscene = desc.synthesize(scale);
            let cam = desc.camera(scale, 0.8).expect("descriptor camera");

            let mut engine = EngineBuilder::new(gscene)
                .image_policy(ImagePolicy::Retain)
                .build()
                .expect("default configuration is valid");
            let cmp = engine.compare(&cam, &[BackendKind::Software]);
            let reference = cmp
                .get(BackendKind::Software)
                .and_then(|r| r.image.as_ref())
                .expect("retained software image");
            let pe_image = |precision| {
                EnhancedRasterizer::new(RasterizerConfig {
                    precision,
                    ..RasterizerConfig::prototype()
                })
                .render_gaussian(&cmp.workload)
                .0
            };
            let img32 = pe_image(Precision::Fp32);
            let img16 = pe_image(Precision::Fp16);

            QualityRow {
                scene,
                fp32_bit_exact: img32.mean_abs_diff(reference) == 0.0,
                fp16_psnr_db: img16.psnr(reference),
                fp16_mean_abs_err: img16.mean_abs_diff(reference),
            }
        })
        .collect();
    QualityReport { rows }
}

impl std::fmt::Display for QualityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Rendering quality vs software reference (§V-A validation)"
        )?;
        let mut t = TextTable::new(vec!["scene", "fp32", "fp16 PSNR dB", "fp16 mean err"]);
        for r in &self.rows {
            t.row(vec![
                r.scene.name().into(),
                if r.fp32_bit_exact {
                    "bit-exact".into()
                } else {
                    "MISMATCH".into()
                },
                fmt_f(f64::from(r.fp16_psnr_db), 1),
                format!("{:.2e}", r.fp16_mean_abs_err),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn report() -> &'static QualityReport {
        static R: OnceLock<QualityReport> = OnceLock::new();
        // A smaller scale than UNIT_TEST: functional rendering is the
        // expensive path.
        R.get_or_init(|| {
            quality(SceneScale {
                gaussian_divisor: 8192,
                resolution_divisor: 16,
            })
        })
    }

    #[test]
    fn fp32_is_bit_exact_on_all_scenes() {
        assert!(report().all_fp32_exact());
    }

    #[test]
    fn fp16_loses_little_quality() {
        let min = report().min_fp16_psnr();
        assert!(min > 35.0, "min fp16 PSNR {min} dB");
    }

    #[test]
    fn fp16_is_not_bit_exact() {
        assert!(report().rows.iter().any(|r| r.fp16_mean_abs_err > 0.0));
    }

    #[test]
    fn display_lists_every_scene() {
        let text = report().to_string();
        for scene in Nerf360Scene::ALL {
            assert!(text.contains(scene.name()));
        }
    }
}
