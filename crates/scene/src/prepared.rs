//! The immutable, precomputation-carrying scene asset shared across
//! rendering sessions.
//!
//! A [`GaussianScene`] is validated but *raw*: every renderer that opens a
//! session over it would redo the same camera-independent work — world-space
//! covariances and the scene bounding box. A
//! [`PreparedScene`] runs that precomputation exactly once in
//! [`PreparedScene::prepare`] and then never changes, so it can sit behind
//! an `Arc` and serve any number of concurrent sessions without copies:
//!
//! ```
//! use gaurast_scene::generator::SceneParams;
//! use gaurast_scene::PreparedScene;
//! use std::sync::Arc;
//!
//! let scene = SceneParams::new(200).seed(9).generate()?;
//! let prepared = Arc::new(PreparedScene::prepare(scene));
//! assert_eq!(prepared.len(), prepared.covariances().len());
//! assert!(!prepared.bounds().is_empty());
//!
//! // Sharing is an Arc clone, not a scene copy.
//! let worker_view = Arc::clone(&prepared);
//! assert_eq!(worker_view.len(), prepared.len());
//! # Ok::<(), gaurast_scene::SceneError>(())
//! ```
//!
//! The precomputed per-Gaussian covariances feed Stage 1 directly (see
//! `gaurast_render::preprocess::preprocess_prepared_pooled_level`),
//! removing the two quaternion-to-matrix products per Gaussian per frame
//! that the raw-scene path pays.

use crate::GaussianScene;
use gaurast_math::{Aabb3, Mat3};

/// An immutable scene asset: a validated [`GaussianScene`] plus
/// camera-independent precomputation. The per-Gaussian world covariances
/// feed Stage 1, which runs over every Gaussian of the scene each frame
/// (`preprocess_prepared_pooled_level` reads them back instead of
/// rebuilding them per frame); the bounds serve the serving layer —
/// capacity planning and placement over a registry of named scenes.
/// Summary statistics are computed on demand from [`PreparedScene::scene`]
/// ([`crate::stats::SceneStats::compute`]), so registering a scene does
/// not pay for them.
///
/// Built once with [`PreparedScene::prepare`]; from then on the asset only
/// hands out references, so an `Arc<PreparedScene>` is safe to share
/// across threads (`PreparedScene` is `Send + Sync`) and cheap to hand to
/// each new session. Two preparations of equal scenes compare equal.
#[derive(Clone, Debug, PartialEq)]
pub struct PreparedScene {
    scene: GaussianScene,
    bounds: Aabb3,
    covariances: Vec<Mat3>,
}

impl PreparedScene {
    /// Runs the one-time precomputation over a validated scene.
    ///
    /// This is the only constructor: the scene's own validation (enforced
    /// by [`GaussianScene::from_gaussians`] / [`GaussianScene::push`])
    /// guarantees every Gaussian is well-formed, so preparation cannot
    /// fail.
    pub fn prepare(scene: GaussianScene) -> Self {
        let covariances = scene.iter().map(crate::Gaussian3::covariance).collect();
        Self {
            bounds: scene.bounds(),
            covariances,
            scene,
        }
    }

    /// The underlying validated scene.
    #[inline]
    pub fn scene(&self) -> &GaussianScene {
        &self.scene
    }

    /// Number of Gaussians.
    #[inline]
    pub fn len(&self) -> usize {
        self.scene.len()
    }

    /// `true` when the scene has no Gaussians.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scene.is_empty()
    }

    /// World-space bounding box of all Gaussians expanded by their 3σ
    /// radii (empty box for an empty scene).
    #[inline]
    pub fn bounds(&self) -> Aabb3 {
        self.bounds
    }

    /// Precomputed world-space covariances `R diag(s²) Rᵀ`, one per
    /// Gaussian in scene order.
    #[inline]
    pub fn covariances(&self) -> &[Mat3] {
        &self.covariances
    }

    /// Consumes the asset, returning the raw scene (the precomputation is
    /// dropped).
    #[inline]
    pub fn into_scene(self) -> GaussianScene {
        self.scene
    }
}

impl From<GaussianScene> for PreparedScene {
    fn from(scene: GaussianScene) -> Self {
        Self::prepare(scene)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gaussian3;
    use gaurast_math::{approx_eq, Vec3};

    fn scene() -> GaussianScene {
        GaussianScene::from_gaussians(vec![
            Gaussian3::isotropic(Vec3::zero(), 0.5, 0.9, Vec3::one()),
            Gaussian3::isotropic(Vec3::new(4.0, 0.0, 0.0), 1.0, 0.5, Vec3::one()),
        ])
        .unwrap()
    }

    #[test]
    fn covariances_match_per_gaussian_computation() {
        let s = scene();
        let prepared = PreparedScene::prepare(s.clone());
        assert_eq!(prepared.len(), s.len());
        for (i, g) in s.iter().enumerate() {
            let expected = g.covariance();
            let got = prepared.covariances()[i];
            for r in 0..3 {
                for c in 0..3 {
                    assert!(approx_eq(got.at(r, c), expected.at(r, c), 1e-6));
                }
            }
        }
    }

    #[test]
    fn bounds_match_scene() {
        let s = scene();
        let prepared = PreparedScene::prepare(s.clone());
        assert_eq!(prepared.bounds(), s.bounds());
    }

    #[test]
    fn empty_scene_prepares() {
        let prepared = PreparedScene::prepare(GaussianScene::new());
        assert!(prepared.is_empty());
        assert!(prepared.bounds().is_empty());
        assert!(prepared.covariances().is_empty());
    }

    #[test]
    fn roundtrip_preserves_scene() {
        let s = scene();
        let prepared = PreparedScene::prepare(s.clone());
        assert_eq!(prepared.into_scene(), s);
    }

    #[test]
    fn from_impl_prepares() {
        let prepared: PreparedScene = scene().into();
        assert_eq!(prepared.len(), 2);
    }
}
