//! The immutable, precomputation-carrying scene asset shared across
//! rendering sessions.
//!
//! A [`GaussianScene`] is validated but *raw*: every renderer that opens a
//! session over it would redo the same camera-independent work — world-space
//! covariances, 3σ radii, the scene bounding box, summary statistics. A
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

use crate::stats::SceneStats;
use crate::visibility::{self, SpatialIndex, VisibleSet};
use crate::{Camera, GaussianScene};
use gaurast_math::{Aabb3, Frustum, Mat3};

/// An immutable scene asset: a validated [`GaussianScene`] plus
/// camera-independent precomputation. The per-Gaussian world covariances
/// feed Stage 1 directly (`preprocess_prepared_pooled_level` reads them
/// back instead of rebuilding them per frame); the bounds, 3σ radii, SH degree, and
/// summary statistics serve the serving layer — capacity planning,
/// placement, and workload introspection over a registry of named scenes.
///
/// Built once with [`PreparedScene::prepare`]; from then on the asset only
/// hands out references, so an `Arc<PreparedScene>` is safe to share
/// across threads (`PreparedScene` is `Send + Sync`) and cheap to hand to
/// each new session.
#[derive(Clone, Debug)]
pub struct PreparedScene {
    scene: GaussianScene,
    bounds: Aabb3,
    covariances: Vec<Mat3>,
    radii: Vec<f32>,
    max_sh_degree: u8,
    stats: SceneStats,
    index: SpatialIndex,
    /// Largest L1 norm of any point inside `bounds` (scales the float
    /// slack of [`PreparedScene::visible_set`]'s frustums).
    coord_l1: f32,
    generation: u64,
}

impl PartialEq for PreparedScene {
    /// Equality over the semantic content. The `generation` tag (unique
    /// per `prepare` call) and the spatial index (a deterministic function
    /// of the scene) are excluded, so two preparations of equal scenes
    /// compare equal.
    fn eq(&self, other: &Self) -> bool {
        (
            &self.scene,
            &self.bounds,
            &self.covariances,
            &self.radii,
            self.max_sh_degree,
            &self.stats,
        ) == (
            &other.scene,
            &other.bounds,
            &other.covariances,
            &other.radii,
            other.max_sh_degree,
            &other.stats,
        )
    }
}

impl PreparedScene {
    /// Runs the one-time precomputation over a validated scene.
    ///
    /// This is the only constructor: the scene's own validation (enforced
    /// by [`GaussianScene::from_gaussians`] / [`GaussianScene::push`])
    /// guarantees every Gaussian is well-formed, so preparation cannot
    /// fail.
    pub fn prepare(scene: GaussianScene) -> Self {
        let mut covariances = Vec::with_capacity(scene.len());
        let mut radii = Vec::with_capacity(scene.len());
        let mut max_sh_degree = 0u8;
        for g in &scene {
            covariances.push(g.covariance());
            radii.push(g.radius_3sigma());
            max_sh_degree = max_sh_degree.max(g.color.degree());
        }
        let bounds = scene.bounds();
        let stats = SceneStats::compute(&scene);
        let index = SpatialIndex::build(&scene, &radii);
        let coord_l1 = if bounds.is_empty() {
            0.0
        } else {
            let lo = bounds.min;
            let hi = bounds.max;
            lo.x.abs().max(hi.x.abs()) + lo.y.abs().max(hi.y.abs()) + lo.z.abs().max(hi.z.abs())
        };
        Self {
            scene,
            bounds,
            covariances,
            radii,
            max_sh_degree,
            stats,
            index,
            coord_l1,
            generation: visibility::next_generation(),
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

    /// Precomputed conservative world-space 3σ radii, one per Gaussian in
    /// scene order.
    #[inline]
    pub fn radii(&self) -> &[f32] {
        &self.radii
    }

    /// Highest spherical-harmonics degree any Gaussian in the scene uses
    /// (0 for an empty scene).
    #[inline]
    pub fn max_sh_degree(&self) -> u8 {
        self.max_sh_degree
    }

    /// Summary statistics computed at preparation time.
    #[inline]
    pub fn stats(&self) -> &SceneStats {
        &self.stats
    }

    /// The coarse spatial index built over the Gaussian positions at
    /// preparation time (cell AABBs + max member 3σ radii), powering
    /// [`PreparedScene::visible_set`].
    #[inline]
    pub fn spatial_index(&self) -> &SpatialIndex {
        &self.index
    }

    /// Generation tag unique to this preparation, carried by every
    /// [`VisibleSet`] built from it so a set can never be applied to a
    /// different scene. Clones share the tag (they are the same asset).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Largest L1 coordinate norm inside the scene bounds — the input for
    /// [`PreparedScene::visible_set`]'s float slack.
    #[inline]
    pub fn coord_l1_bound(&self) -> f32 {
        self.coord_l1
    }

    /// The visible set for a camera, built from the camera's own
    /// [`Camera::frustum`] widened by a slack that covers float evaluation
    /// for coordinates up to [`PreparedScene::coord_l1_bound`] and the
    /// camera's translation. Running Stage 1 over the set is bit-identical
    /// to running it over the whole scene — the frustum only drops
    /// Gaussians Stage 1 would cull anyway (see [`crate::visibility`]).
    pub fn visible_set(&self, camera: &Camera) -> VisibleSet {
        let t = camera.view().translation();
        let t_l1 = t.x.abs() + t.y.abs() + t.z.abs();
        let slack = visibility::FLOAT_SLACK * (self.coord_l1 + t_l1 + 1.0);
        self.visible_set_with(&camera.frustum().with_slack(slack))
    }

    /// The visible set for an explicit conservative [`Frustum`] (callers
    /// supplying their own slack policy).
    pub fn visible_set_with(&self, frustum: &Frustum) -> VisibleSet {
        visibility::visible_set(self, frustum)
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
            assert!(approx_eq(prepared.radii()[i], g.radius_3sigma(), 1e-6));
        }
    }

    #[test]
    fn bounds_and_stats_match_scene() {
        let s = scene();
        let prepared = PreparedScene::prepare(s.clone());
        assert_eq!(prepared.bounds(), s.bounds());
        assert_eq!(prepared.stats(), &SceneStats::compute(&s));
        assert_eq!(prepared.max_sh_degree(), 0);
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
