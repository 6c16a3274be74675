//! 3D Gaussian scene representation.
//!
//! A scene is a set of anisotropic 3D Gaussians, each parameterised exactly
//! as in the 3DGS paper (Kerbl et al., SIGGRAPH 2023): center `µ`, per-axis
//! standard deviations `s`, orientation quaternion `q`, opacity `o`, and a
//! spherical-harmonics color. The world-space covariance is
//! `Σ = R(q) · diag(s²) · R(q)ᵀ`; a [`GaussianScene`] computes it once per
//! Gaussian, when it validates the Gaussian, and Stage 1 reads it back on
//! every frame.

use crate::SceneError;
use gaurast_math::{sh, Aabb3, Mat3, Quat, Vec3};

/// View-dependent color stored as spherical-harmonics coefficients.
///
/// Degree 0 is a flat color; the paper's scenes use degree 3 (16
/// coefficients per channel).
#[derive(Clone, Debug, PartialEq)]
pub struct ShColor {
    degree: u8,
    coeffs: Vec<Vec3>,
}

impl ShColor {
    /// Flat (view-independent) color from RGB in `[0, 1]`.
    pub fn flat(rgb: Vec3) -> Self {
        Self {
            degree: 0,
            coeffs: vec![sh::dc_from_rgb(rgb)],
        }
    }

    /// Color from raw SH coefficients.
    ///
    /// # Errors
    /// Returns [`SceneError::InvalidParameter`] when the coefficient count
    /// does not match `(degree+1)²` or the degree exceeds 3.
    pub fn from_coeffs(degree: u8, coeffs: Vec<Vec3>) -> Result<Self, SceneError> {
        if degree > sh::MAX_DEGREE {
            return Err(SceneError::InvalidParameter(format!(
                "sh degree {degree} exceeds the maximum of {}",
                sh::MAX_DEGREE
            )));
        }
        let needed = sh::coeff_count(degree);
        if coeffs.len() != needed {
            return Err(SceneError::InvalidParameter(format!(
                "sh degree {degree} needs {needed} coefficients, got {}",
                coeffs.len()
            )));
        }
        Ok(Self { degree, coeffs })
    }

    /// SH degree.
    #[inline]
    pub fn degree(&self) -> u8 {
        self.degree
    }

    /// Raw coefficients (`(degree+1)²` entries).
    #[inline]
    pub fn coeffs(&self) -> &[Vec3] {
        &self.coeffs
    }

    /// Evaluates the RGB color for a unit view direction (camera → Gaussian).
    #[inline]
    pub fn eval(&self, dir: Vec3) -> Vec3 {
        sh::eval(self.degree, &self.coeffs, dir)
    }
}

/// One anisotropic 3D Gaussian primitive.
#[derive(Clone, Debug, PartialEq)]
pub struct Gaussian3 {
    /// Center `µ` in world space.
    pub position: Vec3,
    /// Per-axis standard deviations (all positive).
    pub scale: Vec3,
    /// Orientation.
    pub rotation: Quat,
    /// Opacity `o ∈ (0, 1]`.
    pub opacity: f32,
    /// View-dependent color.
    pub color: ShColor,
}

impl Gaussian3 {
    /// Isotropic Gaussian with a flat color — the simplest useful primitive.
    ///
    /// # Example
    /// ```
    /// use gaurast_scene::Gaussian3;
    /// use gaurast_math::Vec3;
    /// let g = Gaussian3::isotropic(Vec3::zero(), 0.1, 0.8, Vec3::new(1.0, 0.0, 0.0));
    /// assert!(g.validate().is_ok());
    /// ```
    pub fn isotropic(position: Vec3, sigma: f32, opacity: f32, rgb: Vec3) -> Self {
        Self {
            position,
            scale: Vec3::splat(sigma),
            rotation: Quat::identity(),
            opacity,
            color: ShColor::flat(rgb),
        }
    }

    /// World-space 3×3 covariance `R diag(s²) Rᵀ`.
    pub fn covariance(&self) -> Mat3 {
        let r = self.rotation.to_mat3();
        let s2 = Mat3::from_diagonal(self.scale.hadamard(self.scale));
        r * s2 * r.transposed()
    }

    /// Conservative world-space radius: three standard deviations along the
    /// longest axis (the same 3σ cut-off the reference rasterizer uses in
    /// screen space).
    #[inline]
    pub fn radius_3sigma(&self) -> f32 {
        3.0 * self.scale.max_component()
    }

    /// Checks every parameter is in its valid domain.
    ///
    /// # Errors
    /// Returns a [`SceneError::InvalidGaussian`] (with index 0; callers
    /// re-index) describing the first violated constraint.
    pub fn validate(&self) -> Result<(), SceneError> {
        let fail = |reason: String| Err(SceneError::InvalidGaussian { index: 0, reason });
        if !self.position.is_finite() {
            return fail(format!("non-finite position {}", self.position));
        }
        if !self.scale.is_finite() || self.scale.min_component() <= 0.0 {
            return fail(format!(
                "scale must be positive and finite, got {}",
                self.scale
            ));
        }
        if !(self.opacity > 0.0 && self.opacity <= 1.0) {
            return fail(format!("opacity must be in (0, 1], got {}", self.opacity));
        }
        if self.rotation.norm() < 1e-6 {
            return fail("zero quaternion".to_string());
        }
        Ok(())
    }
}

/// An owned collection of 3D Gaussians — the 3DGS scene representation.
///
/// Construction validates every Gaussian so the rendering and hardware
/// crates can assume well-formed input, and stores its world-space
/// covariance ([`Gaussian3::covariance`]) next to it, the one
/// camera-independent value Stage 1 needs per Gaussian. The scene hands
/// out no `&mut` Gaussian, so the two can never disagree.
#[derive(Clone, Debug, Default)]
pub struct GaussianScene {
    gaussians: Vec<Gaussian3>,
    /// `covariances[i]` is `gaussians[i].covariance()`.
    covariances: Vec<Mat3>,
}

/// Two scenes are equal when their Gaussians are: the covariances are a
/// function of them.
impl PartialEq for GaussianScene {
    fn eq(&self, other: &Self) -> bool {
        self.gaussians == other.gaussians
    }
}

impl GaussianScene {
    /// Empty scene.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a scene from Gaussians, validating each one and computing
    /// its world-space covariance.
    ///
    /// # Errors
    /// Returns the first validation failure with its index.
    pub fn from_gaussians(gaussians: Vec<Gaussian3>) -> Result<Self, SceneError> {
        for (index, g) in gaussians.iter().enumerate() {
            g.validate().map_err(|e| match e {
                SceneError::InvalidGaussian { reason, .. } => {
                    SceneError::InvalidGaussian { index, reason }
                }
                other => other,
            })?;
        }
        let covariances = gaussians.iter().map(Gaussian3::covariance).collect();
        Ok(Self {
            gaussians,
            covariances,
        })
    }

    /// Returns `scene` unchanged: every scene carries its covariances from
    /// construction on. A harness name: the benchmark harness calls it as
    /// `PreparedScene::prepare`, and it stays until ROADMAP item 4b
    /// retires it. Nothing in the workspace calls it.
    #[inline]
    pub fn prepare(scene: Self) -> Self {
        scene
    }

    /// Number of Gaussians.
    #[inline]
    pub fn len(&self) -> usize {
        self.gaussians.len()
    }

    /// `true` when the scene has no Gaussians.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gaussians.is_empty()
    }

    /// Gaussian at `index`.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&Gaussian3> {
        self.gaussians.get(index)
    }

    /// Iterates over the Gaussians.
    pub fn iter(&self) -> std::slice::Iter<'_, Gaussian3> {
        self.gaussians.iter()
    }

    /// Appends a Gaussian after validating it.
    ///
    /// # Errors
    /// Returns a [`SceneError::InvalidGaussian`] with the would-be index.
    pub fn push(&mut self, g: Gaussian3) -> Result<(), SceneError> {
        g.validate().map_err(|e| match e {
            SceneError::InvalidGaussian { reason, .. } => SceneError::InvalidGaussian {
                index: self.gaussians.len(),
                reason,
            },
            other => other,
        })?;
        self.covariances.push(g.covariance());
        self.gaussians.push(g);
        Ok(())
    }

    /// World-space bounding box of all Gaussian centers expanded by their
    /// 3σ radii. Empty box for an empty scene.
    pub fn bounds(&self) -> Aabb3 {
        let mut b = Aabb3::empty();
        for g in &self.gaussians {
            let r = Vec3::splat(g.radius_3sigma());
            b.expand(g.position - r);
            b.expand(g.position + r);
        }
        b
    }

    /// Gaussians as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Gaussian3] {
        &self.gaussians
    }

    /// World-space covariances `R diag(s²) Rᵀ`, one per Gaussian in scene
    /// order: entry `i` holds the bits [`Gaussian3::covariance`] gives for
    /// Gaussian `i`.
    #[inline]
    pub fn covariances(&self) -> &[Mat3] {
        &self.covariances
    }
}

impl<'a> IntoIterator for &'a GaussianScene {
    type Item = &'a Gaussian3;
    type IntoIter = std::slice::Iter<'a, Gaussian3>;
    fn into_iter(self) -> Self::IntoIter {
        self.gaussians.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::approx_eq;

    fn unit_gaussian() -> Gaussian3 {
        Gaussian3::isotropic(Vec3::zero(), 0.5, 0.9, Vec3::splat(0.5))
    }

    #[test]
    fn isotropic_covariance_is_diagonal() {
        let g = Gaussian3::isotropic(Vec3::zero(), 2.0, 1.0, Vec3::one());
        let cov = g.covariance();
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 4.0 } else { 0.0 };
                assert!(approx_eq(cov.at(i, j), expected, 1e-5));
            }
        }
    }

    #[test]
    fn covariance_rotation_invariant_trace() {
        let mut g = unit_gaussian();
        g.scale = Vec3::new(1.0, 2.0, 3.0);
        let trace_before: f32 = (0..3).map(|i| g.covariance().at(i, i)).sum();
        g.rotation = Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), 0.8);
        let trace_after: f32 = (0..3).map(|i| g.covariance().at(i, i)).sum();
        assert!(approx_eq(trace_before, trace_after, 1e-4));
    }

    #[test]
    fn covariance_is_symmetric_psd() {
        let mut g = unit_gaussian();
        g.scale = Vec3::new(0.1, 1.5, 0.7);
        g.rotation = Quat::from_axis_angle(Vec3::new(0.6, 0.0, 0.8), 1.2);
        let cov = g.covariance();
        for i in 0..3 {
            for j in 0..3 {
                assert!(approx_eq(cov.at(i, j), cov.at(j, i), 1e-5));
            }
        }
        assert!(cov.determinant() > 0.0);
    }

    #[test]
    fn validate_rejects_bad_opacity() {
        let mut g = unit_gaussian();
        g.opacity = 0.0;
        assert!(g.validate().is_err());
        g.opacity = 1.5;
        assert!(g.validate().is_err());
        g.opacity = 1.0;
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_scale() {
        let mut g = unit_gaussian();
        g.scale = Vec3::new(1.0, -0.1, 1.0);
        assert!(g.validate().is_err());
        g.scale = Vec3::new(1.0, f32::NAN, 1.0);
        assert!(g.validate().is_err());
    }

    #[test]
    fn scene_reports_offending_index() {
        let mut bad = unit_gaussian();
        bad.opacity = -1.0;
        let err = GaussianScene::from_gaussians(vec![unit_gaussian(), bad]).unwrap_err();
        match err {
            SceneError::InvalidGaussian { index, .. } => assert_eq!(index, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bounds_cover_3sigma() {
        let g = Gaussian3::isotropic(Vec3::new(10.0, 0.0, 0.0), 1.0, 0.5, Vec3::one());
        let scene = GaussianScene::from_gaussians(vec![g]).unwrap();
        let b = scene.bounds();
        assert!(b.contains(Vec3::new(13.0, 0.0, 0.0)));
        assert!(b.contains(Vec3::new(7.0, -3.0, 3.0)));
        assert!(!b.contains(Vec3::new(13.1, 0.0, 0.0)));
    }

    #[test]
    fn sh_color_flat_roundtrip() {
        let rgb = Vec3::new(0.2, 0.6, 0.9);
        let c = ShColor::flat(rgb);
        let back = c.eval(Vec3::new(0.0, 0.0, 1.0));
        assert!((back - rgb).length() < 1e-5);
    }

    #[test]
    fn sh_color_coeff_count_enforced() {
        assert!(ShColor::from_coeffs(1, vec![Vec3::zero(); 3]).is_err());
        assert!(ShColor::from_coeffs(1, vec![Vec3::zero(); 4]).is_ok());
        assert!(ShColor::from_coeffs(5, vec![Vec3::zero(); 36]).is_err());
    }

    #[test]
    fn covariances_match_per_gaussian_computation() {
        let bits = |m: Mat3| -> [u32; 9] { std::array::from_fn(|k| m.at(k / 3, k % 3).to_bits()) };
        let assert_stored = |scene: &GaussianScene, what: &str| {
            assert_eq!(scene.covariances().len(), scene.len(), "{what}");
            for (i, (g, cov)) in scene.iter().zip(scene.covariances()).enumerate() {
                assert_eq!(bits(*cov), bits(g.covariance()), "{what}: Gaussian {i}");
            }
        };
        let mut rotated = unit_gaussian();
        rotated.scale = Vec3::new(0.1, 1.5, 0.7);
        rotated.rotation = Quat::from_axis_angle(Vec3::new(0.6, 0.0, 0.8), 1.2);

        let built = GaussianScene::from_gaussians(vec![unit_gaussian(), rotated.clone()]).unwrap();
        assert_stored(&built, "from_gaussians");

        let mut pushed = GaussianScene::new();
        pushed.push(rotated).unwrap();
        let mut bad = unit_gaussian();
        bad.opacity = 0.0;
        assert!(pushed.push(bad).is_err());
        pushed.push(unit_gaussian()).unwrap();
        assert_stored(&pushed, "push, a rejected Gaussian between");

        let generated = crate::generator::SceneParams::new(64)
            .seed(4)
            .sh_degree(1)
            .generate()
            .unwrap();
        let bytes = crate::ply::to_ply(&generated).unwrap();
        assert_stored(&crate::ply::from_ply(&bytes).unwrap(), "PLY round trip");
    }

    #[test]
    fn push_validates() {
        let mut scene = GaussianScene::new();
        assert!(scene.push(unit_gaussian()).is_ok());
        let mut bad = unit_gaussian();
        bad.scale = Vec3::zero();
        let err = scene.push(bad).unwrap_err();
        match err {
            SceneError::InvalidGaussian { index, .. } => assert_eq!(index, 1),
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(scene.len(), 1);
    }
}
