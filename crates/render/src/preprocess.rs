//! Stage 1 — preprocessing: project 3D Gaussians to 2D screen-space splats.
//!
//! For each Gaussian this computes, exactly as in the 3DGS reference
//! implementation (`preprocessCUDA`):
//!
//! * camera-space depth (culling behind the near plane),
//! * the 2D mean in pixel coordinates,
//! * the 2D covariance via the local-affine (EWA) approximation
//!   `Σ' = J W Σ Wᵀ Jᵀ` with a 0.3-pixel low-pass filter,
//! * the *conic* (inverse 2D covariance) used by the rasterizer,
//! * the 3σ screen-space radius,
//! * the RGB color from spherical harmonics for the current view direction.

use crate::ops::OpCounts;
use crate::pool::WorkerPool;
use crate::simd::SimdLevel;
use gaurast_math::{exp_f32, Mat2, Mat3, Vec2, Vec3};
use gaurast_scene::{Camera, Gaussian3, GaussianScene, VisibleSet};
use std::ops::Range;

/// Gaussians per parallel Stage-1 job. The chunking is *fixed-size*, not
/// per-worker, so the decomposition — and therefore every chunk's locally
/// accumulated output — is independent of the worker count; stitching the
/// chunks back in index order reproduces the serial pass bit for bit.
pub const PREPROCESS_CHUNK: usize = 1024;

/// Low-pass filter added to the diagonal of every projected covariance,
/// guaranteeing each splat spans at least ~one pixel (reference value).
pub const COV2D_LOW_PASS: f32 = 0.3;

/// A preprocessed 2D splat — the per-primitive record Stage 3 consumes.
///
/// Together with the pixel coordinate this is exactly the "9 FP numbers"
/// input of Table II: conic (3), mean (2), color (3), opacity (1) = 9
/// (depth is consumed by the sorter, not the rasterizer inner loop).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Splat2D {
    /// Center in pixel coordinates.
    pub mean: Vec2,
    /// Conic `(a, b, c)`: the inverse 2D covariance `[[a, b], [b, c]]`.
    pub conic: [f32; 3],
    /// Camera-space depth (sorting key).
    pub depth: f32,
    /// RGB color for this view.
    pub color: Vec3,
    /// Opacity `o`.
    pub opacity: f32,
    /// Conservative screen-space radius (3σ), in pixels.
    pub radius: f32,
    /// Index of the source Gaussian in the scene.
    pub source: u32,
}

impl Splat2D {
    /// Gaussian density `exp(-½ dᵀ Σ'⁻¹ d)` at pixel offset `d` from the
    /// mean (no opacity applied).
    #[inline]
    pub fn density_at(&self, p: Vec2) -> f32 {
        let d = p - self.mean;
        let power = -0.5 * (self.conic[0] * d.x * d.x + self.conic[2] * d.y * d.y)
            - self.conic[1] * d.x * d.y;
        if power > 0.0 {
            // Numerical guard from the reference implementation.
            return 0.0;
        }
        exp_f32(power)
    }
}

/// Result of Stage 1 for a whole scene.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PreprocessOutput {
    /// Visible splats (culled Gaussians are absent).
    pub splats: Vec<Splat2D>,
    /// Number of Gaussians culled for any reason (depth clip, degenerate
    /// covariance, vanishing or off-screen footprint, non-finite
    /// projection).
    pub culled: usize,
    /// Of [`PreprocessOutput::culled`], the Gaussians dropped because
    /// their projected mean or radius came out non-finite (covariance
    /// overflow). Without this cull a NaN mean would slip every
    /// sign-based Stage-1 guard and reach tile binning.
    pub culled_non_finite: usize,
    /// FP operations spent (Stage 1 contributes to the end-to-end model).
    pub ops: OpCounts,
}

/// Runs Stage 1 over a scene.
///
/// # Example
/// ```
/// use gaurast_render::preprocess::preprocess;
/// use gaurast_scene::{Camera, GaussianScene, Gaussian3};
/// use gaurast_math::Vec3;
///
/// let scene = GaussianScene::from_gaussians(vec![
///     Gaussian3::isotropic(Vec3::zero(), 0.2, 0.9, Vec3::new(1.0, 0.0, 0.0)),
/// ])?;
/// let cam = Camera::look_at(Vec3::new(0.0, 0.0, -4.0), Vec3::zero(),
///                           Vec3::new(0.0, 1.0, 0.0), 128, 128, 1.0)?;
/// let out = preprocess(&scene, &cam);
/// assert_eq!(out.splats.len(), 1);
/// # Ok::<(), gaurast_scene::SceneError>(())
/// ```
pub fn preprocess(scene: &GaussianScene, camera: &Camera) -> PreprocessOutput {
    preprocess_pooled_level(scene, camera, &WorkerPool::serial(), SimdLevel::Scalar)
}

/// [`preprocess`] with the per-Gaussian loop split into
/// [`PREPROCESS_CHUNK`]-sized chunks fanned over `pool`, running the
/// kernels of the given [`SimdLevel`]. Each Gaussian's world covariance is
/// read from [`GaussianScene::covariances`], never rebuilt. Chunk outputs
/// are stitched back in index order, so splat order, `source` ids, cull
/// counts, and FP-op tallies are bit-identical to the serial scalar pass
/// for every worker count and level (see [`crate::simd`]). A `level` above
/// [`crate::simd::detected_level`] is clamped down. A serial pool (or a
/// scene that fits one chunk) runs the single loop on the calling thread.
pub fn preprocess_pooled_level(
    scene: &GaussianScene,
    camera: &Camera,
    pool: &WorkerPool,
    level: SimdLevel,
) -> PreprocessOutput {
    if pool.is_serial() || scene.len() <= PREPROCESS_CHUNK {
        return preprocess_over_level(scene, camera, 0..scene.len(), level);
    }
    let n_chunks = scene.len().div_ceil(PREPROCESS_CHUNK);
    // gaurast-check: allow(alloc): one output slot per Stage-1 chunk,
    // O(Gaussians / PREPROCESS_CHUNK) per frame; each chunk owns the splats
    // it emits until `stitch` merges them into the frame's list.
    let mut chunks: Vec<PreprocessOutput> = vec![PreprocessOutput::default(); n_chunks];
    pool.run_mut(&mut chunks, |i, chunk| {
        let start = i * PREPROCESS_CHUNK;
        let end = (start + PREPROCESS_CHUNK).min(scene.len());
        *chunk = preprocess_over_level(scene, camera, start..end, level);
    });
    stitch(chunks)
}

/// [`preprocess_pooled_level`] under the name the benchmark harness's
/// traced replay calls: a [`VisibleSet`] stands for the whole scene, so
/// this runs Stage 1 over every Gaussian. Kept for that replay until
/// ROADMAP item 4b deletes it.
pub fn preprocess_prepared_visible_pooled_level(
    scene: &GaussianScene,
    camera: &Camera,
    _visible: &VisibleSet,
    pool: &WorkerPool,
    level: SimdLevel,
) -> PreprocessOutput {
    preprocess_pooled_level(scene, camera, pool, level)
}

/// Merges chunk outputs in index order: splat order and `source` ids match
/// the serial pass exactly; cull counts and op tallies are integer sums.
fn stitch(chunks: Vec<PreprocessOutput>) -> PreprocessOutput {
    let mut out = PreprocessOutput::default();
    out.splats
        .reserve(chunks.iter().map(|c| c.splats.len()).sum());
    for chunk in chunks {
        out.splats.extend(chunk.splats);
        out.culled += chunk.culled;
        out.culled_non_finite += chunk.culled_non_finite;
        out.ops += chunk.ops;
    }
    out
}

/// Dispatches Stage 1 over the Gaussians of one contiguous index range to
/// the AVX2 lane-group kernel (`crate::simd::stage1`) or the scalar
/// reference kernel — bit-identical either way. The single Stage-1
/// dispatch: it clamps `level` to [`crate::simd::detected_level`], so
/// every public entry point is sound for any requested level. The range
/// lies within the scene (the chunked driver cuts it from
/// `0..scene.len()`); a range past the end would project no Gaussian.
fn preprocess_over_level(
    scene: &GaussianScene,
    camera: &Camera,
    Range { start, end }: Range<usize>,
    level: SimdLevel,
) -> PreprocessOutput {
    let gaussians = scene.as_slice().get(start..end).unwrap_or_default();
    let covariances = scene.covariances().get(start..end).unwrap_or_default();
    match level.min(crate::simd::detected_level()) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            crate::simd::stage1::preprocess_over_avx2(gaussians, covariances, start, camera)
        }
        _ => preprocess_over(gaussians, covariances, start, camera),
    }
}

/// The scalar Stage-1 loop over `gaussians`, the scene's Gaussians from
/// index `first` on, with `covariances` their world-space covariances.
/// Emitted `source` ids are global scene indices.
fn preprocess_over(
    gaussians: &[Gaussian3],
    covariances: &[Mat3],
    first: usize,
    camera: &Camera,
) -> PreprocessOutput {
    let mut out = PreprocessOutput::default();
    out.splats.reserve(gaussians.len());
    let cam_pos = camera.position();
    let view_rot = camera.view().upper_left_3x3();
    let focal = camera.focal();
    let (w, h) = (camera.width() as f32, camera.height() as f32);
    // Frustum clamp bound from the reference implementation: points are
    // clamped to 1.3× the tangent of the half-FOV before the Jacobian.
    let tan_half_x = 0.5 * w / focal.x;
    let tan_half_y = 0.5 * h / focal.y;

    for ((i, g), &cov3) in (first..).zip(gaussians).zip(covariances) {
        let p_cam = camera.world_to_camera(g.position);
        // Near-plane cull (reference: z <= 0.2 in scene units scaled; we use
        // the camera's configured near plane).
        if p_cam.z < camera.near() || p_cam.z > camera.far() {
            out.culled += 1;
            continue;
        }
        out.ops.cmp += 2;

        // 2D mean.
        let inv_z = 1.0 / p_cam.z;
        let mean = Vec2::new(
            focal.x * p_cam.x * inv_z + camera.principal().x,
            focal.y * p_cam.y * inv_z + camera.principal().y,
        );
        out.ops.div += 1;
        out.ops.mul += 4;
        out.ops.add += 2;

        // EWA Jacobian of the perspective projection, with the reference
        // clamp to avoid exploding covariances at the frustum edge.
        let tx = (p_cam.x * inv_z).clamp(-1.3 * tan_half_x, 1.3 * tan_half_x) * p_cam.z;
        let ty = (p_cam.y * inv_z).clamp(-1.3 * tan_half_y, 1.3 * tan_half_y) * p_cam.z;
        let j = Mat3::from_rows(
            focal.x * inv_z,
            0.0,
            -focal.x * tx * inv_z * inv_z,
            0.0,
            focal.y * inv_z,
            -focal.y * ty * inv_z * inv_z,
            0.0,
            0.0,
            0.0,
        );
        out.ops.mul += 8;
        out.ops.cmp += 2;

        // Σ' = J W Σ Wᵀ Jᵀ (take the 2×2 block), plus the low-pass filter.
        let t = j * view_rot;
        let cov2_full = t * cov3 * t.transposed();
        // Two 3×3 matrix products ≈ 2 × 27 mul + 2 × 18 add, plus covariance
        // construction; tallied as the reference kernel's FLOP estimate.
        out.ops.mul += 54 + 36;
        out.ops.add += 36 + 24;
        let mut cov2 = cov2_full.upper_left_2x2();
        cov2 = cov2 + Mat2::from_rows(COV2D_LOW_PASS, 0.0, 0.0, COV2D_LOW_PASS);
        out.ops.add += 2;

        let Some(inv) = cov2.inverse() else {
            out.culled += 1;
            continue;
        };
        out.ops.mul += 3;
        out.ops.div += 1;
        out.ops.add += 1;

        // 3σ radius from the largest eigenvalue (reference formula).
        let (l1, _l2) = cov2.symmetric_eigenvalues();
        let radius = (3.0 * l1.max(0.0).sqrt()).ceil();
        out.ops.mul += 3;
        out.ops.add += 2;
        out.ops.cmp += 1;
        // Covariance overflow can make the mean or radius non-finite while
        // slipping every sign-based guard below (`NaN < 1.0` is false), so
        // the splat would be silently binned into tile (0, 0). Cull it
        // with its own counted reason. The guard is diagnostic, not part
        // of the reference kernel's modeled FP work — nothing is tallied.
        if !(mean.is_finite() && radius.is_finite()) {
            out.culled += 1;
            out.culled_non_finite += 1;
            continue;
        }
        if radius < 1.0 {
            out.culled += 1;
            continue;
        }
        // Cull splats entirely off screen.
        if mean.x + radius < 0.0
            || mean.x - radius > w
            || mean.y + radius < 0.0
            || mean.y - radius > h
        {
            out.culled += 1;
            continue;
        }
        out.ops.cmp += 4;

        // View-dependent color.
        let dir = (g.position - cam_pos)
            .try_normalized()
            .unwrap_or(Vec3::new(0.0, 0.0, 1.0));
        let color = g.color.eval(dir);
        // SH evaluation cost grows with degree; tally the dominant terms.
        let n_coeff = g.color.coeffs().len() as u64;
        out.ops.mul += 3 * n_coeff + 9;
        out.ops.add += 3 * n_coeff;

        out.splats.push(Splat2D {
            mean,
            conic: [inv.at(0, 0), inv.at(0, 1), inv.at(1, 1)],
            depth: p_cam.z,
            color,
            opacity: g.opacity,
            radius,
            source: i as u32,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_scene::{Gaussian3, GaussianScene};

    fn camera() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            256,
            256,
            1.0,
        )
        .unwrap()
    }

    fn single(g: Gaussian3) -> GaussianScene {
        GaussianScene::from_gaussians(vec![g]).unwrap()
    }

    #[test]
    fn centered_gaussian_projects_to_image_center() {
        let scene = single(Gaussian3::isotropic(Vec3::zero(), 0.2, 0.9, Vec3::one()));
        let out = preprocess(&scene, &camera());
        assert_eq!(out.splats.len(), 1);
        let s = &out.splats[0];
        assert!((s.mean - Vec2::new(128.0, 128.0)).length() < 0.5);
        assert!((s.depth - 5.0).abs() < 1e-4);
    }

    #[test]
    fn behind_camera_is_culled() {
        let scene = single(Gaussian3::isotropic(
            Vec3::new(0.0, 0.0, -10.0),
            0.2,
            0.9,
            Vec3::one(),
        ));
        let out = preprocess(&scene, &camera());
        assert!(out.splats.is_empty());
        assert_eq!(out.culled, 1);
    }

    #[test]
    fn off_screen_is_culled() {
        let scene = single(Gaussian3::isotropic(
            Vec3::new(100.0, 0.0, 0.0),
            0.01,
            0.9,
            Vec3::one(),
        ));
        let out = preprocess(&scene, &camera());
        assert_eq!(out.culled, 1);
    }

    #[test]
    fn conic_is_inverse_of_projected_covariance() {
        // Isotropic gaussian seen head-on: cov2d ≈ (f σ / z)² I + lowpass;
        // conic diagonal ≈ 1 / that.
        let sigma = 0.5f32;
        let scene = single(Gaussian3::isotropic(Vec3::zero(), sigma, 0.9, Vec3::one()));
        let cam = camera();
        let out = preprocess(&scene, &cam);
        let s = &out.splats[0];
        let f = cam.focal().x;
        let expected = (f * sigma / 5.0).powi(2) + COV2D_LOW_PASS;
        assert!(
            (s.conic[0] - 1.0 / expected).abs() < 0.05 / expected,
            "conic {}",
            s.conic[0]
        );
        assert!(s.conic[1].abs() < 1e-3);
        assert!((s.conic[0] - s.conic[2]).abs() < 1e-2 * s.conic[0]);
    }

    #[test]
    fn radius_tracks_scale() {
        let cam = camera();
        let small = preprocess(
            &single(Gaussian3::isotropic(Vec3::zero(), 0.05, 0.9, Vec3::one())),
            &cam,
        );
        let large = preprocess(
            &single(Gaussian3::isotropic(Vec3::zero(), 0.5, 0.9, Vec3::one())),
            &cam,
        );
        assert!(large.splats[0].radius > 5.0 * small.splats[0].radius);
    }

    #[test]
    fn density_peaks_at_mean() {
        let scene = single(Gaussian3::isotropic(Vec3::zero(), 0.3, 0.9, Vec3::one()));
        let out = preprocess(&scene, &camera());
        let s = &out.splats[0];
        let at_mean = s.density_at(s.mean);
        let off = s.density_at(s.mean + Vec2::new(s.radius / 2.0, 0.0));
        assert!((at_mean - 1.0).abs() < 1e-5);
        assert!(off < at_mean);
        // 3 sigma out, density must be tiny.
        let far = s.density_at(s.mean + Vec2::new(s.radius, 0.0));
        assert!(far < 0.02, "density at 3 sigma = {far}");
    }

    #[test]
    fn nearer_gaussian_has_smaller_depth() {
        let scene = GaussianScene::from_gaussians(vec![
            Gaussian3::isotropic(Vec3::new(0.0, 0.0, -2.0), 0.2, 0.9, Vec3::one()),
            Gaussian3::isotropic(Vec3::new(0.0, 0.0, 2.0), 0.2, 0.9, Vec3::one()),
        ])
        .unwrap();
        let out = preprocess(&scene, &camera());
        assert_eq!(out.splats.len(), 2);
        assert!(out.splats[0].depth < out.splats[1].depth);
        assert_eq!(out.splats[0].source, 0);
    }

    #[test]
    fn ops_are_counted() {
        let scene = single(Gaussian3::isotropic(Vec3::zero(), 0.2, 0.9, Vec3::one()));
        let out = preprocess(&scene, &camera());
        assert!(out.ops.mul > 50);
        assert!(out.ops.div >= 2);
    }

    #[test]
    fn offscreen_cull_bundle_matches_kernel() {
        // A Gaussian that passes the depth clip but is culled at the
        // screen-bounds branch charges everything before that cull: the
        // mean projection, the EWA Jacobian, both 3×3 covariance products,
        // the low-pass filter, the conic inversion and the eigenvalue and
        // radius computation. The sub-pixel-radius cull charges the same
        // bundle (its test tallies nothing before `continue`).
        let scene = single(Gaussian3::isotropic(
            Vec3::new(100.0, 0.0, 0.0),
            0.01,
            0.9,
            Vec3::one(),
        ));
        let out = preprocess(&scene, &camera());
        assert!(out.splats.is_empty());
        assert_eq!(out.culled, 1);
        assert_eq!(out.culled_non_finite, 0);
        let bundle = OpCounts {
            add: 67,
            mul: 108,
            div: 2,
            exp: 0,
            cmp: 5,
        };
        assert_eq!(out.ops, bundle, "bundle drifted from kernel");
    }

    #[test]
    fn non_finite_projection_is_culled_with_reason() {
        // Extreme anisotropy: the projected x-variance stays finite but
        // its square overflows inside the eigenvalue computation, so the
        // 3σ radius comes out infinite. Without the dedicated cull this
        // splat would slip every sign-based guard and reach binning as a
        // full-screen primitive.
        let mut g = Gaussian3::isotropic(Vec3::zero(), 1.0, 0.9, Vec3::one());
        g.scale = Vec3::new(5.0e16, 1.0e-3, 1.0e-3);
        let out = preprocess(&single(g), &camera());
        assert!(out.splats.is_empty(), "non-finite splat reached output");
        assert_eq!(out.culled, 1);
        assert_eq!(out.culled_non_finite, 1);
    }

    #[test]
    fn anisotropic_gaussian_elliptical_conic() {
        let mut g = Gaussian3::isotropic(Vec3::zero(), 0.1, 0.9, Vec3::one());
        g.scale = Vec3::new(1.0, 0.05, 0.05);
        let out = preprocess(&single(g), &camera());
        let s = &out.splats[0];
        // Much tighter along y than x: conic c >> conic a.
        assert!(s.conic[2] > 10.0 * s.conic[0], "conic {:?}", s.conic);
    }
}
