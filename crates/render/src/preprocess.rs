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
use gaurast_scene::{Camera, GaussianScene, PreparedScene, VisibleSet};
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

/// The exact Stage-1 op tally charged for a Gaussian that survives the
/// depth clip but is culled at the sub-pixel-radius or off-screen branch:
/// projection of the mean, the EWA Jacobian, both 3×3 covariance
/// products, the low-pass filter, the conic inversion, and the
/// eigenvalue/radius computation — everything before the cull that ends
/// it. Both late branches charge identically (the `radius < 1` and
/// screen-bounds tests tally nothing before `continue`).
///
/// A [`VisibleSet`] bills this bundle for every Gaussian it culled
/// laterally, which is what keeps visible-set Stage 1 bit-identical in
/// `ops` to the full pass (`tests::offscreen_cull_bundle_matches_kernel`
/// pins it to the kernel).
pub const OFFSCREEN_CULL_OPS: OpCounts = OpCounts {
    add: 67,
    mul: 108,
    div: 2,
    exp: 0,
    cmp: 5,
};

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
/// kernels of the given [`SimdLevel`]. Chunk outputs are stitched back in
/// index order, so splat order, `source` ids, cull counts, and FP-op
/// tallies are bit-identical to the serial scalar pass for every worker
/// count and level (see [`crate::simd`]). A `level` above
/// [`crate::simd::detected_level`] is clamped down.
pub fn preprocess_pooled_level(
    scene: &GaussianScene,
    camera: &Camera,
    pool: &WorkerPool,
    level: SimdLevel,
) -> PreprocessOutput {
    preprocess_chunked(scene, camera, |_, g| g.covariance(), pool, level)
}

/// Runs Stage 1 over a [`PreparedScene`], reusing its precomputed
/// world-space covariances instead of rebuilding `R diag(s²) Rᵀ` from the
/// quaternion for every Gaussian on every frame. Output is bit-identical
/// with [`preprocess`] over the same scene, at every worker count and
/// level.
///
/// # Example
/// ```
/// use gaurast_render::preprocess::{preprocess, preprocess_prepared_pooled_level};
/// use gaurast_render::{SimdLevel, WorkerPool};
/// use gaurast_scene::{Camera, GaussianScene, Gaussian3, PreparedScene};
/// use gaurast_math::Vec3;
///
/// let scene = GaussianScene::from_gaussians(vec![
///     Gaussian3::isotropic(Vec3::zero(), 0.2, 0.9, Vec3::new(1.0, 0.0, 0.0)),
/// ])?;
/// let cam = Camera::look_at(Vec3::new(0.0, 0.0, -4.0), Vec3::zero(),
///                           Vec3::new(0.0, 1.0, 0.0), 128, 128, 1.0)?;
/// let raw = preprocess(&scene, &cam);
/// let prepared = PreparedScene::prepare(scene);
/// let pool = WorkerPool::serial();
/// assert_eq!(preprocess_prepared_pooled_level(&prepared, &cam, &pool, SimdLevel::Scalar), raw);
/// # Ok::<(), gaurast_scene::SceneError>(())
/// ```
pub fn preprocess_prepared_pooled_level(
    prepared: &PreparedScene,
    camera: &Camera,
    pool: &WorkerPool,
    level: SimdLevel,
) -> PreprocessOutput {
    let covariances = prepared.covariances();
    preprocess_chunked(prepared.scene(), camera, |i, _| covariances[i], pool, level)
}

/// [`preprocess_prepared_pooled_level`] restricted to a [`VisibleSet`]:
/// Stage 1 only iterates the set's surviving indices, in fixed
/// [`PREPROCESS_CHUNK`]-sized chunks of the visible index list, then
/// accounts for the frustum-dropped remainder exactly as the full pass
/// would have — depth-culled Gaussians add to the cull count with zero
/// ops, laterally-culled ones add the fixed [`OFFSCREEN_CULL_OPS`] bundle
/// each. The output is therefore **bit-identical** (splats, order,
/// `source` ids, cull counts, op tallies) to the full pass over the whole
/// scene at every worker count and level; only the wall-clock time
/// shrinks.
///
/// # Panics
/// Panics when the set's generation tag does not match `prepared` (the
/// set was built from a different scene).
pub fn preprocess_prepared_visible_pooled_level(
    prepared: &PreparedScene,
    camera: &Camera,
    visible: &VisibleSet,
    pool: &WorkerPool,
    level: SimdLevel,
) -> PreprocessOutput {
    assert_eq!(
        visible.scene_generation(),
        prepared.generation(),
        "visible set belongs to a different prepared scene"
    );
    let covariances = prepared.covariances();
    let covariance_of = |i: usize, _: &gaurast_scene::Gaussian3| covariances[i];
    let scene = prepared.scene();
    let idx = visible.indices();
    let mut out = if pool.is_serial() || idx.len() <= PREPROCESS_CHUNK {
        preprocess_indices(scene, camera, &covariance_of, idx, level)
    } else {
        let n_chunks = idx.len().div_ceil(PREPROCESS_CHUNK);
        // gaurast-check: allow(alloc): one output slot per Stage-1 chunk,
        // O(visible / PREPROCESS_CHUNK) per frame; each chunk owns the
        // splats it emits until `stitch` merges them into the frame's list.
        let mut chunks: Vec<PreprocessOutput> = vec![PreprocessOutput::default(); n_chunks];
        pool.run_mut(&mut chunks, |c, chunk| {
            let start = c * PREPROCESS_CHUNK;
            let end = (start + PREPROCESS_CHUNK).min(idx.len());
            *chunk = preprocess_indices(scene, camera, &covariance_of, &idx[start..end], level);
        });
        stitch(chunks)
    };
    // The frustum only drops Gaussians Stage 1 would have culled; bill
    // them exactly as the skipped branches would have.
    out.culled += visible.culled_total();
    out.ops += OFFSCREEN_CULL_OPS.scaled(visible.culled_lateral() as u64);
    out
}

/// The shared chunked Stage-1 driver: splits the Gaussian index space into
/// [`PREPROCESS_CHUNK`]-sized jobs, runs them over `pool`, and stitches
/// the chunk outputs back in index order. A serial pool (or a scene that
/// fits one chunk) runs the historical single loop on the calling thread.
fn preprocess_chunked(
    scene: &GaussianScene,
    camera: &Camera,
    covariance_of: impl Fn(usize, &gaurast_scene::Gaussian3) -> Mat3 + Sync,
    pool: &WorkerPool,
    level: SimdLevel,
) -> PreprocessOutput {
    if pool.is_serial() || scene.len() <= PREPROCESS_CHUNK {
        return preprocess_range_level(scene, camera, &covariance_of, 0..scene.len(), level);
    }
    let n_chunks = scene.len().div_ceil(PREPROCESS_CHUNK);
    // gaurast-check: allow(alloc): one output slot per Stage-1 chunk,
    // O(Gaussians / PREPROCESS_CHUNK) per frame; each chunk owns the splats
    // it emits until `stitch` merges them into the frame's list.
    let mut chunks: Vec<PreprocessOutput> = vec![PreprocessOutput::default(); n_chunks];
    pool.run_mut(&mut chunks, |i, chunk| {
        let start = i * PREPROCESS_CHUNK;
        let end = (start + PREPROCESS_CHUNK).min(scene.len());
        *chunk = preprocess_range_level(scene, camera, &covariance_of, start..end, level);
    });
    stitch(chunks)
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

/// The Stage-1 loop over one contiguous Gaussian index range (see
/// [`preprocess_over`]).
fn preprocess_range_level(
    scene: &GaussianScene,
    camera: &Camera,
    covariance_of: &(impl Fn(usize, &gaurast_scene::Gaussian3) -> Mat3 + Sync),
    range: Range<usize>,
    level: SimdLevel,
) -> PreprocessOutput {
    let len = range.len();
    preprocess_over_level(scene, camera, covariance_of, len, range, level)
}

/// The Stage-1 loop over an explicit ascending index list (the visible-set
/// path; see [`preprocess_over`]).
fn preprocess_indices(
    scene: &GaussianScene,
    camera: &Camera,
    covariance_of: &(impl Fn(usize, &gaurast_scene::Gaussian3) -> Mat3 + Sync),
    indices: &[u32],
    level: SimdLevel,
) -> PreprocessOutput {
    preprocess_over_level(
        scene,
        camera,
        covariance_of,
        indices.len(),
        indices.iter().map(|&i| i as usize),
        level,
    )
}

/// Dispatches one Stage-1 index sequence to the AVX2 lane-group kernel
/// (`crate::simd::stage1`) or the scalar reference kernel — bit-identical
/// either way. The single Stage-1 dispatch: it clamps `level` to
/// [`crate::simd::detected_level`], so every public entry point is sound
/// for any requested level.
fn preprocess_over_level(
    scene: &GaussianScene,
    camera: &Camera,
    covariance_of: &(impl Fn(usize, &gaurast_scene::Gaussian3) -> Mat3 + Sync),
    count: usize,
    indices: impl Iterator<Item = usize>,
    level: SimdLevel,
) -> PreprocessOutput {
    match level.min(crate::simd::detected_level()) {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => {
            crate::simd::stage1::preprocess_over_avx2(scene, camera, covariance_of, count, indices)
        }
        _ => preprocess_over(scene, camera, covariance_of, count, indices),
    }
}

/// The Stage-1 loop over an arbitrary ascending Gaussian index sequence,
/// parameterised over where each Gaussian's world-space covariance comes
/// from (computed on the fly for a raw scene, read back for a prepared
/// one). One code path serves the full-range and visible-set entry points,
/// so their per-Gaussian arithmetic — and therefore their outputs — are
/// identical by construction. Emitted `source` ids are global scene
/// indices regardless of the sequence.
fn preprocess_over(
    scene: &GaussianScene,
    camera: &Camera,
    covariance_of: &(impl Fn(usize, &gaurast_scene::Gaussian3) -> Mat3 + Sync),
    count: usize,
    indices: impl Iterator<Item = usize>,
) -> PreprocessOutput {
    let mut out = PreprocessOutput::default();
    out.splats.reserve(count);
    let cam_pos = camera.position();
    let view_rot = camera.view().upper_left_3x3();
    let focal = camera.focal();
    let (w, h) = (camera.width() as f32, camera.height() as f32);
    // Frustum clamp bound from the reference implementation: points are
    // clamped to 1.3× the tangent of the half-FOV before the Jacobian.
    let tan_half_x = 0.5 * w / focal.x;
    let tan_half_y = 0.5 * h / focal.y;

    for i in indices {
        // gaurast-check: allow(panic): visible-set indices are drawn from
        // `0..scene.len()` over this same scene when the set is built.
        let g = scene.get(i).expect("index within scene");
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
        let cov3 = covariance_of(i, g);
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
    fn prepared_path_is_bit_identical() {
        use gaurast_math::Quat;
        use gaurast_scene::PreparedScene;
        let mut a = Gaussian3::isotropic(Vec3::zero(), 0.3, 0.9, Vec3::one());
        a.scale = Vec3::new(0.8, 0.1, 0.3);
        a.rotation = Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), 0.7);
        let b = Gaussian3::isotropic(Vec3::new(1.0, 0.5, 1.0), 0.2, 0.5, Vec3::one());
        let scene = GaussianScene::from_gaussians(vec![a, b]).unwrap();
        let cam = camera();
        let raw = preprocess(&scene, &cam);
        let prepared = PreparedScene::prepare(scene);
        let serial = WorkerPool::serial();
        assert_eq!(
            preprocess_prepared_pooled_level(&prepared, &cam, &serial, SimdLevel::Scalar),
            raw
        );
    }

    #[test]
    fn offscreen_cull_bundle_matches_kernel() {
        // A Gaussian that passes the depth clip but is culled at the
        // screen-bounds branch must charge exactly OFFSCREEN_CULL_OPS —
        // the constant a VisibleSet bills per laterally-dropped Gaussian.
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
        assert_eq!(out.ops, OFFSCREEN_CULL_OPS, "bundle drifted from kernel");
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
    fn visible_set_path_is_bit_identical() {
        use gaurast_scene::generator::SceneParams;
        use gaurast_scene::PreparedScene;
        let scene = SceneParams::new(3000).seed(13).generate().unwrap();
        let cam = Camera::look_at(
            Vec3::new(20.0, 4.0, -18.0),
            Vec3::new(8.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            96,
            64,
            1.05,
        )
        .unwrap();
        let prepared = PreparedScene::prepare(scene);
        let full = preprocess_prepared_pooled_level(
            &prepared,
            &cam,
            &WorkerPool::serial(),
            SimdLevel::Scalar,
        );
        let visible = prepared.visible_set(&cam);
        for workers in [1usize, 4] {
            let pool = WorkerPool::new(workers);
            let culled = preprocess_prepared_visible_pooled_level(
                &prepared,
                &cam,
                &visible,
                &pool,
                SimdLevel::Scalar,
            );
            assert_eq!(
                culled, full,
                "visible-set Stage 1 diverged ({workers} workers)"
            );
        }
    }

    #[test]
    fn empty_visible_set_reproduces_full_cull_accounting() {
        use gaurast_scene::generator::SceneParams;
        use gaurast_scene::PreparedScene;
        let scene = SceneParams::new(400).seed(2).generate().unwrap();
        // Looking straight away from the scene: every Gaussian is behind.
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, -80.0),
            Vec3::new(0.0, 0.0, -160.0),
            Vec3::new(0.0, 1.0, 0.0),
            64,
            64,
            1.0,
        )
        .unwrap();
        let prepared = PreparedScene::prepare(scene);
        let visible = prepared.visible_set(&cam);
        assert!(visible.is_empty());
        let serial = WorkerPool::serial();
        let culled = preprocess_prepared_visible_pooled_level(
            &prepared,
            &cam,
            &visible,
            &serial,
            SimdLevel::Scalar,
        );
        let full = preprocess_prepared_pooled_level(&prepared, &cam, &serial, SimdLevel::Scalar);
        assert_eq!(culled, full);
        assert_eq!(culled.culled, 400);
    }

    #[test]
    #[should_panic(expected = "different prepared scene")]
    fn visible_set_generation_mismatch_panics() {
        use gaurast_scene::generator::SceneParams;
        use gaurast_scene::PreparedScene;
        let a = PreparedScene::prepare(SceneParams::new(10).seed(1).generate().unwrap());
        let b = PreparedScene::prepare(SceneParams::new(10).seed(1).generate().unwrap());
        let cam = camera();
        let set = a.visible_set(&cam);
        let _ = preprocess_prepared_visible_pooled_level(
            &b,
            &cam,
            &set,
            &WorkerPool::serial(),
            SimdLevel::Scalar,
        );
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
