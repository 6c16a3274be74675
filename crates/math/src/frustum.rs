//! Conservative view-frustum culling tests for splat pipelines.
//!
//! A [`Frustum`] answers one question about a world-space sphere (a
//! Gaussian center plus its conservative 3σ radius): *is it certain that
//! the rasterizer's Stage-1 preprocessing would cull this primitive?* The
//! tests are **conservative by construction** — they may answer
//! [`Visibility::Visible`] for a primitive Stage 1 goes on to cull, but
//! they must never cull a primitive Stage 1 would keep. That one-sided
//! contract is what lets a visible-set prefilter skip Stage-1 work while
//! leaving the rendered image, splat order, and statistics bit-identical
//! to the unfiltered pipeline (see `gaurast_scene::visibility`).
//!
//! Two cull classes are distinguished because they correspond to Stage-1
//! cull branches with different operation costs:
//!
//! * [`Visibility::CulledDepth`] — the center's camera-space depth lies
//!   outside `[near, far]`. Stage 1 culls such Gaussians before any
//!   tallied arithmetic.
//! * [`Visibility::CulledLateral`] — the depth is certainly in range but
//!   the projected 3σ footprint is certainly outside the image bounds (or
//!   smaller than a pixel). Stage 1 only discovers this after projecting
//!   the full covariance, so these culls carry a fixed op bundle.
//!
//! # Why the lateral test is safe
//!
//! Stage 1 culls a splat laterally when its projected mean `m` and ceiled
//! 3σ pixel radius `ρ` satisfy e.g. `m.x + ρ < 0`. For a Gaussian with
//! world 3σ radius `r = 3·σ_max` at camera-space position `p` (depth
//! `z ≥ near`), the EWA-projected radius is bounded by
//!
//! ```text
//! ρ ≤ 3·sqrt(λ_max(J Σ Jᵀ) + 0.3) + 1 ≤ (C/z)·r + 3·sqrt(0.3) + 1
//! ```
//!
//! where `C = sqrt(fx² + fy² + (0.65·w)² + (0.65·h)²)` bounds the
//! Frobenius norm of `z·J` under the reference Jacobian clamp
//! (`|t_x/z| ≤ 1.3·tan(fov_x/2)`, so the off-diagonal terms are at most
//! `1.3·w/2 / z`), and the `+1` absorbs the `ceil`. Hence
//! `3·sqrt(0.3) + 1 < 2.65 <` [`MARGIN_PX`], and multiplying the pixel
//! inequality `m.x + ρ < 0` through by `z > 0` turns each image edge into
//! a camera-space half-space test through the origin with an effective
//! radius `C·r`:
//!
//! ```text
//! fx·p.x + (cx + MARGIN_PX)·p.z + C·r < 0   ⇒   Stage 1 culls.
//! ```
//!
//! An additional absolute [`Frustum::with_slack`] widens every comparison
//! by a caller-supplied camera-space error bound (visible sets scale it
//! to the scene's coordinates); a magnitude-scaled float-error padding is
//! always applied on top, so even a zero-slack frustum never culls a
//! sphere whose Stage-1 evaluation rounds the other way. Lateral
//! certification additionally demands overflow headroom (see
//! `lateral_overflow_safe`): when the projection could overflow into
//! Stage 1's degenerate-conic or non-finite branches — whose op
//! accounting differs from the off-screen bundle — the sphere is kept.
//! All comparisons are ordered so that NaN or infinite intermediate
//! values fall through to `Visible` — overflow can only make the filter
//! keep more, never cull more.

use crate::aabb::Aabb3;
use crate::mat::Mat4;
use crate::vec::{Vec2, Vec3};

/// Extra pixel margin added to the image bounds in the lateral tests.
/// Must exceed the `3·sqrt(0.3) + 1 ≈ 2.65` slop between the projected
/// covariance bound and Stage 1's low-pass-filtered, ceiled pixel radius
/// (see the module-level documentation on [`Frustum`]'s source module).
pub const MARGIN_PX: f32 = 4.0;

/// Answer of a frustum query for a sphere or a cell of spheres.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Visibility {
    /// Possibly visible — Stage 1 must process it. This is the
    /// conservative default: every uncertain case lands here.
    Visible,
    /// Certainly culled by the depth test (`z < near` or `z > far`), the
    /// zero-cost Stage-1 cull branch.
    CulledDepth,
    /// Depth certainly in range, footprint certainly off-image — the
    /// Stage-1 cull branch reached after full covariance projection.
    CulledLateral,
    /// (Cell queries only.) Members fall in different classes; test each
    /// sphere individually. [`Frustum::classify`] never returns this.
    Mixed,
}

/// A camera-space lateral half-space through the origin: a sphere is
/// certainly outside the image edge when `n·p_cam + C·r < -slack`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct LateralPlane {
    n: Vec3,
    /// L1 norm of `n`, scaling the absolute slack for this plane (an
    /// ∞-norm position error of `s` moves the dot product by at most
    /// `|n|₁·s`).
    n_l1: f32,
}

/// A conservative view frustum for one pinhole camera. It answers "is it
/// certain Stage 1 would cull this sphere?" — it may keep a primitive
/// Stage 1 goes on to cull, but never culls one Stage 1 would keep (the
/// contract and the safety argument live in this module's source-level
/// documentation, `crates/math/src/frustum.rs`).
#[derive(Clone, Debug, PartialEq)]
pub struct Frustum {
    view: Mat4,
    near: f32,
    far: f32,
    lateral: [LateralPlane; 4],
    /// `C`: multiplies world radii into camera-space lateral slack.
    radius_scale: f32,
    /// Absolute ∞-norm bound on camera-space position error, set by
    /// [`Frustum::with_slack`]; 0 by default.
    slack: f32,
    /// World-space affine forms `(w, d)` with `w·p + d` equal to the
    /// camera-space z and the four lateral dot products — used for cheap
    /// interval tests over AABBs.
    forms: [(Vec3, f32); 5],
}

impl Frustum {
    /// Builds the frustum of a pinhole camera: `view` maps world to
    /// camera space (+Z forward), `focal`/`principal` are in pixels, and
    /// `near`/`far` bound the kept depth range. Slack starts at zero; use
    /// [`Frustum::with_slack`] when the view matrix is approximate.
    pub fn new(
        view: Mat4,
        width: u32,
        height: u32,
        focal: Vec2,
        principal: Vec2,
        near: f32,
        far: f32,
    ) -> Self {
        let (w, h) = (width as f32, height as f32);
        let radius_scale = (focal.x * focal.x
            + focal.y * focal.y
            + (0.65 * w) * (0.65 * w)
            + (0.65 * h) * (0.65 * h))
            .sqrt();
        // Stage 1 keeps a splat only if its pixel box touches [0,w]x[0,h];
        // each edge becomes one camera-space half-space (module docs).
        let normals = [
            Vec3::new(focal.x, 0.0, principal.x + MARGIN_PX),
            Vec3::new(-focal.x, 0.0, w + MARGIN_PX - principal.x),
            Vec3::new(0.0, focal.y, principal.y + MARGIN_PX),
            Vec3::new(0.0, -focal.y, h + MARGIN_PX - principal.y),
        ];
        let lateral = normals.map(|n| LateralPlane {
            n,
            n_l1: n.x.abs() + n.y.abs() + n.z.abs(),
        });
        let rot = view.upper_left_3x3();
        let t = view.translation();
        let compose = |n: Vec3| (rot.transposed() * n, n.dot(t));
        let forms = [
            compose(Vec3::new(0.0, 0.0, 1.0)),
            compose(normals[0]),
            compose(normals[1]),
            compose(normals[2]),
            compose(normals[3]),
        ];
        Self {
            view,
            near,
            far,
            lateral,
            radius_scale,
            slack: 0.0,
            forms,
        }
    }

    /// Returns the frustum with an absolute conservative slack: an upper
    /// bound on the ∞-norm error of camera-space positions computed
    /// through this frustum's view matrix relative to the exact camera the
    /// caller will render with (floating-point evaluation differences, or
    /// any approximation of the view matrix). Every cull decision is
    /// widened by it.
    pub fn with_slack(mut self, slack: f32) -> Self {
        self.slack = slack.max(0.0);
        self
    }

    /// The effective-radius scale `C` (world radii are multiplied by it in
    /// the lateral tests).
    #[inline]
    pub fn radius_scale(&self) -> f32 {
        self.radius_scale
    }

    /// The configured conservative slack.
    #[inline]
    pub fn slack(&self) -> f32 {
        self.slack
    }

    /// Classifies one sphere (center `p`, conservative world radius `r`).
    /// Never returns [`Visibility::Mixed`]; any NaN/∞ intermediate yields
    /// `Visible` (the safe answer).
    pub fn classify(&self, p: Vec3, r: f32) -> Visibility {
        let pc = self.view.transform_point(p).truncate();
        // Self-computed float slack: even a zero-slack frustum must not
        // cull a sphere whose Stage-1 evaluation rounds the other way.
        let eps = FLOAT_EPS * (1.0 + pc.x.abs() + pc.y.abs() + pc.z.abs());
        let z_slack = self.slack + eps;
        if pc.z < self.near - z_slack || pc.z > self.far + z_slack {
            return Visibility::CulledDepth;
        }
        // Lateral culls bill Stage 1's off-screen op bundle, which is only
        // correct when the depth test certainly passes and the projection
        // certainly stays finite (see `lateral_overflow_safe`).
        if pc.z >= self.near + z_slack && pc.z <= self.far - z_slack {
            let rr = self.radius_scale * r;
            let dots = self.lateral.map(|plane| plane.n.dot(pc));
            if lateral_overflow_safe(rr, pc.z, dots.iter().fold(0.0f32, |m, d| m.max(d.abs()))) {
                for (dot, plane) in dots.iter().zip(&self.lateral) {
                    let plane_slack = plane.n_l1 * z_slack + FLOAT_EPS * rr;
                    if dot + rr < -plane_slack {
                        return Visibility::CulledLateral;
                    }
                }
            }
        }
        Visibility::Visible
    }

    /// Classifies a whole cell: an AABB of sphere centers whose radii are
    /// all at most `max_radius`. `CulledDepth`/`CulledLateral` certify
    /// *every* member sphere is in that class; `Visible` certifies no
    /// member would be culled by [`Frustum::classify`]; `Mixed` means the
    /// members must be tested individually.
    pub fn classify_aabb(&self, aabb: &Aabb3, max_radius: f32) -> Visibility {
        if aabb.is_empty() {
            return Visibility::Mixed;
        }
        let (z_lo, z_hi, z_mag) = interval(self.forms[0], aabb);
        // The interval evaluation rounds differently from the per-point
        // transform; pad every certification by its magnitude-scaled
        // float error (independent of the caller's slack).
        let z_slack = self.slack + FLOAT_EPS * (1.0 + z_mag);
        if z_hi < self.near - z_slack || z_lo > self.far + z_slack {
            return Visibility::CulledDepth;
        }
        let depth_certain = z_lo >= self.near + z_slack && z_hi <= self.far - z_slack;
        let mut all_inside = z_lo > self.near - z_slack && z_hi < self.far + z_slack;
        let rr = self.radius_scale * max_radius;
        let mut max_abs_dot = 0.0f32;
        let mut bounds = [(0.0f32, 0.0f32); 4];
        for (slot, form) in bounds.iter_mut().zip(&self.forms[1..]) {
            let (lo, hi, mag) = interval(*form, aabb);
            max_abs_dot = max_abs_dot.max(lo.abs()).max(hi.abs()).max(mag);
            *slot = (lo, hi);
        }
        // `z_lo` lower-bounds every member depth in the depth-certain
        // branch, which is the only place the guard is consulted.
        let overflow_safe = lateral_overflow_safe(rr, z_lo, max_abs_dot);
        for (plane, &(lo, hi)) in self.lateral.iter().zip(&bounds) {
            let plane_slack = plane.n_l1 * z_slack + FLOAT_EPS * rr;
            if depth_certain && overflow_safe && hi + rr < -plane_slack {
                return Visibility::CulledLateral;
            }
            // `Visible` needs every member to pass the per-sphere test,
            // which holds when even the radius-0 lower bound clears it
            // (NaN bounds fail the comparison and demote to Mixed).
            all_inside = all_inside && lo >= -plane_slack;
        }
        if all_inside {
            Visibility::Visible
        } else {
            Visibility::Mixed
        }
    }
}

/// Whether a lateral cull certification has enough overflow headroom.
///
/// The off-screen op bundle billed for a lateral cull assumes Stage 1
/// reaches its `radius < 1` / screen-bounds branch — which requires the
/// projected mean and radius to stay *finite*. Far outside these bounds
/// the projection can overflow into the degenerate-conic or non-finite
/// branches, whose accounting differs, so the frustum must keep such
/// spheres and let Stage 1 decide:
///
/// * `rr / z ≤ 1e9` keeps the projected variance bound `(C·r / (3z))²`
///   and its squared eigenvalue midpoint far below `f32::MAX`;
/// * `rr ≤ 1e16` keeps the 3×3 covariance intermediates finite even at
///   extreme depths;
/// * `|dot| / z ≤ 1e12` keeps the projected mean
///   (`|fx·x/z| ≤ |dot|/z + cx + margin`) far below `f32::MAX`.
///
/// NaN inputs fail every comparison, vetoing the certification.
#[inline]
fn lateral_overflow_safe(rr: f32, z_floor: f32, max_abs_dot: f32) -> bool {
    rr <= z_floor * 1.0e9 && rr <= 1.0e16 && max_abs_dot <= z_floor * 1.0e12
}

/// Relative float-error budget for conservative comparisons: a generous
/// bound on the rounding difference between the frustum's evaluations and
/// Stage 1's (both accumulate a handful of products, so a few ulps —
/// `FLOAT_EPS` leaves two orders of magnitude of headroom).
const FLOAT_EPS: f32 = 1e-5;

/// Range of the affine form `w·p + d` over an AABB (exact per-axis
/// min/max), plus the magnitude sum the caller scales its float-error
/// padding by.
#[inline]
fn interval((w, d): (Vec3, f32), aabb: &Aabb3) -> (f32, f32, f32) {
    let mut lo = d;
    let mut hi = d;
    let mut mag = d.abs();
    for axis in 0..3 {
        let (wa, a, b) = (w[axis], aabb.min[axis], aabb.max[axis]);
        let (x, y) = (wa * a, wa * b);
        lo += x.min(y);
        hi += x.max(y);
        mag += x.abs().max(y.abs());
    }
    (lo, hi, mag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::look_at;

    fn frustum() -> Frustum {
        // Camera at -5z looking at the origin, 128x128, f = 106.5 px
        // (fov_y = 1.0), near 0.01, far 1e4 — mirrors Camera::look_at.
        let view = look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let f = 128.0 / (2.0 * (0.5f32).tan());
        Frustum::new(
            view,
            128,
            128,
            Vec2::new(f, f),
            Vec2::new(64.0, 64.0),
            0.01,
            1.0e4,
        )
    }

    #[test]
    fn center_sphere_is_visible() {
        assert_eq!(frustum().classify(Vec3::zero(), 0.5), Visibility::Visible);
    }

    #[test]
    fn behind_camera_is_depth_culled() {
        assert_eq!(
            frustum().classify(Vec3::new(0.0, 0.0, -10.0), 0.5),
            Visibility::CulledDepth
        );
    }

    #[test]
    fn beyond_far_is_depth_culled() {
        assert_eq!(
            frustum().classify(Vec3::new(0.0, 0.0, 2.0e4), 0.5),
            Visibility::CulledDepth
        );
    }

    #[test]
    fn far_off_axis_is_laterally_culled() {
        // Well to the side at moderate depth: depth passes, footprint
        // cannot reach the image.
        assert_eq!(
            frustum().classify(Vec3::new(100.0, 0.0, 0.0), 0.1),
            Visibility::CulledLateral
        );
    }

    #[test]
    fn huge_radius_is_kept() {
        // The 3σ sphere of a huge Gaussian could project anywhere: keep.
        assert_eq!(
            frustum().classify(Vec3::new(100.0, 0.0, 0.0), 1000.0),
            Visibility::Visible
        );
    }

    #[test]
    fn non_finite_inputs_fall_through_to_visible() {
        let fr = frustum();
        assert_eq!(
            fr.classify(Vec3::new(f32::MAX, f32::MAX, 0.0), f32::INFINITY),
            Visibility::Visible
        );
        assert_eq!(
            fr.classify(Vec3::new(100.0, 0.0, 0.0), f32::NAN),
            Visibility::Visible
        );
    }

    #[test]
    fn slack_makes_borderline_spheres_visible() {
        let p = Vec3::new(0.0, 0.0, -4.995); // depth 0.005 < near
        assert_eq!(frustum().classify(p, 0.001), Visibility::CulledDepth);
        assert_eq!(
            frustum().with_slack(0.1).classify(p, 0.001),
            Visibility::Visible
        );
    }

    #[test]
    fn overflow_guard_vetoes_unsafe_certifications() {
        // Within headroom: certifiable.
        assert!(lateral_overflow_safe(1.0e6, 50.0, 1.0e8));
        // Projected variance may overflow (rr/z too big).
        assert!(!lateral_overflow_safe(1.0e12, 50.0, 1.0e8));
        // Covariance intermediates may overflow (absolute rr too big).
        assert!(!lateral_overflow_safe(1.0e17, 1.0e9, 1.0e8));
        // Projected mean may overflow (|dot|/z too big).
        assert!(!lateral_overflow_safe(1.0e6, 50.0, 1.0e15));
        // NaN anywhere vetoes.
        assert!(!lateral_overflow_safe(f32::NAN, 50.0, 1.0e8));
        assert!(!lateral_overflow_safe(1.0e6, f32::NAN, 1.0e8));
        assert!(!lateral_overflow_safe(1.0e6, 50.0, f32::NAN));
    }

    #[test]
    fn aabb_classes_match_member_classes() {
        let fr = frustum();
        // Fully in front and on-axis.
        let inside = Aabb3::new(Vec3::splat(-0.5), Vec3::splat(0.5));
        assert_eq!(fr.classify_aabb(&inside, 0.1), Visibility::Visible);
        // Entirely behind the camera.
        let behind = Aabb3::new(Vec3::new(-1.0, -1.0, -20.0), Vec3::new(1.0, 1.0, -10.0));
        assert_eq!(fr.classify_aabb(&behind, 0.1), Visibility::CulledDepth);
        // Entirely far off to the side at valid depth.
        let side = Aabb3::new(Vec3::new(90.0, -1.0, -1.0), Vec3::new(110.0, 1.0, 1.0));
        assert_eq!(fr.classify_aabb(&side, 0.1), Visibility::CulledLateral);
        // Straddling the image edge: must come back Mixed.
        let straddle = Aabb3::new(Vec3::new(-40.0, -0.5, -0.5), Vec3::new(0.0, 0.5, 0.5));
        assert_eq!(fr.classify_aabb(&straddle, 0.1), Visibility::Mixed);
        // Empty cells cannot be certified.
        assert_eq!(fr.classify_aabb(&Aabb3::empty(), 0.1), Visibility::Mixed);
    }

    #[test]
    fn aabb_interval_brackets_member_evaluations() {
        let fr = frustum();
        let aabb = Aabb3::new(Vec3::new(-3.0, -2.0, -1.0), Vec3::new(4.0, 5.0, 6.0));
        let (lo, hi, _mag) = interval(fr.forms[0], &aabb);
        for corner in 0..8 {
            let p = Vec3::new(
                if corner & 1 == 0 {
                    aabb.min.x
                } else {
                    aabb.max.x
                },
                if corner & 2 == 0 {
                    aabb.min.y
                } else {
                    aabb.max.y
                },
                if corner & 4 == 0 {
                    aabb.min.z
                } else {
                    aabb.max.z
                },
            );
            let z = fr.view.transform_point(p).truncate().z;
            assert!(
                z >= lo - 1e-4 && z <= hi + 1e-4,
                "z {z} outside [{lo}, {hi}]"
            );
        }
    }
}
