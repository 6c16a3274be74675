//! Camera transform helpers: look-at view matrices and pinhole projection.

use crate::mat::{Mat3, Mat4};
use crate::vec::Vec3;

/// Builds a right-handed world-to-camera view matrix.
///
/// The camera looks from `eye` toward `target` with `up` approximating the
/// up direction. The returned matrix maps world points into a camera frame
/// with +X right, +Y down, and **+Z forward** (the convention of the 3DGS
/// rasterizer, where depth is the camera-space z).
///
/// # Panics
/// Panics in every build when `eye == target`, when `up` is parallel to the
/// view direction, or when either direction has no finite length (a
/// non-finite input, or an offset that overflows `f32`).
pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Mat4 {
    let forward = (target - eye)
        .try_normalized()
        .expect("look_at: eye and target coincide");
    let right = forward
        .cross(up)
        .try_normalized()
        .expect("look_at: up parallel to view direction");
    // In a +Y-down camera frame the down vector completes the basis.
    let down = forward.cross(right);

    // Rows of the rotation are the camera basis vectors.
    let r = Mat3::from_rows(
        right.x, right.y, right.z, down.x, down.y, down.z, forward.x, forward.y, forward.z,
    );
    let t = -(r * eye);
    Mat4::from_rotation_translation(r, t)
}

/// Focal length in pixels from a field of view and an image dimension.
///
/// `focal = dim / (2 tan(fov/2))` — the standard pinhole relation used by
/// the 3DGS preprocessing stage.
///
/// # Panics
/// Panics in debug builds for non-positive dimensions or `fov` outside
/// `(0, π)`.
#[inline]
pub fn focal_from_fov(fov_radians: f32, dim_pixels: f32) -> f32 {
    debug_assert!(dim_pixels > 0.0);
    debug_assert!(fov_radians > 0.0 && fov_radians < std::f32::consts::PI);
    dim_pixels / (2.0 * (0.5 * fov_radians).tan())
}

/// Inverse of [`focal_from_fov`].
#[inline]
pub fn fov_from_focal(focal_pixels: f32, dim_pixels: f32) -> f32 {
    debug_assert!(focal_pixels > 0.0 && dim_pixels > 0.0);
    2.0 * (0.5 * dim_pixels / focal_pixels).atan()
}

/// Right-handed perspective projection matrix (OpenGL-style clip space,
/// depth mapped to `[0, 1]`), used only by the triangle path; the Gaussian
/// path projects analytically in [`look_at`] camera space.
///
/// # Panics
/// Panics in debug builds for degenerate parameters (`near >= far`,
/// non-positive `near` or `aspect`).
pub fn perspective(fov_y_radians: f32, aspect: f32, near: f32, far: f32) -> Mat4 {
    debug_assert!(near > 0.0 && far > near && aspect > 0.0);
    let f = 1.0 / (0.5 * fov_y_radians).tan();
    Mat4::from_cols(
        crate::Vec4::new(f / aspect, 0.0, 0.0, 0.0),
        crate::Vec4::new(0.0, f, 0.0, 0.0),
        crate::Vec4::new(0.0, 0.0, far / (far - near), 1.0),
        crate::Vec4::new(0.0, 0.0, -far * near / (far - near), 0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f32::consts::FRAC_PI_2;

    #[test]
    fn look_at_puts_target_on_axis() {
        let eye = Vec3::new(0.0, 0.0, -5.0);
        let target = Vec3::zero();
        let view = look_at(eye, target, Vec3::new(0.0, 1.0, 0.0));
        let p = view.transform_point(target).truncate();
        assert!(approx_eq(p.x, 0.0, 1e-5));
        assert!(approx_eq(p.y, 0.0, 1e-5));
        assert!(approx_eq(p.z, 5.0, 1e-5)); // depth = distance
    }

    #[test]
    fn look_at_depth_increases_away() {
        let view = look_at(
            Vec3::zero(),
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let near = view.transform_point(Vec3::new(0.0, 0.0, 1.0)).truncate();
        let far = view.transform_point(Vec3::new(0.0, 0.0, 10.0)).truncate();
        assert!(far.z > near.z && near.z > 0.0);
    }

    #[test]
    fn look_at_right_is_positive_x() {
        // Camera at +Z looking back at the origin (the intuitive, mirror-free
        // configuration): world +X lands on camera +X.
        let view = look_at(
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let p = view.transform_point(Vec3::new(1.0, 0.0, 0.0)).truncate();
        assert!(p.x > 0.0);
    }

    #[test]
    fn look_at_up_is_negative_y() {
        // +Y-down camera: a world point above the axis maps to negative y.
        let view = look_at(
            Vec3::new(0.0, 0.0, 5.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let p = view.transform_point(Vec3::new(0.0, 1.0, 0.0)).truncate();
        assert!(p.y < 0.0);
    }

    #[test]
    fn look_at_is_proper_rotation() {
        // The linear part must be a det = +1 rotation for any eye/target.
        let view = look_at(
            Vec3::new(2.0, 1.0, -4.0),
            Vec3::new(0.5, -0.5, 1.0),
            Vec3::new(0.0, 1.0, 0.0),
        );
        let r = view.upper_left_3x3();
        assert!(approx_eq(r.determinant(), 1.0, 1e-5));
    }

    #[test]
    fn focal_fov_roundtrip() {
        let w = 1280.0;
        for &fov in &[0.5f32, 1.0, FRAC_PI_2, 2.0] {
            let f = focal_from_fov(fov, w);
            assert!(approx_eq(fov_from_focal(f, w), fov, 1e-5), "fov = {fov}");
        }
    }

    #[test]
    fn perspective_maps_near_far() {
        let m = perspective(FRAC_PI_2, 1.0, 0.1, 100.0);
        let near = m.transform_point(Vec3::new(0.0, 0.0, 0.1)).project();
        let far = m.transform_point(Vec3::new(0.0, 0.0, 100.0)).project();
        assert!(approx_eq(near.z, 0.0, 1e-4));
        assert!(approx_eq(far.z, 1.0, 1e-4));
    }
}
