//! Linear-algebra and graphics math substrate for the GauRast reproduction.
//!
//! The GauRast paper evaluates a hardware rasterizer for 3D Gaussian
//! Splatting. Every other crate in the workspace builds on the small,
//! dependency-free math library defined here:
//!
//! * [`Vec2`], [`Vec3`], [`Vec4`] — `f32` column vectors,
//! * [`Mat2`], [`Mat3`], [`Mat4`] — column-major matrices with inverses,
//! * [`Quat`] — unit quaternions for Gaussian orientations,
//! * [`sh`] — spherical-harmonics color evaluation (degrees 0–3) exactly as
//!   used by the 3DGS preprocessing stage,
//! * [`Aabb2`] / [`Aabb3`] — bounding boxes for tile binning,
//! * [`fp`] — FP16 bit-level conversion used by the hardware precision model,
//! * [`expf`] — [`exp_f32`], the one single-precision exponential of every
//!   Stage-3 blend (a transcription of glibc's `expf`, the same bits on
//!   every platform), and the constants of its vector form.
//!
//! # Example
//!
//! ```
//! use gaurast_math::{Vec3, Mat3, Quat};
//!
//! let q = Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), std::f32::consts::FRAC_PI_2);
//! let r: Mat3 = q.to_mat3();
//! let v = r * Vec3::new(1.0, 0.0, 0.0);
//! assert!((v.y - 1.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod aabb;
pub mod expf;
pub mod fp;
mod mat;
mod quat;
pub mod sh;
mod transform;
mod vec;

pub use aabb::{Aabb2, Aabb3};
pub use expf::exp_f32;
pub use mat::{Mat2, Mat3, Mat4};
pub use quat::Quat;
pub use transform::{focal_from_fov, fov_from_focal, look_at, perspective};
pub use vec::{Vec2, Vec3, Vec4};

/// Relative/absolute tolerance comparison for `f32` used across the test
/// suites of the workspace.
///
/// Returns `true` when `a` and `b` differ by less than `tol` absolutely or
/// by less than `tol` relative to the larger magnitude.
///
/// # Example
/// ```
/// assert!(gaurast_math::approx_eq(1.0, 1.0 + 1e-7, 1e-5));
/// assert!(!gaurast_math::approx_eq(1.0, 1.1, 1e-5));
/// ```
#[inline]
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let largest = a.abs().max(b.abs());
    diff <= largest * tol
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(0.0, 1e-9, 1e-6));
        assert!(!approx_eq(0.0, 1e-3, 1e-6));
    }

    #[test]
    fn approx_eq_relative() {
        assert!(approx_eq(1.0e6, 1.0e6 + 1.0, 1e-5));
        assert!(!approx_eq(1.0e6, 1.1e6, 1e-5));
    }
}
