//! Column-major `f32` matrices.
//!
//! All matrices store columns contiguously (`cols[j][i]` is row `i`,
//! column `j`), matching the convention of the original 3DGS CUDA code so
//! formulas transfer verbatim.

use crate::vec::{Vec2, Vec3, Vec4};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// 2×2 matrix — covariance of a projected 2D Gaussian.
#[derive(Clone, Copy, PartialEq)]
pub struct Mat2 {
    /// Columns.
    pub cols: [Vec2; 2],
}

/// 3×3 matrix — rotations, 3D covariances, Jacobians.
#[derive(Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Columns.
    pub cols: [Vec3; 3],
}

/// 4×4 matrix — homogeneous camera/projection transforms.
#[derive(Clone, Copy, PartialEq)]
pub struct Mat4 {
    /// Columns.
    pub cols: [Vec4; 4],
}

impl Mat2 {
    /// Matrix from columns.
    #[inline]
    pub const fn from_cols(c0: Vec2, c1: Vec2) -> Self {
        Self { cols: [c0, c1] }
    }

    /// Matrix from row-major scalars `[[a, b], [c, d]]`.
    #[inline]
    pub const fn from_rows(a: f32, b: f32, c: f32, d: f32) -> Self {
        Self::from_cols(Vec2::new(a, c), Vec2::new(b, d))
    }

    /// Identity matrix.
    #[inline]
    pub const fn identity() -> Self {
        Self::from_rows(1.0, 0.0, 0.0, 1.0)
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        self.cols[col][row]
    }

    /// Determinant.
    #[inline]
    pub fn determinant(&self) -> f32 {
        self.at(0, 0) * self.at(1, 1) - self.at(0, 1) * self.at(1, 0)
    }

    /// Matrix inverse, or `None` when the determinant magnitude is below
    /// `1e-20` (degenerate 2D Gaussian).
    #[inline]
    pub fn inverse(&self) -> Option<Self> {
        let det = self.determinant();
        if !det.is_finite() || det.abs() < 1e-20 {
            return None;
        }
        let inv_det = 1.0 / det;
        Some(Self::from_rows(
            self.at(1, 1) * inv_det,
            -self.at(0, 1) * inv_det,
            -self.at(1, 0) * inv_det,
            self.at(0, 0) * inv_det,
        ))
    }

    /// Transpose.
    #[inline]
    pub fn transposed(&self) -> Self {
        Self::from_rows(self.at(0, 0), self.at(1, 0), self.at(0, 1), self.at(1, 1))
    }

    /// Eigenvalues of a symmetric 2×2 matrix, largest first.
    ///
    /// Used to compute the screen-space extent (3σ radius) of a projected
    /// Gaussian. For non-symmetric inputs the result is meaningless.
    #[inline]
    pub fn symmetric_eigenvalues(&self) -> (f32, f32) {
        let mid = 0.5 * (self.at(0, 0) + self.at(1, 1));
        let det = self.determinant();
        let disc = (mid * mid - det).max(0.0).sqrt();
        (mid + disc, mid - disc)
    }
}

impl Mat3 {
    /// Matrix from columns.
    #[inline]
    pub const fn from_cols(c0: Vec3, c1: Vec3, c2: Vec3) -> Self {
        Self { cols: [c0, c1, c2] }
    }

    /// Matrix from row-major scalars.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub const fn from_rows(
        m00: f32,
        m01: f32,
        m02: f32,
        m10: f32,
        m11: f32,
        m12: f32,
        m20: f32,
        m21: f32,
        m22: f32,
    ) -> Self {
        Self::from_cols(
            Vec3::new(m00, m10, m20),
            Vec3::new(m01, m11, m21),
            Vec3::new(m02, m12, m22),
        )
    }

    /// Identity matrix.
    #[inline]
    pub const fn identity() -> Self {
        Self::from_rows(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    }

    /// Diagonal matrix.
    #[inline]
    pub const fn from_diagonal(d: Vec3) -> Self {
        Self::from_rows(d.x, 0.0, 0.0, 0.0, d.y, 0.0, 0.0, 0.0, d.z)
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        self.cols[col][row]
    }

    /// Transpose.
    pub fn transposed(&self) -> Self {
        Self::from_rows(
            self.at(0, 0),
            self.at(1, 0),
            self.at(2, 0),
            self.at(0, 1),
            self.at(1, 1),
            self.at(2, 1),
            self.at(0, 2),
            self.at(1, 2),
            self.at(2, 2),
        )
    }

    /// Determinant.
    pub fn determinant(&self) -> f32 {
        let [a, b, c] = self.cols;
        a.dot(b.cross(c))
    }

    /// Matrix inverse, or `None` when singular.
    pub fn inverse(&self) -> Option<Self> {
        let [a, b, c] = self.cols;
        let r0 = b.cross(c);
        let r1 = c.cross(a);
        let r2 = a.cross(b);
        let det = a.dot(r0);
        if !det.is_finite() || det.abs() < 1e-30 {
            return None;
        }
        let inv_det = 1.0 / det;
        // Rows of the inverse are the scaled cross products.
        Some(Self::from_rows(
            r0.x * inv_det,
            r0.y * inv_det,
            r0.z * inv_det,
            r1.x * inv_det,
            r1.y * inv_det,
            r1.z * inv_det,
            r2.x * inv_det,
            r2.y * inv_det,
            r2.z * inv_det,
        ))
    }

    /// Extracts the upper-left 2×2 block — the projected covariance after
    /// the EWA Jacobian transform.
    #[inline]
    pub fn upper_left_2x2(&self) -> Mat2 {
        Mat2::from_rows(self.at(0, 0), self.at(0, 1), self.at(1, 0), self.at(1, 1))
    }
}

impl Mat4 {
    /// Matrix from columns.
    #[inline]
    pub const fn from_cols(c0: Vec4, c1: Vec4, c2: Vec4, c3: Vec4) -> Self {
        Self {
            cols: [c0, c1, c2, c3],
        }
    }

    /// Identity matrix.
    #[inline]
    pub const fn identity() -> Self {
        Self::from_cols(
            Vec4::new(1.0, 0.0, 0.0, 0.0),
            Vec4::new(0.0, 1.0, 0.0, 0.0),
            Vec4::new(0.0, 0.0, 1.0, 0.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
        )
    }

    /// Element at `(row, col)`.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        self.cols[col][row]
    }

    /// Builds a rigid transform from a rotation and a translation.
    #[inline]
    pub fn from_rotation_translation(r: Mat3, t: Vec3) -> Self {
        Self::from_cols(
            r.cols[0].extend(0.0),
            r.cols[1].extend(0.0),
            r.cols[2].extend(0.0),
            t.extend(1.0),
        )
    }

    /// Upper-left 3×3 block (the rotation/linear part).
    #[inline]
    pub fn upper_left_3x3(&self) -> Mat3 {
        Mat3::from_cols(
            self.cols[0].truncate(),
            self.cols[1].truncate(),
            self.cols[2].truncate(),
        )
    }

    /// Translation column.
    #[inline]
    pub fn translation(&self) -> Vec3 {
        self.cols[3].truncate()
    }

    /// Transpose.
    pub fn transposed(&self) -> Self {
        let mut out = Self::identity();
        for r in 0..4 {
            for c in 0..4 {
                out.cols[r][c] = self.at(r, c);
            }
        }
        out
    }

    /// Transforms a point (w = 1) without perspective division.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec4 {
        *self * p.extend(1.0)
    }

    /// Inverse of a rigid transform (rotation + translation only).
    ///
    /// Much cheaper and more accurate than a general inverse; the caller
    /// must guarantee the matrix is rigid (orthonormal linear part, bottom
    /// row `0 0 0 1`).
    pub fn rigid_inverse(&self) -> Self {
        let r_t = self.upper_left_3x3().transposed();
        let t = self.translation();
        let new_t = -(r_t * t);
        Self::from_rotation_translation(r_t, new_t)
    }
}

impl Mul<Vec2> for Mat2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, v: Vec2) -> Vec2 {
        self.cols[0] * v.x + self.cols[1] * v.y
    }
}

impl Mul for Mat2 {
    type Output = Mat2;
    #[inline]
    fn mul(self, rhs: Mat2) -> Mat2 {
        Mat2::from_cols(self * rhs.cols[0], self * rhs.cols[1])
    }
}

impl Add for Mat2 {
    type Output = Mat2;
    #[inline]
    fn add(self, rhs: Mat2) -> Mat2 {
        Mat2::from_cols(self.cols[0] + rhs.cols[0], self.cols[1] + rhs.cols[1])
    }
}

impl Sub for Mat2 {
    type Output = Mat2;
    #[inline]
    fn sub(self, rhs: Mat2) -> Mat2 {
        Mat2::from_cols(self.cols[0] - rhs.cols[0], self.cols[1] - rhs.cols[1])
    }
}

impl Mul<f32> for Mat2 {
    type Output = Mat2;
    #[inline]
    fn mul(self, s: f32) -> Mat2 {
        Mat2::from_cols(self.cols[0] * s, self.cols[1] * s)
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    #[inline]
    fn mul(self, rhs: Mat3) -> Mat3 {
        Mat3::from_cols(self * rhs.cols[0], self * rhs.cols[1], self * rhs.cols[2])
    }
}

impl Add for Mat3 {
    type Output = Mat3;
    #[inline]
    fn add(self, rhs: Mat3) -> Mat3 {
        Mat3::from_cols(
            self.cols[0] + rhs.cols[0],
            self.cols[1] + rhs.cols[1],
            self.cols[2] + rhs.cols[2],
        )
    }
}

impl Mul<f32> for Mat3 {
    type Output = Mat3;
    #[inline]
    fn mul(self, s: f32) -> Mat3 {
        Mat3::from_cols(self.cols[0] * s, self.cols[1] * s, self.cols[2] * s)
    }
}

impl Mul<Vec4> for Mat4 {
    type Output = Vec4;
    #[inline]
    fn mul(self, v: Vec4) -> Vec4 {
        self.cols[0] * v.x + self.cols[1] * v.y + self.cols[2] * v.z + self.cols[3] * v.w
    }
}

impl Mul for Mat4 {
    type Output = Mat4;
    #[inline]
    fn mul(self, rhs: Mat4) -> Mat4 {
        Mat4::from_cols(
            self * rhs.cols[0],
            self * rhs.cols[1],
            self * rhs.cols[2],
            self * rhs.cols[3],
        )
    }
}

macro_rules! impl_mat_fmt {
    ($name:ident, $n:expr) => {
        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                writeln!(f, concat!(stringify!($name), " ["))?;
                for r in 0..$n {
                    write!(f, "  [")?;
                    for c in 0..$n {
                        if c > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{:>12.6}", self.at(r, c))?;
                    }
                    writeln!(f, "]")?;
                }
                write!(f, "]")
            }
        }
        impl Default for $name {
            fn default() -> Self {
                Self::identity()
            }
        }
    };
}

impl_mat_fmt!(Mat2, 2);
impl_mat_fmt!(Mat3, 3);
impl_mat_fmt!(Mat4, 4);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn mat3_approx_eq(a: &Mat3, b: &Mat3, tol: f32) -> bool {
        (0..3).all(|r| (0..3).all(|c| approx_eq(a.at(r, c), b.at(r, c), tol)))
    }

    #[test]
    fn mat2_inverse_roundtrip() {
        let m = Mat2::from_rows(3.0, 1.0, 2.0, 4.0);
        let inv = m.inverse().expect("invertible");
        let id = m * inv;
        assert!(approx_eq(id.at(0, 0), 1.0, 1e-5));
        assert!(approx_eq(id.at(1, 1), 1.0, 1e-5));
        assert!(approx_eq(id.at(0, 1), 0.0, 1e-5));
        assert!(approx_eq(id.at(1, 0), 0.0, 1e-5));
    }

    #[test]
    fn mat2_singular_has_no_inverse() {
        let m = Mat2::from_rows(1.0, 2.0, 2.0, 4.0);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn mat2_symmetric_eigenvalues_diag() {
        let m = Mat2::from_rows(5.0, 0.0, 0.0, 2.0);
        let (l1, l2) = m.symmetric_eigenvalues();
        assert!(approx_eq(l1, 5.0, 1e-6));
        assert!(approx_eq(l2, 2.0, 1e-6));
    }

    #[test]
    fn mat2_eigenvalues_trace_det_invariants() {
        let m = Mat2::from_rows(4.0, 1.5, 1.5, 3.0);
        let (l1, l2) = m.symmetric_eigenvalues();
        assert!(approx_eq(l1 + l2, 7.0, 1e-5));
        assert!(approx_eq(l1 * l2, m.determinant(), 1e-4));
    }

    #[test]
    fn mat3_inverse_roundtrip() {
        let m = Mat3::from_rows(2.0, 0.5, 1.0, -1.0, 3.0, 0.0, 0.0, 1.0, 4.0);
        let inv = m.inverse().expect("invertible");
        assert!(mat3_approx_eq(&(m * inv), &Mat3::identity(), 1e-4));
    }

    #[test]
    fn mat3_determinant_of_identity() {
        assert!(approx_eq(Mat3::identity().determinant(), 1.0, 1e-6));
    }

    #[test]
    fn mat3_transpose_involution() {
        let m = Mat3::from_rows(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn mat4_rigid_inverse() {
        let r = crate::Quat::from_axis_angle(Vec3::new(0.3, 0.4, 0.5).normalized(), 1.1).to_mat3();
        let t = Vec3::new(1.0, -2.0, 3.0);
        let m = Mat4::from_rotation_translation(r, t);
        let inv = m.rigid_inverse();
        let p = Vec3::new(0.7, 0.1, -0.9);
        let roundtrip = inv
            .transform_point(m.transform_point(p).truncate())
            .truncate();
        assert!((roundtrip - p).length() < 1e-5);
    }

    #[test]
    fn mat4_mul_identity() {
        let m = Mat4::from_rotation_translation(Mat3::identity(), Vec3::new(1.0, 2.0, 3.0));
        let v = Vec4::new(1.0, 1.0, 1.0, 1.0);
        assert_eq!((Mat4::identity() * m) * v, m * v);
    }

    #[test]
    fn mat3_upper_left_of_product() {
        let a = Mat3::from_diagonal(Vec3::new(2.0, 3.0, 4.0));
        let ul = a.upper_left_2x2();
        assert_eq!(ul.at(0, 0), 2.0);
        assert_eq!(ul.at(1, 1), 3.0);
    }
}
