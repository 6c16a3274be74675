//! Pinhole cameras and orbit trajectories.
//!
//! The NeRF-360 dataset's cameras orbit around a central object at roughly
//! constant height — [`OrbitTrajectory`] reproduces that pattern for the
//! synthetic scenes.

use crate::SceneError;
use gaurast_math::{focal_from_fov, look_at, Frustum, Mat4, Vec2, Vec3};

/// A pinhole camera: world-to-camera rigid transform plus intrinsics.
///
/// Camera space follows the 3DGS convention — +X right, +Y down, +Z forward
/// — so a point's camera-space z is its depth.
#[derive(Clone, Debug, PartialEq)]
pub struct Camera {
    view: Mat4,
    width: u32,
    height: u32,
    focal: Vec2,
    principal: Vec2,
    near: f32,
    far: f32,
}

/// The exact identity of a [`Camera`]: the bits of every field (see
/// [`Camera::key`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CameraKey {
    /// View-matrix entries, column-major.
    view: [u32; 16],
    /// Image dimensions.
    dims: [u32; 2],
    /// `fx, fy, cx, cy, near, far`.
    intrinsics: [u32; 6],
}

impl Camera {
    /// The camera's exact key: equal keys mean bit-identical fields, so
    /// the two cameras render bit-identical frames of any scene. Unlike
    /// `==` it tells `+0.0` from `-0.0`. Batches share a reference pass,
    /// and [`VisibilityCache`](crate::VisibilityCache)s a visible set,
    /// between cameras with equal keys.
    pub fn key(&self) -> CameraKey {
        CameraKey {
            view: std::array::from_fn(|i| self.view.at(i % 4, i / 4).to_bits()),
            dims: [self.width, self.height],
            intrinsics: [
                self.focal.x.to_bits(),
                self.focal.y.to_bits(),
                self.principal.x.to_bits(),
                self.principal.y.to_bits(),
                self.near.to_bits(),
                self.far.to_bits(),
            ],
        }
    }

    /// Camera looking from `eye` toward `target` with the given vertical
    /// field of view.
    ///
    /// # Errors
    /// Returns [`SceneError::InvalidCamera`] for a non-finite `eye`,
    /// `target` or `up`, degenerate geometry (`eye == target`, `up`
    /// parallel to the view direction, or offsets that overflow `f32`),
    /// non-positive image dimensions, or a field of view outside `(0, π)`.
    pub fn look_at(
        eye: Vec3,
        target: Vec3,
        up: Vec3,
        width: u32,
        height: u32,
        fov_y: f32,
    ) -> Result<Self, SceneError> {
        if width == 0 || height == 0 {
            return Err(SceneError::InvalidCamera(format!(
                "image dimensions must be positive, got {width}x{height}"
            )));
        }
        if !(fov_y > 0.0 && fov_y < std::f32::consts::PI) {
            return Err(SceneError::InvalidCamera(format!(
                "vertical fov must be in (0, pi), got {fov_y}"
            )));
        }
        // Every comparison with NaN is false, so a non-finite pose would
        // pass the guards below and panic in `look_at`.
        if !(eye.is_finite() && target.is_finite() && up.is_finite()) {
            return Err(SceneError::InvalidCamera(format!(
                "pose must be finite, got eye {eye:?}, target {target:?}, up {up:?}"
            )));
        }
        if (eye - target).length_squared() < 1e-12 {
            return Err(SceneError::InvalidCamera("eye and target coincide".into()));
        }
        // `look_at` panics unless both of its normalizations succeed, which
        // finite inputs defeat when an offset's length overflows `f32`.
        let Some(dir) = (target - eye).try_normalized() else {
            return Err(SceneError::InvalidCamera(
                "eye-to-target distance overflows f32".into(),
            ));
        };
        let side = dir.cross(up);
        if side.length_squared() < 1e-12 {
            return Err(SceneError::InvalidCamera(
                "up parallel to view direction".into(),
            ));
        }
        if side.try_normalized().is_none() {
            return Err(SceneError::InvalidCamera("up length overflows f32".into()));
        }
        let f = focal_from_fov(fov_y, height as f32);
        Ok(Self {
            view: look_at(eye, target, up),
            width,
            height,
            focal: Vec2::new(f, f),
            principal: Vec2::new(width as f32 * 0.5, height as f32 * 0.5),
            near: 0.01,
            far: 1.0e4,
        })
    }

    /// Replaces the near/far depth clip range.
    ///
    /// # Errors
    /// Returns [`SceneError::InvalidCamera`] unless `0 < near < far`.
    pub fn with_clip(mut self, near: f32, far: f32) -> Result<Self, SceneError> {
        if !(near > 0.0 && far > near) {
            return Err(SceneError::InvalidCamera(format!(
                "clip range must satisfy 0 < near < far, got [{near}, {far}]"
            )));
        }
        self.near = near;
        self.far = far;
        Ok(self)
    }

    /// World-to-camera transform.
    #[inline]
    pub fn view(&self) -> &Mat4 {
        &self.view
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total pixel count.
    #[inline]
    pub fn pixel_count(&self) -> u64 {
        u64::from(self.width) * u64::from(self.height)
    }

    /// Focal lengths `(fx, fy)` in pixels.
    #[inline]
    pub fn focal(&self) -> Vec2 {
        self.focal
    }

    /// Principal point in pixels.
    #[inline]
    pub fn principal(&self) -> Vec2 {
        self.principal
    }

    /// Near clip depth.
    #[inline]
    pub fn near(&self) -> f32 {
        self.near
    }

    /// Far clip depth.
    #[inline]
    pub fn far(&self) -> f32 {
        self.far
    }

    /// Camera position in world space.
    #[inline]
    pub fn position(&self) -> Vec3 {
        // view maps world -> camera; the camera center maps to the origin.
        self.view.rigid_inverse().translation()
    }

    /// Transforms a world point to camera space (depth is `z`).
    #[inline]
    pub fn world_to_camera(&self, p: Vec3) -> Vec3 {
        self.view.transform_point(p).truncate()
    }

    /// Projects a camera-space point to pixel coordinates.
    ///
    /// Returns `None` when the point is behind the near plane.
    #[inline]
    pub fn camera_to_pixel(&self, p_cam: Vec3) -> Option<Vec2> {
        if p_cam.z < self.near {
            return None;
        }
        Some(Vec2::new(
            self.focal.x * p_cam.x / p_cam.z + self.principal.x,
            self.focal.y * p_cam.y / p_cam.z + self.principal.y,
        ))
    }

    /// Projects a world point directly to pixels (convenience composition).
    #[inline]
    pub fn world_to_pixel(&self, p: Vec3) -> Option<Vec2> {
        self.camera_to_pixel(self.world_to_camera(p))
    }

    /// Extracts this camera's conservative view frustum (exact pose, zero
    /// slack). [`PreparedScene::visible_set`](crate::PreparedScene::visible_set)
    /// widens it by a float-evaluation slack before building a set.
    pub fn frustum(&self) -> Frustum {
        Frustum::new(
            self.view,
            self.width,
            self.height,
            self.focal,
            self.principal,
            self.near,
            self.far,
        )
    }
}

/// Generates cameras orbiting a center point — the NeRF-360 capture pattern.
#[derive(Clone, Debug, PartialEq)]
pub struct OrbitTrajectory {
    center: Vec3,
    radius: f32,
    height: f32,
    width: u32,
    img_height: u32,
    fov_y: f32,
}

impl OrbitTrajectory {
    /// Orbit of the given radius around `center` at `height` above it.
    ///
    /// # Errors
    /// Returns [`SceneError::InvalidParameter`] for a non-positive radius.
    pub fn new(
        center: Vec3,
        radius: f32,
        height: f32,
        width: u32,
        img_height: u32,
        fov_y: f32,
    ) -> Result<Self, SceneError> {
        if !radius.is_finite() || radius <= 0.0 {
            return Err(SceneError::InvalidParameter(format!(
                "orbit radius must be positive, got {radius}"
            )));
        }
        Ok(Self {
            center,
            radius,
            height,
            width,
            img_height,
            fov_y,
        })
    }

    /// Camera at orbit angle `theta` (radians, 0 = +X direction).
    ///
    /// # Errors
    /// Propagates [`Camera::look_at`] failures (cannot occur for valid
    /// trajectories, but the signature stays honest).
    pub fn camera_at(&self, theta: f32) -> Result<Camera, SceneError> {
        let eye = self.center
            + Vec3::new(
                self.radius * theta.cos(),
                self.height,
                self.radius * theta.sin(),
            );
        Camera::look_at(
            eye,
            self.center,
            Vec3::new(0.0, 1.0, 0.0),
            self.width,
            self.img_height,
            self.fov_y,
        )
    }

    /// `n` evenly spaced cameras around the full orbit.
    ///
    /// # Errors
    /// Propagates camera construction failures.
    pub fn cameras(&self, n: usize) -> Result<Vec<Camera>, SceneError> {
        (0..n)
            .map(|i| {
                let theta = i as f32 / n as f32 * std::f32::consts::TAU;
                self.camera_at(theta)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_camera() -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            640,
            480,
            1.0,
        )
        .unwrap()
    }

    #[test]
    fn key_holds_the_bits_of_every_field() {
        let cam = test_camera();
        assert_eq!(cam.key(), cam.clone().key());
        // -0.0 == +0.0, but the frames of the two cameras need not be
        // bit-identical, so their keys differ.
        let mut signed = cam.clone();
        let zero = (0..4)
            .flat_map(|col| (0..4).map(move |row| (row, col)))
            .find(|&(row, col)| cam.view.at(row, col).to_bits() == 0)
            .expect("a look-at view matrix has a +0.0 entry");
        signed.view.cols[zero.1][zero.0] = -0.0;
        assert_eq!(signed, cam, "== cannot tell the sign of zero");
        assert_ne!(signed.key(), cam.key());
        // One ulp in one entry.
        let mut nudged = cam.clone();
        nudged.view.cols[3][2] = f32::from_bits(cam.view.at(2, 3).to_bits() + 1);
        assert_ne!(nudged.key(), cam.key());
        // One ulp in an intrinsic.
        let mut focal = cam.clone();
        focal.focal.y = f32::from_bits(cam.focal.y.to_bits() + 1);
        assert_ne!(focal.key(), cam.key());
    }

    #[test]
    fn center_projects_to_principal_point() {
        let cam = test_camera();
        let px = cam.world_to_pixel(Vec3::zero()).unwrap();
        assert!((px - Vec2::new(320.0, 240.0)).length() < 1e-3);
    }

    #[test]
    fn depth_is_distance_along_axis() {
        let cam = test_camera();
        let p = cam.world_to_camera(Vec3::zero());
        assert!((p.z - 5.0).abs() < 1e-5);
    }

    #[test]
    fn behind_camera_does_not_project() {
        let cam = test_camera();
        assert!(cam.world_to_pixel(Vec3::new(0.0, 0.0, -10.0)).is_none());
    }

    #[test]
    fn position_recovers_eye() {
        let cam = test_camera();
        assert!((cam.position() - Vec3::new(0.0, 0.0, -5.0)).length() < 1e-4);
    }

    #[test]
    fn degenerate_cameras_rejected() {
        assert!(Camera::look_at(
            Vec3::zero(),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            64,
            64,
            1.0
        )
        .is_err());
        assert!(Camera::look_at(
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            64,
            64,
            1.0
        )
        .is_err());
        assert!(Camera::look_at(
            Vec3::zero(),
            Vec3::one(),
            Vec3::new(0.0, 1.0, 0.0),
            0,
            64,
            1.0
        )
        .is_err());
        assert!(Camera::look_at(
            Vec3::zero(),
            Vec3::one(),
            Vec3::new(0.0, 1.0, 0.0),
            64,
            64,
            4.0
        )
        .is_err());
        // Non-finite poses, and finite ones whose lengths overflow f32.
        let (eye, target, up) = (
            Vec3::new(0.0, 0.0, -5.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
        );
        for (eye, target, up) in [
            (Vec3::new(f32::NAN, 0.0, -5.0), target, up),
            (Vec3::new(f32::INFINITY, 0.0, -5.0), target, up),
            (eye, Vec3::new(0.0, f32::NAN, 0.0), up),
            (eye, target, Vec3::new(0.0, f32::NAN, 0.0)),
            (Vec3::new(3e38, 0.0, 0.0), Vec3::new(-3e38, 0.0, 0.0), up),
            (eye, target, Vec3::new(1e30, 1.0, 0.0)),
        ] {
            assert!(
                matches!(
                    Camera::look_at(eye, target, up, 64, 64, 1.0),
                    Err(SceneError::InvalidCamera(_))
                ),
                "{eye:?} -> {target:?}, up {up:?}"
            );
        }
    }

    #[test]
    fn clip_range_validated() {
        let cam = test_camera();
        assert!(cam.clone().with_clip(1.0, 0.5).is_err());
        assert!(cam.clone().with_clip(-1.0, 10.0).is_err());
        let c = cam.with_clip(0.5, 50.0).unwrap();
        assert_eq!(c.near(), 0.5);
        assert_eq!(c.far(), 50.0);
    }

    #[test]
    fn orbit_cameras_all_see_center() {
        let orbit = OrbitTrajectory::new(Vec3::zero(), 4.0, 1.5, 320, 240, 1.2).unwrap();
        for cam in orbit.cameras(8).unwrap() {
            let px = cam.world_to_pixel(Vec3::zero()).unwrap();
            assert!((px - Vec2::new(160.0, 120.0)).length() < 1e-2);
            assert!((cam.position() - Vec3::zero()).length() > 3.9);
        }
    }

    #[test]
    fn orbit_rejects_bad_radius() {
        assert!(OrbitTrajectory::new(Vec3::zero(), 0.0, 1.0, 64, 64, 1.0).is_err());
    }
}
