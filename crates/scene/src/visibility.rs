//! Names kept for the benchmark harness's traced replay, which still
//! calls them; ROADMAP item 4b deletes them with that replay.
//!
//! Stage 1 runs over the whole [`GaussianScene`] on every frame and culls
//! each Gaussian by depth and screen bounds inside its projection loop, as
//! the 3DGS reference's per-Gaussian `in_frustum` test does. There is no
//! visible-set prefilter in front of it, so these names stand for the
//! whole scene and cache nothing.

use crate::{Camera, CameraKey, GaussianScene};

/// The key the harness files a camera under: [`Camera::key`]. Kept for
/// the harness's tests until ROADMAP item 4b.
pub fn pose_key(camera: &Camera) -> CameraKey {
    camera.key()
}

/// Stands for every Gaussian of a scene: what
/// [`VisibilityCache::get_or_build`] returns. Kept for the harness's
/// replay until ROADMAP item 4b.
#[derive(Debug)]
pub struct VisibleSet;

/// A cache that stores nothing: [`VisibilityCache::get_or_build`] always
/// returns the whole-scene [`VisibleSet`] and reports a miss. Kept for
/// the harness's replay until ROADMAP item 4b.
#[derive(Debug, Default)]
pub struct VisibilityCache;

impl VisibilityCache {
    /// A cache that stores nothing.
    pub fn new() -> Self {
        Self
    }

    /// The whole-scene [`VisibleSet`] and `false` (never a cache hit).
    pub fn get_or_build(&self, _scene: &GaussianScene, _camera: &Camera) -> (VisibleSet, bool) {
        (VisibleSet, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::Vec3;

    fn camera(eye: Vec3, target: Vec3) -> Camera {
        Camera::look_at(eye, target, Vec3::new(0.0, 1.0, 0.0), 128, 96, 1.05).unwrap()
    }

    #[test]
    fn pose_key_distinguishes_intrinsics() {
        let a = camera(Vec3::new(0.0, 5.0, -30.0), Vec3::zero());
        let b = Camera::look_at(
            Vec3::new(0.0, 5.0, -30.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            256,
            96,
            1.05,
        )
        .unwrap();
        assert_ne!(pose_key(&a), pose_key(&b));
    }
}
