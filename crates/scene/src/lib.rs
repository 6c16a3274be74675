//! Scene substrate for the GauRast reproduction.
//!
//! The paper evaluates on the seven real-world scenes of the NeRF-360
//! dataset, rendered from trained 3D Gaussian Splatting checkpoints. Neither
//! the images nor the checkpoints are available offline, so this crate
//! synthesizes stand-ins calibrated to each scene's published statistics.
//! Every substrate bills the same workload, so the paper's ratios depend
//! on the workload's shape, not on what the image shows. It provides:
//!
//! * [`GaussianScene`] / [`Gaussian3`] — the 3D Gaussian representation with
//!   exactly the parameters of the 3DGS paper (position, anisotropic scale,
//!   rotation quaternion, opacity, spherical-harmonics color);
//! * [`PreparedScene`] — the immutable share-ready asset: a validated scene
//!   plus every camera-independent precomputation (bounds, world
//!   covariances, 3σ radii, a coarse spatial index, summary statistics),
//!   built once and served to any number of sessions behind an `Arc`;
//! * [`visibility`] — the frustum-culled visible-set subsystem:
//!   [`VisibleSet`]s over the spatial index, keyed by [`Camera::key`] and
//!   cacheable across sessions via [`VisibilityCache`];
//! * [`TriangleMesh`] — the classic representation handled by the original
//!   triangle rasterizer that GauRast extends;
//! * [`Camera`] and orbit trajectories;
//! * [`generator`] — deterministic synthetic scene generation;
//! * [`nerf360`] — per-scene calibrated descriptors for the seven paper
//!   scenes (bicycle, stump, garden, room, counter, kitchen, bonsai);
//! * [`mini_splatting`] — the Gaussian-budget simplification standing in for
//!   the "efficiency-optimized pipeline" (Mini-Splatting, ECCV 2024);
//! * [`stats`] — workload statistics used for calibration.
//!
//! # Example
//!
//! ```
//! use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};
//!
//! let desc = Nerf360Scene::Bonsai.descriptor();
//! let scene = desc.synthesize(SceneScale::UNIT_TEST);
//! assert!(scene.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod camera;
mod error;
mod gaussian;
pub mod generator;
mod mesh;
pub mod mini_splatting;
pub mod nerf360;
pub mod ply;
pub mod prepared;
pub mod stats;
pub mod visibility;

pub use camera::{Camera, CameraKey, OrbitTrajectory};
pub use error::SceneError;
pub use gaussian::{Gaussian3, GaussianScene, ShColor};
pub use mesh::{Triangle, TriangleMesh, Vertex};
pub use prepared::PreparedScene;
pub use visibility::{VisibilityCache, VisibleSet};
