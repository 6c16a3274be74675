//! Software reference implementation of the 3D Gaussian Splatting rendering
//! pipeline and of classic triangle rasterization.
//!
//! This crate is the *algorithmic ground truth* of the workspace. It
//! implements the three-stage 3DGS pipeline exactly as described in §II of
//! the GauRast paper:
//!
//! 1. **Preprocessing** ([`preprocess`]) — project every 3D Gaussian to a 2D
//!    splat (EWA projection of the world covariance the scene stores),
//!    convert spherical harmonics to RGB, compute depth;
//! 2. **Sorting** ([`sort`], [`tile`]) — one pass over the splats keys
//!    each by depth and totals its pairs per tile, which lays out a flat
//!    CSR workload (one value buffer + per-tile offsets) whose buffers
//!    live in a per-session [`FrameArena`]; the keys are then
//!    depth-ordered and each splat scattered into every tile it covers,
//!    so each tile's list runs front to back;
//! 3. **Gaussian rasterization** ([`rasterize`]) — per pixel, front-to-back
//!    alpha blending of the covering splats, one job per sorted CSR range.
//!
//! The frame driver scatters in rounds of growing depth-order chunks, each
//! round depth-ordering only its own keys, and resumes Stage 3 after each,
//! skipping tiles that have already saturated, so a tile's list is written
//! only as far as Stage 3 reads it (its *processed prefix*, which is all
//! the workload holds afterwards) and keys no round reaches are never
//! sorted.
//!
//! It also implements the triangle pipeline ([`triangle`]) that the original
//! rasterizer hardware supports, with the same four subtasks the paper's
//! Table II contrasts, and full operation counting ([`ops`]) so that table
//! can be regenerated from measurements instead of by inspection.
//!
//! The output of stages 1–2 — a [`RasterWorkload`] — is the interface
//! consumed by both architecture models (`gaurast-hw` cycle simulator and
//! `gaurast-gpu` CUDA model), guaranteeing both see identical work.
//!
//! The pipeline is data-parallel *within* a frame: Stage 1 runs in fixed
//! Gaussian chunks, Stage 2's splat pass in fixed chunks of the splat
//! order and each scatter round's count and scatter in fixed chunks of
//! the depth order ([`tile::BIN_CHUNK`]), and Stage 3 as independent
//! per-tile jobs (each tile reads its sorted CSR range and blends into its
//! own pixel planes, which the arena keeps; the image is written once,
//! after the last round) over a persistent [`pool::WorkerPool`] whose
//! threads are spawned once and parked between dispatches. One driver,
//! [`pipeline::run_frame`], sequences the three stages for every caller —
//! engine sessions and the free [`pipeline::render`] functions alike.
//! Output is bit-identical for every worker count — `workers = 1` is
//! exactly the serial reference path; see [`pool`] for the determinism
//! recipe and [`pipeline::RenderConfig::workers`] for the knob.
//!
//! # Example
//!
//! ```
//! use gaurast_render::pipeline::{render, RenderConfig};
//! use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};
//!
//! let desc = Nerf360Scene::Bonsai.descriptor();
//! let scene = desc.synthesize(SceneScale::UNIT_TEST);
//! let camera = desc.camera(SceneScale::UNIT_TEST, 0.0)?;
//! let out = render(&scene, &camera, &RenderConfig::default());
//! assert_eq!(out.image.width(), camera.width());
//! # Ok::<(), gaurast_scene::SceneError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
// The unsafe in this crate is confined to the disjoint-access handouts —
// the worker pool's job-slot publication (`pool`) and Stage 2's per-chunk
// rows and scatter ranges (`tile`) — and to the SIMD intrinsics (`simd`);
// every unsafe operation must sit in an explicit block with its own SAFETY
// comment (enforced by `gaurast-check lint`).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod compose;
mod framebuffer;
pub mod ops;
pub mod pipeline;
pub mod pool;
pub mod preprocess;
pub mod rasterize;
pub mod simd;
pub mod sort;
pub mod sync;
pub mod tile;
pub mod triangle;
mod workload;

pub use framebuffer::Framebuffer;
pub use pool::WorkerPool;
pub use preprocess::Splat2D;
pub use simd::{SimdLevel, VectorMode};
pub use workload::{FrameArena, RasterWorkload, TileRef};

/// Default tile edge in pixels — the 16×16 tiling of the reference 3DGS
/// rasterizer, also the granularity of GauRast's tile buffers.
pub const DEFAULT_TILE_SIZE: u32 = 16;

/// Alpha threshold below which a splat contributes nothing to a pixel
/// (1/255, as in the reference implementation).
pub const ALPHA_CUTOFF: f32 = 1.0 / 255.0;

/// Transmittance threshold at which a pixel is saturated and blending
/// stops (matches the reference implementation's `T < 0.0001`).
pub const TRANSMITTANCE_EPS: f32 = 1.0e-4;
