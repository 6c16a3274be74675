//! # GauRast — enhancing GPU triangle rasterizers for 3D Gaussian Splatting
//!
//! A full Rust reproduction of *"GauRast: Enhancing GPU Triangle Rasterizers
//! to Accelerate 3D Gaussian Splatting"* (DAC 2025): the 3DGS rendering
//! pipeline, a classic triangle rasterizer, a cycle-accurate model of the
//! enhanced rasterizer hardware, calibrated baseline GPU models, the
//! CUDA-collaborative scheduler, and an experiment harness regenerating
//! every table and figure of the paper's evaluation.
//!
//! This crate is the facade. The front door is the session-based
//! [`engine::Engine`]: build one with [`engine::EngineBuilder`], pick an
//! execution substrate ([`backend::BackendKind`]), and render frames,
//! camera sequences, or one-call cross-backend comparisons. Every entry
//! point bills a frame the same way — one reference pass, then
//! [`backend::BackendKind::execute`] per requested substrate on its
//! finalized workload — so speedup and energy ratios compare identical
//! work by construction.
//!
//! * unified entry point: [`engine::EngineBuilder`] →
//!   [`engine::Engine::render_frame`] / `render_sequence` / `compare`;
//! * shared-scene serving: [`scene::PreparedScene`] (one immutable
//!   precomputed asset behind an `Arc`, any number of sessions) and
//!   [`service::RenderService`] (named scenes, a `std::thread` worker
//!   pool, in-order batch rendering with aggregate accounting);
//! * execution substrates: [`backend`] (software reference, enhanced
//!   rasterizer, CUDA baselines, GSCore, one `match` in
//!   [`backend::BackendKind::execute`]);
//! * paper artifacts: [`experiments::raster_perf::figure10`] and friends,
//!   or `cargo run -p gaurast-bench --bin repro`;
//! * the substrates themselves remain available directly
//!   ([`render::pipeline::render`], [`hw::EnhancedRasterizer`], …) for
//!   custom plumbing.
//!
//! # Example
//!
//! ```
//! use gaurast::backend::BackendKind;
//! use gaurast::engine::EngineBuilder;
//! use gaurast::scene::nerf360::{Nerf360Scene, SceneScale};
//!
//! let desc = Nerf360Scene::Bonsai.descriptor();
//! let scene = desc.synthesize(SceneScale::UNIT_TEST);
//! let cam = desc.camera(SceneScale::UNIT_TEST, 0.3)?;
//! let mut engine = EngineBuilder::new(scene).build()?;
//! let comparison = engine.compare(&cam, &BackendKind::ALL);
//! let speedup = comparison
//!     .speedup(BackendKind::Cuda(gaurast::backend::GpuPreset::OrinNx),
//!              BackendKind::Enhanced)
//!     .expect("both backends requested");
//! assert!(speedup > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod backend;
pub mod engine;
pub mod experiments;
pub mod report;
pub mod service;

pub use backend::{BackendKind, CullStats, FrameReport, FrameStats, GpuPreset};
pub use engine::{Engine, EngineBuilder, EngineError, ImagePolicy};
pub use service::{BatchReport, RenderRequest, RenderResponse, RenderService, ServiceError};

/// Math substrate (vectors, matrices, quaternions, SH, FP16).
pub use gaurast_math as math;

/// Scene substrate (Gaussians, meshes, cameras, NeRF-360 descriptors).
pub use gaurast_scene as scene;

/// Software reference renderer (3DGS pipeline + triangle rasterizer).
pub use gaurast_render as render;

/// Hardware model (cycle simulator, area, power).
pub use gaurast_hw as hw;

/// Baseline GPU models (Orin NX, Xavier NX, M2 Pro, GSCore envelope).
pub use gaurast_gpu as gpu;

/// CUDA-collaborative scheduler.
pub use gaurast_sched as sched;
