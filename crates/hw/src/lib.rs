//! GauRast hardware model: a cycle-accurate simulator, area model and power
//! model of the enhanced GPU rasterizer proposed by the paper.
//!
//! The paper's flow is: C++ → HLS → RTL → place-and-route for a 16-PE
//! prototype (28 nm, 1 GHz, FP32), then a cycle-accurate simulator —
//! validated against the RTL — evaluates a 300-PE scaled configuration on
//! full scenes. This crate reproduces the *simulator layer* of that flow:
//!
//! * [`pe`] — the Processing Element datapath, functionally **bit-exact**
//!   with the software reference in FP32 (the paper's RTL-vs-software
//!   validation), with the shared / triangle-only / Gaussian-only unit
//!   split of Fig. 7(c);
//! * [`tile_buffer`] + [`dispatch`] — ping-pong tile staging and PE-block
//!   occupancy (Fig. 7b);
//! * [`rasterizer`] — the frame-level cycle simulation for both Gaussian
//!   and triangle modes;
//! * [`area`] — the 28 nm floorplan model reproducing Fig. 9's breakdown
//!   and the enhancement area that §V-C compares against GSCore;
//! * [`power`] — activity-based energy calibrated to the prototype's 1.7 W.
//!
//! # Example
//!
//! ```
//! use gaurast_hw::{EnhancedRasterizer, RasterizerConfig};
//! use gaurast_render::pipeline::{render, RenderConfig};
//! use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};
//!
//! let desc = Nerf360Scene::Bonsai.descriptor();
//! let scene = desc.synthesize(SceneScale::UNIT_TEST);
//! let cam = desc.camera(SceneScale::UNIT_TEST, 0.0)?;
//! let out = render(&scene, &cam, &RenderConfig::default());
//!
//! let hw = EnhancedRasterizer::new(RasterizerConfig::scaled());
//! let report = hw.simulate_gaussian(&out.workload);
//! assert!(report.time_s > 0.0);
//! # Ok::<(), gaurast_scene::SceneError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod area;
pub mod config;
pub mod dispatch;
pub mod fpu;
pub mod microarch;
pub mod pe;
pub mod power;
pub mod rasterizer;
pub mod tile_buffer;

pub use config::{Precision, RasterizerConfig};
pub use rasterizer::{EnhancedRasterizer, FrameReport, RasterMode};
