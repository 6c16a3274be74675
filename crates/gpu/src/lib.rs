//! Analytical baseline GPU models for the GauRast evaluation.
//!
//! The paper measures the CUDA 3DGS pipeline on a Jetson Orin NX (10 W) and
//! compares against GauRast; §V-C compares against the GSCore accelerator
//! (hosted on a Xavier NX) and §V-D against an Apple M2 Pro running
//! OpenSplat. None of those devices are available offline, so this crate
//! provides calibrated analytical models:
//!
//! * [`CudaGpuModel`] — an SM-level throughput/efficiency model of CUDA
//!   Gaussian rasterization plus bandwidth models of Stages 1–2, with
//!   presets for the three devices ([`device`]);
//! * [`gscore`] — the §V-C area comparison against GSCore's published
//!   area;
//! * [`paper`] — the ground-truth numbers published in the paper (Table
//!   III, the figure averages), used for calibration and for the
//!   paper-vs-measured comparison that the `repro` binary prints and
//!   `tests/paper_reproduction.rs` checks.
//!
//! Calibration philosophy: the baseline cannot be
//! re-measured, so the model is *fit* to the paper's published per-scene
//! runtimes and then *validated* on derived quantities it was not directly
//! fit to (FPS bands, stage breakdown shares, cross-device ratios).
//!
//! # Example
//!
//! ```
//! use gaurast_gpu::device;
//!
//! let orin = device::orin_nx();
//! // Paper-scale bicycle rasterization: ~3.1e9 blends at ~3000-splat tiles.
//! let t = orin.raster_time_for_work(3.06e9, 3000.0);
//! assert!(t > 0.2 && t < 0.45, "bicycle raster {t} s");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod cuda_model;
pub mod device;
pub mod gscore;
pub mod paper;

pub use cuda_model::{
    mean_processed_len, CudaGpuModel, BYTES_PER_PAIR_SORT, BYTES_PER_PAIR_SORT_PASS,
    SORT_RADIX_PASSES,
};
