//! `gaurast-check`: correctness tooling for the GauRast workspace — a
//! deterministic-interleaving concurrency model checker and a
//! repo-invariant lint pass.
//!
//! # Model checker
//!
//! [`model::Model`] runs a closure under every (or a seeded sample of)
//! sequentially consistent interleaving of its shadow-atomic operations.
//! The primitives live in [`shadow`]; production code reaches them through
//! the `gaurast_render::sync` facade, which re-exports `std` by default
//! and these shadows under `--cfg gaurast_model_check` — so the renderer's
//! release codegen is untouched while its worker-pool cursor and Stage-2
//! splat pass/count/scatter protocols get exhaustively interleaved in
//! `crates/check/tests/model.rs`.
//!
//! The scheduler ([`sched`]) serializes real OS threads: exactly one
//! shadow thread runs at a time, every shadow atomic operation is a
//! context-switch decision point, and depth-first enumeration with replay
//! (falling back to seeded random sampling) drives the exploration. No
//! external dependencies — the whole checker is this crate plus `std`.
//!
//! # Race detection
//!
//! Layered on the scheduler, [`races`] is a FastTrack-style happens-before
//! race detector: per-thread vector clocks follow the release/acquire
//! edges the code actually requested (plus spawn/join/park/unpark), and a
//! shadow memory map of instrumented address ranges (`race_read!` /
//! `race_write!` in `gaurast_render::sync`) flags write–write and
//! read–write pairs unordered by happens-before, reporting both access
//! sites and the reproduction schedule. `cargo run -p gaurast-check --
//! races` runs the detector's self-diagnostics plus the static
//! `unsafe-instrumentation-coverage` closure rule.
//!
//! # Lint pass
//!
//! [`lint`] enforces the invariants the compiler cannot: `SAFETY:`
//! comments on every `unsafe` site, total float ordering in the renderer,
//! allocation-free hot paths, clock/env-free deterministic pipeline code,
//! debug-only full-scan asserts, and crate-wide `unsafe` bans. Run it with
//! `cargo run -p gaurast-check -- lint`; CI fails on any finding.
//!
//! # Deep layer
//!
//! The line lint sees one call deep; the deep layer follows edges.
//! [`graph`] parses every library source into a module-qualified
//! function/method call graph, [`resolve`] turns textual call sites into
//! graph edges (counting what it cannot resolve instead of dropping it),
//! and [`deep`] runs the transitive fixpoint rules over the result:
//! hot-path purity, determinism taint, and serving panic-freedom, each
//! violation reported with a multi-hop witness path. Run it with
//! `cargo run -p gaurast-check -- deep`; CI asserts a clean
//! `CHECK_report.json`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod deep;
pub mod graph;
pub mod lint;
pub mod model;
pub mod races;
pub mod resolve;
pub mod rng;
pub mod sched;
pub mod shadow;
