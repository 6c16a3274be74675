//! Unsafe-site instrumentation coverage: every raw-pointer write
//! reachable from a `// gaurast-check: hot-path` root must lexically sit
//! inside a `race_region!` block (or carry a
//! `// gaurast-check: allow(race): reason` annotation naming where the
//! range *is* registered).
//!
//! This is the static half of the race story. The dynamic half — the
//! happens-before detector in [`crate::races`] — only sees accesses the
//! `race_write!`/`race_read!` macros register; an unsafe write nobody
//! instrumented is invisible to it, and "the detector found nothing"
//! would be vacuous. This rule closes that loop: the graph layer emits an
//! [`EventKind::UnsafeWrite`] for every store-shaped line inside an
//! `unsafe` block that no `race_region!` covers, and any such event
//! transitively reachable from the hot roots fails here with the full
//! witness chain, e.g.
//! `render::pipeline::run_frame → render::pipeline::bin_and_rasterize_chunked → render::tile::Binning::scatter → … → *… = … (crates/render/src/tile.rs:…)`.
//!
//! Roots are the hot-marked functions — the same roots as hot-path
//! purity, because those subtrees are exactly the code the pool runs
//! concurrently.

use super::{run_reachability, EventMatch, RuleOutcome};
use crate::graph::{CallGraph, EventKind};
use crate::resolve::Resolution;

/// Kinds this rule fails on.
pub const KINDS: &[EventKind] = &[EventKind::UnsafeWrite];

/// Runs the rule: roots are the hot-marked functions.
pub fn run(graph: &CallGraph, res: &Resolution) -> RuleOutcome {
    let roots = graph.hot_roots();
    run_reachability(
        graph,
        res,
        "unsafe-instrumentation-coverage",
        &roots,
        |_, ev| {
            if KINDS.contains(&ev.kind) {
                EventMatch::Violation
            } else {
                EventMatch::Ignore
            }
        },
        KINDS,
    )
}
