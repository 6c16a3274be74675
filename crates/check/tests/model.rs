//! Model-checked verification of the renderer's lock-free protocols.
//!
//! This suite only compiles under `--cfg gaurast_model_check` (set via
//! `RUSTFLAGS`), which switches `gaurast_render::sync` from `std`
//! re-exports to the shadow primitives of `gaurast_check::shadow`. The
//! tests then drive the *production* `WorkerPool` and Stage-2 binning code
//! through sequentially consistent interleavings of their atomic, park and
//! unpark operations and prove the protocol invariants the renderer's
//! determinism rests on:
//!
//! * **exactly-once claims** — the pool's `fetch_add` cursor hands every
//!   job index to exactly one worker;
//! * **no lost wakeup / clean shutdown** — the persistent pool's
//!   generation + park/unpark handoff always completes a dispatch and
//!   always joins its workers at drop (a lost wakeup shows up as a
//!   scheduler-detected deadlock);
//! * **disjoint scatter ranges** — Stage 2's placement prefix gives every
//!   (tile, chunk) an output range no other chunk writes;
//! * **ordered scatter rounds** — the frame driver's saturation-aware
//!   rounds (scatter, then resume Stage 3, then the next scatter) equal the
//!   serial frame, with every saturation flag written before the next
//!   round's scatter reads it.
//!
//! Single-dispatch pool lifecycles at width 2 (spawn → dispatch → drop)
//! are **exhaustively** enumerated — those reports assert `exhaustive`.
//! Wider pools and multi-dispatch reuse runs have state spaces in the
//! millions of schedules, so they run the depth-first prefix plus seeded
//! random sampling instead; the invariants are asserted on every explored
//! schedule either way.
//!
//! Each invariant is paired with a *mutant*: the classic broken variant
//! (load-then-store claim, missed generation bump, inclusive instead of
//! exclusive prefix, a scatter round fused into the previous round's
//! Stage-3 dispatch) written against the same `gaurast_render::sync`
//! facade. The checker must produce a
//! [`gaurast_check::model::Violation`] for every mutant — that regression
//! is what CI runs, proving the checker actually has the power to reject
//! the bugs the real protocols avoid.
#![cfg(gaurast_model_check)]

use gaurast_check::model::Model;
use gaurast_check::races::{read_range, write_range};
use gaurast_math::{Vec2, Vec3};
use gaurast_render::pipeline::bin_and_rasterize_chunked;
use gaurast_render::pool::WorkerPool;
use gaurast_render::sync::atomic::{AtomicUsize, Ordering};
use gaurast_render::sync::thread;
use gaurast_render::tile::bin_splats_chunked;
use gaurast_render::{FrameArena, Framebuffer, SimdLevel, Splat2D};
use std::sync::Arc;

// Verification counters use plain `std` atomics on purpose: the scheduler
// serializes shadow threads, so they are race-free, and keeping them out
// of the shadow layer means they add no yield points — the explored state
// space stays exactly the protocol's own operations.
use std::sync::atomic::AtomicUsize as StdAtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

#[test]
fn pool_cursor_claims_each_job_exactly_once_2x3() {
    // Width 2, one dispatch of 3 jobs, full pool lifecycle (spawn, park,
    // wake, drain, shutdown): ~37k schedules — exhaustively enumerated.
    let report = Model::new()
        .max_schedules(80_000)
        .check(|| {
            let pool = WorkerPool::new(2);
            let claims: Vec<StdAtomicUsize> = (0..3).map(|_| StdAtomicUsize::new(0)).collect();
            pool.run(3, |i| {
                claims[i].fetch_add(1, Relaxed);
            });
            for (i, c) in claims.iter().enumerate() {
                assert_eq!(c.load(Relaxed), 1, "job {i} not claimed exactly once");
            }
        })
        .expect("the fetch_add cursor must claim every job exactly once");
    assert!(report.exhaustive, "this size must be fully enumerable");
    assert!(report.schedules > 1, "2 workers must actually interleave");
}

#[test]
fn pool_cursor_claims_each_job_exactly_once_3x3() {
    // Three workers racing one cursor: the state space tops 3M schedules
    // (two resident threads interleave through the whole dispatch), so
    // this runs the DFS prefix plus seeded sampling rather than proving
    // exhaustiveness — width-2 lifecycles are the exhaustive ones.
    let report = Model::new()
        .max_schedules(2_000)
        .samples(256)
        .check(|| {
            let pool = WorkerPool::new(3);
            let claims: Vec<StdAtomicUsize> = (0..3).map(|_| StdAtomicUsize::new(0)).collect();
            pool.run(3, |i| {
                claims[i].fetch_add(1, Relaxed);
            });
            for (i, c) in claims.iter().enumerate() {
                assert_eq!(c.load(Relaxed), 1, "job {i} not claimed exactly once");
            }
        })
        .expect("three workers racing one cursor still claim exactly once");
    assert!(report.schedules > 1);
}

/// Pool **reuse**: two dispatches on one long-lived pool, exercising the
/// generation handoff across park/unpark cycles — a lost wakeup between
/// the dispatches (a worker sleeping through the second generation bump)
/// would deadlock the run and the scheduler would flag it.
#[test]
fn pool_reuse_across_dispatches_loses_no_wakeup() {
    let report = Model::new()
        .max_schedules(4_000)
        .samples(256)
        .check(|| {
            let pool = WorkerPool::new(2);
            let claims: Vec<StdAtomicUsize> = (0..4).map(|_| StdAtomicUsize::new(0)).collect();
            pool.run(2, |i| {
                claims[i].fetch_add(1, Relaxed);
            });
            pool.run(2, |i| {
                claims[2 + i].fetch_add(1, Relaxed);
            });
            for (i, c) in claims.iter().enumerate() {
                assert_eq!(
                    c.load(Relaxed),
                    1,
                    "claim {i} not exactly once across reuse"
                );
            }
        })
        .expect("a reused pool must complete every dispatch exactly once");
    assert!(report.schedules > 1);
}

/// Clean shutdown on every schedule: the `Drop` bump-to-odd + unpark must
/// reach a worker no matter where it is in its loop (mid-drain, parked,
/// about to park with a stale token); a missed exit would hang the join
/// and surface as a scheduler deadlock.
#[test]
fn pool_shutdown_joins_cleanly_on_every_schedule() {
    let report = Model::new()
        .max_schedules(40_000)
        .check(|| {
            let pool = WorkerPool::new(2);
            let ran = StdAtomicUsize::new(0);
            pool.run(2, |_| {
                ran.fetch_add(1, Relaxed);
            });
            drop(pool); // the assertion: this join terminates on every schedule
            assert_eq!(ran.load(Relaxed), 2);
        })
        .expect("shutdown must join the resident workers on every schedule");
    assert!(report.exhaustive, "this size must be fully enumerable");
}

#[test]
fn pool_run_mut_hands_out_every_slot_exactly_once() {
    let report = Model::new()
        .max_schedules(80_000)
        .check(|| {
            let pool = WorkerPool::new(2);
            let mut slots = [0usize; 3];
            pool.run_mut(&mut slots, |i, slot| {
                // A second visit to the same slot would double this.
                *slot += i + 1;
            });
            assert_eq!(slots, [1, 2, 3], "each slot written by exactly one job");
        })
        .expect("run_mut's disjoint &mut handout holds on every schedule");
    assert!(report.exhaustive);
}

/// The deliberately broken cursor of the ISSUE's acceptance criterion: a
/// load-then-store claim loop written against the same facade the real
/// pool uses. Some interleaving makes two workers observe the same index —
/// the checker must find it.
#[test]
fn mutant_load_then_store_cursor_is_caught() {
    let violation = Model::new()
        .check(|| {
            let n_jobs = 3;
            let cursor = AtomicUsize::new(0);
            let claims: Vec<StdAtomicUsize> = (0..n_jobs).map(|_| StdAtomicUsize::new(0)).collect();
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| loop {
                        // BUG under test: claim is not atomic.
                        let i = cursor.load(Ordering::SeqCst);
                        cursor.store(i + 1, Ordering::SeqCst);
                        if i >= n_jobs {
                            break;
                        }
                        assert_eq!(claims[i].fetch_add(1, Relaxed), 0, "job claimed twice");
                    });
                }
            });
        })
        .expect_err("the checker must find the duplicate-claim schedule");
    assert!(
        violation.message.contains("claimed twice"),
        "unexpected violation: {violation}"
    );
    assert!(
        violation.schedule.contains('T'),
        "violation must carry a reproduction schedule: {violation}"
    );
}

/// The persistent-pool mutant of the ISSUE: a dispatcher that publishes
/// work and unparks its worker but **forgets the generation bump**. The
/// worker wakes, sees no new generation, parks again — and the dispatch
/// hangs with every thread parked. The checker must catch this as a
/// deadlock (this is exactly the failure a lost `fetch_add(2)` in
/// `WorkerPool`'s dispatch would cause).
#[test]
fn mutant_missed_generation_bump_is_caught() {
    let violation = Model::new()
        .check(|| {
            let generation = Arc::new(AtomicUsize::new(0));
            let remaining = Arc::new(AtomicUsize::new(0));
            let caller = thread::current();
            let worker = {
                let generation = Arc::clone(&generation);
                let remaining = Arc::clone(&remaining);
                thread::spawn(move || {
                    let mut last = 0usize;
                    loop {
                        let g = generation.load(Ordering::SeqCst);
                        if g & 1 == 1 {
                            return;
                        }
                        if g == last {
                            thread::park();
                            continue;
                        }
                        last = g;
                        if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                            caller.unpark();
                        }
                    }
                })
            };
            remaining.store(1, Ordering::SeqCst);
            // BUG under test: no `generation.fetch_add(2)` before the
            // wakeup — the worker has nothing to observe.
            worker.thread().unpark();
            while remaining.load(Ordering::SeqCst) != 0 {
                thread::park(); // hangs: the worker never drains
            }
            generation.fetch_add(1, Ordering::SeqCst);
            worker.thread().unpark();
            let _ = worker.join();
        })
        .expect_err("the checker must catch the lost dispatch as a deadlock");
    assert!(
        violation.message.contains("deadlock"),
        "expected a deadlock violation, got: {violation}"
    );
}

/// 6 splats over a 2×2 grid of 16-pixel tiles, with tied depths and
/// boxes spanning several tiles, so every chunking of them writes several
/// chunks into the same tiles' runs.
fn six_splats() -> Vec<Splat2D> {
    let splat = |x: f32, y: f32, radius: f32, depth: f32| Splat2D {
        mean: Vec2::new(x, y),
        conic: [0.05, 0.0, 0.05],
        depth,
        color: Vec3::one(),
        opacity: 0.5,
        radius,
        source: 0,
    };
    vec![
        splat(16.0, 16.0, 6.0, 2.0),
        splat(8.0, 8.0, 3.0, 1.0),
        splat(24.0, 8.0, 10.0, 2.0),
        splat(16.0, 24.0, 5.0, 0.5),
        splat(8.0, 24.0, 12.0, 1.0),
        splat(24.0, 24.0, 3.0, 3.0),
    ]
}

#[test]
fn binning_scatter_is_correct_under_interleavings() {
    // The six splats in 2 chunks of 3 on 2 workers, in one round. Two
    // dispatches on one persistent pool (the splat-order pass and the
    // round's scatter; the round counts only its first chunk, a single
    // job that runs on the calling thread) put the full state space beyond
    // enumeration, so this checks the DFS prefix plus seeded samples of
    // the production protocol — with the race detector watching every key
    // and rectangle range, difference array and count row, and scatter
    // slot — against the serial result.
    let splats = six_splats();
    let bin = |pool: &WorkerPool| {
        bin_splats_chunked(splats.clone(), 32, 32, 16, &mut FrameArena::new(), pool, 3)
    };
    let expected = bin(&WorkerPool::serial());
    assert!(expected.total_pairs() > 6, "boxes must span several tiles");
    let report = Model::new()
        .max_schedules(3_000)
        .samples(192)
        .check(|| {
            let got = bin(&WorkerPool::new(2));
            assert_eq!(got, expected, "binning must equal the serial result");
        })
        .expect("splat pass/count/prefix/scatter holds on every explored schedule");
    assert!(report.schedules > 1);
}

/// The frame driver's saturation-aware Stages 2–3 on the same six splats
/// in 3 chunks of 2: round 0 selects, sorts and scatters chunk 0 and
/// round 1 sorts, counts and scatters chunks 1–2, and Stage 3 resumes the
/// tiles after each. Four dispatches (the splat pass, a Stage-3 round per
/// round, and round 1's scatter; round 0's scatter and round 1's count
/// are single jobs on the calling thread) on one persistent pool, checked
/// on the DFS prefix plus seeded samples with the race
/// detector watching every scatter slot and its reads by Stage 3, the
/// saturation flags, and every tile's pixel planes, written by the
/// rounds' jobs and read by the end-of-frame image write — against the
/// serial frame.
#[test]
fn fused_scatter_rounds_are_correct_under_interleavings() {
    let splats = six_splats();
    let frame = |pool: &WorkerPool| {
        let mut image = Framebuffer::new(32, 32);
        let (workload, stats) = bin_and_rasterize_chunked(
            splats.clone(),
            (32, 32, 16),
            SimdLevel::Scalar,
            pool,
            &mut FrameArena::new(),
            Some(&mut image),
            2,
            || {},
        );
        (workload, stats, image)
    };
    let expected = frame(&WorkerPool::serial());
    assert!(
        expected.0.total_pairs() > 6,
        "boxes must span several tiles"
    );
    assert!(expected.1.blends_committed > 0, "the frame must blend");
    let report = Model::new()
        .max_schedules(3_000)
        .samples(192)
        .check(|| {
            let got = frame(&WorkerPool::new(2));
            assert!(got == expected, "the rounds must equal the serial frame");
        })
        .expect("scatter rounds and Stage-3 resumes hold on every explored schedule");
    assert!(report.schedules > 1);
}

/// The round protocol replicated on the production pool: Stage 3 of
/// round `r` writes each tile's saturation flag, and round `r + 1`'s
/// scatter reads every flag to skip saturated tiles. Run in two
/// dispatches, as the frame driver does, the pool's completion edge
/// orders every flag write before every read (`correct`); with the
/// scatter issued in the same dispatch as the previous round's Stage 3,
/// a scatter job can read a tile's flag before that tile's job has
/// finished, and the race detector must reject it.
fn saturation_flag_rounds(fused: bool) {
    const TILES: usize = 2;
    const CHUNKS: usize = 2;
    let pool = WorkerPool::new(2);
    let flags = [false; TILES];
    let base = flags.as_ptr() as usize;
    let stage3 = |tile: usize| write_range(base + tile, 1, "model.rs:stage3-flag");
    let scatter = |_chunk: usize| read_range(base, TILES, "model.rs:scatter-flags");
    if fused {
        // BUG under test: one dispatch for both steps.
        pool.run(TILES + CHUNKS, |j| {
            if j < TILES {
                stage3(j);
            } else {
                scatter(j - TILES);
            }
        });
    } else {
        pool.run(TILES, stage3);
        pool.run(CHUNKS, scatter);
    }
}

#[test]
fn saturation_flags_are_ordered_between_rounds() {
    let report = Model::new()
        .max_schedules(3_000)
        .samples(192)
        .check(|| saturation_flag_rounds(false))
        .expect("separate dispatches order every flag write before its reads");
    assert!(report.schedules > 1);
}

#[test]
fn mutant_scatter_in_the_previous_stage3_dispatch_is_caught() {
    let violation = Model::new()
        .max_schedules(3_000)
        .samples(192)
        .check(|| saturation_flag_rounds(true))
        .expect_err("a scatter reading flags beside the Stage-3 jobs must race");
    assert!(
        violation.message.contains("data race")
            && violation.message.contains("model.rs:stage3-flag")
            && violation.message.contains("model.rs:scatter-flags"),
        "unexpected violation: {violation}"
    );
}

/// Re-derivation of the scatter-disjointness argument with per-slot claim
/// counters: an exclusive (bucket, chunk) prefix — Stage 2's (tile,
/// chunk) placement with tiles as buckets — gives every chunk output
/// ranges no other chunk touches, so every output index is written
/// exactly once.
#[test]
fn scatter_ranges_are_disjoint_under_interleavings() {
    const BUCKETS: usize = 4; // 2-bit digit keeps the table small
    let keys: [usize; 8] = [3, 1, 0, 2, 1, 3, 0, 1];
    let report = Model::new()
        .max_schedules(3_000)
        .samples(192)
        .check(|| {
            let pool = WorkerPool::new(2);
            let chunks = 2;
            let chunk_len = keys.len() / chunks;
            // 1. Per-chunk histograms (each job owns its row).
            let hist: Vec<StdAtomicUsize> = (0..chunks * BUCKETS)
                .map(|_| StdAtomicUsize::new(0))
                .collect();
            pool.run(chunks, |c| {
                for &k in &keys[c * chunk_len..(c + 1) * chunk_len] {
                    hist[c * BUCKETS + k].fetch_add(1, Relaxed);
                }
            });
            // 2. Exclusive prefix over (bucket, chunk) on the controller.
            let mut place = vec![0usize; chunks * BUCKETS];
            let mut running = 0;
            for b in 0..BUCKETS {
                for c in 0..chunks {
                    place[c * BUCKETS + b] = running;
                    running += hist[c * BUCKETS + b].load(Relaxed);
                }
            }
            assert_eq!(running, keys.len(), "histogram counts every key once");
            // 3. Scatter, counting writes per output slot.
            let writes: Vec<StdAtomicUsize> =
                (0..keys.len()).map(|_| StdAtomicUsize::new(0)).collect();
            let place = &place;
            let writes = &writes;
            pool.run(chunks, move |c| {
                let mut cursor = [0usize; BUCKETS];
                cursor.copy_from_slice(&place[c * BUCKETS..(c + 1) * BUCKETS]);
                for &k in &keys[c * chunk_len..(c + 1) * chunk_len] {
                    let at = cursor[k];
                    cursor[k] += 1;
                    writes[at].fetch_add(1, Relaxed);
                }
            });
            for (at, w) in writes.iter().enumerate() {
                assert_eq!(
                    w.load(Relaxed),
                    1,
                    "output slot {at} not written exactly once"
                );
            }
        })
        .expect("the exclusive prefix yields disjoint scatter ranges");
    assert!(report.schedules > 1);
}

/// Mutant of the placement step: an *inclusive* prefix (the off-by-one the
/// exclusive scan exists to avoid) makes chunk ranges overlap; some slot is
/// written twice and some never. The checker must reject it.
#[test]
fn mutant_inclusive_prefix_overlapping_scatter_is_caught() {
    const BUCKETS: usize = 4;
    let keys: [usize; 8] = [3, 1, 0, 2, 1, 3, 0, 1];
    let violation = Model::new()
        .max_schedules(3_000)
        .samples(192)
        .check(|| {
            let pool = WorkerPool::new(2);
            let chunks = 2;
            let chunk_len = keys.len() / chunks;
            let hist: Vec<StdAtomicUsize> = (0..chunks * BUCKETS)
                .map(|_| StdAtomicUsize::new(0))
                .collect();
            pool.run(chunks, |c| {
                for &k in &keys[c * chunk_len..(c + 1) * chunk_len] {
                    hist[c * BUCKETS + k].fetch_add(1, Relaxed);
                }
            });
            // BUG under test: inclusive prefix — ranges start one count too
            // late and overlap the successor's range.
            let mut place = vec![0usize; chunks * BUCKETS];
            let mut running = 0;
            for b in 0..BUCKETS {
                for c in 0..chunks {
                    running += hist[c * BUCKETS + b].load(Relaxed);
                    place[c * BUCKETS + b] = running % keys.len();
                }
            }
            let writes: Vec<StdAtomicUsize> =
                (0..keys.len()).map(|_| StdAtomicUsize::new(0)).collect();
            let place = &place;
            let writes = &writes;
            pool.run(chunks, move |c| {
                let mut cursor = [0usize; BUCKETS];
                cursor.copy_from_slice(&place[c * BUCKETS..(c + 1) * BUCKETS]);
                for &k in &keys[c * chunk_len..(c + 1) * chunk_len] {
                    let at = cursor[k] % keys.len();
                    cursor[k] += 1;
                    writes[at].fetch_add(1, Relaxed);
                }
            });
            for (at, w) in writes.iter().enumerate() {
                assert_eq!(
                    w.load(Relaxed),
                    1,
                    "output slot {at} not written exactly once"
                );
            }
        })
        .expect_err("overlapping ranges must be rejected");
    assert!(
        violation.message.contains("not written exactly once"),
        "unexpected violation: {violation}"
    );
}

/// The sampling fallback must retain bug-finding power: cap enumeration at
/// one schedule and let seeded random sampling find the lost update.
#[test]
fn sampling_mode_still_catches_the_cursor_mutant() {
    let violation = Model::new()
        .max_schedules(1)
        .samples(128)
        .check(|| {
            let cursor = AtomicUsize::new(0);
            let claims: Vec<StdAtomicUsize> = (0..2).map(|_| StdAtomicUsize::new(0)).collect();
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| loop {
                        let i = cursor.load(Ordering::SeqCst);
                        cursor.store(i + 1, Ordering::SeqCst);
                        if i >= 2 {
                            break;
                        }
                        assert_eq!(claims[i].fetch_add(1, Relaxed), 0, "job claimed twice");
                    });
                }
            });
        })
        .expect_err("random sampling must hit a duplicate-claim schedule");
    assert!(violation.message.contains("claimed twice"), "{violation}");
}

/// A worker-side job panic under the model: the dispatch must still
/// converge on every schedule (the catch keeps the pool's protocol
/// draining) and surface the typed error — no deadlock, no teardown.
#[test]
fn pool_job_panic_still_converges_under_model() {
    let report = Model::new()
        .max_schedules(80_000)
        .check(|| {
            let pool = WorkerPool::new(2);
            let err = pool
                .try_run(2, |i| {
                    if i == 1 {
                        std::panic::panic_any("job 1 dies");
                    }
                })
                .expect_err("job 1 panics on every schedule");
            assert_eq!(err.job, 1, "typed error must name the job");
        })
        .expect("a panicking job must not break the dispatch protocol");
    assert!(report.exhaustive);
}

/// Outside `Model::check` the shadow primitives fall through to plain
/// `std`, so a `gaurast_model_check` build still runs the ordinary suites:
/// the real pool must work normally in this very test binary.
#[test]
fn facade_falls_through_to_std_outside_model_runs() {
    let pool = WorkerPool::new(4);
    let sum = StdAtomicUsize::new(0);
    pool.run(100, |i| {
        sum.fetch_add(i, Relaxed);
    });
    assert_eq!(sum.into_inner(), 99 * 100 / 2);
}
