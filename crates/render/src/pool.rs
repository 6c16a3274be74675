//! A persistent worker pool for deterministic intra-frame data
//! parallelism.
//!
//! The three-stage pipeline decomposes into jobs that are *independent by
//! construction* — Stage 1 processes disjoint Gaussian chunks, Stage 3
//! processes disjoint tiles — so the pool's only contract is to run `n`
//! jobs, each exactly once, on up to `workers` threads. Work is claimed
//! from an atomic cursor (dynamic load balancing: an expensive tile on one
//! worker never stalls the others), and results are written into
//! per-job slots, so the *assignment* of jobs to threads is free to vary
//! while the *output* is bit-identical run to run and identical to the
//! serial schedule.
//!
//! # Lifecycle
//!
//! Worker threads are spawned **once**, at pool construction, and live
//! until the pool is dropped; between dispatches they are parked. A
//! [`WorkerPool::run`] call is therefore a wakeup, not a spawn — steady-state
//! frames pay zero thread spawns and zero allocations in the pool
//! (asserted by [`spawned_thread_count`] regression tests and the bench
//! crate's counting allocator). With `workers == 1` no thread exists at
//! all and the jobs run in index order on the calling thread — exactly the
//! historical serial path.
//!
//! # Wakeup protocol
//!
//! One dispatch is one bump of a generation atomic, park/unpark for the
//! edges, and the same claim cursor as ever:
//!
//! ```text
//! caller                                   worker (×  workers−1, resident)
//! ──────                                   ──────────────────────────────
//! acquire `busy` (one dispatch at a time)  loop:
//! publish job ptr, caller handle, n_jobs     g = generation.load(Acquire)
//! cursor ← 0, remaining ← workers−1          g odd?        → exit thread
//! generation += 2          (Release)  ───▶   g == last?    → park(), retry
//! unpark every worker                        last = g
//! claim jobs from cursor too                 claim jobs: cursor.fetch_add
//! park until remaining == 0          ◀───    remaining.fetch_sub == 1?
//! release `busy`                                 → unpark(caller)
//! ```
//!
//! Unpark tokens do not accumulate but never get lost either
//! (park/unpark is acquire/release synchronized), and both park loops
//! re-check their condition after every return, so stale tokens and
//! spurious wakeups are harmless and lost wakeups are impossible. The
//! final `generation += 1` (odd = shutdown) comes from `Drop`, so workers
//! watch a single atomic for both "new work" and "exit". The whole
//! protocol runs through the [`crate::sync`] facade and is enumerated by
//! the `gaurast-check` model checker (`crates/check/tests/model.rs`),
//! including a lost-wakeup mutant the checker must catch.
//!
//! A panicking job is caught *inside* the worker loop: the dispatch still
//! converges, the pool stays usable, and the failure surfaces as the typed
//! [`JobPanicked`] — as a `Result` from [`WorkerPool::try_run`], or as a
//! typed panic payload from [`WorkerPool::run`] (which feeds the existing
//! `ServiceError::WorkerPanicked` path in the serving layer).
//!
//! # Determinism
//!
//! Every parallel entry point in this crate follows the same recipe:
//!
//! 1. split the frame into jobs along boundaries the serial code already
//!    had (Gaussian index ranges, tiles);
//! 2. give each job its own output slot (a chunk result, a tile's pixel
//!    planes);
//! 3. merge the slots **in job-index order** on the calling thread.
//!
//! Because no job reads another job's output and the merge order is fixed,
//! images, op counts, and statistics are bit-identical for every worker
//! count — and identical between a long-lived pool and a
//! fresh-pool-per-frame, since the job boundaries never depend on either.
//!
//! # Example
//! ```
//! use gaurast_render::pool::WorkerPool;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let pool = WorkerPool::new(4);
//! let sum = AtomicU64::new(0);
//! pool.run(100, |i| {
//!     sum.fetch_add(i as u64, Ordering::Relaxed);
//! });
//! assert_eq!(sum.into_inner(), 99 * 100 / 2);
//! ```

// All pool concurrency goes through the `sync` facade so the protocol can
// be model-checked (`crates/check`); by default these are plain `std`
// re-exports.
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::thread;
use std::cell::UnsafeCell;
use std::sync::Arc;

/// Environment variable overriding the automatic worker count (used by CI
/// to force the serial path: `GAURAST_WORKERS=1 cargo test`).
pub const WORKERS_ENV: &str = "GAURAST_WORKERS";

/// Resolves a requested worker count: a positive request wins, otherwise
/// the [`WORKERS_ENV`] environment variable, otherwise the machine's
/// available parallelism. The result is always at least 1.
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    // gaurast-check: allow(nondet): documented config knob, resolved once
    // at pool construction — never inside the per-frame pipeline.
    if let Ok(v) = std::env::var(WORKERS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
}

/// Pools constructed through [`WorkerPool::new`] since process start
/// (process-wide, diagnostics only — plain `std` atomics, not the model
/// facade, so the counters add no scheduling points).
static CONSTRUCTIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// Worker threads ever spawned by pools since process start.
static SPAWNED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Total [`WorkerPool::new`] constructions since process start — the
/// regression counter pinning "sessions build their pool once, not per
/// frame" (the `const` [`WorkerPool::serial`] is not counted).
pub fn construction_count() -> u64 {
    CONSTRUCTIONS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Total worker threads ever spawned by pools since process start. Flat
/// across steady-state frames: dispatches wake resident threads instead of
/// spawning — the zero-spawns-per-frame acceptance gate.
pub fn spawned_thread_count() -> u64 {
    SPAWNED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Typed error for a job that panicked inside [`WorkerPool::try_run`] —
/// and the typed panic payload [`WorkerPool::run`] re-raises for a
/// worker-side job panic. The panic's own payload stays on the worker
/// (caught there so the pool survives); only the job index crosses
/// threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobPanicked {
    /// Index of the first job observed to panic.
    pub job: usize,
}

impl std::fmt::Display for JobPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker-pool job {} panicked", self.job)
    }
}

impl std::error::Error for JobPanicked {}

/// Type-erased pointer to the dispatched job closure. The `'static` in the
/// type is a lie told to the type system only — see the safety argument at
/// the publication site in [`WorkerPool::run`]'s dispatch.
type Job = *const (dyn Fn(usize) + Sync + 'static);

/// Initial content of the job slot: never dispatched, present so reading
/// the slot needs no `Option` unwrap on the hot path.
fn job_noop(_: usize) {}

/// The dispatch mailbox shared by the caller and the resident workers.
struct Shared {
    /// Dispatch generation: steps by 2 per dispatch (even while alive);
    /// the final `+1` from `Drop` makes it odd — the shutdown signal — so
    /// the worker loop watches one atomic for both work and exit.
    generation: AtomicUsize,
    /// The job-claim cursor — byte-for-byte the cursor of the historical
    /// spawn-per-run pool, reset to 0 per dispatch.
    cursor: AtomicUsize,
    /// Workers that have not yet finished draining the current dispatch;
    /// the last one to check in unparks the caller.
    remaining: AtomicUsize,
    /// `job index + 1` of the first worker-side job panic of the current
    /// dispatch (0 = none); first writer wins via compare-exchange.
    panic_flag: AtomicUsize,
    /// Dispatch mutual exclusion: a pool runs one job set at a time.
    /// Callers contend here only if `run` is invoked concurrently from
    /// several threads on one pool (never on the render paths).
    busy: AtomicUsize,
    /// The dispatched closure; valid from the generation bump until
    /// `remaining` reaches zero.
    job: UnsafeCell<Job>,
    /// Job count of the current dispatch; published by the generation
    /// bump like the job pointer (not an atomic: fewer scheduling points
    /// for the model checker, no synchronization lost).
    n_jobs: UnsafeCell<usize>,
    /// Unpark handle of the dispatching thread.
    caller: UnsafeCell<thread::Thread>,
}

// SAFETY: the `UnsafeCell` slots are written only by the dispatching
// thread while it holds `busy`, before the Release generation bump, and
// read by workers only after the Acquire load that observes the bump;
// workers stop touching them before the final `remaining` decrement the
// caller waits on. The atomics are `Sync` by nature. The raw job pointer
// is `Send`-safe to workers because the closure it points to is `Sync`
// (shared by reference across threads, exactly like the scoped borrow the
// old pool used).
unsafe impl Send for Shared {}
// SAFETY: see the `Send` argument above — all mutation of the cells is
// ordered before all cross-thread reads by the generation/`remaining`
// protocol.
unsafe impl Sync for Shared {}

/// The resident half of a multi-worker pool: the shared mailbox plus the
/// spawned threads' unpark and join handles.
struct PoolCore {
    shared: Arc<Shared>,
    /// Unpark handles, one per resident worker.
    threads: Vec<thread::Thread>,
    /// Join handles, consumed by `Drop`.
    handles: Vec<thread::JoinHandle<()>>,
}

impl PoolCore {
    /// Spawns the `workers - 1` resident threads (the caller is always the
    /// remaining worker). The only thread spawns in the pool's lifetime.
    fn launch(workers: usize) -> Self {
        debug_assert!(workers >= 2, "serial pools have no core");
        let shared = Arc::new(Shared {
            generation: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            remaining: AtomicUsize::new(0),
            panic_flag: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            job: UnsafeCell::new(&job_noop as &(dyn Fn(usize) + Sync) as Job),
            n_jobs: UnsafeCell::new(0),
            caller: UnsafeCell::new(thread::current()),
        });
        let mut handles = Vec::with_capacity(workers - 1);
        for _ in 0..workers - 1 {
            let shared = Arc::clone(&shared);
            handles.push(thread::spawn(move || worker_loop(&shared)));
            SPAWNED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        let threads = handles.iter().map(|h| h.thread().clone()).collect();
        Self {
            shared,
            threads,
            handles,
        }
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        // Inside a poisoned model-check run the scheduler is already
        // unwinding every shadow thread; re-entering it would double
        // panic. Outside model runs `poisoned()` is constant `false`.
        if !thread::poisoned() {
            // Odd generation = shutdown; wake everyone to observe it.
            self.shared.generation.fetch_add(1, Ordering::Release);
            for t in &self.threads {
                t.unpark();
            }
        }
        for h in self.handles.drain(..) {
            // Err only if a worker unwound from a poisoned model run;
            // shutdown is best-effort there.
            let _ = h.join();
        }
    }
}

/// The resident worker body: park between dispatches, drain the claim
/// cursor on a generation bump, unpark the caller when last to check in.
fn worker_loop(shared: &Shared) {
    let mut last_gen = 0usize;
    loop {
        let g = shared.generation.load(Ordering::Acquire);
        if g & 1 == 1 {
            // Odd: the pool is shutting down.
            return;
        }
        if g == last_gen {
            // No new dispatch. Stale tokens and spurious returns are
            // harmless — the loop re-reads the generation; a token banked
            // by a dispatch's unpark happens-after its generation bump, so
            // consuming it here means the re-read observes the bump (park
            // consumes tokens with an acquire RMW paired with unpark's
            // release).
            thread::park();
            continue;
        }
        last_gen = g;
        // The Acquire generation load synchronizes with the caller's
        // Release bump: the job pointer, caller handle, job count and
        // cursor reset published before the bump are visible now.
        let (job, n_jobs) = crate::race_region!("job-slot consumption", {
            crate::race_read!(shared.job.get(), 1);
            crate::race_read!(shared.n_jobs.get(), 1);
            // SAFETY: the dispatching thread keeps the closure alive until
            // `remaining` reaches zero, which happens only after this
            // worker's check-in below — after its last use of the pointer.
            // The job count is published and kept valid the same way.
            unsafe { (&*(*shared.job.get()), *shared.n_jobs.get()) }
        });
        loop {
            // Ordering audit: `Relaxed` is sufficient. Exactly-once needs
            // only the *atomicity* of fetch_add (two workers can never
            // observe the same index); no data is published through the
            // cursor. Job outputs are published to the caller by the
            // `remaining` AcqRel check-in below, paired with the caller's
            // Acquire wait — the persistent-pool replacement for the old
            // scope-join edge. Model-checked in
            // crates/check/tests/model.rs (`pool_cursor_claims_*`).
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n_jobs {
                break;
            }
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i))).is_err() {
                // First panicking job wins; keep draining so the dispatch
                // converges and the pool stays usable. The payload dies
                // here (it may not be `Send`-able past the pool's
                // lifetime); only the index crosses threads.
                let _ = shared.panic_flag.compare_exchange(
                    0,
                    i + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
            }
        }
        // Read the caller handle *before* the check-in: once `remaining`
        // hits zero the caller may start the next dispatch and overwrite
        // the slot.
        let caller = crate::race_region!("caller-handle consumption", {
            crate::race_read!(shared.caller.get(), 1);
            // SAFETY: written before the generation bump (visible via the
            // Acquire load above), not rewritten until after `remaining`
            // reaches zero.
            unsafe { (*shared.caller.get()).clone() }
        });
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            caller.unpark();
        }
    }
}

/// How a dispatch ended (internal).
enum DispatchOutcome {
    /// Every job ran without panicking.
    Done,
    /// A job running on the *calling* thread panicked; the original
    /// payload is preserved so [`WorkerPool::run`] can re-raise it intact.
    CallerPanic {
        job: usize,
        payload: Box<dyn std::any::Any + Send>,
    },
    /// A job on a resident worker panicked (payload consumed there).
    WorkerPanic { job: usize },
}

/// A worker pool of a fixed width with resident, parked threads.
///
/// Construction spawns `workers - 1` threads ([`WorkerPool::serial`] and
/// width-1 pools spawn none); every [`WorkerPool::run`] is a park/unpark
/// round-trip, not a spawn/join. Dropping the pool shuts the threads down.
/// See the [module docs](self) for the wakeup protocol and the determinism
/// contract.
pub struct WorkerPool {
    workers: usize,
    /// `None` for width-1 pools: the serial path has no threads at all.
    core: Option<PoolCore>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .field("resident", &self.core.is_some())
            .finish()
    }
}

impl Default for WorkerPool {
    /// The automatic pool: [`resolve_workers`]`(0)` threads.
    fn default() -> Self {
        Self::new(0)
    }
}

impl WorkerPool {
    /// A pool of `workers` threads; `0` selects the automatic width
    /// ([`resolve_workers`]). Spawns the resident worker threads — hold
    /// the pool in a session and reuse it across frames rather than
    /// constructing one per frame.
    pub fn new(workers: usize) -> Self {
        let workers = resolve_workers(workers);
        CONSTRUCTIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let core = if workers > 1 {
            Some(PoolCore::launch(workers))
        } else {
            None
        };
        Self { workers, core }
    }

    /// The single-threaded pool — every job runs on the calling thread in
    /// index order (the historical serial pipeline). Spawns nothing.
    pub const fn serial() -> Self {
        Self {
            workers: 1,
            core: None,
        }
    }

    /// Number of workers (calling thread included) `run` may use.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// `true` when this pool owns no threads and runs every job inline.
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.workers == 1
    }

    /// Runs `n_jobs` jobs, each exactly once. Jobs are claimed from an
    /// atomic cursor by the resident workers plus the calling thread; with
    /// one worker (or at most one job) they run in index order on the
    /// calling thread with no cross-thread traffic at all.
    ///
    /// A panicking job does **not** tear down the pool: the dispatch
    /// drains, then the panic is re-raised here — the original payload for
    /// a caller-side job, the typed [`JobPanicked`] for a worker-side one.
    /// Use [`WorkerPool::try_run`] for the non-panicking variant.
    pub fn run<F>(&self, n_jobs: usize, job: F)
    where
        F: Fn(usize) + Sync,
    {
        let Some(core) = &self.core else {
            // The exact historical serial path: inline, in order, no
            // catch — a panic propagates as the job's own.
            for i in 0..n_jobs {
                job(i);
            }
            return;
        };
        if n_jobs <= 1 {
            // A wakeup round-trip costs more than the job; this also keeps
            // single-job dispatches bit-identical to the serial pool.
            for i in 0..n_jobs {
                job(i);
            }
            return;
        }
        match self.dispatch(core, n_jobs, &job) {
            DispatchOutcome::Done => {}
            DispatchOutcome::CallerPanic { payload, .. } => std::panic::resume_unwind(payload),
            DispatchOutcome::WorkerPanic { job: at } => {
                std::panic::panic_any(JobPanicked { job: at })
            }
        }
    }

    /// [`WorkerPool::run`] returning the first job panic as a typed error
    /// instead of re-raising it. All jobs still run (the cursor drains
    /// fully) and the pool remains usable afterwards.
    pub fn try_run<F>(&self, n_jobs: usize, job: F) -> Result<(), JobPanicked>
    where
        F: Fn(usize) + Sync,
    {
        let Some(core) = &self.core else {
            return run_serial_caught(n_jobs, &job);
        };
        if n_jobs <= 1 {
            return run_serial_caught(n_jobs, &job);
        }
        match self.dispatch(core, n_jobs, &job) {
            DispatchOutcome::Done => Ok(()),
            DispatchOutcome::CallerPanic { job: at, .. }
            | DispatchOutcome::WorkerPanic { job: at } => Err(JobPanicked { job: at }),
        }
    }

    /// One wakeup round-trip: publish the job set, bump the generation,
    /// claim jobs alongside the workers, wait for every check-in.
    fn dispatch<F>(&self, core: &PoolCore, n_jobs: usize, job: &F) -> DispatchOutcome
    where
        F: Fn(usize) + Sync,
    {
        let shared = &*core.shared;
        // One dispatch at a time. Uncontended on every render path (a
        // session's pool is dispatched from one thread); concurrent
        // callers of a shared pool serialize here.
        while shared
            .busy
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        crate::race_region!("job-slot publication", {
            crate::race_write!(shared.job.get(), 1);
            crate::race_write!(shared.n_jobs.get(), 1);
            crate::race_write!(shared.caller.get(), 1);
            // SAFETY: `busy` is held, so no other dispatch writes the
            // slots, and no worker reads them until the generation bump
            // below. The lifetime erasure to `'static` is sound because
            // this function does not return until `remaining` reaches zero
            // — every worker is done with the pointer — so the borrow of
            // `job` outlives all uses.
            unsafe {
                *shared.job.get() = std::mem::transmute::<
                    &(dyn Fn(usize) + Sync),
                    &'static (dyn Fn(usize) + Sync),
                >(job as &(dyn Fn(usize) + Sync)) as Job;
                *shared.n_jobs.get() = n_jobs;
                *shared.caller.get() = thread::current();
            }
        });
        shared.cursor.store(0, Ordering::Relaxed);
        shared
            .remaining
            .store(core.threads.len(), Ordering::Relaxed);
        // Publish: everything above happens-before a worker's Acquire
        // load of the bumped generation.
        shared.generation.fetch_add(2, Ordering::Release);
        for t in &core.threads {
            t.unpark();
        }
        // The calling thread is a worker too — same cursor, same claims
        // (see the ordering audit in `worker_loop`). Its job panics are
        // caught so the dispatch always converges and `busy` is always
        // released.
        let mut caught: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
        loop {
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n_jobs {
                break;
            }
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i)))
            {
                if caught.is_none() {
                    caught = Some((i, payload));
                }
            }
        }
        // Wait for every worker's AcqRel check-in; the Acquire load pairs
        // with it, publishing the jobs' writes to this thread (the
        // replacement for the old scope-join edge). A stale unpark token
        // makes `park` return spuriously; the loop re-checks.
        while shared.remaining.load(Ordering::Acquire) != 0 {
            thread::park();
        }
        // Lazy reset keeps the no-panic dispatch one load cheaper (and one
        // scheduling point smaller in the model): the flag is nonzero only
        // after a worker-side panic, and cleared here before reuse.
        let flag = shared.panic_flag.load(Ordering::Relaxed);
        if flag != 0 {
            shared.panic_flag.store(0, Ordering::Relaxed);
        }
        shared.busy.store(0, Ordering::Release);
        if let Some((job_index, payload)) = caught {
            return DispatchOutcome::CallerPanic {
                job: job_index,
                payload,
            };
        }
        if flag != 0 {
            return DispatchOutcome::WorkerPanic { job: flag - 1 };
        }
        DispatchOutcome::Done
    }

    /// Runs one job per element of `items`, handing each job exclusive
    /// mutable access to its element — the slot pattern Stage 1 chunks and
    /// Stage 3 tile jobs use for their outputs.
    ///
    /// Soundness: the atomic cursor in [`WorkerPool::run`] yields every index in
    /// `0..items.len()` exactly once, so each element is mutably borrowed
    /// by exactly one job and the raw-pointer access below never aliases.
    pub fn run_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        struct Slots<T>(*mut T);
        // SAFETY: shared across workers only to hand out disjoint
        // `&mut` elements (one per job index); `T: Send` lets the
        // references cross threads.
        unsafe impl<T: Send> Sync for Slots<T> {}

        impl<T> Slots<T> {
            /// SAFETY: caller must ensure `i` is in bounds of the slice
            /// this pointer was taken from.
            unsafe fn slot(&self, i: usize) -> *mut T {
                // SAFETY: forwarding the caller's in-bounds obligation to
                // `pointer::add` — `i` is within the slice allocation.
                unsafe { self.0.add(i) }
            }
        }

        let slots = Slots(items.as_mut_ptr());
        let n = items.len();
        self.run(n, |i| {
            debug_assert!(i < n);
            let item = crate::race_region!("exclusive job slot", {
                crate::race_write!(slots.0.wrapping_add(i), 1);
                // SAFETY: `i < n` is in bounds and the cursor in `run`
                // claims each index exactly once, so this is the only live
                // reference to element `i`.
                unsafe { &mut *slots.slot(i) }
            });
            f(i, item);
        });
    }
}

/// Serial job loop with per-job catch: the [`WorkerPool::try_run`] path
/// for pools (or job sets) that never leave the calling thread.
fn run_serial_caught<F>(n_jobs: usize, job: &F) -> Result<(), JobPanicked>
where
    F: Fn(usize) + Sync,
{
    let mut first: Option<usize> = None;
    for i in 0..n_jobs {
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i))).is_err()
            && first.is_none()
        {
            first = Some(i);
        }
    }
    match first {
        None => Ok(()),
        Some(job) => Err(JobPanicked { job }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn serial_pool_runs_in_order_without_threads() {
        let pool = WorkerPool::serial();
        assert!(pool.is_serial());
        let main = std::thread::current().id();
        let mut order = Vec::new();
        // A serial pool may capture &mut state: prove it runs inline.
        let seen = std::sync::Mutex::new(&mut order);
        pool.run(5, |i| {
            assert_eq!(std::thread::current().id(), main);
            seen.lock().unwrap().push(i);
        });
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        for workers in [1, 2, 4, 7] {
            let pool = WorkerPool::new(workers);
            let n = 123;
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(n, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Relaxed),
                    1,
                    "job {i} with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn run_mut_gives_each_job_its_slot() {
        for workers in [1, 3, 8] {
            let pool = WorkerPool::new(workers);
            let mut slots = vec![0usize; 50];
            pool.run_mut(&mut slots, |i, slot| *slot = i * i);
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(*s, i * i, "{workers} workers");
            }
        }
    }

    #[test]
    fn zero_jobs_is_harmless() {
        WorkerPool::new(4).run(0, |_| panic!("no job to run"));
        WorkerPool::new(4).run_mut(&mut [] as &mut [u8], |_, _| panic!("no slot"));
    }

    #[test]
    fn requested_width_wins_over_auto() {
        assert_eq!(WorkerPool::new(3).workers(), 3);
        assert_eq!(resolve_workers(5), 5);
        assert!(resolve_workers(0) >= 1);
        assert!(WorkerPool::default().workers() >= 1);
    }

    #[test]
    fn never_more_claims_than_jobs() {
        // 2 jobs on an 8-wide pool: both must still run exactly once, even
        // though every resident worker races for the cursor.
        let pool = WorkerPool::new(8);
        let counts = [AtomicUsize::new(0), AtomicUsize::new(0)];
        pool.run(2, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counts[0].load(Ordering::Relaxed), 1);
        assert_eq!(counts[1].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn single_job_runs_inline_even_on_wide_pools() {
        let pool = WorkerPool::new(4);
        let main = std::thread::current().id();
        pool.run(1, |i| {
            assert_eq!(i, 0);
            assert_eq!(
                std::thread::current().id(),
                main,
                "1 job must not wake workers"
            );
        });
    }

    #[test]
    fn try_run_returns_typed_error_and_pool_survives() {
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let err = pool
                .try_run(8, |i| {
                    if i == 3 {
                        panic!("job 3 exploded");
                    }
                })
                .unwrap_err();
            assert_eq!(err, JobPanicked { job: 3 }, "{workers} workers");
            assert_eq!(err.to_string(), "worker-pool job 3 panicked");
            // The pool must remain fully usable after the panic.
            let counts: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
            pool.run(16, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "post-panic job {i}");
            }
        }
    }

    #[test]
    fn run_reraises_job_panics_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(4, |i| {
                if i == 1 {
                    panic!("original payload");
                }
            });
        }));
        let payload = result.expect_err("run must re-raise the panic");
        // Depending on which side claimed job 1, the payload is either the
        // original one (caller-side) or the typed JobPanicked marker
        // (worker-side) — both carry enough to identify the failure.
        let identified = payload
            .downcast_ref::<&str>()
            .is_some_and(|s| *s == "original payload")
            || payload
                .downcast_ref::<JobPanicked>()
                .is_some_and(|j| j.job == 1);
        assert!(identified, "unexpected panic payload");
        // And the pool still works.
        let sum = AtomicUsize::new(0);
        pool.run(10, |i| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 55);
    }

    #[test]
    fn drop_shuts_workers_down() {
        let pool = WorkerPool::new(4);
        pool.run(8, |_| {});
        drop(pool); // must not hang or leak: Drop joins every worker
    }
}
