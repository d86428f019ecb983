//! The parallel validation engine: a `std::thread::scope`-based worker
//! pool draining a sharded queue of filter validations.
//!
//! Filter validation is read-only over the frozen [`prism_db::Database`]
//! (the typed-columnar substrate makes search-time mutation impossible by
//! construction), and validations of *different* filters are
//! independent — the only shared mutable state of a scheduling run is the
//! pruning bookkeeping, which stays on the coordinator thread. That makes
//! the engine's contract simple:
//!
//! * the greedy loop picks a **batch** of mutually non-implying filters
//!   (see [`crate::scheduler`]) and hands it to the pool through
//!   `BatchRunner::run`, which blocks until every slot of the round is
//!   reported. Width 1 never gets here: it validates inline, with no pool;
//! * each slot of the batch carries an atomic **claim**; a worker first
//!   drains its home shard — slots `w, w + T, w + 2T, …` — then sweeps the
//!   whole batch **stealing** any slot still unclaimed, so a worker stuck
//!   on one expensive validation never strands the rest of its shard. A
//!   stolen slot is just a guarded validation against the thief's own
//!   [`ExecScratch`];
//! * verdicts are reported per slot, so the coordinator applies them in
//!   batch order: the outcome is deterministic regardless of how the OS
//!   interleaves workers — and regardless of who stole what;
//! * each worker accumulates its own [`ExecStats`] and injected-fault count
//!   and merges them into the pool's totals exactly once, at shutdown;
//! * the round deadline ([`SchedCtx::deadline`]) is the one stop signal:
//!   workers test it between slots and skip (rather than fail) the slots
//!   left once it has passed, and the guarded validator attaches it to
//!   each worker's [`ExecScratch`], so the executor's step tick stops a
//!   long scan mid-validation;
//! * every slot runs through the guarded validator of
//!   [`crate::validate`]: a panic inside a validation (a user UDF, an
//!   injected chaos fault, an engine bug) is contained as
//!   [`SlotVerdict::Faulted`] and the worker's scratch is quarantined and
//!   rebuilt — one bad filter can never collapse the pool or poison a
//!   sibling's slot.
//!
//! A round returns when its last slot is reported, and nothing gives up on
//! a slot early: `std::thread::scope` joins every worker before the pool
//! returns, so abandoning a slot could not return the round sooner. A slot
//! that overruns the deadline (a slow UDF between step ticks) delays the
//! round by its own overrun, and its verdict still counts.
//!
//! Everything here is plain `std` — `thread::scope`, `Mutex`, `Condvar`,
//! atomics — because the workspace vendors no async or thread-pool
//! dependencies.

use crate::constraints::TargetConstraints;
use crate::faults::SlotVerdict;
use crate::filters::{FilterId, FilterSet, PlanCache};
use crate::scheduler::SchedCtx;
use crate::validate::validate_filter_guarded;
use prism_db::{ExecScratch, ExecStats};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

// Everything a validation worker touches is shared immutably; prove the
// thread-safety of the whole read-only closure at the type level (the db
// crate asserts the same for `Database` and its internals — including the
// PR-4 scan structures: zone maps ride inside `Column`, CSR join indexes
// inside `Database`). The PR-5 prepared-plan cache is the one structure
// workers *write* through a shared reference: its `OnceLock` slots give
// exactly-once compilation, which is precisely why `PlanCache` must be
// `Sync`. Each worker's `ExecScratch` stays thread-local.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<SchedCtx<'static>>();
    _assert_send_sync::<TargetConstraints>();
    _assert_send_sync::<FilterSet>();
    _assert_send_sync::<PlanCache>();
    _assert_send_sync::<prism_db::PreparedQuery>();
    _assert_send_sync::<crate::filters::Filter>();
    _assert_send_sync::<prism_db::JoinIndex>();
    _assert_send_sync::<prism_db::BlockMeta>();
};

/// One round's batch with a per-slot claim word. Shared by `Arc` so a
/// worker still sweeping an old round holds it alive after the coordinator
/// has posted the next one. The claim CAS (`0 → 1`, `AcqRel`) is the only
/// synchronization a slot needs: exactly one worker ever validates it.
struct RoundWork {
    batch: Vec<FilterId>,
    claims: Vec<AtomicU8>,
}

impl RoundWork {
    fn new(batch: &[FilterId]) -> RoundWork {
        RoundWork {
            batch: batch.to_vec(),
            claims: (0..batch.len()).map(|_| AtomicU8::new(0)).collect(),
        }
    }

    /// Claim `slot` for the calling worker; false = someone else owns it.
    fn claim(&self, slot: usize) -> bool {
        self.claims[slot]
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// One round of work plus the pool's lifecycle state, all behind one lock.
struct RoundState {
    /// Bumped per batch; workers use it to detect fresh work.
    generation: u64,
    /// The current round's claimable batch; `None` before the first round.
    work: Option<Arc<RoundWork>>,
    /// Per-slot verdicts; every slot's report overwrites its placeholder.
    verdicts: Vec<SlotVerdict>,
    /// Batch slots not yet reported back.
    pending: usize,
    shutdown: bool,
    /// Workers that have merged their stats and exited.
    exited: usize,
    /// Per-worker [`ExecStats`], merged here once per worker at shutdown.
    exec: ExecStats,
    /// Slots validated by a worker outside their home shard, pool-lifetime.
    stolen: u64,
    /// Injected faults, merged here once per worker at shutdown.
    injected: u64,
}

struct PoolShared {
    round: Mutex<RoundState>,
    /// Workers wait here for a new generation or shutdown.
    work: Condvar,
    /// The coordinator waits here for round completion / worker exits.
    done: Condvar,
}

/// Coordinator-side handle to a running pool, passed to the scheduling
/// closure of [`validate_with_pool`].
pub(crate) struct BatchRunner<'p> {
    shared: &'p PoolShared,
}

impl BatchRunner<'_> {
    /// Validate `batch` across the pool and return per-slot verdicts in
    /// batch order. Blocks until every slot is reported; slots that the
    /// round deadline cut off report [`SlotVerdict::Skipped`].
    pub fn run(&mut self, batch: &[FilterId]) -> Vec<SlotVerdict> {
        let mut g = self.shared.round.lock().expect("pool lock");
        g.work = Some(Arc::new(RoundWork::new(batch)));
        g.verdicts.clear();
        g.verdicts.resize(batch.len(), SlotVerdict::Skipped);
        g.pending = batch.len();
        g.generation += 1;
        self.shared.work.notify_all();
        while g.pending > 0 {
            g = self.shared.done.wait(g).expect("pool lock");
        }
        std::mem::take(&mut g.verdicts)
    }
}

/// What a pool run produced besides the closure's result: the merged
/// per-worker [`ExecStats`], the work-stealing counter, and the number of
/// injected faults.
pub(crate) struct PoolReport {
    pub exec: ExecStats,
    pub stolen: u64,
    pub injected: u64,
}

/// Run `coordinate` against a live pool of `threads` validation workers
/// sharing `ctx` immutably. Returns the closure's result plus the merged
/// [`PoolReport`]. The pool is always shut down before this
/// returns — including when the closure panics, so `std::thread::scope`
/// can never deadlock on workers waiting for work.
pub(crate) fn validate_with_pool<R>(
    ctx: &SchedCtx<'_>,
    threads: usize,
    coordinate: impl FnOnce(&mut BatchRunner<'_>) -> R,
) -> (R, PoolReport) {
    let shared = PoolShared {
        round: Mutex::new(RoundState {
            generation: 0,
            work: None,
            verdicts: Vec::new(),
            pending: 0,
            shutdown: false,
            exited: 0,
            exec: ExecStats::default(),
            stolen: 0,
            injected: 0,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (shared, ctx) = (&shared, &*ctx);
            scope.spawn(move || worker_loop(w, threads, ctx, shared));
        }
        // Shut the workers down even if `coordinate` panics: without this
        // the scope would join forever against workers parked on `work`.
        struct ShutdownGuard<'p>(&'p PoolShared);
        impl Drop for ShutdownGuard<'_> {
            fn drop(&mut self) {
                if let Ok(mut g) = self.0.round.lock() {
                    g.shutdown = true;
                }
                self.0.work.notify_all();
            }
        }
        let guard = ShutdownGuard(&shared);
        let result = coordinate(&mut BatchRunner { shared: &shared });
        drop(guard); // normal path: request shutdown…
                     // …and wait for every worker to merge its stats.
        let mut g = shared.round.lock().expect("pool lock");
        while g.exited < threads {
            g = shared.done.wait(g).expect("pool lock");
        }
        (
            result,
            PoolReport {
                exec: g.exec,
                stolen: g.stolen,
                injected: g.injected,
            },
        )
    })
}

/// One validation worker: wait for a fresh generation, drain home-shard
/// slots `w, w + threads, …`, then sweep the batch stealing unclaimed
/// slots, report verdicts, repeat until shutdown.
fn worker_loop(w: usize, threads: usize, ctx: &SchedCtx<'_>, shared: &PoolShared) {
    let mut local_exec = ExecStats::default();
    let mut local_injected = 0u64;
    // Thread-local executor scratch, reused across every validation this
    // worker runs (all rounds of the pool's lifetime): buffers are cleared
    // between runs, never reallocated. The guarded validator attaches the
    // round deadline to it so the executor's step tick can interrupt scans
    // mid-validation — and quarantines + rebuilds it if a validation
    // unwinds through it.
    let mut scratch = ExecScratch::new();
    let mut seen_generation = 0u64;
    loop {
        let work: Arc<RoundWork> = {
            let mut g = shared.round.lock().expect("pool lock");
            loop {
                if g.shutdown {
                    g.exec.merge(&local_exec);
                    g.injected += local_injected;
                    g.exited += 1;
                    shared.done.notify_all();
                    return;
                }
                if g.generation != seen_generation {
                    seen_generation = g.generation;
                    break g.work.clone().expect("round posted with generation");
                }
                g = shared.work.wait(g).expect("pool lock");
            }
        };
        // All validation happens outside the lock, fault-contained: a slot
        // past the deadline is still claimed and reported (`Skipped` —
        // unknown, not failed), a panicking one reports `Faulted`, so
        // `pending` always drains to zero.
        let mut run_one = |slot: usize,
                           scratch: &mut ExecScratch,
                           exec: &mut ExecStats|
         -> SlotVerdict {
            if ctx.deadline.is_some_and(|d| Instant::now() >= d) {
                SlotVerdict::Skipped
            } else {
                validate_filter_guarded(ctx, work.batch[slot], scratch, exec, &mut local_injected)
            }
        };
        let mut verdicts: Vec<(usize, SlotVerdict)> = Vec::new();
        // Phase 1: the home shard, every slot attempted exactly once.
        let mut slot = w;
        while slot < work.batch.len() {
            if work.claim(slot) {
                let v = run_one(slot, &mut scratch, &mut local_exec);
                verdicts.push((slot, v));
            }
            slot += threads;
        }
        // Phase 2: steal. Home slots are settled (phase 1 attempted each),
        // so any claim that succeeds here is work lifted off a busy
        // sibling's shard — same validation path, this worker's scratch.
        let mut stolen = 0u64;
        for slot in 0..work.batch.len() {
            if slot % threads == w {
                continue;
            }
            if work.claim(slot) {
                stolen += 1;
                let v = run_one(slot, &mut scratch, &mut local_exec);
                verdicts.push((slot, v));
            }
        }
        // The coordinator posts the next round only once every slot of
        // this one is reported, and these claimed slots are not yet, so
        // the report always belongs to the current round.
        if !verdicts.is_empty() {
            let mut g = shared.round.lock().expect("pool lock");
            debug_assert_eq!(g.generation, seen_generation);
            g.pending -= verdicts.len();
            for (s, v) in verdicts {
                g.verdicts[s] = v;
            }
            g.stolen += stolen;
            if g.pending == 0 {
                shared.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_claimed_exactly_once() {
        let work = RoundWork {
            batch: Vec::new(),
            claims: (0..4).map(|_| AtomicU8::new(0)).collect(),
        };
        for slot in 0..4 {
            assert!(work.claim(slot), "first claim of slot {slot} wins");
            assert!(!work.claim(slot), "second claim of slot {slot} loses");
        }
    }
}
