//! The parallel validation engine: a `std::thread::scope`-based worker
//! pool draining a sharded queue of filter validations.
//!
//! Filter validation is read-only over the frozen [`prism_db::Database`]
//! (the PR-2 typed-columnar substrate made search-time mutation
//! impossible by construction), and validations of *different* filters are
//! independent — the only shared mutable state of a scheduling run is the
//! pruning bookkeeping, which stays on the coordinator thread. That makes
//! the engine's contract simple:
//!
//! * the greedy loop picks a **batch** of mutually non-implying filters
//!   (see [`crate::scheduler`]) and hands it to the pool through
//!   [`BatchRunner::run`], which blocks until the round drains. Width 1
//!   never gets here: it validates inline, with no pool;
//! * each slot of the batch carries an atomic **claim**; a worker first
//!   drains its home shard — slots `w, w + T, w + 2T, …` — then sweeps the
//!   whole batch **stealing** any slot still unclaimed, so a worker stuck
//!   on one expensive validation never strands the rest of its shard. A
//!   stolen slot is just a guarded validation against the thief's own
//!   [`ExecScratch`];
//! * verdicts are reported per slot, so the coordinator applies them in
//!   batch order: the outcome is deterministic regardless of how the OS
//!   interleaves workers — and regardless of who stole what;
//! * each worker accumulates its own [`ExecStats`] and merges them into
//!   the pool's total exactly once, at shutdown;
//! * a cooperative [`CancelFlag`] carries the deadline into a round: the
//!   coordinator raises it when the deadline passes while the round
//!   drains, workers test it between validations and skip
//!   (rather than abort) the remaining work of the round. The flag is also
//!   threaded *into* each worker's [`ExecScratch`], so the executor's
//!   in-query step tick can interrupt a long scan mid-validation;
//! * every slot runs through [`crate::validate::validate_filter_guarded`]:
//!   a panic inside a validation (a user UDF, an injected chaos fault, an
//!   engine bug) is contained as [`SlotVerdict::Faulted`] and the worker's
//!   scratch is quarantined and rebuilt — one bad filter can never
//!   collapse the pool or poison a sibling's slot;
//! * a coordinator-side **watchdog** escalates a round stuck past the
//!   deadline: first the cooperative cancel flag, then — after a grace
//!   window ([`ABANDON_GRACE`]) — a hard abandon that detaches the round
//!   and reconciles its missing verdicts as [`SlotVerdict::Skipped`]
//!   (unknown). Late reports from detached workers are dropped by a
//!   generation check.
//!
//! Everything here is plain `std` — `thread::scope`, `Mutex`, `Condvar`,
//! `AtomicBool` — because the workspace vendors no async or thread-pool
//! dependencies.

use crate::constraints::TargetConstraints;
use crate::faults::{FaultCounters, SlotVerdict};
use crate::filters::{FilterId, FilterSet, PlanCache};
use crate::scheduler::SchedCtx;
use crate::validate::{validate_filter_guarded, SlotEnv};
use prism_db::{ExecScratch, ExecStats};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// Cooperative cancellation shared by the coordinator and all workers.
/// Once raised, every not-yet-started validation is skipped, and — through
/// the [`Arc`] handle [`CancelFlag::shared`] plants in each worker's
/// [`ExecScratch`] — the executor's step tick aborts in-flight scans at
/// the next row boundary, so even a single enormous validation cannot
/// blow through the round deadline unchecked.
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    pub fn new() -> CancelFlag {
        CancelFlag(Arc::new(AtomicBool::new(false)))
    }

    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// A shared handle for [`ExecScratch::set_cancel`]: the executor polls
    /// it between rows.
    pub fn shared(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.0)
    }
}

/// How long past the deadline the coordinator's watchdog waits for
/// cooperative cancellation to drain a round before hard-abandoning it.
/// Generous relative to the executor's tick granularity (~1024 rows).
const ABANDON_GRACE: Duration = Duration::from_millis(200);

impl Default for CancelFlag {
    fn default() -> CancelFlag {
        CancelFlag::new()
    }
}

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
    /// Bumped per batch; workers use it to detect fresh work — and, with
    /// [`RoundState::abandoned`], to discard late reports against a round
    /// the watchdog already reconciled.
    generation: u64,
    /// The current round's claimable batch; `None` before the first round.
    work: Option<Arc<RoundWork>>,
    /// Per-slot verdicts, pre-filled with [`SlotVerdict::Skipped`] so an
    /// abandoned round reads as all-unknown without further bookkeeping.
    verdicts: Vec<SlotVerdict>,
    /// Batch slots not yet reported back.
    pending: usize,
    /// The watchdog detached the in-flight round: its workers are still
    /// running (cancel flag raised), but their verdicts no longer count.
    abandoned: bool,
    shutdown: bool,
    /// Workers that have merged their stats and exited.
    exited: usize,
    /// Per-worker [`ExecStats`], merged here once per worker at shutdown.
    exec: ExecStats,
    /// Slots validated by a worker outside their home shard, pool-lifetime.
    stolen: u64,
    /// Per-worker fault counters, merged once per worker at shutdown.
    faults: FaultCounters,
    /// Rounds the watchdog hard-abandoned, pool-lifetime.
    rounds_abandoned: u64,
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
    cancel: &'p CancelFlag,
    deadline: Option<Instant>,
}

impl BatchRunner<'_> {
    /// Validate `batch` across the pool and return per-slot verdicts in
    /// batch order. Blocks until every slot is reported — or until the
    /// watchdog gives up on the round. Without a deadline the coordinator
    /// parks until the workers' completion notify; with one, the wait
    /// polls it.
    ///
    /// Watchdog escalation: at the deadline the cancel flag is raised
    /// (cooperative — workers skip unstarted slots, in-flight executors
    /// abort at the next step tick); if the round *still* has not drained
    /// [`ABANDON_GRACE`] past the deadline, the round is **hard-abandoned**
    /// — marked detached, its pending count zeroed, its unreported slots
    /// left as [`SlotVerdict::Skipped`] (unknown). Detached workers keep running
    /// harmlessly until their next report, which the generation/abandoned
    /// check discards.
    pub fn run(&mut self, batch: &[FilterId]) -> Vec<SlotVerdict> {
        let mut g = self.shared.round.lock().expect("pool lock");
        g.work = Some(Arc::new(RoundWork::new(batch)));
        g.verdicts.clear();
        g.verdicts.resize(batch.len(), SlotVerdict::Skipped);
        g.pending = batch.len();
        g.abandoned = false;
        g.generation += 1;
        self.shared.work.notify_all();
        while g.pending > 0 {
            match self.deadline {
                None => g = self.shared.done.wait(g).expect("pool lock"),
                Some(d) => {
                    let (guard, _) = self
                        .shared
                        .done
                        .wait_timeout(g, Duration::from_millis(2))
                        .expect("pool lock");
                    g = guard;
                    let now = Instant::now();
                    if !self.cancel.is_cancelled() && now >= d {
                        self.cancel.cancel();
                    }
                    if d.checked_add(ABANDON_GRACE)
                        .is_some_and(|give_up| now >= give_up)
                    {
                        g.abandoned = true;
                        g.pending = 0;
                        g.rounds_abandoned += 1;
                        break;
                    }
                }
            }
        }
        std::mem::take(&mut g.verdicts)
    }
}

/// What a pool run produced besides the closure's result: the merged
/// per-worker [`ExecStats`], the work-stealing counter, and the fault
/// ledger.
pub(crate) struct PoolReport {
    pub exec: ExecStats,
    pub stolen: u64,
    pub faults: FaultCounters,
    pub rounds_abandoned: u64,
}

/// Run `coordinate` against a live pool of `threads` validation workers
/// sharing `ctx` immutably. Returns the closure's result plus the merged
/// [`PoolReport`]. The pool is always shut down before this
/// returns — including when the closure panics, so `std::thread::scope`
/// can never deadlock on workers waiting for work.
pub(crate) fn validate_with_pool<R>(
    ctx: &SchedCtx<'_>,
    threads: usize,
    deadline: Option<Instant>,
    coordinate: impl FnOnce(&mut BatchRunner<'_>) -> R,
) -> (R, PoolReport) {
    let shared = PoolShared {
        round: Mutex::new(RoundState {
            generation: 0,
            work: None,
            verdicts: Vec::new(),
            pending: 0,
            abandoned: false,
            shutdown: false,
            exited: 0,
            exec: ExecStats::default(),
            stolen: 0,
            faults: FaultCounters::default(),
            rounds_abandoned: 0,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    };
    let cancel = CancelFlag::new();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (shared, cancel, ctx) = (&shared, &cancel, &*ctx);
            scope.spawn(move || worker_loop(w, threads, ctx, shared, cancel, deadline));
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
        let mut runner = BatchRunner {
            shared: &shared,
            cancel: &cancel,
            deadline,
        };
        let result = coordinate(&mut runner);
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
                faults: g.faults,
                rounds_abandoned: g.rounds_abandoned,
            },
        )
    })
}

/// One validation worker: wait for a fresh generation, drain home-shard
/// slots `w, w + threads, …`, then sweep the batch stealing unclaimed
/// slots, report verdicts, repeat until shutdown.
fn worker_loop(
    w: usize,
    threads: usize,
    ctx: &SchedCtx<'_>,
    shared: &PoolShared,
    cancel: &CancelFlag,
    deadline: Option<Instant>,
) {
    let mut local_exec = ExecStats::default();
    let mut local_faults = FaultCounters::default();
    // Thread-local executor scratch, reused across every validation this
    // worker runs (all rounds of the pool's lifetime): buffers are cleared
    // between runs, never reallocated. The guarded validator arms it with
    // the pool's cancel flag and deadline so the executor's step tick can
    // interrupt scans mid-validation — and quarantines + rebuilds it if a
    // validation unwinds through it.
    let cancel_shared = cancel.shared();
    let env = SlotEnv {
        db: ctx.db,
        fs: ctx.fs,
        constraints: ctx.constraints,
        faults: ctx.faults.as_ref(),
        cancel: Some(&cancel_shared),
        deadline,
    };
    let mut scratch = ExecScratch::new();
    let mut seen_generation = 0u64;
    loop {
        let work: Arc<RoundWork> = {
            let mut g = shared.round.lock().expect("pool lock");
            loop {
                if g.shutdown {
                    g.exec.merge(&local_exec);
                    g.faults.merge(&local_faults);
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
        // All validation happens outside the lock, fault-contained: a
        // cancelled slot is still claimed and reported (`Skipped` —
        // unknown, not failed), a panicking one reports `Faulted`, so
        // `pending` always drains to zero unless the watchdog detaches
        // the round first.
        let mut run_one = |slot: usize,
                           scratch: &mut ExecScratch,
                           exec: &mut ExecStats|
         -> SlotVerdict {
            if cancel.is_cancelled() {
                SlotVerdict::Skipped
            } else {
                validate_filter_guarded(&env, work.batch[slot], scratch, exec, &mut local_faults)
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
        if !verdicts.is_empty() {
            let mut g = shared.round.lock().expect("pool lock");
            if g.generation == seen_generation && !g.abandoned {
                let n = verdicts.len();
                for (s, v) in verdicts {
                    g.verdicts[s] = v;
                }
                g.pending -= n;
                g.stolen += stolen;
                if g.pending == 0 {
                    shared.done.notify_all();
                }
            } else {
                // The watchdog detached this round (or a newer one was
                // posted over it): the coordinator already reconciled these
                // slots as unknown, so the verdicts are dropped. The
                // steal counter still reflects work actually done.
                g.stolen += stolen;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_flag_round_trips() {
        let c = CancelFlag::new();
        assert!(!c.is_cancelled());
        c.cancel();
        assert!(c.is_cancelled());
        c.cancel(); // idempotent
        assert!(c.is_cancelled());
    }

    #[test]
    fn shared_handle_observes_cancellation() {
        let c = CancelFlag::new();
        let h = c.shared();
        assert!(!h.load(Ordering::Acquire));
        c.cancel();
        assert!(h.load(Ordering::Acquire), "executor-side handle sees it");
    }

    #[test]
    fn grace_window_defaults_sane() {
        // The watchdog window must be positive: zero would abandon every
        // round at the deadline instant, before cooperative cancellation
        // gets a chance.
        assert!(ABANDON_GRACE > Duration::ZERO);
    }

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
