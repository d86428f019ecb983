//! Step 2c: filter validation scheduling.
//!
//! Section 2.3: *"A new important issue becomes the filter validation
//! scheduling: in what order the filters are validated so that the most
//! number of filters are pruned, as well as overall filter validation time
//! is minimized. A filter scheduling algorithm should naturally consider
//! two important aspects of a filter: pruning power and cost."*
//!
//! The greedy loop repeatedly validates the pending filter maximizing
//!
//! ```text
//! score(f) = (P_fail(f) · pruned_if_fail(f) + (1 − P_fail(f)) · implied_if_succeed(f)) / cost(f)
//! ```
//!
//! where `pruned_if_fail` counts the pending filters of the candidates `f`
//! would kill and `implied_if_succeed` counts `f`'s pending sub-filters. The
//! **cost model is shared by all schedulers** (the paper explicitly scopes
//! cost estimation out and focuses on pruning power), so differences come
//! only from `P_fail`:
//!
//! * [`SchedulerKind::PathLength`] — the "Filter" baseline of Shen et al.
//!   \[8\]: failure probability proportional to the join path length.
//! * [`SchedulerKind::Bayes`] — Prism: failure probability from the trained
//!   [`prism_bayes::BayesEstimator`].
//! * [`SchedulerKind::Naive`] — no decomposition: validate each candidate's
//!   full queries in enumeration order (the paper's "naïve solution").
//! * [`SchedulerKind::Oracle`] — hindsight optimum (Section 2.4's
//!   "optimum"): with outcomes known, accepted candidates cost one top
//!   validation per sample (shared maximal tops counted once) and failing
//!   candidates are covered by a greedy minimum set cover of failing
//!   filters.
//!
//! ## Incremental scoring
//!
//! The greedy loop keeps one score cache per run. After each round's
//! verdicts are applied, `reconcile` invalidates exactly the scores in
//! their dependency cone, and selection recomputes only those; every other
//! score is reused as stored, and selection takes the best ones from a
//! ranking of the stored scores instead of sorting them all. A cached
//! score always equals a fresh one, so caching cannot change a pick (debug
//! builds recompute every pending score at every selection and assert
//! this).
//!
//! ## Batch width
//!
//! [`Engine::Greedy`] runs one loop (`greedy_rounds`) whose batch width
//! is its thread count. Width 1 validates one filter per round inline on
//! the calling thread, with no pool. A wider round picks a *batch* of
//! top-scoring, mutually **non-implying** filters (no batch member can
//! resolve another through success/failure propagation, so decomposition
//! pruning loses nothing to concurrency) and validates it on the
//! [`crate::parallel`] worker pool. Validation outcomes are ground truth —
//! independent of order — so every width accepts the **identical candidate
//! set** for every [`SchedulerKind`]; only wall-clock time and the
//! validation interleaving (hence the validation *counts*) may differ.

use crate::constraints::TargetConstraints;
use crate::faults::{FaultSpec, SlotVerdict};
use crate::filters::{Filter, FilterId, FilterSet};
use crate::parallel::{validate_with_pool, BatchRunner};
use crate::validate::{validate_filter_cached, validate_filter_guarded};
use prism_bayes::{BayesEstimator, Side};
use prism_db::hash::MulRotMap;
use prism_db::{Database, EdgeId, ExecScratch, ExecStats, TableId};
use prism_lang::ValueConstraint;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;
use std::time::Instant;

/// Which validation strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Whole-query validation in enumeration order (ablation A2).
    Naive,
    /// Filter decomposition with path-length failure probabilities — the
    /// paper's baseline "Filter" \[8\].
    PathLength,
    /// Filter decomposition with Bayesian failure probabilities — Prism.
    Bayes,
    /// Hindsight optimum (not executable interactively; used as the E3
    /// yardstick).
    Oracle,
}

impl SchedulerKind {
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Naive => "naive",
            SchedulerKind::PathLength => "filter(path-length)",
            SchedulerKind::Bayes => "prism(bayes)",
            SchedulerKind::Oracle => "oracle",
        }
    }
}

/// Failure-probability model used by the greedy loop.
pub trait FailureModel {
    fn failure_probability(&self, db: &Database, fs: &FilterSet, f: FilterId) -> f64;
}

/// Baseline \[8\]: `P(fail) ∝ join path length`.
pub struct PathLengthModel;

impl FailureModel for PathLengthModel {
    fn failure_probability(&self, _db: &Database, fs: &FilterSet, f: FilterId) -> f64 {
        let len = fs.filter(f).join_count() as f64;
        (0.15 * (len + 1.0)).min(0.9)
    }
}

/// Prism: Bayesian models + join indicators.
///
/// One model scores one scheduling run, and memoizes every inference it
/// makes for the run's lifetime, first per predicate, then per predicate
/// set:
///
/// * per predicate, the evidence: each join edge side's pair mask
///   ([`prism_bayes::JoinIndicator::pair_mask`]) keyed by `(sample,
///   target, edge, side, column)`, and each column's per-bin weights
///   ([`prism_bayes::RelationModel::column_weights`]) keyed by `(sample,
///   target, table, column)`;
/// * per predicate set, a table's `(column, target)` list interned to an
///   id: each table's relation probability keyed by `(sample, table, set)`,
///   and each edge's factor keyed by `(sample, edge, set on a, set on b)`.
///
/// Filters share trees and constraint cells, so a round's hundreds of
/// filters reduce to a few dozen distinct edge factors, and each of those
/// ANDs masks that other edge factors of the round already computed. Keys
/// name a constraint by its `(sample, target)` index into the fixed
/// [`TargetConstraints`], stable for the model's lifetime, so the memo can
/// never alias two different constraints; nothing outlives the model.
/// Construct via [`BayesModel::new`].
pub struct BayesModel<'a> {
    pub estimator: &'a BayesEstimator,
    pub constraints: &'a TargetConstraints,
    memo: RefCell<InferenceMemo>,
}

/// A predicate's memo key: `(sample, target, edge, side, column)`.
type MaskKey = (usize, usize, EdgeId, Side, u32);

#[derive(Default)]
struct InferenceMemo {
    /// Interned predicate sets: one table's `(column, target)` pairs, in
    /// filter order.
    sets: MulRotMap<Vec<(u32, usize)>, u32>,
    relations: RelationMemo,
    edges: MulRotMap<(usize, EdgeId, u32, u32), f64>,
    masks: MulRotMap<MaskKey, Vec<u64>>,
    /// One call's predicates grouped per tree table: `keys[group.keys]`.
    keys: Vec<(u32, usize)>,
    groups: Vec<Group>,
}

/// The predicates of one filter on one table of its tree, in the order of
/// the tree's tables.
struct Group {
    table: TableId,
    /// Interned id of `keys`.
    set: u32,
    /// Range of the model's `keys` scratch.
    keys: Range<usize>,
}

#[derive(Default)]
struct RelationMemo {
    probability: MulRotMap<(usize, TableId, u32), f64>,
    weights: MulRotMap<(usize, usize, TableId, u32), Vec<f64>>,
}

impl<'a> BayesModel<'a> {
    pub fn new(
        estimator: &'a BayesEstimator,
        constraints: &'a TargetConstraints,
    ) -> BayesModel<'a> {
        BayesModel {
            estimator,
            constraints,
            memo: RefCell::default(),
        }
    }

    /// The constraint on `target` in sample `s`.
    fn cell(&self, s: usize, target: usize) -> &'a ValueConstraint {
        self.constraints.samples[s]
            .cell(target)
            .expect("constrained cell")
    }
}

impl RelationMemo {
    /// [`BayesEstimator::relation_probability`] of `t` under sample `s`'s
    /// constraints on `keys`, interned as `set`: composed from memoized
    /// column weights on a miss.
    fn probability(
        &mut self,
        model: &BayesModel<'_>,
        s: usize,
        t: TableId,
        set: u32,
        keys: &[(u32, usize)],
    ) -> f64 {
        if let Some(&p) = self.probability.get(&(s, t, set)) {
            return p;
        }
        let relation = model.estimator.relation(t);
        for &(col, target) in keys {
            self.weights
                .entry((s, target, t, col))
                .or_insert_with(|| relation.column_weights(col, model.cell(s, target)));
        }
        let weights = &self.weights;
        let p = relation.probability_with(
            keys.iter()
                .map(|&(col, target)| (col, weights[&(s, target, t, col)].as_slice())),
        );
        self.probability.insert((s, t, set), p);
        p
    }
}

impl FailureModel for BayesModel<'_> {
    /// `exp(-E[matches])` — the same Poisson zero class as
    /// [`BayesEstimator::failure_probability`], composed from the
    /// estimator's pieces (`relation_probability` through
    /// `RelationModel::probability_with`, and `edge_factor_with` with the
    /// joint of memoized pair masks) in the same order, so the result is
    /// bit-identical; a regression test asserts it.
    fn failure_probability(&self, db: &Database, fs: &FilterSet, f: FilterId) -> f64 {
        let filter = fs.filter(f);
        let s = filter.sample;
        let mut memo = self.memo.borrow_mut();
        let InferenceMemo {
            sets,
            relations,
            edges,
            masks,
            keys,
            groups,
        } = &mut *memo;
        keys.clear();
        groups.clear();
        for &table in &filter.tree.tables {
            let start = keys.len();
            keys.extend(
                filter
                    .preds
                    .iter()
                    .filter(|(_, col)| col.table == table)
                    .map(|&(target, col)| (col.column, target)),
            );
            let set = match sets.get(&keys[start..]) {
                Some(&id) => id,
                None => {
                    let id = sets.len() as u32;
                    sets.insert(keys[start..].to_vec(), id);
                    id
                }
            };
            groups.push(Group {
                table,
                set,
                keys: start..keys.len(),
            });
        }
        let mut expected = 1.0f64;
        for g in groups.iter() {
            let rows = db.row_count(g.table) as f64;
            if rows == 0.0 {
                expected = 0.0;
                break;
            }
            expected *= rows;
            if !g.keys.is_empty() {
                expected *= relations.probability(self, s, g.table, g.set, &keys[g.keys.clone()]);
            }
        }
        if expected > 0.0 {
            for &eid in &filter.tree.edges {
                let edge = db.graph().edge(eid);
                // A tree's sorted tables span its edges' endpoints.
                let side = |t: TableId| {
                    let g = &groups[filter.tree.tables.binary_search(&t).expect("tree table")];
                    (g.set, &keys[g.keys.clone()])
                };
                let (a, b) = (side(edge.a.table), side(edge.b.table));
                if let Some(&x) = edges.get(&(s, eid, a.0, b.0)) {
                    expected *= x;
                    continue;
                }
                let sides = [(Side::A, a.1), (Side::B, b.1)];
                let x = self.estimator.edge_factor_with(
                    db,
                    eid,
                    !(a.1.is_empty() && b.1.is_empty()),
                    |ji| {
                        for &(side, keys) in &sides {
                            for &(col, target) in keys {
                                masks.entry((s, target, eid, side, col)).or_insert_with(|| {
                                    ji.pair_mask(db, side, col, self.cell(s, target))
                                });
                            }
                        }
                        let masks = &*masks;
                        let all: Vec<&[u64]> = sides
                            .iter()
                            .flat_map(|&(side, keys)| {
                                keys.iter().map(move |&(col, target)| {
                                    masks[&(s, target, eid, side, col)].as_slice()
                                })
                            })
                            .collect();
                        ji.joint_of_masks(&all)
                    },
                    |end| {
                        let (t, (set, keys)) = match end {
                            Side::A => (edge.a.table, a),
                            Side::B => (edge.b.table, b),
                        };
                        relations.probability(self, s, t, set, keys)
                    },
                );
                edges.insert((s, eid, a.0, b.0), x);
                expected *= x;
            }
        }
        (-expected.max(0.0)).exp().clamp(0.0, 1.0)
    }
}

/// Outcome of running a schedule to completion (or deadline).
#[derive(Debug, Clone, Default)]
pub struct ScheduleOutcome {
    /// Candidate ids whose every top filter was (directly or transitively)
    /// validated successfully.
    pub accepted: Vec<u32>,
    /// Filter validations actually executed.
    pub validations: u64,
    /// Filters resolved for free by success propagation.
    pub implied_successes: u64,
    /// Filters resolved for free by failure propagation.
    pub implied_failures: u64,
    /// Execution work across all validations, including the zone-map
    /// pruning counter ([`ExecStats::blocks_skipped`]): validation
    /// predicates carry numeric hulls derived from their constraint ASTs
    /// (see [`crate::validate::validate_filter`]), so block-partitioned
    /// scans skip provably-empty blocks.
    pub exec: ExecStats,
    /// Batch slots executed by a worker other than their home shard's
    /// owner (the work-stealing pool's load-balancing counter; always 0
    /// for `Naive` and `threads <= 1`).
    pub stolen: u64,
    /// Inert: always 0, kept so callers that still read it compile.
    pub rounds_overlapped: u64,
    /// Inert: always 0, kept so callers that still read it compile.
    pub speculative_scores: u64,
    /// Inert: always 0, kept so callers that still read it compile.
    pub speculative_wasted: u64,
    /// True if the deadline expired before every candidate was classified.
    pub timed_out: bool,
    /// Faults the injection layer fired across this run's validation
    /// slots (0 unless [`SchedCtx::faults`] armed injection).
    pub faults_injected: u64,
    /// Filters whose validation faulted — a contained panic (user UDF,
    /// injected chaos, engine bug) or an executor error. Each entry names
    /// the candidates it abandoned. Empty = clean run.
    pub faulted: Vec<FaultedFilter>,
}

/// One faulted filter in a [`ScheduleOutcome`]: the scheduling-level
/// record behind a degraded result's
/// [`crate::faults::FaultReport`].
#[derive(Debug, Clone)]
pub struct FaultedFilter {
    pub filter: FilterId,
    /// Contained panic message or executor error.
    pub reason: String,
    /// Alive candidates abandoned because this filter — one of their top
    /// filters — can no longer be decided.
    pub candidates: Vec<u32>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FState {
    Pending,
    Succeeded,
    Failed,
    /// Validation faulted: the verdict is unobtainable, which is *not*
    /// evidence — neither success nor failure propagates from here.
    Faulted,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum CState {
    Alive,
    Accepted,
    Failed,
    /// A top filter faulted: the candidate can never be proven, but was
    /// not disproven either. Excluded from results, reported as degraded.
    Abandoned,
}

/// The read-only side of one scheduling run: the frozen database, the
/// constraint set, the filter lattice, and the wall-clock budget. Split
/// from `RunState` so the parallel engine's workers can borrow it
/// immutably across threads while the coordinator owns the mutable pruning
/// state (the `db` crate asserts `Database: Send + Sync`; `crate::parallel`
/// asserts the rest).
pub struct SchedCtx<'a> {
    pub db: &'a Database,
    pub constraints: &'a TargetConstraints,
    pub fs: &'a FilterSet,
    /// Deadline after which the run reports `timed_out`; `None` = unbounded.
    pub deadline: Option<Instant>,
    /// Deterministic fault injection into validation slots; `None` (the
    /// default) disables injection.
    pub faults: Option<FaultSpec>,
}

impl<'a> SchedCtx<'a> {
    pub fn new(
        db: &'a Database,
        constraints: &'a TargetConstraints,
        fs: &'a FilterSet,
    ) -> SchedCtx<'a> {
        SchedCtx {
            db,
            constraints,
            fs,
            deadline: None,
            faults: None,
        }
    }

    pub fn with_deadline(mut self, deadline: Option<Instant>) -> SchedCtx<'a> {
        self.deadline = deadline;
        self
    }

    pub fn with_faults(mut self, faults: Option<FaultSpec>) -> SchedCtx<'a> {
        self.faults = faults;
        self
    }
}

/// Which validation engine [`Scheduler::run`] drives over a [`SchedCtx`].
///
/// This is the single entry point's axis of variation: `Naive` is the
/// paper's ablation A2 (whole queries, enumeration order), `Greedy` is the
/// decomposed scheduler under any [`FailureModel`], validating inline at
/// `threads <= 1` and in batches on the work-stealing pool otherwise.
pub enum Engine<'m> {
    /// Whole-query validation in enumeration order (no decomposition).
    Naive,
    /// Greedy decomposed scheduling under `model`, validating batches of
    /// up to `threads` mutually non-implying filters per round (`<= 1` =
    /// one filter per round, inline on the calling thread).
    Greedy {
        model: &'m dyn FailureModel,
        threads: usize,
    },
    /// Inert alias of [`Engine::Greedy`], kept so callers that name it compile.
    Pipelined {
        model: &'m dyn FailureModel,
        threads: usize,
    },
}

/// The one entry point for running a schedule.
pub struct Scheduler;

impl Scheduler {
    pub fn run(ctx: &SchedCtx<'_>, engine: Engine<'_>) -> ScheduleOutcome {
        match engine {
            Engine::Naive => naive_schedule(ctx),
            Engine::Greedy { model, threads } | Engine::Pipelined { model, threads } => {
                greedy(ctx, model, threads)
            }
        }
    }
}

/// The mutable pruning state of one scheduling run. Only the coordinator
/// thread ever touches it — workers report verdicts, the coordinator
/// applies them in deterministic batch order.
struct RunState {
    fstate: Vec<FState>,
    cstate: Vec<CState>,
    /// Unresolved top filters per candidate. This — not raw pending filter
    /// counts — is the currency of scheduling: the only validations that are
    /// ever *required* are top resolutions (for acceptance) and one failing
    /// filter per doomed candidate (for rejection).
    unresolved_tops: Vec<u32>,
    /// Candidates still `Alive`: the loop's termination test without a
    /// scan over `cstate`.
    live: usize,
    /// Executor scratch reused across every validation the coordinator
    /// runs itself (width 1 and `Naive`); pool workers hold their own.
    scratch: ExecScratch,
    /// Filters and candidates whose scheduling state changed since the
    /// last [`reconcile`] — the score cache's staleness feed.
    changelog: ChangeLog,
    outcome: ScheduleOutcome,
}

/// What changed while a round's verdicts were applied: the inputs of
/// [`Scoring::score`] are exactly per-filter state (`fstate`) and
/// per-candidate state (aliveness, `unresolved_tops`), so recording these
/// two id streams lets [`reconcile`] invalidate precisely the cached
/// scores the verdicts could have changed. Duplicates are fine — touching
/// is idempotent.
#[derive(Default)]
struct ChangeLog {
    filters: Vec<FilterId>,
    candidates: Vec<u32>,
}

impl RunState {
    fn new(ctx: &SchedCtx<'_>) -> RunState {
        let n_cands = ctx.fs.per_candidate.len();
        let mut state = RunState {
            fstate: vec![FState::Pending; ctx.fs.len()],
            cstate: vec![CState::Alive; n_cands],
            unresolved_tops: ctx.fs.tops.iter().map(|v| v.len() as u32).collect(),
            live: n_cands,
            scratch: ExecScratch::new(),
            changelog: ChangeLog::default(),
            outcome: ScheduleOutcome::default(),
        };
        // Step-1 pre-validated filters start out succeeded (no propagation
        // needed: they have no subfilters).
        for f in &ctx.fs.filters {
            if f.prevalidated {
                state.fstate[f.id.index()] = FState::Succeeded;
                for &c in &f.top_for {
                    state.unresolved_tops[c as usize] -= 1;
                }
            }
        }
        // Degenerate candidates (e.g. single-table, single-pred tops) may be
        // fully resolved already.
        for c in 0..n_cands {
            state.check_acceptance(ctx, c as u32);
        }
        // Nothing is cached yet, so the initial resolutions need no
        // reconciliation.
        state.changelog.filters.clear();
        state.changelog.candidates.clear();
        state
    }

    fn alive(&self, c: u32) -> bool {
        self.cstate[c as usize] == CState::Alive
    }

    /// The pending filters, in id order.
    fn pending(&self) -> impl Iterator<Item = FilterId> + '_ {
        (0..self.fstate.len() as u32)
            .map(FilterId)
            .filter(|f| self.fstate[f.index()] == FState::Pending)
    }

    /// Move alive candidate `c` to its final state `to`.
    fn retire(&mut self, c: u32, to: CState) {
        debug_assert!(self.alive(c) && to != CState::Alive);
        self.cstate[c as usize] = to;
        self.live -= 1;
        self.log_candidate(c);
    }

    /// `t` is still pending and is an unresolved top of some alive
    /// candidate — i.e. validating it is *required* progress, not just
    /// information.
    fn is_alive_pending_top(&self, fs: &FilterSet, t: FilterId) -> bool {
        self.fstate[t.index()] == FState::Pending
            && fs.filter(t).top_for.iter().any(|&c| self.alive(c))
    }

    #[inline]
    fn log_filter(&mut self, f: FilterId) {
        self.changelog.filters.push(f);
    }

    #[inline]
    fn log_candidate(&mut self, c: u32) {
        self.changelog.candidates.push(c);
    }

    /// Mark `f` succeeded; propagate to subfilters; update acceptance.
    fn mark_success(&mut self, ctx: &SchedCtx<'_>, f: FilterId, implied: bool) {
        if self.fstate[f.index()] != FState::Pending {
            return;
        }
        self.fstate[f.index()] = FState::Succeeded;
        self.log_filter(f);
        if implied {
            self.outcome.implied_successes += 1;
        }
        for &c in &ctx.fs.filter(f).top_for {
            self.unresolved_tops[c as usize] -= 1;
            self.log_candidate(c);
        }
        for &s in &ctx.fs.filter(f).subfilters {
            self.mark_success(ctx, s, true);
        }
        for &c in &ctx.fs.filter(f).top_for {
            self.check_acceptance(ctx, c);
        }
    }

    /// Mark `f` failed; propagate to superfilters; kill member candidates.
    fn mark_failure(&mut self, ctx: &SchedCtx<'_>, f: FilterId, implied: bool) {
        if self.fstate[f.index()] != FState::Pending {
            return;
        }
        self.fstate[f.index()] = FState::Failed;
        self.log_filter(f);
        if implied {
            self.outcome.implied_failures += 1;
        }
        for &c in &ctx.fs.filter(f).top_for {
            self.unresolved_tops[c as usize] -= 1;
            self.log_candidate(c);
        }
        for &c in &ctx.fs.filter(f).members {
            if self.alive(c) {
                self.retire(c, CState::Failed);
            }
        }
        for &s in &ctx.fs.filter(f).superfilters {
            self.mark_failure(ctx, s, true);
        }
    }

    fn check_acceptance(&mut self, ctx: &SchedCtx<'_>, c: u32) {
        if self.cstate[c as usize] != CState::Alive {
            return;
        }
        // A candidate the deadline-truncated decomposition never reached has
        // no filters at all; `.all()` over its empty top list would be
        // vacuously true and accept a completely unvalidated query. Such
        // candidates simply stay Alive and are dropped when the round ends.
        // (A *decomposed* candidate with an empty top list is legitimate —
        // metadata-only tasks have no sample filters — and stays accepted.)
        if !ctx.fs.decomposed.is_empty() && !ctx.fs.decomposed[c as usize] {
            return;
        }
        let all_tops_ok = ctx.fs.tops[c as usize]
            .iter()
            .all(|t| self.fstate[t.index()] == FState::Succeeded);
        if all_tops_ok {
            self.retire(c, CState::Accepted);
            self.outcome.accepted.push(c);
        }
    }

    /// Mark `f` faulted: its verdict is unobtainable. Candidates that need
    /// `f` as a top filter are **abandoned** (not failed — a crash proves
    /// nothing about the data), and crucially *no* failure propagates to
    /// superfilters: implication pruning only ever acts on ground-truth
    /// verdicts, so one faulting filter cannot poison its siblings.
    fn mark_faulted(&mut self, ctx: &SchedCtx<'_>, f: FilterId, reason: String) {
        if self.fstate[f.index()] != FState::Pending {
            return;
        }
        self.fstate[f.index()] = FState::Faulted;
        self.log_filter(f);
        let mut abandoned = Vec::new();
        for &c in &ctx.fs.filter(f).top_for {
            self.unresolved_tops[c as usize] -= 1;
            self.log_candidate(c);
            if self.alive(c) {
                self.retire(c, CState::Abandoned);
                abandoned.push(c);
            }
        }
        self.outcome.faulted.push(FaultedFilter {
            filter: f,
            reason,
            candidates: abandoned,
        });
    }

    /// Record one executed validation's verdict and propagate it.
    fn apply_validated(&mut self, ctx: &SchedCtx<'_>, f: FilterId, ok: bool) {
        self.outcome.validations += 1;
        if ok {
            self.mark_success(ctx, f, false);
        } else {
            self.mark_failure(ctx, f, false);
        }
    }

    /// Apply one slot's verdict from a guarded validation (pool or
    /// inline): ground truth propagates, a skip flags the timeout (the
    /// filter stays pending), a fault resolves the filter as undecidable.
    fn apply_slot(&mut self, ctx: &SchedCtx<'_>, f: FilterId, v: SlotVerdict) {
        match v {
            SlotVerdict::Done(ok) => self.apply_validated(ctx, f, ok),
            SlotVerdict::Skipped => self.outcome.timed_out = true,
            SlotVerdict::Faulted(reason) => self.mark_faulted(ctx, f, reason),
        }
    }

    /// Validate one filter on the coordinator thread (width 1 and `Naive`),
    /// through the filter set's shared plan cache and this run's scratch —
    /// fault-contained exactly like a pool slot, with the run deadline
    /// attached so the executor's step tick can interrupt a scan mid-filter.
    fn validate_now(&mut self, ctx: &SchedCtx<'_>, f: FilterId) {
        let v = validate_filter_guarded(
            ctx,
            f,
            &mut self.scratch,
            &mut self.outcome.exec,
            &mut self.outcome.faults_injected,
        );
        self.apply_slot(ctx, f, v);
    }

    fn finish(mut self) -> ScheduleOutcome {
        self.outcome.accepted.sort_unstable();
        self.outcome
    }
}

/// Shared validation-cost proxy: the expected intermediate result size of
/// the filter's join tree under attribute independence, with a skew
/// penalty. Dividing by distinct counts models the *average* fan-out; on
/// Zipf-distributed keys a probe can land on the hottest key's posting run
/// instead, so each edge also pays `sqrt(max_run / avg_run)` — the same
/// geometric blend the executor's cost-based planner uses, which degrades
/// to exactly the old estimate on uniform keys. Both PathLength and Bayes
/// use this — the paper isolates its contribution to pruning-power
/// estimation.
pub fn filter_cost(db: &Database, fs: &FilterSet, f: FilterId) -> f64 {
    let filter = fs.filter(f);
    let mut cost = 1.0f64;
    for &t in &filter.tree.tables {
        cost *= db.row_count(t).max(1) as f64;
    }
    for &e in &filter.tree.edges {
        let edge = db.graph().edge(e);
        let stats = db.stats();
        let d = stats
            .column(edge.a)
            .distinct_count
            .max(stats.column(edge.b).distinct_count)
            .max(1);
        cost /= d as f64;
        let skew = [edge.a, edge.b]
            .iter()
            .map(|&c| {
                let s = stats.column(c);
                let avg = db.row_count(c.table).max(1) as f64 / s.distinct_count.max(1) as f64;
                s.max_key_run as f64 / avg.max(1.0)
            })
            .fold(1.0f64, f64::max);
        cost *= skew.sqrt();
    }
    cost.max(1.0)
}

/// Lazily-memoized per-filter quantity. `filter_cost` and the failure
/// probabilities are pure functions of the frozen inputs, so each is
/// computed at most once per run — and *only* for filters the greedy loop
/// actually scores (pre-validated and irrelevant filters never pay).
struct Memo {
    vals: Vec<Option<f64>>,
}

impl Memo {
    fn new(n: usize) -> Memo {
        Memo {
            vals: vec![None; n],
        }
    }

    #[inline]
    fn get(&mut self, f: FilterId, compute: impl FnOnce() -> f64) -> f64 {
        let slot = &mut self.vals[f.index()];
        match *slot {
            Some(v) => v,
            None => *slot.insert(compute()),
        }
    }
}

/// The greedy loop's scoring context: the failure model plus per-run
/// [`Memo`]s of the two pure per-filter quantities (`P_fail`,
/// `filter_cost`). The memos never go stale — only the *composed* score
/// depends on mutable pruning state.
struct Scoring<'m> {
    model: &'m dyn FailureModel,
    p_fail: Memo,
    cost: Memo,
}

impl<'m> Scoring<'m> {
    fn new(model: &'m dyn FailureModel, n_filters: usize) -> Scoring<'m> {
        Scoring {
            model,
            p_fail: Memo::new(n_filters),
            cost: Memo::new(n_filters),
        }
    }

    /// The greedy objective for `f` under the current pruning state.
    /// Benefit accounting:
    ///   failure  → every alive member candidate dies, saving its
    ///              remaining required top validations;
    ///   success  → progress only if the filter IS an unresolved top (of
    ///              itself or, via implication, of another candidate);
    ///              non-top successes are pure information and score 0.
    /// `NEG_INFINITY` marks irrelevant filters (no alive candidate
    /// contains `f`) — aliveness never comes back, so irrelevance is
    /// permanent and cacheable like any other score.
    fn score(&mut self, ctx: &SchedCtx<'_>, state: &RunState, f: &Filter) -> f64 {
        let fs = ctx.fs;
        let kills_saved: u64 = f
            .members
            .iter()
            .filter(|&&c| state.alive(c))
            .map(|&c| state.unresolved_tops[c as usize].max(1) as u64)
            .sum();
        if kills_saved == 0 {
            return f64::NEG_INFINITY;
        }
        let mut tops_resolved = 0u64;
        if state.is_alive_pending_top(fs, f.id) {
            tops_resolved += 1;
        }
        tops_resolved += f
            .subfilters
            .iter()
            .filter(|&&s| state.is_alive_pending_top(fs, s))
            .count() as u64;
        let model = self.model;
        let p = self
            .p_fail
            .get(f.id, || model.failure_probability(ctx.db, fs, f.id));
        let c = self.cost.get(f.id, || filter_cost(ctx.db, fs, f.id));
        (p * kills_saved as f64 + (1.0 - p) * tops_resolved as f64) / c
    }
}

/// Epoch-tagged score cache, one per greedy run, with the run's scores
/// ranked best first. Every entry records the epoch it was computed at;
/// [`reconcile`] bumps the epoch and stamps `touched` on exactly the
/// filters whose score inputs the applied verdicts changed, so staleness
/// is an O(1) comparison, and queues them for rescoring before the next
/// selection. No other score is ever recomputed.
struct ScoreCache {
    /// Current reconciliation epoch; starts at 1 so `computed == 0` can
    /// mean "never computed".
    epoch: u64,
    score: Vec<f64>,
    /// Epoch each score was computed at (0 = never).
    computed: Vec<u64>,
    /// Epoch each filter was last invalidated at.
    touched: Vec<u64>,
    /// Filters to rescore before the next selection: every filter at
    /// first, then the ones [`reconcile`] invalidated.
    dirty: Vec<FilterId>,
    /// One entry per stored relevant score, best first. An entry is
    /// current while its filter is pending and its score is the cached
    /// one; superseded entries are dropped when they reach the top.
    ranked: BinaryHeap<Ranked>,
}

/// A stored score in selection order: score descending, then id ascending.
#[derive(Clone, Copy)]
struct Ranked {
    score: f64,
    f: FilterId,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Ranked) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.f.cmp(&self.f))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Ranked) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Ranked) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl ScoreCache {
    fn new(n_filters: usize) -> ScoreCache {
        ScoreCache {
            epoch: 1,
            score: vec![0.0; n_filters],
            computed: vec![0; n_filters],
            touched: vec![0; n_filters],
            dirty: (0..n_filters as u32).map(FilterId).collect(),
            ranked: BinaryHeap::new(),
        }
    }

    /// The cached score for `f` is current: computed at least once and not
    /// invalidated since.
    fn valid(&self, f: FilterId) -> bool {
        let i = f.index();
        self.computed[i] != 0 && self.computed[i] >= self.touched[i]
    }

    /// Cache `score` for `f` and rank it; irrelevant filters
    /// (`NEG_INFINITY`) are never ranked.
    fn store(&mut self, f: FilterId, score: f64) {
        let i = f.index();
        self.score[i] = score;
        self.computed[i] = self.epoch;
        if score != f64::NEG_INFINITY {
            self.ranked.push(Ranked { score, f });
        }
    }

    /// Rescore every pending dirty filter, so that each pending filter's
    /// cached score is current. Debug builds then recompute every pending
    /// filter's score and assert it bit-identical to the cached one, which
    /// audits that [`reconcile`]'s touch set covers every score a state
    /// change can reach.
    fn refresh(&mut self, ctx: &SchedCtx<'_>, state: &RunState, scoring: &mut Scoring<'_>) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for &f in &dirty {
            if state.fstate[f.index()] == FState::Pending && !self.valid(f) {
                self.store(f, scoring.score(ctx, state, ctx.fs.filter(f)));
            }
        }
        dirty.clear();
        self.dirty = dirty;
        #[cfg(debug_assertions)]
        for f in state.pending() {
            let fresh = scoring.score(ctx, state, ctx.fs.filter(f));
            let cached = self.score[f.index()];
            assert_eq!(
                fresh.to_bits(),
                cached.to_bits(),
                "stale cached score for {f:?}: {cached} cached, {fresh} fresh"
            );
        }
    }

    /// Remove and return the best current entry, dropping superseded ones
    /// on the way. `None` = no pending filter is relevant.
    fn pop_best(&mut self, state: &RunState) -> Option<Ranked> {
        while let Some(top) = self.ranked.pop() {
            let i = top.f.index();
            if state.fstate[i] == FState::Pending && self.score[i].to_bits() == top.score.to_bits()
            {
                return Some(top);
            }
        }
        None
    }
}

/// Mark `from` and its implication closure as blocked for this round's
/// batch: everything reachable through subfilter chains (resolved by
/// `from`'s success) and through superfilter chains (resolved by `from`'s
/// failure). Keeping batch members mutually unreachable preserves the
/// decomposition pruning semantics — no batch validation can imply
/// another's outcome, so none of the batch's work is spent on filters the
/// sequential engine would have resolved for free.
fn block_implication_closure(fs: &FilterSet, from: FilterId, blocked: &mut [bool]) {
    fn edges_for(f: &crate::filters::Filter, down: bool) -> &[FilterId] {
        if down {
            &f.subfilters
        } else {
            &f.superfilters
        }
    }
    blocked[from.index()] = true;
    for down in [true, false] {
        let mut stack = vec![from];
        while let Some(f) = stack.pop() {
            for &next in edges_for(fs.filter(f), down) {
                if !blocked[next.index()] {
                    blocked[next.index()] = true;
                    stack.push(next);
                }
            }
        }
    }
}

/// Pick up to `max` pending filters for the next round, mutually
/// non-implying: the best positive scores among pending filters relevant
/// to an alive candidate (see [`Scoring::score`]), score descending, then
/// id. If nothing scores positive (all remaining candidates are expected
/// to succeed and only non-top information filters are cheap), the
/// cheapest unresolved alive tops — the required work — cost ascending,
/// then id; if there are none, the best-scoring information filter, whose
/// resolution still guarantees loop progress. Empty result = scheduling
/// is done.
///
/// Scores come from the run's [`ScoreCache`]: a cached score always
/// equals what a fresh computation would produce, so caching cannot
/// change the pick, and only the scores [`reconcile`] invalidated are
/// recomputed.
fn select_batch(
    ctx: &SchedCtx<'_>,
    state: &RunState,
    scoring: &mut Scoring<'_>,
    max: usize,
    cache: &mut ScoreCache,
) -> Vec<FilterId> {
    let fs = ctx.fs;
    cache.refresh(ctx, state, scoring);
    // Debug builds check the ranking against a scan of the cached scores.
    #[cfg(debug_assertions)]
    let scanned_best = state
        .pending()
        .map(|f| Ranked {
            score: cache.score[f.index()],
            f,
        })
        .filter(|r| r.score != f64::NEG_INFINITY)
        .max()
        .map(|r| r.f);
    let mut batch: Vec<FilterId> = Vec::with_capacity(max);
    // Filled only once a second batch slot is in play.
    let mut blocked: Vec<bool> = Vec::new();
    let mut admit = |f: FilterId, batch: &mut Vec<FilterId>| {
        if max > 1 {
            if blocked.is_empty() {
                blocked = vec![false; fs.len()];
            }
            if blocked[f.index()] {
                return;
            }
            block_implication_closure(fs, f, &mut blocked);
        }
        batch.push(f);
    };
    // Entries taken off the ranking stay current; they go back after.
    let mut popped: Vec<Ranked> = Vec::new();
    while batch.len() < max {
        let Some(top) = cache.pop_best(state) else {
            break;
        };
        popped.push(top);
        if top.score <= 0.0 {
            break;
        }
        admit(top.f, &mut batch);
    }
    let best = popped.first().map(|r| r.f);
    #[cfg(debug_assertions)]
    assert_eq!(best, scanned_best, "the ranking lost the best score");
    cache.ranked.extend(popped);
    let Some(best) = best else {
        return batch; // no pending filter is relevant
    };
    if !batch.is_empty() {
        return batch;
    }
    let mut required: Vec<(f64, FilterId)> = state
        .pending()
        .filter(|&f| state.is_alive_pending_top(fs, f))
        .map(|f| (scoring.cost.get(f, || filter_cost(ctx.db, fs, f)), f))
        .collect();
    required.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
    for &(_, f) in &required {
        if batch.len() >= max {
            break;
        }
        admit(f, &mut batch);
    }
    if batch.is_empty() {
        batch.push(best);
    }
    batch
}

/// The greedy filter schedule at batch width `threads`. Width 1 runs
/// [`greedy_rounds`] inline on the calling thread, with no pool; wider
/// batches run it against the work-stealing pool, whose merged counters
/// are folded into the outcome when it shuts down.
///
/// Every width accepts the identical candidate set for the same inputs —
/// outcomes are ground truth, and batch members cannot resolve each other
/// — while validation *counts* may differ slightly: a batch is committed
/// before its own verdicts can reprioritize the next round.
fn greedy(ctx: &SchedCtx<'_>, model: &dyn FailureModel, threads: usize) -> ScheduleOutcome {
    let mut state = RunState::new(ctx);
    if threads <= 1 {
        greedy_rounds(ctx, model, 1, &mut state, None);
    } else {
        let ((), report) = validate_with_pool(ctx, threads, |pool| {
            greedy_rounds(ctx, model, threads, &mut state, Some(pool))
        });
        state.outcome.exec.merge(&report.exec);
        state.outcome.stolen = report.stolen;
        state.outcome.faults_injected += report.injected;
    }
    state.finish()
}

/// The one greedy loop: select up to `width` mutually non-implying
/// filters, validate them — inline when `pool` is `None` (width 1), else
/// as one pool round — apply the verdicts in batch order, and rescore only
/// the dependency cone of what changed (see [`reconcile`]).
fn greedy_rounds(
    ctx: &SchedCtx<'_>,
    model: &dyn FailureModel,
    width: usize,
    state: &mut RunState,
    mut pool: Option<&mut BatchRunner<'_>>,
) {
    let fs = ctx.fs;
    let mut scoring = Scoring::new(model, fs.len());
    let mut cache = ScoreCache::new(fs.len());
    loop {
        if ctx.deadline.is_some_and(|d| Instant::now() >= d) {
            state.outcome.timed_out = true;
            break;
        }
        if state.live == 0 {
            break;
        }
        let batch = select_batch(ctx, state, &mut scoring, width, &mut cache);
        let Some(&pick) = batch.first() else { break };
        match pool.as_deref_mut() {
            None => state.validate_now(ctx, pick),
            Some(pool) => {
                for (f, verdict) in batch.iter().zip(pool.run(&batch)) {
                    state.apply_slot(ctx, *f, verdict);
                }
            }
        }
        reconcile(fs, state, &mut cache);
    }
}

/// Reconcile the score cache with the changes the applied verdicts made to
/// the pruning state. The touch set is exactly the dependency cone of
/// [`Scoring::score`], which reads `f`'s members (aliveness,
/// `unresolved_tops`) and the pending-top status (`fstate`, aliveness of
/// `top_for`) of `f` and of its subfilters:
///
/// * a filter `g` whose `fstate` changed invalidates `g` itself and its
///   superfilters (which test `g` as a subfilter);
/// * a candidate `c` whose aliveness or `unresolved_tops` changed
///   invalidates every filter of `c` (`per_candidate[c]` ⊇ all filters
///   with `c` in `members` or `top_for`) and the superfilters of `c`'s
///   top filters (which test them as subfilters, reading `c`'s
///   aliveness through their `top_for`).
///
/// Everything else a score reads (`P_fail`, `filter_cost`) is pure, so
/// untouched cache entries remain exactly what a fresh computation would
/// produce.
fn reconcile(fs: &FilterSet, state: &mut RunState, cache: &mut ScoreCache) {
    let log = &mut state.changelog;
    cache.epoch += 1;
    let touch = |cache: &mut ScoreCache, f: FilterId| {
        let i = f.index();
        if cache.touched[i] != cache.epoch {
            cache.touched[i] = cache.epoch;
            cache.dirty.push(f);
        }
    };
    for &f in &log.filters {
        touch(cache, f);
        for &s in &fs.filter(f).superfilters {
            touch(cache, s);
        }
    }
    for &c in &log.candidates {
        for &f in &fs.per_candidate[c as usize] {
            touch(cache, f);
        }
        for &t in &fs.tops[c as usize] {
            for &s in &fs.filter(t).superfilters {
                touch(cache, s);
            }
        }
    }
    log.filters.clear();
    log.candidates.clear();
}

/// Naive whole-query validation: each candidate's top filters in
/// enumeration order, no decomposition, no sharing.
fn naive_schedule(ctx: &SchedCtx<'_>) -> ScheduleOutcome {
    let fs = ctx.fs;
    let mut state = RunState::new(ctx);
    'cands: for c in 0..fs.per_candidate.len() {
        if let Some(d) = ctx.deadline {
            if Instant::now() >= d {
                state.outcome.timed_out = true;
                break;
            }
        }
        if !state.alive(c as u32) {
            continue;
        }
        for &t in &fs.tops[c] {
            if state.fstate[t.index()] != FState::Pending {
                continue;
            }
            // Naive validation ignores sharing: count one validation even
            // for filters another candidate also contains, but do not let
            // success/failure imply anything beyond this candidate's fate.
            state.validate_now(ctx, t);
            // Anything short of success — failed, faulted, or skipped at
            // the deadline — means this candidate cannot be accepted.
            if state.fstate[t.index()] != FState::Succeeded {
                continue 'cands;
            }
        }
        state.check_acceptance(ctx, c as u32);
    }
    state.finish()
}

/// Ground-truth outcome of every filter, memoized. Not counted as
/// scheduling work — this is the oracle's hindsight knowledge (and the
/// test suite's source of truth).
pub fn ground_truth_outcomes(
    db: &Database,
    constraints: &TargetConstraints,
    fs: &FilterSet,
) -> Vec<bool> {
    let mut scratch = ExecScratch::new();
    let mut stats = ExecStats::default();
    fs.filters
        .iter()
        .map(|f| {
            f.prevalidated
                || validate_filter_cached(db, fs, f.id, constraints, &mut scratch, &mut stats)
        })
        .collect()
}

/// The hindsight-optimal number of validations, plus the ground-truth
/// accepted candidates.
///
/// * Accepted candidates: their top filters must be validated; validating a
///   filter certifies all sub-filters, so only ⊑-maximal tops among the
///   accepted set are counted.
/// * Failed candidates: one failing validation suffices per candidate, and
///   a shared failing filter covers all candidates that (transitively)
///   contain it — a minimum set cover, approximated greedily (the exact
///   optimum is NP-hard; greedy is within `ln n`, and this quantity is the
///   yardstick, not a competitor).
pub fn oracle_schedule(
    db: &Database,
    constraints: &TargetConstraints,
    fs: &FilterSet,
) -> (u64, ScheduleOutcome) {
    let outcomes = ground_truth_outcomes(db, constraints, fs);
    let n_cands = fs.per_candidate.len();
    // Ground-truth candidate classification.
    let accepted: Vec<u32> = (0..n_cands as u32)
        .filter(|&c| fs.tops[c as usize].iter().all(|t| outcomes[t.index()]))
        .collect();
    let failing: Vec<u32> = (0..n_cands as u32)
        .filter(|c| !accepted.contains(c))
        .collect();

    // Success side: count ⊑-maximal tops among accepted candidates,
    // skipping pre-validated ones (they cost nothing).
    let mut accepted_tops: Vec<FilterId> = accepted
        .iter()
        .flat_map(|&c| fs.tops[c as usize].iter().copied())
        .collect();
    accepted_tops.sort_unstable();
    accepted_tops.dedup();
    let top_is_accepted = |f: FilterId| accepted_tops.binary_search(&f).is_ok();
    let success_validations = accepted_tops
        .iter()
        .filter(|&&t| {
            if fs.filter(t).prevalidated {
                return false;
            }
            // Maximal: no accepted top (transitively) above it. Superfilter
            // chains suffice because ⊑ edges are transitive via the lattice.
            let mut queue: VecDeque<FilterId> = fs.filter(t).superfilters.iter().copied().collect();
            let mut seen: Vec<FilterId> = Vec::new();
            while let Some(s) = queue.pop_front() {
                if seen.contains(&s) {
                    continue;
                }
                seen.push(s);
                if outcomes[s.index()] && top_is_accepted(s) {
                    return false; // covered by a larger accepted top
                }
                queue.extend(fs.filter(s).superfilters.iter().copied());
            }
            true
        })
        .count() as u64;

    // Failure side: greedy set cover of failing candidates by failing
    // filters (coverage closure through superfilters).
    let mut covered = vec![false; n_cands];
    for &c in &accepted {
        covered[c as usize] = true; // not in the universe
    }
    let mut cover_validations = 0u64;
    // Precompute each failing filter's coverage closure.
    let coverage: Vec<(FilterId, Vec<u32>)> = fs
        .filters
        .iter()
        .filter(|f| !outcomes[f.id.index()])
        .map(|f| {
            let mut cands: Vec<u32> = Vec::new();
            let mut queue = VecDeque::from([f.id]);
            let mut seen: Vec<FilterId> = Vec::new();
            while let Some(x) = queue.pop_front() {
                if seen.contains(&x) {
                    continue;
                }
                seen.push(x);
                cands.extend(fs.filter(x).members.iter().copied());
                queue.extend(fs.filter(x).superfilters.iter().copied());
            }
            cands.sort_unstable();
            cands.dedup();
            (f.id, cands)
        })
        .collect();
    loop {
        let uncovered = |cands: &Vec<u32>| cands.iter().filter(|&&c| !covered[c as usize]).count();
        let Some((best_idx, gain)) = coverage
            .iter()
            .enumerate()
            .map(|(i, (_, cands))| (i, uncovered(cands)))
            .max_by_key(|&(i, gain)| (gain, std::cmp::Reverse(i)))
        else {
            break;
        };
        if gain == 0 {
            break;
        }
        cover_validations += 1;
        for &c in &coverage[best_idx].1 {
            covered[c as usize] = true;
        }
    }
    debug_assert!(
        failing.iter().all(|&c| covered[c as usize]),
        "every failing candidate must have a failing filter"
    );

    let outcome = ScheduleOutcome {
        accepted: accepted.clone(),
        validations: success_validations + cover_validations,
        ..ScheduleOutcome::default()
    };
    (success_validations + cover_validations, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::enumerate_candidates;
    use crate::config::DiscoveryConfig;
    use crate::filters::build_filters;
    use crate::related::find_related;
    use prism_bayes::TrainConfig;
    use prism_datasets::mondial;
    use prism_db::render_sql;

    fn some(s: &str) -> Option<String> {
        Some(s.to_string())
    }

    // The tests drive everything through the one public entry point.
    fn run_greedy(
        db: &Database,
        constraints: &TargetConstraints,
        fs: &FilterSet,
        model: &dyn FailureModel,
        deadline: Option<Instant>,
    ) -> ScheduleOutcome {
        let ctx = SchedCtx::new(db, constraints, fs).with_deadline(deadline);
        Scheduler::run(&ctx, Engine::Greedy { model, threads: 1 })
    }

    fn run_greedy_parallel(
        db: &Database,
        constraints: &TargetConstraints,
        fs: &FilterSet,
        model: &dyn FailureModel,
        deadline: Option<Instant>,
        threads: usize,
    ) -> ScheduleOutcome {
        let ctx = SchedCtx::new(db, constraints, fs).with_deadline(deadline);
        Scheduler::run(&ctx, Engine::Greedy { model, threads })
    }

    fn run_naive(
        db: &Database,
        constraints: &TargetConstraints,
        fs: &FilterSet,
        deadline: Option<Instant>,
    ) -> ScheduleOutcome {
        let ctx = SchedCtx::new(db, constraints, fs).with_deadline(deadline);
        Scheduler::run(&ctx, Engine::Naive)
    }

    struct Setup {
        db: prism_db::Database,
        tc: TargetConstraints,
    }

    fn walkthrough() -> Setup {
        Setup {
            db: mondial(42, 1),
            tc: TargetConstraints::parse(
                3,
                &[vec![some("California || Nevada"), some("Lake Tahoe"), None]],
                &[None, None, some("DataType=='decimal' AND MinValue>='0'")],
            )
            .unwrap(),
        }
    }

    fn prepare(s: &Setup) -> (Vec<crate::Candidate>, FilterSet) {
        let config = DiscoveryConfig::default();
        let rel = find_related(&s.db, &s.tc, &config);
        let cands = enumerate_candidates(&s.db, &rel, &config, None).candidates;
        let fs = build_filters(&s.db, &cands, &s.tc, None);
        (cands, fs)
    }

    fn accepted_sqls(
        db: &prism_db::Database,
        cands: &[crate::Candidate],
        accepted: &[u32],
    ) -> Vec<String> {
        accepted
            .iter()
            .map(|&c| render_sql(&cands[c as usize].query, db))
            .collect()
    }

    #[test]
    fn all_schedulers_agree_on_the_accepted_set() {
        let s = walkthrough();
        let (cands, fs) = prepare(&s);
        let est = prism_bayes::BayesEstimator::train(&s.db, &TrainConfig::default());
        let path = run_greedy(&s.db, &s.tc, &fs, &PathLengthModel, None);
        let bayes = run_greedy(&s.db, &s.tc, &fs, &BayesModel::new(&est, &s.tc), None);
        let naive = run_naive(&s.db, &s.tc, &fs, None);
        let (_, oracle) = oracle_schedule(&s.db, &s.tc, &fs);
        assert_eq!(path.accepted, bayes.accepted, "schedulers must be sound");
        assert_eq!(path.accepted, naive.accepted);
        assert_eq!(path.accepted, oracle.accepted);
        assert!(
            !path.accepted.is_empty(),
            "walkthrough has satisfying queries"
        );
        // The desired query is among the accepted.
        let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                    FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
        assert!(
            accepted_sqls(&s.db, &cands, &path.accepted)
                .iter()
                .any(|x| x == want),
            "desired query must be accepted"
        );
    }

    #[test]
    fn accepted_candidates_really_satisfy_the_constraints() {
        let s = walkthrough();
        let (cands, fs) = prepare(&s);
        let outcome = run_greedy(&s.db, &s.tc, &fs, &PathLengthModel, None);
        // Re-verify each accepted candidate end-to-end.
        for &c in &outcome.accepted {
            let cand = &cands[c as usize];
            let rows = cand.query.execute(&s.db, 100_000).unwrap();
            let witness = rows.iter().any(|row| {
                s.tc.samples[0].cells().iter().enumerate().all(|(i, cell)| {
                    cell.as_ref()
                        .map(|c| prism_lang::matches_value(c, &row[i]))
                        .unwrap_or(true)
                })
            });
            assert!(
                witness,
                "accepted {} has no witness row",
                render_sql(&cand.query, &s.db)
            );
        }
    }

    #[test]
    fn decomposed_schedulers_use_fewer_validations_than_naive() {
        let s = walkthrough();
        let (_, fs) = prepare(&s);
        let est = prism_bayes::BayesEstimator::train(&s.db, &TrainConfig::default());
        let naive = run_naive(&s.db, &s.tc, &fs, None);
        let bayes = run_greedy(&s.db, &s.tc, &fs, &BayesModel::new(&est, &s.tc), None);
        // Sharing + implication should not be worse than validating every
        // candidate separately.
        assert!(
            bayes.validations <= naive.validations,
            "bayes {} vs naive {}",
            bayes.validations,
            naive.validations
        );
        assert!(bayes.implied_successes + bayes.implied_failures > 0);
    }

    #[test]
    fn oracle_is_a_lower_bound() {
        let s = walkthrough();
        let (_, fs) = prepare(&s);
        let est = prism_bayes::BayesEstimator::train(&s.db, &TrainConfig::default());
        let (v_opt, _) = oracle_schedule(&s.db, &s.tc, &fs);
        let path = run_greedy(&s.db, &s.tc, &fs, &PathLengthModel, None);
        let bayes = run_greedy(&s.db, &s.tc, &fs, &BayesModel::new(&est, &s.tc), None);
        assert!(
            v_opt <= path.validations,
            "oracle {v_opt} > path {}",
            path.validations
        );
        assert!(
            v_opt <= bayes.validations,
            "oracle {v_opt} > bayes {}",
            bayes.validations
        );
        assert!(v_opt >= 1);
    }

    #[test]
    fn parallel_engine_accepts_the_identical_candidate_set() {
        let s = walkthrough();
        let (_, fs) = prepare(&s);
        let est = prism_bayes::BayesEstimator::train(&s.db, &TrainConfig::default());
        let seq_path = run_greedy(&s.db, &s.tc, &fs, &PathLengthModel, None);
        let seq_bayes = run_greedy(&s.db, &s.tc, &fs, &BayesModel::new(&est, &s.tc), None);
        for threads in [2, 4, 8] {
            let par_path = run_greedy_parallel(&s.db, &s.tc, &fs, &PathLengthModel, None, threads);
            assert_eq!(
                seq_path.accepted, par_path.accepted,
                "path-length @ {threads} threads"
            );
            assert!(!par_path.timed_out);
            let par_bayes = run_greedy_parallel(
                &s.db,
                &s.tc,
                &fs,
                &BayesModel::new(&est, &s.tc),
                None,
                threads,
            );
            assert_eq!(
                seq_bayes.accepted, par_bayes.accepted,
                "bayes @ {threads} threads"
            );
            // The engine really executed work and counted it.
            assert!(par_path.validations > 0);
            assert!(par_path.exec.rows_examined > 0);
        }
    }

    #[test]
    fn parallel_with_one_thread_is_the_sequential_path() {
        let s = walkthrough();
        let (_, fs) = prepare(&s);
        let seq = run_greedy(&s.db, &s.tc, &fs, &PathLengthModel, None);
        let one = run_greedy_parallel(&s.db, &s.tc, &fs, &PathLengthModel, None, 1);
        // Bit-for-bit identical outcome, validation counts included: one
        // thread takes the exact sequential code path.
        assert_eq!(seq.accepted, one.accepted);
        assert_eq!(seq.validations, one.validations);
        assert_eq!(seq.implied_successes, one.implied_successes);
        assert_eq!(seq.implied_failures, one.implied_failures);
        // Identical work — except that the first run populated the filter
        // set's shared plan cache, so the second compiles nothing.
        assert!(seq.exec.plans_built > 0);
        assert_eq!(one.exec.plans_built, 0, "plan cache already warm");
        let strip_plans = |e: &ExecStats| ExecStats {
            plans_built: 0,
            nodes_reordered: 0,
            plan_recompiles: 0,
            ..*e
        };
        assert_eq!(strip_plans(&seq.exec), strip_plans(&one.exec));
    }

    /// Asserts that the cached Bayes scoring agrees bit for bit with the
    /// monolithic `BayesEstimator::failure_probability` on every filter of
    /// `fs`, twice (cache hits included).
    fn assert_cached_bayes_matches(
        db: &Database,
        est: &prism_bayes::BayesEstimator,
        tc: &TargetConstraints,
        fs: &FilterSet,
    ) {
        let model = BayesModel::new(est, tc);
        for _round in 0..2 {
            for f in &fs.filters {
                let sample = &tc.samples[f.sample];
                let preds: Vec<(prism_db::ColumnRef, &prism_lang::ValueConstraint)> = f
                    .preds
                    .iter()
                    .map(|(target, col)| (*col, sample.cell(*target).expect("constrained")))
                    .collect();
                let direct = est.failure_probability(db, &f.tree, &preds);
                let cached = model.failure_probability(db, fs, f.id);
                assert_eq!(direct.to_bits(), cached.to_bits(), "filter {:?}", f.id);
            }
        }
    }

    /// The cached Bayes scoring composes the estimator's public pieces
    /// (`relation_probability`, `edge_factor_with`) with memoization keyed
    /// by `(sample, target)`, and edge factors take their endpoint
    /// probabilities from the relation memo. Beyond the walk-through, taskgen
    /// tasks over Mondial and NBA at every resolution supply filters whose
    /// trees have two or more edges, where one endpoint's memo entry serves
    /// several edges. Disjunction and Range tasks over a Zipf-skewed
    /// database add join-pair reservoirs dominated by a few hub keys, where
    /// pair masks repeat cells the most; they carry three sample rows, so
    /// different constraints on one target meet the same edge side and
    /// column, which only the sample index in a memo key tells apart.
    #[test]
    fn cached_bayes_scoring_matches_the_uncached_estimator() {
        use prism_datasets::{nba, skewed, Resolution, TaskGenConfig, TaskGenerator};
        use rand::SeedableRng;
        let s = walkthrough();
        let (_, fs) = prepare(&s);
        let est = prism_bayes::BayesEstimator::train(&s.db, &TrainConfig::default());
        assert_cached_bayes_matches(&s.db, &est, &s.tc, &fs);
        let config = DiscoveryConfig::default();
        let mut deep_filters = 0;
        let three_rows = TaskGenConfig {
            sample_rows: 3,
            ..TaskGenConfig::default()
        };
        let cases = [
            (
                mondial(42, 1),
                &Resolution::ALL[..],
                TaskGenConfig::default(),
            ),
            (nba(42, 1), &Resolution::ALL[..], TaskGenConfig::default()),
            (
                skewed(5, 1, 1.2),
                &[Resolution::Disjunction, Resolution::Range][..],
                three_rows,
            ),
        ];
        for (db, resolutions, taskgen_config) in cases {
            let est = prism_bayes::BayesEstimator::train(&db, &TrainConfig::default());
            let taskgen = TaskGenerator::new(&db, taskgen_config);
            let mut rng = rand::rngs::StdRng::seed_from_u64(11);
            for &resolution in resolutions {
                for task in taskgen.generate_many(resolution, 2, &mut rng) {
                    let tc =
                        TargetConstraints::parse(task.column_count, &task.samples, &task.metadata)
                            .unwrap();
                    let rel = find_related(&db, &tc, &config);
                    let cands = enumerate_candidates(&db, &rel, &config, None).candidates;
                    let fs = build_filters(&db, &cands, &tc, None);
                    deep_filters += fs
                        .filters
                        .iter()
                        .filter(|f| f.tree.edges.len() >= 2)
                        .count();
                    assert_cached_bayes_matches(&db, &est, &tc, &fs);
                }
            }
        }
        assert!(
            deep_filters > 0,
            "taskgen supplies trees with two or more edges"
        );
    }

    /// Satellite: plan compilation and scratch allocation amortize — one
    /// plan per query class across *every* engine run over a filter set,
    /// and each run reuses its scratch for all validations after the first.
    #[test]
    fn plan_cache_amortizes_across_engine_runs() {
        let s = walkthrough();
        let (_, fs) = prepare(&s);
        let path = run_greedy(&s.db, &s.tc, &fs, &PathLengthModel, None);
        assert!(path.exec.plans_built > 0);
        assert!(
            path.exec.plans_built <= fs.plans.classes() as u64,
            "at most one compile per query class"
        );
        assert_eq!(
            path.exec.scratch_reuses,
            path.validations - 1,
            "one scratch serves the whole sequential run"
        );
        // Any later engine over the same filter set compiles only classes
        // the first run never touched.
        let naive = run_naive(&s.db, &s.tc, &fs, None);
        assert!(
            naive.exec.plans_built + path.exec.plans_built <= fs.plans.classes() as u64,
            "naive re-validates shared filters but never re-compiles them"
        );
        assert!(
            fs.plans.prepared_count() as u64 == naive.exec.plans_built + path.exec.plans_built,
            "cache population is exactly the sum of compiles"
        );
        // Across the two runs, compiles stay well below executions.
        assert!(
            path.exec.plans_built + naive.exec.plans_built < path.validations + naive.validations,
            "plans_built must amortize below validations"
        );
    }

    #[test]
    fn parallel_deadline_cancels_cooperatively() {
        let s = walkthrough();
        let (cands, fs) = prepare(&s);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let outcome = run_greedy_parallel(&s.db, &s.tc, &fs, &PathLengthModel, Some(past), 4);
        assert!(outcome.timed_out);
        // Soundness under interruption, as in the sequential engine.
        for &c in &outcome.accepted {
            let rows = cands[c as usize].query.execute(&s.db, 100_000).unwrap();
            assert!(!rows.is_empty());
        }
    }

    #[test]
    fn batches_are_mutually_non_implying() {
        let s = walkthrough();
        let (_, fs) = prepare(&s);
        let ctx = SchedCtx::new(&s.db, &s.tc, &fs);
        let state = RunState::new(&ctx);
        let mut scoring = Scoring::new(&PathLengthModel, fs.len());
        let mut cache = ScoreCache::new(fs.len());
        let batch = select_batch(&ctx, &state, &mut scoring, 8, &mut cache);
        assert!(batch.len() > 1, "walkthrough offers parallel work");
        for (i, &a) in batch.iter().enumerate() {
            let mut blocked = vec![false; fs.len()];
            block_implication_closure(&fs, a, &mut blocked);
            for &b in batch.iter().skip(i + 1) {
                assert!(
                    !blocked[b.index()],
                    "{a:?} and {b:?} are implication-related"
                );
            }
        }
    }

    /// `Engine::Pipelined` is an inert alias: at every width it runs the
    /// greedy loop, so its picks and counters are `Greedy`'s, and the
    /// inert speculation counters stay 0.
    #[test]
    fn pipelined_is_an_inert_alias_of_greedy() {
        let s = walkthrough();
        let (_, fs) = prepare(&s);
        let ctx = SchedCtx::new(&s.db, &s.tc, &fs);
        let model = &PathLengthModel;
        for threads in [1, 4] {
            let greedy = Scheduler::run(&ctx, Engine::Greedy { model, threads });
            let alias = Scheduler::run(&ctx, Engine::Pipelined { model, threads });
            assert!(!greedy.accepted.is_empty());
            assert_eq!(greedy.accepted, alias.accepted, "@ {threads} threads");
            assert_eq!(greedy.validations, alias.validations, "@ {threads} threads");
            assert_eq!(greedy.implied_successes, alias.implied_successes);
            assert_eq!(greedy.implied_failures, alias.implied_failures);
            for o in [&greedy, &alias] {
                let speculation = (
                    o.rounds_overlapped,
                    o.speculative_scores,
                    o.speculative_wasted,
                );
                assert_eq!(speculation, (0, 0, 0), "@ {threads} threads");
            }
        }
    }

    #[test]
    fn deadline_interrupts_scheduling_soundly() {
        let s = walkthrough();
        let (cands, fs) = prepare(&s);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let outcome = run_greedy(&s.db, &s.tc, &fs, &PathLengthModel, Some(past));
        assert!(outcome.timed_out);
        // Anything accepted before the timeout must still be genuinely
        // satisfying (soundness under interruption).
        for &c in &outcome.accepted {
            let rows = cands[c as usize].query.execute(&s.db, 100_000).unwrap();
            assert!(!rows.is_empty());
        }
    }

    #[test]
    fn filter_cost_grows_with_tree_size() {
        let s = walkthrough();
        let (_, fs) = prepare(&s);
        let mut single = f64::MAX;
        let mut multi = 0.0f64;
        for f in &fs.filters {
            let c = filter_cost(&s.db, &fs, f.id);
            if f.tree.table_count() == 1 {
                single = single.min(c);
            } else {
                multi = multi.max(c);
            }
        }
        assert!(multi > single);
    }

    /// Two-row tasks with blank cells reach the part of the reconcile cone
    /// that single-row tasks never do: a candidate killed through one
    /// sample's filter leaves its other sample's top pending, and the
    /// scores of that top's superfilters must still be invalidated. Debug
    /// builds audit every cached score each pick reads (these seeds trip
    /// the audit when the cone omits those superfilters); the accept sets
    /// must also equal the oracle's.
    #[test]
    fn multi_sample_tasks_keep_the_score_cache_exact() {
        use prism_datasets::{Resolution, TaskGenConfig, TaskGenerator};
        use rand::SeedableRng;
        let db = mondial(42, 1);
        let est = prism_bayes::BayesEstimator::train(&db, &TrainConfig::default());
        let config = DiscoveryConfig::default();
        let two_rows = TaskGenConfig {
            sample_rows: 2,
            ..TaskGenConfig::default()
        };
        let taskgen = TaskGenerator::new(&db, two_rows);
        for seed in [2, 6, 12, 14] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for task in taskgen.generate_many(Resolution::Missing, 1, &mut rng) {
                let tc = TargetConstraints::parse(task.column_count, &task.samples, &task.metadata)
                    .unwrap();
                let rel = find_related(&db, &tc, &config);
                let cands = enumerate_candidates(&db, &rel, &config, None).candidates;
                let fs = build_filters(&db, &cands, &tc, None);
                let (_, truth) = oracle_schedule(&db, &tc, &fs);
                let bayes = BayesModel::new(&est, &tc);
                let models: [&dyn FailureModel; 2] = [&PathLengthModel, &bayes];
                for model in models {
                    for threads in [1, 4] {
                        let ctx = SchedCtx::new(&db, &tc, &fs);
                        let outcome = Scheduler::run(&ctx, Engine::Greedy { model, threads });
                        assert_eq!(outcome.accepted, truth.accepted, "seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn ground_truth_outcomes_respect_prevalidation() {
        let s = walkthrough();
        let (_, fs) = prepare(&s);
        let outcomes = ground_truth_outcomes(&s.db, &s.tc, &fs);
        for f in &fs.filters {
            if f.prevalidated {
                assert!(outcomes[f.id.index()]);
            }
        }
    }
}
