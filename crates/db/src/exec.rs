//! Project–Join query execution.
//!
//! The only query shape Prism synthesizes is the Project–Join query
//! (Section 2.1: *"we restrict the space of synthesized schema mapping
//! queries to support Project-Join (PJ) queries"*), and the only two
//! operations discovery needs are:
//!
//! * **existence checking** — "does the result of this (sub-)query contain a
//!   tuple matching this sample constraint?" — the unit of filter
//!   validation, and
//! * **full evaluation** — materializing result rows for display in the
//!   Result section.
//!
//! Both are implemented as backtracking search over the join tree: rows of a
//! start node are scanned, and each further node is reached through the
//! precomputed hash join index of its connecting column. Existence checks
//! terminate at the first full assignment, so successful validations are
//! usually much cheaper than full evaluation.
//!
//! The probe/backtrack loops never hash or clone a [`Value`]: join probes
//! and residual join checks compare the compact `u64` keys of
//! [`crate::column::Column::join_key`], and predicates receive zero-copy
//! [`ValueRef`] views. Owned `Value`s appear only at the projection
//! boundary ([`PjQuery::execute`]).
//!
//! ## Prepared execution
//!
//! Query compilation is split from execution. [`PjQuery::prepare`] runs
//! structural validation **once**, builds the internal plan **once**, and
//! sizes the dictionary-memo shapes **once**; the resulting
//! [`PreparedQuery`] can then be executed any number of times against an
//! [`ExecScratch`] that owns the per-run mutable state (the node-assignment
//! vector, the per-slot verdict bitmaps) and **clears it instead of
//! reallocating** between runs; the projection row buffer borrows database
//! cells and is therefore per-run, but lazily allocated — existence misses
//! never touch it. The interactive loop
//! issues thousands of tiny existence probes per refinement round, so
//! amortizing compilation is the difference between allocation-bound and
//! scan-bound probes ([`ExecStats::plans_built`] /
//! [`ExecStats::scratch_reuses`] make the amortization observable).
//! [`PjQuery::for_each_row`] and friends remain as thin prepare-then-run
//! wrappers for one-shot queries.
//!
//! ## Block pruning and dictionary memoization
//!
//! Scans are block-partitioned (see the `column` module docs): before a
//! start-node scan or a key-filtered scan touches a row, the block's zone
//! map is tested against the probe key and against any [`ScanPred`] numeric
//! range hints, and provably-empty blocks are skipped wholesale
//! ([`ExecStats::blocks_skipped`]). An *empty* numeric hull (`lo > hi`)
//! skips the whole scan outright — no zone maps needed, so even
//! single-block columns (which carry none) benefit. Predicates on
//! dictionary-encoded columns (text/date/time) are evaluated once per
//! distinct symbol code: a per-slot verdict bitmap is shared by *every*
//! path that tests the predicate — full scans, key-filtered scans, and
//! index-probed rows alike.
//!
//! ## Nogood memo
//!
//! Plain backtracking re-proves dead ends: when the search below some depth
//! fails, the next parent row with the same join keys repeats it in full —
//! under a Zipf hub key, once per hub row. The plan builder therefore
//! derives each depth's *separator*: the join keys of already-assigned
//! nodes that any link or residual check at that depth or deeper reads.
//! Each run records its failed `(depth, separator keys)` in the
//! [`ExecScratch`], and the search returns at once on a recorded key
//! ([`ExecStats::nogood_hits`]). When every separator has one key, a
//! failing existence check thus reads each joined table at most once per
//! key: the linear bound semi-join reduction gives acyclic joins
//! (Yannakakis, VLDB 1981).
//!
//! Why a hit is sound:
//!
//! * Predicates are pure functions of a cell, the assumption the verdict
//!   memos above already make. Predicates, zone pruners and the plan are
//!   constant for a run (the adaptive guard swaps plans only between runs).
//! * A sub-search reads the assignment of shallower nodes only through its
//!   depth's separator keys, so whether it can emit a row depends only on
//!   its depth and those keys.
//! * A key is recorded only when its sub-search ran to completion without
//!   emitting a row. An error, a deadline stop or a panic records nothing.
//! * The set is cleared at the start of every run and dropped with a
//!   quarantined scratch. Separators wider than two keys, or holding a NULL
//!   key, are never memoized.
//!
//! A hit skips only a sub-search that would have emitted nothing, so a
//! plan's rows, their order and its verdicts stay the same. Only work
//! counters fall, and with them the fan-out the adaptive guard observes.
//!
//! ## Bound propagation
//!
//! The columns an equi-join equates form one *key class*: `Plan::build`
//! unions the endpoints of every join condition in `Int` or `F64` key space,
//! spanning links and cycle-closing residuals alike, and labels each
//! condition with its class inline, beside the link's separator. A class
//! holds one number per result row, so a range on one member bounds them
//! all. Why that is sound:
//!
//! * A condition in `Int` or `F64` space matches two rows only when their
//!   cells have the same f64 image: the keys are the i64 value or the f64
//!   bits. NaN bits can join, but no bounded hull admits NaN (zone maps
//!   already rely on this).
//! * A predicate's hull ([`ScanPred::range`]) is a superset of every number
//!   the predicate admits, and a NULL member cell never joins.
//! * So in any result row all members of a class hold one number, and it
//!   lies in the intersection of their hulls. `Sym` classes (text, date,
//!   time) carry no numeric hull and are left alone.
//!
//! Each run intersects its predicate hulls over every class. An empty
//! intersection proves the run empty before any scan
//! ([`ExecStats::bound_refuted_runs`]); such a run feeds nothing to the
//! adaptive guard, because no plan ran. A non-empty one becomes a range
//! check, tested before the local predicates, and a zone-map range pruner
//! on each member column whose node is not reached through that same
//! column: usually the start node's. A member reached through its class's
//! own link equals an earlier member by key equality, so it inherits the
//! bound unchecked. The planner prices start scans with the class bounds
//! too, so a plan can start where a bound prunes. A run with no hull on a
//! member column does no extra work. Rows, their order and verdicts stay
//! the same; only work counters fall.

use crate::column::{Column, ColumnData};
use crate::database::Database;
use crate::error::DbError;
use crate::types::{KeySpace, Value, ValueRef};

/// One projection-slot predicate of a scan: the test closure plus optional
/// structural hints the executor can push below the row loop. Predicates
/// see borrowed cell views; no text is cloned to evaluate them.
#[derive(Clone, Copy)]
pub struct ScanPred<'a> {
    test: &'a (dyn Fn(ValueRef<'_>) -> bool + 'a),
    range: Option<(f64, f64)>,
}

impl<'a> ScanPred<'a> {
    /// A predicate with no structural hints (never prunes, always sound).
    pub fn new(test: &'a (dyn Fn(ValueRef<'_>) -> bool + 'a)) -> ScanPred<'a> {
        ScanPred { test, range: None }
    }

    /// Attach a numeric hull: the caller asserts that a non-NULL **numeric**
    /// cell can satisfy the predicate only if its value lies in the closed
    /// interval `[lo, hi]` (`lo > hi` asserts no numeric cell can). The
    /// executor prunes whole blocks of `Int`/`Decimal` columns against zone
    /// maps with it; the hint carries no meaning on other column types.
    pub fn with_range(mut self, lo: f64, hi: f64) -> ScanPred<'a> {
        self.range = Some((lo, hi));
        self
    }

    /// Evaluate the predicate on one cell view.
    #[inline]
    pub fn matches(&self, v: ValueRef<'_>) -> bool {
        (self.test)(v)
    }

    /// The numeric hull hint, if any.
    pub fn range(&self) -> Option<(f64, f64)> {
        self.range
    }
}

impl std::fmt::Debug for ScanPred<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanPred")
            .field("range", &self.range)
            .finish_non_exhaustive()
    }
}

/// Optional predicate applied to one projection slot.
pub type ProjPred<'a> = Option<ScanPred<'a>>;

/// Callback receiving each result row as borrowed views; return `false` to
/// stop enumeration.
pub type RowCallback<'a> = &'a mut dyn FnMut(&[ValueRef<'_>]) -> bool;

/// Work counters for cost accounting. Scheduling experiments report both
/// validation counts and the raw row effort behind them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows tested against local predicates or join conditions.
    pub rows_examined: u64,
    /// Hash-index probes performed.
    pub index_probes: u64,
    /// Result rows produced (existence checks stop at 1).
    pub rows_emitted: u64,
    /// Whole blocks skipped by zone-map pruning before any row was touched.
    pub blocks_skipped: u64,
    /// Query plans actually compiled ([`PjQuery::prepare`] + the one-shot
    /// wrappers). With a prepared-plan cache in front, this stays far below
    /// the number of executions — the observable half of amortization.
    pub plans_built: u64,
    /// Executions that reused an already-dirty [`ExecScratch`] (its buffers
    /// were cleared, not reallocated) — the other half of amortization.
    pub scratch_reuses: u64,
    /// Join-tree nodes the cost-based planner visited at a different
    /// position than declaration-order planning would have. Counted once
    /// per plan compiled (like [`ExecStats::plans_built`]), so a warm plan
    /// cache reports 0.
    pub nodes_reordered: u64,
    /// Prepared plans recompiled by the adaptive fan-out guard after the
    /// observed rows-examined diverged from the planner's estimate.
    pub plan_recompiles: u64,
    /// Rows the planner *expected* each run to examine, summed over runs —
    /// the denominator of [`ExecStats::fanout_ratio`].
    pub rows_estimated: u64,
    /// Sub-searches skipped by the run's nogood memo: their (depth,
    /// separator keys) had already failed earlier in the same run (see the
    /// module docs).
    pub nogood_hits: u64,
    /// Runs proven empty before any scan because the predicate hulls on
    /// one key class's columns do not intersect (see the module docs).
    pub bound_refuted_runs: u64,
    /// Runs that checked some key-class member column against a bound
    /// propagated from the other members' hulls.
    pub bound_checked_runs: u64,
}

impl ExecStats {
    /// Fold another counter set into this one. The parallel validation
    /// engine gives each worker thread its own `ExecStats` and merges them
    /// when the pool drains, so counting never contends on shared state.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_examined += other.rows_examined;
        self.index_probes += other.index_probes;
        self.rows_emitted += other.rows_emitted;
        self.blocks_skipped += other.blocks_skipped;
        self.plans_built += other.plans_built;
        self.scratch_reuses += other.scratch_reuses;
        self.nodes_reordered += other.nodes_reordered;
        self.plan_recompiles += other.plan_recompiles;
        self.rows_estimated += other.rows_estimated;
        self.nogood_hits += other.nogood_hits;
        self.bound_refuted_runs += other.bound_refuted_runs;
        self.bound_checked_runs += other.bound_checked_runs;
    }

    /// Observed-vs-estimated fan-out: rows actually examined per row the
    /// planner expected, or `None` before any estimated run. Values well
    /// above 1 mean the cost model under-estimated (the adaptive guard
    /// recompiles past that point); early-exiting existence probes pull the
    /// ratio below 1, and so do nogood-memo hits, which the estimates do
    /// not model (on perfbench's seed-1 traced `skewed_join` the memo took
    /// the ratio from 1.38 to 0.06). Both counters merge additively across
    /// workers, so the ratio stays meaningful for pooled stats.
    pub fn fanout_ratio(&self) -> Option<f64> {
        (self.rows_estimated > 0).then(|| self.rows_examined as f64 / self.rows_estimated as f64)
    }
}

impl std::ops::AddAssign for ExecStats {
    fn add_assign(&mut self, rhs: ExecStats) {
        self.merge(&rhs);
    }
}

impl std::ops::AddAssign<&ExecStats> for ExecStats {
    fn add_assign(&mut self, rhs: &ExecStats) {
        self.merge(rhs);
    }
}

/// Join-order planning mode for [`PjQuery::prepare_with`].
///
/// `Cost` (what [`PjQuery::prepare`] uses) orders join nodes by ascending
/// estimated fan-out — start at the most selective scan, expand
/// cheapest-first — using `StatsStore` distinct counts, CSR per-key run
/// lengths, and numeric-hull selectivity, and sorts each node's residual
/// predicates most-selective / cheapest first. `Fixed` is the pre-cost
/// planner, kept as a test oracle: declaration-order BFS from the
/// most-predicated node, predicates in declaration order, no adaptive
/// recompiles. Both modes enumerate identical rows; only the visit order
/// (and therefore rows examined) differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOrder {
    /// Declaration-order planning (the pre-cost planner).
    Fixed,
    /// Cardinality-guided planning (what discovery uses).
    Cost,
}

/// An equi-join condition between two node slots of a [`PjQuery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinCond {
    pub left_node: usize,
    pub left_col: u32,
    pub right_node: usize,
    pub right_col: u32,
}

/// A Project–Join query over node slots.
///
/// Node slots (rather than raw table ids) keep the representation ready for
/// self-joins even though candidate generation currently never repeats a
/// table. `joins` must connect all nodes; redundant (cycle-closing) join
/// conditions are permitted and enforced as residual checks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PjQuery {
    pub nodes: Vec<crate::schema::TableId>,
    pub joins: Vec<JoinCond>,
    /// Output columns: (node slot, column index). Order matches the target
    /// schema of the mapping task.
    pub projection: Vec<(usize, u32)>,
}

impl PjQuery {
    /// Structural validation: slots in range, join/projection columns exist,
    /// graph connected.
    pub fn validate(&self, db: &Database) -> Result<(), DbError> {
        if self.nodes.is_empty() {
            return Err(DbError::InvalidQuery("no nodes".into()));
        }
        let col_ok = |node: usize, col: u32| -> Result<(), DbError> {
            let tid = *self
                .nodes
                .get(node)
                .ok_or_else(|| DbError::InvalidQuery(format!("node slot {node} out of range")))?;
            let arity = db.catalog().table(tid).arity() as u32;
            if col >= arity {
                return Err(DbError::InvalidQuery(format!(
                    "column {col} out of range for node {node}"
                )));
            }
            Ok(())
        };
        for j in &self.joins {
            col_ok(j.left_node, j.left_col)?;
            col_ok(j.right_node, j.right_col)?;
            // Join keys are compared as compact u64s, which is only sound
            // between join-compatible columns (the same rule the catalog
            // enforces for foreign keys): numeric with numeric, otherwise
            // exactly equal types. Reject cross-kind conditions here so an
            // ad-hoc query can never compare, say, text codes against date
            // codes.
            let dtype_of =
                |node: usize, col: u32| db.catalog().table(self.nodes[node]).column(col).dtype;
            let lt = dtype_of(j.left_node, j.left_col);
            let rt = dtype_of(j.right_node, j.right_col);
            if lt != rt && !(lt.is_numeric() && rt.is_numeric()) {
                return Err(DbError::InvalidQuery(format!(
                    "join condition compares incompatible types {lt} and {rt}"
                )));
            }
        }
        for &(n, c) in &self.projection {
            col_ok(n, c)?;
        }
        // Connectivity via union-find over join conditions.
        let mut parent: Vec<usize> = (0..self.nodes.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for j in &self.joins {
            let (a, b) = (
                find(&mut parent, j.left_node),
                find(&mut parent, j.right_node),
            );
            if a != b {
                parent[a] = b;
            }
        }
        let root = find(&mut parent, 0);
        for n in 1..self.nodes.len() {
            if find(&mut parent, n) != root {
                return Err(DbError::InvalidQuery(format!(
                    "node slot {n} is not connected by any join condition"
                )));
            }
        }
        Ok(())
    }

    /// Number of joins — the "join path length" used by the baseline filter
    /// scheduler of \[8\].
    pub fn join_count(&self) -> usize {
        self.joins.len()
    }

    /// Compile this query against `db`: validate once, build the execution
    /// plan once, size the dictionary-memo shapes once. The plan depends on
    /// *which* projection slots carry a predicate, so `preds` fixes that
    /// shape; every later [`PreparedQuery::for_each_row`] call must supply
    /// predicates on exactly the same slots (their closures and range hints
    /// may differ freely). The prepared query borrows nothing and may be
    /// cached and shared across threads, but is only meaningful against the
    /// database it was prepared for.
    pub fn prepare(&self, db: &Database, preds: &[ProjPred<'_>]) -> Result<PreparedQuery, DbError> {
        self.prepare_with(db, preds, JoinOrder::Cost)
    }

    /// [`PjQuery::prepare`] with an explicit join-order mode. Property tests
    /// use this to compare cost-ordered and declaration-ordered plans over
    /// the same query.
    pub fn prepare_with(
        &self,
        db: &Database,
        preds: &[ProjPred<'_>],
        mode: JoinOrder,
    ) -> Result<PreparedQuery, DbError> {
        self.validate(db)?;
        if !preds.is_empty() && preds.len() != self.projection.len() {
            return Err(DbError::InvalidQuery(format!(
                "{} predicates supplied for {} projection slots",
                preds.len(),
                self.projection.len()
            )));
        }
        let plan = Plan::build(self, db, preds, mode, None);
        let memo_shapes = MemoShape::for_query(self, db, preds);
        let pred_mask = (0..self.projection.len())
            .map(|s| preds.get(s).copied().flatten().is_some())
            .collect();
        let guard = PlanGuard::for_nodes(self.nodes.len());
        Ok(PreparedQuery {
            query: self.clone(),
            plan,
            memo_shapes,
            pred_mask,
            guard,
        })
    }

    /// Evaluate the query, invoking `cb` for each projected result row and
    /// applying `preds` (one optional predicate per projection slot) before
    /// emission. Enumeration stops when `cb` returns `false`.
    ///
    /// One-shot wrapper: prepares (and counts one plan built) and runs with
    /// a fresh scratch. Repeated callers should [`PjQuery::prepare`] once
    /// and reuse an [`ExecScratch`].
    pub fn for_each_row(
        &self,
        db: &Database,
        preds: &[ProjPred<'_>],
        stats: &mut ExecStats,
        cb: RowCallback<'_>,
    ) -> Result<(), DbError> {
        let prepared = self.prepare(db, preds)?;
        stats.plans_built += 1;
        stats.nodes_reordered += prepared.nodes_reordered();
        let mut scratch = ExecScratch::new();
        prepared.for_each_row(db, preds, &mut scratch, stats, cb)
    }

    /// Materialize up to `limit` result rows. This is the projection
    /// boundary where owned [`Value`]s come into existence.
    pub fn execute(&self, db: &Database, limit: usize) -> Result<Vec<Vec<Value>>, DbError> {
        let mut out = Vec::new();
        let mut stats = ExecStats::default();
        self.for_each_row(db, &[], &mut stats, &mut |row| {
            out.push(row.iter().map(|v| v.to_value()).collect());
            out.len() < limit
        })?;
        Ok(out)
    }

    /// Does any result row satisfy all supplied predicates? Early-exits on
    /// the first witness. This is the unit of filter validation.
    pub fn exists_matching(
        &self,
        db: &Database,
        preds: &[ProjPred<'_>],
        stats: &mut ExecStats,
    ) -> Result<bool, DbError> {
        let mut found = false;
        self.for_each_row(db, preds, stats, &mut |_row| {
            found = true;
            false // stop at first match
        })?;
        Ok(found)
    }

    /// Count result rows satisfying the predicates (up to `cap`, to bound
    /// effort on explosive joins).
    pub fn count_matching(
        &self,
        db: &Database,
        preds: &[ProjPred<'_>],
        cap: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, DbError> {
        let mut n = 0u64;
        self.for_each_row(db, preds, stats, &mut |_row| {
            n += 1;
            n < cap
        })?;
        Ok(n)
    }
}

/// A compiled [`PjQuery`]: validated, planned, and memo-shaped exactly once
/// (see [`PjQuery::prepare`]). Owns no borrows, so it can live in caches
/// shared across validation worker threads.
#[derive(Debug)]
pub struct PreparedQuery {
    query: PjQuery,
    plan: Plan,
    memo_shapes: Vec<MemoShape>,
    /// Which projection slots carried a predicate at prepare time; every
    /// run must match (the plan's start node and local-predicate lists
    /// were chosen from it).
    pred_mask: Vec<bool>,
    /// Adaptive fan-out guard state (see [`PlanGuard`]).
    guard: PlanGuard,
}

/// Runs the adaptive guard observes before it will consider recompiling:
/// enough to average out one unlucky probe. This is the generation-0
/// threshold; each recompile doubles it (see [`MAX_RECOMPILES`]).
const GUARD_MIN_RUNS: u64 = 8;

/// Observed-vs-estimated rows-examined ratio beyond which a cost-ordered
/// plan is recompiled with feedback. Estimates model full enumeration, so
/// early-exiting existence probes sit well below 1 and never trigger.
const FANOUT_DIVERGENCE: f64 = 4.0;

/// Recompiles one prepared plan may accumulate over its lifetime. Each
/// generation's observation window doubles ([`GUARD_MIN_RUNS`] `<< gen`:
/// 8, 16, 32 runs), so a plan that keeps diverging — a workload shift
/// after the first correction — gets up to two more chances at
/// progressively higher evidence bars, then settles.
const MAX_RECOMPILES: usize = 3;

/// Adaptive fan-out guard of one prepared plan. Plans live in write-once
/// cache slots shared across sessions, so the guard works through interior
/// mutability: per-node rows-examined accumulate in relaxed atomics, and
/// when the running average diverges from the active plan's estimate by
/// more than [`FANOUT_DIVERGENCE`], the plan is recompiled (into the next
/// `replans` slot) with the observed per-node fan-out as feedback — every
/// sharer of the cached [`PreparedQuery`] switches to the corrected order.
/// Each recompile **re-arms** the guard: the counters reset so the next
/// window observes only the new plan, the run threshold doubles, and
/// after [`MAX_RECOMPILES`] generations the guard disarms for good.
#[derive(Debug)]
struct PlanGuard {
    runs: std::sync::atomic::AtomicU64,
    rows: std::sync::atomic::AtomicU64,
    node_rows: Vec<std::sync::atomic::AtomicU64>,
    /// Write-once recompile slots, filled in order; the active plan is
    /// the last filled slot (or the base plan when none is).
    replans: [std::sync::OnceLock<Plan>; MAX_RECOMPILES],
}

impl PlanGuard {
    fn for_nodes(n: usize) -> PlanGuard {
        PlanGuard {
            runs: std::sync::atomic::AtomicU64::new(0),
            rows: std::sync::atomic::AtomicU64::new(0),
            node_rows: (0..n)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
            replans: [const { std::sync::OnceLock::new() }; MAX_RECOMPILES],
        }
    }
}

impl PreparedQuery {
    /// The underlying query.
    pub fn query(&self) -> &PjQuery {
        &self.query
    }

    /// Join-tree nodes this plan visits at a different position than
    /// declaration-order planning would (0 for `Fixed`-mode plans). The
    /// one-shot wrappers and the cached-validation path fold this into
    /// [`ExecStats::nodes_reordered`] once per compile.
    pub fn nodes_reordered(&self) -> u64 {
        self.plan.moved_nodes as u64
    }

    /// The plan to run: the guard's newest recompiled plan when one
    /// exists, else the plan compiled at prepare time — possibly
    /// recompiling right now if enough divergent runs have accumulated
    /// against the *current* generation's estimates. Each generation
    /// doubles the run threshold and [`MAX_RECOMPILES`] caps the total.
    fn active_plan(&self, db: &Database, preds: &[ProjPred<'_>], stats: &mut ExecStats) -> &Plan {
        use std::sync::atomic::Ordering::Relaxed;
        if self.plan.mode != JoinOrder::Cost {
            return &self.plan; // Fixed plans never recompile
        }
        // Generation = replans compiled so far; slots fill strictly in
        // order, so the active plan is the last filled slot.
        let generation = self
            .guard
            .replans
            .iter()
            .take_while(|slot| slot.get().is_some())
            .count();
        let current: &Plan = match generation {
            0 => &self.plan,
            g => self.guard.replans[g - 1]
                .get()
                .expect("slot counted as filled"),
        };
        if generation == MAX_RECOMPILES {
            return current; // guard disarmed for good
        }
        let runs = self.guard.runs.load(Relaxed);
        if runs < (GUARD_MIN_RUNS << generation) {
            return current;
        }
        let avg = self.guard.rows.load(Relaxed) as f64 / runs as f64;
        if avg <= FANOUT_DIVERGENCE * current.est_rows.max(1.0) {
            return current;
        }
        let mut recompiled = false;
        let p = self.guard.replans[generation].get_or_init(|| {
            recompiled = true;
            // Per-node multipliers: how far each node's observed average
            // rows-examined overshot its estimate. Replanning with them
            // steers the order away from the nodes that actually exploded.
            // Both vectors are indexed by join-tree node id, so zipping
            // against any generation's estimates lines up.
            let mult: Vec<f64> = self
                .guard
                .node_rows
                .iter()
                .zip(&current.est_node_rows)
                .map(|(obs, &est)| {
                    let obs = obs.load(Relaxed) as f64 / runs as f64;
                    (obs / est.max(1.0)).max(1.0)
                })
                .collect();
            Plan::build(&self.query, db, preds, JoinOrder::Cost, Some(&mult))
        });
        if recompiled {
            stats.plan_recompiles += 1;
            // Re-arm: start a fresh observation window so the doubled
            // threshold judges only the new plan's behavior. Relaxed
            // stores may drop a concurrent run's increment — acceptable
            // slack for a 4x heuristic trigger.
            self.guard.runs.store(0, Relaxed);
            self.guard.rows.store(0, Relaxed);
            for acc in &self.guard.node_rows {
                acc.store(0, Relaxed);
            }
        }
        p
    }

    /// Execute against `db` (which must be the database this was prepared
    /// for), reusing `scratch` for all per-run mutable state. `preds` must
    /// put predicates on exactly the slots prepared with — their closures
    /// and range hints may differ per run; verdict memos are cleared.
    pub fn for_each_row(
        &self,
        db: &Database,
        preds: &[ProjPred<'_>],
        scratch: &mut ExecScratch,
        stats: &mut ExecStats,
        cb: RowCallback<'_>,
    ) -> Result<(), DbError> {
        let shape_ok = if preds.is_empty() {
            self.pred_mask.iter().all(|&m| !m)
        } else {
            preds.len() == self.query.projection.len()
                && preds
                    .iter()
                    .zip(&self.pred_mask)
                    .all(|(p, &m)| p.is_some() == m)
        };
        if !shape_ok {
            return Err(DbError::InvalidQuery(
                "predicate shape differs from the prepared plan".into(),
            ));
        }
        if std::mem::replace(&mut scratch.used, true) {
            stats.scratch_reuses += 1;
        }
        scratch.reset_for(self);
        let plan = self.active_plan(db, preds, stats);
        // Key-class bounds (see the module docs). Runs with no hull on a
        // member column leave both buffers empty.
        if plan.classes > 0
            && intersect_class_hulls(
                &self.query,
                preds,
                plan.classes,
                plan.members(),
                &mut scratch.class_hulls,
            )
        {
            if scratch.class_hulls.iter().any(|&(lo, hi)| lo > hi) {
                stats.bound_refuted_runs += 1;
                return Ok(());
            }
            bound_checks(
                &self.query,
                preds,
                &scratch.class_hulls,
                plan.members(),
                |node, col| plan.reached_through(node, col),
                &mut scratch.bounds,
            );
            stats.bound_checked_runs += u64::from(!scratch.bounds.is_empty());
        }
        // Zone-map pruners from range-hinted local predicates on numeric
        // columns and from bound checks, hoisted out of the scan loops: they
        // are constant for the whole run (hulls travel with the predicates,
        // not the plan). None when no predicate carries a usable hull — the
        // common text-probe case allocates nothing here.
        let mut pruners: Option<Vec<Vec<Pruner<'_>>>> = None;
        let local_ranges = plan
            .local_preds
            .iter()
            .enumerate()
            .flat_map(|(node, local)| {
                local.iter().filter_map(move |&(col, slot)| {
                    let pred = preds[slot].expect("shape-checked above");
                    pred.range().map(|(lo, hi)| (node, col, lo, hi))
                })
            });
        let bound_ranges = scratch
            .bounds
            .iter()
            .map(|b| (b.node as usize, b.col, b.lo, b.hi));
        for (node, col, lo, hi) in local_ranges.chain(bound_ranges) {
            let column = db.table(self.query.nodes[node]).column(col);
            if matches!(column.data(), ColumnData::Int(_) | ColumnData::Decimal(_)) {
                pruners.get_or_insert_with(|| {
                    (0..self.query.nodes.len()).map(|_| Vec::new()).collect()
                })[node]
                    .push(Pruner {
                        col: column,
                        kind: PrunerKind::Range(lo, hi),
                    });
            }
        }
        let search = Search {
            db,
            q: &self.query,
            plan,
            preds,
            pruners,
            bounds: &scratch.bounds,
        };
        let mut st = SearchState {
            row_buf: Vec::new(),
            stats,
            cb,
            steps: 0,
            deadline: scratch.deadline,
            assignment: &mut scratch.assignment,
            memos: &mut scratch.memos,
            nogoods: &mut scratch.nogoods,
            node_rows: &mut scratch.node_rows,
        };
        let result = search.run(0, &mut st).map(|_| ());
        // Feed the run back to the adaptive guard (relaxed atomics — exact
        // cross-thread interleaving doesn't matter for a 4x trigger) and
        // record the planner's expectation for the fan-out ratio.
        use std::sync::atomic::Ordering::Relaxed;
        let run_rows: u64 = scratch.node_rows.iter().sum();
        self.guard.runs.fetch_add(1, Relaxed);
        self.guard.rows.fetch_add(run_rows, Relaxed);
        for (acc, &r) in self.guard.node_rows.iter().zip(scratch.node_rows.iter()) {
            if r > 0 {
                acc.fetch_add(r, Relaxed);
            }
        }
        stats.rows_estimated += plan.est_rows as u64;
        result
    }

    /// Prepared existence check (see [`PjQuery::exists_matching`]).
    pub fn exists_matching(
        &self,
        db: &Database,
        preds: &[ProjPred<'_>],
        scratch: &mut ExecScratch,
        stats: &mut ExecStats,
    ) -> Result<bool, DbError> {
        let mut found = false;
        self.for_each_row(db, preds, scratch, stats, &mut |_row| {
            found = true;
            false
        })?;
        Ok(found)
    }

    /// Prepared counting (see [`PjQuery::count_matching`]).
    pub fn count_matching(
        &self,
        db: &Database,
        preds: &[ProjPred<'_>],
        cap: u64,
        scratch: &mut ExecScratch,
        stats: &mut ExecStats,
    ) -> Result<u64, DbError> {
        let mut n = 0u64;
        self.for_each_row(db, preds, scratch, stats, &mut |_row| {
            n += 1;
            n < cap
        })?;
        Ok(n)
    }
}

/// Reusable per-run executor state: the node-assignment vector, the
/// per-slot dictionary verdict memos and the nogood memo. `reset` clears
/// (and reshapes) the buffers without giving their allocations back, so a
/// scratch held across thousands of existence probes settles into zero
/// steady-state allocation.
/// One scratch serves any sequence of prepared queries — sizes adapt.
#[derive(Debug, Default)]
pub struct ExecScratch {
    assignment: Vec<u32>,
    memos: Vec<SlotMemo>,
    /// The current run's failed sub-searches (see [`NogoodSet`]).
    nogoods: NogoodSet,
    /// Rows examined per node slot during the current run; flushed into the
    /// plan's adaptive guard when the run ends. Plain counters here, one
    /// atomic add per node per *run* there — the row loop stays contention-
    /// free.
    node_rows: Vec<u64>,
    /// The current run's hull per key class, and the bound checks derived
    /// from them (see the module docs).
    class_hulls: Vec<(f64, f64)>,
    bounds: Vec<BoundCheck>,
    /// Whether any run has used this scratch (drives
    /// [`ExecStats::scratch_reuses`]).
    used: bool,
    /// Deadline probe: row loops poll it every 1024 steps and abandon the
    /// run with [`DbError::Cancelled`] once it has passed. Survives
    /// [`ExecScratch::reset_for`] — the attachment outlives runs.
    deadline: Option<std::time::Instant>,
}

impl ExecScratch {
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }

    /// Attach (or detach) a deadline. While attached, any run on this
    /// scratch returns [`DbError::Cancelled`] within ~1024 row steps of the
    /// deadline passing, so a validation stops mid-scan when its round's
    /// time is up.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// Clear and reshape for one run of `pq`, keeping allocations.
    fn reset_for(&mut self, pq: &PreparedQuery) {
        self.assignment.clear();
        self.assignment.resize(pq.query.nodes.len(), 0);
        self.node_rows.clear();
        self.node_rows.resize(pq.query.nodes.len(), 0);
        self.nogoods.clear();
        self.bounds.clear();
        self.memos.truncate(pq.memo_shapes.len());
        for (i, &shape) in pq.memo_shapes.iter().enumerate() {
            match self.memos.get_mut(i) {
                Some(m) => m.reset(shape),
                None => self.memos.push(SlotMemo::fresh(shape)),
            }
        }
    }
}

/// One spanning link of the plan: how a node is reached from an
/// already-assigned parent.
#[derive(Debug)]
struct Link {
    parent_node: usize,
    parent_col: u32,
    my_col: u32,
    /// Common key space of the two columns; both sides key in it.
    pair_space: crate::types::KeySpace,
    /// Whether the probed column's hash index is keyed in `pair_space`
    /// (always true for FK-aligned conditions; an ad-hoc condition across
    /// key-space components falls back to a filtered scan).
    index_usable: bool,
    /// Separator of this link's depth, filled in by [`Plan::build`] once
    /// the visit order is final.
    separator: Separator,
    /// Key class of the link's two columns.
    class: KeyClass,
}

/// Label of one key class of a plan (see the module docs): the index of
/// its first join condition, or [`NO_CLASS`] for a condition in `Sym`
/// space. One byte, so it sits in the padding of the link and residual
/// entries it labels.
type KeyClass = u8;

/// The label of a condition outside every class: `Sym` space, or a class
/// whose first condition has an index no label can hold.
const NO_CLASS: KeyClass = KeyClass::MAX;

/// One run's range check on a key-class member column: a row passes only
/// when its cell is a number in `[lo, hi]`.
#[derive(Debug, Clone, Copy)]
struct BoundCheck {
    node: u32,
    col: u32,
    lo: f64,
    hi: f64,
}

impl BoundCheck {
    #[inline]
    fn admits(&self, column: &Column, row: usize) -> bool {
        if column.is_null(row) {
            return false; // NULL never joins
        }
        let x = match column.data() {
            ColumnData::Int(v) => v[row] as f64,
            ColumnData::Decimal(v) => v[row],
            ColumnData::Sym(_) => unreachable!("key classes hold numeric columns"),
        };
        self.lo <= x && x <= self.hi
    }
}

/// One join key an already-assigned node exposes to a deeper sub-search:
/// the cell at (node slot, column), keyed in `space`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SepKey {
    node: u32,
    col: u32,
    space: KeySpace,
}

/// A depth's *separator*: the join keys of already-assigned nodes that any
/// link or residual check at that depth or deeper reads. The sub-search
/// below the depth sees the assignment only through these keys, so they
/// key the run's nogood memo. Inline and `Copy`: cached plans number in the
/// tens of thousands, and a heap list per depth would show in peak memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Separator {
    One(SepKey),
    Two(SepKey, SepKey),
    /// More than two keys: never memoized.
    Wide,
}

/// Per-node execution info, derived once per *prepared* query (not per
/// run — the prepare/execute split exists so this is never rebuilt on the
/// existence-probe hot path).
#[derive(Debug)]
struct Plan {
    /// Visit order of node slots.
    order: Vec<usize>,
    /// For order[i] (i>0): the spanning link to an already-visited node.
    link: Vec<Option<Link>>,
    /// Cycle-closing join conditions checked once both sides are assigned:
    /// evaluated at the depth where the *later* endpoint gets its row,
    /// compared in the endpoints' common key space, with their key class.
    residual_at: Vec<Vec<(JoinCond, KeySpace, KeyClass)>>,
    /// One more than the largest key-class label: the length of a run's
    /// per-class hull buffer.
    classes: u8,
    /// Local predicates per node slot: (column, projection slot index).
    local_preds: Vec<Vec<(u32, usize)>>,
    /// Planning mode this plan was built under; the adaptive guard only
    /// arms for `Cost` plans (`Fixed` plans never recompile).
    mode: JoinOrder,
    /// Estimated rows one full enumeration examines — the guard's baseline
    /// and the numerator feed of [`ExecStats::rows_estimated`].
    est_rows: f64,
    /// The same estimate attributed per node slot, so recompiles can see
    /// *which* node's fan-out was mispredicted.
    est_node_rows: Vec<f64>,
    /// Nodes visited at a different position than declaration-order BFS
    /// would put them (always 0 in `Fixed` mode).
    moved_nodes: u32,
}

/// Selectivity floor: keeps estimates off exact zero so relative ordering
/// stays meaningful even for "provably empty" hulls.
const MIN_SEL: f64 = 1e-4;

/// Estimated fraction of `node`'s rows passing one local predicate. A
/// numeric hull consults the column histogram; an opaque predicate is
/// assumed to be an equality probe — one distinct value's share.
fn pred_selectivity(
    q: &PjQuery,
    db: &Database,
    preds: &[ProjPred<'_>],
    node: usize,
    col: u32,
    slot: usize,
) -> f64 {
    let st = db
        .stats()
        .column(crate::schema::ColumnRef::new(q.nodes[node], col));
    let range = preds.get(slot).copied().flatten().and_then(|p| p.range());
    match range {
        Some((lo, hi)) if lo > hi || st.dtype.is_numeric() => range_sel(st, lo, hi),
        _ => (1.0 / st.distinct_count.max(1) as f64).max(MIN_SEL),
    }
}

/// Estimated fraction of a column's rows inside a numeric hull.
fn range_sel(st: &crate::stats::ColumnStats, lo: f64, hi: f64) -> f64 {
    if lo > hi {
        MIN_SEL * MIN_SEL
    } else {
        st.selectivity_range(lo, hi).max(MIN_SEL)
    }
}

/// Prepare-time cardinality estimator. All inputs are already materialized
/// by the substrate: `StatsStore` distinct counts and histograms, CSR
/// per-key run lengths, and the numeric hulls riding on the predicates.
struct Estimator<'a> {
    q: &'a PjQuery,
    db: &'a Database,
    local_preds: &'a [Vec<(u32, usize)>],
    preds: &'a [ProjPred<'a>],
    /// Per-node cost multipliers from the adaptive guard's observed
    /// fan-out (recompiles only); `None` on the first compile.
    feedback: Option<&'a [f64]>,
    /// The key-class bound on every member column its class's hull bounds
    /// more tightly than the column's own predicate does.
    class_bounds: &'a [BoundCheck],
}

impl Estimator<'_> {
    fn mult(&self, node: usize) -> f64 {
        self.feedback.map_or(1.0, |m| m[node])
    }

    /// Product of all local-predicate selectivities on `node`.
    fn pred_sel(&self, node: usize) -> f64 {
        self.local_preds[node]
            .iter()
            .map(|&(col, slot)| pred_selectivity(self.q, self.db, self.preds, node, col, slot))
            .product()
    }

    /// Selectivity of the *prunable* part only — numeric hulls that zone
    /// maps can push below the row loop. Opaque predicates don't reduce
    /// rows examined (every row is tested), so they don't appear here.
    fn hull_sel(&self, node: usize) -> f64 {
        self.local_preds[node]
            .iter()
            .map(|&(col, slot)| {
                let st = self
                    .db
                    .stats()
                    .column(crate::schema::ColumnRef::new(self.q.nodes[node], col));
                match self
                    .preds
                    .get(slot)
                    .copied()
                    .flatten()
                    .and_then(|p| p.range())
                {
                    Some((lo, hi)) if lo > hi || st.dtype.is_numeric() => range_sel(st, lo, hi),
                    _ => 1.0,
                }
            })
            .product()
    }

    /// How much further the class bounds narrow a start scan of `node`:
    /// per bounded member column, the bound's selectivity over that of the
    /// column's own hull (1 without one). A start node is reached through
    /// no link, so a run checks every bounded member column it holds.
    fn class_sel(&self, node: usize) -> f64 {
        self.class_bounds
            .iter()
            .filter(|b| b.node as usize == node)
            .map(|b| {
                let st = self
                    .db
                    .stats()
                    .column(crate::schema::ColumnRef::new(self.q.nodes[node], b.col));
                let own = self.local_preds[node]
                    .iter()
                    .filter(|&&(col, _)| col == b.col)
                    .filter_map(|&(_, slot)| self.preds.get(slot).copied().flatten()?.range())
                    .map(|(lo, hi)| range_sel(st, lo, hi))
                    .fold(1.0, f64::min);
                (range_sel(st, b.lo, b.hi) / own).min(1.0)
            })
            .product()
    }

    /// Rows a full scan of `node` examines (hulls and class bounds prune,
    /// opaque predicates don't) and rows it yields after all predicates.
    fn scan_cost(&self, node: usize) -> f64 {
        let rows = self.db.row_count(self.q.nodes[node]) as f64;
        (rows * self.hull_sel(node) * self.class_sel(node)).max(1.0) * self.mult(node)
    }

    fn scan_card(&self, node: usize) -> f64 {
        self.db.row_count(self.q.nodes[node]) as f64 * self.pred_sel(node) * self.class_sel(node)
    }

    /// Per-parent-row probe estimate into `to.tcol`:
    /// `(rows examined, rows matching after the join key)`. An indexed
    /// probe examines one posting run — estimated as the geometric mean of
    /// the average and the *longest* run, so a Zipf hub key cannot hide
    /// behind a benign average. Without a usable index the executor falls
    /// back to a key-filtered scan: every (hull-surviving) row is examined.
    fn probe(&self, to: usize, tcol: u32, index_usable: bool) -> (f64, f64) {
        let tid = self.q.nodes[to];
        let cref = crate::schema::ColumnRef::new(tid, tcol);
        match self.db.join_index(cref) {
            Some(ix) if index_usable && !ix.is_empty() => {
                let avg = ix.avg_run();
                let skew_aware = (avg * ix.max_run() as f64).sqrt().max(avg);
                (skew_aware, avg)
            }
            _ => {
                let rows = self.db.row_count(tid) as f64;
                let distinct = self.db.stats().distinct_count(tid, tcol).max(1) as f64;
                ((rows * self.hull_sel(to)).max(1.0), rows / distinct)
            }
        }
    }

    /// Total and per-node estimated rows-examined of one concrete visit
    /// order — the number the adaptive guard compares observed work to.
    fn cost_of(&self, order: &[usize], link: &[Option<Link>]) -> (f64, Vec<f64>) {
        let mut node_est = vec![0.0; self.q.nodes.len()];
        let start = order[0];
        node_est[start] = self.scan_cost(start);
        let mut card = self.scan_card(start).max(1.0);
        for (d, &to) in order.iter().enumerate().skip(1) {
            let l = link[d].as_ref().expect("non-start nodes are linked");
            let (examine, matches) = self.probe(to, l.my_col, l.index_usable);
            node_est[to] = (card * examine * self.mult(to)).max(1.0);
            card *= matches * self.pred_sel(to);
        }
        (node_est.iter().sum(), node_est)
    }
}

impl Plan {
    /// Compile a visit order for `q`. `Fixed` reproduces the legacy
    /// declaration-order BFS; `Cost` searches every start node and greedily
    /// expands the cheapest estimated probe first (see [`Estimator`]), then
    /// orders each node's local predicates and residual checks most
    /// selective / cheapest first. `feedback` carries per-node observed
    /// fan-out multipliers when the adaptive guard recompiles.
    fn build(
        q: &PjQuery,
        db: &Database,
        preds: &[ProjPred<'_>],
        mode: JoinOrder,
        feedback: Option<&[f64]>,
    ) -> Plan {
        let n = q.nodes.len();
        // Local predicate lists, in declaration (projection) order.
        let mut local_preds: Vec<Vec<(u32, usize)>> = vec![Vec::new(); n];
        for (slot, &(node, col)) in q.projection.iter().enumerate() {
            if preds.get(slot).copied().flatten().is_some() {
                local_preds[node].push((col, slot));
            }
        }
        if mode == JoinOrder::Cost {
            // Local predicates: most selective first, dictionary-memoized
            // (cheap per-row after warmup) before direct evaluation on
            // ties. Selectivity products are order-independent, so this
            // can't change any estimate — only how fast a doomed row dies.
            type RankedPred = ((f64, u8, usize), (u32, usize));
            for (node, locals) in local_preds.iter_mut().enumerate() {
                let mut keyed: Vec<RankedPred> = locals
                    .iter()
                    .map(|&(col, slot)| {
                        let column = db.table(q.nodes[node]).column(col);
                        let memoized = matches!(column.data(), ColumnData::Sym(_));
                        let sel = pred_selectivity(q, db, preds, node, col, slot);
                        ((sel, u8::from(!memoized), slot), (col, slot))
                    })
                    .collect();
                keyed.sort_by(|a, b| {
                    a.0 .0
                        .total_cmp(&b.0 .0)
                        .then(a.0 .1.cmp(&b.0 .1))
                        .then(a.0 .2.cmp(&b.0 .2))
                });
                *locals = keyed.into_iter().map(|(_, p)| p).collect();
            }
        }
        let (labels, classes) = key_classes(q, db);
        let members = || {
            q.joins
                .iter()
                .zip(&labels)
                .filter(|&(_, &class)| class != NO_CLASS)
                .flat_map(|(j, &class)| {
                    [
                        (j.left_node, j.left_col, class),
                        (j.right_node, j.right_col, class),
                    ]
                })
        };
        let mut hulls = Vec::new();
        let mut class_bounds = Vec::new();
        if intersect_class_hulls(q, preds, classes, members(), &mut hulls) {
            bound_checks(q, preds, &hulls, members(), |_, _| false, &mut class_bounds);
        }
        let est = Estimator {
            q,
            db,
            local_preds: &local_preds,
            preds,
            feedback,
            class_bounds: &class_bounds,
        };
        let (order, mut link, used_join, moved_nodes) = match mode {
            JoinOrder::Fixed => {
                let (order, link, used) = fixed_order(q, db, &local_preds, &labels);
                (order, link, used, 0)
            }
            JoinOrder::Cost => {
                let (order, link, used) = cost_order(q, db, &est, &labels);
                // How far did cost planning move the tree? Compare against
                // what declaration-order planning would have done.
                let (fixed, _, _) = fixed_order(q, db, &local_preds, &labels);
                let moved = order.iter().zip(&fixed).filter(|(a, b)| a != b).count() as u32;
                (order, link, used, moved)
            }
        };
        // Remaining joins are redundant cycle-closers: schedule each at the
        // depth where its later endpoint is assigned.
        let depth_of = |node: usize| order.iter().position(|&x| x == node).expect("visited");
        let mut residual_at: Vec<Vec<(JoinCond, KeySpace, KeyClass)>> = vec![Vec::new(); n];
        for (ji, j) in q.joins.iter().enumerate() {
            if !used_join[ji] {
                let d = depth_of(j.left_node).max(depth_of(j.right_node));
                let pair = pair_space_of(q, db, j.left_node, j.left_col, j.right_node, j.right_col);
                residual_at[d].push((*j, pair, labels[ji]));
            }
        }
        if mode == JoinOrder::Cost {
            // Residual checks: most selective first — a residual's chance of
            // passing shrinks with the larger distinct count of its
            // endpoints, so check the sharpest key equality first.
            for residuals in &mut residual_at {
                residuals.sort_by_key(|(j, ..)| {
                    let d = db
                        .stats()
                        .distinct_count(q.nodes[j.left_node], j.left_col)
                        .max(
                            db.stats()
                                .distinct_count(q.nodes[j.right_node], j.right_col),
                        );
                    std::cmp::Reverse(d)
                });
            }
        }
        // Separators: per depth, the keys of shallower nodes that the links
        // and residual checks at that depth or deeper read.
        for d in 1..n {
            let mut keys: Vec<SepKey> = Vec::new();
            let mut read = |node: usize, col: u32, space: KeySpace| {
                let key = SepKey {
                    node: node as u32,
                    col,
                    space,
                };
                if depth_of(node) < d && !keys.contains(&key) {
                    keys.push(key);
                }
            };
            for e in d..n {
                if let Some(l) = &link[e] {
                    read(l.parent_node, l.parent_col, l.pair_space);
                }
                for &(j, space, _) in &residual_at[e] {
                    read(j.left_node, j.left_col, space);
                    read(j.right_node, j.right_col, space);
                }
            }
            link[d]
                .as_mut()
                .expect("non-start nodes are linked")
                .separator = match keys[..] {
                [a] => Separator::One(a),
                [a, b] => Separator::Two(a, b),
                _ => Separator::Wide,
            };
        }
        let (est_rows, est_node_rows) = est.cost_of(&order, &link);
        Plan {
            order,
            link,
            residual_at,
            classes,
            local_preds,
            mode,
            est_rows,
            est_node_rows,
            moved_nodes,
        }
    }

    /// Every key-class member column as `(node, column, class)`: both
    /// endpoints of each labeled link and residual, repeats included.
    fn members(&self) -> impl Iterator<Item = (usize, u32, KeyClass)> + Clone + '_ {
        let links = self.order.iter().zip(&self.link).filter_map(|(&node, l)| {
            let l = l.as_ref()?;
            Some([
                (l.parent_node, l.parent_col, l.class),
                (node, l.my_col, l.class),
            ])
        });
        let residuals = self.residual_at.iter().flatten().map(|&(j, _, class)| {
            [
                (j.left_node, j.left_col, class),
                (j.right_node, j.right_col, class),
            ]
        });
        links
            .chain(residuals)
            .flatten()
            .filter(|&(.., class)| class != NO_CLASS)
    }

    /// Is `node` reached through a link into its column `col`? Its cells in
    /// that column then equal an earlier node's, key for key.
    fn reached_through(&self, node: usize, col: u32) -> bool {
        self.order
            .iter()
            .zip(&self.link)
            .any(|(&n, l)| n == node && l.as_ref().is_some_and(|l| l.my_col == col))
    }
}

/// The key class of each join condition of `q`: conditions in `Int` or
/// `F64` space that share an endpoint column get one label, the smallest
/// index among them, and `Sym` conditions get [`NO_CLASS`]. Returns the
/// labels and one more than the largest label (0 without any).
fn key_classes(q: &PjQuery, db: &Database) -> (Vec<KeyClass>, u8) {
    let n = q.joins.len();
    let mut labels: Vec<KeyClass> = q
        .joins
        .iter()
        .enumerate()
        .map(|(ji, j)| {
            match pair_space_of(q, db, j.left_node, j.left_col, j.right_node, j.right_col) {
                KeySpace::Sym => NO_CLASS,
                _ => KeyClass::try_from(ji).unwrap_or(NO_CLASS),
            }
        })
        .collect();
    // A condition that shares a column with a lower-labeled one takes its
    // label, until none does. `Sym` conditions share columns only with each
    // other, and join counts are tiny.
    let ends = |j: &JoinCond| [(j.left_node, j.left_col), (j.right_node, j.right_col)];
    let mut changed = true;
    while changed {
        changed = false;
        for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
            let (ea, eb) = (ends(&q.joins[a]), ends(&q.joins[b]));
            if labels[b] < labels[a] && ea.iter().any(|e| eb.contains(e)) {
                labels[a] = labels[b];
                changed = true;
            }
        }
    }
    let classes = labels
        .iter()
        .filter(|&&k| k != NO_CLASS)
        .max()
        .map_or(0, |&k| k + 1);
    (labels, classes)
}

/// The widest hull: it bounds nothing.
const FULL_HULL: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

/// Intersects the hulls of `preds` over each key class of `members`.
/// Returns `false`, leaving `hulls` as it was, when no predicate with a hull
/// sits on a member column; otherwise `hulls` holds one intersection per
/// class (`lo > hi` when empty, [`FULL_HULL`] for a class without a hull).
fn intersect_class_hulls(
    q: &PjQuery,
    preds: &[ProjPred<'_>],
    classes: u8,
    members: impl Iterator<Item = (usize, u32, KeyClass)> + Clone,
    hulls: &mut Vec<(f64, f64)>,
) -> bool {
    let mut any = false;
    for (slot, &(node, col)) in q.projection.iter().enumerate() {
        let Some((lo, hi)) = preds.get(slot).copied().flatten().and_then(|p| p.range()) else {
            continue;
        };
        let Some((.., class)) = members.clone().find(|&(n, c, _)| n == node && c == col) else {
            continue;
        };
        if !any {
            hulls.clear();
            hulls.resize(usize::from(classes), FULL_HULL);
            any = true;
        }
        let h = &mut hulls[usize::from(class)];
        *h = (h.0.max(lo), h.1.min(hi));
    }
    any
}

/// Appends to `out` a check of each member column whose class's hull in
/// `hulls` bounds it more tightly than its own predicate, once per column,
/// skipping the columns `inherits` names (reached through their class's
/// own link).
fn bound_checks(
    q: &PjQuery,
    preds: &[ProjPred<'_>],
    hulls: &[(f64, f64)],
    members: impl Iterator<Item = (usize, u32, KeyClass)>,
    inherits: impl Fn(usize, u32) -> bool,
    out: &mut Vec<BoundCheck>,
) {
    for (node, col, class) in members {
        let (lo, hi) = hulls[usize::from(class)];
        let own_is_as_tight =
            q.projection.iter().zip(preds).any(|(&p, pred)| {
                p == (node, col) && pred.and_then(|p| p.range()) == Some((lo, hi))
            });
        if (lo, hi) == FULL_HULL
            || own_is_as_tight
            || inherits(node, col)
            || out.iter().any(|b| (b.node, b.col) == (node as u32, col))
        {
            continue;
        }
        out.push(BoundCheck {
            node: node as u32,
            col,
            lo,
            hi,
        });
    }
}

/// The key space a join condition compares in. FK-aligned conditions have
/// equal assigned spaces and keep them (and their index). An ad-hoc
/// condition across components compares exactly when both *declared* types
/// are Int — a Decimal-demoted Int column still stores i64 data, so
/// exactness must not be lost to its component assignment — and in F64
/// otherwise.
fn pair_space_of(
    q: &PjQuery,
    db: &Database,
    an: usize,
    ac: u32,
    bn: usize,
    bc: u32,
) -> crate::types::KeySpace {
    let space_of =
        |node: usize, col: u32| db.key_space(crate::schema::ColumnRef::new(q.nodes[node], col));
    let (sa, sb) = (space_of(an, ac), space_of(bn, bc));
    if sa == sb {
        return sa;
    }
    let dtype_of = |node: usize, col: u32| db.catalog().table(q.nodes[node]).column(col).dtype;
    if dtype_of(an, ac) == crate::types::DataType::Int
        && dtype_of(bn, bc) == crate::types::DataType::Int
    {
        crate::types::KeySpace::Int
    } else {
        crate::types::KeySpace::F64
    }
}

fn make_link(
    q: &PjQuery,
    db: &Database,
    from: usize,
    fcol: u32,
    to: usize,
    tcol: u32,
    class: KeyClass,
) -> Link {
    let pair_space = pair_space_of(q, db, from, fcol, to, tcol);
    let index_usable = pair_space == db.key_space(crate::schema::ColumnRef::new(q.nodes[to], tcol));
    Link {
        parent_node: from,
        parent_col: fcol,
        my_col: tcol,
        pair_space,
        index_usable,
        separator: Separator::Wide,
        class,
    }
}

/// Legacy declaration-order planning: start at the node with the most
/// local predicates (tie-broken by smallest table), then BFS over join
/// conditions in declaration order. Returns the visit order, spanning
/// links, and which joins the spanning tree consumed.
#[allow(clippy::type_complexity)]
fn fixed_order(
    q: &PjQuery,
    db: &Database,
    local_preds: &[Vec<(u32, usize)>],
    labels: &[KeyClass],
) -> (Vec<usize>, Vec<Option<Link>>, Vec<bool>) {
    let n = q.nodes.len();
    let start = (0..n)
        .min_by_key(|&i| {
            (
                std::cmp::Reverse(local_preds[i].len()),
                db.row_count(q.nodes[i]),
                i,
            )
        })
        .expect("validated: at least one node");
    let mut order = vec![start];
    let mut link: Vec<Option<Link>> = vec![None];
    let mut visited = vec![false; n];
    visited[start] = true;
    let mut used_join = vec![false; q.joins.len()];
    while order.len() < n {
        let mut progressed = false;
        for (ji, j) in q.joins.iter().enumerate() {
            if used_join[ji] {
                continue;
            }
            let (from, fcol, to, tcol) = if visited[j.left_node] && !visited[j.right_node] {
                (j.left_node, j.left_col, j.right_node, j.right_col)
            } else if visited[j.right_node] && !visited[j.left_node] {
                (j.right_node, j.right_col, j.left_node, j.left_col)
            } else {
                continue;
            };
            used_join[ji] = true;
            visited[to] = true;
            order.push(to);
            link.push(Some(make_link(q, db, from, fcol, to, tcol, labels[ji])));
            progressed = true;
        }
        if !progressed {
            break; // validated connectivity makes this unreachable
        }
    }
    (order, link, used_join)
}

/// Cost-based planning: try every node as the scan root and greedily
/// attach the frontier join with the cheapest estimated probe until the
/// tree is spanned; keep the start whose whole order estimates cheapest.
/// Node counts are tiny (candidate trees are ≤ a handful of tables), so
/// the exhaustive-start greedy is both near-optimal and effectively free
/// next to the once-per-query-class compile it runs inside.
#[allow(clippy::type_complexity)]
fn cost_order(
    q: &PjQuery,
    db: &Database,
    est: &Estimator<'_>,
    labels: &[KeyClass],
) -> (Vec<usize>, Vec<Option<Link>>, Vec<bool>) {
    let n = q.nodes.len();
    let mut best: Option<(f64, Vec<usize>, Vec<Option<Link>>, Vec<bool>)> = None;
    for start in 0..n {
        let mut order = vec![start];
        let mut link: Vec<Option<Link>> = vec![None];
        let mut visited = vec![false; n];
        visited[start] = true;
        let mut used_join = vec![false; q.joins.len()];
        let mut total = est.scan_cost(start);
        let mut card = est.scan_card(start).max(1.0);
        while order.len() < n {
            // Cheapest expansion across the frontier: joins with exactly
            // one visited endpoint. Declaration order breaks exact ties.
            let mut pick: Option<(f64, usize)> = None;
            for (ji, j) in q.joins.iter().enumerate() {
                if used_join[ji] {
                    continue;
                }
                let (_, _, to, tcol) = match (visited[j.left_node], visited[j.right_node]) {
                    (true, false) => (j.left_node, j.left_col, j.right_node, j.right_col),
                    (false, true) => (j.right_node, j.right_col, j.left_node, j.left_col),
                    _ => continue,
                };
                let usable =
                    pair_space_of(q, db, j.left_node, j.left_col, j.right_node, j.right_col)
                        == db.key_space(crate::schema::ColumnRef::new(q.nodes[to], tcol));
                let (examine, _) = est.probe(to, tcol, usable);
                let step = card * examine * est.mult(to);
                if pick.is_none_or(|(c, _)| step < c) {
                    pick = Some((step, ji));
                }
            }
            let Some((step, ji)) = pick else {
                break; // validated connectivity makes this unreachable
            };
            let j = &q.joins[ji];
            let (from, fcol, to, tcol) = if visited[j.left_node] {
                (j.left_node, j.left_col, j.right_node, j.right_col)
            } else {
                (j.right_node, j.right_col, j.left_node, j.left_col)
            };
            used_join[ji] = true;
            visited[to] = true;
            order.push(to);
            let l = make_link(q, db, from, fcol, to, tcol, labels[ji]);
            let (_, matches) = est.probe(to, tcol, l.index_usable);
            link.push(Some(l));
            total += step;
            card = (card * matches * est.pred_sel(to)).max(MIN_SEL);
        }
        if best.as_ref().is_none_or(|(c, ..)| total < *c) {
            best = Some((total, order, link, used_join));
        }
    }
    let (_, order, link, used_join) = best.expect("validated: at least one node");
    (order, link, used_join)
}

/// The shared (immutable) context of one query run.
struct Search<'a> {
    db: &'a Database,
    q: &'a PjQuery,
    plan: &'a Plan,
    preds: &'a [ProjPred<'a>],
    /// Run-constant zone-map pruners per node slot (from range-hinted
    /// numeric local predicates and bound checks); `None` when no
    /// predicate carries a hull.
    pruners: Option<Vec<Vec<Pruner<'a>>>>,
    /// The run's key-class bound checks (see the module docs).
    bounds: &'a [BoundCheck],
}

/// The mutable state threaded through the backtracking recursion. The
/// assignment vector and memos borrow an [`ExecScratch`], so repeated runs
/// reuse their allocations.
struct SearchState<'a, 'cb, 'st> {
    assignment: &'st mut Vec<u32>,
    /// Per-projection-slot dictionary verdict memos, shared by every path
    /// that evaluates the slot's predicate during this run.
    memos: &'st mut Vec<SlotMemo>,
    /// Sub-searches this run has proven to emit nothing.
    nogoods: &'st mut NogoodSet,
    /// Rows examined per node slot this run (adaptive-guard feedback).
    node_rows: &'st mut Vec<u64>,
    /// Projection row buffer, reused across emissions within a run (lazy:
    /// existence misses never allocate it).
    row_buf: Vec<ValueRef<'a>>,
    stats: &'st mut ExecStats,
    cb: RowCallback<'cb>,
    /// Row steps since the run started; every 1024th step polls the
    /// deadline below. One increment + mask test per row when no deadline
    /// is attached, so the check stays off the hot path.
    steps: u64,
    deadline: Option<std::time::Instant>,
}

impl SearchState<'_, '_, '_> {
    /// One row step: poll the deadline on a 1024-step stride.
    #[inline]
    fn tick(&mut self) -> Result<(), DbError> {
        self.steps = self.steps.wrapping_add(1);
        if self.steps & 0x3FF == 0 && self.interrupted() {
            return Err(DbError::Cancelled);
        }
        Ok(())
    }

    #[cold]
    fn interrupted(&self) -> bool {
        self.deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    }
}

impl<'a> Search<'a> {
    /// Extend the partial assignment at `depth`. Returns `false` when the
    /// callback asked to stop enumeration. A sub-search whose depth and
    /// separator keys already failed in this run is skipped outright.
    fn run(&self, depth: usize, st: &mut SearchState<'a, '_, '_>) -> Result<bool, DbError> {
        if depth == self.plan.order.len() {
            st.stats.rows_emitted += 1;
            st.row_buf.clear();
            for &(node, col) in &self.q.projection {
                let v = self.db.value_ref(
                    crate::schema::ColumnRef::new(self.q.nodes[node], col),
                    st.assignment[node],
                );
                st.row_buf.push(v);
            }
            return Ok((st.cb)(&st.row_buf));
        }
        let nogood = self.nogood_key(depth, st.assignment);
        if let Some(key) = nogood {
            if st.nogoods.contains(&key) {
                st.stats.nogood_hits += 1;
                return Ok(true);
            }
        }
        let emitted = st.stats.rows_emitted;
        let result = self.expand(depth, st);
        // Record only a sub-search that ran to completion without emitting:
        // errors and deadline stops return early, and a panic unwinds past.
        if let (Some(key), Ok(true)) = (nogood, &result) {
            if st.stats.rows_emitted == emitted && st.nogoods.len() < NOGOOD_CAP {
                st.nogoods.insert(key);
            }
        }
        result
    }

    /// The nogood-memo key of the sub-search at `depth` under the current
    /// assignment: the depth and its separator's join keys. `None` (never
    /// memoized) at the start depth, for separators wider than two keys,
    /// and when a separator key is NULL.
    fn nogood_key(&self, depth: usize, assignment: &[u32]) -> Option<NogoodKey> {
        let key = |k: SepKey| {
            let node = k.node as usize;
            self.db
                .table(self.q.nodes[node])
                .column(k.col)
                .join_key_in(assignment[node] as usize, k.space)
        };
        match self.plan.link[depth].as_ref()?.separator {
            Separator::One(a) => Some((depth as u32, key(a)?, 0)),
            Separator::Two(a, b) => Some((depth as u32, key(a)?, key(b)?)),
            Separator::Wide => None,
        }
    }

    /// The body of [`Search::run`] below the memo: enumerate this depth's
    /// candidate rows and recurse.
    fn expand(&self, depth: usize, st: &mut SearchState<'a, '_, '_>) -> Result<bool, DbError> {
        let node = self.plan.order[depth];
        let tid = self.q.nodes[node];
        let table = self.db.table(tid);

        // Candidate rows for this node: compact join keys only, no `Value`.
        let candidates: CandidateRows = match &self.plan.link[depth] {
            None => CandidateRows::Scan(table.row_count() as u32),
            Some(link) => {
                let parent_key = self
                    .db
                    .table(self.q.nodes[link.parent_node])
                    .column(link.parent_col)
                    .join_key_in(st.assignment[link.parent_node] as usize, link.pair_space);
                let Some(pk) = parent_key else {
                    return Ok(true); // NULL never equi-joins
                };
                let col_ref = crate::schema::ColumnRef::new(tid, link.my_col);
                st.stats.index_probes += 1;
                match self.db.join_index(col_ref) {
                    Some(ix) if link.index_usable => CandidateRows::List(ix.rows(pk)),
                    _ => CandidateRows::FilteredScan(
                        table.row_count() as u32,
                        link.my_col,
                        pk,
                        link.pair_space,
                    ),
                }
            }
        };

        match candidates {
            CandidateRows::Scan(n) => {
                // Fast path for the engine's single most common scan: a
                // start node with exactly one dictionary predicate and no
                // zone pruners. The column, code slice, and memo are hoisted
                // out of the loop, so each row costs a code load and a
                // bitmap test — the generic path re-derives them per row.
                if let Some(fast) = self.dict_scan_target(node, st) {
                    return self.dict_scan(depth, node, n, fast, st);
                }
                self.scan_blocks(node, n, None, st, |s, row, st| {
                    s.try_row(depth, node, table, row, st)
                })
            }
            // Index-probed rows carry no pruners: the probe already keyed
            // the exact rows.
            CandidateRows::List(rows) => {
                for &row in rows {
                    if !self.try_row(depth, node, table, row, st)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            CandidateRows::FilteredScan(n, col, pk, space) => {
                let column = table.column(col);
                // The key pruner rides alongside the node's range pruners as
                // a borrowed extra — no per-parent-row Vec is built.
                let key_pruner = Pruner {
                    col: column,
                    kind: PrunerKind::Key(pk, space),
                };
                self.scan_blocks(node, n, Some(&key_pruner), st, |s, row, st| {
                    if column.join_key_in(row as usize, space) != Some(pk) {
                        // Key-rejected rows are counted here; key-matching
                        // rows are counted once inside try_row.
                        st.tick()?;
                        st.stats.rows_examined += 1;
                        st.node_rows[node] += 1;
                        return Ok(true);
                    }
                    s.try_row(depth, node, table, row, st)
                })
            }
        }
    }

    /// Is the full scan of `node` a single dictionary predicate with an
    /// eligible memo and no pruners? Returns its `(column, slot)`.
    fn dict_scan_target(&self, node: usize, st: &SearchState<'a, '_, '_>) -> Option<(u32, usize)> {
        // A bound check always comes with a range pruner, so a checked node
        // never takes the fast path, which skips `try_row`.
        if self.pruners.as_ref().is_some_and(|p| !p[node].is_empty()) {
            return None;
        }
        match self.plan.local_preds[node][..] {
            [(col, slot)] if st.memos[slot].eligible => Some((col, slot)),
            _ => None,
        }
    }

    /// Tight memoized scan over one dictionary column: per row, one code
    /// load plus one verdict-bitmap test; surviving rows continue through
    /// [`Search::advance`]. Row work is counted in a loop-local register
    /// and flushed once on every exit path, so early-exit probes charge
    /// exactly the rows they touched without per-row traffic through the
    /// stats reference.
    fn dict_scan(
        &self,
        depth: usize,
        node: usize,
        n: u32,
        (col, slot): (u32, usize),
        st: &mut SearchState<'a, '_, '_>,
    ) -> Result<bool, DbError> {
        let table = self.db.table(self.q.nodes[node]);
        let column = table.column(col);
        let ColumnData::Sym(codes) = column.data() else {
            unreachable!("memo-eligible slots sit on dictionary columns");
        };
        let codes = &codes[..n as usize];
        let syms = self.db.symbols();
        let pred = self.preds[slot].expect("local_preds only lists Some preds");
        let no_nulls = column.nulls().none_null();
        // Take the slot's memo out of the scratch for the loop (deeper
        // nodes own different slots, so `advance` never needs this one);
        // restore it before returning so the run's sharing contract holds.
        let mut memo = std::mem::replace(
            &mut st.memos[slot],
            SlotMemo::fresh(MemoShape {
                eligible: false,
                code_range: 0,
            }),
        );
        let mut examined = 0u64;
        let mut result = Ok(true);
        'scan: {
            if no_nulls {
                for (r, &code) in codes.iter().enumerate() {
                    examined += 1;
                    if examined & 0x3FF == 0 && st.interrupted() {
                        result = Err(DbError::Cancelled);
                        break 'scan;
                    }
                    if !memo.check(code, || pred.matches(column.value_ref(syms, r))) {
                        continue;
                    }
                    match self.advance(depth, node, r as u32, st) {
                        Ok(true) => {}
                        stop => {
                            result = stop;
                            break 'scan;
                        }
                    }
                }
            } else {
                for (r, &code) in codes.iter().enumerate() {
                    examined += 1;
                    if examined & 0x3FF == 0 && st.interrupted() {
                        result = Err(DbError::Cancelled);
                        break 'scan;
                    }
                    let ok = if column.is_null(r) {
                        *memo
                            .null_verdict
                            .get_or_insert_with(|| pred.matches(ValueRef::Null))
                    } else {
                        memo.check(code, || pred.matches(column.value_ref(syms, r)))
                    };
                    if !ok {
                        continue;
                    }
                    match self.advance(depth, node, r as u32, st) {
                        Ok(true) => {}
                        stop => {
                            result = stop;
                            break 'scan;
                        }
                    }
                }
            }
        }
        st.stats.rows_examined += examined;
        st.node_rows[node] += examined;
        st.memos[slot] = memo;
        result
    }

    /// Drive `per_row` over `0..n`, skipping whole blocks every pruner
    /// proves empty. With no pruners (or an unfrozen / single-block column)
    /// this is one plain loop — no per-block overhead.
    fn scan_blocks(
        &self,
        node: usize,
        n: u32,
        extra: Option<&Pruner<'_>>,
        st: &mut SearchState<'a, '_, '_>,
        mut per_row: impl FnMut(&Self, u32, &mut SearchState<'a, '_, '_>) -> Result<bool, DbError>,
    ) -> Result<bool, DbError> {
        let node_pruners: &[Pruner<'_>] = self
            .pruners
            .as_ref()
            .map(|p| p[node].as_slice())
            .unwrap_or(&[]);
        // An empty numeric hull (`lo > hi`) rejects every numeric cell
        // outright: skip the entire scan without consulting zone maps, so
        // single-block columns (which carry none) prune just as hard.
        if n > 0 && node_pruners.iter().any(Pruner::rejects_all) {
            let blocks = node_pruners
                .iter()
                .chain(extra)
                .find_map(|p| p.col.block_rows())
                .map(|bs| (n as usize).div_ceil(bs) as u64)
                .unwrap_or(1);
            st.stats.blocks_skipped += blocks;
            return Ok(true);
        }
        let block_rows = node_pruners
            .iter()
            .chain(extra)
            .find_map(|p| p.col.block_rows());
        let Some(bs) = block_rows else {
            // No per-block zones (unfrozen, or a single-block column that
            // skipped them): one whole-column summary test per pruner can
            // still prove the entire scan empty.
            if n > 0
                && node_pruners
                    .iter()
                    .chain(extra)
                    .any(|p| !p.admits_whole_column())
            {
                st.stats.blocks_skipped += 1;
                return Ok(true);
            }
            for row in 0..n {
                if !per_row(self, row, st)? {
                    return Ok(false);
                }
            }
            return Ok(true);
        };
        let bs = bs as u32;
        for start in (0..n).step_by(bs as usize) {
            let block = (start / bs) as usize;
            if node_pruners.iter().chain(extra).any(|p| !p.admits(block)) {
                st.stats.blocks_skipped += 1;
                continue;
            }
            for row in start..(start + bs).min(n) {
                if !per_row(self, row, st)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Test one candidate row of `node`: bound checks, local predicates
    /// (through the shared dictionary memos), then residual join checks,
    /// then recurse.
    /// `Ok(true)` means "keep searching" whether or not the row survived.
    fn try_row(
        &self,
        depth: usize,
        node: usize,
        table: &crate::table::Table,
        row: u32,
        st: &mut SearchState<'a, '_, '_>,
    ) -> Result<bool, DbError> {
        st.tick()?;
        st.stats.rows_examined += 1;
        st.node_rows[node] += 1;
        for b in self.bounds.iter().filter(|b| b.node as usize == node) {
            if !b.admits(table.column(b.col), row as usize) {
                return Ok(true);
            }
        }
        let syms = self.db.symbols();
        // Local predicates, on zero-copy cell views. Dictionary columns go
        // through the slot's verdict memo: one evaluation per distinct code
        // across every scan/probe path of this run.
        for &(col, slot) in &self.plan.local_preds[node] {
            let pred = self.preds[slot].expect("local_preds only lists Some preds");
            let column = table.column(col);
            let ok = match column.data() {
                ColumnData::Sym(codes) if st.memos[slot].eligible => {
                    let memo = &mut st.memos[slot];
                    if column.is_null(row as usize) {
                        *memo
                            .null_verdict
                            .get_or_insert_with(|| pred.matches(ValueRef::Null))
                    } else {
                        let code = codes[row as usize];
                        memo.check(code, || pred.matches(column.value_ref(syms, row as usize)))
                    }
                }
                _ => pred.matches(column.value_ref(syms, row as usize)),
            };
            if !ok {
                return Ok(true); // reject row, continue search
            }
        }
        self.advance(depth, node, row, st)
    }

    /// The post-predicate half of [`Search::try_row`]: record the
    /// assignment, enforce residual joins, recurse.
    fn advance(
        &self,
        depth: usize,
        node: usize,
        row: u32,
        st: &mut SearchState<'a, '_, '_>,
    ) -> Result<bool, DbError> {
        st.assignment[node] = row;
        // Residual (cycle-closing) join checks at this depth, on compact
        // keys in the pair's common space (NULL keys never match, matching
        // equi-join semantics).
        for (j, pair_space, _) in &self.plan.residual_at[depth] {
            let l = self
                .db
                .table(self.q.nodes[j.left_node])
                .column(j.left_col)
                .join_key_in(st.assignment[j.left_node] as usize, *pair_space);
            let r = self
                .db
                .table(self.q.nodes[j.right_node])
                .column(j.right_col)
                .join_key_in(st.assignment[j.right_node] as usize, *pair_space);
            match (l, r) {
                (Some(lk), Some(rk)) if lk == rk => {}
                _ => return Ok(true),
            }
        }
        self.run(depth + 1, st)
    }
}

enum CandidateRows<'a> {
    /// Scan all rows (start node).
    Scan(u32),
    /// Rows from a hash join index probe.
    List(&'a [u32]),
    /// No usable join index: scan comparing compact join keys (in the
    /// pair's common space) against the parent's.
    FilteredScan(u32, u32, u64, KeySpace),
}

/// One zone-map test applied per block of a scan.
struct Pruner<'t> {
    col: &'t Column,
    kind: PrunerKind,
}

enum PrunerKind {
    /// The block must possibly contain this compact join key.
    Key(u64, KeySpace),
    /// The block must possibly intersect this closed numeric interval.
    Range(f64, f64),
}

impl Pruner<'_> {
    #[inline]
    fn admits(&self, block: usize) -> bool {
        match self.kind {
            PrunerKind::Key(k, space) => self.col.block_may_contain_key(block, k, space),
            PrunerKind::Range(lo, hi) => self.col.block_may_overlap_range(block, lo, hi),
        }
    }

    /// True when no row anywhere can pass: an empty range hull. (Key
    /// pruners never reject unconditionally — key presence needs zones.)
    #[inline]
    fn rejects_all(&self) -> bool {
        matches!(self.kind, PrunerKind::Range(lo, hi) if lo > hi)
    }

    /// Test against the column's whole-column summary zone — the pruning
    /// level available when no per-block zone maps exist (single-block
    /// columns skip them).
    #[inline]
    fn admits_whole_column(&self) -> bool {
        match self.kind {
            PrunerKind::Key(k, space) => self.col.may_contain_key(k, space),
            PrunerKind::Range(lo, hi) => self.col.may_overlap_range(lo, hi),
        }
    }
}

/// Rows evaluated directly before a slot's memo bitmaps are allocated;
/// early-exit existence hits stay allocation-free. A reused scratch whose
/// bitmaps survived an earlier run skips the warmup — the allocation it
/// guards against already happened.
const MEMO_WARMUP: u32 = 32;

/// Prepare-time shape of one slot's dictionary memo: whether bitmaps pay
/// off on this column, and how many codes they must cover.
#[derive(Debug, Clone, Copy)]
struct MemoShape {
    eligible: bool,
    code_range: u32,
}

impl MemoShape {
    /// One shape per projection slot (ineligible for slots without a
    /// predicate or on non-dictionary columns). The query has already been
    /// validated, so slot/column indexing is in range.
    fn for_query(q: &PjQuery, db: &Database, preds: &[ProjPred<'_>]) -> Vec<MemoShape> {
        q.projection
            .iter()
            .enumerate()
            .map(|(slot, &(node, col))| {
                let mut m = MemoShape {
                    eligible: false,
                    code_range: 0,
                };
                if preds.get(slot).copied().flatten().is_none() {
                    return m;
                }
                let column = db.table(q.nodes[node]).column(col);
                if matches!(column.data(), ColumnData::Sym(_)) {
                    m.code_range = column.max_sym_code() + 1;
                    // Memoize only when the two bitmaps are small relative
                    // to the column; otherwise direct evaluation wins.
                    m.eligible = (m.code_range as usize).div_ceil(64) * 2 <= column.len();
                }
                m
            })
            .collect()
    }
}

/// Dictionary-code verdict memo of one projection slot for one query run.
/// A predicate is a pure function of the cell and equal cells share a code,
/// so the verdict is computed once per distinct code — no matter which scan
/// or probe path encounters the row. Lives in [`ExecScratch`]; `reset`
/// clears the verdicts (predicates differ between runs) but keeps the
/// bitmap allocations.
#[derive(Debug)]
struct SlotMemo {
    /// Slot predicate sits on a dictionary column whose code range is small
    /// enough for the bitmaps to pay off.
    eligible: bool,
    /// Bitmap size when allocated: the column's own code range, not the
    /// whole dictionary, so sparse columns in huge databases stay cheap.
    code_range: usize,
    evals: u32,
    null_verdict: Option<bool>,
    memo: Option<PredMemo>,
}

impl SlotMemo {
    fn fresh(shape: MemoShape) -> SlotMemo {
        SlotMemo {
            eligible: shape.eligible,
            code_range: shape.code_range as usize,
            evals: 0,
            null_verdict: None,
            memo: None,
        }
    }

    /// Clear for a new run of a (possibly different) prepared query:
    /// verdicts go, bitmap capacity stays.
    fn reset(&mut self, shape: MemoShape) {
        self.eligible = shape.eligible;
        self.code_range = shape.code_range as usize;
        self.evals = 0;
        self.null_verdict = None;
        if !shape.eligible {
            // Don't hold bitmaps for a slot that will never use them; the
            // next eligible slot would resize anyway.
            self.memo = None;
        } else if let Some(m) = &mut self.memo {
            m.reset(self.code_range);
        }
    }

    /// The predicate's verdict for `code`, evaluating at most once per code.
    /// The first [`MEMO_WARMUP`] calls evaluate directly so short-lived runs
    /// never allocate the bitmaps.
    #[inline]
    fn check(&mut self, code: u32, eval: impl FnOnce() -> bool) -> bool {
        if let Some(memo) = &mut self.memo {
            return memo.check(code, eval);
        }
        self.evals += 1;
        if self.evals <= MEMO_WARMUP {
            return eval();
        }
        self.memo
            .insert(PredMemo::new(self.code_range))
            .check(code, eval)
    }
}

/// Per-symbol predicate verdict cache: one bit records whether a code has
/// been evaluated, one bit the verdict.
#[derive(Debug)]
struct PredMemo {
    evaluated: Vec<u64>,
    verdict: Vec<u64>,
}

impl PredMemo {
    fn new(code_range: usize) -> PredMemo {
        let words = code_range.div_ceil(64);
        PredMemo {
            evaluated: vec![0; words],
            verdict: vec![0; words],
        }
    }

    /// Zero the evaluated bits (stale verdict bits are gated by them) and
    /// resize to a new code range, keeping capacity where possible.
    fn reset(&mut self, code_range: usize) {
        let words = code_range.div_ceil(64);
        self.evaluated.clear();
        self.evaluated.resize(words, 0);
        self.verdict.resize(words, 0);
    }

    /// The predicate's verdict for `code`, running `eval` only on the first
    /// encounter of that code.
    #[inline]
    fn check(&mut self, code: u32, eval: impl FnOnce() -> bool) -> bool {
        let (w, b) = ((code / 64) as usize, code % 64);
        if self.evaluated[w] >> b & 1 == 1 {
            return self.verdict[w] >> b & 1 == 1;
        }
        let r = eval();
        self.evaluated[w] |= 1 << b;
        if r {
            self.verdict[w] |= 1 << b;
        } else {
            self.verdict[w] &= !(1 << b);
        }
        r
    }
}

/// Entries one run's nogood memo may hold. The largest set a seed-1
/// perfbench run builds holds 1,290. Past the cap a run stops recording, so
/// the memo's memory and its worst-case probe cost stay bounded.
const NOGOOD_CAP: usize = 1 << 14;

/// A failed sub-search: `(depth, key, key)`, the second key 0 for
/// one-key separators (a depth's separator width is fixed for the run).
type NogoodKey = (u32, u64, u64);

/// The failed sub-searches of one run. Lives in [`ExecScratch`] and is
/// cleared per run, like the [`SlotMemo`] verdicts. Keyed with the
/// unkeyed [`MulRotHasher`](crate::hash::MulRotHasher), although join keys
/// come from user data: [`NOGOOD_CAP`] bounds what a crafted colliding key
/// set can cost, and the set lives for one run.
type NogoodSet = crate::hash::MulRotSet<NogoodKey>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{tests::lakes_db, DatabaseBuilder};
    use crate::schema::{ColumnDef, TableId};
    use crate::types::DataType;

    /// `SELECT geo_lake.Province, Lake.Name, Lake.Area FROM Lake, geo_lake
    ///  WHERE Lake.Name = geo_lake.Lake` — the paper's desired query.
    fn lakes_query() -> PjQuery {
        PjQuery {
            nodes: vec![TableId(0), TableId(1)], // Lake, geo_lake
            joins: vec![JoinCond {
                left_node: 1,
                left_col: 0, // geo_lake.Lake
                right_node: 0,
                right_col: 0, // Lake.Name
            }],
            projection: vec![(1, 1), (0, 0), (0, 1)], // Province, Name, Area
        }
    }

    #[test]
    fn execute_produces_join_result() {
        let db = lakes_db();
        let rows = lakes_query().execute(&db, 100).unwrap();
        assert_eq!(rows.len(), 4); // Dead Lake has no geo row
        assert!(rows.contains(&vec![
            "California".into(),
            "Lake Tahoe".into(),
            Value::Decimal(497.0)
        ]));
        assert!(rows.contains(&vec![
            "Nevada".into(),
            "Lake Tahoe".into(),
            Value::Decimal(497.0)
        ]));
    }

    #[test]
    fn execute_respects_limit() {
        let db = lakes_db();
        let rows = lakes_query().execute(&db, 2).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn exists_matching_finds_sample() {
        let db = lakes_db();
        let q = lakes_query();
        let is_cal = |v: ValueRef<'_>| v == ValueRef::Text("California");
        let is_tahoe = |v: ValueRef<'_>| v == ValueRef::Text("Lake Tahoe");
        let mut stats = ExecStats::default();
        let found = q
            .exists_matching(
                &db,
                &[
                    Some(ScanPred::new(&is_cal)),
                    Some(ScanPred::new(&is_tahoe)),
                    None,
                ],
                &mut stats,
            )
            .unwrap();
        assert!(found);
        assert!(stats.rows_emitted >= 1);
    }

    #[test]
    fn exists_matching_rejects_impossible_sample() {
        let db = lakes_db();
        let q = lakes_query();
        // Crater Lake is in Oregon, not California.
        let is_cal = |v: ValueRef<'_>| v == ValueRef::Text("California");
        let is_crater = |v: ValueRef<'_>| v == ValueRef::Text("Crater Lake");
        let mut stats = ExecStats::default();
        let found = q
            .exists_matching(
                &db,
                &[
                    Some(ScanPred::new(&is_cal)),
                    Some(ScanPred::new(&is_crater)),
                    None,
                ],
                &mut stats,
            )
            .unwrap();
        assert!(!found);
    }

    #[test]
    fn exists_early_exit_examines_fewer_rows_than_full_eval() {
        let db = lakes_db();
        let q = lakes_query();
        let mut full = ExecStats::default();
        q.count_matching(&db, &[], u64::MAX, &mut full).unwrap();
        let mut early = ExecStats::default();
        let t = |_: ValueRef<'_>| true;
        let p = || Some(ScanPred::new(&t));
        assert!(q
            .exists_matching(&db, &[p(), p(), p()], &mut early)
            .unwrap());
        assert!(early.rows_emitted == 1);
        assert!(early.rows_examined <= full.rows_examined);
    }

    /// Tentpole: a prepared query runs any number of times against one
    /// (dirty) scratch and returns exactly the rows of the per-call
    /// wrapper, with reuses counted.
    #[test]
    fn prepared_query_reuses_scratch_and_matches_wrapper() {
        let db = lakes_db();
        let q = lakes_query();
        let any_prov = |v: ValueRef<'_>| !v.is_null();
        let is_tahoe = |v: ValueRef<'_>| v == ValueRef::Text("Lake Tahoe");
        let preds = [
            Some(ScanPred::new(&any_prov)),
            Some(ScanPred::new(&is_tahoe)),
            None,
        ];
        let prepared = q.prepare(&db, &preds).unwrap();
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        for round in 0..3 {
            let mut got: Vec<Vec<Value>> = Vec::new();
            prepared
                .for_each_row(&db, &preds, &mut scratch, &mut stats, &mut |r| {
                    got.push(r.iter().map(|v| v.to_value()).collect());
                    true
                })
                .unwrap();
            let mut want: Vec<Vec<Value>> = Vec::new();
            let mut wrapper_stats = ExecStats::default();
            q.for_each_row(&db, &preds, &mut wrapper_stats, &mut |r| {
                want.push(r.iter().map(|v| v.to_value()).collect());
                true
            })
            .unwrap();
            assert_eq!(got, want, "round {round}");
            assert_eq!(wrapper_stats.plans_built, 1, "wrapper compiles per call");
        }
        assert_eq!(stats.scratch_reuses, 2, "runs 2 and 3 reused the scratch");
        assert_eq!(stats.plans_built, 0, "prepared runs compile nothing");
    }

    /// Reused verdict bitmaps must not leak verdicts between runs: the
    /// same prepared query executed with an *inverted* predicate (same
    /// shape) flips every answer. The table is large enough that the
    /// bitmaps are really allocated (past the warmup) on the first run.
    #[test]
    fn scratch_reuse_does_not_leak_verdicts_across_runs() {
        let mut b = DatabaseBuilder::new("leak");
        b.add_table("T", vec![ColumnDef::new("tag", DataType::Text).not_null()])
            .unwrap();
        for i in 0..200 {
            let tag = if i % 2 == 0 { "even" } else { "odd" };
            b.add_row("T", vec![tag.into()]).unwrap();
        }
        let db = b.build();
        let q = PjQuery {
            nodes: vec![db.catalog().table_id("T").unwrap()],
            joins: vec![],
            projection: vec![(0, 0)],
        };
        let is_even = |v: ValueRef<'_>| v == ValueRef::Text("even");
        let is_odd = |v: ValueRef<'_>| v == ValueRef::Text("odd");
        let prepared = q.prepare(&db, &[Some(ScanPred::new(&is_even))]).unwrap();
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        let n_even = prepared
            .count_matching(
                &db,
                &[Some(ScanPred::new(&is_even))],
                u64::MAX,
                &mut scratch,
                &mut stats,
            )
            .unwrap();
        let n_odd = prepared
            .count_matching(
                &db,
                &[Some(ScanPred::new(&is_odd))],
                u64::MAX,
                &mut scratch,
                &mut stats,
            )
            .unwrap();
        assert_eq!(n_even, 100);
        assert_eq!(n_odd, 100, "stale verdicts leaked through the scratch");
        assert_eq!(stats.scratch_reuses, 1);
    }

    /// A three-table chain `A.k = B.k`, `B.c = C.c`: A's 200 rows all carry
    /// the hub key 1, B holds 50 hub rows with distinct `c`, and C holds 8
    /// rows per `c` tagged `t0`..`t6`. A is the smaller predicated table,
    /// so `Fixed` planning visits A, B, C.
    fn hub_chain_db() -> Database {
        let mut b = DatabaseBuilder::new("hub_chain");
        b.add_table("A", vec![ColumnDef::new("k", DataType::Int)])
            .unwrap();
        b.add_table(
            "B",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("c", DataType::Int),
            ],
        )
        .unwrap();
        b.add_table(
            "C",
            vec![
                ColumnDef::new("c", DataType::Int),
                ColumnDef::new("tag", DataType::Text),
            ],
        )
        .unwrap();
        for _ in 0..200 {
            b.add_row("A", vec![Value::Int(1)]).unwrap();
        }
        for c in 0..50i64 {
            b.add_row("B", vec![Value::Int(1), Value::Int(c)]).unwrap();
        }
        for i in 0..400i64 {
            b.add_row("C", vec![Value::Int(i % 50), format!("t{}", i % 7).into()])
                .unwrap();
        }
        b.add_foreign_key("B", "k", "A", "k").unwrap();
        b.add_foreign_key("B", "c", "C", "c").unwrap();
        b.build()
    }

    fn hub_chain_query(db: &Database) -> PjQuery {
        let id = |t: &str| db.catalog().table_id(t).unwrap();
        PjQuery {
            nodes: vec![id("A"), id("B"), id("C")],
            joins: vec![
                JoinCond {
                    left_node: 0,
                    left_col: 0,
                    right_node: 1,
                    right_col: 0,
                },
                JoinCond {
                    left_node: 1,
                    left_col: 1,
                    right_node: 2,
                    right_col: 0,
                },
            ],
            projection: vec![(0, 0), (2, 1)], // A.k, C.tag
        }
    }

    /// The nogood memo must not leak across runs: one prepared query on one
    /// scratch first runs with a tag no C row carries, so every deep
    /// sub-search fails and is recorded, then with a tag that matches. The
    /// second run must find all its rows.
    #[test]
    fn scratch_reuse_does_not_leak_nogoods_across_runs() {
        let db = hub_chain_db();
        let q = hub_chain_query(&db);
        let any = |_: ValueRef<'_>| true;
        let absent = |v: ValueRef<'_>| v == ValueRef::Text("absent");
        let is_t3 = |v: ValueRef<'_>| v == ValueRef::Text("t3");
        let failing = [Some(ScanPred::new(&any)), Some(ScanPred::new(&absent))];
        let matching = [Some(ScanPred::new(&any)), Some(ScanPred::new(&is_t3))];
        let prepared = q.prepare_with(&db, &failing, JoinOrder::Fixed).unwrap();
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        let n = prepared
            .count_matching(&db, &failing, u64::MAX, &mut scratch, &mut stats)
            .unwrap();
        assert_eq!(n, 0);
        assert!(stats.nogood_hits > 0, "the failing run must record nogoods");
        let n = prepared
            .count_matching(&db, &matching, u64::MAX, &mut scratch, &mut stats)
            .unwrap();
        // 57 of C's 400 rows carry t3; each joins every A row through B.
        assert_eq!(n, 200 * 57, "stale nogoods leaked through the scratch");
        assert_eq!(stats.scratch_reuses, 1);
    }

    /// Linear bound: every A row carries the hub key and C's predicate
    /// rejects every row, so each A row's sub-search fails the same way.
    /// Plain backtracking repeats it per A row (about |A|·(|B|+|C|) rows);
    /// with the memo each table is read at most once.
    #[test]
    fn nogood_memo_reads_each_table_once_on_a_failing_hub_chain() {
        let db = hub_chain_db();
        let q = hub_chain_query(&db);
        let any = |_: ValueRef<'_>| true;
        let absent = |v: ValueRef<'_>| v == ValueRef::Text("absent");
        let preds = [Some(ScanPred::new(&any)), Some(ScanPred::new(&absent))];
        let prepared = q.prepare_with(&db, &preds, JoinOrder::Fixed).unwrap();
        let mut stats = ExecStats::default();
        let found = prepared
            .exists_matching(&db, &preds, &mut ExecScratch::new(), &mut stats)
            .unwrap();
        assert!(!found);
        let table_rows: u64 = q.nodes.iter().map(|&t| db.row_count(t) as u64).sum();
        assert!(
            stats.rows_examined <= table_rows,
            "{} rows examined over {} table rows",
            stats.rows_examined,
            table_rows
        );
        assert!(stats.nogood_hits > 0);
    }

    /// The plan bakes in which slots carry predicates; running with a
    /// different shape must be rejected, not silently mis-planned.
    #[test]
    fn prepared_query_rejects_mismatched_predicate_shape() {
        let db = lakes_db();
        let q = lakes_query();
        let t = |_: ValueRef<'_>| true;
        let prepared = q
            .prepare(&db, &[Some(ScanPred::new(&t)), None, None])
            .unwrap();
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        // Same arity, different slot: rejected.
        let err = prepared.exists_matching(
            &db,
            &[None, Some(ScanPred::new(&t)), None],
            &mut scratch,
            &mut stats,
        );
        assert!(matches!(err, Err(DbError::InvalidQuery(_))));
        // No predicates at all against a predicated plan: rejected.
        let err = prepared.exists_matching(&db, &[], &mut scratch, &mut stats);
        assert!(matches!(err, Err(DbError::InvalidQuery(_))));
        // The prepared shape itself still runs (with fresh closures).
        let t2 = |_: ValueRef<'_>| true;
        assert!(prepared
            .exists_matching(
                &db,
                &[Some(ScanPred::new(&t2)), None, None],
                &mut scratch,
                &mut stats
            )
            .unwrap());
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut b = DatabaseBuilder::new("nulls");
        b.add_table("A", vec![ColumnDef::new("k", DataType::Text)])
            .unwrap();
        b.add_table("B", vec![ColumnDef::new("k", DataType::Text)])
            .unwrap();
        b.add_rows("A", vec![vec![Value::Null], vec!["x".into()]])
            .unwrap();
        b.add_rows("B", vec![vec![Value::Null], vec!["y".into()]])
            .unwrap();
        b.add_foreign_key("A", "k", "B", "k").unwrap();
        let db = b.build();
        let q = PjQuery {
            nodes: vec![TableId(0), TableId(1)],
            joins: vec![JoinCond {
                left_node: 0,
                left_col: 0,
                right_node: 1,
                right_col: 0,
            }],
            projection: vec![(0, 0)],
        };
        assert_eq!(q.execute(&db, 10).unwrap().len(), 0);
    }

    /// An ad-hoc Int↔Int join where one side's FK component was demoted to
    /// the f64 space (by a Decimal partner elsewhere) must still compare
    /// exactly: both declared types are Int, so the pair keys on raw i64
    /// bits via a filtered scan instead of probing the f64-keyed index.
    #[test]
    fn cross_component_int_join_stays_exact_beyond_f64_precision() {
        use crate::types::KeySpace;
        let mut b = DatabaseBuilder::new("xcomp");
        b.add_table("P", vec![ColumnDef::new("id", DataType::Int).not_null()])
            .unwrap();
        b.add_table("D", vec![ColumnDef::new("x", DataType::Decimal).not_null()])
            .unwrap();
        b.add_table("Q", vec![ColumnDef::new("p", DataType::Int).not_null()])
            .unwrap();
        // P.id ↔ D.x demotes P.id to the f64 space; Q.p (no FK) stays Int.
        b.add_foreign_key("P", "id", "D", "x").unwrap();
        b.add_rows(
            "P",
            vec![vec![Value::Int(i64::MAX)], vec![Value::Int(i64::MAX - 1)]],
        )
        .unwrap();
        b.add_row("D", vec![Value::Decimal(1.0)]).unwrap();
        b.add_row("Q", vec![Value::Int(i64::MAX - 1)]).unwrap();
        let db = b.build();
        let p_id = db.catalog().column_ref("P", "id").unwrap();
        let q_p = db.catalog().column_ref("Q", "p").unwrap();
        assert_eq!(db.key_space(p_id), KeySpace::F64);
        assert_eq!(db.key_space(q_p), KeySpace::Int);
        // Ad-hoc join Q.p = P.id: under f64 keys both P rows would match.
        let q = PjQuery {
            nodes: vec![
                db.catalog().table_id("Q").unwrap(),
                db.catalog().table_id("P").unwrap(),
            ],
            joins: vec![JoinCond {
                left_node: 0,
                left_col: 0,
                right_node: 1,
                right_col: 0,
            }],
            projection: vec![(1, 0)],
        };
        let rows = q.execute(&db, 10).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(i64::MAX - 1)]]);
    }

    #[test]
    fn single_node_query_scans() {
        let db = lakes_db();
        let q = PjQuery {
            nodes: vec![TableId(0)],
            joins: vec![],
            projection: vec![(0, 0)],
        };
        let rows = q.execute(&db, 100).unwrap();
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn cross_kind_join_condition_rejected() {
        // Text and Decimal columns share the compact-key space only within
        // their own kind, so a join condition between them must be rejected
        // (previously it compared Values and simply never matched).
        let db = lakes_db();
        let q = PjQuery {
            nodes: vec![TableId(0), TableId(1)],
            joins: vec![JoinCond {
                left_node: 0,
                left_col: 1, // Lake.Area (decimal)
                right_node: 1,
                right_col: 1, // geo_lake.Province (text)
            }],
            projection: vec![(0, 0)],
        };
        assert!(matches!(q.validate(&db), Err(DbError::InvalidQuery(_))));
    }

    #[test]
    fn disconnected_query_rejected() {
        let db = lakes_db();
        let q = PjQuery {
            nodes: vec![TableId(0), TableId(1)],
            joins: vec![],
            projection: vec![(0, 0)],
        };
        assert!(matches!(q.validate(&db), Err(DbError::InvalidQuery(_))));
        assert!(q.prepare(&db, &[]).is_err(), "prepare validates");
    }

    #[test]
    fn out_of_range_projection_rejected() {
        let db = lakes_db();
        let q = PjQuery {
            nodes: vec![TableId(0)],
            joins: vec![],
            projection: vec![(0, 9)],
        };
        assert!(q.validate(&db).is_err());
    }

    #[test]
    fn wrong_pred_arity_rejected() {
        let db = lakes_db();
        let q = lakes_query();
        let t = |_: ValueRef<'_>| true;
        let mut stats = ExecStats::default();
        let err = q.exists_matching(&db, &[Some(ScanPred::new(&t))], &mut stats);
        assert!(err.is_err());
    }

    #[test]
    fn cyclic_query_residual_joins_enforced() {
        // A(k1,k2) joins B twice: once via spanning link, once residual.
        let mut b = DatabaseBuilder::new("cyc");
        b.add_table(
            "A",
            vec![
                ColumnDef::new("k1", DataType::Int),
                ColumnDef::new("k2", DataType::Int),
            ],
        )
        .unwrap();
        b.add_table(
            "B",
            vec![
                ColumnDef::new("k1", DataType::Int),
                ColumnDef::new("k2", DataType::Int),
            ],
        )
        .unwrap();
        b.add_rows(
            "A",
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        )
        .unwrap();
        b.add_rows(
            "B",
            vec![
                vec![Value::Int(1), Value::Int(10)], // matches row 0 on both
                vec![Value::Int(2), Value::Int(99)], // matches row 1 on k1 only
            ],
        )
        .unwrap();
        b.add_foreign_key("A", "k1", "B", "k1").unwrap();
        b.add_foreign_key("A", "k2", "B", "k2").unwrap();
        let db = b.build();
        let q = PjQuery {
            nodes: vec![TableId(0), TableId(1)],
            joins: vec![
                JoinCond {
                    left_node: 0,
                    left_col: 0,
                    right_node: 1,
                    right_col: 0,
                },
                JoinCond {
                    left_node: 0,
                    left_col: 1,
                    right_node: 1,
                    right_col: 1,
                },
            ],
            projection: vec![(0, 0)],
        };
        let rows = q.execute(&db, 10).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn exec_stats_accumulate() {
        let mut a = ExecStats {
            rows_examined: 1,
            index_probes: 2,
            rows_emitted: 3,
            blocks_skipped: 4,
            plans_built: 5,
            scratch_reuses: 6,
            nodes_reordered: 7,
            plan_recompiles: 8,
            rows_estimated: 9,
            nogood_hits: 10,
            bound_refuted_runs: 11,
            bound_checked_runs: 12,
        };
        let b = ExecStats {
            rows_examined: 10,
            index_probes: 20,
            rows_emitted: 30,
            blocks_skipped: 40,
            plans_built: 50,
            scratch_reuses: 60,
            nodes_reordered: 70,
            plan_recompiles: 80,
            rows_estimated: 90,
            nogood_hits: 100,
            bound_refuted_runs: 110,
            bound_checked_runs: 120,
        };
        a.merge(&b);
        assert_eq!(a.rows_examined, 11);
        assert_eq!(a.index_probes, 22);
        assert_eq!(a.rows_emitted, 33);
        assert_eq!(a.blocks_skipped, 44);
        assert_eq!(a.plans_built, 55);
        assert_eq!(a.scratch_reuses, 66);
        assert_eq!(a.nodes_reordered, 77);
        assert_eq!(a.plan_recompiles, 88);
        assert_eq!(a.rows_estimated, 99);
        assert_eq!(a.nogood_hits, 110);
        assert_eq!(a.bound_refuted_runs, 121);
        assert_eq!(a.bound_checked_runs, 132);
        assert_eq!(a.fanout_ratio(), Some(11.0 / 99.0));
        assert_eq!(ExecStats::default().fanout_ratio(), None);
    }

    /// A Zipf-style hub: `Tag` 1 owns half of `Item`. Declaration-order
    /// planning starts at the small predicated `Tag` table and probes
    /// straight into the hub's 2500-row posting run; the cost-based planner
    /// sees the hull on `Item.score` and the skewed `max_run` and flips the
    /// order. Both must enumerate identical rows.
    fn hub_db() -> Database {
        let mut b = DatabaseBuilder::new("hub").with_block_rows(64);
        b.add_table(
            "Tag",
            vec![
                ColumnDef::new("name", DataType::Text),
                ColumnDef::new("id", DataType::Int),
            ],
        )
        .unwrap();
        b.add_table(
            "Item",
            vec![
                ColumnDef::new("tag", DataType::Int),
                ColumnDef::new("score", DataType::Int),
            ],
        )
        .unwrap();
        for k in 1..=100i64 {
            b.add_row("Tag", vec![format!("t{k}").into(), Value::Int(k)])
                .unwrap();
        }
        for i in 0..5000i64 {
            let tag = if i < 2500 { 1 } else { 2 + (i % 99) };
            b.add_row("Item", vec![Value::Int(tag), Value::Int(i)])
                .unwrap();
        }
        b.add_foreign_key("Item", "tag", "Tag", "id").unwrap();
        b.build()
    }

    fn hub_query(db: &Database) -> PjQuery {
        PjQuery {
            nodes: vec![
                db.catalog().table_id("Tag").unwrap(),
                db.catalog().table_id("Item").unwrap(),
            ],
            joins: vec![JoinCond {
                left_node: 0,
                left_col: 1, // Tag.id
                right_node: 1,
                right_col: 0, // Item.tag
            }],
            projection: vec![(0, 0), (1, 1)], // Tag.name, Item.score
        }
    }

    #[test]
    fn cost_order_resists_hub_skew_and_stays_row_identical() {
        let db = hub_db();
        let q = hub_query(&db);
        let is_t1 = |v: ValueRef<'_>| v == ValueRef::Text("t1");
        let in_range =
            |v: ValueRef<'_>| v.as_number().is_some_and(|x| (100.0..=120.0).contains(&x));
        let preds = [
            Some(ScanPred::new(&is_t1)),
            Some(ScanPred::new(&in_range).with_range(100.0, 120.0)),
        ];
        let collect = |mode: JoinOrder| {
            let prepared = q.prepare_with(&db, &preds, mode).unwrap();
            let mut scratch = ExecScratch::new();
            let mut stats = ExecStats::default();
            let mut rows: Vec<Vec<Value>> = Vec::new();
            prepared
                .for_each_row(&db, &preds, &mut scratch, &mut stats, &mut |r| {
                    rows.push(r.iter().map(|v| v.to_value()).collect());
                    true
                })
                .unwrap();
            rows.sort();
            (rows, stats, prepared.nodes_reordered())
        };
        let (fixed_rows, fixed_stats, fixed_moved) = collect(JoinOrder::Fixed);
        let (cost_rows, cost_stats, cost_moved) = collect(JoinOrder::Cost);
        assert_eq!(fixed_rows, cost_rows, "plans must be row-identical");
        assert_eq!(fixed_rows.len(), 21, "scores 100..=120 all live in the hub");
        assert_eq!(fixed_moved, 0, "fixed mode never reorders");
        assert!(cost_moved > 0, "cost mode flips the hub probe");
        assert!(
            cost_stats.rows_examined * 5 <= fixed_stats.rows_examined,
            "cost order should dodge the hub: {} vs {}",
            cost_stats.rows_examined,
            fixed_stats.rows_examined
        );
        assert!(cost_stats.rows_estimated > 0);
    }

    /// `Tag.id = Item.tag` is one key class. Disjoint ranges on its two
    /// columns refute the run before any scan. A range on `Item.tag` alone
    /// bounds `Tag.id` too: the plan starts at `Tag`, where zone maps on the
    /// sorted ids skip a block, and checks the bound there. Rows stay those
    /// of the same predicate without its hull, which bounds nothing.
    #[test]
    fn class_bounds_refute_runs_and_bound_the_equated_column() {
        let db = hub_db();
        let q = PjQuery {
            projection: vec![(0, 1), (1, 0)], // Tag.id, Item.tag
            ..hub_query(&db)
        };
        let within = |lo: f64, hi: f64| {
            move |v: ValueRef<'_>| v.as_number().is_some_and(|x| lo <= x && x <= hi)
        };
        let (ids, tags, hub) = (within(200.0, 300.0), within(40.0, 45.0), within(1.0, 1.0));
        let mut refuted = ExecStats::default();
        let n = q
            .count_matching(
                &db,
                &[
                    Some(ScanPred::new(&ids).with_range(200.0, 300.0)),
                    Some(ScanPred::new(&tags).with_range(40.0, 45.0)),
                ],
                u64::MAX,
                &mut refuted,
            )
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(refuted.bound_refuted_runs, 1);
        assert_eq!(refuted.rows_examined, 0, "refuted before any scan");
        let collect = |tag_pred: ScanPred<'_>| {
            let mut stats = ExecStats::default();
            let mut rows: Vec<Vec<Value>> = Vec::new();
            q.for_each_row(&db, &[None, Some(tag_pred)], &mut stats, &mut |r| {
                rows.push(r.iter().map(|v| v.to_value()).collect());
                true
            })
            .unwrap();
            rows.sort();
            (rows, stats)
        };
        let (bounded, with_hull) = collect(ScanPred::new(&hub).with_range(1.0, 1.0));
        let (plain, without_hull) = collect(ScanPred::new(&hub));
        assert_eq!(bounded, plain);
        assert_eq!(bounded.len(), 2500, "the hub tag's items");
        assert_eq!(with_hull.bound_checked_runs, 1);
        assert_eq!(without_hull.bound_checked_runs, 0);
        assert_eq!(
            with_hull.blocks_skipped, 1,
            "Tag.id's zone maps skip a block"
        );
        assert!(with_hull.rows_examined < without_hull.rows_examined);
    }

    /// Hub-concentrated parent keys make every probe hit the longest
    /// posting run, so observed rows-examined diverges ~16x from the
    /// blended estimate. After [`GUARD_MIN_RUNS`] runs the guard recompiles
    /// exactly once here (through the shared prepared query, so every later
    /// run uses the replacement plan) and enumeration stays identical: the
    /// recompile re-arms the guard with a doubled 16-run window, and the
    /// two post-recompile runs fall well short of it.
    #[test]
    fn adaptive_guard_recompiles_once_on_divergence() {
        let mut b = DatabaseBuilder::new("diverge");
        b.add_table("A", vec![ColumnDef::new("fk", DataType::Int)])
            .unwrap();
        b.add_table("B", vec![ColumnDef::new("t", DataType::Int)])
            .unwrap();
        for _ in 0..10 {
            b.add_row("A", vec![Value::Int(1)]).unwrap();
        }
        for _ in 0..2000 {
            b.add_row("B", vec![Value::Int(1)]).unwrap();
        }
        for k in 2..302i64 {
            b.add_row("B", vec![Value::Int(k)]).unwrap();
        }
        b.add_foreign_key("A", "fk", "B", "t").unwrap();
        let db = b.build();
        let q = PjQuery {
            nodes: vec![
                db.catalog().table_id("A").unwrap(),
                db.catalog().table_id("B").unwrap(),
            ],
            joins: vec![JoinCond {
                left_node: 0,
                left_col: 0,
                right_node: 1,
                right_col: 0,
            }],
            projection: vec![(0, 0)],
        };
        let prepared = q.prepare_with(&db, &[], JoinOrder::Cost).unwrap();
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        for run in 0..GUARD_MIN_RUNS + 2 {
            let count = prepared
                .count_matching(&db, &[], u64::MAX, &mut scratch, &mut stats)
                .unwrap();
            assert_eq!(count, 10 * 2000, "run {run} must enumerate every match");
        }
        assert_eq!(
            stats.plan_recompiles, 1,
            "guard recompiles exactly once despite further divergent runs"
        );
        // The observed ratio that tripped the guard is visible to callers.
        assert!(stats.fanout_ratio().unwrap() > FANOUT_DIVERGENCE);
    }

    /// The re-armed guard doubles its run threshold each generation
    /// (8, 16, 32) and never recompiles more than [`MAX_RECOMPILES`]
    /// times. Repeat divergence does occur naturally: plans are shared per
    /// query class, and each task runs them with new predicate values, so
    /// a corrected plan can diverge again (a traced `perfbench` run at
    /// seed 1 counts 3 generation-1 recompiles on `paper_mix` and 11 on
    /// `skewed_join`). Staging that takes a stream of tasks, not one
    /// fixture query, so this test drives the guard's counter windows
    /// directly and checks the state machine.
    #[test]
    fn rearmed_guard_doubles_thresholds_and_caps_recompiles() {
        let mut b = DatabaseBuilder::new("rearm");
        b.add_table("A", vec![ColumnDef::new("fk", DataType::Int)])
            .unwrap();
        b.add_table("B", vec![ColumnDef::new("t", DataType::Int)])
            .unwrap();
        for k in 0..16i64 {
            b.add_row("A", vec![Value::Int(k % 4)]).unwrap();
            b.add_row("B", vec![Value::Int(k)]).unwrap();
        }
        b.add_foreign_key("A", "fk", "B", "t").unwrap();
        let db = b.build();
        let q = PjQuery {
            nodes: vec![
                db.catalog().table_id("A").unwrap(),
                db.catalog().table_id("B").unwrap(),
            ],
            joins: vec![JoinCond {
                left_node: 0,
                left_col: 0,
                right_node: 1,
                right_col: 0,
            }],
            projection: vec![(0, 0)],
        };
        let prepared = q.prepare_with(&db, &[], JoinOrder::Cost).unwrap();
        let mut stats = ExecStats::default();
        // Stage a divergent window of `runs` observations (a huge average
        // keeps every generation past the 4x bar; node counters stay 0 so
        // multipliers clamp to 1 and each replan's estimate stays small),
        // then consult the guard the way every execution path does.
        let window = |runs: u64, stats: &mut ExecStats| {
            use std::sync::atomic::Ordering::Relaxed;
            prepared.guard.runs.store(runs, Relaxed);
            prepared
                .guard
                .rows
                .store(runs.saturating_mul(1_000_000_000), Relaxed);
            let _ = prepared.active_plan(&db, &[], stats);
        };
        // Generation 0 trips at the base threshold.
        window(GUARD_MIN_RUNS, &mut stats);
        assert_eq!(stats.plan_recompiles, 1, "base window arms the guard");
        // Generation 1 needs a doubled window: 8 divergent runs no longer
        // suffice, 16 do.
        window(GUARD_MIN_RUNS, &mut stats);
        assert_eq!(stats.plan_recompiles, 1, "8 runs are below the doubled bar");
        window(GUARD_MIN_RUNS * 2, &mut stats);
        assert_eq!(stats.plan_recompiles, 2, "16 runs re-trip the guard");
        // Generation 2 doubles again to 32.
        window(GUARD_MIN_RUNS * 2, &mut stats);
        assert_eq!(
            stats.plan_recompiles, 2,
            "16 runs are below the tripled bar"
        );
        window(GUARD_MIN_RUNS * 4, &mut stats);
        assert_eq!(
            stats.plan_recompiles, 3,
            "32 runs exhaust the recompile cap"
        );
        // However divergent later windows get, there is no fourth recompile.
        window(GUARD_MIN_RUNS * 64, &mut stats);
        window(u64::MAX / 1_000_000_000, &mut stats);
        assert_eq!(
            stats.plan_recompiles, 3,
            "the guard is disarmed after MAX_RECOMPILES generations"
        );
        assert!(prepared.guard.replans.iter().all(|s| s.get().is_some()));
    }

    /// A selective range predicate with a hull hint skips whole blocks via
    /// zone maps, and the pruned scan returns exactly the unpruned rows.
    #[test]
    fn range_hint_prunes_blocks_without_changing_results() {
        let mut b = DatabaseBuilder::new("zones").with_block_rows(16);
        b.add_table("T", vec![ColumnDef::new("x", DataType::Int)])
            .unwrap();
        for i in 0..256 {
            b.add_row("T", vec![Value::Int(i)]).unwrap();
        }
        let db = b.build();
        let q = PjQuery {
            nodes: vec![db.catalog().table_id("T").unwrap()],
            joins: vec![],
            projection: vec![(0, 0)],
        };
        let in_range =
            |v: ValueRef<'_>| v.as_number().is_some_and(|x| (100.0..=110.0).contains(&x));
        let mut hinted = ExecStats::default();
        let got = {
            let mut rows = Vec::new();
            q.for_each_row(
                &db,
                &[Some(ScanPred::new(&in_range).with_range(100.0, 110.0))],
                &mut hinted,
                &mut |r| {
                    rows.push(r[0].to_value());
                    true
                },
            )
            .unwrap();
            rows
        };
        let mut unhinted = ExecStats::default();
        let want = {
            let mut rows = Vec::new();
            q.for_each_row(
                &db,
                &[Some(ScanPred::new(&in_range))],
                &mut unhinted,
                &mut |r| {
                    rows.push(r[0].to_value());
                    true
                },
            )
            .unwrap();
            rows
        };
        assert_eq!(got, want);
        assert_eq!(got.len(), 11);
        // 256 rows / 16 = 16 blocks; the hull [100, 110] sits entirely in
        // block 6 (rows 96..112), so the other 15 are skipped.
        assert_eq!(hinted.blocks_skipped, 15);
        assert_eq!(unhinted.blocks_skipped, 0);
        assert!(hinted.rows_examined < unhinted.rows_examined);
    }

    /// An empty hull (`lo > hi`) skips the whole scan even on a
    /// single-block column, which carries no zone maps at all.
    #[test]
    fn empty_hull_skips_single_block_scan_without_zone_maps() {
        let mut b = DatabaseBuilder::new("tiny");
        b.add_table("T", vec![ColumnDef::new("x", DataType::Int)])
            .unwrap();
        for i in 0..10 {
            b.add_row("T", vec![Value::Int(i)]).unwrap();
        }
        let db = b.build();
        let col = db.table(db.catalog().table_id("T").unwrap()).column(0);
        assert!(col.block_meta().is_empty(), "single block: no zone maps");
        let q = PjQuery {
            nodes: vec![db.catalog().table_id("T").unwrap()],
            joins: vec![],
            projection: vec![(0, 0)],
        };
        let never = |_: ValueRef<'_>| false;
        let mut stats = ExecStats::default();
        let n = q
            .count_matching(
                &db,
                &[Some(
                    ScanPred::new(&never).with_range(f64::INFINITY, f64::NEG_INFINITY),
                )],
                u64::MAX,
                &mut stats,
            )
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(stats.rows_examined, 0, "scan skipped outright");
        assert_eq!(stats.blocks_skipped, 1, "the whole table counts as one");
    }

    /// A single-block column carries no per-block zones, but its inline
    /// whole-column summary still proves disjoint (non-empty) hulls away.
    #[test]
    fn single_block_summary_prunes_disjoint_range_scans() {
        let mut b = DatabaseBuilder::new("summary");
        b.add_table("T", vec![ColumnDef::new("x", DataType::Int)])
            .unwrap();
        for i in 0..10 {
            b.add_row("T", vec![Value::Int(i)]).unwrap();
        }
        let db = b.build();
        let col = db.table(db.catalog().table_id("T").unwrap()).column(0);
        assert!(col.block_meta().is_empty(), "single block: no zone maps");
        let q = PjQuery {
            nodes: vec![db.catalog().table_id("T").unwrap()],
            joins: vec![],
            projection: vec![(0, 0)],
        };
        let in_range =
            |v: ValueRef<'_>| v.as_number().is_some_and(|x| (500.0..=600.0).contains(&x));
        let mut stats = ExecStats::default();
        let n = q
            .count_matching(
                &db,
                &[Some(ScanPred::new(&in_range).with_range(500.0, 600.0))],
                u64::MAX,
                &mut stats,
            )
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(stats.rows_examined, 0, "summary proved the column empty");
        assert_eq!(stats.blocks_skipped, 1);
        // A hull that does intersect still scans and finds its rows.
        let hit = |v: ValueRef<'_>| v.as_number().is_some_and(|x| (3.0..=4.0).contains(&x));
        let mut stats = ExecStats::default();
        let n = q
            .count_matching(
                &db,
                &[Some(ScanPred::new(&hit).with_range(3.0, 4.0))],
                u64::MAX,
                &mut stats,
            )
            .unwrap();
        assert_eq!(n, 2);
        assert!(stats.rows_examined > 0);
    }

    /// Regression (satellite): the dictionary verdict memo engages on the
    /// *filtered-scan* path too — a text predicate on a node reached by an
    /// indexless ad-hoc join is evaluated once per distinct code, and the
    /// result set matches the per-row semantics.
    #[test]
    fn filtered_scan_memoizes_text_predicates() {
        use std::cell::Cell;
        let mut b = DatabaseBuilder::new("fsmemo").with_block_rows(16);
        // P.id ↔ D.x demotes P.id to the f64 space; Q.p stays Int. The
        // ad-hoc join Q.p = P.id then runs as a filtered scan over P.
        b.add_table(
            "P",
            vec![
                ColumnDef::new("id", DataType::Int).not_null(),
                ColumnDef::new("tag", DataType::Text).not_null(),
            ],
        )
        .unwrap();
        b.add_table("D", vec![ColumnDef::new("x", DataType::Decimal).not_null()])
            .unwrap();
        b.add_table("Q", vec![ColumnDef::new("p", DataType::Int).not_null()])
            .unwrap();
        b.add_foreign_key("P", "id", "D", "x").unwrap();
        // One join key shared by many P rows, alternating between two tags,
        // so the filtered scan evaluates the predicate far past the warmup.
        for i in 0..200 {
            let tag = if i % 2 == 0 { "even" } else { "odd" };
            b.add_row("P", vec![Value::Int(7), tag.into()]).unwrap();
        }
        b.add_row("D", vec![Value::Decimal(7.0)]).unwrap();
        b.add_row("Q", vec![Value::Int(7)]).unwrap();
        let db = b.build();
        // Both nodes carry a predicate, so the 1-row Q wins the start-node
        // tie-break and P is reached through the indexless ad-hoc join —
        // i.e. the text predicate runs on the filtered-scan path.
        let q = PjQuery {
            nodes: vec![
                db.catalog().table_id("Q").unwrap(),
                db.catalog().table_id("P").unwrap(),
            ],
            joins: vec![JoinCond {
                left_node: 0,
                left_col: 0,
                right_node: 1,
                right_col: 0,
            }],
            projection: vec![(1, 1), (0, 0)],
        };
        let evals = Cell::new(0u32);
        let is_even = |v: ValueRef<'_>| {
            evals.set(evals.get() + 1);
            v == ValueRef::Text("even")
        };
        let is_seven = |v: ValueRef<'_>| v.as_number() == Some(7.0);
        let mut stats = ExecStats::default();
        let n = q
            .count_matching(
                &db,
                &[
                    Some(ScanPred::new(&is_even)),
                    Some(ScanPred::new(&is_seven)),
                ],
                u64::MAX,
                &mut stats,
            )
            .unwrap();
        assert_eq!(n, 100, "every even-tagged P row joins");
        // 200 rows, 2 distinct codes: without the shared memo the closure
        // would run 200 times; with it, the warmup plus one evaluation per
        // code not seen during warmup.
        assert!(
            evals.get() <= MEMO_WARMUP + 2,
            "predicate ran {} times — filtered scan is not memoized",
            evals.get()
        );
    }

    /// The memo is shared across paths within one run: rows reaching the
    /// predicate through an index probe reuse verdicts cached by the scan.
    #[test]
    fn probed_rows_share_the_scan_memo() {
        let db = lakes_db();
        let q = lakes_query();
        use std::cell::Cell;
        let evals = Cell::new(0u32);
        let any_prov = |v: ValueRef<'_>| {
            evals.set(evals.get() + 1);
            !v.is_null()
        };
        let is_tahoe = |v: ValueRef<'_>| v == ValueRef::Text("Lake Tahoe");
        let mut stats = ExecStats::default();
        let n = q
            .count_matching(
                &db,
                &[
                    Some(ScanPred::new(&any_prov)),
                    Some(ScanPred::new(&is_tahoe)),
                    None,
                ],
                u64::MAX,
                &mut stats,
            )
            .unwrap();
        assert_eq!(n, 2, "Tahoe joins California and Nevada");
        // The toy table is below the warmup, so verdicts are direct here —
        // the assertion is about correctness of the shared-memo plumbing.
        assert!(evals.get() >= 2);
    }
}
