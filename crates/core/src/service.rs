//! The multi-user service layer: one frozen database, N concurrent
//! sessions.
//!
//! The paper demonstrates an *interactive* mapping-discovery service; this
//! module is its serving shape. A [`DiscoveryService`] owns an
//! `Arc<Database>`, the a-priori-trained Bayesian estimator, a
//! service-global [`SharedPlanCache`], and a [`ThreadBudget`] for
//! validation workers. It hands out owned [`SessionHandle`]s — no borrowed
//! lifetimes — so callers can move sessions across threads and run many of
//! them concurrently against the same database:
//!
//! * the database is frozen and `Sync`; every session reads it in place;
//! * the estimator trains once per service (lazily, unless the service
//!   config already selects the Bayes scheduler) and is shared;
//! * prepared query plans live in the shared cache keyed by query
//!   identity, so a session whose query classes were already compiled by
//!   an earlier session compiles **zero** plans — observable through
//!   [`DiscoveryService::plan_cache`] counters;
//! * each round leases validation workers from the service-wide budget
//!   instead of assuming it owns the machine.
//!
//! [`crate::session::Session`] remains the single-user, borrowed
//! equivalent; both funnel into the same `run_round` pipeline.

use crate::config::DiscoveryConfig;
use crate::constraints::TargetConstraints;
use crate::discovery::{run_round, DiscoveryResult, RoundOptions};
use crate::error::Error;
use crate::explain::{all_picks, explain, ConstraintPick, QueryGraph};
use crate::faults::FaultReport;
use crate::filters::{PlanCacheStats, SharedPlanCache};
use crate::scheduler::SchedulerKind;
use crate::session::{ConstraintGrid, SessionConfig};
use crate::validate::panic_message;
use prism_bayes::{BayesEstimator, TrainConfig};
use prism_db::Database;
use prism_lang::UdfRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A pool of validation threads shared by every session of one service.
/// Leases never block and never grant zero: a session asking for workers
/// on an exhausted budget gets the sequential path (1 thread) rather than
/// queueing — interactive rounds must always make progress.
pub struct ThreadBudget {
    total: usize,
    available: Mutex<usize>,
}

impl ThreadBudget {
    fn new(total: usize) -> ThreadBudget {
        let total = total.max(1);
        ThreadBudget {
            total,
            available: Mutex::new(total),
        }
    }

    pub fn total(&self) -> usize {
        self.total
    }

    /// Threads currently not leased out.
    pub fn available(&self) -> usize {
        *self.available.lock().expect("budget lock")
    }

    /// Lease up to `want` threads; the grant is `max(1, min(want,
    /// available))` and returns to the pool when the lease drops.
    fn acquire(&self, want: usize) -> ThreadLease<'_> {
        let mut avail = self.available.lock().expect("budget lock");
        let granted = want.min(*avail).max(1);
        let deducted = granted.min(*avail);
        *avail -= deducted;
        ThreadLease {
            budget: self,
            granted,
            deducted,
        }
    }
}

struct ThreadLease<'b> {
    budget: &'b ThreadBudget,
    granted: usize,
    deducted: usize,
}

impl ThreadLease<'_> {
    fn threads(&self) -> usize {
        self.granted
    }
}

impl Drop for ThreadLease<'_> {
    fn drop(&mut self) {
        let mut avail = self.budget.available.lock().expect("budget lock");
        *avail += self.deducted;
    }
}

/// Everything the service's sessions share.
struct ServiceCore {
    db: Arc<Database>,
    config: DiscoveryConfig,
    /// Trained once per service; `OnceLock` so a PathLength-configured
    /// service pays for training only if some session selects Bayes.
    estimator: OnceLock<BayesEstimator>,
    plans: SharedPlanCache,
    budget: ThreadBudget,
    sessions_opened: AtomicU64,
    rounds_run: AtomicU64,
}

impl ServiceCore {
    fn bayes_estimator(&self) -> &BayesEstimator {
        self.estimator
            .get_or_init(|| BayesEstimator::train(&self.db, &TrainConfig::default()))
    }
}

/// The owned entry point of the public API: one service per frozen
/// database, any number of concurrent [`SessionHandle`]s. Cloning the
/// service clones a handle to the same shared core.
#[derive(Clone)]
pub struct DiscoveryService {
    core: Arc<ServiceCore>,
}

impl DiscoveryService {
    /// Stand up a service over `db`. Trains the Bayesian estimator up
    /// front when `config.scheduler` selects it (the paper's "a priori"
    /// preprocessing); otherwise training is deferred until the first
    /// Bayes session. The thread budget defaults to
    /// `config.validation_threads`.
    pub fn new(db: Arc<Database>, config: DiscoveryConfig) -> DiscoveryService {
        let budget = config.validation_threads;
        DiscoveryService::with_thread_budget(db, config, budget)
    }

    /// As [`DiscoveryService::new`] with an explicit service-wide
    /// validation-thread budget shared by all sessions.
    pub fn with_thread_budget(
        db: Arc<Database>,
        config: DiscoveryConfig,
        total_threads: usize,
    ) -> DiscoveryService {
        let estimator = OnceLock::new();
        if config.scheduler == SchedulerKind::Bayes {
            let trained = BayesEstimator::train(&db, &TrainConfig::default());
            assert!(estimator.set(trained).is_ok(), "fresh OnceLock");
        }
        DiscoveryService {
            core: Arc::new(ServiceCore {
                db,
                config,
                estimator,
                plans: SharedPlanCache::new(),
                budget: ThreadBudget::new(total_threads),
                sessions_opened: AtomicU64::new(0),
                rounds_run: AtomicU64::new(0),
            }),
        }
    }

    /// Open an owned session. `config` shapes the constraint grid and may
    /// override the engine settings for this session's rounds (scheduler,
    /// time budget); plans, estimator, and thread budget stay shared.
    pub fn open_session(&self, config: SessionConfig) -> SessionHandle {
        let id = self.core.sessions_opened.fetch_add(1, Ordering::Relaxed);
        SessionHandle {
            svc: Arc::clone(&self.core),
            id,
            grid: ConstraintGrid::new(&config),
            config,
            udfs: UdfRegistry::new(),
            last_constraints: None,
            last_result: None,
        }
    }

    /// Open a session inheriting the service's engine configuration with
    /// the default grid shape.
    pub fn open_default_session(&self) -> SessionHandle {
        self.open_session(SessionConfig {
            discovery: self.core.config.clone(),
            ..SessionConfig::default()
        })
    }

    pub fn database(&self) -> &Database {
        &self.core.db
    }

    pub fn config(&self) -> &DiscoveryConfig {
        &self.core.config
    }

    /// Hit/miss/compile counters of the service-global plan cache. A warm
    /// session (same query classes as an earlier one) shows up as pure
    /// hits and `plans_built == 0` in its round stats.
    pub fn plan_cache(&self) -> PlanCacheStats {
        self.core.plans.stats()
    }

    pub fn thread_budget(&self) -> &ThreadBudget {
        &self.core.budget
    }

    /// Sessions handed out over the service's lifetime.
    pub fn sessions_opened(&self) -> u64 {
        self.core.sessions_opened.load(Ordering::Relaxed)
    }

    /// Discovery rounds completed across all sessions.
    pub fn rounds_run(&self) -> u64 {
        self.core.rounds_run.load(Ordering::Relaxed)
    }
}

/// One owned interactive session: the same Configuration → Description →
/// Result workflow as [`crate::session::Session`], minus the lifetime —
/// a handle is `Send` and can run on any thread while its siblings run on
/// others.
pub struct SessionHandle {
    svc: Arc<ServiceCore>,
    id: u64,
    config: SessionConfig,
    grid: ConstraintGrid,
    udfs: UdfRegistry,
    last_constraints: Option<TargetConstraints>,
    last_result: Option<DiscoveryResult>,
}

// A handle must be movable into worker threads (the whole point of the
// owned redesign); everything it shares is behind `Arc` + `Sync` types.
const fn _assert_send<T: Send>() {}
const _: () = _assert_send::<SessionHandle>();

impl SessionHandle {
    /// Service-unique session id (allocation order).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    pub fn database_name(&self) -> &str {
        self.svc.db.name()
    }

    /// Register user-defined functions available to `@name` predicates.
    pub fn set_udfs(&mut self, udfs: UdfRegistry) {
        self.udfs = udfs;
    }

    /// Step 2: type into a cell of the Sample/Result Constraints grid.
    pub fn set_sample_cell(
        &mut self,
        row: usize,
        column: usize,
        text: impl Into<String>,
    ) -> Result<(), Error> {
        self.grid.set_sample_cell(row, column, text.into())
    }

    /// Step 2 (metadata row): type into a Metadata Constraints cell.
    pub fn set_metadata_cell(
        &mut self,
        column: usize,
        text: impl Into<String>,
    ) -> Result<(), Error> {
        self.grid.set_metadata_cell(column, text.into())
    }

    /// Step 3: "Start Searching!". Parses the grid, leases validation
    /// workers from the service budget, runs a round through the shared
    /// plan cache, and stores the Result section.
    ///
    /// The lease spans the whole round, and the granted thread count is
    /// the round's batch width: one grant validates inline, more run as
    /// many pool workers.
    ///
    /// Fault isolation: the round runs inside a panic boundary. The
    /// validation stack already contains per-slot faults ([`DiscoveryResult`]
    /// degrades instead of failing); this last line of defense catches a
    /// coordinator-level unwind too, so one faulting session can never
    /// take down its siblings or poison the service — the thread lease
    /// returns to the budget, shared state (plan cache, estimator) is
    /// never mutated mid-panic, and the session stores an empty degraded
    /// result naming the fault.
    pub fn start_searching(&mut self) -> Result<&DiscoveryResult, Error> {
        let constraints = self.grid.parse(&self.udfs)?;
        let config = &self.config.discovery;
        let estimator = match config.scheduler {
            SchedulerKind::Bayes => Some(self.svc.bayes_estimator()),
            _ => self.svc.estimator.get(),
        };
        let lease = self.svc.budget.acquire(config.validation_threads);
        let threads = lease.threads();
        let round = catch_unwind(AssertUnwindSafe(|| {
            run_round(
                &self.svc.db,
                config,
                estimator,
                &constraints,
                RoundOptions {
                    want_oracle: false,
                    shared_plans: Some(&self.svc.plans),
                    threads,
                },
            )
        }));
        drop(lease);
        let result = round.unwrap_or_else(|payload| DiscoveryResult {
            degraded: true,
            fault_reports: vec![FaultReport {
                filter_sql: "(round coordinator)".to_string(),
                reason: panic_message(&*payload),
                retries: 0,
                candidates: 0,
            }],
            ..DiscoveryResult::default()
        });
        self.svc.rounds_run.fetch_add(1, Ordering::Relaxed);
        self.last_constraints = Some(constraints);
        self.last_result = Some(result);
        Ok(self.last_result.as_ref().expect("just stored"))
    }

    /// The Result section of the last search.
    pub fn result(&self) -> Option<&DiscoveryResult> {
        self.last_result.as_ref()
    }

    /// Step 4.1: the SQL text of one discovered query (Figure 4b).
    pub fn result_sql(&self, index: usize) -> Result<&str, Error> {
        let r = self.last_result.as_ref().ok_or(Error::NoSearchRun)?;
        r.queries
            .get(index)
            .map(|q| q.sql.as_str())
            .ok_or(Error::NoSuchResult(index))
    }

    /// Steps 4.2–4.3: the query graph of one discovered query with the
    /// chosen constraints drawn in (Figure 4c). `picks = None` draws all.
    pub fn explain_result(
        &self,
        index: usize,
        picks: Option<&[ConstraintPick]>,
    ) -> Result<QueryGraph, Error> {
        let r = self.last_result.as_ref().ok_or(Error::NoSearchRun)?;
        let q = r.queries.get(index).ok_or(Error::NoSuchResult(index))?;
        let constraints = self
            .last_constraints
            .as_ref()
            .expect("constraints stored with result");
        let owned_all;
        let picks = match picks {
            Some(p) => p,
            None => {
                owned_all = all_picks(constraints);
                &owned_all
            }
        };
        Ok(explain(&self.svc.db, &q.candidate, constraints, picks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_datasets::mondial;

    fn walkthrough_service() -> DiscoveryService {
        DiscoveryService::new(Arc::new(mondial(42, 1)), DiscoveryConfig::default())
    }

    fn describe(session: &mut SessionHandle) {
        session
            .set_sample_cell(0, 0, "California || Nevada")
            .unwrap();
        session.set_sample_cell(0, 1, "Lake Tahoe").unwrap();
        session
            .set_metadata_cell(2, "DataType=='decimal' AND MinValue>='0'")
            .unwrap();
    }

    #[test]
    fn owned_sessions_run_the_walkthrough() {
        let svc = walkthrough_service();
        let mut session = svc.open_default_session();
        assert_eq!(session.database_name(), "Mondial");
        describe(&mut session);
        let result = session.start_searching().unwrap();
        assert!(!result.queries.is_empty());
        let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                    FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
        let n = result.queries.len();
        let idx = (0..n)
            .find(|&i| session.result_sql(i).unwrap() == want)
            .expect("desired query listed");
        let graph = session.explain_result(idx, None).unwrap();
        assert_eq!(graph.relations.len(), 2);
        assert_eq!(svc.rounds_run(), 1);
        assert_eq!(svc.sessions_opened(), 1);
    }

    #[test]
    fn warm_session_compiles_zero_plans() {
        let svc = walkthrough_service();
        let mut first = svc.open_default_session();
        describe(&mut first);
        let cold = first.start_searching().unwrap().stats.clone();
        assert!(cold.exec.plans_built > 0, "cold session compiles");
        let after_cold = svc.plan_cache();
        assert!(after_cold.misses > 0);
        assert_eq!(after_cold.compiled as u64, cold.exec.plans_built);

        // Second session, same query classes: all cache hits, no compiles.
        let mut second = svc.open_default_session();
        describe(&mut second);
        let warm = second.start_searching().unwrap().stats.clone();
        assert_eq!(warm.exec.plans_built, 0, "warm session compiles nothing");
        let after_warm = svc.plan_cache();
        assert_eq!(after_warm.misses, after_cold.misses, "no new classes");
        assert!(after_warm.hits > after_cold.hits, "classes re-registered");
        // Same accepted queries either way.
        let keys = |r: &DiscoveryResult| {
            let mut k: Vec<String> = r.queries.iter().map(|q| q.key.clone()).collect();
            k.sort();
            k
        };
        assert_eq!(
            keys(first.result().unwrap()),
            keys(second.result().unwrap())
        );
    }

    #[test]
    fn sessions_move_across_threads() {
        let svc = walkthrough_service();
        let handles: Vec<SessionHandle> = (0..3).map(|_| svc.open_default_session()).collect();
        let results: Vec<Vec<String>> = std::thread::scope(|scope| {
            let joins: Vec<_> = handles
                .into_iter()
                .map(|mut session| {
                    scope.spawn(move || {
                        describe(&mut session);
                        let result = session.start_searching().unwrap();
                        let mut keys: Vec<String> =
                            result.queries.iter().map(|q| q.key.clone()).collect();
                        keys.sort();
                        keys
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        assert!(!results[0].is_empty());
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(svc.rounds_run(), 3);
        assert_eq!(svc.sessions_opened(), 3);
    }

    #[test]
    fn thread_budget_grants_floor_and_returns_on_drop() {
        let budget = ThreadBudget::new(4);
        assert_eq!(budget.total(), 4);
        let a = budget.acquire(3);
        assert_eq!(a.threads(), 3);
        assert_eq!(budget.available(), 1);
        let b = budget.acquire(3);
        assert_eq!(b.threads(), 1, "clamped to what is left");
        assert_eq!(budget.available(), 0);
        // Exhausted budget still grants the sequential floor...
        let c = budget.acquire(2);
        assert_eq!(c.threads(), 1);
        assert_eq!(budget.available(), 0, "floor grant deducts nothing");
        drop(c);
        drop(b);
        drop(a);
        assert_eq!(budget.available(), 4, "all leases returned");
    }

    #[test]
    fn estimator_trains_lazily_for_bayes_sessions() {
        let svc = DiscoveryService::new(
            Arc::new(mondial(42, 1)),
            DiscoveryConfig::with_scheduler(SchedulerKind::PathLength),
        );
        assert!(svc.core.estimator.get().is_none(), "no eager training");
        let mut session = svc.open_session(SessionConfig {
            discovery: DiscoveryConfig::with_scheduler(SchedulerKind::Bayes),
            ..SessionConfig::default()
        });
        describe(&mut session);
        let result = session.start_searching().unwrap();
        assert!(!result.queries.is_empty());
        assert!(svc.core.estimator.get().is_some(), "trained on demand");
    }
}
