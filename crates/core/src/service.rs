//! The discovery service: one frozen database, N concurrent sessions.
//!
//! The paper demonstrates an *interactive* mapping-discovery service; this
//! module is its serving shape and the library's one entry point. A
//! [`DiscoveryService`] owns an `Arc<Database>`, the a-priori-trained
//! Bayesian estimator, a service-global [`SharedPlanCache`], and a
//! [`ThreadBudget`] for validation workers. It runs rounds directly
//! ([`DiscoveryService::run`]) and hands out owned [`SessionHandle`]s — no
//! borrowed lifetimes — so callers can move sessions across threads and
//! run many of them concurrently against the same database:
//!
//! * the database is frozen and `Sync`; every round reads it in place;
//! * the estimator trains once per service (lazily, unless the service
//!   config already selects the Bayes scheduler) and is shared;
//! * prepared query plans live in the shared cache keyed by query
//!   identity, so a round whose query classes an earlier round already
//!   compiled compiles **zero** plans — observable through
//!   [`DiscoveryService::plan_cache`] counters;
//! * each round leases validation workers from the service-wide budget
//!   instead of assuming it owns the machine, and runs inside a panic
//!   boundary.

use crate::config::DiscoveryConfig;
use crate::constraints::TargetConstraints;
use crate::discovery::{run_round, DiscoveryResult};
use crate::faults::FaultReport;
use crate::filters::{PlanCacheStats, SharedPlanCache};
use crate::scheduler::SchedulerKind;
use crate::session::{SessionConfig, SessionHandle};
use crate::validate::panic_message;
use prism_bayes::{BayesEstimator, TrainConfig};
use prism_db::Database;
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

/// Everything the service's rounds share.
pub(crate) struct ServiceCore {
    pub(crate) db: Arc<Database>,
    config: DiscoveryConfig,
    /// Trained once per service; `OnceLock` so a PathLength-configured
    /// service pays for training only if some round selects Bayes.
    estimator: OnceLock<BayesEstimator>,
    plans: SharedPlanCache,
    budget: ThreadBudget,
    sessions_opened: AtomicU64,
    rounds_run: AtomicU64,
}

impl ServiceCore {
    /// One discovery round under `config`, through the shared plan cache.
    ///
    /// The round leases `config.validation_threads` workers from the
    /// service budget for its whole length; the grant is its batch width
    /// (one validates inline, more run as many pool workers).
    ///
    /// Fault isolation: the round runs inside a panic boundary. The
    /// validation stack already contains per-slot faults (the result
    /// degrades instead of failing); this last line of defense catches a
    /// coordinator-level unwind too, so one faulting round can never take
    /// down its siblings or poison the service — the thread lease returns
    /// to the budget, shared state (plan cache, estimator) is never
    /// mutated mid-panic, and the round returns an empty degraded result
    /// naming the fault.
    pub(crate) fn round(
        &self,
        config: &DiscoveryConfig,
        constraints: &TargetConstraints,
    ) -> DiscoveryResult {
        let estimator = (config.scheduler == SchedulerKind::Bayes).then(|| {
            self.estimator
                .get_or_init(|| BayesEstimator::train(&self.db, &TrainConfig::default()))
        });
        let lease = self.budget.acquire(config.validation_threads);
        let threads = lease.threads();
        let round = catch_unwind(AssertUnwindSafe(|| {
            run_round(
                &self.db,
                config,
                estimator,
                constraints,
                &self.plans,
                threads,
            )
        }));
        drop(lease);
        self.rounds_run.fetch_add(1, Ordering::Relaxed);
        round.unwrap_or_else(|payload| DiscoveryResult {
            degraded: true,
            fault_reports: vec![FaultReport {
                filter_sql: "(round coordinator)".to_string(),
                reason: panic_message(&*payload),
                retries: 0,
                candidates: 0,
            }],
            ..DiscoveryResult::default()
        })
    }
}

/// The entry point of the public API: one service per frozen database,
/// running rounds directly or through any number of concurrent
/// [`SessionHandle`]s. Cloning the service clones a handle to the same
/// shared core.
#[derive(Clone)]
pub struct DiscoveryService {
    core: Arc<ServiceCore>,
}

impl DiscoveryService {
    /// Stand up a service over `db`. Trains the Bayesian estimator up
    /// front when `config.scheduler` selects it (the paper's "a priori"
    /// preprocessing); otherwise training is deferred until the first
    /// Bayes round. The thread budget defaults to
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
        SessionHandle::new(Arc::clone(&self.core), id, config)
    }

    /// Open a session inheriting the service's engine configuration with
    /// the default grid shape.
    pub fn open_default_session(&self) -> SessionHandle {
        self.open_session(SessionConfig {
            discovery: self.core.config.clone(),
            ..SessionConfig::default()
        })
    }

    /// Run one discovery round with the service's configuration: the
    /// programmatic "Start Searching!" without a constraint grid. It
    /// shares the plan cache, estimator and thread budget with every
    /// session, and runs inside the same panic boundary.
    pub fn run(&self, constraints: &TargetConstraints) -> DiscoveryResult {
        self.core.round(&self.core.config, constraints)
    }

    pub fn database(&self) -> &Database {
        &self.core.db
    }

    pub fn config(&self) -> &DiscoveryConfig {
        &self.core.config
    }

    /// Hit/miss/compile counters of the service-global plan cache. A warm
    /// round (same query classes as an earlier one) shows up as pure hits
    /// and `plans_built == 0` in its stats.
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

    /// Discovery rounds completed, by sessions and by [`DiscoveryService::run`].
    pub fn rounds_run(&self) -> u64 {
        self.core.rounds_run.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::ConstraintPick;
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

    /// The Section 3 walk-through as a session script.
    #[test]
    fn owned_sessions_run_the_walkthrough() {
        // Step 1: configure — Mondial, 3 columns, 1 sample, metadata on.
        let svc = walkthrough_service();
        let mut session = svc.open_default_session();
        assert_eq!(session.database_name(), "Mondial");
        // Step 2: describe.
        describe(&mut session);
        // Step 3: search.
        let result = session.start_searching().unwrap();
        assert!(!result.degraded, "{:?}", result.fault_reports);
        assert!(!result.queries.is_empty());
        // Step 4: view the queries and explain the desired one.
        let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                    FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
        let n = result.queries.len();
        let idx = (0..n)
            .find(|&i| session.result_sql(i).unwrap() == want)
            .expect("desired query listed");
        let graph = session.explain_result(idx, None).unwrap();
        assert_eq!(graph.relations.len(), 2);
        assert_eq!(graph.constraints.len(), 3);
        // Step 4.3: picking a single constraint draws only it.
        let one = session
            .explain_result(
                idx,
                Some(&[ConstraintPick::Value {
                    sample: 0,
                    column: 1,
                }]),
            )
            .unwrap();
        assert_eq!(one.constraints.len(), 1);
        assert!(one.constraints[0].label.contains("Lake Tahoe"));
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

        // A third round outside any session shares the same cache.
        let walkthrough = TargetConstraints::parse(
            3,
            &[vec![
                Some("California || Nevada".to_string()),
                Some("Lake Tahoe".to_string()),
                None,
            ]],
            &[
                None,
                None,
                Some("DataType=='decimal' AND MinValue>='0'".to_string()),
            ],
        )
        .unwrap();
        let direct = svc.run(&walkthrough);
        assert_eq!(
            direct.stats.exec.plans_built, 0,
            "direct round compiles nothing"
        );
        assert_eq!(svc.plan_cache().misses, after_cold.misses);
        assert_eq!(svc.rounds_run(), 3);

        // Same accepted queries every way.
        let keys = |r: &DiscoveryResult| {
            assert!(!r.degraded, "{:?}", r.fault_reports);
            let mut k: Vec<String> = r.queries.iter().map(|q| q.key.clone()).collect();
            k.sort();
            k
        };
        let cold_keys = keys(first.result().unwrap());
        assert_eq!(cold_keys, keys(second.result().unwrap()));
        assert_eq!(cold_keys, keys(&direct));
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
