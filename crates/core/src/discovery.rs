//! The end-to-end discovery pipeline (Figure 2).
//!
//! `constraints → related columns → candidate queries → filter validation →
//! final schema mapping queries`, under the interactive time budget. A
//! [`Discovery`] owns the trained Bayesian estimator (training happens "a
//! priori", like the paper's preprocessing) and can be reused across rounds.

use crate::candidates::{enumerate_candidates, Candidate};
use crate::config::DiscoveryConfig;
use crate::constraints::TargetConstraints;
use crate::faults::FaultReport;
use crate::filters::{build_filters_with_cache, SharedPlanCache};
use crate::related::find_related;
use crate::scheduler::{
    oracle_schedule, BayesModel, Engine, PathLengthModel, SchedCtx, ScheduleOutcome, Scheduler,
    SchedulerKind,
};
use crate::validate::filter_query;
use prism_bayes::{BayesEstimator, TrainConfig};
use prism_db::{canonical_key, render_sql, Database, ExecStats, Value};
use std::time::{Duration, Instant};

/// One satisfying schema mapping query, ready for the Result section.
#[derive(Debug, Clone)]
pub struct DiscoveredQuery {
    pub candidate: Candidate,
    /// SQL text (Figure 4b).
    pub sql: String,
    /// Canonical identity (for ground-truth matching in experiments).
    pub key: String,
    /// A few result rows for preview.
    pub preview: Vec<Vec<Value>>,
    /// Statistics-based estimate of the query's result size, used for
    /// ranking (smaller results = more specific mappings).
    pub estimated_rows: f64,
}

impl DiscoveredQuery {
    /// Render the preview rows as an aligned text table headed by the
    /// projected column names — Figure 4b's "schema mapping query content"
    /// panel.
    pub fn preview_table(&self, db: &Database) -> String {
        let headers: Vec<String> = self
            .candidate
            .assignment
            .iter()
            .map(|c| db.catalog().column_name(*c))
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rows: Vec<Vec<String>> = self
            .preview
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<w$}", w = widths[i]))
                .collect::<Vec<_>>()
                .join(" | ")
                .trim_end()
                .to_string()
        };
        let mut out = render(&headers);
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        for row in &rows {
            out.push('\n');
            out.push_str(&render(row));
        }
        out.push('\n');
        out
    }
}

/// Statistics of one discovery round.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryStats {
    /// Related columns found per target column.
    pub related_per_column: Vec<usize>,
    /// Candidates enumerated.
    pub candidates: usize,
    /// Deduplicated filters built.
    pub filters: usize,
    /// Filter validations executed.
    pub validations: u64,
    /// Filters resolved by success/failure propagation.
    pub implied_successes: u64,
    pub implied_failures: u64,
    /// Hindsight-optimal validations (populated for the Oracle scheduler,
    /// or on request via [`Discovery::run_with_oracle`]).
    pub oracle_validations: Option<u64>,
    /// Raw execution work.
    pub exec: ExecStats,
    /// Wall-clock time of the round.
    pub elapsed: Duration,
    /// Candidate enumeration or filter decomposition was truncated.
    pub truncated: bool,
    /// Faults the injection layer fired (0 unless chaos is armed via
    /// `PRISM_FAULT` / [`DiscoveryConfig::faults`]).
    pub faults_injected: u64,
    /// Transient-fault retries performed by guarded validation slots.
    pub fault_retries: u64,
    /// Filters whose validation faulted (see
    /// [`DiscoveryResult::fault_reports`]).
    pub filters_faulted: u64,
    /// Validation rounds the watchdog hard-abandoned past the deadline
    /// grace window.
    pub rounds_abandoned: u64,
}

/// The outcome of one discovery round.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryResult {
    pub queries: Vec<DiscoveredQuery>,
    pub stats: DiscoveryStats,
    /// The round hit its time budget before classifying every candidate
    /// (the demo reports this as a failure/timeout).
    pub timed_out: bool,
    /// Part of the search space could not be decided: at least one filter
    /// validation faulted (or a validation round was hard-abandoned), so
    /// `queries` is a **sound subset** of the full answer — every returned
    /// query genuinely satisfies the constraints, but some satisfying
    /// queries may be missing. Details in [`DiscoveryResult::fault_reports`].
    pub degraded: bool,
    /// One report per faulted filter: its PJ query (as SQL), the contained
    /// panic message or retry-exhaustion reason, and how many candidates
    /// it abandoned. Empty on a clean run.
    pub fault_reports: Vec<FaultReport>,
}

impl DiscoveryResult {
    /// User-facing summary of a degraded round, for the demo's Result
    /// panel: one line per faulted filter naming its query and reason,
    /// plus the watchdog's abandonment count. `None` for a clean round —
    /// callers can `if let Some(notice)` straight into the UI.
    pub fn degradation_notice(&self) -> Option<String> {
        if !self.degraded {
            return None;
        }
        let mut out =
            String::from("partial results: part of the search space could not be validated\n");
        for r in &self.fault_reports {
            out.push_str(&format!(
                "  - {} [{} candidate(s) abandoned, {} retr{}]: {}\n",
                r.filter_sql,
                r.candidates,
                r.retries,
                if r.retries == 1 { "y" } else { "ies" },
                r.reason,
            ));
        }
        if self.stats.rounds_abandoned > 0 {
            out.push_str(&format!(
                "  - {} validation round(s) hard-abandoned past the deadline\n",
                self.stats.rounds_abandoned
            ));
        }
        Some(out)
    }
}

/// A reusable discovery engine over one database.
pub struct Discovery<'a> {
    db: &'a Database,
    config: DiscoveryConfig,
    estimator: Option<BayesEstimator>,
}

impl<'a> Discovery<'a> {
    /// Create an engine; trains the Bayesian estimator a priori when the
    /// configured scheduler needs it.
    pub fn new(db: &'a Database, config: DiscoveryConfig) -> Discovery<'a> {
        let estimator = match config.scheduler {
            SchedulerKind::Bayes => Some(BayesEstimator::train(db, &TrainConfig::default())),
            _ => None,
        };
        Discovery {
            db,
            config,
            estimator,
        }
    }

    /// Use a pre-trained estimator (e.g. shared across engines, or an
    /// ablation variant without join indicators).
    pub fn with_estimator(mut self, estimator: BayesEstimator) -> Discovery<'a> {
        self.estimator = Some(estimator);
        self
    }

    pub fn config(&self) -> &DiscoveryConfig {
        &self.config
    }

    pub fn database(&self) -> &'a Database {
        self.db
    }

    /// Run one discovery round.
    pub fn run(&self, constraints: &TargetConstraints) -> DiscoveryResult {
        self.run_inner(constraints, false)
    }

    /// Run one round and additionally compute the hindsight optimum
    /// (`stats.oracle_validations`) — used by the E3 experiment.
    pub fn run_with_oracle(&self, constraints: &TargetConstraints) -> DiscoveryResult {
        self.run_inner(constraints, true)
    }

    fn run_inner(&self, constraints: &TargetConstraints, want_oracle: bool) -> DiscoveryResult {
        run_round(
            self.db,
            &self.config,
            self.estimator.as_ref(),
            constraints,
            RoundOptions {
                want_oracle,
                shared_plans: None,
                threads: self.config.validation_threads,
            },
        )
    }
}

/// Per-round knobs beyond [`DiscoveryConfig`]: the borrowed [`Discovery`]
/// engine and the owned [`crate::service::SessionHandle`] both funnel into
/// [`run_round`], differing only here.
pub(crate) struct RoundOptions<'s> {
    pub want_oracle: bool,
    /// Service-global plan cache; `None` = a private per-round cache.
    pub shared_plans: Option<&'s SharedPlanCache>,
    /// Validation worker count for this round (the service leases it from
    /// its thread budget; the borrowed engine uses its config verbatim).
    pub threads: usize,
}

/// One discovery round: `constraints → related columns → candidates →
/// filters → scheduled validation → ranked results`.
pub(crate) fn run_round(
    db: &Database,
    config: &DiscoveryConfig,
    estimator: Option<&BayesEstimator>,
    constraints: &TargetConstraints,
    opts: RoundOptions<'_>,
) -> DiscoveryResult {
    let start = Instant::now();
    let deadline = start + config.time_budget;

    // Step 1: related columns and candidate enumeration.
    let related = find_related(db, constraints, config);
    let cand_set = enumerate_candidates(db, &related, config, Some(deadline));
    let mut stats = DiscoveryStats {
        related_per_column: related.per_column.iter().map(Vec::len).collect(),
        candidates: cand_set.candidates.len(),
        truncated: cand_set.truncated,
        ..DiscoveryStats::default()
    };
    if cand_set.candidates.is_empty() {
        stats.elapsed = start.elapsed();
        return DiscoveryResult {
            queries: Vec::new(),
            stats,
            timed_out: cand_set.truncated,
            degraded: false,
            fault_reports: Vec::new(),
        };
    }

    // Step 2: filters and scheduling.
    let fs = build_filters_with_cache(
        db,
        &cand_set.candidates,
        constraints,
        Some(deadline),
        opts.shared_plans,
    );
    stats.filters = fs.len();
    stats.truncated |= fs.truncated;

    // Greedy schedulers validate `threads` filters per round: one inline
    // at `threads == 1`, a batch on the worker pool otherwise.
    let ctx = SchedCtx::new(db, constraints, &fs)
        .with_deadline(Some(deadline))
        .with_faults(config.faults.clone());
    let threads = opts.threads;
    let greedy = |model: &dyn crate::scheduler::FailureModel| {
        Scheduler::run(&ctx, Engine::Greedy { model, threads })
    };
    let outcome: ScheduleOutcome = match config.scheduler {
        SchedulerKind::Naive => Scheduler::run(&ctx, Engine::Naive),
        SchedulerKind::PathLength => greedy(&PathLengthModel),
        SchedulerKind::Bayes => {
            let est = estimator.expect("Bayes scheduler requires a trained estimator");
            greedy(&BayesModel::new(est, constraints))
        }
        SchedulerKind::Oracle => {
            let (v, o) = oracle_schedule(db, constraints, &fs);
            stats.oracle_validations = Some(v);
            o
        }
    };
    if opts.want_oracle && stats.oracle_validations.is_none() {
        let (v, _) = oracle_schedule(db, constraints, &fs);
        stats.oracle_validations = Some(v);
    }

    stats.validations = outcome.validations;
    stats.implied_successes = outcome.implied_successes;
    stats.implied_failures = outcome.implied_failures;
    stats.exec = outcome.exec;
    stats.faults_injected = outcome.faults_injected;
    stats.fault_retries = outcome.fault_retries;
    stats.filters_faulted = outcome.faulted.len() as u64;
    stats.rounds_abandoned = outcome.rounds_abandoned;

    // Graceful degradation: contained faults shrink the answer instead of
    // sinking the round. Name each undecidable filter (as SQL — the user's
    // vocabulary) so the session can show *which* part of the search space
    // the partial result does not cover.
    let degraded = !outcome.faulted.is_empty() || outcome.rounds_abandoned > 0;
    let fault_reports: Vec<FaultReport> = outcome
        .faulted
        .iter()
        .map(|ff| FaultReport {
            filter_sql: render_sql(&filter_query(db, fs.filter(ff.filter)), db),
            reason: ff.reason.clone(),
            retries: ff.retries,
            candidates: ff.candidates.len(),
        })
        .collect();

    // Materialize the Result section, ranked for the browsing user:
    // fewer joins first (simpler mappings), then smaller estimated
    // results (more specific mappings), then SQL for determinism.
    // Ranking happens before the result cap so the cap keeps the best.
    // SQL is rendered only at or above the cap's `(joins, estimate)`
    // boundary: ties on the boundary are kept, because the SQL tie-break
    // decides which of them make the cap. Candidate id last makes the
    // order total; SQL is unique per candidate, so it never decides.
    let limit = config.result_limit;
    let mut ranked: Vec<(usize, f64, u32)> = outcome
        .accepted
        .iter()
        .map(|&cid| {
            let cand = &cand_set.candidates[cid as usize];
            (cand.query.join_count(), estimate_result_rows(db, cand), cid)
        })
        .collect();
    let by_cost = |a: &(usize, f64, u32), b: &(usize, f64, u32)| {
        a.0.cmp(&b.0).then_with(|| a.1.total_cmp(&b.1))
    };
    if limit == 0 {
        ranked.clear();
    } else if limit < ranked.len() {
        let (_, &mut boundary, _) = ranked.select_nth_unstable_by(limit - 1, by_cost);
        ranked.retain(|r| by_cost(r, &boundary).is_le());
    }
    let mut ranked: Vec<(usize, f64, String, u32)> = ranked
        .into_iter()
        .map(|(joins, est, cid)| {
            let sql = render_sql(&cand_set.candidates[cid as usize].query, db);
            (joins, est, sql, cid)
        })
        .collect();
    ranked.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| a.1.total_cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
            .then_with(|| a.3.cmp(&b.3))
    });
    let mut queries = Vec::new();
    for (_, estimated_rows, sql, cid) in ranked.into_iter().take(limit) {
        let candidate = cand_set.candidates[cid as usize].clone();
        let key = canonical_key(&candidate.query, db);
        let preview = candidate.query.execute(db, 5).unwrap_or_default();
        queries.push(DiscoveredQuery {
            candidate,
            sql,
            key,
            preview,
            estimated_rows,
        });
    }
    stats.elapsed = start.elapsed();
    DiscoveryResult {
        queries,
        stats,
        timed_out: outcome.timed_out,
        degraded,
        fault_reports,
    }
}

/// Statistics-only estimate of a candidate's result cardinality:
/// `Π |R_t| / Π max(distinct(a), distinct(b))` over the tree's join edges —
/// the classic System R key-join approximation. No execution involved.
fn estimate_result_rows(db: &Database, cand: &Candidate) -> f64 {
    let mut est = 1.0f64;
    for &t in &cand.tree.tables {
        est *= db.row_count(t).max(1) as f64;
    }
    for &e in &cand.tree.edges {
        let edge = db.graph().edge(e);
        let d = db
            .stats()
            .column(edge.a)
            .distinct_count
            .max(db.stats().column(edge.b).distinct_count)
            .max(1);
        est /= d as f64;
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_datasets::{mondial, nba};

    fn some(s: &str) -> Option<String> {
        Some(s.to_string())
    }

    fn walkthrough_constraints() -> TargetConstraints {
        TargetConstraints::parse(
            3,
            &[vec![some("California || Nevada"), some("Lake Tahoe"), None]],
            &[None, None, some("DataType=='decimal' AND MinValue>='0'")],
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_walkthrough_finds_the_desired_query() {
        let db = mondial(42, 1);
        let engine = Discovery::new(&db, DiscoveryConfig::default());
        let result = engine.run(&walkthrough_constraints());
        assert!(!result.timed_out);
        assert!(!result.queries.is_empty());
        let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                    FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
        assert!(
            result.queries.iter().any(|q| q.sql == want),
            "desired query not found; got: {:?}",
            result.queries.iter().map(|q| &q.sql).collect::<Vec<_>>()
        );
        // Previews contain real rows.
        let hit = result.queries.iter().find(|q| q.sql == want).unwrap();
        assert!(!hit.preview.is_empty());
        assert!(result.stats.validations > 0);
        assert!(result.stats.elapsed < Duration::from_secs(60));
    }

    #[test]
    fn all_schedulers_find_the_same_queries() {
        let db = mondial(42, 1);
        let tc = walkthrough_constraints();
        let mut keys: Vec<Vec<String>> = Vec::new();
        for kind in [
            SchedulerKind::Naive,
            SchedulerKind::PathLength,
            SchedulerKind::Bayes,
            SchedulerKind::Oracle,
        ] {
            let engine = Discovery::new(&db, DiscoveryConfig::with_scheduler(kind));
            let result = engine.run(&tc);
            let mut ks: Vec<String> = result.queries.iter().map(|q| q.key.clone()).collect();
            ks.sort();
            keys.push(ks);
        }
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[1], keys[2]);
        assert_eq!(keys[2], keys[3]);
    }

    #[test]
    fn unsatisfiable_constraints_return_no_queries_quickly() {
        let db = mondial(42, 1);
        let engine = Discovery::new(&db, DiscoveryConfig::default());
        let tc = TargetConstraints::parse(1, &[vec![some("Atlantis Prime")]], &[]).unwrap();
        let result = engine.run(&tc);
        assert!(result.queries.is_empty());
        assert!(!result.timed_out);
        assert_eq!(result.stats.candidates, 0);
    }

    #[test]
    fn tiny_time_budget_reports_timeout() {
        let db = mondial(42, 2);
        let config = DiscoveryConfig {
            time_budget: Duration::from_nanos(1),
            ..DiscoveryConfig::default()
        };
        let engine = Discovery::new(&db, config);
        let result = engine.run(&walkthrough_constraints());
        assert!(result.timed_out || result.queries.is_empty());
    }

    #[test]
    fn oracle_stats_available_on_request() {
        let db = mondial(42, 1);
        let engine = Discovery::new(&db, DiscoveryConfig::default());
        let result = engine.run_with_oracle(&walkthrough_constraints());
        let oracle = result.stats.oracle_validations.expect("requested");
        assert!(oracle <= result.stats.validations);
    }

    #[test]
    fn works_on_nba_with_parallel_edges() {
        let db = nba(42, 1);
        let engine = Discovery::new(&db, DiscoveryConfig::default());
        // "Lakers" joined with a numeric score column via metadata.
        let tc = TargetConstraints::parse(
            2,
            &[vec![some("Lakers"), None]],
            &[None, some("DataType=='int' AND MinValue>='0'")],
        )
        .unwrap();
        let result = engine.run(&tc);
        assert!(!result.queries.is_empty());
        // Both home and away join routes should be discoverable.
        let has_home = result
            .queries
            .iter()
            .any(|q| q.sql.contains("HomeTeam = Team.Id"));
        let has_away = result
            .queries
            .iter()
            .any(|q| q.sql.contains("AwayTeam = Team.Id"));
        assert!(
            has_home && has_away,
            "parallel edges should yield both join routes: {:?}",
            result.queries.iter().map(|q| &q.sql).collect::<Vec<_>>()
        );
    }

    #[test]
    fn results_are_ranked_simplest_and_most_specific_first() {
        let db = mondial(42, 1);
        let engine = Discovery::new(&db, DiscoveryConfig::default());
        let result = engine.run(&walkthrough_constraints());
        // Join counts are non-decreasing down the result list.
        let joins: Vec<usize> = result
            .queries
            .iter()
            .map(|q| q.candidate.query.join_count())
            .collect();
        let mut sorted = joins.clone();
        sorted.sort_unstable();
        assert_eq!(joins, sorted, "results must be ordered by join count");
        // Within the 1-join block, estimated sizes are non-decreasing.
        let one_join: Vec<f64> = result
            .queries
            .iter()
            .filter(|q| q.candidate.query.join_count() == 1)
            .map(|q| q.estimated_rows)
            .collect();
        for w in one_join.windows(2) {
            assert!(w[0] <= w[1], "size ranking violated: {w:?}");
        }
        assert!(result.queries.iter().all(|q| q.estimated_rows >= 1.0));
    }

    #[test]
    fn preview_table_renders_headers_and_rows() {
        let db = mondial(42, 1);
        let engine = Discovery::new(&db, DiscoveryConfig::default());
        let result = engine.run(&walkthrough_constraints());
        let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                    FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
        let q = result.queries.iter().find(|q| q.sql == want).unwrap();
        let table = q.preview_table(&db);
        assert!(table.contains("geo_lake.Province"), "{table}");
        assert!(table.contains("Lake.Area"));
        assert!(table.contains("Lake Tahoe"));
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines.len() >= 3, "header + separator + >=1 row");
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn result_limit_caps_returned_queries() {
        let db = mondial(42, 1);
        let config = DiscoveryConfig {
            result_limit: 1,
            ..DiscoveryConfig::default()
        };
        let engine = Discovery::new(&db, config);
        let result = engine.run(&walkthrough_constraints());
        assert_eq!(result.queries.len(), 1);
    }

    #[test]
    fn capped_results_are_a_prefix_of_the_uncapped_ranking() {
        use prism_datasets::{imdb, Resolution, TaskGenConfig, TaskGenerator};
        use rand::{rngs::StdRng, SeedableRng};
        let run = |db: &Database, tc: &TargetConstraints, limit: usize| {
            let config = DiscoveryConfig {
                result_limit: limit,
                ..DiscoveryConfig::with_scheduler(SchedulerKind::PathLength)
            };
            Discovery::new(db, config).run(tc).queries
        };
        let mut rounds: Vec<(Database, Vec<TargetConstraints>)> =
            vec![(mondial(42, 1), vec![walkthrough_constraints()])];
        for (i, db) in [imdb(42, 1), nba(42, 1)].into_iter().enumerate() {
            let taskgen = TaskGenerator::new(&db, TaskGenConfig::default());
            let mut rng = StdRng::seed_from_u64(i as u64);
            let tasks: Vec<TargetConstraints> = [Resolution::Disjunction, Resolution::Metadata]
                .into_iter()
                .flat_map(|r| taskgen.generate_many(r, 2, &mut rng))
                .map(|t| TargetConstraints::parse(t.column_count, &t.samples, &t.metadata))
                .collect::<Result<_, _>>()
                .unwrap();
            rounds.push((db, tasks));
        }
        let mut cuts_inside_a_tie = 0;
        for (db, tasks) in &rounds {
            for tc in tasks {
                let full = run(db, tc, usize::MAX);
                let sqls: Vec<&str> = full.iter().map(|q| q.sql.as_str()).collect();
                assert!(run(db, tc, 0).is_empty());
                for k in [1, 2, 3, 7, 64] {
                    let capped = run(db, tc, k);
                    let got: Vec<&str> = capped.iter().map(|q| q.sql.as_str()).collect();
                    assert_eq!(got, sqls[..k.min(sqls.len())], "limit {k}");
                    if k < full.len() {
                        let cost = |q: &DiscoveredQuery| {
                            (q.candidate.query.join_count(), q.estimated_rows)
                        };
                        cuts_inside_a_tie += usize::from(cost(&full[k - 1]) == cost(&full[k]));
                    }
                }
            }
        }
        assert!(cuts_inside_a_tie > 0, "no cap cut inside a tie");
    }
}
