//! The end-to-end discovery pipeline (Figure 2).
//!
//! `constraints → related columns → candidate queries → filter validation →
//! final schema mapping queries`, under the interactive time budget.
//! `run_round` is the one pipeline; [`crate::service::DiscoveryService`]
//! is its one entry point, which owns the trained Bayesian estimator
//! (training happens "a priori", like the paper's preprocessing), the
//! shared plan cache and the thread budget, and calls it for every round.
//!
//! ## Tier passes
//!
//! A round decides only the candidates its returned list depends on. It
//! enumerates one tier (tree size) at a time (`candidates::Tiers`)
//! until its prefix holds `result_limit` candidates, then decomposes and
//! schedules that prefix under the scheduler's top-k cut
//! ([`crate::scheduler`]). While fewer than `result_limit` of the prefix
//! are accepted, and the round has neither timed out nor been truncated,
//! it appends the next tier, rebuilds the filter set over the longer
//! prefix and schedules it again. A later pass starts afresh: it keeps
//! the round's Bayes memo and the service's warm plans, not the last
//! pass's verdicts. If the deadline cuts a later pass short, the last
//! complete pass's answer stands and the round reports a timeout. The
//! Oracle classifies every candidate in one pass.

use crate::candidates::{Candidate, CandidateSet, RankKey, Tiers};
use crate::config::DiscoveryConfig;
use crate::constraints::TargetConstraints;
use crate::faults::FaultReport;
use crate::filters::{build_filters_with_cache, FilterSet, SharedPlanCache};
use crate::related::find_related;
use crate::scheduler::{
    oracle_schedule, BayesModel, Engine, PathLengthModel, SchedCtx, ScheduleOutcome, Scheduler,
    SchedulerKind,
};
use crate::validate::filter_query;
use prism_bayes::BayesEstimator;
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
    /// Candidates enumerated: the prefix of tiers the round reached.
    pub candidates: usize,
    /// Deduplicated filters of the pass whose verdicts the round returns:
    /// its last tier pass, unless the deadline cut that pass short.
    pub filters: usize,
    /// Filter validations executed, summed over the tier passes; a later
    /// pass validates again what an earlier one decided.
    pub validations: u64,
    /// Filters resolved by success/failure propagation, summed over the
    /// tier passes like `validations`.
    pub implied_successes: u64,
    pub implied_failures: u64,
    /// Hindsight-optimal validations, filled by the Oracle scheduler
    /// (`None` under the others; E3 computes the optimum beside them with
    /// [`crate::scheduler::oracle_schedule`]).
    pub oracle_validations: Option<u64>,
    /// Raw execution work.
    pub exec: ExecStats,
    /// Wall-clock time of the round.
    pub elapsed: Duration,
    /// Candidate enumeration or filter decomposition was truncated.
    pub truncated: bool,
    /// Faults the injection layer fired (0 unless chaos is armed via
    /// [`DiscoveryConfig::faults`]). The filters that faulted are in
    /// [`DiscoveryResult::fault_reports`].
    pub faults_injected: u64,
}

/// The outcome of one discovery round.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryResult {
    pub queries: Vec<DiscoveredQuery>,
    pub stats: DiscoveryStats,
    /// The round hit its time budget before deciding every candidate the
    /// list depends on (the demo reports this as a failure/timeout).
    pub timed_out: bool,
    /// Part of the search space could not be decided: at least one filter
    /// validation faulted, so `queries` is a **sound subset** of the full
    /// answer — every returned query genuinely satisfies the constraints,
    /// but some satisfying queries may be missing. Always equal to
    /// `!fault_reports.is_empty()`; a round cut short by its deadline alone
    /// is `timed_out`, not degraded.
    pub degraded: bool,
    /// One report per faulted filter: its PJ query (as SQL), the contained
    /// panic message or executor error, and how many candidates it
    /// abandoned. Empty on a clean run.
    pub fault_reports: Vec<FaultReport>,
}

impl DiscoveryResult {
    /// User-facing summary of a degraded round, for the demo's Result
    /// panel: one line per faulted filter naming its query and reason.
    /// `None` for a clean round — callers can `if let Some(notice)`
    /// straight into the UI.
    pub fn degradation_notice(&self) -> Option<String> {
        if !self.degraded {
            return None;
        }
        let mut out =
            String::from("partial results: part of the search space could not be validated\n");
        for r in &self.fault_reports {
            out.push_str(&format!(
                "  - {} [{} candidate(s) abandoned]: {}\n",
                r.filter_sql, r.candidates, r.reason,
            ));
        }
        Some(out)
    }
}

/// One discovery round: `constraints → related columns → candidates →
/// filters → scheduled validation → ranked results`. Filters prepare their
/// plans through the service's `plans`, and greedy schedulers validate
/// `threads` filters per round.
pub(crate) fn run_round(
    db: &Database,
    config: &DiscoveryConfig,
    estimator: Option<&BayesEstimator>,
    constraints: &TargetConstraints,
    plans: &SharedPlanCache,
    threads: usize,
) -> DiscoveryResult {
    let start = Instant::now();
    // A budget too large to add to the clock (`Duration::MAX`) is no limit.
    let deadline = start.checked_add(config.time_budget);
    let limit = config.result_limit;
    // The Oracle's count is the hindsight optimum of a full classification.
    let full = config.scheduler == SchedulerKind::Oracle;

    // Step 1: related columns, then candidates tier by tier until the
    // prefix holds `limit` of them.
    let related = find_related(db, constraints, config);
    let mut tiers = Tiers::new(db, &related, config, deadline);
    let mut cand_set = CandidateSet::default();
    while tiers.grow(&mut cand_set) && (full || cand_set.candidates.len() < limit) {}
    let mut keys: Vec<RankKey> = cand_set.candidates.iter().map(|c| c.rank_key(db)).collect();
    let mut stats = DiscoveryStats {
        related_per_column: related.per_column.iter().map(Vec::len).collect(),
        ..DiscoveryStats::default()
    };
    if cand_set.candidates.is_empty() {
        stats.truncated = cand_set.truncated;
        stats.elapsed = start.elapsed();
        return DiscoveryResult {
            queries: Vec::new(),
            stats,
            timed_out: cand_set.truncated,
            degraded: false,
            fault_reports: Vec::new(),
        };
    }

    // Step 2: filters and scheduling, one pass per prefix of tiers. Greedy
    // schedulers validate `threads` filters per round: one inline at
    // `threads == 1`, a batch on the worker pool otherwise. One Bayes model
    // serves every pass: its memo is keyed by constraint, not filter id.
    let bayes = estimator.map(|est| BayesModel::new(est, constraints));
    // The last pass that decided every candidate of its prefix.
    let mut last: Option<(FilterSet, ScheduleOutcome)> = None;
    let (fs, outcome) = loop {
        let fs =
            build_filters_with_cache(db, &cand_set.candidates, constraints, deadline, Some(plans));
        let mut ctx = SchedCtx::new(db, constraints, &fs)
            .with_deadline(deadline)
            .with_faults(config.faults.clone());
        if !full {
            ctx = ctx.with_top_k(limit, &keys);
        }
        let greedy = |model: &dyn crate::scheduler::FailureModel| {
            Scheduler::run(&ctx, Engine::Greedy { model, threads })
        };
        let outcome: ScheduleOutcome = match config.scheduler {
            SchedulerKind::Naive => Scheduler::run(&ctx, Engine::Naive),
            SchedulerKind::PathLength => greedy(&PathLengthModel),
            SchedulerKind::Bayes => greedy(
                bayes
                    .as_ref()
                    .expect("Bayes scheduler requires a trained estimator"),
            ),
            SchedulerKind::Oracle => {
                let (v, o) = oracle_schedule(db, constraints, &fs);
                stats.oracle_validations = Some(v);
                o
            }
        };
        stats.validations += outcome.validations;
        stats.implied_successes += outcome.implied_successes;
        stats.implied_failures += outcome.implied_failures;
        stats.exec.merge(&outcome.exec);
        stats.faults_injected += outcome.faults_injected;
        stats.truncated |= fs.truncated;
        // A later pass the deadline cut short may have left part of the
        // last pass's prefix undecided: the last pass's answer stands.
        if outcome.timed_out || fs.truncated {
            if let Some((fs, outcome)) = last {
                break (
                    fs,
                    ScheduleOutcome {
                        timed_out: true,
                        ..outcome
                    },
                );
            }
        }
        // Every later tier ranks below this prefix: grow it only while the
        // prefix cannot fill the list and every candidate of it was decided.
        let undecided = outcome.timed_out || cand_set.truncated || fs.truncated;
        if full || outcome.accepted.len() >= limit || undecided {
            break (fs, outcome);
        }
        let before = cand_set.candidates.len();
        while cand_set.candidates.len() == before && tiers.grow(&mut cand_set) {}
        if cand_set.candidates.len() == before {
            // No tier is left, or the deadline stopped the next one.
            let timed_out = deadline.is_some_and(|d| Instant::now() >= d);
            break (
                fs,
                ScheduleOutcome {
                    timed_out,
                    ..outcome
                },
            );
        }
        keys.extend(cand_set.candidates[before..].iter().map(|c| c.rank_key(db)));
        last = Some((fs, outcome));
    };
    stats.candidates = cand_set.candidates.len();
    stats.filters = fs.len();
    stats.truncated |= cand_set.truncated;

    // Graceful degradation: contained faults shrink the answer instead of
    // sinking the round. Name each undecidable filter (as SQL — the user's
    // vocabulary) so the session can show *which* part of the search space
    // the partial result does not cover.
    let fault_reports: Vec<FaultReport> = outcome
        .faulted
        .iter()
        .map(|ff| FaultReport {
            filter_sql: render_sql(&filter_query(db, fs.filter(ff.filter)), db),
            reason: ff.reason.clone(),
            candidates: ff.candidates.len(),
        })
        .collect();

    // Materialize the Result section, ranked for the browsing user by
    // rank key (fewer joins, then smaller estimated results), then SQL for
    // determinism. Ranking happens before the result cap so the cap keeps
    // the best. SQL is rendered only at or above the cap's key boundary:
    // ties on the boundary are kept, because the SQL tie-break decides
    // which of them make the cap. Candidate id last makes the order total;
    // SQL is unique per candidate, so it never decides.
    let mut ranked: Vec<(RankKey, u32)> = outcome
        .accepted
        .iter()
        .map(|&cid| (keys[cid as usize], cid))
        .collect();
    if limit == 0 {
        ranked.clear();
    } else if limit < ranked.len() {
        let (_, &mut (boundary, _), _) = ranked.select_nth_unstable_by_key(limit - 1, |r| r.0);
        ranked.retain(|r| r.0 <= boundary);
    }
    let mut ranked: Vec<(RankKey, String, u32)> = ranked
        .into_iter()
        .map(|(key, cid)| {
            let sql = render_sql(&cand_set.candidates[cid as usize].query, db);
            (key, sql, cid)
        })
        .collect();
    ranked.sort_unstable();
    let mut queries = Vec::new();
    for (rank, sql, cid) in ranked.into_iter().take(limit) {
        let candidate = cand_set.candidates[cid as usize].clone();
        let key = canonical_key(&candidate.query, db);
        // A preview has no deadline and no predicates, so only the query's
        // validation can fail, and candidate queries are valid by
        // construction: a failure is a bug, reported by the service's
        // round boundary as a degraded round.
        let preview = candidate
            .query
            .execute(db, 5)
            .expect("candidate queries are structurally valid by construction");
        queries.push(DiscoveredQuery {
            candidate,
            sql,
            key,
            preview,
            estimated_rows: rank.estimated_rows,
        });
    }
    stats.elapsed = start.elapsed();
    DiscoveryResult {
        queries,
        stats,
        timed_out: outcome.timed_out,
        degraded: !fault_reports.is_empty(),
        fault_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::DiscoveryService;
    use prism_datasets::{mondial, nba};
    use std::sync::Arc;

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

    fn service(db: Database, config: DiscoveryConfig) -> DiscoveryService {
        DiscoveryService::new(Arc::new(db), config)
    }

    /// One fault-free round. The service contains a coordinator panic as
    /// an empty degraded result, which would pass an emptiness check.
    fn run(svc: &DiscoveryService, tc: &TargetConstraints) -> DiscoveryResult {
        let result = svc.run(tc);
        assert!(!result.degraded, "{:?}", result.fault_reports);
        result
    }

    #[test]
    fn end_to_end_walkthrough_finds_the_desired_query() {
        let svc = service(mondial(42, 1), DiscoveryConfig::default());
        let result = run(&svc, &walkthrough_constraints());
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

    /// Every scheduler classifies every candidate at an unbounded cap, so
    /// the Oracle's hindsight count bounds Bayes's there. At the default
    /// cap, Bayes decides only what the returned list needs.
    #[test]
    fn all_schedulers_find_the_same_queries() {
        let db = Arc::new(mondial(42, 1));
        let tc = walkthrough_constraints();
        let mut keys: Vec<Vec<String>> = Vec::new();
        let mut bayes_validations = 0;
        for kind in [
            SchedulerKind::Naive,
            SchedulerKind::PathLength,
            SchedulerKind::Bayes,
            SchedulerKind::Oracle,
        ] {
            let config = DiscoveryConfig {
                result_limit: usize::MAX,
                ..DiscoveryConfig::with_scheduler(kind)
            };
            let svc = DiscoveryService::new(Arc::clone(&db), config);
            let result = run(&svc, &tc);
            // Only the Oracle scheduler computes the hindsight optimum, and
            // no scheduler validates fewer filters than it.
            match kind {
                SchedulerKind::Oracle => {
                    let oracle = result.stats.oracle_validations.expect("Oracle fills it");
                    assert!(
                        oracle <= bayes_validations,
                        "{oracle} > {bayes_validations}"
                    );
                }
                _ => assert_eq!(result.stats.oracle_validations, None, "{kind:?}"),
            }
            if kind == SchedulerKind::Bayes {
                bayes_validations = result.stats.validations;
                let svc = DiscoveryService::new(Arc::clone(&db), DiscoveryConfig::default());
                let capped = run(&svc, &tc);
                assert!(result.queries.len() > capped.queries.len(), "the cap cuts");
                assert!(
                    capped.stats.validations < bayes_validations,
                    "capped {} >= unbounded {bayes_validations}",
                    capped.stats.validations
                );
            }
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
        let svc = service(mondial(42, 1), DiscoveryConfig::default());
        let tc = TargetConstraints::parse(1, &[vec![some("Atlantis Prime")]], &[]).unwrap();
        let result = run(&svc, &tc);
        assert!(result.queries.is_empty());
        assert!(!result.timed_out);
        assert_eq!(result.stats.candidates, 0);
    }

    #[test]
    fn tiny_time_budget_reports_timeout() {
        let config = DiscoveryConfig {
            time_budget: Duration::from_nanos(1),
            ..DiscoveryConfig::default()
        };
        let svc = service(mondial(42, 2), config);
        let result = run(&svc, &walkthrough_constraints());
        assert!(result.timed_out || result.queries.is_empty());
    }

    /// `Duration::MAX` asks for no limit. Adding it to the clock overflows,
    /// which once panicked the round coordinator into an empty degraded
    /// result.
    #[test]
    fn unbounded_time_budget_means_no_deadline() {
        let db = Arc::new(mondial(42, 1));
        let tc = walkthrough_constraints();
        let ranked = |r: &DiscoveryResult| -> Vec<String> {
            r.queries.iter().map(|q| q.key.clone()).collect()
        };
        for threads in [1, 4] {
            let bounded = DiscoveryConfig {
                validation_threads: threads,
                ..DiscoveryConfig::default()
            };
            let unbounded = DiscoveryConfig {
                time_budget: Duration::MAX,
                ..bounded.clone()
            };
            let want = run(&DiscoveryService::new(Arc::clone(&db), bounded), &tc);
            let got = run(&DiscoveryService::new(Arc::clone(&db), unbounded), &tc);
            assert!(!got.timed_out, "{threads} threads");
            assert!(!got.queries.is_empty(), "{threads} threads");
            assert_eq!(ranked(&got), ranked(&want), "{threads} threads");
        }
    }

    #[test]
    fn works_on_nba_with_parallel_edges() {
        let svc = service(nba(42, 1), DiscoveryConfig::default());
        // "Lakers" joined with a numeric score column via metadata.
        let tc = TargetConstraints::parse(
            2,
            &[vec![some("Lakers"), None]],
            &[None, some("DataType=='int' AND MinValue>='0'")],
        )
        .unwrap();
        let result = run(&svc, &tc);
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
        let svc = service(mondial(42, 1), DiscoveryConfig::default());
        let result = run(&svc, &walkthrough_constraints());
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
        let svc = service(mondial(42, 1), DiscoveryConfig::default());
        let result = run(&svc, &walkthrough_constraints());
        let want = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                    FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";
        let q = result.queries.iter().find(|q| q.sql == want).unwrap();
        let table = q.preview_table(svc.database());
        assert!(table.contains("geo_lake.Province"), "{table}");
        assert!(table.contains("Lake.Area"));
        assert!(table.contains("Lake Tahoe"));
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines.len() >= 3, "header + separator + >=1 row");
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn result_limit_caps_returned_queries() {
        let config = DiscoveryConfig {
            result_limit: 1,
            ..DiscoveryConfig::default()
        };
        let svc = service(mondial(42, 1), config);
        let result = run(&svc, &walkthrough_constraints());
        assert_eq!(result.queries.len(), 1);
    }

    #[test]
    fn capped_results_are_a_prefix_of_the_uncapped_ranking() {
        use prism_datasets::{imdb, Resolution, TaskGenConfig, TaskGenerator};
        use rand::{rngs::StdRng, SeedableRng};
        let ranked = |db: &Arc<Database>, tc: &TargetConstraints, limit: usize| {
            let config = DiscoveryConfig {
                result_limit: limit,
                ..DiscoveryConfig::with_scheduler(SchedulerKind::PathLength)
            };
            run(&DiscoveryService::new(Arc::clone(db), config), tc).queries
        };
        let mut rounds: Vec<(Arc<Database>, Vec<TargetConstraints>)> =
            vec![(Arc::new(mondial(42, 1)), vec![walkthrough_constraints()])];
        for (i, db) in [imdb(42, 1), nba(42, 1)].into_iter().enumerate() {
            let taskgen = TaskGenerator::new(&db, TaskGenConfig::default());
            let mut rng = StdRng::seed_from_u64(i as u64);
            let tasks: Vec<TargetConstraints> = [Resolution::Disjunction, Resolution::Metadata]
                .into_iter()
                .flat_map(|r| taskgen.generate_many(r, 2, &mut rng))
                .map(|t| TargetConstraints::parse(t.column_count, &t.samples, &t.metadata))
                .collect::<Result<_, _>>()
                .unwrap();
            rounds.push((Arc::new(db), tasks));
        }
        let mut cuts_inside_a_tie = 0;
        for (db, tasks) in &rounds {
            for tc in tasks {
                let full = ranked(db, tc, usize::MAX);
                let sqls: Vec<&str> = full.iter().map(|q| q.sql.as_str()).collect();
                assert!(ranked(db, tc, 0).is_empty());
                for k in [1, 2, 3, 7, 64] {
                    let capped = ranked(db, tc, k);
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
