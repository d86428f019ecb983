//! # prism-bench — experiment harness for the Prism paper's evaluation
//!
//! Shared machinery behind the `exp-*` binaries that regenerate every
//! quantitative claim of the paper; each binary prints its paper-vs-measured
//! summary:
//!
//! * **T1** — the Table 1 / Section 3 walk-through (`exp-table1`),
//! * **E1/E2** — execution time and number of satisfying queries as
//!   constraints loosen (`exp-resolution`, `exp-missing`),
//! * **E3** — filter-validation gap versus the optimum for the Filter
//!   baseline and Prism's Bayesian scheduler (`exp-scheduling`), with the
//!   A1 (no join indicators) and A2 (naive validation) ablations.

use prism_bayes::{BayesEstimator, TrainConfig};
use prism_core::scheduler::{
    oracle_schedule, BayesModel, Engine, PathLengthModel, SchedCtx, Scheduler,
};
use prism_core::{
    candidates::enumerate_candidates, filters::build_filters, related::find_related,
    DiscoveryConfig, DiscoveryService, TargetConstraints,
};
use prism_datasets::{MappingTask, Resolution, TaskGenConfig, TaskGenerator};
use prism_db::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Convert a synthesized task into engine constraints.
pub fn task_constraints(task: &MappingTask) -> TargetConstraints {
    TargetConstraints::parse(task.column_count, &task.samples, &task.metadata)
        .expect("taskgen emits parseable constraints")
}

/// One row of the E1/E2 sweep.
#[derive(Debug, Clone)]
pub struct ResolutionRow {
    pub resolution: Resolution,
    pub tasks: usize,
    /// Fraction of tasks whose ground-truth query was discovered.
    pub truth_found: f64,
    /// Mean number of satisfying queries returned.
    pub avg_queries: f64,
    /// Mean wall-clock time per discovery round.
    pub avg_time: Duration,
    /// Median wall-clock time per discovery round, over the level's tasks.
    pub median_time: Duration,
    /// Mean filter validations per round.
    pub avg_validations: f64,
    /// Rounds that hit the time budget.
    pub timeouts: usize,
}

/// Run the E1/E2 sweep: `n_tasks` discovery rounds at each resolution,
/// on `svc`'s database under its configuration. Every task runs once
/// untimed before the timed pass, so no level pays the service's cold
/// start (plan compiles into the shared cache, the estimator's lazy
/// reservoir dictionaries) for the others. The timed pass takes the
/// levels' tasks in turn, so host drift during the sweep falls on every
/// level alike.
pub fn resolution_sweep(
    svc: &DiscoveryService,
    resolutions: &[Resolution],
    n_tasks: usize,
    seed: u64,
) -> Vec<ResolutionRow> {
    let taskgen = TaskGenerator::new(svc.database(), TaskGenConfig::default());
    let mut levels: Vec<Level> = resolutions
        .iter()
        .map(|&resolution| {
            // Same task seed per resolution: each level re-derives
            // constraints from the same ground-truth population.
            let mut rng = StdRng::seed_from_u64(seed);
            let tasks = taskgen.generate_many(resolution, n_tasks, &mut rng);
            Level {
                resolution,
                constraints: tasks.iter().map(task_constraints).collect(),
                tasks,
                truth_found: 0,
                queries: 0,
                times: Vec::new(),
                validations: 0,
                timeouts: 0,
            }
        })
        .collect();
    for level in &levels {
        for c in &level.constraints {
            svc.run(c);
        }
    }
    let rounds = levels.iter().map(|l| l.tasks.len()).max().unwrap_or(0);
    for i in 0..rounds {
        for level in &mut levels {
            let (Some(task), Some(c)) = (level.tasks.get(i), level.constraints.get(i)) else {
                continue;
            };
            let result = svc.run(c);
            level.truth_found +=
                usize::from(result.queries.iter().any(|q| q.key == task.truth_key));
            level.queries += result.queries.len();
            level.times.push(result.stats.elapsed);
            level.validations += result.stats.validations;
            level.timeouts += usize::from(result.timed_out);
        }
    }
    levels
        .into_iter()
        .map(|mut l| {
            let n = l.tasks.len().max(1);
            let total_time: Duration = l.times.iter().sum();
            l.times.sort_unstable();
            ResolutionRow {
                resolution: l.resolution,
                tasks: l.tasks.len(),
                truth_found: l.truth_found as f64 / n as f64,
                avg_queries: l.queries as f64 / n as f64,
                avg_time: total_time / n as u32,
                median_time: median(&l.times),
                avg_validations: l.validations as f64 / n as f64,
                timeouts: l.timeouts,
            }
        })
        .collect()
}

/// One resolution level of a sweep: its tasks, and the totals of their
/// timed rounds.
struct Level {
    resolution: Resolution,
    tasks: Vec<MappingTask>,
    constraints: Vec<TargetConstraints>,
    truth_found: usize,
    queries: usize,
    times: Vec<Duration>,
    validations: u64,
    timeouts: usize,
}

/// The median of sorted durations (mean of the middle two for an even
/// count; zero when empty).
fn median(sorted: &[Duration]) -> Duration {
    match sorted.len() {
        0 => Duration::ZERO,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2,
    }
}

/// Per-task validation counts of every scheduler (E3 + ablations).
#[derive(Debug, Clone)]
pub struct SchedulingSample {
    pub database: String,
    pub resolution: Resolution,
    pub candidates: usize,
    pub filters: usize,
    pub naive: u64,
    pub path_length: u64,
    pub bayes: u64,
    /// A1 ablation: Bayesian models without join indicators.
    pub bayes_no_ji: u64,
    pub oracle: u64,
}

impl SchedulingSample {
    /// gap(X) = validations(X) − validations(optimum).
    pub fn gap_path(&self) -> i64 {
        self.path_length as i64 - self.oracle as i64
    }

    pub fn gap_bayes(&self) -> i64 {
        self.bayes as i64 - self.oracle as i64
    }

    /// The paper's headline metric: how much of the Filter-vs-optimum gap
    /// Prism's Bayesian scheduling closes. `None` when the baseline already
    /// matches the optimum (no gap to close).
    pub fn gap_reduction(&self) -> Option<f64> {
        let gp = self.gap_path();
        if gp <= 0 {
            return None;
        }
        Some((gp - self.gap_bayes()) as f64 / gp as f64)
    }
}

/// Run the E3 comparison over `n_tasks` tasks per database and resolution.
pub fn scheduling_comparison(
    dbs: &[&Database],
    resolutions: &[Resolution],
    n_tasks: usize,
    seed: u64,
) -> Vec<SchedulingSample> {
    let config = DiscoveryConfig::default();
    let mut out = Vec::new();
    for db in dbs {
        let est = BayesEstimator::train(db, &TrainConfig::default());
        let est_no_ji = BayesEstimator::train(
            db,
            &TrainConfig {
                use_join_indicators: false,
                ..TrainConfig::default()
            },
        );
        let taskgen = TaskGenerator::new(db, TaskGenConfig::default());
        for &resolution in resolutions {
            let mut rng = StdRng::seed_from_u64(seed);
            let tasks = taskgen.generate_many(resolution, n_tasks, &mut rng);
            for task in &tasks {
                let constraints = task_constraints(task);
                let related = find_related(db, &constraints, &config);
                let cands = enumerate_candidates(db, &related, &config, None).candidates;
                if cands.is_empty() {
                    continue;
                }
                let fs = build_filters(db, &cands, &constraints, None);
                let ctx = SchedCtx::new(db, &constraints, &fs);
                let greedy = |model: &dyn prism_core::scheduler::FailureModel| {
                    Scheduler::run(&ctx, Engine::Greedy { model, threads: 1 })
                };
                let naive = Scheduler::run(&ctx, Engine::Naive);
                let path = greedy(&PathLengthModel);
                let bayes = greedy(&BayesModel::new(&est, &constraints));
                let bayes_no_ji = greedy(&BayesModel::new(&est_no_ji, &constraints));
                let (oracle, _) = oracle_schedule(db, &constraints, &fs);
                out.push(SchedulingSample {
                    database: db.name().to_string(),
                    resolution,
                    candidates: cands.len(),
                    filters: fs.len(),
                    naive: naive.validations,
                    path_length: path.validations,
                    bayes: bayes.validations,
                    bayes_no_ji: bayes_no_ji.validations,
                    oracle,
                });
            }
        }
    }
    out
}

/// Aggregate gap-reduction statistics over scheduling samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapSummary {
    /// Tasks where the baseline had a gap to close.
    pub tasks_with_gap: usize,
    pub mean_reduction: f64,
    pub max_reduction: f64,
}

pub fn summarize_gaps(samples: &[SchedulingSample]) -> GapSummary {
    let reductions: Vec<f64> = samples.iter().filter_map(|s| s.gap_reduction()).collect();
    if reductions.is_empty() {
        return GapSummary {
            tasks_with_gap: 0,
            mean_reduction: 0.0,
            max_reduction: 0.0,
        };
    }
    GapSummary {
        tasks_with_gap: reductions.len(),
        mean_reduction: reductions.iter().sum::<f64>() / reductions.len() as f64,
        max_reduction: reductions.iter().cloned().fold(f64::MIN, f64::max),
    }
}

/// Render an aligned text table (first row = header).
pub fn render_table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, cell)| format!("{cell:<width$}", width = widths[i]))
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
        if ri == 0 {
            let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            out.push_str(&sep.join("  "));
            out.push('\n');
        }
    }
    out
}

/// Timed helper for harness binaries.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_datasets::mondial;
    use std::sync::Arc;

    #[test]
    fn resolution_sweep_produces_rows_with_found_truths() {
        let svc = DiscoveryService::new(Arc::new(mondial(42, 1)), DiscoveryConfig::default());
        let rows = resolution_sweep(&svc, &[Resolution::Exact, Resolution::Disjunction], 4, 7);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.tasks >= 3, "{:?}", r);
            assert!(r.truth_found > 0.5, "{:?}", r);
            assert!(r.avg_queries >= 1.0);
            assert!(r.median_time > Duration::ZERO, "{:?}", r);
        }
    }

    #[test]
    fn median_takes_the_middle_of_sorted_durations() {
        let ms = Duration::from_millis;
        assert_eq!(median(&[]), Duration::ZERO);
        assert_eq!(median(&[ms(1), ms(2), ms(9)]), ms(2));
        assert_eq!(median(&[ms(1), ms(3), ms(5), ms(100)]), ms(4));
    }

    #[test]
    fn scheduling_comparison_orders_hold() {
        let db = mondial(42, 1);
        let samples = scheduling_comparison(&[&db], &[Resolution::Disjunction], 5, 13);
        assert!(!samples.is_empty());
        for s in &samples {
            assert!(s.oracle <= s.path_length, "{s:?}");
            assert!(s.oracle <= s.bayes, "{s:?}");
            assert!(s.oracle <= s.naive, "{s:?}");
        }
        let summary = summarize_gaps(&samples);
        assert!(summary.mean_reduction <= 1.0 + 1e-9);
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(&[
            vec!["a".into(), "long header".into()],
            vec!["xyz".into(), "1".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("---"));
        assert!(lines[0].contains("long header"));
    }

    #[test]
    fn gap_reduction_math() {
        let s = SchedulingSample {
            database: "x".into(),
            resolution: Resolution::Exact,
            candidates: 1,
            filters: 1,
            naive: 20,
            path_length: 15,
            bayes: 8,
            bayes_no_ji: 10,
            oracle: 5,
        };
        assert_eq!(s.gap_path(), 10);
        assert_eq!(s.gap_bayes(), 3);
        assert!((s.gap_reduction().unwrap() - 0.7).abs() < 1e-9);
        let no_gap = SchedulingSample {
            path_length: 5,
            ..s
        };
        assert!(no_gap.gap_reduction().is_none());
    }
}
