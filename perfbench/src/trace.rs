//! The traced run: the workload's tasks fed through each layer's public
//! entry point in the order `run_round` calls them, with one span per
//! layer call and counts taken from the structs each layer returns. All
//! timing happens here, outside the library.

use crate::speed::SpeedProbe;
use crate::stats::ratio;
use crate::workload::{Expected, Task, Workload, RESULT_LIMIT, WARM_PASSES};
use prism_bayes::{BayesEstimator, TrainConfig};
use prism_core::candidates::{enumerate_candidates, Candidate};
use prism_core::filters::{build_filters_with_cache, SharedPlanCache};
use prism_core::related::find_related;
use prism_core::scheduler::{oracle_schedule, BayesModel, FailureModel};
use prism_core::{DiscoveryService, Engine, FilterId, FilterSet, SchedCtx, Scheduler};
use prism_db::{canonical_key, render_sql, Database};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One layer call. `parent` is the index of the enclosing span in the
/// run's span list; spans of one round share `round`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub round: u32,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: Option<u32>, round: u32) -> u32 {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            round,
        });
        (spans.len() - 1) as u32
    }

    pub fn close(&self, id: u32) {
        let end = self.now_ns();
        self.spans.borrow_mut()[id as usize].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        round: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, round);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Times every failure-probability call of the wrapped model as a child
/// span of the scheduler span.
struct TimedModel<'a> {
    inner: &'a dyn FailureModel,
    tracer: &'a Tracer,
    parent: u32,
    round: u32,
    calls: Cell<u64>,
}

impl FailureModel for TimedModel<'_> {
    fn failure_probability(&self, db: &Database, fs: &FilterSet, f: FilterId) -> f64 {
        self.calls.set(self.calls.get() + 1);
        let id = self
            .tracer
            .open("bayes.score", Some(self.parent), self.round);
        let p = self.inner.failure_probability(db, fs, f);
        self.tracer.close(id);
        p
    }
}

/// Counts summed over the rounds of one pass.
#[derive(Default)]
pub struct Counts {
    pub rounds: u64,
    pub related_columns: u64,
    pub candidates: u64,
    pub truncated_rounds: u64,
    pub filters: u64,
    pub validations: u64,
    pub implied: u64,
    pub oracle_validations: u64,
    pub speculative_scores: u64,
    pub speculative_wasted: u64,
    pub rounds_overlapped: u64,
    pub stolen: u64,
    pub score_calls: u64,
    pub rows_examined: u64,
    pub rows_estimated: u64,
    pub max_round_rows_examined: u64,
    pub blocks_skipped: u64,
    pub index_probes: u64,
    pub plans_built: u64,
    pub queries: u64,
}

/// Per-layer results of the traced run.
pub struct TraceRun {
    pub spans: Vec<Span>,
    /// Counts of the traced pass.
    pub traced: Counts,
    /// Plans compiled during the first warm-up pass, which starts from
    /// empty caches.
    pub cold_plans_built: u64,
    pub cold_hit_ratio: f64,
    pub plan_cache_entries: usize,
    pub train_ms: f64,
    pub mismatches: Vec<String>,
    /// Kernel samples taken between the traced rounds, outside their spans.
    pub speed: SpeedProbe,
}

/// What the traced rounds of one database share, as a service would.
struct Source<'a> {
    db: &'a Database,
    estimator: BayesEstimator,
    plans: SharedPlanCache,
}

/// Feed every task through the layers: `WARM_PASSES` warm-up passes in
/// corpus order, as the service gets before its timed rounds, then one
/// traced pass. Shared plans re-plan adaptively from the rounds that run
/// them, so the traced pass starts from as many passes of adaptation as
/// the timed rounds do. The plan-cache counters come from the first
/// warm-up pass, which starts from empty caches; the spans and every
/// other counter come from the traced pass. `oracle` adds the hindsight
/// validation count of each traced round, outside its spans.
pub fn traced_run(
    w: Workload,
    services: &[DiscoveryService],
    tasks: &[Task],
    expected: &[Expected],
    oracle: bool,
) -> TraceRun {
    let config = w.config();
    let train_start = Instant::now();
    let sources: Vec<Source<'_>> = services
        .iter()
        .map(|s| Source {
            db: s.database(),
            estimator: BayesEstimator::train(s.database(), &TrainConfig::default()),
            plans: SharedPlanCache::new(),
        })
        .collect();
    let train_ms = train_start.elapsed().as_secs_f64() * 1e3;

    let mut mismatches = Vec::new();
    let mut pass = |name: &str, tracer: &Tracer, oracle: bool, speed: &mut SpeedProbe| {
        let mut counts = Counts::default();
        for (i, (t, e)) in tasks.iter().zip(expected).enumerate() {
            let keys = traced_round(
                tracer,
                i as u32,
                &sources[t.db],
                &config,
                t,
                &mut counts,
                oracle,
            );
            if keys != e.warm {
                mismatches.push(format!(
                    "{name} pass accepted different queries than the untraced round on {}: \
                     {} vs {} keys (truth: {})",
                    t.label,
                    keys.len(),
                    e.warm.len(),
                    t.truth_sql
                ));
            }
            speed.tick();
        }
        counts
    };
    let cold = pass("warm-up", &Tracer::new(), false, &mut SpeedProbe::default());
    let (hits, misses, entries) = sources.iter().fold((0, 0, 0), |(h, m, n), s| {
        let st = s.plans.stats();
        (h + st.hits, m + st.misses, n + st.entries)
    });
    for _ in 1..WARM_PASSES {
        pass("warm-up", &Tracer::new(), false, &mut SpeedProbe::default());
    }
    let tracer = Tracer::new();
    let mut speed = SpeedProbe::default();
    let traced = pass("traced", &tracer, oracle, &mut speed);
    TraceRun {
        spans: tracer.into_spans(),
        traced,
        cold_plans_built: cold.plans_built,
        cold_hit_ratio: ratio(hits as f64, (hits + misses) as f64),
        plan_cache_entries: entries,
        train_ms,
        mismatches,
        speed,
    }
}

/// One round through the layer entry points, mirroring `run_round`.
/// Returns the ranked keys.
fn traced_round(
    tracer: &Tracer,
    round: u32,
    src: &Source<'_>,
    config: &prism_core::DiscoveryConfig,
    t: &Task,
    counts: &mut Counts,
    oracle: bool,
) -> Vec<String> {
    let db = src.db;
    let root = tracer.open("round", None, round);
    let parent = Some(root);
    let deadline = Instant::now() + config.time_budget;
    let constraints = tracer.span("constraints.parse", parent, round, || t.constraints());
    let related = tracer.span("related", parent, round, || {
        find_related(db, &constraints, config)
    });
    let cand_set = tracer.span("candidates", parent, round, || {
        enumerate_candidates(db, &related, config, Some(deadline))
    });
    counts.rounds += 1;
    counts.related_columns += related.per_column.iter().map(Vec::len).sum::<usize>() as u64;
    counts.candidates += cand_set.candidates.len() as u64;
    counts.truncated_rounds += u64::from(cand_set.truncated);
    if cand_set.candidates.is_empty() {
        tracer.close(root);
        return Vec::new();
    }
    let fs = tracer.span("filters", parent, round, || {
        build_filters_with_cache(
            db,
            &cand_set.candidates,
            &constraints,
            Some(deadline),
            Some(&src.plans),
        )
    });
    counts.filters += fs.len() as u64;

    let ctx = SchedCtx::new(db, &constraints, &fs)
        .with_deadline(Some(deadline))
        .with_faults(config.faults.clone());
    let bayes = BayesModel::new(&src.estimator, &constraints);
    let sched = tracer.open("scheduler", parent, round);
    let model = TimedModel {
        inner: &bayes,
        tracer,
        parent: sched,
        round,
        calls: Cell::new(0),
    };
    // The engine `run_round` picks for a lone client: the lease grants
    // the configured thread count.
    let threads = config.validation_threads;
    let outcome = if config.pipeline && threads > 1 {
        Scheduler::run(
            &ctx,
            Engine::Pipelined {
                model: &model,
                threads,
            },
        )
    } else {
        Scheduler::run(
            &ctx,
            Engine::Greedy {
                model: &model,
                threads,
            },
        )
    };
    tracer.close(sched);
    counts.score_calls += model.calls.get();
    counts.validations += outcome.validations;
    counts.implied += outcome.implied_successes + outcome.implied_failures;
    counts.speculative_scores += outcome.speculative_scores;
    counts.speculative_wasted += outcome.speculative_wasted;
    counts.rounds_overlapped += outcome.rounds_overlapped;
    counts.stolen += outcome.stolen;
    let exec = &outcome.exec;
    counts.rows_examined += exec.rows_examined;
    counts.rows_estimated += exec.rows_estimated;
    counts.max_round_rows_examined = counts.max_round_rows_examined.max(exec.rows_examined);
    counts.blocks_skipped += exec.blocks_skipped;
    counts.index_probes += exec.index_probes;
    counts.plans_built += exec.plans_built;

    let keys = tracer.span("discovery.rank", parent, round, || {
        rank(db, &cand_set.candidates, &outcome.accepted)
    });
    counts.queries += keys.len() as u64;
    tracer.close(root);
    if oracle {
        counts.oracle_validations += oracle_schedule(db, &constraints, &fs).0;
    }
    keys
}

/// Ranking and preview exactly as `run_round` materializes the Result
/// section: fewest joins, then smallest estimated result, then SQL; keys
/// and five-row previews for the kept queries.
fn rank(db: &Database, cands: &[Candidate], accepted: &[u32]) -> Vec<String> {
    let mut ranked: Vec<(usize, f64, String, u32)> = accepted
        .iter()
        .map(|&cid| {
            let cand = &cands[cid as usize];
            (
                cand.query.join_count(),
                estimate_result_rows(db, cand),
                render_sql(&cand.query, db),
                cid,
            )
        })
        .collect();
    ranked.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| a.1.total_cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    ranked
        .into_iter()
        .take(RESULT_LIMIT)
        .map(|(_, _, _, cid)| {
            let q = &cands[cid as usize].query;
            let key = canonical_key(q, db);
            std::hint::black_box(q.execute(db, 5).unwrap_or_default());
            key
        })
        .collect()
}

/// The System R key-join estimate `run_round` ranks by.
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

/// Total and self time per span name. Self time is a span's duration minus
/// the part of its interval its child spans cover.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = covered_ns(&mut children[i], s.start_ns, s.end_ns);
        let e = out.entry(s.name).or_default();
        e.spans += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Durations of the root `round` spans, in ms.
pub fn round_ms(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Write spans as JSON lines; `parent` is the 0-based line of the parent.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.round
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("round", 0, 100, None),
            span("scheduler", 10, 60, Some(0)),
            span("bayes.score", 20, 30, Some(1)),
            span("bayes.score", 25, 40, Some(1)),
            span("discovery.rank", 70, 90, Some(0)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["round"].total_ns, 100);
        assert_eq!(t["round"].self_ns, 100 - 50 - 20);
        // Overlapping children count once: 20..40 covers 20 ns.
        assert_eq!(t["scheduler"].self_ns, 50 - 20);
        assert_eq!(t["bayes.score"].spans, 2);
        assert_eq!(t["bayes.score"].total_ns, 25);
        assert_eq!(round_ms(&spans), vec![100.0 / 1e6]);
    }
}
