//! The two workloads: a fixed corpus each, timed set-up, reference accept
//! sets, and the closed-loop client that replays the tasks.
//!
//! Each workload's databases and task list are generated from
//! `CORPUS_SEED`, not from `--seed`. Tasks differ in cost by up to four
//! orders of magnitude (a skewed hub round against a sub-millisecond one),
//! so a corpus drawn per seed changes what a run measures: on a 2-vCPU VM,
//! five runs with per-seed corpora spread by 0.4 (median round) to 1.5
//! (95th percentile) of their median. `--seed` instead orders the replay,
//! and the timed phase runs whole passes, so every run times every task
//! alike.

use crate::check::{check_round, Observed, Tally};
use crate::speed::SpeedProbe;
use crate::stats::{median, trimmed_mean};
use prism_core::candidates::enumerate_candidates;
use prism_core::filters::build_filters;
use prism_core::related::find_related;
use prism_core::{
    DiscoveryConfig, DiscoveryService, Engine, SchedCtx, Scheduler, SchedulerKind, SessionConfig,
    SessionHandle, TargetConstraints,
};
use prism_datasets::{imdb, mondial, nba, skewed, Resolution, TaskGenConfig, TaskGenerator};
use prism_db::{canonical_key, render_sql, ColumnRef, Database, DatabaseBuilder, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries a round returns at most (the demo's Result list).
pub const RESULT_LIMIT: usize = 64;
/// Validation threads any workload may keep busy (sized for two cores).
pub const THREAD_BUDGET: usize = 2;
/// A run sets up at least `SETUP_MIN_REPS` times and for at least
/// `SETUP_MIN_SECONDS`; `setup_s` is the median, scaled by the set-ups'
/// host slowdown. `paper_mix` sets up in 10-20 ms, so the time floor gives
/// it 100-200 samples spread over as long a stretch as `skewed_join`'s 15
/// CSV ingests.
pub const SETUP_MIN_REPS: usize = 15;
pub const SETUP_MIN_SECONDS: f64 = 2.0;
/// Host-speed kernel samples after each set-up: 60 or more per run, even
/// for `skewed_join`'s 15 set-ups.
const KERNEL_SAMPLES_PER_SETUP: usize = 4;
/// Tasks a corpus needs before the 95th percentile of their mean rounds
/// has ten tasks beyond it.
pub const MIN_TASKS: usize = 200;
/// Timed passes over the corpus a run makes at least, so that every
/// task's mean is taken over three or more rounds.
pub const MIN_TIMED_PASSES: usize = 3;
/// Warm-up passes over the corpus before the timed phase; see [`prepare`].
pub const WARM_PASSES: usize = 3;
/// Seed of every workload's databases and task generator (the
/// repository's conventional demo seed).
pub const CORPUS_SEED: u64 = 42;

const PAPER_SCALE: usize = 4;
const PAPER_TASKS_PER_CELL: usize = 14;
const SKEW_SCALE: usize = 15;
const SKEW_EXPONENT: f64 = 1.2;
const SKEW_TASKS_PER_RESOLUTION: usize = 150;

/// The Section 3 walk-through (Table 1): Lake Tahoe with its provinces and
/// a non-negative decimal area.
const WALKTHROUGH_SQL: &str = "SELECT geo_lake.Province, Lake.Name, Lake.Area \
                               FROM Lake, geo_lake WHERE geo_lake.Lake = Lake.Name";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMix,
    SkewedJoin,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::PaperMix, Workload::SkewedJoin];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::SkewedJoin => "skewed_join",
        }
    }

    /// Every `DiscoveryConfig` field pinned here, so nothing measured
    /// depends on the `PRISM_*` defaults the library reads from the
    /// environment.
    pub fn config(self) -> DiscoveryConfig {
        DiscoveryConfig {
            max_tables: 4,
            max_candidates: 20_000,
            max_related_per_column: 64,
            time_budget: Duration::from_secs(60),
            result_limit: RESULT_LIMIT,
            scheduler: SchedulerKind::Bayes,
            // One validation thread: on a 2-vCPU shared host, rounds on the
            // two-thread pipelined engine wait on cross-vCPU hand-offs; over
            // ten runs of the same code their median round spread by 0.40-0.56
            // of its median, against 0.25 on the sequential loop.
            validation_threads: 1,
            pipeline: true,
            faults: None,
        }
    }

    /// Dataset scales, for the run's context record.
    pub fn scales(self) -> String {
        match self {
            Workload::PaperMix => format!("Mondial/IMDB/NBA x{PAPER_SCALE}"),
            Workload::SkewedJoin => format!("Skewed x{SKEW_SCALE}, zipf {SKEW_EXPONENT}"),
        }
    }
}

/// `skewed_join`'s generated tables rendered to CSV text, made before the
/// set-up clock starts.
pub struct CsvDump {
    /// `(table name, CSV text with a header row)`, in declaration order.
    pub tables: Vec<(String, String)>,
    /// `(from table, from column, to table, to column)`.
    pub foreign_keys: Vec<(String, String, String, String)>,
}

/// The set-up inputs `w` ingests: CSV for `skewed_join`, none for the
/// generator workloads.
pub fn csv_inputs(w: Workload) -> Option<CsvDump> {
    (w == Workload::SkewedJoin).then(|| dump_csv(&skewed(CORPUS_SEED, SKEW_SCALE, SKEW_EXPONENT)))
}

fn dump_csv(db: &Database) -> CsvDump {
    let catalog = db.catalog();
    let tables = catalog
        .tables()
        .map(|(tid, schema)| {
            let mut text = String::new();
            let header: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
            text.push_str(&header.join(","));
            text.push('\n');
            for row in 0..db.row_count(tid) as u32 {
                for c in 0..schema.arity() as u32 {
                    if c > 0 {
                        text.push(',');
                    }
                    push_csv_field(&mut text, &db.value(ColumnRef::new(tid, c), row));
                }
                text.push('\n');
            }
            (schema.name.clone(), text)
        })
        .collect();
    let foreign_keys = catalog
        .foreign_keys()
        .iter()
        .map(|fk| {
            let name = |c: ColumnRef| {
                let t = catalog.table(c.table);
                (t.name.clone(), t.column(c.column).name.clone())
            };
            let (ft, fc) = name(fk.from);
            let (tt, tc) = name(fk.to);
            (ft, fc, tt, tc)
        })
        .collect();
    CsvDump {
        tables,
        foreign_keys,
    }
}

fn push_csv_field(out: &mut String, v: &Value) {
    match v {
        Value::Null => {}
        Value::Text(s) if s.contains([',', '"', '\n', '\r']) || s.trim() != s => {
            out.push('"');
            out.push_str(&s.replace('"', "\"\""));
            out.push('"');
        }
        other => out.push_str(&other.to_string()),
    }
}

/// One timed set-up: database build plus service construction (Bayes
/// training included).
struct Setup {
    services: Vec<DiscoveryService>,
    db_build: Duration,
    total: Duration,
}

fn setup(w: Workload, csv: Option<&CsvDump>) -> Setup {
    let seed = CORPUS_SEED;
    let start = Instant::now();
    let dbs: Vec<Database> = match csv {
        Some(dump) => vec![ingest(dump)],
        None => vec![
            mondial(seed, PAPER_SCALE),
            imdb(seed, PAPER_SCALE),
            nba(seed, PAPER_SCALE),
        ],
    };
    let db_build = start.elapsed();
    let config = w.config();
    let services = dbs
        .into_iter()
        .map(|db| DiscoveryService::with_thread_budget(Arc::new(db), config.clone(), THREAD_BUDGET))
        .collect();
    Setup {
        services,
        db_build,
        total: start.elapsed(),
    }
}

fn ingest(dump: &CsvDump) -> Database {
    let mut b = DatabaseBuilder::new("Skewed");
    for (name, text) in &dump.tables {
        b.add_table_from_csv(name.as_str(), text)
            .expect("rendered CSV ingests");
    }
    for (ft, fc, tt, tc) in &dump.foreign_keys {
        b.add_foreign_key(ft, fc, tt, tc)
            .expect("foreign key columns exist");
    }
    b.build()
}

/// The timed set-ups of one run.
pub struct Setups {
    /// The last set-up's services.
    pub services: Vec<DiscoveryService>,
    /// Median seconds of a whole set-up and of its database build.
    pub total_s: f64,
    pub build_s: f64,
    pub reps: usize,
    /// Kernel samples taken between the set-ups, `KERNEL_SAMPLES_PER_SETUP`
    /// after each.
    pub speed: SpeedProbe,
}

/// Set up repeatedly (see `SETUP_MIN_REPS`), keeping the last set of
/// services.
pub fn repeated_setup(w: Workload, csv: Option<&CsvDump>) -> Setups {
    let mut totals = Vec::new();
    let mut builds = Vec::new();
    let mut kept = Vec::new();
    let mut speed = SpeedProbe::default();
    let start = Instant::now();
    while totals.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS {
        kept.clear();
        let s = setup(w, csv);
        totals.push(s.total.as_secs_f64());
        builds.push(s.db_build.as_secs_f64());
        kept = s.services;
        for _ in 0..KERNEL_SAMPLES_PER_SETUP {
            speed.sample();
        }
    }
    let med = |v: &[f64]| median(v).expect("at least one set-up");
    Setups {
        services: kept,
        total_s: med(&totals),
        build_s: med(&builds),
        reps: totals.len(),
        speed,
    }
}

/// One interactive task: the constraint grid a user types, and the query
/// that generated it.
#[derive(Debug, Clone)]
pub struct Task {
    /// Index of the service (database) the task targets.
    pub db: usize,
    /// The (database, resolution) stream the task belongs to.
    pub stream: usize,
    pub label: String,
    pub columns: usize,
    pub samples: Vec<Vec<Option<String>>>,
    pub metadata: Vec<Option<String>>,
    pub truth_sql: String,
    /// Canonical key of the generating query; `None` until resolved from
    /// the reference (the walk-through is given as SQL).
    pub truth_key: Option<String>,
}

impl Task {
    pub fn constraints(&self) -> TargetConstraints {
        TargetConstraints::parse(self.columns, &self.samples, &self.metadata)
            .expect("task grids parse")
    }
}

/// The workload's task corpus, one stream per (database, resolution).
pub fn tasks(w: Workload, services: &[DiscoveryService]) -> Vec<Task> {
    let (resolutions, per_stream, gen_config): (&[Resolution], usize, TaskGenConfig) = match w {
        Workload::PaperMix => (
            &Resolution::ALL,
            PAPER_TASKS_PER_CELL,
            TaskGenConfig::default(),
        ),
        Workload::SkewedJoin => (
            &[Resolution::Disjunction, Resolution::Range],
            SKEW_TASKS_PER_RESOLUTION,
            TaskGenConfig::default(),
        ),
    };
    let mut out = Vec::new();
    if w == Workload::PaperMix {
        out.push(walkthrough());
    }
    let mut stream = out.len();
    for (d, svc) in services.iter().enumerate() {
        let db = svc.database();
        let generator = TaskGenerator::new(db, gen_config.clone());
        for (r, &res) in resolutions.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(CORPUS_SEED ^ (((d * 16 + r) as u64) << 32));
            let generated = generator.generate_many(res, per_stream, &mut rng);
            out.extend(generated.into_iter().enumerate().map(|(i, t)| Task {
                db: d,
                stream,
                label: format!("{}/{}#{i}", db.name(), res.name()),
                columns: t.column_count,
                samples: t.samples,
                metadata: t.metadata,
                truth_sql: t.truth_sql,
                truth_key: Some(t.truth_key),
            }));
            stream += 1;
        }
    }
    out
}

fn walkthrough() -> Task {
    let s = |x: &str| Some(x.to_string());
    Task {
        db: 0,
        stream: 0,
        label: "Mondial/table1".to_string(),
        columns: 3,
        samples: vec![vec![s("California || Nevada"), s("Lake Tahoe"), None]],
        metadata: vec![None, None, s("DataType=='decimal' AND MinValue>='0'")],
        truth_sql: WALKTHROUGH_SQL.to_string(),
        truth_key: None,
    }
}

/// Canonical keys the naive engine accepts for `constraints` — whole-query
/// validation over the same candidates as a round, with no decomposition,
/// scheduling or pipelining — sorted, each with its SQL.
pub fn reference(
    db: &Database,
    constraints: &TargetConstraints,
    config: &DiscoveryConfig,
) -> Vec<(String, String)> {
    let related = find_related(db, constraints, config);
    let cands = enumerate_candidates(db, &related, config, None).candidates;
    if cands.is_empty() {
        return Vec::new();
    }
    let fs = build_filters(db, &cands, constraints, None);
    let outcome = Scheduler::run(&SchedCtx::new(db, constraints, &fs), Engine::Naive);
    let mut out: Vec<(String, String)> = outcome
        .accepted
        .iter()
        .map(|&c| {
            let q = &cands[c as usize].query;
            (canonical_key(q, db), render_sql(q, db))
        })
        .collect();
    out.sort();
    out
}

/// Per-task expectations: the reference accept set and the warm-up keys.
pub struct Expected {
    pub reference: Vec<String>,
    pub warm: Vec<String>,
}

/// Compute every task's reference (resolving the walk-through's truth key
/// from its SQL), then warm up: replay the corpus `WARM_PASSES` times in
/// corpus order. The first pass compiles the services' shared plans and
/// records each task's keys; later passes check them and let the plans'
/// adaptive fan-out guards re-plan, which they do from the rounds that run
/// them. Timed rounds so start from plans that no replay order shaped.
/// Returns the expectations and the failed warm-up rounds.
pub fn prepare(
    w: Workload,
    services: &[DiscoveryService],
    tasks: &mut [Task],
) -> (Vec<Expected>, Vec<String>) {
    let config = w.config();
    let ref_start = Instant::now();
    let mut expected = Vec::with_capacity(tasks.len());
    for t in tasks.iter_mut() {
        let r = reference(services[t.db].database(), &t.constraints(), &config);
        if t.truth_key.is_none() {
            t.truth_key = Some(
                r.iter()
                    .find(|(_, sql)| *sql == t.truth_sql)
                    .map_or_else(|| t.truth_sql.clone(), |(k, _)| k.clone()),
            );
        }
        expected.push(Expected {
            reference: r.into_iter().map(|(k, _)| k).collect(),
            warm: Vec::new(),
        });
    }
    eprintln!(
        "reference: {} tasks in {:.2}s",
        tasks.len(),
        ref_start.elapsed().as_secs_f64()
    );
    let mut client = Client::new(w, services);
    let mut failures = Vec::new();
    let mut failed_tasks = HashSet::new();
    for pass in 0..WARM_PASSES {
        let pass_start = Instant::now();
        for (k, (t, e)) in tasks.iter().zip(expected.iter_mut()).enumerate() {
            let (_, view) = client.round(t);
            let warm = (pass > 0).then_some(e.warm.as_slice());
            if let Err(why) = check_round(&view.observed(), &e.reference, RESULT_LIMIT, warm) {
                if failed_tasks.insert(k) {
                    failures.push(describe_failure("warm-up", t, &why, &view));
                }
            }
            if pass == 0 {
                e.warm = view.keys;
            }
        }
        eprintln!(
            "warm-up pass {}: {:.2}s",
            pass + 1,
            pass_start.elapsed().as_secs_f64()
        );
    }
    (expected, failures)
}

/// What one round returned, owned so the session can be reused.
pub struct RoundView {
    pub error: Option<String>,
    pub timed_out: bool,
    pub degraded: bool,
    pub faults_injected: u64,
    pub keys: Vec<String>,
    pub sqls: Vec<String>,
}

impl RoundView {
    pub fn observed(&self) -> Observed<'_> {
        Observed {
            error: self.error.clone(),
            timed_out: self.timed_out,
            degraded: self.degraded,
            faults_injected: self.faults_injected,
            keys: &self.keys,
        }
    }
}

pub fn describe_failure(phase: &str, t: &Task, why: &str, view: &RoundView) -> String {
    format!(
        "{phase} round failed on {}: {why}\n  truth: {}\n  returned: [{}]",
        t.label,
        t.truth_sql,
        view.sqls.join("; ")
    )
}

/// One closed-loop client: an owned session per database and grid shape,
/// re-typed for every task like a user editing the Description grid.
pub struct Client<'s> {
    services: &'s [DiscoveryService],
    config: DiscoveryConfig,
    sessions: HashMap<(usize, usize, usize), SessionHandle>,
}

impl<'s> Client<'s> {
    pub fn new(w: Workload, services: &'s [DiscoveryService]) -> Client<'s> {
        Client {
            services,
            config: w.config(),
            sessions: HashMap::new(),
        }
    }

    /// Type the task into the grid and press "Start Searching!". The
    /// returned duration covers `start_searching` only.
    pub fn round(&mut self, t: &Task) -> (Duration, RoundView) {
        let shape = (t.db, t.columns, t.samples.len());
        let session = self.sessions.entry(shape).or_insert_with(|| {
            self.services[t.db].open_session(SessionConfig {
                target_columns: t.columns,
                sample_rows: t.samples.len(),
                with_metadata: true,
                discovery: self.config.clone(),
            })
        });
        for (r, row) in t.samples.iter().enumerate() {
            for (c, cell) in row.iter().enumerate() {
                session
                    .set_sample_cell(r, c, cell.clone().unwrap_or_default())
                    .expect("cell inside the grid");
            }
        }
        for (c, cell) in t.metadata.iter().enumerate() {
            session
                .set_metadata_cell(c, cell.clone().unwrap_or_default())
                .expect("metadata row enabled");
        }
        let start = Instant::now();
        let result = session.start_searching();
        let elapsed = start.elapsed();
        let view = match result {
            Ok(r) => RoundView {
                error: None,
                timed_out: r.timed_out,
                degraded: r.degraded,
                faults_injected: r.stats.faults_injected,
                keys: r.queries.iter().map(|q| q.key.clone()).collect(),
                sqls: r.queries.iter().map(|q| q.sql.clone()).collect(),
            },
            Err(e) => RoundView {
                error: Some(e.to_string()),
                timed_out: false,
                degraded: false,
                faults_injected: 0,
                keys: Vec::new(),
                sqls: Vec::new(),
            },
        };
        (elapsed, view)
    }
}

/// The timed phase's record.
#[derive(Default)]
pub struct Timed {
    /// Each task's timed round latencies, indexed like the task list.
    pub latencies_ms: Vec<Vec<f64>>,
    /// Whole passes over the corpus completed.
    pub passes: usize,
    pub wall: Duration,
    pub tally: Tally,
    pub failures: Vec<String>,
    /// Kernel samples taken between the rounds.
    pub speed: SpeedProbe,
}

impl Timed {
    pub fn rounds_per_s(&self) -> f64 {
        self.tally.attempted as f64 / self.wall.as_secs_f64()
    }

    /// Each timed task's trimmed mean round, ascending. Rounds of light
    /// tasks that other tenants' load slows land in the tail of the pooled
    /// rounds; averaged into their task, they stay with it.
    pub fn task_means_ms(&self) -> Vec<f64> {
        let mut m: Vec<f64> = self
            .latencies_ms
            .iter()
            .filter_map(|v| trimmed_mean(v))
            .collect();
        m.sort_by(f64::total_cmp);
        m
    }
}

/// The replay order for `seed`: each (database, resolution) stream
/// shuffled by the seed, then the streams interleaved round-robin.
pub fn replay_order(tasks: &[Task], seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let streams = tasks.iter().map(|t| t.stream).max().map_or(0, |m| m + 1);
    let mut by_stream: Vec<Vec<usize>> = vec![Vec::new(); streams];
    for (i, t) in tasks.iter().enumerate() {
        by_stream[t.stream].push(i);
    }
    for s in &mut by_stream {
        s.shuffle(&mut rng);
    }
    let longest = by_stream.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| by_stream.iter().filter_map(move |s| s.get(i).copied()))
        .collect()
}

/// Closed loop: one client sends its next round as soon as the previous
/// one returns, replaying `order` in whole passes. It starts another pass
/// while fewer than `MIN_TIMED_PASSES` passes are done or fewer than
/// `seconds` have passed. Past `hard_stop` no round starts.
pub fn timed_phase(
    w: Workload,
    services: &[DiscoveryService],
    tasks: &[Task],
    expected: &[Expected],
    order: &[usize],
    seconds: f64,
    hard_stop: Duration,
) -> Timed {
    let mut client = Client::new(w, services);
    let mut out = Timed {
        latencies_ms: vec![Vec::new(); tasks.len()],
        ..Timed::default()
    };
    let mut failed_tasks = HashSet::new();
    let start = Instant::now();
    let soft = start + Duration::from_secs_f64(seconds);
    let hard = start + hard_stop;
    'passes: while out.passes < MIN_TIMED_PASSES || Instant::now() < soft {
        for &k in order {
            if Instant::now() >= hard {
                break 'passes;
            }
            let (t, e) = (&tasks[k], &expected[k]);
            let (elapsed, view) = client.round(t);
            out.latencies_ms[k].push(elapsed.as_secs_f64() * 1e3);
            let verdict = check_round(&view.observed(), &e.reference, RESULT_LIMIT, Some(&e.warm));
            let found = t
                .truth_key
                .as_ref()
                .is_some_and(|key| view.keys.contains(key));
            if let Err(why) = &verdict {
                if failed_tasks.insert(k) {
                    out.failures.push(describe_failure("timed", t, why, &view));
                }
            }
            out.tally.record(&verdict, found);
            out.speed.tick();
        }
        out.passes += 1;
    }
    out.wall = start.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_means_skip_untimed_tasks_and_sort() {
        let timed = Timed {
            latencies_ms: vec![vec![9.0, 1.0, 5.0], vec![], vec![2.0]],
            ..Timed::default()
        };
        assert_eq!(timed.task_means_ms(), vec![2.0, 5.0]);
    }
}
