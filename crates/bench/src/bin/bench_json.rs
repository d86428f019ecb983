//! Machine-readable substrate benchmark: E1/E3-style timings plus
//! microbenchmarks of the validation hot path, appended to
//! `BENCH_substrate.json` (and scan-layer microbenches to
//! `BENCH_scan.json`) so the perf trajectory of the storage substrate is
//! tracked across refactors.
//!
//! Usage: `cargo run --release -p prism_bench --bin bench_json -- <phase>
//! [scale]` where `<phase>` labels the run (e.g. `pre_refactor`,
//! `pr5_prepared`) and `[scale]` overrides the mondial replication factor
//! (default 4). The file holds a JSON array; each run appends one entry
//! without disturbing earlier ones, so before/after comparisons are one
//! `diff` away.
//!
//! The existence-probe microbenches measure both execution paths,
//! interleaved (machine drift hits both alike):
//!
//! * **per-call** ("pre") — `PjQuery::exists_matching`, which validates,
//!   plans, and allocates scratch on every call (the engine's shape before
//!   the PR 5 prepare/execute split), and
//! * **prepared** ("post") — `PjQuery::prepare` once + a reused
//!   [`prism_db::ExecScratch`], which is how filter validation actually
//!   runs now (shared plan cache + per-worker scratch).
//!
//! `exists_hit_per_s` / `exists_miss_per_s` report the prepared path (the
//! hot path the engine really takes); the `*_percall_*` fields keep the
//! one-shot numbers honest. Environment knobs for CI smoke:
//! `PRISM_BENCH_SUBSTRATE_ONLY=1` skips the IMDB and scan sections;
//! `PRISM_BENCH_MIN_PREPARED_SPEEDUP=<x>` exits non-zero unless prepared
//! throughput ≥ x · per-call throughput on the **hit** probe — the probe
//! that early-exits after a handful of rows, so per-call compilation
//! dominates it and the ratio directly measures amortization. (The miss
//! probe is scan-bound by design — a small ratio there means the scan,
//! not setup, is where time goes.)

use prism_bayes::{BayesEstimator, TrainConfig};
use prism_bench::{resolution_sweep, scheduling_cases, scheduling_comparison, timed};
use prism_core::scheduler::{BayesModel, Engine, SchedCtx, Scheduler};
use prism_core::{DiscoveryConfig, DiscoveryService, SessionHandle};
use prism_datasets::{imdb, mondial, Resolution};
use prism_db::{ExecScratch, ExecStats, JoinCond, PjQuery, ScanPred};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default substrate scale factor (mondial replication); arg 2 overrides.
const DEFAULT_SCALE: usize = 4;
/// Tasks per resolution for the E1/E3-style sweeps.
const TASKS: usize = 3;
/// IMDB replication factor for the parallel-engine comparison.
const IMDB_SCALE: usize = 8;
/// Worker threads for the parallel side of the comparison.
const PAR_THREADS: usize = 4;
/// Interleaved repetitions per engine (medians reported).
const REPS: usize = 5;
/// Interleaved repetitions of each existence-probe path.
const PROBE_REPS: usize = 3;

fn main() {
    let phase = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "adhoc".to_string());
    let scale: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE);
    let substrate_only = std::env::var("PRISM_BENCH_SUBSTRATE_ONLY").is_ok_and(|v| v == "1");

    // --- Substrate microbenchmarks (the validation hot path) ---
    let (db, build_time) = timed(|| mondial(42, scale));
    let lake = db.catalog().table_id("Lake").unwrap();
    let geo = db.catalog().table_id("geo_lake").unwrap();
    let q = PjQuery {
        nodes: vec![lake, geo],
        joins: vec![JoinCond {
            left_node: 1,
            left_col: 0,
            right_node: 0,
            right_col: 0,
        }],
        projection: vec![(1, 2), (0, 0), (0, 1)],
    };
    // Hit probe: per-call vs prepared, interleaved.
    let is_cal = pred_eq_text("California");
    let is_tahoe = pred_eq_text("Lake Tahoe");
    let hit_preds = [
        Some(ScanPred::new(&is_cal)),
        Some(ScanPred::new(&is_tahoe)),
        None,
    ];
    let nowhere = pred_eq_text("Atlantis");
    let miss_preds = [Some(ScanPred::new(&nowhere)), None, None];
    let hit_prepared_q = q.prepare(&db, &hit_preds).unwrap();
    let miss_prepared_q = q.prepare(&db, &miss_preds).unwrap();
    let mut scratch = ExecScratch::new();
    let mut hit_percall = Vec::new();
    let mut hit_prepared = Vec::new();
    let mut miss_percall = Vec::new();
    let mut miss_prepared = Vec::new();
    for _ in 0..PROBE_REPS {
        hit_percall.push(throughput(|| {
            let mut stats = ExecStats::default();
            assert!(q.exists_matching(&db, &hit_preds, &mut stats).unwrap());
        }));
        hit_prepared.push(throughput(|| {
            let mut stats = ExecStats::default();
            assert!(hit_prepared_q
                .exists_matching(&db, &hit_preds, &mut scratch, &mut stats)
                .unwrap());
        }));
        miss_percall.push(throughput(|| {
            let mut stats = ExecStats::default();
            assert!(!q.exists_matching(&db, &miss_preds, &mut stats).unwrap());
        }));
        miss_prepared.push(throughput(|| {
            let mut stats = ExecStats::default();
            assert!(!miss_prepared_q
                .exists_matching(&db, &miss_preds, &mut scratch, &mut stats)
                .unwrap());
        }));
    }
    let exists_hit = median(&mut hit_prepared);
    let exists_hit_percall = median(&mut hit_percall);
    let exists_miss = median(&mut miss_prepared);
    let exists_miss_percall = median(&mut miss_percall);
    let prepared_hit_speedup = exists_hit / exists_hit_percall;
    let prepared_miss_speedup = exists_miss / exists_miss_percall;
    let (nrows, full_eval) = timed(|| q.execute(&db, usize::MAX).unwrap().len());

    // --- E1-style: discovery round wall-clock across resolutions ---
    let db1 = mondial(42, 1);
    let (e1_rows, e1_wall) = timed(|| {
        resolution_sweep(
            &db1,
            &[Resolution::Exact, Resolution::Disjunction],
            TASKS,
            7,
            &DiscoveryConfig::default(),
        )
    });
    let e1_avg_ms: f64 = e1_rows
        .iter()
        .map(|r| r.avg_time.as_secs_f64() * 1e3)
        .sum::<f64>()
        / e1_rows.len().max(1) as f64;

    // --- E3-style: filter-scheduling comparison wall-clock ---
    let (e3_samples, e3_wall) =
        timed(|| scheduling_comparison(&[&db1], &[Resolution::Disjunction], TASKS, 13));
    let e3_bayes_validations: f64 =
        e3_samples.iter().map(|s| s.bayes as f64).sum::<f64>() / e3_samples.len().max(1) as f64;

    let entry = format!(
        "{{\n    \"phase\": \"{phase}\",\n    \"scale\": {scale},\n    \
         \"total_rows\": {},\n    \"build_ms\": {:.3},\n    \
         \"exists_hit_per_s\": {:.1},\n    \"exists_miss_per_s\": {:.1},\n    \
         \"exists_hit_percall_per_s\": {exists_hit_percall:.1},\n    \
         \"exists_miss_percall_per_s\": {exists_miss_percall:.1},\n    \
         \"prepared_hit_speedup\": {prepared_hit_speedup:.3},\n    \
         \"prepared_miss_speedup\": {prepared_miss_speedup:.3},\n    \
         \"full_eval_ms\": {:.3},\n    \"full_eval_rows\": {nrows},\n    \
         \"e1_avg_round_ms\": {:.3},\n    \"e1_wall_ms\": {:.3},\n    \
         \"e3_wall_ms\": {:.3},\n    \"e3_bayes_validations\": {:.2}\n  }}",
        db.total_rows(),
        build_time.as_secs_f64() * 1e3,
        exists_hit,
        exists_miss,
        full_eval.as_secs_f64() * 1e3,
        e1_avg_ms,
        e1_wall.as_secs_f64() * 1e3,
        e3_wall.as_secs_f64() * 1e3,
        e3_bayes_validations,
    );
    append_entry("BENCH_substrate.json", &entry);
    println!("appended phase `{phase}` to BENCH_substrate.json:\n{entry}");

    // CI smoke gate: on the setup-dominated hit probe, the prepared path
    // must beat per-call compilation by the requested factor, or the run
    // (and the CI leg) fails.
    if let Ok(min) = std::env::var("PRISM_BENCH_MIN_PREPARED_SPEEDUP") {
        let min: f64 = min
            .parse()
            .expect("PRISM_BENCH_MIN_PREPARED_SPEEDUP is a number");
        assert!(
            prepared_hit_speedup >= min,
            "prepared hit probes at {prepared_hit_speedup:.2}x per-call, need >= {min}x"
        );
        println!("prepared-speedup gate passed: {prepared_hit_speedup:.2}x >= {min}x");
    }

    // Service-layer throughput + warm-cache proof (BENCH_service.json).
    // Cheap (mondial scale 1), so it runs in the smoke leg too — CI gates
    // on the warm sessions compiling zero plans.
    service_bench(&phase);

    // Join-ordering on adversarial skew (BENCH_join.json). Also cheap, and
    // the cost-over-fixed gate runs in the smoke leg.
    join_order_bench(&phase);

    // Streaming-vs-legacy CSV ingest (BENCH_ingest.json). The old-vs-new
    // gate runs in the smoke leg; the 10M tier only when asked.
    ingest_bench(&phase);

    if substrate_only {
        return;
    }

    // --- Sequential vs parallel E3 scheduling (BENCH_parallel.json) ---
    // Same methodology as the substrate entries: the two engines run
    // interleaved (machine drift hits both alike) and medians are
    // reported. The filter sets are pre-built once and identical for both
    // engines; the accepted sets are asserted equal every repetition.
    let imdb_db = imdb(42, IMDB_SCALE);
    let est = BayesEstimator::train(&imdb_db, &TrainConfig::default());
    let cases = scheduling_cases(
        &imdb_db,
        Resolution::Disjunction,
        TASKS + 1,
        17,
        &DiscoveryConfig::default(),
    );
    assert!(!cases.is_empty());
    let mut seq_ms: Vec<f64> = Vec::new();
    let mut par_ms: Vec<f64> = Vec::new();
    let mut seq_validations = 0u64;
    let mut par_validations = 0u64;
    for _ in 0..REPS {
        let mut accepted_seq = Vec::new();
        let (_, d_seq) = timed(|| {
            for (tc, fs) in &cases {
                let model = BayesModel::new(&est, tc);
                let ctx = SchedCtx::new(&imdb_db, tc, fs);
                let o = Scheduler::run(
                    &ctx,
                    Engine::Greedy {
                        model: &model,
                        threads: 1,
                    },
                );
                seq_validations = o.validations;
                accepted_seq.push(o.accepted);
            }
        });
        seq_ms.push(d_seq.as_secs_f64() * 1e3);
        let (_, d_par) = timed(|| {
            for ((tc, fs), accepted) in cases.iter().zip(&accepted_seq) {
                let model = BayesModel::new(&est, tc);
                let ctx = SchedCtx::new(&imdb_db, tc, fs);
                let o = Scheduler::run(
                    &ctx,
                    Engine::Greedy {
                        model: &model,
                        threads: PAR_THREADS,
                    },
                );
                par_validations = o.validations;
                assert_eq!(&o.accepted, accepted, "engines must accept identically");
            }
        });
        par_ms.push(d_par.as_secs_f64() * 1e3);
    }
    let seq_median = median(&mut seq_ms);
    let par_median = median(&mut par_ms);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Honesty: a speedup ratio measured on one core is coordination
    // overhead, not parallelism — record `null` there and only gate on the
    // ratio when the machine can actually run workers side by side.
    let speedup_field = if cores > 1 {
        format!("{:.3}", seq_median / par_median)
    } else {
        "null".to_string()
    };
    let par_entry = format!(
        "{{\n    \"phase\": \"{phase}\",\n    \"database\": \"imdb\",\n    \
         \"scale\": {IMDB_SCALE},\n    \"total_rows\": {},\n    \
         \"tasks\": {},\n    \"cores\": {cores},\n    \
         \"threads\": {PAR_THREADS},\n    \"reps\": {REPS},\n    \
         \"seq_median_ms\": {seq_median:.3},\n    \
         \"par_median_ms\": {par_median:.3},\n    \
         \"speedup\": {speedup_field},\n    \
         \"seq_validations_last_task\": {seq_validations},\n    \
         \"par_validations_last_task\": {par_validations}\n  }}",
        imdb_db.total_rows(),
        cases.len(),
    );
    append_entry("BENCH_parallel.json", &par_entry);
    println!("appended phase `{phase}` to BENCH_parallel.json:\n{par_entry}");
    if let Ok(min) = std::env::var("PRISM_BENCH_MIN_PAR_SPEEDUP") {
        if cores > 1 {
            let min: f64 = min
                .parse()
                .expect("PRISM_BENCH_MIN_PAR_SPEEDUP is a number");
            let speedup = seq_median / par_median;
            assert!(
                speedup >= min,
                "parallel engine at {speedup:.2}x sequential, need >= {min}x"
            );
            println!("parallel-speedup gate passed: {speedup:.2}x >= {min}x");
        } else {
            println!("parallel-speedup gate skipped: {cores} core(s) detected");
        }
    }

    scan_bench(&phase);
}

/// Warm sessions in the service-layer bench (`PRISM_SERVICE_SESSIONS`
/// overrides).
const DEFAULT_SERVICE_SESSIONS: usize = 4;

/// Service-layer bench (`BENCH_service.json`): one [`DiscoveryService`]
/// over the walkthrough database, a cold session that populates the
/// service-global plan cache, then `PRISM_SERVICE_SESSIONS` (default 4)
/// warm sessions each running a round on its own thread. Reports
/// multi-session throughput (rounds/s across the warm sessions, cores
/// recorded so single-core numbers read as concurrency-overhead checks,
/// not parallel speedups) and the cross-session plan-cache counters.
/// `PRISM_BENCH_REQUIRE_WARM_SERVICE=1` turns "every warm session compiles
/// zero plans" into a hard gate for CI smoke.
/// `PRISM_BENCH_REQUIRE_FAULT_FREE=1` asserts the fault-isolation layer
/// is zero-cost when disarmed: with `PRISM_FAULT` unset, every benched
/// round must report zero injected faults, zero retries, and an
/// undegraded result — the containment layer may cost one branch, never
/// a verdict.
fn service_bench(phase: &str) {
    let sessions: usize = std::env::var("PRISM_SERVICE_SESSIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SERVICE_SESSIONS);
    let require_fault_free =
        std::env::var("PRISM_BENCH_REQUIRE_FAULT_FREE").is_ok_and(|v| v == "1");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let db = Arc::new(mondial(42, 1));
    let total_rows = db.total_rows();
    let svc = DiscoveryService::new(db, DiscoveryConfig::default());
    let describe = |s: &mut SessionHandle| {
        s.set_sample_cell(0, 0, "California || Nevada").unwrap();
        s.set_sample_cell(0, 1, "Lake Tahoe").unwrap();
        s.set_metadata_cell(2, "DataType=='decimal' AND MinValue>='0'")
            .unwrap();
    };

    // Cold session: compiles every query class into the shared cache once.
    let mut cold = svc.open_default_session();
    describe(&mut cold);
    let (_, cold_wall) = timed(|| {
        cold.start_searching().unwrap();
    });
    let cold_result = cold.result().expect("cold round ran");
    let cold_plans_built = cold_result.stats.exec.plans_built;
    let expected_queries = cold_result.queries.len();
    assert!(expected_queries > 0, "walkthrough discovers queries");
    if require_fault_free {
        assert_eq!(
            cold_result.stats.faults_injected, 0,
            "fault injector fired with PRISM_FAULT unset"
        );
        assert_eq!(cold_result.stats.fault_retries, 0);
        assert!(
            !cold_result.degraded && cold_result.fault_reports.is_empty(),
            "undisturbed round reported degradation"
        );
    }

    // Warm sessions: identical query classes, one thread per session. The
    // handles are owned, so moving each into its thread is the API working
    // as designed — no scoped borrows of a session.
    let mut handles: Vec<SessionHandle> =
        (0..sessions).map(|_| svc.open_default_session()).collect();
    for h in &mut handles {
        describe(h);
    }
    let (warm_plans_built, warm_wall) = timed(|| {
        std::thread::scope(|scope| {
            let joins: Vec<_> = handles
                .into_iter()
                .map(|mut s| {
                    scope.spawn(move || {
                        let r = s.start_searching().unwrap();
                        assert_eq!(
                            r.queries.len(),
                            expected_queries,
                            "warm session diverged from the cold round"
                        );
                        if require_fault_free {
                            assert_eq!(
                                r.stats.faults_injected, 0,
                                "fault injector fired with PRISM_FAULT unset"
                            );
                            assert!(
                                !r.degraded && r.fault_reports.is_empty(),
                                "undisturbed warm round reported degradation"
                            );
                        }
                        r.stats.exec.plans_built
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).sum::<u64>()
        })
    });
    let rounds_per_s = sessions as f64 / warm_wall.as_secs_f64();
    let cache = svc.plan_cache();

    let entry = format!(
        "{{\n    \"phase\": \"{phase}\",\n    \"database\": \"mondial\",\n    \
         \"scale\": 1,\n    \"total_rows\": {total_rows},\n    \
         \"cores\": {cores},\n    \"thread_budget\": {},\n    \
         \"sessions\": {sessions},\n    \
         \"cold_round_ms\": {:.3},\n    \
         \"cold_plans_built\": {cold_plans_built},\n    \
         \"warm_wall_ms\": {:.3},\n    \
         \"warm_rounds_per_s\": {rounds_per_s:.2},\n    \
         \"warm_plans_built\": {warm_plans_built},\n    \
         \"cache_hits\": {},\n    \"cache_misses\": {},\n    \
         \"cache_entries\": {}\n  }}",
        svc.thread_budget().total(),
        cold_wall.as_secs_f64() * 1e3,
        warm_wall.as_secs_f64() * 1e3,
        cache.hits,
        cache.misses,
        cache.entries,
    );
    append_entry("BENCH_service.json", &entry);
    println!("appended phase `{phase}` to BENCH_service.json:\n{entry}");

    if std::env::var("PRISM_BENCH_REQUIRE_WARM_SERVICE").is_ok_and(|v| v == "1") {
        assert_eq!(
            warm_plans_built, 0,
            "warm sessions must be served entirely by the shared plan cache"
        );
        println!("warm-service gate passed: {sessions} warm sessions compiled 0 plans");
    }
    if require_fault_free {
        println!(
            "fault-free gate passed: {} rounds, 0 faults injected, 0 degraded",
            sessions + 1
        );
    }
}

/// Skewed-scenario replication for the join-order bench (≈61k rows).
const JOIN_SCALE: usize = 10;
/// Zipf exponent: the hottest tag owns ≈20% of all item rows.
const JOIN_SKEW: f64 = 1.2;

/// Join-order bench (`BENCH_join.json`): the skewed taskgen scenario with a
/// hub predicate (`Tag.name == 'tag1'`) plus a narrow score hull. The fixed
/// (declaration-order) plan starts at the small predicated `Tag` table and
/// probes straight through the hot tag's CSR posting run; the cost-ordered
/// plan starts from the zone-pruned score range instead. Both plans are
/// prepared once, the counts are asserted identical, and the two paths run
/// interleaved (machine drift hits both alike); medians of `REPS`.
/// `PRISM_BENCH_MIN_JOINORDER_SPEEDUP=<x>` exits non-zero unless the
/// cost-ordered throughput ≥ x · fixed throughput.
fn join_order_bench(phase: &str) {
    use prism_datasets::skewed;
    use prism_db::types::ValueRef;
    use prism_db::JoinOrder;

    let db = skewed(42, JOIN_SCALE, JOIN_SKEW);
    let tag = db.catalog().table_id("Tag").unwrap();
    let item = db.catalog().table_id("Item").unwrap();
    let q = PjQuery {
        nodes: vec![tag, item],
        joins: vec![JoinCond {
            left_node: 0,
            left_col: 1, // Tag.id
            right_node: 1,
            right_col: 0, // Item.tag
        }],
        projection: vec![(0, 0), (1, 1)], // Tag.name, Item.score
    };
    let is_hub = |v: ValueRef<'_>| v.as_text() == Some("tag1");
    let (lo, hi) = (1_000.0, 1_100.0);
    let in_range = |v: ValueRef<'_>| v.as_number().is_some_and(|x| (lo..=hi).contains(&x));
    let preds = [
        Some(ScanPred::new(&is_hub)),
        Some(ScanPred::new(&in_range).with_range(lo, hi)),
    ];
    let fixed_q = q.prepare_with(&db, &preds, JoinOrder::Fixed).unwrap();
    let cost_q = q.prepare_with(&db, &preds, JoinOrder::Cost).unwrap();
    assert!(cost_q.nodes_reordered() > 0, "skew must trigger a reorder");

    let count = |prepared: &prism_db::PreparedQuery, scratch: &mut ExecScratch| {
        let mut stats = ExecStats::default();
        let n = prepared
            .count_matching(&db, &preds, u64::MAX, scratch, &mut stats)
            .unwrap();
        (n, stats)
    };
    let mut fixed_scratch = ExecScratch::new();
    let mut cost_scratch = ExecScratch::new();
    let (matches, fixed_stats) = count(&fixed_q, &mut fixed_scratch);
    let (cost_matches, cost_stats) = count(&cost_q, &mut cost_scratch);
    assert_eq!(matches, cost_matches, "join orders must agree on rows");
    assert!(matches > 0, "the hub owns rows in every score range");

    let mut fixed_per_s = Vec::new();
    let mut cost_per_s = Vec::new();
    for _ in 0..REPS {
        fixed_per_s.push(throughput(|| {
            assert_eq!(count(&fixed_q, &mut fixed_scratch).0, matches);
        }));
        cost_per_s.push(throughput(|| {
            assert_eq!(count(&cost_q, &mut cost_scratch).0, matches);
        }));
    }
    let fixed_median = median(&mut fixed_per_s);
    let cost_median = median(&mut cost_per_s);
    let speedup = cost_median / fixed_median;
    let rows_ratio = fixed_stats.rows_examined as f64 / cost_stats.rows_examined.max(1) as f64;

    let entry = format!(
        "{{\n    \"phase\": \"{phase}\",\n    \"database\": \"skewed\",\n    \
         \"scale\": {JOIN_SCALE},\n    \"skew\": {JOIN_SKEW},\n    \
         \"total_rows\": {},\n    \"matches\": {matches},\n    \
         \"reps\": {REPS},\n    \
         \"fixed_per_s\": {fixed_median:.1},\n    \
         \"cost_per_s\": {cost_median:.1},\n    \
         \"cost_speedup\": {speedup:.3},\n    \
         \"fixed_rows_examined\": {},\n    \
         \"cost_rows_examined\": {},\n    \
         \"rows_examined_ratio\": {rows_ratio:.3},\n    \
         \"nodes_reordered\": {}\n  }}",
        db.total_rows(),
        fixed_stats.rows_examined,
        cost_stats.rows_examined,
        cost_q.nodes_reordered(),
    );
    append_entry("BENCH_join.json", &entry);
    println!("appended phase `{phase}` to BENCH_join.json:\n{entry}");

    if let Ok(min) = std::env::var("PRISM_BENCH_MIN_JOINORDER_SPEEDUP") {
        let min: f64 = min
            .parse()
            .expect("PRISM_BENCH_MIN_JOINORDER_SPEEDUP is a number");
        assert!(
            speedup >= min,
            "cost order at {speedup:.2}x fixed on skew, need >= {min}x"
        );
        println!("join-order gate passed: {speedup:.2}x >= {min}x");
    }
}

/// Data rows in the generated ingest-bench CSV (≈8 MB of text).
const INGEST_ROWS: usize = 150_000;

/// CSV-ingest bench (`BENCH_ingest.json`): the streaming zero-`Value`
/// loader against the legacy per-row loader on one generated CSV
/// (int/decimal/date/text columns, a slice of quoted fields with embedded
/// commas). Both loaders run interleaved (machine drift hits both alike);
/// medians of `REPS`, with the built databases asserted row-identical each
/// repetition. `PRISM_BENCH_MIN_INGEST_SPEEDUP=<x>` exits non-zero unless
/// streaming ≥ x · legacy throughput, and `PRISM_BENCH_INGEST_10M=1` also
/// times the 10M-row `imdb_large` tier through the typed bulk path.
fn ingest_bench(phase: &str) {
    use prism_datasets::{imdb_large, vocab};
    use prism_db::DatabaseBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x494e47 /* "ING" */);
    let mut csv = String::with_capacity(INGEST_ROWS * 56);
    csv.push_str("id,score,label,city,founded\n");
    for i in 0..INGEST_ROWS {
        let city = vocab::CITIES[rng.gen_range(0..vocab::CITIES.len())];
        let score = rng.gen_range(0.0..100.0f64);
        if i % 7 == 0 {
            // Quoted label with an embedded comma: the slow unescape lane.
            csv.push_str(&format!(
                "{i},{score:.3},\"label {}, east\",{city},19{:02}-{:02}-{:02}\n",
                i % 97,
                rng.gen_range(10..99),
                rng.gen_range(1..=12),
                rng.gen_range(1..=28),
            ));
        } else {
            csv.push_str(&format!(
                "{i},{score:.3},label{},{city},19{:02}-{:02}-{:02}\n",
                i % 97,
                rng.gen_range(10..99),
                rng.gen_range(1..=12),
                rng.gen_range(1..=28),
            ));
        }
    }

    let mut legacy_ms = Vec::new();
    let mut streaming_ms = Vec::new();
    let mut streamed = None;
    for _ in 0..REPS {
        let (bl, d_legacy) = timed(|| {
            let mut b = DatabaseBuilder::new("ingest_legacy");
            b.add_table_from_csv_legacy("T", &csv).unwrap();
            b
        });
        legacy_ms.push(d_legacy.as_secs_f64() * 1e3);
        let (bs, d_streaming) = timed(|| {
            let mut b = DatabaseBuilder::new("ingest");
            b.add_table_from_csv("T", &csv).unwrap();
            b
        });
        streaming_ms.push(d_streaming.as_secs_f64() * 1e3);
        let (legacy_db, streaming_db) = (bl.build(), bs.build());
        assert_eq!(legacy_db.total_rows(), streaming_db.total_rows());
        let t = streaming_db.catalog().table_id("T").unwrap();
        for r in [0u32, INGEST_ROWS as u32 / 2, INGEST_ROWS as u32 - 1] {
            assert_eq!(
                legacy_db.table(t).row(legacy_db.symbols(), r),
                streaming_db.table(t).row(streaming_db.symbols(), r),
                "loaders disagree on row {r}"
            );
        }
        streamed = Some(streaming_db);
    }
    let streaming_db = streamed.expect("REPS >= 1");
    let report = streaming_db.ingest_report();
    let peak_mb = streaming_db.memory_report().peak_column_bytes() as f64 / 1e6;
    let legacy_median = median(&mut legacy_ms);
    let streaming_median = median(&mut streaming_ms);
    let speedup = legacy_median / streaming_median;

    // Optional 10M-row scale tier through the typed bulk-append path.
    let tier10m = std::env::var("PRISM_BENCH_INGEST_10M").is_ok_and(|v| v == "1");
    let tier_fields = if tier10m {
        const TARGET: usize = 10_000_000;
        let (db, d) = timed(|| imdb_large(42, TARGET));
        let rows = db.total_rows();
        let build_ms = d.as_secs_f64() * 1e3;
        let peak = db.memory_report().peak_column_bytes() as f64 / 1e6;
        format!(
            "{rows},\n    \"tier10m_build_ms\": {build_ms:.1},\n    \
             \"tier10m_rows_per_s\": {:.0},\n    \
             \"tier10m_peak_column_mb\": {peak:.1}",
            rows as f64 / d.as_secs_f64(),
        )
    } else {
        "null,\n    \"tier10m_build_ms\": null,\n    \
         \"tier10m_rows_per_s\": null,\n    \"tier10m_peak_column_mb\": null"
            .to_string()
    };

    let entry = format!(
        "{{\n    \"phase\": \"{phase}\",\n    \"csv_rows\": {INGEST_ROWS},\n    \
         \"csv_bytes\": {},\n    \"reps\": {REPS},\n    \
         \"legacy_median_ms\": {legacy_median:.1},\n    \
         \"streaming_median_ms\": {streaming_median:.1},\n    \
         \"ingest_speedup\": {speedup:.3},\n    \
         \"streaming_mb_per_s\": {:.1},\n    \
         \"streaming_rows_per_s\": {:.0},\n    \
         \"parse_threads\": {},\n    \
         \"peak_column_mb\": {peak_mb:.1},\n    \
         \"tier10m_rows\": {tier_fields}\n  }}",
        csv.len(),
        report.mb_per_sec().unwrap_or(0.0),
        report.rows_per_sec().unwrap_or(0.0),
        report.parse_threads,
    );
    append_entry("BENCH_ingest.json", &entry);
    println!("appended phase `{phase}` to BENCH_ingest.json:\n{entry}");

    if let Ok(min) = std::env::var("PRISM_BENCH_MIN_INGEST_SPEEDUP") {
        let min: f64 = min
            .parse()
            .expect("PRISM_BENCH_MIN_INGEST_SPEEDUP is a number");
        assert!(
            speedup >= min,
            "streaming ingest at {speedup:.2}x legacy, need >= {min}x"
        );
        println!("ingest-speedup gate passed: {speedup:.2}x >= {min}x");
    }
}

/// Rows in the synthetic scan-layer tables.
const SCAN_ROWS: i64 = 200_000;
/// Distinct tags in the text-scan table (well above the memo warmup).
const SCAN_TAGS: i64 = 64;
/// Distinct keys in the join-probe table.
const PROBE_KEYS: i64 = 20_000;

/// Scan-layer microbenches (`BENCH_scan.json`): selective and unselective
/// range scans with and without zone-map pruning, dictionary-memoized text
/// scans against a per-row baseline, and CSR join probes against the old
/// `HashMap<u64, Vec<u32>>` layout rebuilt by hand. "pre" re-creates the
/// pre-refactor behavior inside the current binary, and the two sides run
/// interleaved so machine drift hits both alike; medians of `REPS`.
fn scan_bench(phase: &str) {
    use prism_db::schema::ColumnDef;
    use prism_db::types::{DataType, Value, ValueRef};
    use prism_db::{DatabaseBuilder, PjQuery, ScanPred};
    use std::collections::HashMap;

    let mut b = DatabaseBuilder::new("scan_bench");
    b.add_table(
        "T",
        vec![
            ColumnDef::new("x", DataType::Int).not_null(),
            ColumnDef::new("tag", DataType::Text).not_null(),
        ],
    )
    .unwrap();
    b.add_table("F", vec![ColumnDef::new("p", DataType::Int).not_null()])
        .unwrap();
    b.add_foreign_key("F", "p", "T", "x").unwrap();
    for i in 0..SCAN_ROWS {
        // x ascending (zone maps bite); tags cycle through a small dictionary.
        b.add_row(
            "T",
            vec![Value::Int(i), format!("tag{:02}", i % SCAN_TAGS).into()],
        )
        .unwrap();
        b.add_row("F", vec![Value::Int(i % PROBE_KEYS)]).unwrap();
    }
    let db = b.build();
    let t = db.catalog().table_id("T").unwrap();
    let scan = PjQuery {
        nodes: vec![t],
        joins: vec![],
        projection: vec![(0, 0)],
    };
    let count = |pred: ScanPred<'_>| {
        let mut stats = ExecStats::default();
        let n = scan
            .count_matching(&db, &[Some(pred)], u64::MAX, &mut stats)
            .unwrap();
        (n, stats)
    };

    // Selective range (~1% of rows) and unselective range (~90%).
    let (sel_lo, sel_hi) = (100_000.0, 102_000.0);
    let (un_lo, un_hi) = (10_000.0, 190_000.0);
    let selective = |v: ValueRef<'_>| {
        v.as_number()
            .is_some_and(|x| (sel_lo..=sel_hi).contains(&x))
    };
    let unselective = |v: ValueRef<'_>| v.as_number().is_some_and(|x| (un_lo..=un_hi).contains(&x));
    let mut sel_pre = Vec::new();
    let mut sel_post = Vec::new();
    let mut un_pre = Vec::new();
    let mut un_post = Vec::new();
    let mut blocks_skipped = 0u64;
    for _ in 0..REPS {
        let ((a, _), d) = timed(|| count(ScanPred::new(&selective)));
        sel_pre.push(d.as_secs_f64() * 1e3);
        let ((b_, st), d) = timed(|| count(ScanPred::new(&selective).with_range(sel_lo, sel_hi)));
        sel_post.push(d.as_secs_f64() * 1e3);
        assert_eq!(a, b_, "pruning changed the selective result");
        blocks_skipped = st.blocks_skipped;
        let ((a, _), d) = timed(|| count(ScanPred::new(&unselective)));
        un_pre.push(d.as_secs_f64() * 1e3);
        let ((b_, _), d) = timed(|| count(ScanPred::new(&unselective).with_range(un_lo, un_hi)));
        un_post.push(d.as_secs_f64() * 1e3);
        assert_eq!(a, b_, "pruning changed the unselective result");
    }

    // Text-predicate scan: a CONTAINS-style predicate (lowercases the cell,
    // i.e. allocates per evaluation — what the constraint language does)
    // through the memoizing executor vs the same closure applied per row,
    // which is exactly what the engine did before dictionary pushdown. The
    // memo pays the closure once per distinct code instead of once per row.
    let tag_contains = |v: ValueRef<'_>| {
        v.as_text()
            .is_some_and(|s| s.to_lowercase().contains("ag17"))
    };
    let scan_tag = PjQuery {
        nodes: vec![t],
        joins: vec![],
        projection: vec![(0, 1)],
    };
    let column = db.table(t).column(1);
    let syms = db.symbols();
    let mut text_pre = Vec::new();
    let mut text_post = Vec::new();
    for _ in 0..REPS {
        let (a, d) = timed(|| {
            (0..column.len())
                .filter(|&r| tag_contains(column.value_ref(syms, r)))
                .count() as u64
        });
        text_pre.push(d.as_secs_f64() * 1e3);
        let (b_, d) = timed(|| {
            let mut stats = ExecStats::default();
            scan_tag
                .count_matching(
                    &db,
                    &[Some(ScanPred::new(&tag_contains))],
                    u64::MAX,
                    &mut stats,
                )
                .unwrap()
        });
        text_post.push(d.as_secs_f64() * 1e3);
        assert_eq!(a, b_, "memoized scan changed the text result");
    }

    // Join probes: CSR index vs the old HashMap layout rebuilt by hand.
    let t_x = db.catalog().column_ref("T", "x").unwrap();
    let csr = db.join_index(t_x).expect("FK endpoint indexed");
    let x_col = db.table(t).column(0);
    let mut hashmap: HashMap<u64, Vec<u32>> = HashMap::new();
    for r in 0..x_col.len() {
        if let Some(k) = db.join_key(t_x, r as u32) {
            hashmap.entry(k).or_default().push(r as u32);
        }
    }
    let mut probe_pre = Vec::new();
    let mut probe_post = Vec::new();
    for _ in 0..REPS {
        let (a, d) = timed(|| {
            let mut hits = 0usize;
            for k in 0..SCAN_ROWS {
                hits += hashmap.get(&(k as u64)).map(|v| v.len()).unwrap_or(0);
            }
            hits
        });
        probe_pre.push(d.as_secs_f64() * 1e3);
        let (b_, d) = timed(|| {
            let mut hits = 0usize;
            for k in 0..SCAN_ROWS {
                hits += csr.rows(k as u64).len();
            }
            hits
        });
        probe_post.push(d.as_secs_f64() * 1e3);
        assert_eq!(a, b_, "CSR probes disagree with the HashMap layout");
    }

    let report = db.memory_report();
    let entry = format!(
        "{{\n    \"phase\": \"{phase}\",\n    \"rows\": {SCAN_ROWS},\n    \
         \"block_rows\": {},\n    \"blocks_skipped_selective\": {blocks_skipped},\n    \
         \"range_selective_pre_ms\": {:.3},\n    \"range_selective_post_ms\": {:.3},\n    \
         \"range_selective_speedup\": {:.3},\n    \
         \"range_unselective_pre_ms\": {:.3},\n    \"range_unselective_post_ms\": {:.3},\n    \
         \"text_scan_per_row_ms\": {:.3},\n    \"text_scan_memo_ms\": {:.3},\n    \
         \"text_scan_speedup\": {:.3},\n    \
         \"join_probe_hashmap_ms\": {:.3},\n    \"join_probe_csr_ms\": {:.3},\n    \
         \"join_probe_speedup\": {:.3},\n    \
         \"index_bytes_csr\": {}\n  }}",
        db.block_rows(),
        median(&mut sel_pre),
        median(&mut sel_post),
        median(&mut sel_pre) / median(&mut sel_post),
        median(&mut un_pre),
        median(&mut un_post),
        median(&mut text_pre),
        median(&mut text_post),
        median(&mut text_pre) / median(&mut text_post),
        median(&mut probe_pre),
        median(&mut probe_post),
        median(&mut probe_pre) / median(&mut probe_post),
        report.total_index_bytes(),
    );
    append_entry("BENCH_scan.json", &entry);
    println!("appended phase `{phase}` to BENCH_scan.json:\n{entry}");
}

/// Median (sorts in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

/// Existence-check predicate over borrowed cell views (zero-copy).
fn pred_eq_text(s: &str) -> impl for<'v> Fn(prism_db::ValueRef<'v>) -> bool + '_ {
    move |v: prism_db::ValueRef<'_>| v.as_text().is_some_and(|t| t == s)
}

/// Calls/sec of `f`, measured over at least 0.5 s of repetitions.
fn throughput(mut f: impl FnMut()) -> f64 {
    // Warm up.
    for _ in 0..10 {
        f();
    }
    let budget = Duration::from_millis(500);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < budget {
        for _ in 0..50 {
            f();
        }
        iters += 50;
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// Append one JSON object to the array in `path`, creating the file on first
/// use. The array is maintained textually (strip the closing bracket, append)
/// to avoid needing a JSON parser dependency.
fn append_entry(path: &str, entry: &str) {
    let new_content = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let body = trimmed
                .strip_suffix(']')
                .unwrap_or_else(|| panic!("{path} must hold a JSON array"))
                .trim_end();
            if body.ends_with('[') {
                format!("{body}\n  {entry}\n]\n")
            } else {
                format!("{body},\n  {entry}\n]\n")
            }
        }
        Err(_) => format!("[\n  {entry}\n]\n"),
    };
    std::fs::write(path, new_content).unwrap_or_else(|e| panic!("write {path}: {e}"));
}
