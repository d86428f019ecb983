//! Interactive-round benchmark for the Prism discovery service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_mix|skewed_join> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets its workload's fixed corpus up several times (`setup_s` is
//! the median), computes every task's reference accept set with the naive
//! engine, warms up, and then drives `SessionHandle::start_searching`
//! rounds in a closed loop, in whole passes over the corpus in the seed's
//! order, for at least `--seconds`, checking every round's output. A fixed
//! kernel timed between the set-ups and between the rounds gives each phase
//! its host slowdown, and the end-to-end times are scaled by it to a
//! reference host speed (`speed`); the raw times go to the context line.
//! With `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a separate traced run,
//! whose spans and text report land in `perfbench/out/`. The line before
//! it records the run's context. `perfbench/METRICS.md` describes the
//! workloads and metrics.

mod check;
mod speed;
mod stats;
mod trace;
mod workload;

use speed::REFERENCE_KERNEL_MS;
use stats::{median, percentile, ratio, samples_beyond};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::{layer_times, round_ms, traced_run, write_spans, TraceRun};
use workload::{
    csv_inputs, prepare, repeated_setup, replay_order, tasks, timed_phase, Timed, Workload,
    CORPUS_SEED, MIN_TASKS, THREAD_BUDGET, WARM_PASSES,
};

/// Longest the timed phase may run to make `MIN_TIMED_PASSES`.
const HARD_STOP: Duration = Duration::from_secs(90);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_mix|skewed_join> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // The library still reads PRISM_* variables deep inside (join order,
    // block rows, ingest threads, fault injection, ...); any of them would
    // change what is measured.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("PRISM_"))
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", set.join(", "));
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: {} seed {} ({}s, trace {}) on {nproc} cpu(s)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let csv = csv_inputs(w);
    let setups = repeated_setup(w, csv.as_ref());
    drop(csv);
    let services = setups.services;
    let mut task_list = tasks(w, &services);
    if task_list.is_empty() {
        return Err("the task generator produced no tasks".to_string());
    }
    let (expected, warm_failures) = prepare(w, &services, &mut task_list);
    let order = replay_order(&task_list, args.seed);
    let timed = timed_phase(
        w,
        &services,
        &task_list,
        &expected,
        &order,
        args.seconds,
        HARD_STOP,
    );
    for f in warm_failures.iter().chain(&timed.failures) {
        eprintln!("{f}");
    }

    let means = timed.task_means_ms();
    let p50 = percentile(&means, 0.5).ok_or("no timed rounds")?;
    let p95 = percentile(&means, 0.95).ok_or("no timed rounds")?;
    if samples_beyond(means.len(), 0.95) < 10 {
        return Err(format!(
            "only {} tasks timed before the hard stop; round_p95_ms needs {MIN_TASKS}",
            means.len()
        ));
    }
    eprintln!(
        "timed: {} rounds in {:.2}s, {} passes over {} tasks, {} failed, \
         task-mean p50 {p50:.3} ms, p95 {p95:.3} ms",
        timed.tally.attempted,
        timed.wall.as_secs_f64(),
        timed.passes,
        task_list.len(),
        timed.tally.failed,
    );
    // The end-to-end times are scaled to the reference host speed, each by
    // the slowdown the kernel measured during its own phase.
    let setup_slowdown = setups
        .speed
        .slowdown()
        .ok_or("no kernel samples in set-up")?;
    let timed_slowdown = timed
        .speed
        .slowdown()
        .ok_or("no kernel samples in timed phase")?;
    eprintln!(
        "host slowdown: set-up {setup_slowdown:.3} ({} samples), timed {timed_slowdown:.3} ({} samples)",
        setups.speed.samples_ms.len(),
        timed.speed.samples_ms.len()
    );

    let mut correct = warm_failures.is_empty() && timed.tally.failed == 0;
    let metrics: Vec<(String, &str, f64)> = if args.trace {
        let oracle = w == Workload::PaperMix;
        let trace_start = std::time::Instant::now();
        let tr = traced_run(w, &services, &task_list, &expected, oracle);
        eprintln!("traced run: {:.2}s", trace_start.elapsed().as_secs_f64());
        for m in &tr.mismatches {
            eprintln!("{m}");
        }
        correct &= tr.mismatches.is_empty();
        let dbs: Vec<&prism_db::Database> = services.iter().map(|s| s.database()).collect();
        let metrics = per_layer_metrics(&tr, &dbs, setups.build_s, p50 / timed_slowdown, &timed);
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating {out_dir:?}: {e}"))?;
        let stem = format!("{}-seed{}", w.name(), args.seed);
        let span_path = out_dir.join(format!("{stem}.spans.jsonl"));
        write_spans(&span_path, &tr.spans).map_err(|e| format!("writing {span_path:?}: {e}"))?;
        let report = report(w, args.seed, &tr, &metrics, &span_path);
        eprint!("{report}");
        let report_path = out_dir.join(format!("{stem}.report.txt"));
        std::fs::write(&report_path, &report)
            .map_err(|e| format!("writing {report_path:?}: {e}"))?;
        metrics
    } else {
        vec![
            ("round_p50_ms".into(), "ms", p50 / timed_slowdown),
            ("round_p95_ms".into(), "ms", p95 / timed_slowdown),
            (
                "rounds_per_s".into(),
                "1/s",
                timed.rounds_per_s() * timed_slowdown,
            ),
            ("setup_s".into(), "s", setups.total_s / setup_slowdown),
            ("peak_rss_mb".into(), "MiB", peak_rss_mib()?),
            ("truth_recall".into(), "ratio", timed.tally.truth_recall()),
        ]
    };

    let rows: Vec<String> = services
        .iter()
        .map(|s| {
            let db = s.database();
            format!("\"{}\":{}", db.name(), db.total_rows())
        })
        .collect();
    println!(
        "{{\"context\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"nproc\":{nproc},\
         \"thread_budget\":{THREAD_BUDGET},\"validation_threads\":{},\
         \"corpus_seed\":{CORPUS_SEED},\"scales\":\"{}\",\"tasks\":{},\"rows_per_db\":{{{}}},\"setup_reps\":{},\
         \"warm_passes\":{WARM_PASSES},\"timed_rounds\":{},\"timed_passes\":{},\"timed_wall_s\":{},\"failed_rounds_ratio\":{},\
         \"reference_kernel_ms\":{REFERENCE_KERNEL_MS},\"setup_slowdown\":{setup_slowdown},\"timed_slowdown\":{timed_slowdown},\
         \"raw\":{{\"round_p50_ms\":{p50},\"round_p95_ms\":{p95},\"rounds_per_s\":{},\"setup_s\":{}}}}}}}",
        w.name(),
        args.seed,
        args.seconds,
        w.config().validation_threads,
        w.scales(),
        task_list.len(),
        rows.join(","),
        setups.reps,
        timed.tally.attempted,
        timed.passes,
        timed.wall.as_secs_f64(),
        timed.tally.failed_ratio(),
        timed.rounds_per_s(),
        setups.total_s,
    );
    println!(
        "{}",
        result_line(correct, timed.tally.attempted, timed.tally.failed, &metrics)?
    );
    Ok(())
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, unit, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    ))
}

/// Process high-water resident set size (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn per_layer_metrics(
    tr: &TraceRun,
    dbs: &[&prism_db::Database],
    build_s: f64,
    untraced_scaled_p50: f64,
    timed: &Timed,
) -> Vec<(String, &'static str, f64)> {
    let times = layer_times(&tr.spans);
    let total_ms = |name: &str| times.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let self_ms = |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let c = &tr.traced;
    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    let (column_mb, index_mb, ingest) = dbs.iter().fold((0.0, 0.0, 0.0), |acc, db| {
        let m = db.memory_report();
        (
            acc.0 + mib(m.total_column_bytes()),
            acc.1 + mib(m.total_index_bytes()),
            acc.2 + db.ingest_report().mb_per_sec().unwrap_or(0.0),
        )
    });
    // Both medians scaled by their own phase's slowdown, so that host drift
    // between the timed phase and the traced pass does not count as
    // tracing overhead.
    let traced_scaled_p50 =
        median(&round_ms(&tr.spans)).unwrap_or(0.0) / tr.speed.slowdown().unwrap_or(1.0);
    let n = |x: u64| x as f64;
    vec![
        ("bayes.score_ms".into(), "ms", total_ms("bayes.score")),
        ("bayes.score_calls".into(), "count", n(c.score_calls)),
        ("scheduler.self_ms".into(), "ms", self_ms("scheduler")),
        ("scheduler.validations".into(), "count", n(c.validations)),
        ("scheduler.implied".into(), "count", n(c.implied)),
        (
            "scheduler.validations_over_oracle".into(),
            "ratio",
            ratio(n(c.validations), n(c.oracle_validations)),
        ),
        (
            "scheduler.speculative_scores".into(),
            "count",
            n(c.speculative_scores),
        ),
        (
            "scheduler.speculative_wasted_ratio".into(),
            "ratio",
            ratio(n(c.speculative_wasted), n(c.speculative_scores)),
        ),
        (
            "scheduler.rounds_overlapped".into(),
            "count",
            n(c.rounds_overlapped),
        ),
        ("scheduler.stolen".into(), "count", n(c.stolen)),
        ("candidates.ms".into(), "ms", total_ms("candidates")),
        ("candidates.count".into(), "count", n(c.candidates)),
        (
            "candidates.truncated_rounds".into(),
            "count",
            n(c.truncated_rounds),
        ),
        ("filters.ms".into(), "ms", total_ms("filters")),
        ("filters.count".into(), "count", n(c.filters)),
        ("exec.rows_examined".into(), "count", n(c.rows_examined)),
        (
            "exec.max_round_rows_examined".into(),
            "count",
            n(c.max_round_rows_examined),
        ),
        (
            "exec.fanout_ratio".into(),
            "ratio",
            ratio(n(c.rows_examined), n(c.rows_estimated)),
        ),
        ("exec.blocks_skipped".into(), "count", n(c.blocks_skipped)),
        ("exec.index_probes".into(), "count", n(c.index_probes)),
        ("exec.plans_built".into(), "count", n(tr.cold_plans_built)),
        (
            "service.plan_cache_hit_ratio".into(),
            "ratio",
            tr.cold_hit_ratio,
        ),
        (
            "service.plan_cache_entries".into(),
            "count",
            tr.plan_cache_entries as f64,
        ),
        (
            "constraints.parse_us".into(),
            "us",
            total_ms("constraints.parse") * 1e3,
        ),
        ("related.ms".into(), "ms", total_ms("related")),
        ("related.columns".into(), "count", n(c.related_columns)),
        ("discovery.rank_ms".into(), "ms", total_ms("discovery.rank")),
        ("discovery.queries".into(), "count", n(c.queries)),
        ("db.build_ms".into(), "ms", build_s * 1e3),
        ("db.ingest_mb_per_s".into(), "MB/s", ingest),
        ("db.column_mb".into(), "MiB", column_mb),
        ("db.index_mb".into(), "MiB", index_mb),
        ("bayes.train_ms".into(), "ms", tr.train_ms),
        (
            "trace.overhead_ratio".into(),
            "ratio",
            ratio(traced_scaled_p50, untraced_scaled_p50) - 1.0,
        ),
        (
            "failed_rounds_ratio".into(),
            "ratio",
            timed.tally.failed_ratio(),
        ),
    ]
}

/// The traced run's text report: per-layer self-time shares, counters and
/// the tracing overhead.
fn report(
    w: Workload,
    seed: u64,
    tr: &TraceRun,
    metrics: &[(String, &str, f64)],
    span_path: &std::path::Path,
) -> String {
    let times = layer_times(&tr.spans);
    let round_ns = times.get("round").map_or(0, |t| t.total_ns).max(1) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "traced run: {} seed {seed}, {} traced rounds, {} spans -> {}",
        w.name(),
        tr.traced.rounds,
        tr.spans.len(),
        span_path.display()
    );
    let _ = writeln!(
        out,
        "{:<18} {:>9} {:>11} {:>11} {:>7}",
        "layer", "spans", "total_ms", "self_ms", "self%"
    );
    for name in [
        "round",
        "constraints.parse",
        "related",
        "candidates",
        "filters",
        "scheduler",
        "bayes.score",
        "discovery.rank",
    ] {
        let t = times.get(name).copied().unwrap_or_default();
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>11.3} {:>11.3} {:>6.1}%",
            name,
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / round_ns
        );
    }
    for (name, unit, value) in metrics {
        let _ = writeln!(out, "  {name:<36} {value:>16.4} {unit}");
    }
    out
}
