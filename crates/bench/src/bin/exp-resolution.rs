//! E1/E2 — execution time and number of satisfying queries as user
//! constraints become loose.
//!
//! Paper (Section 2.4): *"the overall execution time of user constraints
//! did not grow significantly as user constraints became loose … Meanwhile,
//! the number of satisfying schema mapping queries discovered did not
//! increase much."*
//!
//! Sweeps the five resolution levels over synthesized Mondial tasks (plus
//! IMDB and NBA for breadth) and prints one row per level.
//!
//! Usage: `cargo run --release -p prism-bench --bin exp-resolution [tasks]`

use prism_bench::{render_table, resolution_sweep};
use prism_core::{DiscoveryConfig, DiscoveryService};
use prism_datasets::{imdb, mondial, nba, Resolution};
use std::sync::Arc;

fn main() {
    let n_tasks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    // Experiments report the full satisfying set, not the UI's capped list.
    let config = DiscoveryConfig {
        result_limit: 100_000,
        ..DiscoveryConfig::default()
    };

    for db in [mondial(42, 1), imdb(42, 1), nba(42, 1)] {
        println!(
            "== E1/E2: resolution sweep on {} ({} tasks per level) ==\n",
            db.name(),
            n_tasks
        );
        let svc = DiscoveryService::new(Arc::new(db), config.clone());
        let rows = resolution_sweep(&svc, &Resolution::ALL, n_tasks, 0xE1E2);
        let mut table = vec![vec![
            "resolution".to_string(),
            "tasks".to_string(),
            "truth found".to_string(),
            "avg #queries".to_string(),
            "avg time".to_string(),
            "median time".to_string(),
            "avg validations".to_string(),
            "timeouts".to_string(),
        ]];
        for r in &rows {
            table.push(vec![
                r.resolution.name().to_string(),
                r.tasks.to_string(),
                format!("{:.0}%", r.truth_found * 100.0),
                format!("{:.1}", r.avg_queries),
                format!("{:.1?}", r.avg_time),
                format!("{:.1?}", r.median_time),
                format!("{:.1}", r.avg_validations),
                r.timeouts.to_string(),
            ]);
        }
        print!("{}", render_table(&table));

        // The paper's two claims, checked mechanically. Time compares
        // per-level medians: a mean follows a level's few slowest rounds,
        // which swing with host noise from run to run.
        let exact = &rows[0];
        let loosest_constrained = &rows[3]; // metadata level
        let time_ratio = loosest_constrained.median_time.as_secs_f64()
            / exact.median_time.as_secs_f64().max(1e-9);
        let query_ratio = loosest_constrained.avg_queries / exact.avg_queries.max(1e-9);
        println!(
            "\nE1 check: metadata-level median time is {time_ratio:.2}x exact-level \
             (paper: 'did not grow significantly')"
        );
        println!(
            "E2 check: metadata-level #queries is {query_ratio:.2}x exact-level \
             (paper: 'did not increase much')\n"
        );
    }
}
