//! E2 (missing-value corner) — satisfying-query count as cells go missing.
//!
//! Paper (Section 2.4): the number of satisfying queries *"did not increase
//! much (unless when there were too many missing values)"*. This harness
//! sweeps the number of blanked-out cells per sample row (0 = exact) and
//! reports the blow-up.
//!
//! Usage: `cargo run --release -p prism-bench --bin exp-missing [tasks]`

use prism_bench::{render_table, task_constraints};
use prism_core::{DiscoveryConfig, DiscoveryService};
use prism_datasets::{mondial, Resolution, TaskGenConfig, TaskGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let n_tasks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    // Report the full satisfying set, not the UI's capped list, with one
    // validation thread so that no column depends on the host's core count.
    let svc = DiscoveryService::new(
        Arc::new(mondial(42, 1)),
        DiscoveryConfig {
            result_limit: 100_000,
            validation_threads: 1,
            ..DiscoveryConfig::default()
        },
    );
    println!("== E2: missing-value sweep on Mondial ({n_tasks} tasks per level) ==\n");

    let mut table = vec![vec![
        "missing cells".to_string(),
        "tasks".to_string(),
        "truth found".to_string(),
        "avg #queries".to_string(),
        "max #queries".to_string(),
        "avg time".to_string(),
    ]];
    // Tasks project 3 columns (min=max=3) so up to 2 cells can be blanked.
    for missing in 0..=2usize {
        let taskgen = TaskGenerator::new(
            svc.database(),
            TaskGenConfig {
                min_columns: 3,
                max_columns: 3,
                missing_cells: missing,
                ..TaskGenConfig::default()
            },
        );
        let resolution = if missing == 0 {
            Resolution::Exact
        } else {
            Resolution::Missing
        };
        let mut rng = StdRng::seed_from_u64(0xE2);
        let tasks = taskgen.generate_many(resolution, n_tasks, &mut rng);
        let mut found = 0usize;
        let mut total_q = 0usize;
        let mut max_q = 0usize;
        let mut total_time = std::time::Duration::ZERO;
        for task in &tasks {
            let result = svc.run(&task_constraints(task));
            if result.queries.iter().any(|q| q.key == task.truth_key) {
                found += 1;
            }
            total_q += result.queries.len();
            max_q = max_q.max(result.queries.len());
            total_time += result.stats.elapsed;
        }
        let n = tasks.len().max(1);
        table.push(vec![
            missing.to_string(),
            tasks.len().to_string(),
            format!("{:.0}%", found as f64 / n as f64 * 100.0),
            format!("{:.1}", total_q as f64 / n as f64),
            max_q.to_string(),
            format!("{:.1?}", total_time / n as u32),
        ]);
    }
    print!("{}", render_table(&table));
    println!(
        "\nPaper claim: query count stays modest until 'too many missing values' —\n\
         expect the 2-missing row (only one anchored cell left) to blow up."
    );
}
