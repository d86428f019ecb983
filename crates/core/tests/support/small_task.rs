//! Taskgen tasks small enough for full-classification checks, shared by
//! this crate's integration tests.

use prism_core::candidates::enumerate_candidates;
use prism_core::related::find_related;
use prism_core::{DiscoveryConfig, TargetConstraints};
use prism_datasets::{Resolution, TaskGenConfig, TaskGenerator};
use prism_db::Database;
use rand::rngs::StdRng;

/// The constraint grid of one mapping task, and the key of the query it
/// was drawn from.
pub struct Task {
    pub label: String,
    pub column_count: usize,
    pub samples: Vec<Vec<Option<String>>>,
    pub metadata: Vec<Option<String>>,
    pub truth: String,
}

impl Task {
    pub fn constraints(&self) -> TargetConstraints {
        TargetConstraints::parse(self.column_count, &self.samples, &self.metadata)
            .expect("tasks carry parseable constraints")
    }
}

/// The first of 100 taskgen draws from `rng` at `resolution`, with
/// `sample_rows` sample rows, whose candidate set is non-empty and at most
/// `max_candidates`.
pub fn small_task(
    db: &Database,
    resolution: Resolution,
    sample_rows: usize,
    max_candidates: usize,
    rng: &mut StdRng,
) -> Task {
    let config = DiscoveryConfig::default();
    let taskgen = TaskGenerator::new(
        db,
        TaskGenConfig {
            sample_rows,
            ..TaskGenConfig::default()
        },
    );
    (0..100)
        .find_map(|draw| {
            let task = taskgen.generate(resolution, rng)?;
            let task = Task {
                label: format!(
                    "{} {}, {sample_rows} sample row(s), draw {draw}",
                    db.name(),
                    resolution.name()
                ),
                column_count: task.column_count,
                samples: task.samples,
                metadata: task.metadata,
                truth: task.truth_key,
            };
            let related = find_related(db, &task.constraints(), &config);
            let n = enumerate_candidates(db, &related, &config, None)
                .candidates
                .len();
            (1..=max_candidates).contains(&n).then_some(task)
        })
        .unwrap_or_else(|| panic!("no small {} task on {}", resolution.name(), db.name()))
}
