//! Discovery configuration.

use crate::faults::FaultSpec;
use crate::scheduler::SchedulerKind;
use std::time::Duration;

/// Knobs for one round of query discovery. The defaults mirror the demo
/// deployment: a 60-second interactive budget and join trees of up to four
/// tables.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// Maximum number of tables in a candidate join tree.
    pub max_tables: usize,
    /// Hard cap on enumerated candidates (guards pathological constraint
    /// sets; hitting it is reported in the stats).
    pub max_candidates: usize,
    /// Cap on related columns kept per target column. Only unconstrained
    /// target columns ever approach this; constrained columns are narrowed
    /// by the index and statistics.
    pub max_related_per_column: usize,
    /// Wall-clock budget for one discovery round (the paper's "60-second
    /// time limit for each round of query discovery").
    pub time_budget: Duration,
    /// Maximum number of satisfying queries to return. The cap also bounds
    /// the round's work: a round decides only the candidates its top
    /// `result_limit` depend on, in tier passes ([`crate::discovery`]) under
    /// the scheduler's top-k cut ([`crate::scheduler`]), and returns the
    /// same list as a full classification. A limit at or above the round's
    /// candidate count classifies every candidate.
    pub result_limit: usize,
    /// Which filter-validation scheduler to use.
    pub scheduler: SchedulerKind,
    /// The greedy loop's batch width: filters validated per round, on
    /// that many pool workers (greedy schedulers only; `Naive` and
    /// `Oracle` are inherently sequential). `1` validates one filter per
    /// round inline, with no pool. Defaults to the machine's available
    /// parallelism.
    pub validation_threads: usize,
    /// Inert: no code reads it; kept so struct literals that set it compile.
    pub pipeline: bool,
    /// Deterministic fault injection for chaos testing ([`FaultSpec`]).
    /// `None` (the default) disables injection entirely — the containment
    /// layer stays armed but costs one branch. `panic:0.01:seed42` fires an
    /// injected panic in ~1% of validation slots, seeded so reruns fault
    /// identically.
    pub faults: Option<FaultSpec>,
}

impl Default for DiscoveryConfig {
    fn default() -> DiscoveryConfig {
        DiscoveryConfig {
            max_tables: 4,
            max_candidates: 20_000,
            max_related_per_column: 64,
            time_budget: Duration::from_secs(60),
            result_limit: 64,
            scheduler: SchedulerKind::Bayes,
            validation_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pipeline: false,
            faults: None,
        }
    }
}

impl DiscoveryConfig {
    /// A configuration with the given scheduler and defaults elsewhere.
    pub fn with_scheduler(scheduler: SchedulerKind) -> DiscoveryConfig {
        DiscoveryConfig {
            scheduler,
            ..DiscoveryConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_demo_deployment() {
        let c = DiscoveryConfig::default();
        assert_eq!(c.time_budget, Duration::from_secs(60));
        assert_eq!(c.max_tables, 4);
        assert_eq!(c.scheduler, SchedulerKind::Bayes);
        assert!(c.faults.is_none(), "chaos is opt-in");
    }

    #[test]
    fn with_scheduler_overrides_only_the_scheduler() {
        let c = DiscoveryConfig::with_scheduler(SchedulerKind::PathLength);
        assert_eq!(c.scheduler, SchedulerKind::PathLength);
        assert_eq!(c.max_tables, DiscoveryConfig::default().max_tables);
    }

    #[test]
    fn validation_threads_default_is_at_least_one() {
        // Detected parallelism may be unavailable; zero threads must still
        // be impossible.
        assert!(DiscoveryConfig::default().validation_threads >= 1);
    }
}
