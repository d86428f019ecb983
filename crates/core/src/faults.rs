//! Fault isolation for the discovery stack.
//!
//! The interactive loop of the paper only works if the system survives bad
//! inputs: a user-supplied UDF that panics, a corrupt upload, a validation
//! that never returns. This module is the discovery-side half of that
//! promise — the seeded injection primitives live in [`prism_db::faults`]
//! (re-exported here); this crate hosts their one injection site, the
//! validation slot, and adds the types that carry a fault from a slot up to
//! the [`crate::discovery::DiscoveryResult`]:
//!
//! * [`SlotVerdict`] — what one validation slot produced: a verdict, a
//!   skip (cancelled/abandoned, unknown), or a contained fault;
//! * [`FaultNote`] — why a slot faulted and how many retries it burned;
//! * [`FaultReport`] — the user-facing record on a degraded result,
//!   naming the filter (as SQL) and the candidates it abandoned.
//!
//! Injection is armed per round through
//! [`crate::config::DiscoveryConfig::faults`] with a
//! `<kind>:<rate>:seed<N>` spec (see [`FaultSpec`]). The containment layer
//! is always on; injection is opt-in and zero-cost when absent.

pub use prism_db::faults::{
    attempt_token, delay_steps, injected_panic, FaultKind, FaultSite, FaultSpec,
};

/// Why a validation slot faulted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultNote {
    /// The panic message (or transient-exhaustion description).
    pub reason: String,
    /// Transient retries burned before giving up.
    pub retries: u32,
}

/// What one validation slot produced. The scheduler treats `Faulted` as
/// *rejected with reason* — the filter resolves (its candidates are
/// abandoned, the result degrades) but the fault does **not** propagate as
/// a logical failure to superfilters: a crash proves nothing about the
/// data, so implication pruning must not act on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotVerdict {
    /// The validation ran to completion.
    Done(bool),
    /// Unknown: cancelled before start, cancelled mid-run (deadline), or
    /// hard-abandoned by the watchdog. The filter stays pending.
    Skipped,
    /// The validation panicked (or exhausted its transient-retry budget);
    /// the worker contained the unwind and rebuilt its scratch.
    Faulted(FaultNote),
}

/// One filter's fault on a degraded [`crate::discovery::DiscoveryResult`]:
/// everything a session needs to tell the user *which* part of the search
/// space the partial answer did not cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// The faulted filter's PJ query, rendered as SQL.
    pub filter_sql: String,
    /// The contained panic message or retry-exhaustion description.
    pub reason: String,
    /// Transient retries burned before the fault was declared.
    pub retries: u32,
    /// Candidates abandoned because this filter could not be decided.
    pub candidates: usize,
}

/// Per-worker fault accounting, merged into the pool totals like
/// [`prism_db::ExecStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Faults the injection layer fired (all kinds, all sites this worker
    /// touched).
    pub injected: u64,
    /// Transient retries performed.
    pub retries: u64,
}

impl FaultCounters {
    pub fn merge(&mut self, other: &FaultCounters) {
        self.injected += other.injected;
        self.retries += other.retries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_verdict_distinguishes_skip_from_fault() {
        let fault = SlotVerdict::Faulted(FaultNote {
            reason: "boom".into(),
            retries: 2,
        });
        assert_ne!(fault, SlotVerdict::Skipped);
        assert_ne!(fault, SlotVerdict::Done(false));
        assert_ne!(SlotVerdict::Done(false), SlotVerdict::Skipped);
    }

    #[test]
    fn counters_merge() {
        let mut a = FaultCounters {
            injected: 1,
            retries: 2,
        };
        a.merge(&FaultCounters {
            injected: 3,
            retries: 4,
        });
        assert_eq!(
            a,
            FaultCounters {
                injected: 4,
                retries: 6
            }
        );
    }
}
