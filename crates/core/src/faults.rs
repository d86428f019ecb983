//! Fault isolation for the discovery stack.
//!
//! The interactive loop of the paper only works if the system survives bad
//! inputs: a user-supplied UDF that panics, a corrupt upload, a validation
//! that never returns in time. This module holds the discovery side of that
//! promise: seeded chaos injection into the one injection site, the
//! validation slot, and the types that carry a fault from a slot up to the
//! [`crate::discovery::DiscoveryResult`]:
//!
//! * [`SlotVerdict`] — what one validation slot produced: a verdict, a
//!   skip (cut off by the round deadline, unknown), or a contained fault
//!   with its reason;
//! * [`FaultReport`] — the user-facing record on a degraded result,
//!   naming the filter (as SQL) and the candidates it abandoned.
//!
//! A slot fails only by a contained panic or an executor error; the round
//! deadline is the only thing that stops one early.
//!
//! ## Seeded injection
//!
//! Exercising the fault path needs faults that are **seeded and
//! reproducible**: the same spec must fire at the same slots regardless of
//! thread count or interleaving. A spec is parsed with [`FaultSpec::parse`]
//! and armed per round through [`crate::config::DiscoveryConfig::faults`]:
//!
//! ```text
//! panic:0.01:seed42                   # one kind
//! panic:0.01:seed42,delay:0.1:seed7   # several, comma-separated
//! ```
//!
//! A slot's token is its filter index, and the decision is a pure function
//! of `(seed, token)`: a splitmix64-style hash compared against
//! `rate * 2^64`. Thread scheduling cannot change which faults fire. When
//! no spec is configured the per-slot check is a single `is_none()` branch;
//! the containment layer itself is always on.

/// What an injected fault does in its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic (unwinds into the slot's containment boundary).
    Panic,
    /// Busy-wait a bounded number of virtual steps, then proceed normally.
    Delay,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "delay" => Some(FaultKind::Delay),
            _ => None,
        }
    }

    /// Act out this fault in the slot with `token`. An injected panic is
    /// labelled so fault reports tell it apart from an organic bug.
    pub(crate) fn inject(self, token: u64) {
        match self {
            FaultKind::Panic => panic!("injected fault in validation slot (token {token:#x})"),
            FaultKind::Delay => delay_steps(4096),
        }
    }
}

/// Salt hashed into every decision. Changing it changes every seeded fault
/// stream, and with it every recorded chaos run (see the pinned streams in
/// this module's tests).
const SLOT_SALT: u64 = 0x51ce_22b7_u64.wrapping_mul(0x2545_f491_4f6c_dd1d);

/// One `kind:rate:seedN` clause of a fault spec.
#[derive(Debug, Clone, PartialEq)]
struct FaultEntry {
    kind: FaultKind,
    /// `rate * 2^64`, saturating; a hash below this threshold fires.
    threshold: u64,
    seed: u64,
}

/// A parsed fault specification: zero or more injection clauses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    entries: Vec<FaultEntry>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultSpec {
    /// Parse `kind:rate:seedN[,kind:rate:seedN...]`, where `kind` is
    /// `panic` or `delay`.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut entries = Vec::new();
        for clause in s.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let mut parts = clause.split(':');
            let kind = parts
                .next()
                .and_then(FaultKind::parse)
                .ok_or_else(|| format!("unknown fault kind in `{clause}`"))?;
            let rate: f64 = parts
                .next()
                .and_then(|r| r.parse().ok())
                .ok_or_else(|| format!("bad fault rate in `{clause}`"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate out of [0,1] in `{clause}`"));
            }
            let seed: u64 = match parts.next() {
                Some(s) => s
                    .strip_prefix("seed")
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("bad fault seed in `{clause}` (want seedN)"))?,
                None => 0,
            };
            if parts.next().is_some() {
                return Err(format!("trailing fields in `{clause}`"));
            }
            let threshold = if rate >= 1.0 {
                u64::MAX
            } else {
                (rate * (u64::MAX as f64)) as u64
            };
            entries.push(FaultEntry {
                kind,
                threshold,
                seed,
            });
        }
        Ok(FaultSpec { entries })
    }

    /// Should a fault fire in the slot with this `token`? Deterministic in
    /// `(spec, token)`; first matching clause wins.
    pub fn check(&self, token: u64) -> Option<FaultKind> {
        self.entries
            .iter()
            .find(|e| splitmix64(e.seed ^ SLOT_SALT ^ token) < e.threshold)
            .map(|e| e.kind)
    }
}

/// Burn a bounded number of virtual steps for a `Delay` fault. Wall-clock
/// free (no sleeps), so delay injection perturbs interleavings without
/// making tests slow or flaky.
fn delay_steps(steps: u32) {
    for i in 0..steps {
        if i % 64 == 0 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
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
    /// Unknown: the round deadline passed before the slot started, or cut
    /// its scan short. The filter stays pending.
    Skipped,
    /// The validation panicked or the executor returned an error; the slot
    /// contained it and, after a panic, rebuilt its scratch. Carries the
    /// panic message or the error text.
    Faulted(String),
}

/// One filter's fault on a degraded [`crate::discovery::DiscoveryResult`]:
/// everything a session needs to tell the user *which* part of the search
/// space the partial answer did not cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// The faulted filter's PJ query, rendered as SQL.
    pub filter_sql: String,
    /// The contained panic message or executor error.
    pub reason: String,
    /// Candidates abandoned because this filter could not be decided.
    pub candidates: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_clause() {
        let s = FaultSpec::parse("panic:0.01:seed42").unwrap();
        assert_eq!(s.entries.len(), 1);
        assert_eq!(s.entries[0].kind, FaultKind::Panic);
        assert_eq!(s.entries[0].seed, 42);
    }

    #[test]
    fn parses_multiple_clauses_and_defaults_seed() {
        let s = FaultSpec::parse("delay:0.5,panic:1.0:seed7").unwrap();
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.entries[0].kind, FaultKind::Delay);
        assert_eq!(s.entries[0].seed, 0);
        assert_eq!(s.entries[1].kind, FaultKind::Panic);
        assert_eq!(s.entries[1].threshold, u64::MAX);
    }

    #[test]
    fn rejects_malformed_clauses() {
        assert!(FaultSpec::parse("explode:0.1:seed1").is_err());
        assert!(FaultSpec::parse("transient:0.1:seed1").is_err());
        assert!(FaultSpec::parse("panic:nan:seed1").is_err());
        assert!(FaultSpec::parse("panic:2.0:seed1").is_err());
        assert!(FaultSpec::parse("panic:0.1:42").is_err());
        assert!(FaultSpec::parse("panic:0.1:seed1:extra").is_err());
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let always = FaultSpec::parse("panic:1.0:seed3").unwrap();
        let never = FaultSpec::parse("panic:0.0:seed3").unwrap();
        for t in 0..64 {
            assert_eq!(always.check(t), Some(FaultKind::Panic));
            assert_eq!(never.check(t), None);
        }
    }

    fn hits(spec: &str, tokens: u64) -> Vec<u64> {
        let spec = FaultSpec::parse(spec).unwrap();
        (0..tokens).filter(|&t| spec.check(t).is_some()).collect()
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let hits_a = hits("panic:0.3:seed1", 256);
        assert_eq!(hits_a, hits("panic:0.3:seed1", 256));
        assert_ne!(hits_a, hits("panic:0.3:seed2", 256));
        // Rate ≈ 0.3 over 256 tokens should land in a broad band.
        assert!(hits_a.len() > 40 && hits_a.len() < 140);
    }

    /// Seeded streams must not drift: a recorded chaos run is reproducible
    /// only while its spec fires at the same tokens. The first spec is the
    /// one the chaos matrix and the chaos properties arm.
    #[test]
    fn seeded_fault_streams_are_pinned() {
        assert_eq!(
            hits("panic:0.02:seed7", 1024),
            [
                234, 285, 291, 313, 363, 392, 400, 491, 621, 719, 727, 738, 808, 821, 859, 867,
                878, 890, 960, 984
            ]
        );
        assert_eq!(
            hits("panic:0.3:seed1", 64),
            [4, 7, 9, 12, 13, 17, 19, 20, 21, 26, 27, 28, 31, 35, 43, 48, 53, 56, 59]
        );
    }

    #[test]
    fn slot_verdict_distinguishes_skip_from_fault() {
        let fault = SlotVerdict::Faulted("boom".into());
        assert_ne!(fault, SlotVerdict::Skipped);
        assert_ne!(fault, SlotVerdict::Done(false));
        assert_ne!(SlotVerdict::Done(false), SlotVerdict::Skipped);
    }
}
