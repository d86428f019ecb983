//! Deterministic fault injection for chaos testing.
//!
//! The discovery stack promises to *degrade*, not die, when a filter
//! validation panics. Exercising that path needs faults that are **seeded
//! and reproducible**: the same spec must fire at the same slots regardless
//! of thread count or interleaving. This module provides that primitive.
//!
//! A spec is parsed with [`FaultSpec::parse`] and armed per round through
//! `DiscoveryConfig::faults` in `prism_core`:
//!
//! ```text
//! panic:0.01:seed42                   # one kind
//! panic:0.01:seed42,delay:0.1:seed7   # several, comma-separated
//! ```
//!
//! Each injection *site* carries a stable token (a validation slot's filter
//! index), and the decision is a pure function of `(seed, site, token)`: a
//! splitmix64-style hash compared against `rate * 2^64`. Thread scheduling
//! cannot change which faults fire. Retries salt the token with the attempt
//! number, so an injected *transient* fault can succeed on retry while a
//! real bug keeps failing.
//!
//! When no spec is configured the per-site check is a single `is_none()`
//! branch — the layer is free when disabled.

use std::fmt;

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic (unwinds into the containment layer above the site).
    Panic,
    /// Busy-wait a bounded number of virtual steps, then proceed normally.
    Delay,
    /// Fail in a retryable way; the retry (salted token) usually succeeds.
    Transient,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "delay" => Some(FaultKind::Delay),
            "transient" => Some(FaultKind::Transient),
            _ => None,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Delay => write!(f, "delay"),
            FaultKind::Transient => write!(f, "transient"),
        }
    }
}

/// Where in the stack a fault may be injected. The site's tag is hashed
/// into every decision, so a seed's fault stream is tied to its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Inside one validation slot, inline or on the worker pool
    /// (`prism_core`).
    ValidationSlot,
}

impl FaultSite {
    fn tag(self) -> u64 {
        match self {
            FaultSite::ValidationSlot => 0x51ce_22b7,
        }
    }
}

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

/// Fold the attempt number into a site token so retries re-roll the dice.
pub fn attempt_token(token: u64, attempt: u32) -> u64 {
    token ^ ((attempt as u64) << 48)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultSpec {
    /// Parse `kind:rate:seedN[,kind:rate:seedN...]`.
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

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Should a fault fire at `site` for this `token`? Deterministic in
    /// `(spec, site, token)`; first matching clause wins.
    pub fn check(&self, site: FaultSite, token: u64) -> Option<FaultKind> {
        for e in &self.entries {
            let h = splitmix64(e.seed ^ site.tag().wrapping_mul(0x2545_f491_4f6c_dd1d) ^ token);
            if h < e.threshold {
                return Some(e.kind);
            }
        }
        None
    }
}

/// Burn a bounded number of virtual steps for a `Delay` fault. Wall-clock
/// free (no sleeps), so delay injection perturbs interleavings without
/// making tests slow or flaky.
pub fn delay_steps(steps: u32) {
    for i in 0..steps {
        if i % 64 == 0 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The panic payload used by injected `Panic`/`Transient` faults, so
/// containment layers can label them distinctly from organic bugs.
pub fn injected_panic(site: FaultSite, token: u64) -> ! {
    panic!("injected fault at {site:?} (token {token:#x})")
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
        let s = FaultSpec::parse("delay:0.5,transient:1.0:seed7").unwrap();
        assert_eq!(s.entries.len(), 2);
        assert_eq!(s.entries[0].kind, FaultKind::Delay);
        assert_eq!(s.entries[0].seed, 0);
        assert_eq!(s.entries[1].kind, FaultKind::Transient);
        assert_eq!(s.entries[1].threshold, u64::MAX);
    }

    #[test]
    fn rejects_malformed_clauses() {
        assert!(FaultSpec::parse("explode:0.1:seed1").is_err());
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
            assert_eq!(
                always.check(FaultSite::ValidationSlot, t),
                Some(FaultKind::Panic)
            );
            assert_eq!(never.check(FaultSite::ValidationSlot, t), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultSpec::parse("panic:0.3:seed1").unwrap();
        let b = FaultSpec::parse("panic:0.3:seed2").unwrap();
        let hits_a: Vec<u64> = (0..256)
            .filter(|&t| a.check(FaultSite::ValidationSlot, t).is_some())
            .collect();
        let again: Vec<u64> = (0..256)
            .filter(|&t| a.check(FaultSite::ValidationSlot, t).is_some())
            .collect();
        assert_eq!(hits_a, again);
        let hits_b: Vec<u64> = (0..256)
            .filter(|&t| b.check(FaultSite::ValidationSlot, t).is_some())
            .collect();
        assert_ne!(hits_a, hits_b);
        // Rate ≈ 0.3 over 256 tokens should land in a broad band.
        assert!(hits_a.len() > 40 && hits_a.len() < 140);
    }

    #[test]
    fn attempt_salting_rerolls() {
        let s = FaultSpec::parse("transient:0.5:seed5").unwrap();
        // Over many tokens, at least one fault that fires on attempt 0
        // clears on attempt 1 — that's what makes transients retryable.
        let recovered = (0..256u64).any(|t| {
            s.check(FaultSite::ValidationSlot, attempt_token(t, 0))
                .is_some()
                && s.check(FaultSite::ValidationSlot, attempt_token(t, 1))
                    .is_none()
        });
        assert!(recovered);
    }
}
