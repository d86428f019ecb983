//! Output check and failure accounting for discovery rounds.

use crate::stats::ratio;
use std::collections::BTreeMap;

/// What the check reads from one round, detached from the library types so
/// the rules can be exercised on hand-made result lists.
pub struct Observed<'a> {
    /// `Err` text when `start_searching` returned an error.
    pub error: Option<String>,
    pub timed_out: bool,
    pub degraded: bool,
    pub faults_injected: u64,
    /// Canonical keys of the returned queries, in rank order.
    pub keys: &'a [String],
}

/// Check one round against its task's expectations:
///
/// * no error, timeout, degradation or injected fault;
/// * every returned key lies in the reference accept set (as a multiset);
/// * exactly `min(|reference|, result_limit)` keys come back;
/// * when `warm` is given, the keys equal the warm-up round's, in order.
///
/// `reference` holds the canonical keys the naive engine accepted.
pub fn check_round(
    obs: &Observed<'_>,
    reference: &[String],
    result_limit: usize,
    warm: Option<&[String]>,
) -> Result<(), String> {
    if let Some(e) = &obs.error {
        return Err(format!("round returned an error: {e}"));
    }
    if obs.timed_out {
        return Err("round timed out".to_string());
    }
    if obs.degraded {
        return Err("round is degraded".to_string());
    }
    if obs.faults_injected > 0 {
        return Err(format!("{} injected fault(s)", obs.faults_injected));
    }
    let want = reference.len().min(result_limit);
    if obs.keys.len() != want {
        return Err(format!(
            "returned {} queries, want min(|reference| = {}, limit {result_limit}) = {want}",
            obs.keys.len(),
            reference.len()
        ));
    }
    let mut budget: BTreeMap<&str, usize> = BTreeMap::new();
    for k in reference {
        *budget.entry(k.as_str()).or_default() += 1;
    }
    for k in obs.keys {
        match budget.get_mut(k.as_str()) {
            Some(n) if *n > 0 => *n -= 1,
            _ => {
                return Err(format!(
                    "returned query outside the reference accept set: {k}"
                ))
            }
        }
    }
    if let Some(warm) = warm {
        if warm != obs.keys {
            return Err("returned queries differ from the warm-up round's".to_string());
        }
    }
    Ok(())
}

/// Attempted/failed round counts and truth hits of one phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub truth_found: u64,
}

impl Tally {
    /// Count one round. A failed round never counts as finding the truth.
    pub fn record(&mut self, verdict: &Result<(), String>, truth_found: bool) {
        self.attempted += 1;
        if verdict.is_err() {
            self.failed += 1;
        } else if truth_found {
            self.truth_found += 1;
        }
    }

    pub fn failed_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    pub fn truth_recall(&self) -> f64 {
        ratio(self.truth_found as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn clean(k: &[String]) -> Observed<'_> {
        Observed {
            error: None,
            timed_out: false,
            degraded: false,
            faults_injected: 0,
            keys: k,
        }
    }

    #[test]
    fn exact_result_passes() {
        let reference = keys(&["a", "b", "c"]);
        let got = keys(&["b", "a", "c"]);
        assert_eq!(
            check_round(&clean(&got), &reference, 64, Some(&got)),
            Ok(())
        );
        // The cap keeps any `limit` members of the reference.
        let capped = keys(&["c", "a"]);
        assert_eq!(check_round(&clean(&capped), &reference, 2, None), Ok(()));
    }

    #[test]
    fn dropped_key_fails_and_is_counted() {
        let reference = keys(&["a", "b", "c"]);
        let corrupted = keys(&["a", "b"]);
        let verdict = check_round(&clean(&corrupted), &reference, 64, None);
        assert!(verdict.is_err());
        let mut t = Tally::default();
        t.record(&verdict, true);
        t.record(&Ok(()), true);
        assert_eq!(
            t,
            Tally {
                attempted: 2,
                failed: 1,
                truth_found: 1
            }
        );
        assert_eq!(t.failed_ratio(), 0.5);
        assert_eq!(t.truth_recall(), 0.5);
    }

    #[test]
    fn key_outside_the_reference_fails() {
        let reference = keys(&["a", "b", "c"]);
        let corrupted = keys(&["a", "b", "zz"]);
        let err = check_round(&clean(&corrupted), &reference, 64, None).unwrap_err();
        assert!(err.contains("zz"), "{err}");
        // A duplicate of a member is outside the multiset as well.
        let doubled = keys(&["a", "a", "b"]);
        assert!(check_round(&clean(&doubled), &reference, 64, None).is_err());
    }

    #[test]
    fn drift_from_the_warm_up_round_fails() {
        let reference = keys(&["a", "b"]);
        let warm = keys(&["a", "b"]);
        let reordered = keys(&["b", "a"]);
        assert!(check_round(&clean(&reordered), &reference, 64, Some(&warm)).is_err());
    }

    #[test]
    fn unhealthy_rounds_fail_even_with_the_right_keys() {
        let reference = keys(&["a"]);
        let got = keys(&["a"]);
        let cases = [
            Observed {
                error: Some("parse".into()),
                ..clean(&got)
            },
            Observed {
                timed_out: true,
                ..clean(&got)
            },
            Observed {
                degraded: true,
                ..clean(&got)
            },
            Observed {
                faults_injected: 1,
                ..clean(&got)
            },
        ];
        let mut t = Tally::default();
        for obs in &cases {
            t.record(&check_round(obs, &reference, 64, None), true);
        }
        assert_eq!(t.failed, 4);
        assert_eq!(t.truth_found, 0);
        assert_eq!(t.failed_ratio(), 1.0);
    }
}
