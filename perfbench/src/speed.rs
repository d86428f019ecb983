//! Host-speed index: a fixed CPU kernel, owned by the benchmark, timed
//! throughout a phase so that the phase's wall times can be scaled to a
//! reference host speed.
//!
//! On a shared 2-vCPU VM the same binary ran a discovery round, a set-up
//! and this kernel alike 1.7-2.3x slower while other tenants loaded the
//! host, for minutes at a time, switching between a fast and a slow state
//! every few seconds. Dividing a phase's mean times by the phase's mean
//! kernel time (relative to `REFERENCE_KERNEL_MS`) cancels that drift:
//! both means grow with the share of the phase spent in the slow state,
//! where medians jump between the two states. The means are trimmed
//! (`trimmed_mean`): in two of twenty loaded runs the plain kernel mean
//! read 17 % and 33 % above the neighbouring runs' while the rounds ran at
//! their usual speed. The kernel runs no library code, so a change to the
//! library moves the scaled times as it moves the raw ones.

use crate::stats::trimmed_mean;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// Kernel time, in ms, on the reference host the scaled metrics describe:
/// a round number near the 0.14-0.18 ms a quiet 2-vCPU Xeon VM takes.
pub const REFERENCE_KERNEL_MS: f64 = 0.2;
/// Least time between two throttled samples of one probe.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);

/// One run of the kernel, in ms: fill 8192 pseudo-random words, sort them
/// and count their high bits in a hash map. Under other tenants' load it
/// slowed as much as a median discovery round did (1.72x against 1.71x),
/// and more than the heaviest rounds, which wait on memory (1.50x).
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut words: Vec<u32> = (0..8192)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    words.sort_unstable();
    let mut counts: HashMap<u32, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for &w in words.iter().step_by(4) {
        *counts.entry(w >> 8).or_default() += 1;
    }
    std::hint::black_box((&words, &counts));
    start.elapsed().as_secs_f64() * 1e3
}

/// Kernel samples taken during one phase.
#[derive(Debug, Default)]
pub struct SpeedProbe {
    last: Option<Instant>,
    pub samples_ms: Vec<f64>,
}

impl SpeedProbe {
    /// Run the kernel once.
    pub fn sample(&mut self) {
        self.samples_ms.push(kernel_ms());
        self.last = Some(Instant::now());
    }

    /// Run the kernel unless this probe sampled less than `SAMPLE_EVERY`
    /// ago. Called between rounds, it samples the phase evenly in time.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= SAMPLE_EVERY) {
            self.sample();
        }
    }

    /// How many times slower than the reference host the phase ran: its
    /// trimmed mean kernel time over `REFERENCE_KERNEL_MS`.
    pub fn slowdown(&self) -> Option<f64> {
        trimmed_mean(&self.samples_ms).map(|ms| ms / REFERENCE_KERNEL_MS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_trimmed_mean_sample_over_the_reference() {
        let mut p = SpeedProbe::default();
        assert_eq!(p.slowdown(), None);
        p.samples_ms = vec![0.5, 0.25, 0.75];
        assert_eq!(p.slowdown(), Some(0.5 / REFERENCE_KERNEL_MS));
    }

    #[test]
    fn tick_samples_at_most_once_per_interval() {
        let mut p = SpeedProbe::default();
        p.tick();
        p.tick();
        assert_eq!(p.samples_ms.len(), 1);
        assert!(p.samples_ms[0] > 0.0);
        p.sample();
        assert_eq!(p.samples_ms.len(), 2);
    }
}
