//! Machine-speed calibration for the end-to-end timings.
//!
//! On a shared virtual machine the host's speed drifts: neighbours on the
//! same physical cores slowed every op by up to 1.6× for seconds at a
//! time, and run medians drifted by 30% over tens of minutes. No median
//! inside one run removes that. So before each op the benchmark times a
//! fixed kernel of its own — allocation, a sort, hashing and formatting,
//! the same kinds of work sgxperf does — and scales the op's host time by
//! `REFERENCE_MS` ÷ (median of the last few kernel times). The result is
//! host time at a fixed reference speed. The kernel is the benchmark's
//! own code, identical on both sides of any comparison, so a change to
//! the program moves the op times and never the kernel.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use crate::stats::median;

/// The kernel's time at the reference speed: about its fast-phase time on
/// a 2-vCPU Xeon guest.
pub const REFERENCE_MS: f64 = 4.0;

/// Kernel samples in the rolling median.
const WINDOW: usize = 5;

/// The fixed work: 100k pseudo-random u64 generated, sorted, bucketed
/// into a hash map, and 20k of them formatted.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<u64> = (0..100_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut buckets: HashMap<u64, u64> = HashMap::new();
    for (i, k) in v.iter().enumerate().step_by(4) {
        *buckets.entry(k % 5003).or_default() += i as u64;
    }
    let text: Vec<String> = v.iter().take(20_000).map(|k| format!("{k:x}")).collect();
    buckets.values().sum::<u64>() ^ text.iter().map(|t| t.len() as u64).sum::<u64>()
}

/// Rolling machine-speed estimate.
#[derive(Debug, Default)]
pub struct Speed {
    recent: VecDeque<f64>,
    all: Vec<f64>,
}

impl Speed {
    /// Times the kernel once and returns the factor that scales a host
    /// time taken now to the reference speed.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        std::hint::black_box(kernel());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(ms);
        self.all.push(ms);
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        REFERENCE_MS / median(&recent).expect("just pushed a sample")
    }

    /// Median kernel time in ms.
    pub fn kernel_ms(&self) -> Option<f64> {
        median(&self.all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn factors_are_positive_and_track_samples() {
        let mut s = Speed::default();
        for _ in 0..WINDOW + 2 {
            let factor = s.sample();
            let recent: Vec<f64> = s.recent.iter().copied().collect();
            assert!((factor * median(&recent).unwrap() - REFERENCE_MS).abs() < 1e-9);
        }
        assert_eq!(s.recent.len(), WINDOW);
        assert_eq!(s.all.len(), WINDOW + 2);
        assert!(s.kernel_ms().unwrap() > 0.0);
    }
}
