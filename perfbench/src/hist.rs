//! A log-linear latency histogram with atomic buckets.
//!
//! Each power of two is split into 128 linear sub-buckets, so a
//! percentile is known to within 1/128 (< 0.8 %) of its value — fine
//! enough to compare medians between runs, unlike a power-of-two
//! histogram. Recording is one relaxed `fetch_add`, so agents on
//! different node threads can share one histogram.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Histogram of `u64` values (nanoseconds, by convention).
pub struct Hist {
    counts: Box<[AtomicU64]>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let sub = (v >> shift) as usize - SUB;
    (shift as usize + 1) * SUB + sub
}

/// Midpoint of bucket `i`.
fn value_at(i: usize) -> f64 {
    if i < SUB {
        return i as f64;
    }
    let shift = (i / SUB - 1) as u32;
    let low = ((SUB + i % SUB) as u64) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    /// Records one value.
    pub fn record(&self, v: u64) {
        self.counts[index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of values recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The value at quantile `q` in `[0, 1]` (nearest rank), or 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return value_at(i);
            }
        }
        unreachable!("rank is at most the total count")
    }

    /// Mean of the bucket midpoints, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, c)| c.load(Ordering::Relaxed) as f64 * value_at(i))
            .sum();
        sum / total as f64
    }
}

/// Median over the windows holding at least `min_count` values of a
/// per-window statistic: one stall in one window moves this by one rank,
/// not by the stall's length.
pub fn median_over(windows: &[Hist], min_count: u64, stat: impl Fn(&Hist) -> f64) -> f64 {
    let mut values: Vec<f64> = windows
        .iter()
        .filter(|w| w.count() >= min_count)
        .map(stat)
        .collect();
    median(&mut values)
}

/// Median of `values` (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_within_one_percent() {
        for v in [0u64, 1, 127, 128, 129, 1000, 65_537, 1 << 40, u64::MAX] {
            let mid = value_at(index(v));
            assert!(
                (mid - v as f64).abs() <= v as f64 / 128.0 + 0.5,
                "{v} -> {mid}"
            );
        }
    }

    #[test]
    fn quantiles_follow_ranks() {
        let h = Hist::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.count(), 100);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
