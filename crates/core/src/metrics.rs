//! Measurement arithmetic: precision/recall, coverage, consistency.

use std::collections::BTreeMap;

/// A precision/recall accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrecisionRecall {
    /// True positives.
    pub tp: u64,
    /// False positives.
    pub fp: u64,
    /// False negatives.
    pub fn_: u64,
    /// True negatives.
    pub tn: u64,
}

impl PrecisionRecall {
    /// Record one (predicted, actual) pair.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Precision = TP / (TP + FP); 0 when nothing was predicted positive
    /// (the convention Table 1 uses for its `0, 0` cells).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall = TP / (TP + FN); 0 when nothing was actually positive.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// False-positive rate over predicted positives (the paper's "FP rate
    /// ≈ 80% in Airtel" phrasing) = FP / (TP + FP).
    pub fn false_discovery_rate(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.fp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Missed fraction of the tested population = FN / total tested.
    pub fn miss_rate_of_population(&self) -> f64 {
        let total = self.tp + self.fp + self.fn_ + self.tn;
        if total == 0 {
            0.0
        } else {
            self.fn_ as f64 / total as f64
        }
    }
}

/// Coverage: fraction of probed paths (or resolvers) that are poisoned.
pub fn coverage(poisoned: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        poisoned as f64 / total as f64
    }
}

/// Consistency (§4.1, §4.2.2) over `lists`, one list of blocked sites
/// per poisoned resolver or path: the share of lists that block each
/// site blocked anywhere, and their mean. The mean is summed in site
/// order, before the shares are sorted highest first for the series.
pub fn consistency<'a, S: Ord + Copy + 'a>(lists: impl IntoIterator<Item = &'a [S]>) -> (f64, Vec<f64>) {
    let mut counts: BTreeMap<S, usize> = BTreeMap::new();
    let mut n = 0;
    for list in lists {
        n += 1;
        for &site in list {
            *counts.entry(site).or_insert(0) += 1;
        }
    }
    let mut series: Vec<f64> = counts.into_values().map(|c| c as f64 / n as f64).collect();
    let mean = if series.is_empty() { 0.0 } else { series.iter().sum::<f64>() / series.len() as f64 };
    series.sort_by(|a, b| b.total_cmp(a));
    (mean, series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_recall_worked_example() {
        // The paper's Airtel example: |BO|=78, |BM|=133, |BO∩BM|=15.
        let mut pr = PrecisionRecall::default();
        for _ in 0..15 {
            pr.record(true, true);
        }
        for _ in 0..(78 - 15) {
            pr.record(true, false);
        }
        for _ in 0..(133 - 15) {
            pr.record(false, true);
        }
        for _ in 0..(1200 - 78 - 118) {
            pr.record(false, false);
        }
        assert!((pr.precision() - 0.19).abs() < 0.01, "{}", pr.precision());
        assert!((pr.recall() - 0.11).abs() < 0.01, "{}", pr.recall());
        assert!((pr.false_discovery_rate() - 0.80).abs() < 0.02);
        assert!((pr.miss_rate_of_population() - 118.0 / 1200.0).abs() < 0.01);
    }

    #[test]
    fn degenerate_cases_are_zero() {
        let pr = PrecisionRecall::default();
        assert_eq!(pr.precision(), 0.0);
        assert_eq!(pr.recall(), 0.0);
        assert_eq!(coverage(0, 0), 0.0);
        assert_eq!(consistency::<u32>([]), (0.0, Vec::new()));
        assert_eq!(consistency::<u32>([&[][..], &[]]), (0.0, Vec::new()));
    }

    #[test]
    fn coverage_and_consistency() {
        assert!((coverage(383, 448) - 0.855).abs() < 0.001);
        // Three sites over 4 poisoned resolvers: blocked by 2, 4 and 1.
        let lists: [&[u32]; 4] = [&[1, 2], &[1, 2, 3], &[2], &[2]];
        let (mean, series) = consistency(lists);
        assert_eq!(series, [1.0, 0.5, 0.25], "highest share first");
        assert!((mean - 7.0 / 12.0).abs() < 1e-12);
    }
}

lucent_support::json_object!(PrecisionRecall { tp, fp, fn_, tn });
