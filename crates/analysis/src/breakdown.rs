//! Categorical breakdowns.

use std::collections::BTreeMap;

/// A counted categorical breakdown with stable (insertion-independent)
/// ordering: categories sort by descending count, ties by label.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    counts: BTreeMap<String, u64>,
}

impl Breakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one observation of `label`.
    pub fn add(&mut self, label: impl Into<String>) {
        *self.counts.entry(label.into()).or_insert(0) += 1;
    }

    /// Count `n` observations.
    pub fn add_n(&mut self, label: impl Into<String>, n: u64) {
        *self.counts.entry(label.into()).or_insert(0) += n;
    }

    /// Total observations across every label.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Count recorded for `label` (0 when absent).
    pub fn count_of(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }

    /// `label`'s share of the total (0.0 on an empty breakdown).
    pub fn fraction_of(&self, label: &str) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.count_of(label) as f64 / t as f64
        }
    }

    /// `(label, count, fraction)` rows, descending by count.
    pub fn rows(&self) -> Vec<(String, u64, f64)> {
        let t = self.total().max(1);
        let mut rows: Vec<_> = self
            .counts
            .iter()
            .map(|(l, c)| (l.clone(), *c, *c as f64 / t as f64))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// Top-k rows.
    pub fn top(&self, k: usize) -> Vec<(String, u64, f64)> {
        self.rows().into_iter().take(k).collect()
    }

    /// Number of distinct labels.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// `(label, fraction)` rows in descending-count order — the input
    /// shape [`crate::distance::total_variation`] and
    /// [`crate::distance::chi_square`] compare against the paper's
    /// published mixes.
    pub fn fractions(&self) -> Vec<(String, f64)> {
        self.rows().into_iter().map(|(l, _, f)| (l, f)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_fractions() {
        let mut b = Breakdown::new();
        for _ in 0..3 {
            b.add("mail");
        }
        b.add("bank");
        assert_eq!(b.total(), 4);
        assert_eq!(b.count_of("mail"), 3);
        assert_eq!(b.count_of("missing"), 0);
        assert!((b.fraction_of("mail") - 0.75).abs() < 1e-12);
        assert_eq!(b.distinct(), 2);
    }

    #[test]
    fn rows_sorted_desc_with_stable_ties() {
        let mut b = Breakdown::new();
        b.add_n("b", 5);
        b.add_n("a", 5);
        b.add_n("c", 9);
        let rows = b.rows();
        assert_eq!(rows[0].0, "c");
        assert_eq!(rows[1].0, "a"); // tie broken alphabetically
        assert_eq!(rows[2].0, "b");
    }

    #[test]
    fn top_k_truncates() {
        let mut b = Breakdown::new();
        for i in 0..10 {
            b.add_n(format!("l{i}"), i + 1);
        }
        let top = b.top(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].1, 10);
    }

    #[test]
    fn empty_breakdown() {
        let b = Breakdown::new();
        assert_eq!(b.total(), 0);
        assert_eq!(b.fraction_of("x"), 0.0);
        assert!(b.rows().is_empty());
        assert!(b.fractions().is_empty());
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut b = Breakdown::new();
        b.add_n("a", 3);
        b.add_n("b", 1);
        let f = b.fractions();
        assert_eq!(f[0], ("a".to_string(), 0.75));
        assert!((f.iter().map(|(_, x)| x).sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
