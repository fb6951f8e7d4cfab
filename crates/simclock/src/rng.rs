//! Deterministic random streams and distributions.
//!
//! Every stochastic model in the workspace draws from a [`SimRng`], which
//! is an `rand::rngs::StdRng` seeded from a `(master_seed, label)` pair.
//! Labelled sub-streams decouple models from one another: adding draws to
//! the phishing model cannot perturb the hijacker model, so calibration
//! experiments stay comparable across code changes.
//!
//! The distribution helpers (exponential, normal, log-normal, Poisson,
//! weighted choice) are implemented directly over uniform draws rather
//! than pulling in `rand_distr`, keeping the dependency set to the
//! approved offline list.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random stream.
///
/// `Clone` duplicates the exact generator position: the clone and the
/// original produce identical draw sequences from the clone point, which
/// is what lets forked worlds replay a snapshot's RNG state verbatim.
#[derive(Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Seed a stream directly.
    pub fn from_seed(seed: u64) -> Self {
        SimRng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Derive an independent labelled sub-stream. The label is hashed
    /// (FNV-1a) into the seed, so distinct labels give statistically
    /// independent streams and the mapping is stable across runs and
    /// platforms.
    pub fn stream(master_seed: u64, label: &str) -> Self {
        SimRng::from_seed(master_seed ^ mhw_types::fnv::digest(label.as_bytes()))
    }

    /// Derive a labelled sub-stream for one logical shard of a sharded
    /// scenario. Shard 0 is identical to [`SimRng::stream`], so a
    /// single-shard run reproduces the unsharded simulator bit-for-bit;
    /// non-zero shards mix the shard id into the master seed before
    /// labelling, giving every `(shard, label)` pair an independent
    /// stream. The shard id is part of scenario *semantics* (like the
    /// seed) — worker-thread counts never appear here, which is what
    /// makes sharded runs reproducible at any parallelism level.
    pub fn shard_stream(master_seed: u64, shard: u16, label: &str) -> Self {
        let mixed = master_seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        SimRng::stream(mixed, label)
    }

    /// Derive a child stream from this one (e.g. one stream per agent).
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.inner.next_u64() ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        SimRng::from_seed(s)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`. `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.gen_range(0..n)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..=hi)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.f64() < p
    }

    /// Exponential variate with the given mean (inverse-CDF method).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // 1 - U is in (0, 1], avoiding ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal variate (Box–Muller; one of the pair is discarded
    /// for simplicity — throughput is irrelevant at our scales).
    pub fn normal_std(&mut self) -> f64 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal variate with mean `mu` and standard deviation `sigma`.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        mu + sigma * self.normal_std()
    }

    /// Log-normal variate parameterized by the *underlying* normal's
    /// `mu`/`sigma` (so the median is `exp(mu)`). Heavy-tailed durations
    /// — profiling time, exploitation time, recovery delay — use this.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Poisson variate.
    ///
    /// Knuth's product method for small λ; for λ > 30 a normal
    /// approximation with continuity correction, which is plenty for
    /// arrival counting.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let x = self.normal(lambda, lambda.sqrt());
            return x.round().max(0.0) as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Pick an index according to non-negative `weights`. Returns `None`
    /// if the weights are empty or all zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w > 0.0 {
                x -= *w;
                if x <= 0.0 {
                    return Some(i);
                }
            }
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|w| *w > 0.0)
    }

    /// Choose an element uniformly. Returns `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.below(items.len() as u64) as usize])
        }
    }

    /// Sample `k` distinct indices from `0..n` (reservoir sampling;
    /// result order is not specified). If `k >= n`, returns all indices.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        if k >= n {
            return (0..n).collect();
        }
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..n {
            let j = self.below(i as u64 + 1) as usize;
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }

    /// Raw access for interop with `rand` traits.
    pub fn raw(&mut self) -> &mut StdRng {
        &mut self.inner
    }

    /// The exact stream position (the generator's raw state words).
    /// Checkpointing captures this so a resumed run can verify its
    /// replayed streams sit at precisely the recorded positions.
    pub fn state(&self) -> [u64; 4] {
        self.inner.state()
    }

    /// Rebuild a stream at a position captured with [`SimRng::state`].
    pub fn from_state(state: [u64; 4]) -> Self {
        SimRng { inner: StdRng::from_state(state) }
    }

    /// Deterministically reseed this stream from its current position
    /// mixed with `salt`. Used when forking a world with a divergent
    /// seed: the perturbed stream depends on both the snapshot position
    /// (so distinct fork points diverge differently) and the salt (so
    /// distinct fork seeds diverge from one another), while the same
    /// `(position, salt)` pair always yields the same stream.
    pub fn perturb(&mut self, salt: u64) {
        let mut h = mhw_types::fnv::OFFSET;
        for w in self.state() {
            h = mhw_types::fnv::fnv1a(h, &w.to_le_bytes());
        }
        h = mhw_types::fnv::fnv1a(h, &salt.to_le_bytes());
        *self = SimRng::from_seed(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn labelled_streams_differ() {
        let mut a = SimRng::stream(1, "phishing");
        let mut b = SimRng::stream(1, "hijacker");
        let va: Vec<u64> = (0..8).map(|_| a.below(1_000_000)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.below(1_000_000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn labelled_streams_reproducible() {
        let mut a = SimRng::stream(7, "x");
        let mut b = SimRng::stream(7, "x");
        assert_eq!(a.below(u64::MAX), b.below(u64::MAX));
    }

    #[test]
    fn shard_zero_matches_unsharded_stream() {
        let mut a = SimRng::stream(99, "world");
        let mut b = SimRng::shard_stream(99, 0, "world");
        for _ in 0..32 {
            assert_eq!(a.below(u64::MAX), b.below(u64::MAX));
        }
        let mut c = SimRng::shard_stream(99, 1, "world");
        let va: Vec<u64> = (0..8).map(|_| SimRng::shard_stream(99, 0, "world").below(1 << 50)).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.below(1 << 50)).collect();
        assert_ne!(va, vc);
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let mut parent1 = SimRng::from_seed(5);
        let mut parent2 = SimRng::from_seed(5);
        let mut c1 = parent1.fork(0);
        let mut c2 = parent2.fork(0);
        assert_eq!(c1.below(1 << 40), c2.below(1 << 40));
        let mut c3 = parent1.fork(1);
        assert_ne!(c1.below(1 << 40), c3.below(1 << 40));
    }

    #[test]
    fn state_round_trips_mid_stream() {
        let mut a = SimRng::from_seed(123);
        for _ in 0..17 {
            a.f64();
        }
        let mut b = SimRng::from_state(a.state());
        for _ in 0..64 {
            assert_eq!(a.below(u64::MAX), b.below(u64::MAX));
        }
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::from_seed(11);
        let n = 20_000;
        let mean = 5.0;
        let total: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let m = total / n as f64;
        assert!((m - mean).abs() < 0.15, "sample mean {m}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = SimRng::from_seed(13);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let m: f64 = xs.iter().sum::<f64>() / n as f64;
        let v: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
        assert!((v - 4.0).abs() < 0.15, "var {v}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut r = SimRng::from_seed(17);
        let n = 40_001;
        let mut xs: Vec<f64> = (0..n).map(|_| r.lognormal(1.0, 0.8)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        assert!((median - 1.0f64.exp()).abs() < 0.12, "median {median}");
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let mut r = SimRng::from_seed(19);
        let n = 30_000;
        let total: u64 = (0..n).map(|_| r.poisson(2.5)).sum();
        let m = total as f64 / n as f64;
        assert!((m - 2.5).abs() < 0.06, "mean {m}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let mut r = SimRng::from_seed(23);
        let n = 10_000;
        let total: u64 = (0..n).map(|_| r.poisson(100.0)).sum();
        let m = total as f64 / n as f64;
        assert!((m - 100.0).abs() < 0.5, "mean {m}");
        assert_eq!(r.poisson(0.0), 0);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::from_seed(29);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[r.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut r = SimRng::from_seed(31);
        assert_eq!(r.weighted_index(&[]), None);
        assert_eq!(r.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(r.weighted_index(&[0.0, 2.0]), Some(1));
    }

    #[test]
    fn choose_degenerate_cases() {
        let mut r = SimRng::from_seed(37);
        assert_eq!(r.choose::<u8>(&[]), None);
        assert_eq!(r.choose(&[9]), Some(&9));
    }

    #[test]
    fn sample_indices_properties() {
        let mut r = SimRng::from_seed(41);
        let s = r.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let mut uniq = s.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 10);
        assert!(uniq.iter().all(|i| *i < 100));
        // k >= n returns everything.
        assert_eq!(r.sample_indices(5, 9), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sample_indices_is_unbiased_enough() {
        // Every index should be picked roughly k/n of the time.
        let mut hits = [0u32; 20];
        for seed in 0..4000 {
            let mut r = SimRng::from_seed(seed);
            for i in r.sample_indices(20, 5) {
                hits[i] += 1;
            }
        }
        let expected = 4000.0 * 5.0 / 20.0; // 1000
        for (i, h) in hits.iter().enumerate() {
            assert!(
                (*h as f64 - expected).abs() < 120.0,
                "index {i} hit {h} times (expected ~{expected})"
            );
        }
    }
}
