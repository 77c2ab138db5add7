//! The Binomial Method quantile-bound predictor.
//!
//! Given `n` historical observations, the `k`-th order statistic (sorted
//! ascending, 1-based) is an upper bound on the population's `q`-quantile
//! with confidence equal to the probability that a Binomial(n, q) draw is
//! strictly less than `k`. The predictor keeps a sliding window of
//! observations and returns the smallest order statistic achieving the
//! requested confidence — exactly the machinery proposed for
//! batch-queue delay bounds by Brevik, Nurmi & Wolski (PPoPP 2006).

use std::collections::VecDeque;

/// Sliding-window binomial quantile-bound predictor.
///
/// Beside the FIFO window it keeps the same observations in sorted
/// order, and it caches the order-statistic index for the current window
/// length, so [`predict`](Self::predict) is a single index and
/// [`observe`](Self::observe) costs two binary searches and two shifts
/// of at most `capacity` values. Equal observations (`0.0` and `-0.0`
/// included) sit in the sorted copy in arrival order: a new one goes
/// after its equals and the evicted one, the oldest in the window, is
/// the first of its equals. That is exactly the order a stable sort of
/// the FIFO window produces, so every bound is bit-identical to sorting
/// the window afresh.
#[derive(Clone, Debug)]
pub struct QuantilePredictor {
    quantile: f64,
    confidence: f64,
    capacity: usize,
    history: VecDeque<f64>,
    /// `history`, stably sorted ascending.
    sorted: Vec<f64>,
    /// The 1-based order statistic that bounds the quantile at the
    /// current window length, or `None` while no bound exists.
    k: Option<usize>,
}

impl QuantilePredictor {
    /// Creates a predictor for an upper bound on the `quantile`-quantile
    /// with the given `confidence`, over a sliding window of at most
    /// `capacity` observations.
    ///
    /// # Panics
    /// Panics unless `quantile` and `confidence` are in `(0, 1)` and
    /// `capacity > 0`.
    pub fn new(quantile: f64, confidence: f64, capacity: usize) -> Self {
        assert!(
            quantile > 0.0 && quantile < 1.0,
            "quantile must be in (0, 1), got {quantile}"
        );
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0, 1), got {confidence}"
        );
        assert!(capacity > 0, "window capacity must be positive");
        QuantilePredictor {
            quantile,
            confidence,
            capacity,
            history: VecDeque::with_capacity(capacity),
            sorted: Vec::with_capacity(capacity),
            k: None,
        }
    }

    /// The canonical configuration of the original work: an upper bound
    /// on the 95th-percentile wait with 95 % confidence.
    pub fn qbets_default() -> Self {
        QuantilePredictor::new(0.95, 0.95, 512)
    }

    /// Records one observed wait (seconds).
    ///
    /// # Panics
    /// Panics on negative or non-finite observations.
    pub fn observe(&mut self, wait_secs: f64) {
        assert!(
            wait_secs.is_finite() && wait_secs >= 0.0,
            "waits must be finite and non-negative, got {wait_secs}"
        );
        if self.history.len() == self.capacity {
            let evicted = self.history.pop_front().expect("window is full");
            let at = self.sorted.partition_point(|&x| x < evicted);
            self.sorted.remove(at);
        } else {
            // The window grows: the bounding order statistic moves.
            let n = self.history.len() + 1;
            self.k = if n < self.min_observations() {
                None
            } else {
                smallest_k(n, self.quantile, self.confidence)
            };
        }
        self.history.push_back(wait_secs);
        let at = self.sorted.partition_point(|&x| x <= wait_secs);
        self.sorted.insert(at, wait_secs);
    }

    /// Number of observations currently in the window.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True if no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// The smallest number of observations at which a bound exists: the
    /// maximum order statistic must itself clear the confidence bar,
    /// i.e. `1 − q^n ≥ confidence`.
    pub fn min_observations(&self) -> usize {
        // n ≥ ln(1 − c) / ln(q)
        ((1.0 - self.confidence).ln() / self.quantile.ln()).ceil() as usize
    }

    /// The current upper bound on the target quantile of the next wait,
    /// or `None` if the window is still too small for the requested
    /// confidence.
    pub fn predict(&self) -> Option<f64> {
        self.k.map(|k| self.sorted[k - 1])
    }
}

/// Smallest 1-based `k` such that `P[Binomial(n, q) < k] ≥ confidence`,
/// i.e. the k-th order statistic upper-bounds the q-quantile with the
/// requested confidence. `None` if even `k = n` does not reach it.
fn smallest_k(n: usize, q: f64, confidence: f64) -> Option<usize> {
    // Walk the binomial CDF with the standard recurrence; all in linear
    // space (n ≤ a few thousand, probabilities well-conditioned because
    // we stop as soon as the CDF crosses the confidence).
    let mut pmf = (1.0 - q).powi(n as i32); // P[X = 0]
    let mut cdf = pmf;
    if cdf >= confidence {
        return Some(1);
    }
    for x in 0..n {
        // pmf(x+1) = pmf(x) · (n−x)/(x+1) · q/(1−q)
        pmf *= (n - x) as f64 / (x + 1) as f64 * (q / (1.0 - q));
        cdf += pmf;
        let k = x + 2; // bound strictly above X = x+1 needs k = x+2
        if k > n {
            break;
        }
        if cdf >= confidence {
            return Some(k);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_k_matches_hand_computation() {
        // n = 3, q = 0.5: CDF at X<1 is 0.125, X<2 is 0.5, X<3 is 0.875.
        assert_eq!(smallest_k(3, 0.5, 0.8), Some(3));
        assert_eq!(smallest_k(3, 0.5, 0.4), Some(2));
        assert_eq!(smallest_k(3, 0.5, 0.9), None);
    }

    #[test]
    fn min_observations_for_qbets_default() {
        let p = QuantilePredictor::qbets_default();
        // 1 − 0.95^n ≥ 0.95 → n ≥ 59 (ln 0.05 / ln 0.95 ≈ 58.4).
        assert_eq!(p.min_observations(), 59);
    }

    #[test]
    fn no_prediction_until_enough_history() {
        let mut p = QuantilePredictor::qbets_default();
        for i in 0..58 {
            p.observe(i as f64);
            assert!(p.predict().is_none(), "premature bound at n = {}", i + 1);
        }
        p.observe(58.0);
        assert!(p.predict().is_some());
    }

    #[test]
    fn bound_is_an_upper_order_statistic() {
        let mut p = QuantilePredictor::new(0.5, 0.9, 1_000);
        for i in 1..=100 {
            p.observe(i as f64);
        }
        let bound = p.predict().expect("enough history");
        // Median bound with 90% confidence over 1..=100: above the median,
        // at most the maximum.
        assert!(bound > 50.0 && bound <= 100.0, "bound {bound}");
    }

    #[test]
    fn sliding_window_forgets_old_observations() {
        let mut p = QuantilePredictor::new(0.5, 0.8, 100);
        for _ in 0..100 {
            p.observe(1_000.0);
        }
        for _ in 0..100 {
            p.observe(1.0);
        }
        assert_eq!(p.len(), 100);
        let bound = p.predict().unwrap();
        assert_eq!(bound, 1.0, "window must have slid past the large waits");
    }

    /// Empirical coverage: for iid waits, the bound must cover the true
    /// quantile at least `confidence` of the time.
    #[test]
    fn empirical_coverage_holds() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let mut covered = 0;
        let trials = 300;
        for _ in 0..trials {
            let mut p = QuantilePredictor::new(0.8, 0.9, 512);
            for _ in 0..200 {
                p.observe(rng.random::<f64>()); // U(0,1): 0.8-quantile = 0.8
            }
            if p.predict().unwrap() >= 0.8 {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!(rate >= 0.85, "coverage {rate} below confidence");
    }

    /// The predictor as first written, kept as the reference: copy the
    /// window, stable-sort it, index the bounding order statistic.
    fn sorted_reference(window: &[f64], quantile: f64, confidence: f64) -> Option<f64> {
        let n = window.len();
        let min = ((1.0 - confidence).ln() / quantile.ln()).ceil() as usize;
        if n < min {
            return None;
        }
        let mut sorted = window.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("observations are finite"));
        let k = smallest_k(n, quantile, confidence)?;
        Some(sorted[k - 1])
    }

    #[test]
    fn incremental_window_matches_a_fresh_sort_bit_for_bit() {
        use rand::{RngExt, SeedableRng};
        // Most draws come from a small pool, so ties are the rule, and
        // both zeros are in it: a bound that lands on a zero shows by its
        // sign whether equal waits kept their arrival order. Zeros are
        // over 40% of draws, so the 0.3-quantile bounds land on them.
        const POOL: [f64; 8] = [0.0, -0.0, 0.0, -0.0, 0.5, 1.0, 1.0, 7.25];
        // (quantile, confidence, capacity): capacities 1 and 2 bound
        // from the first or second wait; the others grow through
        // `min_observations` (59 for the default, 2 for 0.3/0.9) before
        // sliding past capacity.
        let configs = [
            (0.5, 0.5, 1),
            (0.5, 0.7, 2),
            (0.3, 0.9, 37),
            (0.3, 0.9, 512),
            (0.95, 0.95, 512),
        ];
        let (mut pos_zero, mut neg_zero) = (0, 0);
        for (seed, &(q, c, cap)) in configs.iter().enumerate() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
            let mut p = QuantilePredictor::new(q, c, cap);
            let mut window = VecDeque::new();
            for step in 0..3 * cap + 300 {
                let wait = if rng.random_bool(0.85) {
                    POOL[rng.random_range(0..POOL.len())]
                } else {
                    rng.random_range(0.0..10.0)
                };
                p.observe(wait);
                if window.len() == cap {
                    window.pop_front();
                }
                window.push_back(wait);
                let want = sorted_reference(window.make_contiguous(), q, c);
                let got = p.predict();
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "q={q} c={c} cap={cap} step {step}: {got:?} vs {want:?}"
                );
                // Count zeros only once evictions have begun: the order
                // an eviction leaves behind is what needs checking.
                match got {
                    _ if window.len() < cap => {}
                    Some(b) if b.to_bits() == 0.0f64.to_bits() => pos_zero += 1,
                    Some(b) if b.to_bits() == (-0.0f64).to_bits() => neg_zero += 1,
                    _ => {}
                }
            }
        }
        assert!(
            pos_zero > 0 && neg_zero > 0,
            "the sliding windows never put a zero of each sign on the \
             bound ({pos_zero} +0, {neg_zero} -0)"
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_wait_rejected() {
        let mut p = QuantilePredictor::qbets_default();
        p.observe(-1.0);
    }

    #[test]
    #[should_panic(expected = "in (0, 1)")]
    fn invalid_quantile_rejected() {
        let _ = QuantilePredictor::new(1.0, 0.9, 10);
    }
}
