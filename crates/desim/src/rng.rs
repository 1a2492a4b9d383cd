//! Deterministic pseudo-random numbers for simulations.
//!
//! [`SimRng`] is a self-contained xoshiro256++ generator with a SplitMix64
//! seeder. It is deliberately independent of external crates so that the
//! event streams of every experiment are reproducible across dependency
//! upgrades: the generator's output for a given seed is fixed by this file
//! alone. It is **not** cryptographically secure and must never be used for
//! anything but simulation.

/// xoshiro256++ PRNG (Blackman & Vigna), seeded via SplitMix64.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second normal deviate from Box–Muller.
    spare_normal: Option<f64>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Seed deterministically from a single u64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in [0, 1) with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's unbiased method.
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range_u64 bound must be positive");
        // Lemire's multiply-shift with rejection to remove modulo bias.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // low < bound: possibly biased region, reject if below threshold.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform usize in `[0, bound)`.
    pub fn gen_range_usize(&mut self, bound: usize) -> usize {
        self.gen_range_u64(bound as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    ///
    /// Panics unless `lo < hi` and both are finite.
    pub fn gen_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with probability `p` of `true`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
        self.next_f64() < p
    }

    /// Standard normal deviate (Box–Muller, with caching of the pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0,1] to avoid ln(0).
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "std_dev must be non-negative");
        mean + std_dev * self.normal()
    }

    /// Exponential deviate with the given rate (mean 1/rate).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range_usize(i + 1);
            slice.swap(i, j);
        }
    }

    /// Uniformly pick an element from a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "cannot choose from an empty slice");
        &slice[self.gen_range_usize(slice.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_respects_bounds_and_covers() {
        let mut r = SimRng::seed_from_u64(13);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[r.gen_range_usize(10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit in 1000 draws");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = SimRng::seed_from_u64(17);
        let n = 100_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let z = r.normal();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = SimRng::seed_from_u64(19);
        let n = 100_000;
        let rate = 4.0;
        let mean: f64 = (0..n).map(|_| r.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(29);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 100 elements left them sorted");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SimRng::seed_from_u64(1).gen_range_u64(0);
    }
}
