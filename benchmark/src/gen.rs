//! Seeded input generation: every random choice a workload makes (arrival
//! gaps, Zipf draws, delete order) comes from a [`Rng`] derived from the
//! `--seed` argument, so the same seed replays the same inputs.

/// SplitMix64: small, fast, and good enough for schedules (not for crypto).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `purpose`, so adding a draw to one
    /// schedule never shifts another.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// Due times (ns from the start of the run) of a Poisson arrival process.
#[derive(Debug, Clone)]
pub struct PoissonSchedule {
    rng: Rng,
    mean_gap_ns: f64,
    next_ns: f64,
}

impl PoissonSchedule {
    pub fn new(seed: u64, rate_per_s: f64) -> Self {
        Self {
            rng: Rng::stream(seed, "poisson"),
            mean_gap_ns: 1e9 / rate_per_s,
            next_ns: 0.0,
        }
    }
}

impl Iterator for PoissonSchedule {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        // 1 - u is in (0, 1], so the logarithm is finite.
        let gap = -(1.0 - self.rng.next_f64()).ln() * self.mean_gap_ns;
        self.next_ns += gap;
        Some(self.next_ns as u64)
    }
}

/// Zipf(θ) popularity over a pool, with rank decoupled from pool position.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    rank_to_item: Vec<u32>,
    rng: Rng,
}

impl Zipf {
    pub fn new(seed: u64, pool: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(pool);
        let mut acc = 0.0;
        for rank in 0..pool {
            acc += ((rank + 1) as f64).powf(-theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self {
            cdf,
            rank_to_item: permutation(&mut Rng::stream(seed, "zipf-perm"), pool),
            rng: Rng::stream(seed, "zipf-draw"),
        }
    }

    pub fn draw(&mut self) -> usize {
        let u = self.rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.rank_to_item[rank] as usize
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_for_a_seed_and_differ_across_seeds() {
        let poisson = |seed| {
            PoissonSchedule::new(seed, 1000.0)
                .take(64)
                .collect::<Vec<_>>()
        };
        assert_eq!(poisson(7), poisson(7));
        assert_ne!(poisson(7), poisson(8));

        let zipf = |seed| {
            let mut z = Zipf::new(seed, 8192, 1.0);
            (0..64).map(|_| z.draw()).collect::<Vec<_>>()
        };
        assert_eq!(zipf(7), zipf(7));
        assert_ne!(zipf(7), zipf(8));

        let deletes = |seed| permutation(&mut Rng::stream(seed, "delete-order"), 1000);
        assert_eq!(deletes(7), deletes(7));
        assert_ne!(deletes(7), deletes(8));
        let mut sorted = deletes(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn poisson_rate_and_zipf_skew_match_their_parameters() {
        let last = PoissonSchedule::new(3, 1000.0).nth(99_999).unwrap();
        let rate = 100_000.0 / (last as f64 / 1e9);
        assert!((rate - 1000.0).abs() < 15.0, "rate {rate}");

        let mut zipf = Zipf::new(3, 8192, 1.0);
        let hottest = zipf.rank_to_item[0] as usize;
        let hits = (0..100_000).filter(|_| zipf.draw() == hottest).count();
        // P(rank 0) = 1 / H(8192) ≈ 0.1043.
        assert!((9_500..11_500).contains(&hits), "hits {hits}");
    }
}
