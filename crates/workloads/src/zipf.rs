//! Zipfian key-choice distribution (the YCSB default).
//!
//! Implementation of the Gray et al. rejection-free Zipfian generator used
//! by YCSB, plus the "scrambled" variant that hashes ranks so popular keys
//! spread over the key space.

use rand::Rng;

/// Zipfian generator over `[0, n)` with skew `theta` (YCSB uses 0.99).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact for small n; Euler–Maclaurin tail approximation beyond.
        const EXACT: u64 = 1_000_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            // integral of x^-theta from EXACT to n
            let a = 1.0 - theta;
            sum += ((n as f64).powf(a) - (EXACT as f64).powf(a)) / a;
        }
        sum
    }

    /// Draw a rank in `[0, n)`; rank 0 is the most popular.
    pub fn next_rank<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha);
        (v as u64).min(self.n - 1)
    }

    /// Scrambled draw: ranks are hashed (FNV-1a) onto `[0, n)` so the hot
    /// set is spread across the key space, as in YCSB's
    /// `ScrambledZipfianGenerator`.
    pub fn next_scrambled<R: Rng>(&self, rng: &mut R) -> u64 {
        let rank = self.next_rank(rng);
        fnv1a(rank) % self.n
    }

    pub fn n(&self) -> u64 {
        self.n
    }

    pub fn theta(&self) -> f64 {
        self.theta
    }
}

#[inline]
pub fn fnv1a(x: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ranks_in_range_and_skewed() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u64; 100];
        let draws = 200_000;
        for _ in 0..draws {
            let r = z.next_rank(&mut rng);
            assert!(r < 10_000);
            if r < 100 {
                counts[r as usize] += 1;
            }
        }
        // Rank 0 should dominate rank 50 heavily under theta=0.99.
        assert!(counts[0] > 10 * counts[50].max(1), "{:?}", &counts[..5]);
        // The top-100 ranks of 10k keys should absorb a large share.
        let top: u64 = counts.iter().sum();
        assert!(
            top as f64 / draws as f64 > 0.35,
            "top-1% share {}",
            top as f64 / draws as f64
        );
    }

    #[test]
    fn scrambled_spreads_hot_keys() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let k = z.next_scrambled(&mut rng);
            assert!(k < 1000);
            seen.insert(k);
        }
        // Hot set is hashed: the most common keys are not 0..k contiguous.
        assert!(seen.len() > 50);
        assert!(!((0..10).all(|k| seen.contains(&k))));
    }

    #[test]
    fn deterministic_per_seed() {
        let z = Zipfian::new(500, 0.9);
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..50).map(|_| z.next_scrambled(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..50).map(|_| z.next_scrambled(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn large_n_uses_tail_approximation() {
        // 10M records (the paper's dataset size) must construct quickly and
        // draw in range.
        let z = Zipfian::new(10_000_000, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.next_rank(&mut rng) < 10_000_000);
        }
    }
}
