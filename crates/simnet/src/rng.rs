//! Small deterministic PRNG used throughout the simulation.
//!
//! All simulated randomness (latency jitter, packet drops, metric noise)
//! flows through this xorshift64* generator so that a seed fully determines
//! an experiment. The `gridrm-benchmark` workloads draw their request mix
//! from it too; the workspace vendors no `rand` crate.

/// xorshift64* — tiny, fast, good enough for simulation noise.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Seeded generator. A zero seed is remapped (xorshift cannot hold 0).
    pub fn new(seed: u64) -> Self {
        XorShift {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Approximate standard normal via the sum of 12 uniforms (Irwin–Hall);
    /// cheap, deterministic and plenty for metric noise.
    pub fn next_gaussian(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            acc += self.next_f64();
        }
        acc - 6.0
    }

    /// Derive an independent stream for a named sub-component.
    pub fn fork(&mut self, label: &str) -> XorShift {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        XorShift::new(self.next_u64() ^ h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift::new(1);
        let mut b = XorShift::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = XorShift::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = XorShift::new(9);
        for _ in 0..1000 {
            let x = r.range_f64(5.0, 6.0);
            assert!((5.0..6.0).contains(&x));
        }
    }

    #[test]
    fn gaussian_is_roughly_centred() {
        let mut r = XorShift::new(11);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_gaussian()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = XorShift::new(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn forks_are_independent_streams() {
        let mut root = XorShift::new(5);
        let mut a = root.fork("agent");
        let mut b = root.fork("network");
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
