//! Seeded randomness and open-loop arrival schedules.
//!
//! Every input the benchmark sends derives from the workload seed through
//! [`Rng`], so the same seed replays the same requests at the same offsets.

use std::time::Duration;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn unit_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// Arrival offsets of a Poisson process at `rate` per second over
/// `[0, duration)`: exponential inter-arrival gaps drawn from `rng`.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, duration: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "Poisson rate must be positive");
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * end * 1.2) as usize + 4);
    loop {
        t += -rng.unit_open().ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// `count` arrivals at a fixed `interval`, the first at `interval`.
pub fn fixed_arrivals(count: usize, interval: Duration) -> Vec<Duration> {
    (1..=count as u32).map(|i| interval * i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_arrivals(&mut Rng::new(7, 1), 200.0, Duration::from_secs(2));
        let b = poisson_arrivals(&mut Rng::new(7, 1), 200.0, Duration::from_secs(2));
        assert_eq!(a, b);
        let c = poisson_arrivals(&mut Rng::new(8, 1), 200.0, Duration::from_secs(2));
        assert_ne!(a, c, "another seed gives another schedule");
        let d = poisson_arrivals(&mut Rng::new(7, 2), 200.0, Duration::from_secs(2));
        assert_ne!(a, d, "another stream gives another schedule");
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        let arrivals = poisson_arrivals(&mut Rng::new(1, 0), 500.0, Duration::from_secs(20));
        let n = arrivals.len() as f64;
        // 10,000 expected arrivals; the Poisson sd is 100.
        assert!((n - 10_000.0).abs() < 500.0, "got {n} arrivals");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        assert!(arrivals.last().is_some_and(|t| t.as_secs_f64() < 20.0));
    }

    #[test]
    fn fixed_schedule_is_evenly_spaced() {
        let a = fixed_arrivals(3, Duration::from_millis(100));
        assert_eq!(
            a,
            vec![
                Duration::from_millis(100),
                Duration::from_millis(200),
                Duration::from_millis(300)
            ]
        );
    }

    #[test]
    fn unit_open_never_returns_zero() {
        let mut rng = Rng::new(0, 0);
        for _ in 0..10_000 {
            let u = rng.unit_open();
            assert!(u > 0.0 && u <= 1.0);
        }
    }
}
