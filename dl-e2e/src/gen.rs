//! Seeded input generators: everything a workload feeds the system is a
//! pure function of `--seed`.
//!
//! The generator is the benchmark's own splitmix64, not `vendor/rand`, so
//! a change to the repository's RNG stand-in cannot silently change the
//! benchmark's inputs.

/// splitmix64 — one `u64` of state, full period, good enough to draw
/// arrival times and bandwidth traces.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for sub-run `stream` of base seed `seed`
    /// (consecutive base seeds must not share sub-run inputs).
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        Rng(r.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller; one draw per call keeps the stream
    /// position independent of caller batching).
    pub fn normal(&mut self) -> f64 {
        let (u, v) = (self.unit(), self.unit());
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Poisson arrival times in `[0, until_ms)`, integer milliseconds, at
/// `per_sec` arrivals per second, conditioned on their expected count: a
/// Poisson process given its count is that many independent uniform times,
/// so the offered load is the stated one on every seed and only the
/// spacing is random.
pub fn poisson_arrivals(rng: &mut Rng, per_sec: f64, until_ms: u64) -> Vec<u64> {
    let count = (per_sec * until_ms as f64 / 1000.0).round() as usize;
    let mut out: Vec<u64> = (0..count)
        .map(|_| (rng.unit() * until_ms as f64) as u64)
        .collect();
    out.sort_unstable();
    out
}

/// The temporal bandwidth model of the `vbw-*` workloads: a first-order
/// Gauss–Markov process per node, one value per virtual second, clipped.
#[derive(Clone, Copy, Debug)]
pub struct GaussMarkov {
    pub mean: f64,
    pub sigma: f64,
    pub alpha: f64,
    pub min: f64,
    pub max: f64,
}

impl GaussMarkov {
    /// `steps` values starting from a stationary draw.
    pub fn trace(&self, rng: &mut Rng, steps: usize) -> Vec<u64> {
        let innovation = self.sigma * (1.0 - self.alpha * self.alpha).sqrt();
        let mut x = self.mean + self.sigma * rng.normal();
        (0..steps)
            .map(|_| {
                let out = x.clamp(self.min, self.max).round() as u64;
                x = self.mean + self.alpha * (x - self.mean) + innovation * rng.normal();
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GM: GaussMarkov = GaussMarkov {
        mean: 800.0,
        sigma: 400.0,
        alpha: 0.9,
        min: 100.0,
        max: 2000.0,
    };

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = poisson_arrivals(&mut Rng::derive(7, 1), 8.0, 10_000);
        let b = poisson_arrivals(&mut Rng::derive(7, 1), 8.0, 10_000);
        let c = poisson_arrivals(&mut Rng::derive(8, 1), 8.0, 10_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            GM.trace(&mut Rng::derive(7, 2), 50),
            GM.trace(&mut Rng::derive(7, 2), 50)
        );
        assert_ne!(
            GM.trace(&mut Rng::derive(7, 2), 50),
            GM.trace(&mut Rng::derive(7, 3), 50)
        );
    }

    #[test]
    fn poisson_rate_and_order() {
        let a = poisson_arrivals(&mut Rng::new(1), 100.0, 100_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 100_000));
        assert_eq!(a.len(), 10_000);
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let long = a.windows(2).filter(|w| w[1] - w[0] >= 10).count() as f64;
        assert!((long / 10_000.0 - 0.37).abs() < 0.05, "{long} long gaps");
    }

    #[test]
    fn gauss_markov_stays_clipped_and_near_its_mean() {
        let t = GM.trace(&mut Rng::new(3), 20_000);
        assert!(t.iter().all(|&v| (100..=2000).contains(&v)));
        let mean = t.iter().sum::<u64>() as f64 / t.len() as f64;
        assert!((mean - 800.0).abs() < 60.0, "mean {mean}");
        // Correlated: consecutive steps are closer than independent draws.
        let step: f64 = t
            .windows(2)
            .map(|w| (w[0] as f64 - w[1] as f64).abs())
            .sum::<f64>()
            / (t.len() - 1) as f64;
        assert!(step < 250.0, "mean step {step}");
    }
}
