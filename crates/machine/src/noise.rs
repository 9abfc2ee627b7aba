//! Deterministic performance noise.
//!
//! The paper's convolution experiment hinges on an observation that is easy
//! to destroy with a naive simulator: halo-exchange time *grows* with the
//! number of processes even though the per-process message size is constant,
//! because per-step compute jitter propagates through neighbour dependencies
//! and accumulates over 1000 time steps (Fig. 5b). We therefore model
//! compute-time jitter as a multiplicative lognormal factor and network
//! latency jitter as an additive exponential term.
//!
//! Every random stream is derived from `(seed, rank, stream)` with a SplitMix
//! mix, so a run is reproducible regardless of OS-thread interleaving: each
//! simulated rank consumes only its own stream in program order. The
//! engine and the what-if replay open their streams here
//! ([`RankStream`], [`DetRng::for_collective`]), so a replay re-draws
//! exactly the engine's values.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer — used to turn `(seed, rank, stream)` into an
/// independent, well-mixed 64-bit seed.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combine a global seed with per-entity identifiers into a stream seed.
#[inline]
pub fn stream_seed(seed: u64, rank: u64, stream: u64) -> u64 {
    mix64(mix64(seed ^ mix64(rank)) ^ mix64(stream.wrapping_mul(0x0dd5_53cc_a9d5_2d2d)))
}

/// The purposes a simulated rank draws randomness for, each from its own
/// stream so the consumption order in one never depends on another.
#[derive(Debug, Clone, Copy)]
pub enum RankStream {
    /// Compute jitter factors.
    Compute = 0,
    /// Latency jitter, one draw per matched receive.
    Network = 1,
}

/// A deterministic per-rank random stream.
///
/// Thin wrapper over `StdRng` so call sites do not depend on the `rand`
/// version directly and so seeding policy lives in one place.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Stream for `(seed, rank, stream)`.
    pub fn for_stream(seed: u64, rank: u64, stream: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(stream_seed(seed, rank, stream)),
        }
    }

    /// World rank `rank`'s stream for `purpose`.
    pub fn for_rank(seed: u64, rank: usize, purpose: RankStream) -> Self {
        Self::for_stream(seed, rank as u64, purpose as u64)
    }

    /// The latency-jitter stream of round `round` of the collectives on
    /// communicator `comm`. Namespaced so collective streams never collide
    /// with the per-rank streams — comm id 0 and world rank 0 would
    /// otherwise share seeds.
    pub fn for_collective(seed: u64, comm: u64, round: u64) -> Self {
        Self::for_stream(seed ^ 0x636f_6c6c_6563_7469, comm, round)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Standard normal via Box–Muller (we avoid the `rand_distr` crate).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        // Reject u1 == 0 so the log is finite.
        let mut u1 = self.uniform();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Exponential with the given mean (zero mean yields exactly zero).
    #[inline]
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let mut u = self.uniform();
        while u <= f64::MIN_POSITIVE {
            u = self.uniform();
        }
        -mean * u.ln()
    }

    /// Random u64 (for sub-seeding).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen::<u64>()
    }
}

/// Jitter configuration for a machine model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Sigma of the lognormal multiplier applied to compute durations
    /// (0 disables compute jitter; 0.02–0.08 is typical of real nodes).
    pub compute_sigma: f64,
    /// Mean of the additive exponential latency jitter, in seconds
    /// (0 disables network jitter).
    pub net_latency_jitter_mean: f64,
}

impl NoiseModel {
    /// Completely noise-free execution (ablation A1 / deterministic tests).
    pub const NONE: NoiseModel = NoiseModel {
        compute_sigma: 0.0,
        net_latency_jitter_mean: 0.0,
    };

    /// Multiplicative factor for one compute interval.
    ///
    /// Lognormal with median 1: `exp(sigma * N(0,1))`. Median (rather than
    /// mean) preservation keeps the *typical* run time calibrated while the
    /// heavy right tail produces straggler behaviour.
    #[inline]
    pub fn compute_factor(&self, rng: &mut DetRng) -> f64 {
        if self.compute_sigma <= 0.0 {
            1.0
        } else {
            (self.compute_sigma * rng.standard_normal()).exp()
        }
    }

    /// Additive latency jitter for one message, in seconds.
    #[inline]
    pub fn latency_jitter(&self, rng: &mut DetRng) -> f64 {
        rng.exponential(self.net_latency_jitter_mean)
    }

    /// True when both components are disabled.
    pub fn is_none(&self) -> bool {
        self.compute_sigma <= 0.0 && self.net_latency_jitter_mean <= 0.0
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = DetRng::for_stream(42, 3, 7);
        let mut b = DetRng::for_stream(42, 3, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_differ_across_ranks_and_streams() {
        let mut a = DetRng::for_stream(42, 0, 0);
        let mut b = DetRng::for_stream(42, 1, 0);
        let mut c = DetRng::for_stream(42, 0, 1);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = DetRng::for_stream(1, 0, 0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = DetRng::for_stream(2, 0, 0);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.2, "mean {mean}");
        assert_eq!(rng.exponential(0.0), 0.0);
        assert_eq!(rng.exponential(-1.0), 0.0);
    }

    #[test]
    fn none_noise_is_identity() {
        let mut rng = DetRng::for_stream(3, 0, 0);
        assert_eq!(NoiseModel::NONE.compute_factor(&mut rng), 1.0);
        assert_eq!(NoiseModel::NONE.latency_jitter(&mut rng), 0.0);
        assert!(NoiseModel::NONE.is_none());
    }

    #[test]
    fn lognormal_median_near_one() {
        let noise = NoiseModel {
            compute_sigma: 0.05,
            net_latency_jitter_mean: 0.0,
        };
        let mut rng = DetRng::for_stream(4, 0, 0);
        let mut samples: Vec<f64> = (0..10_001)
            .map(|_| noise.compute_factor(&mut rng))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[5_000];
        assert!((median - 1.0).abs() < 0.01, "median {median}");
        assert!(samples.iter().all(|&f| f > 0.0));
    }
}
