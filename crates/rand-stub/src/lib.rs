//! Offline stand-in for the `rand` crate.
//!
//! The build container has no network access to crates.io, so the workspace
//! vendors the *tiny* slice of `rand`'s API it actually consumes: a seedable
//! deterministic generator ([`rngs::StdRng`]) and the [`Rng::gen`] /
//! [`Rng::gen_range`] / [`SeedableRng::seed_from_u64`] entry points. The
//! generator is xoshiro256++ (public domain reference constants), which
//! passes the usual statistical batteries and is plenty for simulation
//! noise streams — the repo's noise layer (`machine::noise`) only relies on
//! determinism and uniformity, never on matching upstream `rand`'s exact
//! stream. The property tests draw their inputs from it too, one `StdRng`
//! seeded per case.

use std::ops::Range;

/// Core trait: a source of random 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (upper half of a 64-bit draw).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types that can be sampled from the "standard" distribution of the real
/// `rand` crate: uniform over the full range for integers, uniform in
/// `[0, 1)` for floats, fair coin for `bool`.
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for u128 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with the full 53-bit mantissa, like `rand`.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with the full 24-bit mantissa.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types [`Rng::gen_range`] draws uniformly from a half-open range.
pub trait SampleUniform: Sized {
    /// Draw one value in `range` from `rng`; panics if `range` is empty.
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self;
}

/// Uniform in `[0, n)` for `n > 0`: Lemire's multiply-shift, redrawing the
/// few low products that would bias it.
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    let biased = n.wrapping_neg() % n;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(n);
        if m as u64 >= biased {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
                assert!(range.start < range.end, "gen_range: empty range {range:?}");
                // The width of any range of a type up to 64 bits fits a u64.
                let width = (range.end as i128 - range.start as i128) as u64;
                range.start.wrapping_add(below(rng, width) as $t)
            }
        }
    )*};
}
impl_sample_uniform_int!(u8, u32, u64, usize, i32, i64);

impl SampleUniform for f64 {
    /// `start + u * (end - start)` for a standard `u` in `[0, 1)`, drawn
    /// again in the rare case that rounding lands on `end`.
    fn sample_range<R: RngCore + ?Sized>(range: Range<Self>, rng: &mut R) -> Self {
        let width = range.end - range.start;
        assert!(
            width > 0.0 && width.is_finite(),
            "gen_range: empty or unbounded range {range:?}"
        );
        loop {
            let v = range.start + f64::sample(rng) * width;
            if v < range.end {
                return v;
            }
        }
    }
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value from the standard distribution.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Sample a value uniformly from the half-open `range`, like `rand`'s
    /// `gen_range(lo..hi)`. Panics if the range is empty.
    #[inline]
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(range, self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic seeding, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Construct from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 — used to expand a 64-bit seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// Deterministic generator (xoshiro256++) standing in for
    /// `rand::rngs::StdRng`. Not cryptographically secure — no caller
    /// in this workspace needs that.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut sm);
            }
            // An all-zero state would be a fixed point; splitmix64 cannot
            // produce four zeros from any seed, but guard anyway.
            if s == [0; 4] {
                s[0] = 0x9e37_79b9_7f4a_7c15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_draws_lie_in_the_half_open_range() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!((3u8..7).contains(&rng.gen_range(3u8..7)));
            assert!((5u32..17).contains(&rng.gen_range(5u32..17)));
            assert!(rng.gen_range(0..u64::MAX) < u64::MAX);
            assert!((1u64 << 62..1 << 63).contains(&rng.gen_range(1u64 << 62..1 << 63)));
            assert!((0usize..1).contains(&rng.gen_range(0usize..1)));
            assert!((-4i32..4).contains(&rng.gen_range(-4i32..4)));
            assert!((i32::MIN..-7).contains(&rng.gen_range(i32::MIN..-7)));
            assert!((-1000i64..1000).contains(&rng.gen_range(-1000i64..1000)));
            assert!((1.0..2.0).contains(&rng.gen_range(1.0f64..2.0)));
            assert!((-3.5..-3.25).contains(&rng.gen_range(-3.5f64..-3.25)));
        }
        // Both ends of a small range are reached, the excluded one never.
        let seen: std::collections::BTreeSet<i32> =
            (0..1_000).map(|_| rng.gen_range(-2i32..3)).collect();
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), [-2, -1, 0, 1, 2]);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [1, 2, 7, 1 << 32, u64::MAX] {
            for _ in 0..10_000 {
                assert!(super::below(&mut rng, n) < n, "below({n})");
            }
        }
        // Every value of a small range is reached.
        let mut counts = [0u32; 7];
        for _ in 0..7_000 {
            counts[super::below(&mut rng, 7) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 800), "{counts:?}");
    }

    /// A generator whose every word is `u64::MAX`: the largest standard
    /// `f64` it gives is `1 - 2^-53`.
    struct Max;
    impl super::RngCore for Max {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn gen_range_f64_never_returns_its_end() {
        assert!(Max.gen_range(0.0..1e15) < 1e15);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(rng.gen_range(0.0..1e15) < 1e15);
        }
        // One ulp wide: about half the raw draws round to the end and are
        // drawn again, so only the start can come back.
        let end = 1.0 + f64::EPSILON;
        for _ in 0..1_000 {
            assert_eq!(rng.gen_range(1.0..end), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range")]
    fn gen_range_panics_on_an_empty_integer_range() {
        StdRng::seed_from_u64(5).gen_range(4usize..4);
    }

    #[test]
    #[should_panic(expected = "gen_range: empty or unbounded range")]
    fn gen_range_panics_on_an_empty_float_range() {
        StdRng::seed_from_u64(5).gen_range(1.0f64..1.0);
    }

    #[test]
    fn gen_range_is_deterministic_per_seed() {
        let draws = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100)
                .map(|_| (rng.gen_range(0u64..1 << 40), rng.gen_range(0.001f64..1e4)))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(6), draws(6));
        assert_ne!(draws(6), draws(7));
    }

    #[test]
    fn bools_are_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(1);
        let trues = (0..10_000).filter(|_| rng.gen::<bool>()).count();
        assert!((4_500..5_500).contains(&trues), "{trues}");
    }
}
