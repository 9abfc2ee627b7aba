//! Virtual time.
//!
//! All simulated clocks in the workspace count integer nanoseconds. Using an
//! integer representation keeps arithmetic associative and runs bit-for-bit
//! reproducible across platforms, which floating-point seconds would not
//! guarantee once timestamps get large relative to individual costs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `VTime` is used both as an absolute timestamp (nanoseconds since the start
/// of the simulated run) and as a duration; the arithmetic is the same and the
/// simulation never needs a distinguished epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(pub u64);

impl VTime {
    /// The zero timestamp / empty duration.
    pub const ZERO: VTime = VTime(0);
    /// The maximum representable time (used as an "infinity" sentinel).
    pub const MAX: VTime = VTime(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        VTime(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        VTime(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        VTime(ms * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond
    /// (halves away from zero).
    ///
    /// Negative or non-finite inputs saturate to zero: every cost fed to the
    /// simulator is a physical duration, so a negative value is always a
    /// modeling bug upstream and clamping keeps clocks monotone.
    ///
    /// Every clock advance passes through here, so the rounding is integer
    /// arithmetic rather than the float library's (a software call on
    /// baseline x86-64): truncate, then add one if the dropped fraction is
    /// at least a half. Below 2^53 the fraction is exact; above, a finite
    /// `f64` is already integral and the fraction is zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return VTime::ZERO;
        }
        if secs.is_infinite() {
            return VTime::MAX;
        }
        let ns = secs * 1e9;
        if ns >= u64::MAX as f64 {
            VTime::MAX
        } else {
            let whole = ns as u64;
            VTime(whole + u64::from(ns - whole as f64 >= 0.5))
        }
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    #[inline]
    pub const fn saturating_sub(self, other: VTime) -> VTime {
        VTime(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    #[inline]
    pub const fn saturating_add(self, other: VTime) -> VTime {
        VTime(self.0.saturating_add(other.0))
    }

    /// The later of two timestamps.
    #[inline]
    pub fn max(self, other: VTime) -> VTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two timestamps.
    #[inline]
    pub fn min(self, other: VTime) -> VTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scale a duration by a non-negative factor, rounding to nanoseconds.
    #[inline]
    pub fn scale(self, factor: f64) -> VTime {
        VTime::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// True when this is the zero time.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for VTime {
    type Output = VTime;
    #[inline]
    fn add(self, rhs: VTime) -> VTime {
        VTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for VTime {
    #[inline]
    fn add_assign(&mut self, rhs: VTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for VTime {
    type Output = VTime;
    /// Saturating: durations never go negative.
    #[inline]
    fn sub(self, rhs: VTime) -> VTime {
        VTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for VTime {
    #[inline]
    fn sub_assign(&mut self, rhs: VTime) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for VTime {
    type Output = VTime;
    #[inline]
    fn mul(self, rhs: u64) -> VTime {
        VTime(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for VTime {
    type Output = VTime;
    #[inline]
    fn div(self, rhs: u64) -> VTime {
        VTime(self.0 / rhs)
    }
}

impl Sum for VTime {
    fn sum<I: Iterator<Item = VTime>>(iter: I) -> VTime {
        iter.fold(VTime::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a VTime> for VTime {
    fn sum<I: Iterator<Item = &'a VTime>>(iter: I) -> VTime {
        iter.fold(VTime::ZERO, |a, b| a + *b)
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3}us", s * 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Mean of a slice of times (zero for an empty slice).
pub fn mean(times: &[VTime]) -> VTime {
    if times.is_empty() {
        return VTime::ZERO;
    }
    let total: u128 = times.iter().map(|t| t.0 as u128).sum();
    VTime((total / times.len() as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_secs() {
        let t = VTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(VTime::from_secs_f64(-3.0), VTime::ZERO);
        assert_eq!(VTime::from_secs_f64(f64::NAN), VTime::ZERO);
        assert_eq!(VTime::from_secs_f64(f64::NEG_INFINITY), VTime::ZERO);
    }

    #[test]
    fn overflow_saturates() {
        assert_eq!(VTime::from_secs_f64(f64::INFINITY), VTime::MAX);
        assert_eq!(VTime::from_secs_f64(u64::MAX as f64 / 1e9), VTime::MAX);
        assert_eq!(VTime::from_secs_f64(1e300), VTime::MAX);
        assert_eq!(VTime::MAX + VTime::from_nanos(1), VTime::MAX);
        assert_eq!(VTime::MAX * 3, VTime::MAX);
    }

    #[test]
    fn sub_saturates() {
        let a = VTime::from_nanos(5);
        let b = VTime::from_nanos(9);
        assert_eq!(a - b, VTime::ZERO);
        assert_eq!(b - a, VTime::from_nanos(4));
    }

    #[test]
    fn min_max() {
        let a = VTime::from_nanos(5);
        let b = VTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn mean_of_times() {
        let ts = [
            VTime::from_secs_f64(1.0),
            VTime::from_secs_f64(2.0),
            VTime::from_secs_f64(3.0),
        ];
        assert_eq!(mean(&ts), VTime::from_secs_f64(2.0));
        assert_eq!(mean(&[]), VTime::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", VTime::from_secs_f64(2.5)), "2.500s");
        assert_eq!(format!("{}", VTime::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", VTime::from_micros(7)), "7.000us");
        assert_eq!(format!("{}", VTime::from_nanos(42)), "42ns");
    }

    #[test]
    fn sum_iterators() {
        let ts = vec![VTime::from_nanos(1), VTime::from_nanos(2)];
        let s: VTime = ts.iter().sum();
        assert_eq!(s, VTime::from_nanos(3));
        let s2: VTime = ts.into_iter().sum();
        assert_eq!(s2, VTime::from_nanos(3));
    }

    #[test]
    fn scale_rounds() {
        let t = VTime::from_secs_f64(1.0).scale(0.25);
        assert_eq!(t, VTime::from_secs_f64(0.25));
        assert_eq!(VTime::from_secs_f64(1.0).scale(-1.0), VTime::ZERO);
    }
}
