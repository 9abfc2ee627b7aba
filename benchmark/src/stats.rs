//! Order statistics over a run's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the driver applies to
//! the run-level medians: the A/A sub-command reports the same spread the
//! driver will compute.

/// n / median / quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarize `samples`; panics on an empty slice (every metric has at
    /// least one sample by construction).
    pub fn of(samples: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(samples);
        Summary {
            n: samples.len(),
            median,
            q1,
            q3,
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median).
    pub fn iqr_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

/// `[q1, median, q3]` by the exclusive method: cut point `i` of `n`
/// samples sits at rank `i (n + 1) / 4`, interpolated linearly and clamped
/// to the data. A single sample is its own quartiles.
fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(!samples.is_empty(), "no samples");
    let mut x = samples.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n == 1 {
        return [x[0]; 3];
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // Signed: the clamp can push `j` past the unclamped rank.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
        let pow: Vec<f64> = (0..10).map(|k| f64::from(1 << k)).collect();
        assert_eq!(quartiles(&pow), [3.5, 24.0, 160.0]);
    }

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(
            Summary::of(&[7.0]),
            Summary {
                n: 1,
                median: 7.0,
                q1: 7.0,
                q3: 7.0
            }
        );
    }

    #[test]
    fn summary_reports_spread_as_share_of_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 1.5, 4.5));
        assert_eq!(s.iqr_frac(), 1.0);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).iqr_frac(), 0.0);
    }

    #[test]
    fn fingerprint_is_fnv1a_64() {
        // The published FNV-1a test vectors: artifacts are fingerprinted
        // with the workspace's stable hash, which must stay this function.
        use mpi_sections::fasthash::fnv1a;
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
