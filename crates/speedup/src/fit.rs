//! Fitting scaling laws to measurements — how the "sequential fraction"
//! of Amdahl's law is obtained in practice (§2: "sequential fraction being
//! generally measured in practice through speedup limit"), plus
//! weak-scaling efficiency measures for the strong/weak spectrum the paper
//! discusses around Gustafson–Barsis.

/// Least-squares fit of Amdahl's serial fraction from measured speedups.
///
/// Amdahl gives `1/S = fs·(1 - 1/p) + 1/p`, linear in `fs`; the
/// closed-form least-squares solution over the points is
/// `fs = Σ x·y / Σ x²` with `x = 1 - 1/p`, `y = 1/S - 1/p`.
///
/// Points with `p <= 1` or non-positive speedup are ignored. Returns
/// `None` when nothing usable remains. The estimate is clamped to
/// `[0, 1]` (superlinear measurements would otherwise go negative).
pub fn fit_amdahl_serial_fraction(points: &[(usize, f64)]) -> Option<f64> {
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut used = 0;
    for &(p, s) in points {
        if p <= 1 || s <= 0.0 {
            continue;
        }
        let inv_p = 1.0 / p as f64;
        let x = 1.0 - inv_p;
        let y = 1.0 / s - inv_p;
        sxy += x * y;
        sxx += x * x;
        used += 1;
    }
    if used == 0 || sxx == 0.0 {
        return None;
    }
    Some((sxy / sxx).clamp(0.0, 1.0))
}

/// Ordinary least-squares line through `(x, y)` points: returns
/// `(slope, intercept)`, or `None` when fewer than two distinct `x`
/// values remain. The same normal-equation machinery as
/// [`fit_amdahl_serial_fraction`], exposed generically so metric series
/// (e.g. per-window efficiencies in `crate::trend`) can be fitted too.
pub fn linear_fit(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let n = points.len() as f64;
    if points.len() < 2 {
        return None;
    }
    let sx: f64 = points.iter().map(|&(x, _)| x).sum();
    let sy: f64 = points.iter().map(|&(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|&(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|&(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-30 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    Some((slope, intercept))
}

/// Weak-scaling efficiency: `t(p₀) / t(p)` for a problem grown
/// proportionally with `p` from a baseline at `p₀` (ideal = 1).
pub fn weak_efficiency(t0_secs: f64, tp_secs: f64) -> f64 {
    if tp_secs <= 0.0 {
        0.0
    } else {
        t0_secs / tp_secs
    }
}

/// Measured scaled (Gustafson-style) speedup for a weak-scaling run:
/// `k · t(p₀) / t(p)`, where `k = p / p₀` is the factor problem and
/// machine grew by (`k = p` against a sequential baseline).
pub fn scaled_speedup_measured(t0_secs: f64, tp_secs: f64, scale: f64) -> f64 {
    weak_efficiency(t0_secs, tp_secs) * scale
}

/// The serial fraction implied by a measured scaled speedup via
/// Gustafson–Barsis: `fs = (k - S_scaled) / (k - 1)` for a scale factor
/// `k` (`p` against a sequential baseline).
pub fn gustafson_serial_fraction(scaled_speedup: f64, scale: f64) -> f64 {
    if scale <= 1.0 {
        return 0.0;
    }
    ((scale - scaled_speedup) / (scale - 1.0)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws;

    #[test]
    fn fit_recovers_exact_amdahl_data() {
        let fs_true = 0.08;
        let points: Vec<(usize, f64)> = [2usize, 4, 8, 16, 64, 256]
            .iter()
            .map(|&p| (p, laws::amdahl::bound(fs_true, p)))
            .collect();
        let fs = fit_amdahl_serial_fraction(&points).unwrap();
        assert!((fs - fs_true).abs() < 1e-12, "{fs}");
    }

    #[test]
    fn fit_is_robust_to_mild_noise() {
        let fs_true = 0.05;
        let points: Vec<(usize, f64)> = [2usize, 4, 8, 16, 32, 64]
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let wobble = 1.0 + if i % 2 == 0 { 0.01 } else { -0.01 };
                (p, laws::amdahl::bound(fs_true, p) * wobble)
            })
            .collect();
        let fs = fit_amdahl_serial_fraction(&points).unwrap();
        assert!((fs - fs_true).abs() < 0.01, "{fs}");
    }

    #[test]
    fn linear_fit_recovers_line() {
        let points: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 - 0.25 * i as f64)).collect();
        let (slope, intercept) = linear_fit(&points).unwrap();
        assert!((slope + 0.25).abs() < 1e-12, "{slope}");
        assert!((intercept - 3.0).abs() < 1e-12, "{intercept}");
        assert_eq!(linear_fit(&[]), None);
        assert_eq!(linear_fit(&[(1.0, 2.0)]), None);
        // Vertical data (single x) has no defined slope.
        assert_eq!(linear_fit(&[(2.0, 1.0), (2.0, 5.0)]), None);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(fit_amdahl_serial_fraction(&[]), None);
        assert_eq!(fit_amdahl_serial_fraction(&[(1, 1.0)]), None);
        assert_eq!(fit_amdahl_serial_fraction(&[(8, 0.0)]), None);
        // Superlinear data clamps to zero serial fraction.
        assert_eq!(fit_amdahl_serial_fraction(&[(8, 100.0)]), Some(0.0));
    }

    #[test]
    fn weak_scaling_measures() {
        // Perfect weak scaling: constant time.
        assert_eq!(weak_efficiency(10.0, 10.0), 1.0);
        assert_eq!(scaled_speedup_measured(10.0, 10.0, 64.0), 64.0);
        // Degrading: 20% slower at scale.
        let eff = weak_efficiency(10.0, 12.5);
        assert!((eff - 0.8).abs() < 1e-12);
        assert!((scaled_speedup_measured(10.0, 12.5, 64.0) - 51.2).abs() < 1e-9);
        assert_eq!(weak_efficiency(1.0, 0.0), 0.0);
    }

    #[test]
    fn gustafson_fraction_roundtrip() {
        for fs in [0.0, 0.1, 0.5, 1.0] {
            for p in [2usize, 16, 456] {
                let s = crate::laws::gustafson::scaled_speedup(fs, p);
                let back = gustafson_serial_fraction(s, p as f64);
                assert!((back - fs).abs() < 1e-9, "fs={fs} p={p}");
            }
        }
        assert_eq!(gustafson_serial_fraction(5.0, 1.0), 0.0);
    }
}
