//! Isoefficiency analysis — the scaling lens of Kumar/Grama/Gupta/Karypis
//! (*Introduction to Parallel Computing*, the paper's reference \[1\]): how
//! fast must the problem grow to keep parallel efficiency constant?
//!
//! With `W` the useful (sequential) work and `T_o(W, p)` the *total*
//! overhead summed over processors, efficiency is
//! `E = W / (W + T_o)`, so maintaining a target `E` requires
//! `W = E/(1-E) · T_o(W, p)` — the isoefficiency relation. These helpers
//! derive the measurable pieces from timings and evaluate the relation.

/// Total overhead across processors: `T_o = p·t_par - t_seq` (everything
/// that is not useful work: communication, waiting, runtime costs).
pub fn total_overhead(seq_secs: f64, par_secs: f64, p: usize) -> f64 {
    (p as f64 * par_secs - seq_secs).max(0.0)
}

/// The isoefficiency relation: the useful work needed to sustain target
/// efficiency `e` against a total overhead of `overhead_secs`.
/// Returns infinity when `e >= 1` (perfect efficiency needs zero overhead).
///
/// ```
/// // Holding 80% efficiency against 10 s of total overhead needs 40 s
/// // of useful work: E = 40/(40+10) = 0.8.
/// assert!((speedup::required_work(0.8, 10.0) - 40.0).abs() < 1e-9);
/// ```
pub fn required_work(e_target: f64, overhead_secs: f64) -> f64 {
    if e_target >= 1.0 {
        return if overhead_secs > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
    }
    if e_target <= 0.0 {
        return 0.0;
    }
    e_target / (1.0 - e_target) * overhead_secs
}

/// Fit a power law `T_o(p) ≈ a · p^b` to measured `(p, overhead)` points
/// by least squares in log space, returning `(a, b)`. Points with
/// non-positive overhead are skipped. `None` if fewer than two usable
/// points remain.
pub fn fit_overhead_power_law(points: &[(usize, f64)]) -> Option<(f64, f64)> {
    let usable: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(p, o)| p >= 1 && o > 0.0)
        .map(|&(p, o)| ((p as f64).ln(), o.ln()))
        .collect();
    if usable.len() < 2 {
        return None;
    }
    let n = usable.len() as f64;
    let sx: f64 = usable.iter().map(|(x, _)| x).sum();
    let sy: f64 = usable.iter().map(|(_, y)| y).sum();
    let sxx: f64 = usable.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = usable.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = ((sy - b * sx) / n).exp();
    Some((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_from_timings() {
        // 100 s sequential, 30 s on 4 procs: To = 120 - 100 = 20 s.
        assert!((total_overhead(100.0, 30.0, 4) - 20.0).abs() < 1e-12);
        // Superlinear measurements clamp to zero overhead.
        assert_eq!(total_overhead(100.0, 10.0, 4), 0.0);
    }

    #[test]
    fn efficiency_identities() {
        // E from overhead equals E from timings.
        let (seq, par, p) = (100.0, 30.0, 4usize);
        let to = total_overhead(seq, par, p);
        let e1 = seq / (seq + to);
        let e2 = crate::efficiency(seq, par, p);
        assert!((e1 - e2).abs() < 1e-12);
    }

    #[test]
    fn required_work_relation() {
        // 80% efficiency against 10 s overhead needs 40 s of work.
        assert!((required_work(0.8, 10.0) - 40.0).abs() < 1e-12);
        // Check the relation closes: E = W/(W+To).
        let w = required_work(0.8, 10.0);
        assert!((w / (w + 10.0) - 0.8).abs() < 1e-12);
        assert!(required_work(1.0, 1.0).is_infinite());
        assert_eq!(required_work(1.0, 0.0), 0.0);
        assert_eq!(required_work(0.0, 10.0), 0.0);
    }

    #[test]
    fn power_law_fit_recovers_exact_data() {
        // To = 3 p^1.5.
        let points: Vec<(usize, f64)> = [2usize, 4, 8, 16, 64]
            .iter()
            .map(|&p| (p, 3.0 * (p as f64).powf(1.5)))
            .collect();
        let (a, b) = fit_overhead_power_law(&points).unwrap();
        assert!((a - 3.0).abs() < 1e-9, "a={a}");
        assert!((b - 1.5).abs() < 1e-9, "b={b}");
    }

    #[test]
    fn power_law_fit_degenerate_inputs() {
        assert_eq!(fit_overhead_power_law(&[]), None);
        assert_eq!(fit_overhead_power_law(&[(4, 1.0)]), None);
        assert_eq!(fit_overhead_power_law(&[(4, 0.0), (8, -1.0)]), None);
        // All points at the same p: singular.
        assert_eq!(fit_overhead_power_law(&[(4, 1.0), (4, 2.0)]), None);
    }

    #[test]
    fn isoefficiency_growth() {
        // W = E/(1-E) · T_o is linear in the overhead, so against a
        // power-law overhead p^b the work to hold an efficiency grows as
        // p^b: linearly for b = 1 — the hallmark of a scalable algorithm
        // — quadratically for b = 2.
        let work = |b: f64, p: usize| required_work(0.5, (p as f64).powf(b));
        assert!((work(1.0, 64) / work(1.0, 8) - 8.0).abs() < 1e-9);
        assert!((work(2.0, 64) / work(2.0, 8) - 64.0).abs() < 1e-9);
    }
}
