//! Scaling series and inflexion-point detection.
//!
//! A [`ScalingSeries`] holds the measured time of one quantity (a section,
//! or the whole program) at increasing parallelism. The paper's *inflexion
//! point* (§5.2, Fig. 10) is the parallelism at which the quantity stops
//! accelerating: "any section which duration stops decreasing with the
//! number of threads immediately defines an upper bound on the speedup."

/// One measurement: time at a given parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Number of processing units (processes or threads).
    pub p: usize,
    /// Measured time in seconds.
    pub secs: f64,
}

/// A time-vs-parallelism series, ordered by increasing `p`.
///
/// ```
/// use speedup::ScalingSeries;
/// // A section that stops accelerating at 24 threads (Fig. 10's shape):
/// let s = ScalingSeries::new(vec![(1, 880.0), (8, 130.0), (24, 84.0), (64, 120.0)]);
/// assert_eq!(s.inflexion(0.0).unwrap().p, 24);
/// // Eq. 6: that inflexion caps the program at 880/84 ≈ 10.5x.
/// assert!((s.bound_at_inflexion(880.0, 0.0).unwrap() - 10.476).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScalingSeries {
    points: Vec<ScalePoint>,
}

impl ScalingSeries {
    /// Build from `(p, secs)` pairs; sorts by `p` and rejects duplicates.
    pub fn new(mut points: Vec<(usize, f64)>) -> ScalingSeries {
        points.sort_by_key(|&(p, _)| p);
        for w in points.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate parallelism {}", w[0].0);
        }
        ScalingSeries {
            points: points
                .into_iter()
                .map(|(p, secs)| ScalePoint { p, secs })
                .collect(),
        }
    }

    /// The measurements.
    pub fn points(&self) -> &[ScalePoint] {
        &self.points
    }

    /// True when no measurement is present.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Time at exactly `p`, if measured.
    pub fn at(&self, p: usize) -> Option<f64> {
        self.points.iter().find(|pt| pt.p == p).map(|pt| pt.secs)
    }

    /// The baseline: the time at the smallest `p` (normally `p = 1`).
    pub fn baseline(&self) -> Option<ScalePoint> {
        self.points.first().copied()
    }

    /// Speedup series relative to the baseline measurement.
    pub fn speedups(&self) -> Vec<(usize, f64)> {
        match self.baseline() {
            None => Vec::new(),
            Some(base) => self
                .points
                .iter()
                .map(|pt| (pt.p, crate::laws::speedup(base.secs, pt.secs)))
                .collect(),
        }
    }

    /// The inflexion point: the measurement achieving the minimum time.
    /// Every larger `p` wastes resources (paper §5.2: "an execution
    /// configuration where the main computing section is beyond its
    /// inflexion point should never be ran").
    ///
    /// `tolerance` is a relative slack (e.g. 0.02) so measurement noise on
    /// a flat valley floor does not pick an arbitrary point: the *first*
    /// point within `tolerance` of the global minimum wins.
    pub fn inflexion(&self, tolerance: f64) -> Option<ScalePoint> {
        let min = self
            .points
            .iter()
            .map(|pt| pt.secs)
            .fold(f64::INFINITY, f64::min);
        if !min.is_finite() {
            return None;
        }
        self.points
            .iter()
            .find(|pt| pt.secs <= min * (1.0 + tolerance))
            .copied()
    }

    /// Is the series still strictly improving at its largest `p`? (No
    /// inflexion inside the measured range.)
    pub fn still_scaling(&self, tolerance: f64) -> bool {
        match (self.inflexion(tolerance), self.points.last()) {
            (Some(inf), Some(last)) => inf.p == last.p,
            _ => false,
        }
    }

    /// The speedup bound imposed by this series at its inflexion point,
    /// given the total sequential time (Eq. 6 in per-process form).
    pub fn bound_at_inflexion(&self, seq_total_secs: f64, tolerance: f64) -> Option<f64> {
        self.inflexion(tolerance)
            .map(|pt| crate::partial::partial_bound_per_process(seq_total_secs, pt.secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u_shape() -> ScalingSeries {
        // Classic U: improves to p=24 then degrades (the Fig. 10 shape).
        ScalingSeries::new(vec![
            (1, 882.0),
            (2, 450.0),
            (4, 235.0),
            (8, 130.0),
            (16, 92.0),
            (24, 84.0),
            (32, 90.0),
            (64, 120.0),
            (128, 200.0),
        ])
    }

    #[test]
    fn construction_sorts() {
        let s = ScalingSeries::new(vec![(8, 1.0), (1, 8.0), (4, 2.0)]);
        let ps: Vec<usize> = s.points().iter().map(|pt| pt.p).collect();
        assert_eq!(ps, vec![1, 4, 8]);
        assert_eq!(s.at(4), Some(2.0));
        assert_eq!(s.at(3), None);
    }

    #[test]
    #[should_panic(expected = "duplicate parallelism")]
    fn duplicates_rejected() {
        let _ = ScalingSeries::new(vec![(4, 1.0), (4, 2.0)]);
    }

    #[test]
    fn speedups_relative_to_baseline() {
        let s = u_shape();
        let sp = s.speedups();
        assert_eq!(sp[0], (1, 1.0));
        let (p, v) = sp[5];
        assert_eq!(p, 24);
        assert!((v - 882.0 / 84.0).abs() < 1e-9);
    }

    #[test]
    fn inflexion_at_minimum() {
        let s = u_shape();
        let inf = s.inflexion(0.0).unwrap();
        assert_eq!(inf.p, 24);
        assert!(!s.still_scaling(0.0));
    }

    #[test]
    fn tolerance_picks_earliest_on_flat_valley() {
        let s = ScalingSeries::new(vec![(1, 100.0), (8, 10.1), (16, 10.0), (32, 10.05)]);
        // Strict: 16. With 2% slack: 8 (first within tolerance).
        assert_eq!(s.inflexion(0.0).unwrap().p, 16);
        assert_eq!(s.inflexion(0.02).unwrap().p, 8);
    }

    #[test]
    fn monotone_series_still_scaling() {
        let s = ScalingSeries::new(vec![(1, 100.0), (2, 51.0), (4, 26.0), (8, 14.0)]);
        assert!(s.still_scaling(0.0));
        assert_eq!(s.inflexion(0.0).unwrap().p, 8);
    }

    #[test]
    fn bound_at_inflexion_matches_eq6() {
        let s = u_shape();
        // Bound = 882 / 84 = 10.5 per Eq. 6.
        let b = s.bound_at_inflexion(882.0, 0.0).unwrap();
        assert!((b - 10.5).abs() < 1e-9);
    }

    #[test]
    fn empty_series() {
        let s = ScalingSeries::default();
        assert!(s.is_empty());
        assert!(s.speedups().is_empty());
        assert!(s.inflexion(0.0).is_none());
        assert!(s.bound_at_inflexion(1.0, 0.0).is_none());
        assert!(!s.still_scaling(0.0));
    }
}
