//! Partial speedup bounding — the paper's Eq. 6 and Fig. 6.
//!
//! Modelling the program as a sum of per-section times, every section `i`
//! individually bounds the strong-scaling speedup:
//!
//! ```text
//! S(n0, p)  <=  Σ_j f_j(n0, 1)  /  f_i(n0, p)
//! ```
//!
//! where the numerator is the *total* sequential time and the denominator
//! the section's per-process parallel time. With section measurements in
//! "total across ranks" form (Fig. 6's `Tot. HALO Time`), the bound is
//!
//! ```text
//! B(p) = T_seq_total / (T_section_total(p) / p)
//! ```
//!
//! e.g. the paper's `B(64) = 5589.84 / (3025.44 / 64) = 118.25`. Both
//! forms are defined once in `mpi_sections`, whose own reports print
//! them, and re-exported here.

use mpi_sections::{Profile, SectionStats};

pub use mpi_sections::{partial_bound, partial_bound_per_process};

/// Compute the per-section bounds for every world section of a parallel
/// profile, given the sequential run's total time. Returns (label, bound)
/// sorted ascending by bound — the first entry is the binding constraint.
pub fn bounds_from_profile(
    seq_total_secs: f64,
    parallel: &Profile,
    p: usize,
) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = parallel
        .world_labels()
        .iter()
        .filter_map(|label| parallel.get_world(label))
        .map(|s: &SectionStats| {
            (
                s.key.label.clone(),
                partial_bound(seq_total_secs, s.total_own_secs, p),
            )
        })
        .collect();
    out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// The tightest (smallest) of a set of per-section bounds.
pub fn binding_bound(bounds: &[(String, f64)]) -> Option<&(String, f64)> {
    bounds
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig6_values() {
        // Fig. 6 rows: B = 5589.84 / (Tot.HALO / p). Three of the five
        // printed rows satisfy the paper's own formula to 0.1%:
        let seq = 5589.84;
        for (p, halo, expected) in [
            (64usize, 3025.44, 118.25),
            (112, 1822.38, 343.54),
            (128, 14135.56, 50.61),
        ] {
            let b = partial_bound(seq, halo, p);
            assert!(
                (b - expected).abs() / expected < 0.001,
                "p={p}: computed {b}, paper {expected}"
            );
        }
        // The p=80 (prints 363.96, formula gives 347.02) and p=144 rows
        // (prints 181.17, formula gives 296.37) are internally inconsistent
        // in the paper — presumably transcription slips. We assert the
        // formula, i.e. what the computed values *should* read.
        assert!((partial_bound(seq, 1288.64, 80) - 347.02).abs() < 0.01);
        assert!((partial_bound(seq, 2716.03, 144) - 296.37).abs() < 0.01);
    }

    #[test]
    fn paper_lulesh_bounds() {
        // §5.2: S <= 882.48 / (43.84 + 64.29) = 8.16x, and
        // LagrangeElements alone bounds at 882.48 / 64.29 = 13.72x.
        let combined = partial_bound_per_process(882.48, 43.84 + 64.29);
        assert!((combined - 8.16).abs() < 0.01, "{combined}");
        let elements = partial_bound_per_process(882.48, 64.29);
        assert!((elements - 13.72).abs() < 0.01, "{elements}");
    }

    #[test]
    fn zero_section_never_bounds() {
        assert!(partial_bound(100.0, 0.0, 64).is_infinite());
        assert!(partial_bound_per_process(100.0, 0.0).is_infinite());
    }

    #[test]
    fn binding_bound_picks_smallest() {
        let bounds = vec![
            ("HALO".to_string(), 118.0),
            ("GATHER".to_string(), 500.0),
            ("STORE".to_string(), 87.0),
        ];
        assert_eq!(binding_bound(&bounds).unwrap().0, "STORE");
        assert!(binding_bound(&[]).is_none());
    }

    #[test]
    fn bound_is_anti_monotone_in_section_time() {
        let b1 = partial_bound(100.0, 10.0, 8);
        let b2 = partial_bound(100.0, 20.0, 8);
        assert!(b2 < b1);
    }
}
