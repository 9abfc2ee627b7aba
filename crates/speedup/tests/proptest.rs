//! Property tests for the scaling-law layer: algebraic identities and
//! order relations between the classical laws and the partial bounds.

use proptest::prelude::*;
use speedup::ScalingSeries;
use speedup::{efficiency, laws, partial_bound, partial_bound_per_process, speedup};

proptest! {
    #[test]
    fn speedup_and_efficiency_relations(
        seq in 0.001f64..1e6,
        par in 0.001f64..1e6,
        p in 1usize..4096,
    ) {
        let s = speedup(seq, par);
        prop_assert!(s >= 0.0);
        prop_assert!((efficiency(seq, par, p) - s / p as f64).abs() < 1e-12);
    }

    #[test]
    fn amdahl_bounds_gustafson_relation(fs in 0.0f64..1.0, p in 1usize..4096) {
        let amdahl = laws::amdahl::bound(fs, p);
        let gustafson = laws::gustafson::scaled_speedup(fs, p);
        // Both bounded by p; Gustafson (scaled problem) >= Amdahl (fixed).
        prop_assert!(amdahl <= p as f64 + 1e-9);
        prop_assert!(gustafson <= p as f64 + 1e-9);
        prop_assert!(gustafson + 1e-9 >= amdahl);
        prop_assert!(amdahl <= laws::amdahl::limit(fs) + 1e-9);
    }

    #[test]
    fn partial_bound_forms_agree(
        seq in 0.001f64..1e6,
        section_total in 0.001f64..1e6,
        p in 1usize..4096,
    ) {
        let total_form = partial_bound(seq, section_total, p);
        let per_process = partial_bound_per_process(seq, section_total / p as f64);
        prop_assert!((total_form - per_process).abs() / total_form < 1e-9);
    }

    #[test]
    fn bound_dominates_any_consistent_walltime(
        section in 0.001f64..100.0,
        other in 0.0f64..100.0,
        seq in 1.0f64..1e5,
        _p in 1usize..1024,
    ) {
        // If a program's per-process walltime is section + other, then the
        // measured speedup can never exceed the section's Eq. 6 bound.
        let wall = section + other;
        let measured = speedup(seq, wall);
        let bound = partial_bound_per_process(seq, section);
        prop_assert!(measured <= bound + 1e-9);
    }

    #[test]
    fn inflexion_is_a_global_minimum(
        times in prop::collection::vec(0.001f64..1e4, 1..32),
    ) {
        let points: Vec<(usize, f64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i + 1, t))
            .collect();
        let series = ScalingSeries::new(points);
        let inf = series.inflexion(0.0).unwrap();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!((inf.secs - min).abs() < 1e-12);
        // Tolerance can only move the inflexion earlier (or keep it).
        let loose = series.inflexion(0.5).unwrap();
        prop_assert!(loose.p <= inf.p);
    }

    #[test]
    fn speedups_are_baseline_relative(
        times in prop::collection::vec(0.001f64..1e4, 1..32),
    ) {
        let points: Vec<(usize, f64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i + 1, t))
            .collect();
        let series = ScalingSeries::new(points);
        let speedups = series.speedups();
        prop_assert_eq!(speedups[0].1, 1.0);
        for (i, &(p, s)) in speedups.iter().enumerate() {
            prop_assert_eq!(p, i + 1);
            prop_assert!((s - times[0] / times[i]).abs() < 1e-9);
        }
    }
}
