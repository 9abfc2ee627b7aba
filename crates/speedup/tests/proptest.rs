//! Property tests for the scaling-law layer: algebraic identities and
//! order relations between the classical laws and the partial bounds.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use speedup::ScalingSeries;
use speedup::{efficiency, laws, partial_bound, partial_bound_per_process, speedup};

/// One generator per case, seeded by the case number.
fn cases(n: u64) -> impl Iterator<Item = StdRng> {
    (0..n).map(StdRng::seed_from_u64)
}

/// 1 to 31 times in `[0.001, 1e4)`: a series' walltimes at p = 1, 2, ...
fn times(rng: &mut StdRng) -> Vec<f64> {
    let len = rng.gen_range(1..32);
    (0..len).map(|_| rng.gen_range(0.001..1e4)).collect()
}

#[test]
fn speedup_and_efficiency_relations() {
    for mut rng in cases(32) {
        let seq = rng.gen_range(0.001..1e6);
        let par = rng.gen_range(0.001..1e6);
        let p = rng.gen_range(1..4096);
        let s = speedup(seq, par);
        assert!(s >= 0.0);
        assert!((efficiency(seq, par, p) - s / p as f64).abs() < 1e-12);
    }
}

#[test]
fn amdahl_bounds_gustafson_relation() {
    for mut rng in cases(32) {
        let (fs, p) = (rng.gen_range(0.0..1.0), rng.gen_range(1..4096));
        let amdahl = laws::amdahl::bound(fs, p);
        let gustafson = laws::gustafson::scaled_speedup(fs, p);
        // Both bounded by p; Gustafson (scaled problem) >= Amdahl (fixed).
        assert!(amdahl <= p as f64 + 1e-9);
        assert!(gustafson <= p as f64 + 1e-9);
        assert!(gustafson + 1e-9 >= amdahl);
        assert!(amdahl <= laws::amdahl::limit(fs) + 1e-9);
    }
}

#[test]
fn partial_bound_forms_agree() {
    for mut rng in cases(32) {
        let seq = rng.gen_range(0.001..1e6);
        let section_total = rng.gen_range(0.001..1e6);
        let p = rng.gen_range(1..4096);
        let total_form = partial_bound(seq, section_total, p);
        let per_process = partial_bound_per_process(seq, section_total / p as f64);
        assert!((total_form - per_process).abs() / total_form < 1e-9);
    }
}

#[test]
fn bound_dominates_any_consistent_walltime() {
    for mut rng in cases(32) {
        let section = rng.gen_range(0.001..100.0);
        let other = rng.gen_range(0.0..100.0);
        let seq = rng.gen_range(1.0..1e5);
        // If a program's per-process walltime is section + other, then the
        // measured speedup can never exceed the section's Eq. 6 bound.
        let wall = section + other;
        let measured = speedup(seq, wall);
        let bound = partial_bound_per_process(seq, section);
        assert!(measured <= bound + 1e-9);
    }
}

#[test]
fn inflexion_is_a_global_minimum() {
    for mut rng in cases(32) {
        let times = times(&mut rng);
        let points: Vec<(usize, f64)> =
            times.iter().enumerate().map(|(i, &t)| (i + 1, t)).collect();
        let series = ScalingSeries::new(points);
        let inf = series.inflexion(0.0).unwrap();
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((inf.secs - min).abs() < 1e-12);
        // Tolerance can only move the inflexion earlier (or keep it).
        let loose = series.inflexion(0.5).unwrap();
        assert!(loose.p <= inf.p);
    }
}

#[test]
fn speedups_are_baseline_relative() {
    for mut rng in cases(32) {
        let times = times(&mut rng);
        let points: Vec<(usize, f64)> =
            times.iter().enumerate().map(|(i, &t)| (i + 1, t)).collect();
        let series = ScalingSeries::new(points);
        let speedups = series.speedups();
        assert_eq!(speedups[0].1, 1.0);
        for (i, &(p, s)) in speedups.iter().enumerate() {
            assert_eq!(p, i + 1);
            assert!((s - times[0] / times[i]).abs() < 1e-9);
        }
    }
}
