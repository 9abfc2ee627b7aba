//! Property tests for the LULESH proxy: decomposition geometry, field/ghost
//! consistency, and decomposition-independence of the evolution.

use lulesh_proxy::{run_lulesh, Decomposition, Field3, LuleshConfig};
use mpi_sections::{SectionRuntime, VerifyMode};
use mpisim::WorldBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One generator per case, seeded by the case number.
fn cases(n: u64) -> impl Iterator<Item = StdRng> {
    (0..n).map(StdRng::seed_from_u64)
}

#[test]
fn decomposition_geometry_is_consistent() {
    for mut rng in cases(32) {
        let (side, s) = (rng.gen_range(1..5), rng.gen_range(1..8));
        let n = side * side * side;
        for rank in 0..n {
            let d = Decomposition::new(n, rank, s);
            assert_eq!(d.side(), side);
            assert_eq!(d.global_elems(), side * s);
            for axis in 0..3 {
                assert!(d.coord(axis) < side);
                assert_eq!(d.offset(axis), d.coord(axis) * s);
                for face in 0..2 {
                    // A face is global-boundary iff there is no neighbour.
                    assert_eq!(
                        d.at_global_boundary(axis, face),
                        d.neighbor(axis, face).is_none()
                    );
                }
            }
        }
    }
}

#[test]
fn faces_have_expected_content() {
    for mut rng in cases(32) {
        let (s, seed): (usize, u64) = (rng.gen_range(1..8), rng.gen_range(0..1000));
        // A field whose value encodes its coordinates: every face sample
        // must carry the coordinate of the fixed axis.
        let mut f = Field3::constant(s, 0.0);
        for k in 0..s {
            for j in 0..s {
                for i in 0..s {
                    *f.get_mut(i, j, k) = (i + s * j + s * s * k) as f64 + seed as f64;
                }
            }
        }
        for axis in 0..3 {
            for side in 0..2 {
                let face = f.face(axis, side);
                assert_eq!(face.len(), s * s);
                let fixed = if side == 0 { 0 } else { s - 1 };
                for v in face {
                    let linear = (v - seed as f64) as usize;
                    let coord = match axis {
                        0 => linear % s,
                        1 => (linear / s) % s,
                        _ => linear / (s * s),
                    };
                    assert_eq!(coord, fixed);
                }
            }
        }
    }
}

/// One LULESH case at p = 1 (global size `2 * s8`) and at p = 8 (`s8` per
/// rank): the evolved field and time step agree bit for bit.
fn evolve_both_ways(s8: usize, iterations: usize) {
    let run = |nranks: usize, s: usize| {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let sr = sections.clone();
        let cfg = Arc::new(LuleshConfig::small(s, iterations));
        let report = WorldBuilder::new(nranks)
            .machine(machine::presets::ideal())
            .run(move |p| run_lulesh(p, &sr, &cfg))
            .unwrap();
        report.results.into_iter().next().unwrap()
    };
    let seq = run(1, 2 * s8);
    let par = run(8, s8);
    assert_eq!(
        seq.global_energy.unwrap().data,
        par.global_energy.unwrap().data
    );
    assert_eq!(seq.final_dt, par.final_dt);
    // The total is reduced in a different association order (one local
    // sum vs 8 partial sums), so compare to FP tolerance — the field
    // itself is bit-exact above.
    let (a, b) = (seq.total_energy.unwrap(), par.total_energy.unwrap());
    assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
}

#[test]
fn evolution_is_decomposition_independent() {
    // The smallest case, once saved as a failure, runs every time.
    evolve_both_ways(2, 1);
    for mut rng in cases(6) {
        // Per-rank size at p = 8; global = 2 * s8.
        let (s8, iterations) = (rng.gen_range(2..5), rng.gen_range(1..6));
        evolve_both_ways(s8, iterations);
    }
}

#[test]
fn energy_never_increases_nor_goes_negative() {
    for mut rng in cases(6) {
        let (s, iterations) = (rng.gen_range(2..6), rng.gen_range(1..12));
        let sections = SectionRuntime::new(VerifyMode::Off);
        let sr = sections.clone();
        let cfg = Arc::new(LuleshConfig::small(s, iterations));
        let report = WorldBuilder::new(1)
            .machine(machine::presets::ideal())
            .run(move |p| run_lulesh(p, &sr, &cfg))
            .unwrap();
        let out = &report.results[0];
        let total = out.total_energy.unwrap();
        let initial = lulesh_proxy::physics::E_SPIKE
            + ((s * s * s) as f64 - 1.0) * lulesh_proxy::physics::E_BACKGROUND;
        assert!(total > 0.0);
        assert!(total <= initial + 1e-9);
        assert!(out.final_dt > 0.0);
    }
}
