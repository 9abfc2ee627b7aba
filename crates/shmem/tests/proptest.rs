//! Property tests for the shared-memory model: schedules partition
//! iteration spaces exactly, bodies execute exactly once per index, and
//! region pricing respects basic monotonicities.

use machine::{presets, OmpModel, Work};
use mpisim::WorldBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shmem::{Schedule, Team};

/// One generator per case, seeded by the case number.
fn cases(n: u64) -> impl Iterator<Item = StdRng> {
    (0..n).map(StdRng::seed_from_u64)
}

#[test]
fn static_ranges_partition() {
    for mut rng in cases(32) {
        let (n, threads) = (rng.gen_range(0..10_000), rng.gen_range(1..128));
        let mut covered = 0;
        let mut prev_end = 0;
        for tid in 0..threads {
            let (s, e) = Schedule::static_range(n, threads, tid);
            assert_eq!(s, prev_end);
            assert!(e >= s);
            // Balanced to within one iteration.
            assert!(e - s <= n / threads + 1);
            covered += e - s;
            prev_end = e;
        }
        assert_eq!(covered, n);
    }
}

#[test]
fn chunk_counts_bounded() {
    for mut rng in cases(32) {
        let n = rng.gen_range(1..100_000);
        let threads = rng.gen_range(1..256);
        let chunk = rng.gen_range(1..512);
        for sched in [
            Schedule::Static,
            Schedule::StaticChunk(chunk),
            Schedule::Dynamic(chunk),
            Schedule::Guided,
        ] {
            let c = sched.chunk_count(n, threads);
            assert!(c >= 1);
            assert!(c <= n, "never more chunks than iterations ({sched:?})");
        }
    }
}

#[test]
fn every_index_visited_once() {
    for mut rng in cases(16) {
        let (n, threads) = (rng.gen_range(0..2_000), rng.gen_range(1..64));
        let schedule = match rng.gen_range(0..4) {
            0 => Schedule::Static,
            1 => Schedule::StaticChunk(rng.gen_range(1..64)),
            2 => Schedule::Dynamic(rng.gen_range(1..64)),
            _ => Schedule::Guided,
        };
        let report = WorldBuilder::new(1)
            .run(move |p| {
                let mut seen = vec![0u8; n];
                Team::new(threads)
                    .with_schedule(schedule)
                    .parallel_for_weighted(p, n, |_| Work::flops(1.0), |i| seen[i] += 1);
                seen
            })
            .unwrap();
        assert!(report.results[0].iter().all(|&c| c == 1));
    }
}

#[test]
fn pricing_monotone_in_work() {
    for mut rng in cases(16) {
        let (n, threads) = (rng.gen_range(1..10_000), rng.gen_range(1..64));
        let flops = rng.gen_range(1.0..1e9);
        let report = WorldBuilder::new(1)
            .run(move |p| {
                let team = Team::new(threads);
                let small = team.for_cost_uniform(p, n, Work::flops(flops));
                let large = team.for_cost_uniform(p, n, Work::flops(flops * 2.0));
                (small, large)
            })
            .unwrap();
        let (small, large) = report.results[0];
        assert!(large >= small);
        assert!(small >= 0.0);
    }
}

#[test]
fn ideal_machine_region_cost_is_exact() {
    for mut rng in cases(16) {
        let (n, threads) = (rng.gen_range(1..10_000), rng.gen_range(1..64));
        // On the ideal machine (1 Gflop/s, free runtime) a uniform loop of
        // k flops per item costs exactly max_chunk * k / 1e9 seconds.
        let report = WorldBuilder::new(1)
            .run(move |p| Team::new(threads).for_cost_uniform(p, n, Work::flops(1000.0)))
            .unwrap();
        let max_chunk = n.div_ceil(threads);
        let expect = max_chunk as f64 * 1000.0 / 1e9;
        assert!((report.results[0] - expect).abs() < 1e-12);
    }
}

#[test]
fn overheads_grow_with_threads() {
    for mut rng in cases(16) {
        let (t_small, extra) = (rng.gen_range(1..32), rng.gen_range(1..32));
        let mut m = presets::ideal();
        m.omp = OmpModel {
            fork_base: 1e-6,
            fork_per_thread: 1e-6,
            barrier_base: 1e-6,
            barrier_per_round: 1e-6,
            dynamic_per_chunk: 0.0,
        };
        // Empty loop: pure overhead. More threads can only cost more.
        let report = WorldBuilder::new(1)
            .machine(m)
            .run(move |p| {
                let a = Team::new(t_small).for_cost_uniform(p, 0, Work::ZERO);
                let b = Team::new(t_small + extra).for_cost_uniform(p, 0, Work::ZERO);
                (a, b)
            })
            .unwrap();
        let (a, b) = report.results[0];
        assert!(b >= a);
    }
}

#[test]
fn reduction_matches_sequential_fold() {
    for mut rng in cases(16) {
        let (n, threads) = (rng.gen_range(0..5_000), rng.gen_range(1..64));
        let report = WorldBuilder::new(1)
            .run(move |p| {
                Team::new(threads).parallel_reduce_uniform(
                    p,
                    n,
                    Work::flops(1.0),
                    0u64,
                    |acc, i| acc + (i as u64) * (i as u64),
                )
            })
            .unwrap();
        let expect: u64 = (0..n as u64).map(|i| i * i).sum();
        assert_eq!(report.results[0], expect);
    }
}
