//! Property tests for the machine-model layer: virtual-time arithmetic,
//! cost-model monotonicity, and noise-stream determinism.

use machine::{presets, CollectiveCost, DetRng, LinkModel, NoiseModel, Topology, VTime, Work};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generator per case, seeded by the case number.
fn cases(n: u64) -> impl Iterator<Item = StdRng> {
    (0..n).map(StdRng::seed_from_u64)
}

#[test]
fn vtime_roundtrip_is_lossless_for_sane_ranges() {
    for mut rng in cases(32) {
        let ns = rng.gen_range(0..u64::MAX / 4);
        let t = VTime::from_nanos(ns);
        // Through seconds and back: within 1 ns per ~2^52 ns of magnitude
        // (f64 mantissa), and always non-negative.
        let back = VTime::from_secs_f64(t.as_secs_f64());
        let err = back.as_nanos().abs_diff(ns);
        let tolerance = (ns >> 50).max(1);
        assert!(err <= tolerance, "ns={ns} err={err}");
    }
}

#[test]
fn vtime_add_is_commutative_and_monotone() {
    for mut rng in cases(32) {
        let (a, b) = (rng.gen_range(0..1 << 62), rng.gen_range(0..1 << 62));
        let (ta, tb) = (VTime::from_nanos(a), VTime::from_nanos(b));
        assert_eq!(ta + tb, tb + ta);
        assert!(ta + tb >= ta.max(tb));
        assert_eq!((ta + tb) - tb, ta);
    }
}

#[test]
fn vtime_sub_saturates() {
    for mut rng in cases(32) {
        let (a, b): (u64, u64) = (rng.gen(), rng.gen());
        let diff = VTime::from_nanos(a) - VTime::from_nanos(b);
        assert_eq!(diff.as_nanos(), a.saturating_sub(b));
    }
}

#[test]
fn compute_time_is_monotone_in_work() {
    for mut rng in cases(32) {
        let flops = rng.gen_range(0.0..1e15);
        let bytes = rng.gen_range(0.0..1e15);
        let extra = rng.gen_range(1.0..1e6);
        let m = presets::knl();
        let base = m.thread_seconds_for(Work::new(flops, bytes), 1);
        let more = m.thread_seconds_for(Work::new(flops + extra, bytes + extra), 1);
        assert!(more >= base);
        assert!(base >= 0.0);
    }
}

#[test]
fn contention_never_speeds_up() {
    for mut rng in cases(32) {
        let flops = rng.gen_range(1.0..1e12);
        let threads_a = rng.gen_range(1..512);
        let threads_b = rng.gen_range(1..512);
        let m = presets::dual_broadwell();
        let (lo, hi) = if threads_a <= threads_b {
            (threads_a, threads_b)
        } else {
            (threads_b, threads_a)
        };
        let w = Work::new(flops, flops);
        assert!(m.thread_seconds_for(w, hi) >= m.thread_seconds_for(w, lo) - 1e-15);
    }
}

#[test]
fn transfer_time_monotone_in_size() {
    for mut rng in cases(32) {
        let (bytes, extra) = (rng.gen_range(0..1 << 40), rng.gen_range(1..1 << 20));
        let link = LinkModel {
            latency: 1e-6,
            bandwidth: 3e9,
            overhead: 5e-7,
        };
        assert!(link.transfer_secs(bytes + extra) > link.transfer_secs(bytes));
    }
}

#[test]
fn collective_costs_nonnegative_and_monotone_in_p() {
    for mut rng in cases(32) {
        let (p, bytes) = (rng.gen_range(1..2048), rng.gen_range(0..1 << 30));
        let link = LinkModel {
            latency: 2e-6,
            bandwidth: 3e9,
            overhead: 9e-7,
        };
        let small = CollectiveCost { link: &link, p };
        let large = CollectiveCost {
            link: &link,
            p: p * 2,
        };
        for f in [
            |c: &CollectiveCost<'_>, b: usize| c.bcast(b),
            |c: &CollectiveCost<'_>, b: usize| c.allreduce(b),
            |c: &CollectiveCost<'_>, b: usize| c.allgather(b),
            |c: &CollectiveCost<'_>, _| c.barrier(),
        ] {
            let s = f(&small, bytes);
            let l = f(&large, bytes);
            assert!(s >= 0.0);
            assert!(l >= s, "cost must not shrink with p: {s} vs {l}");
        }
    }
}

#[test]
fn noise_streams_deterministic_and_positive() {
    for mut rng in cases(32) {
        let seed = rng.gen();
        let rank = rng.gen_range(0..4096);
        let sigma = rng.gen_range(0.0..1.0);
        let noise = NoiseModel {
            compute_sigma: sigma,
            net_latency_jitter_mean: 1e-6,
        };
        let mut a = DetRng::for_stream(seed, rank, 0);
        let mut b = DetRng::for_stream(seed, rank, 0);
        for _ in 0..16 {
            let fa = noise.compute_factor(&mut a);
            let fb = noise.compute_factor(&mut b);
            assert_eq!(fa, fb);
            assert!(fa > 0.0);
            assert!(noise.latency_jitter(&mut a) >= 0.0);
            let _ = noise.latency_jitter(&mut b);
        }
    }
}

#[test]
fn topology_block_partition() {
    for mut rng in cases(32) {
        let (ranks_per_node, rank) = (rng.gen_range(1..64), rng.gen_range(0..10_000));
        let t = Topology::block(ranks_per_node);
        let node = t.node_of(rank);
        // Every rank on the node agrees about the node id.
        let first = node * ranks_per_node;
        assert!(t.same_node(rank, first));
        assert!(!t.same_node(first, first + ranks_per_node));
        assert_eq!(t.nodes_for(rank + 1), rank / ranks_per_node + 1);
    }
}

#[test]
fn ranks_on_node_closed_form_is_the_scan() {
    for mut rng in cases(32) {
        // A node size in 1..65, or one node for the whole world.
        let ranks_per_node = if rng.gen() {
            rng.gen_range(1..65)
        } else {
            usize::MAX
        };
        let nranks = rng.gen_range(1..4097);
        let t = Topology { ranks_per_node };
        // The scan `Proc::new` used to run per rank, run once: node-mates
        // counted by walking every rank.
        let mut scanned = vec![0usize; t.nodes_for(nranks)];
        for rank in 0..nranks {
            scanned[t.node_of(rank)] += 1;
        }
        for rank in 0..nranks {
            let node = t.node_of(rank);
            assert_eq!(t.ranks_on_node(node, nranks), scanned[node]);
        }
        let (tail, full) = scanned.split_last().expect("nranks >= 1");
        assert!(full.iter().all(|&n| n == ranks_per_node));
        assert!((1..=ranks_per_node).contains(tail));
        let per_node = (0..scanned.len()).map(|node| t.ranks_on_node(node, nranks));
        assert_eq!(per_node.sum::<usize>(), nranks);
        assert_eq!(t.ranks_on_node(scanned.len(), nranks), 0);
    }
}

/// What `VTime::from_secs_f64` computed before it rounded in integers.
fn by_float_rounding(secs: f64) -> VTime {
    if secs.is_nan() || secs <= 0.0 {
        return VTime::ZERO;
    }
    let ns = secs * 1e9;
    if ns >= u64::MAX as f64 {
        VTime::MAX
    } else {
        VTime(ns.round() as u64)
    }
}

#[test]
fn integer_rounding_is_the_float_library_s() {
    // Half-way points, powers of two and their neighbours a few ulps
    // either side, in nanoseconds: where truncate-and-compare could
    // differ from `round` if it were going to.
    let mut edges = vec![
        0.5,
        1.5,
        2.5,
        0.499_999_999_999_999_94,
        4_503_599_627_370_495.5,
    ];
    for k in -40..=64 {
        let pow = 2f64.powi(k);
        edges.extend([pow, pow + 0.5, pow - 0.5]);
    }
    // The ±2 ulp neighbours of every positive edge (the bit patterns of
    // positive doubles are ordered like the doubles).
    for edge in edges.clone() {
        if edge > 0.0 {
            let bits = edge.to_bits();
            edges.extend((bits - 2..=bits + 2).map(f64::from_bits));
        }
    }
    for ns in edges {
        let secs = ns / 1e9;
        assert_eq!(
            VTime::from_secs_f64(secs),
            by_float_rounding(secs),
            "{ns} ns"
        );
    }
    // A seeded sweep over every magnitude a clock can hold (and some it
    // cannot): a random mantissa at each exponent -40..63.
    let mut rng = DetRng::for_stream(18, 0, 0);
    for i in 0..200_000 {
        let secs = (1.0 + rng.uniform()) * 2f64.powi(i % 104 - 40) / 1e9;
        assert_eq!(
            VTime::from_secs_f64(secs),
            by_float_rounding(secs),
            "{secs} s"
        );
    }
}
