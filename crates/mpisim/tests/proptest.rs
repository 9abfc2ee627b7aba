//! Property tests for the runtime: collectives compute the right values
//! for arbitrary inputs, communicator splits partition the world, and
//! virtual time behaves causally under random workloads.

use machine::{presets, VTime, Work};
use mpisim::{dims_create, CartGrid, Src, TagSel, WorldBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generator per case, seeded by the case number.
fn cases(n: u64) -> impl Iterator<Item = StdRng> {
    (0..n).map(StdRng::seed_from_u64)
}

#[test]
fn allreduce_sums_arbitrary_vectors() {
    for mut rng in cases(24) {
        let nranks = rng.gen_range(1..9);
        let len = rng.gen_range(1..32);
        let base = rng.gen_range(-1000i64..1000);
        let report = WorldBuilder::new(nranks)
            .run(move |p| {
                let world = p.world();
                let data: Vec<i64> = (0..len)
                    .map(|i| base + (p.world_rank() * 31 + i) as i64)
                    .collect();
                world.allreduce(p, data, |a, b| a + b)
            })
            .unwrap();
        let expect: Vec<i64> = (0..len)
            .map(|i| (0..nranks).map(|r| base + (r * 31 + i) as i64).sum::<i64>())
            .collect();
        for result in report.results {
            assert_eq!(&result, &expect);
        }
    }
}

#[test]
fn scatter_gather_identity() {
    for mut rng in cases(24) {
        let (nranks, chunk) = (rng.gen_range(1..9), rng.gen_range(1..16));
        let report = WorldBuilder::new(nranks)
            .run(move |p| {
                let world = p.world();
                let data = (p.world_rank() == 0)
                    .then(|| (0..nranks * chunk).map(|x| x as u32).collect::<Vec<_>>());
                let mine = world.scatter(p, 0, data);
                world.gather(p, 0, mine)
            })
            .unwrap();
        let expect: Vec<u32> = (0..nranks * chunk).map(|x| x as u32).collect();
        assert_eq!(&report.results[0], &expect);
    }
}

#[test]
fn split_partitions_the_world() {
    for mut rng in cases(24) {
        let (nranks, ncolors) = (rng.gen_range(1..13), rng.gen_range(1..5));
        let report = WorldBuilder::new(nranks)
            .run(move |p| {
                let world = p.world();
                let color = (p.world_rank() % ncolors) as i32;
                let sub = world.split(p, Some(color), 0).unwrap();
                (color, sub.size(), sub.rank(), sub.world_rank_of(sub.rank()))
            })
            .unwrap();
        // Sizes by color sum to the world, local ranks are consistent, and
        // the member's own mapping points back at itself.
        let mut total = 0;
        for color in 0..ncolors as i32 {
            let members: Vec<_> = report
                .results
                .iter()
                .enumerate()
                .filter(|(_, (c, ..))| *c == color)
                .collect();
            if members.is_empty() {
                continue;
            }
            let size = members[0].1 .1;
            assert_eq!(size, members.len());
            total += size;
            for (world_rank, (_, _, local, self_world)) in members {
                assert_eq!(*self_world, world_rank);
                assert!(*local < size);
            }
        }
        assert_eq!(total, nranks);
    }
}

#[test]
fn message_payloads_arrive_intact() {
    for mut rng in cases(24) {
        let (len, tag) = (rng.gen_range(0..512), rng.gen_range(0..100));
        let report = WorldBuilder::new(2)
            .run(move |p| {
                let world = p.world();
                if p.world_rank() == 0 {
                    let data: Vec<u16> = (0..len).map(|x| (x * 7) as u16).collect();
                    world.send(p, 1, tag, &data);
                    Vec::new()
                } else {
                    world.recv::<u16>(p, Src::Rank(0), TagSel::Is(tag)).data
                }
            })
            .unwrap();
        let expect: Vec<u16> = (0..len).map(|x| (x * 7) as u16).collect();
        assert_eq!(&report.results[1], &expect);
    }
}

#[test]
fn clocks_are_causal_under_random_work() {
    for mut rng in cases(24) {
        let seed = rng.gen();
        let costs: Vec<u64> = (0..4).map(|_| rng.gen_range(0..1_000_000)).collect();
        // Receiver's final time must be at least the sender's send time:
        // information cannot arrive before it was produced.
        let costs2 = costs.clone();
        let report = WorldBuilder::new(2)
            .machine(presets::nehalem_cluster())
            .seed(seed)
            .run(move |p| {
                let world = p.world();
                if p.world_rank() == 0 {
                    for &c in &costs2 {
                        p.compute(Work::flops(c as f64));
                        world.send(p, 1, 0, &[p.now().as_nanos()]);
                    }
                    p.now()
                } else {
                    let mut last_send = VTime::ZERO;
                    for _ in 0..costs2.len() {
                        let msg = world.recv::<u64>(p, Src::Rank(0), TagSel::Is(0));
                        let sent = VTime::from_nanos(msg.data[0]);
                        // A rank panic surfaces as RunError and fails the
                        // test via unwrap below.
                        assert!(p.now() >= sent, "arrival before departure");
                        assert!(sent >= last_send, "FIFO per sender");
                        last_send = sent;
                    }
                    p.now()
                }
            })
            .unwrap();
        assert!(report.makespan >= report.results[0].min(report.results[1]));
    }
}

#[test]
fn barrier_equalizes_arbitrary_skews() {
    for mut rng in cases(24) {
        let n = rng.gen_range(1..9);
        let skews: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1 << 32)).collect();
        let skews2 = skews.clone();
        let report = WorldBuilder::new(n)
            .run(move |p| {
                p.advance(VTime::from_nanos(skews2[p.world_rank()]));
                let world = p.world();
                world.barrier(p);
                p.now()
            })
            .unwrap();
        let max_skew = VTime::from_nanos(*skews.iter().max().unwrap());
        for t in &report.final_times {
            assert_eq!(*t, max_skew);
        }
    }
}

#[test]
fn dims_create_product_and_balance() {
    for mut rng in cases(32) {
        let (n, ndims) = (rng.gen_range(1..10_000), rng.gen_range(1..5));
        let dims = dims_create(n, ndims);
        assert_eq!(dims.len(), ndims);
        assert_eq!(dims.iter().product::<usize>(), n);
        // Sorted decreasing.
        for w in dims.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }
}

#[test]
fn cart_grid_roundtrip() {
    for mut rng in cases(32) {
        let dims = vec![
            rng.gen_range(1..8),
            rng.gen_range(1..8),
            rng.gen_range(1..8),
        ];
        let g = CartGrid::new(dims);
        for rank in 0..g.size() {
            assert_eq!(g.rank_of(&g.coords_of(rank)), rank);
            // Face neighbours are mutual.
            for n in g.face_neighbors(rank) {
                assert!(g.face_neighbors(n).contains(&rank));
            }
        }
    }
}

/// Failure injection: whatever rank dies at whatever point of a
/// communication-heavy program, the world terminates with an error
/// attributing the right rank — it never deadlocks (the test would
/// time out) and never reports success.
#[test]
fn injected_failures_always_terminate_with_the_right_culprit() {
    for mut rng in cases(16) {
        let nranks = rng.gen_range(2..8);
        let steps = rng.gen_range(1..6);
        let fail_rank = (rng.gen::<u64>() % nranks as u64) as usize;
        let fail_step = (rng.gen::<u64>() % steps as u64) as usize;
        let fail_in_collective: bool = rng.gen();
        let result = WorldBuilder::new(nranks).run(move |p| {
            let world = p.world();
            for step in 0..steps {
                if p.world_rank() == fail_rank && step == fail_step {
                    if fail_in_collective {
                        // Die *inside* the collective pattern: others are
                        // already blocked in the rendezvous.
                        panic!("injected failure at step {step}");
                    }
                    panic!("injected failure before comm at step {step}");
                }
                // A mixed step: neighbour exchange + a collective.
                let n = world.size();
                let right = (p.world_rank() + 1) % n;
                let left = (p.world_rank() + n - 1) % n;
                let _ = world.sendrecv(
                    p,
                    right,
                    step as i32,
                    &[p.world_rank() as u32],
                    Src::Rank(left),
                    TagSel::Is(step as i32),
                );
                let _ = world.allreduce_sum_f64(p, 1.0);
            }
        });
        match result {
            Err(mpisim::RunError::RankPanicked { rank, message }) => {
                assert_eq!(rank, fail_rank);
                assert!(message.contains("injected failure"), "{}", message);
            }
            other => panic!("expected failure report, got {:?}", other.is_ok()),
        }
    }
}
