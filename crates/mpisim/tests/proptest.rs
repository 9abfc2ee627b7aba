//! Property tests for the runtime: collectives compute the right values
//! for arbitrary inputs, communicator splits partition the world, and
//! virtual time behaves causally under random workloads.

use machine::{presets, VTime, Work};
use mpisim::{dims_create, CartGrid, Src, TagSel, WorldBuilder};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn allreduce_sums_arbitrary_vectors(
        nranks in 1usize..9,
        len in 1usize..32,
        base in -1000i64..1000,
    ) {
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
            .map(|i| {
                (0..nranks)
                    .map(|r| base + (r * 31 + i) as i64)
                    .sum::<i64>()
            })
            .collect();
        for result in report.results {
            prop_assert_eq!(&result, &expect);
        }
    }

    #[test]
    fn scatter_gather_identity(nranks in 1usize..9, chunk in 1usize..16) {
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
        prop_assert_eq!(&report.results[0], &expect);
    }

    #[test]
    fn split_partitions_the_world(nranks in 1usize..13, ncolors in 1usize..5) {
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
            prop_assert_eq!(size, members.len());
            total += size;
            for (world_rank, (_, _, local, self_world)) in members {
                prop_assert_eq!(*self_world, world_rank);
                prop_assert!(*local < size);
            }
        }
        prop_assert_eq!(total, nranks);
    }

    #[test]
    fn message_payloads_arrive_intact(len in 0usize..512, tag in 0i32..100) {
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
        prop_assert_eq!(&report.results[1], &expect);
    }

    #[test]
    fn clocks_are_causal_under_random_work(
        seed in any::<u64>(),
        costs in prop::collection::vec(0u64..1_000_000, 4),
    ) {
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
                        // Plain asserts: a rank panic surfaces as RunError
                        // and fails the proptest via unwrap below.
                        assert!(p.now() >= sent, "arrival before departure");
                        assert!(sent >= last_send, "FIFO per sender");
                        last_send = sent;
                    }
                    p.now()
                }
            })
            .unwrap();
        prop_assert!(report.makespan >= report.results[0].min(report.results[1]));
    }

    #[test]
    fn barrier_equalizes_arbitrary_skews(skews in prop::collection::vec(0u64..1 << 32, 1..9)) {
        let n = skews.len();
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
            prop_assert_eq!(*t, max_skew);
        }
    }
}

proptest! {
    #[test]
    fn dims_create_product_and_balance(n in 1usize..10_000, ndims in 1usize..5) {
        let dims = dims_create(n, ndims);
        prop_assert_eq!(dims.len(), ndims);
        prop_assert_eq!(dims.iter().product::<usize>(), n);
        // Sorted decreasing.
        for w in dims.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn cart_grid_roundtrip(d0 in 1usize..8, d1 in 1usize..8, d2 in 1usize..8) {
        let g = CartGrid::new(vec![d0, d1, d2]);
        for rank in 0..g.size() {
            prop_assert_eq!(g.rank_of(&g.coords_of(rank)), rank);
            // Face neighbours are mutual.
            for n in g.face_neighbors(rank) {
                prop_assert!(g.face_neighbors(n).contains(&rank));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Failure injection: whatever rank dies at whatever point of a
    /// communication-heavy program, the world terminates with an error
    /// attributing the right rank — it never deadlocks (the test would
    /// time out) and never reports success.
    #[test]
    fn injected_failures_always_terminate_with_the_right_culprit(
        nranks in 2usize..8,
        steps in 1usize..6,
        fail_rank_seed in any::<u64>(),
        fail_step_seed in any::<u64>(),
        fail_in_collective in any::<bool>(),
    ) {
        let fail_rank = (fail_rank_seed % nranks as u64) as usize;
        let fail_step = (fail_step_seed % steps as u64) as usize;
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
                prop_assert_eq!(rank, fail_rank);
                prop_assert!(message.contains("injected failure"), "{}", message);
            }
            other => prop_assert!(false, "expected failure report, got {:?}", other.is_ok()),
        }
    }
}
