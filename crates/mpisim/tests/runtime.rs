//! Integration tests for the mpisim runtime: point-to-point semantics,
//! collectives, communicator construction, virtual-time behaviour, tool
//! events, and failure handling.

use machine::{presets, LinkModel, NetworkModel, Topology, VTime, Work};
use mpisim::{Engine, MpiEvent, Payload, Src, TagSel, Tool, WorldBuilder};
use parking_lot::Mutex;
use std::sync::Arc;

/// A machine with a deterministic, non-trivial network and no noise, so
/// timing assertions are exact.
fn lab_machine() -> machine::MachineModel {
    let mut m = presets::ideal();
    m.name = "lab".to_string();
    m.topology = Topology::block(4);
    m.network = NetworkModel {
        intra_node: LinkModel {
            latency: 1e-6,
            bandwidth: 1e9,
            overhead: 1e-7,
        },
        inter_node: LinkModel {
            latency: 1e-5,
            bandwidth: 1e8,
            overhead: 1e-6,
        },
    };
    m
}

// ---------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------

#[test]
fn ring_pass_accumulates() {
    let n = 8;
    let report = WorldBuilder::new(n)
        .run(|p| {
            let world = p.world();
            let rank = p.world_rank();
            if rank == 0 {
                world.send(p, 1, 0, &[1u64]);
                let msg = world.recv::<u64>(p, Src::Rank(n - 1), TagSel::Is(0));
                msg.data[0]
            } else {
                let msg = world.recv::<u64>(p, Src::Rank(rank - 1), TagSel::Is(0));
                let next = (rank + 1) % n;
                world.send(p, next, 0, &[msg.data[0] + 1]);
                0
            }
        })
        .unwrap();
    assert_eq!(report.results[0], n as u64);
}

#[test]
fn recv_metadata_and_virtual_payloads() {
    let report = WorldBuilder::new(2)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                world.send_virtual::<f64>(p, 1, 7, 1000);
                (0, 0)
            } else {
                let msg = world.recv::<f64>(p, Src::Any, TagSel::Any);
                assert!(msg.data.is_empty(), "virtual payload carries no data");
                assert_eq!(msg.src, 0);
                assert_eq!(msg.tag, 7);
                (msg.elems, msg.logical_bytes as usize)
            }
        })
        .unwrap();
    assert_eq!(report.results[1], (1000, 8000));
}

#[test]
fn p2p_transfer_time_matches_model() {
    // Rank 0 sends 1e6 bytes intra-node: o + L + bytes/bw + o on top of the
    // receiver's clock (receiver posts at t=0, sender departs at o).
    let m = lab_machine();
    let report = WorldBuilder::new(2)
        .machine(m)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                world.send_virtual::<u8>(p, 1, 0, 1_000_000);
            } else {
                let _ = world.recv::<u8>(p, Src::Rank(0), TagSel::Is(0));
            }
            p.now()
        })
        .unwrap();
    // sender: o = 1e-7. arrival = 1e-7 + 1e-6 + 1e-3. recv exit = arrival + 1e-7.
    let expect = 1e-7 + 1e-6 + 1e-3 + 1e-7;
    let got = report.results[1].as_secs_f64();
    assert!((got - expect).abs() < 1e-12, "got {got}, expected {expect}");
    // Sender's clock only advanced by its overhead.
    assert!((report.results[0].as_secs_f64() - 1e-7).abs() < 1e-15);
}

#[test]
fn inter_node_link_is_slower() {
    let m = lab_machine(); // 4 ranks per node
    let report = WorldBuilder::new(8)
        .machine(m)
        .run(|p| {
            let world = p.world();
            match p.world_rank() {
                0 => {
                    // 0 -> 1 intra-node, 0 -> 4 inter-node, same size.
                    world.send_virtual::<u8>(p, 1, 0, 100_000);
                    world.send_virtual::<u8>(p, 4, 0, 100_000);
                    VTime::ZERO
                }
                1 | 4 => {
                    let _ = world.recv::<u8>(p, Src::Rank(0), TagSel::Is(0));
                    p.now()
                }
                _ => VTime::ZERO,
            }
        })
        .unwrap();
    let intra = report.results[1];
    let inter = report.results[4];
    assert!(
        inter > intra * 5,
        "inter-node {inter} should be much slower than intra-node {intra}"
    );
}

#[test]
fn non_overtaking_same_source_and_tag() {
    let report = WorldBuilder::new(2)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                for i in 0..100u32 {
                    world.send(p, 1, 3, &[i]);
                }
                Vec::new()
            } else {
                (0..100)
                    .map(|_| world.recv::<u32>(p, Src::Rank(0), TagSel::Is(3)).data[0])
                    .collect::<Vec<u32>>()
            }
        })
        .unwrap();
    assert_eq!(report.results[1], (0..100).collect::<Vec<u32>>());
}

#[test]
fn tag_selective_receive() {
    let report = WorldBuilder::new(2)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                world.send(p, 1, 1, &[10u32]);
                world.send(p, 1, 2, &[20u32]);
                0
            } else {
                // Receive tag 2 first even though tag 1 was sent first.
                let b = world.recv::<u32>(p, Src::Rank(0), TagSel::Is(2)).data[0];
                let a = world.recv::<u32>(p, Src::Rank(0), TagSel::Is(1)).data[0];
                (b as usize) * 100 + a as usize
            }
        })
        .unwrap();
    assert_eq!(report.results[1], 2010);
}

#[test]
fn isend_irecv_roundtrip() {
    let report = WorldBuilder::new(2)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                let req = world.isend(p, 1, 0, &[5u8, 6]);
                req.wait(p);
                0
            } else {
                let req = world.irecv::<u8>(p, Src::Rank(0), TagSel::Is(0));
                let msg = req.wait(p);
                msg.data.iter().map(|&b| b as usize).sum()
            }
        })
        .unwrap();
    assert_eq!(report.results[1], 11);
}

#[test]
fn sendrecv_exchange_between_neighbors() {
    let n = 6;
    let report = WorldBuilder::new(n)
        .run(|p| {
            let world = p.world();
            let rank = p.world_rank();
            let right = (rank + 1) % n;
            let left = (rank + n - 1) % n;
            let got = world.sendrecv(p, right, 0, &[rank as u32], Src::Rank(left), TagSel::Is(0));
            got.data[0]
        })
        .unwrap();
    for rank in 0..n {
        assert_eq!(report.results[rank], ((rank + n - 1) % n) as u32);
    }
}

// ---------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------

#[test]
fn barrier_synchronizes_clocks() {
    let report = WorldBuilder::new(4)
        .run(|p| {
            // Skewed entry: rank r computes r seconds.
            p.advance_secs(p.world_rank() as f64);
            let world = p.world();
            world.barrier(p);
            p.now()
        })
        .unwrap();
    let t0 = report.results[0];
    assert!(
        report.results.iter().all(|&t| t == t0),
        "{:?}",
        report.results
    );
    assert!(t0 >= VTime::from_secs_f64(3.0), "exit at max entry");
}

#[test]
fn bcast_delivers_to_all() {
    let report = WorldBuilder::new(5)
        .run(|p| {
            let world = p.world();
            let data = (p.world_rank() == 2).then(|| vec![3.5f64, 4.5]);
            world.bcast(p, 2, data)
        })
        .unwrap();
    for r in report.results {
        assert_eq!(r, vec![3.5, 4.5]);
    }
}

#[test]
fn bcast_virtual_distributes_count() {
    let report = WorldBuilder::new(4)
        .run(|p| {
            let world = p.world();
            let n = (p.world_rank() == 0).then(|| Payload::virtual_elems::<f64>(12345));
            world.bcast_payload::<f64>(p, 0, n).elems()
        })
        .unwrap();
    assert!(report.results.iter().all(|&n| n == 12345));
}

#[test]
fn scatter_gather_roundtrip() {
    let n = 4;
    let report = WorldBuilder::new(n)
        .run(|p| {
            let world = p.world();
            let data = (p.world_rank() == 0).then(|| (0..16u32).collect::<Vec<u32>>());
            let mine = world.scatter(p, 0, data);
            assert_eq!(mine.len(), 4);
            let doubled: Vec<u32> = mine.iter().map(|x| x * 2).collect();
            world.gather(p, 0, doubled)
        })
        .unwrap();
    assert_eq!(
        report.results[0],
        (0..16u32).map(|x| x * 2).collect::<Vec<u32>>()
    );
    assert!(report.results[1].is_empty());
}

#[test]
fn scatterv_uneven_chunks() {
    let report = WorldBuilder::new(3)
        .run(|p| {
            let world = p.world();
            let chunks = (p.world_rank() == 1).then(|| {
                [vec![1u8], vec![2, 3], vec![4, 5, 6]]
                    .map(Payload::from_vec)
                    .into()
            });
            world.scatterv_payload(p, 1, chunks).into_vec::<u8>()
        })
        .unwrap();
    assert_eq!(report.results[0], vec![1]);
    assert_eq!(report.results[1], vec![2, 3]);
    assert_eq!(report.results[2], vec![4, 5, 6]);
}

#[test]
fn scatterv_virtual_counts() {
    let report = WorldBuilder::new(3)
        .run(|p| {
            let world = p.world();
            let counts = (p.world_rank() == 0).then(|| vec![10, 20, 30]);
            let parts = counts.map(|c| c.into_iter().map(Payload::virtual_elems::<f64>).collect());
            world.scatterv_payload(p, 0, parts).elems()
        })
        .unwrap();
    assert_eq!(report.results, vec![10, 20, 30]);
}

#[test]
fn gatherv_virtual_counts_at_root() {
    let report = WorldBuilder::new(3)
        .run(|p| {
            let world = p.world();
            let mine = Payload::virtual_elems::<u32>(p.world_rank() * 5);
            let all = world.gatherv_payload(p, 2, mine);
            all.iter().map(Payload::elems).collect::<Vec<_>>()
        })
        .unwrap();
    assert!(report.results[0].is_empty());
    assert_eq!(report.results[2], vec![0, 5, 10]);
}

#[test]
fn allgather_everyone_sees_everything() {
    let report = WorldBuilder::new(4)
        .run(|p| {
            let world = p.world();
            world.allgather(p, vec![p.world_rank() as i64 * 10])
        })
        .unwrap();
    for r in report.results {
        assert_eq!(r, vec![vec![0], vec![10], vec![20], vec![30]]);
    }
}

#[test]
fn reduce_and_allreduce() {
    let n = 6;
    let report = WorldBuilder::new(n)
        .run(|p| {
            let world = p.world();
            let r = p.world_rank() as i64;
            let root_sum = world.reduce(p, 0, vec![r, 2 * r], |a, b| a + b);
            let all_max = world.allreduce(p, vec![r], |a, b| *a.max(b));
            (root_sum, all_max)
        })
        .unwrap();
    let expect: i64 = (0..n as i64).sum();
    assert_eq!(report.results[0].0, vec![expect, 2 * expect]);
    assert!(report.results[0].1 == vec![n as i64 - 1]);
    assert!(report.results[5].0.is_empty());
    assert_eq!(report.results[5].1, vec![n as i64 - 1]);
}

#[test]
fn scalar_allreduce_helpers() {
    let report = WorldBuilder::new(4)
        .run(|p| {
            let world = p.world();
            let x = p.world_rank() as f64 + 1.0;
            (world.allreduce_min_f64(p, x), world.allreduce_sum_f64(p, x))
        })
        .unwrap();
    for (mn, sum) in report.results {
        assert_eq!(mn, 1.0);
        assert_eq!(sum, 10.0);
    }
}

#[test]
fn allreduce_folds_in_rank_order_on_both_engines() {
    // Floating-point addition does not associate: the one shared fold
    // must visit ranks 0..p in order for every rank to read the bits a
    // rank-order reduction produces, round after round.
    let n = 24;
    let term = |rank: usize, round: usize| 0.1 * (rank + 1) as f64 + 1e-9 * round as f64;
    for engine in [Engine::Des, Engine::Threads] {
        let report = WorldBuilder::new(n)
            .engine(engine)
            .run(|p| {
                let world = p.world();
                (0..3)
                    .map(|round| world.allreduce_sum_f64(p, term(p.world_rank(), round)))
                    .collect::<Vec<f64>>()
            })
            .unwrap();
        for round in 0..3 {
            let expect = (1..n).fold(term(0, round), |acc, rank| acc + term(rank, round));
            for sums in &report.results {
                assert_eq!(sums[round].to_bits(), expect.to_bits(), "{engine:?}");
            }
        }
    }
}

#[test]
fn collective_cost_scales_with_participants() {
    // Barrier on the lab machine costs log2(p) rounds: 16 ranks should pay
    // more than 4 ranks.
    let time_for = |n: usize| {
        WorldBuilder::new(n)
            .machine(lab_machine())
            .run(|p| {
                let world = p.world();
                world.barrier(p);
                p.now()
            })
            .unwrap()
            .makespan
    };
    let t4 = time_for(4);
    let t16 = time_for(16);
    assert!(t16 > t4, "barrier(16)={t16} should exceed barrier(4)={t4}");
}

// ---------------------------------------------------------------------
// Communicator construction
// ---------------------------------------------------------------------

#[test]
fn split_into_even_odd() {
    let report = WorldBuilder::new(6)
        .run(|p| {
            let world = p.world();
            let color = (p.world_rank() % 2) as i32;
            let sub = world.split(p, Some(color), 0).unwrap();
            // Sum world ranks within each sub-communicator.
            let sum = sub.allreduce(p, vec![p.world_rank() as u64], |a, b| a + b)[0];
            (sub.size(), sub.rank(), sum)
        })
        .unwrap();
    // Evens: 0+2+4=6, odds: 1+3+5=9.
    assert_eq!(report.results[0], (3, 0, 6));
    assert_eq!(report.results[2], (3, 1, 6));
    assert_eq!(report.results[4], (3, 2, 6));
    assert_eq!(report.results[1], (3, 0, 9));
    assert_eq!(report.results[5], (3, 2, 9));
}

#[test]
fn split_with_undefined_color() {
    let report = WorldBuilder::new(4)
        .run(|p| {
            let world = p.world();
            let color = (p.world_rank() < 2).then_some(0);
            let sub = world.split(p, color, 0);
            sub.map(|c| c.size())
        })
        .unwrap();
    assert_eq!(report.results, vec![Some(2), Some(2), None, None]);
}

#[test]
fn split_key_reorders_ranks() {
    let report = WorldBuilder::new(4)
        .run(|p| {
            let world = p.world();
            // Reverse order via descending keys.
            let key = -(p.world_rank() as i32);
            let sub = world.split(p, Some(0), key).unwrap();
            sub.rank()
        })
        .unwrap();
    assert_eq!(report.results, vec![3, 2, 1, 0]);
}

#[test]
fn dup_preserves_group_with_fresh_id() {
    let report = WorldBuilder::new(3)
        .run(|p| {
            let world = p.world();
            let dup = world.dup(p);
            assert_ne!(dup.id(), world.id());
            assert_eq!(dup.size(), world.size());
            assert_eq!(dup.rank(), world.rank());
            // Messages on the dup never match receives on world.
            if p.world_rank() == 0 {
                dup.send(p, 1, 0, &[9u8]);
                world.send(p, 1, 0, &[1u8]);
                0
            } else if p.world_rank() == 1 {
                let w = world.recv::<u8>(p, Src::Rank(0), TagSel::Is(0));
                let d = dup.recv::<u8>(p, Src::Rank(0), TagSel::Is(0));
                (w.data[0] as usize) * 10 + d.data[0] as usize
            } else {
                0
            }
        })
        .unwrap();
    assert_eq!(report.results[1], 19);
}

// ---------------------------------------------------------------------
// Compute, determinism, failures
// ---------------------------------------------------------------------

#[test]
fn compute_prices_work_on_ideal_machine() {
    let report = WorldBuilder::new(1)
        .run(|p| {
            p.compute(Work::flops(3e9)); // 3 s at 1 Gflop/s, no noise
            p.now()
        })
        .unwrap();
    assert_eq!(report.results[0], VTime::from_secs_f64(3.0));
}

#[test]
fn ranks_on_node_counts_a_partial_tail_node() {
    // The count feeds `shmem::Team`'s contention pricing: a wrong count is
    // a wrong virtual clock. 10 ranks on 4-slot nodes: 4 + 4 + 2.
    let report = WorldBuilder::new(10)
        .machine(lab_machine())
        .run(|p| p.ranks_on_node())
        .unwrap();
    assert_eq!(report.results, [4, 4, 4, 4, 4, 4, 4, 4, 2, 2]);
}

#[test]
fn runs_are_deterministic_across_repeats() {
    let run_once = || {
        WorldBuilder::new(8)
            .machine(presets::nehalem_cluster())
            .seed(42)
            .run(|p| {
                let world = p.world();
                for step in 0..20 {
                    p.compute(Work::flops(1e7));
                    let rank = p.world_rank();
                    let n = p.world_size();
                    if rank + 1 < n {
                        world.send_virtual::<f64>(p, rank + 1, step, 100);
                    }
                    if rank > 0 {
                        let _ = world.recv::<f64>(p, Src::Rank(rank - 1), TagSel::Is(step));
                    }
                }
                world.barrier(p);
                p.now()
            })
            .unwrap()
            .results
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn different_seeds_differ_under_noise() {
    let run_with = |seed| {
        WorldBuilder::new(4)
            .machine(presets::nehalem_cluster())
            .seed(seed)
            .run(|p| {
                p.compute(Work::flops(1e9));
                p.now()
            })
            .unwrap()
            .makespan
    };
    assert_ne!(run_with(1), run_with(2));
}

#[test]
fn rank_panic_is_reported_and_world_unblocks() {
    let result = WorldBuilder::new(4).run(|p| {
        if p.world_rank() == 2 {
            panic!("deliberate failure");
        }
        // Everyone else blocks in a barrier that can never complete.
        let world = p.world();
        world.barrier(p);
    });
    match result {
        Err(mpisim::RunError::RankPanicked { rank, message }) => {
            assert_eq!(rank, 2);
            assert!(message.contains("deliberate failure"));
        }
        other => panic!("expected rank panic, got {other:?}"),
    }
}

#[test]
fn zero_ranks_rejected() {
    assert!(matches!(
        WorldBuilder::new(0).run(|_| ()),
        Err(mpisim::RunError::NoRanks)
    ));
}

#[test]
fn large_world_smoke() {
    // 456 ranks — the paper's largest convolution configuration.
    let report = WorldBuilder::new(456)
        .run(|p| {
            let world = p.world();

            world.allreduce(p, vec![1u64], |a, b| a + b)[0]
        })
        .unwrap();
    assert!(report.results.iter().all(|&s| s == 456));
}

// ---------------------------------------------------------------------
// Tool events
// ---------------------------------------------------------------------

#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<(usize, String)>>,
}

impl Tool for Recorder {
    fn on_event(&self, rank: usize, event: &MpiEvent) {
        let name = match event {
            MpiEvent::Init { .. } => "init".to_string(),
            MpiEvent::Finalize { .. } => "finalize".to_string(),
            MpiEvent::SectionEnter { label, .. } => format!("sec+:{label}"),
            MpiEvent::SectionLeave { label, .. } => format!("sec-:{label}"),
            MpiEvent::SendEnqueued { bytes, .. } => format!("sent:{bytes}"),
            MpiEvent::RecvMatched { bytes, .. } => format!("matched:{bytes}"),
            MpiEvent::CollectiveEnter { op, .. } => format!("coll+:{op}"),
            MpiEvent::CollectiveExit { op, bytes, .. } => format!("coll-:{op}:{bytes}"),
            // Compute is exercised by its own tests.
            _ => return,
        };
        self.events.lock().push((rank, name));
    }
}

/// A tool sees each rank's run lifecycle, a layered runtime's section
/// notifications, and of every call what it moved: a message sent or
/// matched, a rendezvous entered and left.
#[test]
fn tools_observe_call_events() {
    let recorder = Arc::new(Recorder::default());
    let step = mpisim::Label::intern("STEP");
    WorldBuilder::new(2)
        .tool(recorder.clone())
        .run(move |p| {
            let world = p.world();
            let comm = world.id();
            p.raise(MpiEvent::SectionEnter {
                comm,
                label: step,
                time: p.now(),
            });
            if p.world_rank() == 0 {
                world.send(p, 1, 0, &[1u8, 2, 3]);
            } else {
                let _ = world.recv::<u8>(p, Src::Rank(0), TagSel::Is(0));
            }
            world.barrier(p);
            p.raise(MpiEvent::SectionLeave {
                comm,
                label: step,
                inner: mpisim::Label::MAIN,
                time: p.now(),
            });
        })
        .unwrap();
    let events = recorder.events.lock();
    let of_rank = |r: usize| -> Vec<&str> {
        events
            .iter()
            .filter(|(rank, _)| *rank == r)
            .map(|(_, n)| n.as_str())
            .collect()
    };
    assert_eq!(
        of_rank(0),
        vec![
            "init",
            "sec+:STEP",
            "sent:3",
            "coll+:barrier",
            "coll-:barrier:0",
            "sec-:STEP",
            "finalize"
        ]
    );
    assert_eq!(
        of_rank(1),
        vec![
            "init",
            "sec+:STEP",
            "matched:3",
            "coll+:barrier",
            "coll-:barrier:0",
            "sec-:STEP",
            "finalize"
        ]
    );
}

#[test]
fn event_timestamps_are_monotone_per_rank() {
    struct MonotoneCheck {
        last: Mutex<Vec<VTime>>,
    }
    impl Tool for MonotoneCheck {
        fn on_event(&self, rank: usize, event: &MpiEvent) {
            let mut last = self.last.lock();
            assert!(
                event.time() >= last[rank],
                "rank {rank}: event time went backwards"
            );
            last[rank] = event.time();
        }
    }
    let tool = Arc::new(MonotoneCheck {
        last: Mutex::new(vec![VTime::ZERO; 4]),
    });
    WorldBuilder::new(4)
        .machine(presets::nehalem_cluster())
        .tool(tool)
        .run(|p| {
            let world = p.world();
            for _ in 0..10 {
                p.compute(Work::flops(1e6));
                world.barrier(p);
            }
            let _ = world.allgather(p, vec![p.world_rank()]);
        })
        .unwrap();
}

/// A tool that holds a message's departure needs no table of its own:
/// every `RecvMatched` carries the `time` of its `SendEnqueued`, for named
/// and wildcard receives, `wait` and `sendrecv`, on both engines.
#[test]
fn every_match_carries_the_time_its_message_was_sent() {
    #[derive(Default)]
    struct Departures {
        sent: Mutex<Vec<(u64, VTime)>>,
        matched: Mutex<Vec<(u64, VTime)>>,
    }
    impl Tool for Departures {
        fn on_event(&self, _rank: usize, event: &MpiEvent) {
            match event {
                MpiEvent::SendEnqueued { seq, time, .. } => self.sent.lock().push((*seq, *time)),
                MpiEvent::RecvMatched { seq, sent, .. } => self.matched.lock().push((*seq, *sent)),
                _ => {}
            }
        }
    }
    for engine in [Engine::Des, Engine::Threads] {
        let tool = Arc::new(Departures::default());
        WorldBuilder::new(4)
            .engine(engine)
            .machine(presets::nehalem_cluster())
            .seed(3)
            .tool(tool.clone())
            .run(|p| {
                let world = p.world();
                let (me, n) = (p.world_rank(), p.world_size());
                for step in 0..3 {
                    p.compute(Work::flops(1e6 * (me + step + 1) as f64));
                    let req = world.irecv::<u8>(p, Src::Rank((me + n - 1) % n), TagSel::Is(0));
                    world.send(p, (me + 1) % n, 0, &[me as u8; 8]);
                    let _ = req.wait(p);
                    let _ = world.sendrecv(p, (me + 2) % n, 1, &[0u8; 64], Src::Any, TagSel::Is(1));
                    if me == 0 {
                        for _ in 1..n {
                            let _ = world.recv::<u8>(p, Src::Any, TagSel::Is(2));
                        }
                    } else {
                        world.send(p, 0, 2, &[1u8]);
                    }
                }
            })
            .expect("run");
        let sent: std::collections::HashMap<u64, VTime> =
            tool.sent.lock().iter().copied().collect();
        let matched = tool.matched.lock();
        assert_eq!(
            matched.len(),
            sent.len(),
            "{engine:?}: every message matched"
        );
        for (seq, departed) in matched.iter() {
            assert_eq!(Some(departed), sent.get(seq), "{engine:?}: seq {seq:#x}");
        }
    }
}

/// A typed call and its timing-mode form, at equal logical sizes, are
/// priced and reported alike: fidelity decides only whether data moves.
#[test]
fn typed_and_timing_forms_raise_the_same_events() {
    #[derive(Default)]
    struct Priced {
        events: Mutex<Vec<(usize, String)>>,
    }
    impl Tool for Priced {
        fn on_event(&self, rank: usize, event: &MpiEvent) {
            let line = match event {
                MpiEvent::SendEnqueued { bytes, time, .. } => {
                    format!("sent {bytes} {}", time.as_nanos())
                }
                MpiEvent::RecvMatched {
                    bytes,
                    sent,
                    done,
                    time,
                    ..
                } => format!(
                    "matched {bytes} {} {} {}",
                    sent.as_nanos(),
                    time.as_nanos(),
                    done.as_nanos()
                ),
                MpiEvent::CollectiveExit {
                    op, bytes, time, ..
                } => format!("{op} {bytes} {}", time.as_nanos()),
                _ => return,
            };
            self.events.lock().push((rank, line));
        }
    }
    let run = |typed: bool| {
        let tool = Arc::new(Priced::default());
        WorldBuilder::new(4)
            .machine(presets::nehalem_cluster())
            .seed(3)
            .tool(tool.clone())
            .run(move |p| {
                let world = p.world();
                let (me, n) = (p.world_rank(), p.world_size());
                let (right, left) = ((me + 1) % n, (me + n - 1) % n);
                let counts: Vec<usize> = (0..n).map(|r| 10 * r + 1).collect();
                if typed {
                    let got =
                        world.sendrecv(p, right, 0, &[0.5f64; 100], Src::Rank(left), TagSel::Is(0));
                    assert_eq!(got.data.len(), 100);
                    let chunks = (me == 1).then(|| {
                        counts
                            .iter()
                            .map(|&c| Payload::from_vec(vec![7u32; c]))
                            .collect()
                    });
                    let mine = world.scatterv_payload(p, 1, chunks).into_vec::<u32>();
                    assert_eq!(mine.len(), counts[me]);
                    let _ = world.gatherv(p, 2, vec![0.5f64; 5 * me]);
                } else {
                    let got = world.sendrecv_virtual::<f64>(
                        p,
                        right,
                        0,
                        100,
                        Src::Rank(left),
                        TagSel::Is(0),
                    );
                    assert_eq!(got.elems, 100);
                    let parts = (me == 1).then(|| {
                        counts
                            .iter()
                            .map(|&c| Payload::virtual_elems::<u32>(c))
                            .collect()
                    });
                    assert_eq!(world.scatterv_payload(p, 1, parts).elems(), counts[me]);
                    let _ = world.gatherv_payload(p, 2, Payload::virtual_elems::<f64>(5 * me));
                }
            })
            .expect("run");
        let mut events = std::mem::take(&mut *tool.events.lock());
        // Stable: each rank's events keep their order.
        events.sort_by_key(|&(rank, _)| rank);
        events
    };
    let typed = run(true);
    // Per rank: the sendrecv's send and match, the scatterv's and the
    // gatherv's rendezvous exit.
    assert_eq!(typed.len(), 4 * 4, "{typed:?}");
    assert_eq!(typed, run(false));
}

/// What a rank's body saw as each call that completes receives returned:
/// how many receives the call completed, and the rank's clock after it.
type Returns = Vec<(usize, VTime)>;

/// Every rank's events, and the [`Returns`] of its body, from a program
/// that mixes named and wildcard `recv`, `sendrecv`, `isend`/`irecv`
/// completed by `wait` and `waitall`, and collectives on `split` and `dup`
/// communicators.
fn spine_streams(engine: Engine) -> (Vec<Vec<MpiEvent>>, Vec<Returns>) {
    #[derive(Default)]
    struct Streams(Mutex<Vec<Vec<MpiEvent>>>);
    impl Tool for Streams {
        fn on_event(&self, rank: usize, event: &MpiEvent) {
            let mut streams = self.0.lock();
            if streams.len() <= rank {
                streams.resize_with(rank + 1, Vec::new);
            }
            streams[rank].push(event.clone());
        }
    }
    let tool = Arc::new(Streams::default());
    let report = WorldBuilder::new(6)
        .engine(engine)
        .machine(presets::nehalem_cluster())
        .seed(11)
        .tool(tool.clone())
        .run(|p| {
            let world = p.world();
            let (me, n) = (p.world_rank(), p.world_size());
            let (right, left) = ((me + 1) % n, (me + n - 1) % n);
            let mut returns = Returns::new();
            for step in 0..3 {
                p.compute(Work::flops(1e6 * ((3 * me + step) % 5 + 1) as f64));
                world.send(p, right, 0, &[me as u32; 4]);
                let _ = world.recv::<u32>(p, Src::Rank(left), TagSel::Is(0));
                returns.push((1, p.now()));
                if me == 0 {
                    for _ in 1..n {
                        let _ = world.recv::<u8>(p, Src::Any, TagSel::Is(1));
                        returns.push((1, p.now()));
                    }
                } else {
                    world.send(p, 0, 1, &[me as u8]);
                }
                let _ = world.sendrecv(p, left, 2, &[0.5f64; 8], Src::Any, TagSel::Is(2));
                returns.push((1, p.now()));
                let reqs =
                    [left, right].map(|src| world.irecv::<u16>(p, Src::Rank(src), TagSel::Is(3)));
                let sends = [right, left].map(|dst| world.isend(p, dst, 3, &[me as u16]));
                let _ = mpisim::waitall(p, reqs.into());
                returns.push((2, p.now()));
                sends.into_iter().for_each(|s| s.wait(p));
                let req = world.irecv::<u8>(p, Src::Rank(right), TagSel::Is(4));
                world.send(p, left, 4, &[0u8]);
                let _ = req.wait(p);
                returns.push((1, p.now()));
                let half = world.split(p, Some((me % 2) as i32), -(me as i32)).unwrap();
                let _ = half.allreduce_sum_f64(p, me as f64);
                let dup = half.dup(p);
                let (hr, hn) = (dup.rank(), dup.size());
                let _ = dup.sendrecv(p, (hr + 1) % hn, 5, &[hr as u8], Src::Any, TagSel::Any);
                returns.push((1, p.now()));
                dup.barrier(p);
                let _ = world.allgather(p, vec![me]);
            }
            returns
        })
        .expect("run");
    let streams = std::mem::take(&mut *tool.0.lock());
    assert_eq!(streams.len(), 6);
    (streams, report.results)
}

/// What a section-tracking tool needs of a receive and a collective, the
/// engine's events carry, on both engines: a receive is one event whose
/// `done` is the clock its body reads as the call returns, and no later
/// than the rank's next event; the k-th collective a rank enters on a
/// communicator is the k-th it leaves, both events carry `round` k, and
/// every member leaves round k at one instant.
#[test]
fn a_receive_carries_its_return_and_a_round_is_the_same_on_every_member() {
    use std::collections::BTreeMap;
    for engine in [Engine::Des, Engine::Threads] {
        let (streams, returns) = spine_streams(engine);
        // Per communicator, each member's collective exit times in order.
        let mut exits: BTreeMap<u64, BTreeMap<usize, Vec<VTime>>> = BTreeMap::new();
        let mut receives = 0;
        for (rank, events) in streams.iter().enumerate() {
            let at = |i: usize| events.get(i);
            let mut dones = Vec::new();
            for (i, event) in events.iter().enumerate() {
                match event {
                    MpiEvent::RecvMatched { time, done, .. } => {
                        receives += 1;
                        dones.push(*done);
                        assert!(time <= done, "{engine:?} rank {rank}: {event:?}");
                        match at(i + 1) {
                            Some(next) => assert!(
                                *done <= next.time(),
                                "{engine:?} rank {rank}: {event:?} then {next:?}"
                            ),
                            None => panic!("{engine:?} rank {rank}: no event after {event:?}"),
                        }
                    }
                    MpiEvent::CollectiveEnter {
                        op, comm, round, ..
                    } => match at(i + 1) {
                        Some(MpiEvent::CollectiveExit {
                            op: left,
                            comm: c,
                            round: r,
                            time,
                            ..
                        }) if (left, c, r) == (op, comm, round) => {
                            let mine = exits.entry(comm.0).or_default().entry(rank);
                            let mine = mine.or_default();
                            assert_eq!(*round, mine.len() as u64, "{engine:?} rank {rank}");
                            mine.push(*time);
                        }
                        other => panic!("{engine:?} rank {rank}: {event:?} left as {other:?}"),
                    },
                    _ => {}
                }
            }
            // A call's last receive is done when the call returns.
            let mut dones = dones.into_iter();
            for &(count, returned) in &returns[rank] {
                let done = dones.by_ref().take(count).last();
                assert_eq!(done, Some(returned), "{engine:?} rank {rank}");
            }
            assert_eq!(dones.next(), None, "{engine:?} rank {rank}");
        }
        // 3 steps x (named + sendrecv + 2 waitall + wait + dup sendrecv)
        // on every rank, plus rank 0's 5 wildcard receives per step.
        assert_eq!(receives, 3 * (6 * 6 + 5), "{engine:?}");
        // world, two halves (split twice: once per step) and their dups.
        assert_eq!(exits.len(), 1 + 3 * 4, "{engine:?}: {:?}", exits.keys());
        for (comm, members) in &exits {
            let (first, times) = members.iter().next().unwrap();
            for (rank, mine) in members {
                assert_eq!(
                    mine, times,
                    "{engine:?} comm {comm}: ranks {first} and {rank}"
                );
            }
        }
    }
}

#[test]
fn waitall_collects_in_request_order() {
    let report = WorldBuilder::new(3)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                // Post receives from 2 then 1; send order is 1 then 2.
                let r2 = world.irecv::<u32>(p, Src::Rank(2), TagSel::Is(0));
                let r1 = world.irecv::<u32>(p, Src::Rank(1), TagSel::Is(0));
                let msgs = mpisim::waitall(p, vec![r2, r1]);
                msgs.iter().map(|m| m.data[0]).collect::<Vec<u32>>()
            } else {
                world.send(p, 0, 0, &[p.world_rank() as u32 * 10]);
                Vec::new()
            }
        })
        .unwrap();
    assert_eq!(report.results[0], vec![20, 10]);
}

#[test]
fn concurrent_disjoint_splits_are_deterministic() {
    // Two disjoint sub-communicators each split again, concurrently. The
    // derived comm ids (and hence id-keyed noise streams) must not depend
    // on which rank-0 thread wins the race to the registry.
    let run_once = || {
        WorldBuilder::new(8)
            .machine(presets::nehalem_cluster())
            .seed(99)
            .run(|p| {
                let world = p.world();
                let half = world
                    .split(p, Some((p.world_rank() / 4) as i32), 0)
                    .unwrap();
                let quarter = half.split(p, Some((half.rank() / 2) as i32), 0).unwrap();
                // Exercise id-keyed jitter: collectives on the quarters.
                for _ in 0..5 {
                    quarter.barrier(p);
                    p.compute(Work::flops(1e6));
                }
                (quarter.id().0, p.now())
            })
            .unwrap()
            .results
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "derived comm ids and clocks must be reproducible");
    // Distinct quarters got distinct ids.
    let mut ids: Vec<u64> = a.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 4);
}

#[test]
fn recv_from_out_of_range_rank_fails_fast() {
    let result = WorldBuilder::new(2).run(|p| {
        let world = p.world();
        if p.world_rank() == 0 {
            let _ = world.recv::<u8>(p, Src::Rank(9), TagSel::Any);
        }
    });
    match result {
        Err(mpisim::RunError::RankPanicked { message, .. }) => {
            assert!(message.contains("invalid rank 9"), "{message}");
        }
        other => panic!("expected fast failure, got {other:?}"),
    }
}
