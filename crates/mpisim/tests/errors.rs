//! Misuse and failure-path tests: the runtime must fail loudly (like
//! `MPI_ERRORS_ARE_FATAL`) and never deadlock the world.

use mpisim::{Engine, RunError, Src, TagSel, WorldBuilder};

fn expect_panic_containing<F>(nranks: usize, fragment: &str, f: F)
where
    F: Fn(&mut mpisim::Proc) + Send + Sync,
{
    match WorldBuilder::new(nranks).run(f) {
        Err(RunError::RankPanicked { message, .. }) => {
            assert!(
                message.contains(fragment),
                "expected '{fragment}' in '{message}'"
            );
        }
        other => panic!("expected failure containing '{fragment}', got {other:?}"),
    }
}

#[test]
fn send_to_invalid_rank() {
    expect_panic_containing(2, "invalid rank", |p| {
        let world = p.world();
        world.send(p, 7, 0, &[1u8]);
    });
}

#[test]
fn receive_datatype_mismatch() {
    expect_panic_containing(2, "datatype mismatch", |p| {
        let world = p.world();
        if p.world_rank() == 0 {
            world.send(p, 1, 0, &[1u32]);
        } else {
            let _ = world.recv::<f64>(p, Src::Rank(0), TagSel::Is(0));
        }
    });
}

#[test]
fn scatter_with_indivisible_length() {
    expect_panic_containing(3, "not divisible", |p| {
        let world = p.world();
        let data = (p.world_rank() == 0).then(|| vec![1u8; 7]);
        let _ = world.scatter(p, 0, data);
    });
}

#[test]
fn scatterv_with_wrong_chunk_count() {
    expect_panic_containing(3, "one chunk per rank", |p| {
        let world = p.world();
        let chunks = (p.world_rank() == 0).then(|| vec![vec![1u8]; 2]); // 2 != 3
        let _ = world.scatterv(p, 0, chunks);
    });
}

#[test]
fn bcast_root_out_of_range() {
    expect_panic_containing(2, "root out of range", |p| {
        let world = p.world();
        let _ = world.bcast(p, 5, (p.world_rank() == 0).then(|| vec![1u8]));
    });
}

#[test]
fn bcast_data_on_non_root() {
    expect_panic_containing(2, "exactly on the root", |p| {
        let world = p.world();
        // Everyone passes Some: wrong.
        let _ = world.bcast(p, 0, Some(vec![1u8]));
    });
}

#[test]
fn mismatched_collectives_across_ranks() {
    expect_panic_containing(2, "collective mismatch", |p| {
        let world = p.world();
        if p.world_rank() == 0 {
            world.barrier(p);
        } else {
            let _ = world.allreduce_sum_f64(p, 1.0);
        }
    });
}

#[test]
fn reduce_length_mismatch() {
    expect_panic_containing(2, "different lengths", |p| {
        let world = p.world();
        let data = vec![1i64; 1 + p.world_rank()];
        let _ = world.reduce(p, 0, data, |a, b| a + b);
    });
}

#[test]
fn alltoall_wrong_chunk_count() {
    expect_panic_containing(3, "one chunk per rank", |p| {
        let world = p.world();
        let _ = world.alltoall(p, vec![vec![0u8]; 2]);
    });
}

#[test]
fn reduce_scatter_indivisible() {
    expect_panic_containing(3, "not divisible", |p| {
        let world = p.world();
        let _ = world.reduce_scatter_block(p, vec![0i64; 7], |a, b| a + b);
    });
}

#[test]
fn blocked_peers_unwind_when_a_rank_fails_mid_collective() {
    // Rank 1 dies while 0 and 2 sit in a barrier; the run must return
    // (not hang) and report rank 1.
    let result = WorldBuilder::new(3).run(|p| {
        if p.world_rank() == 1 {
            panic!("casualty");
        }
        let world = p.world();
        world.barrier(p);
    });
    match result {
        Err(RunError::RankPanicked { rank, message }) => {
            assert_eq!(rank, 1);
            assert!(message.contains("casualty"));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

#[test]
fn blocked_receiver_unwinds_when_sender_fails() {
    let result = WorldBuilder::new(2).run(|p| {
        let world = p.world();
        if p.world_rank() == 0 {
            panic!("sender died before sending");
        }
        let _ = world.recv::<u8>(p, Src::Rank(0), TagSel::Any);
    });
    assert!(matches!(
        result,
        Err(RunError::RankPanicked { rank: 0, .. })
    ));
}

/// Every rank waits for a message nobody sends. Both engines run the one
/// scheduler that sees the ready queue drain with live ranks left, so the
/// run comes back with a diagnosis instead of hanging.
#[test]
fn a_receive_cycle_is_reported_as_a_deadlock_on_both_engines() {
    for engine in [Engine::Des, Engine::Threads] {
        let result = WorldBuilder::new(3).engine(engine).run(|p| {
            let world = p.world();
            let from = (p.world_rank() + 1) % 3;
            let got = world.recv::<u8>(p, Src::Rank(from), TagSel::Any);
            world.send(p, from, 0, &got.data);
        });
        match result {
            Err(RunError::RankPanicked { message, .. }) => assert!(
                message.starts_with("deadlock: all 3 live ranks blocked"),
                "{engine:?}: {message}"
            ),
            other => panic!("{engine:?}: expected a deadlock report, got {other:?}"),
        }
    }
}

/// A rank that has finished is not live: the two left waiting on each
/// other are counted, and the first of them named.
#[test]
fn a_deadlock_counts_only_the_ranks_still_blocked() {
    for engine in [Engine::Des, Engine::Threads] {
        let result = WorldBuilder::new(3).engine(engine).run(|p| {
            let world = p.world();
            if p.world_rank() > 0 {
                let peer = 3 - p.world_rank();
                let _ = world.recv::<u8>(p, Src::Rank(peer), TagSel::Any);
            }
        });
        assert_eq!(
            result.unwrap_err(),
            RunError::RankPanicked {
                rank: 1,
                message: "deadlock: all 2 live ranks blocked with nothing in flight \
                          (first blocked rank: 1)"
                    .into()
            },
            "{engine:?}"
        );
    }
}

#[test]
fn probe_does_not_consume() {
    let report = WorldBuilder::new(2)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                world.send(p, 1, 9, &[42u8]);
                0
            } else {
                // Spin (bounded) until the probe sees it.
                let mut probes = 0;
                while !world.probe(p, Src::Rank(0), TagSel::Is(9)) {
                    probes += 1;
                    assert!(probes < 1_000_000, "message never arrived");
                    std::thread::yield_now();
                }
                // Probing twice still true; receiving consumes it.
                assert!(world.probe(p, Src::Rank(0), TagSel::Is(9)));
                let msg = world.recv::<u8>(p, Src::Rank(0), TagSel::Is(9));
                assert!(!world.probe(p, Src::Rank(0), TagSel::Is(9)));
                msg.data[0] as usize
            }
        })
        .unwrap();
    assert_eq!(report.results[1], 42);
}

#[test]
fn split_color_none_excludes_only_those_ranks() {
    let report = WorldBuilder::new(5)
        .run(|p| {
            let world = p.world();
            let color = (p.world_rank() != 2).then_some(0);
            world.split(p, color, 0).map(|c| (c.size(), c.rank()))
        })
        .unwrap();
    assert_eq!(report.results[2], None);
    assert_eq!(report.results[0], Some((4, 0)));
    assert_eq!(report.results[4], Some((4, 3)));
}

#[test]
fn nested_splits_work() {
    // Split the world, then split the sub-communicator again.
    let report = WorldBuilder::new(8)
        .run(|p| {
            let world = p.world();
            let half = world
                .split(p, Some((p.world_rank() / 4) as i32), 0)
                .unwrap();
            let quarter = half.split(p, Some((half.rank() / 2) as i32), 0).unwrap();
            let sum = quarter.allreduce(p, vec![p.world_rank() as u64], |a, b| a + b)[0];
            (quarter.size(), sum)
        })
        .unwrap();
    // Quarters: {0,1} {2,3} {4,5} {6,7}.
    assert_eq!(report.results[0], (2, 1));
    assert_eq!(report.results[3], (2, 5));
    assert_eq!(report.results[6], (2, 13));
}
