//! Misuse and failure-path tests: the runtime must fail loudly (like
//! `MPI_ERRORS_ARE_FATAL`) and never deadlock the world. What the engine
//! can prove — a deadlock, a divergent collective — it reports as one
//! structured diagnostic, the same on both engines, with no tool attached.

mod misuse;

use mpisim::{
    BlockedSite, Diagnostic, DiagnosticKind, Engine, Payload, RunError, Src, TagSel, WorldBuilder,
};

/// The engine's own diagnosis of `program`: no tool attached.
fn diagnose(nranks: usize, program: misuse::Program) -> Diagnostic {
    misuse::diagnose(nranks, program, Vec::new)
}

/// The stuck ranks and the text of each one's site, in report order.
fn deadlock_sites(d: &Diagnostic) -> (Vec<usize>, Vec<String>) {
    assert_eq!((d.severity, d.comm), (mpisim::Severity::Error, None), "{d}");
    let DiagnosticKind::Deadlock { cycle } = &d.kind else {
        panic!("expected a deadlock, got {d:?}");
    };
    let ranks: Vec<usize> = cycle.iter().map(|site| site.rank).collect();
    assert_eq!(ranks, d.ranks, "one site per stuck rank, in rank order");
    (ranks, cycle.iter().map(BlockedSite::to_string).collect())
}

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
        // 2 != 3
        let chunks =
            (p.world_rank() == 0).then(|| (0..2).map(|_| Payload::from_vec(vec![1u8])).collect());
        let _ = world.scatterv_payload(p, 0, chunks);
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

/// Unordered entry: whichever rank the engine runs first defines position
/// 0, so the two engines name the operations the other way round.
#[test]
fn mismatched_collectives_across_ranks() {
    for (engine, first) in [(Engine::Des, 0), (Engine::Threads, 1)] {
        let failed = WorldBuilder::new(2).engine(engine).run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                world.barrier(p);
            } else {
                let _ = world.allreduce_sum_f64(p, 1.0);
            }
        });
        let Err(RunError::Diagnosed(diags)) = failed else {
            panic!("{engine:?}: expected a diagnosis, got {failed:?}");
        };
        let ops = ["barrier", "allreduce"];
        assert_eq!(diags.len(), 1, "{engine:?}");
        assert_eq!(diags[0].ranks, [1 - first], "{engine:?}");
        assert_eq!(
            diags[0].kind,
            DiagnosticKind::CollectiveDivergence {
                position: 0,
                expected: ops[first].into(),
                observed: ops[1 - first].into(),
            },
            "{engine:?}"
        );
    }
}

/// On a sub-communicator, after one agreed collective: position 1, the
/// communicator named, the first member's operation expected — and a root
/// is part of the operation.
#[test]
fn a_divergent_collective_names_position_communicator_and_both_operations() {
    let sub = misuse::even_sub_id();
    for (program, expected, observed) in [
        (
            misuse::sub_bcast_roots as misuse::Program,
            "bcast(root=0)",
            "bcast(root=1)",
        ),
        (misuse::sub_barrier_vs_allreduce, "barrier", "allreduce"),
    ] {
        let d = diagnose(4, program);
        assert_eq!((d.ranks.as_slice(), d.comm), (&[2][..], Some(sub)), "{d}");
        assert_eq!(
            d.kind,
            DiagnosticKind::CollectiveDivergence {
                position: 1,
                expected: expected.into(),
                observed: observed.into(),
            }
        );
        assert!(
            d.message.contains(&format!("rank 2 performed {observed}")),
            "{d}"
        );
    }
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
    let d = diagnose(3, misuse::receive_cycle);
    assert_eq!(
        d.message,
        "deadlock: ranks 0, 1, 2 cannot make progress (wait-for cycle)"
    );
    let (ranks, sites) = deadlock_sites(&d);
    assert_eq!(ranks, [0, 1, 2]);
    for (rank, site) in sites.iter().enumerate() {
        let from = (rank + 1) % 3;
        assert_eq!(
            *site,
            format!(
                "rank {rank} blocked in MPI_Recv waiting for a message from rank {from} \
                 on communicator 0"
            )
        );
    }
}

/// A rank that has finished is not live: only the two left waiting on each
/// other are reported.
#[test]
fn a_deadlock_counts_only_the_ranks_still_blocked() {
    let d = diagnose(3, misuse::survivors_cross_wait);
    assert_eq!(
        d.message,
        "deadlock: ranks 1, 2 cannot make progress (wait-for cycle)"
    );
    assert_eq!(deadlock_sites(&d).0, [1, 2]);
}

/// README's example, to the byte.
#[test]
fn a_cross_wait_prints_the_documented_report() {
    let d = diagnose(2, misuse::cross_wait);
    assert_eq!(
        RunError::Diagnosed(vec![d]).to_string(),
        "run aborted with 1 diagnostic:\n\
         1. [ERROR] deadlock: deadlock: ranks 0, 1 cannot make progress (wait-for cycle)\n     \
         rank 0 blocked in MPI_Recv waiting for a message from rank 1 with tag 0 on communicator 0\n     \
         rank 1 blocked in MPI_Recv waiting for a message from rank 0 with tag 0 on communicator 0"
    );
}

/// The collective's site names its own communicator and exactly the
/// members that never entered; the communicator that completed its barrier
/// is not in the report.
#[test]
fn a_skipped_barrier_of_a_sub_communicator_names_it_and_the_missing_member() {
    let sub = misuse::even_sub_id().0;
    let (ranks, sites) = deadlock_sites(&diagnose(6, misuse::skipped_sub_barrier));
    assert_eq!(ranks, [0, 2, 4]);
    let in_barrier = format!("waiting for rank 2 to enter the collective on communicator {sub}");
    assert_eq!(
        sites,
        [
            format!("rank 0 blocked in barrier {in_barrier}"),
            "rank 2 blocked in MPI_Recv waiting for a message from rank 0 on communicator 0".into(),
            format!("rank 4 blocked in barrier {in_barrier}"),
        ]
    );
}

#[test]
fn a_receive_from_a_finalized_rank_says_so() {
    let (ranks, sites) = deadlock_sites(&diagnose(2, misuse::receive_from_finalized));
    assert_eq!(ranks, [1]);
    assert_eq!(
        sites,
        [
            "rank 1 blocked in MPI_Recv waiting for a message from rank 0 (already finalized) \
          on communicator 0"
        ]
    );
}

/// A message is queued for the receiver, but not one it asked for.
#[test]
fn a_stuck_wildcard_receive_is_a_deadlock_of_one() {
    let d = diagnose(3, misuse::stuck_wildcard);
    assert_eq!(
        d.message,
        "deadlock: rank 0 cannot make progress (wait-for cycle)"
    );
    assert_eq!(
        deadlock_sites(&d).1,
        [
            "rank 0 blocked in MPI_Recv waiting for a message from any source with tag 3 \
          on communicator 0"
        ]
    );
}

/// Ranks 1 and 2 are in a knot when rank 0 dies: the panic is the root
/// cause and is reported as itself, not as their deadlock.
#[test]
fn a_panic_beside_blocked_ranks_is_still_the_panic() {
    for engine in [Engine::Des, Engine::Threads] {
        let failed = WorldBuilder::new(3).engine(engine).run(|p| {
            if p.world_rank() == 0 {
                p.advance_secs(1.0);
                panic!("casualty");
            }
            misuse::survivors_cross_wait(p);
        });
        assert_eq!(
            failed.unwrap_err(),
            RunError::RankPanicked {
                rank: 0,
                message: "casualty".into()
            },
            "{engine:?}"
        );
    }
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
