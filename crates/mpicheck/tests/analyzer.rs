//! End-to-end analyzer tests: each diagnostic class seeded through the
//! real runtime, plus the non-intrusiveness property (clean programs are
//! byte-identical with and without the analyzer attached).

use mpicheck::Analyzer;
use mpisim::diag::DiagnosticKind;
use mpisim::{RunReport, Severity, Src, TagSel, WorldBuilder};
use std::sync::Arc;

// ----------------------------------------------------------------------
// Deadlock
// ----------------------------------------------------------------------

#[test]
fn recv_recv_cross_wait_is_diagnosed() {
    let err = WorldBuilder::new(2)
        .tool(Analyzer::new())
        .run(|p| {
            let world = p.world();
            let peer = 1 - p.world_rank();
            // Both ranks receive before sending: classic cross-wait.
            let _ = world.recv::<u32>(p, Src::Rank(peer), TagSel::Is(0));
            world.send(p, peer, 0, &[1u32]);
        })
        .unwrap_err();
    let diags = err.diagnostics();
    assert_eq!(diags.len(), 1, "{err}");
    let d = &diags[0];
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.ranks, vec![0, 1]);
    match &d.kind {
        DiagnosticKind::Deadlock { cycle } => {
            assert_eq!(cycle.len(), 2, "{err}");
            assert!(cycle.iter().all(|s| s.call == "MPI_Recv"), "{err}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn rank_skipping_a_barrier_is_diagnosed() {
    let err = WorldBuilder::new(3)
        .tool(Analyzer::new())
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 2 {
                // Skips the barrier and waits on rank 0 instead — but rank
                // 0 cannot send until the barrier completes, which needs
                // rank 2. A knot.
                let _ = world.recv::<u32>(p, Src::Rank(0), TagSel::Any);
            } else {
                world.barrier(p);
                world.send(p, 2, 0, &[7u32]);
            }
        })
        .unwrap_err();
    let diags = err.diagnostics();
    assert_eq!(diags.len(), 1, "{err}");
    let d = &diags[0];
    assert!(matches!(d.kind, DiagnosticKind::Deadlock { .. }), "{err}");
    // The barrier waiter and the skipping receiver are both in the knot.
    assert!(d.ranks.contains(&0), "{err}");
    assert!(d.ranks.contains(&2), "{err}");
    match &d.kind {
        DiagnosticKind::Deadlock { cycle } => {
            assert!(
                cycle.iter().any(|s| s.call == "barrier"),
                "cycle should name the barrier site: {err}"
            );
            assert!(
                cycle.iter().any(|s| s.call == "MPI_Recv"),
                "cycle should name the blocked receive: {err}"
            );
        }
        _ => unreachable!(),
    }
}

#[test]
fn receive_from_finalized_rank_aborts_instead_of_hanging() {
    let err = WorldBuilder::new(2)
        .tool(Analyzer::new())
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 1 {
                // Rank 0 exits immediately; without the analyzer this
                // receive would hang the whole run.
                let _ = world.recv::<u32>(p, Src::Rank(0), TagSel::Any);
            }
        })
        .unwrap_err();
    let diags = err.diagnostics();
    assert_eq!(diags.len(), 1, "{err}");
    assert_eq!(diags[0].ranks, vec![1]);
    assert!(
        matches!(diags[0].kind, DiagnosticKind::Deadlock { .. }),
        "{err}"
    );
}

// ----------------------------------------------------------------------
// Collective divergence
// ----------------------------------------------------------------------

#[test]
fn mismatched_collective_kinds_are_diagnosed() {
    let err = WorldBuilder::new(2)
        .tool(Analyzer::new())
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                world.barrier(p);
            } else {
                let _ = world.allreduce_sum_f64(p, 1.0);
            }
        })
        .unwrap_err();
    let diags = err.diagnostics();
    assert_eq!(diags.len(), 1, "{err}");
    match &diags[0].kind {
        DiagnosticKind::CollectiveDivergence {
            position,
            expected,
            observed,
        } => {
            assert_eq!(*position, 0);
            let mut ops = [expected.as_str(), observed.as_str()];
            ops.sort_unstable();
            assert_eq!(ops, ["allreduce", "barrier"], "{err}");
        }
        other => panic!("expected CollectiveDivergence, got {other:?}"),
    }
}

#[test]
fn mismatched_roots_are_diagnosed() {
    // Same collective kind, different roots: invisible to the rendezvous
    // backstop (the op labels agree), caught only by the analyzer.
    let err = WorldBuilder::new(2)
        .tool(Analyzer::new())
        .run(|p| {
            let world = p.world();
            let root = p.world_rank(); // each rank thinks IT is the root
            let data = Some(vec![root as u64]);
            let _ = world.bcast(p, root, data);
        })
        .unwrap_err();
    let diags = err.diagnostics();
    assert_eq!(diags.len(), 1, "{err}");
    match &diags[0].kind {
        DiagnosticKind::CollectiveDivergence {
            expected, observed, ..
        } => {
            let mut roots = [expected.as_str(), observed.as_str()];
            roots.sort_unstable();
            assert_eq!(roots, ["bcast(root=0)", "bcast(root=1)"], "{err}");
        }
        other => panic!("expected CollectiveDivergence, got {other:?}"),
    }
}

// ----------------------------------------------------------------------
// The engine's diagnoses, watched
// ----------------------------------------------------------------------

/// The engine's own misuse programs, each with its expectations spelled
/// out in `crates/mpisim/tests/errors.rs`.
#[path = "../../mpisim/tests/misuse/mod.rs"]
mod misuse;

/// A deadlock or a divergent collective is the engine's finding: attaching
/// the analyzer neither changes the report nor adds a second one, on either
/// engine.
#[test]
fn the_analyzer_neither_changes_nor_duplicates_the_engines_diagnosis() {
    for (name, nranks, program) in misuse::ALL {
        let alone = misuse::diagnose(nranks, program, Vec::new);
        let watched = misuse::diagnose(nranks, program, || vec![Analyzer::new() as _]);
        assert_eq!(alone, watched, "{name}");
    }
}

// ----------------------------------------------------------------------
// Wildcard message race
// ----------------------------------------------------------------------

#[test]
fn wildcard_receive_race_is_reported_as_warning() {
    let analyzer = Analyzer::new();
    let report = WorldBuilder::new(3)
        .tool(analyzer.clone())
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                world.barrier(p);
                // Both messages are in flight by now: the wildcard match
                // order is a coin flip on a real MPI.
                let a = world.recv::<u32>(p, Src::Any, TagSel::Is(7));
                let b = world.recv::<u32>(p, Src::Any, TagSel::Is(7));
                a.data[0] + b.data[0]
            } else {
                world.send(p, 0, 7, &[p.world_rank() as u32]);
                world.barrier(p);
                0
            }
        })
        .unwrap();
    // The run completes (a race is a hazard, not a fault) ...
    assert_eq!(report.results[0], 3);
    // ... but the analyzer flagged it.
    let warnings = analyzer.diagnostics();
    assert_eq!(warnings.len(), 1, "one race, reported once");
    let d = &warnings[0];
    assert_eq!(d.severity, Severity::Warn);
    match &d.kind {
        DiagnosticKind::MessageRace {
            receiver,
            candidates,
        } => {
            assert_eq!(*receiver, 0);
            assert_eq!(candidates.as_slice(), &[(1, 7), (2, 7)]);
        }
        other => panic!("expected MessageRace, got {other:?}"),
    }
}

#[test]
fn single_candidate_wildcard_is_not_a_race() {
    let analyzer = Analyzer::new();
    WorldBuilder::new(2)
        .tool(analyzer.clone())
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                let _ = world.recv::<u32>(p, Src::Any, TagSel::Any);
            } else {
                world.send(p, 0, 1, &[9u32]);
            }
        })
        .unwrap();
    assert!(analyzer.diagnostics().is_empty());
}

#[test]
fn distinct_tags_from_one_sender_are_not_a_race() {
    // Non-overtaking order is deterministic for a single (source, comm)
    // pair, so two in-flight messages from the same sender are fine.
    let analyzer = Analyzer::new();
    WorldBuilder::new(2)
        .tool(analyzer.clone())
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                world.barrier(p);
                let _ = world.recv::<u32>(p, Src::Any, TagSel::Any);
                let _ = world.recv::<u32>(p, Src::Any, TagSel::Any);
            } else {
                world.send(p, 0, 1, &[1u32]);
                world.send(p, 0, 2, &[2u32]);
                world.barrier(p);
            }
        })
        .unwrap();
    assert!(analyzer.diagnostics().is_empty());
}

// ----------------------------------------------------------------------
// Section misuse surfaces through the same channel
// ----------------------------------------------------------------------

#[test]
fn section_misuse_is_diagnosed_alongside_the_analyzer() {
    use mpi_sections::{SectionRuntime, VerifyMode};
    let sections = SectionRuntime::new(VerifyMode::Active);
    let s = sections.clone();
    let err = WorldBuilder::new(1)
        .tool(sections)
        .tool(Analyzer::new())
        .run(move |p| {
            let world = p.world();
            s.enter(p, &world, "outer");
            s.enter(p, &world, "inner");
            s.exit(p, &world, "outer"); // imperfect nesting
        })
        .unwrap_err();
    let diags = err.diagnostics();
    assert_eq!(diags.len(), 1, "{err}");
    assert!(
        matches!(diags[0].kind, DiagnosticKind::SectionMisuse { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("imperfect nesting"), "{err}");
}

// ----------------------------------------------------------------------
// Non-intrusiveness
// ----------------------------------------------------------------------

/// One step of a deterministic, analyzer-clean SPMD program.
#[derive(Clone, Debug)]
enum Op {
    Compute(u8),
    Barrier,
    Allreduce,
    Bcast(u8),
    Ring(u8),
}

fn run_program(
    nranks: usize,
    seed: u64,
    ops: &[Op],
    analyzer: Option<Arc<Analyzer>>,
) -> RunReport<f64> {
    let mut builder = WorldBuilder::new(nranks).seed(seed);
    if let Some(a) = analyzer {
        builder = builder.tool(a);
    }
    let ops = ops.to_vec();
    builder
        .run(move |p| {
            let world = p.world();
            let mut acc = 0.0f64;
            for op in &ops {
                match op {
                    Op::Compute(us) => p.advance_secs(f64::from(*us) * 1e-6),
                    Op::Barrier => world.barrier(p),
                    Op::Allreduce => {
                        acc += world.allreduce_sum_f64(p, p.world_rank() as f64 + 1.0);
                    }
                    Op::Bcast(root) => {
                        let root = *root as usize % world.size();
                        let data = (world.rank() == root).then(|| vec![acc + 1.0]);
                        acc += world.bcast(p, root, data)[0];
                    }
                    Op::Ring(tag) => {
                        let n = world.size();
                        let dest = (world.rank() + 1) % n;
                        let src = (world.rank() + n - 1) % n;
                        let tag = i32::from(*tag);
                        let got = world.sendrecv(
                            p,
                            dest,
                            tag,
                            &[acc + 1.0],
                            Src::Rank(src),
                            TagSel::Is(tag),
                        );
                        acc += got.data[0];
                    }
                }
            }
            acc
        })
        .map_err(|e| format!("clean program must not fail: {e}"))
        .unwrap()
}

fn assert_untouched(nranks: usize, seed: u64, ops: &[Op]) {
    let plain = run_program(nranks, seed, ops, None);
    let analyzer = Analyzer::new();
    let checked = run_program(nranks, seed, ops, Some(analyzer.clone()));
    assert!(analyzer.diagnostics().is_empty(), "clean program flagged");
    assert_eq!(plain.results, checked.results);
    assert_eq!(plain.final_times, checked.final_times);
    assert_eq!(plain.makespan, checked.makespan);
}

#[test]
fn analyzer_does_not_perturb_a_mixed_program() {
    let ops = [
        Op::Compute(13),
        Op::Ring(3),
        Op::Barrier,
        Op::Bcast(1),
        Op::Allreduce,
        Op::Ring(5),
        Op::Compute(40),
        Op::Allreduce,
    ];
    assert_untouched(4, 42, &ops);
}

mod properties {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One of the five operations, uniformly, with its operand.
    fn op(rng: &mut StdRng) -> Op {
        match rng.gen_range(0..5) {
            0 => Op::Compute(rng.gen_range(0..50)),
            1 => Op::Barrier,
            2 => Op::Allreduce,
            3 => Op::Bcast(rng.gen_range(0..8)),
            _ => Op::Ring(rng.gen_range(0..10)),
        }
    }

    #[test]
    fn random_clean_programs_are_untouched() {
        for case in 0..24 {
            let mut rng = StdRng::seed_from_u64(case);
            let len = rng.gen_range(1..10);
            let ops: Vec<Op> = (0..len).map(|_| op(&mut rng)).collect();
            assert_untouched(rng.gen_range(2..5), rng.gen(), &ops);
        }
    }
}
