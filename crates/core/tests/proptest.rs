//! Property tests for the section runtime: arbitrary well-nested section
//! programs are accepted, profiled exactly, and their derived metrics obey
//! the Fig. 3 identities; malformed programs are rejected. And for the
//! communication log: whatever order sends reach the recorder in, and
//! whichever never do, every receive is classified against its own send.

use machine::VTime;
use mpi_sections::waitstate::WaitBreakdown;
use mpi_sections::{classify, CommRecorder};
use mpi_sections::{InstanceStats, SectionProfiler, SectionRuntime, VerifyMode};
use mpisim::message::seq_of;
use mpisim::{CommId, MpiEvent, Tool, WorldBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One generator per case, seeded by the case number.
fn cases(n: u64) -> impl Iterator<Item = StdRng> {
    (0..n).map(StdRng::seed_from_u64)
}

/// A random well-nested section program: a sequence of enter/advance/exit
/// operations produced by recursive generation.
#[derive(Debug, Clone)]
enum Op {
    Enter(u8),
    Exit(u8),
    Advance(u32),
}

/// Up to five nesting trees of depth at most 4, flattened in order.
fn balanced_program(rng: &mut StdRng) -> Vec<Op> {
    // A tree is a leaf (an advance) or, below the depth bound and on a
    // coin flip, a section around up to four subtrees.
    fn tree(rng: &mut StdRng, depth: u32, out: &mut Vec<Op>) {
        if depth == 0 || rng.gen() {
            out.push(Op::Advance(rng.gen_range(0..1_000_000)));
            return;
        }
        let label = rng.gen_range(0..6);
        out.push(Op::Enter(label));
        for _ in 0..rng.gen_range(0..5) {
            tree(rng, depth - 1, out);
        }
        out.push(Op::Exit(label));
    }
    let mut out = Vec::new();
    for _ in 0..rng.gen_range(0..6) {
        tree(rng, 4, &mut out);
    }
    out
}

#[test]
fn well_nested_programs_are_accepted_and_balanced() {
    for mut rng in cases(32) {
        let program = balanced_program(&mut rng);
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        sections.attach(profiler.clone());
        let s = sections.clone();
        let prog = Arc::new(program);
        let prog2 = prog.clone();
        let report = WorldBuilder::new(3).tool(sections.clone()).run(move |p| {
            let world = p.world();
            for op in prog2.iter() {
                match op {
                    Op::Enter(l) => s.enter(p, &world, &format!("sec{l}")),
                    Op::Exit(l) => s.exit(p, &world, &format!("sec{l}")),
                    Op::Advance(ns) => p.advance(VTime::from_nanos(*ns as u64)),
                }
            }
            p.now()
        });
        let report = report.unwrap();

        // Every profiled section balances: inclusive >= exclusive >= 0,
        // and for each label, enters == exits == instances * ranks.
        let profile = profiler.snapshot();
        let enters = prog.iter().filter(|op| matches!(op, Op::Enter(_))).count();
        let mut total_instances = 0u64;
        for st in profile.sections() {
            if st.key.label == mpi_sections::MPI_MAIN {
                continue;
            }
            assert!(st.total_own_secs + 1e-12 >= st.total_excl_secs);
            for inst in st.per_instance.iter() {
                assert_eq!(inst.count, 3, "all ranks complete each instance");
                assert!(inst.t_max() >= inst.t_min());
            }
            total_instances += st.instances;
        }
        assert_eq!(total_instances as usize, enters);

        // Exclusive times over all sections (incl. MPI_MAIN) sum to the
        // per-rank total elapsed: time is partitioned, never double
        // counted.
        let excl_sum: f64 = profile.sections().map(|s| s.total_excl_secs).sum();
        let elapsed: f64 = report.results.iter().map(|t| t.as_secs_f64()).sum();
        assert!((excl_sum - elapsed).abs() < 1e-6, "{excl_sum} vs {elapsed}");
    }
}

#[test]
fn mismatched_exit_is_rejected() {
    for mut rng in cases(32) {
        let (a, b): (u8, u8) = (rng.gen_range(0..4), rng.gen_range(4..8));
        let sections = SectionRuntime::new(VerifyMode::Off);
        let s = sections.clone();
        let result = WorldBuilder::new(1).run(move |p| {
            let world = p.world();
            s.enter(p, &world, &format!("sec{a}"));
            s.exit(p, &world, &format!("sec{b}"));
        });
        assert!(result.is_err());
    }
}

#[test]
fn instance_metrics_identities() {
    for mut rng in cases(32) {
        let len = rng.gen_range(1..64);
        let entries: Vec<(u64, u64)> = (0..len)
            .map(|_| (rng.gen_range(0..1 << 40), rng.gen_range(0..1 << 30)))
            .collect();
        // For arbitrary (enter, duration) pairs, the Fig. 3 identities
        // hold: Tmin <= every enter, Tmax >= every exit, span >= mean
        // Tsection >= 0, imb = span - mean(Tsection).
        let mut inst = InstanceStats::default();
        for &(enter, dur) in &entries {
            let t_in = VTime::from_nanos(enter);
            let t_out = t_in + VTime::from_nanos(dur);
            inst.record(t_in, t_out, VTime::from_nanos(dur));
        }
        let t_min = entries.iter().map(|&(e, _)| e).min().unwrap();
        let t_max = entries.iter().map(|&(e, d)| e + d).max().unwrap();
        assert_eq!(inst.t_min().as_nanos(), t_min);
        assert_eq!(inst.t_max().as_nanos(), t_max);
        let span = inst.span().as_secs_f64();
        let mean_section = inst.mean_t_section_secs();
        assert!(mean_section >= 0.0);
        assert!(span + 1e-9 >= mean_section);
        assert!((inst.imbalance_secs() - (span - mean_section)).abs() < 1e-9);
        assert!(inst.mean_entry_imbalance_secs() >= -1e-9);
    }
}

#[test]
fn every_receive_is_classified_against_its_own_send() {
    for mut rng in cases(32) {
        let nranks = rng.gen_range(1..5);
        let recorder = CommRecorder::new();
        for rank in 0..nranks {
            recorder.on_event(
                rank,
                &MpiEvent::Init {
                    size: nranks,
                    time: VTime::ZERO,
                },
            );
        }
        // Up to 39 messages (sender, receiver, send ns, post ns, delivery:
        // odd values reach the recorder, in ascending order). Number each
        // sender's messages densely, as the engine does; senders and
        // receivers may lie beyond the announced world.
        let mut sent = [0u64; 8];
        let msgs: Vec<_> = (0..rng.gen_range(0..40))
            .map(|_| {
                let (src, dst): (usize, usize) = (rng.gen_range(0..8), rng.gen_range(0..8));
                let (send_ns, post_ns) = (rng.gen_range(0..1_000), rng.gen_range(0..1_000));
                let delivery: u16 = rng.gen();
                sent[src] += 1;
                let seq = seq_of(src, sent[src] - 1);
                let order = (delivery % 2 == 1).then_some(delivery);
                (seq, src, dst, send_ns, post_ns, order)
            })
            .collect();
        // Sends reach the recorder in any order, also within one sender.
        let mut delivered: Vec<_> = msgs.iter().filter(|m| m.5.is_some()).collect();
        delivered.sort_by_key(|m| m.5);
        for &&(seq, src, dst, send_ns, ..) in &delivered {
            let time = VTime::from_nanos(send_ns);
            let comm = CommId::WORLD;
            recorder.on_event(
                src,
                &MpiEvent::SendEnqueued {
                    comm,
                    dst_world: dst,
                    tag: 0,
                    seq,
                    bytes: 8,
                    time,
                },
            );
        }
        let mut expect = [WaitBreakdown::default(); 8];
        for &(seq, src, dst, send_ns, post_ns, order) in &msgs {
            let comm = CommId::WORLD;
            let time = VTime::from_nanos(post_ns);
            let done = VTime::from_nanos(post_ns.max(send_ns) + 5);
            recorder.on_event(
                dst,
                &MpiEvent::RecvMatched {
                    comm,
                    src_world: src,
                    tag: 0,
                    seq,
                    bytes: 8,
                    sent: VTime::from_nanos(send_ns),
                    candidates: Vec::new(),
                    done,
                    time,
                },
            );
            // An unrecorded send counts as issued at the post: no wait.
            if order.is_some() {
                expect[dst].late_sender_ns += send_ns.saturating_sub(post_ns);
                expect[dst].late_receiver_ns += post_ns.saturating_sub(send_ns);
            }
        }
        let log = recorder.freeze();
        assert_eq!(log.events(), nranks + delivered.len() + msgs.len());
        let got = classify(&log).per_rank;
        assert_eq!(&got[..], &expect[..got.len()]);
        assert!(expect[got.len()..]
            .iter()
            .all(|w| *w == WaitBreakdown::default()));
    }
}

#[test]
fn verification_accepts_identical_divergence_free_programs() {
    for mut rng in cases(32) {
        let len = rng.gen_range(0..20);
        let labels: Vec<u8> = (0..len).map(|_| rng.gen_range(0..5)).collect();
        let nranks = rng.gen_range(1..6);
        // All ranks perform the same flat label sequence: always valid.
        let sections = SectionRuntime::new(VerifyMode::Active);
        let s = sections.clone();
        let labels = Arc::new(labels);
        let result = WorldBuilder::new(nranks).run(move |p| {
            let world = p.world();
            for l in labels.iter() {
                s.scoped(p, &world, &format!("sec{l}"), |_| {});
            }
        });
        assert!(result.is_ok());
    }
}
