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
use proptest::prelude::*;
use std::sync::Arc;

/// A random well-nested section program: a sequence of enter/advance/exit
/// operations produced by recursive generation.
#[derive(Debug, Clone)]
enum Op {
    Enter(u8),
    Exit(u8),
    Advance(u32),
}

fn balanced_program() -> impl Strategy<Value = Vec<Op>> {
    // Generate a nesting skeleton as a tree, then flatten.
    #[derive(Debug, Clone)]
    enum Node {
        Leaf(u32),
        Section(u8, Vec<Node>),
    }
    let leaf = (0u32..1_000_000).prop_map(Node::Leaf);
    let tree = leaf.prop_recursive(4, 32, 5, |inner| {
        (0u8..6, prop::collection::vec(inner, 0..5))
            .prop_map(|(label, children)| Node::Section(label, children))
    });
    fn flatten(node: &Node, out: &mut Vec<Op>) {
        match node {
            Node::Leaf(cost) => out.push(Op::Advance(*cost)),
            Node::Section(label, children) => {
                out.push(Op::Enter(*label));
                for c in children {
                    flatten(c, out);
                }
                out.push(Op::Exit(*label));
            }
        }
    }
    prop::collection::vec(tree, 0..6).prop_map(|roots| {
        let mut out = Vec::new();
        for r in &roots {
            flatten(r, &mut out);
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn well_nested_programs_are_accepted_and_balanced(program in balanced_program()) {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        sections.attach(profiler.clone());
        let s = sections.clone();
        let prog = Arc::new(program);
        let prog2 = prog.clone();
        let report = WorldBuilder::new(3)
            .tool(sections.clone())
            .run(move |p| {
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
            prop_assert!(st.total_own_secs + 1e-12 >= st.total_excl_secs);
            for inst in st.per_instance.iter() {
                prop_assert_eq!(inst.count, 3, "all ranks complete each instance");
                prop_assert!(inst.t_max() >= inst.t_min());
            }
            total_instances += st.instances;
        }
        prop_assert_eq!(total_instances as usize, enters);

        // Exclusive times over all sections (incl. MPI_MAIN) sum to the
        // per-rank total elapsed: time is partitioned, never double
        // counted.
        let excl_sum: f64 = profile.sections().map(|s| s.total_excl_secs).sum();
        let elapsed: f64 = report.results.iter().map(|t| t.as_secs_f64()).sum();
        prop_assert!((excl_sum - elapsed).abs() < 1e-6, "{excl_sum} vs {elapsed}");
    }

    #[test]
    fn mismatched_exit_is_rejected(a in 0u8..4, b in 4u8..8) {
        let sections = SectionRuntime::new(VerifyMode::Off);
        let s = sections.clone();
        let result = WorldBuilder::new(1).run(move |p| {
            let world = p.world();
            s.enter(p, &world, &format!("sec{a}"));
            s.exit(p, &world, &format!("sec{b}"));
        });
        prop_assert!(result.is_err());
    }

    #[test]
    fn instance_metrics_identities(
        entries in prop::collection::vec((0u64..1 << 40, 0u64..1 << 30), 1..64),
    ) {
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
        prop_assert_eq!(inst.t_min().as_nanos(), t_min);
        prop_assert_eq!(inst.t_max().as_nanos(), t_max);
        let span = inst.span().as_secs_f64();
        let mean_section = inst.mean_t_section_secs();
        prop_assert!(mean_section >= 0.0);
        prop_assert!(span + 1e-9 >= mean_section);
        prop_assert!((inst.imbalance_secs() - (span - mean_section)).abs() < 1e-9);
        prop_assert!(inst.mean_entry_imbalance_secs() >= -1e-9);
    }

    #[test]
    fn every_receive_is_classified_against_its_own_send(
        nranks in 1usize..5,
        // (sender, receiver, send ns, post ns, delivery: odd values reach
        // the recorder, in ascending order)
        msgs in prop::collection::vec(
            (0usize..8, 0usize..8, 0u64..1_000, 0u64..1_000, any::<u16>()),
            0..40,
        ),
    ) {
        let recorder = CommRecorder::new();
        for rank in 0..nranks {
            recorder.on_event(rank, &MpiEvent::Init { size: nranks, time: VTime::ZERO });
        }
        // Number each sender's messages densely, as the engine does;
        // senders and receivers may lie beyond the announced world.
        let mut sent = [0u64; 8];
        let msgs: Vec<_> = msgs
            .into_iter()
            .map(|(src, dst, send_ns, post_ns, delivery)| {
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
            recorder.on_event(src, &MpiEvent::SendEnqueued {
                comm, dst_local: dst, dst_world: dst, tag: 0, seq, bytes: 8, time,
            });
        }
        let mut expect = [WaitBreakdown::default(); 8];
        for &(seq, src, dst, send_ns, post_ns, order) in &msgs {
            let comm = CommId::WORLD;
            let time = VTime::from_nanos(post_ns);
            let done = VTime::from_nanos(post_ns.max(send_ns) + 5);
            recorder.on_event(dst, &MpiEvent::RecvMatched {
                comm, src_world: src, tag: 0, seq, bytes: 8,
                sent: VTime::from_nanos(send_ns), candidates: Vec::new(), done, time,
            });
            // An unrecorded send counts as issued at the post: no wait.
            if order.is_some() {
                expect[dst].late_sender_ns += send_ns.saturating_sub(post_ns);
                expect[dst].late_receiver_ns += post_ns.saturating_sub(send_ns);
            }
        }
        let log = recorder.freeze();
        prop_assert_eq!(log.events(), nranks + delivered.len() + msgs.len());
        let got = classify(&log).per_rank;
        prop_assert_eq!(&got[..], &expect[..got.len()]);
        prop_assert!(expect[got.len()..].iter().all(|w| *w == WaitBreakdown::default()));
    }

    #[test]
    fn verification_accepts_identical_divergence_free_programs(
        labels in prop::collection::vec(0u8..5, 0..20),
        nranks in 1usize..6,
    ) {
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
        prop_assert!(result.is_ok());
    }
}
