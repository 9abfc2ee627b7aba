//! Two worlds at once in one process: the shape of `study --jobs 2` and
//! of a test binary's parallel threads. Section labels are ids into one
//! process-wide table, numbered in the order the process first met them,
//! so here they are numbered across both worlds. Each world's artifacts
//! must still name only the labels that world entered, and be the same
//! bytes as the world run alone.
//!
//! This file holds one test on purpose: its process meets the labels
//! below in the order the two worlds force, before any lone run.

use mpi_sections::{
    critpath, replay, whatif, CommRecorder, PvarSnapshot, SectionRuntime, SummaryTool, TraceTool,
    VerifyMode,
};
use mpisim::{Label, Proc, Src, TagSel, WorldBuilder};
use std::sync::{Arc, Barrier};
use std::thread;

const A_ONLY: &str = "A_ONLY";
const SHARED: &str = "SHARED";
const B_ONLY: &str = "B_ONLY";
const SEED: u64 = 7;

/// Two hand-offs between the worlds' rank 0s, so that the process meets
/// `SHARED` in world B, then `A_ONLY`, then `B_ONLY`: each world's labels
/// are ids out of the order it entered them, and the ids of the other
/// world's labels fall between its own.
type Gates = Option<Arc<[Barrier; 2]>>;

fn gate(p: &Proc, gates: &Gates, at: usize) {
    if let (Some(gates), 0) = (gates, p.world_rank()) {
        gates[at].wait();
    }
}

/// A section with compute and a ring exchange in it.
fn phase(s: &SectionRuntime, p: &mut Proc, label: &str) {
    let world = p.world();
    s.scoped(p, &world, label, |p| {
        let (me, n) = (p.world_rank(), world.size());
        p.advance_secs(1e-3 * (me + 1) as f64);
        world.send(p, (me + 1) % n, 0, &[me as u64; 8]);
        let _ = world.recv::<u64>(p, Src::Rank((me + n - 1) % n), TagSel::Is(0));
    });
}

/// Every artifact of one world: world A (`a`) enters `A_ONLY` then
/// `SHARED`, world B enters `SHARED` then `B_ONLY`.
fn world(a: bool, gates: Gates) -> Vec<String> {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let (recorder, summary, trace) = (CommRecorder::new(), SummaryTool::new(), TraceTool::new());
    sections.attach(trace.clone());
    let s = sections.clone();
    let machine = machine::presets::nehalem_cluster();
    WorldBuilder::new(4)
        .machine(machine.clone())
        .seed(SEED)
        .tool(sections.clone())
        .tool(recorder.clone())
        .tool(summary.clone())
        .tool(trace.clone())
        .run(move |p| {
            let world = p.world();
            if a {
                gate(p, &gates, 0);
                world.barrier(p);
                phase(&s, p, A_ONLY);
                phase(&s, p, SHARED);
                gate(p, &gates, 1);
            } else {
                phase(&s, p, SHARED);
                gate(p, &gates, 0);
                gate(p, &gates, 1);
                world.barrier(p);
                phase(&s, p, B_ONLY);
            }
        })
        .expect("run failed");
    let log = recorder.freeze();
    let entered = [A_ONLY, SHARED, B_ONLY].map(|label| log.has_section(label));
    let nope = whatif::parse("scale:NOPE=2").expect("spec parses");
    let Err(unknown) = replay(&log, &machine, SEED, &nope) else {
        panic!("a section that was never entered was scaled");
    };
    vec![
        summary.freeze().to_json(),
        PvarSnapshot::from_log(&log).to_json(),
        format!("{entered:?}"),
        format!("{:?}", critpath::extract(&log).per_section),
        unknown,
        trace.to_chrome_trace(),
    ]
}

#[test]
fn two_worlds_at_once_name_only_their_own_labels() {
    let gates: Gates = Some(Arc::new([Barrier::new(2), Barrier::new(2)]));
    let (a, b) = (gates.clone(), gates);
    let a = thread::spawn(move || world(true, a));
    let b = thread::spawn(move || world(false, b));
    let (a, b) = (a.join().unwrap(), b.join().unwrap());

    // The process met the labels in the order the gates force.
    let ids = [SHARED, A_ONLY, B_ONLY].map(|l| Label::intern(l).id());
    assert_eq!(ids, [1, 2, 3]);

    for (artifacts, own, other) in [(&a, A_ONLY, B_ONLY), (&b, B_ONLY, A_ONLY)] {
        for artifact in artifacts {
            assert!(!artifact.contains(other), "{own}: {other} in {artifact}");
        }
        // Summary, pvar, the what-if list and the trace name every label
        // the world entered.
        for at in [0, 1, 4, 5] {
            for label in [own, SHARED, "MPI_MAIN"] {
                assert!(artifacts[at].contains(label), "{label}: {}", artifacts[at]);
            }
        }
    }
    assert_eq!(a[2], "[true, true, false]");
    assert_eq!(b[2], "[false, true, true]");
    // The recorded run's sections, in the order the world entered them.
    assert!(
        a[4].ends_with("(sections: MPI_MAIN, A_ONLY, SHARED)"),
        "{}",
        a[4]
    );
    assert!(
        b[4].ends_with("(sections: MPI_MAIN, SHARED, B_ONLY)"),
        "{}",
        b[4]
    );

    assert_eq!(a, world(true, None), "world A alone");
    assert_eq!(b, world(false, None), "world B alone");
}
