//! Misuse diagnosed: run three deliberately broken MPI programs and one
//! racy-but-live one, and print the structured diagnostics they produce
//! instead of opaque hangs or panics. The engine itself proves the deadlock
//! and the divergent collective — the same report comes back with and
//! without the mpicheck analyzer attached — the section runtime reports
//! the misnesting, and the analyzer adds the one heuristic finding, the
//! wildcard-receive race.
//!
//! ```text
//! cargo run --release --example check_misuse
//! ```

use mpicheck::Analyzer;
use mpisim::{diag, Proc, RunError, Src, TagSel, WorldBuilder};

fn show(title: &str, err: &RunError) {
    println!("--- {title} ---");
    match err {
        RunError::Diagnosed(diags) => {
            println!("{}", diag::report(diags));
            println!("as JSON: {}\n", diag::report_json(diags));
        }
        other => println!("unexpected failure: {other}\n"),
    }
}

/// Run a two-rank `program` once as it is and once under the analyzer:
/// what the engine proves does not depend on who is watching.
fn show_both_ways(title: &str, program: fn(&mut Proc)) {
    let alone = WorldBuilder::new(2).run(program).unwrap_err();
    let watched = WorldBuilder::new(2)
        .tool(Analyzer::new())
        .run(program)
        .unwrap_err();
    show(&format!("{title} (no tool attached)"), &alone);
    show(&format!("{title} (mpicheck attached)"), &watched);
    assert_eq!(alone, watched, "the analyzer changed the engine's report");
}

/// The broken programs below abort rank threads via mpisim's sentinel
/// panics; keep the default hook for genuine panics but silence those so
/// the diagnostic reports are readable.
fn quiet_sentinel_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        if msg != diag::DIAGNOSED_MSG && msg != mpisim::error::POISONED_MSG {
            default_hook(info);
        }
    }));
}

fn main() {
    quiet_sentinel_panics();

    // 1. A recv/recv cross-wait: both ranks receive before sending. On a
    //    real MPI this hangs until the batch scheduler kills the job;
    //    here the scheduler sees the world run dry and every blocked rank
    //    names its own call site.
    let cross_wait = |p: &mut Proc| {
        let world = p.world();
        let peer = 1 - p.world_rank();
        let _ = world.recv::<u32>(p, Src::Rank(peer), TagSel::Is(0));
        world.send(p, peer, 0, &[1u32]);
    };
    show_both_ways("deadlock: recv/recv cross-wait", cross_wait);

    // 2. Collective divergence: rank 0 enters a barrier while rank 1
    //    enters an allreduce. The communicator's rendezvous reports the
    //    first position at which its members disagree.
    let divergence = |p: &mut Proc| {
        let world = p.world();
        if p.world_rank() == 0 {
            world.barrier(p);
        } else {
            let _ = world.allreduce_sum_f64(p, 1.0);
        }
    };
    show_both_ways("collective divergence: barrier vs allreduce", divergence);

    // 3. Section misuse: exiting sections out of order ("imperfect
    //    nesting" in the paper's terms) is reported with the offending
    //    rank's open-label stack instead of a bare panic.
    let sections =
        speedup_repro::sections::SectionRuntime::new(speedup_repro::sections::VerifyMode::Active);
    let s = sections.clone();
    let err = WorldBuilder::new(2)
        .tool(sections)
        .tool(Analyzer::new())
        .run(move |p| {
            let world = p.world();
            s.enter(p, &world, "solve");
            s.enter(p, &world, "exchange");
            s.exit(p, &world, "solve"); // out of order
        })
        .unwrap_err();
    show("section misuse: imperfect nesting", &err);

    // 4. A wildcard-receive race is a hazard, not a fault: the run
    //    completes, and the analyzer reports the competing senders as a
    //    warning afterwards.
    let analyzer = Analyzer::new();
    let report = WorldBuilder::new(3)
        .tool(analyzer.clone())
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                world.barrier(p);
                let a = world.recv::<u32>(p, Src::Any, TagSel::Is(7));
                let b = world.recv::<u32>(p, Src::Any, TagSel::Is(7));
                a.data[0] + b.data[0]
            } else {
                world.send(p, 0, 7, &[p.world_rank() as u32]);
                world.barrier(p);
                0
            }
        })
        .expect("the racy program still completes");
    println!("--- message race: wildcard receive with two senders ---");
    println!("run completed (rank 0 summed {})", report.results[0]);
    println!("{}", diag::report(&analyzer.diagnostics()));
}
