//! Engine equivalence: the discrete-event scheduler must be *observably*
//! identical to the thread-per-rank engine. Both engines run the same
//! workload with the full observability stack attached (section profiler,
//! Chrome trace, communication recorder, summarizer, mpicheck analyzer)
//! and every rendered artifact — profile CSV, trace JSON, metrics JSON,
//! diagnostics report — is compared byte for byte.
//!
//! This is the PR-transition safety net the `--engine` selector exists
//! for: virtual-time results are carried on messages and collective
//! records, never on host scheduling, so switching engines must not move
//! a single byte of output.

use mpi_sections::{
    classify, critpath, timeline, CommRecorder, PvarSnapshot, SectionProfiler, SectionRuntime,
    SummaryTool, TraceTool, VerifyMode, Windowing,
};
use mpisim::{Engine, Src, TagSel, WorldBuilder};
use mpiverify::ScheduleController;
use std::sync::Arc;

/// Everything a profiling session renders, captured from one run.
#[derive(PartialEq, Eq)]
struct Artifacts {
    profile_csv: String,
    trace_json: String,
    metrics_json: String,
    summary_json: String,
    diagnostics: String,
}

/// Run `body` at scale `p` on `engine` with the whole tool stack attached
/// and render every artifact the `profile` CLI can produce.
fn observe(
    engine: Engine,
    p: usize,
    seed: u64,
    machine: machine::MachineModel,
    body: impl Fn(&mut mpisim::Proc, &SectionRuntime) + Send + Sync + 'static,
) -> Artifacts {
    observe_controlled(engine, p, seed, machine, None, body)
}

/// [`observe`] with an optional match controller attached — the
/// verification-off safety net: a recording controller (which always picks
/// the arrival-order candidate) must not move a byte either.
fn observe_controlled(
    engine: Engine,
    p: usize,
    seed: u64,
    machine: machine::MachineModel,
    controller: Option<Arc<ScheduleController>>,
    body: impl Fn(&mut mpisim::Proc, &SectionRuntime) + Send + Sync + 'static,
) -> Artifacts {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let profiler = SectionProfiler::new();
    let trace = TraceTool::new();
    let recorder = CommRecorder::new();
    let summary = SummaryTool::new();
    let checker = mpicheck::Analyzer::new();
    sections.attach(profiler.clone());
    sections.attach(trace.clone());
    let s = sections.clone();
    let mut builder = WorldBuilder::new(p)
        .engine(engine)
        .machine(machine)
        .seed(seed)
        .tool(sections.clone())
        .tool(trace.clone())
        .tool(recorder.clone())
        .tool(summary.clone())
        .tool(checker.clone());
    if let Some(ctl) = controller {
        builder = builder.match_controller(ctl as Arc<dyn mpisim::MatchController>);
    }
    builder
        .run(move |pr| body(pr, &s))
        .expect("workload run failed");
    let log = recorder.freeze();
    let (waits, cp) = (classify(&log), critpath::extract(&log));
    let tl = timeline::build(&log, &Windowing::Fixed(4));
    Artifacts {
        profile_csv: profiler.snapshot().to_csv(),
        trace_json: trace.to_chrome_trace_with(Some(&tl)),
        metrics_json: format!(
            "{}\n{}\n{}\n{}",
            PvarSnapshot::from_log(&log).to_json(),
            waits.to_json(),
            cp.to_json(),
            tl.to_json()
        ),
        summary_json: summary.freeze().to_json(),
        diagnostics: mpisim::diag::report(&checker.diagnostics()),
    }
}

/// Assert all four artifacts match, with a per-artifact message so a
/// divergence names the channel that moved.
fn assert_identical(threads: &Artifacts, des: &Artifacts) {
    assert_eq!(
        threads.profile_csv, des.profile_csv,
        "profile CSV differs between engines"
    );
    assert_eq!(
        threads.trace_json, des.trace_json,
        "Chrome trace differs between engines"
    );
    assert_eq!(
        threads.metrics_json, des.metrics_json,
        "metrics JSON differs between engines"
    );
    assert_eq!(
        threads.summary_json, des.summary_json,
        "streaming summary JSON differs between engines"
    );
    assert_eq!(
        threads.diagnostics, des.diagnostics,
        "mpicheck diagnostics differ between engines"
    );
}

#[test]
fn convolution_is_byte_identical_across_engines() {
    let run = |engine| {
        let cfg = Arc::new(convolution::ConvConfig::paper(12));
        observe(
            engine,
            8,
            7,
            machine::presets::nehalem_cluster(),
            move |pr, s| {
                convolution::run_convolution(pr, s, &cfg);
            },
        )
    };
    let threads = run(Engine::Threads);
    let des = run(Engine::Des);
    assert_identical(&threads, &des);
    // Guard against vacuous equality: the run must have produced data.
    assert!(threads.profile_csv.contains("HALO"));
    assert!(threads
        .summary_json
        .contains("\"schema\":\"mpisim-summary-v1\""));
    assert!(threads.summary_json.contains("\"clusters\""));
    assert!(threads.diagnostics.is_empty() || threads.diagnostics.contains("diagnostic"));
}

#[test]
fn lulesh_is_byte_identical_across_engines() {
    let s = lulesh_proxy::size_for(lulesh_proxy::PAPER_TOTAL_ELEMENTS, 8).expect("8 is a cube");
    let run = move |engine| {
        let cfg = Arc::new(lulesh_proxy::LuleshConfig::timing(s, 10, 2));
        observe(engine, 8, 3, machine::presets::knl(), move |pr, sr| {
            lulesh_proxy::run_lulesh(pr, sr, &cfg);
        })
    };
    let threads = run(Engine::Threads);
    let des = run(Engine::Des);
    assert_identical(&threads, &des);
    assert!(threads.profile_csv.contains("LagrangeNodal"));
}

#[test]
fn wildcard_race_diagnostics_match_across_engines() {
    // The racy-but-live wildcard receive (check_misuse scenario 4): the
    // analyzer's competing-sender warning must name the same candidates
    // under both engines — the barrier makes the candidate set exact.
    let run = |engine| {
        observe(engine, 3, 1, machine::presets::ideal(), |pr, _| {
            let world = pr.world();
            if pr.world_rank() == 0 {
                world.barrier(pr);
                let a = world.recv::<u32>(pr, Src::Any, TagSel::Is(7));
                let b = world.recv::<u32>(pr, Src::Any, TagSel::Is(7));
                assert_eq!(a.data[0] + b.data[0], 3);
            } else {
                world.send(pr, 0, 7, &[pr.world_rank() as u32]);
                world.barrier(pr);
            }
        })
    };
    let threads = run(Engine::Threads);
    let des = run(Engine::Des);
    assert_identical(&threads, &des);
    assert!(
        threads.diagnostics.contains("race") || !threads.diagnostics.is_empty(),
        "the wildcard race should produce a warning"
    );
}

#[test]
fn recording_controller_is_observably_inert() {
    // `--verify` off must be byte-identical to the pre-verifier baseline.
    // The strictest version of that claim: even *with* the controller
    // plumbing engaged (a recording controller that always picks the
    // arrival-order candidate, exactly what exploration's canonical run
    // does), every artifact matches a run with no controller at all — on
    // both engines, including the engine the controller cannot steer.
    //
    // Rank 2 sends only after hearing from rank 1, so the arrival order at
    // rank 0 is the program's and not the host scheduler's: two runs on
    // the threads engine can only be compared if they queue alike.
    let body = |pr: &mut mpisim::Proc, s: &SectionRuntime| {
        let world = pr.world();
        s.scoped(pr, &world, "FOLD", |pr| {
            let world = pr.world();
            let me = pr.world_rank();
            if me == 0 {
                world.barrier(pr);
                let a = world.recv::<u32>(pr, Src::Any, TagSel::Is(7));
                let b = world.recv::<u32>(pr, Src::Any, TagSel::Is(7));
                assert_eq!(a.data[0] + b.data[0], 3);
            } else {
                if me == 2 {
                    let _ = world.recv::<u32>(pr, Src::Rank(1), TagSel::Is(8));
                }
                world.send(pr, 0, 7, &[me as u32]);
                if me == 1 {
                    world.send(pr, 2, 8, &[0u32]);
                }
                world.barrier(pr);
            }
        });
    };
    for engine in [Engine::Des, Engine::Threads] {
        let ctl = Arc::new(ScheduleController::recording());
        let bare = observe(engine, 3, 1, machine::presets::nehalem_cluster(), body);
        let recorded = observe_controlled(
            engine,
            3,
            1,
            machine::presets::nehalem_cluster(),
            Some(ctl.clone()),
            body,
        );
        assert_identical(&bare, &recorded);
        // Guard against vacuous equality: the controller really was
        // consulted — it logged both wildcard decisions.
        assert_eq!(
            ctl.schedule().decisions.len(),
            2,
            "recording controller saw both wildcard matches on {engine:?}"
        );
        assert!(!ctl.diverged());
    }
}
