//! Exporter integration tests: every JSON document the toolchain emits
//! must be well-formed (checked by the shared `common::check_json`
//! validator), and every metrics artifact must be byte-stable across
//! identical seeded runs — the property that makes profile diffs and
//! golden files trustworthy.

mod common;

use common::assert_json;
use mpi_sections::timeline::{build, Windowing};
use mpi_sections::{
    classify, critpath, CommRecorder, PvarSnapshot, SectionRuntime, SummaryTool, TraceTool,
    VerifyMode,
};
use mpisim::{Src, TagSel, WorldBuilder};
use std::sync::Arc;

struct Observed {
    trace: Arc<TraceTool>,
    recorder: Arc<CommRecorder>,
    summary: Arc<SummaryTool>,
    makespan_secs: f64,
}

/// A small fixed-seed workload exercising sections, p2p (with skew, so
/// both late-sender and late-receiver states occur) and collectives, with
/// the whole observability stack attached.
fn observed_run(seed: u64) -> Observed {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let trace = TraceTool::new();
    let recorder = CommRecorder::new();
    let summary = SummaryTool::new();
    sections.attach(trace.clone());
    let s = sections.clone();
    let report = WorldBuilder::new(4)
        .machine(machine::presets::nehalem_cluster()) // noisy: seed matters
        .seed(seed)
        .tool(sections.clone())
        .tool(trace.clone())
        .tool(recorder.clone())
        .tool(summary.clone())
        .run(move |p| {
            let world = p.world();
            s.scoped(p, &world, "COMPUTE", |p| {
                p.advance_secs(0.01 * (p.world_rank() + 1) as f64);
            });
            s.scoped(p, &world, "RING", |p| {
                let world = p.world();
                let next = (p.world_rank() + 1) % p.world_size();
                let prev = (p.world_rank() + p.world_size() - 1) % p.world_size();
                world.send(p, next, 0, &[0u8; 128]);
                let _ = world.recv::<u8>(p, Src::Rank(prev), TagSel::Is(0));
            });
            s.scoped(p, &world, "SYNC", |p| {
                let world = p.world();
                world.barrier(p);
            });
        })
        .expect("observed run failed");
    Observed {
        trace,
        recorder,
        summary,
        makespan_secs: report.makespan_secs(),
    }
}

#[test]
fn chrome_trace_is_valid_json_with_metadata_and_flows() {
    let o = observed_run(1);
    let json = o.trace.to_chrome_trace();
    assert_json(&json, "chrome trace");
    // Labeled rank rows.
    assert!(json.contains("\"process_name\""), "missing metadata");
    assert!(json.contains("\"name\":\"rank 3\""));
    assert!(json.contains("\"name\":\"MPI_COMM_WORLD\""));
    // One flow arrow (s/f pair) per ring message.
    assert_eq!(json.matches("\"ph\":\"s\"").count(), 4);
    assert_eq!(json.matches("\"ph\":\"f\"").count(), 4);
}

#[test]
fn metrics_documents_are_valid_json() {
    let o = observed_run(1);
    let log = o.recorder.freeze();
    assert_json(&PvarSnapshot::from_log(&log).to_json(), "pvar snapshot");
    assert_json(&classify(&log).to_json(), "wait-state report");
    assert_json(&critpath::extract(&log).to_json(), "critical path");
}

#[test]
fn diagnostic_report_is_valid_json() {
    let diag = mpisim::diag::Diagnostic {
        kind: mpisim::diag::DiagnosticKind::CollectiveDivergence {
            position: 3,
            expected: "barrier".into(),
            observed: "bcast \"quoted\"".into(),
        },
        severity: mpisim::diag::Severity::Error,
        ranks: vec![0, 2],
        comm: Some(mpisim::CommId::WORLD),
        message: "ranks disagree on collective #3\nnewline and \"quotes\"".into(),
    };
    assert_json(&mpisim::diag::report_json(&[diag]), "diagnostic report");
    assert_json(&mpisim::diag::report_json(&[]), "empty diagnostic report");
}

#[test]
fn flamegraph_folded_stacks_are_stable_across_identical_runs() {
    let a = observed_run(7).trace.to_folded();
    let b = observed_run(7).trace.to_folded();
    assert!(!a.is_empty());
    assert_eq!(a, b, "folded stacks differ between identical seeded runs");
    // Every line is `path weight` with a strictly positive integer weight.
    for line in a.lines() {
        let (path, weight) = line.rsplit_once(' ').expect("line shape");
        assert!(path.starts_with("rank "), "{line}");
        assert!(weight.parse::<u64>().expect("weight") > 0, "{line}");
    }
}

#[test]
fn metrics_json_is_byte_identical_across_identical_seeds() {
    let render = |o: &Observed| {
        let log = o.recorder.freeze();
        format!(
            "{}\n{}\n{}",
            PvarSnapshot::from_log(&log).to_json(),
            classify(&log).to_json(),
            critpath::extract(&log).to_json()
        )
    };
    let a = render(&observed_run(42));
    let b = render(&observed_run(42));
    assert_eq!(a, b);
    // And a different seed actually changes the timings it contains.
    let c = render(&observed_run(43));
    assert_ne!(a, c, "seed should influence the virtual timings");
}

#[test]
fn critical_path_is_bounded_by_makespan() {
    let o = observed_run(1);
    let cp = critpath::extract(&o.recorder.freeze());
    assert!(cp.length_ns > 0);
    assert!(
        cp.length_secs() <= o.makespan_secs + 1e-9,
        "critical path {} exceeds makespan {}",
        cp.length_secs(),
        o.makespan_secs
    );
    // Rank 3 computes longest before the ring; its compute is on the path.
    assert!(cp.per_rank[3] > 0);
}

#[test]
fn timeline_window_sums_recompose_pvar_section_totals() {
    // The recomposition invariant: every point event lands in exactly one
    // window, so per-window counters summed over all windows must equal
    // the whole-run per-section pvar deltas. (Pvar attribution is
    // *inclusive* — nested activity also counts into enclosing sections —
    // while the windows attribute to the innermost section only, so the
    // comparison holds for leaf sections; the fixture's sections are all
    // flat under MPI_MAIN.) The timeline and pvar are two sinks of one
    // fold of the log; the summarizer's checkpoint rows are counted online
    // from the live steps, so that side checks the log against the run.
    let o = observed_run(5);
    let log = o.recorder.freeze();
    let offline = build(&log, &Windowing::Fixed(9)).section_totals();
    let summary = o.summary.freeze();
    let online = summary.to_timeline().section_totals();
    let snap = PvarSnapshot::from_log(&log);
    let mut compared = 0;
    for (key, c) in &snap.per_section {
        if key.label == mpi_sections::MPI_MAIN {
            continue;
        }
        for (side, totals) in [("timeline", &offline), ("summary", &online)] {
            let ws = totals
                .get(&key.label)
                .unwrap_or_else(|| panic!("{side} missing section {}", key.label));
            assert_eq!(ws.sent_msgs, c.sent_msgs, "{side} {}", key.label);
            assert_eq!(ws.sent_bytes, c.sent_bytes, "{side} {}", key.label);
            assert_eq!(ws.recv_msgs, c.recv_msgs, "{side} {}", key.label);
            assert_eq!(ws.recv_bytes, c.recv_bytes, "{side} {}", key.label);
            assert_eq!(ws.coll_exits, c.coll_calls, "{side} {}", key.label);
        }
        compared += 1;
    }
    assert!(compared >= 3, "expected COMPUTE/RING/SYNC, saw {compared}");
    let totals = offline;
    // The ring moved real traffic, so the invariant is not vacuous.
    assert_eq!(totals["RING"].sent_msgs, 4);
    assert_eq!(totals["RING"].sent_bytes, 4 * 128);
    assert_eq!(totals["SYNC"].coll_exits, 4);
}

#[test]
fn timeline_exports_are_byte_identical_across_identical_seeds() {
    let render = |o: &Observed| {
        let tl = build(&o.recorder.freeze(), &Windowing::Fixed(6));
        format!("{}\n{}", tl.to_csv(), tl.to_json())
    };
    let a = render(&observed_run(42));
    let b = render(&observed_run(42));
    assert_eq!(a, b, "windowed metrics differ between identical seeds");
    let c = render(&observed_run(43));
    assert_ne!(a, c, "seed should influence the windowed timings");
}

#[test]
fn timeline_and_trend_documents_are_valid_json() {
    let o = observed_run(1);
    let tl = build(&o.recorder.freeze(), &Windowing::Fixed(5));
    assert_json(&tl.to_json(), "timeline");
    let trends = speedup::trend::detect(&tl, &speedup::trend::TrendConfig::default());
    assert_json(&speedup::trend::to_json(&trends), "trend report");
    // Counter lanes keep the Chrome trace valid JSON too.
    assert_json(
        &o.trace.to_chrome_trace_with(Some(&tl)),
        "chrome trace with counter lanes",
    );
}

#[test]
fn wait_states_cover_the_expected_classes() {
    let o = observed_run(1);
    let report = classify(&o.recorder.freeze());
    let totals = report.totals();
    // The skewed COMPUTE phase makes the ring skew-sensitive and the
    // barrier catches the stragglers: both classes must show up.
    assert!(
        totals.late_sender_ns + totals.late_receiver_ns > 0,
        "no p2p wait states found"
    );
    assert!(totals.coll_wait_ns > 0, "no collective wait found");
    assert!(report.per_section.contains_key("RING"));
    assert!(report.per_section.contains_key("SYNC"));
}
