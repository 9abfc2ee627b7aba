//! Exact-vs-sketch agreement: at small p, every number the bounded
//! streaming summarizer reports must be reproducible from the full
//! recorder's offline analyses — exactly for the additive totals (wait
//! breakdowns, timeline section totals, comm edges) and within the
//! documented relative error for the sketched quantiles. Plus the memory
//! contract the whole PR exists for: summarizer state is independent of
//! the step count and sublinear in p.

use mpi_sections::sketch::QUANTILE_REL_ERR;
use mpi_sections::{classify, critpath, timeline, CommRecorder, PvarSnapshot, RunSummary};
use mpi_sections::{SectionRuntime, SummaryTool, VerifyMode, Windowing};
use mpisim::{Engine, WorldBuilder};
use std::sync::Arc;

/// One instrumented convolution run: the summarizer next to the full
/// recorder, whose log gives every summarized number an exact
/// counterpart from the same events (the pvar counters among them).
struct Observed {
    summary: RunSummary,
    log: mpi_sections::CommLog,
    pvar: mpi_sections::PvarSnapshot,
}

fn observe_conv(p: usize, steps: usize, machine: machine::MachineModel, seed: u64) -> Observed {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let summary = SummaryTool::new();
    let recorder = CommRecorder::new();
    let s = sections.clone();
    let cfg = Arc::new(convolution::ConvConfig::paper(steps));
    WorldBuilder::new(p)
        .engine(Engine::Des)
        .machine(machine)
        .seed(seed)
        .tool(sections.clone())
        .tool(summary.clone())
        .tool(recorder.clone())
        .run(move |pr| {
            convolution::run_convolution(pr, &s, &cfg);
        })
        .expect("conv run failed");
    let log = recorder.freeze();
    Observed {
        summary: summary.freeze(),
        pvar: PvarSnapshot::from_log(&log),
        log,
    }
}

/// Summarizer state bytes for a conv run on the ideal machine.
fn conv_state_bytes(p: usize, steps: usize) -> usize {
    observe_conv(p, steps, machine::presets::ideal(), 1)
        .summary
        .state_bytes
}

#[test]
fn wait_totals_match_offline_classifier_exactly() {
    for p in [8, 16] {
        let obs = observe_conv(p, 12, machine::presets::nehalem_cluster(), 7);
        let exact = classify(&obs.log);
        for sec in &obs.summary.sections {
            let expect = exact
                .per_section
                .get(&sec.label)
                .copied()
                .unwrap_or_default();
            assert_eq!(
                sec.waits, expect,
                "p={p}: section {} wait breakdown diverged from the classifier",
                sec.label
            );
            // The idle-wait sketch keeps exact aggregates: its sum is the
            // late-sender + collective-wait total to the nanosecond.
            assert_eq!(
                sec.wait_sketch.sum_ns,
                (expect.late_sender_ns + expect.coll_wait_ns) as u128,
                "p={p}: section {} sketch sum diverged",
                sec.label
            );
        }
        // Not vacuous: the noisy machine produces real waits.
        assert!(obs.summary.total_wait_ns() > 0);
    }
}

#[test]
fn checkpoint_timeline_recomposes_full_build_totals() {
    let obs = observe_conv(8, 12, machine::presets::nehalem_cluster(), 7);
    let full = timeline::build(&obs.log, &Windowing::Fixed(4));
    let full_totals = full.section_totals();
    let sum_totals = obs.summary.to_timeline().section_totals();
    assert_eq!(
        full_totals.keys().collect::<Vec<_>>(),
        sum_totals.keys().collect::<Vec<_>>(),
        "section sets differ"
    );
    for (label, f) in &full_totals {
        let s = &sum_totals[label];
        // Every additive field recomposes exactly — windowing differs
        // (fixed windows vs checkpoint cadence) but totals may not.
        assert_eq!(s.time_ns, f.time_ns, "{label}: presence");
        assert_eq!(s.late_sender_ns, f.late_sender_ns, "{label}: late-sender");
        assert_eq!(s.coll_wait_ns, f.coll_wait_ns, "{label}: coll-wait");
        assert_eq!(s.transfer_ns, f.transfer_ns, "{label}: transfer");
        assert_eq!(s.useful_ns, f.useful_ns, "{label}: useful");
        assert_eq!(s.sent_msgs, f.sent_msgs, "{label}: sent msgs");
        assert_eq!(s.sent_bytes, f.sent_bytes, "{label}: sent bytes");
        assert_eq!(s.recv_msgs, f.recv_msgs, "{label}: recv msgs");
        assert_eq!(s.recv_bytes, f.recv_bytes, "{label}: recv bytes");
        assert_eq!(s.coll_exits, f.coll_exits, "{label}: coll exits");
    }
}

#[test]
fn sketch_quantiles_within_documented_error_of_exact_waits() {
    // A barrier straggler chain with a known wait distribution: rank r
    // advances (r+1) * 100 ms, so rank r waits (7 - r) * 100 ms at the
    // barrier (the straggler waits 0).
    let summary = SummaryTool::new();
    WorldBuilder::new(8)
        .tool(summary.clone())
        .run(|p| {
            let world = p.world();
            p.advance_secs(0.1 * (p.world_rank() + 1) as f64);
            world.barrier(p);
        })
        .unwrap();
    let s = summary.freeze();
    let main = &s.sections[0];
    assert_eq!(main.label, mpi_sections::MPI_MAIN);
    let sk = &main.wait_sketch;
    assert_eq!(sk.total, 7, "seven ranks waited");

    let mut exact: Vec<u64> = (1..8).map(|r| (8 - r) as u64 * 100_000_000).collect();
    exact.sort_unstable();
    for q in [0.5, 0.9, 0.99] {
        let idx = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len()) - 1;
        let want = exact[idx] as f64;
        let got = sk.quantile(q) as f64;
        let rel = (got - want).abs() / want;
        assert!(
            rel <= QUANTILE_REL_ERR,
            "q={q}: sketch {got} vs exact {want} (rel {rel:.4} > {QUANTILE_REL_ERR})"
        );
    }
    // Exact aggregates: min/max are the smallest/largest true waits.
    assert_eq!(sk.min_ns, 100_000_000);
    assert_eq!(sk.max_ns, 700_000_000);
}

#[test]
fn cluster_count_equals_distinct_wait_profiles() {
    // Four behavior groups of 16 ranks each, with geometrically spaced
    // barrier waits (90 s, 9 s, 0.9 s, 0 s) — far apart relative to the
    // fingerprint's quantization (4 log-buckets per decade), so each
    // group must land in its own cluster.
    let summary = SummaryTool::new();
    WorldBuilder::new(64)
        .engine(Engine::Des)
        .tool(summary.clone())
        .run(|p| {
            let world = p.world();
            let wait = [90.0, 9.0, 0.9, 0.0][p.world_rank() / 16];
            p.advance_secs(100.0 - wait);
            world.barrier(p);
        })
        .unwrap();
    let s = summary.freeze();
    assert_eq!(s.clusters.len(), 4, "{:?}", s.clusters);
    assert_eq!(s.dropped_clusters, 0);
    assert_eq!(s.other_members, 0);
    for c in &s.clusters {
        assert_eq!(c.members, 16, "every group has 16 ranks");
        assert_eq!(c.exemplar % 16, 0, "exemplar is the group's first rank");
    }
}

#[test]
fn top_edges_equal_exact_comm_matrix_when_under_budget() {
    let obs = observe_conv(8, 12, machine::presets::nehalem_cluster(), 7);
    assert_eq!(obs.summary.dropped_edges, 0, "under budget: no evictions");
    assert_eq!(
        obs.summary.edges.len(),
        obs.pvar.matrix.len(),
        "every exact matrix cell survives"
    );
    for e in &obs.summary.edges {
        let cell = obs
            .pvar
            .matrix
            .get(&(e.src, e.dst))
            .unwrap_or_else(|| panic!("edge ({}, {}) not in the exact matrix", e.src, e.dst));
        assert_eq!(e.bytes, cell.bytes, "({}, {}) bytes", e.src, e.dst);
        assert_eq!(e.msgs, cell.msgs, "({}, {}) msgs", e.src, e.dst);
        assert_eq!(e.err_bytes, 0);
    }
    // Heaviest-first ordering.
    for w in obs.summary.edges.windows(2) {
        assert!(w[0].bytes >= w[1].bytes);
    }
}

#[test]
fn streaming_cpl_bound_is_a_true_lower_bound() {
    for (machine, seed) in [
        (machine::presets::nehalem_cluster(), 7),
        (machine::presets::ideal(), 1),
    ] {
        let obs = observe_conv(8, 12, machine, seed);
        let exact = critpath::extract(&obs.log);
        assert!(
            obs.summary.cpl_lower_bound_ns <= exact.length_ns,
            "streaming bound {} exceeds the exact CPL {}",
            obs.summary.cpl_lower_bound_ns,
            exact.length_ns
        );
        assert!(obs.summary.cpl_lower_bound_ns > 0);
        assert!(obs.summary.cpl_lower_bound_ns <= obs.summary.makespan_ns);
    }
}

#[test]
fn summary_json_is_deterministic_across_equal_seeds() {
    let a = observe_conv(8, 12, machine::presets::nehalem_cluster(), 7);
    let b = observe_conv(8, 12, machine::presets::nehalem_cluster(), 7);
    assert_eq!(a.summary.to_json(), b.summary.to_json());
    mpisim::jsoncheck::assert_json(&a.summary.to_json(), "summary json");
}

#[test]
fn log_bytes_are_a_count_linear_in_the_records() {
    // The full recorder's memory contract, counted from lengths: a record
    // costs its 8-byte head word plus only the words its kind carries (a
    // receive one, and a send its 4-byte table slot, the offset of its
    // record), and nothing in the log grows other than per record — every
    // further 50 steps add exactly the same bytes.
    let [b50, b100, b150] = [50, 100, 150].map(|steps| {
        let log = observe_conv(64, steps, machine::presets::ideal(), 1).log;
        (log.state_bytes(), log.events())
    });
    for (bytes, events) in [b50, b100] {
        let per_record = bytes as f64 / events as f64;
        assert!(per_record <= 14.0, "{per_record} bytes per record");
    }
    assert_eq!(b100.1 - b50.1, b150.1 - b100.1, "records per 50 steps");
    assert_eq!(b100.0 - b50.0, b150.0 - b100.0, "bytes per 50 steps");
    // Exactly, per 50 steps of 64 ranks: 28 600 records in 380 400 bytes,
    // 118.9 per rank-step (134.6 while a receive took two payload words,
    // 182.0 while a send slot repeated the send's time, bytes and
    // destination and a compute took two payload words). At 50 and 100
    // steps a record costs 13.50 and 13.40 bytes.
    assert_eq!((b100.1 - b50.1, b100.0 - b50.0), (28_600, 380_400));
}

#[test]
fn state_is_step_independent_and_sublinear_in_p() {
    // The memory contract: state depends on budgets (sections x buckets +
    // K clusters + k edges + checkpoint rows) plus O(1) per rank — never
    // on how many events flowed through.
    let s8_short = conv_state_bytes(8, 5);
    let s8_long = conv_state_bytes(8, 20);
    assert_eq!(
        s8_short, s8_long,
        "4x the steps must not change the summarizer state"
    );
    let s64 = conv_state_bytes(64, 5);
    let s256 = conv_state_bytes(256, 5);
    assert_eq!(s64, conv_state_bytes(64, 20), "step independence at p=64");
    assert!(
        s64 < 8 * s8_short,
        "8x ranks grew state {}x (fixed budgets should dominate)",
        s64 as f64 / s8_short as f64
    );
    assert!(
        s256 < 4 * s64,
        "4x ranks grew state {}x (fixed budgets should dominate)",
        s256 as f64 / s64 as f64
    );
}
