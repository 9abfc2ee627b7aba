//! Cross-tool consistency: the section tools shipped with `mpi-sections`
//! (profiler, trace) observe the same event stream, so their views of one
//! run must agree with each other. This is the invariant a real PMPI tool
//! chain relies on.

use mpisim::{Tool, WorldBuilder};
use speedup_repro::lulesh::{run_lulesh, LuleshConfig, SECTION_LABELS};
use speedup_repro::sections::{SectionProfiler, SectionRuntime, TraceTool, VerifyMode, MPI_MAIN};
use std::sync::Arc;

#[test]
fn all_tools_agree_on_a_lulesh_run() {
    let nranks = 8;
    let iterations = 4;
    let sections = SectionRuntime::new(VerifyMode::Active);
    let profiler = SectionProfiler::new();
    let trace = TraceTool::new();
    sections.attach(profiler.clone());
    sections.attach(trace.clone());

    let s = sections.clone();
    let cfg = Arc::new(LuleshConfig::timing(6, iterations, 2));
    WorldBuilder::new(nranks)
        .machine(machine::presets::knl())
        .seed(21)
        .tool(sections.clone())
        .run(move |p| {
            run_lulesh(p, &s, &cfg);
        })
        .unwrap();

    let profile = profiler.snapshot();
    let spans = trace.spans();

    // 1. The trace has exactly one span per (instance, rank) of every
    //    section the profiler counted.
    for label in SECTION_LABELS.iter().chain([MPI_MAIN].iter()) {
        let stats = profile
            .get_world(label)
            .unwrap_or_else(|| panic!("{label}"));
        let expected = stats.instances * nranks as u64;
        let durations: Vec<u64> = spans
            .iter()
            .filter(|e| e.label.name() == *label)
            .map(|e| e.exit_ns - e.enter_ns)
            .collect();
        assert_eq!(durations.len() as u64, expected, "span count for {label}");

        // 2. The spans' durations, summed exactly in nanoseconds, match
        //    the profiler's total.
        let span_total_secs = durations.iter().sum::<u64>() as f64 * 1e-9;
        assert!(
            (span_total_secs - stats.total_own_secs).abs() < 1e-6,
            "{label}: span total {span_total_secs} vs profiler {}",
            stats.total_own_secs
        );

        // 3. Extremes agree with the per-instance records.
        let min_own = stats
            .per_instance
            .iter()
            .map(|i| i.min_own.as_nanos())
            .min()
            .unwrap();
        let max_own = stats
            .per_instance
            .iter()
            .map(|i| i.max_own.as_nanos())
            .max()
            .unwrap();
        assert_eq!(durations.iter().min(), Some(&min_own), "{label} span min");
        assert_eq!(durations.iter().max(), Some(&max_own), "{label} span max");
    }

    // 4. Span nesting in the trace is consistent: every span lies within
    //    its rank's MPI_MAIN span.
    for rank in 0..nranks {
        let main = spans
            .iter()
            .find(|e| e.rank == rank && e.label.name() == MPI_MAIN)
            .expect("MPI_MAIN span");
        for e in spans.iter().filter(|e| e.rank == rank) {
            assert!(e.enter_ns >= main.enter_ns && e.exit_ns <= main.exit_ns);
        }
    }

    // 5. The run ended cleanly: no rank is inside any section (the
    //    runtime's own stacks, as a failure report would quote them).
    for rank in 0..nranks {
        let open = sections.rank_context(rank);
        assert_eq!(open, None, "rank {rank} still inside a section");
    }

    // 6. Per-rank distributions sum to the profiler totals.
    for label in SECTION_LABELS {
        let stats = profile.get_world(label).unwrap();
        let dist_sum: f64 = stats.per_rank_own.iter().sum();
        assert!(
            (dist_sum - stats.total_own_secs).abs() < 1e-6,
            "{label}: per-rank sum {dist_sum} vs {}",
            stats.total_own_secs
        );
    }
}
