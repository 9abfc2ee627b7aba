//! Cross-commit pins for every artifact derived from the PMPI event
//! stream. `engine_equivalence.rs` compares engine to engine and
//! `determinism.rs` run to run; a refactor that moves both sides the same
//! way passes those. Here each rendered document is reduced to its
//! FNV-1a fingerprint and compared with a value committed next to the
//! code, so any byte that moves between commits fails — under both
//! engines.
//!
//! To re-pin after an intended change, run the test and copy the
//! `actual:` table it prints on failure.

use mpi_sections::fasthash::fnv1a;
use mpi_sections::{
    classify, critpath, timeline, CommRecorder, PvarSnapshot, SectionRuntime, SummaryTool,
    TraceTool, VerifyMode, Windowing,
};
use mpisim::{Engine, WorldBuilder};
use std::sync::Arc;

const ARTIFACTS: [&str; 10] = [
    "pvar_json",
    "waits_json",
    "critpath_json",
    "timeline_fixed8_json",
    "timeline_fixed8_csv",
    "timeline_aligned_json",
    "timeline_aligned_csv",
    "summary_json",
    "chrome_trace",
    "folded",
];

/// Fingerprints of one run's artifacts (in [`ARTIFACTS`] order) plus the
/// summarizer's reported state size, which the summary JSON carries but
/// which is masked out of its fingerprint: it is built from `size_of` of
/// the tool's private structs and may shrink.
struct Pinned {
    prints: [u64; 10],
    state_bytes: usize,
}

fn observe(
    engine: Engine,
    align: &str,
    body: impl Fn(&mut mpisim::Proc, &SectionRuntime) + Send + Sync + 'static,
) -> Pinned {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let trace = TraceTool::new();
    let recorder = CommRecorder::new();
    let summary = SummaryTool::new();
    sections.attach(trace.clone());
    let s = sections.clone();
    WorldBuilder::new(8)
        .engine(engine)
        .machine(machine::presets::nehalem_cluster())
        .seed(1)
        .tool(sections.clone())
        .tool(trace.clone())
        .tool(recorder.clone())
        .tool(summary.clone())
        .run(move |pr| body(pr, &s))
        .expect("workload run failed");
    let log = recorder.freeze();
    let fixed = timeline::build(&log, &Windowing::Fixed(8));
    let aligned = timeline::build(&log, &Windowing::Aligned(align.to_string()));
    assert!(
        aligned.windows.len() > 2,
        "'{align}' must cut one window per step"
    );
    let frozen = summary.freeze();
    let summary_json = frozen.to_json().replacen(
        &format!("\"state_bytes\":{}", frozen.state_bytes),
        "\"state_bytes\":_",
        1,
    );
    assert!(summary_json.contains("\"state_bytes\":_"));
    let texts = [
        PvarSnapshot::from_log(&log).to_json(),
        classify(&log).to_json(),
        critpath::extract(&log).to_json(),
        fixed.to_json(),
        fixed.to_csv(),
        aligned.to_json(),
        aligned.to_csv(),
        summary_json,
        trace.to_chrome_trace_with(Some(&fixed)),
        trace.to_folded(),
    ];
    Pinned {
        prints: texts.map(|t| fnv1a(t.as_bytes())),
        state_bytes: frozen.state_bytes,
    }
}

fn check(
    name: &str,
    golden: &Pinned,
    align: &str,
    body: impl Fn(&mut mpisim::Proc, &SectionRuntime) + Send + Sync + Clone + 'static,
) {
    for engine in [Engine::Des, Engine::Threads] {
        let got = observe(engine, align, body.clone());
        if got.prints != golden.prints {
            let mut table = String::new();
            for (artifact, (have, want)) in ARTIFACTS
                .iter()
                .zip(got.prints.iter().zip(golden.prints.iter()))
            {
                let mark = if have == want { "" } else { "   <-- moved" };
                table.push_str(&format!("    0x{have:016x}, // {artifact}{mark}\n"));
            }
            panic!(
                "{name} under {engine:?}: artifacts moved. actual:\n{table}    state_bytes: {}",
                got.state_bytes
            );
        }
        assert!(
            got.state_bytes <= golden.state_bytes,
            "{name} under {engine:?}: summarizer state grew from {} to {} bytes",
            golden.state_bytes,
            got.state_bytes
        );
    }
}

#[test]
fn convolution_artifacts_are_pinned() {
    let golden = Pinned {
        prints: [
            0x07314c31748bb518, // pvar_json
            0x0fec4686c7bbd7ae, // waits_json
            0xd090aba25de4a666, // critpath_json
            0x336d374a011b9069, // timeline_fixed8_json
            0xb129ef21b7787bfd, // timeline_fixed8_csv
            0xbafbce108d3f2342, // timeline_aligned_json
            0xe23849b1bc296416, // timeline_aligned_csv
            0xda1c3dabd53243ba, // summary_json
            0x6d2a9d28ab0947a8, // chrome_trace
            0x4feb4685d25fd508, // folded
        ],
        state_bytes: 97_536,
    };
    let cfg = Arc::new(convolution::ConvConfig::paper(20));
    check("conv p=8 steps=20", &golden, "HALO", move |pr, s| {
        convolution::run_convolution(pr, s, &cfg);
    });
}

#[test]
fn lulesh_artifacts_are_pinned() {
    let golden = Pinned {
        prints: [
            0x5dc2e62ade4d5986, // pvar_json
            0x5cf992034c04c4ca, // waits_json
            0x04a208be5b6824ac, // critpath_json
            0x05a06e9f32872826, // timeline_fixed8_json
            0x6f336e0e6d925f15, // timeline_fixed8_csv
            0x1875d1e5a607ac26, // timeline_aligned_json
            0x1542b3e1c92857ba, // timeline_aligned_csv
            0x6de11dcc13221e19, // summary_json
            0x3c7658aa4b7a62e2, // chrome_trace
            0x8923015d3e8086aa, // folded
        ],
        state_bytes: 296_672,
    };
    let side = lulesh_proxy::size_for(lulesh_proxy::PAPER_TOTAL_ELEMENTS, 8).expect("8 is a cube");
    let cfg = Arc::new(lulesh_proxy::LuleshConfig::timing(side, 10, 2));
    check(
        "lulesh p=8 iters=10",
        &golden,
        "LagrangeLeapFrog",
        move |pr, s| {
            lulesh_proxy::run_lulesh(pr, s, &cfg);
        },
    );
}
