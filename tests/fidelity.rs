//! Fidelity decides whether data exists, never what the clock reads.
//!
//! The paper's workloads run bit-exact against their sequential
//! references at full fidelity and at paper scale with virtual payloads;
//! every figure rests on the two pricing one run identically. Here both
//! fidelities of the same configuration run under the same noisy machine
//! and seed, and every timing artifact they produce must be byte-equal.

use convolution::{run_convolution, run_convolution_2d, ConvConfig, Fidelity};
use lulesh_proxy::{run_lulesh, LuleshConfig};
use mpi_sections::{
    classify, CommRecorder, PvarRegistry, SectionProfiler, SectionRuntime, VerifyMode, MPI_MAIN,
};
use mpisim::{Proc, WorldBuilder};
use std::sync::Arc;

/// What a run prices, as the bytes its exporters write.
#[derive(Debug, PartialEq)]
struct Priced {
    makespan_ns: u64,
    profile_csv: String,
    pvar_json: String,
    wait_states_json: String,
}

fn priced<R: Send>(
    p: usize,
    machine: machine::MachineModel,
    body: impl Fn(&mut Proc, &SectionRuntime) -> R + Send + Sync,
) -> Priced {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let profiler = SectionProfiler::new();
    let pvar = PvarRegistry::new();
    let recorder = CommRecorder::new();
    sections.attach(profiler.clone());
    let s = sections.clone();
    let report = WorldBuilder::new(p)
        .machine(machine)
        .seed(3)
        .tool(sections)
        .tool(pvar.clone())
        .tool(recorder.clone())
        .run(move |p| body(p, &s))
        .expect("run failed");
    Priced {
        makespan_ns: report.makespan.as_nanos(),
        profile_csv: profiler.snapshot().to_csv(),
        pvar_json: pvar.snapshot().to_json(),
        wait_states_json: classify(&recorder.freeze()).to_json(),
    }
}

fn conv(fidelity: Fidelity, two_d: bool) -> Priced {
    let mut cfg = ConvConfig::small(24, 18, 3);
    cfg.fidelity = fidelity;
    let cfg = Arc::new(cfg);
    priced(6, machine::presets::nehalem_cluster(), move |p, s| {
        if two_d {
            run_convolution_2d(p, s, &cfg)
        } else {
            run_convolution(p, s, &cfg)
        }
    })
}

#[test]
fn conv_prices_both_fidelities_identically() {
    for two_d in [false, true] {
        let (full, timing) = (conv(Fidelity::Full, two_d), conv(Fidelity::Timing, two_d));
        assert!(full.makespan_ns > 0);
        assert_eq!(full, timing, "2-D: {two_d}");
    }
}

fn lulesh(cfg: LuleshConfig) -> Priced {
    let cfg = Arc::new(cfg);
    priced(8, machine::presets::knl(), move |p, s| {
        run_lulesh(p, s, &cfg)
    })
}

/// The profile rows other than `MPI_MAIN`. Full fidelity alone reduces the
/// total energy after the time loop, inside `MPI_MAIN` and outside every
/// other section.
fn rows_under_timeloop(priced: &Priced) -> Vec<&str> {
    let main = format!(",{MPI_MAIN},");
    priced
        .profile_csv
        .lines()
        .filter(|row| !row.contains(&main))
        .collect()
}

#[test]
fn lulesh_prices_both_fidelities_identically_under_the_timeloop() {
    let mut full = LuleshConfig::small(3, 3);
    full.collect = false;
    let (full, timing) = (lulesh(full), lulesh(LuleshConfig::timing(3, 3, 1)));
    let (full_rows, timing_rows) = (rows_under_timeloop(&full), rows_under_timeloop(&timing));
    assert_eq!(full_rows.len(), 1 + 21, "header and the 21 sections");
    assert_eq!(full_rows, timing_rows);
    assert!(
        full.makespan_ns > timing.makespan_ns,
        "the energy reduction"
    );
}
