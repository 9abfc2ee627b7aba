//! The section runtime keeps no heap block per rank: what it holds after a
//! run grows with the frames that were open at once and with communicator
//! memberships, a few words per rank. A frame that carries its label and
//! data blob again, or a per-rank vector, fails the budget here.

use bench::{Launch, Program};
use mpi_sections::{SectionProfiler, SectionRuntime, VerifyMode};

/// Bytes per rank the runtime may hold after a conv run: a 16-byte rank
/// slot, two 32-byte frames (`MPI_MAIN` and one section open at once), an
/// 8-byte occurrence count for each of the 7 sections and an 8-byte event
/// count on the world come to 144.
const BUDGET_PER_RANK: usize = 160;

/// `SectionRuntime::state_bytes` after conv at `p` on the ideal machine,
/// under verification and the profiler, as `profile` runs it.
fn runtime_bytes(p: usize) -> usize {
    let sections = SectionRuntime::new(VerifyMode::Active);
    sections.attach(SectionProfiler::new());
    let machine = machine::presets::ideal();
    let launch = Launch {
        program: Program::Conv(convolution::ConvConfig::paper(2)),
        p,
        machine: &machine,
        seed: 1,
        engine: None,
        controller: None,
    };
    launch.run(&sections, Vec::new()).expect("conv run failed");
    sections.state_bytes()
}

#[test]
fn conv_holds_a_few_words_per_rank_in_the_section_runtime() {
    let (small, large) = (runtime_bytes(64), runtime_bytes(4096));
    let per_rank = large / 4096;
    assert!(
        per_rank <= BUDGET_PER_RANK,
        "{large} B at p = 4096: {per_rank} B per rank"
    );
    let per_added_rank = (large - small) / (4096 - 64);
    assert!(
        per_added_rank <= BUDGET_PER_RANK,
        "{small} B at p = 64, {large} B at p = 4096: {per_added_rank} B per added rank"
    );
    eprintln!("p = 64: {small} B; p = 4096: {large} B ({per_added_rank} B per added rank)");
}
