//! `bench::Launch` is the only place the harness builds a world for a
//! program. The reference here is the world a caller without it would
//! spell out (section runtime, profiler, `WorldBuilder`): a `Program`
//! through `bench::profiled_cell` (which is `bench::profiled`, reduced)
//! must equal it bit for bit.

use bench::{CellOutcome, Program};
use convolution::ConvConfig;
use mpi_sections::{SectionProfiler, SectionRuntime, VerifyMode};
use mpisim::WorldBuilder;

/// The 2-D convolution in a hand-built world.
fn hand_built_2d(
    p: usize,
    cfg: ConvConfig,
    machine: &machine::MachineModel,
    seed: u64,
) -> CellOutcome {
    let sections = SectionRuntime::new(VerifyMode::Off);
    let profiler = SectionProfiler::new();
    sections.attach(profiler.clone());
    let s = sections.clone();
    let report = WorldBuilder::new(p)
        .machine(machine.clone())
        .seed(seed)
        .tool(sections.clone())
        .run(move |pr| convolution::run_convolution_2d(pr, &s, &cfg))
        .expect("2-D convolution");
    CellOutcome::from_profile(&profiler.snapshot(), report.makespan_secs())
}

#[test]
fn conv2d_through_profiled_equals_the_hand_built_world() {
    let noisy = machine::presets::nehalem_cluster();
    let mut noiseless = noisy.clone();
    noiseless.noise = machine::NoiseModel::NONE;
    for machine in [&noisy, &noiseless] {
        let cfg = ConvConfig::paper(5);
        let reference = hand_built_2d(16, cfg.clone(), machine, 23);
        let launched = bench::profiled_cell(Program::Conv2d(cfg.clone()), 16, machine, 23)
            .expect("Conv2d run");
        assert_eq!(launched.wall_secs.to_bits(), reference.wall_secs.to_bits());
        let halo = launched.section("HALO").total_own_secs;
        assert!(halo > 0.0);
        assert_eq!(
            halo.to_bits(),
            reference.section("HALO").total_own_secs.to_bits()
        );
        assert_eq!(launched, reference);
        // And it is the 2-D program, not the slab decomposition again.
        let slab = bench::profiled_cell(Program::Conv(cfg), 16, machine, 23).expect("Conv run");
        assert_ne!(slab.wall_secs.to_bits(), launched.wall_secs.to_bits());
    }
}
