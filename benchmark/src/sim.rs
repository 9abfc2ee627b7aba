//! In-process worlds: the simulated programs of the workloads, launched
//! through the crates' public functions the way `profile` and the sweep
//! pool launch them.

use crate::spec::{ProfileOp, Program};
use convolution::ConvConfig;
use lulesh_proxy::LuleshConfig;
use machine::MachineModel;
use mpi_sections::SectionRuntime;
use mpisim::{MpiEvent, RunReport, Tool, WorldBuilder};
use mpistudy::config::{CellConfig, Workload as CellWorkload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A simulated program and its configuration.
#[derive(Clone)]
pub enum Sim {
    Conv(Arc<ConvConfig>),
    Lulesh(Arc<LuleshConfig>),
}

impl Sim {
    pub fn conv(steps: usize) -> Sim {
        Sim::Conv(Arc::new(ConvConfig::paper(steps)))
    }

    /// The program of a `profile` operation.
    pub fn of_profile(op: &ProfileOp) -> Result<Sim, String> {
        Ok(match op.program {
            Program::Conv => Sim::conv(op.steps),
            Program::Lulesh { threads } => {
                let s = lulesh_proxy::size_for(lulesh_proxy::PAPER_TOTAL_ELEMENTS, op.p)
                    .ok_or_else(|| format!("lulesh needs a cube p, got {}", op.p))?;
                Sim::Lulesh(Arc::new(LuleshConfig::timing(s, op.steps, threads)))
            }
        })
    }

    /// The program of a sweep cell (what `bench::*_cell` configure).
    pub fn of_cell(cell: &CellConfig) -> Sim {
        match cell.workload {
            CellWorkload::Conv { steps } => Sim::conv(steps),
            CellWorkload::ConvWeak {
                rows_per_rank,
                steps,
            } => Sim::Conv(Arc::new(ConvConfig {
                width: 5616,
                height: rows_per_rank * cell.p,
                steps,
                fidelity: convolution::Fidelity::Timing,
                store_path: None,
            })),
            CellWorkload::Lulesh { s, iters, threads } => {
                Sim::Lulesh(Arc::new(LuleshConfig::timing(s, iters, threads)))
            }
        }
    }
}

/// The machine a `profile` operation runs on (`--machine`, or the
/// program's default).
pub fn machine_of(op: &ProfileOp) -> MachineModel {
    let name = op.machine.unwrap_or(match op.program {
        Program::Conv => "nehalem",
        Program::Lulesh { .. } => "knl",
    });
    mpistudy::config::resolve_machine(name).expect("workload machines are presets")
}

/// Launch `sim` on `p` ranks with `tools` attached in order (the section
/// runtime is one of them, as in `profile`).
pub fn simulate(
    p: usize,
    machine: &MachineModel,
    seed: u64,
    sim: &Sim,
    sections: &Arc<SectionRuntime>,
    tools: &[Arc<dyn Tool>],
) -> Result<RunReport<u64>, String> {
    let mut builder = WorldBuilder::new(p).machine(machine.clone()).seed(seed);
    for t in tools {
        builder = builder.tool(t.clone());
    }
    let s = sections.clone();
    let report = match sim.clone() {
        Sim::Conv(cfg) => builder.run(move |pr| {
            convolution::run_convolution(pr, &s, &cfg);
            0
        }),
        Sim::Lulesh(cfg) => builder.run(move |pr| {
            lulesh_proxy::run_lulesh(pr, &s, &cfg);
            0
        }),
    };
    report.map_err(|e| format!("simulated run failed: {e}"))
}

/// A tool that subscribes to every event kind and only counts: the
/// cheapest possible observer, and the unit `*_ns_per_event` divide by.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Arc<Counter> {
        Arc::new(Counter::default())
    }

    pub fn count(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Tool for Counter {
    fn on_event(&self, _world_rank: usize, _event: &MpiEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}
