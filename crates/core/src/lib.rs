//! # mpi-sections — the paper's `MPI_Section` abstraction
//!
//! This crate implements the primary contribution of *"Towards a Better
//! Expressiveness of the Speedup Metric in MPI Context"* (Besnard et al.,
//! ICPP Workshops 2017): a compact, tool-oriented MPI interface that
//! outlines *distributed* phases of an MPI program.
//!
//! ## The interface (paper Fig. 1 and Fig. 2)
//!
//! ```c
//! int MPIX_Section_enter(MPI_Comm comm, const char *label);
//! int MPIX_Section_exit (MPI_Comm comm, const char *label);
//! ```
//!
//! Here: [`mpix_section_enter`]/[`mpix_section_exit`] (or the equivalent
//! methods on [`SectionRuntime`]). Sections are asynchronous collectives:
//! no synchronization is added, but every rank of the communicator must
//! traverse the same section sequence — optionally verified by the runtime
//! ([`VerifyMode`]). Sections nest perfectly; the implicit [`MPI_MAIN`]
//! section opens at `MPI_Init` and closes at `MPI_Finalize`.
//!
//! Tools observe sections through the callback interface ([`SectionTool`],
//! the Rust shape of the paper's `MPIX_Section_enter_cb`/`leave_cb`),
//! including the 32-byte `data` blob the runtime preserves between enter
//! and leave. The bundled [`SectionProfiler`] computes the paper's Fig. 3
//! metrics — `Tmin`, `Tin`, `Tout`, `Tsection`, `Tmax`, entry imbalance and
//! section imbalance — in streaming form.
//!
//! ## Example
//!
//! ```
//! use mpi_sections::{SectionRuntime, SectionProfiler, VerifyMode};
//! use mpisim::WorldBuilder;
//!
//! let sections = SectionRuntime::new(VerifyMode::Active);
//! let profiler = SectionProfiler::new();
//! sections.attach(profiler.clone());
//! let s = sections.clone();
//!
//! WorldBuilder::new(4)
//!     .tool(sections.clone())       // MPI_MAIN + PMPI interception
//!     .run(move |p| {
//!         let world = p.world();
//!         s.scoped(p, &world, "COMPUTE", |p| p.advance_secs(1.0));
//!     })
//!     .unwrap();
//!
//! let profile = profiler.snapshot();
//! let compute = profile.get_world("COMPUTE").unwrap();
//! assert_eq!(compute.instances, 1);
//! assert!((compute.total_own_secs - 4.0).abs() < 1e-9);
//! ```

pub mod balance;
pub mod critpath;
pub mod efficiency;
pub mod fasthash;
pub mod metrics;
pub mod profiler;
pub mod pvar;
pub mod replay;
pub mod report;
pub mod section;
pub mod sketch;
mod spine;
pub mod summary;
pub mod timeline;
pub mod tool;
pub mod trace;
pub mod waitstate;
pub mod whatif;

pub use balance::BalanceReport;
pub use critpath::CriticalPath;
pub use efficiency::Efficiencies;
pub use metrics::InstanceStats;
pub use profiler::{Profile, SectionKey, SectionProfiler, SectionStats};
pub use pvar::{PvarRegistry, PvarSnapshot};
pub use replay::replay;
pub use report::{
    partial_bound, partial_bound_per_process, rank_bounds, render, render_bounds, ReportOptions,
};
pub use section::{SectionRuntime, VerifyMode, MPI_MAIN};
pub use sketch::{QuantileSketch, SpaceSaving};
pub use summary::{RunSummary, SummaryTool, SUMMARY_AUTO_RANKS};
pub use timeline::{Timeline, Window, WindowSection, Windowing};
pub use tool::{EnterInfo, LeaveInfo, SectionTool};
pub use trace::{SpanEvent, TraceTool};
pub use waitstate::{classify, CommLog, CommRecorder, WaitStateReport};
pub use whatif::{WaitClass, WhatIfSpec};

use mpisim::{Comm, Proc};

/// Paper-faithful spelling of `MPIX_Section_enter` (Fig. 1).
pub fn mpix_section_enter(runtime: &SectionRuntime, p: &mut Proc, comm: &Comm, label: &str) {
    runtime.enter(p, comm, label);
}

/// Paper-faithful spelling of `MPIX_Section_exit` (Fig. 1).
pub fn mpix_section_exit(runtime: &SectionRuntime, p: &mut Proc, comm: &Comm, label: &str) {
    runtime.exit(p, comm, label);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::WorldBuilder;

    #[test]
    fn free_function_spelling_works() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        sections.attach(profiler.clone());
        let s = sections.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .run(move |p| {
                let world = p.world();
                mpix_section_enter(&s, p, &world, "PHASE");
                p.advance_secs(1.0);
                mpix_section_exit(&s, p, &world, "PHASE");
            })
            .unwrap();
        let profile = profiler.snapshot();
        assert!(profile.get_world("PHASE").is_some());
    }
}
