//! The section callback interface — the Rust shape of Fig. 2.
//!
//! The paper defines two C callbacks intercepted at PMPI level:
//!
//! ```c
//! int MPIX_Section_enter_cb(MPI_Comm comm, const char *label, char data[32]);
//! int MPIX_Section_leave_cb(MPI_Comm comm, const char *label, char data[32]);
//! ```
//!
//! [`SectionTool`] is the idiomatic equivalent: the same two entry points,
//! the same runtime-preserved 32-byte `data` blob, plus the structured
//! context a Rust tool would otherwise have to reconstruct (timestamps,
//! occurrence index, nesting depth, inclusive/exclusive durations). The C
//! `label` string becomes a [`Label`]: a `Copy` id into the process-wide
//! label table, whose text [`Label::name`] returns.

use machine::VTime;
use mpisim::{CommId, Label, SectionData};

/// Context delivered with a section-enter notification.
#[derive(Debug, Clone, Copy)]
pub struct EnterInfo {
    /// World rank of the entering process.
    pub world_rank: usize,
    /// Communicator the section is collective over.
    pub comm: CommId,
    /// Size of that communicator.
    pub comm_size: usize,
    /// Rank local to that communicator.
    pub comm_rank: usize,
    /// The section label.
    pub label: Label,
    /// Dense id of this (comm, label) section, assigned by the runtime in
    /// first-seen order and stable within one `SectionRuntime`. Tools can
    /// index flat arrays with it instead of re-hashing `(comm, label)` on
    /// every event; unlike the label it means nothing to another runtime.
    pub section: u32,
    /// Virtual entry time on this rank (`Tin` in the paper's Fig. 3).
    pub time: VTime,
    /// How many times this (comm, label) was entered before on this rank.
    pub occurrence: u64,
    /// Nesting depth at entry (0 = outermost on this communicator).
    pub depth: usize,
}

/// Context delivered with a section-leave notification.
#[derive(Debug, Clone, Copy)]
pub struct LeaveInfo {
    pub world_rank: usize,
    pub comm: CommId,
    pub comm_size: usize,
    pub comm_rank: usize,
    pub label: Label,
    /// Dense runtime-assigned section id (see [`EnterInfo::section`]).
    pub section: u32,
    /// Entry time of the matching enter (`Tin`).
    pub enter_time: VTime,
    /// Exit time on this rank (`Tout`).
    pub time: VTime,
    /// Inclusive duration `Tout - Tin` on this rank.
    pub duration: VTime,
    /// Exclusive duration: inclusive minus time spent in nested sections
    /// *on the same communicator*. Sections interleaved across different
    /// communicators (which need not nest LIFO globally) are not
    /// subtracted — exclusive time partitions each communicator's section
    /// tree independently.
    pub exclusive: VTime,
    /// Occurrence index matching the enter.
    pub occurrence: u64,
    /// Nesting depth after the exit.
    pub depth: usize,
}

/// A tool observing section events (the paper's Fig. 2 interface).
pub trait SectionTool: Send + Sync {
    /// A section was entered. The tool may stash up to 32 bytes of context
    /// in `data`; the runtime preserves it until the matching leave.
    fn on_enter(&self, info: &EnterInfo, data: &mut SectionData);

    /// The matching section was left; `data` is whatever the tool (or any
    /// earlier tool in the chain) stored at enter.
    fn on_leave(&self, info: &LeaveInfo, data: &SectionData);

    /// Does this tool do anything in [`SectionTool::on_enter`]? Sampled
    /// once at attach time (must be constant): when every attached tool
    /// answers `false`, the runtime skips building [`EnterInfo`] and
    /// dispatching the enter chain entirely. Leave-side tools like the
    /// streaming profiler fold everything at leave, so their enters are
    /// pure overhead.
    fn wants_enter(&self) -> bool {
        true
    }
}
