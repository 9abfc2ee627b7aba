//! # mpisim — a virtual-time, in-process MPI-like runtime
//!
//! This crate is the substrate that replaces a real MPI library in the
//! reproduction of *"Towards a Better Expressiveness of the Speedup Metric
//! in MPI Context"* (ICPPW 2017). It provides, in-process:
//!
//! * an SPMD launcher ([`WorldBuilder`]) that drives every rank as a
//!   cooperative fiber from one virtual-time event queue, with two
//!   execution engines behind it: the default `des` engine switches fibers
//!   in assembly on x86-64 and scales past 16 000 ranks on a laptop, the
//!   reference `threads` engine parks one OS thread per rank and is safe
//!   code on every target (select with [`WorldBuilder::engine`] or the
//!   `MPISIM_ENGINE` environment variable);
//! * communicators ([`Comm`]) with `dup`/`split`, point-to-point messaging
//!   (blocking, non-blocking, combined sendrecv, virtual/timing-mode
//!   payloads) and the collectives the workloads use (barrier, bcast,
//!   scatter(v), gather(v), allgather, reduce, allreduce);
//! * **virtual time**: each rank owns a clock; computation is priced by a
//!   [`machine::MachineModel`], messages piggyback their departure
//!   timestamps, and collectives synchronize clocks — so a 456-rank cluster
//!   job "runs" on a laptop with reproducible, causally propagated waiting
//!   time;
//! * a **PMPI-style tool layer** ([`Tool`]): typed events for what a tool
//!   reads of the calls — each message sent and matched, each collective
//!   rendezvous entered and left, modeled compute — and the section
//!   enter/leave notifications, the interposition point the paper's
//!   `MPI_Section` reference implementation hooks into (the `mpi-sections`
//!   crate builds on it).
//!
//! ## Example
//!
//! ```
//! use mpisim::{WorldBuilder, Src, TagSel};
//!
//! let report = WorldBuilder::new(2)
//!     .run(|p| {
//!         let world = p.world();
//!         if p.world_rank() == 0 {
//!             world.send(p, 1, 0, &[1u32, 2, 3]);
//!             0
//!         } else {
//!             let msg = world.recv::<u32>(p, Src::Rank(0), TagSel::Is(0));
//!             msg.data.iter().sum::<u32>()
//!         }
//!     })
//!     .unwrap();
//! assert_eq!(report.results, vec![0, 6]);
//! ```

pub mod collective;
pub mod comm;
pub mod control;
pub(crate) mod des;
pub mod diag;
pub mod error;
pub mod event;
pub(crate) mod fiber;
pub mod jsoncheck;
pub mod label;
pub mod mailbox;
pub mod message;
pub mod proc;
pub mod tool;
pub mod topo;
pub mod world;

pub use comm::{waitall, Comm, RecvReq, Recvd, SendReq};
pub use control::{MatchCandidate, MatchController};
pub use des::{WorldCell, WorldGuard};
pub use diag::{BlockedSite, Diagnostic, DiagnosticKind, Severity};
pub use error::RunError;
pub use event::{CommId, EventKind, EventMask, MpiEvent, SectionData};
pub use label::{Label, MPI_MAIN};
pub use message::{Payload, Src, TagSel};
pub use proc::Proc;
pub use tool::{Tool, ToolSet};
pub use topo::{dims_create, CartGrid};
pub use world::{Engine, RunReport, WorldBuilder};
