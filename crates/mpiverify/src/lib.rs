//! # mpiverify — schedule-space exploration for wildcard message races
//!
//! `mpicheck` (PR 2) can *warn* that a wildcard receive had several
//! matching in-flight senders — a heuristic `MessageRace` diagnostic. It
//! cannot say whether any alternative matching actually changes the
//! program's observable behavior, and for the metrics this repository
//! reports that is the question that matters: a racy matching means the
//! run's timings, wait-state attribution, and even deadlock-freedom are
//! one sample from a distribution, not a measurement.
//!
//! This crate upgrades each warning to a **verdict** by stateless model
//! checking in the style of ISP, built on two substrate properties the
//! simulator's scheduler provides: runs are deterministic, and every
//! wildcard matching funnels through one hook
//! ([`WorldBuilder::match_controller`](mpisim::WorldBuilder::match_controller)).
//!
//! * [`ScheduleController`] records the canonical decision sequence of a
//!   run and replays forced alternatives;
//! * [`explore`] walks the tree of reachable matchings depth-first under
//!   a schedule budget, fingerprinting each run's artifacts;
//! * [`Report`] carries per-site verdicts — **confirmed** (a replayable
//!   witness pair whose artifacts diverge, or an alternative matching
//!   that deadlocks), **refuted** (all reachable matchings
//!   byte-identical; exhaustive when the tree fit in the budget), or
//!   **trivially refuted** (only one live sender) — as text, JSON, and
//!   Error-severity [`Diagnostic`](mpisim::Diagnostic)s;
//! * [`Schedule`] serializes witnesses so `profile --replay-schedule`
//!   reproduces either side of a confirmed race deterministically.

pub mod controller;
pub mod explore;
pub mod report;
pub mod schedule;

pub use controller::ScheduleController;
pub use explore::{explore, fingerprint, Confirmation, Report, RunOutcome, Site, Verdict};
pub use schedule::{Decision, Schedule};
