//! Match control: the hook a dynamic verifier uses to steer wildcard
//! receives.
//!
//! A wildcard ([`Src::Any`]) receive with several distinct senders queued
//! at match time is the one place this runtime's behavior is a *choice*
//! rather than a consequence of virtual time: real MPI may deliver any of
//! the candidates first. By default the simulator resolves the choice by
//! arrival order (deterministically: one scheduler decides who runs next
//! on either engine). A
//! [`MatchController`] attached via
//! [`WorldBuilder::match_controller`](crate::WorldBuilder::match_controller)
//! is consulted at exactly these points instead, which lets a
//! stateless-model-checking driver (the `mpiverify` crate) record the
//! canonical choice sequence on a first run and replay alternative
//! matchings on later runs.
//!
//! The candidate set handed to the controller is the *earliest queued
//! message per distinct sender*, in arrival order. Per-sender order is
//! pinned by MPI's non-overtaking rule, so these are precisely the
//! matchings a standard-compliant MPI could produce; index 0 is the
//! message the uncontrolled runtime would pick, so a controller that
//! always answers `0` reproduces the default behavior bit for bit.
//!
//! The controller is consulted even when only one sender is queued: a
//! verifier needs those consultations to keep its per-receiver decision
//! slots aligned across runs (and to report single-candidate wildcard
//! sites as trivially race-free).
//!
//! [`Src::Any`]: crate::Src

/// One matchable in-flight message offered to a [`MatchController`]: the
/// earliest queued message of one distinct sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchCandidate {
    /// Sender's world rank.
    pub src_world: usize,
    /// Sender's rank local to the receive's communicator.
    pub src_local: usize,
    /// The message tag.
    pub tag: i32,
    /// The message's global sequence number (sender rank in the high
    /// bits over a per-sender counter — stable across engines and runs).
    pub seq: u64,
}

/// Decides which candidate a wildcard receive consumes.
///
/// Implementations must be cheap and deterministic: the controller runs
/// on the hot receive path, and replay correctness rests on the same
/// inputs producing the same answers. Out-of-range answers are clamped
/// to the last candidate.
pub trait MatchController: Send + Sync {
    /// Pick the index (into `candidates`) of the message `receiver`'s
    /// wildcard receive should consume. `candidates` is never empty and
    /// lists the earliest queued message per distinct sender, in arrival
    /// order; answering `0` reproduces the uncontrolled behavior.
    fn choose(&self, receiver: usize, candidates: &[MatchCandidate]) -> usize;
}
