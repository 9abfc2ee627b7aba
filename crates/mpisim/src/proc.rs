//! The per-rank execution context.
//!
//! A [`Proc`] is handed to the SPMD function of every rank. It owns the
//! rank's virtual clock, its deterministic noise streams, and the handles
//! into the shared world (mailboxes, the world communicator, tools). All
//! simulated cost flows through this type: computation via [`Proc::compute`],
//! communication via the operations on [`crate::Comm`].

use crate::comm::{Comm, CommShared};
use crate::event::{EventKind, MpiEvent};
use crate::mailbox::MailboxSet;
use crate::tool::ToolSet;
use machine::{DetRng, MachineModel, RankStream, VTime, Work};
use std::sync::Arc;

/// Per-rank execution context (the simulated "MPI process").
pub struct Proc {
    pub(crate) world_rank: usize,
    pub(crate) nranks: usize,
    pub(crate) now: VTime,
    pub(crate) machine: Arc<MachineModel>,
    pub(crate) compute_rng: DetRng,
    pub(crate) net_rng: DetRng,
    pub(crate) tools: ToolSet,
    pub(crate) mailboxes: Arc<MailboxSet>,
    /// Count of messages this rank has sent; the low bits of its message
    /// sequence numbers (see [`Proc::next_seq`]).
    pub(crate) sent: u64,
    pub(crate) seed: u64,
    pub(crate) ranks_on_my_node: usize,
    pub(crate) world_shared: Arc<CommShared>,
}

impl Proc {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        world_rank: usize,
        nranks: usize,
        machine: Arc<MachineModel>,
        tools: ToolSet,
        mailboxes: Arc<MailboxSet>,
        seed: u64,
        world_shared: Arc<CommShared>,
    ) -> Self {
        let topo = machine.topology;
        let ranks_on_my_node = topo.ranks_on_node(topo.node_of(world_rank), nranks);
        Proc {
            world_rank,
            nranks,
            now: VTime::ZERO,
            compute_rng: DetRng::for_rank(seed, world_rank, RankStream::Compute),
            net_rng: DetRng::for_rank(seed, world_rank, RankStream::Network),
            machine,
            tools,
            mailboxes,
            sent: 0,
            seed,
            ranks_on_my_node,
            world_shared,
        }
    }

    /// This rank's index in the world communicator.
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.nranks
    }

    /// The world communicator.
    pub fn world(&self) -> Comm {
        Comm::from_shared(self.world_shared.clone(), self.world_rank)
    }

    /// Current virtual time on this rank.
    #[inline]
    pub fn now(&self) -> VTime {
        self.now
    }

    /// The machine model the world runs on.
    #[inline]
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Number of world ranks placed on this rank's node.
    #[inline]
    pub fn ranks_on_node(&self) -> usize {
        self.ranks_on_my_node
    }

    /// Advance the local clock by an exact amount (no noise).
    #[inline]
    pub fn advance(&mut self, dt: VTime) {
        self.now += dt;
    }

    /// Advance the local clock by fractional seconds (no noise).
    #[inline]
    pub fn advance_secs(&mut self, secs: f64) {
        self.now += VTime::from_secs_f64(secs);
    }

    /// Charge a chunk of computation to this rank: the machine model prices
    /// it (with memory contention from the other ranks on this node) and
    /// the noise model jitters it. This is the single-threaded path; hybrid
    /// codes price their threaded regions through the `shmem` crate.
    pub fn compute(&mut self, work: Work) {
        let secs = self.machine.thread_seconds_for(work, self.ranks_on_my_node);
        let factor = self.machine.noise.compute_factor(&mut self.compute_rng);
        self.advance_jittered(secs, secs * factor);
    }

    /// Advance the clock by jittered local work, telling tools both the
    /// jitter-free baseline and the actually-charged duration (an
    /// [`MpiEvent::Compute`] event). Every noise-bearing local advance in
    /// the runtime and the layered shared-memory runtime routes through
    /// here so a replay tool can null compute jitter out of a trace.
    pub fn advance_jittered(&mut self, base_secs: f64, actual_secs: f64) {
        let base = VTime::from_secs_f64(base_secs);
        let elapsed = VTime::from_secs_f64(actual_secs);
        if self.wants(EventKind::Compute) {
            self.raise(MpiEvent::Compute {
                base,
                elapsed,
                time: self.now,
            });
        }
        self.now += elapsed;
    }

    /// Price `work` under an explicit contention level without advancing
    /// the clock (building block for the shared-memory layer).
    pub fn price_contended(&self, work: Work, active_threads: usize) -> f64 {
        self.machine.thread_seconds_for(work, active_threads)
    }

    /// Draw one compute-jitter factor (median 1) from this rank's stream.
    pub fn jitter_factor(&mut self) -> f64 {
        self.machine.noise.compute_factor(&mut self.compute_rng)
    }

    /// Raise a PMPI-level event to all registered tools.
    #[inline]
    pub fn raise(&self, event: MpiEvent) {
        if !self.tools.is_empty() {
            self.tools.raise(self.world_rank, &event);
        }
    }

    /// Does any attached tool subscribe to events of `kind`? Hot paths
    /// (inside the runtime and in layered runtimes like `mpi-sections`)
    /// check this before building an event at all.
    #[inline]
    pub fn wants(&self, kind: EventKind) -> bool {
        self.tools.wants(kind)
    }

    /// Next message sequence number: [`crate::message::seq_of`] this
    /// rank and its send count. Globally unique and — unlike a shared
    /// atomic counter — independent of how ranks interleave, so trace flow
    /// ids and analyzer join keys are identical across both execution
    /// engines and across reruns.
    #[inline]
    pub(crate) fn next_seq(&mut self) -> u64 {
        let n = self.sent;
        self.sent += 1;
        crate::message::seq_of(self.world_rank, n)
    }
}

impl std::fmt::Debug for Proc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proc")
            .field("world_rank", &self.world_rank)
            .field("nranks", &self.nranks)
            .field("now", &self.now)
            .finish()
    }
}
