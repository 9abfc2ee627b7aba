//! Tool-visible runtime events — the simulator's PMPI layer.
//!
//! Real MPI tools interpose on the profiling interface (PMPI): every MPI
//! function has a `PMPI_` twin and a tool redefines the public symbol to
//! observe the call. Our in-process equivalent raises a typed [`MpiEvent`]
//! at the entry and exit of every communication call, at Init/Finalize, and
//! for the `MPIX_Section_enter/leave` notifications of the paper (Fig. 2),
//! whose 32-byte tool data blob stays with the section runtime's tools.
//! A section event names its section by [`Label`], an id into the
//! process-wide label table.

use crate::label::Label;
use machine::VTime;

/// Identifies a communicator within one world. The world communicator is
/// always id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(pub u64);

impl CommId {
    /// The world communicator.
    pub const WORLD: CommId = CommId(0);
}

/// Which MPI-level operation an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MpiCall {
    Send,
    Recv,
    Sendrecv,
    Isend,
    Irecv,
    Wait,
    Barrier,
    Bcast,
    Scatter,
    Scatterv,
    Gather,
    Gatherv,
    Allgather,
    Reduce,
    Allreduce,
    CommDup,
    CommSplit,
}

impl MpiCall {
    /// Human-readable MPI-style name.
    pub fn name(&self) -> &'static str {
        match self {
            MpiCall::Send => "MPI_Send",
            MpiCall::Recv => "MPI_Recv",
            MpiCall::Sendrecv => "MPI_Sendrecv",
            MpiCall::Isend => "MPI_Isend",
            MpiCall::Irecv => "MPI_Irecv",
            MpiCall::Wait => "MPI_Wait",
            MpiCall::Barrier => "MPI_Barrier",
            MpiCall::Bcast => "MPI_Bcast",
            MpiCall::Scatter => "MPI_Scatter",
            MpiCall::Scatterv => "MPI_Scatterv",
            MpiCall::Gather => "MPI_Gather",
            MpiCall::Gatherv => "MPI_Gatherv",
            MpiCall::Allgather => "MPI_Allgather",
            MpiCall::Reduce => "MPI_Reduce",
            MpiCall::Allreduce => "MPI_Allreduce",
            MpiCall::CommDup => "MPI_Comm_dup",
            MpiCall::CommSplit => "MPI_Comm_split",
        }
    }

    /// True for operations that involve every rank of the communicator.
    pub fn is_collective(&self) -> bool {
        matches!(
            self,
            MpiCall::Barrier
                | MpiCall::Bcast
                | MpiCall::Scatter
                | MpiCall::Scatterv
                | MpiCall::Gather
                | MpiCall::Gatherv
                | MpiCall::Allgather
                | MpiCall::Reduce
                | MpiCall::Allreduce
                | MpiCall::CommDup
                | MpiCall::CommSplit
        )
    }
}

/// The 32-byte opaque tool-data argument of the section callback interface
/// (Fig. 2 of the paper), preserved by the runtime between enter and leave.
pub type SectionData = [u8; 32];

/// One PMPI-level event, delivered to every registered [`crate::Tool`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum MpiEvent {
    /// The rank entered the runtime (start of the SPMD function).
    Init {
        /// World size.
        size: usize,
        /// Virtual time on this rank (always zero today).
        time: VTime,
    },
    /// The rank is about to leave the runtime.
    Finalize { time: VTime },
    /// An MPI call is starting on this rank.
    CallEnter {
        call: MpiCall,
        comm: CommId,
        time: VTime,
    },
    /// An MPI call finished on this rank.
    CallExit {
        call: MpiCall,
        comm: CommId,
        time: VTime,
        /// Logical payload bytes this rank sent plus received in the call.
        bytes: u64,
    },
    /// `MPIX_Section_enter` notification (the paper's enter callback).
    SectionEnter {
        comm: CommId,
        /// Size of the communicator the section is collective over.
        comm_size: usize,
        /// Rank local to that communicator.
        comm_rank: usize,
        label: Label,
        time: VTime,
    },
    /// `MPIX_Section_leave` notification (the paper's leave callback).
    SectionLeave {
        comm: CommId,
        comm_size: usize,
        comm_rank: usize,
        /// The section that closed.
        label: Label,
        /// The rank's innermost open section after the close, on any
        /// communicator ([`Label::MAIN`] when no frame is open).
        inner: Label,
        time: VTime,
    },
    /// An eager send deposited a message into the destination's mailbox.
    /// Raised on the *sender's* thread, before the deposit becomes visible
    /// to the receiver, so an analyzer's in-flight set is always a superset
    /// of the mailboxes' actual content.
    SendEnqueued {
        comm: CommId,
        /// Destination rank, local to `comm`.
        dst_local: usize,
        /// Destination world rank.
        dst_world: usize,
        tag: i32,
        /// Global message sequence number; pairs with
        /// [`MpiEvent::RecvMatched::seq`]. A tool may rely on two facts
        /// (the communication recorder's send table does): it is
        /// [`crate::message::seq_of`] the sender's world rank and `n`,
        /// `n` dense per sender from 0; and on both engines this event
        /// precedes the message's visibility, hence its `RecvMatched`.
        seq: u64,
        /// Logical payload size of the message.
        bytes: u64,
        time: VTime,
    },
    /// A blocking receive matched and consumed a message. Raised once the
    /// receive is priced, before its call returns; `time` is the instant
    /// the receive was posted, which is also the instant it matched (the
    /// rank's clock does not move while it waits).
    RecvMatched {
        comm: CommId,
        /// Sender world rank.
        src_world: usize,
        tag: i32,
        /// Sequence number of the consumed message.
        seq: u64,
        /// Logical payload size of the consumed message.
        bytes: u64,
        /// When the consumed message departed: the `time` of its
        /// [`MpiEvent::SendEnqueued`].
        sent: VTime,
        /// For a wildcard (`Src::Any`) receive, every in-flight message
        /// that matched the selectors at the instant of consumption, as
        /// `(sender world rank, tag)`: more than one distinct sender is a
        /// message race. Empty for a named source, which non-overtaking
        /// leaves no choice (and which therefore allocates no list).
        candidates: Vec<(usize, i32)>,
        /// When the enclosing call (Recv, Wait or Sendrecv) returns: the
        /// `time` of its [`MpiEvent::CallExit`].
        done: VTime,
        time: VTime,
    },
    /// The rank arrived at a collective rendezvous and may block until the
    /// other members arrive.
    CollectiveEnter {
        /// Rendezvous operation label (e.g. `"barrier"`, `"bcast"`,
        /// `"split.exchange"`).
        op: &'static str,
        comm: CommId,
        /// The rendezvous generation the rank joins: its count of earlier
        /// collectives on `comm`, the same on every member.
        round: u64,
        /// Number of `comm`'s members.
        size: usize,
        /// Root rank (local to `comm`) for rooted collectives.
        root: Option<usize>,
        time: VTime,
    },
    /// The rank left the collective rendezvous (all members arrived).
    CollectiveExit {
        op: &'static str,
        comm: CommId,
        /// The generation the rank leaves; pairs with the `round` of its
        /// [`MpiEvent::CollectiveEnter`].
        round: u64,
        /// Total logical payload bytes of the operation, summed over
        /// members (what the cost model was charged with).
        bytes: u64,
        time: VTime,
    },
    /// The rank advanced its local clock by modeled compute (or any other
    /// local work priced through the machine model). `time` is the clock
    /// *before* the advance; `elapsed` includes performance jitter while
    /// `base` is the jitter-free duration — a replay tool subtracts the
    /// two to null out noise without re-pricing the kernel.
    Compute {
        /// Jitter-free duration of the work.
        base: VTime,
        /// Actually-charged duration (base scaled by the noise draw).
        elapsed: VTime,
        time: VTime,
    },
}

/// Discriminant of an [`MpiEvent`], used for interest masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(u32)]
pub enum EventKind {
    Init = 0,
    Finalize = 1,
    CallEnter = 2,
    CallExit = 3,
    SectionEnter = 4,
    SectionLeave = 5,
    SendEnqueued = 6,
    RecvMatched = 7,
    CollectiveEnter = 8,
    CollectiveExit = 9,
    Compute = 10,
}

/// A set of [`EventKind`]s a tool wants delivered (see
/// [`crate::Tool::interests`]). The runtime unions the masks of all
/// attached tools and skips *constructing* events nobody asked for — the
/// difference between ~600 ns and ~1.5 µs per rank-step at 16k ranks,
/// because the analyzer-grade events collect candidate vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventMask(u32);

impl EventMask {
    /// The empty mask: no events delivered.
    pub const NONE: EventMask = EventMask(0);
    /// Every current and future event kind.
    pub const ALL: EventMask = EventMask(u32::MAX);
    /// Just the run lifecycle events (`Init`/`Finalize`).
    pub const LIFECYCLE: EventMask =
        EventMask((1 << EventKind::Init as u32) | (1 << EventKind::Finalize as u32));

    /// A mask of exactly `kind`.
    pub const fn only(kind: EventKind) -> EventMask {
        EventMask(1 << kind as u32)
    }

    /// Build a mask from a list of kinds.
    pub fn of(kinds: &[EventKind]) -> EventMask {
        let mut mask = 0;
        for &k in kinds {
            mask |= 1 << k as u32;
        }
        EventMask(mask)
    }

    /// Union of two masks.
    pub const fn union(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }

    /// Add `kind` to the mask.
    pub const fn with(self, kind: EventKind) -> EventMask {
        EventMask(self.0 | (1 << kind as u32))
    }

    /// Does the mask contain `kind`?
    #[inline]
    pub const fn contains(self, kind: EventKind) -> bool {
        self.0 & (1 << kind as u32) != 0
    }

    /// Is the mask empty?
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl MpiEvent {
    /// The discriminant of the event.
    pub fn kind(&self) -> EventKind {
        match self {
            MpiEvent::Init { .. } => EventKind::Init,
            MpiEvent::Finalize { .. } => EventKind::Finalize,
            MpiEvent::CallEnter { .. } => EventKind::CallEnter,
            MpiEvent::CallExit { .. } => EventKind::CallExit,
            MpiEvent::SectionEnter { .. } => EventKind::SectionEnter,
            MpiEvent::SectionLeave { .. } => EventKind::SectionLeave,
            MpiEvent::SendEnqueued { .. } => EventKind::SendEnqueued,
            MpiEvent::RecvMatched { .. } => EventKind::RecvMatched,
            MpiEvent::CollectiveEnter { .. } => EventKind::CollectiveEnter,
            MpiEvent::CollectiveExit { .. } => EventKind::CollectiveExit,
            MpiEvent::Compute { .. } => EventKind::Compute,
        }
    }

    /// The virtual timestamp carried by the event.
    pub fn time(&self) -> VTime {
        match self {
            MpiEvent::Init { time, .. }
            | MpiEvent::Finalize { time }
            | MpiEvent::CallEnter { time, .. }
            | MpiEvent::CallExit { time, .. }
            | MpiEvent::SectionEnter { time, .. }
            | MpiEvent::SectionLeave { time, .. }
            | MpiEvent::SendEnqueued { time, .. }
            | MpiEvent::RecvMatched { time, .. }
            | MpiEvent::CollectiveEnter { time, .. }
            | MpiEvent::CollectiveExit { time, .. }
            | MpiEvent::Compute { time, .. } => *time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_names() {
        assert_eq!(MpiCall::Send.name(), "MPI_Send");
        assert_eq!(MpiCall::Allreduce.name(), "MPI_Allreduce");
    }

    #[test]
    fn collective_classification() {
        assert!(MpiCall::Barrier.is_collective());
        assert!(MpiCall::CommSplit.is_collective());
        assert!(!MpiCall::Send.is_collective());
        assert!(!MpiCall::Irecv.is_collective());
    }

    #[test]
    fn event_time_accessor() {
        let e = MpiEvent::Init {
            size: 4,
            time: VTime::from_nanos(7),
        };
        assert_eq!(e.time(), VTime::from_nanos(7));
        let e = MpiEvent::SectionEnter {
            comm: CommId::WORLD,
            comm_size: 4,
            comm_rank: 0,
            label: Label::intern("HALO"),
            time: VTime::from_nanos(9),
        };
        assert_eq!(e.time(), VTime::from_nanos(9));
        let e = MpiEvent::SectionLeave {
            comm: CommId::WORLD,
            comm_size: 4,
            comm_rank: 0,
            label: Label::intern("HALO"),
            inner: Label::MAIN,
            time: VTime::from_nanos(11),
        };
        assert_eq!(e.time(), VTime::from_nanos(11));
    }

    #[test]
    fn event_masks_gate_by_kind() {
        let mask = EventMask::of(&[EventKind::Init, EventKind::RecvMatched]);
        assert!(mask.contains(EventKind::Init));
        assert!(mask.contains(EventKind::RecvMatched));
        assert!(!mask.contains(EventKind::SendEnqueued));
        assert!(EventMask::ALL.contains(EventKind::Compute));
        assert!(EventMask::NONE.is_empty());
        assert!(EventMask::LIFECYCLE.contains(EventKind::Finalize));
        assert!(!EventMask::LIFECYCLE.contains(EventKind::CallEnter));
        let grown = EventMask::only(EventKind::Init).with(EventKind::Finalize);
        assert_eq!(grown, EventMask::LIFECYCLE);
        let e = MpiEvent::Finalize {
            time: VTime::from_nanos(1),
        };
        assert_eq!(e.kind(), EventKind::Finalize);
    }

    #[test]
    fn analyzer_event_times() {
        // A receive's time is its post, not the return of its call.
        let e = MpiEvent::RecvMatched {
            comm: CommId::WORLD,
            src_world: 1,
            tag: 0,
            seq: 0,
            bytes: 8,
            sent: VTime::from_nanos(1),
            candidates: Vec::new(),
            done: VTime::from_nanos(4),
            time: VTime::from_nanos(3),
        };
        assert_eq!(e.time(), VTime::from_nanos(3));
        let e = MpiEvent::CollectiveEnter {
            op: "barrier",
            comm: CommId::WORLD,
            round: 0,
            size: 2,
            root: None,
            time: VTime::from_nanos(5),
        };
        assert_eq!(e.time(), VTime::from_nanos(5));
    }
}
