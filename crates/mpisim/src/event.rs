//! Tool-visible runtime events — the simulator's PMPI layer.
//!
//! Real MPI tools interpose on the profiling interface (PMPI): every MPI
//! function has a `PMPI_` twin and a tool redefines the public symbol to
//! observe the call. Our in-process equivalent raises a typed [`MpiEvent`]
//! for what a tool reads of a call, not for the call itself: each message
//! sent and matched, each collective rendezvous entered and left, each
//! modeled compute advance, Init/Finalize, and the
//! `MPIX_Section_enter/leave` notifications of the paper (Fig. 2), whose
//! 32-byte tool data blob stays with the section runtime's tools. A
//! section event names its section by [`Label`], an id into the
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
    /// `MPIX_Section_enter` notification (the paper's enter callback).
    SectionEnter {
        comm: CommId,
        label: Label,
        time: VTime,
    },
    /// `MPIX_Section_leave` notification (the paper's leave callback).
    SectionLeave {
        comm: CommId,
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
    /// receive is priced, as its call (Recv, Wait or Sendrecv) returns;
    /// `time` is the instant the receive was posted, which is also the
    /// instant it matched (the rank's clock does not move while it waits).
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
        /// When the enclosing call returned: the rank's clock once the
        /// receive is priced, which nothing advances before the call
        /// returns, so no later event of the rank is earlier.
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

/// Discriminant of an [`MpiEvent`], used for interest masks: one bit of
/// an [`EventMask`] per kind, numbered densely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(u32)]
pub enum EventKind {
    Init = 0,
    Finalize = 1,
    SectionEnter = 2,
    SectionLeave = 3,
    SendEnqueued = 4,
    RecvMatched = 5,
    CollectiveEnter = 6,
    CollectiveExit = 7,
    Compute = 8,
}

/// A set of [`EventKind`]s a tool wants delivered (see
/// [`crate::Tool::interests`]). The runtime unions the masks of all
/// attached tools and skips *constructing* events nobody asked for: a
/// world whose tools read only sections builds no message, collective or
/// compute event, and a wildcard receive collects its candidate list only
/// when some tool asked for [`EventKind::RecvMatched`].
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
    fn event_time_accessor() {
        let e = MpiEvent::Init {
            size: 4,
            time: VTime::from_nanos(7),
        };
        assert_eq!(e.time(), VTime::from_nanos(7));
        let e = MpiEvent::SectionEnter {
            comm: CommId::WORLD,
            label: Label::intern("HALO"),
            time: VTime::from_nanos(9),
        };
        assert_eq!(e.time(), VTime::from_nanos(9));
        let e = MpiEvent::SectionLeave {
            comm: CommId::WORLD,
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
        assert!(!EventMask::LIFECYCLE.contains(EventKind::SectionEnter));
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
            time: VTime::from_nanos(5),
        };
        assert_eq!(e.time(), VTime::from_nanos(5));
    }
}
