//! Point-to-point matching: the rule that picks a queued message for a
//! receive, and the world-wide state around it.
//!
//! Each world rank owns one queue of incoming [`Envelope`]s. The queues
//! live inside the world's scheduler (`crate::des`), which runs one rank
//! at a time on every engine: a sender deposits into the receiver's queue
//! and re-queues the receiver; a receive that finds no match suspends its
//! fiber until a deposit wakes it. Matching scans in arrival order, which
//! preserves MPI's non-overtaking rule for a fixed `(source, communicator)`
//! pair because a sender deposits its messages in program order. This
//! module holds the matching rule itself ([`take_from_queue`], the single
//! matching site) and what the ranks share beyond the queues
//! ([`MailboxSet`]).
//!
//! Matching participates in world poisoning: when any rank fails, waiters
//! are woken and unwind instead of blocking forever.

use crate::control::{MatchCandidate, MatchController};
use crate::error::POISONED_MSG;
use crate::event::CommId;
use crate::message::{Envelope, Src, TagSel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Remove one matching message from `queue`, if any, honoring an optional
/// [`MatchController`] on wildcard receives.
///
/// This is the single matching site, so a controller observes the same
/// candidate sets and decision points on every engine. With `observe`, a
/// wildcard receive also reports every queued message matching the
/// selectors as `(sender world rank, tag)` — the exact candidate set a
/// race analyzer joins on. A named source reports none: non-overtaking
/// leaves it no choice to observe, so it allocates no list.
///
/// The controller is only consulted for [`Src::Any`] receives (named
/// sources have no choice to make: non-overtaking pins the match), and it
/// chooses among the *earliest queued message per distinct sender* — the
/// set of matchings a standards-compliant MPI could produce. Candidate
/// index 0 is the default (arrival-order) pick.
///
/// Out of line on purpose: inlined into its one caller the scan compiles
/// to a loop a third slower on a 4096-deep queue (the benchmark's
/// `mpisim.mailbox.reverse_drain_*`).
#[inline(never)]
pub(crate) fn take_from_queue(
    queue: &mut Vec<Envelope>,
    receiver: usize,
    comm: CommId,
    src: Src,
    tag: TagSel,
    observe: bool,
    controller: Option<&dyn MatchController>,
) -> Option<(Envelope, Vec<(usize, i32)>)> {
    let first = queue.iter().position(|e| e.matches(comm, src, tag))?;
    let candidates = if observe && src == Src::Any {
        queue
            .iter()
            .filter(|e| e.matches(comm, src, tag))
            .map(|e| (e.src_world, e.tag))
            .collect()
    } else {
        Vec::new()
    };
    let pos = match (controller, src) {
        (Some(ctl), Src::Any) => {
            let mut positions: Vec<usize> = Vec::new();
            let mut options: Vec<MatchCandidate> = Vec::new();
            for (i, e) in queue.iter().enumerate() {
                if e.matches(comm, src, tag) && !options.iter().any(|c| c.src_world == e.src_world)
                {
                    positions.push(i);
                    options.push(MatchCandidate {
                        src_world: e.src_world,
                        src_local: e.src_local,
                        tag: e.tag,
                        seq: e.seq,
                    });
                }
            }
            let choice = ctl.choose(receiver, &options).min(options.len() - 1);
            positions[choice]
        }
        _ => first,
    };
    Some((queue.remove(pos), candidates))
}

/// Shared poison flag for a world.
#[derive(Debug, Default)]
pub struct Poison {
    flag: AtomicBool,
}

impl Poison {
    /// Mark the world as failed.
    pub fn set(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has any rank failed?
    #[inline]
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Unwind the calling thread if the world is poisoned.
    #[inline]
    pub fn check(&self) {
        if self.is_set() {
            panic!("{POISONED_MSG}");
        }
    }
}

/// What the ranks of a world share about point-to-point matching besides
/// the queues themselves: the poison flag and the wildcard-match policy.
#[derive(Default)]
pub struct MailboxSet {
    pub poison: Poison,
    /// Steers wildcard matches when a verifier drives the world; `None`
    /// (the default) keeps arrival-order matching.
    pub(crate) controller: Option<Arc<dyn MatchController>>,
}

impl MailboxSet {
    /// The attached wildcard-match controller, if any.
    #[inline]
    pub(crate) fn controller(&self) -> Option<&dyn MatchController> {
        self.controller.as_deref()
    }

    /// Poison the world and make every suspended rank runnable, so each
    /// unwinds from its wait when the scheduler gets to it.
    pub fn poison_all(&self) {
        self.poison.set();
        crate::des::with_active(|s| s.wake_all());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use crate::{Engine, RunError, WorldBuilder};
    use machine::VTime;
    use parking_lot::Mutex;

    fn envelope(src: usize, tag: i32, seq: u64) -> Envelope {
        Envelope {
            comm: CommId::WORLD,
            src_local: src,
            src_world: src,
            tag,
            send_end: VTime::ZERO,
            seq,
            payload: Payload::real(&[seq as u32]),
        }
    }

    /// An uncontrolled, unobserved take by rank 0 on the world communicator.
    fn take(queue: &mut Vec<Envelope>, src: Src, tag: TagSel) -> Option<Envelope> {
        take_from_queue(queue, 0, CommId::WORLD, src, tag, false, None).map(|(e, _)| e)
    }

    #[test]
    fn deposit_then_take() {
        let mut queue = vec![envelope(1, 5, 0)];
        assert!(take(&mut queue, Src::Rank(2), TagSel::Is(5)).is_none());
        let e = take(&mut queue, Src::Rank(1), TagSel::Is(5)).expect("queued");
        assert_eq!(e.src_local, 1);
        assert!(queue.is_empty());
    }

    #[test]
    fn non_overtaking_per_source() {
        let mut queue = vec![envelope(1, 5, 0), envelope(1, 5, 1)];
        let a = take(&mut queue, Src::Rank(1), TagSel::Is(5)).expect("first");
        let b = take(&mut queue, Src::Rank(1), TagSel::Is(5)).expect("second");
        assert!(a.seq < b.seq);
    }

    #[test]
    fn selective_matching_skips_nonmatching() {
        let mut queue = vec![envelope(1, 5, 0), envelope(2, 7, 1)];
        let e = take(&mut queue, Src::Rank(2), TagSel::Any).expect("queued");
        assert_eq!(e.src_local, 2);
        assert_eq!(queue.len(), 1);
    }

    #[test]
    fn observed_take_reports_all_candidates() {
        // The last message's tag does not match.
        let mut queue = vec![envelope(1, 5, 0), envelope(2, 5, 1), envelope(3, 9, 2)];
        let (e, candidates) = take_from_queue(
            &mut queue,
            0,
            CommId::WORLD,
            Src::Any,
            TagSel::Is(5),
            true,
            None,
        )
        .expect("two match");
        assert_eq!(e.seq, 0, "arrival order wins");
        assert_eq!(candidates, vec![(1, 5), (2, 5)]);
        // A named source has no choice to report, observed or not.
        queue.insert(0, envelope(2, 5, 3));
        let (e, candidates) = take_from_queue(
            &mut queue,
            0,
            CommId::WORLD,
            Src::Rank(2),
            TagSel::Is(5),
            true,
            None,
        )
        .expect("two from rank 2");
        assert_eq!(e.seq, 3);
        assert!(candidates.is_empty());
        // Without observation the candidate list stays empty.
        let (e, candidates) = take_from_queue(
            &mut queue,
            0,
            CommId::WORLD,
            Src::Any,
            TagSel::Any,
            false,
            None,
        )
        .expect("two left");
        assert_eq!(e.seq, 1);
        assert!(candidates.is_empty());
    }

    /// Ranks 0 and 2 receive from rank 1, which runs between them on
    /// either engine: whichever receiver goes first finds nothing, sleeps,
    /// and is woken by the deposit.
    #[test]
    fn blocking_take_wakes_on_deposit() {
        for engine in [Engine::Des, Engine::Threads] {
            let order = Mutex::new(Vec::new());
            let report = WorldBuilder::new(3).engine(engine).run(|p| {
                let world = p.world();
                order.lock().push(p.world_rank());
                if p.world_rank() == 1 {
                    world.send(p, 0, 1, &[42u64]);
                    world.send(p, 2, 1, &[42u64]);
                    return 42;
                }
                world.recv::<u64>(p, Src::Rank(1), TagSel::Is(1)).data[0]
            });
            assert_eq!(report.expect("no rank hangs").results, [42; 3]);
            assert_eq!(order.lock()[1], 1, "a receiver ran, and slept, first");
        }
    }

    /// One receiver is asleep when the world is poisoned, the other comes
    /// to its receive afterwards: both unwind.
    #[test]
    fn poison_unblocks_waiters() {
        for engine in [Engine::Des, Engine::Threads] {
            let failed = WorldBuilder::new(3).engine(engine).run(|p| {
                if p.world_rank() == 1 {
                    p.mailboxes.poison_all();
                    return;
                }
                let _ = p.world().recv::<u8>(p, Src::Any, TagSel::Any);
            });
            match failed {
                Err(RunError::RankPanicked { message, .. }) => {
                    assert!(message.contains("poisoned"), "{message}");
                }
                other => panic!("waiters should unwind on poison, got {other:?}"),
            }
        }
    }
}
