//! The conservative discrete-event scheduler behind `--engine des`.
//!
//! One OS thread drives every rank of a world as a cooperative fiber
//! (see [`crate::fiber`]). Runnable ranks sit in a binary heap keyed by
//! `(virtual clock, world rank)` — the rank id is the deterministic
//! tie-break, so two ranks reaching the same virtual time always run in
//! the same order and a seeded run replays bit-identically. A blocking
//! operation (receive match, collective arrival) suspends its fiber
//! instead of parking an OS thread on a condvar; the peer that satisfies
//! the wait re-queues the sleeper at the clock it blocked with.
//!
//! Conservative ordering: the scheduler never speculates. A rank runs
//! until it *cannot* proceed (no matching message / collective not yet
//! complete), and every virtual timestamp a rank observes is carried on
//! the message or collective record itself, so results are independent of
//! the order in which runnable ranks are interleaved. The heap order only
//! decides *fairness* and determinism, never timing.
//!
//! Non-blocking probes get a third state: a rank that polls and misses is
//! parked as a *poller* and revived when a message lands in its mailbox
//! or when the ready queue drains — so `test`/`probe` spin loops make
//! progress without busy-looping the single scheduler thread, and a probe
//! still observes "not here yet" exactly as it can under real MPI.
//!
//! When the ready queue is empty, no pollers remain, and live ranks are
//! still blocked, the world is provably deadlocked (no message can ever
//! arrive); the scheduler poisons it so every blocked rank unwinds, and
//! the harness reports the deadlock instead of hanging.
#![allow(unsafe_code)]

use crate::event::CommId;
use crate::mailbox::Poison;
use crate::message::{Envelope, Src, TagSel};
use machine::VTime;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// What a rank's fiber is doing, from the scheduler's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Queued in the ready heap.
    Ready,
    /// Currently executing on the scheduler thread.
    Running,
    /// Suspended until a peer calls [`Scheduler::wake`].
    Blocked,
    /// Suspended after a missed probe; revived by a deposit or when the
    /// ready heap drains.
    Polling,
    /// Entry function returned (or unwound into the rank's catch net).
    Done,
}

struct Slot {
    state: RankState,
    /// The rank's virtual clock when it last entered the scheduler; the
    /// heap key it is re-queued with.
    clock: VTime,
}

/// Scheduler state for one world. Single-threaded by construction: it
/// lives behind an `Rc` installed in a thread-local while the world runs.
pub(crate) struct Scheduler {
    ready: RefCell<BinaryHeap<Reverse<(VTime, usize)>>>,
    slots: RefCell<Vec<Slot>>,
    /// Per-rank incoming-message queues. Under the DES engine the whole
    /// world runs on one OS thread, so p2p matching needs no mutex: the
    /// mailbox layer routes deposits and takes here (plain `RefCell`
    /// borrows) whenever a scheduler is installed.
    queues: RefCell<Vec<Vec<Envelope>>>,
    current: Cell<usize>,
    deadlocked: Cell<bool>,
}

impl Scheduler {
    pub(crate) fn new(nranks: usize) -> Scheduler {
        let mut ready = BinaryHeap::with_capacity(nranks);
        for rank in 0..nranks {
            ready.push(Reverse((VTime::ZERO, rank)));
        }
        Scheduler {
            ready: RefCell::new(ready),
            slots: RefCell::new(
                (0..nranks)
                    .map(|_| Slot {
                        state: RankState::Ready,
                        clock: VTime::ZERO,
                    })
                    .collect(),
            ),
            queues: RefCell::new((0..nranks).map(|_| Vec::new()).collect()),
            current: Cell::new(usize::MAX),
            deadlocked: Cell::new(false),
        }
    }

    /// Deposit a message into `rank`'s queue (lock-free p2p fast path).
    #[inline]
    pub(crate) fn deposit(&self, rank: usize, envelope: Envelope) {
        self.queues.borrow_mut()[rank].push(envelope);
    }

    /// Remove the first message in `rank`'s queue matching the selectors,
    /// if any. With `observe`, also report every matching candidate as
    /// `(sender world rank, tag)` — exact because nothing else can run
    /// between the scan and the removal on the single scheduler thread.
    /// Wildcard matches are resolved through `controller` when one is
    /// given (the verification hook — see [`crate::control`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn try_take(
        &self,
        rank: usize,
        comm: CommId,
        src: Src,
        tag: TagSel,
        observe: bool,
        controller: Option<&dyn crate::control::MatchController>,
    ) -> Option<(Envelope, Vec<(usize, i32)>)> {
        let mut queues = self.queues.borrow_mut();
        let queue = &mut queues[rank];
        crate::mailbox::take_from_queue(queue, rank, comm, src, tag, observe, controller)
    }

    /// The whole blocking-receive operation in one scheduler call: note
    /// `rank`'s clock (the key a waker re-queues it with), then take the
    /// first matching message, suspending the fiber between misses. Doing
    /// it here keeps the hot p2p receive path down to a single
    /// thread-local dispatch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recv_match(
        &self,
        rank: usize,
        now: VTime,
        comm: CommId,
        src: Src,
        tag: TagSel,
        observe: bool,
        poison: &Poison,
        controller: Option<&dyn crate::control::MatchController>,
    ) -> (Envelope, Vec<(usize, i32)>) {
        self.slots.borrow_mut()[rank].clock = now;
        loop {
            poison.check();
            if let Some(hit) = self.try_take(rank, comm, src, tag, observe, controller) {
                return hit;
            }
            self.block_current();
        }
    }

    /// Is a matching message already queued for `rank`?
    pub(crate) fn queue_probe(&self, rank: usize, comm: CommId, src: Src, tag: TagSel) -> bool {
        self.queues.borrow()[rank]
            .iter()
            .any(|e| e.matches(comm, src, tag))
    }

    /// Queued-message count for `rank` (diagnostics).
    pub(crate) fn queue_len(&self, rank: usize) -> usize {
        self.queues.borrow()[rank].len()
    }

    /// Did the scheduler poison the world because every live rank was
    /// blocked with no way to make progress?
    pub(crate) fn deadlocked(&self) -> bool {
        self.deadlocked.get()
    }

    /// Record `rank`'s virtual clock ahead of a potentially blocking
    /// operation, so a later [`Scheduler::wake`] re-queues it correctly.
    #[inline]
    pub(crate) fn note_clock(&self, rank: usize, clock: VTime) {
        self.slots.borrow_mut()[rank].clock = clock;
    }

    /// Suspend the current rank until a peer wakes it.
    pub(crate) fn block_current(&self) {
        self.slots.borrow_mut()[self.current.get()].state = RankState::Blocked;
        crate::fiber::suspend_current();
    }

    /// Suspend the current rank after a missed probe; it is revived by
    /// the next deposit into its mailbox or when the ready heap drains.
    pub(crate) fn park_poller(&self) {
        self.slots.borrow_mut()[self.current.get()].state = RankState::Polling;
        crate::fiber::suspend_current();
    }

    /// Make `rank` runnable again (no-op unless it is blocked/polling).
    pub(crate) fn wake(&self, rank: usize) {
        let mut slots = self.slots.borrow_mut();
        let slot = &mut slots[rank];
        if matches!(slot.state, RankState::Blocked | RankState::Polling) {
            slot.state = RankState::Ready;
            self.ready.borrow_mut().push(Reverse((slot.clock, rank)));
        }
    }

    /// Drive every fiber to completion. `poison_world` is invoked once if
    /// a deadlock is detected, before the blocked ranks are revived to
    /// unwind.
    pub(crate) fn drive(&self, fibers: &mut [crate::fiber::Fiber<'_>], poison_world: &dyn Fn()) {
        let nranks = fibers.len();
        let mut ndone = 0usize;
        while ndone < nranks {
            let next = self.ready.borrow_mut().pop();
            let Some(Reverse((_, rank))) = next else {
                // Ready heap empty. Revive pollers first: a poller's spin
                // loop owns the decision to keep polling or give up.
                let mut revived = false;
                {
                    let mut slots = self.slots.borrow_mut();
                    let mut ready = self.ready.borrow_mut();
                    for (rank, slot) in slots.iter_mut().enumerate() {
                        if slot.state == RankState::Polling {
                            slot.state = RankState::Ready;
                            ready.push(Reverse((slot.clock, rank)));
                            revived = true;
                        }
                    }
                }
                if revived {
                    continue;
                }
                // No runnable rank, no poller, not everyone done: the
                // remaining ranks wait on messages that can never arrive.
                self.deadlocked.set(true);
                poison_world();
                let blocked: Vec<usize> = {
                    let slots = self.slots.borrow();
                    (0..nranks)
                        .filter(|&r| slots[r].state == RankState::Blocked)
                        .collect()
                };
                for rank in blocked {
                    self.wake(rank);
                }
                continue;
            };
            self.slots.borrow_mut()[rank].state = RankState::Running;
            self.current.set(rank);
            let done = fibers[rank].resume();
            self.current.set(usize::MAX);
            let mut slots = self.slots.borrow_mut();
            if done {
                slots[rank].state = RankState::Done;
                ndone += 1;
            } else if slots[rank].state == RankState::Running {
                // The fiber suspended without declaring why (defensive:
                // no simulator path does this). Treat it as a plain yield.
                slots[rank].state = RankState::Ready;
                self.ready
                    .borrow_mut()
                    .push(Reverse((slots[rank].clock, rank)));
            }
        }
    }
}

thread_local! {
    /// The scheduler of the world currently driven by this OS thread.
    /// A raw pointer kept alive by the `Rc` inside [`InstallGuard`];
    /// cleared (also on unwind) when the guard drops.
    static ACTIVE: Cell<*const Scheduler> = const { Cell::new(std::ptr::null()) };
}

/// RAII installation of a scheduler into this thread's slot.
pub(crate) struct InstallGuard {
    _keep_alive: Rc<Scheduler>,
}

pub(crate) fn install(scheduler: Rc<Scheduler>) -> InstallGuard {
    ACTIVE.with(|active| {
        assert!(
            active.get().is_null(),
            "mpisim: nested DES worlds on one thread are not supported"
        );
        active.set(Rc::as_ptr(&scheduler));
    });
    InstallGuard {
        _keep_alive: scheduler,
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ACTIVE.with(|active| active.set(std::ptr::null()));
    }
}

/// Run `f` against the active scheduler, if this thread is driving one.
/// The cheap null check is the engine dispatch on every hot path: under
/// the threads engine it costs one thread-local load.
#[inline]
pub(crate) fn with_active<R>(f: impl FnOnce(&Scheduler) -> R) -> Option<R> {
    ACTIVE.with(|active| {
        let ptr = active.get();
        if ptr.is_null() {
            None
        } else {
            // SAFETY: non-null only between `install` and the guard's
            // drop, during which the Rc keeps the scheduler alive; all
            // access is from this one thread.
            Some(f(unsafe { &*ptr }))
        }
    })
}

/// Is a DES scheduler driving this thread?
#[inline]
pub(crate) fn is_active() -> bool {
    ACTIVE.with(|active| !active.get().is_null())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fiber::{Fiber, StackPool};

    fn pool(count: usize) -> StackPool {
        StackPool::acquire(32 * 1024, count).expect("stack pool")
    }

    /// Same virtual time, different ranks: the heap must always yield
    /// ascending rank ids — the deterministic tie-break the engine's
    /// reproducibility argument rests on.
    #[test]
    fn equal_time_events_pop_in_rank_order() {
        let mut heap: BinaryHeap<Reverse<(VTime, usize)>> = BinaryHeap::new();
        // Insert in scrambled order, all at the same clock.
        for rank in [7usize, 2, 9, 0, 4, 1, 8, 3, 6, 5] {
            heap.push(Reverse((VTime(1000), rank)));
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| heap.pop().map(|Reverse((_, r))| r)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    /// Clock dominates rank: an earlier event runs first even when its
    /// rank id is larger.
    #[test]
    fn earlier_clock_beats_smaller_rank() {
        let mut heap: BinaryHeap<Reverse<(VTime, usize)>> = BinaryHeap::new();
        heap.push(Reverse((VTime(500), 0)));
        heap.push(Reverse((VTime(100), 9)));
        heap.push(Reverse((VTime(500), 1)));
        let order: Vec<(u64, usize)> =
            std::iter::from_fn(|| heap.pop().map(|Reverse((VTime(t), r))| (t, r))).collect();
        assert_eq!(order, vec![(100, 9), (500, 0), (500, 1)]);
    }

    /// Scheduler-level determinism: many same-clock ranks run in rank
    /// order, and a woken rank re-enters at its recorded clock.
    #[test]
    fn drive_runs_equal_clock_ranks_in_rank_order() {
        use std::cell::RefCell as StdRefCell;
        use std::rc::Rc as StdRc;
        let n = 8;
        let sched = Rc::new(Scheduler::new(n));
        let log: StdRc<StdRefCell<Vec<usize>>> = StdRc::new(StdRefCell::new(Vec::new()));
        let guard = install(sched.clone());
        let pool = pool(n);
        let mut fibers: Vec<Fiber<'_>> = (0..n)
            .map(|rank| {
                let log = log.clone();
                let body = move || {
                    log.borrow_mut().push(rank);
                };
                // SAFETY: every captured value is owned by the closure;
                // one fiber per slot.
                unsafe { pool.fiber(rank, Box::new(body)) }
            })
            .collect();
        sched.drive(&mut fibers, &|| {});
        drop(guard);
        assert_eq!(*log.borrow(), (0..n).collect::<Vec<_>>());
        assert!(!sched.deadlocked());
    }

    /// A blocked rank is revived at the clock it blocked with, after the
    /// waker runs; pure wake/block plumbing without mailboxes.
    #[test]
    fn block_and_wake_round_trip() {
        use std::cell::RefCell as StdRefCell;
        use std::rc::Rc as StdRc;
        let sched = Rc::new(Scheduler::new(2));
        let log: StdRc<StdRefCell<Vec<&'static str>>> = StdRc::new(StdRefCell::new(Vec::new()));
        let guard = install(sched.clone());
        let pool = pool(2);
        let mut fibers: Vec<Fiber<'_>> = Vec::new();
        {
            let log0 = log.clone();
            let body0 = move || {
                log0.borrow_mut().push("r0 blocks");
                with_active(|s| {
                    s.note_clock(0, VTime(10));
                    s.block_current();
                })
                .unwrap();
                log0.borrow_mut().push("r0 resumed");
            };
            // SAFETY: captured values are owned; one fiber per slot.
            fibers.push(unsafe { pool.fiber(0, Box::new(body0)) });
            let log1 = log.clone();
            let body1 = move || {
                log1.borrow_mut().push("r1 wakes r0");
                with_active(|s| s.wake(0)).unwrap();
                log1.borrow_mut().push("r1 done");
            };
            // SAFETY: captured values are owned; one fiber per slot.
            fibers.push(unsafe { pool.fiber(1, Box::new(body1)) });
        }
        sched.drive(&mut fibers, &|| {});
        drop(guard);
        assert_eq!(
            *log.borrow(),
            ["r0 blocks", "r1 wakes r0", "r1 done", "r0 resumed"]
        );
    }

    /// All ranks blocked, nobody to wake them: the scheduler must call
    /// the poison hook and revive them rather than loop forever.
    #[test]
    fn deadlock_is_detected_and_poisoned() {
        let sched = Rc::new(Scheduler::new(2));
        let poisoned = Rc::new(Cell::new(false));
        let guard = install(sched.clone());
        let pool = pool(2);
        let mut fibers: Vec<Fiber<'_>> = (0..2)
            .map(|rank| {
                let p = poisoned.clone();
                let body = move || {
                    with_active(|s| {
                        s.note_clock(rank, VTime::ZERO);
                        s.block_current();
                    })
                    .unwrap();
                    // Revived by the deadlock path: the world is poisoned.
                    assert!(p.get(), "woken without poison");
                };
                // SAFETY: captured values are owned; one fiber per slot.
                unsafe { pool.fiber(rank, Box::new(body)) }
            })
            .collect();
        let p = poisoned.clone();
        sched.drive(&mut fibers, &move || p.set(true));
        drop(guard);
        assert!(sched.deadlocked());
    }
}
