//! The conservative discrete-event scheduler behind both engines.
//!
//! One OS thread drives every rank of a world as a cooperative fiber
//! (see [`crate::fiber`]), one at a time whichever way the fibers are
//! switched. Runnable ranks sit in a binary heap keyed by
//! `(virtual clock, world rank)` — the rank id is the deterministic
//! tie-break, so two ranks reaching the same virtual time always run in
//! the same order and a seeded run replays bit-identically. A blocking
//! operation (receive match, collective arrival) suspends its fiber; the
//! peer that satisfies the wait re-queues the sleeper at the clock it
//! blocked with.
//!
//! Conservative ordering: the scheduler never speculates. A rank runs
//! until it *cannot* proceed (no matching message / collective not yet
//! complete), and every virtual timestamp a rank observes is carried on
//! the message or collective record itself, so results are independent of
//! the order in which runnable ranks are interleaved. The heap order only
//! decides *fairness* and determinism, never timing — which is why the
//! reference engine may, and does, break clock ties in the opposite rank
//! order (see [`Scheduler::new`]).
//!
//! A rank suspends only on a wait it can name: a receive with no matching
//! message, or a collective whose members have not all arrived. So when
//! the ready queue is empty and live ranks remain, every one of them is
//! blocked and the world is provably deadlocked (no message can ever
//! arrive). This is the world's one deadlock detector, and it costs a
//! running world nothing: no wait is recorded when a rank blocks. Only
//! once the proof is in hand does the scheduler poison the world and
//! revive the blocked ranks, and each of them, back in the frame it was
//! suspended in, says what it was waiting for ([`Wait`]) before it
//! unwinds; the harness assembles the reports into the deadlock
//! diagnostic (`crate::diag::deadlock`). What this gives up against
//! watching every block: a knot among *some* ranks is reported when the
//! rest of the world has drained, not the instant it closes — virtual-time
//! programs terminate, so only host time differs.
//!
//! The same one-rank-at-a-time order is what lets tools keep their
//! per-event state in a [`WorldCell`]: bound to one running world, it is
//! read and written with plain loads and stores.
#![allow(unsafe_code)]

use crate::comm::CommShared;
use crate::diag::Wait;
use crate::mailbox::{take_from_queue, Poison};
use crate::message::{Envelope, Src, TagSel};
use machine::VTime;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;

/// What a rank's fiber is doing, from the scheduler's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// Queued in the ready heap.
    Ready,
    /// Currently executing on the scheduler thread.
    Running,
    /// Suspended until a peer calls [`Scheduler::wake`].
    Blocked,
    /// Entry function returned (or unwound into the rank's catch net).
    Done,
}

struct Slot {
    state: RankState,
    /// The rank's virtual clock when it last entered the scheduler; the
    /// heap key it is re-queued with.
    clock: VTime,
}

/// Scheduler state for one world. Single-threaded in effect: exactly one
/// of the world's fibers or [`Scheduler::drive`] runs at any moment, each
/// reaching it through its own thread's [`ACTIVE`] slot, so plain `Cell`
/// and `RefCell` state needs no lock.
pub(crate) struct Scheduler {
    /// Runnable ranks as `(clock, rank ^ tie_flip)`, smallest first.
    ready: RefCell<BinaryHeap<Reverse<(VTime, usize)>>>,
    /// `0`, or `usize::MAX` to run equal-clock ranks in descending order.
    tie_flip: usize,
    slots: RefCell<Vec<Slot>>,
    /// Per-rank incoming-message queues: the world's mailboxes.
    queues: RefCell<Vec<Vec<Envelope>>>,
    current: Cell<usize>,
    /// Set by [`Scheduler::drive`] when it proves the world deadlocked.
    deadlocked: Cell<bool>,
    /// What each rank revived after that proof was waiting for.
    stuck: RefCell<Vec<(usize, Wait)>>,
}

impl Scheduler {
    /// A scheduler with every rank runnable at time zero. Equal clocks run
    /// in ascending rank order, or descending with `reverse_ties`: no
    /// virtual time may depend on which, and running the suite both ways is
    /// how that is checked.
    pub(crate) fn new(nranks: usize, reverse_ties: bool) -> Scheduler {
        let scheduler = Scheduler {
            ready: RefCell::new(BinaryHeap::with_capacity(nranks)),
            tie_flip: if reverse_ties { usize::MAX } else { 0 },
            slots: RefCell::new(
                (0..nranks)
                    .map(|_| Slot {
                        state: RankState::Blocked,
                        clock: VTime::ZERO,
                    })
                    .collect(),
            ),
            queues: RefCell::new((0..nranks).map(|_| Vec::new()).collect()),
            current: Cell::new(usize::MAX),
            deadlocked: Cell::new(false),
            stuck: RefCell::new(Vec::new()),
        };
        // Parked, then woken: `wake` is the one place that makes a heap key.
        scheduler.wake_all();
        scheduler
    }

    /// Deposit a message into `rank`'s queue and make `rank` runnable.
    #[inline]
    pub(crate) fn deposit(&self, rank: usize, envelope: Envelope) {
        self.queues.borrow_mut()[rank].push(envelope);
        self.wake(rank);
    }

    /// The whole blocking-receive operation in one scheduler call: note
    /// `rank`'s clock (the key a waker re-queues it with), then take the
    /// first matching message, suspending the fiber between misses. Doing
    /// it here keeps the hot p2p receive path down to a single
    /// thread-local dispatch. With `observe`, every matching candidate is
    /// reported too — exact because nothing else runs between the scan and
    /// the removal. Wildcard matches are resolved through `controller`
    /// when one is given (the verification hook — see [`crate::control`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recv_match(
        &self,
        rank: usize,
        now: VTime,
        comm: &CommShared,
        src: Src,
        tag: TagSel,
        observe: bool,
        poison: &Poison,
        controller: Option<&dyn crate::control::MatchController>,
    ) -> (Envelope, Vec<(usize, i32)>) {
        self.slots.borrow_mut()[rank].clock = now;
        loop {
            poison.check();
            // The borrow ends with the statement, before the fiber
            // suspends: peers deposit into this queue.
            let hit = take_from_queue(
                &mut self.queues.borrow_mut()[rank],
                rank,
                comm.id,
                src,
                tag,
                observe,
                controller,
            );
            if let Some(hit) = hit {
                return hit;
            }
            self.block_current(|| Wait::Recv {
                comm: comm.id,
                src_world: match src {
                    Src::Rank(local) => Some(comm.world_ranks[local]),
                    Src::Any => None,
                },
                tag,
            });
        }
    }

    /// The ranks that were blocked when the world was proved deadlocked,
    /// each with the wait it reported (empty: no deadlock), in the order
    /// the engine revived them.
    pub(crate) fn take_stuck(&self) -> Vec<(usize, Wait)> {
        self.stuck.take()
    }

    /// Record `rank`'s virtual clock ahead of a potentially blocking
    /// operation, so a later [`Scheduler::wake`] re-queues it correctly.
    #[inline]
    pub(crate) fn note_clock(&self, rank: usize, clock: VTime) {
        self.slots.borrow_mut()[rank].clock = clock;
    }

    /// Suspend the current rank until a peer wakes it. Nothing about the
    /// wait is written down on the way in: `wait` is called only if the
    /// rank comes back because the world was proved deadlocked, to say from
    /// the suspended frame what it was waiting for. The caller then finds
    /// the world poisoned and unwinds.
    pub(crate) fn block_current(&self, wait: impl FnOnce() -> Wait) {
        self.slots.borrow_mut()[self.current.get()].state = RankState::Blocked;
        crate::fiber::suspend_current();
        if self.deadlocked.get() {
            self.report_stuck(wait);
        }
    }

    /// Off the blocking path: this runs once per stuck rank of a world
    /// that is going down.
    #[cold]
    #[inline(never)]
    fn report_stuck(&self, wait: impl FnOnce() -> Wait) {
        self.stuck.borrow_mut().push((self.current.get(), wait()));
    }

    /// Make `rank` runnable again (no-op unless it is blocked).
    pub(crate) fn wake(&self, rank: usize) {
        let mut slots = self.slots.borrow_mut();
        let slot = &mut slots[rank];
        if slot.state == RankState::Blocked {
            slot.state = RankState::Ready;
            let key = (slot.clock, rank ^ self.tie_flip);
            self.ready.borrow_mut().push(Reverse(key));
        }
    }

    /// Make every suspended rank runnable (the world went down).
    pub(crate) fn wake_all(&self) {
        let nranks = self.slots.borrow().len();
        (0..nranks).for_each(|rank| self.wake(rank));
    }

    /// Drive every fiber to completion. `poison_world` is invoked once if
    /// a deadlock is detected, before the blocked ranks are revived to
    /// report their waits and unwind.
    pub(crate) fn drive(&self, fibers: &mut [crate::fiber::Fiber<'_>], poison_world: &dyn Fn()) {
        let nranks = fibers.len();
        let mut ndone = 0usize;
        while ndone < nranks {
            let next = self.ready.borrow_mut().pop();
            let Some(Reverse((_, key))) = next else {
                // No runnable rank, not everyone done: the remaining ranks
                // are blocked on messages or collectives that can never
                // complete.
                self.deadlocked.set(true);
                poison_world();
                self.wake_all();
                continue;
            };
            let rank = key ^ self.tie_flip;
            self.slots.borrow_mut()[rank].state = RankState::Running;
            self.current.set(rank);
            let done = fibers[rank].resume();
            self.current.set(usize::MAX);
            let mut slots = self.slots.borrow_mut();
            if done {
                slots[rank].state = RankState::Done;
                ndone += 1;
            } else if slots[rank].state == RankState::Running {
                // The fiber suspended without naming a wait (no simulator
                // path does this; the tests below yield so). Treat it as a
                // plain yield.
                slots[rank].state = RankState::Blocked;
                drop(slots);
                self.wake(rank);
            }
        }
    }
}

thread_local! {
    /// The scheduler of the world this OS thread drives, or is a fiber of.
    /// A raw pointer kept alive by the `Rc` inside the driving thread's
    /// [`InstallGuard`], which clears it (also on unwind) when it drops.
    static ACTIVE: Cell<*const Scheduler> = const { Cell::new(std::ptr::null()) };

    /// The id of that world ([`NO_WORLD`] when there is none): what a
    /// [`WorldCell`] compares its owner with.
    static WORLD: Cell<u32> = const { Cell::new(NO_WORLD) };
}

/// RAII installation of a scheduler into this thread's slot: the world is
/// live from here until the guard drops.
pub(crate) struct InstallGuard {
    _keep_alive: Rc<Scheduler>,
    world: u32,
}

pub(crate) fn install(scheduler: Rc<Scheduler>) -> InstallGuard {
    ACTIVE.with(|active| {
        assert!(
            active.get().is_null(),
            "mpisim: nested worlds on one thread are not supported"
        );
        active.set(Rc::as_ptr(&scheduler));
    });
    let world = worlds().begin();
    WORLD.set(world);
    InstallGuard {
        _keep_alive: scheduler,
        world,
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ACTIVE.with(|active| active.set(std::ptr::null()));
        WORLD.set(NO_WORLD);
        worlds().end(self.world);
    }
}

/// This thread's scheduler and world, for the thread of one of its fibers
/// to adopt.
pub(crate) struct Handle(*const Scheduler, u32);

// SAFETY: the pointer is only dereferenced after `adopt`, whose caller
// answers for the thread it is then used on.
unsafe impl Send for Handle {}

/// The scheduler installed on this thread (none is a handle too: adopting
/// it installs nothing).
pub(crate) fn handle() -> Handle {
    Handle(ACTIVE.with(Cell::get), WORLD.get())
}

impl Handle {
    /// Make the calling thread one of the scheduler's own, running in its
    /// world.
    ///
    /// # Safety
    ///
    /// From here on the calling thread may run only while the thread that
    /// installed the scheduler waits for it, with a lock or a join ordering
    /// every hand-over, and it must end before that thread's
    /// [`InstallGuard`] drops.
    pub(crate) unsafe fn adopt(self) {
        ACTIVE.with(|active| active.set(self.0));
        WORLD.set(self.1);
    }
}

/// The [`WORLD`] of a thread that runs no world; never a cell's owner.
const NO_WORLD: u32 = 0;
/// The owner of a cell bound to no world.
const UNBOUND: u32 = u32::MAX;
/// The owner of a cell a thread outside any world holds.
const TAKEN: u32 = u32::MAX - 1;

/// The process-wide table of live worlds, under whose lock a world begins
/// and ends and a [`WorldCell`] changes hands.
struct Worlds {
    /// The id handed out last.
    last: u32,
    /// Each live world's id, with the owner of the cell it waits for.
    live: Vec<(u32, Option<u32>)>,
    /// Each cell a thread outside any world holds, by address, with the
    /// thread.
    taken: Vec<(usize, ThreadId)>,
    /// Threads waiting in [`WorldCell::bind`] for [`RELEASED`].
    sleepers: usize,
}

static WORLDS: Mutex<Worlds> = Mutex::new(Worlds {
    last: NO_WORLD,
    live: Vec::new(),
    taken: Vec::new(),
    sleepers: 0,
});

/// Signalled when a world ends or an outside guard drops, while anyone
/// waits for a cell.
static RELEASED: Condvar = Condvar::new();

/// The table. Nothing panics while holding it, and every update leaves it
/// consistent, so a poisoned lock is still good.
fn worlds() -> MutexGuard<'static, Worlds> {
    WORLDS.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Worlds {
    fn is_live(&self, world: u32) -> bool {
        self.live.iter().any(|&(id, _)| id == world)
    }

    /// A fresh world's id: never [`NO_WORLD`], [`UNBOUND`], [`TAKEN`] or a
    /// live world's.
    fn begin(&mut self) -> u32 {
        let world = loop {
            self.last = self.last.wrapping_add(1);
            let id = self.last;
            if id != NO_WORLD && id < TAKEN && !self.is_live(id) {
                break id;
            }
        };
        self.live.push((world, None));
        world
    }

    /// `world` made its last access: every cell bound to it is free.
    fn end(&mut self, world: u32) {
        self.live.retain(|&(id, _)| id != world);
        for (_, waits_for) in &mut self.live {
            if *waits_for == Some(world) {
                *waits_for = None;
            }
        }
        if self.sleepers > 0 {
            RELEASED.notify_all();
        }
    }

    /// Does `world` waiting for a cell of `owner` close a cycle of live
    /// worlds each waiting for the next?
    fn closes_a_cycle(&self, world: u32, owner: u32) -> bool {
        let waits_for = |id| self.live.iter().find(|&&(w, _)| w == id)?.1;
        let mut at = owner;
        for _ in 0..self.live.len() {
            match waits_for(at) {
                Some(next) if next == world => return true,
                Some(next) => at = next,
                None => return false,
            }
        }
        false
    }

    fn set_waiting(&mut self, world: u32, owner: Option<u32>) {
        if let Some(entry) = self.live.iter_mut().find(|(id, _)| *id == world) {
            entry.1 = owner;
        }
    }
}

/// State that the running world mutates with plain loads and stores: a
/// tool's per-event state, which a world reaches one rank at a time.
///
/// The cell is bound to the first world that locks it until that world
/// ends. While it is, that world's ranks lock it with one thread-local
/// load, one relaxed load and a compare — no locked instruction — on
/// whichever thread each rank runs. A second live world that reaches it
/// waits until the first has ended, then binds it; so does a thread
/// outside any world (a snapshot after the run), which takes it for the
/// guard's life. A `lock()` while the cell's guard is live panics instead
/// of waiting for itself, and so does a wait that would close a cycle of
/// live worlds. The cell is the size of the `Mutex` it stands in for: a
/// `u32` owner and a borrow flag beside the value.
///
/// Why plain loads and stores are enough:
///
/// * A world's ranks run one at a time, handed over on one thread (the
///   assembly switch) or under the baton's lock (the threads engine), so
///   every access of a bound world is ordered after the one before it.
/// * A world's end happens after every access it made — its fiber threads
///   are joined and its tools notified before its [`InstallGuard`] drops —
///   and is published through the process-wide table of live worlds. A
///   cell is rebound, or taken by an outside thread, only under that
///   table's lock, so the new holder is ordered after everything the old
///   one did; an outside guard hands the cell back under the same lock.
/// * A world id is never handed out while a world with that id is live, so
///   a cell bound to a live world answers to no other. One still bound to
///   an ended world whose id comes back belongs to the new world, which the
///   table's lock orders after the old one — and a rebinding that raced the
///   id's return happened under that lock too, so the new world sees it.
pub struct WorldCell<T> {
    /// The bound world's id, [`UNBOUND`] or [`TAKEN`]; stored only under
    /// the table's lock.
    owner: AtomicU32,
    /// A guard is live.
    held: Cell<bool>,
    value: UnsafeCell<T>,
}

// SAFETY: `owner` is atomic. `held` and `value` are touched only by the
// holder of the cell — its bound world, whose accesses are ordered as the
// type documents, or the outside thread that took it — so no two threads
// reach them unordered. `T: Send` because the value is reached from, and
// may be dropped on, whichever thread holds the cell; no `&T` is shared
// between threads, so `T: Sync` is not needed.
unsafe impl<T: Send> Sync for WorldCell<T> {}

impl<T> WorldCell<T> {
    /// A cell bound to no world yet.
    pub const fn new(value: T) -> WorldCell<T> {
        WorldCell {
            owner: AtomicU32::new(UNBOUND),
            held: Cell::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// The value, for the calling world or — outside any world — for this
    /// thread alone until the guard drops. Waits while another live world
    /// holds the cell; panics if its guard is live.
    #[inline]
    pub fn lock(&self) -> WorldGuard<'_, T> {
        let world = WORLD.get();
        if self.owner.load(Relaxed) != world {
            self.bind(world);
        }
        if self.held.replace(true) {
            locked_twice();
        }
        WorldGuard {
            cell: self,
            outside: world == NO_WORLD,
            _on_this_thread: PhantomData,
        }
    }

    /// Bind the cell to `world` (take it, for [`NO_WORLD`]), waiting while
    /// a live world or an outside thread holds it.
    #[cold]
    #[inline(never)]
    fn bind(&self, world: u32) {
        let cell = self as *const Self as usize;
        let me = std::thread::current().id();
        let mut worlds = worlds();
        loop {
            let owner = self.owner.load(Relaxed);
            let busy = match owner {
                UNBOUND => false,
                TAKEN => true,
                id => id != world && worlds.is_live(id),
            };
            if !busy {
                break;
            }
            if owner == TAKEN && worlds.taken.contains(&(cell, me)) {
                drop(worlds);
                locked_twice();
            }
            if world != NO_WORLD && owner != TAKEN {
                if worlds.closes_a_cycle(world, owner) {
                    drop(worlds);
                    panic!(
                        "mpisim: two live worlds each wait for a WorldCell the other holds \
                         (worlds that run at once must reach the state they share in one order)"
                    );
                }
                worlds.set_waiting(world, Some(owner));
            }
            worlds.sleepers += 1;
            worlds = RELEASED
                .wait(worlds)
                .unwrap_or_else(PoisonError::into_inner);
            worlds.sleepers -= 1;
            worlds.set_waiting(world, None);
        }
        let owner = if world == NO_WORLD {
            worlds.taken.push((cell, me));
            TAKEN
        } else {
            world
        };
        self.owner.store(owner, Relaxed);
    }

    /// An outside thread's guard dropped: the cell is bound to no world.
    #[cold]
    fn give_back(&self) {
        let cell = self as *const Self as usize;
        let mut worlds = worlds();
        worlds.taken.retain(|&(taken, _)| taken != cell);
        self.owner.store(UNBOUND, Relaxed);
        if worlds.sleepers > 0 {
            RELEASED.notify_all();
        }
    }
}

impl<T: Default> Default for WorldCell<T> {
    fn default() -> WorldCell<T> {
        WorldCell::new(T::default())
    }
}

#[cold]
#[inline(never)]
fn locked_twice() -> ! {
    panic!("mpisim: a WorldCell was locked while its guard is live (it would wait for itself)");
}

/// Access to a [`WorldCell`]'s value; the cell is free for its world's
/// next `lock()` once this drops.
pub struct WorldGuard<'a, T> {
    cell: &'a WorldCell<T>,
    /// Taken by a thread outside any world: handed back on drop.
    outside: bool,
    /// The guard stays on the thread that locked.
    _on_this_thread: PhantomData<*const ()>,
}

impl<T> Deref for WorldGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the guard is the cell's one live guard (`held`), and its
        // thread holds the cell (see `WorldCell`).
        unsafe { &*self.cell.value.get() }
    }
}

impl<T> DerefMut for WorldGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and `&mut self` makes this borrow the
        // guard's only one.
        unsafe { &mut *self.cell.value.get() }
    }
}

impl<T> Drop for WorldGuard<'_, T> {
    fn drop(&mut self) {
        self.cell.held.set(false);
        if self.outside {
            self.cell.give_back();
        }
    }
}

/// Run `f` against this thread's scheduler: one thread-local load on every
/// communication path. Communication needs a `Proc`, and a `Proc` exists
/// only inside a driven world, so there always is one.
#[inline]
pub(crate) fn with_active<R>(f: impl FnOnce(&Scheduler) -> R) -> R {
    ACTIVE.with(|active| {
        let ptr = active.get();
        assert!(!ptr.is_null(), "mpisim: no world is running on this thread");
        // SAFETY: non-null only between `install` and the guard's drop,
        // during which the Rc keeps the scheduler alive; the world's
        // threads reach it one at a time (see `Handle::adopt`).
        f(unsafe { &*ptr })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CommId;
    use crate::fiber::{Fiber, StackPool, Switch};
    use std::sync::{Arc, Mutex};

    /// The wait a bare scheduler test blocks with.
    fn any_message() -> Wait {
        Wait::Recv {
            comm: CommId::WORLD,
            src_world: None,
            tag: TagSel::Any,
        }
    }

    /// Drive one fiber per `body` on each backing, ties broken both ways,
    /// and hand back each run's scheduler with the order its ranks logged.
    fn drive_each_way<B>(
        bodies: impl Fn(Arc<Mutex<Vec<String>>>) -> Vec<B>,
    ) -> Vec<(bool, Vec<String>)>
    where
        B: FnOnce() + Send + 'static,
    {
        let mut runs = Vec::new();
        for switch in [Switch::Native, Switch::Baton] {
            for reverse_ties in [false, true] {
                let log = Arc::new(Mutex::new(Vec::new()));
                let bodies = bodies(log.clone());
                let sched = Rc::new(Scheduler::new(bodies.len(), reverse_ties));
                let guard = install(sched.clone());
                let pool = StackPool::acquire(switch, 32 * 1024, bodies.len()).expect("stacks");
                let mut fibers: Vec<Fiber<'_>> = bodies
                    .into_iter()
                    .enumerate()
                    // SAFETY: the bodies own what they capture; one fiber
                    // per slot; `guard` outlives the fibers.
                    .map(|(rank, body)| unsafe { pool.fiber(rank, Box::new(body)) }.unwrap())
                    .collect();
                let poisoned = log.clone();
                sched.drive(&mut fibers, &|| {
                    poisoned.lock().unwrap().push("poisoned".into());
                });
                drop(fibers);
                drop(guard);
                let log = std::mem::take(&mut *log.lock().unwrap());
                // Waits are reported after a proved deadlock and only then.
                let poisoned = log.iter().any(|l| l == "poisoned");
                assert_eq!(!sched.take_stuck().is_empty(), poisoned);
                runs.push((reverse_ties, log));
            }
        }
        runs
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
    /// order — descending where ties are reversed — on either backing.
    #[test]
    fn drive_runs_equal_clock_ranks_in_rank_order() {
        let n = 8;
        let runs = drive_each_way(|log| {
            (0..n)
                .map(|rank| {
                    let log = log.clone();
                    move || log.lock().unwrap().push(rank.to_string())
                })
                .collect()
        });
        for (reverse_ties, log) in runs {
            let mut expected: Vec<String> = (0..n).map(|rank| rank.to_string()).collect();
            if reverse_ties {
                expected.reverse();
            }
            assert_eq!(log, expected);
        }
    }

    /// A blocked rank is revived at the clock it blocked with, after the
    /// waker runs; pure wake/block plumbing without mailboxes.
    #[test]
    fn block_and_wake_round_trip() {
        let runs = drive_each_way(|log| {
            let (log0, log1) = (log.clone(), log);
            let body0 = move || {
                log0.lock().unwrap().push("r0 blocks".into());
                with_active(|s| {
                    s.note_clock(0, VTime(10));
                    s.block_current(any_message);
                });
                log0.lock().unwrap().push("r0 resumed".into());
            };
            let body1 = move || {
                if log1.lock().unwrap().is_empty() {
                    // Reversed ties ran us first: yield, naming no wait, so
                    // `drive` re-queues us at clock 5 and rank 0 blocks.
                    with_active(|s| s.note_clock(1, VTime(5)));
                    crate::fiber::suspend_current();
                }
                log1.lock().unwrap().push("r1 wakes r0".into());
                with_active(|s| s.wake(0));
                log1.lock().unwrap().push("r1 done".into());
            };
            let bodies: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(body0), Box::new(body1)];
            bodies
        });
        for (_, log) in runs {
            assert_eq!(log, ["r0 blocks", "r1 wakes r0", "r1 done", "r0 resumed"]);
        }
    }

    /// All ranks blocked, nobody to wake them: the scheduler must call
    /// the poison hook and revive them rather than loop forever.
    #[test]
    fn deadlock_is_detected_and_poisoned() {
        let runs = drive_each_way(|log| {
            (0..2)
                .map(|rank| {
                    let log = log.clone();
                    move || {
                        with_active(|s| {
                            s.note_clock(rank, VTime::ZERO);
                            s.block_current(any_message);
                        });
                        // Revived by the deadlock path: the world is poisoned.
                        assert_eq!(log.lock().unwrap()[0], "poisoned", "woken without poison");
                        log.lock().unwrap().push(format!("r{rank} revived"));
                    }
                })
                .collect()
        });
        for (reverse_ties, log) in runs {
            let revived = if reverse_ties {
                ["r1 revived", "r0 revived"]
            } else {
                ["r0 revived", "r1 revived"]
            };
            assert_eq!(log[0], "poisoned");
            assert_eq!(log[1..], revived);
        }
    }
}
