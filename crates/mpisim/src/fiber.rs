//! Stackful fibers: the cooperative tasks the scheduler drives.
//!
//! A fiber is one virtual rank's flow of control. [`Fiber::resume`] enters
//! it from the scheduler, [`suspend_current`] switches the running fiber
//! back out; there is no preemption, and exactly one of a world's fibers or
//! its scheduler runs at any moment. Two backings sit behind that one
//! interface, chosen per pool by a [`Switch`]:
//!
//! * **the x86-64 switch** (`asm`) — every fiber is a stack in one guarded
//!   reservation on the scheduler's own thread, entered by a hand-written
//!   register swap. ~20 ns a switch and a page per parked rank: what makes
//!   16k-rank worlds practical.
//! * **the baton** ([`baton`]) — every fiber is a parked OS thread, and a
//!   switch hands a `Mutex`+`Condvar` baton from the scheduler's thread to
//!   the fiber's and back. Microseconds a switch, but safe code on every
//!   target: it is what a non-x86-64 host runs, and what the assembly is
//!   checked against on an x86-64 one.
//!
//! This file is the only place in the crate that knows the target
//! architecture.
//!
//! Safety containment: this module tree and `des.rs` (the scheduler
//! handle and `WorldCell`) are the only places in the workspace that need
//! `unsafe`; the workspace-wide `unsafe_code = "deny"` lint is re-allowed
//! for exactly these.
#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
mod asm;

use std::marker::PhantomData;

/// Default stack size per fiber. Large enough for the workload crates'
/// deepest frames (section scopes + collective internals), small enough
/// that 16384 fibers reserve only virtual address space: untouched stack
/// pages are never committed.
pub const DEFAULT_STACK_SIZE: usize = 512 * 1024;

/// Smallest stack a fiber is given, whatever was asked for.
const MIN_STACK_SIZE: usize = 16 * 1024;

/// How a pool's fibers are switched.
#[derive(Clone, Copy)]
pub(crate) enum Switch {
    /// The cheapest switch the target has: the assembly on x86-64, the
    /// baton elsewhere.
    Native,
    /// The baton, whatever the target.
    Baton,
}

/// The stacks of one world's fibers.
pub(crate) struct StackPool(Stacks);

enum Stacks {
    #[cfg(target_arch = "x86_64")]
    Reserved(asm::StackPool),
    /// Each fiber's thread brings its own stack.
    PerThread { stack_size: usize, count: usize },
}

impl StackPool {
    /// Stacks for `count` fibers of at least `stack_size` bytes each
    /// ([`MIN_STACK_SIZE`] at least). Fails, with a message fit for one
    /// `error:` line, when the assembly backing cannot reserve them (see
    /// `asm::StackPool::acquire`); the baton's threads map their stacks one
    /// by one, in [`StackPool::fiber`].
    pub(crate) fn acquire(
        switch: Switch,
        stack_size: usize,
        count: usize,
    ) -> Result<StackPool, String> {
        let stack_size = stack_size.max(MIN_STACK_SIZE);
        match switch {
            #[cfg(target_arch = "x86_64")]
            Switch::Native => asm::StackPool::acquire(stack_size, count)
                .map(|pool| StackPool(Stacks::Reserved(pool))),
            _ => Ok(StackPool(Stacks::PerThread { stack_size, count })),
        }
    }

    /// Leave what can be reused to this thread's next world.
    pub(crate) fn release(self) {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            Stacks::Reserved(pool) => pool.release(),
            Stacks::PerThread { .. } => {}
        }
    }

    /// Create a fiber on stack `slot` that will run `entry` when first
    /// resumed. Fails when the baton cannot start the fiber's thread.
    ///
    /// # Safety
    ///
    /// * The `'a` borrow inside `entry` is erased to `'static`. The caller
    ///   must keep everything `entry` borrows alive until the fiber has
    ///   either run to completion or been dropped — the scheduler satisfies
    ///   this by owning all fibers in the same scope as the borrowed state
    ///   and never resuming a fiber after that scope unwinds.
    /// * No other live fiber may have been created on `slot`. The scheduler
    ///   gives rank `i` slot `i`.
    /// * The scheduler installed on this thread, if any, must stay
    ///   installed until the fiber is dropped: `entry` reaches it from the
    ///   fiber's thread.
    pub(crate) unsafe fn fiber<'a>(
        &self,
        slot: usize,
        entry: Box<dyn FnOnce() + Send + 'a>,
    ) -> Result<Fiber<'_>, String> {
        // SAFETY: only the lifetime changes; the caller keeps the borrows
        // alive (first condition above).
        let entry: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(entry) };
        let flow = match &self.0 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the returned fiber borrows the pool, and the slot is
            // free by the second condition above.
            Stacks::Reserved(pool) => Flow::Stack(unsafe { pool.fiber(slot, entry) }),
            Stacks::PerThread { stack_size, count } => {
                assert!(slot < *count, "fiber slot {slot} of {count}");
                // SAFETY: the third condition above.
                Flow::Thread(Box::new(unsafe {
                    baton::Fiber::spawn(slot, *stack_size, entry)
                }?))
            }
        };
        Ok(Fiber {
            flow,
            pool: PhantomData,
        })
    }
}

/// A suspended or runnable fiber of the pool it borrows.
pub struct Fiber<'pool> {
    flow: Flow,
    pool: PhantomData<&'pool StackPool>,
}

enum Flow {
    #[cfg(target_arch = "x86_64")]
    Stack(asm::Fiber),
    /// Boxed to keep a world's `Vec<Fiber>` as dense as its assembly
    /// fibers are: the scheduler indexes it on every resume.
    Thread(Box<baton::Fiber>),
}

impl Fiber<'_> {
    /// Run the fiber until it suspends or finishes; returns `true` once
    /// the fiber's entry function has returned.
    ///
    /// The simulator wraps every rank body in `catch_unwind`, so a panic
    /// that leaves `entry` is a harness bug. The baton re-raises it here,
    /// on the resuming thread; unwinding cannot cross the assembly switch,
    /// which reports it and aborts the process.
    ///
    /// Dropping an unfinished fiber ends it without another `resume`: the
    /// baton unwinds the fiber's thread from its suspension point and joins
    /// it, the assembly backing abandons the stack with the frames parked
    /// on it (a leak, never UB). The scheduler only drops unfinished fibers
    /// while unwinding from a harness-level failure.
    pub fn resume(&mut self) -> bool {
        match &mut self.flow {
            #[cfg(target_arch = "x86_64")]
            Flow::Stack(fiber) => fiber.resume(),
            Flow::Thread(fiber) => fiber.resume(),
        }
    }
}

/// Suspend the currently running fiber, returning control to whoever
/// called [`Fiber::resume`]. Panics when called from outside any fiber.
pub fn suspend_current() {
    #[cfg(target_arch = "x86_64")]
    if asm::suspend_running() {
        return;
    }
    baton::suspend_running();
}

/// The portable backing: a parked OS thread per fiber.
///
/// The two sides of a switch — the scheduler's thread in `resume`, the
/// fiber's thread in `suspend_running` — take turns through one [`Baton`]:
/// each hands the turn over and sleeps until it comes back, so the world
/// stays as single-threaded as it is on the assembly backing, and the
/// baton's mutex orders everything one side did before everything the
/// other does next.
mod baton {
    use std::cell::OnceCell;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::thread::JoinHandle;

    /// Whose move it is.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Turn {
        /// The resumer's: the fiber is not started yet, or suspended.
        Scheduler,
        Fiber,
        /// The fiber's thread is past `entry`, or never ran it.
        Finished,
        /// The fiber was dropped unfinished: its thread must unwind.
        Cancelled,
    }

    struct Baton {
        turn: Mutex<Turn>,
        passed: Condvar,
    }

    /// What a cancelled fiber's thread unwinds with.
    struct Cancelled;

    thread_local! {
        /// The baton of the fiber this thread is (unset on any other).
        static OWN: OnceCell<Arc<Baton>> = const { OnceCell::new() };
    }

    impl Baton {
        /// The lock guards a plain enum that is valid at every step, so a
        /// holder's panic leaves nothing to distrust.
        fn lock(&self) -> MutexGuard<'_, Turn> {
            self.turn.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Give the turn to `to`; the other side is the only waiter.
        fn pass(&self, turn: &mut MutexGuard<'_, Turn>, to: Turn) {
            **turn = to;
            self.passed.notify_one();
        }

        /// Sleep until the turn is no longer `held`.
        fn wait_out<'a>(&self, mut turn: MutexGuard<'a, Turn>, held: Turn) -> MutexGuard<'a, Turn> {
            while *turn == held {
                turn = self
                    .passed
                    .wait(turn)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            turn
        }
    }

    pub(super) struct Fiber {
        baton: Arc<Baton>,
        /// Joined, and gone, once the fiber has finished.
        thread: Option<JoinHandle<()>>,
    }

    impl Fiber {
        /// Start fiber `slot`'s thread, parked until the first `resume`.
        ///
        /// # Safety
        ///
        /// The scheduler installed on the calling thread, if any, must
        /// stay installed until the fiber is dropped.
        pub(super) unsafe fn spawn(
            slot: usize,
            stack_size: usize,
            entry: Box<dyn FnOnce() + Send>,
        ) -> Result<Fiber, String> {
            let baton = Arc::new(Baton {
                turn: Mutex::new(Turn::Scheduler),
                passed: Condvar::new(),
            });
            let scheduler = crate::des::handle();
            let own = baton.clone();
            let body = move || {
                // However this thread ends — `entry` returned, panicked or
                // never ran — the resumer is told, so it can join.
                struct Finish(Arc<Baton>);
                impl Drop for Finish {
                    fn drop(&mut self) {
                        self.0.pass(&mut self.0.lock(), Turn::Finished);
                    }
                }
                let finish = Finish(own);
                let first = *finish.0.wait_out(finish.0.lock(), Turn::Scheduler);
                if first == Turn::Fiber {
                    // SAFETY: this thread runs only while the scheduler's
                    // thread is parked in `resume` or `drop` below, both
                    // inside the span the caller vouched for.
                    unsafe { scheduler.adopt() };
                    OWN.with(|own| own.set(finish.0.clone()))
                        .ok()
                        .expect("a fresh thread has no baton yet");
                    entry();
                }
            };
            let thread = std::thread::Builder::new()
                .name(format!("fiber {slot}"))
                .stack_size(stack_size)
                .spawn(body)
                .map_err(|cause| format!("cannot start a thread for fiber {slot}: {cause}"))?;
            Ok(Fiber {
                baton,
                thread: Some(thread),
            })
        }

        pub(super) fn resume(&mut self) -> bool {
            assert!(self.thread.is_some(), "resumed a finished fiber");
            let mut turn = self.baton.lock();
            self.baton.pass(&mut turn, Turn::Fiber);
            if *self.baton.wait_out(turn, Turn::Fiber) == Turn::Scheduler {
                return false;
            }
            let thread = self.thread.take().expect("checked on entry");
            if let Err(panic) = thread.join() {
                std::panic::resume_unwind(panic);
            }
            true
        }
    }

    impl Drop for Fiber {
        fn drop(&mut self) {
            if let Some(thread) = self.thread.take() {
                self.baton.pass(&mut self.baton.lock(), Turn::Cancelled);
                // The body unwinds with `Cancelled` or whatever it makes of
                // that; nobody is left to want it.
                let _ = thread.join();
            }
        }
    }

    /// Hand the turn back to the resumer and sleep until the next `resume`.
    pub(super) fn suspend_running() {
        OWN.with(|own| {
            let baton = own.get().expect("suspend_current outside a fiber");
            let mut turn = baton.lock();
            // A body that swallowed its cancellation is cancelled again.
            if *turn != Turn::Cancelled {
                baton.pass(&mut turn, Turn::Scheduler);
                turn = baton.wait_out(turn, Turn::Scheduler);
            }
            if *turn == Turn::Cancelled {
                drop(turn);
                std::panic::resume_unwind(Box::new(Cancelled));
            }
        });
    }

    /// Is the calling thread a fiber's?
    #[cfg(test)]
    pub(super) fn in_fiber() -> bool {
        OWN.with(|own| own.get().is_some())
    }
}

/// Is the calling code executing inside a fiber?
#[cfg(test)]
pub fn in_fiber() -> bool {
    #[cfg(target_arch = "x86_64")]
    if asm::in_fiber() {
        return true;
    }
    baton::in_fiber()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
    use std::sync::{Arc, Mutex};

    /// Both backings (the same one twice off x86-64): what holds for one
    /// switch must hold for the other.
    const SWITCHES: [Switch; 2] = [Switch::Native, Switch::Baton];

    fn pool(switch: Switch, count: usize) -> StackPool {
        StackPool::acquire(switch, 32 * 1024, count).expect("stack pool")
    }

    #[test]
    fn runs_to_completion() {
        for switch in SWITCHES {
            let hit = Arc::new(AtomicBool::new(false));
            let h = hit.clone();
            let pool = pool(switch, 1);
            let mut f = unsafe { pool.fiber(0, Box::new(move || h.store(true, SeqCst))) }.unwrap();
            assert!(f.resume());
            assert!(hit.load(SeqCst));
        }
    }

    #[test]
    fn suspend_and_resume_interleave() {
        for switch in SWITCHES {
            let log = Arc::new(Mutex::new(Vec::new()));
            let l = log.clone();
            let pool = pool(switch, 1);
            let mut f = unsafe {
                pool.fiber(
                    0,
                    Box::new(move || {
                        l.lock().unwrap().push("a");
                        suspend_current();
                        l.lock().unwrap().push("b");
                        suspend_current();
                        l.lock().unwrap().push("c");
                    }),
                )
            }
            .unwrap();
            assert!(!f.resume());
            log.lock().unwrap().push("between");
            assert!(!f.resume());
            assert!(f.resume());
            assert_eq!(*log.lock().unwrap(), ["a", "between", "b", "c"]);
        }
    }

    #[test]
    fn many_fibers_round_robin() {
        for switch in SWITCHES {
            let counter = Arc::new(AtomicU64::new(0));
            let pool = pool(switch, 100);
            let mut fibers: Vec<Option<Fiber<'_>>> = (0..100)
                .map(|slot| {
                    let c = counter.clone();
                    let body = move || {
                        for _ in 0..10 {
                            c.fetch_add(1, SeqCst);
                            suspend_current();
                        }
                    };
                    Some(unsafe { pool.fiber(slot, Box::new(body)) }.unwrap())
                })
                .collect();
            while fibers.iter().any(Option::is_some) {
                for slot in &mut fibers {
                    if slot.as_mut().is_some_and(Fiber::resume) {
                        *slot = None;
                    }
                }
            }
            assert_eq!(counter.load(SeqCst), 1000);
        }
    }

    #[test]
    fn borrowed_state_is_visible() {
        for switch in SWITCHES {
            let mut total = 0u64;
            {
                let t = &mut total;
                let pool = pool(switch, 1);
                let mut f = unsafe { pool.fiber(0, Box::new(move || *t = 41 + 1)) }.unwrap();
                assert!(f.resume());
            }
            assert_eq!(total, 42);
        }
    }

    #[test]
    fn in_fiber_reflects_context() {
        for switch in SWITCHES {
            assert!(!in_fiber());
            let seen = Arc::new(AtomicBool::new(false));
            let s = seen.clone();
            let pool = pool(switch, 1);
            let mut f =
                unsafe { pool.fiber(0, Box::new(move || s.store(in_fiber(), SeqCst))) }.unwrap();
            f.resume();
            assert!(seen.load(SeqCst));
            assert!(!in_fiber());
        }
    }

    #[test]
    fn float_state_survives_switches() {
        // The assembly switch saves mxcsr/fcw; computed values live in
        // caller-saved xmm registers across the call boundary, but FP
        // results must still be correct after interleaved fibers.
        for switch in SWITCHES {
            let out = Arc::new(Mutex::new(0.0f64));
            let o = out.clone();
            let pool = pool(switch, 1);
            let mut f = unsafe {
                pool.fiber(
                    0,
                    Box::new(move || {
                        let x = 1.5f64;
                        suspend_current();
                        *o.lock().unwrap() = x * 2.0 + 0.25;
                    }),
                )
            }
            .unwrap();
            assert!(!f.resume());
            let _noise = (0..100).map(|i| (i as f64).sqrt()).sum::<f64>();
            assert!(f.resume());
            assert_eq!(*out.lock().unwrap(), 3.25);
        }
    }

    /// Sets its flag when dropped: on a fiber's stack, proof that the
    /// frame was unwound.
    struct SetOnDrop(Arc<AtomicBool>);

    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.store(true, SeqCst);
        }
    }

    /// Dropping a baton fiber that is suspended, or was never resumed,
    /// unwinds its body and joins its thread: nothing the body owns or
    /// borrows is still in use afterwards.
    #[test]
    fn dropping_an_unfinished_fiber_ends_its_thread() {
        let pool = pool(Switch::Baton, 2);
        let unwound = Arc::new(AtomicBool::new(false));
        let resumed = Arc::new(AtomicBool::new(false));
        let (u, r) = (unwound.clone(), resumed.clone());
        let suspended = move || {
            let _on_stack = SetOnDrop(u);
            suspend_current();
            r.store(true, SeqCst);
        };
        let mut suspended = unsafe { pool.fiber(0, Box::new(suspended)) }.unwrap();
        let started = Arc::new(AtomicBool::new(false));
        let s = started.clone();
        let fresh = unsafe { pool.fiber(1, Box::new(move || s.store(true, SeqCst))) }.unwrap();
        assert!(!suspended.resume());
        assert!(!unwound.load(SeqCst));
        drop(suspended);
        assert!(unwound.load(SeqCst), "the parked frame was unwound");
        assert!(!resumed.load(SeqCst), "the body did not run on");
        assert_eq!(Arc::strong_count(&unwound), 1, "the thread is gone");
        drop(fresh);
        assert!(!started.load(SeqCst), "a fiber never resumed never runs");
        assert_eq!(Arc::strong_count(&started), 1, "the thread is gone");
    }

    /// The scheduler's rank bodies catch their own panics; one that gets
    /// past a body's net on the baton surfaces where the fiber was
    /// resumed, payload intact.
    #[test]
    fn a_panic_leaving_the_body_reaches_the_resumer() {
        let pool = pool(Switch::Baton, 1);
        let body = || {
            suspend_current();
            panic!("no net under this one");
        };
        let mut f = unsafe { pool.fiber(0, Box::new(body)) }.unwrap();
        assert!(!f.resume());
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.resume()))
            .expect_err("the panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"no net under this one")
        );
    }

    /// A stack no thread can be given is an error from `fiber`, not a
    /// panic in `spawn`.
    #[test]
    fn a_thread_that_cannot_start_is_an_error() {
        let pool = StackPool::acquire(Switch::Baton, usize::MAX / 2, 1).expect("nothing mapped");
        let refused = unsafe { pool.fiber(0, Box::new(|| {})) }
            .err()
            .expect("no such stack");
        assert!(
            refused.contains("cannot start a thread for fiber 0"),
            "{refused}"
        );
    }

    /// Where a world's pool lands: the released one when it fits, a fresh
    /// reservation (the old one unmapped first — `map` asserts the thread
    /// holds no other) when the world is larger or the stack size differs.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn released_pool_serves_the_next_world_that_fits() {
        use asm::{StackPool, CACHED, PAGE, RESERVATION};
        let first = StackPool::acquire(64 * 1024, 64).expect("p = 64");
        let (base, capacity) = (first.base, first.capacity);
        assert_eq!(capacity, 64);
        first.release();
        for count in [8, 64] {
            let again = StackPool::acquire(64 * 1024, count).expect("reused");
            assert_eq!((again.base, again.capacity), (base, capacity));
            assert_eq!(RESERVATION.get()[0], base as usize);
            again.release();
        }
        let grown = StackPool::acquire(64 * 1024, 100).expect("p = 100");
        assert_eq!(grown.capacity, 128, "rounded up to a power of two");
        assert_eq!(RESERVATION.get()[0], grown.base as usize);
        grown.release();
        let resized = StackPool::acquire(40_000, 100).expect("different stack size");
        assert_eq!(resized.stack_bytes, 40_960, "rounded up to pages");
        assert_eq!(RESERVATION.get()[2], 40_960 + PAGE);
        drop(resized);
        assert_eq!(RESERVATION.get(), [0; 3]);
        assert!(CACHED.with(|cached| cached.borrow().is_none()));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn stack_sizes_are_clamped_or_refused_without_panicking() {
        let Stacks::Reserved(smallest) = pool(Switch::Native, 1).0 else {
            panic!("x86-64 reserves its stacks");
        };
        assert_eq!(smallest.stack_bytes, 32 * 1024);
        drop(smallest);
        let Stacks::Reserved(smallest) = StackPool::acquire(Switch::Native, 0, 1).unwrap().0 else {
            panic!("x86-64 reserves its stacks");
        };
        assert_eq!(smallest.stack_bytes, MIN_STACK_SIZE);
        drop(smallest);
        let refused = StackPool::acquire(Switch::Native, usize::MAX, 1)
            .err()
            .expect("no such stack");
        assert!(refused.contains("too large"), "{refused}");
        let refused = StackPool::acquire(Switch::Native, usize::MAX / 2, 4)
            .err()
            .expect("no such address space");
        assert!(refused.contains("address space"), "{refused}");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn capacity_is_a_power_of_two_within_the_mapping_limit() {
        use asm::{capacity_for, DEFAULT_MAX_MAP_COUNT};
        assert_eq!(capacity_for(1, DEFAULT_MAX_MAP_COUNT), Ok(1));
        assert_eq!(capacity_for(100, DEFAULT_MAX_MAP_COUNT), Ok(128));
        assert_eq!(capacity_for(16_384, DEFAULT_MAX_MAP_COUNT), Ok(16_384));
        // 2 x 32768 + 4096 mappings are over the default limit: the pool
        // stops at what fits instead of refusing a p that does.
        assert_eq!(capacity_for(16_385, DEFAULT_MAX_MAP_COUNT), Ok(30_717));
        assert_eq!(capacity_for(30_717, DEFAULT_MAX_MAP_COUNT), Ok(30_717));
        let refused = capacity_for(40_000, DEFAULT_MAX_MAP_COUNT).expect_err("over the limit");
        assert!(refused.contains("vm.max_map_count is 65530"), "{refused}");
        assert!(
            refused.contains("largest p that fits is 30717"),
            "{refused}"
        );
        assert!(!refused.contains('\n'), "one line: {refused}");
        assert!(capacity_for(1, 100).is_err(), "a limit below the spare");
    }

    /// Adjacent slots do not overlap and every byte of a stack is usable:
    /// filling slot 1 to its lowest byte leaves the frames parked at the
    /// top of slot 0 — the first thing an unguarded overflow would reach —
    /// intact.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn a_full_stack_stops_short_of_its_neighbour() {
        let pool = asm::StackPool::acquire(32 * 1024, 2).expect("stack pool");
        let resumed = Arc::new(AtomicBool::new(false));
        let r = resumed.clone();
        let mut below = unsafe {
            pool.fiber(
                0,
                Box::new(move || {
                    let parked = std::hint::black_box([0xA5u8; 256]);
                    suspend_current();
                    r.store(parked.iter().all(|&b| b == 0xA5), SeqCst);
                }),
            )
        };
        assert!(!below.resume());
        // SAFETY: slot 1's stack, which no fiber uses.
        let above = unsafe { pool.base.add(pool.stride() + asm::PAGE) };
        // SAFETY: the same stack, whole.
        unsafe { std::ptr::write_bytes(above, 0x5A, pool.stack_bytes) };
        assert!(below.resume());
        assert!(resumed.load(SeqCst));
    }
}
