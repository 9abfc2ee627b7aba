//! The x86-64 fiber backing: a hand-written context switch over pooled,
//! guarded stacks.
//!
//! Each fiber runs on its own stack and is entered and left through a
//! switch that saves only the System-V callee-saved state (rbp, rbx,
//! r12–r15, mxcsr, x87 control word). A switch is ~20 ns, and a suspended
//! fiber costs nothing but the pages its stack has actually touched —
//! which is what makes 16k+ ranks on one OS thread practical where 16k
//! threads are not.
//!
//! **Stacks.** All stacks of a world are slots of one [`StackPool`]: a
//! single `mmap` reservation laid out `[guard page | page-aligned stack]`
//! per slot. The reservation is `MAP_NORESERVE`, so a slot costs address
//! space until a frame touches it, and because a stack's top is page
//! aligned a rank that only blocks in a collective lives on one page. Every
//! guard faults on access: a fiber that outgrows its stack faults *at* the
//! overflow, before it can reach the slot below, and a `SIGSEGV`/`SIGBUS`
//! handler turns that fault into one line on stderr and an abort. Where the
//! kernel installs guard pages in place (`MADV_GUARD_INSTALL`, Linux 6.13)
//! the reservation stays one kernel mapping; elsewhere each guard is a
//! `PROT_NONE` page that splits it into two mappings per slot, which is
//! what bounds a world's size there (see [`StackPool::acquire`]). A
//! scheduler thread keeps its pool between worlds and hands it to the next
//! world that fits, so a sweep of small worlds maps, guards and
//! first-touches its stacks once.
//!
//! There is no cross-thread migration: a fiber resumes on whichever OS
//! thread calls `resume`, and the simulator drives all fibers of a world
//! from one scheduler thread.
//!
//! The handful of libc calls the pool and the fault handler make are
//! declared in [`sys`], so no `libc` crate is needed.
#![allow(unsafe_code)]

use std::arch::naked_asm;
use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_void};
use std::sync::OnceLock;

/// The x86-64 base page: the granularity of page protection, and so the
/// size of a guard and the unit stack sizes are rounded up to.
pub(super) const PAGE: usize = 4096;

/// Kernel mappings left to the rest of the process (heap arenas, thread
/// stacks, shared objects) when a pool is sized against `vm.max_map_count`.
const SPARE_MAPPINGS: usize = 4096;

/// Linux's default `vm.max_map_count`, assumed where the sysctl cannot be
/// read.
pub(super) const DEFAULT_MAX_MAP_COUNT: usize = 65_530;

const OVERFLOW_MSG: &[u8] = b"mpisim: fiber stack overflow (raise the engine's stack size)\n";

/// The libc surface of this module: memory mapping for the pool, signal
/// plumbing for the overflow handler. Constants and struct layouts are the
/// x86-64 Linux and macOS ones.
mod sys {
    use std::ffi::{c_int, c_void};

    #[cfg(not(any(target_os = "linux", target_os = "macos")))]
    compile_error!("mpisim fibers know the mmap and sigaction ABI of Linux and macOS only");

    pub const PROT_NONE: c_int = 0;
    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 0x02;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    pub const SIGSEGV: c_int = 11;

    #[cfg(target_os = "linux")]
    mod os {
        use std::ffi::c_int;

        pub const MAP_ANONYMOUS: c_int = 0x20;
        pub const MAP_NORESERVE: c_int = 0x4000;
        pub const MADV_NOHUGEPAGE: c_int = 15;
        pub const MADV_GUARD_INSTALL: c_int = 102;
        pub const SIGBUS: c_int = 7;
        pub const SA_SIGINFO: c_int = 0x4;
        pub const SA_ONSTACK: c_int = 0x0800_0000;
        /// Byte offset of `si_addr` in `siginfo_t`.
        pub const SI_ADDR_OFFSET: usize = 16;

        /// `struct sigaction` as the C library's `sigaction()` takes it.
        #[repr(C)]
        pub struct SigAction {
            pub handler: usize,
            pub mask: [u64; 16],
            pub flags: c_int,
            pub restorer: usize,
        }
    }

    #[cfg(target_os = "macos")]
    mod os {
        use std::ffi::c_int;

        pub const MAP_ANONYMOUS: c_int = 0x1000;
        pub const MAP_NORESERVE: c_int = 0x40;
        pub const SIGBUS: c_int = 10;
        pub const SA_SIGINFO: c_int = 0x40;
        pub const SA_ONSTACK: c_int = 0x1;
        /// Byte offset of `si_addr` in `siginfo_t`.
        pub const SI_ADDR_OFFSET: usize = 24;

        /// `struct sigaction` as the C library's `sigaction()` takes it.
        #[repr(C)]
        pub struct SigAction {
            pub handler: usize,
            pub mask: u32,
            pub flags: c_int,
        }
    }

    pub use os::*;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        pub fn sigaction(
            signal: c_int,
            action: *const SigAction,
            previous: *mut SigAction,
        ) -> c_int;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn abort() -> !;
    }
}

/// Callee-saved context frame the switch pushes: 6 GP registers, plus a
/// 16-byte slot holding mxcsr / the x87 control word, plus the return
/// address consumed by `ret`.
const CTX_FRAME: usize = 6 * 8 + 16 + 8;

// The saved-state handshake: `switch_context(save, load)` pushes the
// callee-saved registers of the *current* stack, stores rsp through
// `save`, installs the stack pointer read from `load`, pops the same
// frame and returns on the new stack. Both sides of every switch are this
// one function, so the frame layout only has to agree with itself — and
// with `seed_stack` below, which fabricates the frame a brand-new fiber
// is first "restored" from.
#[unsafe(naked)]
unsafe extern "C" fn switch_context(_save: *mut *mut u8, _load: *mut *mut u8) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 16",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 16",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

// First code a new fiber executes: the seeded frame parked the FiberInner
// pointer in rbx (a callee-saved register, so the restore sequence above
// delivers it for free). Realign the stack and call into Rust.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    naked_asm!(
        "mov rdi, rbx",
        "and rsp, -16",
        "call {entry}",
        "ud2",
        entry = sym fiber_entry,
    )
}

extern "C" fn fiber_entry(inner: *mut FiberInner) -> ! {
    // SAFETY: `inner` is the boxed FiberInner whose address was seeded
    // into the new fiber's rbx by `seed_stack`; the box outlives the
    // fiber (it is owned by the `Fiber` that resumed us).
    let inner = unsafe { &mut *inner };
    let entry = inner.entry.take().expect("fiber entered twice");
    // The simulator wraps every rank body in catch_unwind, so a panic
    // reaching this frame is a harness bug; unwinding must never cross
    // the context-switch assembly.
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry)).is_err() {
        eprintln!("mpisim: panic escaped a fiber's unwind net; aborting");
        std::process::abort();
    }
    inner.done = true;
    loop {
        // Hand control back to the scheduler forever; a done fiber is
        // never resumed again, but a spurious resume must not fall off
        // the end of the stack.
        // SAFETY: same save/load discipline as `suspend_current`.
        unsafe { switch_context(&mut inner.fiber_rsp, &mut inner.caller_rsp) };
    }
}

/// Per-fiber bookkeeping. Boxed so its address is stable while the fiber
/// holds a pointer to it in a register.
struct FiberInner {
    /// Where the fiber's stack pointer is parked while it is suspended.
    fiber_rsp: *mut u8,
    /// Where the resuming caller's stack pointer is parked while the
    /// fiber runs.
    caller_rsp: *mut u8,
    done: bool,
    entry: Option<Box<dyn FnOnce()>>,
}

thread_local! {
    /// The fiber currently running on this OS thread (null outside any).
    static RUNNING: Cell<*mut FiberInner> = const { Cell::new(std::ptr::null_mut()) };

    /// The pool this thread's last world left behind, for the next one.
    pub(super) static CACHED: RefCell<Option<StackPool>> = const { RefCell::new(None) };

    /// `[base, length, slot stride]` of this thread's live reservation, all
    /// zero when it has none. Plain words with no destructor, so the fault
    /// handler can read them from signal context.
    pub(super) static RESERVATION: Cell<[usize; 3]> = const { Cell::new([0; 3]) };
}

/// The `SIGSEGV` and `SIGBUS` actions in force before [`on_fault`] was
/// installed, in that order.
static PREVIOUS_ACTIONS: OnceLock<[sys::SigAction; 2]> = OnceLock::new();

/// One reservation of fiber stacks, `capacity` slots of
/// `[guard page | stack]`, owned by the thread that mapped it.
pub(super) struct StackPool {
    pub(super) base: *mut u8,
    /// Usable bytes per slot, a multiple of [`PAGE`].
    pub(super) stack_bytes: usize,
    pub(super) capacity: usize,
}

impl StackPool {
    /// A pool with at least `count` stacks of at least `stack_size` bytes
    /// each (rounded up to whole pages): the one this thread's previous
    /// world released if it fits, a fresh reservation otherwise — the
    /// previous one is unmapped first.
    ///
    /// A fresh reservation is sized to the next power of two, so worlds of
    /// similar size share it. It fails, with a message fit for one `error:`
    /// line, when the stack size overflows, when guards that split the
    /// mapping would take more kernel mappings than `vm.max_map_count`
    /// allows (two per slot, plus [`SPARE_MAPPINGS`]), or when the kernel
    /// refuses the address space.
    pub(super) fn acquire(stack_size: usize, count: usize) -> Result<StackPool, String> {
        let stack_bytes = stack_size
            .checked_next_multiple_of(PAGE)
            .ok_or_else(|| format!("a fiber stack of {stack_size} bytes is too large"))?;
        let cached = CACHED.with(|cached| cached.take());
        match cached {
            Some(pool) if pool.stack_bytes == stack_bytes && count <= pool.capacity => Ok(pool),
            stale => {
                drop(stale);
                StackPool::map(stack_bytes, count)
            }
        }
    }

    /// Bytes from one slot to the next: its guard page and its stack.
    pub(super) fn stride(&self) -> usize {
        self.stack_bytes + PAGE
    }

    /// Leave the pool to this thread's next world.
    pub(super) fn release(self) {
        CACHED.with(|cached| cached.replace(Some(self)));
    }

    fn map(stack_bytes: usize, count: usize) -> Result<StackPool, String> {
        assert!(
            RESERVATION.get()[1] == 0,
            "mpisim: a thread holds one fiber stack reservation at a time"
        );
        let guards = Guards::probe();
        let capacity = match guards {
            Guards::InPlace => count.checked_next_power_of_two().unwrap_or(count),
            Guards::Split { max_map_count } => capacity_for(count, max_map_count)?,
        };
        let extent = stack_bytes
            .checked_add(PAGE)
            .and_then(|stride| Some((stride, stride.checked_mul(capacity)?)));
        let Some((stride, len)) = extent else {
            return Err(format!(
                "{capacity} fiber stacks of {stack_bytes} bytes overflow the address space"
            ));
        };
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases nothing; failure is checked.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE,
                -1,
                0,
            )
        };
        if base == sys::MAP_FAILED {
            return Err(format!(
                "cannot reserve {len} bytes of address space for {capacity} fiber stacks of \
                 {stack_bytes} bytes: {}",
                std::io::Error::last_os_error()
            ));
        }
        // With transparent huge pages set to `always`, one touched byte
        // would commit 2 MiB — the stacks of four ranks. A kernel built
        // without THP rejects the advice, which is just as good.
        // SAFETY: the range is the mapping made above.
        #[cfg(target_os = "linux")]
        unsafe {
            sys::madvise(base, len, sys::MADV_NOHUGEPAGE);
        }
        let base = base.cast::<u8>();
        for slot in 0..capacity {
            // SAFETY: the guard is the first page of slot `slot`, inside
            // the mapping; nothing has been handed out of it yet.
            if !unsafe { guards.place(base.add(slot * stride)) } {
                let cause = std::io::Error::last_os_error();
                // Unmap before building the message: at the mapping limit
                // the allocator cannot grow either.
                // SAFETY: the mapping made above, not yet shared.
                unsafe { sys::munmap(base.cast(), len) };
                let budget = match guards {
                    Guards::InPlace => String::new(),
                    Guards::Split { max_map_count } => format!(
                        " (vm.max_map_count is {max_map_count}, and worlds on other threads \
                         count against it too)"
                    ),
                };
                return Err(format!(
                    "cannot guard {capacity} fiber stacks, guard {slot}: {cause}{budget}"
                ));
            }
        }
        RESERVATION.set([base as usize, len, stride]);
        install_fault_handler();
        Ok(StackPool {
            base,
            stack_bytes,
            capacity,
        })
    }

    /// Create a fiber on stack `slot` that will run `entry` when first
    /// resumed.
    ///
    /// # Safety
    ///
    /// The pool must outlive the fiber, and no other live fiber may have
    /// been created on `slot`: two fibers on one stack overwrite each
    /// other's frames.
    pub(super) unsafe fn fiber(&self, slot: usize, entry: Box<dyn FnOnce()>) -> Fiber {
        assert!(
            slot < self.capacity,
            "fiber slot {slot} of {}",
            self.capacity
        );
        let mut inner = Box::new(FiberInner {
            fiber_rsp: std::ptr::null_mut(),
            caller_rsp: std::ptr::null_mut(),
            done: false,
            entry: Some(entry),
        });
        // SAFETY: `slot < capacity`, so the slot's stack — the
        // `stack_bytes` above its guard page — lies inside the mapping, is
        // readable and writable, and by the condition above is this
        // fiber's alone.
        inner.fiber_rsp = unsafe {
            let stack = self.base.add(slot * self.stride() + PAGE);
            seed_stack(stack, self.stack_bytes, &mut *inner)
        };
        Fiber { inner }
    }
}

impl Drop for StackPool {
    fn drop(&mut self) {
        RESERVATION.set([0; 3]);
        // SAFETY: the mapping made in `map`; every fiber borrowed the pool
        // and is gone. An error here could only mean the arguments are not
        // that mapping, and a destructor has nobody to report it to.
        unsafe { sys::munmap(self.base.cast(), self.stride() * self.capacity) };
    }
}

/// How a pool's guard pages are made.
#[derive(Clone, Copy)]
enum Guards {
    /// `madvise(MADV_GUARD_INSTALL)`: the reservation stays one mapping,
    /// whatever the slot count.
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    InPlace,
    /// A `PROT_NONE` page per slot (kernels before Linux 6.13, macOS): two
    /// mappings per slot, under `vm.max_map_count`.
    Split { max_map_count: usize },
}

impl Guards {
    /// What this kernel offers, asked of a scratch page once per pool.
    fn probe() -> Guards {
        #[cfg(target_os = "linux")]
        // SAFETY: a fresh anonymous page, advised and unmapped here; nothing
        // else can reach it. Failures are checked.
        unsafe {
            let page = sys::mmap(
                std::ptr::null_mut(),
                PAGE,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                -1,
                0,
            );
            if page != sys::MAP_FAILED {
                let in_place = sys::madvise(page, PAGE, sys::MADV_GUARD_INSTALL) == 0;
                sys::munmap(page, PAGE);
                if in_place {
                    return Guards::InPlace;
                }
            }
        }
        let max_map_count = std::fs::read_to_string("/proc/sys/vm/max_map_count")
            .ok()
            .and_then(|text| text.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_MAX_MAP_COUNT);
        Guards::Split { max_map_count }
    }

    /// Make the page at `page` a guard; `false` (with `errno` set) if the
    /// kernel refuses.
    ///
    /// # Safety
    ///
    /// `page` is a page of a private anonymous mapping that no fiber uses.
    unsafe fn place(self, page: *mut u8) -> bool {
        let page = page.cast();
        let status = match self {
            // SAFETY: by the function's condition.
            #[cfg(target_os = "linux")]
            Guards::InPlace => unsafe { sys::madvise(page, PAGE, sys::MADV_GUARD_INSTALL) },
            #[cfg(not(target_os = "linux"))]
            Guards::InPlace => unreachable!("only Linux installs guards in place"),
            // SAFETY: by the function's condition.
            Guards::Split { .. } => unsafe { sys::mprotect(page, PAGE, sys::PROT_NONE) },
        };
        status == 0
    }
}

/// Slots to reserve for a world of `count` ranks when guards split the
/// reservation: the next power of two, so worlds of similar size share a
/// pool, as far as the kernel's mapping limit allows — each slot's guard
/// splits the reservation into two mappings, and [`SPARE_MAPPINGS`] stay
/// with the rest of the process.
pub(super) fn capacity_for(count: usize, max_map_count: usize) -> Result<usize, String> {
    let most = max_map_count.saturating_sub(SPARE_MAPPINGS) / 2;
    if count > most {
        return Err(format!(
            "{count} fiber stacks take 2 x {count} + {SPARE_MAPPINGS} memory mappings (a stack \
             and its guard page each, plus the rest of the process) but vm.max_map_count is \
             {max_map_count}: the largest p that fits is {most} (raise the limit with `sysctl \
             -w vm.max_map_count=N`)"
        ));
    }
    Ok(count.next_power_of_two().min(most))
}

/// Route `SIGSEGV` and `SIGBUS` through [`on_fault`], once per process.
fn install_fault_handler() {
    PREVIOUS_ACTIONS.get_or_init(|| {
        [sys::SIGSEGV, sys::SIGBUS].map(|signal| {
            // SAFETY: all-zero is a valid `struct sigaction` (default
            // action, empty mask, no flags).
            let mut action: sys::SigAction = unsafe { std::mem::zeroed() };
            action.handler = on_fault as *const () as usize;
            // The faulting fiber has no stack left to run a handler on;
            // std gives the main thread and every `std::thread` an
            // alternate signal stack.
            action.flags = sys::SA_SIGINFO | sys::SA_ONSTACK;
            // SAFETY: as above.
            let mut previous: sys::SigAction = unsafe { std::mem::zeroed() };
            // SAFETY: both pointers are to live, initialised structs, and
            // `on_fault` has the three-argument `SA_SIGINFO` signature.
            unsafe { sys::sigaction(signal, &action, &mut previous) };
            previous
        })
    });
}

/// A fault on one of this thread's guard pages is a fiber stack overflow:
/// say so and abort. Any other fault is not ours: put the previous action
/// back and return, so the faulting instruction runs again and the fault
/// goes where it went before — how std's own stack-overflow handler
/// declines a fault.
extern "C" fn on_fault(signal: c_int, info: *const u8, _context: *mut c_void) {
    // SAFETY: installed with `SA_SIGINFO`, so `info` points to a
    // `siginfo_t`, which for these two signals carries the faulting
    // address at this offset.
    let address = unsafe { info.add(sys::SI_ADDR_OFFSET).cast::<usize>().read() };
    let [base, len, stride] = RESERVATION.get();
    let offset = address.wrapping_sub(base);
    if offset < len && offset % stride < PAGE {
        // SAFETY: `write` and `abort` are async-signal-safe; the buffer is
        // a static.
        unsafe {
            sys::write(2, OVERFLOW_MSG.as_ptr().cast(), OVERFLOW_MSG.len());
            sys::abort();
        }
    }
    // SAFETY: all-zero is the default action, for a fault that arrives
    // while `install_fault_handler` is still between its two calls.
    let default: sys::SigAction = unsafe { std::mem::zeroed() };
    let previous = PREVIOUS_ACTIONS.get().map_or(&default, |actions| {
        &actions[usize::from(signal != sys::SIGSEGV)]
    });
    // SAFETY: `previous` is a live, initialised struct; `sigaction` is
    // async-signal-safe.
    unsafe { sys::sigaction(signal, previous, std::ptr::null_mut()) };
}

/// A suspended or runnable fiber on one stack of its pool.
pub(super) struct Fiber {
    inner: Box<FiberInner>,
}

impl Fiber {
    /// Switch to the fiber until it suspends or finishes. Dropping an
    /// unfinished fiber abandons its stack without running the destructors
    /// of frames parked on it — a leak, never UB.
    pub(super) fn resume(&mut self) -> bool {
        assert!(!self.inner.done, "resumed a finished fiber");
        let inner: *mut FiberInner = &mut *self.inner;
        let previous = RUNNING.with(|running| running.replace(inner));
        // SAFETY: both pointers are fields of the live boxed FiberInner;
        // the seeded (or previously saved) fiber_rsp points into this
        // fiber's own stack slot, which the borrowed pool keeps mapped.
        unsafe { switch_context(&mut (*inner).caller_rsp, &mut (*inner).fiber_rsp) };
        RUNNING.with(|running| running.set(previous));
        self.inner.done
    }
}

/// Switch the fiber running on this thread, if any, back out to whoever
/// called [`Fiber::resume`]; `false` when the thread is running none.
pub(super) fn suspend_running() -> bool {
    let inner = RUNNING.with(|running| running.get());
    if inner.is_null() {
        return false;
    }
    // SAFETY: `inner` was installed by the `resume` frame still live on
    // the caller side of this switch.
    unsafe { switch_context(&mut (*inner).fiber_rsp, &mut (*inner).caller_rsp) };
    true
}

/// Is the calling thread running a fiber?
#[cfg(test)]
pub(super) fn in_fiber() -> bool {
    RUNNING.with(|running| !running.get().is_null())
}

/// Write the initial context frame a fresh fiber is "restored" from and
/// return the stack pointer to load. Layout mirrors `switch_context`'s
/// restore path exactly: mxcsr/fcw slot, r15..rbx..rbp, return address
/// (the trampoline), plus a null frame-pointer backstop above it.
///
/// # Safety
///
/// `stack` must point to `size` writable bytes that no live fiber uses.
unsafe fn seed_stack(stack: *mut u8, size: usize, inner: *mut FiberInner) -> *mut u8 {
    let top = unsafe { stack.add(size) };
    let frame = unsafe { top.sub(CTX_FRAME).cast::<u64>() };
    unsafe {
        frame.write(0x1F80); // [rsp]   mxcsr (default), [rsp+4] fcw below
        frame.cast::<u32>().add(1).write(0x037F); // x87 default control word
        frame.add(1).write(0); // pad to 16 bytes
        frame.add(2).write(0); // r15
        frame.add(3).write(0); // r14
        frame.add(4).write(0); // r13
        frame.add(5).write(0); // r12
        frame.add(6).write(inner as u64); // rbx -> FiberInner
        frame.add(7).write(0); // rbp
        frame.add(8).write(trampoline as *const () as usize as u64); // ret target
    }
    frame.cast::<u8>()
}
