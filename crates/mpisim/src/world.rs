//! World construction and the SPMD launch harness.
//!
//! [`WorldBuilder`] configures rank count, machine model, seed, tools and
//! the execution [`Engine`], then [`WorldBuilder::run`] executes the SPMD
//! closure on every rank and reports per-rank results. Two engines share
//! the same mailbox/rendezvous substrate:
//!
//! * [`Engine::Des`] (default on x86-64) — every rank is a cooperative
//!   fiber driven by a single-threaded virtual-time event queue
//!   (`crate::des`); blocking operations suspend the fiber instead of an
//!   OS thread, which is what makes 16k+ rank worlds practical.
//! * [`Engine::Threads`] — one OS thread per rank, blocking on condvars;
//!   the portable fallback and the reference for engine-equivalence tests.
//!
//! Rank panics poison the world so blocked peers unwind instead of
//! deadlocking, and the first failure is reported as a [`RunError`]. Under
//! the DES engine a genuine communication deadlock (every live rank
//! blocked, nothing in flight) is detected and reported too, instead of
//! hanging the process.

use crate::comm::{CommShared, Registry};
use crate::diag::{self, Diagnostic};
use crate::error::{RunError, POISONED_MSG};
use crate::event::MpiEvent;
use crate::mailbox::{MailboxSet, Poison};
use crate::proc::Proc;
use crate::tool::{Tool, ToolSet};
use machine::{presets, MachineModel, VTime};
use std::sync::Arc;

/// How the ranks of a world execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One OS thread per rank (portable reference engine).
    Threads,
    /// Single-threaded discrete-event scheduler over cooperative fibers
    /// (x86-64 only; falls back to `Threads` elsewhere).
    Des,
}

impl Engine {
    /// The default engine: `des` where supported, honoring the
    /// `MPISIM_ENGINE` environment variable (`threads` | `des`).
    pub fn default_from_env() -> Engine {
        match std::env::var("MPISIM_ENGINE").as_deref() {
            Ok("threads") => Engine::Threads,
            Ok("des") => Engine::Des,
            Ok(other) => {
                eprintln!("mpisim: unknown MPISIM_ENGINE '{other}', using des");
                Engine::Des
            }
            Err(_) => Engine::Des,
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;
    fn from_str(s: &str) -> Result<Engine, String> {
        match s {
            "threads" => Ok(Engine::Threads),
            "des" => Ok(Engine::Des),
            other => Err(format!("unknown engine '{other}' (threads|des)")),
        }
    }
}

/// Configuration and launch entry point for a simulated MPI world.
pub struct WorldBuilder {
    nranks: usize,
    machine: MachineModel,
    seed: u64,
    tools: Vec<Arc<dyn Tool>>,
    engine: Engine,
    stack_size: usize,
    match_controller: Option<Arc<dyn crate::control::MatchController>>,
}

impl WorldBuilder {
    /// A world of `nranks` ranks on the `ideal()` machine with seed 0.
    pub fn new(nranks: usize) -> Self {
        WorldBuilder {
            nranks,
            machine: presets::ideal(),
            seed: 0,
            tools: Vec::new(),
            engine: Engine::default_from_env(),
            stack_size: default_stack_size(),
            match_controller: None,
        }
    }

    /// Select the machine model.
    pub fn machine(mut self, machine: MachineModel) -> Self {
        self.machine = machine;
        self
    }

    /// Select the noise/placement seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a tool (PMPI-style observer). Tools fire in attach order.
    pub fn tool(mut self, tool: Arc<dyn Tool>) -> Self {
        self.tools.push(tool);
        self
    }

    /// Select the execution engine (overrides `MPISIM_ENGINE`).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Per-rank fiber stack size for the DES engine (ignored by the
    /// threads engine), rounded up to whole pages and to 16 KiB at least.
    /// Untouched pages are never committed, so a generous size costs
    /// address space — the stack plus one guard page per rank — not
    /// memory. A size the host cannot map fails [`WorldBuilder::run`] with
    /// [`RunError::StackReservation`].
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Attach a [`MatchController`](crate::MatchController) that resolves
    /// every wildcard-receive matching (the dynamic-verification hook).
    /// Without one, wildcard receives match in arrival order.
    pub fn match_controller(
        mut self,
        controller: Arc<dyn crate::control::MatchController>,
    ) -> Self {
        self.match_controller = Some(controller);
        self
    }

    /// Launch the world: run `f` as the SPMD program of every rank.
    ///
    /// Returns per-rank results and final virtual clocks. The rank function
    /// runs between implicit `Init`/`Finalize` tool events (which is where
    /// the paper's `MPI_MAIN` section opens and closes).
    pub fn run<R, F>(self, f: F) -> Result<RunReport<R>, RunError>
    where
        R: Send,
        F: Fn(&mut Proc) -> R + Send + Sync,
    {
        if self.nranks == 0 {
            return Err(RunError::NoRanks);
        }
        let shared = WorldShared::build(&self);
        match self.engine {
            #[cfg(target_arch = "x86_64")]
            Engine::Des => run_des(&shared, self.nranks, self.seed, self.stack_size, &f),
            #[cfg(not(target_arch = "x86_64"))]
            Engine::Des => run_threads(&shared, self.nranks, self.seed, &f),
            Engine::Threads => run_threads(&shared, self.nranks, self.seed, &f),
        }
    }
}

/// The per-engine stack default: half a MiB of (lazily committed) stack
/// per fiber, overridable with `WorldBuilder::stack_size`.
fn default_stack_size() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        crate::fiber::DEFAULT_STACK_SIZE
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        512 * 1024
    }
}

/// The engine-independent substrate of one world.
struct WorldShared {
    machine: Arc<MachineModel>,
    poison: Arc<Poison>,
    mailboxes: Arc<MailboxSet>,
    registry: Arc<Registry>,
    world_comm: Arc<CommShared>,
    tools: ToolSet,
}

impl WorldShared {
    fn build(b: &WorldBuilder) -> WorldShared {
        let machine = Arc::new(b.machine.clone());
        let poison = Arc::new(Poison::default());
        let mut mailboxes = MailboxSet::new(b.nranks, poison.clone());
        mailboxes.controller = b.match_controller.clone();
        let mailboxes = Arc::new(mailboxes);
        let registry = Arc::new(Registry::new(machine.topology));
        let world_comm = registry.register((0..b.nranks).collect());
        WorldShared {
            machine,
            poison,
            mailboxes,
            registry,
            world_comm,
            tools: ToolSet::from_tools(b.tools.clone()),
        }
    }
}

/// Execute one rank's body inside the unwind net shared by both engines:
/// Init/Finalize raises happen inside the net (a tool aborting at either
/// event must produce a `RunError`, not crash the harness), and a failure
/// poisons the world before being packaged for the report.
fn run_rank<R, F>(shared: &WorldShared, mut proc: Proc, f: &F) -> Result<(R, VTime), RankFailure>
where
    F: Fn(&mut Proc) -> R,
{
    let nranks = proc.world_size();
    let rank = proc.world_rank();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        proc.raise(MpiEvent::Init {
            size: nranks,
            time: proc.now(),
        });
        let value = f(&mut proc);
        proc.raise(MpiEvent::Finalize { time: proc.now() });
        (value, proc.now())
    }));
    result.map_err(|payload| {
        // Poison before extracting the message so blocked peers wake
        // promptly (under DES: get re-queued and unwind when resumed).
        shared.mailboxes.poison_all();
        shared.registry.wake_all();
        // Unwinding stayed on this thread (fibers share the scheduler
        // thread, but each failing rank drains the channel before any
        // other rank can deposit), so any diagnostics deposited by
        // `diag::abort_with` are ours.
        let diagnostics = diag::take_pending();
        let mut message = panic_message(payload);
        if message != POISONED_MSG && diagnostics.is_empty() {
            let context = shared.tools.rank_context(rank);
            if !context.is_empty() {
                message = format!("{message} [{}]", context.join("; "));
            }
        }
        RankFailure {
            message,
            diagnostics,
        }
    })
}

/// The threads engine: one OS thread per rank, parked on condvars while
/// blocked. Portable, but thread spawn/park costs cap practical world
/// sizes around the low thousands.
fn run_threads<R, F>(
    shared: &WorldShared,
    nranks: usize,
    seed: u64,
    f: &F,
) -> Result<RunReport<R>, RunError>
where
    R: Send,
    F: Fn(&mut Proc) -> R + Send + Sync,
{
    let outcomes: Vec<Result<(R, VTime), RankFailure>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nranks)
            .map(|rank| {
                scope.spawn(move || {
                    let proc = Proc::new(
                        rank,
                        nranks,
                        shared.machine.clone(),
                        shared.tools.clone(),
                        shared.mailboxes.clone(),
                        shared.registry.clone(),
                        seed,
                        shared.world_comm.clone(),
                    );
                    run_rank(shared, proc, f)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mpisim: rank thread itself crashed"))
            .collect()
    });
    finish_run(shared, outcomes, false)
}

/// The DES engine: every rank is a fiber, driven to completion by the
/// virtual-time scheduler on the calling thread.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)] // fiber spawn: lifetime erasure justified below
fn run_des<R, F>(
    shared: &WorldShared,
    nranks: usize,
    seed: u64,
    stack_size: usize,
    f: &F,
) -> Result<RunReport<R>, RunError>
where
    R: Send,
    F: Fn(&mut Proc) -> R + Send + Sync,
{
    use std::cell::RefCell;
    use std::rc::Rc;

    /// One rank's result slot, filled in when its fiber finishes.
    type Outcome<R> = Option<Result<(R, VTime), RankFailure>>;

    let scheduler = Rc::new(crate::des::Scheduler::new(nranks));
    let _active = crate::des::install(scheduler.clone());
    let stacks =
        crate::fiber::StackPool::acquire(stack_size, nranks).map_err(RunError::StackReservation)?;
    let outcomes: Rc<RefCell<Vec<Outcome<R>>>> =
        Rc::new(RefCell::new((0..nranks).map(|_| None).collect()));
    let mut fibers: Vec<crate::fiber::Fiber<'_>> = (0..nranks)
        .map(|rank| {
            let outcomes = outcomes.clone();
            let body = move || {
                let proc = Proc::new(
                    rank,
                    nranks,
                    shared.machine.clone(),
                    shared.tools.clone(),
                    shared.mailboxes.clone(),
                    shared.registry.clone(),
                    seed,
                    shared.world_comm.clone(),
                );
                let outcome = run_rank(shared, proc, f);
                outcomes.borrow_mut()[rank] = Some(outcome);
            };
            // SAFETY: the fibers borrow `shared` and `f`, which outlive
            // them in this function, and `drive` runs every fiber to
            // completion before we return (a panic unwinds through the
            // fibers' drop glue and then unmaps their stacks). Rank `rank`
            // is the only fiber on slot `rank`.
            unsafe { stacks.fiber(rank, Box::new(body)) }
        })
        .collect();
    scheduler.drive(&mut fibers, &|| shared.poison.set());
    drop(fibers);
    stacks.release();
    let outcomes: Vec<Result<(R, VTime), RankFailure>> = Rc::into_inner(outcomes)
        .expect("fibers dropped")
        .into_inner()
        .into_iter()
        .map(|o| o.expect("every fiber completed"))
        .collect();
    finish_run(shared, outcomes, scheduler.deadlocked())
}

/// Shared epilogue: split outcomes into results and failures, rank the
/// failures (structured diagnostics > root-cause panic > poison fallout)
/// and notify tools of completion.
fn finish_run<R>(
    shared: &WorldShared,
    outcomes: Vec<Result<(R, VTime), RankFailure>>,
    deadlocked: bool,
) -> Result<RunReport<R>, RunError> {
    let nranks = outcomes.len();
    let mut results = Vec::with_capacity(nranks);
    let mut final_times = Vec::with_capacity(nranks);
    let mut failures: Vec<(usize, RankFailure)> = Vec::new();
    for (rank, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok((value, time)) => {
                results.push(value);
                final_times.push(time);
            }
            Err(failure) => failures.push((rank, failure)),
        }
    }
    if !failures.is_empty() {
        // Structured findings take precedence over raw panic strings.
        let diagnostics: Vec<Diagnostic> = failures
            .iter()
            .flat_map(|(_, f)| f.diagnostics.iter().cloned())
            .collect();
        if !diagnostics.is_empty() {
            return Err(RunError::Diagnosed(diag::dedup(diagnostics)));
        }
        // Report the root cause, not the poison-induced unwinds of the
        // peers that were blocked when the world went down.
        let (rank, message) = failures
            .iter()
            .find(|(_, f)| f.message != POISONED_MSG)
            .map(|(rank, f)| (*rank, f.message.clone()))
            .unwrap_or_else(|| {
                let rank = failures[0].0;
                let message = if deadlocked {
                    format!(
                        "deadlock: all {} live ranks blocked with nothing in flight \
                         (first blocked rank: {rank})",
                        failures.len()
                    )
                } else {
                    "poisoned (root cause lost)".into()
                };
                (rank, message)
            });
        return Err(RunError::RankPanicked { rank, message });
    }
    shared.tools.complete(nranks);
    let makespan = final_times.iter().copied().max().unwrap_or(VTime::ZERO);
    Ok(RunReport {
        results,
        final_times,
        makespan,
    })
}

/// What a failed rank hands back to the harness.
struct RankFailure {
    message: String,
    diagnostics: Vec<Diagnostic>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Outcome of a successful run.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank return values, indexed by world rank.
    pub results: Vec<R>,
    /// Per-rank final virtual clocks.
    pub final_times: Vec<VTime>,
    /// The latest final clock — the simulated wall time of the job.
    pub makespan: VTime,
}

impl<R> RunReport<R> {
    /// Simulated wall time in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.makespan.as_secs_f64()
    }
}
