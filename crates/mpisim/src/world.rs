//! World construction and the SPMD launch harness.
//!
//! [`WorldBuilder`] configures rank count, machine model, seed, tools and
//! the execution [`Engine`], then [`WorldBuilder::run`] executes the SPMD
//! closure on every rank and reports per-rank results. Every rank is a
//! cooperative fiber, and one virtual-time scheduler (`crate::des`) runs
//! them one at a time: a blocking operation suspends its fiber, the peer
//! that satisfies it re-queues it. The two engines differ only in how a
//! fiber is switched (`crate::fiber`) and in which of two equal-clock
//! ranks runs first:
//!
//! * [`Engine::Des`] (the default) — the cheapest switch the target has:
//!   on x86-64 a hand-written register swap between stacks on the
//!   scheduler's own thread, which is what makes 16k+ rank worlds
//!   practical; on any other target the same switch as `Threads`.
//! * [`Engine::Threads`] — one parked OS thread per rank, handing a baton
//!   to the scheduler's thread and back: safe code on every target, and
//!   the reference the default engine is tested against.
//!
//! Rank panics poison the world so blocked peers unwind instead of
//! deadlocking, and the first failure is reported as a [`RunError`]. A
//! genuine communication deadlock (every live rank blocked, nothing in
//! flight) is proved by the scheduler and comes back as
//! [`RunError::Diagnosed`] with one `Deadlock` diagnostic naming every
//! blocked call site — and, through the attached tools' `rank_context`,
//! the sections each stuck rank had open — instead of hanging the process.

use crate::comm::CommShared;
use crate::diag::{self, Diagnostic, Wait};
use crate::error::{RunError, POISONED_MSG};
use crate::event::{CommId, MpiEvent};
use crate::fiber::{Fiber, StackPool, Switch};
use crate::mailbox::MailboxSet;
use crate::proc::Proc;
use crate::tool::{Tool, ToolSet};
use machine::{presets, MachineModel, VTime};
use parking_lot::Mutex;
use std::rc::Rc;
use std::sync::Arc;

/// How the ranks of a world execute. Both values run the same scheduler
/// and produce the same virtual times; they differ in the cost of a switch
/// and in host-visible order only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The reference engine: every rank is a parked OS thread, switched by
    /// handing a baton to the scheduler's thread and back — safe code on
    /// every target. It also runs ranks whose virtual clocks are equal in
    /// *descending* rank order where `Des` runs them ascending: no result
    /// may depend on that order, so every test that compares the two
    /// engines checks the assembly switch against safe code and schedule
    /// independence at once.
    Threads,
    /// The default: the cheapest switch the target has — stacks switched
    /// in assembly on the scheduler's own thread on x86-64, the `Threads`
    /// baton elsewhere.
    Des,
}

impl Engine {
    /// The default engine: `des`, unless the `MPISIM_ENGINE` environment
    /// variable says otherwise (`threads` | `des`).
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
            stack_size: crate::fiber::DEFAULT_STACK_SIZE,
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

    /// Per-rank stack size on either engine, rounded up to whole pages and
    /// to 16 KiB at least (default: 512 KiB). Untouched pages are never
    /// committed, so a generous size costs address space — the stack plus
    /// one guard page per rank — not memory. A size the host cannot map
    /// fails [`WorldBuilder::run`] with [`RunError::StackReservation`].
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
    #[allow(unsafe_code)] // fiber spawn: lifetime erasure justified below
    pub fn run<R, F>(self, f: F) -> Result<RunReport<R>, RunError>
    where
        R: Send,
        F: Fn(&mut Proc) -> R + Send + Sync,
    {
        if self.nranks == 0 {
            return Err(RunError::NoRanks);
        }
        let (nranks, seed) = (self.nranks, self.seed);
        let (switch, reverse_ties) = match self.engine {
            Engine::Des => (Switch::Native, false),
            Engine::Threads => (Switch::Baton, true),
        };
        let shared = &WorldShared::build(&self);
        let scheduler = Rc::new(crate::des::Scheduler::new(nranks, reverse_ties));
        let _active = crate::des::install(scheduler.clone());
        let stacks = StackPool::acquire(switch, self.stack_size, nranks)
            .map_err(RunError::StackReservation)?;
        // One rank's result slot each, filled in when its fiber finishes.
        let outcomes = &Mutex::new((0..nranks).map(|_| None).collect::<Vec<_>>());
        let f = &f;
        let mut fibers = (0..nranks)
            .map(|rank| {
                let body = move || {
                    let proc = Proc::new(
                        rank,
                        nranks,
                        shared.machine.clone(),
                        shared.tools.clone(),
                        shared.mailboxes.clone(),
                        seed,
                        shared.world_comm.clone(),
                    );
                    outcomes.lock()[rank] = Some(run_rank(shared, proc, f));
                };
                // SAFETY: the fibers borrow `shared`, `outcomes` and `f`,
                // which outlive them in this function: `drive` runs every
                // fiber to completion before we return, and a panic unwinds
                // through the fibers' drop glue before it reaches what they
                // borrow, the stacks or `_active`. Rank `rank` is the only
                // fiber on slot `rank`.
                unsafe { stacks.fiber(rank, Box::new(body)) }
            })
            .collect::<Result<Vec<Fiber<'_>>, String>>()
            .map_err(RunError::StackReservation)?;
        scheduler.drive(&mut fibers, &|| shared.mailboxes.poison.set());
        drop(fibers);
        stacks.release();
        let outcomes = std::mem::take(&mut *outcomes.lock())
            .into_iter()
            .map(|outcome| outcome.expect("every fiber completed"))
            .collect();
        finish_run(shared, outcomes, scheduler.take_stuck())
    }
}

/// The substrate of one world.
struct WorldShared {
    machine: Arc<MachineModel>,
    mailboxes: Arc<MailboxSet>,
    world_comm: Arc<CommShared>,
    tools: ToolSet,
}

impl WorldShared {
    fn build(b: &WorldBuilder) -> WorldShared {
        let machine = Arc::new(b.machine.clone());
        let mailboxes = MailboxSet {
            controller: b.match_controller.clone(),
            ..MailboxSet::default()
        };
        let world_comm = CommShared::new(CommId::WORLD, (0..b.nranks).collect(), &machine.topology);
        WorldShared {
            machine,
            mailboxes: Arc::new(mailboxes),
            world_comm,
            tools: ToolSet::from_tools(b.tools.clone()),
        }
    }
}

/// Execute one rank's body inside its unwind net: Init/Finalize raises
/// happen inside the net (a tool aborting at either event must produce a
/// `RunError`, not crash the harness), and a failure poisons the world
/// before being packaged for the report.
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
        // Poison before extracting the message so blocked peers get
        // re-queued, and unwind when resumed.
        shared.mailboxes.poison_all();
        // One rank runs at a time and each failing rank drains the channel
        // before it suspends or ends, so any diagnostics deposited by
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

/// Shared epilogue: split outcomes into results and failures, rank the
/// failures (structured diagnostics > root-cause panic > proved deadlock >
/// poison fallout) and notify tools of completion. `stuck` is what the
/// scheduler collected from the ranks it revived out of a deadlock.
fn finish_run<R>(
    shared: &WorldShared,
    outcomes: Vec<Result<(R, VTime), RankFailure>>,
    stuck: Vec<(usize, Wait)>,
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
        let root_cause = failures.iter().find(|(_, f)| f.message != POISONED_MSG);
        if let Some((rank, failure)) = root_cause {
            return Err(RunError::RankPanicked {
                rank: *rank,
                message: failure.message.clone(),
            });
        }
        if !stuck.is_empty() {
            // `run_rank` leaves a poisoned rank's context out of its
            // message; a stuck rank's goes on its site of the report.
            let context = |rank| shared.tools.rank_context(rank);
            return Err(RunError::Diagnosed(vec![diag::deadlock(stuck, context)]));
        }
        return Err(RunError::RankPanicked {
            rank: failures[0].0,
            message: "poisoned (root cause lost)".into(),
        });
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
