//! The `MPI_Section` runtime: one open-section stack per rank, invariant
//! verification, and tool notification.
//!
//! This is the reference implementation the paper describes in §4: "Our
//! reference implementation simply manipulates a stack of contexts for each
//! communicator, calling tool callbacks upon enter and exit events." A
//! rank's stacks are one list of its open frames, in enter order across
//! communicators; a leave's event says which section the rank is in after
//! it, so no tool keeps a stack of its own. The 32-byte `data` blob of the
//! callback interface (Fig. 2) is owned by the runtime and preserved
//! between the enter and the matching leave. Events and tool infos name a
//! section by its [`Label`], an id into the process-wide label table that
//! the runtime consults only when it meets a label for the first time.
//!
//! Invariants enforced (the paper's "non-intrusive synchronization
//! primitives which could be selectively enabled"):
//!
//! * **Perfect nesting** (always on — it is a local check): the label of an
//!   exit must match the innermost open section on that communicator.
//! * **Collective consistency** ([`VerifyMode::Active`], the default):
//!   every rank of a communicator must traverse the same sequence of
//!   section enters/exits. The check shares a per-communicator event log
//!   — no time synchronization is introduced, only detection. The log is
//!   one `u32` per agreed event (`section id << 1 | is_enter`); labels come
//!   back from the section table only to word a diagnostic. This is the
//!   paper's "selectively enabled" switch: pass [`VerifyMode::Off`] for
//!   production-scale sweeps, where the log's 4 bytes per event matter.
//!
//! A world runs one rank at a time, so all of this lives in one
//! [`WorldCell`] that the running world reads and writes with plain loads
//! and stores: a rank's enter or exit locks it once, and tools are called
//! after its guard is dropped.
//!
//! Nothing in it is a heap block per rank. A rank's slot is two words (its
//! innermost frame and its event count); its open frames live in one arena
//! for the world, linked from the innermost down; counters sit in tables
//! of the section or communicator they count, indexed by communicator
//! rank. So the state grows with the frames actually open and with
//! communicator memberships, not with p × communicators.

use crate::fasthash::FastMap;
use crate::tool::{EnterInfo, LeaveInfo, SectionTool};
use machine::VTime;
use mpisim::{
    diag, Comm, CommId, Diagnostic, DiagnosticKind, EventKind, EventMask, Label, MpiEvent, Proc,
    SectionData, Severity, Tool, WorldCell,
};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

pub use mpisim::MPI_MAIN;

/// Whether cross-rank section-ordering verification is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// No cross-rank checking (production profile, zero shared state).
    /// Use this for large sweeps: verification funnels every enter/exit
    /// through one shared log that grows by 4 bytes per agreed event.
    Off,
    /// Shared-log verification of section order across ranks (default:
    /// misuse should be loud while developing).
    #[default]
    Active,
}

/// The end of a rank's frame list, and of the arena's free list.
const NONE: u32 = u32::MAX;

/// One open section on one rank: a slot of the world's frame arena.
#[derive(Clone, Copy)]
struct Frame {
    /// Dense runtime-wide id of the (comm, label) section; its label and
    /// communicator are the section table's.
    id: u32,
    /// The rank's frame entered before this one, on any communicator
    /// ([`NONE`] at the bottom). A free slot links the next free one.
    below: u32,
    enter: VTime,
    /// Virtual time spent in already-closed child sections (for exclusive
    /// time computation).
    child_time: VTime,
    /// Occurrence index of this (comm, label) pair on this rank.
    occurrence: u64,
}

/// One (comm, label) section of the section table.
struct Section {
    label: Label,
    comm: CommId,
    /// The communicator's entry in [`State::comms`].
    at: usize,
    /// Enters so far, by communicator rank.
    occurrences: Vec<u64>,
}

/// One communicator's shared section state.
struct CommSections {
    /// Section events (enters + exits) so far by communicator rank: how
    /// far each member has come through `log` (kept under
    /// [`VerifyMode::Active`] only).
    events: Vec<u64>,
    /// The agreed sequence of section events as [`verify_word`]s (grown by
    /// the first rank to perform each step).
    log: Vec<u32>,
}

/// One rank's slot in the rank table.
#[derive(Clone, Copy)]
struct RankSlot {
    /// The rank's innermost open frame, on any communicator.
    top: u32,
    /// Section events so far, on all communicators: the misuse reports
    /// give the failing event's index in it.
    events: u64,
}

const NO_FRAMES: RankSlot = RankSlot {
    top: NONE,
    events: 0,
};

/// Labels by their interned text: the communicators each was entered on,
/// with the dense section id it has there (a label lives on one or two
/// communicators: a scan, not a map).
type LabelMap = FastMap<&'static str, Vec<(CommId, u32)>>;

/// Everything the runtime's one cell holds.
#[derive(Default)]
struct State {
    /// The section table: one dense id per (comm, label), assigned in
    /// first-seen order, found by the label's text.
    labels: LabelMap,
    /// The sections by id.
    sections: Vec<Section>,
    /// The communicators sections were entered on, in first-use order, and
    /// where each is among them (looked up when a section is new).
    comms: Vec<CommSections>,
    comm_at: FastMap<CommId, usize>,
    /// Slots by world rank.
    ranks: Vec<RankSlot>,
    /// The frame arena: every rank's open frames, and the free slots of
    /// closed ones, linked from `free` ([`NONE`] when there is none, as
    /// [`SectionRuntime::new`] sets it; not the derived 0).
    frames: Vec<Frame>,
    free: u32,
    /// Each frame slot's data blob, kept only while an enter-side tool is
    /// attached (nothing else can write one).
    blobs: Vec<SectionData>,
}

/// `table[rank]`, the table grown to the communicator's `size` (or past
/// `rank`) first if it is short.
fn counter(table: &mut Vec<u64>, rank: usize, size: usize) -> &mut u64 {
    if table.len() <= rank {
        table.resize(size.max(rank + 1), 0);
    }
    &mut table[rank]
}

impl State {
    /// The rank's slot. `Init` sizes the table to the world; a runtime
    /// that was never registered as a tool of its world never saw `Init`,
    /// so its ranks' first `enter` grows it.
    fn rank(&mut self, world_rank: usize) -> &mut RankSlot {
        if self.ranks.len() <= world_rank {
            self.ranks.resize(world_rank + 1, NO_FRAMES);
        }
        &mut self.ranks[world_rank]
    }

    /// The id of (comm, label): one hash of the label.
    fn intern(&mut self, comm: CommId, label: &str) -> u32 {
        let known = self.labels.get(label).and_then(|on| {
            let (_, id) = on.iter().find(|(c, _)| *c == comm)?;
            Some(*id)
        });
        known.unwrap_or_else(|| self.add_section(comm, label))
    }

    /// Assign (comm, label) the next id, and find its [`Label`] in the
    /// process's table (the table's one lock, taken here only).
    #[cold]
    fn add_section(&mut self, comm: CommId, label: &str) -> u32 {
        let id = self.sections.len() as u32;
        let label = Label::intern(label);
        let comms = &mut self.comms;
        let at = *self.comm_at.entry(comm).or_insert_with(|| {
            comms.push(CommSections {
                events: Vec::new(),
                log: Vec::new(),
            });
            comms.len() - 1
        });
        self.labels
            .entry(label.name())
            .or_default()
            .push((comm, id));
        self.sections.push(Section {
            label,
            comm,
            at,
            occurrences: Vec::new(),
        });
        id
    }

    /// The communicator of the frame in arena slot `at`.
    fn comm_of(&self, at: u32) -> CommId {
        self.sections[self.frames[at as usize].id as usize].comm
    }

    /// The arena slots from `at` down its rank's list, innermost first.
    fn frames_from(&self, at: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors((at != NONE).then_some(at), |&at| {
            let below = self.frames[at as usize].below;
            (below != NONE).then_some(below)
        })
    }

    /// A rank's open frames as arena slots, innermost first.
    fn frames_of(&self, world_rank: usize) -> impl Iterator<Item = u32> + '_ {
        self.frames_from(self.ranks.get(world_rank).map_or(NONE, |rank| rank.top))
    }

    /// A rank's open frames on `comm`, innermost first.
    fn open_on(&self, world_rank: usize, comm: CommId) -> impl Iterator<Item = u32> + '_ {
        self.frames_of(world_rank)
            .filter(move |&at| self.comm_of(at) == comm)
    }

    /// The labels open on `comm` for a rank, outermost first (cold: misuse
    /// reports and failure context only).
    fn open_labels(&self, world_rank: usize, comm: CommId) -> Vec<String> {
        let open = self.open_on(world_rank, comm);
        let mut labels: Vec<String> = open.map(|at| self.label_of(at).to_string()).collect();
        labels.reverse();
        labels
    }

    fn label_of(&self, at: u32) -> Label {
        self.sections[self.frames[at as usize].id as usize].label
    }

    /// A new frame in the arena: a free slot if there is one.
    fn push_frame(&mut self, frame: Frame) -> u32 {
        if self.free == NONE {
            self.frames.push(frame);
            return self.frames.len() as u32 - 1;
        }
        let at = self.free;
        self.free = self.frames[at as usize].below;
        self.frames[at as usize] = frame;
        at
    }
}

/// One record of the shared verification log.
fn verify_word(id: u32, is_enter: bool) -> u32 {
    id << 1 | is_enter as u32
}

/// A log word as the order-violation report prints it: `Enter("X")` /
/// `Exit("X")`, the label looked up by id (cold).
fn describe_word(state: &State, word: u32) -> String {
    let label = state.sections.get((word >> 1) as usize);
    let direction = if word & 1 == 1 { "Enter" } else { "Exit" };
    format!("{direction}({:?})", label.map_or("?", |s| s.label.name()))
}

/// Fixed tool-slot capacity (see [`SectionRuntime::attach`]).
const MAX_TOOLS: usize = 16;

/// The section runtime. Register it as an `mpisim` tool (for the implicit
/// `MPI_MAIN` section) and call [`SectionRuntime::enter`]/[`exit`] from the
/// application — or the `MPIX_*` free functions in the crate root for
/// paper-faithful spelling.
///
/// [`exit`]: SectionRuntime::exit
pub struct SectionRuntime {
    state: WorldCell<State>,
    verify: VerifyMode,
    /// Attached tools in fixed write-once slots: the dispatch loop reads
    /// them lock-free (`OnceLock::get` is one `Acquire` load), which
    /// matters because every section exit walks this list.
    tools: [OnceLock<Arc<dyn SectionTool>>; MAX_TOOLS],
    /// Count of published tool slots — lets the hot path skip the
    /// `LeaveInfo` build entirely when no tool is attached.
    n_tools: AtomicUsize,
    /// Cached count of tools whose [`SectionTool::wants_enter`] is true;
    /// when zero, enters skip `EnterInfo` and the dispatch chain, and no
    /// frame keeps a data blob.
    n_enter_tools: AtomicUsize,
}

impl SectionRuntime {
    /// A runtime with the given verification mode and no tools.
    pub fn new(verify: VerifyMode) -> Arc<SectionRuntime> {
        Arc::new(SectionRuntime {
            state: WorldCell::new(State {
                free: NONE,
                ..State::default()
            }),
            verify,
            tools: std::array::from_fn(|_| OnceLock::new()),
            n_tools: AtomicUsize::new(0),
            n_enter_tools: AtomicUsize::new(0),
        })
    }

    /// Attach a section tool (profiler, debugger, trace writer). Tools are
    /// expected to be attached during setup, before ranks start entering
    /// sections.
    pub fn attach(&self, tool: Arc<dyn SectionTool>) {
        let wants_enter = tool.wants_enter();
        let n = self.n_tools.load(Ordering::Acquire);
        assert!(
            n < MAX_TOOLS,
            "mpi-sections: at most {MAX_TOOLS} section tools can be attached"
        );
        if self.tools[n].set(tool).is_err() {
            panic!("mpi-sections: concurrent attach; attach tools before the run starts");
        }
        if wants_enter {
            self.n_enter_tools.fetch_add(1, Ordering::Release);
        }
        self.n_tools.store(n + 1, Ordering::Release);
    }

    /// Enter a section on `comm`. Asynchronous collective: no rank blocks,
    /// but all ranks of `comm` must perform the same call.
    /// The runtime need not be a tool of `p`'s world: one that is not has
    /// no `MPI_MAIN` and grows its rank table as ranks first enter.
    pub fn enter(&self, p: &mut Proc, comm: &Comm, label: &str) {
        let info = CommInfo::of(comm);
        let label = self.enter_at(p.world_rank(), info, label, p.now());
        // Raise the PMPI-level event so generic mpisim tools also see it —
        // but only when one subscribed: it fans out through the tool chain,
        // which dwarfs the bookkeeping.
        if p.wants(EventKind::SectionEnter) {
            p.raise(MpiEvent::SectionEnter {
                comm: comm.id(),
                label,
                time: p.now(),
            });
        }
    }

    /// Exit a section on `comm`. The label must match the innermost open
    /// section (perfect nesting, paper §4).
    pub fn exit(&self, p: &mut Proc, comm: &Comm, label: &str) {
        let info = CommInfo::of(comm);
        let (label, inner) = self.exit_at(p.world_rank(), info, label, p.now());
        if p.wants(EventKind::SectionLeave) {
            p.raise(MpiEvent::SectionLeave {
                comm: comm.id(),
                label,
                inner,
                time: p.now(),
            });
        }
    }

    /// Run `body` inside a section (exit guaranteed on normal return).
    pub fn scoped<R>(
        &self,
        p: &mut Proc,
        comm: &Comm,
        label: &str,
        body: impl FnOnce(&mut Proc) -> R,
    ) -> R {
        self.enter(p, comm, label);
        let out = body(p);
        self.exit(p, comm, label);
        out
    }

    /// Depth of open sections for a rank on a communicator (diagnostics).
    pub fn depth(&self, world_rank: usize, comm: CommId) -> usize {
        self.state.lock().open_on(world_rank, comm).count()
    }

    /// Bytes the runtime's tables hold, counted from their lengths (not
    /// their capacities): the rank slots, the frame arena and its blobs,
    /// every section with its occurrence counts, every communicator with
    /// its event counts and verification log. Label texts live in the
    /// process-wide table and are not counted.
    pub fn state_bytes(&self) -> usize {
        let state = self.state.lock();
        let sections = state
            .sections
            .iter()
            .map(|s| size_of::<Section>() + s.occurrences.len() * size_of::<u64>());
        let comms = state.comms.iter().map(|c| {
            size_of::<CommSections>()
                + c.events.len() * size_of::<u64>()
                + c.log.len() * size_of::<u32>()
        });
        let labels = state.labels.values().map(|on| {
            size_of::<(&str, Vec<(CommId, u32)>)>() + on.len() * size_of::<(CommId, u32)>()
        });
        size_of::<SectionRuntime>()
            + state.ranks.len() * size_of::<RankSlot>()
            + state.frames.len() * size_of::<Frame>()
            + state.blobs.len() * size_of::<SectionData>()
            + state.comm_at.len() * size_of::<(CommId, usize)>()
            + sections.sum::<usize>()
            + comms.sum::<usize>()
            + labels.sum::<usize>()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Open a frame; its label comes back.
    fn enter_at(&self, world_rank: usize, comm: CommInfo, label: &str, now: VTime) -> Label {
        let enter_tools = self.n_enter_tools.load(Ordering::Acquire) > 0;
        let (label, id, occurrence, depth, at) = {
            let state = &mut *self.state.lock();
            let id = state.intern(comm.id, label);
            let top = state.rank(world_rank).top;
            if self.verify == VerifyMode::Active {
                verify_step(state, world_rank, comm, id, true);
            }
            let section = &mut state.sections[id as usize];
            let count = counter(&mut section.occurrences, comm.rank, comm.size);
            let occurrence = *count;
            *count += 1;
            let label = section.label;
            let depth = state.open_on(world_rank, comm.id).count();
            let at = state.push_frame(Frame {
                id,
                below: top,
                enter: now,
                child_time: VTime::ZERO,
                occurrence,
            });
            if enter_tools {
                let blobs = &mut state.blobs;
                if blobs.len() <= at as usize {
                    blobs.resize(at as usize + 1, [0; 32]);
                }
                blobs[at as usize] = [0; 32];
            }
            let rank = &mut state.ranks[world_rank];
            rank.top = at;
            rank.events += 1;
            (label, id, occurrence, depth, at)
        };
        // Leave-side tools (the profiler) fold everything at exit; when no
        // attached tool acts on enters, skip the info build and dispatch.
        if enter_tools {
            let info = EnterInfo {
                world_rank,
                comm: comm.id,
                comm_size: comm.size,
                comm_rank: comm.rank,
                label,
                section: id,
                time: now,
                occurrence,
                depth,
            };
            // Tools may write their context into the 32-byte blob; the
            // runtime stores whatever they leave there.
            let mut data = [0u8; 32];
            for slot in &self.tools[..self.n_tools.load(Ordering::Acquire)] {
                if let Some(tool) = slot.get() {
                    tool.on_enter(&info, &mut data);
                }
            }
            if data != [0u8; 32] {
                self.state.lock().blobs[at as usize] = data;
            }
        }
        label
    }

    /// Close `comm`'s innermost frame, which must be `label`'s. Its label
    /// and the label of the rank's innermost section after come back.
    fn exit_at(
        &self,
        world_rank: usize,
        comm: CommInfo,
        label: &str,
        now: VTime,
    ) -> (Label, Label) {
        let n_tools = self.n_tools.load(Ordering::Acquire);
        let enter_tools = self.n_enter_tools.load(Ordering::Acquire) > 0;
        let (frame, label, data, depth, inner) = {
            let state = &mut *self.state.lock();
            // The communicator's innermost frame, and the rank's frame
            // entered right after it (its link down is what changes).
            let (mut above, mut at) = (NONE, state.rank(world_rank).top);
            while at != NONE && state.comm_of(at) != comm.id {
                (above, at) = (at, state.frames[at as usize].below);
            }
            let matches = at != NONE && state.label_of(at).name() == label;
            if self.verify == VerifyMode::Active {
                // The frame carries the id when the exit is the one perfect
                // nesting allows; a misnested exit interns its label (cold:
                // the rank is about to abort).
                let id = if matches {
                    state.frames[at as usize].id
                } else {
                    state.intern(comm.id, label)
                };
                verify_step(state, world_rank, comm, id, false);
            }
            let event_index = state.ranks[world_rank].events;
            state.ranks[world_rank].events += 1;
            if at == NONE {
                section_misuse(
                    world_rank,
                    comm.id,
                    Vec::new(),
                    event_index,
                    format!(
                        "mpi-sections: exit of '{label}' on rank {world_rank} \
                         with no open section"
                    ),
                )
            }
            if !matches {
                // The misuse-context stack (cold path only: snapshotting
                // every open label on every exit is what the hot path pays
                // for otherwise).
                section_misuse(
                    world_rank,
                    comm.id,
                    state.open_labels(world_rank, comm.id),
                    event_index,
                    format!(
                        "mpi-sections: imperfect nesting on rank {world_rank}: \
                         exiting '{label}' but innermost open section is '{}'",
                        state.label_of(at)
                    ),
                );
            }
            // Usually the rank's innermost frame: a pop. Its slot goes to
            // the free list.
            let frame = state.frames[at as usize];
            match above {
                NONE => state.ranks[world_rank].top = frame.below,
                above => state.frames[above as usize].below = frame.below,
            }
            state.frames[at as usize].below = state.free;
            state.free = at;
            let label = state.label_of(at);
            let data = match state.blobs.get(at as usize) {
                Some(blob) if enter_tools && n_tools > 0 => *blob,
                _ => [0; 32],
            };
            // Credit our inclusive duration to the parent's child time: the
            // frame below on the same communicator.
            let below = state.frames_from(frame.below);
            let mut below = below.filter(|&at| state.comm_of(at) == comm.id);
            let parent = below.next();
            let depth = parent.map_or(0, |_| 1 + below.count());
            if let Some(parent) = parent {
                state.frames[parent as usize].child_time += now - frame.enter;
            }
            let inner = match state.ranks[world_rank].top {
                NONE => Label::MAIN,
                top => state.label_of(top),
            };
            (frame, label, data, depth, inner)
        };
        if n_tools > 0 {
            let duration = now - frame.enter;
            let exclusive = duration - frame.child_time;
            let info = LeaveInfo {
                world_rank,
                comm: comm.id,
                comm_size: comm.size,
                comm_rank: comm.rank,
                label,
                section: frame.id,
                enter_time: frame.enter,
                time: now,
                duration,
                exclusive,
                occurrence: frame.occurrence,
                depth,
            };
            for slot in &self.tools[..n_tools] {
                if let Some(tool) = slot.get() {
                    tool.on_leave(&info, &data);
                }
            }
        }
        (label, inner)
    }
}

/// Check the rank's next section event (an enter or exit of section `id`)
/// on its communicator against that communicator's log, appending it when
/// this rank is the first to get there.
fn verify_step(state: &mut State, world_rank: usize, comm: CommInfo, id: u32, is_enter: bool) {
    let word = verify_word(id, is_enter);
    let cs = &mut state.comms[state.sections[id as usize].at];
    let events = counter(&mut cs.events, comm.rank, comm.size);
    let pos = *events as usize;
    *events += 1;
    let Some(&expected) = cs.log.get(pos) else {
        assert!(
            pos == cs.log.len(),
            "mpi-sections: verification position overran the log"
        );
        cs.log.push(word);
        return;
    };
    if expected != word {
        let message = format!(
            "mpi-sections: section order violation on rank {world_rank}: \
             expected {} at step {pos}, got {}",
            describe_word(state, expected),
            describe_word(state, word)
        );
        section_misuse(
            world_rank,
            comm.id,
            state.open_labels(world_rank, comm.id),
            state.ranks[world_rank].events,
            message,
        );
    }
}

/// Abort the calling rank with a [`DiagnosticKind::SectionMisuse`] finding.
fn section_misuse(
    world_rank: usize,
    comm: CommId,
    label_stack: Vec<String>,
    event_index: u64,
    message: String,
) -> ! {
    diag::abort_with(vec![Diagnostic {
        kind: DiagnosticKind::SectionMisuse {
            label_stack,
            event_index,
        },
        severity: Severity::Error,
        ranks: vec![world_rank],
        comm: Some(comm),
        message,
    }]);
}

#[derive(Clone, Copy)]
struct CommInfo {
    id: CommId,
    size: usize,
    rank: usize,
}

impl CommInfo {
    fn of(comm: &Comm) -> CommInfo {
        let (id, size, rank) = (comm.id(), comm.size(), comm.rank());
        CommInfo { id, size, rank }
    }
}

/// `MPI_MAIN` management: as an `mpisim` tool, the runtime opens the
/// implicit section at `Init` and closes it at `Finalize` (paper §4).
impl Tool for SectionRuntime {
    /// Only the lifecycle events matter here — subscribing to everything
    /// would route every send/recv/section event of every rank through a
    /// no-op match arm.
    fn interests(&self) -> EventMask {
        EventMask::LIFECYCLE
    }

    fn on_event(&self, world_rank: usize, event: &MpiEvent) {
        match event {
            MpiEvent::Init { size, time } => {
                // Size the table to the world at once: reach its last rank.
                self.state.lock().rank(size - 1);
                let (id, size, rank) = (CommId::WORLD, *size, world_rank);
                let world = CommInfo { id, size, rank };
                self.enter_at(world_rank, world, MPI_MAIN, *time);
            }
            MpiEvent::Finalize { time } => {
                // Comm size is not carried by Finalize; MPI_MAIN lives on
                // the world communicator whose tables were sized at Init,
                // so 0 participants here is treated as "unchanged".
                let (id, size, rank) = (CommId::WORLD, 0, world_rank);
                let world = CommInfo { id, size, rank };
                self.exit_at(world_rank, world, MPI_MAIN, *time);
            }
            _ => {}
        }
    }

    /// When a rank panics, report its open sections per communicator so the
    /// failure message carries the phase the rank died in.
    fn rank_context(&self, world_rank: usize) -> Option<String> {
        let state = self.state.lock();
        let mut comms: Vec<CommId> = state
            .frames_of(world_rank)
            .map(|at| state.comm_of(at))
            .collect();
        if comms.is_empty() {
            return None;
        }
        comms.sort_by_key(|comm| comm.0);
        comms.dedup();
        let labels = |comm| state.open_labels(world_rank, comm).join(" > ");
        let mut parts: Vec<String> = comms
            .into_iter()
            .map(|comm| format!("comm {}: {}", comm.0, labels(comm)))
            .collect();
        parts.sort();
        Some(format!("open sections: {}", parts.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::WorldBuilder;
    use parking_lot::Mutex;

    #[test]
    fn enter_exit_roundtrip_and_depth() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let s = sections.clone();
        WorldBuilder::new(2)
            .run(move |p| {
                let world = p.world();
                s.enter(p, &world, "outer");
                assert_eq!(s.depth(p.world_rank(), world.id()), 1);
                s.enter(p, &world, "inner");
                assert_eq!(s.depth(p.world_rank(), world.id()), 2);
                s.exit(p, &world, "inner");
                s.exit(p, &world, "outer");
                assert_eq!(s.depth(p.world_rank(), world.id()), 0);
            })
            .unwrap();
    }

    /// The tools a profiling run attaches all fold at leave: with them
    /// alone a section enter builds no `EnterInfo` and walks no chain.
    #[test]
    fn leave_side_tools_ask_for_no_enter_callbacks() {
        let sections = SectionRuntime::new(VerifyMode::Off);
        sections.attach(crate::SectionProfiler::new());
        sections.attach(crate::TraceTool::new());
        assert_eq!(sections.n_enter_tools.load(Ordering::Acquire), 0);
    }

    #[test]
    fn imperfect_nesting_panics() {
        let sections = SectionRuntime::new(VerifyMode::Off);
        let s = sections.clone();
        let result = WorldBuilder::new(1).run(move |p| {
            let world = p.world();
            s.enter(p, &world, "a");
            s.enter(p, &world, "b");
            s.exit(p, &world, "a"); // wrong: b is innermost
        });
        let err = result.unwrap_err();
        assert!(err.to_string().contains("imperfect nesting"), "{err}");
    }

    #[test]
    fn exit_without_enter_panics() {
        let sections = SectionRuntime::new(VerifyMode::Off);
        let s = sections.clone();
        let result = WorldBuilder::new(1).run(move |p| {
            let world = p.world();
            s.exit(p, &world, "phantom");
        });
        assert!(result.is_err());
    }

    #[test]
    fn imperfect_nesting_yields_structured_diagnostic() {
        let sections = SectionRuntime::new(VerifyMode::Off);
        let s = sections.clone();
        let err = WorldBuilder::new(1)
            .run(move |p| {
                let world = p.world();
                s.enter(p, &world, "a");
                s.enter(p, &world, "b");
                s.exit(p, &world, "a");
            })
            .unwrap_err();
        let diags = err.diagnostics();
        assert_eq!(diags.len(), 1, "{err}");
        let d = &diags[0];
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.ranks, vec![0]);
        assert_eq!(d.comm, Some(CommId::WORLD));
        match &d.kind {
            DiagnosticKind::SectionMisuse {
                label_stack,
                event_index,
            } => {
                assert_eq!(label_stack, &["a".to_string(), "b".to_string()]);
                // Two enters precede the offending exit.
                assert_eq!(*event_index, 2);
            }
            other => panic!("expected SectionMisuse, got {other:?}"),
        }
    }

    #[test]
    fn rank_panic_carries_open_section_stack() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let s = sections.clone();
        let err = WorldBuilder::new(1)
            .tool(sections.clone())
            .run(move |p| {
                let world = p.world();
                s.enter(p, &world, "phase");
                panic!("boom");
            })
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("boom"), "{msg}");
        assert!(msg.contains("open sections"), "{msg}");
        assert!(msg.contains("MPI_MAIN > phase"), "{msg}");
    }

    #[test]
    fn cross_rank_order_violation_detected() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let s = sections.clone();
        let result = WorldBuilder::new(2).run(move |p| {
            let world = p.world();
            // Rank 0 and rank 1 disagree on the first section label.
            let label = if p.world_rank() == 0 { "compute" } else { "io" };
            s.enter(p, &world, label);
            s.exit(p, &world, label);
        });
        let err = result.unwrap_err();
        assert!(err.to_string().contains("section order violation"), "{err}");
    }

    #[test]
    fn an_order_violation_names_both_events_by_label() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let s = sections.clone();
        let err = WorldBuilder::new(2)
            .engine(mpisim::Engine::Des)
            .run(move |p| {
                let world = p.world();
                s.enter(p, &world, "step");
                // Rank 0 runs first and logs its exit; rank 1 enters a
                // label nobody has seen where the log says `Exit("step")`.
                if p.world_rank() == 0 {
                    s.exit(p, &world, "step");
                } else {
                    s.enter(p, &world, "halo \"north\"");
                }
            })
            .unwrap_err();
        assert_eq!(
            err.diagnostics()[0].message,
            "mpi-sections: section order violation on rank 1: \
             expected Exit(\"step\") at step 1, got Enter(\"halo \\\"north\\\"\")"
        );
    }

    #[test]
    fn the_agreed_sequence_costs_one_word_per_event() {
        let events_and_bytes = |steps: usize| {
            let sections = SectionRuntime::new(VerifyMode::Active);
            let s = sections.clone();
            WorldBuilder::new(4)
                .tool(sections.clone())
                .run(move |p| {
                    let world = p.world();
                    for _ in 0..steps {
                        s.scoped(p, &world, "outer", |p| {
                            s.scoped(p, &world, "inner", |_| {});
                        });
                    }
                })
                .unwrap();
            let events = {
                let state = sections.state.lock();
                state.comms[state.comm_at[&CommId::WORLD]].log.len()
            };
            (events, sections.state_bytes())
        };
        // MPI_MAIN's pair plus four events a step, whatever the rank count.
        let (short, long) = (events_and_bytes(10), events_and_bytes(110));
        assert_eq!((short.0, long.0), (2 + 40, 2 + 440));
        assert_eq!(long.1 - short.1, 4 * (long.0 - short.0));
    }

    #[test]
    fn verification_off_tolerates_divergence() {
        let sections = SectionRuntime::new(VerifyMode::Off);
        let s = sections.clone();
        // Divergent labels are (wrongly) accepted when checking is off —
        // exactly the paper's "selectively enabled" tradeoff.
        WorldBuilder::new(2)
            .run(move |p| {
                let world = p.world();
                let label = if p.world_rank() == 0 { "compute" } else { "io" };
                s.enter(p, &world, label);
                s.exit(p, &world, label);
            })
            .unwrap();
    }

    #[test]
    fn scoped_runs_body_and_closes() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let s = sections.clone();
        let report = WorldBuilder::new(1)
            .run(move |p| {
                let world = p.world();
                let out = s.scoped(p, &world, "phase", |p| {
                    p.advance_secs(1.0);
                    42
                });
                assert_eq!(s.depth(p.world_rank(), world.id()), 0);
                out
            })
            .unwrap();
        assert_eq!(report.results[0], 42);
    }

    #[test]
    fn sections_per_communicator_are_independent() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let s = sections.clone();
        WorldBuilder::new(4)
            .run(move |p| {
                let world = p.world();
                let sub = world
                    .split(p, Some((p.world_rank() % 2) as i32), 0)
                    .unwrap();
                s.enter(p, &world, "global");
                s.enter(p, &sub, "local");
                // Independent stacks: exit order across comms is free.
                s.exit(p, &world, "global");
                s.exit(p, &sub, "local");
            })
            .unwrap();
    }

    #[test]
    fn split_comm_profile_is_engine_independent_at_p64() {
        let csv = |engine| {
            let sections = SectionRuntime::new(VerifyMode::Active);
            let profiler = crate::SectionProfiler::new();
            sections.attach(profiler.clone());
            let s = sections.clone();
            WorldBuilder::new(64)
                .engine(engine)
                .machine(machine::presets::nehalem_cluster())
                .seed(3)
                .tool(sections.clone())
                .run(move |p| {
                    let world = p.world();
                    let me = p.world_rank();
                    let sub = world.split(p, Some((me % 4) as i32), 0).unwrap();
                    for step in 0..3 {
                        s.enter(p, &world, "global");
                        s.enter(p, &sub, "local");
                        p.advance_secs(1e-3 * (me % 5 + step) as f64);
                        sub.barrier(p);
                        // Cross-communicator exit order.
                        s.exit(p, &world, "global");
                        s.exit(p, &sub, "local");
                    }
                })
                .unwrap();
            profiler.snapshot().to_csv()
        };
        let des = csv(mpisim::Engine::Des);
        assert_eq!(des, csv(mpisim::Engine::Threads));
        // One "local" row per sub-communicator: 16 ranks, 3 instances.
        assert_eq!(des.matches(",local,16,3,").count(), 4, "{des}");
        assert_eq!(des.matches(",global,64,3,").count(), 1, "{des}");
    }

    #[test]
    fn a_rank_beyond_the_table_grows_it() {
        // A runtime that was never registered as a tool of the world it is
        // entered in: no `Init` has sized the table.
        let sections = SectionRuntime::new(VerifyMode::Active);
        let far = 7;
        WorldBuilder::new(far + 1)
            .run(move |p| {
                if p.world_rank() != far {
                    return;
                }
                let world = p.world();
                sections.enter(p, &world, "phase");
                assert_eq!(sections.depth(far, CommId::WORLD), 1);
                // Lower slots are present now, and empty; higher ones still absent.
                assert_eq!(sections.depth(3, CommId::WORLD), 0);
                assert_eq!(sections.depth(far + 64, CommId::WORLD), 0);
                sections.exit(p, &world, "phase");
                assert_eq!(sections.depth(far, CommId::WORLD), 0);
            })
            .unwrap();
    }

    /// Frames on two communicators closed out of enter order: each leave
    /// says which section the rank is in afterwards, across communicators,
    /// and its depth on its own communicator.
    #[test]
    fn leave_closes_the_innermost_matching_frame() {
        #[derive(Default)]
        struct Seen {
            leaves: Mutex<Vec<(String, String)>>,
            depths: Mutex<Vec<usize>>,
        }
        impl Tool for Seen {
            fn interests(&self) -> EventMask {
                EventMask::only(EventKind::SectionLeave)
            }
            fn on_event(&self, world_rank: usize, event: &MpiEvent) {
                if let MpiEvent::SectionLeave { label, inner, .. } = event {
                    if world_rank == 0 {
                        let leave = (label.to_string(), inner.to_string());
                        self.leaves.lock().push(leave);
                    }
                }
            }
        }
        impl SectionTool for Seen {
            fn on_enter(&self, _info: &EnterInfo, _data: &mut SectionData) {}
            fn on_leave(&self, info: &LeaveInfo, _data: &SectionData) {
                if info.world_rank == 0 && info.label != Label::MAIN {
                    self.depths.lock().push(info.depth);
                }
            }
        }
        let seen = Arc::new(Seen::default());
        let sections = SectionRuntime::new(VerifyMode::Active);
        sections.attach(seen.clone());
        let s = sections.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .tool(seen.clone())
            .run(move |p| {
                let world = p.world();
                let other = world.split(p, Some(0), 0).unwrap();
                s.enter(p, &world, "a");
                s.enter(p, &other, "b");
                s.enter(p, &world, "a");
                s.exit(p, &world, "a");
                // Cross-communicator exit order is free.
                s.exit(p, &world, "a");
                s.exit(p, &other, "b");
            })
            .unwrap();
        let pair = |label: &str, inner: &str| (label.to_string(), inner.to_string());
        assert_eq!(
            *seen.leaves.lock(),
            [pair("a", "b"), pair("a", "b"), pair("b", MPI_MAIN)]
        );
        // On the world `MPI_MAIN` stays open under both frames of "a".
        assert_eq!(*seen.depths.lock(), [2, 1, 0]);
    }

    /// Sections on `split` halves whose communicator ranks run against the
    /// world ranks (world 0..4 → half ranks 1, 0, 1, 0), one world frame
    /// closed while a half frame entered after it stays open: the
    /// occurrence and depth tools see, the misuse report's event index and
    /// label stack, and the open-section context of a failed rank, on both
    /// engines and under verification.
    #[test]
    fn split_halves_count_by_communicator_rank() {
        type Seen = Vec<(usize, &'static str, usize, u64, usize)>;
        #[derive(Default)]
        struct Calls {
            enters: Mutex<Seen>,
            leaves: Mutex<Seen>,
        }
        fn named(label: &str) -> &'static str {
            ["a", "b", MPI_MAIN]
                .into_iter()
                .find(|l| *l == label)
                .unwrap()
        }
        impl SectionTool for Calls {
            fn on_enter(&self, i: &EnterInfo, _data: &mut SectionData) {
                let seen = (
                    i.world_rank,
                    named(i.label.name()),
                    i.comm_rank,
                    i.occurrence,
                    i.depth,
                );
                self.enters.lock().push(seen);
            }
            fn on_leave(&self, i: &LeaveInfo, _data: &SectionData) {
                let seen = (
                    i.world_rank,
                    named(i.label.name()),
                    i.comm_rank,
                    i.occurrence,
                    i.depth,
                );
                self.leaves.lock().push(seen);
            }
        }
        /// Two rounds of: enter a (world), b (half), a (world); leave both
        /// a's, the outer one with b still open; b again inside b.
        fn rounds(s: &SectionRuntime, p: &mut Proc, world: &Comm, half: &Comm, n: usize) {
            for _ in 0..n {
                s.enter(p, world, "a");
                s.enter(p, half, "b");
                s.enter(p, world, "a");
                s.exit(p, world, "a");
                s.exit(p, world, "a");
                s.enter(p, half, "b");
                s.exit(p, half, "b");
                s.exit(p, half, "b");
            }
        }
        let half_of = |p: &mut Proc, world: &Comm| {
            let me = p.world_rank();
            let half = world
                .split(p, Some((me / 2) as i32), 3 - me as i32)
                .unwrap();
            assert_eq!(half.rank(), 1 - me % 2);
            half
        };
        for engine in [mpisim::Engine::Des, mpisim::Engine::Threads] {
            // A clean run: every count is the rank's own, on each communicator.
            let calls = Arc::new(Calls::default());
            let sections = SectionRuntime::new(VerifyMode::Active);
            sections.attach(calls.clone());
            let s = sections.clone();
            WorldBuilder::new(4)
                .engine(engine)
                .tool(sections.clone())
                .run(move |p| {
                    let world = p.world();
                    let half = half_of(p, &world);
                    rounds(&s, p, &world, &half, 2);
                })
                .unwrap();
            for rank in 0..4 {
                let of = |seen: &Seen| -> Seen {
                    let mine = seen.iter().filter(|c| c.0 == rank && c.1 != MPI_MAIN);
                    mine.copied().collect()
                };
                let h = 1 - rank % 2;
                let mut enters = Vec::new();
                let mut leaves = Vec::new();
                for round in 0..2 {
                    let (first, second) = (2 * round, 2 * round + 1);
                    enters.extend([
                        (rank, "a", rank, first, 1),
                        (rank, "b", h, first, 0),
                        (rank, "a", rank, second, 2),
                        (rank, "b", h, second, 1),
                    ]);
                    leaves.extend([
                        (rank, "a", rank, second, 2),
                        (rank, "a", rank, first, 1),
                        (rank, "b", h, second, 1),
                        (rank, "b", h, first, 0),
                    ]);
                }
                assert_eq!(of(&calls.enters.lock()), enters, "{engine:?}");
                assert_eq!(of(&calls.leaves.lock()), leaves, "{engine:?}");
            }

            // Imperfect nesting on world rank 2, half rank 1: MPI_MAIN's
            // enter, one round (8 events) and the enter of b precede the
            // failing exit.
            let sections = SectionRuntime::new(VerifyMode::Active);
            let (s, half_id) = (sections.clone(), Arc::new(Mutex::new(CommId::WORLD)));
            let seen = half_id.clone();
            let err = WorldBuilder::new(4)
                .engine(engine)
                .tool(sections.clone())
                .run(move |p| {
                    let world = p.world();
                    let half = half_of(p, &world);
                    rounds(&s, p, &world, &half, 1);
                    if p.world_rank() == 2 {
                        *seen.lock() = half.id();
                        s.enter(p, &half, "b");
                        s.exit(p, &half, "a");
                    }
                })
                .unwrap_err();
            let (ranks, comm, stack, index) = misuse_of(err);
            assert_eq!(
                (ranks, comm),
                (vec![2], Some(*half_id.lock())),
                "{engine:?}"
            );
            assert_eq!((stack, index), (vec!["b".to_string()], 10), "{engine:?}");

            // A panic on world rank 3, half rank 0, with a frame open on
            // each communicator; the other ranks close theirs out of order.
            let sections = SectionRuntime::new(VerifyMode::Active);
            let s = sections.clone();
            let err = WorldBuilder::new(4)
                .engine(engine)
                .tool(sections.clone())
                .run(move |p| {
                    let world = p.world();
                    let half = half_of(p, &world);
                    rounds(&s, p, &world, &half, 1);
                    s.enter(p, &half, "b");
                    s.enter(p, &world, "a");
                    s.scoped(p, &half, "b", |_| {});
                    if p.world_rank() == 3 {
                        panic!("boom on comm {}", half.id().0);
                    }
                    s.exit(p, &world, "a");
                    s.exit(p, &half, "b");
                })
                .unwrap_err();
            let msg = err.to_string();
            let half = msg
                .split("boom on comm ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .expect("panic message names the half");
            let expect = format!("open sections: comm 0: MPI_MAIN > a; comm {half}: b");
            assert!(msg.contains(&expect), "{engine:?}: {msg}");
        }
    }

    /// The one `SectionMisuse` finding of a failed two-rank run.
    fn misuse_of(err: mpisim::RunError) -> (Vec<usize>, Option<CommId>, Vec<String>, u64) {
        let diags = err.diagnostics();
        assert_eq!(diags.len(), 1, "{err}");
        match &diags[0].kind {
            DiagnosticKind::SectionMisuse {
                label_stack,
                event_index,
            } => (
                diags[0].ranks.clone(),
                diags[0].comm,
                label_stack.clone(),
                *event_index,
            ),
            other => panic!("expected SectionMisuse, got {other:?}"),
        }
    }

    #[test]
    fn misuse_reports_count_events_over_all_communicators() {
        let sub_id = Arc::new(Mutex::new(CommId::WORLD));
        let run = |verify, body: fn(&SectionRuntime, &mut Proc, &Comm)| {
            let sections = SectionRuntime::new(verify);
            let (s, sub_id) = (sections.clone(), sub_id.clone());
            let err = WorldBuilder::new(2)
                .engine(mpisim::Engine::Des)
                .run(move |p| {
                    let world = p.world();
                    let sub = world.split(p, Some(0), 0).unwrap();
                    *sub_id.lock() = sub.id();
                    s.enter(p, &world, "a");
                    s.enter(p, &sub, "x");
                    body(&s, p, &sub);
                })
                .unwrap_err();
            misuse_of(err)
        };
        // Imperfect nesting on the sub-communicator: its open labels, and
        // one world event plus two sub events before the failing exit.
        let (ranks, comm, stack, index) = run(VerifyMode::Off, |s, p, sub| {
            if p.world_rank() == 0 {
                s.enter(p, sub, "y");
                s.exit(p, sub, "x");
            }
        });
        assert_eq!((ranks, comm), (vec![0], Some(*sub_id.lock())));
        assert_eq!((stack, index), (vec!["x".to_string(), "y".to_string()], 3));
        // Order violation: rank 0 ran ahead and logged "y"; rank 1 enters
        // "z" as its third section event.
        let (ranks, comm, stack, index) = run(VerifyMode::Active, |s, p, sub| {
            let label = if p.world_rank() == 0 { "y" } else { "z" };
            s.enter(p, sub, label);
        });
        assert_eq!((ranks, comm), (vec![1], Some(*sub_id.lock())));
        assert_eq!((stack, index), (vec!["x".to_string()], 2));
    }

    #[test]
    fn rank_context_lists_every_communicator_with_open_sections() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let s = sections.clone();
        let err = WorldBuilder::new(2)
            .tool(sections.clone())
            .run(move |p| {
                let world = p.world();
                let sub = world.split(p, Some(0), 0).unwrap();
                s.enter(p, &sub, "local");
                s.enter(p, &world, "global");
                s.scoped(p, &sub, "closed", |_| {});
                assert_eq!(s.depth(p.world_rank(), sub.id()), 1);
                assert_eq!(s.depth(p.world_rank(), world.id()), 2);
                if p.world_rank() == 1 {
                    panic!("boom on comm {}", sub.id().0);
                }
                world.barrier(p);
            })
            .unwrap_err();
        let msg = err.to_string();
        let sub = msg
            .split("boom on comm ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .expect("panic message names the sub-communicator");
        let expect = format!("open sections: comm 0: MPI_MAIN > global; comm {sub}: local");
        assert!(msg.contains(&expect), "{msg}");
    }

    /// Paper §5.3 on the failure where it matters most: each stuck rank's
    /// site of a deadlock report says which phase the rank was in.
    #[test]
    fn a_deadlock_report_names_each_stuck_ranks_open_sections() {
        let reports = [mpisim::Engine::Des, mpisim::Engine::Threads].map(|engine| {
            let sections = SectionRuntime::new(VerifyMode::Active);
            let s = sections.clone();
            let err = WorldBuilder::new(2)
                .engine(engine)
                .tool(sections)
                .run(move |p| {
                    let world = p.world();
                    s.scoped(p, &world, "HALO", |p| {
                        let peer = 1 - p.world_rank();
                        let _ = world.recv::<u8>(p, mpisim::Src::Rank(peer), mpisim::TagSel::Any);
                    });
                })
                .unwrap_err();
            err.to_string()
        });
        assert_eq!(reports[0], reports[1]);
        for rank in 0..2 {
            let site = format!(
                "rank {rank} blocked in MPI_Recv waiting for a message from rank {} on \
                 communicator 0 [open sections: comm 0: MPI_MAIN > HALO]",
                1 - rank
            );
            assert!(reports[0].contains(&site), "{}", reports[0]);
        }
    }

    #[test]
    fn occurrences_count_up() {
        struct LastOccurrence(Mutex<u64>);
        impl SectionTool for LastOccurrence {
            fn on_enter(&self, info: &EnterInfo, _data: &mut SectionData) {
                if info.label.name() == "step" {
                    *self.0.lock() = info.occurrence;
                }
            }
            fn on_leave(&self, _info: &LeaveInfo, _data: &SectionData) {}
        }
        let tool = Arc::new(LastOccurrence(Mutex::new(0)));
        let sections = SectionRuntime::new(VerifyMode::Active);
        sections.attach(tool.clone());
        let s = sections.clone();
        WorldBuilder::new(1)
            .run(move |p| {
                let world = p.world();
                for _ in 0..5 {
                    s.scoped(p, &world, "step", |_| {});
                }
            })
            .unwrap();
        assert_eq!(*tool.0.lock(), 4);
    }

    #[test]
    fn tool_data_preserved_between_enter_and_leave() {
        // A tool stores its own timestamp in the 32-byte blob at enter and
        // reads it back at leave — the paper's motivating use of `data`.
        struct StampTool {
            observed: Mutex<Vec<(u64, u64)>>,
        }
        impl SectionTool for StampTool {
            fn on_enter(&self, info: &EnterInfo, data: &mut SectionData) {
                data[..8].copy_from_slice(&info.time.as_nanos().to_le_bytes());
            }
            fn on_leave(&self, info: &LeaveInfo, data: &SectionData) {
                let stamped = u64::from_le_bytes(data[..8].try_into().unwrap());
                self.observed.lock().push((stamped, info.time.as_nanos()));
            }
        }
        let tool = Arc::new(StampTool {
            observed: Mutex::new(Vec::new()),
        });
        let sections = SectionRuntime::new(VerifyMode::Active);
        sections.attach(tool.clone());
        let s = sections.clone();
        WorldBuilder::new(1)
            .run(move |p| {
                let world = p.world();
                p.advance_secs(1.0);
                s.enter(p, &world, "phase");
                p.advance_secs(2.0);
                s.exit(p, &world, "phase");
            })
            .unwrap();
        let observed = tool.observed.lock();
        assert_eq!(observed.len(), 1);
        let (stamped, leave) = observed[0];
        assert_eq!(stamped, 1_000_000_000);
        assert_eq!(leave, 3_000_000_000);
    }
}
