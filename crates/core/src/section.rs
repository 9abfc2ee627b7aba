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
//! between the enter and the matching leave.
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
//!   back from the label table only to word a diagnostic. This is the
//!   paper's "selectively enabled" switch: pass [`VerifyMode::Off`] for
//!   production-scale sweeps, where the log's 4 bytes per event matter.
//!
//! A world runs one rank at a time, so all of this lives in one
//! [`WorldCell`] that the running world reads and writes with plain loads
//! and stores: a rank's enter or exit locks it once, and tools are called
//! after its guard is dropped.

use crate::fasthash::FastMap;
use crate::tool::{EnterInfo, LeaveInfo, SectionTool};
use machine::VTime;
use mpisim::{
    diag, Comm, CommId, Diagnostic, DiagnosticKind, EventKind, EventMask, MpiEvent, Proc,
    SectionData, Severity, Tool, WorldCell,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The label of the implicit outermost section, entered at `MPI_Init` and
/// left at `MPI_Finalize` (paper §4).
pub const MPI_MAIN: &str = "MPI_MAIN";

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

/// One open section on one rank.
struct Frame {
    label: Arc<str>,
    /// The communicator the section is collective over.
    comm: CommId,
    /// Dense runtime-wide id of the (comm, label) section.
    id: u32,
    data: SectionData,
    enter: VTime,
    /// Virtual time spent in already-closed child sections (for exclusive
    /// time computation).
    child_time: VTime,
    /// Occurrence index of this (comm, label) pair on this rank.
    occurrence: u64,
}

/// Labels by name: the communicators each was entered on, with the dense
/// section id it has there (a label lives on one or two communicators: a
/// scan, not a map).
type LabelMap = FastMap<Arc<str>, Vec<(CommId, u32)>>;

/// The label's one allocation and the id of (comm, label), if known.
fn section_of(labels: &LabelMap, comm: CommId, label: &str) -> Option<(Arc<str>, u32)> {
    let (name, on) = labels.get_key_value(label)?;
    let &(_, id) = on.iter().find(|(c, _)| *c == comm)?;
    Some((name.clone(), id))
}

/// One rank's section counts on one communicator.
struct CommSections {
    comm: CommId,
    /// Enters so far per section id. A rank enters a handful of distinct
    /// labels, so a scan over pairs beats a hash probe — and unlike a table
    /// indexed by the runtime-wide id it stays small when thousands of
    /// sub-communicators each bring their own sections.
    occurrences: Vec<(u32, u64)>,
    /// Count of section events (enters + exits) on this (rank, comm) —
    /// which is also how far the rank has come through the communicator's
    /// verification log. Misuse diagnostics carry the rank-wide index:
    /// the sum over the rank's communicators (cold path only).
    events: u64,
}

/// One rank's section state.
#[derive(Default)]
struct RankSections {
    /// Open frames in enter order. A communicator's innermost frame is its
    /// last one here; frames on different communicators may close out of
    /// enter order.
    frames: Vec<Frame>,
    /// The rank's communicators in first-use order (the world first:
    /// `Init` opens `MPI_MAIN` there). A rank belongs to a handful.
    comms: Vec<CommSections>,
}

impl RankSections {
    /// Index of `comm` among the rank's communicators, added on first use.
    fn comm_index(&mut self, comm: CommId) -> usize {
        if let Some(at) = self.comms.iter().position(|c| c.comm == comm) {
            return at;
        }
        let (occurrences, events) = (Vec::new(), 0);
        self.comms.push(CommSections {
            comm,
            occurrences,
            events,
        });
        self.comms.len() - 1
    }

    /// Rank-wide section-event count (sum over the rank's communicators);
    /// the misuse reports give the failing event's index in it.
    fn events(&self) -> u64 {
        self.comms.iter().map(|cs| cs.events).sum()
    }

    /// The frames open on `comm`, outermost first.
    fn open_on(&self, comm: CommId) -> impl Iterator<Item = &Frame> {
        self.frames.iter().filter(move |f| f.comm == comm)
    }

    /// The labels open on `comm` (cold: misuse reports only).
    fn open_labels(&self, comm: CommId) -> Vec<String> {
        self.open_on(comm).map(|f| f.label.to_string()).collect()
    }
}

/// Everything the runtime's one cell holds.
#[derive(Default)]
struct State {
    /// The label table: one `Arc<str>` per label and one dense id per
    /// (comm, label), assigned in first-seen order. Every rank's frames,
    /// `EnterInfo`/`LeaveInfo` and section events share the label's one
    /// allocation, so downstream interners can recognise it by address.
    labels: LabelMap,
    /// Section state by world rank.
    ranks: Vec<RankSections>,
    /// Per communicator, the agreed sequence of section events as
    /// [`verify_word`]s (grown by the first rank to perform each step).
    verify_log: FastMap<CommId, Vec<u32>>,
}

/// The rank's slot in the table. `Init` sizes the table to the world; a
/// runtime that was never registered as a tool of its world never saw
/// `Init`, so its ranks' first `enter` grows it.
fn rank_sections(ranks: &mut Vec<RankSections>, world_rank: usize) -> &mut RankSections {
    if ranks.len() <= world_rank {
        ranks.resize_with(world_rank + 1, RankSections::default);
    }
    &mut ranks[world_rank]
}

/// The one allocation and the id of (comm, label), assigned here if this
/// is its first enter anywhere in the runtime. Id 0 is `(world, MPI_MAIN)`
/// in every runtime, even one never registered to open it: a leave's
/// `inner` of 0 means no frame is open.
fn intern(labels: &mut LabelMap, comm: CommId, label: &str) -> (Arc<str>, u32) {
    if let Some(known) = section_of(labels, comm, label) {
        return known;
    }
    if labels.is_empty() && (comm, label) != (CommId::WORLD, MPI_MAIN) {
        intern(labels, CommId::WORLD, MPI_MAIN);
    }
    let id = labels.values().map(Vec::len).sum::<usize>() as u32;
    let name = match labels.get_key_value(label) {
        Some((name, _)) => name.clone(),
        None => Arc::from(label),
    };
    labels.entry(name.clone()).or_default().push((comm, id));
    (name, id)
}

/// One record of the shared verification log.
fn verify_word(id: u32, is_enter: bool) -> u32 {
    id << 1 | is_enter as u32
}

/// A log word as the order-violation report prints it: `Enter("X")` /
/// `Exit("X")`, the label looked up by id (cold).
fn describe_word(labels: &LabelMap, word: u32) -> String {
    let names_it = |on: &Vec<(CommId, u32)>| on.iter().any(|&(_, id)| id == word >> 1);
    let label = labels.iter().find(|(_, on)| names_it(on));
    let direction = if word & 1 == 1 { "Enter" } else { "Exit" };
    format!("{direction}({:?})", label.map_or("?", |(name, _)| name))
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
    /// when zero, enters skip `EnterInfo` and the dispatch chain.
    n_enter_tools: AtomicUsize,
}

impl SectionRuntime {
    /// A runtime with the given verification mode and no tools.
    pub fn new(verify: VerifyMode) -> Arc<SectionRuntime> {
        Arc::new(SectionRuntime {
            state: WorldCell::default(),
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
        // Raise the PMPI-level event so generic mpisim tools also see it —
        // but only when one subscribed: building it clones the label and
        // fans out through the tool chain, which dwarfs the bookkeeping.
        let want = p.wants(EventKind::SectionEnter);
        let entered = self.enter_at(p.world_rank(), info, label, p.now(), want);
        if let Some((label, section)) = entered {
            p.raise(MpiEvent::SectionEnter {
                comm: comm.id(),
                comm_size: comm.size(),
                comm_rank: comm.rank(),
                label,
                section,
                time: p.now(),
            });
        }
    }

    /// Exit a section on `comm`. The label must match the innermost open
    /// section (perfect nesting, paper §4).
    pub fn exit(&self, p: &mut Proc, comm: &Comm, label: &str) {
        let info = CommInfo::of(comm);
        let (label, section, inner) = self.exit_at(p.world_rank(), info, label, p.now());
        if p.wants(EventKind::SectionLeave) {
            p.raise(MpiEvent::SectionLeave {
                comm: comm.id(),
                comm_size: comm.size(),
                comm_rank: comm.rank(),
                label,
                section,
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
        let state = self.state.lock();
        let rank = state.ranks.get(world_rank);
        rank.map_or(0, |rank| rank.open_on(comm).count())
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Open a frame; the label and the section id come back when
    /// `want_label` asks for them (to raise the section event).
    fn enter_at(
        &self,
        world_rank: usize,
        comm: CommInfo,
        label: &str,
        now: VTime,
        want_label: bool,
    ) -> Option<(Arc<str>, u32)> {
        let enter_tools = self.n_enter_tools.load(Ordering::Acquire) > 0;
        // Keep a second handle on the label only when someone will look at
        // it (event raise or an enter-side tool); the first moves into the
        // frame.
        let need_label = want_label || enter_tools;
        let (label, id, occurrence, depth) = {
            let state = &mut *self.state.lock();
            let (label, id) = intern(&mut state.labels, comm.id, label);
            let at = rank_sections(&mut state.ranks, world_rank).comm_index(comm.id);
            if self.verify == VerifyMode::Active {
                verify_step(state, world_rank, at, verify_word(id, true));
            }
            let rank = &mut state.ranks[world_rank];
            let cs = &mut rank.comms[at];
            cs.events += 1;
            let occurrence = match cs.occurrences.iter_mut().find(|(sec, _)| *sec == id) {
                Some((_, count)) => {
                    *count += 1;
                    *count - 1
                }
                None => {
                    cs.occurrences.push((id, 1));
                    0
                }
            };
            let depth = rank.open_on(comm.id).count();
            let kept = need_label.then(|| label.clone());
            rank.frames.push(Frame {
                label,
                comm: comm.id,
                id,
                data: [0; 32],
                enter: now,
                child_time: VTime::ZERO,
                occurrence,
            });
            (kept, id, occurrence, depth)
        };
        // Leave-side tools (the profiler) fold everything at exit; when no
        // attached tool acts on enters, skip the info build and dispatch.
        if enter_tools {
            let info = EnterInfo {
                world_rank,
                comm: comm.id,
                comm_size: comm.size,
                comm_rank: comm.rank,
                label: label.clone().expect("label retained for enter tools"),
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
                let mut state = self.state.lock();
                let rank = rank_sections(&mut state.ranks, world_rank);
                if let Some(frame) = rank.frames.last_mut() {
                    frame.data = data;
                }
            }
        }
        if want_label {
            label.map(|label| (label, id))
        } else {
            None
        }
    }

    /// Close `comm`'s innermost frame, which must be `label`'s. Returns
    /// the label, its section id and the rank's innermost section after.
    fn exit_at(
        &self,
        world_rank: usize,
        comm: CommInfo,
        label: &str,
        now: VTime,
    ) -> (Arc<str>, u32, u32) {
        let (frame, depth, inner) = {
            let state = &mut *self.state.lock();
            let rank = rank_sections(&mut state.ranks, world_rank);
            let at = rank.comm_index(comm.id);
            let open = rank.frames.iter().rposition(|f| f.comm == comm.id);
            if self.verify == VerifyMode::Active {
                // The frame carries the id when the exit is the one perfect
                // nesting allows; a misnested exit interns its label (cold:
                // the rank is about to abort).
                let id = match open.map(|pos| &rank.frames[pos]) {
                    Some(frame) if &*frame.label == label => frame.id,
                    _ => intern(&mut state.labels, comm.id, label).1,
                };
                verify_step(state, world_rank, at, verify_word(id, false));
            }
            let rank = &mut state.ranks[world_rank];
            rank.comms[at].events += 1;
            let Some(pos) = open else {
                section_misuse(
                    world_rank,
                    comm.id,
                    Vec::new(),
                    rank.events() - 1,
                    format!(
                        "mpi-sections: exit of '{label}' on rank {world_rank} \
                         with no open section"
                    ),
                )
            };
            if &*rank.frames[pos].label != label {
                // The misuse-context stack (cold path only: snapshotting
                // every open label on every exit is what the hot path pays
                // for otherwise).
                section_misuse(
                    world_rank,
                    comm.id,
                    rank.open_labels(comm.id),
                    rank.events() - 1,
                    format!(
                        "mpi-sections: imperfect nesting on rank {world_rank}: \
                         exiting '{label}' but innermost open section is '{}'",
                        rank.frames[pos].label
                    ),
                );
            }
            // Usually the rank's last frame: a pop.
            let frame = rank.frames.remove(pos);
            // Credit our inclusive duration to the parent's child time: the
            // frame below on the same communicator.
            let below = &mut rank.frames[..pos];
            if let Some(parent) = below.iter_mut().rfind(|f| f.comm == comm.id) {
                parent.child_time += now - frame.enter;
            }
            let depth = below.iter().filter(|f| f.comm == comm.id).count();
            let inner = rank.frames.last().map_or(0, |f| f.id);
            (frame, depth, inner)
        };
        let n_tools = self.n_tools.load(Ordering::Acquire);
        if n_tools > 0 {
            let duration = now - frame.enter;
            let exclusive = duration - frame.child_time;
            // The frame is consumed here, so its label moves into the
            // info (and back out for the return) without touching the
            // Arc's refcount.
            let info = LeaveInfo {
                world_rank,
                comm: comm.id,
                comm_size: comm.size,
                comm_rank: comm.rank,
                label: frame.label,
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
                    tool.on_leave(&info, &frame.data);
                }
            }
            (info.label, frame.id, inner)
        } else {
            (frame.label, frame.id, inner)
        }
    }
}

/// Check the rank's next section event (`word`) on its communicator number
/// `at` against that communicator's log, appending it when this rank is
/// the first to get there.
fn verify_step(state: &mut State, world_rank: usize, at: usize, word: u32) {
    let rank = &state.ranks[world_rank];
    let cs = &rank.comms[at];
    let pos = cs.events as usize;
    let log = state.verify_log.entry(cs.comm).or_default();
    let Some(&expected) = log.get(pos) else {
        assert!(
            pos == log.len(),
            "mpi-sections: verification position overran the log"
        );
        log.push(word);
        return;
    };
    if expected != word {
        let message = format!(
            "mpi-sections: section order violation on rank {world_rank}: \
             expected {} at step {pos}, got {}",
            describe_word(&state.labels, expected),
            describe_word(&state.labels, word)
        );
        section_misuse(
            world_rank,
            cs.comm,
            rank.open_labels(cs.comm),
            rank.events(),
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
                rank_sections(&mut self.state.lock().ranks, size - 1);
                let (id, size, rank) = (CommId::WORLD, *size, world_rank);
                let world = CommInfo { id, size, rank };
                self.enter_at(world_rank, world, MPI_MAIN, *time, false);
            }
            MpiEvent::Finalize { time } => {
                // Comm size is not carried by Finalize; MPI_MAIN lives on
                // the world communicator whose size tools already saw at
                // Init, so 0 participants here is treated as "unchanged".
                let (id, size, rank) = (CommId::WORLD, 0, world_rank);
                let world = CommInfo { id, size, rank };
                let _ = self.exit_at(world_rank, world, MPI_MAIN, *time);
            }
            _ => {}
        }
    }

    /// When a rank panics, report its open sections per communicator so the
    /// failure message carries the phase the rank died in.
    fn rank_context(&self, world_rank: usize) -> Option<String> {
        let state = self.state.lock();
        let rank = state.ranks.get(world_rank)?;
        let mut parts: Vec<String> = rank
            .comms
            .iter()
            .filter_map(|cs| {
                let labels: Vec<&str> = rank.open_on(cs.comm).map(|f| &*f.label).collect();
                (!labels.is_empty()).then(|| format!("comm {}: {}", cs.comm.0, labels.join(" > ")))
            })
            .collect();
        if parts.is_empty() {
            return None;
        }
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
            let state = sections.state.lock();
            let log = &state.verify_log[&CommId::WORLD];
            (log.len(), std::mem::size_of_val(&log[..]))
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
            names: Mutex<FastMap<u32, String>>,
            leaves: Mutex<Vec<(String, String)>>,
            depths: Mutex<Vec<usize>>,
        }
        impl Tool for Seen {
            fn interests(&self) -> EventMask {
                EventMask::of(&[EventKind::SectionEnter, EventKind::SectionLeave])
            }
            fn on_event(&self, world_rank: usize, event: &MpiEvent) {
                let mut names = self.names.lock();
                names.entry(0).or_insert_with(|| MPI_MAIN.to_string());
                match event {
                    MpiEvent::SectionEnter { label, section, .. } => {
                        names.insert(*section, label.to_string());
                    }
                    MpiEvent::SectionLeave {
                        label,
                        section,
                        inner,
                        ..
                    } if world_rank == 0 => {
                        assert_eq!(names[section], **label);
                        let leave = (label.to_string(), names[inner].clone());
                        self.leaves.lock().push(leave);
                    }
                    _ => {}
                }
            }
        }
        impl SectionTool for Seen {
            fn on_enter(&self, _info: &EnterInfo, _data: &mut SectionData) {}
            fn on_leave(&self, info: &LeaveInfo, _data: &SectionData) {
                if info.world_rank == 0 && &*info.label != MPI_MAIN {
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
                if &*info.label == "step" {
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
