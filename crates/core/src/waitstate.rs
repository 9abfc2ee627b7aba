//! Wait-state classification over the message-dependency event stream.
//!
//! Knowing *that* a rank waited (the pvar registry's job) is weaker than
//! knowing *why*. Following Scalasca's taxonomy, this module records a
//! compact per-rank communication log during the run and classifies every
//! wait after the fact:
//!
//! * **late sender** — a receive was posted before the matching send was
//!   issued; the receiver idled for `send_time - post_time`.
//! * **late receiver** — the message was already in flight when the receive
//!   was posted; the payload sat in the eager buffer for
//!   `post_time - send_time` (buffer occupancy, not idling, since our
//!   sends never block — but still a pipeline-imbalance signal).
//! * **wait at collective** — a rank reached a collective rendezvous early
//!   and waited `max(entry) - own_entry` for the last member.
//!
//! Every wait is attributed to the section that was open on the affected
//! rank, so the breakdown composes with the paper's per-section speedup
//! ranking (Eq. 6): a section with a poor bound *and* dominant late-sender
//! time points at imbalance in its producer, not at its own code.
//!
//! The same log feeds [`crate::critpath`], which walks the recorded
//! dependencies backward to extract the critical path.

use crate::spine::{attribute, RankTracker, Sink, Span, Spine, StepKind};
use crate::whatif::WaitClass;
use mpisim::diag::json_str;
use mpisim::{CommId, EventMask, MpiEvent, Tool};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

/// One recorded communication event on one rank. `sec` is the section
/// active *after* the record takes effect, so the interval from this
/// record to the next belongs to `sec`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rec {
    pub(crate) t_ns: u64,
    pub(crate) sec: u32,
    pub(crate) kind: RecKind,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum RecKind {
    /// Section boundary (also used for the implicit frame at Init).
    Boundary,
    /// An eager send was issued (`seq` keys into [`CommLog::sends`]).
    Send { seq: u64 },
    /// A receive matched at the record's `t_ns`; `post_ns` is when the
    /// receive was posted and `done_ns` when the enclosing call returned
    /// (the same completion edge the pvar registry uses).
    RecvMatch {
        seq: u64,
        post_ns: u64,
        done_ns: u64,
    },
    /// A collective rendezvous completed; `enter_ns` is this rank's
    /// arrival, `(comm, round)` keys into [`CommLog::colls`].
    CollExit {
        comm: CommId,
        round: u64,
        enter_ns: u64,
    },
    /// Jittered local work started at `t_ns`: `elapsed_ns` was charged,
    /// `base_ns` is the jitter-free duration. Lets a replay engine null
    /// compute noise out of the local gaps without re-pricing kernels.
    Compute { base_ns: u64, elapsed_ns: u64 },
    /// Finalize.
    Fini,
}

/// When (and how large) a message was sent; the sending rank is
/// recoverable from the sender's own `Send` record, indexed by `seq`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SendInfo {
    pub(crate) send_ns: u64,
    pub(crate) bytes: u64,
    /// Destination world rank (selects the link a replay must re-price).
    pub(crate) dst_world: usize,
}

/// Per-rank record sequence.
#[derive(Clone, Default)]
pub(crate) struct RankRecs {
    pub(crate) recs: Vec<Rec>,
    pub(crate) fini_ns: u64,
}

/// One recorded collective round: who entered when, which operation it
/// was, and the total bytes the cost model was charged with.
#[derive(Debug, Clone, Default)]
pub(crate) struct CollRound {
    /// Every member's `(world rank, entry time ns)`.
    pub(crate) entries: Vec<(usize, u64)>,
    /// Rendezvous operation label (`"barrier"`, `"allreduce"`, ...).
    pub(crate) op: &'static str,
    /// Sum of the byte counts declared by all participants.
    pub(crate) bytes: u64,
}

impl CollRound {
    /// When the last member arrived (`None` for a round nobody entered).
    pub(crate) fn max_enter_ns(&self) -> Option<u64> {
        self.entries.iter().map(|&(_, t)| t).max()
    }
}

/// `(comm, round)` -> that round's record.
pub(crate) type CollTable = HashMap<(CommId, u64), CollRound>;

/// The frozen communication log of one run: everything the wait-state
/// classifier and the critical-path walker need, with no references back
/// into the live tool.
pub struct CommLog {
    pub(crate) ranks: Vec<RankRecs>,
    pub(crate) names: Vec<String>,
    pub(crate) sends: HashMap<u64, SendInfo>,
    pub(crate) colls: CollTable,
}

impl CommLog {
    pub(crate) fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// World size of the recorded run.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Virtual end of the run: the last rank's Finalize, in nanoseconds.
    pub fn makespan_ns(&self) -> u64 {
        self.ranks.iter().map(|r| r.fini_ns).max().unwrap_or(0)
    }

    /// Total recorded events across all ranks (replay throughput unit).
    pub fn events(&self) -> usize {
        self.ranks.iter().map(|r| r.recs.len()).sum()
    }

    /// Run the attribution fold over the whole log: every record's
    /// presence up to the next one, and every communication record
    /// resolved against the send and collective tables.
    pub(crate) fn fold(&self, sink: &mut impl Sink) {
        for (rank, rr) in self.ranks.iter().enumerate() {
            for (i, rec) in rr.recs.iter().enumerate() {
                let next_ns = rr.recs.get(i + 1).map_or(rr.fini_ns, |r| r.t_ns);
                sink.span(rank, rec.sec, Span::Presence, rec.t_ns, next_ns);
                // A send nobody recorded counts as issued at the post.
                let (bytes, peer_ns) = match rec.kind {
                    RecKind::Send { seq } => (self.sends.get(&seq).map_or(0, |s| s.bytes), 0),
                    RecKind::RecvMatch { seq, post_ns, .. } => {
                        let send = self.sends.get(&seq);
                        send.map_or((0, post_ns), |s| (s.bytes, s.send_ns))
                    }
                    RecKind::CollExit { comm, round, .. } => {
                        let round = self.colls.get(&(comm, round));
                        (0, round.and_then(CollRound::max_enter_ns).unwrap_or(0))
                    }
                    _ => continue,
                };
                attribute(rank, rec.sec, rec.t_ns, &rec.kind, bytes, peer_ns, sink);
            }
        }
    }
}

/// Everything the recorder has seen so far.
#[derive(Default)]
struct Recording {
    spine: Spine<RankRecs>,
    sends: HashMap<u64, SendInfo>,
    colls: CollTable,
}

/// The recording tool. Attach alongside the section runtime, run, then
/// [`CommRecorder::freeze`] and feed the log to [`classify`] and/or
/// [`crate::critpath::extract`].
#[derive(Default)]
pub struct CommRecorder {
    state: Mutex<Recording>,
}

impl CommRecorder {
    /// A fresh recorder behind an `Arc`, ready to attach.
    pub fn new() -> Arc<CommRecorder> {
        Arc::new(CommRecorder::default())
    }

    /// Freeze the recorded state into an immutable [`CommLog`].
    pub fn freeze(&self) -> CommLog {
        let st = self.state.lock();
        CommLog {
            ranks: st.spine.ranks().iter().map(|r| r.data.clone()).collect(),
            names: st.spine.interner.names(),
            sends: st.sends.clone(),
            colls: st.colls.clone(),
        }
    }
}

impl Tool for CommRecorder {
    fn interests(&self) -> EventMask {
        RankTracker::INTERESTS
    }

    fn on_event(&self, world_rank: usize, event: &MpiEvent) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let Some((step, rank)) = st.spine.step(world_rank, event) else {
            return;
        };
        let kind = match step.kind {
            StepKind::Enter | StepKind::Leave { .. } => RecKind::Boundary,
            StepKind::CollEnter {
                comm, round, op, ..
            } => {
                let entry = st.colls.entry((comm, round)).or_default();
                entry.op = op;
                entry.entries.push((world_rank, step.t_ns));
                return;
            }
            StepKind::Rec {
                kind,
                bytes,
                dst_world,
            } => {
                match kind {
                    RecKind::Send { seq } => {
                        let send_ns = step.t_ns;
                        let info = SendInfo {
                            send_ns,
                            bytes,
                            dst_world,
                        };
                        st.sends.insert(seq, info);
                    }
                    RecKind::CollExit { comm, round, .. } => {
                        if let Some(entry) = st.colls.get_mut(&(comm, round)) {
                            entry.bytes = bytes;
                        }
                    }
                    RecKind::Fini => rank.data.fini_ns = step.t_ns,
                    _ => {}
                }
                kind
            }
        };
        rank.data.recs.push(Rec {
            t_ns: step.t_ns,
            sec: step.sec,
            kind,
        });
    }
}

/// Wait time of one class, in virtual nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitBreakdown {
    /// Receiver idled for a send issued after the receive was posted.
    pub late_sender_ns: u64,
    /// Message sat in the eager buffer before the receive was posted.
    pub late_receiver_ns: u64,
    /// Early arrival at a collective rendezvous.
    pub coll_wait_ns: u64,
}

impl WaitBreakdown {
    fn add(&mut self, other: &WaitBreakdown) {
        self.late_sender_ns += other.late_sender_ns;
        self.late_receiver_ns += other.late_receiver_ns;
        self.coll_wait_ns += other.coll_wait_ns;
    }

    pub(crate) fn add_class(&mut self, class: WaitClass, ns: u64) {
        *match class {
            WaitClass::LateSender => &mut self.late_sender_ns,
            WaitClass::LateReceiver => &mut self.late_receiver_ns,
            WaitClass::WaitAtCollective => &mut self.coll_wait_ns,
        } += ns;
    }

    /// Late-sender seconds.
    pub fn late_sender_secs(&self) -> f64 {
        self.late_sender_ns as f64 / 1e9
    }

    /// Late-receiver seconds.
    pub fn late_receiver_secs(&self) -> f64 {
        self.late_receiver_ns as f64 / 1e9
    }

    /// Wait-at-collective seconds.
    pub fn coll_wait_secs(&self) -> f64 {
        self.coll_wait_ns as f64 / 1e9
    }

    fn to_json(self) -> String {
        format!(
            "{{\"late_sender_ns\":{},\"late_receiver_ns\":{},\"coll_wait_ns\":{}}}",
            self.late_sender_ns, self.late_receiver_ns, self.coll_wait_ns
        )
    }
}

/// The classified wait states of one run.
#[derive(Debug, Clone)]
pub struct WaitStateReport {
    /// Per-section breakdown, summed over ranks (keyed by label).
    pub per_section: BTreeMap<String, WaitBreakdown>,
    /// Per-world-rank breakdown.
    pub per_rank: Vec<WaitBreakdown>,
}

impl WaitStateReport {
    /// All classes summed over all ranks.
    pub fn totals(&self) -> WaitBreakdown {
        let mut t = WaitBreakdown::default();
        for b in &self.per_rank {
            t.add(b);
        }
        t
    }

    /// Render the per-section wait-state table.
    pub fn render(&self) -> String {
        let mut out = String::from("wait states per section (Scalasca-style classification):\n");
        let _ = writeln!(
            out,
            "{:<32} {:>14} {:>14} {:>14}",
            "section", "late-sender s", "late-recv s", "coll-wait s"
        );
        out.push_str(&"-".repeat(78));
        out.push('\n');
        for (label, b) in &self.per_section {
            let _ = writeln!(
                out,
                "{:<32} {:>14.4} {:>14.4} {:>14.4}",
                crate::report::truncate_label(label, 32),
                b.late_sender_secs(),
                b.late_receiver_secs(),
                b.coll_wait_secs(),
            );
        }
        let t = self.totals();
        let _ = writeln!(
            out,
            "\ntotal waiting: {:.4} s late-sender, {:.4} s late-receiver, {:.4} s at collectives",
            t.late_sender_secs(),
            t.late_receiver_secs(),
            t.coll_wait_secs(),
        );
        out
    }

    /// Machine-readable JSON dump (deterministic key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"sections\":[");
        for (i, (label, b)) in self.per_section.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":{},\"waits\":{}}}",
                json_str(label),
                b.to_json()
            );
        }
        out.push_str("],\"per_rank\":[");
        for (i, b) in self.per_rank.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&b.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// The totals sink of [`CommLog::fold`]: whole waits per rank and section.
struct Totals {
    per_section: Vec<Option<WaitBreakdown>>,
    per_rank: Vec<WaitBreakdown>,
}

impl Sink for Totals {
    fn wait(&mut self, rank: usize, sec: u32, class: WaitClass, _start: u64, ns: u64) {
        self.per_rank[rank].add_class(class, ns);
        self.per_section[sec as usize]
            .get_or_insert_with(WaitBreakdown::default)
            .add_class(class, ns);
    }
}

/// Classify every wait in the log.
pub fn classify(log: &CommLog) -> WaitStateReport {
    let mut totals = Totals {
        per_section: vec![None; log.names.len()],
        per_rank: vec![WaitBreakdown::default(); log.ranks.len()],
    };
    log.fold(&mut totals);
    let per_section = totals
        .per_section
        .into_iter()
        .enumerate()
        .filter_map(|(id, b)| Some((log.name(id as u32).to_string(), b?)))
        .collect();
    WaitStateReport {
        per_section,
        per_rank: totals.per_rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SectionRuntime, VerifyMode};
    use mpisim::{Src, TagSel, WorldBuilder};

    #[test]
    fn late_sender_is_classified() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let rec = CommRecorder::new();
        let s = sections.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .tool(rec.clone())
            .run(move |p| {
                let world = p.world();
                s.scoped(p, &world, "PIPE", |p| {
                    let world = p.world();
                    if p.world_rank() == 0 {
                        let _ = world.recv::<u8>(p, Src::Rank(1), TagSel::Any);
                    } else {
                        p.advance_secs(3.0);
                        world.send(p, 0, 0, &[1u8]);
                    }
                });
            })
            .unwrap();
        let report = classify(&rec.freeze());
        let pipe = report.per_section.get("PIPE").unwrap();
        let ls = pipe.late_sender_secs();
        assert!((2.9..3.5).contains(&ls), "late-sender {ls}");
        assert_eq!(pipe.late_receiver_ns, 0);
        // The wait happened on rank 0.
        assert!(report.per_rank[0].late_sender_secs() >= 2.9);
        assert_eq!(report.per_rank[1].late_sender_ns, 0);
    }

    #[test]
    fn late_receiver_is_classified() {
        let rec = CommRecorder::new();
        WorldBuilder::new(2)
            .tool(rec.clone())
            .run(|p| {
                let world = p.world();
                if p.world_rank() == 1 {
                    world.send(p, 0, 0, &[1u8]);
                } else {
                    // Post the receive long after the eager send landed.
                    p.advance_secs(2.0);
                    let _ = world.recv::<u8>(p, Src::Rank(1), TagSel::Any);
                }
            })
            .unwrap();
        let report = classify(&rec.freeze());
        let t = report.totals();
        assert_eq!(t.late_sender_ns, 0);
        let lr = t.late_receiver_secs();
        assert!((1.9..2.5).contains(&lr), "late-receiver {lr}");
    }

    #[test]
    fn collective_wait_blames_straggler_free_ranks() {
        let rec = CommRecorder::new();
        WorldBuilder::new(4)
            .tool(rec.clone())
            .run(|p| {
                let world = p.world();
                if p.world_rank() == 3 {
                    p.advance_secs(1.0);
                }
                world.barrier(p);
            })
            .unwrap();
        let report = classify(&rec.freeze());
        // Ranks 0..2 each waited ~1 s; the straggler waited ~0.
        for r in 0..3 {
            let w = report.per_rank[r].coll_wait_secs();
            assert!((0.9..1.2).contains(&w), "rank {r} waited {w}");
        }
        assert!(report.per_rank[3].coll_wait_secs() < 0.1);
        // Attributed to MPI_MAIN (no explicit section in this run).
        assert!(report.per_section.contains_key(crate::section::MPI_MAIN));
    }

    #[test]
    fn report_renders_and_serializes() {
        let rec = CommRecorder::new();
        WorldBuilder::new(2)
            .tool(rec.clone())
            .run(|p| {
                let world = p.world();
                world.barrier(p);
            })
            .unwrap();
        let report = classify(&rec.freeze());
        let text = report.render();
        assert!(text.contains("wait states per section"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"per_rank\":["), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
