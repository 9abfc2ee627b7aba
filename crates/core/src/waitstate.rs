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
//! dependencies backward to extract the critical path. Nothing in it is
//! hashed per message: records are packed per rank ([`RankRecs`]), sends
//! sit in a dense row per sender ([`SendTable`]) and a round knows its
//! last arrival ([`CollRound`]). Nothing in it is copied to be read
//! either: [`CommRecorder::freeze`] hands the log over behind an `Arc` and
//! the recorder copies only if an event arrives while a frozen log is
//! still alive.

use crate::fasthash::FastMap;
use crate::spine::{attribute, RankTracker, Sink, Span, Spine, StepKind};
use crate::whatif::WaitClass;
use mpisim::diag::json_str;
use mpisim::message::seq_parts;
use mpisim::{CommId, EventMask, MpiEvent, Tool, WorldCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::mem::size_of;
use std::sync::Arc;

/// One recorded communication event on one rank. `sec` is the section
/// active *after* the record takes effect, so the interval from this
/// record to the next belongs to `sec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rec {
    pub(crate) t_ns: u64,
    pub(crate) sec: u32,
    pub(crate) kind: RecKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecKind {
    /// Section boundary (also used for the implicit frame at Init).
    Boundary,
    /// An eager send was issued (`seq` indexes [`CommLog::sends`]).
    Send { seq: u64 },
    /// A receive posted, and matched, at the record's `t_ns`; `done_ns` is
    /// when the enclosing call returned (the same completion edge the pvar
    /// registry uses).
    RecvMatch { seq: u64, done_ns: u64 },
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

/// The fixed part of a stored record: 16 bytes whatever the kind.
#[derive(Clone, Copy)]
struct Head {
    t_ns: u64,
    /// `sec << TAG_BITS | kind tag`.
    sec_tag: u32,
    /// Where the kind's payload starts in [`RankRecs::words`].
    at: u32,
}

const TAG_BITS: u32 = 3;

impl RecKind {
    /// The kind's tag, how many payload words it carries, and the words
    /// (padded to three).
    fn pack(self) -> (u32, usize, [u64; 3]) {
        match self {
            RecKind::Boundary => (0, 0, [0; 3]),
            RecKind::Send { seq } => (1, 1, [seq, 0, 0]),
            RecKind::RecvMatch { seq, done_ns } => (2, 2, [seq, done_ns, 0]),
            RecKind::CollExit {
                comm,
                round,
                enter_ns,
            } => (3, 3, [comm.0, round, enter_ns]),
            RecKind::Compute {
                base_ns,
                elapsed_ns,
            } => (4, 2, [base_ns, elapsed_ns, 0]),
            RecKind::Fini => (5, 0, [0; 3]),
        }
    }
}

/// Per-rank record sequence, packed: a [`Head`] per record and, beside
/// it, only the words the record's kind carries (none for a boundary or
/// finalize, 1 for a send, 2 for a receive or compute, 3 for a collective
/// exit). Readers get the same [`Rec`] values that were pushed.
#[derive(Clone, Default)]
pub(crate) struct RankRecs {
    heads: Vec<Head>,
    words: Vec<u64>,
    pub(crate) fini_ns: u64,
}

impl RankRecs {
    /// The largest section id a record can carry.
    pub(crate) const MAX_SEC: u32 = u32::MAX >> TAG_BITS;

    pub(crate) fn push(&mut self, rec: Rec) {
        assert!(
            rec.sec <= Self::MAX_SEC,
            "section {} does not fit a log record",
            rec.sec
        );
        let at = u32::try_from(self.words.len()).expect("a rank's log payload outgrew u32 words");
        let (tag, carried, payload) = rec.kind.pack();
        self.words.extend_from_slice(&payload[..carried]);
        self.heads.push(Head {
            t_ns: rec.t_ns,
            sec_tag: rec.sec << TAG_BITS | tag,
            at,
        });
    }

    pub(crate) fn len(&self) -> usize {
        self.heads.len()
    }

    /// When record `i` took effect, if there is one.
    pub(crate) fn t_ns(&self, i: usize) -> Option<u64> {
        self.heads.get(i).map(|head| head.t_ns)
    }

    pub(crate) fn get(&self, i: usize) -> Rec {
        let head = self.heads[i];
        let w = &self.words[head.at as usize..];
        let kind = match head.sec_tag & ((1 << TAG_BITS) - 1) {
            0 => RecKind::Boundary,
            1 => RecKind::Send { seq: w[0] },
            2 => RecKind::RecvMatch {
                seq: w[0],
                done_ns: w[1],
            },
            3 => RecKind::CollExit {
                comm: CommId(w[0]),
                round: w[1],
                enter_ns: w[2],
            },
            4 => RecKind::Compute {
                base_ns: w[0],
                elapsed_ns: w[1],
            },
            _ => RecKind::Fini,
        };
        Rec {
            t_ns: head.t_ns,
            sec: head.sec_tag >> TAG_BITS,
            kind,
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = Rec> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// When (and how large) a message was sent, and where the sender logged it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SendInfo {
    pub(crate) send_ns: u64,
    pub(crate) bytes: u64,
    /// Destination world rank (selects the link a replay must re-price).
    pub(crate) dst_world: u32,
    /// Index of the `Send` record in the sender's [`RankRecs`];
    /// `u32::MAX` marks a slot nobody recorded ([`SendTable`]'s holes).
    pub(crate) rec: u32,
}

/// `SendInfo::rec` of a slot nobody recorded.
const NO_SEND: u32 = u32::MAX;

/// Every recorded send, one dense row per sender indexed by the send's
/// number: a message's `seq` is [`mpisim::message::seq_of`] its sender and
/// `n`, `n` counts that sender's sends from 0, and the engine raises
/// `SendEnqueued` before the message can match — so a lookup is two
/// indexings, a row grows by appending, and a [`NO_SEND`] slot (or a
/// short row) is a send nobody recorded.
#[derive(Clone, Default)]
pub(crate) struct SendTable {
    by_sender: Vec<Vec<SendInfo>>,
}

impl SendTable {
    pub(crate) fn get(&self, seq: u64) -> Option<&SendInfo> {
        let (sender, n) = seq_parts(seq);
        let slot = self.by_sender.get(sender)?.get(n as usize)?;
        (slot.rec != NO_SEND).then_some(slot)
    }

    pub(crate) fn insert(&mut self, seq: u64, info: SendInfo) {
        let (sender, n) = seq_parts(seq);
        if self.by_sender.len() <= sender {
            self.by_sender.resize_with(sender + 1, Vec::new);
        }
        let row = &mut self.by_sender[sender];
        match row.get_mut(n as usize) {
            Some(slot) => *slot = info,
            None => {
                let hole = SendInfo {
                    rec: NO_SEND,
                    ..SendInfo::default()
                };
                row.resize(n as usize, hole);
                row.push(info);
            }
        }
    }
}

/// One recorded collective round: who entered when, which operation it
/// was, and the total bytes the cost model was charged with.
#[derive(Debug, Clone, Default)]
pub(crate) struct CollRound {
    /// Every member's `(world rank, entry time ns)`, in recording order
    /// (pushed by [`CollRound::enter`] only).
    pub(crate) entries: Vec<(usize, u64)>,
    /// The entry that arrived last (ties: lowest rank) and the index of
    /// that member's `CollExit` record in its rank's log, kept as entries
    /// are pushed so no reader rescans the round.
    pub(crate) last: Option<(usize, u64, usize)>,
    /// Rendezvous operation label (`"barrier"`, `"allreduce"`, ...).
    pub(crate) op: &'static str,
    /// Sum of the byte counts declared by all participants.
    pub(crate) bytes: u64,
}

impl CollRound {
    /// `rank` reached the rendezvous at `enter_ns` with `logged` records
    /// in its log: it logs nothing while inside, so its exit will be
    /// record `logged`.
    pub(crate) fn enter(&mut self, rank: usize, enter_ns: u64, logged: usize) {
        self.entries.push((rank, enter_ns));
        let later = |(r, t, _)| enter_ns > t || (enter_ns == t && rank < r);
        if self.last.is_none_or(later) {
            self.last = Some((rank, enter_ns, logged));
        }
    }
}

/// `(comm, round)` -> that round's record. Keyed, not indexed: a replay
/// that nulls collective waits mints sparse round numbers.
pub(crate) type CollTable = FastMap<(CommId, u64), CollRound>;

/// What a run recorded: the part of a log that grows with the run, kept
/// in one piece so the recorder and the logs it froze can share it.
#[derive(Clone, Default)]
pub(crate) struct Recorded {
    pub(crate) ranks: Vec<RankRecs>,
    pub(crate) sends: SendTable,
    pub(crate) colls: CollTable,
}

/// The frozen communication log of one run: everything the wait-state
/// classifier and the critical-path walker need. Nothing a reader can
/// reach changes once the log exists.
pub struct CommLog {
    /// What the run recorded, shared with the recorder that froze it.
    pub(crate) run: Arc<Recorded>,
    pub(crate) names: Vec<String>,
}

impl CommLog {
    pub(crate) fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// World size of the recorded run.
    pub fn nranks(&self) -> usize {
        self.run.ranks.len()
    }

    /// Whether some rank entered a section labelled `label` (`MPI_MAIN`
    /// counts: every rank enters it at `Init`).
    pub fn has_section(&self, label: &str) -> bool {
        self.names.iter().any(|name| name == label)
    }

    /// Virtual end of the run: the last rank's Finalize, in nanoseconds.
    pub fn makespan_ns(&self) -> u64 {
        self.run.ranks.iter().map(|r| r.fini_ns).max().unwrap_or(0)
    }

    /// Total recorded events across all ranks (replay throughput unit).
    pub fn events(&self) -> usize {
        self.run.ranks.iter().map(RankRecs::len).sum()
    }

    /// Bytes the log holds, counted from its lengths (not its capacities):
    /// every record's head and payload words, every send-table slot, every
    /// collective round with its entries, the label table.
    pub fn state_bytes(&self) -> usize {
        let recs = self.run.ranks.iter().map(|r| {
            size_of::<RankRecs>()
                + r.heads.len() * size_of::<Head>()
                + r.words.len() * size_of::<u64>()
        });
        let row_bytes = |row: &Vec<SendInfo>| size_of::<Vec<SendInfo>>() + size_of_val(&row[..]);
        let sends = self.run.sends.by_sender.iter().map(row_bytes);
        let colls = self.run.colls.values().map(|c| {
            size_of::<((CommId, u64), CollRound)>() + c.entries.len() * size_of::<(usize, u64)>()
        });
        let names = self.names.iter().map(|n| size_of::<String>() + n.len());
        size_of::<CommLog>()
            + size_of::<Recorded>()
            + recs.sum::<usize>()
            + sends.sum::<usize>()
            + colls.sum::<usize>()
            + names.sum::<usize>()
    }

    /// Run the attribution fold over the whole log: every record's
    /// presence up to the next one, and every communication record
    /// resolved against the send and collective tables.
    pub(crate) fn fold(&self, sink: &mut impl Sink) {
        for (rank, rr) in self.run.ranks.iter().enumerate() {
            for (i, rec) in rr.iter().enumerate() {
                let next_ns = rr.t_ns(i + 1).unwrap_or(rr.fini_ns);
                sink.span(rank, rec.sec, Span::Presence, rec.t_ns, next_ns);
                // A send nobody recorded counts as issued at the post.
                let (bytes, peer_ns) = match rec.kind {
                    RecKind::Send { seq } => (self.run.sends.get(seq).map_or(0, |s| s.bytes), 0),
                    RecKind::RecvMatch { seq, .. } => {
                        let send = self.run.sends.get(seq);
                        send.map_or((0, rec.t_ns), |s| (s.bytes, s.send_ns))
                    }
                    RecKind::CollExit { comm, round, .. } => {
                        let last = self.run.colls.get(&(comm, round)).and_then(|c| c.last);
                        (0, last.map_or(0, |(_, t, _)| t))
                    }
                    _ => continue,
                };
                attribute(rank, rec.sec, rec.t_ns, &rec.kind, bytes, peer_ns, sink);
            }
        }
    }
}

/// The tables of a live recording. The per-rank records are not here:
/// while events arrive each rank's [`RankRecs`] sits in the spine, beside
/// the tracker the same event has just touched.
#[derive(Default)]
struct Tables {
    sends: SendTable,
    colls: CollTable,
}

/// Where the log is: spread over spine and tables while events arrive,
/// in one shared piece once a [`CommLog`] points to it (the spine's
/// records are then empty).
enum Store {
    Live(Tables),
    Frozen(Arc<Recorded>),
}

impl Default for Store {
    fn default() -> Store {
        Store::Live(Tables::default())
    }
}

impl Store {
    /// The tables to record into, with every rank's records back in
    /// `spine`. Only the first event after a freeze finds the store
    /// frozen: it takes the log back if every `CommLog` made from it is
    /// gone and copies it otherwise.
    fn live(&mut self, spine: &mut Spine<RankRecs>) -> &mut Tables {
        if let Store::Frozen(_) = self {
            if let Store::Frozen(shared) = std::mem::take(self) {
                let Recorded {
                    ranks,
                    sends,
                    colls,
                } = Arc::unwrap_or_clone(shared);
                for (rank, recs) in ranks.into_iter().enumerate() {
                    spine.rank_mut(rank).data = recs;
                }
                *self = Store::Live(Tables { sends, colls });
            }
        }
        match self {
            Store::Live(tables) => tables,
            Store::Frozen(_) => unreachable!("thawed above"),
        }
    }

    /// The log in one shared piece, as a `CommLog` holds it: the records
    /// move out of `spine` (their headers do, no record is copied) and
    /// from here on the store only points to them.
    fn share(&mut self, spine: &mut Spine<RankRecs>) -> Arc<Recorded> {
        if let Store::Live(tables) = self {
            let Tables { sends, colls } = std::mem::take(tables);
            let ranks = (0..spine.ranks().len())
                .map(|rank| std::mem::take(&mut spine.rank_mut(rank).data))
                .collect();
            *self = Store::Frozen(Arc::new(Recorded {
                ranks,
                sends,
                colls,
            }));
        }
        match self {
            Store::Frozen(shared) => shared.clone(),
            Store::Live(_) => unreachable!("frozen above"),
        }
    }
}

/// Everything the recorder has seen so far.
#[derive(Default)]
struct Recording {
    spine: Spine<RankRecs>,
    store: Store,
}

/// The recording tool. Attach alongside the section runtime, run, then
/// [`CommRecorder::freeze`] and feed the log to [`classify`] and/or
/// [`crate::critpath::extract`].
#[derive(Default)]
pub struct CommRecorder {
    state: WorldCell<Recording>,
}

impl CommRecorder {
    /// A fresh recorder behind an `Arc`, ready to attach.
    pub fn new() -> Arc<CommRecorder> {
        Arc::new(CommRecorder::default())
    }

    /// The state recorded so far as an immutable [`CommLog`].
    ///
    /// Heap discipline: the log is handed over, not copied. The records,
    /// the send table and the rounds move behind an `Arc` the recorder
    /// keeps pointing to, so a freeze allocates the label table and one
    /// vector header per rank — nothing that grows with the run — and a
    /// second freeze of an idle recorder returns the same storage. An
    /// event that arrives afterwards is still recorded: the recorder takes
    /// the storage back if no frozen log is left alive and copies it once
    /// if one is, so a log never changes after it was returned.
    pub fn freeze(&self) -> CommLog {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        CommLog {
            run: st.store.share(&mut st.spine),
            names: st.spine.interner.names(),
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
        let tables = st.store.live(&mut st.spine);
        let Some((step, rank)) = st.spine.step(world_rank, event) else {
            return;
        };
        let kind = match step.kind {
            StepKind::Enter { .. } | StepKind::Leave { .. } => RecKind::Boundary,
            StepKind::CollEnter {
                comm, round, op, ..
            } => {
                let entry = tables.colls.entry((comm, round)).or_default();
                entry.op = op;
                entry.enter(world_rank, step.t_ns, rank.data.len());
                return;
            }
            StepKind::Rec {
                kind,
                bytes,
                dst_world,
                ..
            } => {
                match kind {
                    RecKind::Send { seq } => {
                        debug_assert_eq!(seq_parts(seq).0, world_rank, "a seq names its sender");
                        let info = SendInfo {
                            send_ns: step.t_ns,
                            bytes,
                            dst_world: index_u32(dst_world),
                            rec: index_u32(rank.data.len()),
                        };
                        tables.sends.insert(seq, info);
                    }
                    RecKind::CollExit { comm, round, .. } => {
                        if let Some(entry) = tables.colls.get_mut(&(comm, round)) {
                            entry.bytes = bytes;
                        }
                    }
                    RecKind::Fini => rank.data.fini_ns = step.t_ns,
                    _ => {}
                }
                kind
            }
        };
        rank.data.push(Rec {
            t_ns: step.t_ns,
            sec: step.sec,
            kind,
        });
    }
}

/// A world rank or a record index as the send table stores it.
pub(crate) fn index_u32(i: usize) -> u32 {
    let fits = u32::try_from(i).ok().filter(|&i| i != NO_SEND);
    fits.expect("a rank or record index outgrew the send table's u32")
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
        per_rank: vec![WaitBreakdown::default(); log.run.ranks.len()],
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
    use machine::VTime;
    use mpisim::message::seq_of;
    use mpisim::{Src, TagSel, WorldBuilder};

    #[test]
    fn packed_store_returns_what_was_pushed() {
        let big = CommId(u64::MAX - 1);
        let kinds = [
            RecKind::Boundary,
            RecKind::Send { seq: u64::MAX },
            RecKind::RecvMatch {
                seq: u64::MAX,
                done_ns: u64::MAX - 2,
            },
            RecKind::CollExit {
                comm: CommId((1 << 32) + 5),
                round: u64::MAX,
                enter_ns: 0,
            },
            RecKind::CollExit {
                comm: big,
                round: 0,
                enter_ns: u64::MAX,
            },
            RecKind::Compute {
                base_ns: u64::MAX,
                elapsed_ns: 1,
            },
            RecKind::Fini,
        ];
        let mut recs = RankRecs::default();
        let mut pushed = Vec::new();
        for (i, &kind) in kinds.iter().enumerate() {
            for sec in [0, i as u32, RankRecs::MAX_SEC] {
                let t_ns = u64::MAX - i as u64;
                pushed.push(Rec { t_ns, sec, kind });
                recs.push(Rec { t_ns, sec, kind });
            }
        }
        assert_eq!((recs.len(), recs.t_ns(pushed.len())), (pushed.len(), None));
        assert_eq!(recs.iter().collect::<Vec<_>>(), pushed);
        // Random access agrees with iteration, in any order.
        for i in (0..pushed.len()).rev() {
            assert_eq!(recs.get(i), pushed[i]);
            assert_eq!(recs.t_ns(i), Some(pushed[i].t_ns));
        }
        // Only the payload a kind carries is stored: 3 records of each
        // kind, 0 + 1 + 2 + 3 + 3 + 2 + 0 words per round of kinds (a
        // receive's post is its head's time).
        assert_eq!(recs.words.len(), 3 * 11);
        assert_eq!(size_of::<Head>(), 16);
    }

    #[test]
    #[should_panic(expected = "does not fit a log record")]
    fn section_id_past_the_head_fails_loudly() {
        RankRecs::default().push(Rec {
            t_ns: 0,
            sec: RankRecs::MAX_SEC + 1,
            kind: RecKind::Boundary,
        });
    }

    /// Hand-feeds the recorder: `send`, `recv` (matched at its post, its
    /// call returned later) and the two lifecycle events, as the engine
    /// raises them.
    struct Feed(Arc<CommRecorder>);

    impl Feed {
        fn new(size: usize) -> Feed {
            let feed = Feed(CommRecorder::new());
            for rank in 0..size {
                let time = VTime::ZERO;
                feed.0.on_event(rank, &MpiEvent::Init { size, time });
            }
            feed
        }

        fn send(&self, rank: usize, n: u64, dst_world: usize, at_ns: u64) -> u64 {
            let seq = seq_of(rank, n);
            let event = MpiEvent::SendEnqueued {
                comm: CommId::WORLD,
                dst_local: dst_world,
                dst_world,
                tag: 0,
                seq,
                bytes: 8,
                time: VTime::from_nanos(at_ns),
            };
            self.0.on_event(rank, &event);
            seq
        }

        fn recv(&self, rank: usize, seq: u64, posted_ns: u64, done_ns: u64) {
            let matched = MpiEvent::RecvMatched {
                comm: CommId::WORLD,
                src_world: seq_parts(seq).0,
                tag: 0,
                seq,
                bytes: 8,
                // The recorder times the send from its own table; the post
                // is what it counts an unrecorded send as.
                sent: VTime::from_nanos(posted_ns),
                candidates: Vec::new(),
                done: VTime::from_nanos(done_ns),
                time: VTime::from_nanos(posted_ns),
            };
            self.0.on_event(rank, &matched);
        }

        fn freeze(&self, fini_ns: u64) -> CommLog {
            let time = VTime::from_nanos(fini_ns);
            for rank in 0..self.0.freeze().nranks() {
                self.0.on_event(rank, &MpiEvent::Finalize { time });
            }
            self.0.freeze()
        }
    }

    #[test]
    fn unrecorded_send_counts_as_issued_at_the_post() {
        let feed = Feed::new(2);
        // Rank 0 posts at 100 and returns at 400 from a receive whose
        // `SendEnqueued` the recorder never saw; then a recorded one.
        feed.recv(0, seq_of(1, 0), 100, 400);
        let seen = feed.send(1, 1, 0, 700);
        feed.recv(0, seen, 500, 900);
        let log = feed.freeze(1000);
        assert!(log.run.sends.get(seq_of(1, 0)).is_none());
        let waits = classify(&log).per_rank[0];
        assert_eq!((waits.late_sender_ns, waits.late_receiver_ns), (200, 0));
        // The walker hops to the recorded late sender at 700 and never
        // reaches the unrecorded one; the replay waits for neither.
        let cp = crate::critpath::extract(&log);
        assert_eq!(cp.per_rank, [300, 700]);
        let m = machine::presets::ideal();
        let re = crate::replay(&log, &m, 1, &crate::whatif::WhatIfSpec::identity()).unwrap();
        assert_eq!(classify(&re).to_json(), classify(&log).to_json());
    }

    #[test]
    fn sends_out_of_order_or_beyond_the_world_neither_panic_nor_alias() {
        let feed = Feed::new(2);
        // n = 5 before n = 0, and a sender the world never announced.
        let late = feed.send(1, 5, 0, 50);
        let first = feed.send(1, 0, 0, 60);
        let stray = feed.send(7, 2, 0, 70);
        feed.recv(0, late, 10, 80);
        feed.recv(0, stray, 90, 95);
        let log = feed.freeze(100);
        assert_eq!(log.nranks(), 8);
        for (seq, send_ns, rec) in [(late, 50, 1), (first, 60, 2), (stray, 70, 0)] {
            let info = log.run.sends.get(seq).expect("recorded");
            assert_eq!((info.send_ns, info.rec), (send_ns, rec), "seq {seq:#x}");
            let (sender, _) = seq_parts(seq);
            assert_eq!(
                log.run.ranks[sender].get(rec as usize).kind,
                RecKind::Send { seq }
            );
        }
        // The slots in between, the neighbouring senders and the rows
        // past the table are all "nobody recorded it".
        for seq in [
            seq_of(1, 3),
            seq_of(1, 6),
            seq_of(7, 0),
            seq_of(6, 2),
            seq_of(8, 0),
        ] {
            assert!(log.run.sends.get(seq).is_none(), "seq {seq:#x}");
        }
        let waits = classify(&log).per_rank[0];
        assert_eq!((waits.late_sender_ns, waits.late_receiver_ns), (40, 20));
        assert_eq!(crate::critpath::extract(&log).length_ns, 100);
    }

    /// Everything the analyses say about a log.
    fn analyses(log: &CommLog) -> [String; 2] {
        [
            classify(log).to_json(),
            crate::critpath::extract(log).to_json(),
        ]
    }

    #[test]
    fn freezing_an_idle_recorder_twice_shares_one_log() {
        let feed = Feed::new(2);
        let seq = feed.send(1, 0, 0, 700);
        feed.recv(0, seq, 100, 900);
        let log = feed.freeze(1000);
        let again = feed.0.freeze();
        assert!(Arc::ptr_eq(&log.run, &again.run), "a second copy was made");
        assert_eq!(analyses(&log), analyses(&again));
        assert_eq!(classify(&log).per_rank[0].late_sender_ns, 600);
    }

    #[test]
    fn a_frozen_log_never_changes_and_recording_goes_on() {
        // The same stream into two recorders; `cut` is frozen half way.
        let (cut, straight) = (Feed::new(2), Feed::new(2));
        for feed in [&cut, &straight] {
            let seq = feed.send(1, 0, 0, 300);
            feed.recv(0, seq, 100, 400);
        }
        let early = cut.0.freeze();
        let (before, events) = (analyses(&early), early.events());
        for feed in [&cut, &straight] {
            let seq = feed.send(0, 0, 1, 450);
            feed.recv(1, seq, 500, 600);
            let seq = feed.send(1, 1, 0, 800);
            feed.recv(0, seq, 700, 900);
        }
        let (late, whole) = (cut.freeze(1000), straight.freeze(1000));
        assert_eq!((analyses(&early), early.events()), (before, events));
        assert_eq!(analyses(&late), analyses(&whole));
        assert_eq!(late.events(), whole.events());
        assert!(late.events() > events);
        assert_eq!(classify(&late).per_rank[0].late_sender_ns, 200 + 100);
        // With the early log still alive the recorder went on in a copy.
        assert!(!Arc::ptr_eq(&early.run, &late.run));
    }

    #[test]
    fn round_keeps_its_last_arrival() {
        let mut round = CollRound::default();
        assert_eq!(round.last, None);
        for (rank, t) in [(3, 10), (1, 40), (2, 40), (0, 40), (4, 39)] {
            round.enter(rank, t, 100 + rank);
        }
        // Ties go to the lowest rank, whatever the order of arrival.
        assert_eq!(round.last, Some((0, 40, 100)));
        assert_eq!(round.entries.len(), 5);
    }

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
