//! Wait-state classification over the message-dependency event stream.
//!
//! Knowing *that* a rank waited (the pvar counters' job) is weaker than
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
//! hashed per message: a rank's records sit inline in one vector of words
//! ([`RankRecs`]), each an 8-byte head word — time, section, kind and the
//! distance back to the previous record — and only the words its kind
//! carries; sends sit in a dense row per sender ([`SendTable`]) whose
//! 4-byte slot names each send's record by its word offset, and a round
//! knows where its last arrival logged its exit ([`CollRound`]). Each
//! message fact is stored once: a send's time is its record's head, its
//! destination and bytes the record's payload, so a reader that resolves
//! a receive hops from the slot to the sender's record
//! ([`Recorded::sent`]); a receive's one payload word holds its message's
//! `seq` and its call's duration, 32 bits each. Nothing in the log is
//! copied to be read either: [`CommRecorder::freeze`] hands it over behind
//! an `Arc` and the recorder copies only if an event arrives while a
//! frozen log is still alive.
//!
//! A head word, low bits first: a 4-bit kind tag, 3 bits for the distance
//! back to the previous record, a 13-bit section and a 44-bit time (ns,
//! ≈ 4.9 h). The tag took its fourth bit from the section field, so a
//! narrow head's section stops at 8190 (16382 with a 3-bit tag). Tags 0–11
//! are taken ([`RecKind::pack`] lists them) and tags 12–15 are spare.

use crate::fasthash::FastMap;
use crate::spine::{attribute, RankTracker, Sink, Span, Spine, StepKind};
use crate::whatif::WaitClass;
use mpisim::diag::json_str;
use mpisim::message::{seq_of, seq_parts};
use mpisim::{CommId, EventMask, Label, MpiEvent, Tool, WorldCell};
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
    /// The record's section opened on `comm` (`Init` opens `MPI_MAIN`).
    Enter { comm: CommId },
    /// Section `label` (a run index) closed on `comm`: the innermost frame
    /// of that section, which need not be the rank's innermost frame.
    Leave { comm: CommId, label: u32 },
    /// An eager send of `bytes` to world rank `dst_world` was issued at
    /// the record's `t_ns`. The message's `seq` is not stored: its slot in
    /// the send table names this record instead.
    Send { dst_world: u32, bytes: u64 },
    /// A receive posted, and matched, at the record's `t_ns`; `done_ns` is
    /// when the enclosing call returned (pvar's `recv_wait_ns` ends there).
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

// A record's head word, low bits first: the kind tag, how many words back
// the previous record starts (0: none), the section id and the time. A
// record whose time or section does not fit is wide: its section field
// holds `WIDE`, its time field the section, and the time follows in the
// next word. A send, compute or receive record packs its two payload
// fields into one word, low half first, when both fit 32 bits; its wide
// tag (6, 7 or 8) gives each field a word of its own. A boundary on
// `WORLD` carries nothing (tag 0 an enter, 9 a leave of the section the
// previous record is in, which `back` reaches); any other enter (10)
// carries its communicator, any other leave (11) communicator and label.
const TAG_BITS: u32 = 4;
const BACK_BITS: u32 = 3;
const SEC_BITS: u32 = 13;
const BACK_SHIFT: u32 = TAG_BITS;
const SEC_SHIFT: u32 = BACK_SHIFT + BACK_BITS;
const TIME_SHIFT: u32 = SEC_SHIFT + SEC_BITS;
/// The section field of a wide head; every smaller id is narrow.
const WIDE: u64 = (1 << SEC_BITS) - 1;
/// The first time (ns, ≈ 4.9 h) a narrow head cannot hold.
const NARROW_NS: u64 = 1 << (u64::BITS - TIME_SHIFT);

fn field(word: u64, shift: u32, bits: u32) -> u64 {
    word >> shift & ((1 << bits) - 1)
}

/// How many payload words a record carries, by kind tag ([`RecKind::pack`]
/// gives each tag its kind); the spare tags none.
const CARRIED: [usize; 1 << TAG_BITS] = [0, 1, 1, 3, 1, 0, 2, 2, 2, 0, 1, 2, 0, 0, 0, 0];

/// `lo` and `hi` in one word, `lo` in the low half, if both fit 32 bits.
fn halves(lo: u64, hi: u64) -> Option<u64> {
    (lo >> 32 == 0 && hi >> 32 == 0).then_some(lo | hi << 32)
}

/// Bits of a narrow receive's `seq` half that hold the sender's send
/// number; the sender's world rank takes the other 16.
const SEQ_N_BITS: u32 = 16;

/// Message `seq` in 32 bits, if its sender's world rank and send number
/// each fit 16.
fn narrow_seq(seq: u64) -> Option<u64> {
    let (sender, n) = seq_parts(seq);
    let sender = sender as u64;
    (sender >> (32 - SEQ_N_BITS) == 0 && n >> SEQ_N_BITS == 0).then_some(sender << SEQ_N_BITS | n)
}

/// The `seq` that [`narrow_seq`] gave `half`.
fn wide_seq(half: u64) -> u64 {
    seq_of(
        (half >> SEQ_N_BITS) as usize,
        half & ((1 << SEQ_N_BITS) - 1),
    )
}

impl RecKind {
    /// The kind's tag and its payload words, padded to three (a record
    /// stores the first [`CARRIED`]`[tag]`), for a record at `t_ns`;
    /// `prev` reads the previous record's section, which only a leave asks.
    fn pack(self, t_ns: u64, prev: impl Fn() -> Option<u32>) -> (u64, [u64; 3]) {
        let world = CommId::WORLD;
        match self {
            RecKind::Enter { comm } if comm == world => (0, [0; 3]),
            RecKind::Enter { comm } => (10, [comm.0, 0, 0]),
            RecKind::Leave { comm, label } if comm == world && prev() == Some(label) => (9, [0; 3]),
            RecKind::Leave { comm, label } => (11, [comm.0, label.into(), 0]),
            RecKind::Send { dst_world, bytes } => match halves(dst_world.into(), bytes) {
                Some(word) => (1, [word, 0, 0]),
                None => (6, [dst_world.into(), bytes, 0]),
            },
            RecKind::RecvMatch { seq, done_ns } => {
                let took = done_ns.checked_sub(t_ns);
                match narrow_seq(seq)
                    .zip(took)
                    .and_then(|(seq, took)| halves(seq, took))
                {
                    Some(word) => (2, [word, 0, 0]),
                    None => (8, [seq, done_ns, 0]),
                }
            }
            RecKind::CollExit {
                comm,
                round,
                enter_ns,
            } => (3, [comm.0, round, enter_ns]),
            RecKind::Compute {
                base_ns,
                elapsed_ns,
            } => match halves(base_ns, elapsed_ns) {
                Some(word) => (4, [word, 0, 0]),
                None => (7, [base_ns, elapsed_ns, 0]),
            },
            RecKind::Fini => (5, [0; 3]),
        }
    }
}

/// Per-rank record sequence, packed inline in one vector of words: each
/// record is a head word (time, section, kind tag and the distance back
/// to the previous record) followed by only the words its kind carries
/// ([`CARRIED`]: a world-nested boundary or finalize none, a send, compute
/// or receive one, a collective exit three). A send of 4 GiB or more, a
/// compute whose base or elapsed time reaches 2^32 ns (≈ 4.3 s), or a
/// receive whose call took that long or whose sender's world rank or send
/// number reaches 2^16, takes one more payload word; a record past ≈ 4.9 h
/// of virtual time or past section 8190 one more word for its time. A
/// record is addressed by the offset of its head; readers get the same
/// [`Rec`] values that were pushed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RankRecs {
    words: Vec<u64>,
    /// Records pushed.
    records: usize,
    /// Offset of the last record's head.
    last: usize,
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
        let at = self.words.len();
        let back = if self.records == 0 { 0 } else { at - self.last };
        let prev_sec = || self.last().map(|last| self.head_at(last).1);
        let (tag, payload) = rec.kind.pack(rec.t_ns, prev_sec);
        let carried = CARRIED[tag as usize];
        let fixed = tag | (back as u64) << BACK_SHIFT;
        let sec = u64::from(rec.sec);
        let mut buf = [0; 5];
        let head = if rec.t_ns < NARROW_NS && sec < WIDE {
            buf[0] = fixed | sec << SEC_SHIFT | rec.t_ns << TIME_SHIFT;
            1
        } else {
            buf[0] = fixed | WIDE << SEC_SHIFT | sec << TIME_SHIFT;
            buf[1] = rec.t_ns;
            2
        };
        buf[head..head + carried].copy_from_slice(&payload[..carried]);
        self.words.extend_from_slice(&buf[..head + carried]);
        (self.records, self.last) = (self.records + 1, at);
    }

    /// How many records were pushed.
    pub(crate) fn len(&self) -> usize {
        self.records
    }

    /// The offset the next pushed record will start at.
    pub(crate) fn end(&self) -> usize {
        self.words.len()
    }

    /// The offset of the last record, if there is one.
    pub(crate) fn last(&self) -> Option<usize> {
        (self.records > 0).then_some(self.last)
    }

    /// The offset of the record before the one at `at` (at [`Self::end`]:
    /// the last record), if there is one.
    pub(crate) fn before(&self, at: usize) -> Option<usize> {
        match self.words.get(at) {
            None => self.last(),
            Some(&head) => match field(head, BACK_SHIFT, BACK_BITS) as usize {
                0 => None,
                back => Some(at - back),
            },
        }
    }

    /// The time, section and kind tag of the record at offset `at`, read
    /// from its head, and the offset of its first payload word.
    fn head_at(&self, at: usize) -> (u64, u32, usize, usize) {
        let head = self.words[at];
        let tag = field(head, 0, TAG_BITS) as usize;
        match field(head, SEC_SHIFT, SEC_BITS) {
            WIDE => (self.words[at + 1], (head >> TIME_SHIFT) as u32, tag, at + 2),
            sec => (head >> TIME_SHIFT, sec as u32, tag, at + 1),
        }
    }

    /// The record at offset `at`, and the offset of the one after it.
    pub(crate) fn get(&self, at: usize) -> (Rec, usize) {
        let (t_ns, sec, tag, w) = self.head_at(at);
        let p = &self.words[w..];
        let kind = match tag {
            0 => RecKind::Enter {
                comm: CommId::WORLD,
            },
            1 => RecKind::Send {
                dst_world: p[0] as u32,
                bytes: p[0] >> 32,
            },
            2 => RecKind::RecvMatch {
                seq: wide_seq(p[0] & u64::from(u32::MAX)),
                done_ns: t_ns + (p[0] >> 32),
            },
            3 => RecKind::CollExit {
                comm: CommId(p[0]),
                round: p[1],
                enter_ns: p[2],
            },
            4 => RecKind::Compute {
                base_ns: p[0] & u64::from(u32::MAX),
                elapsed_ns: p[0] >> 32,
            },
            5 => RecKind::Fini,
            6 => RecKind::Send {
                dst_world: p[0] as u32,
                bytes: p[1],
            },
            7 => RecKind::Compute {
                base_ns: p[0],
                elapsed_ns: p[1],
            },
            8 => RecKind::RecvMatch {
                seq: p[0],
                done_ns: p[1],
            },
            9 => RecKind::Leave {
                comm: CommId::WORLD,
                label: self
                    .head_at(self.before(at).expect("a leave follows its enter"))
                    .1,
            },
            10 => RecKind::Enter { comm: CommId(p[0]) },
            11 => RecKind::Leave {
                comm: CommId(p[0]),
                label: p[1] as u32,
            },
            tag => panic!("offset {at} holds a record of spare tag {tag}"),
        };
        (Rec { t_ns, sec, kind }, w + CARRIED[tag])
    }

    /// The time of the record at offset `at`, read from its head alone.
    pub(crate) fn time_at(&self, at: usize) -> u64 {
        self.head_at(at).0
    }

    /// The time and bytes of the `Send` record at offset `at`: the two
    /// facts a receive reads from its sender's log.
    fn send_at(&self, at: usize) -> (u64, u64) {
        let (t_ns, _, tag, w) = self.head_at(at);
        let bytes = match tag {
            1 => self.words[w] >> 32,
            6 => self.words[w + 1],
            tag => panic!("offset {at} holds a record of tag {tag}, not a send"),
        };
        (t_ns, bytes)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = Rec> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let (rec, next) = (at < self.end()).then(|| self.get(at))?;
            at = next;
            Some(rec)
        })
    }
}

/// Where a sender logged one message: the word offset of its `Send`
/// record in the sender's [`RankRecs`]. The record holds the message's
/// facts — its head the send time, its payload the destination and the
/// bytes — so the slot repeats none of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SendSlot(u32);

impl SendSlot {
    /// A slot nobody recorded ([`SendTable`]'s holes).
    const HOLE: SendSlot = SendSlot(u32::MAX);
    /// Set when the receive saw the message issued at its post: a what-if
    /// replay that nulled the wait between them (a run never sets it).
    const AT_POST: u32 = 1 << 31;

    /// The slot of a `Send` record at word offset `rec`.
    pub(crate) fn new(rec: usize) -> SendSlot {
        let fits = u32::try_from(rec)
            .ok()
            .filter(|&rec| rec < Self::AT_POST - 1);
        SendSlot(fits.expect("a rank's log outgrew the send table's 31-bit offsets"))
    }

    /// The word offset of the `Send` record.
    pub(crate) fn rec(self) -> usize {
        (self.0 & !Self::AT_POST) as usize
    }

    /// Whether the receive saw the message issued at its post.
    fn at_post(self) -> bool {
        self.0 & Self::AT_POST != 0
    }

    /// The same send, seen by its receive as issued at the post.
    pub(crate) fn seen_at_post(self) -> SendSlot {
        SendSlot(self.0 | Self::AT_POST)
    }
}

/// Every recorded send, one dense row per sender indexed by the send's
/// number: a message's `seq` is [`mpisim::message::seq_of`] its sender and
/// `n`, `n` counts that sender's sends from 0, and the engine raises
/// `SendEnqueued` before the message can match — so a lookup is two
/// indexings, a row grows by appending, and a hole (or a short row) is a
/// send nobody recorded.
#[derive(Clone, Default)]
pub(crate) struct SendTable {
    by_sender: Vec<Vec<SendSlot>>,
}

impl SendTable {
    pub(crate) fn get(&self, seq: u64) -> Option<SendSlot> {
        let (sender, n) = seq_parts(seq);
        let slot = *self.by_sender.get(sender)?.get(n as usize)?;
        (slot != SendSlot::HOLE).then_some(slot)
    }

    pub(crate) fn insert(&mut self, seq: u64, slot: SendSlot) {
        let (sender, n) = seq_parts(seq);
        if self.by_sender.len() <= sender {
            self.by_sender.resize_with(sender + 1, Vec::new);
        }
        let row = &mut self.by_sender[sender];
        match row.get_mut(n as usize) {
            Some(old) => *old = slot,
            None => {
                row.resize(n as usize, SendSlot::HOLE);
                row.push(slot);
            }
        }
    }

    /// The number of `sender`'s send whose record starts at offset `rec`,
    /// if a slot names it. A rank numbers its sends in the order it issues
    /// them, so the search starts at `from`, the number after the previous
    /// send's, and ends there unless sends went unrecorded.
    pub(crate) fn number(&self, sender: usize, rec: usize, from: u64) -> Option<u64> {
        let row = self.by_sender.get(sender)?;
        let names = |slot: &SendSlot| *slot != SendSlot::HOLE && slot.rec() == rec;
        let from = row.len().min(from as usize);
        let after = row[from..].iter().position(names).map(|i| from + i);
        let n = after.or_else(|| row[..from].iter().position(names))?;
        Some(n as u64)
    }
}

/// A recorded message as the receive that matched it sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sent {
    /// The sender's world rank.
    pub(crate) rank: usize,
    /// Offset of the sender's `Send` record.
    pub(crate) rec: usize,
    /// When the message left: the `Send` record's time, or the receive's
    /// post where a replay nulled the wait between them.
    pub(crate) issued_ns: u64,
    pub(crate) bytes: u64,
}

/// One recorded collective round: who entered when, which operation it
/// was, and the total bytes the cost model was charged with.
#[derive(Debug, Clone, Default)]
pub(crate) struct CollRound {
    /// Every member's `(world rank, entry time ns)`, in recording order
    /// (pushed by [`CollRound::enter`] only).
    pub(crate) entries: Vec<(usize, u64)>,
    /// The entry that arrived last (ties: lowest rank) and the offset of
    /// that member's `CollExit` record in its rank's log, kept as entries
    /// are pushed so no reader rescans the round.
    pub(crate) last: Option<(usize, u64, usize)>,
    /// Rendezvous operation label (`"barrier"`, `"allreduce"`, ...).
    pub(crate) op: &'static str,
    /// Sum of the byte counts declared by all participants.
    pub(crate) bytes: u64,
}

impl CollRound {
    /// `rank` reached the rendezvous at `enter_ns` with its log ending at
    /// offset `logged`: it logs nothing while inside, so its exit will
    /// start there.
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

impl Recorded {
    /// Message `seq` as the receive posted at `posted_ns` that matched it
    /// sees it, read from the sender's `Send` record; `None` if nobody
    /// recorded the send.
    pub(crate) fn sent(&self, seq: u64, posted_ns: u64) -> Option<Sent> {
        let slot = self.sends.get(seq)?;
        let (rank, rec) = (seq_parts(seq).0, slot.rec());
        let (t_ns, bytes) = self.ranks[rank].send_at(rec);
        let issued_ns = if slot.at_post() { posted_ns } else { t_ns };
        Some(Sent {
            rank,
            rec,
            issued_ns,
            bytes,
        })
    }
}

/// The frozen communication log of one run: everything the wait-state
/// classifier and the critical-path walker need. Nothing a reader can
/// reach changes once the log exists.
pub struct CommLog {
    /// What the run recorded, shared with the recorder that froze it.
    pub(crate) run: Arc<Recorded>,
    /// The run's labels: a record's section indexes this.
    pub(crate) labels: Vec<Label>,
}

impl CommLog {
    pub(crate) fn name(&self, sec: u32) -> &'static str {
        self.labels[sec as usize].name()
    }

    /// The section index of the label named `label`, if the run entered it.
    pub(crate) fn section(&self, label: &str) -> Option<u32> {
        let at = self.labels.iter().position(|l| l.name() == label)?;
        Some(at as u32)
    }

    /// World size of the recorded run.
    pub fn nranks(&self) -> usize {
        self.run.ranks.len()
    }

    /// Whether some rank entered a section labelled `label` (`MPI_MAIN`
    /// counts: every rank enters it at `Init`).
    pub fn has_section(&self, label: &str) -> bool {
        self.section(label).is_some()
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
    /// every record's words (its head word, a wide record's time word and
    /// the payload), every send-table slot, every collective round with
    /// its entries, the label table.
    pub fn state_bytes(&self) -> usize {
        let recs = self
            .run
            .ranks
            .iter()
            .map(|r| size_of::<RankRecs>() + size_of_val(&r.words[..]));
        let row_bytes = |row: &Vec<SendSlot>| size_of::<Vec<SendSlot>>() + size_of_val(&row[..]);
        let sends = self.run.sends.by_sender.iter().map(row_bytes);
        let colls = self.run.colls.values().map(|c| {
            size_of::<((CommId, u64), CollRound)>() + c.entries.len() * size_of::<(usize, u64)>()
        });
        size_of::<CommLog>()
            + size_of::<Recorded>()
            + recs.sum::<usize>()
            + sends.sum::<usize>()
            + colls.sum::<usize>()
            + size_of_val(&self.labels[..])
    }

    /// Run the attribution fold over the whole log, one rank at a time:
    /// every record as logged with its presence up to the next one, and
    /// resolved against the send and collective tables.
    pub(crate) fn fold(&self, sink: &mut impl Sink) {
        for (rank, rr) in self.run.ranks.iter().enumerate() {
            // Each record is decoded once; the next one's time is read
            // from its head.
            let mut at = 0;
            while at < rr.end() {
                let (rec, next) = rr.get(at);
                at = next;
                let next_ns = if next < rr.end() {
                    rr.time_at(next)
                } else {
                    rr.fini_ns
                };
                sink.span(rank, rec.sec, Span::Presence, rec.t_ns, next_ns);
                // A send nobody recorded counts as issued at the post.
                let (bytes, peer_ns) = match rec.kind {
                    RecKind::Send { bytes, .. } => (bytes, 0),
                    RecKind::RecvMatch { seq, .. } => {
                        let sent = self.run.sent(seq, rec.t_ns);
                        sent.map_or((0, rec.t_ns), |s| (s.bytes, s.issued_ns))
                    }
                    RecKind::CollExit { comm, round, .. } => {
                        let last = self.run.colls.get(&(comm, round)).and_then(|c| c.last);
                        (0, last.map_or(0, |(_, t, _)| t))
                    }
                    _ => (0, 0),
                };
                sink.record(rank, &rec, bytes);
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
/// [`CommRecorder::freeze`] and feed the log to [`classify`],
/// [`crate::critpath::extract`], [`crate::PvarSnapshot::from_log`] or
/// [`crate::timeline::build`].
///
/// A recorder holds one run: message numbers restart with a second run,
/// whose sends then take over the first run's send slots, so a receive of
/// the first run resolves to the second run's send (its time and bytes).
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
            labels: st.spine.labels.clone(),
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
        let (kind, bytes, seq) = match step.kind {
            StepKind::CollEnter {
                comm, round, op, ..
            } => {
                let entry = tables.colls.entry((comm, round)).or_default();
                entry.op = op;
                entry.enter(world_rank, step.t_ns, rank.data.end());
                return;
            }
            StepKind::Rec {
                kind, bytes, seq, ..
            } => (kind, bytes, seq),
        };
        match kind {
            RecKind::Send { .. } => {
                debug_assert_eq!(seq_parts(seq).0, world_rank, "a seq names its sender");
                tables.sends.insert(seq, SendSlot::new(rank.data.end()));
            }
            RecKind::CollExit { comm, round, .. } => {
                if let Some(entry) = tables.colls.get_mut(&(comm, round)) {
                    entry.bytes = bytes;
                }
            }
            RecKind::Fini => rank.data.fini_ns = step.t_ns,
            _ => {}
        }
        rank.data.push(Rec {
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
        per_section: vec![None; log.labels.len()],
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
    use mpisim::{Src, TagSel, WorldBuilder};

    #[test]
    fn packed_store_returns_what_was_pushed() {
        let big = CommId(u64::MAX - 1);
        let narrow = u64::from(u32::MAX);
        // Every kind but the receive and the leave of the previous
        // record's section (below), a send and a compute each side of the
        // 32-bit halves, an enter on `WORLD` and on a sub-communicator, and
        // a leave that closes a frame below the innermost one (no record
        // here is in a section of that label) or on a sub-communicator,
        // with the payload words each carries.
        let kinds = [
            (
                RecKind::Enter {
                    comm: CommId::WORLD,
                },
                0,
            ),
            (RecKind::Enter { comm: big }, 1),
            (
                RecKind::Leave {
                    comm: CommId::WORLD,
                    label: RankRecs::MAX_SEC - 1,
                },
                2,
            ),
            (
                RecKind::Leave {
                    comm: CommId(7),
                    label: RankRecs::MAX_SEC - 1,
                },
                2,
            ),
            (
                RecKind::Send {
                    dst_world: u32::MAX,
                    bytes: narrow,
                },
                1,
            ),
            (
                RecKind::Send {
                    dst_world: 3,
                    bytes: 1 << 32,
                },
                2,
            ),
            (
                RecKind::Send {
                    dst_world: u32::MAX,
                    bytes: u64::MAX,
                },
                2,
            ),
            (
                RecKind::CollExit {
                    comm: CommId((1 << 32) + 5),
                    round: u64::MAX,
                    enter_ns: 0,
                },
                3,
            ),
            (
                RecKind::CollExit {
                    comm: big,
                    round: 0,
                    enter_ns: u64::MAX,
                },
                3,
            ),
            (
                RecKind::Compute {
                    base_ns: narrow,
                    elapsed_ns: narrow,
                },
                1,
            ),
            (
                RecKind::Compute {
                    base_ns: 1 << 32,
                    elapsed_ns: 1,
                },
                2,
            ),
            (
                RecKind::Compute {
                    base_ns: 0,
                    elapsed_ns: 1 << 32,
                },
                2,
            ),
            (RecKind::Fini, 0),
        ];
        let mut recs = RankRecs::default();
        let mut pushed = Vec::new();
        for (i, &(kind, carried)) in kinds.iter().enumerate() {
            let (t, sec) = (i as u64, i as u32);
            let cases = [
                // Times near `u64::MAX`, whatever the section: wide.
                (u64::MAX - t, 0, 2),
                (u64::MAX - t, sec, 2),
                (u64::MAX - t, RankRecs::MAX_SEC, 2),
                // The narrow fields' extremes fit the head word ...
                (t, 0, 1),
                (NARROW_NS - 1 - t, WIDE as u32 - 1, 1),
                // ... and one past either field does not.
                (NARROW_NS + t, sec, 2),
                (t, WIDE as u32, 2),
            ];
            for (t_ns, sec, head_words) in cases {
                let rec = Rec { t_ns, sec, kind };
                let at = recs.end();
                recs.push(rec);
                // A record is its head word (and a wide one's time word)
                // plus only the words its kind carries.
                assert_eq!(recs.end() - at, head_words + carried, "{rec:?}");
                pushed.push((at, rec));
            }
        }
        // A receive is narrow (one payload word) while its sender's world
        // rank and send number each fit 16 bits and its call took less
        // than 2^32 ns; its post is its head's time.
        let max16: u64 = (1 << 16) - 1;
        let receives = [
            (seq_of(max16 as usize, max16), narrow, 1),
            (seq_of(0, 0), 0, 1),
            (seq_of(1 << 16, 0), 0, 2),
            (seq_of(0, 1 << 16), 0, 2),
            (seq_of(3, 4), 1 << 32, 2),
            (u64::MAX, 1, 2),
        ];
        for (i, &(seq, took, carried)) in receives.iter().enumerate() {
            let (t, sec) = (i as u64, i as u32);
            for (t_ns, sec, head_words) in
                [(t, sec, 1), (NARROW_NS + t, sec, 2), (t, WIDE as u32, 2)]
            {
                let done_ns = t_ns + took;
                let kind = RecKind::RecvMatch { seq, done_ns };
                let rec = Rec { t_ns, sec, kind };
                let at = recs.end();
                recs.push(rec);
                assert_eq!(recs.end() - at, head_words + carried, "{rec:?}");
                pushed.push((at, rec));
            }
        }
        // A leave on `WORLD` of the section the previous record is in is
        // its head alone, whichever of the two heads is wide: `back` reaches
        // the record that names the label. Below the innermost frame, or on
        // a sub-communicator, it carries its communicator and label.
        for (inner, t_ns, sec, head_words) in [
            (5, 6, 0, 1),
            (WIDE as u32, 6, 0, 1),
            (RankRecs::MAX_SEC, NARROW_NS, 0, 2),
            (5, 6, WIDE as u32, 2),
        ] {
            for (comm, label, carried) in [
                (CommId::WORLD, inner, 0),
                (CommId::WORLD, inner - 1, 2),
                (big, inner, 2),
            ] {
                let kind = RecKind::Enter {
                    comm: CommId::WORLD,
                };
                let enter = Rec {
                    t_ns: 1,
                    sec: inner,
                    kind,
                };
                pushed.push((recs.end(), enter));
                recs.push(enter);
                let kind = RecKind::Leave { comm, label };
                let rec = Rec { t_ns, sec, kind };
                let at = recs.end();
                recs.push(rec);
                assert_eq!(recs.end() - at, head_words + carried, "{rec:?}");
                pushed.push((at, rec));
            }
        }
        // A call that returns before its post (or past `u64::MAX`) is wide.
        for (t_ns, done_ns, words) in [
            (10, 9, 3),
            (u64::MAX, u64::MAX - 2, 4),
            (u64::MAX - 1, u64::MAX, 3),
        ] {
            let kind = RecKind::RecvMatch {
                seq: seq_of(1, 1),
                done_ns,
            };
            let rec = Rec { t_ns, sec: 0, kind };
            let at = recs.end();
            recs.push(rec);
            assert_eq!(recs.end() - at, words, "{rec:?}");
            pushed.push((at, rec));
        }
        assert_eq!(recs.len(), pushed.len());
        assert!(recs.iter().eq(pushed.iter().map(|&(_, rec)| rec)));
        // Stepping back from the last record visits every record, in
        // reverse, and random access by offset agrees with iteration.
        assert_eq!(recs.before(recs.end()), recs.last());
        let mut at = recs.last();
        let mut next = recs.end();
        for &(offset, rec) in pushed.iter().rev() {
            assert_eq!(at, Some(offset));
            assert_eq!(recs.get(offset), (rec, next));
            (at, next) = (recs.before(offset), offset);
        }
        assert_eq!(at, None);
    }

    #[test]
    #[should_panic(expected = "does not fit a log record")]
    fn section_id_past_the_head_fails_loudly() {
        RankRecs::default().push(Rec {
            t_ns: 0,
            sec: RankRecs::MAX_SEC + 1,
            kind: RecKind::Fini,
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

        fn enter(&self, rank: usize, label: &str, at_ns: u64) {
            let event = MpiEvent::SectionEnter {
                comm: CommId::WORLD,
                label: Label::intern(label),
                time: VTime::from_nanos(at_ns),
            };
            self.0.on_event(rank, &event);
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
        // From a sender past the world, which the replay must not look up.
        feed.recv(1, seq_of(9, 0), 50, 60);
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
        // Offsets: rank 1's Init boundary is one word, a send two. The
        // receive of `first` (none here) would see it at 60 from any post.
        for (seq, issued_ns, rec) in [(late, 50, 1), (first, 60, 3), (stray, 70, 0)] {
            let sent = log.run.sent(seq, 0).expect("recorded");
            let (sender, _) = seq_parts(seq);
            assert_eq!(
                (sent.rank, sent.rec, sent.issued_ns, sent.bytes),
                (sender, rec, issued_ns, 8),
                "seq {seq:#x}"
            );
            let kind = RecKind::Send {
                dst_world: 0,
                bytes: 8,
            };
            assert_eq!(log.run.ranks[sender].get(rec).0.kind, kind);
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
        // A replay numbers each send by the slot that names its record,
        // whatever order the slots were filled in.
        let m = machine::presets::ideal();
        let re = crate::replay(&log, &m, 1, &crate::whatif::WhatIfSpec::identity()).unwrap();
        assert_eq!(re.run.ranks, log.run.ranks);
        for seq in [late, first, stray, seq_of(1, 3)] {
            assert_eq!(
                re.run.sends.get(seq),
                log.run.sends.get(seq),
                "seq {seq:#x}"
            );
        }
        assert_eq!(analyses(&re), analyses(&log));
    }

    /// A two-rank late sender `shift` ns into the run: rank 0 posts at
    /// `shift + 100` in `MPI_MAIN`, rank 1 sends at `shift + 700` from the
    /// section with the first id a narrow head cannot hold.
    fn late_sender_after(shift: u64) -> (CommLog, usize) {
        let feed = Feed::new(2);
        for id in 1..=WIDE as u32 {
            feed.enter(1, &format!("S{id}"), 10);
        }
        let seq = feed.send(1, 0, 0, shift + 700);
        feed.recv(0, seq, shift + 100, shift + 900);
        let log = feed.freeze(shift + 1000);
        // Two Inits, the entries, the send, the receive, two Finalizes.
        (log, 2 + WIDE as usize + 1 + 1 + 2)
    }

    #[test]
    fn wide_records_analyse_like_narrow_ones() {
        let (narrow, pushed) = late_sender_after(0);
        let (wide, _) = late_sender_after(NARROW_NS);
        // Past the narrow time range rank 0's receive and Finalize each
        // take a time word; rank 1's records in S16383 are wide in both.
        assert_eq!(wide.state_bytes(), narrow.state_bytes() + 2 * 8);
        assert_eq!(classify(&wide).to_json(), classify(&narrow).to_json());
        assert_eq!(classify(&wide).per_rank[0].late_sender_ns, 600);
        let sec = format!("S{WIDE}");
        for (log, shift) in [(&narrow, 0), (&wide, NARROW_NS)] {
            assert_eq!(log.events(), pushed);
            // The walk hops from the receive to the sender and spends the
            // gap there, in the wide section.
            let cp = crate::critpath::extract(log);
            assert_eq!(cp.length_ns, log.makespan_ns());
            assert_eq!(cp.per_rank, [300, shift + 700]);
            assert_eq!(cp.per_section[&sec], shift + 690);
            let m = machine::presets::ideal();
            let re = crate::replay(log, &m, 1, &crate::whatif::WhatIfSpec::identity()).unwrap();
            assert_eq!(re.run.ranks, log.run.ranks);
            let seq = seq_of(1, 0);
            assert_eq!(re.run.sends.get(seq), log.run.sends.get(seq));
        }
    }

    /// Everything the analyses say about a log.
    fn analyses(log: &CommLog) -> [String; 2] {
        [
            classify(log).to_json(),
            crate::critpath::extract(log).to_json(),
        ]
    }

    /// A p = 4 world whose log needs both wide payloads: rank 0 sends
    /// 5 GiB (a virtual payload) to rank 1 after computing ≈ 10 s (base and
    /// elapsed past 2^32 ns) while the others trade small messages and
    /// wait for it, twice, each step ending in an allreduce. Recorded and
    /// summarized by the same run.
    fn wide_world(machine: machine::MachineModel) -> (CommLog, crate::RunSummary) {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let (rec, summary) = (CommRecorder::new(), crate::SummaryTool::new());
        let s = sections.clone();
        WorldBuilder::new(4)
            .machine(machine)
            .seed(3)
            .tool(sections.clone())
            .tool(rec.clone())
            .tool(summary.clone())
            .run(move |p| {
                let world = p.world();
                let (me, n) = (p.world_rank(), p.world_size());
                for _ in 0..2 {
                    s.scoped(p, &world, "BIG", |p| {
                        if me == 0 {
                            p.compute(machine::Work::new(2e9, 0.0));
                            world.send_virtual::<u8>(p, 1, 7, 5 << 30);
                        } else if me == 1 {
                            let got = world.recv::<u8>(p, Src::Rank(0), TagSel::Is(7));
                            assert_eq!(got.logical_bytes, 5 << 30);
                        }
                    });
                    s.scoped(p, &world, "RING", |p| {
                        let right = (me + 1) % n;
                        world.send(p, right, 1, &[me as u64; 16]);
                        let _ = world.recv::<u64>(p, Src::Rank((me + n - 1) % n), TagSel::Is(1));
                        let _ = world.allreduce(p, vec![me as u64], |a, b| a + b);
                    });
                }
            })
            .unwrap();
        (rec.freeze(), summary.freeze())
    }

    #[test]
    fn a_world_with_wide_payloads_analyses_like_any_other() {
        let m = machine::presets::nehalem_cluster();
        let (log, summary) = wide_world(m.clone());
        let kinds: Vec<RecKind> = log.run.ranks[0].iter().map(|r| r.kind).collect();
        let wide_send = |k: &RecKind| matches!(k, RecKind::Send { bytes, .. } if *bytes == 5 << 30);
        let wide_compute = |k: &RecKind| matches!(k, RecKind::Compute { base_ns, elapsed_ns } if *base_ns >> 32 > 0 && *elapsed_ns >> 32 > 0);
        assert_eq!(kinds.iter().filter(|k| wide_send(k)).count(), 2);
        assert_eq!(kinds.iter().filter(|k| wide_compute(k)).count(), 2);
        // Rank 1 waits ≈ 10 s for each 5 GiB message: those two receives
        // take the wide form (a head and two payload words), the others
        // the narrow one.
        let rr = &log.run.ranks[1];
        let mut receives = Vec::new();
        let mut at = 0;
        while at < rr.end() {
            let (rec, next) = rr.get(at);
            if let RecKind::RecvMatch { done_ns, .. } = rec.kind {
                receives.push((done_ns - rec.t_ns >= 1 << 32, next - at));
            }
            at = next;
        }
        assert_eq!(receives.iter().filter(|&&(long, _)| long).count(), 2);
        for (long, words) in receives {
            assert_eq!(words, if long { 3 } else { 2 });
        }
        // The offline classifier agrees with the summarizer's online fold.
        let waits = classify(&log);
        for sec in &summary.sections {
            let exact = waits.per_section.get(&sec.label).copied();
            assert_eq!(sec.waits, exact.unwrap_or_default(), "{}", sec.label);
        }
        let labels: Vec<&String> = summary.sections.iter().map(|s| &s.label).collect();
        assert!(waits.per_section.keys().all(|l| labels.contains(&l)));
        assert!(waits.totals().late_sender_ns > 4_000_000_000);
        // The critical path the log gave while a send slot stored the
        // send's time and bytes beside its record: compute on rank 0, the
        // 5 GiB message to rank 1, its ring message onwards.
        assert_eq!(
            crate::critpath::extract(&log).to_json(),
            "{\"length_ns\":22834837857,\"steps\":22,\"sections\":[\
             {\"label\":\"BIG\",\"ns\":22834788681},{\"label\":\"MPI_MAIN\",\"ns\":0},\
             {\"label\":\"RING\",\"ns\":49176}],\
             \"per_rank\":[20687287911,2147525936,24010,0]}"
        );
        // Replay identity, twice over; then a replay under a noise-free
        // machine, and one with a free network too, is a run on it.
        let identity = crate::whatif::WhatIfSpec::identity();
        let re = crate::replay(&log, &m, 3, &identity).unwrap();
        assert_eq!(re.run.ranks, log.run.ranks);
        assert_eq!(analyses(&re), analyses(&log));
        let again = crate::replay(&re, &m, 3, &identity).unwrap();
        assert_eq!(again.run.ranks, log.run.ranks);
        let quiet = machine::MachineModel {
            noise: machine::NoiseModel::NONE,
            ..m.clone()
        };
        let free = machine::MachineModel {
            network: machine::NetworkModel::FREE,
            ..quiet.clone()
        };
        for (spec, altered) in [("jitter=0", quiet), ("net=ideal,jitter=0", free)] {
            let spec = crate::whatif::parse(spec).unwrap();
            let re = crate::replay(&log, &m, 3, &spec).unwrap();
            let run = wide_world(altered).0;
            assert_eq!(re.run.ranks, run.run.ranks, "{}", spec.raw);
            assert_eq!(analyses(&re), analyses(&run), "{}", spec.raw);
        }
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
