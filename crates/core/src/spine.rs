//! The event spine: the one place that decides which section was open on
//! a rank and why the rank waited.
//!
//! Every number the paper argues from (Eq. 6 bounds, per-section
//! `Tsection`, imbalance) is arithmetic on per-rank section times, so this
//! decision exists once. Two halves:
//!
//! * [`Spine`] turns the [`MpiEvent`] stream into completed [`Step`]s. It
//!   numbers the run's section labels densely in first-seen order (a
//!   [`Label`] is an id into the process-wide table, so that is one plain
//!   vector indexed by it) and owns one [`RankTracker`] per world rank
//!   (the section the rank is in, entry time of the collective it is in),
//!   each next to the per-rank state `T` of the tool that drives it. What
//!   the layers below decided it does not rebuild: a receive is one event,
//!   matched at its post and carrying when its call returned; a
//!   collective's round is the rendezvous generation its events carry; a
//!   section leave names the section the rank is in after it.
//! * [`attribute`] folds one record whose cross-rank fact is known — when
//!   the matched send was issued, when the last member reached the
//!   rendezvous — into a [`Sink`]. A receive's `post` is its record's time:
//!
//!   | interval                          | meaning                        |
//!   |-----------------------------------|--------------------------------|
//!   | `[post, min(send, done))`         | late sender: receiver idled    |
//!   | `[max(send, post), done)`         | transfer: wire + recv overhead |
//!   | `[enter, min(max_enter, exit))`   | wait at collective             |
//!   | `[max_enter, exit)`               | transfer: the operation's cost |
//!
//!   plus whole waits per class (a send issued before the post is a late
//!   receiver of `post - send`) and the point counters (message sent or
//!   received with its bytes, collective completed).
//!
//! The recorder appends steps to its log; the summarizer, the offline
//! classifier, the timeline and the pvar counters are sinks of the same
//! fold (the pvar counters read each record as logged).

use crate::waitstate::{Rec, RecKind};
use crate::whatif::WaitClass;
use mpisim::{CommId, EventKind, EventMask, Label, MpiEvent};

/// One rank's position in the event stream.
#[derive(Debug, Default)]
pub(crate) struct RankTracker {
    /// Time of the previous step.
    last_ns: u64,
    /// When the rank entered the rendezvous it is inside.
    coll_entered: Option<u64>,
    /// Run index of the label of the section the rank is in.
    sec: u32,
}

impl RankTracker {
    /// What the tracker consumes: every tool built on it subscribes to
    /// exactly these kinds (plus whatever it reads beside the steps).
    pub(crate) const INTERESTS: EventMask = EventMask::LIFECYCLE
        .with(EventKind::SectionEnter)
        .with(EventKind::SectionLeave)
        .with(EventKind::SendEnqueued)
        .with(EventKind::RecvMatched)
        .with(EventKind::CollectiveEnter)
        .with(EventKind::CollectiveExit)
        .with(EventKind::Compute);
}

/// What happened at a [`Step`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum StepKind {
    /// The rank reached a rendezvous of `size` members: round `round`
    /// of `comm`, the rendezvous generation.
    CollEnter {
        comm: CommId,
        round: u64,
        op: &'static str,
        size: usize,
    },
    /// Anything the log keeps a record of: a section enter or leave, a
    /// send, a completed receive, a collective exit, compute, finalize
    /// (`Init` enters `MPI_MAIN`). A receive's step is taken and
    /// timed at its match, which is its post; its kind carries when the
    /// enclosing call (Recv, Wait or Sendrecv) returned. `bytes` is the
    /// payload of the message or of the whole collective; `seq` the
    /// number of a send's message (a receive's kind carries its own);
    /// `sent_ns` when the message of a receive departed. `Fini` leaves the
    /// frames open for the driver to close.
    Rec {
        kind: RecKind,
        bytes: u64,
        seq: u64,
        sent_ns: u64,
    },
}

/// One completed step of one rank. `[from_ns, t_ns)` — the time since the
/// rank's previous step — was spent in `prev_sec`. Sections are run
/// indices ([`Spine::labels`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub(crate) t_ns: u64,
    pub(crate) from_ns: u64,
    pub(crate) prev_sec: u32,
    /// The innermost open section once the step has taken effect.
    pub(crate) sec: u32,
    pub(crate) kind: StepKind,
}

/// A rank's tracker next to the driving tool's per-rank state.
#[derive(Debug, Default)]
pub(crate) struct Tracked<T> {
    pub(crate) tracker: RankTracker,
    pub(crate) data: T,
}

/// The run's labels and every rank's tracker, indexed by world rank.
#[derive(Default)]
pub(crate) struct Spine<T> {
    /// The labels the run entered, by run index: first-seen order, so
    /// `Init` makes [`Label::MAIN`] index 0 — the section a rank is in
    /// when no frame is open. Every record, row and table of a tool keys
    /// its sections by this index, and names them at snapshot (sorting by
    /// name, since first-seen order depends on scheduling).
    pub(crate) labels: Vec<Label>,
    /// Run index by label id; [`UNSEEN`] for a label the run never
    /// entered.
    index: Vec<u32>,
    ranks: Vec<Tracked<T>>,
}

/// A label the run has not entered.
const UNSEEN: u32 = u32::MAX;

/// The run index of `label`, the next one if the run is new to it.
fn run_index(labels: &mut Vec<Label>, index: &mut Vec<u32>, label: Label) -> u32 {
    let id = label.id() as usize;
    if index.len() <= id {
        index.resize(id + 1, UNSEEN);
    }
    if index[id] == UNSEEN {
        index[id] = labels.len() as u32;
        labels.push(label);
    }
    index[id]
}

impl<T: Default> Spine<T> {
    /// Every rank seen so far, in world-rank order (`Init` sizes the
    /// table to the world at once).
    pub(crate) fn ranks(&self) -> &[Tracked<T>] {
        &self.ranks
    }

    pub(crate) fn rank_mut(&mut self, rank: usize) -> &mut Tracked<T> {
        if self.ranks.len() <= rank {
            self.ranks.resize_with(rank + 1, Tracked::default);
        }
        &mut self.ranks[rank]
    }

    /// Advance `rank` by one event. A collective exit with no entry before
    /// it and kinds outside [`RankTracker::INTERESTS`] complete no step.
    pub(crate) fn step(
        &mut self,
        rank: usize,
        event: &MpiEvent,
    ) -> Option<(Step, &mut Tracked<T>)> {
        if let MpiEvent::Init { size, .. } = event {
            if self.ranks.len() < *size {
                self.ranks.resize_with(*size, Tracked::default);
            }
        }
        let now_ns = event.time().as_nanos();
        self.rank_mut(rank);
        let (labels, index) = (&mut self.labels, &mut self.index);
        let mut sec = |label| run_index(labels, index, label);
        let tracked = &mut self.ranks[rank];
        let tr = &mut tracked.tracker;
        let prev_sec = tr.sec;
        let rec = |kind| StepKind::Rec {
            kind,
            bytes: 0,
            seq: 0,
            sent_ns: 0,
        };
        let kind = match event {
            MpiEvent::Init { .. } => {
                tr.sec = sec(Label::MAIN);
                tr.last_ns = now_ns;
                rec(RecKind::Enter {
                    comm: CommId::WORLD,
                })
            }
            MpiEvent::Finalize { .. } => rec(RecKind::Fini),
            MpiEvent::SectionEnter { comm, label, .. } => {
                tr.sec = sec(*label);
                rec(RecKind::Enter { comm: *comm })
            }
            MpiEvent::SectionLeave {
                comm, label, inner, ..
            } => {
                tr.sec = sec(*inner);
                rec(RecKind::Leave {
                    comm: *comm,
                    label: sec(*label),
                })
            }
            MpiEvent::SendEnqueued {
                seq,
                bytes,
                dst_world,
                ..
            } => StepKind::Rec {
                kind: RecKind::Send {
                    dst_world: u32::try_from(*dst_world).expect("a world rank fits 32 bits"),
                    bytes: *bytes,
                },
                bytes: *bytes,
                seq: *seq,
                sent_ns: 0,
            },
            MpiEvent::RecvMatched {
                seq,
                bytes,
                sent,
                done,
                ..
            } => StepKind::Rec {
                kind: RecKind::RecvMatch {
                    seq: *seq,
                    done_ns: done.as_nanos(),
                },
                bytes: *bytes,
                seq: 0,
                sent_ns: sent.as_nanos(),
            },
            MpiEvent::CollectiveEnter {
                comm,
                round,
                op,
                size,
                ..
            } => {
                tr.coll_entered = Some(now_ns);
                StepKind::CollEnter {
                    comm: *comm,
                    round: *round,
                    op,
                    size: *size,
                }
            }
            MpiEvent::CollectiveExit {
                comm, round, bytes, ..
            } => StepKind::Rec {
                kind: RecKind::CollExit {
                    comm: *comm,
                    round: *round,
                    enter_ns: tr.coll_entered.take()?,
                },
                bytes: *bytes,
                seq: 0,
                sent_ns: 0,
            },
            MpiEvent::Compute { base, elapsed, .. } => rec(RecKind::Compute {
                base_ns: base.as_nanos(),
                elapsed_ns: elapsed.as_nanos(),
            }),
            _ => return None,
        };
        let step = Step {
            t_ns: now_ns,
            from_ns: tr.last_ns,
            prev_sec,
            sec: tr.sec,
            kind,
        };
        tr.last_ns = now_ns;
        Some((step, tracked))
    }
}

/// The additive per-(window, section) slice every windowed consumer
/// keeps: the timeline per rank, the summarizer's checkpoint rows summed
/// over ranks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) time_ns: u64,
    pub(crate) late_sender_ns: u64,
    pub(crate) coll_wait_ns: u64,
    pub(crate) transfer_ns: u64,
    pub(crate) sent_msgs: u64,
    pub(crate) sent_bytes: u64,
    pub(crate) recv_msgs: u64,
    pub(crate) recv_bytes: u64,
    pub(crate) coll_exits: u64,
}

/// The interval classes of a [`Cell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Span {
    Presence,
    LateSender,
    CollWait,
    Transfer,
}

/// The point counters of a [`Cell`]; messages carry their bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Count {
    Sent(u64),
    Recv(u64),
    CollExit,
}

impl Cell {
    pub(crate) fn add_span(&mut self, span: Span, ns: u64) {
        *match span {
            Span::Presence => &mut self.time_ns,
            Span::LateSender => &mut self.late_sender_ns,
            Span::CollWait => &mut self.coll_wait_ns,
            Span::Transfer => &mut self.transfer_ns,
        } += ns;
    }

    pub(crate) fn count(&mut self, count: Count) {
        match count {
            Count::Sent(bytes) => {
                self.sent_msgs += 1;
                self.sent_bytes += bytes;
            }
            Count::Recv(bytes) => {
                self.recv_msgs += 1;
                self.recv_bytes += bytes;
            }
            Count::CollExit => self.coll_exits += 1,
        }
    }

    pub(crate) fn add(&mut self, o: &Cell) {
        self.time_ns += o.time_ns;
        self.late_sender_ns += o.late_sender_ns;
        self.coll_wait_ns += o.coll_wait_ns;
        self.transfer_ns += o.transfer_ns;
        self.sent_msgs += o.sent_msgs;
        self.sent_bytes += o.sent_bytes;
        self.recv_msgs += o.recv_msgs;
        self.recv_bytes += o.recv_bytes;
        self.coll_exits += o.coll_exits;
    }

    /// Nothing was ever deposited here.
    pub(crate) fn is_zero(&self) -> bool {
        *self == Cell::default()
    }

    /// Presence minus waits and transfer.
    pub(crate) fn useful_ns(&self) -> u64 {
        self.time_ns
            .saturating_sub(self.late_sender_ns + self.coll_wait_ns + self.transfer_ns)
    }
}

/// Where [`attribute`] deposits. Every method defaults to a no-op, so a
/// sink names only what it reduces.
pub(crate) trait Sink {
    /// A record of `rank` as the log holds it, before [`attribute`]
    /// deposits it; `bytes` is a message's payload (a receive's read from
    /// its send, 0 if nobody recorded it). Only the log's fold calls it.
    fn record(&mut self, _rank: usize, _rec: &Rec, _bytes: u64) {}
    /// `[a, b)` on `rank`, inside section `sec`, was `span` time.
    fn span(&mut self, _rank: usize, _sec: u32, _span: Span, _a: u64, _b: u64) {}
    /// A point event of `rank` at `t` inside `sec`.
    fn point(&mut self, _rank: usize, _sec: u32, _t: u64, _count: Count) {}
    /// One whole wait of `class` that began at `start` and lasted `ns`
    /// (possibly 0: the rank was the last to arrive).
    fn wait(&mut self, _rank: usize, _sec: u32, _class: WaitClass, _start: u64, _ns: u64) {}
}

/// Fold one record of `rank`, taken at `t_ns` inside `sec`, into `sink`
/// (the interval table is in the module documentation). `bytes` is the
/// message's payload; `peer_ns` the record's one cross-rank fact: when
/// the matched message was issued for a receive (the post instant if the
/// send was never observed), when the last member arrived for a
/// collective exit. Inlined: left out of line, the call per record made
/// [`crate::classify`] two to three times slower.
#[inline]
pub(crate) fn attribute(
    rank: usize,
    sec: u32,
    t_ns: u64,
    kind: &RecKind,
    bytes: u64,
    peer_ns: u64,
    sink: &mut impl Sink,
) {
    match *kind {
        RecKind::Send { .. } => sink.point(rank, sec, t_ns, Count::Sent(bytes)),
        RecKind::RecvMatch { done_ns, .. } => {
            let (post_ns, send_ns) = (t_ns, peer_ns);
            if send_ns > post_ns {
                sink.wait(rank, sec, WaitClass::LateSender, post_ns, send_ns - post_ns);
                sink.span(rank, sec, Span::LateSender, post_ns, send_ns.min(done_ns));
            } else {
                sink.wait(
                    rank,
                    sec,
                    WaitClass::LateReceiver,
                    send_ns,
                    post_ns - send_ns,
                );
            }
            sink.span(rank, sec, Span::Transfer, send_ns.max(post_ns), done_ns);
            sink.point(rank, sec, done_ns, Count::Recv(bytes));
        }
        RecKind::CollExit { enter_ns, .. } => {
            let max_enter_ns = peer_ns.max(enter_ns);
            let wait = max_enter_ns - enter_ns;
            sink.wait(rank, sec, WaitClass::WaitAtCollective, enter_ns, wait);
            sink.span(rank, sec, Span::CollWait, enter_ns, max_enter_ns.min(t_ns));
            sink.span(rank, sec, Span::Transfer, max_enter_ns, t_ns);
            sink.point(rank, sec, t_ns, Count::CollExit);
        }
        RecKind::Enter { .. } | RecKind::Leave { .. } | RecKind::Compute { .. } | RecKind::Fini => {
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        classify, critpath, timeline, CommRecorder, PvarSnapshot, SectionRuntime, SummaryTool,
        TraceTool, VerifyMode, Windowing, MPI_MAIN,
    };
    use mpisim::{Src, TagSel, Tool, WorldBuilder};
    use std::sync::Arc;

    /// Everything `attribute` deposits, in call order.
    #[derive(Default)]
    struct Calls(Vec<String>);

    impl Sink for Calls {
        fn span(&mut self, _rank: usize, _sec: u32, span: Span, a: u64, b: u64) {
            if b > a {
                self.0.push(format!("{span:?} [{a},{b})"));
            }
        }
        fn point(&mut self, _rank: usize, _sec: u32, t: u64, count: Count) {
            self.0.push(format!("{count:?} @{t}"));
        }
        fn wait(&mut self, _rank: usize, _sec: u32, class: WaitClass, start: u64, ns: u64) {
            self.0.push(format!("{} {ns} from {start}", class.name()));
        }
    }

    fn attributed(t_ns: u64, kind: RecKind, peer_ns: u64) -> Vec<String> {
        let mut calls = Calls::default();
        attribute(0, 0, t_ns, &kind, 8, peer_ns, &mut calls);
        calls.0
    }

    #[test]
    fn the_four_intervals() {
        // A receive's post is its record's time.
        let recv = RecKind::RecvMatch {
            seq: 0,
            done_ns: 50,
        };
        assert_eq!(
            attributed(10, recv, 30),
            [
                "late-sender 20 from 10",
                "LateSender [10,30)",
                "Transfer [30,50)",
                "Recv(8) @50"
            ]
        );
        assert_eq!(
            attributed(30, recv, 10),
            [
                "late-receiver 20 from 10",
                "Transfer [30,50)",
                "Recv(8) @50"
            ]
        );
        let exit = |enter_ns| RecKind::CollExit {
            comm: CommId::WORLD,
            round: 0,
            enter_ns,
        };
        assert_eq!(
            attributed(55, exit(10), 40),
            [
                "wait-at-collective 30 from 10",
                "CollWait [10,40)",
                "Transfer [40,55)",
                "CollExit @55"
            ]
        );
        // The last arrival waits for nobody; its own entry is the maximum
        // even when the table has not seen it.
        assert_eq!(
            attributed(55, exit(40), 10),
            [
                "wait-at-collective 0 from 40",
                "Transfer [40,55)",
                "CollExit @55"
            ]
        );
    }

    /// Delivers every event kind to `T`, whatever `T` subscribes to.
    struct Wide<T>(Arc<T>);

    impl<T: Tool> Tool for Wide<T> {
        fn on_event(&self, world_rank: usize, event: &MpiEvent) {
            self.0.on_event(world_rank, event);
        }
    }

    /// Every artifact of one run of a program that raises every event
    /// kind, with the three tools attached bare (`wide = false`: each gets
    /// exactly its declared interests) or behind [`Wide`].
    fn artifacts(wide: bool) -> Vec<String> {
        fn attach<T: Tool + 'static>(wide: bool, tool: &Arc<T>) -> Arc<dyn Tool> {
            if wide {
                Arc::new(Wide(tool.clone()))
            } else {
                tool.clone()
            }
        }
        let sections = SectionRuntime::new(VerifyMode::Active);
        let (recorder, summary, trace) =
            (CommRecorder::new(), SummaryTool::new(), TraceTool::new());
        sections.attach(trace.clone());
        let s = sections.clone();
        WorldBuilder::new(4)
            .machine(machine::presets::nehalem_cluster())
            .seed(5)
            .tool(sections.clone())
            .tool(attach(wide, &recorder))
            .tool(attach(wide, &summary))
            .tool(attach(wide, &trace))
            .run(move |p| {
                let world = p.world();
                let me = p.world_rank();
                for step in 0..3 {
                    s.scoped(p, &world, "STEP", |p| {
                        p.advance_secs(0.001 * (me + step + 1) as f64);
                        let world = p.world();
                        let req = world.irecv::<u64>(p, Src::Rank((me + 3) % 4), TagSel::Is(0));
                        world.send(p, (me + 1) % 4, 0, &[me as u64; 16]);
                        let _ = req.wait(p);
                        s.scoped(p, &world, "SYNC", |p| {
                            let world = p.world();
                            let _ = world.allreduce_sum_f64(p, me as f64);
                        });
                    });
                }
            })
            .expect("run failed");
        let log = recorder.freeze();
        let tl = timeline::build(&log, &Windowing::Fixed(3));
        vec![
            classify(&log).to_json(),
            critpath::extract(&log).to_json(),
            tl.to_json(),
            summary.freeze().to_json(),
            PvarSnapshot::from_log(&log).to_json(),
            trace.to_chrome_trace(),
        ]
    }

    #[test]
    fn declared_interests_lose_nothing() {
        let narrow = artifacts(false);
        assert_eq!(narrow, artifacts(true));
        // Not vacuous: messages, waits and collectives all happened.
        assert!(narrow[4].contains("\"sent_msgs\":3"), "{}", narrow[4]);
        assert!(narrow[4].contains("\"coll_calls\":3"), "{}", narrow[4]);
        assert!(narrow[5].contains("\"ph\":\"s\""), "{}", narrow[5]);
    }

    /// Sections on two communicators, one of them closed before a section
    /// entered after it: after every enter or leave each tool sees the rank
    /// in its innermost open section across communicators, the log says
    /// which frame each boundary opened or closed, and pvar, read from the
    /// log, closes the frame of the section that left.
    #[test]
    fn tools_follow_sections_closed_out_of_enter_order() {
        for engine in [mpisim::Engine::Des, mpisim::Engine::Threads] {
            let sections = SectionRuntime::new(VerifyMode::Active);
            let recorder = CommRecorder::new();
            let halves = Arc::new(parking_lot::Mutex::new([CommId::WORLD; 4]));
            let (s, seen) = (sections.clone(), halves.clone());
            WorldBuilder::new(4)
                .engine(engine)
                .tool(sections.clone())
                .tool(recorder.clone())
                .run(move |p| {
                    let world = p.world();
                    let me = p.world_rank();
                    let half = world.split(p, Some((me / 2) as i32), 0).unwrap();
                    seen.lock()[me] = half.id();
                    let exchange = |p: &mut mpisim::Proc| {
                        world.send(p, me ^ 1, 0, &[me as u64]);
                        let _ = world.recv::<u64>(p, Src::Rank(me ^ 1), TagSel::Is(0));
                    };
                    s.enter(p, &world, "OUTER");
                    exchange(p);
                    s.enter(p, &half, "SUB");
                    exchange(p);
                    s.enter(p, &world, "INNER");
                    exchange(p);
                    s.exit(p, &world, "INNER");
                    exchange(p);
                    s.exit(p, &world, "OUTER");
                    exchange(p);
                    s.exit(p, &half, "SUB");
                    exchange(p);
                })
                .expect("run failed");
            let log = recorder.freeze();
            let halves = *halves.lock();
            assert_ne!(halves[0], halves[2]);
            for (rank, recs) in log.run.ranks.iter().enumerate() {
                let kinds: Vec<(String, &str)> = recs
                    .iter()
                    .map(|rec| {
                        let kind = match rec.kind {
                            RecKind::Enter { comm } => format!("enter on {}", comm.0),
                            RecKind::Leave { comm, label } => {
                                format!("leave {} on {}", log.name(label), comm.0)
                            }
                            RecKind::Send { .. } => "send".into(),
                            RecKind::RecvMatch { .. } => "recv".into(),
                            RecKind::CollExit { .. } => "coll".into(),
                            RecKind::Compute { .. } => "compute".into(),
                            RecKind::Fini => "fini".into(),
                        };
                        (kind, log.name(rec.sec))
                    })
                    .collect();
                let mut expected = vec![("enter on 0".to_string(), MPI_MAIN)];
                // The split: its exchange and the id agreement.
                while expected.len() < kinds.len() && kinds[expected.len()].0 == "coll" {
                    expected.push(("coll".into(), MPI_MAIN));
                }
                assert!(expected.len() > 1, "rank {rank}: {kinds:?}");
                let half = halves[rank].0;
                for (boundary, sec) in [
                    ("enter on 0".to_string(), "OUTER"),
                    (format!("enter on {half}"), "SUB"),
                    ("enter on 0".into(), "INNER"),
                    ("leave INNER on 0".into(), "SUB"),
                    ("leave OUTER on 0".into(), "SUB"),
                    (format!("leave SUB on {half}"), MPI_MAIN),
                ] {
                    expected.push((boundary, sec));
                    expected.extend([("send".into(), sec), ("recv".into(), sec)]);
                }
                expected.push(("fini".into(), MPI_MAIN));
                assert_eq!(kinds, expected, "{engine:?}, rank {rank}");
            }
            let sent = PvarSnapshot::from_log(&log).per_section;
            let sent: Vec<(u64, &str, u64)> = sent
                .iter()
                .map(|(key, c)| (key.comm.0, &key.label[..], c.sent_msgs))
                .collect();
            let mut expected = vec![
                (0, "INNER", 4),
                (0, MPI_MAIN, 24),
                (0, "OUTER", 16),
                (halves[0].0, "SUB", 8),
                (halves[2].0, "SUB", 8),
            ];
            expected.sort();
            assert_eq!(sent, expected, "{engine:?}");
        }
    }

    /// The engine's events carry a receive's post and a collective's
    /// round, and the section runtime's say which section a rank is in, so
    /// a rank costs a clock, one entry time and a run index: no heap block.
    #[test]
    fn a_rank_tracker_keeps_no_receive_state_and_no_round_map() {
        use std::mem::size_of;
        let tracker = size_of::<RankTracker>();
        println!("size_of::<RankTracker>() = {tracker} B");
        let fields = size_of::<u64>() + size_of::<Option<u64>>() + size_of::<u32>();
        assert_eq!(tracker, fields.next_multiple_of(8));
        assert!(tracker <= 32, "size_of::<RankTracker>() = {tracker} B");
        let event = size_of::<MpiEvent>();
        println!("size_of::<MpiEvent>() = {event} B");
        assert!(event <= 88, "size_of::<MpiEvent>() = {event} B");
    }
}
