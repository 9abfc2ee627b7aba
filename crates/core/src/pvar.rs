//! MPI_T-style performance variables (pvars), read off the communication
//! log.
//!
//! Real MPI tools read runtime-internal counters through the MPI_T pvar
//! interface (`MPI_T_pvar_get_num`, `..._read`); the paper's whole argument
//! (§2, Eq. 6) is that per-section wall time alone cannot say *why* a
//! section caps speedup — communication volume and waiting time can.
//! [`PvarSnapshot::from_log`] derives, per rank, point-to-point message and
//! byte counters (send and receive side), collective rendezvous completed
//! and the time spent inside them, time spent blocked in receives and a
//! per-(source, destination) world-rank **communication matrix**, plus each
//! counter's delta between every section's enter and leave. As Haldar
//! (arXiv:2512.01764) derives the standard metrics from a trace, each is a
//! function of records the [`CommRecorder`] keeps, so the counters are one
//! more sink of [`CommLog::fold`]: fed one rank at a time, they keep one
//! rank's open frames. Nothing here observes the run.

use crate::fasthash::FastMap;
use crate::profiler::SectionKey;
use crate::spine::Sink;
use crate::waitstate::{CommLog, CommRecorder, Rec, RecKind};
use mpisim::diag::json_str;
use mpisim::CommId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The raw per-rank counters (a pvar "session" in MPI_T terms). All time
/// values are virtual nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Point-to-point messages sent (including the send half of sendrecv).
    pub sent_msgs: u64,
    /// Logical payload bytes sent point-to-point.
    pub sent_bytes: u64,
    /// Point-to-point messages received.
    pub recv_msgs: u64,
    /// Logical payload bytes received point-to-point.
    pub recv_bytes: u64,
    /// Collective rendezvous completed: one per barrier, bcast, reduce,
    /// ..., two per `split` (its exchange and its create) and so two per
    /// `dup`. The timeline's `coll_exits` counts the same steps.
    pub coll_calls: u64,
    /// Virtual time spent in blocking receives (post to completion).
    pub recv_wait_ns: u64,
    /// Virtual time spent inside collective rendezvous (entry to common
    /// exit: synchronization wait plus the operation's modelled cost).
    pub coll_wait_ns: u64,
}

impl Counters {
    /// Component-wise difference `self - earlier` (all counters are
    /// monotonic, so this is the activity between two snapshots).
    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            sent_msgs: self.sent_msgs - earlier.sent_msgs,
            sent_bytes: self.sent_bytes - earlier.sent_bytes,
            recv_msgs: self.recv_msgs - earlier.recv_msgs,
            recv_bytes: self.recv_bytes - earlier.recv_bytes,
            coll_calls: self.coll_calls - earlier.coll_calls,
            recv_wait_ns: self.recv_wait_ns - earlier.recv_wait_ns,
            coll_wait_ns: self.coll_wait_ns - earlier.coll_wait_ns,
        }
    }

    fn add(&mut self, other: &Counters) {
        self.sent_msgs += other.sent_msgs;
        self.sent_bytes += other.sent_bytes;
        self.recv_msgs += other.recv_msgs;
        self.recv_bytes += other.recv_bytes;
        self.coll_calls += other.coll_calls;
        self.recv_wait_ns += other.recv_wait_ns;
        self.coll_wait_ns += other.coll_wait_ns;
    }

    /// Blocked-receive seconds.
    pub fn recv_wait_secs(&self) -> f64 {
        self.recv_wait_ns as f64 / 1e9
    }

    /// Collective-rendezvous seconds.
    pub fn coll_wait_secs(&self) -> f64 {
        self.coll_wait_ns as f64 / 1e9
    }

    fn to_json(self) -> String {
        format!(
            "{{\"sent_msgs\":{},\"sent_bytes\":{},\"recv_msgs\":{},\"recv_bytes\":{},\
             \"coll_calls\":{},\"recv_wait_ns\":{},\"coll_wait_ns\":{}}}",
            self.sent_msgs,
            self.sent_bytes,
            self.recv_msgs,
            self.recv_bytes,
            self.coll_calls,
            self.recv_wait_ns,
            self.coll_wait_ns
        )
    }
}

/// Most communication-matrix cells emitted by [`PvarSnapshot::to_json`]:
/// enough for every dense matrix up to p = 64 to serialize whole, while a
/// 16k-rank halo exchange (~65k cells) keeps only its heaviest traffic
/// with an explicit dropped-cell count.
pub const MATRIX_JSON_CAP: usize = 4096;

/// One cell of the communication matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixCell {
    /// Messages sent from the row rank to the column rank.
    pub msgs: u64,
    /// Logical bytes sent from the row rank to the column rank.
    pub bytes: u64,
}

/// The [`CommLog::fold`] sink behind [`PvarSnapshot::from_log`].
#[derive(Default)]
struct Pvars {
    per_rank: Vec<Counters>,
    /// `(src, dst)` world ranks -> traffic.
    matrix: FastMap<(usize, usize), MatrixCell>,
    /// The rank the fold is at.
    rank: usize,
    /// That rank's open sections, each with its counters at enter (the
    /// attribution baseline), in enter order across communicators.
    frames: Vec<((CommId, u32), Counters)>,
    /// Per-(comm, label) totals, the label as its run index, folded in
    /// when a section closes.
    sections: FastMap<(CommId, u32), Counters>,
}

impl Sink for Pvars {
    fn record(&mut self, rank: usize, rec: &Rec, bytes: u64) {
        if rank != self.rank {
            // A log frozen mid-run leaves frames open: no delta was taken.
            self.rank = rank;
            self.frames.clear();
        }
        let c = &mut self.per_rank[rank];
        match rec.kind {
            // `Init` opens the implicit MPI_MAIN frame the same way.
            RecKind::Enter { comm } => self.frames.push(((comm, rec.sec), *c)),
            // The section's innermost frame, wherever it sits: sections
            // nest per communicator but may interleave across them.
            RecKind::Leave { comm, label } => {
                let open = self.frames.iter().rposition(|f| f.0 == (comm, label));
                if let Some(at) = open {
                    let (key, base) = self.frames.remove(at);
                    self.sections.entry(key).or_default().add(&c.since(&base));
                }
            }
            RecKind::Send { dst_world, .. } => {
                c.sent_msgs += 1;
                c.sent_bytes += bytes;
                let cell = self.matrix.entry((rank, dst_world as usize)).or_default();
                cell.msgs += 1;
                cell.bytes += bytes;
            }
            RecKind::RecvMatch { done_ns, .. } => {
                c.recv_msgs += 1;
                c.recv_bytes += bytes;
                c.recv_wait_ns += done_ns.saturating_sub(rec.t_ns);
            }
            RecKind::CollExit { enter_ns, .. } => {
                c.coll_calls += 1;
                c.coll_wait_ns += rec.t_ns.saturating_sub(enter_ns);
            }
            RecKind::Fini => {
                // Close everything still open (normally just MPI_MAIN).
                for (key, base) in self.frames.drain(..) {
                    self.sections.entry(key).or_default().add(&c.since(&base));
                }
            }
            RecKind::Compute { .. } => {}
        }
    }
}

/// The name the benchmark package attaches as a tool, until it builds its
/// probe tools from exported constructors: a [`CommRecorder`], so it holds
/// one run (a second run takes over the first one's send slots).
pub type PvarRegistry = CommRecorder;

impl CommRecorder {
    /// [`PvarSnapshot::from_log`] of what was recorded so far: the
    /// [`PvarRegistry`] name's `snapshot`.
    pub fn snapshot(&self) -> PvarSnapshot {
        PvarSnapshot::from_log(&self.freeze())
    }
}

/// Immutable post-run view of every pvar.
#[derive(Debug, Clone)]
pub struct PvarSnapshot {
    /// World size.
    pub nranks: usize,
    /// Counter totals per world rank.
    pub per_rank: Vec<Counters>,
    /// Communication matrix: `(src, dst)` world ranks -> traffic. Only
    /// pairs that exchanged at least one message are present.
    pub matrix: BTreeMap<(usize, usize), MatrixCell>,
    /// Per-(comm, label) counter deltas, attributed at section leave.
    pub per_section: BTreeMap<SectionKey, Counters>,
}

impl PvarSnapshot {
    /// Every pvar of the run `log` recorded: one fold of the log.
    pub fn from_log(log: &CommLog) -> PvarSnapshot {
        let nranks = log.nranks();
        let mut sink = Pvars {
            per_rank: vec![Counters::default(); nranks],
            ..Pvars::default()
        };
        log.fold(&mut sink);
        let per_section = sink.sections.into_iter().map(|((comm, sec), c)| {
            let label = log.name(sec).to_string();
            (SectionKey { comm, label }, c)
        });
        PvarSnapshot {
            nranks,
            per_rank: sink.per_rank,
            matrix: sink.matrix.into_iter().collect(),
            per_section: per_section.collect(),
        }
    }

    /// Counter totals over all ranks.
    pub fn totals(&self) -> Counters {
        let mut total = Counters::default();
        for c in &self.per_rank {
            total.add(c);
        }
        total
    }

    /// Render the per-section communication table plus per-run totals.
    pub fn render_metrics(&self) -> String {
        let mut out = String::from("communication metrics per section (pvar registry):\n");
        let _ = writeln!(
            out,
            "{:<32} {:>10} {:>12} {:>10} {:>12} {:>8} {:>12} {:>12}",
            "section", "sent", "sent B", "recvd", "recvd B", "colls", "recv-wait s", "coll s"
        );
        out.push_str(&"-".repeat(116));
        out.push('\n');
        for (key, c) in &self.per_section {
            let label = if key.comm == CommId::WORLD {
                key.label.clone()
            } else {
                format!("{} (comm {})", key.label, key.comm.0)
            };
            let _ = writeln!(
                out,
                "{:<32} {:>10} {:>12} {:>10} {:>12} {:>8} {:>12.4} {:>12.4}",
                crate::report::truncate_label(&label, 32),
                c.sent_msgs,
                c.sent_bytes,
                c.recv_msgs,
                c.recv_bytes,
                c.coll_calls,
                c.recv_wait_secs(),
                c.coll_wait_secs(),
            );
        }
        let t = self.totals();
        let _ = writeln!(
            out,
            "\ntotals over {} ranks: {} p2p msgs / {} B sent, {} collective calls, \
             {:.4} s blocked in receives, {:.4} s in collectives",
            self.nranks,
            t.sent_msgs,
            t.sent_bytes,
            t.coll_calls,
            t.recv_wait_secs(),
            t.coll_wait_secs(),
        );
        out
    }

    /// Render the communication matrix (bytes sent, `src` rows by `dst`
    /// columns). Worlds beyond `max_ranks` are summarized as the heaviest
    /// pairs instead of an unreadable wall of columns.
    pub fn render_matrix(&self, max_ranks: usize) -> String {
        let mut out = String::from("communication matrix (bytes, row = sender, col = receiver):\n");
        if self.nranks <= max_ranks {
            let _ = write!(out, "{:>8}", "");
            for dst in 0..self.nranks {
                let _ = write!(out, " {dst:>10}");
            }
            out.push('\n');
            for src in 0..self.nranks {
                let _ = write!(out, "{src:>8}");
                for dst in 0..self.nranks {
                    let bytes = self.matrix.get(&(src, dst)).map(|c| c.bytes).unwrap_or(0);
                    if bytes == 0 {
                        let _ = write!(out, " {:>10}", ".");
                    } else {
                        let _ = write!(out, " {bytes:>10}");
                    }
                }
                out.push('\n');
            }
        } else {
            let mut pairs: Vec<(&(usize, usize), &MatrixCell)> = self.matrix.iter().collect();
            pairs.sort_by(|a, b| b.1.bytes.cmp(&a.1.bytes).then(a.0.cmp(b.0)));
            let shown = pairs.len().min(20);
            let _ = writeln!(
                out,
                "  ({} ranks > {max_ranks}: showing the {shown} heaviest of {} active pairs)",
                self.nranks,
                pairs.len()
            );
            for ((src, dst), cell) in pairs.into_iter().take(shown) {
                let _ = writeln!(
                    out,
                    "  {src:>4} -> {dst:<4} {:>12} B in {:>8} msgs",
                    cell.bytes, cell.msgs
                );
            }
        }
        out
    }

    /// Machine-readable JSON dump (deterministic field and key order).
    /// The communication matrix is capped at [`MATRIX_JSON_CAP`] cells —
    /// beyond that only the heaviest-by-bytes cells are emitted, with
    /// `"matrix_truncated":true` and an exact `"dropped_cells"` count
    /// (dense matrices at large p would otherwise dominate the document
    /// quadratically).
    pub fn to_json(&self) -> String {
        self.to_json_capped(MATRIX_JSON_CAP)
    }

    /// [`PvarSnapshot::to_json`] with an explicit matrix cell cap.
    pub fn to_json_capped(&self, matrix_cap: usize) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"nranks\":{}", self.nranks);
        out.push_str(",\"per_rank\":[");
        for (i, c) in self.per_rank.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_json());
        }
        let cells: Vec<(&(usize, usize), &MatrixCell)> = if self.matrix.len() <= matrix_cap {
            self.matrix.iter().collect()
        } else {
            // Heaviest cells first, then back to key order for output so
            // the truncated document stays deterministic and diffable.
            let mut by_weight: Vec<(&(usize, usize), &MatrixCell)> = self.matrix.iter().collect();
            by_weight.sort_by_key(|(key, cell)| (std::cmp::Reverse(cell.bytes), **key));
            by_weight.truncate(matrix_cap);
            by_weight.sort_by_key(|(key, _)| **key);
            by_weight
        };
        let dropped_cells = self.matrix.len() - cells.len();
        out.push_str("],\"matrix\":[");
        for (i, ((src, dst), cell)) in cells.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"src\":{src},\"dst\":{dst},\"msgs\":{},\"bytes\":{}}}",
                cell.msgs, cell.bytes
            );
        }
        let _ = write!(
            out,
            "],\"matrix_cells\":{},\"matrix_truncated\":{},\"dropped_cells\":{dropped_cells}",
            self.matrix.len(),
            dropped_cells > 0
        );
        out.push_str(",\"sections\":[");
        for (i, (key, c)) in self.per_section.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"comm\":{},\"label\":{},\"counters\":{}}}",
                key.comm.0,
                json_str(&key.label),
                c.to_json()
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SectionRuntime, VerifyMode};
    use mpisim::{Src, TagSel, WorldBuilder};
    use std::sync::Arc;

    fn ring_run(nranks: usize) -> PvarSnapshot {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let recorder = CommRecorder::new();
        let s = sections.clone();
        WorldBuilder::new(nranks)
            .tool(sections.clone())
            .tool(recorder.clone())
            .run(move |p| {
                let world = p.world();
                s.scoped(p, &world, "EXCHANGE", |p| {
                    let world = p.world();
                    let next = (p.world_rank() + 1) % p.world_size();
                    let prev = (p.world_rank() + p.world_size() - 1) % p.world_size();
                    world.send(p, next, 0, &[1u64, 2, 3]);
                    let _ = world.recv::<u64>(p, Src::Rank(prev), TagSel::Is(0));
                });
                s.scoped(p, &world, "SYNC", |p| {
                    let world = p.world();
                    world.barrier(p);
                });
            })
            .unwrap();
        PvarSnapshot::from_log(&recorder.freeze())
    }

    #[test]
    fn ring_counters_and_matrix() {
        let snap = ring_run(4);
        assert_eq!(snap.nranks, 4);
        let totals = snap.totals();
        assert_eq!(totals.sent_msgs, 4);
        assert_eq!(totals.recv_msgs, 4);
        assert_eq!(totals.sent_bytes, 4 * 24);
        assert_eq!(totals.recv_bytes, 4 * 24);
        assert_eq!(totals.coll_calls, 4); // one barrier per rank
                                          // Ring matrix: each rank sent exactly one 24-byte message to next.
        assert_eq!(snap.matrix.len(), 4);
        assert_eq!(
            snap.matrix.get(&(0, 1)),
            Some(&MatrixCell { msgs: 1, bytes: 24 })
        );
        assert_eq!(
            snap.matrix.get(&(3, 0)),
            Some(&MatrixCell { msgs: 1, bytes: 24 })
        );
    }

    /// `coll_calls` counts rendezvous completed: a `split` takes two (its
    /// exchange and its create), a `dup` is a split, a barrier takes one.
    /// The timeline counts the same steps as `coll_exits`.
    #[test]
    fn coll_calls_counts_each_rendezvous_of_split_and_dup() {
        use crate::timeline::{build, Windowing};
        let sections = SectionRuntime::new(VerifyMode::Active);
        let recorder = CommRecorder::new();
        let s = sections.clone();
        WorldBuilder::new(4)
            .tool(sections)
            .tool(recorder.clone())
            .run(move |p| {
                let world = p.world();
                let color = Some((p.world_rank() % 2) as i32);
                let half = s.scoped(p, &world, "SPLIT", |p| world.split(p, color, 0));
                let dup = s.scoped(p, &world, "DUP", |p| half.unwrap().dup(p));
                s.scoped(p, &world, "BARRIER", |p| dup.barrier(p));
            })
            .unwrap();
        let log = recorder.freeze();
        let snap = PvarSnapshot::from_log(&log);
        let exits = build(&log, &Windowing::Fixed(4)).section_totals();
        for (label, per_rank) in [("SPLIT", 2), ("DUP", 2), ("BARRIER", 1)] {
            let key = SectionKey {
                comm: CommId::WORLD,
                label: label.to_string(),
            };
            let calls = snap.per_section[&key].coll_calls;
            assert_eq!(calls, 4 * per_rank, "{label}");
            assert_eq!(exits[label].coll_exits, calls, "{label}");
        }
    }

    #[test]
    fn two_runs_on_one_registry_accumulate() {
        // One registry, two runs: the second snapshot folds in the first
        // run's counters. A caller that wants one run's numbers attaches a
        // fresh registry per run.
        let pvar = PvarRegistry::new();
        let run = |pvar: &std::sync::Arc<PvarRegistry>| {
            let sections = SectionRuntime::new(VerifyMode::Active);
            WorldBuilder::new(2)
                .tool(sections)
                .tool(pvar.clone())
                .run(|p| {
                    let world = p.world();
                    if p.world_rank() == 0 {
                        world.send(p, 1, 0, &[1u64]);
                    } else {
                        let _ = world.recv::<u64>(p, Src::Rank(0), TagSel::Is(0));
                    }
                })
                .unwrap();
        };
        run(&pvar);
        let first = pvar.snapshot();
        run(&pvar);
        let polluted = pvar.snapshot();
        assert_eq!(polluted.totals().sent_msgs, 2 * first.totals().sent_msgs);
    }

    /// One registry, attached to two worlds that run at once from two
    /// threads: the second world waits for the first to end, so the
    /// snapshot is the one two runs in a row leave.
    #[test]
    fn a_registry_shared_by_two_live_worlds_counts_like_two_runs_in_a_row() {
        let run = |pvar: &Arc<PvarRegistry>| {
            let sections = SectionRuntime::new(VerifyMode::Active);
            let s = sections.clone();
            WorldBuilder::new(4)
                .tool(sections.clone())
                .tool(pvar.clone())
                .run(move |p| {
                    let world = p.world();
                    s.scoped(p, &world, "EXCHANGE", |p| {
                        let world = p.world();
                        let next = (p.world_rank() + 1) % 4;
                        world.send(p, next, 0, &[p.world_rank() as u64; 4]);
                        let _ = world.recv::<u64>(p, Src::Any, TagSel::Is(0));
                    });
                    s.scoped(p, &world, "SYNC", |p| p.world().barrier(p));
                })
                .unwrap();
        };
        let in_a_row = PvarRegistry::new();
        run(&in_a_row);
        run(&in_a_row);
        let at_once = PvarRegistry::new();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    run(&at_once);
                });
            }
        });
        let (expected, got) = (in_a_row.snapshot(), at_once.snapshot());
        assert_eq!(got.per_section, expected.per_section);
        assert_eq!(got.to_json(), expected.to_json());
        assert_eq!(got.totals().sent_msgs, 8);
    }

    #[test]
    fn sections_attribute_traffic() {
        let snap = ring_run(4);
        let exchange = snap
            .per_section
            .get(&SectionKey {
                comm: CommId::WORLD,
                label: "EXCHANGE".into(),
            })
            .unwrap();
        assert_eq!(exchange.sent_msgs, 4);
        assert_eq!(exchange.coll_calls, 0);
        let sync = snap
            .per_section
            .get(&SectionKey {
                comm: CommId::WORLD,
                label: "SYNC".into(),
            })
            .unwrap();
        assert_eq!(sync.sent_msgs, 0);
        assert_eq!(sync.coll_calls, 4);
        // MPI_MAIN sees everything (it encloses both sections).
        let main = snap
            .per_section
            .get(&SectionKey {
                comm: CommId::WORLD,
                label: crate::section::MPI_MAIN.into(),
            })
            .unwrap();
        assert_eq!(main.sent_msgs, 4);
        assert_eq!(main.coll_calls, 4);
    }

    #[test]
    fn recv_wait_measures_late_sender() {
        let recorder = CommRecorder::new();
        WorldBuilder::new(2)
            .tool(recorder.clone())
            .run(|p| {
                let world = p.world();
                if p.world_rank() == 0 {
                    // Receiver posts immediately; sender is 2 s late.
                    let _ = world.recv::<u8>(p, Src::Rank(1), TagSel::Any);
                } else {
                    p.advance_secs(2.0);
                    world.send(p, 0, 0, &[9u8]);
                }
            })
            .unwrap();
        let snap = PvarSnapshot::from_log(&recorder.freeze());
        // Rank 0 waited at least the 2 s skew.
        assert!(snap.per_rank[0].recv_wait_secs() >= 2.0);
        assert_eq!(snap.per_rank[1].recv_wait_ns, 0);
    }

    #[test]
    fn collective_wait_measures_straggler() {
        let recorder = CommRecorder::new();
        WorldBuilder::new(2)
            .tool(recorder.clone())
            .run(|p| {
                let world = p.world();
                if p.world_rank() == 1 {
                    p.advance_secs(1.0);
                }
                world.barrier(p);
            })
            .unwrap();
        let snap = PvarSnapshot::from_log(&recorder.freeze());
        // Rank 0 arrived first and waited ~1 s for rank 1.
        assert!(snap.per_rank[0].coll_wait_secs() >= 1.0);
        assert!(snap.per_rank[1].coll_wait_secs() < 0.5);
    }

    #[test]
    fn renders_and_json_are_wellformed() {
        let snap = ring_run(3);
        let metrics = snap.render_metrics();
        assert!(metrics.contains("EXCHANGE"), "{metrics}");
        assert!(metrics.contains("totals over 3 ranks"), "{metrics}");
        let matrix = snap.render_matrix(16);
        assert!(matrix.contains("communication matrix"), "{matrix}");
        let wide = snap.render_matrix(2);
        assert!(wide.contains("heaviest"), "{wide}");
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"matrix\":["), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn snapshot_is_deterministic() {
        let a = ring_run(4).to_json();
        let b = ring_run(4).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn matrix_json_caps_at_heaviest_cells() {
        let mut matrix: BTreeMap<(usize, usize), MatrixCell> = BTreeMap::new();
        for src in 0..4 {
            for dst in 0..4 {
                if src != dst {
                    matrix.insert(
                        (src, dst),
                        MatrixCell {
                            msgs: 1,
                            bytes: (src * 10 + dst) as u64,
                        },
                    );
                }
            }
        }
        let snap = PvarSnapshot {
            nranks: 4,
            per_rank: vec![Counters::default(); 4],
            matrix,
            per_section: BTreeMap::new(),
        };
        let full = snap.to_json();
        assert!(full.contains("\"matrix_truncated\":false"), "{full}");
        assert!(full.contains("\"dropped_cells\":0"), "{full}");
        assert_eq!(full.matches("\"src\":").count(), 12);

        let capped = snap.to_json_capped(3);
        assert!(capped.contains("\"matrix_truncated\":true"), "{capped}");
        assert!(capped.contains("\"dropped_cells\":9"), "{capped}");
        assert!(capped.contains("\"matrix_cells\":12"), "{capped}");
        // The three heaviest cells survive, emitted in key order.
        assert_eq!(capped.matches("\"src\":").count(), 3);
        let i30 = capped.find("\"src\":3,\"dst\":0").expect("cell (3,0)");
        let i31 = capped.find("\"src\":3,\"dst\":1").expect("cell (3,1)");
        let i32 = capped.find("\"src\":3,\"dst\":2").expect("cell (3,2)");
        assert!(i30 < i31 && i31 < i32, "{capped}");
        assert_eq!(capped.matches('{').count(), capped.matches('}').count());
        mpisim::jsoncheck::assert_json(&capped, "capped pvar json");
    }
}
