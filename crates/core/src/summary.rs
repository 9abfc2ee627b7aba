//! Bounded-memory streaming run summarization — observability that
//! survives 16k ranks.
//!
//! [`CommRecorder`](crate::CommRecorder) keeps every event of every rank:
//! perfect for what-if replay and schedule verification, but its memory
//! grows with `steps × p` and the exporters built on it grow faster. At
//! the scales where the paper's expressiveness argument matters most
//! (p ≥ 1024 on the DES engine) that is exactly backwards. Following the
//! summarized-trace direction of Haldar (arXiv:2512.01764) and Scalasca's
//! runtime summarization, [`SummaryTool`] maintains **online state whose
//! size is independent of the event count and nearly independent of p**:
//!
//! * per-section wait-time and compute-time [`QuantileSketch`]es
//!   (p50/p90/p99 within a documented relative error, exact totals),
//! * exact per-section [`WaitBreakdown`] totals — the same numbers
//!   [`classify`](crate::classify) derives offline, computed online,
//! * **rank equivalence clustering**: each rank's quantized per-section
//!   wait-class profile is FNV-fingerprinted; ranks with equal
//!   fingerprints collapse into one cluster with an exemplar world rank
//!   and a member count (≤ [`CLUSTER_BUDGET`] clusters reported),
//! * a [`SpaceSaving`] top-k sketch over `(src, dst)` comm edges with an
//!   explicit `dropped_edges` eviction count — never silent truncation,
//! * periodic virtual-time **checkpoint rows** (adaptive cadence, at most
//!   [`CHECKPOINT_ROW_BUDGET`]`× 2` rows) that reconstruct a
//!   [`Timeline`] for the PR 5 trend detector without an event log,
//! * a streaming lower bound on the critical-path length: each rank's
//!   program order is a dependency chain, so
//!   `CPL >= max_r(fini_r - idle_r)` — giving a valid (weaker)
//!   `S <= T_seq/CPL` upper bound with O(1) state per rank.
//!
//! Everything folded globally is either additive or a running maximum, so
//! the frozen summary is byte-deterministic across equal seeds *and*
//! across the DES/threads engines, exactly like the full recorder's
//! artifacts (`crates/bench/tests/engine_equivalence.rs` pins this).

use crate::fasthash::{fnv1a, FastMap};
use crate::sketch::{HeavyHitter, QuantileSketch, SpaceSaving, QUANTILE_REL_ERR};
use crate::spine::{attribute, Cell, Count, RankTracker, Sink, Span, Spine, StepKind, Tracked};
use crate::timeline::{Timeline, Window, WindowSection};
use crate::waitstate::{RecKind, WaitBreakdown};
use crate::whatif::WaitClass;
use mpisim::diag::json_str;
use mpisim::{CommId, EventMask, Label, MpiEvent, Tool, WorldCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// World size at and above which `profile` switches to summary-only
/// recording (full event log off unless a flag needs it).
pub const SUMMARY_AUTO_RANKS: usize = 1024;

/// Maximum rank-equivalence clusters reported (K).
pub const CLUSTER_BUDGET: usize = 16;

/// Global top-k comm edges retained (k).
pub const EDGE_BUDGET: usize = 64;

/// Per-rank heavy-hitter slots over destination ranks.
const EDGES_PER_RANK: usize = 8;

/// Target checkpoint row count; the cadence doubles (merging row pairs)
/// whenever the run would need more than twice this many rows.
pub const CHECKPOINT_ROW_BUDGET: usize = 64;

/// Initial checkpoint cadence: 1 ms of virtual time per row.
const CHECKPOINT_BASE_CADENCE_NS: u64 = 1_000_000;

/// Wait-class names, indexed by `WaitClass as usize` (the profile key
/// order the cluster fingerprint hashes).
const CLASS_NAMES: [&str; 3] = ["late-sender", "late-receiver", "coll-wait"];

/// Fixed-budget virtual-time rows, each indexed by section run index; a
/// section was present in a row iff its cell is non-zero. The cadence
/// starts at 1 ms and doubles (merging adjacent row pairs) whenever an
/// event lands beyond row `2 × CHECKPOINT_ROW_BUDGET`; since every cell
/// field is additive, the final rows depend only on the final cadence —
/// itself a function of the largest timestamp seen — never on event
/// interleaving.
#[derive(Debug, Clone)]
struct Checkpoints {
    cadence_ns: u64,
    rows: Vec<Vec<Cell>>,
}

impl Default for Checkpoints {
    fn default() -> Self {
        Checkpoints {
            cadence_ns: CHECKPOINT_BASE_CADENCE_NS,
            rows: Vec::new(),
        }
    }
}

/// Entry `id` of a table indexed by section run index, which grows to
/// hold it.
fn slot<T: Default>(table: &mut Vec<T>, id: u32) -> &mut T {
    let i = id as usize;
    if table.len() <= i {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
}

impl Checkpoints {
    /// Grow the cadence until time `t` maps below the hard row cap, and
    /// the table until it has `t`'s row; returns that row's index.
    fn fit(&mut self, t: u64) -> usize {
        while t / self.cadence_ns >= (2 * CHECKPOINT_ROW_BUDGET) as u64 {
            self.cadence_ns *= 2;
            let mut merged: Vec<Vec<Cell>> = Vec::with_capacity(self.rows.len().div_ceil(2));
            for pair in self.rows.chunks(2) {
                let mut row = pair[0].clone();
                for (sec, cell) in pair.get(1).into_iter().flatten().enumerate() {
                    slot(&mut row, sec as u32).add(cell);
                }
                merged.push(row);
            }
            self.rows = merged;
        }
        let idx = (t / self.cadence_ns) as usize;
        if self.rows.len() <= idx {
            self.rows.resize_with(idx + 1, Vec::new);
        }
        idx
    }

    fn cell(&mut self, t: u64, sec: u32) -> &mut Cell {
        let idx = self.fit(t);
        slot(&mut self.rows[idx], sec)
    }

    /// Split `[a, b)` across rows, like the timeline's interval splitter.
    fn span(&mut self, a: u64, b: u64, sec: u32, mut f: impl FnMut(&mut Cell, u64)) {
        if b <= a {
            return;
        }
        let last = self.fit(b - 1);
        let c = self.cadence_ns;
        let first = (a / c) as usize;
        for (row, w) in self.rows[first..=last].iter_mut().zip(first as u64..) {
            f(slot(row, sec), b.min((w + 1) * c) - a.max(w * c));
        }
    }
}

/// Per-section streaming aggregates.
#[derive(Debug, Default, Clone)]
struct SectionAgg {
    /// Individual idle-wait durations (late-sender + collective waits).
    wait_sketch: QuantileSketch,
    /// Individual `Compute` event durations.
    compute_sketch: QuantileSketch,
    /// Exact wait-class totals — bit-identical to the offline classifier.
    waits: WaitBreakdown,
}

/// Per-rank residue beside the tracker: everything that must stay
/// rank-local, all O(1) or O(sections) per rank.
struct Residue {
    /// Nonzero wait totals keyed by `sec * 4 + class` — the clustering
    /// fingerprint input.
    profile: Vec<(u32, u64)>,
    /// Heavy-hitter destinations of this rank's sends.
    edges: SpaceSaving,
    /// Total idle time (late-sender + collective waits) on this rank.
    wait_total_ns: u64,
    fini_ns: u64,
}

impl Default for Residue {
    fn default() -> Self {
        Residue {
            profile: Vec::new(),
            edges: SpaceSaving::new(EDGES_PER_RANK),
            wait_total_ns: 0,
            fini_ns: 0,
        }
    }
}

/// One collective round some member is still inside.
#[derive(Debug, Default, Clone, Copy)]
struct CollAgg {
    max_enter_ns: u64,
    size: usize,
    exited: usize,
}

/// All streaming state, in the tool's one cell. Nothing is kept per
/// message: a receive's step carries when its message departed.
#[derive(Default)]
struct Summarizer {
    spine: Spine<Residue>,
    /// Per-section aggregates, indexed by the spine's run index.
    sections: Vec<SectionAgg>,
    colls: FastMap<(CommId, u64), CollAgg>,
    checkpoints: Checkpoints,
}

impl Summarizer {
    fn section(&mut self, sec: u32) -> &mut SectionAgg {
        slot(&mut self.sections, sec)
    }
}

/// The summarizer as a sink of the attribution fold: intervals and point
/// events into the checkpoint rows, whole waits into the section totals,
/// the wait sketch and the rank's clustering profile.
impl Sink for Summarizer {
    fn span(&mut self, _rank: usize, sec: u32, span: Span, a: u64, b: u64) {
        self.checkpoints
            .span(a, b, sec, |cell, ns| cell.add_span(span, ns));
    }

    fn point(&mut self, _rank: usize, sec: u32, t: u64, count: Count) {
        self.checkpoints.cell(t, sec).count(count);
    }

    fn wait(&mut self, rank: usize, sec: u32, class: WaitClass, _start: u64, ns: u64) {
        // A late receiver is buffer occupancy, not idling: it enters the
        // exact totals and the profile but neither sketch nor idle time.
        let idle = class != WaitClass::LateReceiver && ns > 0;
        let agg = self.section(sec);
        agg.waits.add_class(class, ns);
        if idle {
            agg.wait_sketch.record(ns);
        }
        if ns > 0 {
            let st = &mut self.spine.rank_mut(rank).data;
            let key = sec * 4 + class as u32;
            match st.profile.iter_mut().find(|e| e.0 == key) {
                Some(e) => e.1 += ns,
                None => st.profile.push((key, ns)),
            }
            if idle {
                st.wait_total_ns += ns;
            }
        }
    }
}

/// The streaming summarization tool. Attach like any PMPI tool, run, then
/// [`SummaryTool::freeze`] into a [`RunSummary`].
#[derive(Default)]
pub struct SummaryTool {
    state: WorldCell<Summarizer>,
}

impl SummaryTool {
    /// A fresh summarizer behind an `Arc`, ready to attach.
    pub fn new() -> Arc<SummaryTool> {
        Arc::new(SummaryTool::default())
    }

    /// Freeze the streaming state into an immutable [`RunSummary`].
    pub fn freeze(&self) -> RunSummary {
        let st = self.state.lock();
        let nranks = st.spine.ranks().len();
        let labels = &st.spine.labels;
        let checkpoints = &st.checkpoints;

        let ranks = st.spine.ranks();
        let makespan_ns = ranks.iter().map(|r| r.data.fini_ns).max().unwrap_or(0);
        let cpl_lower_bound_ns = ranks
            .iter()
            .map(|r| r.data.fini_ns.saturating_sub(r.data.wait_total_ns))
            .max()
            .unwrap_or(0);

        // Sections, sorted by label (run indices are scheduling-order
        // dependent; names are not).
        let mut order: Vec<usize> = (0..labels.len()).collect();
        order.sort_by_key(|&i| labels[i].name());
        let sections: Vec<SectionSummary> = order
            .iter()
            .map(|&i| {
                let agg = st.sections.get(i).cloned().unwrap_or_default();
                SectionSummary {
                    label: labels[i].to_string(),
                    waits: agg.waits,
                    wait_sketch: agg.wait_sketch,
                    compute_sketch: agg.compute_sketch,
                }
            })
            .collect();

        // Rank equivalence clusters: fingerprint each rank's quantized
        // per-section wait-class profile over label *names*.
        let mut acc: BTreeMap<u64, RankCluster> = BTreeMap::new();
        for (rank, tracked) in ranks.iter().enumerate() {
            let mut cells: Vec<ProfileCell> = tracked
                .data
                .profile
                .iter()
                .map(|&(key, ns)| ProfileCell {
                    label: labels[(key / 4) as usize].to_string(),
                    class: CLASS_NAMES[(key % 4) as usize],
                    bucket: quantize_ns(ns),
                    exemplar_ns: ns,
                })
                .collect();
            cells.sort_by(|a, b| (&a.label, a.class).cmp(&(&b.label, b.class)));
            let mut canon = String::new();
            for c in &cells {
                let _ = writeln!(canon, "{}\u{1}{}\u{1}{}", c.label, c.class, c.bucket);
            }
            let fp = fnv1a(canon.as_bytes());
            let entry = acc.entry(fp).or_insert_with(|| RankCluster {
                fingerprint: fp,
                members: 0,
                exemplar: rank,
                profile: cells,
            });
            entry.members += 1;
        }
        let mut clusters: Vec<RankCluster> = acc.into_values().collect();
        clusters.sort_by_key(|c| (std::cmp::Reverse(c.members), c.exemplar));
        let dropped_clusters = clusters.len().saturating_sub(CLUSTER_BUDGET);
        let other_members: usize = clusters
            .iter()
            .skip(CLUSTER_BUDGET)
            .map(|c| c.members)
            .sum();
        clusters.truncate(CLUSTER_BUDGET);

        // Fold per-rank edge tables (rank order) into the global top-k.
        let mut global_edges = SpaceSaving::new(EDGE_BUDGET);
        for tracked in ranks {
            global_edges.absorb(&tracked.data.edges);
        }
        let dropped_edges = global_edges.evictions;
        let edges: Vec<EdgeSummary> = global_edges
            .top()
            .into_iter()
            .map(|e: HeavyHitter| EdgeSummary {
                src: (e.key >> 32) as usize,
                dst: (e.key & 0xffff_ffff) as usize,
                msgs: e.count,
                bytes: e.weight,
                err_bytes: e.err,
            })
            .collect();

        // Budget-based state accounting: constant in the step count by
        // construction, and dominated by fixed sketch/checkpoint budgets
        // rather than p (the per-rank residue is tens of bytes).
        let nsec = labels.len().max(1);
        let state_bytes = std::mem::size_of::<SummaryTool>()
            + nsec * std::mem::size_of::<SectionAgg>()
            + 2 * CHECKPOINT_ROW_BUDGET
                * nsec
                * (std::mem::size_of::<Cell>() + std::mem::size_of::<u32>())
            + clusters
                .iter()
                .map(|c| 64 + c.profile.len() * std::mem::size_of::<(u32, u64, u64)>())
                .sum::<usize>()
            + EDGE_BUDGET * std::mem::size_of::<HeavyHitter>()
            + ranks
                .iter()
                .map(|Tracked { data, .. }| {
                    std::mem::size_of::<RankTracker>()
                        + std::mem::size_of::<Residue>()
                        + data.profile.len() * std::mem::size_of::<(u32, u64)>()
                        + data.edges.state_bytes()
                })
                .sum::<usize>();

        let checkpoint_cadence_ns = checkpoints.cadence_ns;
        let timeline = build_timeline(checkpoints, labels, nranks, makespan_ns);

        RunSummary {
            nranks,
            makespan_ns,
            cpl_lower_bound_ns,
            state_bytes,
            sections,
            clusters,
            dropped_clusters,
            other_members,
            edges,
            dropped_edges,
            checkpoint_cadence_ns,
            timeline,
        }
    }
}

/// Coarse log-quantization for the cluster fingerprint: 4 buckets per
/// decade, so ranks whose waits differ by less than ~78% land together.
fn quantize_ns(ns: u64) -> u32 {
    if ns == 0 {
        0
    } else {
        1 + (4.0 * (ns as f64).log10()).floor().max(0.0) as u32
    }
}

/// Reconstruct a [`Timeline`] from the checkpoint rows. Additive fields
/// (presence, waits, transfer, counters) recompose the exact run totals;
/// per-rank maxima are not tracked by the bounded summary, so
/// `max_time_ns`/`max_useful_ns` are 0 and the load-balance factor reads
/// neutral — the comm/serialization/transfer efficiencies the trend
/// detector consumes are all present.
fn build_timeline(ck: &Checkpoints, labels: &[Label], nranks: usize, makespan_ns: u64) -> Timeline {
    let c = ck.cadence_ns;
    let nwin = ck.rows.len().max(1);
    let mut edges_ns: Vec<u64> = (0..nwin as u64).map(|i| i * c).collect();
    edges_ns.push(makespan_ns.max((nwin as u64 - 1) * c + 1));
    let mut windows: Vec<Window> = Vec::with_capacity(nwin);
    for w in 0..nwin {
        let start_ns = edges_ns[w];
        let end_ns = edges_ns[w + 1];
        let mut sections: BTreeMap<String, WindowSection> = BTreeMap::new();
        let row = ck.rows.get(w).into_iter().flatten().enumerate();
        for (sec, cell) in row.filter(|(_, cell)| !cell.is_zero()) {
            let label = labels[sec].to_string();
            // Per-rank maxima are not tracked: the cell is already the
            // sum over ranks.
            let mut ws = WindowSection::default();
            ws.absorb(cell);
            ws.capacity_ns = (end_ns - start_ns) * nranks as u64;
            ws.max_time_ns = 0;
            ws.max_useful_ns = 0;
            ws.ranks = nranks;
            sections.insert(label, ws);
        }
        windows.push(Window {
            start_ns,
            end_ns,
            sections,
            wait_hist: Default::default(),
        });
    }
    Timeline {
        edges_ns,
        nranks,
        windows,
    }
}

impl Tool for SummaryTool {
    fn interests(&self) -> EventMask {
        RankTracker::INTERESTS
    }

    fn on_event(&self, world_rank: usize, event: &MpiEvent) {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let Some((step, _)) = st.spine.step(world_rank, event) else {
            return;
        };
        let (sec, t_ns) = (step.sec, step.t_ns);
        st.span(
            world_rank,
            step.prev_sec,
            Span::Presence,
            step.from_ns,
            t_ns,
        );
        let (kind, bytes, sent_ns) = match step.kind {
            StepKind::CollEnter {
                comm, round, size, ..
            } => {
                let agg = st.colls.entry((comm, round)).or_default();
                agg.max_enter_ns = agg.max_enter_ns.max(t_ns);
                agg.size = size;
                return;
            }
            StepKind::Rec {
                kind,
                bytes,
                sent_ns,
                ..
            } => (kind, bytes, sent_ns),
            StepKind::Enter { .. } | StepKind::Leave { .. } => return,
        };
        let peer_ns = match kind {
            RecKind::Send { dst_world, .. } => {
                let key = ((world_rank as u64) << 32) | u64::from(dst_world);
                let edges = &mut st.spine.rank_mut(world_rank).data.edges;
                edges.record(key, bytes, 1);
                0
            }
            RecKind::RecvMatch { .. } => sent_ns,
            RecKind::CollExit { comm, round, .. } => {
                // Every member raises its enter before it arrives and
                // nobody leaves before all have arrived, so the round's
                // last arrival is already known at its first exit.
                let agg = st.colls.entry((comm, round)).or_default();
                agg.exited += 1;
                let CollAgg {
                    max_enter_ns,
                    size,
                    exited,
                } = *agg;
                if exited == size {
                    st.colls.remove(&(comm, round));
                }
                max_enter_ns
            }
            RecKind::Compute { elapsed_ns, .. } => {
                st.section(sec).compute_sketch.record(elapsed_ns);
                return;
            }
            RecKind::Fini => {
                st.spine.rank_mut(world_rank).data.fini_ns = t_ns;
                return;
            }
            RecKind::Boundary => return,
        };
        attribute(world_rank, sec, t_ns, &kind, bytes, peer_ns, st);
    }
}

/// One section's frozen streaming aggregates.
#[derive(Debug, Clone)]
pub struct SectionSummary {
    /// Section label.
    pub label: String,
    /// Exact wait-class totals (matches the offline classifier).
    pub waits: WaitBreakdown,
    /// Sketch over individual idle waits (late-sender + collective).
    pub wait_sketch: QuantileSketch,
    /// Sketch over individual `Compute` durations.
    pub compute_sketch: QuantileSketch,
}

/// One quantized cell of a cluster's wait profile.
#[derive(Debug, Clone)]
pub struct ProfileCell {
    /// Section label.
    pub label: String,
    /// Wait-class name.
    pub class: &'static str,
    /// Coarse log bucket (4 per decade) the fingerprint hashed.
    pub bucket: u32,
    /// The exemplar rank's exact wait in this cell, ns.
    pub exemplar_ns: u64,
}

/// A set of ranks with byte-equal quantized wait profiles.
#[derive(Debug, Clone)]
pub struct RankCluster {
    /// FNV-1a fingerprint of the canonical quantized profile.
    pub fingerprint: u64,
    /// Ranks sharing the fingerprint.
    pub members: usize,
    /// Smallest member world rank.
    pub exemplar: usize,
    /// The exemplar's profile cells, sorted by (label, class).
    pub profile: Vec<ProfileCell>,
}

/// One surviving heavy-hitter comm edge.
#[derive(Debug, Clone, Copy)]
pub struct EdgeSummary {
    /// Source world rank.
    pub src: usize,
    /// Destination world rank.
    pub dst: usize,
    /// Messages (approximate if this edge was ever evicted).
    pub msgs: u64,
    /// Bytes (overestimated by at most `err_bytes`).
    pub bytes: u64,
    /// Weight inherited from evicted edges.
    pub err_bytes: u64,
}

/// The frozen bounded-memory summary of one run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// World size.
    pub nranks: usize,
    /// Virtual end of the run, ns.
    pub makespan_ns: u64,
    /// Streaming lower bound on the critical-path length, ns.
    pub cpl_lower_bound_ns: u64,
    /// Summarizer state, bytes: fixed sketch/checkpoint/edge budgets plus
    /// the O(1)-per-rank residues — independent of the event count.
    pub state_bytes: usize,
    /// Per-section aggregates, sorted by label.
    pub sections: Vec<SectionSummary>,
    /// Rank equivalence clusters, largest first, at most
    /// [`CLUSTER_BUDGET`].
    pub clusters: Vec<RankCluster>,
    /// Clusters folded away beyond the budget.
    pub dropped_clusters: usize,
    /// Members of the folded clusters.
    pub other_members: usize,
    /// Top-k comm edges, heaviest first.
    pub edges: Vec<EdgeSummary>,
    /// Edge-eviction count across all sketches — 0 means `edges` is the
    /// exact comm matrix.
    pub dropped_edges: u64,
    /// Final checkpoint cadence, ns per row.
    pub checkpoint_cadence_ns: u64,
    /// Timeline reconstructed from the checkpoint rows (additive fields
    /// recompose exact run totals; per-rank maxima are absent).
    pub timeline: Timeline,
}

impl RunSummary {
    /// The checkpoint-derived timeline (feeds `speedup::trend::detect`).
    pub fn to_timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Exact idle total (late-sender + collective waits) across ranks.
    pub fn total_wait_ns(&self) -> u64 {
        self.sections
            .iter()
            .map(|s| s.waits.late_sender_ns + s.waits.coll_wait_ns)
            .sum()
    }

    /// Text report: quantile table, cluster heatmap, top edges, bounds.
    /// `seq_total_secs` is the Eq. 6 sequential-proxy total (the summed
    /// per-section exclusive time over ranks divided by p is the
    /// per-section denominator, exactly as in `render_bounds`).
    pub fn render(&self, seq_total_secs: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bounded-memory run summary: p={}, makespan {:.3} s, summarizer state {:.1} KiB",
            self.nranks,
            self.makespan_ns as f64 / 1e9,
            self.state_bytes as f64 / 1024.0
        );
        let _ = writeln!(
            out,
            "\nper-section streaming quantiles (rel err <= {:.1}%):",
            QUANTILE_REL_ERR * 100.0
        );
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10}",
            "section",
            "waits",
            "wait p50",
            "wait p90",
            "wait p99",
            "wait sum s",
            "computes",
            "comp p50"
        );
        out.push_str(&"-".repeat(96));
        out.push('\n');
        for s in &self.sections {
            let w = &s.wait_sketch;
            let c = &s.compute_sketch;
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10.4} {:>8} {:>10}",
                crate::report::truncate_label(&s.label, 24),
                w.total,
                fmt_ns(w.quantile(0.5)),
                fmt_ns(w.quantile(0.9)),
                fmt_ns(w.quantile(0.99)),
                w.sum_ns as f64 / 1e9,
                c.total,
                fmt_ns(c.quantile(0.5)),
            );
        }

        let _ = writeln!(
            out,
            "\nrank equivalence clusters ({} of <= {}; {} ranks in {} dropped clusters):",
            self.clusters.len(),
            CLUSTER_BUDGET,
            self.other_members,
            self.dropped_clusters
        );
        let cols: Vec<&str> = self.sections.iter().map(|s| s.label.as_str()).collect();
        let max_cell = self
            .clusters
            .iter()
            .flat_map(|c| c.profile.iter().map(|p| p.exemplar_ns))
            .max()
            .unwrap_or(0);
        let mut header = format!("{:<10} {:>7} {:>9}  ", "cluster", "members", "exemplar");
        for col in &cols {
            let _ = write!(header, "{:>9}", crate::report::truncate_label(col, 9));
        }
        out.push_str(&header);
        out.push('\n');
        for (i, cl) in self.clusters.iter().enumerate() {
            let _ = write!(out, "{:<10} {:>7} {:>9}  ", i, cl.members, cl.exemplar);
            for col in &cols {
                let wait: u64 = cl
                    .profile
                    .iter()
                    .filter(|p| p.label == *col)
                    .map(|p| p.exemplar_ns)
                    .sum();
                let class = cl
                    .profile
                    .iter()
                    .filter(|p| p.label == *col && p.exemplar_ns > 0)
                    .max_by_key(|p| p.exemplar_ns)
                    .map(|p| &p.class[..1])
                    .unwrap_or("-");
                let _ = write!(out, "{:>8}{}", heat_glyph(wait, max_cell), class);
            }
            out.push('\n');
        }
        out.push_str("  (heat: per-section exemplar wait, log scale; letter: dominant class — l=late-sender/receiver, c=coll-wait)\n");

        let _ = writeln!(
            out,
            "\ntop comm edges by bytes (showing {} of {} kept; {} evictions — {}):",
            self.edges.len().min(10),
            self.edges.len(),
            self.dropped_edges,
            if self.dropped_edges == 0 {
                "exact matrix"
            } else {
                "lighter tail dropped"
            }
        );
        for e in self.edges.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:>6} -> {:<6} {:>12} B in {:>8} msgs{}",
                e.src,
                e.dst,
                e.bytes,
                e.msgs,
                if e.err_bytes > 0 {
                    format!("  (+<= {} B inherited)", e.err_bytes)
                } else {
                    String::new()
                }
            );
        }

        // Eq. 6 speedup bounds from checkpoint presence (rank-summed
        // exclusive section time), plus the streaming CPL bound.
        if seq_total_secs > 0.0 && self.nranks > 0 {
            let totals = self.timeline.section_totals();
            let rows = crate::rank_bounds(
                totals
                    .iter()
                    .filter(|(l, _)| l.as_str() != crate::section::MPI_MAIN)
                    .filter(|(_, ws)| ws.time_ns as f64 / self.nranks as f64 >= 1.0)
                    .map(|(l, ws)| {
                        let presence = ws.time_ns as f64 / 1e9;
                        (
                            l,
                            crate::partial_bound(seq_total_secs, presence, self.nranks),
                        )
                    }),
            );
            let _ = writeln!(out, "\nEq. 6 speedup bounds from summarized presence:");
            for (label, bound) in rows.iter().take(6) {
                let _ = writeln!(
                    out,
                    "  S <= {:>10.2}  limited by {}",
                    bound,
                    crate::report::truncate_label(label, 32)
                );
            }
            for (label, ws) in totals.iter() {
                if label.as_str() != crate::section::MPI_MAIN
                    && (ws.time_ns as f64 / self.nranks as f64) < 1.0
                {
                    let _ = writeln!(
                        out,
                        "  S <= (negligible presence: unbounded)  {}",
                        crate::report::truncate_label(label, 32)
                    );
                }
            }
            let cpl = (self.cpl_lower_bound_ns as f64 / 1e9).max(1e-12);
            let _ = writeln!(
                out,
                "critical path (streaming lower bound): CPL >= {:.4} s, so S <= T_seq/CPL <= {:.2}",
                self.cpl_lower_bound_ns as f64 / 1e9,
                seq_total_secs / cpl
            );
        }
        out
    }

    /// Deterministic JSON `summary` block (validates under
    /// `mpisim::jsoncheck`; byte-identical across engines and seeds).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"mpisim-summary-v1\"");
        let _ = write!(
            out,
            ",\"nranks\":{},\"makespan_ns\":{},\"cpl_lower_bound_ns\":{},\"state_bytes\":{}",
            self.nranks, self.makespan_ns, self.cpl_lower_bound_ns, self.state_bytes
        );
        let _ = write!(out, ",\"quantile_rel_err\":{QUANTILE_REL_ERR}");
        out.push_str(",\"sections\":[");
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":{},\"waits\":{{\"late_sender_ns\":{},\"late_receiver_ns\":{},\"coll_wait_ns\":{}}},\"wait\":{},\"compute\":{}}}",
                json_str(&s.label),
                s.waits.late_sender_ns,
                s.waits.late_receiver_ns,
                s.waits.coll_wait_ns,
                sketch_json(&s.wait_sketch),
                sketch_json(&s.compute_sketch)
            );
        }
        let _ = write!(
            out,
            "],\"clusters\":{{\"budget\":{},\"dropped_clusters\":{},\"other_members\":{},\"groups\":[",
            CLUSTER_BUDGET, self.dropped_clusters, self.other_members
        );
        for (i, c) in self.clusters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"fingerprint\":\"{:016x}\",\"members\":{},\"exemplar_rank\":{},\"profile\":[",
                c.fingerprint, c.members, c.exemplar
            );
            for (j, p) in c.profile.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"label\":{},\"class\":\"{}\",\"bucket\":{},\"exemplar_ns\":{}}}",
                    json_str(&p.label),
                    p.class,
                    p.bucket,
                    p.exemplar_ns
                );
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "]}},\"edges\":{{\"budget\":{},\"dropped_edges\":{},\"top\":[",
            EDGE_BUDGET, self.dropped_edges
        );
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"src\":{},\"dst\":{},\"msgs\":{},\"bytes\":{},\"err_bytes\":{}}}",
                e.src, e.dst, e.msgs, e.bytes, e.err_bytes
            );
        }
        let _ = write!(
            out,
            "]}},\"checkpoints\":{{\"cadence_ns\":{},\"rows\":[",
            self.checkpoint_cadence_ns
        );
        for (i, w) in self.timeline.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"start_ns\":{},\"end_ns\":{},\"sections\":[",
                w.start_ns, w.end_ns
            );
            for (j, (label, ws)) in w.sections.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"label\":{},\"time_ns\":{},\"late_sender_ns\":{},\"coll_wait_ns\":{},\"transfer_ns\":{},\"sent_msgs\":{},\"sent_bytes\":{},\"recv_msgs\":{},\"recv_bytes\":{},\"coll_exits\":{}}}",
                    json_str(label),
                    ws.time_ns,
                    ws.late_sender_ns,
                    ws.coll_wait_ns,
                    ws.transfer_ns,
                    ws.sent_msgs,
                    ws.sent_bytes,
                    ws.recv_msgs,
                    ws.recv_bytes,
                    ws.coll_exits
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}}");
        out
    }
}

fn sketch_json(s: &QuantileSketch) -> String {
    let min = if s.total == 0 { 0 } else { s.min_ns };
    format!(
        "{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
        s.total,
        s.sum_ns,
        min,
        s.max_ns,
        s.quantile(0.5),
        s.quantile(0.9),
        s.quantile(0.99)
    )
}

/// Intensity glyph on a log scale relative to the largest cell.
fn heat_glyph(ns: u64, max_ns: u64) -> char {
    const GLYPHS: [char; 9] = [
        ' ', '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if ns == 0 || max_ns == 0 {
        return GLYPHS[0];
    }
    let frac = ((ns as f64).ln() / (max_ns as f64).ln()).clamp(0.0, 1.0);
    GLYPHS[1 + (frac * 7.0).round() as usize]
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SectionRuntime, VerifyMode};
    use mpisim::{Src, TagSel, WorldBuilder};

    fn straggler_summary() -> RunSummary {
        // Two behavior groups: ranks 0-3 advance 1 s then barrier (they
        // wait ~2 s); ranks 4-7 advance 3 s (no wait).
        let summary = SummaryTool::new();
        WorldBuilder::new(8)
            .tool(summary.clone())
            .run(|p| {
                let world = p.world();
                if p.world_rank() < 4 {
                    p.advance_secs(1.0);
                } else {
                    p.advance_secs(3.0);
                }
                world.barrier(p);
            })
            .unwrap();
        summary.freeze()
    }

    #[test]
    fn clusters_separate_behavior_groups() {
        let s = straggler_summary();
        assert_eq!(s.clusters.len(), 2, "{:?}", s.clusters);
        assert_eq!(s.dropped_clusters, 0);
        assert_eq!(s.clusters[0].members + s.clusters[1].members, 8);
        // Largest-first ordering with exemplar = smallest member.
        assert_eq!(s.clusters[0].members, 4);
        let exemplars: Vec<usize> = s.clusters.iter().map(|c| c.exemplar).collect();
        assert!(
            exemplars.contains(&0) && exemplars.contains(&4),
            "{exemplars:?}"
        );
    }

    #[test]
    fn coll_wait_totals_and_cpl_bound() {
        let s = straggler_summary();
        let main = s
            .sections
            .iter()
            .find(|x| x.label == crate::section::MPI_MAIN)
            .unwrap();
        // 4 early ranks waited ~2 s each.
        let cw = main.waits.coll_wait_ns as f64 / 1e9;
        assert!((7.8..8.6).contains(&cw), "coll wait {cw}");
        assert_eq!(main.waits.late_sender_ns, 0);
        // The straggler never waited: CPL >= its full ~3 s runtime.
        let cpl = s.cpl_lower_bound_ns as f64 / 1e9;
        assert!(cpl >= 2.9, "cpl lower bound {cpl}");
        assert!(s.cpl_lower_bound_ns <= s.makespan_ns);
    }

    #[test]
    fn late_sender_matches_classifier() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let summary = SummaryTool::new();
        let rec = crate::CommRecorder::new();
        let s = sections.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .tool(summary.clone())
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
        let sum = summary.freeze();
        let exact = crate::classify(&rec.freeze());
        let pipe = sum.sections.iter().find(|x| x.label == "PIPE").unwrap();
        assert_eq!(pipe.waits, *exact.per_section.get("PIPE").unwrap());
        // The one wait shows up in the sketch with exact sum.
        assert_eq!(pipe.wait_sketch.total, 1);
        assert_eq!(pipe.wait_sketch.sum_ns as u64, pipe.waits.late_sender_ns);
    }

    #[test]
    fn edges_exact_when_under_budget() {
        let summary = SummaryTool::new();
        WorldBuilder::new(3)
            .tool(summary.clone())
            .run(|p| {
                let world = p.world();
                let me = p.world_rank();
                if me == 0 {
                    world.send(p, 1, 0, &[0u8; 64]);
                    world.send(p, 2, 0, &[0u8; 16]);
                    world.send(p, 1, 0, &[0u8; 64]);
                } else {
                    let _ = world.recv::<u8>(p, Src::Rank(0), TagSel::Any);
                    if me == 1 {
                        let _ = world.recv::<u8>(p, Src::Rank(0), TagSel::Any);
                    }
                }
                world.barrier(p);
            })
            .unwrap();
        let s = summary.freeze();
        assert_eq!(s.dropped_edges, 0);
        assert_eq!(s.edges.len(), 2);
        assert_eq!((s.edges[0].src, s.edges[0].dst), (0, 1));
        assert_eq!(s.edges[0].bytes, 128);
        assert_eq!(s.edges[0].msgs, 2);
        assert_eq!((s.edges[1].src, s.edges[1].dst), (0, 2));
    }

    #[test]
    fn render_and_json_are_wellformed() {
        let s = straggler_summary();
        let text = s.render(4.0);
        assert!(text.contains("bounded-memory run summary"), "{text}");
        assert!(text.contains("rank equivalence clusters"), "{text}");
        assert!(text.contains("CPL >="), "{text}");
        let json = s.to_json();
        assert!(json.contains("\"schema\":\"mpisim-summary-v1\""));
        assert!(json.contains("\"dropped_edges\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        mpisim::jsoncheck::assert_json(&json, "summary json");
    }

    #[test]
    fn checkpoint_cadence_doubles_not_rows() {
        let mut ck = Checkpoints::default();
        // Spans far beyond the base window force cadence doubling.
        ck.span(0, 40_000_000_000, 0, |cell, ns| cell.time_ns += ns);
        assert!(ck.rows.len() <= 2 * CHECKPOINT_ROW_BUDGET);
        assert!(ck.cadence_ns > CHECKPOINT_BASE_CADENCE_NS);
        let total: u64 = ck.rows.iter().flatten().map(|c| c.time_ns).sum();
        assert_eq!(total, 40_000_000_000);
    }
}
