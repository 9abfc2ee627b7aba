//! Time-resolved windowing of a recorded run.
//!
//! Whole-run aggregates (the pvar counters, the wait-state report) cannot
//! show the paper's central finding — Fig. 5b's HALO time grows with p
//! because jitter *accumulates* over the time-step loop. Following
//! trace-based time-resolved analysis (Haldar, arXiv:2512.01764) and the
//! idle-wave mechanics of Afzal et al. (arXiv:2302.12164), this module
//! segments a run's virtual time into windows and re-derives, per window
//! and per section,
//!
//! * **presence**: rank-summed time the section was open,
//! * **wait classes**: late-sender and wait-at-collective idling (same
//!   taxonomy as [`crate::waitstate::classify`], re-cut along windows),
//! * **transfer**: post-send wire + rendezvous-operation time,
//! * **useful** time (presence minus waits and transfer),
//! * message/byte counters (pvar-style deltas: each point event lands in
//!   exactly one window, so window sums recompose the run totals),
//! * a log-bucket wait-duration histogram per window (a
//!   [`QuantileSketch`] — one binning scheme for the whole repo).
//!
//! The interval arithmetic is the event spine's; this module is its
//! fixed-edge window sink ([`CommLog::fold`] drives it), depositing one
//! rank at a time into a dense `[window][section]` array of cells.
//! Everything is extracted from the frozen [`CommLog`] after the run: the
//! engine adds zero overhead while virtual time advances, and identical
//! seeds yield byte-identical timelines. The POP-style efficiency
//! hierarchy over these numbers lives in [`crate::efficiency`]; trend
//! detection over the resulting metric series lives in `speedup::trend`.

use crate::sketch::QuantileSketch;
use crate::spine::{Cell, Count, Sink, Span};
use crate::waitstate::CommLog;
use crate::whatif::WaitClass;
use mpisim::diag::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How to cut the run into windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Windowing {
    /// `n` equal-width windows over `[0, makespan]`.
    Fixed(usize),
    /// Phase-aligned: one window per iteration of the named outermost
    /// section, edges at each entry of that section observed on rank 0
    /// (plus the run's start and end). Falls back to a single window when
    /// the label never occurs.
    Aligned(String),
}

/// Per-(window, section) accumulation over all ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSection {
    /// The window's total rank-time, `nranks × window width`, ns — the
    /// capacity every efficiency in [`crate::efficiency`] is normalized
    /// by, so a section's losses are measured against what the machine
    /// could have done in the window, not against the section's own
    /// (wait-inflated) presence.
    pub capacity_ns: u64,
    /// Rank-summed presence of the section inside the window, ns.
    pub time_ns: u64,
    /// Rank-summed useful time: presence minus waits and transfer.
    pub useful_ns: u64,
    /// Rank-summed late-sender idling (receive posted before the send).
    pub late_sender_ns: u64,
    /// Rank-summed early-arrival idling at collective rendezvous.
    pub coll_wait_ns: u64,
    /// Rank-summed transfer time: post-send wire time of receives plus
    /// the modelled cost of collective operations after the last arrival.
    pub transfer_ns: u64,
    /// Largest single-rank presence in the window (the window's wall
    /// extent through this section).
    pub max_time_ns: u64,
    /// Largest single-rank useful time.
    pub max_useful_ns: u64,
    /// Ranks with non-zero presence.
    pub ranks: usize,
    /// Point-to-point messages sent from inside the (window, section).
    pub sent_msgs: u64,
    /// Logical bytes of those sends.
    pub sent_bytes: u64,
    /// Point-to-point messages whose receive completed here.
    pub recv_msgs: u64,
    /// Logical bytes of those receives.
    pub recv_bytes: u64,
    /// Collective rendezvous completed here.
    pub coll_exits: u64,
}

impl WindowSection {
    /// Fold one rank's cell in.
    pub(crate) fn absorb(&mut self, cell: &Cell) {
        self.time_ns += cell.time_ns;
        self.useful_ns += cell.useful_ns();
        self.late_sender_ns += cell.late_sender_ns;
        self.coll_wait_ns += cell.coll_wait_ns;
        self.transfer_ns += cell.transfer_ns;
        self.max_time_ns = self.max_time_ns.max(cell.time_ns);
        self.max_useful_ns = self.max_useful_ns.max(cell.useful_ns());
        if cell.time_ns > 0 {
            self.ranks += 1;
        }
        self.sent_msgs += cell.sent_msgs;
        self.sent_bytes += cell.sent_bytes;
        self.recv_msgs += cell.recv_msgs;
        self.recv_bytes += cell.recv_bytes;
        self.coll_exits += cell.coll_exits;
    }

    fn add_counters(&mut self, other: &WindowSection) {
        self.capacity_ns += other.capacity_ns;
        self.time_ns += other.time_ns;
        self.useful_ns += other.useful_ns;
        self.late_sender_ns += other.late_sender_ns;
        self.coll_wait_ns += other.coll_wait_ns;
        self.transfer_ns += other.transfer_ns;
        self.max_time_ns = self.max_time_ns.max(other.max_time_ns);
        self.max_useful_ns = self.max_useful_ns.max(other.max_useful_ns);
        self.ranks = self.ranks.max(other.ranks);
        self.sent_msgs += other.sent_msgs;
        self.sent_bytes += other.sent_bytes;
        self.recv_msgs += other.recv_msgs;
        self.recv_bytes += other.recv_bytes;
        self.coll_exits += other.coll_exits;
    }

    /// The POP-style efficiency hierarchy of this cell.
    pub fn efficiency(&self) -> crate::efficiency::Efficiencies {
        crate::efficiency::Efficiencies::of(self)
    }

    fn to_json(self) -> String {
        let e = self.efficiency();
        format!(
            "{{\"capacity_ns\":{},\"time_ns\":{},\"useful_ns\":{},\"late_sender_ns\":{},\"coll_wait_ns\":{},\
             \"transfer_ns\":{},\"max_time_ns\":{},\"max_useful_ns\":{},\"ranks\":{},\
             \"sent_msgs\":{},\"sent_bytes\":{},\"recv_msgs\":{},\"recv_bytes\":{},\
             \"coll_exits\":{},\"efficiency\":{}}}",
            self.capacity_ns,
            self.time_ns,
            self.useful_ns,
            self.late_sender_ns,
            self.coll_wait_ns,
            self.transfer_ns,
            self.max_time_ns,
            self.max_useful_ns,
            self.ranks,
            self.sent_msgs,
            self.sent_bytes,
            self.recv_msgs,
            self.recv_bytes,
            self.coll_exits,
            e.to_json()
        )
    }
}

/// One virtual-time window.
#[derive(Debug, Clone)]
pub struct Window {
    /// Inclusive start, ns.
    pub start_ns: u64,
    /// Exclusive end (the last window closes at the makespan), ns.
    pub end_ns: u64,
    /// Per-section stats, keyed by label.
    pub sections: BTreeMap<String, WindowSection>,
    /// Distribution of the individual wait durations (late-sender and
    /// collective waits) that *started* in this window, exported as
    /// [`QuantileSketch::half_decade_counts`].
    pub wait_hist: QuantileSketch,
}

impl Window {
    /// Window width in seconds.
    pub fn width_secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The windowed view of one run.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// `windows.len() + 1` window edges, ascending, ns.
    pub edges_ns: Vec<u64>,
    /// World size of the recorded run.
    pub nranks: usize,
    /// The windows, in time order.
    pub windows: Vec<Window>,
}

/// Compute the window edges for a log under a windowing policy.
pub fn window_edges(log: &CommLog, windowing: &Windowing) -> Vec<u64> {
    let makespan = log.makespan_ns();
    match windowing {
        Windowing::Fixed(n) => {
            let n = (*n).max(1) as u64;
            let mut edges: Vec<u64> = (0..=n).map(|i| makespan * i / n).collect();
            edges.dedup(); // zero-length runs collapse to [0, 0]
            if edges.len() < 2 {
                edges = vec![0, makespan];
            }
            edges
        }
        Windowing::Aligned(label) => {
            let mut edges = vec![0u64];
            // Entries of `label` on rank 0: the active section is the
            // previous record's `sec`, so a transition *into* the label is
            // an iteration boundary.
            if let Some(id) = log.section(label) {
                if let Some(rr) = log.run.ranks.first() {
                    let mut current = u32::MAX;
                    for rec in rr.iter() {
                        if rec.sec == id && current != id {
                            edges.push(rec.t_ns);
                        }
                        current = rec.sec;
                    }
                }
            }
            edges.push(makespan);
            edges.sort_unstable();
            edges.dedup();
            if edges.len() < 2 {
                edges = vec![0, makespan];
            }
            edges
        }
    }
}

/// The window containing time `t` (the final edge belongs to the last
/// window, so the makespan instant is never dropped).
fn window_of(edges: &[u64], t: u64) -> usize {
    let w = edges.partition_point(|&e| e <= t);
    w.saturating_sub(1).min(edges.len().saturating_sub(2))
}

/// Split `[a, b)` across the windows, invoking `f(window, overlap_ns)`
/// for every non-empty overlap.
fn split_interval(edges: &[u64], a: u64, b: u64, mut f: impl FnMut(usize, u64)) {
    if b <= a {
        return;
    }
    let mut w = window_of(edges, a);
    let last = edges.len() - 2;
    let mut lo = a;
    while lo < b {
        let hi = if w == last { b } else { b.min(edges[w + 1]) };
        if hi > lo {
            f(w, hi - lo);
        }
        if w == last {
            break;
        }
        lo = hi.max(edges[w + 1]);
        w += 1;
    }
}

/// The fixed-edge window sink of [`CommLog::fold`]. The fold hands it one
/// rank's records after another, so it keeps one [`Cell`] per (window,
/// section) for the rank at hand, laid out `[window][section]` so a
/// deposit is an index, and folds them into the window's stats when the
/// next rank starts; plus the waits that *started* in each window. A
/// rank's records arrive in time order, so most spans and points fall in
/// the window the last span ended in: a cursor keeps that window and only
/// what lies outside it is searched for.
struct Windows<'a> {
    edges: &'a [u64],
    nsec: usize,
    /// The rank whose deposits `cells` holds.
    rank: usize,
    cells: Vec<Cell>,
    /// Every earlier rank's cells, absorbed, `[window][section]`.
    stats: Vec<WindowSection>,
    hists: Vec<QuantileSketch>,
    /// The window the last span ended in, and the times it holds,
    /// `[lo, hi)` (the last window's `hi` is `u64::MAX`).
    cursor: (usize, u64, u64),
}

impl<'a> Windows<'a> {
    fn new(edges: &'a [u64], nsec: usize) -> Windows<'a> {
        let nwin = edges.len() - 1;
        let mut sink = Windows {
            edges,
            nsec,
            rank: 0,
            cells: vec![Cell::default(); nwin * nsec],
            stats: vec![WindowSection::default(); nwin * nsec],
            hists: vec![QuantileSketch::default(); nwin],
            cursor: (0, 0, 0),
        };
        sink.aim(0);
        sink
    }

    fn cell(&mut self, w: usize, sec: u32, rank: usize) -> &mut Cell {
        if rank != self.rank {
            assert!(
                rank > self.rank,
                "rank {rank} deposits after rank {}",
                self.rank
            );
            self.absorb();
            self.rank = rank;
        }
        &mut self.cells[w * self.nsec + sec as usize]
    }

    /// Fold the current rank's cells into the stats, and clear them.
    fn absorb(&mut self) {
        for (ws, cell) in self.stats.iter_mut().zip(&mut self.cells) {
            ws.absorb(cell);
            *cell = Cell::default();
        }
    }

    /// Point the cursor at window `w`.
    fn aim(&mut self, w: usize) {
        let last = w + 2 == self.edges.len();
        let hi = if last { u64::MAX } else { self.edges[w + 1] };
        self.cursor = (w, self.edges[w], hi);
    }

    /// The window containing time `t`: [`window_of`], searched only when
    /// `t` lies outside the cursor's window.
    fn window(&self, t: u64) -> usize {
        let (w, lo, hi) = self.cursor;
        if lo <= t && t < hi {
            w
        } else {
            window_of(self.edges, t)
        }
    }

    /// Every rank's stats per `[window][section]`, and the windows' wait
    /// histograms.
    fn finish(mut self) -> (Vec<WindowSection>, Vec<QuantileSketch>) {
        self.absorb();
        (self.stats, self.hists)
    }
}

impl Sink for Windows<'_> {
    fn span(&mut self, rank: usize, sec: u32, span: Span, a: u64, b: u64) {
        let (w, lo, hi) = self.cursor;
        if lo <= a && a < b && b <= hi {
            self.cell(w, sec, rank).add_span(span, b - a);
            return;
        }
        let (edges, mut ended) = (self.edges, None);
        split_interval(edges, a, b, |w, ns| {
            self.cell(w, sec, rank).add_span(span, ns);
            ended = Some(w);
        });
        if let Some(w) = ended {
            self.aim(w);
        }
    }

    fn point(&mut self, rank: usize, sec: u32, t: u64, count: Count) {
        let w = self.window(t);
        self.cell(w, sec, rank).count(count);
    }

    fn wait(&mut self, _rank: usize, _sec: u32, class: WaitClass, start: u64, ns: u64) {
        // Idle waits only: a late receiver is buffer occupancy.
        if ns > 0 && class != WaitClass::LateReceiver {
            let w = self.window(start);
            self.hists[w].record(ns);
        }
    }
}

/// Build the windowed timeline from a frozen communication log.
pub fn build(log: &CommLog, windowing: &Windowing) -> Timeline {
    let edges = window_edges(log, windowing);
    let nwin = edges.len() - 1;
    let (nsec, nranks) = (log.labels.len(), log.nranks());
    let mut sink = Windows::new(&edges, nsec);
    log.fold(&mut sink);
    let (stats, hists) = sink.finish();

    let mut windows: Vec<Window> = (0..nwin)
        .map(|w| Window {
            start_ns: edges[w],
            end_ns: edges[w + 1],
            sections: BTreeMap::new(),
            wait_hist: QuantileSketch::default(),
        })
        .collect();
    // Every deposit is non-zero and a zero cell absorbs to nothing, so
    // stats still at their default are a section absent from the window.
    for (at, mut ws) in stats.into_iter().enumerate() {
        let (w, sec) = (at / nsec, at % nsec);
        if ws != WindowSection::default() {
            ws.capacity_ns = (edges[w + 1] - edges[w]) * nranks as u64;
            windows[w]
                .sections
                .insert(log.name(sec as u32).to_string(), ws);
        }
    }
    for (w, hist) in hists.into_iter().enumerate() {
        windows[w].wait_hist = hist;
    }

    Timeline {
        edges_ns: edges,
        nranks,
        windows,
    }
}

impl Timeline {
    /// Every section label appearing in any window, sorted.
    pub fn labels(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = self
            .windows
            .iter()
            .flat_map(|w| w.sections.keys().map(String::as_str))
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// The per-window series of one metric for one section label; `None`
    /// where the section has no presence in the window.
    pub fn series(&self, label: &str, metric: impl Fn(&WindowSection) -> f64) -> Vec<Option<f64>> {
        self.windows
            .iter()
            .map(|w| w.sections.get(label).map(&metric))
            .collect()
    }

    /// Whole-run per-section totals, recomposed from the windows (window
    /// sums are exact: every event and every nanosecond of presence lands
    /// in exactly one window). `max_*` fields are maxima over windows.
    pub fn section_totals(&self) -> BTreeMap<String, WindowSection> {
        let mut totals: BTreeMap<String, WindowSection> = BTreeMap::new();
        for w in &self.windows {
            for (label, ws) in &w.sections {
                totals.entry(label.clone()).or_default().add_counters(ws);
            }
        }
        totals
    }

    /// Export as CSV: one row per (window, section), with the raw window
    /// stats and the derived efficiency hierarchy.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "window,start_ns,end_ns,section,ranks,capacity_ns,time_ns,useful_ns,late_sender_ns,\
             coll_wait_ns,transfer_ns,sent_msgs,sent_bytes,recv_msgs,recv_bytes,coll_exits,\
             parallel_eff,load_balance,comm_eff,serialization_eff,transfer_eff\n",
        );
        for (i, w) in self.windows.iter().enumerate() {
            for (label, ws) in &w.sections {
                let e = ws.efficiency();
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6}",
                    i,
                    w.start_ns,
                    w.end_ns,
                    crate::profiler::csv_field(label),
                    ws.ranks,
                    ws.capacity_ns,
                    ws.time_ns,
                    ws.useful_ns,
                    ws.late_sender_ns,
                    ws.coll_wait_ns,
                    ws.transfer_ns,
                    ws.sent_msgs,
                    ws.sent_bytes,
                    ws.recv_msgs,
                    ws.recv_bytes,
                    ws.coll_exits,
                    e.parallel,
                    e.load_balance,
                    e.comm,
                    e.serialization,
                    e.transfer,
                );
            }
        }
        out
    }

    /// Machine-readable JSON dump (deterministic field and key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"nranks\":");
        let _ = write!(out, "{}", self.nranks);
        out.push_str(",\"edges_ns\":[");
        for (i, e) in self.edges_ns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{e}");
        }
        out.push_str("],\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"start_ns\":{},\"end_ns\":{}", w.start_ns, w.end_ns);
            out.push_str(",\"wait_hist\":");
            out.push_str(&hist_json(&w.wait_hist));
            out.push_str(",\"sections\":[");
            for (j, (label, ws)) in w.sections.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"label\":{},\"stats\":{}}}",
                    json_str(label),
                    ws.to_json()
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Chrome trace-event counter rows (`ph:"C"`): one counter track per
    /// world section carrying the parallel / communication efficiency at
    /// each window start (Perfetto renders them as stepped counter lanes
    /// next to the span rows and flow arrows). `pid` is a synthetic
    /// process labelled by the caller's metadata row.
    pub fn counter_events(&self, pid: usize) -> Vec<String> {
        let mut events = Vec::new();
        for label in self.labels() {
            for w in &self.windows {
                if let Some(ws) = w.sections.get(label) {
                    let e = ws.efficiency();
                    events.push(format!(
                        "{{\"name\":{},\"cat\":\"efficiency\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":{pid},\"args\":{{\"parallel\":{:.6},\"comm\":{:.6}}}}}",
                        json_str(&format!("eff {label}")),
                        w.start_ns as f64 / 1e3,
                        e.parallel,
                        e.comm,
                    ));
                }
            }
        }
        events
    }
}

/// JSON form of a [`QuantileSketch`] (empty histograms export
/// `min_ns: 0` rather than the `u64::MAX` sentinel).
fn hist_json(h: &QuantileSketch) -> String {
    let mut out = String::from("{\"counts\":[");
    for (i, c) in h.half_decade_counts().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    let min = if h.total == 0 { 0 } else { h.min_ns };
    let _ = write!(
        out,
        "],\"total\":{},\"sum_ns\":{},\"min_ns\":{min},\"max_ns\":{}}}",
        h.total, h.sum_ns, h.max_ns
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waitstate::CommRecorder;
    use crate::{SectionRuntime, VerifyMode};
    use mpisim::{Src, TagSel, WorldBuilder};
    use std::sync::Arc;

    fn pipeline_log() -> CommLog {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let rec = CommRecorder::new();
        let s = sections.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .tool(rec.clone())
            .run(move |p| {
                let world = p.world();
                for _ in 0..4 {
                    s.scoped(p, &world, "STEP", |p| {
                        let world = p.world();
                        if p.world_rank() == 0 {
                            p.advance_secs(1.0);
                            world.send(p, 1, 0, &[7u8; 16]);
                        } else {
                            let _ = world.recv::<u8>(p, Src::Rank(0), TagSel::Any);
                        }
                    });
                }
                s.scoped(p, &world, "SYNC", |p| {
                    let world = p.world();
                    world.barrier(p);
                });
            })
            .unwrap();
        rec.freeze()
    }

    #[test]
    fn fixed_edges_cover_the_run() {
        let log = pipeline_log();
        let edges = window_edges(&log, &Windowing::Fixed(4));
        assert_eq!(edges.len(), 5);
        assert_eq!(edges[0], 0);
        assert_eq!(*edges.last().unwrap(), log.makespan_ns());
        for pair in edges.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn aligned_edges_follow_section_iterations() {
        let log = pipeline_log();
        let edges = window_edges(&log, &Windowing::Aligned("STEP".into()));
        // 4 iterations: start, 3 interior entry edges (the first entry is
        // at ~0 and dedupes into the start edge only if exactly 0) and the
        // makespan.
        assert!(edges.len() >= 5, "{edges:?}");
        assert_eq!(*edges.last().unwrap(), log.makespan_ns());
        // Unknown label falls back to one window.
        let fallback = window_edges(&log, &Windowing::Aligned("NOPE".into()));
        assert_eq!(fallback, vec![0, log.makespan_ns()]);
    }

    #[test]
    fn presence_partitions_the_run() {
        let log = pipeline_log();
        let tl = build(&log, &Windowing::Fixed(5));
        // Summed presence over all sections and windows equals the summed
        // per-rank run length: presence is a partition of each rank's
        // timeline.
        let total_presence: u64 = tl
            .windows
            .iter()
            .flat_map(|w| w.sections.values())
            .map(|ws| ws.time_ns)
            .sum();
        let run_total: u64 = log.run.ranks.iter().map(|r| r.fini_ns).sum();
        assert_eq!(total_presence, run_total);
    }

    #[test]
    fn window_sums_recompose_run_totals() {
        let log = pipeline_log();
        let one = build(&log, &Windowing::Fixed(1));
        let many = build(&log, &Windowing::Fixed(7));
        let a = one.section_totals();
        let b = many.section_totals();
        assert_eq!(a.len(), b.len());
        for (label, ta) in &a {
            let tb = &b[label];
            // capacity_ns is full-window machine capacity, so a section
            // that only appears in some windows recomposes to a smaller
            // capacity under finer windowing — only the additive event and
            // time counters are windowing-invariant.
            assert_eq!(ta.time_ns, tb.time_ns, "{label}");
            assert_eq!(ta.late_sender_ns, tb.late_sender_ns, "{label}");
            assert_eq!(ta.coll_wait_ns, tb.coll_wait_ns, "{label}");
            assert_eq!(ta.transfer_ns, tb.transfer_ns, "{label}");
            assert_eq!(ta.sent_msgs, tb.sent_msgs, "{label}");
            assert_eq!(ta.sent_bytes, tb.sent_bytes, "{label}");
            assert_eq!(ta.recv_msgs, tb.recv_msgs, "{label}");
            assert_eq!(ta.recv_bytes, tb.recv_bytes, "{label}");
            assert_eq!(ta.coll_exits, tb.coll_exits, "{label}");
        }
        // The pipeline sends 4 x 16 bytes; all of it lands in STEP.
        let step = &a["STEP"];
        assert_eq!(step.sent_msgs, 4);
        assert_eq!(step.sent_bytes, 64);
        assert_eq!(step.recv_msgs, 4);
        assert_eq!(step.recv_bytes, 64);
        assert_eq!(a["SYNC"].coll_exits, 2);
    }

    #[test]
    fn late_sender_wait_is_windowed() {
        let log = pipeline_log();
        let tl = build(&log, &Windowing::Fixed(4));
        // Rank 1 idles ~1 s per step waiting for rank 0's send: every
        // window with STEP presence carries late-sender time, and the
        // wait histogram saw those waits.
        let totals = tl.section_totals();
        assert!(totals["STEP"].late_sender_ns > 3_500_000_000);
        let hist_total: u64 = tl.windows.iter().map(|w| w.wait_hist.total).sum();
        assert!(hist_total >= 4, "{hist_total}");
    }

    #[test]
    fn useful_time_excludes_waits() {
        let log = pipeline_log();
        let tl = build(&log, &Windowing::Fixed(1));
        let totals = tl.section_totals();
        let step = &totals["STEP"];
        // Rank 0 computes 4 s; rank 1 only waits. Useful must be close to
        // the 4 s of compute and far from the ~8 s of presence.
        let useful = step.useful_ns as f64 / 1e9;
        assert!((3.9..4.5).contains(&useful), "useful {useful}");
        assert!(step.time_ns > step.useful_ns);
    }

    #[test]
    fn csv_and_json_are_deterministic() {
        let a = build(&pipeline_log(), &Windowing::Fixed(6));
        let b = build(&pipeline_log(), &Windowing::Fixed(6));
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_csv().starts_with("window,start_ns"));
        let json = a.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"wait_hist\""));
    }

    #[test]
    fn counter_events_cover_every_present_window() {
        let tl = build(&pipeline_log(), &Windowing::Fixed(3));
        let events = tl.counter_events(999);
        assert!(!events.is_empty());
        for ev in &events {
            assert!(ev.contains("\"ph\":\"C\""), "{ev}");
            assert!(ev.contains("\"pid\":999"), "{ev}");
        }
    }

    /// The window sink as it was before its cursor: one cell per
    /// (window, section, rank), every span split by a search from its
    /// start, every point and wait searched for.
    struct Searched<'a> {
        edges: &'a [u64],
        nsec: usize,
        nranks: usize,
        cells: Vec<Cell>,
        hists: Vec<QuantileSketch>,
    }

    impl Searched<'_> {
        fn cell(&mut self, w: usize, sec: u32, rank: usize) -> &mut Cell {
            &mut self.cells[(w * self.nsec + sec as usize) * self.nranks + rank]
        }

        fn finish(self) -> (Vec<WindowSection>, Vec<QuantileSketch>) {
            let stats = self.cells.chunks(self.nranks).map(|ranks| {
                let mut ws = WindowSection::default();
                ranks.iter().for_each(|cell| ws.absorb(cell));
                ws
            });
            (stats.collect(), self.hists)
        }
    }

    impl Sink for Searched<'_> {
        fn span(&mut self, rank: usize, sec: u32, span: Span, a: u64, b: u64) {
            let edges = self.edges;
            split_interval(edges, a, b, |w, ns| {
                self.cell(w, sec, rank).add_span(span, ns);
            });
        }

        fn point(&mut self, rank: usize, sec: u32, t: u64, count: Count) {
            let w = window_of(self.edges, t);
            self.cell(w, sec, rank).count(count);
        }

        fn wait(&mut self, _rank: usize, _sec: u32, class: WaitClass, start: u64, ns: u64) {
            if ns > 0 && class != WaitClass::LateReceiver {
                self.hists[window_of(self.edges, start)].record(ns);
            }
        }
    }

    #[test]
    fn the_window_sink_folds_what_the_search_did() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let spans = [
            Span::Presence,
            Span::LateSender,
            Span::CollWait,
            Span::Transfer,
        ];
        let classes = [
            WaitClass::LateSender,
            WaitClass::LateReceiver,
            WaitClass::WaitAtCollective,
        ];
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            // Edges as `window_edges` makes them: 0, the makespan, and
            // distinct times in between (none at all for an empty run).
            let makespan = if case % 16 == 0 {
                0
            } else {
                rng.gen_range(1..5_000)
            };
            let mut edges = vec![0, makespan];
            for _ in 0..rng.gen_range(0..8) {
                edges.push(rng.gen_range(0..makespan + 1));
            }
            edges.sort_unstable();
            edges.dedup();
            if edges.len() < 2 {
                edges = vec![0, makespan];
            }
            let (nsec, nranks) = (rng.gen_range(1..4), rng.gen_range(1..5));
            let mut cursor = Windows::new(&edges, nsec);
            let mut searched = Searched {
                edges: &edges,
                nsec,
                nranks,
                cells: vec![Cell::default(); (edges.len() - 1) * nsec * nranks],
                hists: vec![QuantileSketch::default(); edges.len() - 1],
            };
            // One rank after another, as the fold deposits them; a rank
            // may deposit nothing.
            let (mut rank, mut now) = (0, 0u64);
            for _ in 0..300 {
                if rng.gen_range(0..40) == 0 && rank + 1 < nranks {
                    (rank, now) = (rank + 1 + rng.gen_range(0..nranks - rank - 1), 0);
                }
                let sec = rng.gen_range(0..nsec) as u32;
                let step = rng.gen_range(0..makespan / 4 + 2);
                // An edge, or one ns either side of it: where the cursor's
                // bounds matter.
                let at_edge = edges[rng.gen_range(0..edges.len())] + rng.gen_range(0..3);
                // Mostly onwards from the rank's last end; sometimes back in
                // time, empty, reversed, to an edge, up to the makespan or
                // past it.
                let (a, b) = match rng.gen_range(0..10) {
                    0 => (now.saturating_sub(step), now),
                    1 => (now, now),
                    2 => (now + step, now),
                    3 => (now, makespan.max(now)),
                    4 => (makespan, makespan + step),
                    5 | 6 => (now, now.max(at_edge.saturating_sub(1))),
                    _ => (now, now + step),
                };
                now = b.min(makespan);
                let span = spans[rng.gen_range(0..spans.len())];
                let (class, ns) = (classes[rng.gen_range(0..3)], rng.gen_range(0..100));
                let count = match rng.gen_range(0..3) {
                    0 => Count::Sent(step),
                    1 => Count::Recv(step),
                    _ => Count::CollExit,
                };
                cursor.span(rank, sec, span, a, b);
                searched.span(rank, sec, span, a, b);
                cursor.point(rank, sec, b, count);
                searched.point(rank, sec, b, count);
                cursor.wait(rank, sec, class, a, ns);
                searched.wait(rank, sec, class, a, ns);
            }
            assert_eq!(cursor.finish(), searched.finish(), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "rank 0 deposits after rank 1")]
    fn a_rank_deposits_once() {
        let edges = [0, 10];
        let mut sink = Windows::new(&edges, 1);
        sink.point(1, 0, 5, Count::CollExit);
        sink.point(0, 0, 5, Count::CollExit);
    }

    #[test]
    fn empty_log_yields_empty_timeline() {
        let rec = CommRecorder::new();
        let log = rec.freeze();
        let tl = build(&log, &Windowing::Fixed(8));
        assert_eq!(tl.nranks, 0);
        assert_eq!(tl.edges_ns, vec![0, 0]);
        assert!(tl.windows[0].sections.is_empty());
        assert!(tl.to_csv().starts_with("window,"));
    }

    #[test]
    fn series_reports_presence_gaps() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let rec = CommRecorder::new();
        let s = sections.clone();
        WorldBuilder::new(1)
            .tool(sections.clone())
            .tool(rec.clone())
            .run(move |p| {
                let world = p.world();
                s.scoped(p, &world, "EARLY", |p| p.advance_secs(1.0));
                p.advance_secs(2.0);
                s.scoped(p, &world, "LATE", |p| p.advance_secs(1.0));
            })
            .unwrap();
        let tl = build(&rec.freeze(), &Windowing::Fixed(4));
        let early = tl.series("EARLY", |ws| ws.time_ns as f64);
        assert!(early[0].is_some());
        assert!(early[3].is_none());
        let late = tl.series("LATE", |ws| ws.time_ns as f64);
        assert!(late[0].is_none());
        assert!(late[3].is_some());
        let _ = Arc::strong_count(&rec);
    }
}
