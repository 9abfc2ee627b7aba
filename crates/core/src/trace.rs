//! Section-level tracing — the coarse-grained trace the paper imagines a
//! viewer like Vampir consuming (§5.3: "merge fine-grained trace-events
//! per sections to provide a coarse-grain overview of section instances
//! before zooming in").
//!
//! [`TraceTool`] records one complete-span event per section traversal per
//! rank (as a [`SectionTool`]) and, when additionally attached as an
//! [`mpisim::Tool`], both endpoints of every point-to-point message, read
//! off the receive that matched it. The trace exports as:
//!
//! * CSV (`to_csv`),
//! * Chrome trace-event JSON (`to_chrome_trace`) — `chrome://tracing` /
//!   Perfetto open it directly, with one labeled process row per rank,
//!   one thread lane per communicator, and flow arrows joining each
//!   message's send to its matching receive,
//! * folded flamegraph stacks (`to_folded`) weighted by *exclusive*
//!   section time, ready for `flamegraph.pl` or speedscope.

use crate::tool::{EnterInfo, LeaveInfo, SectionTool};
use mpisim::diag::json_str;
use mpisim::{CommId, EventKind, EventMask, Label, MpiEvent, SectionData, Tool, WorldCell};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// One completed section traversal on one rank.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// World rank.
    pub rank: usize,
    /// Communicator of the section.
    pub comm: CommId,
    /// Section label, named at export.
    pub label: Label,
    /// Virtual entry time, nanoseconds.
    pub enter_ns: u64,
    /// Virtual exit time, nanoseconds.
    pub exit_ns: u64,
    /// Nesting depth at entry.
    pub depth: usize,
    /// Occurrence index of this (comm, label) on this rank.
    pub occurrence: u64,
}

/// One matched message: its `seq`, its communicator id and both
/// endpoints as `(world rank, time ns)`.
#[derive(Debug, Clone, Copy)]
struct Flow {
    seq: u64,
    comm: u64,
    src: (usize, u64),
    dst: (usize, u64),
}

/// Synthetic Chrome-trace pid hosting the efficiency counter lanes —
/// far above any plausible world size so it never collides with a rank.
pub const COUNTER_PID: usize = 1_000_000;

/// A tool recording every section traversal as a span, plus message flow
/// endpoints when attached at the PMPI layer too.
#[derive(Default)]
pub struct TraceTool {
    events: WorldCell<Vec<SpanEvent>>,
    flows: WorldCell<Vec<Flow>>,
}

impl TraceTool {
    /// A fresh trace tool behind an `Arc`, ready to attach.
    pub fn new() -> Arc<TraceTool> {
        Arc::new(TraceTool::default())
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take a snapshot of the recorded spans, sorted by (rank, enter).
    pub fn spans(&self) -> Vec<SpanEvent> {
        let mut events = self.events.lock().clone();
        events.sort_by_key(|e| (e.rank, e.enter_ns, e.exit_ns));
        events
    }

    /// Export as CSV (`rank,comm,label,enter_ns,exit_ns,depth,occurrence`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("rank,comm,label,enter_ns,exit_ns,depth,occurrence\n");
        for e in self.spans() {
            let label = crate::profiler::csv_field(e.label.name());
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                e.rank, e.comm.0, label, e.enter_ns, e.exit_ns, e.depth, e.occurrence
            );
        }
        out
    }

    /// Export as Chrome trace-event JSON (complete events, µs timebase):
    /// one "process" per rank (named via metadata events so Perfetto shows
    /// `rank N` instead of a bare pid), one "thread" lane per communicator
    /// — within a communicator sections nest LIFO, which is what the
    /// complete-event format requires of a lane — and a flow-event pair
    /// (`ph:"s"` → `ph:"f"`) drawing an arrow from every send to its
    /// matching receive.
    pub fn to_chrome_trace(&self) -> String {
        self.to_chrome_trace_with(None)
    }

    /// Like [`TraceTool::to_chrome_trace`], plus per-window efficiency
    /// counter lanes (`ph:"C"`) from a windowed [`crate::Timeline`]:
    /// Perfetto renders one stepped counter track per section under a
    /// synthetic "windowed efficiency" process, so metric trajectories sit
    /// directly under the span rows and flow arrows they explain.
    pub fn to_chrome_trace_with(&self, timeline: Option<&crate::Timeline>) -> String {
        self.to_chrome_trace_capped(usize::MAX, timeline).0
    }

    /// Like [`TraceTool::to_chrome_trace_with`], but capped at
    /// `max_ranks` rank lanes: spans and flow arrows touching world rank
    /// `>= max_ranks` are dropped. The JSON comes back with the number of
    /// spans it holds and the count of distinct dropped ranks, so large-p
    /// exports stay bounded and the caller can say exactly what was
    /// written and what was cut instead of silently emitting a multi-GB
    /// trace. A trace that dropped ranks says so itself: its first row is
    /// a `trace_cap` metadata event with `max_ranks` and `dropped_ranks`.
    pub fn to_chrome_trace_capped(
        &self,
        max_ranks: usize,
        timeline: Option<&crate::Timeline>,
    ) -> (String, usize, usize) {
        let (spans, cut): (Vec<SpanEvent>, Vec<SpanEvent>) =
            self.spans().into_iter().partition(|e| e.rank < max_ranks);
        let mut dropped: BTreeSet<usize> = cut.iter().map(|e| e.rank).collect();
        let mut flows: Vec<Flow> = self
            .flows
            .lock()
            .iter()
            .filter(|f| {
                let ranks = [f.src.0, f.dst.0];
                dropped.extend(ranks.iter().filter(|&&rank| rank >= max_ranks));
                ranks.iter().all(|&rank| rank < max_ranks)
            })
            .copied()
            .collect();
        // Stable: a reused tool's runs keep their order within one `seq`.
        flows.sort_by_key(|f| f.seq);

        // Every (pid) and (pid, tid) that will appear gets a metadata row.
        let mut pids: BTreeSet<usize> = BTreeSet::new();
        let mut lanes: BTreeSet<(usize, u64)> = BTreeSet::new();
        for e in &spans {
            pids.insert(e.rank);
            lanes.insert((e.rank, e.comm.0));
        }
        for f in &flows {
            for (rank, _) in [f.src, f.dst] {
                pids.insert(rank);
                lanes.insert((rank, f.comm));
            }
        }

        // Every row is written after a comma; the first comma becomes the
        // array's opening bracket.
        let mut out = String::new();
        if !dropped.is_empty() {
            let _ = write!(
                out,
                ",{{\"name\":\"trace_cap\",\"ph\":\"M\",\"pid\":0,\"args\":{{\"max_ranks\":{max_ranks},\"dropped_ranks\":{}}}}}",
                dropped.len()
            );
        }
        for &pid in &pids {
            let _ = write!(
                out,
                ",{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{}}}}}",
                json_str(&format!("rank {pid}"))
            );
            let _ = write!(
                out,
                ",{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"sort_index\":{pid}}}}}"
            );
        }
        for &(pid, tid) in &lanes {
            let lane = if tid == CommId::WORLD.0 {
                "MPI_COMM_WORLD".to_string()
            } else {
                format!("comm {tid}")
            };
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                json_str(&lane)
            );
        }

        for e in &spans {
            let _ = write!(
                out,
                ",{{\"name\":{},\"cat\":\"section\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"depth\":{},\"occurrence\":{}}}}}",
                json_str(e.label.name()),
                e.enter_ns as f64 / 1e3,
                (e.exit_ns - e.enter_ns) as f64 / 1e3,
                e.rank,
                e.comm.0,
                e.depth,
                e.occurrence,
            );
        }

        for &Flow {
            seq,
            comm,
            src: (src_rank, src_ns),
            dst: (dst_rank, dst_ns),
        } in &flows
        {
            let _ = write!(
                out,
                ",{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":{seq},\"ts\":{:.3},\"pid\":{src_rank},\"tid\":{comm}}}",
                src_ns as f64 / 1e3,
            );
            let _ = write!(
                out,
                ",{{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{seq},\"ts\":{:.3},\"pid\":{dst_rank},\"tid\":{comm}}}",
                dst_ns as f64 / 1e3,
            );
        }

        if let Some(tl) = timeline {
            // Synthetic pid far above any real rank; sorted after them.
            let pid = COUNTER_PID;
            let _ = write!(
                out,
                ",{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"windowed efficiency\"}}}}"
            );
            let _ = write!(
                out,
                ",{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"sort_index\":{pid}}}}}"
            );
            for ev in tl.counter_events(pid) {
                out.push(',');
                out.push_str(&ev);
            }
        }

        if out.is_empty() {
            out.push(',');
        }
        out.replace_range(..1, "[");
        out.push(']');
        (out, spans.len(), dropped.len())
    }

    /// Export as folded flamegraph stacks: one line per unique stack,
    /// `rank N;PARENT;CHILD weight`, weighted by **exclusive** time in
    /// nanoseconds (a section's own time minus its nested children), so
    /// frame widths in the rendered graph are proportional to where time
    /// was actually spent. Lines are sorted; identical runs fold to
    /// byte-identical output.
    pub fn to_folded(&self) -> String {
        let spans = self.spans();
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();

        // Group by (rank, comm): spans nest LIFO within a lane.
        let mut i = 0;
        while i < spans.len() {
            let (rank, comm) = (spans[i].rank, spans[i].comm);
            let mut j = i;
            while j < spans.len() && spans[j].rank == rank && spans[j].comm == comm {
                j += 1;
            }
            let mut group: Vec<&SpanEvent> = spans[i..j].iter().collect();
            // Parents first: earlier enter, or same enter and later exit.
            group.sort_by(|a, b| {
                a.enter_ns
                    .cmp(&b.enter_ns)
                    .then(b.exit_ns.cmp(&a.exit_ns))
                    .then(a.depth.cmp(&b.depth))
            });

            let prefix = if comm == CommId::WORLD {
                format!("rank {rank}")
            } else {
                format!("rank {rank};comm {}", comm.0)
            };
            // Sweep over the spans still open; child_ns accumulates nested
            // time so the popped frame's weight is exclusive.
            let mut open: Vec<(&SpanEvent, u64)> = Vec::new();
            let pop = |stack: &mut Vec<(&SpanEvent, u64)>, folded: &mut BTreeMap<String, u64>| {
                let (span, child_ns) = stack.pop().expect("pop on empty stack");
                let dur = span.exit_ns - span.enter_ns;
                let exclusive = dur.saturating_sub(child_ns);
                let mut path = prefix.clone();
                for (ancestor, _) in stack.iter() {
                    path.push(';');
                    path.push_str(&ancestor.label.name().replace(';', ","));
                }
                path.push(';');
                path.push_str(&span.label.name().replace(';', ","));
                if exclusive > 0 {
                    *folded.entry(path).or_default() += exclusive;
                }
                if let Some(top) = stack.last_mut() {
                    top.1 += dur;
                }
            };
            for e in group {
                while let Some(&(top, _)) = open.last() {
                    if top.exit_ns <= e.enter_ns {
                        pop(&mut open, &mut folded);
                    } else {
                        break;
                    }
                }
                open.push((e, 0));
            }
            while !open.is_empty() {
                pop(&mut open, &mut folded);
            }
            i = j;
        }

        let mut out = String::new();
        for (path, weight) in folded {
            let _ = writeln!(out, "{path} {weight}");
        }
        out
    }
}

impl SectionTool for TraceTool {
    fn on_enter(&self, _info: &EnterInfo, _data: &mut SectionData) {}

    /// A span is recorded whole at leave, which carries its enter time.
    fn wants_enter(&self) -> bool {
        false
    }

    fn on_leave(&self, info: &LeaveInfo, _data: &SectionData) {
        self.events.lock().push(SpanEvent {
            rank: info.world_rank,
            comm: info.comm,
            label: info.label,
            enter_ns: info.enter_time.as_nanos(),
            exit_ns: info.time.as_nanos(),
            depth: info.depth,
            occurrence: info.occurrence,
        });
    }
}

/// PMPI attachment: record each message's flow arrow when it is matched.
/// Attach the same `Arc<TraceTool>` with both `sections.attach(..)` (spans)
/// and `WorldBuilder::tool(..)` (flows).
impl Tool for TraceTool {
    fn interests(&self) -> EventMask {
        EventMask::only(EventKind::RecvMatched)
    }

    fn on_event(&self, world_rank: usize, event: &MpiEvent) {
        if let MpiEvent::RecvMatched {
            comm,
            src_world,
            seq,
            sent,
            time,
            ..
        } = event
        {
            self.flows.lock().push(Flow {
                seq: *seq,
                comm: comm.0,
                src: (*src_world, sent.as_nanos()),
                dst: (world_rank, time.as_nanos()),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SectionRuntime, VerifyMode};
    use mpisim::{Src, TagSel, WorldBuilder};

    fn traced_run() -> Arc<TraceTool> {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let trace = TraceTool::new();
        sections.attach(trace.clone());
        let s = sections.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .run(move |p| {
                let world = p.world();
                s.scoped(p, &world, "outer", |p| {
                    p.advance_secs(1.0);
                    s.scoped(p, &world, "inner", |p| p.advance_secs(0.5));
                });
            })
            .unwrap();
        trace
    }

    fn traced_ring_run() -> Arc<TraceTool> {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let trace = TraceTool::new();
        sections.attach(trace.clone());
        let s = sections.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .tool(trace.clone())
            .run(move |p| {
                let world = p.world();
                s.scoped(p, &world, "xchg", |p| {
                    let world = p.world();
                    let peer = 1 - p.world_rank();
                    world.send(p, peer, 0, &[1u8, 2]);
                    let _ = world.recv::<u8>(p, Src::Rank(peer), TagSel::Is(0));
                });
            })
            .unwrap();
        trace
    }

    #[test]
    fn spans_are_recorded_with_nesting() {
        let trace = traced_run();
        // 2 ranks x (outer + inner + MPI_MAIN).
        assert_eq!(trace.len(), 6);
        let spans = trace.spans();
        let outer = spans
            .iter()
            .find(|e| e.rank == 0 && e.label.name() == "outer")
            .unwrap();
        let inner = spans
            .iter()
            .find(|e| e.rank == 0 && e.label.name() == "inner")
            .unwrap();
        assert!(outer.enter_ns <= inner.enter_ns);
        assert!(outer.exit_ns >= inner.exit_ns);
        assert_eq!(outer.depth, 1); // under MPI_MAIN
        assert_eq!(inner.depth, 2);
        assert_eq!(outer.exit_ns - outer.enter_ns, 1_500_000_000);
    }

    #[test]
    fn csv_export_has_all_rows() {
        let trace = traced_run();
        let csv = trace.to_csv();
        assert_eq!(csv.lines().count(), 7); // header + 6 spans
        assert!(csv.starts_with("rank,comm,label"));
        assert!(csv.contains("inner"));
    }

    #[test]
    fn chrome_trace_is_wellformed_enough() {
        let trace = traced_run();
        let json = trace.to_chrome_trace();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
        assert!(json.contains("\"name\":\"outer\""));
        // Balanced braces (cheap sanity check without a JSON parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn chrome_trace_labels_ranks() {
        let trace = traced_run();
        let json = trace.to_chrome_trace();
        assert_eq!(json.matches("\"process_name\"").count(), 2);
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert_eq!(json.matches("\"process_sort_index\"").count(), 2);
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
        assert!(json.contains("\"name\":\"MPI_COMM_WORLD\""));
    }

    #[test]
    fn chrome_trace_draws_message_flows() {
        let trace = traced_ring_run();
        let json = trace.to_chrome_trace();
        // Two messages -> two complete arrows.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn folded_stacks_weight_exclusive_time() {
        let trace = traced_run();
        let folded = trace.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        // Per rank: MPI_MAIN (exclusive ~0 is dropped or tiny), outer, inner.
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("rank 0;MPI_MAIN;outer;inner ")),
            "{folded}"
        );
        let outer = lines
            .iter()
            .find(|l| l.starts_with("rank 0;MPI_MAIN;outer "))
            .unwrap();
        let weight: u64 = outer.rsplit(' ').next().unwrap().parse().unwrap();
        // outer ran 1.5 s total but 0.5 s belongs to inner.
        assert_eq!(weight, 1_000_000_000);
    }

    #[test]
    fn folded_output_is_sorted_and_stable() {
        let a = traced_run().to_folded();
        let b = traced_run().to_folded();
        assert_eq!(a, b);
        let mut lines: Vec<&str> = a.lines().collect();
        let sorted = {
            let mut s = lines.clone();
            s.sort();
            s
        };
        lines.sort();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn counter_lanes_ride_next_to_spans() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let trace = TraceTool::new();
        let rec = crate::CommRecorder::new();
        sections.attach(trace.clone());
        let s = sections.clone();
        WorldBuilder::new(2)
            .tool(sections.clone())
            .tool(trace.clone())
            .tool(rec.clone())
            .run(move |p| {
                let world = p.world();
                for _ in 0..4 {
                    s.scoped(p, &world, "xchg", |p| {
                        let world = p.world();
                        let peer = 1 - p.world_rank();
                        p.advance_secs(1.0);
                        world.send(p, peer, 0, &[1u8, 2]);
                        let _ = world.recv::<u8>(p, Src::Rank(peer), TagSel::Is(0));
                    });
                }
            })
            .unwrap();
        let tl = crate::timeline::build(&rec.freeze(), &crate::Windowing::Fixed(4));
        let json = trace.to_chrome_trace_with(Some(&tl));
        assert!(json.contains("\"windowed efficiency\""), "{json}");
        assert!(json.matches("\"ph\":\"C\"").count() >= 4, "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // Without a timeline the output is unchanged.
        assert_eq!(trace.to_chrome_trace(), trace.to_chrome_trace_with(None));
        assert!(!trace.to_chrome_trace().contains("\"ph\":\"C\""));
    }

    #[test]
    fn rank_cap_drops_lanes_and_counts_them() {
        let trace = traced_ring_run();
        let (json, written, dropped) = trace.to_chrome_trace_capped(1, None);
        assert_eq!(dropped, 1);
        // The document carries the cap, once, and still parses.
        let cap = "{\"name\":\"trace_cap\",\"ph\":\"M\",\"pid\":0,\"args\":{\"max_ranks\":1,\"dropped_ranks\":1}}";
        assert!(json.starts_with(&format!("[{cap},")), "{json}");
        assert_eq!(json.matches("trace_cap").count(), 1);
        mpisim::jsoncheck::assert_json(&json, "capped trace");
        assert_eq!(written, json.matches("\"ph\":\"X\"").count());
        assert!(
            written > 0 && written < trace.len(),
            "{written} of {}",
            trace.len()
        );
        assert!(json.contains("\"name\":\"rank 0\""), "{json}");
        assert!(!json.contains("\"name\":\"rank 1\""), "{json}");
        // Both messages touch rank 1, so every flow arrow is dropped too.
        assert!(!json.contains("\"ph\":\"s\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // An unconstrained cap is the identity.
        let (full, written, none_dropped) = trace.to_chrome_trace_capped(usize::MAX, None);
        assert_eq!((written, none_dropped), (trace.len(), 0));
        assert_eq!(full, trace.to_chrome_trace());
        // A cap the run stays under writes no cap row.
        assert_eq!(trace.to_chrome_trace_capped(2, None).0, full);
        assert!(!full.contains("trace_cap"), "{full}");
    }

    #[test]
    fn empty_trace() {
        let t = TraceTool::new();
        assert!(t.is_empty());
        assert_eq!(t.to_chrome_trace(), "[]");
        assert_eq!(t.to_csv().lines().count(), 1);
        assert_eq!(t.to_folded(), "");
    }
}
