//! Critical-path extraction through the message-dependency graph.
//!
//! The paper's Eq. 6 bounds speedup from per-section timings under the
//! assumption that everything off the profiled section scales; the
//! critical path gives the complementary, communication-aware bound. The
//! longest dependency chain through the run — compute segments joined by
//! the sends, receives and collective rendezvous recorded in a
//! [`CommLog`] — cannot be compressed by adding ranks, so
//!
//! ```text
//! S(p) <= T_seq / CPL        (critical-path bound)
//! ```
//!
//! holds for any p. The walker starts at the last rank to finalize and
//! follows dependencies backward:
//!
//! * a receive that idled for a late sender hops to the sending rank at
//!   the send instant (the wait itself is *not* on the path) — to the
//!   `Send` record the message's send-table slot names;
//! * a collective exit hops to the member that arrived last (waits of the
//!   early arrivers are skipped), which the round's record names;
//! * everything else consumes local time, attributed to the enclosing
//!   section, and the walk steps back to the rank's previous record (its
//!   head word says how far back that starts).
//!
//! Per-section path shares therefore say which sections the wall clock is
//! actually serialized through — a sharper answer than inclusive time.

use crate::waitstate::{CommLog, RecKind};
use mpisim::diag::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The extracted critical path.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Total path length in virtual nanoseconds.
    pub length_ns: u64,
    /// Path time per section label (sums to `length_ns`).
    pub per_section: BTreeMap<String, u64>,
    /// Path time per world rank (sums to `length_ns`).
    pub per_rank: Vec<u64>,
    /// Number of dependency edges followed (diagnostic).
    pub steps: usize,
}

impl CriticalPath {
    /// Path length in seconds.
    pub fn length_secs(&self) -> f64 {
        self.length_ns as f64 / 1e9
    }

    /// The critical-path speedup bound `T_seq / CPL` for a sequential
    /// baseline of `seq_total_secs`. Returns `f64::INFINITY` for an empty
    /// path.
    pub fn bound(&self, seq_total_secs: f64) -> f64 {
        if self.length_ns == 0 {
            f64::INFINITY
        } else {
            seq_total_secs / self.length_secs()
        }
    }

    /// Render the critical-path block shown next to the Eq. 6 ranking.
    pub fn render(&self, seq_total_secs: f64, p: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {:.4} s through {} dependency steps",
            self.length_secs(),
            self.steps
        );
        let mut shares: Vec<(&String, &u64)> = self.per_section.iter().collect();
        shares.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (label, &ns) in shares {
            let share = if self.length_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / self.length_ns as f64
            };
            let _ = writeln!(
                out,
                "  {:<32} {:>10.4} s  {:>5.1}%",
                crate::report::truncate_label(label, 32),
                ns as f64 / 1e9,
                share
            );
        }
        let bound = self.bound(seq_total_secs);
        let _ = writeln!(
            out,
            "critical-path speedup bound: S <= T_seq/CPL = {bound:.2} (p = {p}, T_seq = {seq_total_secs:.4} s)"
        );
        out
    }

    /// Machine-readable JSON dump (deterministic key order, integer ns).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"length_ns\":{},\"steps\":{}",
            self.length_ns, self.steps
        );
        out.push_str(",\"sections\":[");
        for (i, (label, ns)) in self.per_section.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"label\":{},\"ns\":{ns}}}", json_str(label));
        }
        out.push_str("],\"per_rank\":[");
        for (i, ns) in self.per_rank.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{ns}");
        }
        out.push_str("]}");
        out
    }
}

/// Walk the log backward from the last rank to finalize and extract the
/// critical path.
pub fn extract(log: &CommLog) -> CriticalPath {
    let nranks = log.run.ranks.len();
    // Path time by section id; `None` until the path touches the section.
    let mut per_section: Vec<Option<u64>> = vec![None; log.labels.len()];
    let mut per_rank = vec![0u64; nranks];
    let mut steps = 0usize;

    if nranks == 0 {
        return CriticalPath {
            length_ns: 0,
            per_section: BTreeMap::new(),
            per_rank,
            steps,
        };
    }

    // Start on the rank that finalized last (ties: lowest rank).
    let mut rank = 0usize;
    for (r, rr) in log.run.ranks.iter().enumerate() {
        if rr.fini_ns > log.run.ranks[rank].fini_ns {
            rank = r;
        }
    }
    let mut cursor_ns = log.run.ranks[rank].fini_ns;
    let mut at = log.run.ranks[rank].last();

    // Every step either steps back one record or jumps to a strictly
    // earlier time on another rank, but cap the walk defensively anyway.
    let cap = log.events() * 2 + 16;

    while let Some(i) = at.filter(|_| steps < cap) {
        steps += 1;
        let recs = &log.run.ranks[rank];
        let rec = recs.get(i).0;
        // `[from_ns, cursor_ns)` is on the path, on this rank, in `rec.sec`.
        let mut from_ns = rec.t_ns;
        // The record the walk continues from; the jump targets are the
        // log's own offsets: a send-table entry knows the sender's `Send`
        // record, a round knows where its last arrival logged its exit.
        let mut next = (rank, recs.before(i));
        match rec.kind {
            RecKind::RecvMatch { seq, .. } => {
                // Late sender: the receiver's segment on the path starts
                // when the message left; hop to the sender. A message that
                // was already waiting at the post is a plain local segment.
                if let Some(sent) = log
                    .run
                    .sent(seq, rec.t_ns)
                    .filter(|s| s.issued_ns > rec.t_ns)
                {
                    from_ns = sent.issued_ns;
                    next = (sent.rank, Some(sent.rec));
                }
            }
            RecKind::CollExit {
                comm,
                round,
                enter_ns,
            } => {
                // The rendezvous spans from the last arrival to the common
                // exit; hop to whichever member arrived last.
                let last = log.run.colls.get(&(comm, round)).and_then(|c| c.last);
                from_ns = last.map_or(enter_ns, |(_, max_enter, _)| max_enter);
                if let Some((crit_rank, _, exit)) = last.filter(|&(r, ..)| r != rank) {
                    next = (crit_rank, log.run.ranks[crit_rank].before(exit));
                }
            }
            _ => {}
        }
        let spent = cursor_ns.saturating_sub(from_ns);
        *per_section[rec.sec as usize].get_or_insert(0) += spent;
        per_rank[rank] += spent;
        cursor_ns = from_ns;
        (rank, at) = next;
    }

    let mut named: BTreeMap<String, u64> = BTreeMap::new();
    for (sec, ns) in per_section.into_iter().enumerate() {
        if let Some(ns) = ns {
            *named.entry(log.name(sec as u32).to_string()).or_default() += ns;
        }
    }
    CriticalPath {
        length_ns: named.values().sum(),
        per_section: named,
        per_rank,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waitstate::CommRecorder;
    use crate::{SectionRuntime, VerifyMode};
    use mpisim::{Src, TagSel, WorldBuilder};

    #[test]
    fn pipeline_path_runs_through_the_producer() {
        let rec = CommRecorder::new();
        let report = WorldBuilder::new(2)
            .tool(rec.clone())
            .run(|p| {
                let world = p.world();
                if p.world_rank() == 1 {
                    p.advance_secs(2.0);
                    world.send(p, 0, 0, &[1u8]);
                } else {
                    let _ = world.recv::<u8>(p, Src::Rank(1), TagSel::Any);
                }
            })
            .unwrap();
        let cp = extract(&rec.freeze());
        // The path must include rank 1's 2 s of compute, and cannot exceed
        // the makespan (waits are skipped, never double-counted).
        assert!(cp.per_rank[1] >= 1_900_000_000, "{:?}", cp.per_rank);
        assert!(cp.length_secs() <= report.makespan_secs() + 1e-9);
        assert!(cp.length_secs() >= 2.0);
    }

    #[test]
    fn straggler_dominates_collective_path() {
        let rec = CommRecorder::new();
        WorldBuilder::new(4)
            .tool(rec.clone())
            .run(|p| {
                let world = p.world();
                if p.world_rank() == 3 {
                    p.advance_secs(1.5);
                }
                world.barrier(p);
            })
            .unwrap();
        let cp = extract(&rec.freeze());
        // The straggler's compute is on the path; the waiters' idle is not.
        assert!(cp.per_rank[3] >= 1_400_000_000, "{:?}", cp.per_rank);
        assert!(cp.length_secs() >= 1.5);
        assert!(cp.length_secs() < 2.0, "{}", cp.length_secs());
    }

    #[test]
    fn path_never_exceeds_makespan_with_sections() {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let rec = CommRecorder::new();
        let s = sections.clone();
        let report = WorldBuilder::new(4)
            .tool(sections.clone())
            .tool(rec.clone())
            .run(move |p| {
                let world = p.world();
                s.scoped(p, &world, "WORK", |p| {
                    p.advance_secs(0.1 * (p.world_rank() + 1) as f64);
                });
                s.scoped(p, &world, "RING", |p| {
                    let world = p.world();
                    let next = (p.world_rank() + 1) % p.world_size();
                    let prev = (p.world_rank() + p.world_size() - 1) % p.world_size();
                    world.send(p, next, 7, &[0u32; 64]);
                    let _ = world.recv::<u32>(p, Src::Rank(prev), TagSel::Is(7));
                });
                s.scoped(p, &world, "SYNC", |p| {
                    let world = p.world();
                    world.barrier(p);
                });
            })
            .unwrap();
        let cp = extract(&rec.freeze());
        assert!(cp.length_ns > 0);
        assert!(
            cp.length_secs() <= report.makespan_secs() + 1e-9,
            "cpl {} > makespan {}",
            cp.length_secs(),
            report.makespan_secs()
        );
        // Every attributed nanosecond lands in a known section.
        let sum: u64 = cp.per_section.values().sum();
        assert_eq!(sum, cp.length_ns);
        let rank_sum: u64 = cp.per_rank.iter().sum();
        assert_eq!(rank_sum, cp.length_ns);
    }

    #[test]
    fn bound_and_render_and_json() {
        let rec = CommRecorder::new();
        WorldBuilder::new(2)
            .tool(rec.clone())
            .run(|p| {
                p.advance_secs(1.0);
                let world = p.world();
                world.barrier(p);
            })
            .unwrap();
        let cp = extract(&rec.freeze());
        let bound = cp.bound(8.0);
        assert!(bound > 0.0 && bound.is_finite());
        let text = cp.render(8.0, 4);
        assert!(text.contains("critical-path speedup bound"), "{text}");
        let json = cp.to_json();
        assert!(json.contains("\"length_ns\":"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn extraction_is_deterministic() {
        let run = || {
            let rec = CommRecorder::new();
            WorldBuilder::new(4)
                .tool(rec.clone())
                .run(|p| {
                    let world = p.world();
                    let next = (p.world_rank() + 1) % p.world_size();
                    let prev = (p.world_rank() + p.world_size() - 1) % p.world_size();
                    world.send(p, next, 0, &[p.world_rank() as u64]);
                    let _ = world.recv::<u64>(p, Src::Rank(prev), TagSel::Is(0));
                    world.barrier(p);
                })
                .unwrap();
            extract(&rec.freeze()).to_json()
        };
        assert_eq!(run(), run());
    }
}
