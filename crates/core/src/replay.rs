//! Counterfactual replay: re-time a recorded [`CommLog`] under an
//! altered machine model.
//!
//! The recorder froze *what happened*: every send, every matched receive,
//! every collective round, every jittered compute interval, with integer
//! nanosecond timestamps. This module answers *what would have happened*
//! under a different pricing — a free or different network, zero jitter,
//! one wait-state class nulled out, a section's work scaled — without
//! re-running the program: the recorded matching and causal structure are
//! kept verbatim and only the time components are recomputed.
//!
//! The replay walks every rank's record sequence in program order and
//! rebuilds its clock:
//!
//! * **local gaps** (the time between a record's effect and the next
//!   record) are carried over as recorded — they are the application's
//!   own compute, which no network change can alter;
//! * **compute intervals** ([`RecKind::Compute`]) separately carry their
//!   jitter-free base duration, so `jitter=0` replays the work at base
//!   cost without re-pricing any kernel;
//! * **sends** re-charge the per-message CPU overhead of the altered
//!   machine;
//! * **receives** complete at `max(post', send') + residual`, where the
//!   residual is the recorded post-dependency remainder (wire + overhead)
//!   when the network is kept, or the altered machine's
//!   [`MachineModel::recv_done`] when it is re-priced;
//! * **collectives** rendezvous exactly as recorded (same member set,
//!   same rounds) and exit at `max(entries') + cost'`, with the cost
//!   either the recorded delta or the altered machine's
//!   [`MachineModel::collective_exit`].
//!
//! The engine charges every message and collective through those same
//! `MachineModel` methods and draws network jitter from the same
//! `machine::noise` streams in the same order; the replay regenerates the
//! jitter rather than storing it. An identity replay is therefore
//! *bitwise* identical to the recording, and a replay under an altered
//! machine to a run on it while every rank keeps its node-mates (replay
//! keeps the recorded compute; a run re-prices memory contention).
//!
//! The result is a fresh [`CommLog`], so every downstream analysis —
//! wait-state classification, critical-path extraction, the windowed
//! timeline and the trend detector — runs unchanged on the counterfactual
//! trace.

use crate::fasthash::FastMap;
use crate::waitstate::{
    CollRound, CollTable, CommLog, RankRecs, Rec, RecKind, Recorded, SendSlot, SendTable,
};
use crate::whatif::{WaitClass, WhatIfSpec};
use machine::{DetRng, MachineModel, NoiseModel, RankStream, VTime};
use mpisim::message::{seq_of, seq_parts};
use mpisim::CommId;
use std::sync::Arc;

/// Replay `log` under the scenario described by `spec`.
///
/// `recorded` must be the machine model the log was recorded under and
/// `seed` the recording seed — both are needed to separate (and, for
/// altered networks, to regenerate) the priced components of the trace.
/// A scenario that re-times a clock past `u64` nanoseconds (≈ 584 years)
/// is an error naming its `scale:` clauses.
pub fn replay(
    log: &CommLog,
    recorded: &MachineModel,
    seed: u64,
    spec: &WhatIfSpec,
) -> Result<CommLog, String> {
    // Resolve section-scale labels against the recorded label table.
    let mut scale: Vec<Option<f64>> = vec![None; log.labels.len()];
    for (label, k) in &spec.scale {
        match log.section(label) {
            Some(id) => scale[id as usize] = Some(*k),
            None => {
                let names: Vec<&str> = log.labels.iter().map(|l| l.name()).collect();
                return Err(format!(
                    "what-if scale: section '{label}' not in the recorded run \
                     (sections: {})",
                    names.join(", ")
                ));
            }
        }
    }

    let mut states: Vec<RankState> = log
        .run
        .ranks
        .iter()
        .enumerate()
        .map(|(rank, rr)| RankState {
            at: 0,
            now: VTime::ZERO,
            prev_effect: 0,
            prev_sec: rr.iter().next().map_or(0, |r| r.sec),
            coll_enter: None,
            net_rng: DetRng::for_rank(seed, rank, RankStream::Network),
            sent: 0,
        })
        .collect();
    let mut sh = Shared {
        ranks: vec![RankRecs::default(); states.len()],
        ..Shared::default()
    };
    let ctx = Ctx {
        log,
        recorded,
        seed,
        altered: altered(recorded, spec)?,
        null: spec.null,
        zero_jitter: spec.zero_jitter,
        scale,
    };

    // Deterministic worklist: sweep the ranks in order, each advancing as
    // far as its dependencies allow, until everyone finalized. A full
    // sweep without progress means the log's dependencies are cyclic
    // (a corrupted or truncated recording), not a scenario effect.
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for (rank, state) in states.iter_mut().enumerate() {
            while state.at < log.run.ranks[rank].end() {
                if step(rank, state, &mut sh, &ctx) {
                    progressed = true;
                } else {
                    break;
                }
            }
            all_done &= state.at >= log.run.ranks[rank].end();
        }
        if all_done {
            break;
        }
        if !progressed {
            return Err(
                "what-if replay stalled: recorded dependencies do not close \
                        (truncated or inconsistent log)"
                    .to_string(),
            );
        }
    }
    // Clocks saturate, so a clock that left the range ends at the top;
    // only scaling local work up can take it there.
    if states.iter().any(|s| s.now == VTime::MAX) {
        let clauses = spec.raw.split(',').map(str::trim);
        let scales: Vec<&str> = clauses.filter(|c| c.starts_with("scale:")).collect();
        return Err(format!(
            "the re-timed clock passes 2^64 ns (584 years) under {}",
            scales.join(",")
        ));
    }

    Ok(CommLog {
        run: Arc::new(Recorded {
            ranks: sh.ranks,
            sends: sh.sends,
            colls: sh.colls,
        }),
        labels: log.labels.clone(),
    })
}

/// The machine a scenario re-prices messages and collectives on: the
/// recorded one with the network, rank placement and noise of the `net=`
/// machine, and no noise under `jitter=0` (a replay draws latency jitter
/// only; compute keeps its recorded intervals). `None` keeps every
/// recorded network delta (bitwise identity).
fn altered(recorded: &MachineModel, spec: &WhatIfSpec) -> Result<Option<MachineModel>, String> {
    if spec.net.is_none() && !spec.zero_jitter {
        return Ok(None);
    }
    let mut m = recorded.clone();
    if let Some(name) = &spec.net {
        let net = machine::presets::by_name(name)?;
        (m.network, m.topology, m.noise) = (net.network, net.topology, net.noise);
    }
    if spec.zero_jitter {
        m.noise = NoiseModel::NONE;
    }
    Ok(Some(m))
}

/// Per-rank replay cursor.
struct RankState {
    /// Offset of the next record to replay in the rank's recorded log.
    at: usize,
    now: VTime,
    /// Recorded effect time of the previous record (the point its local
    /// follow-up gap is measured from).
    prev_effect: u64,
    /// Section owning the gap before the next record.
    prev_sec: u32,
    /// Re-timed collective entry, registered on first arrival at the
    /// current record (cleared when the round exits).
    coll_enter: Option<VTime>,
    /// The rank's network stream: the engine drew one latency jitter
    /// from it per matched receive, in program order.
    net_rng: DetRng,
    /// The number of the rank's next send: one past its last replayed
    /// send's (a `Send` record does not store its message's number).
    sent: u64,
}

impl RankState {
    /// The re-timed clock once the local gap up to recorded time `t_ns`
    /// has passed.
    fn after_gap(&self, ctx: &Ctx<'_>, t_ns: u64) -> VTime {
        self.now + ctx.scaled(t_ns.saturating_sub(self.prev_effect), self.prev_sec)
    }
}

/// Cross-rank replay state.
#[derive(Default)]
struct Shared {
    /// Members arrived so far per pending collective round.
    pending: CollTable,
    /// Re-timed exit per completed collective round.
    exits: FastMap<(CommId, u64), VTime>,
    /// The re-timed records, by rank.
    ranks: Vec<RankRecs>,
    /// The re-timed sends: a slot names its `Send` record in
    /// [`Shared::ranks`], whose time is the re-timed send end; the receive
    /// marks the slot if the scenario lets it see the message at its post.
    sends: SendTable,
    colls: CollTable,
}

struct Ctx<'a> {
    log: &'a CommLog,
    recorded: &'a MachineModel,
    seed: u64,
    /// The machine messages and collectives are re-priced on; `None`
    /// keeps the recorded network deltas.
    altered: Option<MachineModel>,
    null: Option<WaitClass>,
    zero_jitter: bool,
    /// Scale factor by section id.
    scale: Vec<Option<f64>>,
}

impl Ctx<'_> {
    /// Scale a local gap by the owning section's factor (exact at k = 1;
    /// saturating past the clock's range).
    fn scaled(&self, gap: u64, sec: u32) -> VTime {
        match self.scale[sec as usize] {
            None => VTime(gap),
            Some(k) => VTime((gap as f64 * k).round() as u64),
        }
    }

    /// The machine a send's overhead is charged on.
    fn pricing(&self) -> &MachineModel {
        self.altered.as_ref().unwrap_or(self.recorded)
    }
}

/// Advance one rank by one record. Returns false when blocked on a
/// dependency another rank has not yet produced.
fn step(rank: usize, st: &mut RankState, sh: &mut Shared, ctx: &Ctx<'_>) -> bool {
    let (rec, next) = ctx.log.run.ranks[rank].get(st.at);
    match rec.kind {
        RecKind::Enter { .. } | RecKind::Leave { .. } | RecKind::Fini => {
            st.now = st.after_gap(ctx, rec.t_ns);
            let out = &mut sh.ranks[rank];
            out.push(Rec {
                t_ns: st.now.0,
                sec: rec.sec,
                kind: rec.kind,
            });
            if matches!(rec.kind, RecKind::Fini) {
                out.fini_ns = st.now.0;
            }
            st.prev_effect = rec.t_ns;
        }
        RecKind::Compute {
            base_ns,
            elapsed_ns,
        } => {
            st.now = st.after_gap(ctx, rec.t_ns);
            let applied = if ctx.zero_jitter { base_ns } else { elapsed_ns };
            let applied = ctx.scaled(applied, rec.sec);
            sh.ranks[rank].push(Rec {
                t_ns: st.now.0,
                sec: rec.sec,
                kind: RecKind::Compute {
                    base_ns,
                    elapsed_ns: applied.0,
                },
            });
            st.now += applied;
            st.prev_effect = rec.t_ns + elapsed_ns;
        }
        RecKind::Send { dst_world, .. } => {
            let dst = dst_world as usize;
            // The recorded timestamp is the *enqueue end* — the call time
            // plus the sender-side overhead; split the overhead out so an
            // altered link can re-charge it.
            let ovh_rec = ctx.recorded.send_overhead(rank, dst);
            let pre_rec = rec.t_ns.saturating_sub(ovh_rec.0);
            st.now = st.after_gap(ctx, pre_rec) + ctx.pricing().send_overhead(rank, dst);
            let out = &mut sh.ranks[rank];
            // The message's number is its slot's in the recorded table.
            if let Some(n) = ctx.log.run.sends.number(rank, st.at, st.sent) {
                sh.sends.insert(seq_of(rank, n), SendSlot::new(out.end()));
                st.sent = n + 1;
            }
            out.push(Rec {
                t_ns: st.now.0,
                sec: rec.sec,
                kind: rec.kind,
            });
            st.prev_effect = rec.t_ns;
        }
        RecKind::RecvMatch { seq, done_ns } => {
            let post_ns = rec.t_ns;
            let recorded = ctx.log.run.sent(seq, post_ns);
            let replayed = sh.sends.get(seq);
            // The matching send has a record in the log but has not
            // replayed yet: wait for it. A send absent from the log
            // altogether (never recorded) imposes no dependency.
            if replayed.is_none() && recorded.is_some() {
                return false;
            }
            let sender = seq_parts(seq).0;
            let send_new = replayed.map(|slot| VTime(sh.ranks[sender].get(slot.rec()).0.t_ns));
            let post_new = st.after_gap(ctx, post_ns);
            // Null semantics act on the *availability* the receiver sees;
            // the receive then sees the message issued at its post, which
            // its slot records, so the class reads zero when the re-timed
            // trace is re-classified.
            let (send_eff, at_post) = match (ctx.null, send_new) {
                (Some(WaitClass::LateSender), Some(s)) if s > post_new => (post_new, true),
                (Some(WaitClass::LateReceiver), Some(s)) if s < post_new => (s, true),
                (_, Some(s)) => (s, false),
                (_, None) => (post_new, false),
            };
            if let Some(slot) = replayed.filter(|_| at_post) {
                sh.sends.insert(seq, slot.seen_at_post());
            }
            let done_new = match &ctx.altered {
                Some(m) => {
                    let bytes = recorded.map_or(0, |s| s.bytes);
                    m.recv_done(sender, rank, bytes, send_eff, post_new, &mut st.net_rng)
                }
                None => {
                    let sent_ns = recorded.map_or(post_ns, |s| s.issued_ns);
                    post_new.max(send_eff) + VTime(done_ns.saturating_sub(post_ns.max(sent_ns)))
                }
            };
            sh.ranks[rank].push(Rec {
                t_ns: post_new.0,
                sec: rec.sec,
                kind: RecKind::RecvMatch {
                    seq,
                    done_ns: done_new.0,
                },
            });
            st.now = done_new;
            st.prev_effect = done_ns;
        }
        RecKind::CollExit {
            comm,
            round,
            enter_ns,
        } => {
            // A round absent from the log is an inconsistent recording:
            // the rank never passes it and the replay reports the stall.
            let Some(cr) = ctx.log.run.colls.get(&(comm, round)) else {
                return false;
            };
            // The first visit registers the arrival; a blocked rank comes
            // back to the same record until the round is complete.
            let first_visit = st.coll_enter.is_none();
            let enter_new = st.coll_enter.unwrap_or_else(|| st.after_gap(ctx, enter_ns));
            st.coll_enter = Some(enter_new);
            let retimed = |mut round: CollRound| {
                (round.op, round.bytes) = (cr.op, cr.bytes);
                round
            };
            let (round_new, exit_new) = if ctx.null == Some(WaitClass::WaitAtCollective) {
                // Counterfactual desynchronization: every member pays the
                // operation cost from its own arrival, nobody waits. Each
                // exit gets a singleton round so re-classification sees
                // zero rendezvous wait.
                let round_new = round * ctx.log.run.ranks.len() as u64 + rank as u64;
                let mut alone = CollRound::default();
                alone.enter(rank, enter_new.0, sh.ranks[rank].end());
                sh.colls.insert((comm, round_new), retimed(alone));
                (
                    round_new,
                    coll_exit(ctx, cr, (comm, round), enter_new, rec.t_ns),
                )
            } else if let Some(&exit) = sh.exits.get(&(comm, round)) {
                (round, exit)
            } else {
                let arrived = sh.pending.entry((comm, round)).or_default();
                if first_visit {
                    arrived.enter(rank, enter_new.0, sh.ranks[rank].end());
                }
                if arrived.entries.len() < cr.entries.len().max(1) {
                    return false;
                }
                let arrived = sh.pending.remove(&(comm, round)).unwrap_or_default();
                let last_in = arrived.last.map_or(enter_new, |(_, t, _)| VTime(t));
                let exit = coll_exit(ctx, cr, (comm, round), last_in, rec.t_ns);
                sh.exits.insert((comm, round), exit);
                sh.colls.insert((comm, round), retimed(arrived));
                (round, exit)
            };
            st.coll_enter = None;
            sh.ranks[rank].push(Rec {
                t_ns: exit_new.0,
                sec: rec.sec,
                kind: RecKind::CollExit {
                    comm,
                    round: round_new,
                    enter_ns: enter_new.0,
                },
            });
            st.now = exit_new;
            st.prev_effect = rec.t_ns;
        }
    }
    st.prev_sec = rec.sec;
    st.at = next;
    true
}

/// The re-timed exit of recorded round `cr` (`key` = comm and round)
/// whose last member entered at `last_in`: the altered machine's price
/// on the round's own jitter stream, or the recorded post-rendezvous
/// delta when the network is kept.
fn coll_exit(
    ctx: &Ctx<'_>,
    cr: &CollRound,
    (comm, round): (CommId, u64),
    last_in: VTime,
    exit_rec_ns: u64,
) -> VTime {
    match &ctx.altered {
        Some(m) => {
            let members: Vec<usize> = cr.entries.iter().map(|&(r, _)| r).collect();
            let spans = m.topology.spans_nodes(&members);
            let mut rng = DetRng::for_collective(ctx.seed, comm.0, round);
            m.collective_exit(cr.op, members.len(), spans, cr.bytes, last_in, &mut rng)
        }
        None => {
            let last_rec = cr.last.map_or(exit_rec_ns, |(_, t, _)| t);
            last_in + VTime(exit_rec_ns.saturating_sub(last_rec))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waitstate::{classify, CommRecorder};
    use crate::{SectionRuntime, VerifyMode};
    use mpisim::{Src, TagSel, WorldBuilder};
    use std::sync::Arc;

    fn pipeline_log(machine: MachineModel, seed: u64) -> CommLog {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let rec = CommRecorder::new();
        let s = sections.clone();
        WorldBuilder::new(4)
            .machine(machine)
            .seed(seed)
            .tool(sections.clone())
            .tool(rec.clone())
            .run(move |p| {
                let world = p.world();
                for _ in 0..5 {
                    s.scoped(p, &world, "STEP", |p| {
                        let world = p.world();
                        p.compute(machine::Work::new(1e7, 1e6));
                        let next = (p.world_rank() + 1) % p.world_size();
                        let prev = (p.world_rank() + p.world_size() - 1) % p.world_size();
                        world.send(p, next, 3, &[7u8; 256]);
                        let _ = world.recv::<u8>(p, Src::Rank(prev), TagSel::Is(3));
                    });
                    s.scoped(p, &world, "SYNC", |p| {
                        let world = p.world();
                        let _ = world.allreduce(p, vec![p.world_rank() as u64], |a, b| a + b);
                    });
                }
            })
            .unwrap();
        rec.freeze()
    }

    #[test]
    fn identity_replay_is_bitwise_exact() {
        let log = pipeline_log(machine::presets::nehalem_cluster(), 11);
        let re = replay(
            &log,
            &machine::presets::nehalem_cluster(),
            11,
            &WhatIfSpec::identity(),
        )
        .unwrap();
        assert_eq!(re.makespan_ns(), log.makespan_ns());
        assert_eq!(classify(&re).to_json(), classify(&log).to_json());
        assert_eq!(
            crate::critpath::extract(&re).to_json(),
            crate::critpath::extract(&log).to_json()
        );
    }

    #[test]
    fn repriced_identity_network_matches_recording() {
        // Repricing with the recorded machine's own parameters and the
        // regenerated jitter streams must also be exact: this pins the
        // jitter regeneration (streams, draw order) to the engine.
        let m = machine::presets::nehalem_cluster();
        let log = pipeline_log(m.clone(), 7);
        let spec = crate::whatif::parse("net=nehalem").unwrap();
        let re = replay(&log, &m, 7, &spec).unwrap();
        assert_eq!(re.makespan_ns(), log.makespan_ns());
        assert_eq!(classify(&re).to_json(), classify(&log).to_json());
    }

    #[test]
    fn ideal_network_never_slows_the_run() {
        let m = machine::presets::nehalem_cluster();
        let log = pipeline_log(m.clone(), 3);
        let spec = crate::whatif::parse("net=ideal").unwrap();
        let re = replay(&log, &m, 3, &spec).unwrap();
        assert!(re.makespan_ns() <= log.makespan_ns());
    }

    #[test]
    fn null_late_sender_clears_the_class() {
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
                        p.advance_secs(2.0);
                        world.send(p, 0, 0, &[1u8]);
                    }
                });
            })
            .unwrap();
        let log = rec.freeze();
        assert!(classify(&log).totals().late_sender_ns > 1_000_000_000);
        let spec = crate::whatif::parse("null=late-sender").unwrap();
        let re = replay(&log, &machine::presets::ideal(), 1, &spec).unwrap();
        assert_eq!(classify(&re).totals().late_sender_ns, 0);
        // The receiver no longer idles, so its own timeline collapses; the
        // sender still computes 2 s, which keeps the makespan pinned.
        assert!(re.run.ranks[0].fini_ns < log.run.ranks[0].fini_ns);
        assert!(re.makespan_ns() >= 2_000_000_000);
    }

    #[test]
    fn null_wait_at_collective_clears_the_class() {
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
        let log = rec.freeze();
        assert!(classify(&log).totals().coll_wait_ns > 2_500_000_000);
        let spec = crate::whatif::parse("null=wait-at-collective").unwrap();
        let re = replay(&log, &machine::presets::ideal(), 1, &spec).unwrap();
        assert_eq!(classify(&re).totals().coll_wait_ns, 0);
        // The straggler's compute still dominates the makespan.
        assert!(re.makespan_ns() >= 1_000_000_000);
    }

    #[test]
    fn scale_shrinks_the_named_section_only() {
        let m = machine::presets::ideal();
        let log = pipeline_log(m.clone(), 1);
        let spec = crate::whatif::parse("scale:STEP=0.5").unwrap();
        let re = replay(&log, &m, 1, &spec).unwrap();
        assert!(
            re.makespan_ns() < log.makespan_ns(),
            "halving STEP work must shrink the run: {} vs {}",
            re.makespan_ns(),
            log.makespan_ns()
        );
        let unknown = crate::whatif::parse("scale:NOPE=0.5").unwrap();
        let err = replay(&log, &m, 1, &unknown).err().unwrap();
        assert!(err.contains("NOPE"), "{err}");
    }

    #[test]
    fn replay_is_deterministic() {
        let m = machine::presets::nehalem_cluster();
        let log = pipeline_log(m.clone(), 5);
        let spec = crate::whatif::parse("jitter=0").unwrap();
        let a = replay(&log, &m, 5, &spec).unwrap();
        let b = replay(&log, &m, 5, &spec).unwrap();
        assert_eq!(a.makespan_ns(), b.makespan_ns());
        assert_eq!(classify(&a).to_json(), classify(&b).to_json());
        let _ = Arc::strong_count(&Arc::new(()));
    }
}
