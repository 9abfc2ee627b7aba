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
//! * **sends** re-charge the (possibly altered) per-message CPU overhead;
//! * **receives** complete at `max(post', send') + residual`, where the
//!   residual is the recorded post-dependency remainder (wire + overhead)
//!   under the identity network, or a re-priced `transfer + jitter +
//!   overhead` under an altered one;
//! * **collectives** rendezvous exactly as recorded (same member set,
//!   same rounds) and exit at `max(entries') + cost'`, with the cost
//!   either the recorded delta or re-priced through the same cost
//!   formulas the engine used ([`collective_base_secs`]).
//!
//! Determinism carries over: network jitter is *regenerated*, not stored
//! — the engine draws one exponential per matched receive from the
//! per-rank `(seed, rank, NETWORK)` stream and one per collective round
//! from the `(seed ^ ns, comm, round)` stream, so the replay re-derives
//! the exact recorded values (and re-prices them under a different jitter
//! mean without losing stream alignment). An identity replay is therefore
//! *bitwise* identical to the recording — the pinned invariant that keeps
//! every counterfactual trustworthy.
//!
//! The result is a fresh [`CommLog`], so every downstream analysis —
//! wait-state classification, critical-path extraction, the windowed
//! timeline and the trend detector — runs unchanged on the counterfactual
//! trace.

use crate::fasthash::FastMap;
use crate::waitstate::{
    index_u32, CollRound, CollTable, CommLog, RankRecs, Rec, RecKind, Recorded, SendInfo, SendTable,
};
use crate::whatif::{WaitClass, WhatIfSpec};
use machine::noise::NoiseModel;
use machine::{CollectiveCost, DetRng, MachineModel, NetworkModel, Topology, VTime};
use mpisim::message::seq_parts;
use mpisim::CommId;
use std::sync::Arc;

/// mpisim's per-rank network random stream (`proc::streams::NETWORK`).
const NETWORK_STREAM: u64 = 1;
/// mpisim's collective jitter stream namespace (see `Comm::sync`).
const COLLECTIVE_NAMESPACE: u64 = 0x636f_6c6c_6563_7469;

/// Replay `log` under the scenario described by `spec`.
///
/// `recorded` must be the machine model the log was recorded under and
/// `seed` the recording seed — both are needed to separate (and, for
/// altered networks, to regenerate) the priced components of the trace.
pub fn replay(
    log: &CommLog,
    recorded: &MachineModel,
    seed: u64,
    spec: &WhatIfSpec,
) -> Result<CommLog, String> {
    // Resolve section-scale labels against the recorded label table.
    let mut scale: Vec<Option<f64>> = vec![None; log.names.len()];
    for (label, k) in &spec.scale {
        match log.names.iter().position(|n| n == label) {
            Some(id) => scale[id] = Some(*k),
            None => {
                return Err(format!(
                    "what-if scale: section '{label}' not in the recorded run \
                     (sections: {})",
                    log.names.join(", ")
                ))
            }
        }
    }

    // Resolve the network pricing. `None` keeps every recorded network
    // delta (bitwise identity); `Some` re-prices messages and collectives.
    let net = resolve_net(recorded, spec)?;

    // Regenerate each rank's receive-jitter stream up front: the engine
    // drew exactly one exponential per matched receive, in program order.
    let recv_jitter: Vec<Vec<f64>> = match &net {
        Some(n) => log
            .run
            .ranks
            .iter()
            .enumerate()
            .map(|(r, rr)| {
                let mut rng = DetRng::for_stream(seed, r as u64, NETWORK_STREAM);
                rr.iter()
                    .filter(|rec| matches!(rec.kind, RecKind::RecvMatch { .. }))
                    .map(|_| n.noise.latency_jitter(&mut rng))
                    .collect()
            })
            .collect(),
        None => Vec::new(),
    };

    let nranks = log.run.ranks.len();
    let mut states: Vec<RankState> = log
        .run
        .ranks
        .iter()
        .map(|rr| RankState {
            idx: 0,
            recv_seen: 0,
            now: 0,
            prev_effect: 0,
            prev_sec: rr.iter().next().map_or(0, |r| r.sec),
            coll_enter: None,
            out: RankRecs::default(),
        })
        .collect();
    let mut sh = Shared::default();
    let ctx = Ctx {
        log,
        recorded,
        seed,
        net,
        null: spec.null,
        zero_jitter: spec.zero_jitter,
        scale,
        recv_jitter,
        nranks,
    };

    // Deterministic worklist: sweep the ranks in order, each advancing as
    // far as its dependencies allow, until everyone finalized. A full
    // sweep without progress means the log's dependencies are cyclic
    // (a corrupted or truncated recording), not a scenario effect.
    loop {
        let mut progressed = false;
        let mut all_done = true;
        for (rank, state) in states.iter_mut().enumerate() {
            while state.idx < log.run.ranks[rank].len() {
                if step(rank, state, &mut sh, &ctx) {
                    progressed = true;
                } else {
                    break;
                }
            }
            all_done &= state.idx >= log.run.ranks[rank].len();
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

    Ok(CommLog {
        run: Arc::new(Recorded {
            ranks: states.into_iter().map(|s| s.out).collect(),
            sends: sh.sends,
            colls: sh.colls,
        }),
        names: log.names.clone(),
    })
}

/// The collective base-cost map of the engine (`Comm::sync` call sites),
/// reproduced so a replay can re-price a recorded round under another
/// link. `total` is the byte total declared by all participants.
pub fn collective_base_secs(cc: &CollectiveCost<'_>, op: &str, total: u64, psize: usize) -> f64 {
    let total = total as usize;
    match op {
        "barrier" | "split.exchange" | "split.create" => cc.barrier(),
        "bcast" => cc.bcast(total),
        "scatterv" => cc.scatter(total),
        "gatherv" => cc.gather(total),
        "allgather" => cc.allgather(total / psize.max(1)),
        "reduce" => cc.reduce(total / psize.max(1)),
        "allreduce" => cc.allreduce(total / psize.max(1)),
        "alltoall" => cc.alltoall(total / (psize * psize).max(1)),
        "exscan" | "scan" => cc.scan(total / psize.max(1)),
        "reduce_scatter" => cc.allreduce(total / (psize * psize).max(1)),
        _ => 0.0,
    }
}

/// An altered network pricing: links, rank placement, and the jitter
/// model to regenerate message/collective noise under.
struct NetPricing {
    network: NetworkModel,
    topology: Topology,
    noise: NoiseModel,
}

fn resolve_net(recorded: &MachineModel, spec: &WhatIfSpec) -> Result<Option<NetPricing>, String> {
    if spec.net.is_none() && !spec.zero_jitter {
        return Ok(None);
    }
    let (network, topology, mean) = match spec.net.as_deref() {
        None => (
            recorded.network,
            recorded.topology,
            recorded.noise.net_latency_jitter_mean,
        ),
        Some("ideal") => (NetworkModel::FREE, recorded.topology, 0.0),
        Some(name) => {
            let m = machine::presets::by_name(name)?;
            (m.network, m.topology, m.noise.net_latency_jitter_mean)
        }
    };
    let mean = if spec.zero_jitter { 0.0 } else { mean };
    Ok(Some(NetPricing {
        network,
        topology,
        noise: NoiseModel {
            compute_sigma: 0.0,
            net_latency_jitter_mean: mean,
        },
    }))
}

/// Per-rank replay cursor.
struct RankState {
    idx: usize,
    recv_seen: usize,
    now: u64,
    /// Recorded effect time of the previous record (the point its local
    /// follow-up gap is measured from).
    prev_effect: u64,
    /// Section owning the gap before the next record.
    prev_sec: u32,
    /// Re-timed collective entry, registered on first arrival at the
    /// current record (cleared when the round exits).
    coll_enter: Option<u64>,
    /// The re-timed records.
    out: RankRecs,
}

/// Cross-rank replay state.
#[derive(Default)]
struct Shared {
    /// Members arrived so far per pending collective round.
    pending: CollTable,
    /// Re-timed exit per completed collective round.
    exits: FastMap<(CommId, u64), u64>,
    /// The re-timed sends. Until its receive replays, an entry's
    /// `send_ns` is the re-timed send end; the receive then stores what
    /// the scenario lets the receiver see.
    sends: SendTable,
    colls: CollTable,
}

struct Ctx<'a> {
    log: &'a CommLog,
    recorded: &'a MachineModel,
    seed: u64,
    net: Option<NetPricing>,
    null: Option<WaitClass>,
    zero_jitter: bool,
    /// Scale factor by section id.
    scale: Vec<Option<f64>>,
    recv_jitter: Vec<Vec<f64>>,
    nranks: usize,
}

impl Ctx<'_> {
    /// Scale a local gap by the owning section's factor (exact at k = 1).
    fn scaled(&self, gap: u64, sec: u32) -> u64 {
        match self.scale[sec as usize] {
            None => gap,
            Some(k) => (gap as f64 * k).round() as u64,
        }
    }

    /// Per-message CPU overhead in integer ns under `net` (`None` = the
    /// recorded machine), for a message between two world ranks.
    fn overhead_ns(&self, net: Option<&NetPricing>, a: usize, b: usize) -> u64 {
        let (network, topology) = match net {
            Some(n) => (&n.network, &n.topology),
            None => (&self.recorded.network, &self.recorded.topology),
        };
        let link = network.link(topology.node_of(a), topology.node_of(b));
        VTime::from_secs_f64(link.overhead).as_nanos()
    }
}

/// Advance one rank by one record. Returns false when blocked on a
/// dependency another rank has not yet produced.
fn step(rank: usize, st: &mut RankState, sh: &mut Shared, ctx: &Ctx<'_>) -> bool {
    let rec = ctx.log.run.ranks[rank].get(st.idx);
    match rec.kind {
        RecKind::Boundary | RecKind::Fini => {
            st.now += ctx.scaled(rec.t_ns.saturating_sub(st.prev_effect), st.prev_sec);
            st.out.push(Rec {
                t_ns: st.now,
                sec: rec.sec,
                kind: rec.kind,
            });
            if matches!(rec.kind, RecKind::Fini) {
                st.out.fini_ns = st.now;
            }
            st.prev_effect = rec.t_ns;
        }
        RecKind::Compute {
            base_ns,
            elapsed_ns,
        } => {
            st.now += ctx.scaled(rec.t_ns.saturating_sub(st.prev_effect), st.prev_sec);
            let applied = if ctx.zero_jitter { base_ns } else { elapsed_ns };
            let applied = ctx.scaled(applied, rec.sec);
            st.out.push(Rec {
                t_ns: st.now,
                sec: rec.sec,
                kind: RecKind::Compute {
                    base_ns,
                    elapsed_ns: applied,
                },
            });
            st.now += applied;
            st.prev_effect = rec.t_ns + elapsed_ns;
        }
        RecKind::Send { seq } => {
            let recorded = ctx.log.run.sends.get(seq);
            let (bytes, dst) = recorded.map_or((0, rank), |s| (s.bytes, s.dst_world as usize));
            // The recorded timestamp is the *enqueue end* — the call time
            // plus the sender-side overhead; split the overhead out so an
            // altered link can re-charge it.
            let ovh_rec = ctx.overhead_ns(None, rank, dst);
            let pre_rec = rec.t_ns.saturating_sub(ovh_rec);
            st.now += ctx.scaled(pre_rec.saturating_sub(st.prev_effect), st.prev_sec);
            st.now += ctx.overhead_ns(ctx.net.as_ref(), rank, dst);
            sh.sends.insert(
                seq,
                SendInfo {
                    send_ns: st.now,
                    bytes,
                    dst_world: index_u32(dst),
                    rec: index_u32(st.out.len()),
                },
            );
            st.out.push(Rec {
                t_ns: st.now,
                sec: rec.sec,
                kind: RecKind::Send { seq },
            });
            st.prev_effect = rec.t_ns;
        }
        RecKind::RecvMatch {
            seq,
            post_ns,
            done_ns,
        } => {
            let send_rec = ctx.log.run.sends.get(seq);
            let replayed = sh.sends.get(seq).copied();
            // The matching send has a record in the log but has not
            // replayed yet: wait for it. A send absent from the log
            // altogether (never recorded) imposes no dependency.
            if replayed.is_none() && send_rec.is_some() {
                return false;
            }
            let send_new = replayed.map(|s| s.send_ns);
            let post_new = st.now + ctx.scaled(post_ns.saturating_sub(st.prev_effect), st.prev_sec);
            // Null semantics act on the *availability* the receiver sees;
            // the stored send time is clamped the same way so the class
            // reads zero when the re-timed trace is re-classified.
            let (send_eff, stored) = match (ctx.null, send_new) {
                (Some(WaitClass::LateSender), Some(s)) => (s.min(post_new), s.min(post_new)),
                (Some(WaitClass::LateReceiver), Some(s)) => (s, s.max(post_new)),
                (_, Some(s)) => (s, s),
                (_, None) => (post_new, post_new),
            };
            if let Some(info) = replayed {
                let send_ns = stored;
                sh.sends.insert(seq, SendInfo { send_ns, ..info });
            }
            let done_new = match &ctx.net {
                Some(n) => {
                    let src = seq_parts(seq).0;
                    let bytes = send_rec.map_or(0, |s| s.bytes);
                    let link = n
                        .network
                        .link(n.topology.node_of(src), n.topology.node_of(rank));
                    let jitter = ctx.recv_jitter[rank][st.recv_seen];
                    let transfer = link.transfer_secs(bytes as usize) + jitter;
                    let arrival = send_eff + VTime::from_secs_f64(transfer).as_nanos();
                    post_new.max(arrival) + VTime::from_secs_f64(link.overhead).as_nanos()
                }
                None => {
                    let sent_ns = send_rec.map_or(post_ns, |s| s.send_ns);
                    let residual = done_ns.saturating_sub(post_ns.max(sent_ns));
                    post_new.max(send_eff) + residual
                }
            };
            st.recv_seen += 1;
            st.out.push(Rec {
                t_ns: post_new,
                sec: rec.sec,
                kind: RecKind::RecvMatch {
                    seq,
                    post_ns: post_new,
                    done_ns: done_new,
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
            // The first visit registers the arrival; a blocked rank comes
            // back to the same record until the round is complete.
            let first_visit = st.coll_enter.is_none();
            let enter_new = *st.coll_enter.get_or_insert_with(|| {
                st.now + ctx.scaled(enter_ns.saturating_sub(st.prev_effect), st.prev_sec)
            });
            let cr = ctx.log.run.colls.get(&(comm, round));
            let retimed = |mut round: CollRound| {
                (round.op, round.bytes) = cr.map_or(("", 0), |c| (c.op, c.bytes));
                round
            };
            let (round_new, exit_new) = if ctx.null == Some(WaitClass::WaitAtCollective) {
                // Counterfactual desynchronization: every member pays the
                // operation cost from its own arrival, nobody waits. Each
                // exit gets a singleton round so re-classification sees
                // zero rendezvous wait.
                let round_new = round * ctx.nranks as u64 + rank as u64;
                let mut alone = CollRound::default();
                alone.enter(rank, enter_new, st.out.len());
                sh.colls.insert((comm, round_new), retimed(alone));
                let cost = coll_cost_ns(ctx, comm, round, rec.t_ns);
                (round_new, enter_new + cost)
            } else if let Some(&exit) = sh.exits.get(&(comm, round)) {
                (round, exit)
            } else {
                let arrived = sh.pending.entry((comm, round)).or_default();
                if first_visit {
                    arrived.enter(rank, enter_new, st.out.len());
                }
                if arrived.entries.len() < cr.map_or(1, |c| c.entries.len().max(1)) {
                    return false;
                }
                let arrived = sh.pending.remove(&(comm, round)).unwrap_or_default();
                let max_enter = arrived.last.map_or(enter_new, |(_, t, _)| t);
                let exit = max_enter + coll_cost_ns(ctx, comm, round, rec.t_ns);
                sh.exits.insert((comm, round), exit);
                sh.colls.insert((comm, round), retimed(arrived));
                (round, exit)
            };
            st.coll_enter = None;
            st.out.push(Rec {
                t_ns: exit_new,
                sec: rec.sec,
                kind: RecKind::CollExit {
                    comm,
                    round: round_new,
                    enter_ns: enter_new,
                },
            });
            st.now = exit_new;
            st.prev_effect = rec.t_ns;
        }
    }
    st.prev_sec = rec.sec;
    st.idx += 1;
    true
}

/// The re-timed cost of one collective round in integer ns: the recorded
/// post-rendezvous delta under the identity network, or the re-priced
/// formula cost plus regenerated jitter under an altered one.
fn coll_cost_ns(ctx: &Ctx<'_>, comm: CommId, round: u64, exit_rec_ns: u64) -> u64 {
    let cr = ctx.log.run.colls.get(&(comm, round));
    match &ctx.net {
        Some(n) => {
            let members = cr.iter().flat_map(|c| &c.entries);
            let members: Vec<usize> = members.map(|&(r, _)| r).collect();
            let (op, total) = cr.map_or(("", 0), |c| (c.op, c.bytes));
            let psize = members.len().max(1);
            let spans = n.topology.spans_nodes(&members);
            let cc = CollectiveCost {
                link: n.network.span_link(spans),
                p: psize,
            };
            let base = collective_base_secs(&cc, op, total, psize);
            // Same stream the engine drew the round's jitter from.
            let mut rng = DetRng::for_stream(ctx.seed ^ COLLECTIVE_NAMESPACE, comm.0, round);
            let jitter = n.noise.latency_jitter(&mut rng);
            VTime::from_secs_f64(base + jitter).as_nanos()
        }
        None => {
            let last = cr.and_then(|c| c.last);
            exit_rec_ns.saturating_sub(last.map_or(exit_rec_ns, |(_, t, _)| t))
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
