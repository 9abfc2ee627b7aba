//! Deliberately broken SPMD programs, each with one provable fault: what
//! the engine must diagnose on its own (`errors.rs`) and diagnose the same
//! with a tool watching (`crates/mpicheck/tests/analyzer.rs`, which
//! includes this file by path).
//!
//! Every program fixes, through a message, which rank reaches the faulty
//! call first wherever that decides the report: equal-clock ranks run in
//! opposite orders on the two engines, and the reports must not differ.
#![allow(dead_code)] // each including test binary uses its own part

use mpisim::{Comm, CommId, Diagnostic, Engine, Proc, RunError, Src, TagSel, Tool, WorldBuilder};
use std::sync::Arc;

/// One SPMD body, as every rank runs it.
pub type Program = fn(&mut Proc);

/// `(name, world size, program)` of everything below: six deadlocks, then
/// two divergent collectives.
pub const ALL: [(&str, usize, Program); 8] = [
    ("cross_wait", 2, cross_wait),
    ("receive_cycle", 3, receive_cycle),
    ("survivors_cross_wait", 3, survivors_cross_wait),
    ("skipped_sub_barrier", 6, skipped_sub_barrier),
    ("receive_from_finalized", 2, receive_from_finalized),
    ("stuck_wildcard", 3, stuck_wildcard),
    ("sub_bcast_roots", 4, sub_bcast_roots),
    ("sub_barrier_vs_allreduce", 4, sub_barrier_vs_allreduce),
];

/// Run `program` on both engines with `tools()` attached; the one
/// diagnostic the run must fail with, the same on both.
pub fn diagnose(
    nranks: usize,
    program: Program,
    tools: impl Fn() -> Vec<Arc<dyn Tool>>,
) -> Diagnostic {
    let [des, threads] = [Engine::Des, Engine::Threads].map(|engine| {
        let builder = WorldBuilder::new(nranks).engine(engine);
        let builder = tools().into_iter().fold(builder, WorldBuilder::tool);
        match builder.run(program) {
            Err(RunError::Diagnosed(mut diags)) if diags.len() == 1 => diags.remove(0),
            other => panic!("{engine:?}: expected one diagnostic, got {other:?}"),
        }
    });
    assert_eq!(des, threads, "the engines report differently");
    des
}

/// Ranks of equal parity share a sub-communicator.
pub fn split_by_parity(p: &mut Proc) -> Comm {
    let color = (p.world_rank() % 2) as i32;
    p.world()
        .split(p, Some(color), 0)
        .expect("a color was given")
}

/// The id `split_by_parity` gives the sub-communicator of the even ranks
/// (ids are derived, not counted: the same in every world).
pub fn even_sub_id() -> CommId {
    let report = WorldBuilder::new(2).run(|p| split_by_parity(p).id());
    report.expect("a clean split").results[0]
}

/// Both ranks receive before they send.
pub fn cross_wait(p: &mut Proc) {
    let world = p.world();
    let peer = 1 - p.world_rank();
    let _ = world.recv::<u32>(p, Src::Rank(peer), TagSel::Is(0));
    world.send(p, peer, 0, &[1u32]);
}

/// Every rank waits for its right neighbour, which waits for its own.
pub fn receive_cycle(p: &mut Proc) {
    let world = p.world();
    let from = (p.world_rank() + 1) % world.size();
    let got = world.recv::<u8>(p, Src::Rank(from), TagSel::Any);
    world.send(p, from, 0, &got.data);
}

/// Rank 0 finishes; ranks 1 and 2 wait on each other.
pub fn survivors_cross_wait(p: &mut Proc) {
    let world = p.world();
    if p.world_rank() > 0 {
        let peer = 3 - p.world_rank();
        let _ = world.recv::<u8>(p, Src::Rank(peer), TagSel::Any);
    }
}

/// Rank 2 skips the barrier of the even ranks' sub-communicator and waits
/// for a message rank 0 sends only after that barrier. The odd ranks'
/// barrier completes.
pub fn skipped_sub_barrier(p: &mut Proc) {
    let world = p.world();
    let sub = split_by_parity(p);
    if p.world_rank() == 2 {
        let _ = world.recv::<u32>(p, Src::Rank(0), TagSel::Any);
    }
    sub.barrier(p);
    if p.world_rank() == 0 {
        world.send(p, 2, 0, &[7u32]);
    }
}

/// Rank 1 waits for a message from rank 0, which has returned.
pub fn receive_from_finalized(p: &mut Proc) {
    if p.world_rank() == 1 {
        let _ = p.world().recv::<u32>(p, Src::Rank(0), TagSel::Any);
    }
}

/// Rank 0 waits for anybody's message with a tag nobody sends.
pub fn stuck_wildcard(p: &mut Proc) {
    let world = p.world();
    if p.world_rank() == 0 {
        let _ = world.recv::<u32>(p, Src::Any, TagSel::Is(3));
    } else {
        world.send(p, 0, 4, &[0u32]);
    }
}

/// After one agreed barrier on each sub-communicator, both even ranks
/// broadcast as the root; the odd ranks agree on theirs.
pub fn sub_bcast_roots(p: &mut Proc) {
    let sub = split_by_parity(p);
    sub.barrier(p);
    enter_in_rank_order(p, &sub);
    let even = p.world_rank().is_multiple_of(2);
    let root = if even { sub.rank() } else { 0 };
    let data = (sub.rank() == root).then(|| vec![p.world_rank() as u64]);
    let _ = sub.bcast(p, root, data);
}

/// After one agreed barrier on each sub-communicator, world rank 0 enters
/// another barrier and world rank 2 an allreduce; the odd ranks agree on a
/// barrier.
pub fn sub_barrier_vs_allreduce(p: &mut Proc) {
    let sub = split_by_parity(p);
    sub.barrier(p);
    enter_in_rank_order(p, &sub);
    if p.world_rank() == 2 {
        let _ = sub.allreduce_sum_f64(p, 1.0);
    } else {
        sub.barrier(p);
    }
}

/// Local rank 1 of a two-member `sub` goes on only once local rank 0 has
/// sent to it, and rank 0 does not yield between that send and whatever it
/// calls next: rank 0 is there first on either engine.
fn enter_in_rank_order(p: &mut Proc, sub: &Comm) {
    if sub.rank() == 0 {
        sub.send(p, 1, 0, &[0u8]);
    } else {
        let _ = sub.recv::<u8>(p, Src::Rank(0), TagSel::Is(0));
    }
}
