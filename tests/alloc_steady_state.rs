//! Heap discipline, held by a count: run data is allocated once and never
//! per operation.
//!
//! This binary installs a counting global allocator (the
//! `benchmark/src/alloc.rs` precedent: everything forwards to `System`
//! unchanged) that tallies calls and bytes *on the calling thread*. The
//! assembly engine runs every rank of a world on the thread that launched
//! it, so a tally taken around `run` is the world's own and the tests of
//! this binary may run side by side. Steady-state cost is taken by the
//! two-point method: N and 2N iterations of the same world, difference
//! divided by p·N, which cancels launch, teardown and the first growth of
//! every table.
#![allow(unsafe_code)]

use bench::{profiled, Launch, Program};
use mpi_sections::{
    CommRecorder, InstanceStats, Profile, SectionProfiler, SectionRuntime, SectionStats, VerifyMode,
};
use mpisim::{Comm, Engine, Payload, Proc, WorldBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    // Const-initialised and without destructors: touching them from inside
    // the allocator allocates nothing and is sound at thread exit.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// pointers returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract is passed through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocator calls, bytes requested)` on this thread while `f` runs.
fn allocated<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = (CALLS.get(), BYTES.get());
    let out = f();
    (out, CALLS.get() - calls, BYTES.get() - bytes)
}

/// Ranks run on the launching thread only under the assembly switch.
fn ranks_run_here() -> bool {
    let here = cfg!(target_arch = "x86_64") && Engine::default_from_env() == Engine::Des;
    if !here {
        eprintln!("skipped: ranks run on their own threads here, a per-thread tally misses them");
    }
    here
}

const P: usize = 8;

/// Allocator calls per rank-step of `run(steps)` at p = 8, by the
/// two-point method.
fn calls_per_rank_step(steps: usize, run: impl Fn(usize)) -> f64 {
    let calls = |steps| allocated(|| run(steps)).1;
    let (once, twice) = (calls(steps), calls(2 * steps));
    (twice as f64 - once as f64) / (P * steps) as f64
}

/// `program` under the section profiler alone, on the KNL preset.
fn run_profiled(program: Program) {
    profiled(program, P, &machine::presets::knl(), 1).expect("run failed");
}

#[test]
fn a_lulesh_iteration_allocates_one_object_per_rank() {
    if !ranks_run_here() {
        return;
    }
    // 41.5 before neighbours were cached, thread loads iterated and the
    // scalar allreduce deposited an array. What is left is that deposit
    // (the slot's box, one per rank) and the generation's shared record
    // (three objects whatever p is: the record, the fold and its box; a
    // fourth, the next generation's slots, went when an earlier record's
    // were reused: 1.51 → 1.39 at p = 8).
    let per_step = calls_per_rank_step(200, |iters| {
        run_profiled(Program::Lulesh(lulesh_proxy::LuleshConfig::timing(
            6, iters, 4,
        )));
    });
    let bound = 1.0 + 3.0 / P as f64 + 0.05;
    assert!(
        per_step <= bound,
        "{per_step} allocations per rank-step (bound {bound})"
    );
}

#[test]
fn a_conv_step_allocates_nothing_but_amortised_growth() {
    if !ranks_run_here() {
        return;
    }
    let per_step = calls_per_rank_step(200, |steps| {
        run_profiled(Program::Conv(convolution::ConvConfig::paper(steps)));
    });
    assert!(per_step <= 0.05, "{per_step} allocations per rank-step");
}

/// A conv step under the recorder, which subscribes to `RecvMatched`: 1.76
/// while every observed receive collected a candidate list (two halo
/// receives a step, one at either end). A named source has no candidates
/// to report; what is left is the log's own amortised growth.
#[test]
fn an_observed_conv_step_allocates_no_candidate_list() {
    if !ranks_run_here() {
        return;
    }
    let per_step = calls_per_rank_step(200, |steps| drop(record_conv(steps)));
    assert!(per_step <= 0.05, "{per_step} allocations per rank-step");
}

/// Allocator calls per call of `op` in a `p`-rank world, by the two-point
/// method: the whole world's count, not one rank's.
fn calls_per_call(p: usize, op: impl Fn(&mut Proc, &Comm) + Send + Sync) -> f64 {
    const CALLS: usize = 40;
    let run = |calls: usize| {
        let (_, allocations, _) = allocated(|| {
            WorldBuilder::new(p)
                .run(|proc| {
                    let world = proc.world();
                    (0..calls).for_each(|_| op(proc, &world));
                })
                .expect("run failed")
        });
        allocations
    };
    let (once, twice) = (run(CALLS), run(2 * CALLS));
    (twice as f64 - once as f64) / CALLS as f64
}

/// A timing-mode collective allocates per call, never per rank: the
/// generation's record, for a scatter the root's parts in their box, and
/// for a gather the next generation's slots (the root took the last ones
/// as its result; every other collective's are an earlier record's,
/// reused). A gather boxed every rank's count while rendezvous
/// slots were boxes rather than payloads: p + 3 per call, 1027 at
/// p = 1024; each collective allocated its next slots until they were
/// reused (barrier 2, scatter 4).
#[test]
fn a_timing_mode_collective_allocates_nothing_per_rank() {
    if !ranks_run_here() {
        return;
    }
    let virtual_row = || Payload::virtual_elems::<f64>(16_848);
    for p in [64, 1024] {
        let gather = calls_per_call(p, |proc, world| {
            world.gatherv_payload(proc, 0, virtual_row());
        });
        let scatter = calls_per_call(p, |proc, world| {
            let parts =
                (world.rank() == 0).then(|| (0..world.size()).map(|_| virtual_row()).collect());
            world.scatterv_payload(proc, 0, parts);
        });
        let barrier = calls_per_call(p, |proc, world| world.barrier(proc));
        assert!(gather <= 2.0, "p = {p}: {gather} allocations per gather");
        assert!(scatter <= 3.0, "p = {p}: {scatter} allocations per scatter");
        assert!(barrier <= 1.0, "p = {p}: {barrier} allocations per barrier");
    }
}

/// `steps` of conv on the Nehalem preset under a recorder of its own.
fn record_conv(steps: usize) -> Arc<CommRecorder> {
    let machine = machine::presets::nehalem_cluster();
    let recorder = CommRecorder::new();
    let launch = Launch {
        program: Program::Conv(convolution::ConvConfig::paper(steps)),
        p: P,
        machine: &machine,
        seed: 1,
        engine: None,
        controller: None,
    };
    launch
        .run(
            &SectionRuntime::new(VerifyMode::Off),
            vec![recorder.clone()],
        )
        .expect("run failed");
    recorder
}

#[test]
fn freeze_hands_the_log_over() {
    // The recorder's callbacks may run anywhere; `freeze` runs here.
    let recorder = record_conv(100);
    let (log, _, first_bytes) = allocated(|| recorder.freeze());
    let (again, _, second_bytes) = allocated(|| recorder.freeze());
    let held = log.state_bytes() as u64;
    assert!(log.events() > 2000 && held > 60_000, "{held} B");
    assert_eq!(again.state_bytes(), log.state_bytes());
    // The label table and one vector header per rank are all a freeze
    // builds: nothing that grows with the run, the first time or the
    // second (which finds the log already shared).
    assert!(
        first_bytes * 100 <= held,
        "first freeze allocated {first_bytes} B for a {held} B log"
    );
    assert!(
        second_bytes <= first_bytes,
        "second freeze allocated {second_bytes} B, the first {first_bytes} B"
    );
}

/// Every per-instance and per-rank value a profile points to, copied out.
fn contents(profile: &Profile) -> Vec<(Vec<InstanceStats>, Vec<f64>, Vec<f64>)> {
    let copy = |s: &SectionStats| {
        (
            s.per_instance.to_vec(),
            s.per_rank_own.to_vec(),
            s.per_rank_excl.to_vec(),
        )
    };
    profile.sections().map(copy).collect()
}

/// Two ranks traverse 20 sections `iters` times under a profiler; with
/// `interrupt`, rank 0 snapshots half-way and the `Profile` (held through
/// the rest of the run, or dropped at once) comes back beside the profiler.
fn profile_twenty_sections(
    iters: usize,
    interrupt: Option<bool>,
) -> (Arc<SectionProfiler>, Option<Profile>) {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let profiler = SectionProfiler::new();
    sections.attach(profiler.clone());
    let labels: Vec<String> = (0..20).map(|i| format!("section{i:02}")).collect();
    let midway = Arc::new(std::sync::Mutex::new(None));
    let (s, tool, taken) = (sections.clone(), profiler.clone(), midway.clone());
    WorldBuilder::new(2)
        .tool(sections)
        .run(move |p| {
            let world = p.world();
            for iter in 0..iters {
                if p.world_rank() == 0 && iter == iters / 2 {
                    if let Some(hold) = interrupt {
                        let profile = tool.snapshot();
                        let seen = contents(&profile);
                        *taken.lock().unwrap() = Some((seen, hold.then_some(profile)));
                    }
                }
                for (i, label) in labels.iter().enumerate() {
                    s.scoped(p, &world, label, |p| {
                        p.advance_secs(1e-3 * (1 + i + p.world_rank()) as f64);
                    });
                }
            }
        })
        .expect("run failed");
    let (seen, held) = midway.lock().unwrap().take().unzip();
    let held: Option<Profile> = held.flatten();
    // Later leaves must not have reached what the snapshot returned.
    assert_eq!(held.as_ref().map(contents), seen.filter(|_| held.is_some()));
    (profiler, held)
}

#[test]
fn snapshot_hands_the_profile_over() {
    // `snapshot` runs here whatever thread the profiler's callbacks ran on.
    let snapshot_bytes = |iters| {
        let (profiler, _) = profile_twenty_sections(iters, None);
        let (profile, _, bytes) = allocated(|| profiler.snapshot());
        assert_eq!(
            profile.get_world("section07").unwrap().instances,
            iters as u64
        );
        (profiler, profile, bytes)
    };
    let (_, _, short) = snapshot_bytes(200);
    let (profiler, profile, long) = snapshot_bytes(2000);
    // Map nodes, keys and three `Arc` headers per section: nothing that
    // grows with the instances the profile holds (20 x 2000 x 128 B).
    assert!(long.abs_diff(short) <= 512, "{short} B vs {long} B");
    let held: usize = profile
        .sections()
        .map(|s| std::mem::size_of_val(&s.per_instance[..]))
        .sum();
    assert!(held > 5_000_000 && long * 100 <= held as u64, "{long} B");

    // An idle profiler's next snapshot shares the same storage.
    let again = profiler.snapshot();
    for (a, b) in profile.sections().zip(again.sections()) {
        assert!(Arc::ptr_eq(&a.per_instance, &b.per_instance));
        assert!(Arc::ptr_eq(&a.per_rank_own, &b.per_rank_own));
    }
    assert_eq!(profile, again);

    // `reset` lets go of the storage; the profile it was shared with stays.
    let before = contents(&profile);
    profiler.reset();
    assert_eq!(profiler.snapshot().sections().count(), 0);
    assert_eq!(contents(&profile), before);

    // A snapshot taken mid-run — held (the next leave copies) or dropped
    // (the next leave takes the storage back) — changes nothing the run
    // goes on to record.
    let uninterrupted = profile_twenty_sections(300, None).0.snapshot();
    for hold in [true, false] {
        let (profiler, held) = profile_twenty_sections(300, Some(hold));
        assert_eq!(held.is_some(), hold);
        assert_eq!(profiler.snapshot(), uninterrupted);
        // What was handed out is the earlier state, not a view of the run.
        assert!(held.is_none_or(|held| held != uninterrupted));
    }
}
