//! The DES engine's fiber stacks, seen from outside the crate: one pooled
//! reservation per scheduler thread, reused by the worlds that fit it,
//! refused with a `RunError` when the host cannot map it, and guarded so
//! that an overflow ends the process at the overflow with a message.
#![cfg(all(target_arch = "x86_64", unix))]

use mpisim::{Engine, RunError, WorldBuilder};
use std::os::unix::process::ExitStatusExt;
use std::process::Command;
use std::sync::Barrier;

/// A world whose ranks each hold a frame across two collectives, so every
/// stack is live, suspended and resumed; returns the sum every rank saw.
fn ring_sum(p: usize, stack_size: usize) -> Vec<u64> {
    WorldBuilder::new(p)
        .engine(Engine::Des)
        .stack_size(stack_size)
        .run(|pr| {
            let world = pr.world();
            let mine = std::hint::black_box([pr.world_rank() as u64; 32]);
            world.barrier(pr);
            world.allreduce(pr, mine[..1].to_vec(), |a, b| a + b)[0]
        })
        .expect("world runs")
        .results
}

fn expected(p: usize) -> Vec<u64> {
    vec![(p * (p - 1) / 2) as u64; p]
}

#[test]
fn one_thread_runs_worlds_of_changing_size_and_stack_size() {
    for (p, stack_size) in [
        (64, 64 * 1024),
        (8, 64 * 1024),
        (64, 64 * 1024),
        (128, 64 * 1024),
        (128, 32 * 1024),
        (3, 0),
    ] {
        assert_eq!(
            ring_sum(p, stack_size),
            expected(p),
            "p = {p}, {stack_size} B"
        );
    }
}

#[test]
fn two_threads_run_worlds_at_the_same_time() {
    // Each thread maps its own pool; the barrier makes the first worlds,
    // and so the two reservations, overlap.
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for p in [48, 80] {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for _ in 0..8 {
                    assert_eq!(ring_sum(p, 32 * 1024), expected(p));
                }
            });
        }
    });
}

#[test]
fn an_unmappable_stack_size_is_a_run_error() {
    let refused = WorldBuilder::new(4)
        .engine(Engine::Des)
        .stack_size(usize::MAX)
        .run(|_| ())
        .expect_err("no such stack");
    assert!(
        matches!(&refused, RunError::StackReservation(why) if why.contains("too large")),
        "{refused}"
    );
    // The thread is still good for a world that fits.
    assert_eq!(ring_sum(4, 16 * 1024), expected(4));
}

/// One more stack than guards that split the reservation fit under the
/// default `vm.max_map_count` (65 530): where the kernel installs guard
/// pages in place the reservation is one mapping, and the world runs.
#[test]
fn a_world_past_the_split_guard_limit_runs_where_guards_install_in_place() {
    let p = 30_718;
    let run = WorldBuilder::new(p)
        .engine(Engine::Des)
        .stack_size(16 * 1024)
        .run(|pr| pr.world_rank());
    match run {
        Err(RunError::StackReservation(why)) if why.contains("vm.max_map_count") => {
            eprintln!("skipped: this kernel splits the reservation at each guard ({why})");
        }
        run => assert_eq!(run.expect("world runs").results, (0..p).collect::<Vec<_>>()),
    }
}

/// Set in the re-executed child of the overflow test.
const OVERFLOW_CHILD: &str = "MPISIM_TEST_STACK_OVERFLOW_CHILD";
const OVERFLOW_STACK: usize = 16 * 1024;
const FRAME_PAD: usize = 1024;

/// Recurse without bound, announcing each frame before descending. Every
/// frame holds `FRAME_PAD` live bytes, so the depth reached bounds the
/// stack consumed from below.
#[inline(never)]
#[allow(unconditional_recursion)]
fn descend(depth: usize) -> usize {
    let pad = std::hint::black_box([depth as u8; FRAME_PAD]);
    eprintln!("depth {depth}");
    descend(depth + 1) + usize::from(pad[depth % FRAME_PAD])
}

#[test]
fn overflow_faults_at_the_guard_with_a_message() {
    if std::env::var_os(OVERFLOW_CHILD).is_some() {
        // Ranks 0 and 1 park in the barrier — rank 1's frames sit directly
        // below rank 2's guard page — then rank 2 outgrows its stack.
        let _ = WorldBuilder::new(4)
            .engine(Engine::Des)
            .stack_size(OVERFLOW_STACK)
            .run(|pr| {
                if pr.world_rank() == 2 {
                    descend(0);
                }
                pr.world().barrier(pr);
            });
        unreachable!("the overflow ends the process");
    }
    let child = Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "--exact",
            "overflow_faults_at_the_guard_with_a_message",
            "--nocapture",
        ])
        .env(OVERFLOW_CHILD, "1")
        .output()
        .expect("re-exec the test binary");
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(
        child.status.signal().is_some(),
        "child should die by signal, got {:?}\n{stderr}",
        child.status
    );
    assert!(
        stderr.contains("mpisim: fiber stack overflow (raise the engine's stack size)"),
        "no overflow message in:\n{stderr}"
    );
    // The fault came before the recursion could have left its own stack:
    // the sibling below was never written to.
    let deepest = stderr
        .lines()
        .filter_map(|line| line.strip_prefix("depth ")?.parse::<usize>().ok())
        .max()
        .expect("at least one frame ran");
    assert!(
        deepest < OVERFLOW_STACK / FRAME_PAD,
        "depth {deepest} does not fit a {OVERFLOW_STACK}-byte stack"
    );
}
