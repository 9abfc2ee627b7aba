//! `WorldCell`: state a running world reads and writes with plain loads
//! and stores, bound to one live world at a time. Every case runs on both
//! engines — under `threads` one world's ranks lock the cell from many OS
//! threads.

use mpisim::{Engine, EventMask, MpiEvent, Tool, WorldBuilder, WorldCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Barrier};

const ENGINES: [Engine; 2] = [Engine::Des, Engine::Threads];
const P: usize = 8;
const K: usize = 5;

/// A world of `P` ranks that each push `tag` into `cell` `K` times, with a
/// barrier between pushes so that the ranks interleave.
fn push_from_every_rank(engine: Engine, cell: &WorldCell<Vec<usize>>, tag: usize) {
    WorldBuilder::new(P)
        .engine(engine)
        .run(|pr| {
            let world = pr.world();
            for _ in 0..K {
                cell.lock().push(tag);
                world.barrier(pr);
            }
        })
        .expect("world runs");
}

#[test]
fn a_cell_is_the_size_of_the_mutex_it_replaces() {
    assert_eq!(
        std::mem::size_of::<WorldCell<u64>>(),
        std::mem::size_of::<parking_lot::Mutex<u64>>()
    );
}

#[test]
fn a_world_frees_its_cell_when_it_ends() {
    for engine in ENGINES {
        let cell = WorldCell::new(Vec::new());
        push_from_every_rank(engine, &cell, 1);
        // Outside any world, between the two: every update is there.
        assert_eq!(*cell.lock(), vec![1; P * K], "{engine:?}");
        // The same thread runs a second world, which binds the cell anew.
        push_from_every_rank(engine, &cell, 2);
        let seen = cell.lock();
        assert_eq!(seen.len(), 2 * P * K, "{engine:?}");
        assert!(seen[P * K..].iter().all(|&tag| tag == 2), "{engine:?}");
    }
}

/// Marks the end of its world: `on_run_complete` is the world's last act
/// before it stops being live.
struct Ended(Arc<AtomicBool>);

impl Tool for Ended {
    fn on_event(&self, _rank: usize, _event: &MpiEvent) {}

    fn interests(&self) -> EventMask {
        EventMask::NONE
    }

    fn on_run_complete(&self, _nranks: usize) {
        self.0.store(true, SeqCst);
    }
}

#[test]
fn a_second_live_world_waits_for_the_first() {
    for engine in ENGINES {
        let cell = WorldCell::new(Vec::new());
        let first_ended = Arc::new(AtomicBool::new(false));
        // Passed once the first world has bound the cell and the second is
        // running: from there, the second world's first lock would race
        // the first world's remaining steps if it did not wait.
        let both_live = Barrier::new(2);
        let second_started = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                WorldBuilder::new(P)
                    .engine(engine)
                    .tool(Arc::new(Ended(first_ended.clone())))
                    .run(|pr| {
                        let world = pr.world();
                        for step in 0..K {
                            cell.lock().push(0);
                            if step == 0 && pr.world_rank() == 0 {
                                both_live.wait();
                            }
                            world.barrier(pr);
                        }
                    })
                    .expect("first world runs");
            });
            scope.spawn(|| {
                WorldBuilder::new(P)
                    .engine(engine)
                    .run(|pr| {
                        if !second_started.swap(true, SeqCst) {
                            both_live.wait();
                        }
                        let world = pr.world();
                        for _ in 0..K {
                            let mut seen = cell.lock();
                            assert!(first_ended.load(SeqCst), "locked inside a live world");
                            seen.push(1);
                            drop(seen);
                            world.barrier(pr);
                        }
                    })
                    .expect("second world runs");
            });
        });
        let seen = cell.lock().clone();
        // No update lost, and none of the second world's ahead of the end
        // of the first.
        assert_eq!(seen.len(), 2 * P * K, "{engine:?}");
        assert!(
            seen[..P * K].iter().all(|&tag| tag == 0),
            "{engine:?}: {seen:?}"
        );
        assert!(
            seen[P * K..].iter().all(|&tag| tag == 1),
            "{engine:?}: {seen:?}"
        );
    }
}

#[test]
fn a_second_lock_under_a_live_guard_panics_instead_of_hanging() {
    for engine in ENGINES {
        let cell = WorldCell::new(0u64);
        let failed = WorldBuilder::new(1)
            .engine(engine)
            .run(|_| {
                let mut first = cell.lock();
                *first += 1;
                let _second = cell.lock();
            })
            .expect_err("the second lock panics");
        assert!(
            failed
                .to_string()
                .contains("locked while its guard is live"),
            "{engine:?}: {failed}"
        );
        // The unwind dropped the first guard: the cell is usable again.
        assert_eq!(*cell.lock(), 1, "{engine:?}");
    }
    let cell = WorldCell::new(0u64);
    let held = cell.lock();
    let again = catch_unwind(AssertUnwindSafe(|| drop(cell.lock())));
    assert!(again.is_err(), "outside any world too");
    drop(held);
    *cell.lock() += 1;
    assert_eq!(*cell.lock(), 1);
}

/// Two live worlds that each hold a cell the other wants: the second to
/// wait closes the cycle and panics instead of hanging, its world ends,
/// and the first goes on.
#[test]
fn two_worlds_waiting_for_each_other_fail_one_of_them() {
    for engine in ENGINES {
        let cells = [WorldCell::new(0u64), WorldCell::new(0u64)];
        let both_bound = Barrier::new(2);
        let run = |mine: usize| {
            WorldBuilder::new(1).engine(engine).run(|_| {
                *cells[mine].lock() += 1;
                both_bound.wait();
                *cells[1 - mine].lock() += 1;
            })
        };
        let outcomes = std::thread::scope(|scope| {
            let first = scope.spawn(|| run(0));
            let second = scope.spawn(|| run(1));
            [first, second].map(|world| world.join().expect("the harness catches rank panics"))
        });
        let failed: Vec<String> = outcomes
            .iter()
            .filter_map(|outcome| Some(outcome.as_ref().err()?.to_string()))
            .collect();
        assert_eq!(failed.len(), 1, "{engine:?}: {failed:?}");
        assert!(
            failed[0].contains("two live worlds each wait for a WorldCell the other holds"),
            "{engine:?}: {}",
            failed[0]
        );
        assert_eq!(*cells[0].lock() + *cells[1].lock(), 3, "{engine:?}");
    }
}
