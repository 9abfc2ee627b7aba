//! Integration tests for the DES engine's suspension/resume machinery
//! around wildcard receives: a rank that blocks on `Src::Any` suspends
//! its fiber into the event queue, is woken by each deposit, re-suspends
//! on a non-matching scan, and finally matches — all deterministically,
//! so reruns are bit-identical.

use mpisim::{Engine, Src, TagSel, WorldBuilder};

/// Rank 0 blocks on wildcard receives before any sender has run (it is
/// first in the ready heap), so every message arrival goes through the
/// suspend → deposit → wake → match cycle. Two runs must observe the
/// same (source, tag, payload) sequence.
#[test]
fn wildcard_receive_suspends_and_resumes_deterministically() {
    let run = || {
        WorldBuilder::new(4)
            .engine(Engine::Des)
            .seed(5)
            .run(|p| {
                let world = p.world();
                if p.world_rank() == 0 {
                    let mut got = Vec::new();
                    for _ in 0..3 {
                        let r = world.recv::<u64>(p, Src::Any, TagSel::Any);
                        got.push((r.src, r.tag, r.data[0]));
                    }
                    got
                } else {
                    let r = p.world_rank() as u64;
                    // Stagger send times in virtual time so arrival order
                    // is meaningful, not just heap order.
                    p.advance_secs(1e-3 * r as f64);
                    world.send(p, 0, r as i32, &[r]);
                    Vec::new()
                }
            })
            .expect("wildcard run failed")
            .results
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "rerun diverged under the DES engine");
    assert_eq!(first[0].len(), 3, "rank 0 matched all three sends");
    let mut sources: Vec<usize> = first[0].iter().map(|(s, _, _)| *s).collect();
    sources.sort_unstable();
    assert_eq!(sources, vec![1, 2, 3]);
    for (src, tag, payload) in &first[0] {
        assert_eq!(*tag as usize, *src);
        assert_eq!(*payload as usize, *src);
    }
}

/// A selective receive must survive being woken by deposits that do NOT
/// match: each miss re-suspends the fiber until the matching message
/// lands, and the skipped messages stay queued for later receives.
#[test]
fn nonmatching_deposits_resuspend_until_match() {
    let report = WorldBuilder::new(2)
        .engine(Engine::Des)
        .run(|p| {
            let world = p.world();
            if p.world_rank() == 0 {
                // Wait for tag 9 first although tags 1 and 2 arrive
                // earlier; each early deposit wakes rank 0, the scan
                // misses, and the fiber suspends again.
                let last = world.recv::<u32>(p, Src::Rank(1), TagSel::Is(9));
                let first = world.recv::<u32>(p, Src::Rank(1), TagSel::Is(1));
                let second = world.recv::<u32>(p, Src::Any, TagSel::Any);
                vec![last.data[0], first.data[0], second.data[0]]
            } else {
                world.send(p, 0, 1, &[10u32]);
                world.send(p, 0, 2, &[20u32]);
                world.send(p, 0, 9, &[90u32]);
                Vec::new()
            }
        })
        .expect("selective run failed");
    assert_eq!(report.results[0], vec![90, 10, 20]);
}

/// The same wildcard program on both engines: the matched sequence the
/// DES scheduler produces must be one the threads engine can also
/// produce — and since rank 2 sends only after hearing from rank 1, the
/// arrival order at rank 0 is the program's on either engine (not the
/// host scheduler's on threads), so the results agree exactly.
#[test]
fn wildcard_matching_agrees_with_threads_engine() {
    let run = |engine| {
        WorldBuilder::new(3)
            .engine(engine)
            .seed(11)
            .run(|p| {
                let world = p.world();
                let me = p.world_rank();
                if me == 0 {
                    world.barrier(p);
                    let a = world.recv::<u32>(p, Src::Any, TagSel::Is(7));
                    let b = world.recv::<u32>(p, Src::Any, TagSel::Is(7));
                    vec![a.data[0], b.data[0]]
                } else {
                    if me == 2 {
                        let _ = world.recv::<u32>(p, Src::Rank(1), TagSel::Is(8));
                    }
                    world.send(p, 0, 7, &[me as u32]);
                    if me == 1 {
                        world.send(p, 2, 8, &[0u32]);
                    }
                    world.barrier(p);
                    Vec::new()
                }
            })
            .expect("run failed")
            .results
    };
    let des = run(Engine::Des);
    let threads = run(Engine::Threads);
    let mut des_sorted = des[0].clone();
    des_sorted.sort_unstable();
    assert_eq!(des_sorted, vec![1, 2]);
    assert_eq!(des, threads, "engines disagreed on wildcard matching");
}
