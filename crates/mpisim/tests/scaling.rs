//! Launching a world costs O(p): nothing a rank does at start-up may look
//! at every other rank. `Proc::new` once counted its node-mates with a
//! scan over the world, which made an empty 16384-rank world 15× the cost
//! of a 4096-rank one, and `Proc::world()` once found its own rank with a
//! scan of the world communicator — p²/2 comparisons over a launch.

use mpisim::{Engine, Proc, WorldBuilder};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One measurement at a time: two worlds sharing the host's cores and
/// caches slow the larger one more than the smaller.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Fastest of five launches of a `p`-rank world running `body`. The
/// minimum is one-sided against host noise: a slow phase can only raise a
/// sample.
fn launch(p: usize, body: fn(&mut Proc)) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            WorldBuilder::new(p)
                .engine(Engine::Des)
                .stack_size(16 * 1024)
                .run(body)
                .expect("world runs");
            start.elapsed()
        })
        .min()
        .expect("five samples")
}

/// 4× the ranks must cost well under 16× the time.
fn assert_linear(what: &str, body: fn(&mut Proc)) {
    let _alone = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let (small, large) = (launch(2048, body), launch(8192, body));
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio < 8.0,
        "{what}: p=8192 took {large:?}, p=2048 took {small:?} (ratio {ratio:.1})"
    );
}

#[test]
fn empty_world_launch_is_linear_in_p() {
    // Linear is ~4, the per-rank scan was 13–16.
    assert_linear("empty world", |_| ());
}

#[test]
fn world_handle_on_every_rank_is_linear_in_p() {
    assert_linear("p.world() on every rank", |p| {
        p.world();
    });
}
