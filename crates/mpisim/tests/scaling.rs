//! Launching a world costs O(p): nothing a rank does at start-up may look
//! at every other rank. `Proc::new` once counted its node-mates with a
//! scan over the world, which made an empty 16384-rank world 15× the cost
//! of a 4096-rank one.

use mpisim::{Engine, WorldBuilder};
use std::time::{Duration, Instant};

/// Fastest of five launches of an empty `p`-rank world. The minimum is
/// one-sided against host noise: a slow phase can only raise a sample.
fn empty_world(p: usize) -> Duration {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            WorldBuilder::new(p)
                .engine(Engine::Des)
                .stack_size(16 * 1024)
                .run(|_| ())
                .expect("empty world");
            start.elapsed()
        })
        .min()
        .expect("five samples")
}

#[test]
fn empty_world_launch_is_linear_in_p() {
    let (small, large) = (empty_world(2048), empty_world(8192));
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    // 4× the ranks: linear is ~4, the per-rank scan was 13–16.
    assert!(
        ratio < 8.0,
        "empty world: p=8192 took {large:?}, p=2048 took {small:?} (ratio {ratio:.1})"
    );
}
