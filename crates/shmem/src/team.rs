//! Thread teams and parallel regions.

use crate::schedule::Schedule;
use machine::Work;
use mpisim::Proc;

/// A thread team: the simulated equivalent of `#pragma omp parallel`.
///
/// ```
/// use machine::Work;
/// use shmem::Team;
///
/// let report = mpisim::WorldBuilder::new(1).run(|p| {
///     // 1000 items of 1e6 flops on 10 threads of the ideal machine
///     // (1 Gflop/s, zero fork cost): exactly 0.1 s.
///     Team::new(10).for_cost_uniform(p, 1000, Work::flops(1e6))
/// }).unwrap();
/// assert!((report.results[0] - 0.1).abs() < 1e-12);
/// ```
///
/// A team does not own OS threads — loop bodies run sequentially on the
/// simulated rank while the region's *cost* is priced as if `threads`
/// hardware threads executed it, including fork/join overhead, per-thread
/// jitter and memory contention from the other ranks on the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Team {
    threads: usize,
    schedule: Schedule,
}

impl Team {
    /// A team of `threads` threads with the default static schedule.
    /// Thread counts are clamped to at least 1.
    pub fn new(threads: usize) -> Team {
        Team {
            threads: threads.max(1),
            schedule: Schedule::Static,
        }
    }

    /// Override the loop schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Team {
        self.schedule = schedule;
        self
    }

    /// Number of threads in the team.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The team's schedule.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Software threads active on the node while this team runs: every rank
    /// on the node is assumed to run a team of the same size (the SPMD
    /// hybrid pattern).
    fn active_on_node(&self, p: &Proc) -> usize {
        p.ranks_on_node().saturating_mul(self.threads)
    }

    /// Seconds one thread needs for `work` under this team's contention.
    fn item_secs(&self, p: &Proc, work: Work) -> f64 {
        p.price_contended(work, self.active_on_node(p))
    }

    /// Price a region from per-thread loads (seconds each, in thread
    /// order) and advance the rank's clock. Returns the region's duration
    /// in seconds.
    ///
    /// The loads arrive as an iterator so that a priced loop builds no
    /// per-thread vector: a hybrid run prices tens of regions per rank and
    /// iteration. One jitter factor is drawn per load, in the order the
    /// iterator yields them.
    fn charge_region(
        &self,
        p: &mut Proc,
        loads: impl IntoIterator<Item = f64>,
        n_items: usize,
    ) -> f64 {
        let omp = &p.machine().omp;
        let t = self.threads;
        let fork = omp.fork_secs(t);
        let barrier = omp.barrier_secs(t);
        let sched = if self.schedule.is_dynamic() {
            // Bookkeeping is distributed over the team.
            omp.dynamic_secs(self.schedule.chunk_count(n_items, t)) / t as f64
        } else {
            0.0
        };
        // The slowest (jittered) thread sets the region time; the
        // jitter-free baseline (median factor is 1) is the slowest raw
        // load, reported alongside so replay tools can null the noise.
        let mut body = 0.0f64;
        let mut body_base = 0.0f64;
        for load in loads {
            let f = p.jitter_factor();
            body = body.max(load * f);
            body_base = body_base.max(load);
        }
        let secs = fork + body + sched + barrier;
        p.advance_jittered(fork + body_base + sched + barrier, secs);
        secs
    }

    /// Per-thread loads, in thread order, for `n` iterations of uniform
    /// cost `per_item`.
    fn uniform_loads(&self, p: &Proc, n: usize, per_item: Work) -> impl Iterator<Item = f64> {
        let item = self.item_secs(p, per_item);
        let (threads, schedule) = (self.threads, self.schedule);
        // Dynamic and guided: near-perfect balance plus half a one-chunk
        // tail on the first thread.
        let balanced =
            |tail_items: usize| (n as f64 / threads as f64 * item, tail_items as f64 * item);
        let (even, tail) = match schedule {
            Schedule::Dynamic(chunk) => balanced(chunk.max(1).min(n)),
            Schedule::Guided => balanced(n.div_ceil(4 * threads).max(1).min(n)),
            Schedule::Static | Schedule::StaticChunk(_) => (0.0, 0.0),
        };
        (0..threads).map(move |tid| match schedule {
            Schedule::Static => {
                let (s, e) = Schedule::static_range(n, threads, tid);
                (e - s) as f64 * item
            }
            Schedule::StaticChunk(c) => {
                // Round-robin chunk assignment, matching the execution
                // mapping in `parallel_for_weighted`: thread `tid` owns
                // chunks `tid`, `tid + threads`, ... and adds them up in
                // that order.
                let c = c.max(1);
                let mut load = 0.0f64;
                let mut start = tid.saturating_mul(c);
                while start < n {
                    load += c.min(n - start) as f64 * item;
                    start = start.saturating_add(threads.saturating_mul(c));
                }
                load
            }
            Schedule::Dynamic(_) | Schedule::Guided if tid == 0 => even + tail / 2.0,
            Schedule::Dynamic(_) | Schedule::Guided => even,
        })
    }

    /// Timing-only parallel loop with uniform per-iteration cost (no body
    /// executed). Returns the region's duration in seconds.
    pub fn for_cost_uniform(&self, p: &mut Proc, n: usize, per_item: Work) -> f64 {
        let loads = self.uniform_loads(p, n, per_item);
        self.charge_region(p, loads, n)
    }

    /// Parallel loop with uniform per-iteration cost; the body executes
    /// sequentially for every index (full-fidelity mode).
    pub fn parallel_for_uniform<F>(
        &self,
        p: &mut Proc,
        n: usize,
        per_item: Work,
        mut body: F,
    ) -> f64
    where
        F: FnMut(usize),
    {
        for i in 0..n {
            body(i);
        }
        self.for_cost_uniform(p, n, per_item)
    }

    /// Parallel loop with per-iteration weights given by a closure; the
    /// body executes sequentially. Use for irregular loops.
    #[allow(clippy::needless_range_loop)] // tid indexes both range and loads
    pub fn parallel_for_weighted<W, F>(&self, p: &mut Proc, n: usize, weight: W, mut body: F) -> f64
    where
        W: Fn(usize) -> Work,
        F: FnMut(usize),
    {
        // Accumulate per-thread loads according to the schedule's mapping.
        let mut loads = vec![0.0f64; self.threads];
        match self.schedule {
            Schedule::Static => {
                for tid in 0..self.threads {
                    let (s, e) = Schedule::static_range(n, self.threads, tid);
                    for i in s..e {
                        loads[tid] += self.item_secs(p, weight(i));
                        body(i);
                    }
                }
            }
            Schedule::StaticChunk(c) => {
                let c = c.max(1);
                for (chunk_idx, chunk_start) in (0..n).step_by(c).enumerate() {
                    let tid = chunk_idx % self.threads;
                    for i in chunk_start..(chunk_start + c).min(n) {
                        loads[tid] += self.item_secs(p, weight(i));
                        body(i);
                    }
                }
            }
            Schedule::Dynamic(_) | Schedule::Guided => {
                // Model ideal load balancing: spread total evenly.
                let mut total = 0.0;
                for i in 0..n {
                    total += self.item_secs(p, weight(i));
                    body(i);
                }
                let even = total / self.threads as f64;
                loads.iter_mut().for_each(|l| *l = even);
            }
        }
        self.charge_region(p, loads, n)
    }

    /// Parallel reduction with uniform per-iteration cost: the fold runs
    /// sequentially (deterministic result), the cost is a parallel loop
    /// plus a log-depth combine priced as one extra barrier.
    pub fn parallel_reduce_uniform<T, F>(
        &self,
        p: &mut Proc,
        n: usize,
        per_item: Work,
        init: T,
        mut fold: F,
    ) -> T
    where
        F: FnMut(T, usize) -> T,
    {
        let mut acc = init;
        for i in 0..n {
            acc = fold(acc, i);
        }
        let loads = self.uniform_loads(p, n, per_item);
        self.charge_region(p, loads, n);
        // Combine tree: one extra barrier-ish step.
        let extra = p.machine().omp.barrier_secs(self.threads);
        p.advance_secs(extra);
        acc
    }

    /// An explicit team barrier (`#pragma omp barrier`).
    pub fn barrier(&self, p: &mut Proc) {
        let secs = p.machine().omp.barrier_secs(self.threads);
        p.advance_secs(secs);
    }

    /// A `single`/`master` region: `body` runs on one thread while the
    /// team waits; costs the body plus a barrier.
    pub fn single<R, F>(&self, p: &mut Proc, work: Work, body: F) -> R
    where
        F: FnOnce() -> R,
    {
        let result = body();
        let secs = self.item_secs(p, work);
        p.advance_secs(secs);
        self.barrier(p);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::{presets, OmpModel, Work};
    use mpisim::WorldBuilder;

    fn run1<R: Send>(m: machine::MachineModel, f: impl Fn(&mut Proc) -> R + Send + Sync) -> R {
        WorldBuilder::new(1)
            .machine(m)
            .run(f)
            .unwrap()
            .results
            .remove(0)
    }

    #[test]
    fn ideal_machine_scales_perfectly() {
        // No overheads: t threads cut the time exactly t-fold.
        let m = presets::ideal();
        let t1 = run1(m.clone(), |p| {
            Team::new(1).for_cost_uniform(p, 1000, Work::flops(1e6))
        });
        let t10 = run1(m, |p| {
            Team::new(10).for_cost_uniform(p, 1000, Work::flops(1e6))
        });
        assert!((t1 / t10 - 10.0).abs() < 1e-9, "t1={t1} t10={t10}");
    }

    #[test]
    fn body_executes_every_index_once() {
        let m = presets::ideal();
        let sum = run1(m, |p| {
            let mut seen = vec![0u32; 100];
            Team::new(7).parallel_for_uniform(p, 100, Work::flops(1.0), |i| seen[i] += 1);
            assert!(seen.iter().all(|&c| c == 1));
            seen.iter().sum::<u32>()
        });
        assert_eq!(sum, 100);
    }

    #[test]
    fn weighted_static_prices_imbalance() {
        // All the weight on the first thread's range: region ~ total, not
        // total/threads.
        let m = presets::ideal();
        let secs = run1(m, |p| {
            Team::new(4).parallel_for_weighted(
                p,
                100,
                |i| {
                    if i < 25 {
                        Work::flops(1e6)
                    } else {
                        Work::ZERO
                    }
                },
                |_| {},
            )
        });
        assert!((secs - 25.0 * 1e-3).abs() < 1e-9, "secs={secs}");
    }

    #[test]
    fn dynamic_balances_imbalanced_loads() {
        let m = presets::ideal();
        let weight = |i: usize| {
            if i < 25 {
                Work::flops(1e6)
            } else {
                Work::ZERO
            }
        };
        let static_secs = run1(m.clone(), |p| {
            Team::new(4).parallel_for_weighted(p, 100, weight, |_| {})
        });
        let dynamic_secs = run1(m, |p| {
            Team::new(4)
                .with_schedule(Schedule::Dynamic(1))
                .parallel_for_weighted(p, 100, weight, |_| {})
        });
        assert!(
            dynamic_secs < static_secs / 2.0,
            "dynamic {dynamic_secs} vs static {static_secs}"
        );
    }

    #[test]
    fn dynamic_bookkeeping_costs_show_up() {
        let mut m = presets::ideal();
        m.omp = OmpModel {
            dynamic_per_chunk: 1e-5,
            ..OmpModel::FREE
        };
        let coarse = run1(m.clone(), |p| {
            Team::new(4)
                .with_schedule(Schedule::Dynamic(100))
                .for_cost_uniform(p, 10_000, Work::ZERO)
        });
        let fine = run1(m, |p| {
            Team::new(4)
                .with_schedule(Schedule::Dynamic(1))
                .for_cost_uniform(p, 10_000, Work::ZERO)
        });
        assert!(fine > coarse * 10.0, "fine={fine} coarse={coarse}");
    }

    #[test]
    fn reduce_is_deterministic_and_correct() {
        let m = presets::ideal();
        let total = run1(m, |p| {
            Team::new(8)
                .parallel_reduce_uniform(p, 1000, Work::flops(1.0), 0u64, |acc, i| acc + i as u64)
        });
        assert_eq!(total, 499_500);
    }

    #[test]
    fn oversubscription_stops_scaling() {
        // 4-core node, no SMT: 8 threads cannot beat 4.
        let mut m = presets::ideal();
        m.cores_per_node = 4;
        m.hw_threads_per_core = 1;
        m.topology = machine::Topology::SINGLE_NODE;
        let t4 = run1(m.clone(), |p| {
            Team::new(4).for_cost_uniform(p, 64, Work::flops(1e7))
        });
        let t8 = run1(m, |p| {
            Team::new(8).for_cost_uniform(p, 64, Work::flops(1e7))
        });
        assert!(t8 >= t4 * 0.99, "t8={t8} should not beat t4={t4}");
    }

    #[test]
    fn single_region_costs_body_plus_barrier() {
        let mut m = presets::ideal();
        m.omp = OmpModel {
            barrier_base: 1e-3,
            ..OmpModel::FREE
        };
        let (value, now) = run1(m, |p| {
            let v = Team::new(4).single(p, Work::flops(2e9), || 7);
            (v, p.now().as_secs_f64())
        });
        assert_eq!(value, 7);
        assert!((now - (2.0 + 1e-3)).abs() < 1e-9, "now={now}");
    }

    #[test]
    fn uniform_loads_are_the_vector_formulation() {
        // The load vectors by hand, for 10 items on 4 threads.
        let by_hand = |schedule: Schedule, item: f64| -> Vec<f64> {
            let even = 10.0 / 4.0 * item;
            match schedule {
                // The first 10 % 4 threads get one more.
                Schedule::Static => vec![3.0 * item, 3.0 * item, 2.0 * item, 2.0 * item],
                // Chunks of 3 dealt round-robin: 0..3, 3..6, 6..9, 9..10.
                Schedule::StaticChunk(_) => vec![3.0 * item, 3.0 * item, 3.0 * item, item],
                // Even shares, plus half a chunk of 2 on the first ...
                Schedule::Dynamic(_) => vec![even + 2.0 * item / 2.0, even, even, even],
                // ... or half of ceil(10 / 16) = 1.
                Schedule::Guided => vec![even + item / 2.0, even, even, even],
            }
        };
        let work = Work::new(3e5, 7e4);
        for schedule in [
            Schedule::Static,
            Schedule::StaticChunk(3),
            Schedule::Dynamic(2),
            Schedule::Guided,
        ] {
            let team = Team::new(4).with_schedule(schedule);
            // (region seconds, clock, the next jitter factor): equal
            // factors afterwards mean equally many were drawn.
            let outcome = |by_vector: bool| {
                let m = presets::nehalem_cluster();
                WorldBuilder::new(1).machine(m).seed(9).run(move |p| {
                    let secs = if by_vector {
                        let loads = by_hand(schedule, team.item_secs(p, work));
                        team.charge_region(p, loads, 10)
                    } else {
                        team.for_cost_uniform(p, 10, work)
                    };
                    (secs.to_bits(), p.now(), p.jitter_factor().to_bits())
                })
            };
            let (vector, iterator) = (outcome(true).unwrap(), outcome(false).unwrap());
            assert_eq!(vector.results, iterator.results, "{schedule:?}");
        }
        // Several chunks per thread add up in the order the vector took
        // them: 7 chunks of 3 and one of 2 on 3 threads.
        let team = Team::new(3).with_schedule(Schedule::StaticChunk(3));
        let report = WorldBuilder::new(1)
            .machine(presets::nehalem_cluster())
            .run(move |p| {
                let item = team.item_secs(p, Work::flops(1e5));
                let mut by_vector = vec![0.0f64; 3];
                for (chunk, len) in [3, 3, 3, 3, 3, 3, 3, 2].into_iter().enumerate() {
                    by_vector[chunk % 3] += len as f64 * item;
                }
                let loads: Vec<f64> = team.uniform_loads(p, 23, Work::flops(1e5)).collect();
                (by_vector, loads)
            })
            .unwrap();
        let (by_vector, loads) = &report.results[0];
        assert_eq!(by_vector, loads);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Team::new(0).threads(), 1);
    }

    #[test]
    fn empty_loop_costs_only_overheads() {
        let mut m = presets::ideal();
        m.omp = OmpModel {
            fork_base: 5e-4,
            barrier_base: 5e-4,
            ..OmpModel::FREE
        };
        let secs = run1(m, |p| Team::new(4).for_cost_uniform(p, 0, Work::flops(1e9)));
        assert!((secs - 1e-3).abs() < 1e-12, "secs={secs}");
    }
}
