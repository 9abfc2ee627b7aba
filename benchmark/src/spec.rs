//! The benchmark's definition: workloads, metric names, units and bounds.
//! `BENCHMARK.json` at the repository root mirrors these tables (a test
//! holds the two together).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with the share of the parent's median by which each
/// may get worse. Every workload reports all of them; failed operations
/// are carried by the result line's `attempted`/`failed` counts.
///
/// The time bounds are the widest the driver allows: on the 2-vCPU
/// micro-VM this was defined on, the host alternates for minutes at a
/// time between speeds 30 % and more apart (CPU time moves with wall
/// time), and even divided by the host-speed reference (`reference`) run
/// medians of identical code spread 4–14 % (README, "Noise"). Peak memory
/// is steady to 0.3 % except on `study_fig6_cold` (2–4 %).
pub const END_TO_END: [(MetricDef, f64); 5] = [
    (lower("setup_s", "s"), 0.25),
    (lower("wall_s", "s"), 0.25),
    (lower("cpu_s", "s"), 0.25),
    (higher("rank_steps_per_s", "1/s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.15),
];

/// Per-layer metrics: the micro-probes (layer = module name), then the
/// traced replica of the selected workload.
pub const PER_LAYER: [MetricDef; 68] = [
    lower("mpisim.world.empty_p64_ms", "ms"),
    lower("mpisim.world.empty_p1024_ms", "ms"),
    lower("mpisim.world.empty_p4096_ms", "ms"),
    lower("mpisim.world.empty_p16384_ms", "ms"),
    lower("mpisim.des.exchange_ns_per_rank_step_p64", "ns"),
    lower("mpisim.des.exchange_ns_per_rank_step_p4096", "ns"),
    lower("mpisim.threads.exchange_ns_per_rank_step_p64", "ns"),
    lower("mpisim.p2p.pingpong_ns", "ns"),
    lower("mpisim.mailbox.reverse_drain_ns_per_msg_d64", "ns"),
    lower("mpisim.mailbox.reverse_drain_ns_per_msg_d1024", "ns"),
    lower("mpisim.mailbox.reverse_drain_ns_per_msg_d4096", "ns"),
    lower("mpisim.collective.barrier_ns_per_rank_p64", "ns"),
    lower("mpisim.collective.barrier_ns_per_rank_p4096", "ns"),
    lower("mpisim.collective.allreduce_ns_per_rank_p64", "ns"),
    lower("mpisim.collective.allreduce_ns_per_rank_p4096", "ns"),
    lower("mpisim.collective.gather_ns_per_rank_p64", "ns"),
    lower("mpisim.collective.gather_ns_per_rank_p4096", "ns"),
    lower("mpisim.tool.dispatch_ns_per_event", "ns"),
    higher("mpisim.jsoncheck.parse_mb_per_s", "MB/s"),
    lower("machine.price.compute_ns", "ns"),
    lower("machine.price.transfer_ns", "ns"),
    lower("machine.noise.jitter_ns", "ns"),
    lower("shmem.team.parallel_for_ns_t4", "ns"),
    lower("shmem.team.parallel_for_ns_t24", "ns"),
    lower("core.section.pair_ns", "ns"),
    lower("core.profiler.pair_ns", "ns"),
    lower("core.tool.profiler.ns_per_event", "ns"),
    lower("core.tool.pvar.ns_per_event", "ns"),
    lower("core.tool.recorder.ns_per_event", "ns"),
    lower("core.tool.summary.ns_per_event", "ns"),
    lower("core.tool.trace.ns_per_event", "ns"),
    lower("mpicheck.analyzer.ns_per_event", "ns"),
    lower("core.waitstate.classify_ns_per_event", "ns"),
    lower("core.critpath.extract_ns_per_event", "ns"),
    lower("core.timeline.build_us", "us"),
    lower("core.replay.identity_ns_per_event", "ns"),
    lower("bench.whatif.analyze_ms", "ms"),
    lower("speedup.study.from_rows_us", "us"),
    lower("speedup.trend.detect_us", "us"),
    lower("core.export.profile_csv_us", "us"),
    lower("core.export.pvar_json_us", "us"),
    lower("core.export.summary_json_us", "us"),
    lower("core.export.chrome_trace_ns_per_event", "ns"),
    lower("core.report.render_us", "us"),
    lower("core.recorder.log_bytes_per_event", "bytes"),
    lower("core.summary.state_bytes_p64", "bytes"),
    lower("core.summary.state_bytes_p4096", "bytes"),
    lower("mpistudy.config.expand_us", "us"),
    higher("mpistudy.pool.cold_cells_per_s_jobs1", "1/s"),
    higher("mpistudy.pool.cold_cells_per_s_jobs2", "1/s"),
    lower("mpistudy.doc.to_json_us", "us"),
    lower("mpistudy.doc.from_json_us", "us"),
    lower("mpistudy.store.insert_us_per_doc", "us"),
    lower("mpistudy.store.load_us_per_doc", "us"),
    lower("mpistudy.store.warm_sweep_ms", "ms"),
    lower("mpistudy.report.build_ms", "ms"),
    lower("bench.profile.startup_ms", "ms"),
    higher("mpiverify.explore.schedules_per_s", "1/s"),
    lower("trace.stack_build_ms", "ms"),
    lower("trace.simulate_ms", "ms"),
    lower("trace.snapshot_ms", "ms"),
    lower("trace.analyze_ms", "ms"),
    lower("trace.render_ms", "ms"),
    lower("trace.export_ms", "ms"),
    lower("trace.fixed_ms", "ms"),
    lower("trace.per_step_us", "us"),
    lower("trace.events_total", "count"),
    lower("trace.cli_gap_frac", "ratio"),
];

/// The per-layer metric called `name`; emitting one that is not in the
/// table is a bug in the benchmark.
pub fn per_layer(name: &str) -> &'static MetricDef {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("'{name}' is not in the per-layer metric table"))
}

/// The simulated program of a `profile` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    Conv,
    Lulesh { threads: usize },
}

/// Which observers a `profile` operation turns on beside the section
/// profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// `--profile-csv` only.
    Bare,
    /// `--metrics --efficiency --metrics-json`.
    Full,
    /// `--summary-json`.
    Summary,
}

/// One `profile` invocation.
#[derive(Debug, Clone, Copy)]
pub struct ProfileOp {
    pub program: Program,
    pub p: usize,
    /// Convolution steps or LULESH iterations.
    pub steps: usize,
    /// `--machine` name; `None` keeps the program's default.
    pub machine: Option<&'static str>,
    pub observe: Observe,
}

/// One `study run --jobs 1` into a fresh store followed by `study report`.
/// One worker, because the host does not reliably have a second core to
/// give (README, "Noise"); the pool's fan-out is timed per layer
/// (`mpistudy.pool.cold_cells_per_s_jobs{1,2}`).
#[derive(Debug, Clone, Copy)]
pub struct StudyOp {
    /// `conv-weak` with this many rows per rank; `None` is `conv`.
    pub weak_rows: Option<usize>,
    pub ps: &'static [usize],
    pub steps: usize,
    /// Seeds `S, S+1, …` of the run's `--seed S`.
    pub nseeds: u64,
}

/// What one operation of a workload executes.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Profile(ProfileOp),
    Study(StudyOp),
}

impl Op {
    /// Simulated rank-steps of one operation: Σ p × steps over its worlds.
    pub fn rank_steps(&self) -> u64 {
        match self {
            Op::Profile(o) => (o.p * o.steps) as u64,
            Op::Study(o) => o.ps.iter().sum::<usize>() as u64 * o.steps as u64 * o.nseeds,
        }
    }

    pub fn steps(&self) -> usize {
        match self {
            Op::Profile(o) => o.steps,
            Op::Study(o) => o.steps,
        }
    }

    /// The same operation at another step count (the two-point fit).
    pub fn with_steps(&self, steps: usize) -> Op {
        match *self {
            Op::Profile(o) => Op::Profile(ProfileOp { steps, ..o }),
            Op::Study(o) => Op::Study(StudyOp { steps, ..o }),
        }
    }
}

/// A named workload: the operation users run, and a miniature of it
/// (p ≤ 64) for the smoke run.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it on every PR. The
    /// driver's time limit pays for four workloads at the run length the
    /// host's noise needs (README, "Noise"); `suite` and `aa` run all six.
    pub guarded: bool,
    pub op: Op,
    pub smoke: Op,
}

const FIG6_PS: [usize; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 456];
// `fig6.csv` has rows only for the paper's process counts; 64 is one.
const SMOKE_PS: [usize; 3] = [1, 8, 64];

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "conv456_bare",
        why: "paper Fig. 5 config, section profiler only: engine steady state (fiber, heap, mailbox, section) is nearly all the work",
        guarded: false,
        op: Op::Profile(ProfileOp {
            program: Program::Conv,
            p: 456,
            steps: 400,
            machine: Some("nehalem"),
            observe: Observe::Bare,
        }),
        smoke: Op::Profile(ProfileOp {
            program: Program::Conv,
            p: 8,
            steps: 5,
            machine: Some("nehalem"),
            observe: Observe::Bare,
        }),
    },
    Workload {
        name: "conv456_observed",
        why: "same engine work plus pvar, recorder, wait-state, critical path, timeline and JSON export: the instrumentation-overhead pair of conv456_bare",
        guarded: true,
        op: Op::Profile(ProfileOp {
            program: Program::Conv,
            p: 456,
            steps: 400,
            machine: Some("nehalem"),
            observe: Observe::Full,
        }),
        smoke: Op::Profile(ProfileOp {
            program: Program::Conv,
            p: 8,
            steps: 5,
            machine: Some("nehalem"),
            observe: Observe::Full,
        }),
    },
    Workload {
        name: "conv16k_scale",
        why: "16384 ranks, 25 steps: world setup and teardown, p-way scatter/gather and the streaming summarizer dominate; the workload where peak memory matters",
        guarded: true,
        op: Op::Profile(ProfileOp {
            program: Program::Conv,
            p: 16384,
            steps: 25,
            machine: Some("ideal"),
            observe: Observe::Summary,
        }),
        smoke: Op::Profile(ProfileOp {
            program: Program::Conv,
            p: 64,
            steps: 3,
            machine: Some("ideal"),
            observe: Observe::Summary,
        }),
    },
    Workload {
        name: "weak4k_busy",
        why: "weak-scaled conv, 4096 ranks all owning rows: the event heap is 4096 deep on every step and setup is a few percent, the steady state a parallel engine would have to beat",
        guarded: false,
        op: Op::Study(StudyOp {
            weak_rows: Some(8),
            ps: &[4096],
            steps: 300,
            nseeds: 1,
        }),
        smoke: Op::Study(StudyOp {
            weak_rows: Some(8),
            ps: &[64],
            steps: 5,
            nseeds: 1,
        }),
    },
    Workload {
        name: "lulesh64_hybrid",
        why: "the paper's second evaluation: 26-neighbour halo, an allreduce per iteration and shmem parallel-for pricing, so collectives and the cost model carry the run",
        guarded: true,
        op: Op::Profile(ProfileOp {
            program: Program::Lulesh { threads: 4 },
            p: 64,
            steps: 2000,
            machine: None,
            observe: Observe::Bare,
        }),
        smoke: Op::Profile(ProfileOp {
            program: Program::Lulesh { threads: 4 },
            p: 8,
            steps: 5,
            machine: None,
            observe: Observe::Bare,
        }),
    },
    Workload {
        name: "study_fig6_cold",
        why: "30 short worlds into a fresh store, then the report: guards many-small-world sweeps, store writes and report build against a large-p optimisation",
        guarded: true,
        op: Op::Study(StudyOp {
            weak_rows: None,
            ps: &FIG6_PS,
            steps: 1000,
            nseeds: 3,
        }),
        smoke: Op::Study(StudyOp {
            weak_rows: None,
            ps: &SMOKE_PS,
            steps: 5,
            nseeds: 3,
        }),
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::jsoncheck::{parse_json, Json};
    use std::collections::BTreeSet;

    #[test]
    fn rank_steps_are_the_constants_the_readme_states() {
        let steps: Vec<u64> = WORKLOADS.iter().map(|w| w.op.rank_steps()).collect();
        assert_eq!(
            steps,
            [
                456 * 400,
                456 * 400,
                16384 * 25,
                4096 * 300,
                64 * 2000,
                (1 + 2 + 4 + 8 + 16 + 32 + 64 + 128 + 256 + 456) * 1000 * 3,
            ]
        );
        for w in &WORKLOADS {
            assert_eq!(
                w.op.with_steps(2 * w.op.steps()).rank_steps(),
                2 * w.op.rank_steps(),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn smoke_operations_stay_at_or_below_64_ranks() {
        for w in &WORKLOADS {
            let max_p = match w.smoke {
                Op::Profile(o) => o.p,
                Op::Study(o) => o.ps.iter().copied().max().unwrap_or(0),
            };
            assert!(max_p <= 64, "{}: smoke p = {max_p}", w.name);
        }
    }

    fn names_of(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks '{key}'"))
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("entry has a name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` names exactly the guarded workloads and the metrics
    /// the binary emits, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");

        let guarded: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.guarded).collect();
        let workloads: Vec<&str> = guarded.iter().map(|w| w.name).collect();
        assert_eq!(names_of(&doc, "workloads"), workloads);
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|(m, _)| m.name).collect();
        assert_eq!(names_of(&doc, "end_to_end"), end_to_end);
        let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names_of(&doc, "per_layer"), per_layer);

        let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
        for (entry, w) in doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(guarded)
        {
            assert_eq!(field(entry, "why").as_deref(), Some(w.why), "{}", w.name);
        }
        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        for (entry, (m, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "unit").as_deref(), Some(m.unit), "{}", m.name);
            assert_eq!(field(entry, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(*bound));
        }
        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "unit").as_deref(), Some(m.unit), "{}", m.name);
            assert_eq!(field(entry, "better").as_deref(), Some(m.better.as_str()));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = BTreeSet::new();
        let metrics = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter());
        for m in metrics {
            assert!(ok(m.name, "_.-", 64), "{}", m.name);
            assert!(ok(m.unit, "_/%.-", 16), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(ok(w.name, "_.-", 64), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
    }
}
