//! Micro-probes: host time of single layers, measured from outside by
//! timing public calls. Each probe isolates what a whole pipeline cannot:
//! an empty world, a queue drained in the worst order, one tool alone.
//! Times taken inside a rank closure are host time on rank 0 between two
//! barriers, which under the single-threaded DES engine covers the work of
//! every rank.

use crate::alloc::heap_growth;
use crate::ops::Env;
use crate::sim::{simulate, Counter, Sim};
use crate::spec::{per_layer, PER_LAYER};
use crate::stats::Summary;
use machine::{presets, Work};
use mpi_sections::{
    classify, critpath, CommRecorder, PvarRegistry, ReportOptions, SectionProfiler, SectionRuntime,
    SummaryTool, TraceTool, VerifyMode, Windowing,
};
use mpisim::{Engine, Src, TagSel, Tool, WorldBuilder};
use mpistudy::{GridSpec, RunStore};
use std::collections::HashMap;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scale at which one tool's cost is measured: the convolution at p = 64
/// on the calibrated machine.
const TOOL_P: usize = 64;
const TOOL_STEPS: usize = 400;
/// mpicheck costs ~100× the engine per event; a tenth of the steps keeps
/// its samples as long as the others'.
const CHECK_STEPS: usize = 40;

/// Adds one observer to a fresh tool stack: attaches section tools to the
/// runtime it is given and returns the world tools to register after it.
type Attach<'a> = &'a dyn Fn(&Arc<SectionRuntime>) -> Vec<Arc<dyn Tool>>;

pub struct Probes<'a> {
    env: &'a Env,
    seed: u64,
    /// Time one probe may spend collecting samples (past its third).
    slice: Duration,
    smoke: bool,
    pub out: Vec<(&'static str, Summary)>,
    /// Events a counting tool sees on the tool-cost program, by steps.
    events: HashMap<usize, u64>,
}

fn secs_of<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

impl<'a> Probes<'a> {
    pub fn new(env: &'a Env, seed: u64, seconds: f64, smoke: bool) -> Probes<'a> {
        Probes {
            env,
            seed,
            slice: if smoke {
                Duration::ZERO
            } else {
                Duration::from_secs_f64(seconds * 0.5 / PER_LAYER.len() as f64)
            },
            smoke,
            out: Vec::new(),
            events: HashMap::new(),
        }
    }

    /// Smoke runs keep every world at or below 64 ranks.
    fn p(&self, p: usize) -> usize {
        if self.smoke {
            p.min(64)
        } else {
            p
        }
    }

    /// Repetitions inside one sample: enough to dwarf timer cost, a
    /// handful in smoke mode.
    fn reps(&self, n: usize) -> usize {
        if self.smoke {
            n.min(8)
        } else {
            n
        }
    }

    /// Collect samples of `f` until the probe's slice is used, three at
    /// least (one in smoke mode), and record them under `name`.
    fn probe(&mut self, name: &str, f: impl FnMut() -> f64) {
        let summary = self.sample(f);
        self.emit(name, summary);
    }

    fn sample(&self, mut f: impl FnMut() -> f64) -> Summary {
        let min = if self.smoke { 1 } else { 3 };
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < min || (start.elapsed() < self.slice && samples.len() < 200) {
            samples.push(f());
        }
        Summary::of(&samples)
    }

    fn emit(&mut self, name: &str, summary: Summary) {
        self.out.push((per_layer(name).name, summary));
    }

    pub fn run_all(&mut self) -> Result<(), String> {
        self.engine();
        self.cost_models();
        self.sections();
        self.tools()?;
        self.analyses()?;
        self.study()?;
        self.fixed_costs()
    }

    /// mpisim: world setup/teardown, p2p steady state, queue matching,
    /// collective rendezvous.
    fn engine(&mut self) {
        for p in [64, 1024, 4096, 16384] {
            let world = self.p(p);
            self.probe(&format!("mpisim.world.empty_p{p}_ms"), || {
                1e3 * secs_of(|| WorldBuilder::new(world).run(|_| ()).expect("empty world"))
            });
        }

        let configs = [
            (
                "mpisim.des.exchange_ns_per_rank_step_p64",
                Engine::Des,
                64,
                400,
            ),
            (
                "mpisim.des.exchange_ns_per_rank_step_p4096",
                Engine::Des,
                4096,
                20,
            ),
            (
                "mpisim.threads.exchange_ns_per_rank_step_p64",
                Engine::Threads,
                64,
                100,
            ),
        ];
        for (name, engine, p, steps) in configs {
            let (p, steps) = (self.p(p), self.reps(steps));
            self.probe(name, || exchange_ns(engine, p, steps) / (p * steps) as f64);
        }
        let trips = self.reps(20_000);
        self.probe("mpisim.p2p.pingpong_ns", || {
            pingpong_ns(trips) / trips as f64
        });

        for d in [64, 1024, 4096] {
            let depth = if self.smoke { d.min(64) } else { d };
            self.probe(
                &format!("mpisim.mailbox.reverse_drain_ns_per_msg_d{d}"),
                || reverse_drain_ns(depth) / depth as f64,
            );
        }

        // An allreduce costs ~40× a barrier per rank at p = 4096; fewer
        // rounds keep the samples comparable in length.
        for (p, reps, allreduce_reps) in [(64, 2000, 2000), (4096, 20, 3)] {
            let (world, reps) = (self.p(p), self.reps(reps));
            let per_rank = (world * reps) as f64;
            self.probe(
                &format!("mpisim.collective.barrier_ns_per_rank_p{p}"),
                || collective_ns(world, reps, |w, pr| w.barrier(pr)) / per_rank,
            );
            let rounds = self.reps(allreduce_reps);
            self.probe(
                &format!("mpisim.collective.allreduce_ns_per_rank_p{p}"),
                || {
                    collective_ns(world, rounds, |w, pr| {
                        black_box(w.allreduce_sum_f64(pr, 1.0));
                    }) / (world * rounds) as f64
                },
            );
            self.probe(
                &format!("mpisim.collective.gather_ns_per_rank_p{p}"),
                || {
                    collective_ns(world, reps, |w, pr| {
                        black_box(w.gather(pr, 0, vec![pr.world_rank() as u64]));
                    }) / per_rank
                },
            );
        }
    }

    /// machine and shmem: the pricing functions a rank calls per step.
    fn cost_models(&mut self) {
        let m = presets::nehalem_cluster();
        let n = self.reps(200_000);
        let work = Work::new(1.0e6, 4.0e6);
        self.probe("machine.price.compute_ns", || {
            1e9 * secs_of(|| {
                (0..n).fold(0.0, |acc, i| {
                    acc + m.thread_seconds_for(black_box(work), 1 + i % 8)
                })
            }) / n as f64
        });
        self.probe("machine.price.transfer_ns", || {
            1e9 * secs_of(|| {
                (0..n).fold(0.0, |acc, i| {
                    acc + m.network.inter_node.transfer_secs(black_box(1024 + i))
                })
            }) / n as f64
        });
        let mut rng = machine::noise::DetRng::for_stream(self.seed, 0, 0);
        self.probe("machine.noise.jitter_ns", || {
            1e9 * secs_of(|| (0..n).fold(0.0, |acc, _| acc + m.noise.compute_factor(&mut rng)))
                / n as f64
        });

        let calls = self.reps(20_000);
        for threads in [4, 24] {
            self.probe(&format!("shmem.team.parallel_for_ns_t{threads}"), || {
                let report = WorldBuilder::new(1)
                    .machine(presets::knl())
                    .run(move |pr| {
                        let team = shmem::Team::new(threads);
                        let start = Instant::now();
                        for _ in 0..calls {
                            black_box(team.for_cost_uniform(pr, 13_824, Work::flops(200.0)));
                        }
                        start.elapsed().as_nanos() as f64
                    })
                    .expect("parallel-for world");
                report.results[0] / calls as f64
            });
        }
    }

    /// core: one section enter/exit pair, bare and with the profiler.
    fn sections(&mut self) {
        let pairs = self.reps(100_000);
        for (name, profiled) in [
            ("core.section.pair_ns", false),
            ("core.profiler.pair_ns", true),
        ] {
            self.probe(name, || {
                let sections = SectionRuntime::new(VerifyMode::Off);
                if profiled {
                    sections.attach(SectionProfiler::new());
                }
                let s = sections.clone();
                let report = WorldBuilder::new(1)
                    .tool(sections.clone())
                    .run(move |pr| {
                        let world = pr.world();
                        let start = Instant::now();
                        for _ in 0..pairs {
                            s.scoped(pr, &world, "BENCH", |_| {});
                        }
                        start.elapsed().as_nanos() as f64
                    })
                    .expect("section world");
                report.results[0] / pairs as f64
            });
        }
    }

    /// Host seconds of the tool-cost program with one observer attached.
    fn tool_run(&self, steps: usize, attach: Attach<'_>) -> Result<f64, String> {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let mut tools: Vec<Arc<dyn Tool>> = vec![sections.clone()];
        tools.extend(attach(&sections));
        let machine = presets::nehalem_cluster();
        let (p, sim) = (self.p(TOOL_P), Sim::conv(steps));
        let start = Instant::now();
        simulate(p, &machine, self.seed, &sim, &sections, &tools)?;
        Ok(start.elapsed().as_secs_f64())
    }

    /// `(with tool − without) / events`, sampled as back-to-back pairs.
    fn tool_cost(&mut self, name: &str, steps: usize, attach: Attach<'_>) -> Result<(), String> {
        let steps = self.reps(steps);
        let events = match self.events.get(&steps) {
            Some(&n) => n,
            None => {
                let counter = Counter::new();
                self.tool_run(steps, &|_| vec![counter.clone() as Arc<dyn Tool>])?;
                self.events.insert(steps, counter.count());
                counter.count()
            }
        };
        let mut failure = None;
        let summary = self.sample(|| {
            let pair = self
                .tool_run(steps, &|_| Vec::new())
                .and_then(|bare| Ok((bare, self.tool_run(steps, attach)?)));
            match pair {
                Ok((bare, with)) => 1e9 * (with - bare) / events as f64,
                Err(e) => {
                    failure = Some(e);
                    f64::NAN
                }
            }
        });
        self.emit(name, summary);
        failure.map_or(Ok(()), Err)
    }

    /// Each observer alone on the same program.
    fn tools(&mut self) -> Result<(), String> {
        self.tool_cost("mpisim.tool.dispatch_ns_per_event", TOOL_STEPS, &|_| {
            vec![Counter::new() as Arc<dyn Tool>]
        })?;
        self.tool_cost("core.tool.profiler.ns_per_event", TOOL_STEPS, &|s| {
            s.attach(SectionProfiler::new());
            Vec::new()
        })?;
        self.tool_cost("core.tool.pvar.ns_per_event", TOOL_STEPS, &|_| {
            vec![PvarRegistry::new() as Arc<dyn Tool>]
        })?;
        self.tool_cost("core.tool.recorder.ns_per_event", TOOL_STEPS, &|_| {
            vec![CommRecorder::new() as Arc<dyn Tool>]
        })?;
        self.tool_cost("core.tool.summary.ns_per_event", TOOL_STEPS, &|_| {
            vec![SummaryTool::new() as Arc<dyn Tool>]
        })?;
        self.tool_cost("core.tool.trace.ns_per_event", TOOL_STEPS, &|s| {
            let trace = TraceTool::new();
            s.attach(trace.clone());
            vec![trace as Arc<dyn Tool>]
        })?;
        self.tool_cost("mpicheck.analyzer.ns_per_event", CHECK_STEPS, &|_| {
            vec![mpicheck::Analyzer::new() as Arc<dyn Tool>]
        })
    }

    /// Everything computed after the run, over one frozen recording of the
    /// tool-cost program with every observer attached.
    fn analyses(&mut self) -> Result<(), String> {
        let machine = presets::nehalem_cluster();
        let (p, seed) = (self.p(TOOL_P), self.seed);
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        let trace = TraceTool::new();
        sections.attach(profiler.clone());
        sections.attach(trace.clone());
        let (pvar, recorder, summary) =
            (PvarRegistry::new(), CommRecorder::new(), SummaryTool::new());
        let tools: [Arc<dyn Tool>; 5] = [
            sections.clone(),
            pvar.clone(),
            recorder.clone(),
            summary.clone(),
            trace.clone(),
        ];
        let sim = Sim::conv(self.reps(TOOL_STEPS));
        simulate(p, &machine, seed, &sim, &sections, &tools)?;

        let (log, log_bytes) = heap_growth(|| recorder.freeze());
        let events = log.events() as f64;
        self.emit(
            "core.recorder.log_bytes_per_event",
            Summary::of(&[log_bytes as f64 / events]),
        );

        self.probe("core.waitstate.classify_ns_per_event", || {
            1e9 * secs_of(|| classify(&log)) / events
        });
        self.probe("core.critpath.extract_ns_per_event", || {
            1e9 * secs_of(|| critpath::extract(&log)) / events
        });
        let windows = Windowing::Fixed(8);
        self.probe("core.timeline.build_us", || {
            1e6 * secs_of(|| mpi_sections::timeline::build(&log, &windows))
        });
        let identity = mpi_sections::WhatIfSpec::identity();
        self.probe("core.replay.identity_ns_per_event", || {
            1e9 * secs_of(|| mpi_sections::replay(&log, &machine, seed, &identity).expect("replay"))
                / events
        });
        let spec = mpi_sections::whatif::parse("jitter=0")?;
        self.probe("bench.whatif.analyze_ms", || {
            1e3 * secs_of(|| {
                bench::whatif::analyze(&log, &machine, seed, &spec, 1.0, p, &windows)
                    .expect("what-if scenario")
            })
        });
        let timeline = mpi_sections::timeline::build(&log, &windows);
        let trend_cfg = speedup::trend::TrendConfig::default();
        self.probe("speedup.trend.detect_us", || {
            1e6 * secs_of(|| speedup::trend::detect(&timeline, &trend_cfg))
        });
        let rows = study_rows();
        self.probe("speedup.study.from_rows_us", || {
            1e6 * secs_of(|| speedup::ScalingStudy::from_rows(&rows))
        });

        let profile = profiler.snapshot();
        self.probe("core.export.profile_csv_us", || {
            1e6 * secs_of(|| profile.to_csv())
        });
        self.probe("core.report.render_us", || {
            1e6 * secs_of(|| mpi_sections::render(&profile, &ReportOptions::default()))
        });
        let snapshot = pvar.snapshot();
        self.probe("core.export.pvar_json_us", || {
            1e6 * secs_of(|| snapshot.to_json())
        });
        let frozen = summary.freeze();
        self.probe("core.export.summary_json_us", || {
            1e6 * secs_of(|| frozen.to_json())
        });
        let spans = trace.len() as f64;
        self.probe("core.export.chrome_trace_ns_per_event", || {
            1e9 * secs_of(|| trace.to_chrome_trace()) / spans
        });
        let json = snapshot.to_json();
        self.probe("mpisim.jsoncheck.parse_mb_per_s", || {
            let secs = secs_of(|| mpisim::jsoncheck::check_json(&json).expect("pvar JSON"));
            json.len() as f64 / 1e6 / secs
        });

        self.emit(
            "core.summary.state_bytes_p64",
            Summary::of(&[frozen.state_bytes as f64]),
        );
        let big = SummaryTool::new();
        let sections = SectionRuntime::new(VerifyMode::Off);
        let tools: [Arc<dyn Tool>; 2] = [sections.clone(), big.clone()];
        simulate(
            self.p(4096),
            &presets::ideal(),
            seed,
            &Sim::conv(25),
            &sections,
            &tools,
        )?;
        self.emit(
            "core.summary.state_bytes_p4096",
            Summary::of(&[big.freeze().state_bytes as f64]),
        );
        Ok(())
    }

    /// mpistudy: grid expansion, the pool, documents, the store, the
    /// report, over an eight-cell grid.
    fn study(&mut self) -> Result<(), String> {
        let fig6 = "workload=conv machine=nehalem_cluster p=1,2,4,8,16,32,64,128,256,456 \
                    steps=1000 seeds=1,2,3";
        self.probe("mpistudy.config.expand_us", || {
            1e6 * secs_of(|| GridSpec::parse(fig6).expect("fig6 grid").cells())
        });

        let steps = self.reps(200);
        let (s0, s1) = (self.seed, self.seed + 1);
        let grid = GridSpec::parse(&format!(
            "workload=conv machine=nehalem_cluster p=16,32,48,64 steps={steps} seeds={s0},{s1}"
        ))?;
        let cells = grid.cells();
        let root = self.env.scratch.join("probe-store");
        let fresh = || -> RunStore {
            let _ = std::fs::remove_dir_all(&root);
            RunStore::open(&root).expect("probe store")
        };
        for jobs in [1, 2] {
            self.probe(
                &format!("mpistudy.pool.cold_cells_per_s_jobs{jobs}"),
                || {
                    let store = fresh();
                    cells.len() as f64 / secs_of(|| mpistudy::run_sweep(&store, &cells, jobs))
                },
            );
        }

        let store = fresh();
        mpistudy::run_sweep(&store, &cells, 1);
        self.probe("mpistudy.store.warm_sweep_ms", || {
            1e3 * secs_of(|| mpistudy::run_sweep(&store, &cells, 1))
        });
        self.probe("mpistudy.report.build_ms", || {
            1e3 * secs_of(|| mpistudy::report::build(&store))
        });
        let docs = store.iter();
        let per_doc = docs.len() as f64;
        self.probe("mpistudy.store.load_us_per_doc", || {
            1e6 * secs_of(|| docs.iter().filter_map(|d| store.load(&d.hash)).count()) / per_doc
        });
        self.probe("mpistudy.store.insert_us_per_doc", || {
            let store = fresh();
            1e6 * secs_of(|| {
                docs.iter()
                    .try_for_each(|d| store.insert(d))
                    .expect("insert")
            }) / per_doc
        });
        let doc = &docs[0];
        self.probe("mpistudy.doc.to_json_us", || {
            1e6 * secs_of(|| doc.to_json())
        });
        let text = doc.to_json();
        self.probe("mpistudy.doc.from_json_us", || {
            1e6 * secs_of(|| mpistudy::RunDoc::from_json(&text).expect("run document"))
        });
        let _ = std::fs::remove_dir_all(&root);
        Ok(())
    }

    /// What every invocation pays before any simulation, and the verifier
    /// (which has no end-to-end workload yet).
    fn fixed_costs(&mut self) -> Result<(), String> {
        let profile = self.env.bin("profile");
        let mut failure = None;
        self.probe("bench.profile.startup_ms", || {
            let start = Instant::now();
            let status = Command::new(&profile)
                .args(["conv", "--p", "1", "--steps", "1"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status();
            if !matches!(&status, Ok(s) if s.success()) {
                failure = Some(format!("profile conv --p 1 --steps 1: {status:?}"));
            }
            1e3 * start.elapsed().as_secs_f64()
        });
        self.probe("mpiverify.explore.schedules_per_s", || {
            let start = Instant::now();
            let report = mpiverify::explore(64, wildcard_fold);
            report.runs as f64 / start.elapsed().as_secs_f64()
        });
        failure.map_or(Ok(()), Err)
    }
}

/// Host ns rank 0 spends between two barriers around `steps` rounds of a
/// zero-compute ring exchange (both neighbours, 8 KiB virtual payloads).
fn exchange_ns(engine: Engine, p: usize, steps: usize) -> f64 {
    let report = WorldBuilder::new(p)
        .engine(engine)
        .run(move |pr| {
            let world = pr.world();
            let (me, n) = (pr.world_rank(), pr.world_size());
            let (left, right) = ((me + n - 1) % n, (me + 1) % n);
            world.barrier(pr);
            let start = Instant::now();
            for _ in 0..steps {
                world.sendrecv_virtual::<f64>(pr, right, 1, 1024, Src::Rank(left), TagSel::Is(1));
                world.sendrecv_virtual::<f64>(pr, left, 2, 1024, Src::Rank(right), TagSel::Is(2));
            }
            world.barrier(pr);
            start.elapsed().as_nanos() as f64
        })
        .expect("exchange world");
    report.results[0]
}

/// Host ns of `trips` two-rank round trips.
fn pingpong_ns(trips: usize) -> f64 {
    let report = WorldBuilder::new(2)
        .run(move |pr| {
            let world = pr.world();
            let peer = 1 - pr.world_rank();
            let start = Instant::now();
            for _ in 0..trips {
                if peer == 1 {
                    world.send(pr, peer, 0, &[0u64]);
                    world.recv::<u64>(pr, Src::Rank(peer), TagSel::Is(0));
                } else {
                    world.recv::<u64>(pr, Src::Rank(peer), TagSel::Is(0));
                    world.send(pr, peer, 0, &[0u64]);
                }
            }
            start.elapsed().as_nanos() as f64
        })
        .expect("ping-pong world");
    report.results[0]
}

/// Host ns for rank 0 to receive `depth` queued messages newest first, so
/// every match walks the whole remaining queue.
fn reverse_drain_ns(depth: usize) -> f64 {
    let report = WorldBuilder::new(2)
        .run(move |pr| {
            let world = pr.world();
            if pr.world_rank() == 1 {
                for tag in 0..depth {
                    world.send_virtual::<u8>(pr, 0, tag as i32, 8);
                }
                world.barrier(pr);
                return 0.0;
            }
            world.barrier(pr);
            let start = Instant::now();
            for tag in (0..depth).rev() {
                world.recv::<u8>(pr, Src::Rank(1), TagSel::Is(tag as i32));
            }
            start.elapsed().as_nanos() as f64
        })
        .expect("drain world");
    report.results[0]
}

/// Host ns rank 0 spends in `reps` rounds of one collective on `p` ranks.
fn collective_ns(
    p: usize,
    reps: usize,
    op: impl Fn(&mpisim::Comm, &mut mpisim::Proc) + Send + Sync,
) -> f64 {
    let report = WorldBuilder::new(p)
        .run(move |pr| {
            let world = pr.world();
            world.barrier(pr);
            let start = Instant::now();
            for _ in 0..reps {
                op(&world, pr);
            }
            start.elapsed().as_nanos() as f64
        })
        .expect("collective world");
    report.results[0]
}

/// Ten scales × seven sections of synthetic stored rows, shaped like the
/// Fig. 6 sweep's (per-process time falling as 1/p plus a growing term).
fn study_rows() -> Vec<speedup::StoredSectionRow> {
    let labels = convolution::SECTIONS
        .iter()
        .copied()
        .chain([mpi_sections::MPI_MAIN]);
    labels
        .enumerate()
        .flat_map(|(k, label)| {
            (0..10).map(move |e| {
                let p = 1usize << e;
                let avg = (k + 1) as f64 * 100.0 / p as f64 + 0.01 * p as f64;
                speedup::StoredSectionRow {
                    p,
                    label: label.to_string(),
                    avg_per_rank_secs: avg,
                    total_excl_secs: avg * p as f64,
                }
            })
        })
        .collect()
}

/// A four-rank world whose root folds three wildcard receives: the
/// verifier's unit of work is one forced re-execution of it.
fn wildcard_fold(ctl: &Arc<mpiverify::ScheduleController>) -> mpiverify::RunOutcome {
    let result = WorldBuilder::new(4)
        .seed(1)
        .match_controller(ctl.clone() as Arc<dyn mpisim::MatchController>)
        .run(|pr| {
            let world = pr.world();
            let me = pr.world_rank();
            if me != 0 {
                world.send(pr, 0, 7, &[me as u64]);
                world.barrier(pr);
                return 0;
            }
            world.barrier(pr);
            (1..4).fold(0u64, |acc, _| {
                let m = world.recv::<u64>(pr, Src::Any, TagSel::Is(7));
                acc.wrapping_mul(31).wrapping_add(m.data[0])
            })
        });
    match result {
        Ok(report) => mpiverify::RunOutcome {
            artifact: format!("{:?}", report.results),
            failure: None,
        },
        Err(e) => mpiverify::RunOutcome {
            artifact: String::new(),
            failure: Some(e.to_string()),
        },
    }
}
