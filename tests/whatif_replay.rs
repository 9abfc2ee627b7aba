//! Acceptance tests for the counterfactual replay engine: the identity
//! replay must be bitwise faithful, the fully idealized replay must
//! converge to the critical-path length, and removing jitter from the
//! noisy convolution run must recover the noise-free trend verdict the
//! trend detector pins in `timeline_trend.rs`.

use bench::whatif::{analyze, machine_config_json, to_json};
use mpi_sections::whatif::{parse, WhatIfSpec};
use mpi_sections::{classify, critpath, replay, CommLog, CommRecorder, SectionRuntime, VerifyMode};
use mpi_sections::{timeline, Windowing};
use mpisim::{waitall, Engine, Src, TagSel, WorldBuilder};
use speedup::trend::{detect, TrendConfig};
use std::sync::Arc;

fn conv_log(machine: machine::MachineModel, p: usize, steps: usize, seed: u64) -> CommLog {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let recorder = CommRecorder::new();
    let s = sections.clone();
    let cfg = Arc::new(convolution::ConvConfig::paper(steps));
    WorldBuilder::new(p)
        .machine(machine)
        .seed(seed)
        .tool(sections.clone())
        .tool(recorder.clone())
        .run(move |p| {
            convolution::run_convolution(p, &s, &cfg);
        })
        .expect("conv run failed");
    recorder.freeze()
}

fn lulesh_log(
    machine: machine::MachineModel,
    p: usize,
    iters: usize,
    threads: usize,
    seed: u64,
) -> CommLog {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let recorder = CommRecorder::new();
    let s = sections.clone();
    let size = lulesh_proxy::size_for(lulesh_proxy::PAPER_TOTAL_ELEMENTS, p).expect("cube p");
    let cfg = Arc::new(lulesh_proxy::LuleshConfig::timing(size, iters, threads));
    WorldBuilder::new(p)
        .machine(machine)
        .seed(seed)
        .tool(sections.clone())
        .tool(recorder.clone())
        .run(move |p| {
            lulesh_proxy::run_lulesh(p, &s, &cfg);
        })
        .expect("lulesh run failed");
    recorder.freeze()
}

/// Identity replay reproduces the recorded run bitwise: same makespan,
/// same wait-state report (JSON byte equality), same critical path.
#[test]
fn identity_replay_is_bitwise_faithful() {
    let m = machine::presets::nehalem_cluster();
    let log = conv_log(m.clone(), 8, 40, 1);
    let re = replay(&log, &m, 1, &WhatIfSpec::identity()).expect("identity replay");
    assert_eq!(re.makespan_ns(), log.makespan_ns());
    assert_eq!(classify(&re).to_json(), classify(&log).to_json());
    assert_eq!(
        critpath::extract(&re).to_json(),
        critpath::extract(&log).to_json()
    );
    let tl = timeline::build(&re, &Windowing::Fixed(8));
    let tl0 = timeline::build(&log, &Windowing::Fixed(8));
    assert_eq!(tl.to_json(), tl0.to_json());
}

/// A p = 8 world that puts a message or a round into the log every way
/// the API can: `sendrecv`, `isend`/`irecv`/`waitall`, a wildcard receive
/// (one possible sender, so the match is the schedule's in name only) and
/// an allreduce on a split communicator.
fn mixed_log(engine: Engine, machine: machine::MachineModel, seed: u64) -> CommLog {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let recorder = CommRecorder::new();
    let s = sections.clone();
    WorldBuilder::new(8)
        .engine(engine)
        .machine(machine)
        .seed(seed)
        .tool(sections.clone())
        .tool(recorder.clone())
        .run(move |p| {
            let world = p.world();
            let (me, n) = (p.world_rank(), p.world_size());
            let (left, right) = ((me + n - 1) % n, (me + 1) % n);
            let half = world.split(p, Some((me % 2) as i32), me as i32);
            let half = half.expect("every rank has a colour");
            for step in 0..3 {
                s.scoped(p, &world, "RING", |p| {
                    p.advance_secs(1e-4 * ((me + step) % 4 + 1) as f64);
                    let _ = world.sendrecv(
                        p,
                        right,
                        1,
                        &[me as u64; 32],
                        Src::Rank(left),
                        TagSel::Is(1),
                    );
                });
                s.scoped(p, &world, "HALO", |p| {
                    let reqs = [left, right]
                        .map(|from| world.irecv::<u64>(p, Src::Rank(from), TagSel::Is(2)));
                    for to in [left, right] {
                        world.isend(p, to, 2, &[step as u64; 64]).wait(p);
                    }
                    p.compute(machine::Work::new(1e6 * (me + 1) as f64, 1e5));
                    let _ = waitall(p, reqs.into());
                });
                s.scoped(p, &world, "FUNNEL", |p| {
                    if me == 0 {
                        let _ = world.recv::<u8>(p, Src::Any, TagSel::Is(9));
                    } else if me == 5 {
                        p.advance_secs(2e-4);
                        world.send(p, 0, 9, &[step as u8]);
                    }
                });
                s.scoped(p, &world, "HALVES", |p| {
                    let _ = half.allreduce_sum_f64(p, me as f64);
                });
            }
        })
        .expect("mixed run failed");
    recorder.freeze()
}

/// Every analysis of the mixed world is the same on both engines, and an
/// identity replay — and a replay of that replay — changes none of them:
/// what the log's tables resolve (a receive's send, a round's last
/// arrival, the walker's jump targets) does not depend on the order the
/// recorder was told in.
#[test]
fn mixed_world_agrees_across_engines_and_with_its_own_replay() {
    let analyses = |log: &CommLog| {
        [
            classify(log).to_json(),
            critpath::extract(log).to_json(),
            timeline::build(log, &Windowing::Fixed(5)).to_json(),
            timeline::build(log, &Windowing::Aligned("HALO".into())).to_json(),
        ]
    };
    let m = machine::presets::nehalem_cluster();
    let per_engine = [Engine::Des, Engine::Threads].map(|engine| {
        let log = mixed_log(engine, m.clone(), 3);
        let recorded = analyses(&log);
        let re = replay(&log, &m, 3, &WhatIfSpec::identity()).expect("identity replay");
        assert_eq!(
            analyses(&re),
            recorded,
            "{engine:?}: replay moved an analysis"
        );
        let again = replay(&re, &m, 3, &WhatIfSpec::identity()).expect("replay of a replay");
        assert_eq!(analyses(&again), recorded, "{engine:?}: second replay");
        assert_eq!(re.makespan_ns(), log.makespan_ns());
        assert_eq!(re.events(), log.events());
        // Not vacuous: every wait class occurred, on both communicators.
        let waits = classify(&log).totals();
        assert!(
            waits.late_sender_ns > 0 && waits.late_receiver_ns > 0,
            "{waits:?}"
        );
        assert!(classify(&log).per_section["HALVES"].coll_wait_ns > 0);
        recorded
    });
    assert_eq!(per_engine[0], per_engine[1]);
}

/// Fully idealized replay (free network, zero jitter) converges to the
/// critical-path length of the re-timed trace: with every priced
/// component at zero, the makespan *is* the longest dependency chain.
#[test]
fn ideal_replay_converges_to_critical_path() {
    let spec = parse("net=ideal,jitter=0").expect("spec");
    let cases: Vec<(&str, CommLog, machine::MachineModel)> = vec![
        (
            "conv p=8",
            conv_log(machine::presets::nehalem_cluster(), 8, 40, 1),
            machine::presets::nehalem_cluster(),
        ),
        (
            "conv p=64",
            conv_log(machine::presets::nehalem_cluster(), 64, 40, 1),
            machine::presets::nehalem_cluster(),
        ),
        (
            "lulesh p=8",
            lulesh_log(machine::presets::knl(), 8, 10, 1, 1),
            machine::presets::knl(),
        ),
        (
            "lulesh p=64",
            lulesh_log(machine::presets::knl(), 64, 10, 1, 1),
            machine::presets::knl(),
        ),
    ];
    for (name, log, m) in cases {
        let re = replay(&log, &m, 1, &spec).expect("ideal replay");
        let cp = critpath::extract(&re);
        let makespan = re.makespan_ns();
        let diff = makespan.abs_diff(cp.length_ns);
        assert!(
            diff <= 2,
            "{name}: idealized makespan {makespan} != critical path {} (diff {diff})",
            cp.length_ns
        );
    }
}

/// A program of the re-simulation property: conv recorded on the
/// Nehalem cluster for 40 steps, LULESH on the KNL for 10 iterations.
#[derive(Debug, Clone, Copy)]
enum Program {
    Conv { p: usize },
    Lulesh { p: usize, threads: usize },
}

impl Program {
    fn recorded_on(self) -> machine::MachineModel {
        match self {
            Program::Conv { .. } => machine::presets::nehalem_cluster(),
            Program::Lulesh { .. } => machine::presets::knl(),
        }
    }

    fn p(self) -> usize {
        match self {
            Program::Conv { p } | Program::Lulesh { p, .. } => p,
        }
    }

    fn run_on(self, m: machine::MachineModel) -> CommLog {
        match self {
            Program::Conv { p } => conv_log(m, p, 40, 1),
            Program::Lulesh { p, threads } => lulesh_log(m, p, 10, threads, 1),
        }
    }
}

/// Everything a re-timed log is compared by: makespan and the wait-state,
/// critical-path and timeline documents.
fn views(log: &CommLog) -> (u64, [String; 3]) {
    (
        log.makespan_ns(),
        [
            classify(log).to_json(),
            critpath::extract(log).to_json(),
            timeline::build(log, &Windowing::Fixed(8)).to_json(),
        ],
    )
}

/// How many ranks share each rank's node under `topology`.
fn node_mates(topology: machine::Topology, p: usize) -> Vec<usize> {
    (0..p)
        .map(|r| topology.ranks_on_node(topology.node_of(r), p))
        .collect()
}

/// Replay under an altered machine M′ is a run on M′: makespan, wait
/// states, critical path and timeline are bitwise equal, because both
/// clocks price every message and collective the same way and conv and
/// LULESH match no wildcard (their matching cannot depend on timing).
///
/// `jitter=0` is a run without noise and `net=ideal,jitter=0` one that
/// also has a free network. `net=X,jitter=0` takes machine X's network
/// and rank placement; it is compared only where every rank keeps its
/// node-mate count. Elsewhere the two legitimately differ, by design:
/// replay keeps the recorded compute, while a run re-prices memory
/// contention under the new node packing (conv at p = 64 moved from
/// eight ranks per node onto one node replays at 9.90 s and runs at
/// 77.42 s under the KNL placement).
#[test]
fn replay_under_an_altered_machine_equals_a_run_on_it() {
    let programs = [
        Program::Conv { p: 8 },
        Program::Conv { p: 64 },
        Program::Lulesh { p: 8, threads: 1 },
        Program::Lulesh { p: 8, threads: 4 },
        Program::Lulesh { p: 64, threads: 1 },
        Program::Lulesh { p: 64, threads: 4 },
    ];
    let mut compared = Vec::new();
    for program in programs {
        let recorded = program.recorded_on();
        let log = program.run_on(recorded.clone());
        let quiet = machine::MachineModel {
            noise: machine::NoiseModel::NONE,
            ..recorded.clone()
        };
        let mut cases = vec![
            ("jitter=0".to_string(), quiet.clone()),
            (
                "net=ideal,jitter=0".to_string(),
                machine::MachineModel {
                    network: machine::NetworkModel::FREE,
                    ..quiet.clone()
                },
            ),
        ];
        for name in ["nehalem", "knl", "broadwell", "future"] {
            let x = machine::presets::by_name(name).expect("preset");
            let p = program.p();
            if node_mates(x.topology, p) == node_mates(recorded.topology, p) {
                let m = machine::MachineModel {
                    network: x.network,
                    topology: x.topology,
                    ..quiet.clone()
                };
                cases.push((format!("net={name},jitter=0"), m));
            }
        }
        for (spec, altered) in cases {
            let re = replay(&log, &recorded, 1, &parse(&spec).expect("spec")).expect("replay");
            assert!(
                views(&re) == views(&program.run_on(altered)),
                "{program:?} {spec}: replay and re-simulation disagree"
            );
            compared.push(format!("{program:?} {spec}"));
        }
    }
    // 12 noise-free cases, plus 19 placements that keep the node-mates:
    // conv p = 8 under all four presets, conv p = 64 only under its own,
    // LULESH p = 8 under all four and p = 64 under the three one-node ones.
    assert_eq!(compared.len(), 31, "{compared:#?}");
}

/// The PR 5 pinned scenario, counterfactually: the noisy p=64 run flags
/// HALO as degrading (late-sender); replaying the same trace with the
/// jitter removed must recover the noise-free verdict — no degrading
/// sections — without re-running the program.
#[test]
fn jitter_free_replay_recovers_noise_free_trend_verdict() {
    let m = machine::presets::nehalem_cluster();
    let log = conv_log(m.clone(), 64, 100, 1);

    let baseline = timeline::build(&log, &Windowing::Fixed(8));
    let trends = detect(&baseline, &TrendConfig::default());
    let halo = trends
        .iter()
        .find(|t| t.label == convolution::SECTION_HALO)
        .expect("HALO trend");
    assert!(halo.degrading, "noisy baseline must flag HALO: {halo:?}");

    let spec = parse("jitter=0").expect("spec");
    let re = replay(&log, &m, 1, &spec).expect("jitter-free replay");
    let tl = timeline::build(&re, &Windowing::Fixed(8));
    let trends = detect(&tl, &TrendConfig::default());
    assert!(
        trends.iter().all(|t| !t.degrading),
        "jitter-free replay still flags: {:?}",
        trends
            .iter()
            .filter(|t| t.degrading)
            .map(|t| (&t.label, t.slope))
            .collect::<Vec<_>>()
    );
    // The HALO trajectory is genuinely analyzed and flat, not skipped.
    let halo = trends
        .iter()
        .find(|t| t.label == convolution::SECTION_HALO)
        .expect("HALO trend");
    assert!(!halo.degrading, "{halo:?}");
    // Removing noise can only help: the prediction is not slower.
    assert!(re.makespan_ns() <= log.makespan_ns());
}

/// The what-if report is jsoncheck-valid and byte-deterministic across
/// equal seeds, for every clause type at once.
#[test]
fn whatif_report_json_is_valid_and_deterministic() {
    let m = machine::presets::nehalem_cluster();
    let specs = [
        "jitter=0".to_string(),
        "net=ideal".to_string(),
        "null=late-sender".to_string(),
        format!("scale:{}=0.5", convolution::SECTION_HALO),
    ];
    let emit = || {
        let log = conv_log(m.clone(), 8, 40, 7);
        let scenarios: Vec<_> = specs
            .iter()
            .map(|raw| {
                let spec = parse(raw).expect("spec");
                analyze(&log, &m, 7, &spec, 10.0, 8, &Windowing::Fixed(8)).expect("scenario")
            })
            .collect();
        to_json(&scenarios)
    };
    let a = emit();
    let b = emit();
    assert_eq!(a, b, "what-if JSON must be byte-deterministic");
    mpisim::jsoncheck::check_json(&a).unwrap_or_else(|pos| panic!("invalid JSON at {pos}: {a}"));
    assert!(!a.contains("inf") && !a.contains("NaN"), "{a}");
}

/// The machine config block is jsoncheck-valid for every preset,
/// including the ideal machine's non-finite bandwidth.
#[test]
fn machine_config_block_is_valid_for_every_preset() {
    for m in [
        machine::presets::nehalem_cluster(),
        machine::presets::knl(),
        machine::presets::dual_broadwell(),
        machine::presets::ideal(),
    ] {
        let json = machine_config_json(&m);
        mpisim::jsoncheck::check_json(&json)
            .unwrap_or_else(|pos| panic!("{}: invalid JSON at {pos}: {json}", m.name));
    }
}
