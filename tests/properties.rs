//! Cross-crate property tests: random phase-structured programs measured
//! through the full stack satisfy the paper's structural guarantees.

use machine::{presets, Work};
use mpisim::{Src, TagSel, WorldBuilder};
use mpiverify::{explore, RunOutcome, ScheduleController, Verdict};
use proptest::prelude::*;
use speedup_repro::sections::{
    partial_bound_per_process, Profile, SectionProfiler, SectionRuntime, VerifyMode,
};
use speedup_repro::speedup::ScalingStudy;
use std::sync::Arc;

/// A random phase-structured SPMD program: a list of (label, flops-scale,
/// uses-collective) phases repeated over a few steps.
#[derive(Debug, Clone)]
struct Phase {
    label: u8,
    flops: f64,
    collective: bool,
}

fn phases() -> impl Strategy<Value = Vec<Phase>> {
    prop::collection::vec(
        (0u8..5, 1.0f64..100.0, any::<bool>()).prop_map(|(label, flops, collective)| Phase {
            label,
            flops: flops * 1e6,
            collective,
        }),
        1..5,
    )
}

fn run_phases(
    nranks: usize,
    steps: usize,
    program: &Arc<Vec<Phase>>,
    seed: u64,
) -> mpi_sections::Profile {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let profiler = SectionProfiler::new();
    sections.attach(profiler.clone());
    let s = sections.clone();
    let program = program.clone();
    WorldBuilder::new(nranks)
        .machine(presets::nehalem_cluster())
        .seed(seed)
        .tool(sections.clone())
        .run(move |p| {
            let world = p.world();
            for _ in 0..steps {
                for phase in program.iter() {
                    s.scoped(p, &world, &format!("phase{}", phase.label), |p| {
                        p.compute(Work::flops(phase.flops / p.world_size() as f64));
                        if phase.collective {
                            let _ = world.allreduce_sum_f64(p, 1.0);
                        }
                    });
                }
            }
        })
        .unwrap();
    profiler.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Eq. 6 structural guarantee, read off a study over three scales
    /// (1, n, 2n): for any random program, at every scale, the measured
    /// program speedup never exceeds any section's bound. A two-scale
    /// study (a comparison of two runs) gives each section's own speedup
    /// as baseline total over per-process time, bit for bit.
    #[test]
    fn eq6_holds_for_random_programs(program in phases(), n in 2usize..5) {
        let program = Arc::new(program);
        let runs: Vec<(usize, Profile)> = [1, n, 2 * n]
            .into_iter()
            .map(|p| (p, run_phases(p, 3, &program, 7)))
            .collect();
        let rows_of = |(p, profile): &(usize, Profile)| {
            bench::study_rows(*p, &[bench::CellOutcome::from_profile(profile, 0.0)])
        };
        let study = ScalingStudy::from_rows(&runs.iter().flat_map(rows_of).collect::<Vec<_>>());

        for (p, measured) in study.speedups() {
            for (section, bound) in study.bounds_at(p) {
                prop_assert!(
                    measured <= bound + 1e-6,
                    "S={measured} exceeds {}'s bound {bound} at p={p}",
                    section.label
                );
            }
        }

        let (base, target) = (&runs[0], &runs[2]);
        let pair = ScalingStudy::from_rows(&[rows_of(base), rows_of(target)].concat());
        for label in target.1.world_labels() {
            let expected = partial_bound_per_process(
                base.1.get_world(label).map_or(0.0, |s| s.total_own_secs),
                target.1.get_world(label).unwrap().avg_per_rank_secs(),
            );
            let section = &pair.sections[label];
            prop_assert_eq!(
                pair.section_speedup(section, 2 * n).map(f64::to_bits),
                Some(expected.to_bits()),
                "{}", label
            );
            prop_assert_eq!(
                study.section_speedup(&study.sections[label], 2 * n).map(f64::to_bits),
                Some(expected.to_bits()),
                "{}", label
            );
        }
    }

    /// Exclusive-time partition: over any random program, the sum of
    /// exclusive section times equals the summed per-rank elapsed time.
    #[test]
    fn exclusive_times_partition_elapsed(program in phases(), nranks in 1usize..6) {
        let program = Arc::new(program);
        let profile = run_phases(nranks, 2, &program, 3);
        let excl: f64 = profile.sections().map(|s| s.total_excl_secs).sum();
        let main = profile.get_world(mpi_sections::MPI_MAIN).unwrap();
        prop_assert!(
            (excl - main.total_own_secs).abs() < 1e-6,
            "{excl} vs {}",
            main.total_own_secs
        );
    }

    /// Verifier soundness on race-free programs: a random phase program
    /// (deterministic collectives, no competing wildcard senders) extended
    /// with a single-sender wildcard receive must come out of schedule
    /// exploration fully refuted — zero divergent fingerprints, every
    /// wildcard site trivially refuted or exhaustively byte-identical.
    #[test]
    fn race_free_programs_are_refuted(program in phases(), nranks in 2usize..5) {
        let program = Arc::new(program);
        let report = explore(32, |ctl: &Arc<ScheduleController>| {
            let sections = SectionRuntime::new(VerifyMode::Active);
            let profiler = SectionProfiler::new();
            sections.attach(profiler.clone());
            let s = sections.clone();
            let program = program.clone();
            let run = WorldBuilder::new(nranks)
                .machine(presets::nehalem_cluster())
                .seed(5)
                .engine(mpisim::Engine::Des)
                .match_controller(ctl.clone() as Arc<dyn mpisim::MatchController>)
                .tool(sections.clone())
                .run(move |p| {
                    let world = p.world();
                    for phase in program.iter() {
                        s.scoped(p, &world, &format!("phase{}", phase.label), |p| {
                            p.compute(Work::flops(phase.flops / p.world_size() as f64));
                            if phase.collective {
                                let _ = world.allreduce_sum_f64(p, 1.0);
                            }
                        });
                    }
                    // A wildcard receive with exactly one live sender:
                    // `Src::Any` in form, race-free in fact.
                    if p.world_rank() == 0 {
                        let m = world.recv::<u64>(p, Src::Any, TagSel::Is(3));
                        m.data[0]
                    } else {
                        if p.world_rank() == 1 {
                            world.send(p, 0, 3, &[41u64]);
                        }
                        0
                    }
                });
            match run {
                Ok(rep) => {
                    let mut artifact = format!("{:?};", rep.results);
                    for sec in profiler.snapshot().sections() {
                        artifact.push_str(&format!(
                            "{}:{};",
                            sec.key.label,
                            (sec.total_own_secs * 1e9).round() as u64
                        ));
                    }
                    RunOutcome { artifact, failure: None }
                }
                Err(e) => RunOutcome { artifact: String::new(), failure: Some(e.to_string()) },
            }
        });
        prop_assert_eq!(report.divergent, 0, "race-free program produced divergent fingerprints");
        prop_assert!(!report.any_confirmed());
        prop_assert!(report.exhausted_space, "exploration should exhaust a race-free space");
        prop_assert!(!report.verdicts.is_empty(), "the wildcard site must be judged");
        for v in &report.verdicts {
            prop_assert!(
                matches!(
                    v,
                    Verdict::TriviallyRefuted { .. }
                        | Verdict::Refuted { exhaustive: true, .. }
                ),
                "unexpected verdict: {v:?}"
            );
        }
    }

    /// Determinism through the whole stack: identical seeds, identical
    /// profiles, for any random program.
    #[test]
    fn full_stack_determinism(program in phases()) {
        let program = Arc::new(program);
        let a = run_phases(4, 2, &program, 11);
        let b = run_phases(4, 2, &program, 11);
        let sig = |p: &mpi_sections::Profile| -> Vec<(String, u64)> {
            p.sections()
                .map(|s| (s.key.label.clone(), (s.total_own_secs * 1e9).round() as u64))
                .collect()
        };
        prop_assert_eq!(sig(&a), sig(&b));
    }
}
