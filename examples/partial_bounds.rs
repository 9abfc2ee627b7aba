//! Partial speedup bounding (Eq. 6) end to end: run a phase-structured
//! program at one modest scale, derive the per-section bounds, then check
//! them against speedups actually measured at larger scales.
//!
//! The program has three sections with different scaling behaviour:
//! perfectly parallel work, a sequential (rank 0 only) phase, and a
//! collective whose cost grows with p. Amdahl's law sees only the
//! aggregate; the section bounds name the culprit.
//!
//! ```text
//! cargo run --release --example partial_bounds
//! ```

use bench::CellOutcome;
use machine::{presets, NoiseModel, Work};
use mpisim::WorldBuilder;
use speedup_repro::sections::{Profile, SectionProfiler, SectionRuntime, VerifyMode};
use speedup_repro::speedup::ScalingStudy;

const STEPS: usize = 30;

fn run_at(p: usize) -> (Profile, f64) {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let profiler = SectionProfiler::new();
    sections.attach(profiler.clone());
    let s = sections.clone();
    // Noise off: with jitter, a section following an imbalanced phase
    // absorbs its neighbours' waiting time, which muddies the clean
    // "SERIAL time is constant in p" story this example demonstrates.
    // (The convolution study keeps the noise — there the coupling *is*
    // the finding.)
    let mut machine = presets::nehalem_cluster();
    machine.noise = NoiseModel::NONE;
    let report = WorldBuilder::new(p)
        .machine(machine)
        .seed(13)
        .tool(sections.clone())
        .run(move |proc| {
            let world = proc.world();
            for _ in 0..STEPS {
                // Perfectly parallel: total work divides by p.
                s.scoped(proc, &world, "PARALLEL", |proc| {
                    let share = 2.0e9 / proc.world_size() as f64;
                    proc.compute(Work::flops(share));
                });
                // Sequential: rank 0 works, everyone converges at a bcast.
                s.scoped(proc, &world, "SERIAL", |proc| {
                    if proc.world_rank() == 0 {
                        proc.compute(Work::flops(2.0e7));
                    }
                    let _ = world.bcast(proc, 0, (proc.world_rank() == 0).then(|| vec![1u8]));
                });
                // Collective whose cost grows with the communicator size.
                s.scoped(proc, &world, "EXCHANGE", |proc| {
                    let _ = world.allgather(proc, vec![0f64; 2048]);
                });
            }
        })
        .expect("run failed");
    (profiler.snapshot(), report.makespan_secs())
}

fn main() {
    let (seq_profile, seq_wall) = run_at(1);
    let seq_total = seq_profile.total_over(&["PARALLEL", "SERIAL", "EXCHANGE"]);
    println!("sequential: wall {seq_wall:.2} s (section total {seq_total:.2} s)\n");

    // Bounds derived at p = 8 (Eq. 6 per section): the sequential run and
    // the probe read as one study at two scales.
    let probe_p = 8;
    let (probe, probe_wall) = run_at(probe_p);
    let rows_of = |p: usize, profile: &Profile, wall: f64| {
        bench::study_rows(p, &[CellOutcome::from_profile(profile, wall)])
    };
    let rows = [
        rows_of(1, &seq_profile, seq_wall),
        rows_of(probe_p, &probe, probe_wall),
    ]
    .concat();
    let study = ScalingStudy::from_rows(&rows);
    println!("per-section bounds derived at p = {probe_p} (tightest first):");
    for (section, bound) in study.bounds_at(probe_p) {
        println!("  {:<10} S <= {bound:>8.2}", section.label);
    }
    let (binding_label, binding) = study.binding_at(probe_p).expect("a section has cost");
    println!("  -> binding constraint: {binding_label} (S <= {binding:.2})\n");

    // Compare against measured speedups at larger scales. SERIAL's
    // per-process time cannot shrink with p, so its bound transposes.
    let serial_bound = study.sections["SERIAL"]
        .bound_at(probe_p)
        .expect("SERIAL measured at the probe scale");
    println!(
        "{:>6} {:>10} {:>10} {:>22}",
        "p", "wall (s)", "speedup", "within SERIAL bound?"
    );
    for p in [8usize, 16, 32, 64, 128] {
        let (_, wall) = run_at(p);
        let s = seq_wall / wall;
        println!(
            "{p:>6} {wall:>10.2} {s:>10.2} {:>22}",
            if s <= serial_bound {
                "yes"
            } else {
                "NO (check model)"
            }
        );
    }
    println!(
        "\nAmdahl would need a fitted \"serial fraction\"; the section bound\n\
         points at the SERIAL phase directly from measurable region times —\n\
         the practical advantage the paper argues for in Section 2."
    );
}
