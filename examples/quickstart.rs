//! Quickstart: outline the phases of a small MPI program with
//! `MPI_Section`s, profile them, and read off the paper's Fig. 3 metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The program is a toy domain-decomposition loop: each of 8 ranks
//! computes, exchanges a boundary with its neighbours, and participates in
//! a global reduction — with rank 3 deliberately slowed down so the
//! imbalance metrics have something to show.

use machine::{presets, Work};
use mpisim::{Src, TagSel, WorldBuilder};
use speedup_repro::sections::{
    render_bounds, SectionProfiler, SectionRuntime, VerifyMode, MPI_MAIN,
};

fn main() {
    // 1. Create the section runtime and attach the profiler tool — the
    //    equivalent of linking a PMPI tool against an instrumented app.
    let sections = SectionRuntime::new(VerifyMode::Active);
    let profiler = SectionProfiler::new();
    sections.attach(profiler.clone());

    // 2. Run an SPMD program on a simulated 8-core-per-node cluster.
    let s = sections.clone();
    let report = WorldBuilder::new(8)
        .machine(presets::nehalem_cluster())
        .seed(42)
        .tool(sections.clone()) // opens/closes MPI_MAIN at Init/Finalize
        .run(move |p| {
            let world = p.world();
            let rank = p.world_rank();
            let n = p.world_size();
            for step in 0..20 {
                // COMPUTE: rank 3 is a straggler.
                s.scoped(p, &world, "COMPUTE", |p| {
                    let slow = if rank == 3 { 2.0 } else { 1.0 };
                    p.compute(Work::flops(2.0e8 * slow));
                });
                // EXCHANGE: ring sendrecv with the right neighbour.
                s.scoped(p, &world, "EXCHANGE", |p| {
                    let right = (rank + 1) % n;
                    let left = (rank + n - 1) % n;
                    let _ = world.sendrecv(
                        p,
                        right,
                        step,
                        &[rank as f64],
                        Src::Rank(left),
                        TagSel::Is(step),
                    );
                });
                // REDUCE: a global residual norm.
                s.scoped(p, &world, "REDUCE", |p| {
                    let _ = world.allreduce_sum_f64(p, rank as f64);
                });
            }
        })
        .expect("run failed");

    // 3. Read the profile: this is what a section-aware tool reports.
    let profile = profiler.snapshot();
    println!("simulated job walltime: {:.3} s\n", report.makespan_secs());
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>14} {:>12}",
        "section", "instances", "total (s)", "avg/rank (s)", "entry imb (s)", "imb (s)"
    );
    for label in [MPI_MAIN, "COMPUTE", "EXCHANGE", "REDUCE"] {
        let st = profile.get_world(label).expect("profiled");
        println!(
            "{:<10} {:>10} {:>12.3} {:>12.3} {:>14.6} {:>12.6}",
            label,
            st.instances,
            st.total_own_secs,
            st.avg_per_rank_secs(),
            st.mean_entry_imbalance_secs,
            st.mean_imbalance_secs,
        );
    }

    // 4. The paper's point: the straggler-limited COMPUTE section bounds
    //    the achievable speedup (Eq. 6) without running at any other scale.
    let seq_estimate: f64 = profile.total_over(&["COMPUTE", "EXCHANGE", "REDUCE"]);
    println!("\n{}", render_bounds(&profile, seq_estimate, 8));
}
