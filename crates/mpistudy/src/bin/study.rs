//! The sweep-service CLI.
//!
//! ```text
//! study run    --store DIR --grid "workload=conv machine=nehalem_cluster \
//!                                  p=1,8,64 steps=250 seeds=0,1,2" [--jobs N]
//! study report --store DIR [--out DIR] [--json]
//! study ls     --store DIR
//! study gc     --store DIR
//! ```
//!
//! `run` expands the grid, skips every cell whose config hash is already
//! stored (a warm sweep executes zero simulations) and fans the rest over
//! `--jobs` worker threads. `report` serves all analyses from the store —
//! it never simulates. `gc` verifies every document (parse + content hash
//! vs filename) and removes violators. (Sweep timings live in
//! `benchmark/`: `study_fig6_cold` and the `mpistudy.*` probes.)

use mpistudy::{config::GridSpec, report, run_sweep, RunStore, SweepStats};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
    };
    let mut store_dir: Option<PathBuf> = None;
    let mut grid: Option<String> = None;
    let mut jobs = 1usize;
    let mut out: Option<PathBuf> = None;
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => {
                store_dir = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--grid" => {
                grid = Some(args[i + 1].clone());
                i += 2;
            }
            "--jobs" => {
                jobs = args[i + 1].parse().expect("--jobs N");
                i += 2;
            }
            "--out" => {
                out = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
    }

    match command.as_str() {
        "run" => {
            let store = open_store(store_dir);
            let spec = grid.unwrap_or_else(|| {
                eprintln!("run needs --grid \"...\"");
                std::process::exit(2);
            });
            let grid = GridSpec::parse(&spec).unwrap_or_else(|e| {
                eprintln!("bad grid: {e}");
                std::process::exit(2);
            });
            let cells = grid.cells();
            let start = Instant::now();
            let stats = run_sweep(&store, &cells, jobs);
            report_sweep(&stats, cells.len(), jobs, start.elapsed().as_secs_f64());
        }
        "report" => {
            let store = open_store(store_dir);
            let rep = report::build(&store);
            if json {
                print!("{}", rep.to_json());
            } else {
                print!("{}", rep.render());
            }
            if let Some(out) = out {
                match rep.write_figures(&out) {
                    Ok(paths) => {
                        for p in paths {
                            eprintln!("wrote {}", p.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("figure write failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        "ls" => {
            let store = open_store(store_dir);
            for doc in store.iter() {
                println!(
                    "{}  {:9} p={:<5} seed={:<3} machine={} wall={:.3}s",
                    doc.hash, doc.workload, doc.p, doc.seed, doc.machine, doc.wall_secs
                );
            }
        }
        "gc" => {
            let store = open_store(store_dir);
            match store.gc() {
                Ok(rep) => {
                    println!(
                        "gc: {} intact, {} removed, {} stale tmp",
                        rep.intact,
                        rep.removed.len(),
                        rep.stale_tmp
                    );
                    for p in &rep.removed {
                        eprintln!("removed corrupt {}", p.display());
                    }
                }
                Err(e) => {
                    eprintln!("gc failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: study <run|report|ls|gc> [options]\n\
         \n\
         study run    --store DIR --grid \"SPEC\" [--jobs N]\n\
         study report --store DIR [--out DIR] [--json]\n\
         study ls     --store DIR\n\
         study gc     --store DIR\n\
         \n\
         grid SPEC: workload=conv|conv-weak|lulesh machine=NAME p=LIST\n\
         \x20          [steps=N] [rows_per_rank=N] [s=N] [iters=N] [threads=N]\n\
         \x20          [seeds=LIST]"
    );
    std::process::exit(2);
}

fn open_store(dir: Option<PathBuf>) -> RunStore {
    let dir = dir.unwrap_or_else(|| {
        eprintln!("missing --store DIR");
        std::process::exit(2);
    });
    RunStore::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot open store: {e}");
        std::process::exit(1);
    })
}

fn report_sweep(stats: &SweepStats, total: usize, jobs: usize, secs: f64) {
    println!(
        "sweep: {} cells, {} executed, {} cached ({}% hit), jobs={}, {:.2}s",
        total,
        stats.executed,
        stats.cached,
        (100 * stats.cached).checked_div(total).unwrap_or(0),
        jobs,
        secs,
    );
}
