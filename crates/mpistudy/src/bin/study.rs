//! The sweep-service CLI (`study` with no arguments prints the usage).
//!
//! `run` expands the grid, skips every cell whose config hash is already
//! stored (a warm sweep executes zero simulations) and fans the rest over
//! a pool of worker threads; a cell that cannot run is reported, the rest
//! still run, and the exit code is 1. `report` serves all analyses from
//! the store — it never simulates. `gc` verifies every document (parse +
//! content hash vs filename) and removes violators. (Sweep timings live in
//! `benchmark/`: `study_fig6_cold` and the `mpistudy.*` probes.)

use bench::cli::{Cli, Flag, Parsed};
use mpistudy::{config::GridSpec, report, run_sweep, RunStore};
use std::path::PathBuf;
use std::time::Instant;

const STORE: Flag = Flag::value(
    "--store",
    "DIR",
    "the run store (required by every command)",
);
const GRID: Flag = Flag::value("--grid", "SPEC", "run: the grid to sweep");
const JOBS: Flag = Flag::value("--jobs", "N", "run: worker threads (default 1)");
const OUT: Flag = Flag::value("--out", "DIR", "report: also write the figure CSVs here");
const JSON: Flag = Flag::switch("--json", "report: print JSON instead of tables");

const CLI: Cli<'static> = Cli {
    synopsis: "study <run|report|ls|gc> [options]",
    flags: &[STORE, GRID, JOBS, OUT, JSON],
    notes: "grid SPEC: workload=conv|conv-weak|lulesh machine=NAME p=LIST\n\
            \x20          [steps=N] [rows_per_rank=N] [s=N] [iters=N] [threads=N]\n\
            \x20          [seeds=LIST]",
};

enum Command {
    Run { grid: GridSpec, jobs: usize },
    Report { out: Option<PathBuf>, json: bool },
    Ls,
    Gc,
}

fn command(parsed: Parsed) -> Result<(Command, PathBuf), String> {
    let jobs = parsed.num(&JOBS, 1)?;
    let command = match parsed.only_positional("<command>")? {
        "run" => {
            let spec = parsed
                .get(&GRID)
                .ok_or_else(|| format!("run needs {} \"...\"", GRID.name))?;
            Command::Run {
                grid: GridSpec::parse(spec).map_err(|e| format!("{}: {e}", GRID.name))?,
                jobs,
            }
        }
        "report" => Command::Report {
            out: parsed.get(&OUT).map(PathBuf::from),
            json: parsed.has(&JSON),
        },
        "ls" => Command::Ls,
        "gc" => Command::Gc,
        other => return Err(format!("unknown command '{other}'")),
    };
    let store = parsed
        .get(&STORE)
        .ok_or_else(|| format!("missing {} DIR", STORE.name))?;
    Ok((command, PathBuf::from(store)))
}

/// The store's run documents, or exit 2 naming each one that does not
/// read or parse: a report or listing without it would silently drop its
/// cell.
fn readable_docs(store: &RunStore) -> Vec<mpistudy::RunDoc> {
    let (docs, bad) = store.scan();
    if bad.is_empty() {
        return docs;
    }
    for (path, reason) in bad {
        eprintln!("error: {}: {reason}; 'study gc' removes it", path.display());
    }
    std::process::exit(2);
}

fn main() {
    let (command, store_dir) = CLI.parse_env_or_exit(command);
    let store = RunStore::open(store_dir).unwrap_or_else(|e| {
        eprintln!("cannot open store: {e}");
        std::process::exit(1);
    });
    match command {
        Command::Run { grid, jobs } => {
            let cells = grid.cells();
            let start = Instant::now();
            let stats = run_sweep(&store, &cells, jobs);
            println!(
                "sweep: {} cells, {} executed, {} cached ({}% hit), jobs={}, {:.2}s",
                cells.len(),
                stats.executed,
                stats.cached,
                (100 * stats.cached).checked_div(cells.len()).unwrap_or(0),
                jobs,
                start.elapsed().as_secs_f64(),
            );
            if stats.failed > 0 {
                eprintln!("sweep: {} cell(s) failed", stats.failed);
                std::process::exit(1);
            }
        }
        Command::Report { out, json } => {
            let rep = report::from_docs(readable_docs(&store));
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
        Command::Ls => {
            for doc in readable_docs(&store) {
                println!(
                    "{}  {:9} p={:<5} seed={:<3} machine={} wall={:.3}s",
                    doc.hash, doc.workload, doc.p, doc.seed, doc.machine, doc.wall_secs
                );
            }
        }
        Command::Gc => match store.gc() {
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
        },
    }
}
