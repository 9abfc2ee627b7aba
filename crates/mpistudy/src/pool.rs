//! The sweep worker pool.
//!
//! Each grid cell is a full DES world — single-threaded, deterministic,
//! CPU-bound — so cells parallelize perfectly across OS threads: `--jobs
//! N` runs N worlds at once with zero shared mutable simulation state.
//! The pool is a plain shared `Mutex<VecDeque>` work queue (cells are
//! seconds-long; queue contention is noise).
//!
//! Before simulating, a worker checks the store: a cell whose config hash
//! is already present, in a document that parses, is **skipped without
//! touching any simulation code** — the warm-sweep property the tests pin
//! (`executed == 0`). A document that no longer parses is simulated again
//! and replaced. Machine calibration is likewise derived once per distinct
//! machine model (process-wide, `machine::calibration::cached`) and
//! persisted once per fingerprint.

use crate::config::{machine_fingerprint, resolve_machine, CellConfig, Workload};
use crate::doc::RunDoc;
use crate::store::RunStore;
use bench::{CellOutcome, Program};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// What a sweep did: how many cells it simulated, served from the store,
/// or could not run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Cells actually simulated (and inserted), a stored document that did
    /// not parse replaced among them.
    pub executed: usize,
    /// Cells already present in a document that parses — skipped without
    /// running any simulation.
    pub cached: usize,
    /// Cells whose simulation or store write failed; each is reported on
    /// stderr and leaves no document behind.
    pub failed: usize,
}

/// The program a cell's workload runs at scale `p`, unless the cell asks
/// for something no run accepts.
fn program(workload: &Workload, p: usize) -> Result<Program, String> {
    Ok(match *workload {
        Workload::Conv { steps } => Program::Conv(convolution::ConvConfig::paper(steps)),
        Workload::ConvWeak {
            rows_per_rank,
            steps,
        } => Program::conv_weak(p, rows_per_rank, steps),
        Workload::Lulesh { s, iters, threads } => {
            let threads =
                lulesh_proxy::threads_in_range(threads).map_err(|e| format!("threads= {e}"))?;
            Program::Lulesh(lulesh_proxy::LuleshConfig::timing(s, iters, threads))
        }
    })
}

/// Simulate one cell (no store interaction).
pub fn execute_cell(cfg: &CellConfig, machine: &machine::MachineModel) -> CellOutcome {
    try_execute_cell(cfg, machine).expect("cell run failed")
}

fn try_execute_cell(
    cfg: &CellConfig,
    machine: &machine::MachineModel,
) -> Result<CellOutcome, String> {
    let program = program(&cfg.workload, cfg.p)?;
    bench::profiled_cell(program, cfg.p, machine, cfg.seed).map_err(|e| e.to_string())
}

/// Check the store, else simulate one cell and persist it. `Ok(true)`
/// when the cell was simulated, `Ok(false)` when it was already stored;
/// an error names the cell by its canonical configuration. A stored
/// document that does not parse is named on stderr and replaced.
fn sweep_cell(store: &RunStore, cfg: &CellConfig) -> Result<bool, String> {
    // Resolving the preset is cheap; the calibration behind it is
    // cached process-wide by the machine crate.
    let machine = resolve_machine(&cfg.machine)?;
    let fp = machine_fingerprint(&machine);
    let run = || -> Result<bool, String> {
        match store.get(&cfg.hash(&fp)) {
            Some(Ok(_)) => return Ok(false),
            Some(Err((path, reason))) => {
                eprintln!("{}: {reason}; simulating the cell again", path.display());
            }
            None => {}
        }
        if !store.contains_machine(&fp) {
            let calibration = machine::calibration::cached(&machine);
            store
                .insert_machine(&fp, &calibration.to_json())
                .map_err(|e| format!("store machine calibration: {e}"))?;
        }
        let outcome = try_execute_cell(cfg, &machine)?;
        store
            .insert(&RunDoc::new(cfg, &fp, &outcome))
            .map_err(|e| format!("store run document: {e}"))?;
        Ok(true)
    };
    run().map_err(|e| format!("{}: {e}", cfg.canonical(&fp)))
}

/// Fan `cells` across `jobs` worker threads against `store`. Returns the
/// executed/cached/failed split. A cell that cannot run — its simulation
/// returns an error or panics, or its document cannot be written — is
/// reported on stderr and counted as failed; the other cells still run.
pub fn run_sweep(store: &RunStore, cells: &[CellConfig], jobs: usize) -> SweepStats {
    let queue: Mutex<VecDeque<&CellConfig>> = Mutex::new(cells.iter().collect());
    let stats = Mutex::new(SweepStats::default());
    let worker = || loop {
        let Some(cfg) = queue.lock().expect("sweep queue").pop_front() else {
            return;
        };
        // No lock is held while a cell runs, so a panic in one cannot
        // poison the queue or the tally.
        let outcome = catch_unwind(AssertUnwindSafe(|| sweep_cell(store, cfg)))
            .unwrap_or_else(|_| Err(format!("{cfg:?}: panicked")));
        let mut stats = stats.lock().expect("sweep stats");
        match outcome {
            Ok(true) => stats.executed += 1,
            Ok(false) => stats.cached += 1,
            Err(e) => {
                stats.failed += 1;
                eprintln!("cell failed: {e}");
            }
        }
    };
    if jobs <= 1 {
        // Run inline: keeps single-job sweeps debuggable (no thread hop).
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(worker);
            }
        });
    }
    stats.into_inner().expect("sweep stats")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GridSpec;

    fn tmp_store(tag: &str) -> RunStore {
        let dir =
            std::env::temp_dir().join(format!("mpistudy-pool-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    #[test]
    fn warm_sweep_executes_nothing() {
        // The tentpole acceptance test: a second sweep over an identical
        // grid must be served entirely from the store.
        let store = tmp_store("warm");
        let grid =
            GridSpec::parse("workload=conv machine=ideal p=1,2,4 steps=3 seeds=0,1").unwrap();
        let cold = run_sweep(&store, &grid.cells(), 2);
        assert_eq!(
            cold,
            SweepStats {
                executed: 6,
                cached: 0,
                failed: 0
            }
        );
        let warm = run_sweep(&store, &grid.cells(), 2);
        assert_eq!(
            warm,
            SweepStats {
                executed: 0,
                cached: 6,
                failed: 0
            }
        );
        // And the store holds exactly the grid, plus one machine doc.
        assert_eq!(store.iter().len(), 6);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn partial_overlap_executes_only_the_new_cells() {
        let store = tmp_store("overlap");
        let small = GridSpec::parse("workload=conv machine=ideal p=1,2 steps=3").unwrap();
        run_sweep(&store, &small.cells(), 1);
        let bigger = GridSpec::parse("workload=conv machine=ideal p=1,2,4,8 steps=3").unwrap();
        let stats = run_sweep(&store, &bigger.cells(), 2);
        assert_eq!(
            stats,
            SweepStats {
                executed: 2,
                cached: 2,
                failed: 0
            }
        );
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn parallel_and_serial_sweeps_store_identical_documents() {
        // Determinism across the pool: each cell is an isolated world, so
        // jobs=4 must produce byte-identical documents to jobs=1.
        let grid =
            GridSpec::parse("workload=conv machine=ideal p=1,2,4,8 steps=3 seeds=0,1").unwrap();
        let serial = tmp_store("serial");
        let parallel = tmp_store("parallel");
        run_sweep(&serial, &grid.cells(), 1);
        run_sweep(&parallel, &grid.cells(), 4);
        let a: Vec<String> = serial.iter().iter().map(RunDoc::to_json).collect();
        let b: Vec<String> = parallel.iter().iter().map(RunDoc::to_json).collect();
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(serial.root());
        let _ = std::fs::remove_dir_all(parallel.root());
    }
}
