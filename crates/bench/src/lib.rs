//! Shared experiment harness: one way to simulate a run, the result rows
//! of the figures two front ends share, and CSV/table output.
//!
//! Every conv / LULESH / race world the harness simulates — a `profile`
//! run and its `--compare-seq` baseline, a figure row, an mpistudy grid
//! cell — is built by [`Launch::run`], so equal configurations are the
//! same program on the same machine by construction. A caller that wants
//! the section profile of such a run has two entry points and no third:
//! [`profiled`] (the full [`Profile`]) and [`profiled_cell`] (the
//! [`CellOutcome`] a sweep store persists). The `figures` binary (this
//! crate's `src/bin/figures.rs`) regenerates every table and figure of
//! the paper from them; `study report` builds the rows it shares with
//! `figures` from stored cells through the same [`conv_run_from_cells`]
//! and row builders. Host time is measured in one place, the standalone
//! `benchmark/` package. [`cli`] is the argument layer the three
//! binaries share.

pub mod cli;
pub mod whatif;

use convolution::{run_convolution, run_convolution_2d, ConvConfig};
use lulesh_proxy::{run_lulesh, LuleshConfig};
use machine::MachineModel;
use mpi_sections::{Profile, SectionProfiler, SectionRuntime, VerifyMode};
use mpisim::{Engine, MatchController, RunError, RunReport, Src, TagSel, Tool, WorldBuilder};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// What a launch simulates.
#[derive(Debug, Clone)]
pub enum Program {
    /// The §5.1 convolution benchmark.
    Conv(ConvConfig),
    /// The same image and stencil on a 2-D process grid (the `decomp-2d`
    /// study).
    Conv2d(ConvConfig),
    /// The §5.2 LULESH proxy.
    Lulesh(LuleshConfig),
    /// The deliberately racy demonstration workload: ranks 1..p each send
    /// a *different* payload (value and length scale with the rank) to
    /// rank 0, which drains them through an order-sensitive
    /// wildcard-receive fold. Any two matchings produce different
    /// checksums and different transfer timings, so `profile --verify`
    /// confirms the race; replaying either witness schedule reproduces
    /// its checksum exactly.
    Race,
}

impl Program {
    /// The weak-scaling convolution: the per-rank image slice is held
    /// constant (`rows_per_rank` rows of the paper's 5616-wide image)
    /// while the global image grows with `p` — the Gustafson-regime
    /// workload.
    pub fn conv_weak(p: usize, rows_per_rank: usize, steps: usize) -> Program {
        Program::Conv(ConvConfig {
            width: 5616,
            height: rows_per_rank * p,
            steps,
            fidelity: convolution::Fidelity::Timing,
            store_path: None,
        })
    }
}

/// One simulated run, fully specified: the only place the harness builds
/// a world for a [`Program`].
pub struct Launch<'a> {
    /// The program every rank executes.
    pub program: Program,
    /// MPI process count.
    pub p: usize,
    /// The machine pricing the run.
    pub machine: &'a MachineModel,
    /// Noise seed.
    pub seed: u64,
    /// `None` keeps the builder default (`des`, honoring `MPISIM_ENGINE`).
    pub engine: Option<Engine>,
    /// Steers wildcard matching (exploration, witness replay). Either
    /// engine's global decision order is deterministic; a witness replays
    /// under the engine that recorded it.
    pub controller: Option<Arc<dyn MatchController>>,
}

impl Launch<'_> {
    /// Run with `sections` as the first PMPI tool and `tools` after it,
    /// in order. Rank results are the race's wildcard checksum on rank 0
    /// and 0 everywhere else.
    pub fn run(
        self,
        sections: &Arc<SectionRuntime>,
        tools: Vec<Arc<dyn Tool>>,
    ) -> Result<RunReport<u64>, RunError> {
        let mut builder = WorldBuilder::new(self.p)
            .machine(self.machine.clone())
            .seed(self.seed)
            .tool(sections.clone());
        if let Some(engine) = self.engine {
            builder = builder.engine(engine);
        }
        if let Some(controller) = self.controller {
            builder = builder.match_controller(controller);
        }
        for tool in tools {
            builder = builder.tool(tool);
        }
        match self.program {
            Program::Conv(cfg) => builder.run(|p| {
                run_convolution(p, sections, &cfg);
                0
            }),
            Program::Conv2d(cfg) => builder.run(|p| {
                run_convolution_2d(p, sections, &cfg);
                0
            }),
            Program::Lulesh(cfg) => builder.run(|p| {
                run_lulesh(p, sections, &cfg);
                0
            }),
            Program::Race => builder.run(|p| run_race(p, sections)),
        }
    }
}

fn run_race(p: &mut mpisim::Proc, s: &SectionRuntime) -> u64 {
    let world = p.world();
    let me = p.world_rank();
    let n = p.world_size();
    s.scoped(p, &world, "RACE", |p| {
        let world = p.world();
        if me == 0 {
            world.barrier(p);
            let mut acc: u64 = 0;
            for _ in 1..n {
                let m = world.recv::<u64>(p, Src::Any, TagSel::Is(7));
                acc = acc
                    .wrapping_mul(31)
                    .wrapping_add(m.data[0].wrapping_mul(n as u64))
                    .wrapping_add(m.src as u64);
            }
            acc
        } else {
            world.send(p, 0, 7, &vec![me as u64; me]);
            world.barrier(p);
            0
        }
    })
}

/// Launch `program` under a fresh section runtime (verification off) and
/// section profiler on the default engine: the full section profile and
/// the makespan in seconds.
pub fn profiled(
    program: Program,
    p: usize,
    machine: &MachineModel,
    seed: u64,
) -> Result<(Profile, f64), RunError> {
    let sections = SectionRuntime::new(VerifyMode::Off);
    let profiler = SectionProfiler::new();
    sections.attach(profiler.clone());
    let launch = Launch {
        program,
        p,
        machine,
        seed,
        engine: None,
        controller: None,
    };
    let report = launch.run(&sections, Vec::new())?;
    Ok((profiler.snapshot(), report.makespan_secs()))
}

/// [`profiled`], reduced to the cell a sweep store persists.
pub fn profiled_cell(
    program: Program,
    p: usize,
    machine: &MachineModel,
    seed: u64,
) -> Result<CellOutcome, RunError> {
    let (profile, wall) = profiled(program, p, machine, seed)?;
    Ok(CellOutcome::from_profile(&profile, wall))
}

/// One profiled run of the convolution benchmark.
#[derive(Debug, Clone)]
pub struct ConvRun {
    /// Number of MPI processes.
    pub p: usize,
    /// Simulated wall time (makespan) in seconds.
    pub wall: f64,
    /// Total time per section, summed across ranks (Fig. 5b), in seconds.
    pub section_total: BTreeMap<String, f64>,
}

impl ConvRun {
    /// Total time of a section, summed across ranks (Fig. 5b); a section
    /// the run never entered reads as zero.
    pub fn total(&self, label: &str) -> f64 {
        self.section_total.get(label).copied().unwrap_or(0.0)
    }

    /// Average time per process for a section (Fig. 5c).
    pub fn avg_per_rank(&self, label: &str) -> f64 {
        self.total(label) / self.p as f64
    }

    /// Percentage of execution spent in a section (Fig. 5a): its share of
    /// the sum of all leaf-section totals.
    pub fn percent(&self, label: &str) -> f64 {
        let denom: f64 = self.section_total.values().sum();
        if denom == 0.0 {
            return 0.0;
        }
        100.0 * self.total(label) / denom
    }
}

/// One world-communicator section of a simulated grid cell, as a sweep
/// store persists it: plain numbers, no live [`Profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellSection {
    /// Section label.
    pub label: String,
    /// Ranks that traversed the section.
    pub participants: usize,
    /// Inclusive seconds summed over ranks.
    pub total_own_secs: f64,
    /// Exclusive seconds summed over ranks.
    pub total_excl_secs: f64,
    /// Inclusive seconds averaged per participating rank.
    pub avg_per_rank_secs: f64,
}

/// The outcome of one simulated grid cell — a single `(workload, machine,
/// p, seed)` run. This is the unit the mpistudy run store persists; every
/// cross-run figure is rebuilt from these (see [`conv_run_from_cells`]),
/// so the same row builders serve the ad-hoc harness and the store.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// Simulated wall time (makespan) in seconds.
    pub wall_secs: f64,
    /// World-communicator sections in label order (including `MPI_MAIN`).
    pub sections: Vec<CellSection>,
}

impl CellOutcome {
    /// Extract the world-communicator sections of `profile`.
    pub fn from_profile(profile: &Profile, wall_secs: f64) -> CellOutcome {
        let sections = profile
            .sections()
            .filter(|s| s.key.comm == mpisim::CommId::WORLD)
            .map(|s| CellSection {
                label: s.key.label.clone(),
                participants: s.participants,
                total_own_secs: s.total_own_secs,
                total_excl_secs: s.total_excl_secs,
                avg_per_rank_secs: s.avg_per_rank_secs(),
            })
            .collect();
        CellOutcome {
            wall_secs,
            sections,
        }
    }

    /// The section labelled `label`; one the run never entered reads as
    /// zero ranks and zero seconds.
    pub fn section(&self, label: &str) -> &CellSection {
        static ABSENT: CellSection = CellSection {
            label: String::new(),
            participants: 0,
            total_own_secs: 0.0,
            total_excl_secs: 0.0,
            avg_per_rank_secs: 0.0,
        };
        self.sections
            .iter()
            .find(|s| s.label == label)
            .unwrap_or(&ABSENT)
    }
}

/// Average per-seed cell outcomes (the paper averages 20 runs) into the
/// [`ConvRun`] the figures consume. This is the one averaging: `figures`
/// feeds it the cells it just simulated, `study report` the cells it
/// read back from the store, so a figure regenerated from stored cells is
/// byte-identical to the harness's. The accumulation order (cells in the
/// order given, [`convolution::SECTIONS`] inner, divide once at the end)
/// is part of that contract.
pub fn conv_run_from_cells(p: usize, cells: &[CellOutcome]) -> ConvRun {
    assert!(!cells.is_empty());
    let mut acc: BTreeMap<String, f64> = BTreeMap::new();
    let mut wall = 0.0;
    for cell in cells {
        wall += cell.wall_secs;
        for label in convolution::SECTIONS {
            *acc.entry(label.to_string()).or_insert(0.0) += cell.section(label).total_own_secs;
        }
    }
    let n = cells.len() as f64;
    acc.values_mut().for_each(|v| *v /= n);
    ConvRun {
        p,
        wall: wall / n,
        section_total: acc,
    }
}

// ---------------------------------------------------------------------
// Shared figure row builders
//
// Both the `figures` harness and the mpistudy `report` command build
// these CSVs; routing both through one function is what makes the
// regenerated files byte-identical (same float summation order, same
// formatting) — the property the study smoke test pins.
// ---------------------------------------------------------------------

/// The process counts of the §5.1 convolution study ("up to 456 cores").
pub const CONV_PS: [usize; 13] = [1, 8, 16, 32, 64, 80, 96, 112, 128, 144, 192, 256, 456];

/// Header of `results/fig6.csv`.
pub const FIG6_HEADER: [&str; 5] = ["p", "halo_total_s", "B", "paper_halo_s", "paper_B"];

/// The paper's Fig. 6 numbers: `p -> (HALO total s, bound B)`.
pub fn fig6_paper() -> BTreeMap<usize, (f64, f64)> {
    [
        (64, (3025.44, 118.25)),
        (80, (1288.64, 363.96)),
        (112, (1822.38, 343.54)),
        (128, (14135.56, 50.61)),
        (144, (2716.03, 181.17)),
    ]
    .into_iter()
    .collect()
}

/// The paper's 5589.84 s: the total section time of the sequential run
/// (`runs` must start with the smallest scale).
pub fn seq_total(runs: &[ConvRun]) -> f64 {
    runs[0].section_total.values().sum()
}

/// Fig. 6 rows — inferred partial speedup bounds from the HALO section,
/// next to the paper's values.
pub fn fig6_rows(runs: &[ConvRun]) -> Vec<Vec<String>> {
    let seq = seq_total(runs);
    let paper = fig6_paper();
    runs.iter()
        .filter(|r| paper.contains_key(&r.p))
        .map(|r| {
            let halo = r.total("HALO");
            let b = speedup::partial_bound(seq, halo, r.p);
            let (ph, pb) = paper[&r.p];
            vec![r.p.to_string(), f2(halo), f2(b), f2(ph), f2(pb)]
        })
        .collect()
}

/// The process counts of the weak-scaling study.
pub const WEAK_PS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Rows of image kept per rank in the weak-scaling study (1/8 of the
/// paper's 3744-row image).
pub const WEAK_ROWS_PER_RANK: usize = 468;

/// Header of `results/weak_scaling.csv`.
pub const WEAK_HEADER: [&str; 6] = [
    "p",
    "height",
    "wall_s",
    "weak_eff",
    "scaled_speedup",
    "gustafson_fs",
];

/// Weak-scaling rows from `(p, wall_secs)` points in ascending-`p` order
/// (the `p = 1` point is the Gustafson baseline).
pub fn weak_scaling_rows(rows_per_rank: usize, walls: &[(usize, f64)]) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut t1 = 0.0;
    for &(p, wall) in walls {
        if p == 1 {
            t1 = wall;
        }
        let eff = speedup::weak_efficiency(t1, wall);
        let scaled = speedup::scaled_speedup_measured(t1, wall, p);
        let fs = speedup::gustafson_serial_fraction(scaled, p);
        rows.push(vec![
            p.to_string(),
            (rows_per_rank * p).to_string(),
            f2(wall),
            format!("{eff:.3}"),
            f2(scaled),
            format!("{fs:.4}"),
        ]);
    }
    rows
}

// ---------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------

/// Write rows as CSV under `results/` (creating the directory), returning
/// the path written.
pub fn write_csv(
    dir: &Path,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(path)
}

/// Render an aligned text table (header + rows) to a string.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Format a float with 2 decimals (table cells).
pub fn f2(x: f64) -> String {
    if x.is_infinite() {
        "inf".to_string()
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_measurement_smoke() {
        let m = machine::presets::nehalem_cluster();
        let cells: Vec<CellOutcome> = [1, 2]
            .iter()
            .map(|&seed| profiled_cell(Program::Conv(ConvConfig::paper(5)), 4, &m, seed).unwrap())
            .collect();
        let run = conv_run_from_cells(4, &cells);
        assert_eq!(run.p, 4);
        assert!(run.wall > 0.0);
        assert!(run.total("CONVOLVE") > 0.0);
        assert_eq!(run.total("no such section"), 0.0);
        let pct_sum: f64 = convolution::SECTIONS.iter().map(|l| run.percent(l)).sum();
        assert!((pct_sum - 100.0).abs() < 1e-6, "{pct_sum}");
    }

    #[test]
    fn lulesh_measurement_smoke() {
        let m = machine::presets::knl();
        let program = Program::Lulesh(LuleshConfig::timing(8, 3, 2));
        let (profile, wall) = profiled(program, 1, &m, 1).unwrap();
        let cell = CellOutcome::from_profile(&profile, wall);
        let [walltime, nodal, elements] = ["timeloop", "LagrangeNodal", "LagrangeElements"]
            .map(|label| cell.section(label).avg_per_rank_secs);
        assert!(walltime > 0.0);
        assert!(nodal > 0.0 && elements > 0.0);
        assert!(nodal + elements < walltime * 1.01);
        // The cell carries the profile's own number, not a recomputation.
        let direct = profile.get_world("timeloop").unwrap().avg_per_rank_secs();
        assert_eq!(walltime.to_bits(), direct.to_bits());
        assert_eq!(cell.section("no such section").participants, 0);
    }

    #[test]
    fn table_rendering() {
        let t = render_table(
            &["p", "time"],
            &[
                vec!["1".into(), "10.00".into()],
                vec!["64".into(), "0.50".into()],
            ],
        );
        assert!(t.contains(" p   time"));
        assert!(t.contains("64   0.50"));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("bench-csv-test");
        let path = write_csv(&dir, "test", &["a", "b"], &[vec!["1".into(), "2".into()]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
        std::fs::remove_file(path).ok();
    }
}
