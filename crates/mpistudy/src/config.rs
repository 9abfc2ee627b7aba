//! Grid-cell configuration: the canonical string and its content hash.
//!
//! A cell is one `(workload, machine, p, seed)` simulation. Its canonical
//! string is the *complete* recipe — every parameter that can change the
//! simulated result appears in it, including a fingerprint of the machine
//! model's full parameter dump (so editing a preset never reuses a stale
//! run). The store key is the FNV-1a hash of that string: equal configs
//! collide onto the same document, different configs practically never do.

use machine::MachineModel;
use mpi_sections::fasthash;

/// What a grid cell simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// The §5.1 convolution at the paper's image size.
    Conv {
        /// Time steps.
        steps: usize,
    },
    /// The weak-scaling convolution: constant rows per rank.
    ConvWeak {
        /// Image rows owned by each rank.
        rows_per_rank: usize,
        /// Time steps.
        steps: usize,
    },
    /// The §5.2 LULESH proxy in hybrid MPI+OpenMP configuration.
    Lulesh {
        /// Per-rank problem size (elements per edge).
        s: usize,
        /// Timeloop iterations.
        iters: usize,
        /// OpenMP threads per rank.
        threads: usize,
    },
}

impl Workload {
    /// The workload's name as it appears in grid specs and documents.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Conv { .. } => "conv",
            Workload::ConvWeak { .. } => "conv-weak",
            Workload::Lulesh { .. } => "lulesh",
        }
    }

    /// The workload's parameters in canonical `key=value` order.
    fn canonical_params(&self) -> String {
        match self {
            Workload::Conv { steps } => format!("steps={steps}"),
            Workload::ConvWeak {
                rows_per_rank,
                steps,
            } => format!("rows_per_rank={rows_per_rank} steps={steps}"),
            Workload::Lulesh { s, iters, threads } => {
                format!("s={s} iters={iters} threads={threads}")
            }
        }
    }
}

/// One grid cell: a single simulation the store can hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellConfig {
    /// The workload and its parameters.
    pub workload: Workload,
    /// Machine preset name (resolved via [`resolve_machine`]).
    pub machine: String,
    /// MPI process count.
    pub p: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl CellConfig {
    /// The canonical configuration string. `machine_fp` is the FNV-1a
    /// fingerprint of the machine model's full parameter dump
    /// ([`machine_fingerprint`]); folding it in means a cell priced under
    /// an edited machine model hashes to a different store key.
    pub fn canonical(&self, machine_fp: &str) -> String {
        format!(
            "mpistudy-cell-v1 workload={} {} machine={} machine_fp={} p={} seed={}",
            self.workload.name(),
            self.workload.canonical_params(),
            self.machine,
            machine_fp,
            self.p,
            self.seed,
        )
    }

    /// The store key: 16 hex digits of FNV-1a over the canonical string.
    pub fn hash(&self, machine_fp: &str) -> String {
        fasthash::fnv1a_hex(&self.canonical(machine_fp))
    }
}

/// The FNV-1a fingerprint of a machine model's full parameter dump.
pub fn machine_fingerprint(m: &MachineModel) -> String {
    fasthash::fnv1a_hex(&m.describe())
}

/// Resolve a machine preset by name (the registry is
/// [`machine::presets::by_name`]).
pub fn resolve_machine(name: &str) -> Result<MachineModel, String> {
    machine::presets::by_name(name)
}

/// A parsed `--grid` specification, expandable into cells.
///
/// Syntax: whitespace-separated `key=value` pairs, each key at most once;
/// `p` and `seeds` take comma-separated lists, every other key exactly
/// one value. Example:
///
/// ```text
/// workload=conv machine=nehalem_cluster p=1,8,64 steps=250 seeds=0,1,2
/// ```
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Workload template (per-cell `p`/`seed` filled in on expansion).
    pub workload: Workload,
    /// Machine preset name.
    pub machine: String,
    /// Process counts to sweep.
    pub ps: Vec<usize>,
    /// Seeds to sweep.
    pub seeds: Vec<u64>,
}

impl GridSpec {
    /// Parse a grid spec string.
    pub fn parse(spec: &str) -> Result<GridSpec, String> {
        let mut workload = None;
        let mut machine = None;
        let mut ps = Vec::new();
        let mut seeds = Vec::new();
        let mut steps = None;
        let mut rows_per_rank = None;
        let mut s = None;
        let mut iters = None;
        let mut threads = None;
        let mut given: Vec<&str> = Vec::new();
        for pair in spec.split_whitespace() {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("grid spec entry '{pair}' is not key=value"))?;
            if given.contains(&key) {
                return Err(format!("grid spec: '{key}' given twice"));
            }
            given.push(key);
            let list_usize = |v: &str| -> Result<Vec<usize>, String> {
                v.split(',')
                    .map(|x| x.parse().map_err(|_| format!("bad number '{x}' in {key}")))
                    .collect()
            };
            // A key that is not swept takes one value; running the first
            // of a list would truncate the sweep without saying so.
            let one = |v: &str| match list_usize(v)?.as_slice() {
                [n] => Ok(Some(*n)),
                _ => Err(format!("grid spec: {key}= takes one value, got '{v}'")),
            };
            match key {
                "workload" => workload = Some(value.to_string()),
                "machine" => machine = Some(value.to_string()),
                "p" => {
                    ps = list_usize(value)?;
                    if ps.contains(&0) {
                        return Err(format!("grid spec: p= expects N >= 1, got '{value}'"));
                    }
                }
                "seeds" => {
                    seeds = value
                        .split(',')
                        .map(|x| x.parse().map_err(|_| format!("bad seed '{x}'")))
                        .collect::<Result<_, String>>()?;
                }
                "steps" => steps = one(value)?,
                "rows_per_rank" => rows_per_rank = one(value)?,
                "s" => s = one(value)?,
                "iters" => iters = one(value)?,
                "threads" => threads = one(value)?,
                other => return Err(format!("unknown grid key '{other}'")),
            }
        }
        let workload = match workload.as_deref() {
            Some("conv") => Workload::Conv {
                steps: steps.ok_or("conv needs steps=")?,
            },
            Some("conv-weak") => Workload::ConvWeak {
                rows_per_rank: rows_per_rank.ok_or("conv-weak needs rows_per_rank=")?,
                steps: steps.ok_or("conv-weak needs steps=")?,
            },
            Some("lulesh") => Workload::Lulesh {
                s: s.ok_or("lulesh needs s=")?,
                iters: iters.ok_or("lulesh needs iters=")?,
                threads: threads.ok_or("lulesh needs threads=")?,
            },
            Some(other) => return Err(format!("unknown workload '{other}'")),
            None => return Err("grid spec needs workload=".to_string()),
        };
        let machine = machine.ok_or("grid spec needs machine=")?;
        resolve_machine(&machine)?;
        if ps.is_empty() {
            return Err("grid spec needs p=".to_string());
        }
        if seeds.is_empty() {
            seeds.push(0);
        }
        Ok(GridSpec {
            workload,
            machine,
            ps,
            seeds,
        })
    }

    /// Expand to the full cell list (p outer, seed inner — the order the
    /// figures consume seeds in).
    pub fn cells(&self) -> Vec<CellConfig> {
        let mut out = Vec::with_capacity(self.ps.len() * self.seeds.len());
        for &p in &self.ps {
            for &seed in &self.seeds {
                out.push(CellConfig {
                    workload: self.workload.clone(),
                    machine: self.machine.clone(),
                    p,
                    seed,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_and_hash_are_stable() {
        let cell = CellConfig {
            workload: Workload::Conv { steps: 250 },
            machine: "nehalem_cluster".into(),
            p: 64,
            seed: 1,
        };
        let canon = cell.canonical("deadbeefdeadbeef");
        assert_eq!(
            canon,
            "mpistudy-cell-v1 workload=conv steps=250 machine=nehalem_cluster \
             machine_fp=deadbeefdeadbeef p=64 seed=1"
        );
        // The hash is the plain FNV-1a of the canonical string — pinned so
        // a refactor can never silently orphan every stored run.
        assert_eq!(cell.hash("deadbeefdeadbeef"), fasthash::fnv1a_hex(&canon));
        assert_eq!(cell.hash("deadbeefdeadbeef").len(), 16);
    }

    #[test]
    fn hash_distinguishes_every_axis() {
        let base = CellConfig {
            workload: Workload::Conv { steps: 250 },
            machine: "nehalem_cluster".into(),
            p: 64,
            seed: 1,
        };
        let fp = "0000000000000000";
        let mut other = base.clone();
        other.p = 65;
        assert_ne!(base.hash(fp), other.hash(fp));
        let mut other = base.clone();
        other.seed = 2;
        assert_ne!(base.hash(fp), other.hash(fp));
        let mut other = base.clone();
        other.workload = Workload::Conv { steps: 251 };
        assert_ne!(base.hash(fp), other.hash(fp));
        assert_ne!(base.hash(fp), base.hash("0000000000000001"));
    }

    #[test]
    fn grid_spec_expands_p_outer_seed_inner() {
        let grid =
            GridSpec::parse("workload=conv machine=nehalem p=1,8 steps=50 seeds=0,1").unwrap();
        let cells = grid.cells();
        assert_eq!(cells.len(), 4);
        assert_eq!((cells[0].p, cells[0].seed), (1, 0));
        assert_eq!((cells[1].p, cells[1].seed), (1, 1));
        assert_eq!((cells[2].p, cells[2].seed), (8, 0));
        assert_eq!((cells[3].p, cells[3].seed), (8, 1));
    }

    #[test]
    fn grid_spec_rejects_nonsense() {
        assert!(GridSpec::parse("workload=conv machine=nehalem steps=5").is_err()); // no p
        assert!(GridSpec::parse("workload=conv machine=marsrover p=1 steps=5").is_err());
        assert!(GridSpec::parse("workload=quantum machine=knl p=1").is_err());
        assert!(GridSpec::parse("workload=conv machine=knl p=1").is_err()); // no steps
        assert!(GridSpec::parse("workload=lulesh machine=knl p=1 s=8 iters=3").is_err());
    }

    #[test]
    fn grid_spec_rejects_what_it_would_silently_truncate() {
        // Running the first value of a list on a key that is not swept,
        // or the last of a repeated key, would exit 0 on a sweep nobody
        // asked for.
        let err = GridSpec::parse("workload=conv machine=nehalem p=1 steps=3,9").unwrap_err();
        assert_eq!(err, "grid spec: steps= takes one value, got '3,9'");
        let err = GridSpec::parse("workload=conv machine=nehalem p=2 p=4 steps=3").unwrap_err();
        assert_eq!(err, "grid spec: 'p' given twice");
        let err = GridSpec::parse("workload=conv machine=nehalem p=1 steps=3 steps=3");
        assert_eq!(err.unwrap_err(), "grid spec: 'steps' given twice");
        // The swept keys still take lists.
        let grid = GridSpec::parse("workload=conv machine=nehalem p=2,4 steps=3 seeds=0,1");
        assert_eq!(grid.unwrap().cells().len(), 4);
    }

    #[test]
    fn lulesh_and_weak_specs_parse() {
        let g = GridSpec::parse("workload=lulesh machine=knl p=1,8 s=8 iters=3 threads=4 seeds=5")
            .unwrap();
        assert_eq!(
            g.workload,
            Workload::Lulesh {
                s: 8,
                iters: 3,
                threads: 4
            }
        );
        let g =
            GridSpec::parse("workload=conv-weak machine=nehalem p=1,2 rows_per_rank=468 steps=10")
                .unwrap();
        assert_eq!(
            g.workload,
            Workload::ConvWeak {
                rows_per_rank: 468,
                steps: 10
            }
        );
        assert_eq!(g.seeds, vec![0]); // default seed
    }
}
