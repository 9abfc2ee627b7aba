//! The closed-loop load generator: one client running one operation at a
//! time against the release `profile` and `study` binaries, timing each
//! from spawn to exit and checking what it wrote.

use crate::reference::{self, Reference};
use crate::spec::{Observe, Op, ProfileOp, Program, StudyOp};
use crate::stats::Summary;
use mpi_sections::fasthash::fnv1a;
use std::cell::RefCell;
use std::fs::{self, File};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Resources one waited child used.
#[derive(Debug, Clone, Copy)]
pub struct Spent {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rss_mb: f64,
}

/// Run `cmd` to completion and report its wall time (spawn → exit), its
/// user+sys CPU and its peak resident set, all as the OS accounts them
/// for exactly this child.
fn spawn_and_wait(cmd: &mut Command) -> Result<(ExitStatus, Spent), String> {
    let start = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn {:?}: {e}", cmd.get_program()))?;
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as the
        // kernel expects (see `Rusage`); the pid is a child of this
        // process that nothing else waits for — `child` is never waited
        // through std, and dropping it neither kills nor reaps.
        let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
        if rc >= 0 {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok((
        ExitStatus::from_raw(status),
        Spent {
            wall_s,
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            rss_mb: ru.maxrss as f64 / 1024.0,
        },
    ))
}

/// Where the benchmark runs: the release binaries, a scratch directory
/// that is removed when the value drops, and the host-speed reference.
pub struct Env {
    bin_dir: PathBuf,
    pub scratch: PathBuf,
    reference: RefCell<Reference>,
}

impl Env {
    /// Build `profile` and `study` in release mode at the repository
    /// root and open a scratch directory inside the target
    /// directory. Cargo decides freshness, so a stale or debug binary is
    /// never measured: only `<target>/release` is ever executed, right
    /// after `cargo build --release` succeeded on the current sources.
    pub fn prepare() -> Result<Env, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("benchmark/ has a parent")
            .to_path_buf();
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--quiet",
                "-p",
                "bench",
                "-p",
                "mpistudy",
            ])
            .current_dir(&root)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!(
                "cargo build --release -p bench -p mpistudy: {status}"
            ));
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => root.join(dir),
            None => root.join("target"),
        };
        let bin_dir = target.join("release");
        for bin in ["profile", "study"] {
            if !bin_dir.join(bin).is_file() {
                return Err(format!(
                    "{} missing after the build",
                    bin_dir.join(bin).display()
                ));
            }
        }
        let scratch = target.join(format!("benchmark-scratch-{}", std::process::id()));
        let _ = fs::remove_dir_all(&scratch);
        fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        Ok(Env {
            bin_dir,
            scratch,
            reference: RefCell::new(Reference::spawn()?),
        })
    }

    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// Where a traced pass leaves its spans.
    pub fn spans_path(&self) -> PathBuf {
        self.bin_dir.join("benchmark-spans.json")
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.scratch);
    }
}

/// What an operation wrote, reduced to fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Artifacts {
    /// The profile CSV, or the figure CSVs `study report` wrote: the
    /// paper arithmetic `golden.json` pins.
    pub golden: u64,
    /// Every file the operation wrote, names included.
    pub all: u64,
}

impl Artifacts {
    /// Fingerprint what `op` left in `dir`: every expected artifact must
    /// exist and not be empty, every JSON one must be well-formed.
    pub fn of(op: &Op, dir: &Path) -> Result<Artifacts, String> {
        let golden_file = match op {
            Op::Profile(_) => dir.join("profile.csv"),
            Op::Study(_) => dir.join("out"),
        };
        let mut golden = Vec::new();
        fold_files(&golden_file, &golden_file, &mut golden)?;
        let mut all = Vec::new();
        fold_files(dir, dir, &mut all)?;
        Ok(Artifacts {
            golden: fnv1a(&golden),
            all: fnv1a(&all),
        })
    }
}

/// The `profile` command line of `op` writing into `dir`.
fn profile_args(op: &ProfileOp, seed: u64, dir: &Path) -> Vec<String> {
    let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let mut a: Vec<String> = Vec::new();
    match op.program {
        Program::Conv => {
            a.extend(["conv".into(), "--steps".into(), op.steps.to_string()]);
        }
        Program::Lulesh { threads } => a.extend([
            "lulesh".into(),
            "--threads".into(),
            threads.to_string(),
            "--iters".into(),
            op.steps.to_string(),
        ]),
    }
    a.extend(["--p".into(), op.p.to_string()]);
    if let Some(m) = op.machine {
        a.extend(["--machine".into(), m.into()]);
    }
    a.extend(["--seed".into(), seed.to_string()]);
    a.extend(["--profile-csv".into(), file("profile.csv")]);
    match op.observe {
        Observe::Bare => {}
        Observe::Full => a.extend([
            "--metrics".into(),
            "--efficiency".into(),
            "--metrics-json".into(),
            file("metrics.json"),
        ]),
        Observe::Summary => a.extend(["--summary-json".into(), file("summary.json")]),
    }
    a
}

/// The `--grid` string of a study operation.
pub fn grid_spec(op: &StudyOp, seed: u64) -> String {
    let list = |xs: Vec<String>| xs.join(",");
    let ps = list(op.ps.iter().map(usize::to_string).collect());
    let seeds = list((seed..seed + op.nseeds).map(|s| s.to_string()).collect());
    let workload = match op.weak_rows {
        Some(rows) => format!("workload=conv-weak rows_per_rank={rows}"),
        None => "workload=conv".to_string(),
    };
    format!(
        "{workload} machine=nehalem_cluster p={ps} steps={} seeds={seeds}",
        op.steps
    )
}

/// Fold `path` (a file, or a directory walked in name order) into `acc`
/// as `(relative name, content)` pairs, validating every `.json` file
/// with `mpisim::jsoncheck` on the way.
fn fold_files(base: &Path, path: &Path, acc: &mut Vec<u8>) -> Result<(), String> {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        if entries.is_empty() {
            return Err(format!("{}: nothing written", path.display()));
        }
        return entries.iter().try_for_each(|p| fold_files(base, p, acc));
    }
    let bytes = fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let rel = path.strip_prefix(base).unwrap_or(path).to_string_lossy();
    if path.extension().is_some_and(|e| e == "json") {
        let text = std::str::from_utf8(&bytes).map_err(|_| format!("{rel}: not UTF-8"))?;
        mpisim::jsoncheck::check_json(text)
            .map_err(|off| format!("{rel}: ill-formed JSON at byte {off}"))?;
    }
    if bytes.is_empty() {
        return Err(format!("{rel}: empty artifact"));
    }
    acc.extend_from_slice(rel.as_bytes());
    acc.push(0);
    acc.extend_from_slice(&bytes);
    acc.push(0);
    Ok(())
}

/// Run one process of an operation; its stderr is kept for the error
/// message of a non-zero exit.
fn run_process(bin: &Path, args: &[String], dir: &Path) -> Result<Spent, String> {
    let stderr_path = dir.join("stderr.txt");
    let stderr =
        File::create(&stderr_path).map_err(|e| format!("{}: {e}", stderr_path.display()))?;
    let (status, spent) = spawn_and_wait(
        Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr),
    )?;
    if !status.success() {
        let tail = fs::read_to_string(&stderr_path).unwrap_or_default();
        return Err(format!(
            "{} {}: {status}\n{}",
            bin.display(),
            args.join(" "),
            tail.trim_end()
        ));
    }
    fs::remove_file(&stderr_path).map_err(|e| format!("{}: {e}", stderr_path.display()))?;
    Ok(spent)
}

/// Run one operation in the fresh directory `dir`: every process exits
/// 0, every expected artifact exists and is not empty, and every JSON
/// artifact is well-formed.
fn run_op(env: &Env, op: &Op, seed: u64, dir: &Path) -> Result<(Spent, Artifacts), String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let spent = match op {
        Op::Profile(p) => run_process(&env.bin("profile"), &profile_args(p, seed, dir), dir)?,
        Op::Study(s) => {
            let store = dir.join("store").to_string_lossy().into_owned();
            let run = ["run", "--store", &store, "--jobs", "1"]
                .map(String::from)
                .into_iter()
                .chain(["--grid".to_string(), grid_spec(s, seed)])
                .collect::<Vec<_>>();
            let mut spent = run_process(&env.bin("study"), &run, dir)?;
            let cells = s.ps.len() * s.nseeds as usize;
            let stored = fs::read_dir(dir.join("store/runs")).map_or(0, Iterator::count);
            if stored != cells {
                return Err(format!(
                    "store holds {stored} run documents, expected {cells}"
                ));
            }
            let out = dir.join("out").to_string_lossy().into_owned();
            let report = ["report", "--store", &store, "--out", &out].map(String::from);
            let r = run_process(&env.bin("study"), &report, dir)?;
            // The pair is one operation: times add, the larger of the
            // two resident sets is the operation's peak.
            spent.wall_s += r.wall_s;
            spent.cpu_s += r.cpu_s;
            spent.rss_mb = spent.rss_mb.max(r.rss_mb);
            spent
        }
    };
    Ok((spent, Artifacts::of(op, dir)?))
}

/// The untraced result of one workload run: one sample per set-up and
/// per successful timed operation, and the host-speed reference samples
/// taken between them.
pub struct RunResult {
    pub attempted: usize,
    /// Why each failed operation (or warm-up) failed.
    pub failures: Vec<String>,
    setups: Vec<f64>,
    wall: Vec<f64>,
    cpu: Vec<f64>,
    rss: Vec<f64>,
    reference: Vec<f64>,
    rank_steps: u64,
}

impl RunResult {
    /// Timed operations that failed.
    pub fn failed(&self) -> usize {
        self.attempted - self.wall.len()
    }

    /// How much slower than the quiet defining host the host was during
    /// this run: median reference sample ÷ `reference::QUIET_S` (NaN if the
    /// helper gave none, which keeps the run from printing a result).
    pub fn host_factor(&self) -> f64 {
        if self.reference.is_empty() {
            return f64::NAN;
        }
        Summary::of(&self.reference).median / reference::QUIET_S
    }

    /// Median wall time of an operation as the clock read it.
    pub fn raw_wall_s(&self) -> Option<f64> {
        (!self.wall.is_empty()).then(|| Summary::of(&self.wall).median)
    }

    /// The end-to-end metrics in `spec::END_TO_END` order, every time
    /// divided by `host_factor` (see `reference`), or `None` when no timed
    /// operation succeeded.
    pub fn end_to_end(&self) -> Option<[Summary; 5]> {
        if self.wall.is_empty() {
            return None;
        }
        let host = self.host_factor();
        let corrected = |v: &[f64]| -> Vec<f64> { v.iter().map(|t| t / host).collect() };
        let wall = corrected(&self.wall);
        let rate: Vec<f64> = wall.iter().map(|w| self.rank_steps as f64 / w).collect();
        let (setups, cpu) = (corrected(&self.setups), corrected(&self.cpu));
        Some([&setups, &wall, &cpu, &rate, &self.rss].map(|v| Summary::of(v)))
    }
}

/// How long and how often a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Keep starting operations until this much time has been measured.
    pub measure: Duration,
    /// Never fewer than this many timed operations.
    pub min_ops: usize,
    /// Set-ups per run (their median is `setup_s`).
    pub setups: usize,
}

impl Load {
    pub fn timed(seconds: f64) -> Load {
        Load {
            measure: Duration::from_secs_f64(seconds),
            min_ops: 3,
            setups: 3,
        }
    }

    /// One set-up, one operation.
    pub const SMOKE: Load = Load {
        measure: Duration::ZERO,
        min_ops: 1,
        setups: 1,
    };
}

/// The output checks shared by every operation of a run: artifacts equal
/// the first operation's byte for byte, and `golden` (if given) pins the
/// paper arithmetic.
pub struct Checker {
    golden: Option<u64>,
    reference: Option<Artifacts>,
}

impl Checker {
    pub fn new(golden: Option<u64>) -> Checker {
        Checker {
            golden,
            reference: None,
        }
    }

    pub fn accept(&mut self, found: Artifacts) -> Result<(), String> {
        let first = *self.reference.get_or_insert(found);
        if found != first {
            return Err("artifacts differ from the first operation's".to_string());
        }
        match self.golden {
            Some(g) if found.golden != g => Err(format!(
                "golden fingerprint {:016x}, expected {g:016x}",
                found.golden
            )),
            _ => Ok(()),
        }
    }
}

/// Run one operation in `dir`, check what it wrote, remove `dir`.
pub fn checked_op(
    env: &Env,
    op: &Op,
    seed: u64,
    dir: &Path,
    checker: &mut Checker,
) -> Result<Spent, String> {
    let out = run_op(env, op, seed, dir).and_then(|(s, a)| checker.accept(a).map(|()| s));
    let _ = fs::remove_dir_all(dir);
    out
}

/// Reference time per round, as a share of the previous operation's wall
/// time (one sample at least): enough samples for a steady median on the
/// workloads whose operations take seconds.
const REFERENCE_SHARE: f64 = 0.25;

/// Run a workload untraced, in `load.setups` equal parts: each is one
/// set-up (scratch directory plus one untimed warm-up operation) and then
/// timed operations back to back until the part's share of `load.measure` is
/// used, with reference samples before the set-up and each operation. The
/// set-ups are spread over the run so that `setup_s` sees the same phases of
/// the host as the operations and the reference do.
pub fn run_workload(
    env: &Env,
    name: &str,
    op: &Op,
    seed: u64,
    load: Load,
    golden: Option<u64>,
) -> RunResult {
    let base = env.scratch.join(name);
    let mut failures = Vec::new();
    let mut checker = Checker::new(golden);
    let mut reference = Vec::new();
    let mut sample_reference = |last_op: f64, failures: &mut Vec<String>| {
        let mut helper = env.reference.borrow_mut();
        if let Err(e) = helper.sample_for(REFERENCE_SHARE * last_op, &mut reference) {
            failures.push(format!("{name}: {e}"));
        }
    };
    // Seconds the last operation took: sizes the next reference slice.
    let mut last_op = 0.0;

    let mut setups = Vec::new();
    let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut attempted = 0;
    let mut measured = Duration::ZERO;
    for part in 1..=load.setups {
        sample_reference(last_op, &mut failures);
        let start = Instant::now();
        let _ = fs::remove_dir_all(&base);
        if let Err(e) = checked_op(env, op, seed, &base.join("warmup"), &mut checker) {
            failures.push(format!("{name}: warm-up: {e}"));
        }
        last_op = start.elapsed().as_secs_f64();
        setups.push(last_op);

        let (share, ops) = (
            load.measure * part as u32 / load.setups as u32,
            (load.min_ops * part).div_ceil(load.setups),
        );
        let start = Instant::now();
        while attempted < ops || measured + start.elapsed() < share {
            sample_reference(last_op, &mut failures);
            let dir = base.join(format!("op-{attempted}"));
            match checked_op(env, op, seed, &dir, &mut checker) {
                Ok(spent) => {
                    last_op = spent.wall_s;
                    wall.push(spent.wall_s);
                    cpu.push(spent.cpu_s);
                    rss.push(spent.rss_mb);
                }
                Err(e) => failures.push(format!("{name}: op {attempted}: {e}")),
            }
            attempted += 1;
        }
        measured += start.elapsed();
    }
    let _ = fs::remove_dir_all(&base);

    RunResult {
        attempted,
        failures,
        setups,
        wall,
        cpu,
        rss,
        reference,
        rank_steps: op.rank_steps(),
    }
}
