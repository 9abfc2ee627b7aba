//! The traced pass: each workload's pipeline re-run in this process
//! through the crates' public functions, one span around each call, in
//! the order `profile.rs`, `study.rs` and the sweep pool make them.
//!
//! Span names are shared by both kinds of operation:
//!
//! | span          | `profile`                                   | `study`                                   |
//! |---------------|---------------------------------------------|-------------------------------------------|
//! | `stack_build` | tool stack construction                     | store open, grid parse/expand, cell keys  |
//! | `simulate`    | the world (`run_convolution`/`run_lulesh`)  | `execute_cell`, per cell                  |
//! | `snapshot`    | `snapshot`/`freeze` of every attached tool  | `RunDoc` + `RunStore::insert`, per cell   |
//! | `analyze`     | `classify`, `critpath`, `timeline`, trends  | `report::build`                           |
//! | `render`      | every text report, written to `/dev/null`   | the sweep line, `Report::render`          |
//! | `export`      | JSON/CSV serialisation and file writes      | `Report::write_figures`                   |
//!
//! The replica must write byte-identical artifacts to the CLI's and take
//! about as long; `suite::trace_workload` checks both, so drift from the
//! binaries shows.

use crate::ops::grid_spec;
use crate::sim::{machine_of, simulate, Counter, Sim};
use crate::spec::{Observe, Op, ProfileOp, Program, StudyOp};
use mpi_sections::{
    classify, critpath, render, render_bounds, CommRecorder, PvarRegistry, ReportOptions,
    SectionProfiler, SectionRuntime, SummaryTool, TraceTool, VerifyMode, Windowing,
};
use mpistudy::config::{machine_fingerprint, resolve_machine, GridSpec};
use mpistudy::{RunDoc, RunStore};
use std::fs::{self, File};
use std::io::{LineWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval. Spans of one replica run share `request`;
/// `parent` indexes the span that caused this one.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// In-memory span log, written out once when the pass ends.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// The spans every replica records under its root.
pub const LAYERS: [&str; 6] = [
    "stack_build",
    "simulate",
    "snapshot",
    "analyze",
    "render",
    "export",
];

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span holder panicked")
    }

    fn open(&self, name: &'static str, request: u32, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            request,
            parent,
            start_us,
            end_us: start_us,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end_us = self.now_us();
        self.lock()[id].end_us = end_us;
    }

    /// Total seconds of the spans called `name` in `request`.
    pub fn total_secs(&self, request: u32, name: &str) -> f64 {
        self.lock()
            .iter()
            .filter(|s| s.request == request && s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .lock()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                     \"start_us\":{:.3},\"end_us\":{:.3}}}",
                    s.name, s.request, s.start_us, s.end_us
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"benchmark-spans-v1\",\"spans\":[\n{}\n]}}\n",
            rows.join(",\n")
        )
    }
}

/// A root span and the means to record children under it.
struct Scope<'a> {
    tracer: &'a Tracer,
    request: u32,
    root: usize,
}

impl Scope<'_> {
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.tracer.open(name, self.request, Some(self.root));
        let out = f();
        self.tracer.close(id);
        out
    }
}

/// Text reports go where the CLI's go under the load generator: a
/// line-buffered `/dev/null`, one write per line like `println!`.
fn report_sink() -> Result<LineWriter<File>, String> {
    File::create("/dev/null")
        .map(LineWriter::new)
        .map_err(|e| format!("/dev/null: {e}"))
}

/// Re-run `op` in-process, writing its artifacts under `dir` with the
/// CLI's file names, all spans under one root span of `request`.
pub fn run(tracer: &Tracer, request: u32, op: &Op, seed: u64, dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let scope = Scope {
        tracer,
        request,
        root: tracer.open("op", request, None),
    };
    let out = match op {
        Op::Profile(p) => profile(&scope, p, seed, dir),
        Op::Study(s) => study(&scope, s, seed, dir),
    };
    tracer.close(scope.root);
    out
}

/// `profile.rs`'s `main` for the flags the workloads pass. (`profile`
/// switches `--metrics` to summary-only recording at p ≥ 1024; no workload
/// does that, so it is not mirrored — the artifact comparison would show
/// it if one did.)
fn profile(t: &Scope<'_>, op: &ProfileOp, seed: u64, dir: &Path) -> Result<(), String> {
    let write = |name: &str, text: String| {
        fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))
    };
    let mut out = report_sink()?;
    let mut say = |text: String| writeln!(out, "{text}").map_err(|e| format!("/dev/null: {e}"));

    let full = op.observe == Observe::Full;
    let summary_json = op.observe == Observe::Summary;
    let machine = machine_of(op);
    let sim = Sim::of_profile(op)?;

    let (sections, profiler, pvar, recorder, summary, tools) = t.span("stack_build", || {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        // Built but not attached, as `profile` does without --trace.
        let _trace = TraceTool::new();
        sections.attach(profiler.clone());
        let pvar = full.then(PvarRegistry::new);
        let recorder = full.then(CommRecorder::new);
        let summary = summary_json.then(SummaryTool::new);
        let mut tools: Vec<Arc<dyn mpisim::Tool>> = vec![sections.clone()];
        tools.extend(pvar.clone().map(|t| t as Arc<dyn mpisim::Tool>));
        tools.extend(recorder.clone().map(|t| t as Arc<dyn mpisim::Tool>));
        tools.extend(summary.clone().map(|t| t as Arc<dyn mpisim::Tool>));
        (sections, profiler, pvar, recorder, summary, tools)
    });

    let report = t.span("simulate", || {
        simulate(op.p, &machine, seed, &sim, &sections, &tools)
    })?;
    t.span("render", || {
        say(format!(
            "{:?}: p={}, {} steps, machine '{}', simulated walltime {:.3} s\n",
            op.program,
            op.p,
            op.steps,
            machine.name,
            report.makespan_secs()
        ))
    })?;

    let profile = t.span("snapshot", || profiler.snapshot());
    let total: f64 = profile
        .sections()
        .filter(|s| s.key.label != mpi_sections::MPI_MAIN)
        .map(|s| s.total_excl_secs)
        .sum();
    t.span("render", || {
        say(render(&profile, &ReportOptions::default()))?;
        say(render_bounds(&profile, total, op.p))
    })?;

    let (snapshot, comm_log, run_summary) = t.span("snapshot", || {
        (
            pvar.as_ref().map(|pv| pv.snapshot()),
            recorder.as_ref().map(|r| r.freeze()),
            summary.as_ref().map(|s| s.freeze()),
        )
    });
    // What --metrics and --efficiency derive from the recording, in
    // `profile`'s order.
    let analysis = t.span("analyze", || {
        comm_log.as_ref().map(|log| {
            let waits = classify(log);
            let cp = critpath::extract(log);
            let tl = mpi_sections::timeline::build(log, &Windowing::Fixed(8));
            let trends = speedup::trend::detect(&tl, &speedup::trend::TrendConfig::default());
            (waits, cp, tl, trends)
        })
    });
    let observed = snapshot.as_ref().zip(analysis.as_ref());
    if let Some((snapshot, (waits, cp, tl, trends))) = observed {
        t.span("render", || {
            say(mpi_sections::efficiency::render(tl))?;
            say(speedup::trend::render(trends))?;
            say(snapshot.render_metrics())?;
            say(waits.render())?;
            say(cp.render(total, op.p))
        })?;
    }

    t.span("export", || {
        let workload = match op.program {
            Program::Conv => "conv",
            Program::Lulesh { .. } => "lulesh",
        };
        let head = format!(
            "{{\"workload\":\"{workload}\",\"p\":{},\"seed\":{seed},\"config\":{{\"machine\":{}}}",
            op.p,
            bench::whatif::machine_config_json(&machine)
        );
        if let Some((snapshot, (waits, cp, tl, trends))) = observed {
            write(
                "metrics.json",
                format!(
                    "{head},\"makespan_ns\":{},\"results_fingerprint\":\"{:016x}\",\"pvar\":{},\"waitstate\":{},\"critical_path\":{},\"timeline\":{},\"trends\":{},\"whatif\":{}}}\n",
                    report.makespan.0,
                    mpiverify::fingerprint(&format!("{:?}", report.results)),
                    snapshot.to_json(),
                    waits.to_json(),
                    cp.to_json(),
                    tl.to_json(),
                    speedup::trend::to_json(trends),
                    bench::whatif::to_json(&[]),
                ),
            )?;
            say("wrote metrics JSON".to_string())?;
        }
        if let Some(rs) = &run_summary {
            write(
                "summary.json",
                format!("{head},\"summary\":{}}}\n", rs.to_json()),
            )?;
            say(format!("wrote summary JSON ({} bytes)", rs.state_bytes))?;
        }
        write("profile.csv", profile.to_csv())?;
        say("wrote profile CSV".to_string())
    })
}

/// `study run --jobs 1` (the sweep pool's inline worker loop), then
/// `study report`.
fn study(t: &Scope<'_>, op: &StudyOp, seed: u64, dir: &Path) -> Result<(), String> {
    let mut out = report_sink()?;
    let (store, cells) = t.span("stack_build", || -> Result<_, String> {
        let store = RunStore::open(dir.join("store")).map_err(|e| format!("open store: {e}"))?;
        let grid = GridSpec::parse(&grid_spec(op, seed))?;
        Ok((store, grid.cells()))
    })?;
    let total = cells.len();
    for cfg in &cells {
        let (machine, fp) = t.span("stack_build", || -> Result<_, String> {
            let machine = resolve_machine(&cfg.machine)?;
            let fp = machine_fingerprint(&machine);
            Ok((machine, fp))
        })?;
        if !store.contains_machine(&fp) {
            t.span("snapshot", || {
                let calibration = machine::calibration::cached(&machine);
                store.insert_machine(&fp, &calibration.to_json())
            })
            .map_err(|e| format!("store machine: {e}"))?;
        }
        let outcome = t.span("simulate", || mpistudy::pool::execute_cell(cfg, &machine));
        t.span("snapshot", || {
            store.insert(&RunDoc::new(cfg, &fp, &outcome))
        })
        .map_err(|e| format!("store run: {e}"))?;
    }
    t.span("render", || {
        writeln!(out, "sweep: {total} cells, {total} executed, jobs=1")
    })
    .map_err(|e| format!("/dev/null: {e}"))?;

    // `study report` is its own process: it opens the store again.
    let store = t
        .span("stack_build", || RunStore::open(dir.join("store")))
        .map_err(|e| format!("reopen store: {e}"))?;
    let rep = t.span("analyze", || mpistudy::report::build(&store));
    t.span("render", || write!(out, "{}", rep.render()))
        .map_err(|e| format!("/dev/null: {e}"))?;
    t.span("export", || rep.write_figures(&dir.join("out")))
        .map(drop)
        .map_err(|e| format!("write figures: {e}"))
}

/// Count every tool-visible event of `op` (all kinds, all ranks, all
/// worlds) by running its programs once more with a counting tool
/// attached beside the section runtime.
pub fn count_events(op: &Op, seed: u64) -> Result<u64, String> {
    let counter = Counter::new();
    let run = |p: usize, machine: &machine::MachineModel, seed: u64, sim: &Sim| {
        let sections = SectionRuntime::new(VerifyMode::Off);
        let tools: [Arc<dyn mpisim::Tool>; 2] = [sections.clone(), counter.clone()];
        simulate(p, machine, seed, sim, &sections, &tools).map(drop)
    };
    match op {
        Op::Profile(o) => run(o.p, &machine_of(o), seed, &Sim::of_profile(o)?)?,
        Op::Study(o) => {
            for cell in GridSpec::parse(&grid_spec(o, seed))?.cells() {
                let machine = resolve_machine(&cell.machine)?;
                run(cell.p, &machine, cell.seed, &Sim::of_cell(&cell))?;
            }
        }
    }
    Ok(counter.count())
}
