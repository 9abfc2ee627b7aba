//! A MALP-style command-line profiler (§8: "this work and the associated
//! profiling interface are to be released in open-source in the MALP
//! profiling tool"): run either benchmark under the section profiler and
//! print the profile report, the load-balance analysis, the Eq. 6 bound
//! ranking, and optionally a Chrome trace.
//!
//! ```text
//! cargo run --release -p bench --bin profile -- conv   --p 64 --steps 100
//! cargo run --release -p bench --bin profile -- lulesh --p 8 --threads 4 --iters 100
//! cargo run --release -p bench --bin profile -- race   --p 4 --verify
//! ```
//!
//! `profile` with no arguments prints every flag with a one-line
//! description, generated from the flag table below; README explains the
//! flags feature by feature.
//!
//! At p >= 1024 the metrics/efficiency flags automatically switch to
//! **summary-only recording**: the full per-event `CommRecorder` (memory
//! linear in `steps x p`) stays off and every report is served from the
//! streaming summarizer's bounded state. The what-if, verify and
//! replay-schedule flags still force full recording (the event log is
//! their input); a log line states which mode ran.
//!
//! With any of the timeline flags active, the metrics JSON gains a
//! `timeline` object (windowed stats + per-window wait histograms) and a
//! `trends` array, and the Chrome trace gains per-window efficiency
//! counter lanes under a synthetic "windowed efficiency" Perfetto process.
//!
//! The `race` workload is a deliberately racy wildcard-receive program
//! (every sender ships a different payload to rank 0's `Src::Any` loop):
//! the demonstration target for schedule exploration and witness replay.

use bench::cli::{Cli, Flag, Parsed};
use bench::{Launch, Program};
use machine::MachineModel;
use mpi_sections::whatif::WhatIfSpec;
use mpi_sections::{
    classify, critpath, render, render_bounds, CommRecorder, PvarRegistry, ReportOptions,
    SectionProfiler, SectionRuntime, SummaryTool, TraceTool, VerifyMode, Windowing,
    SUMMARY_AUTO_RANKS,
};
use mpisim::{Engine, RunError, RunReport};
use mpiverify::{RunOutcome, Schedule, ScheduleController};
use std::sync::Arc;

const P: Flag = Flag::value("--p", "N", "MPI processes (default 8)");
const THREADS: Flag = Flag::value("--threads", "N", "OpenMP-style threads, lulesh (default 1)");
const STEPS: Flag = Flag::value("--steps", "N", "convolution steps (default 100)");
const ITERS: Flag = Flag::value("--iters", "N", "lulesh iterations (default 100)");
const ENGINE: Flag = Flag::value(
    "--engine",
    "E",
    "threads | des (default: des; also MPISIM_ENGINE)",
);
const MACHINE: Flag = Flag::value(
    "--machine",
    "M",
    "machine preset (default: knl for lulesh, nehalem_cluster otherwise)",
);
const MACHINE_FILE: Flag = Flag::value(
    "--machine-file",
    "F",
    "load the machine from a `key = value` file (overrides the preset)",
);
const SEED: Flag = Flag::value("--seed", "N", "noise seed (default 1)");
const TRACE: Flag = Flag::value(
    "--trace",
    "FILE",
    "write a Chrome trace JSON (labeled rank rows, message arrows)",
);
const CSV: Flag = Flag::value("--csv", "FILE", "write the span trace as CSV");
const PROFILE_CSV: Flag = Flag::value(
    "--profile-csv",
    "FILE",
    "write the per-section summary as CSV",
);
const COMPARE_SEQ: Flag = Flag::switch(
    "--compare-seq",
    "also run the sequential baseline and print the per-section scaling comparison",
);
const CHECK: Flag = Flag::switch(
    "--check",
    "attach the mpicheck correctness analyzer (exit code 1 on errors)",
);
const VERIFY: Flag = Flag::switch(
    "--verify",
    "explore wildcard-receive matchings; a verdict per site (exit code 1 on CONFIRMED)",
);
const VERIFY_BUDGET: Flag = Flag::value(
    "--verify-budget",
    "N",
    "schedule budget of the exploration (default 64)",
);
const VERIFY_JSON: Flag = Flag::value("--verify-json", "FILE", "write the verdict report as JSON");
const VERIFY_WITNESSES: Flag = Flag::value(
    "--verify-witnesses",
    "PREFIX",
    "write the first confirmed race's witness schedules to PREFIX.a.json / PREFIX.b.json",
);
const REPLAY_SCHEDULE: Flag = Flag::value(
    "--replay-schedule",
    "FILE",
    "force the run's wildcard matchings from a witness schedule (implies des)",
);
const METRICS: Flag = Flag::switch(
    "--metrics",
    "print pvar counters, the wait-state breakdown and the critical-path bound",
);
const COMM_MATRIX: Flag = Flag::switch(
    "--comm-matrix",
    "print the per-(src,dst) communication matrix",
);
const FLAMEGRAPH: Flag = Flag::value(
    "--flamegraph",
    "FILE",
    "write folded flamegraph stacks weighted by exclusive section time",
);
const METRICS_JSON: Flag = Flag::value(
    "--metrics-json",
    "FILE",
    "write pvar + wait-state + critical-path metrics as one JSON document",
);
const EFFICIENCY: Flag = Flag::switch(
    "--efficiency",
    "print the windowed POP efficiency report and the trend-detector table",
);
const TIMELINE: Flag = Flag::value(
    "--timeline",
    "FILE",
    "write the per-(window, section) stats and efficiency hierarchy as CSV",
);
const WINDOWS: Flag = Flag::value(
    "--windows",
    "N",
    "number of fixed-width virtual-time windows (default 8)",
);
const WINDOW_ALIGN: Flag = Flag::value(
    "--window-align",
    "LABEL",
    "one window per rank-0 entry of the named section instead of fixed widths",
);
const WHAT_IF: Flag = Flag::value(
    "--what-if",
    "SPEC",
    "counterfactual replay, repeatable: net=MACHINE | jitter=0 | null=CLASS | scale:SECTION=K, comma-joined",
);
const SUMMARY: Flag = Flag::switch(
    "--summary",
    "attach the bounded-memory streaming summarizer and print its report",
);
const SUMMARY_JSON: Flag = Flag::value(
    "--summary-json",
    "FILE",
    "write the summary block as a JSON document",
);
const TRACE_MAX_RANKS: Flag = Flag::value(
    "--trace-max-ranks",
    "N",
    "cap Chrome-trace rank lanes and flow arrows (default 512); drops are counted",
);

const CLI: Cli<'static> = Cli {
    synopsis: "profile <conv|lulesh|race> [options]",
    flags: &[
        P,
        THREADS,
        STEPS,
        ITERS,
        ENGINE,
        MACHINE,
        MACHINE_FILE,
        SEED,
        TRACE,
        CSV,
        PROFILE_CSV,
        COMPARE_SEQ,
        CHECK,
        VERIFY,
        VERIFY_BUDGET,
        VERIFY_JSON,
        VERIFY_WITNESSES,
        REPLAY_SCHEDULE,
        METRICS,
        COMM_MATRIX,
        FLAMEGRAPH,
        METRICS_JSON,
        EFFICIENCY,
        TIMELINE,
        WINDOWS,
        WINDOW_ALIGN,
        WHAT_IF,
        SUMMARY,
        SUMMARY_JSON,
        TRACE_MAX_RANKS,
    ],
    notes: "",
};

/// What the command line selects, validated: everything that is more
/// than "was this flag given" or "which path" (those are read from the
/// parsed flags where they are used).
struct Config {
    /// The workload as typed; it heads every JSON document.
    workload: String,
    program: Program,
    /// The same global problem on one rank (the baseline of the
    /// sequential comparison).
    sequential: Program,
    /// The banner up to the machine: `convolution: p=8, 10 steps`.
    banner: String,
    p: usize,
    engine: Option<Engine>,
    /// Resolved once: the file if given, else the preset, else the
    /// workload's default.
    machine: MachineModel,
    seed: u64,
    verify_budget: usize,
    windowing: Windowing,
    what_if: Vec<WhatIfSpec>,
    trace_max_ranks: usize,
}

fn config(flags: &Parsed) -> Result<Config, String> {
    let workload = flags.only_positional("<workload>")?;
    let p: usize = flags.num(&P, 8)?;
    if p == 0 {
        return Err(format!("{} expects N >= 1", P.name));
    }
    let steps: usize = flags.num(&STEPS, 100)?;
    let iters: usize = flags.num(&ITERS, 100)?;
    let threads = lulesh_proxy::threads_in_range(flags.num(&THREADS, 1)?)
        .map_err(|e| format!("{} {e}", THREADS.name))?;
    // The one place a workload name is interpreted: its program, its
    // sequential equivalent, its default machine and its banner.
    let (program, sequential, default_machine, banner) = match workload {
        "conv" => {
            let program = Program::Conv(convolution::ConvConfig::paper(steps));
            let banner = format!("convolution: p={p}, {steps} steps");
            (program.clone(), program, "nehalem_cluster", banner)
        }
        "lulesh" => {
            let s =
                lulesh_proxy::size_for(lulesh_proxy::PAPER_TOTAL_ELEMENTS, p).ok_or_else(|| {
                    format!(
                        "{} must be a perfect cube dividing 110592 (1, 8, 27, 64); got {p}",
                        P.name
                    )
                })?;
            // Same *global* problem sequentially: s_global = s * cbrt(p).
            let side = (p as f64).cbrt().round() as usize;
            let timing = |s| Program::Lulesh(lulesh_proxy::LuleshConfig::timing(s, iters, threads));
            let banner = format!("lulesh: p={p}, {iters} iterations, {threads} threads");
            (timing(s), timing(s * side), "knl", banner)
        }
        "race" => (
            Program::Race,
            Program::Race,
            "nehalem_cluster",
            format!("race: p={p}"),
        ),
        other => return Err(format!("unknown workload '{other}' (conv|lulesh|race)")),
    };
    let machine = match flags.get(&MACHINE_FILE) {
        Some(path) => {
            MachineModel::from_config_file(std::path::Path::new(path)).map_err(|e| e.to_string())?
        }
        None => machine::presets::by_name(flags.get(&MACHINE).unwrap_or(default_machine))?,
    };
    let engine = flags.get(&ENGINE).map(str::parse).transpose()?;
    let windows: usize = flags.num(&WINDOWS, 8)?;
    if windows == 0 {
        return Err(format!("{} expects N >= 1", WINDOWS.name));
    }
    let verify_budget = flags.num(&VERIFY_BUDGET, 64)?;
    if verify_budget == 0 {
        return Err(format!("{} expects N >= 1", VERIFY_BUDGET.name));
    }
    let trace_max_ranks = flags.num(&TRACE_MAX_RANKS, 512)?;
    if trace_max_ranks == 0 {
        return Err(format!("{} expects N >= 1", TRACE_MAX_RANKS.name));
    }
    let what_if = flags
        .all(&WHAT_IF)
        .map(|raw| mpi_sections::whatif::parse(raw).map_err(|e| format!("{}: {e}", WHAT_IF.name)))
        .collect::<Result<_, _>>()?;
    Ok(Config {
        workload: workload.to_string(),
        program,
        sequential,
        banner,
        p,
        engine,
        machine,
        seed: flags.num(&SEED, 1)?,
        verify_budget,
        windowing: match flags.get(&WINDOW_ALIGN) {
            Some(label) => Windowing::Aligned(label.to_string()),
            None => Windowing::Fixed(windows),
        },
        what_if,
        trace_max_ranks,
    })
}

/// Unwrap a run result, rendering structured diagnostics (from the analyzer
/// or section verification) as a report instead of a panic backtrace.
fn unwrap_run<R>(result: Result<RunReport<R>, RunError>) -> RunReport<R> {
    match result {
        Ok(report) => report,
        Err(RunError::Diagnosed(diags)) => {
            eprintln!("{}", mpisim::diag::report(&diags));
            std::process::exit(1);
        }
        // Not a failure of the program under test: the host cannot hold
        // the world as configured.
        Err(e @ RunError::StackReservation(_)) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    }
}

/// One run's worth of observer tools. Exploration re-executes the world
/// many times in this process, and every tool here accumulates across
/// runs, so each run gets a **fresh** stack — that is what keeps forced
/// runs silent and keeps pvar/trace snapshots per-run.
struct Stack {
    checker: Option<Arc<mpicheck::Analyzer>>,
    sections: Arc<SectionRuntime>,
    profiler: Arc<SectionProfiler>,
    trace: Arc<TraceTool>,
    pvar: Option<Arc<PvarRegistry>>,
    recorder: Option<Arc<CommRecorder>>,
    summary: Option<Arc<SummaryTool>>,
    /// Attach the trace tool at the PMPI layer too (message-flow arrows).
    trace_pmpi: bool,
}

impl Stack {
    fn build(
        check: bool,
        observing: bool,
        tracing: bool,
        trace_pmpi: bool,
        summarizing: bool,
    ) -> Stack {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        let trace = TraceTool::new();
        sections.attach(profiler.clone());
        if tracing {
            sections.attach(trace.clone());
        }
        Stack {
            checker: check.then(mpicheck::Analyzer::new),
            sections,
            profiler,
            trace,
            pvar: observing.then(PvarRegistry::new),
            recorder: observing.then(CommRecorder::new),
            summary: summarizing.then(SummaryTool::new),
            trace_pmpi,
        }
    }

    /// The PMPI-layer tools of this stack that attach after the section
    /// runtime, in attach order.
    fn world_tools(&self) -> Vec<Arc<dyn mpisim::Tool>> {
        let mut tools: Vec<Arc<dyn mpisim::Tool>> = Vec::new();
        if let Some(checker) = &self.checker {
            tools.push(checker.clone());
        }
        if let Some(pvar) = &self.pvar {
            tools.push(pvar.clone());
        }
        if let Some(recorder) = &self.recorder {
            tools.push(recorder.clone());
        }
        if let Some(summary) = &self.summary {
            tools.push(summary.clone());
        }
        if self.trace_pmpi {
            tools.push(self.trace.clone());
        }
        tools
    }
}

/// Execute the selected workload once against `stack`'s tools, with a
/// controller when exploring or replaying a schedule.
fn run_once(
    cfg: &Config,
    stack: &Stack,
    controller: Option<Arc<ScheduleController>>,
) -> Result<RunReport<u64>, RunError> {
    let launch = Launch {
        program: cfg.program.clone(),
        p: cfg.p,
        machine: &cfg.machine,
        seed: cfg.seed,
        engine: cfg.engine,
        controller: controller.map(|ctl| ctl as Arc<dyn mpisim::MatchController>),
    };
    launch.run(&stack.sections, stack.world_tools())
}

/// The opening of every JSON document `profile` writes, up to and
/// including the machine block; the caller appends `,"key":...}`.
fn doc_header(cfg: &Config) -> String {
    format!(
        "{{\"workload\":\"{}\",\"p\":{},\"seed\":{},\"config\":{{\"machine\":{}}}",
        cfg.workload,
        cfg.p,
        cfg.seed,
        bench::whatif::machine_config_json(&cfg.machine),
    )
}

/// Fold one run's observable artifacts into the fingerprint input the
/// explorer compares: per-rank results, the exact makespan, the section
/// profile, the pvar counters, the wait-state/critical-path analyses and
/// any analyzer diagnostics. Anything omitted here is invisible to the
/// divergence check.
fn artifact_of(stack: &Stack, report: &RunReport<u64>) -> String {
    let mut a = format!(
        "results:{:?};makespan_ns:{};",
        report.results, report.makespan.0
    );
    a.push_str(&stack.profiler.snapshot().to_csv());
    if let Some(pvar) = &stack.pvar {
        a.push_str(&pvar.snapshot().to_json());
    }
    if let Some(recorder) = &stack.recorder {
        let log = recorder.freeze();
        a.push_str(&classify(&log).to_json());
        a.push_str(&critpath::extract(&log).to_json());
    }
    if let Some(checker) = &stack.checker {
        for d in checker.diagnostics() {
            a.push_str(&d.to_json());
        }
    }
    a
}

fn main() {
    let (flags, cfg) = CLI.parse_env_or_exit(|flags| {
        let cfg = config(&flags)?;
        Ok((flags, cfg))
    });
    let windowing = flags.has(&EFFICIENCY) || flags.has(&TIMELINE);
    let wants_full = flags.has(&METRICS)
        || flags.has(&COMM_MATRIX)
        || flags.has(&METRICS_JSON)
        || windowing
        || !cfg.what_if.is_empty();
    // The event log is the replay/verification input: those flags pin
    // full recording at any p. Everything else is served from the
    // bounded summarizer once p reaches the auto-switch threshold.
    let needs_log = !cfg.what_if.is_empty() || flags.has(&VERIFY) || flags.has(&REPLAY_SCHEDULE);
    let summary_only = cfg.p >= SUMMARY_AUTO_RANKS && !needs_log;
    let observing = wants_full && !summary_only;
    let summarizing =
        flags.has(&SUMMARY) || flags.has(&SUMMARY_JSON) || (wants_full && summary_only);
    if wants_full && summary_only {
        println!(
            "p >= {SUMMARY_AUTO_RANKS}: summary-only recording (bounded streaming sketches; \
             full comm recorder off — pass {} or {} to force full recording)\n",
            WHAT_IF.name, VERIFY.name
        );
    } else if cfg.p >= SUMMARY_AUTO_RANKS && needs_log {
        println!(
            "p >= {SUMMARY_AUTO_RANKS} but full comm recording kept: \
             {}/{}/{} require the event log\n",
            WHAT_IF.name, VERIFY.name, REPLAY_SCHEDULE.name
        );
    }
    let tracing = flags.has(&TRACE) || flags.has(&CSV) || flags.has(&FLAMEGRAPH);
    let stack = Stack::build(
        flags.has(&CHECK),
        observing,
        tracing,
        flags.has(&TRACE),
        summarizing,
    );

    // A replayed schedule steers the main run's wildcard matchings; the
    // controller doubles as the witness-fidelity check (divergence means
    // the schedule does not belong to this program/seed/machine).
    let replay = flags.get(&REPLAY_SCHEDULE).map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read schedule '{path}': {e}");
            std::process::exit(2);
        });
        let schedule = Schedule::from_json(&text).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        (path, Arc::new(ScheduleController::replaying(schedule)))
    });

    let report = unwrap_run(run_once(
        &cfg,
        &stack,
        replay.as_ref().map(|(_, ctl)| ctl.clone()),
    ));
    print!(
        "{}, machine '{}', simulated walltime {:.3} s",
        cfg.banner,
        cfg.machine.name,
        report.makespan_secs()
    );
    if matches!(cfg.program, Program::Race) {
        print!(", wildcard checksum {:#x}", report.results[0]);
    }
    println!("\n");
    if let Some((path, ctl)) = &replay {
        let replayed = ctl.schedule().decisions.len();
        if ctl.diverged() {
            eprintln!(
                "warning: schedule '{path}' diverged from this program (a forced sender was \
                 not a live candidate) — the replay is deterministic but does not reproduce \
                 the recorded run\n"
            );
        } else {
            println!("replayed schedule '{path}': {replayed} wildcard decision(s) forced\n");
        }
    }

    // The dynamic verifier: re-execute the program under forced wildcard
    // matchings (fresh silent tool stack per run) and upgrade each
    // heuristic race warning to a verdict.
    let verify_report = flags.has(&VERIFY).then(|| {
        mpiverify::explore(cfg.verify_budget, |ctl| {
            let vstack = Stack::build(flags.has(&CHECK), true, false, false, false);
            match run_once(&cfg, &vstack, Some(ctl.clone())) {
                Ok(rep) => RunOutcome {
                    artifact: artifact_of(&vstack, &rep),
                    failure: None,
                },
                Err(e) => RunOutcome {
                    artifact: String::new(),
                    failure: Some(e.to_string()),
                },
            }
        })
    });

    if let Some(checker) = &stack.checker {
        let mut warnings = checker.diagnostics();
        // Verdicts supersede the heuristic warnings they refine: a
        // message-race warning for a receiver the verifier judged is
        // dropped in favor of the verdict line (confirmed races come back
        // below as Error diagnostics).
        if let Some(vreport) = &verify_report {
            let judged: Vec<usize> = vreport.verdicts.iter().map(|v| v.site().0).collect();
            let before = warnings.len();
            warnings.retain(|d| match &d.kind {
                mpisim::DiagnosticKind::MessageRace { receiver, .. } => !judged.contains(receiver),
                _ => true,
            });
            let superseded = before - warnings.len();
            if superseded > 0 {
                println!(
                    "mpicheck: {superseded} message-race warning(s) superseded by verifier verdicts\n"
                );
            }
        }
        if warnings.is_empty() {
            if verify_report.is_none() {
                println!("mpicheck: clean — no diagnostics\n");
            }
        } else {
            println!("{}", mpisim::diag::report(&warnings));
        }
    }

    let profile = stack.profiler.snapshot();
    println!("{}", render(&profile, &ReportOptions::default()));

    // Eq. 6 bound ranking against the run's own aggregate (a proxy for the
    // sequential total when only one scale was run).
    let total: f64 = profile
        .sections()
        .filter(|s| s.key.label != mpi_sections::MPI_MAIN)
        .map(|s| s.total_excl_secs)
        .sum();
    println!("{}", render_bounds(&profile, total, cfg.p));

    // Communication-aware observability: pvar counters, wait-state
    // classification and the critical-path bound complement the Eq. 6
    // ranking — the former say *why* a section caps speedup, the latter
    // bounds what any p can achieve through the dependency graph.
    let snapshot = stack.pvar.as_ref().map(|pv| pv.snapshot());
    let comm_log = stack.recorder.as_ref().map(|r| r.freeze());
    // Aligned windows (the windowed report and every what-if analysis)
    // need the label to have been entered; otherwise they would silently
    // fall back to one window spanning the run.
    if let (Some(log), Windowing::Aligned(label)) = (&comm_log, &cfg.windowing) {
        if !log.has_section(label) {
            eprintln!(
                "error: {} {label}: no section of that name was entered",
                WINDOW_ALIGN.name
            );
            std::process::exit(2);
        }
    }
    let run_summary = stack.summary.as_ref().map(|s| s.freeze());
    let analysis = comm_log
        .as_ref()
        .map(|log| (classify(log), critpath::extract(log)));

    // The windowed view: time-resolved POP efficiencies per section, the
    // trend diagnosis on top of them, and the CSV/JSON/counter exports.
    // In summary-only mode the timeline comes from the summarizer's
    // checkpoint rows (cadence-determined windows; the window flags
    // apply only to full recording).
    let tl = match (&comm_log, &run_summary) {
        (Some(log), _) => Some(mpi_sections::timeline::build(log, &cfg.windowing)),
        (None, Some(rs)) if wants_full || windowing => Some(rs.to_timeline().clone()),
        _ => None,
    };
    let trends = tl
        .as_ref()
        .map(|tl| speedup::trend::detect(tl, &speedup::trend::TrendConfig::default()));
    if flags.has(&EFFICIENCY) {
        let (tl, trends) = (
            tl.as_ref().expect("recorder"),
            trends.as_ref().expect("recorder"),
        );
        println!("{}", mpi_sections::efficiency::render(tl));
        println!("{}", speedup::trend::render(trends));
    }
    if let Some(path) = flags.get(&TIMELINE) {
        let tl = tl.as_ref().expect("recorder");
        std::fs::write(path, tl.to_csv()).expect("write timeline csv");
        println!(
            "wrote timeline CSV ({} windows) to {path}",
            tl.windows.len()
        );
    }

    if flags.has(&METRICS) {
        if let Some(snapshot) = &snapshot {
            println!("{}", snapshot.render_metrics());
        }
        if let Some((waits, cp)) = &analysis {
            println!("{}", waits.render());
            println!("{}", cp.render(total, cfg.p));
        }
    }
    if flags.has(&COMM_MATRIX) {
        if let Some(snapshot) = &snapshot {
            println!("{}", snapshot.render_matrix(32));
        }
    }
    if let Some(rs) = &run_summary {
        if flags.has(&SUMMARY) || (summary_only && (flags.has(&METRICS) || flags.has(&COMM_MATRIX)))
        {
            println!("{}", rs.render(total));
        }
    }

    // Counterfactual replay: each what-if spec re-times the recorded
    // trace under its altered model, then the whole analysis stack
    // (bounds, wait states, windowed trends) reruns on the re-timed log.
    let scenarios: Vec<bench::whatif::Scenario> = cfg
        .what_if
        .iter()
        .map(|spec| {
            let log = comm_log.as_ref().expect("recorder attached");
            bench::whatif::analyze(
                log,
                &cfg.machine,
                cfg.seed,
                spec,
                total,
                cfg.p,
                &cfg.windowing,
            )
            .unwrap_or_else(|e| {
                eprintln!("error: {} {}: {e}", WHAT_IF.name, spec.raw);
                std::process::exit(1);
            })
        })
        .collect();
    if !scenarios.is_empty() {
        println!("{}", bench::whatif::render(&scenarios));
    }

    if let Some(path) = flags.get(&METRICS_JSON) {
        // Exact makespan and a result fingerprint make the document
        // sensitive to wildcard matching order: replaying each witness
        // of a confirmed race yields observably different metrics JSON.
        let head = format!(
            "{},\"makespan_ns\":{},\"results_fingerprint\":\"{:016x}\"",
            doc_header(&cfg),
            report.makespan.0,
            mpiverify::fingerprint(&format!("{:?}", report.results)),
        );
        let json = if let (Some((waits, cp)), Some(snapshot)) = (&analysis, &snapshot) {
            format!(
                "{head},\"pvar\":{},\"waitstate\":{},\"critical_path\":{},\"timeline\":{},\"trends\":{},\"whatif\":{}}}\n",
                snapshot.to_json(),
                waits.to_json(),
                cp.to_json(),
                tl.as_ref().expect("recorder").to_json(),
                speedup::trend::to_json(trends.as_ref().expect("recorder")),
                bench::whatif::to_json(&scenarios),
            )
        } else {
            // Summary-only mode: the per-event analyses are intentionally
            // absent; the summary block plus the checkpoint-derived
            // timeline and trends replace them.
            let rs = run_summary.as_ref().expect("summarizer attached");
            format!(
                "{head},\"summary\":{},\"timeline\":{},\"trends\":{}}}\n",
                rs.to_json(),
                tl.as_ref().expect("summarizer").to_json(),
                speedup::trend::to_json(trends.as_ref().expect("summarizer")),
            )
        };
        std::fs::write(path, json).expect("write metrics json");
        println!("wrote metrics JSON to {path}");
    }

    if let Some(path) = flags.get(&SUMMARY_JSON) {
        let rs = run_summary.as_ref().expect("summarizer attached");
        let json = format!("{},\"summary\":{}}}\n", doc_header(&cfg), rs.to_json());
        std::fs::write(path, json).expect("write summary json");
        println!(
            "wrote summary JSON to {path} (summarizer state {} bytes)",
            rs.state_bytes
        );
    }

    if flags.has(&COMPARE_SEQ) && cfg.p > 1 {
        // Re-run the same workload sequentially and read the two runs as a
        // study at two scales (the paper's actual workflow: a sequential
        // reference run).
        let baseline = bench::profiled_cell(cfg.sequential.clone(), 1, &cfg.machine, cfg.seed)
            .expect("baseline run failed");
        let target = bench::CellOutcome::from_profile(&profile, report.makespan_secs());
        let mut rows = bench::study_rows(1, &[baseline]);
        rows.extend(bench::study_rows(cfg.p, &[target]));
        let study = speedup::ScalingStudy::from_rows(&rows);
        print!("{}", study.render_against_baseline(cfg.p));
    }

    if let Some(path) = flags.get(&TRACE) {
        let (json, spans, dropped_ranks) = stack
            .trace
            .to_chrome_trace_capped(cfg.trace_max_ranks, tl.as_ref());
        std::fs::write(path, json).expect("write trace");
        println!("wrote Chrome trace ({spans} spans) to {path}");
        if dropped_ranks > 0 {
            println!(
                "trace capped at {} rank lanes: {} rank(s) dropped (raise with {})",
                cfg.trace_max_ranks, dropped_ranks, TRACE_MAX_RANKS.name
            );
        }
    }
    if let Some(path) = flags.get(&CSV) {
        std::fs::write(path, stack.trace.to_csv()).expect("write csv");
        println!("wrote span CSV to {path}");
    }
    if let Some(path) = flags.get(&PROFILE_CSV) {
        std::fs::write(path, profile.to_csv()).expect("write profile csv");
        println!("wrote profile CSV to {path}");
    }
    if let Some(path) = flags.get(&FLAMEGRAPH) {
        std::fs::write(path, stack.trace.to_folded()).expect("write flamegraph");
        println!("wrote folded flamegraph stacks to {path}");
    }

    // Verifier output last, after every artifact is on disk, so CI can
    // inspect the files even when a confirmed race makes us exit 1.
    if let Some(vreport) = &verify_report {
        println!("{}", vreport.render_text());
        if let Some(path) = flags.get(&VERIFY_JSON) {
            let mut json = vreport.to_json();
            json.push('\n');
            std::fs::write(path, json).expect("write verify json");
            println!("wrote verify report JSON to {path}");
        }
        if let Some(prefix) = flags.get(&VERIFY_WITNESSES) {
            if let Some((a, b)) = vreport.first_witness_pair() {
                std::fs::write(format!("{prefix}.a.json"), a.to_json()).expect("write witness a");
                std::fs::write(format!("{prefix}.b.json"), b.to_json()).expect("write witness b");
                println!("wrote witness schedules to {prefix}.a.json / {prefix}.b.json");
            } else {
                println!("no confirmed race: no witness schedules to write");
            }
        }
        let diags = vreport.diagnostics();
        if !diags.is_empty() {
            eprintln!("{}", mpisim::diag::report(&diags));
            std::process::exit(1);
        }
    }
}
