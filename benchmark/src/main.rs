//! The repository's benchmark (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! benchmark suite [--seed N] [--seconds S] [--smoke]        every workload, then the traced pass
//! benchmark aa    [--seed N] [--seconds S]                  the untraced suite against itself
//! ```

mod alloc;
mod ops;
mod probes;
mod reference;
mod replica;
mod sim;
mod spec;
mod stats;
mod suite;

use spec::{MetricDef, END_TO_END, PER_LAYER};
use stats::Summary;
use std::process::ExitCode;
use suite::Settings;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: benchmark --workload W --seed N --seconds S --trace 0|1\n\
                     \x20      benchmark suite [--seed N] [--seconds S] [--smoke]\n\
                     \x20      benchmark aa [--seed N] [--seconds S]";

enum Command {
    /// One run of one workload, as the driver asks for it.
    Run {
        workload: String,
        trace: bool,
    },
    Suite,
    Aa,
}

fn parse(argv: &[String]) -> Result<(Command, Settings), String> {
    let (mut command, mut workload, mut trace) = (None, None, false);
    let mut settings = Settings {
        seed: suite::GOLDEN_SEED,
        seconds: 20.0,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} requires a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => settings.seed = value()?.parse().map_err(|_| "--seed expects a number")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds expects a positive number of seconds".into());
                }
                settings.seconds = s;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                }
            }
            "--smoke" => settings.smoke = true,
            "suite" | "aa" if command.is_none() => command = Some(arg.as_str()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let command = match (command, workload, settings.smoke) {
        (Some("suite"), None, _) => Command::Suite,
        (Some("aa"), None, false) => Command::Aa,
        (None, Some(workload), false) => {
            if spec::workload(&workload).is_none() {
                return Err(format!("unknown workload '{workload}'"));
            }
            Command::Run { workload, trace }
        }
        _ => return Err("expected --workload W, `suite` or `aa`".into()),
    };
    Ok((command, settings))
}

/// The contract's result line.
fn result_line(
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: &[(&MetricDef, Summary)],
) -> String {
    let values: Vec<String> = metrics
        .iter()
        .map(|(m, s)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, s.median, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        values.join(", ")
    )
}

/// One run of one workload as the driver asks for it. Prints the result
/// line only when every metric of the pass has a finite value.
fn single_run(env: &ops::Env, name: &str, trace: bool, s: Settings) -> Vec<String> {
    let w = spec::workload(name).expect("validated at parse time");
    let (attempted, failed, mut failures, metrics) = if !trace {
        let r = suite::untraced(env, w, s);
        if let Some(raw) = r.raw_wall_s() {
            println!(
                "host {:.3} x the quiet reference host; wall_s as the clock read it {raw:.6}",
                r.host_factor()
            );
        }
        let metrics: Vec<(&MetricDef, Summary)> = match r.end_to_end() {
            Some(values) => END_TO_END.iter().map(|(m, _)| m).zip(values).collect(),
            None => Vec::new(),
        };
        (r.attempted, r.failed(), r.failures, metrics)
    } else {
        let tracer = replica::Tracer::new();
        let mut t = suite::trace_workload(env, &tracer, 0, w, s);
        let p = suite::probes(env, s);
        t.metrics.extend(p.metrics);
        t.failures.extend(p.failures);
        t.failures.extend(suite::write_spans(env, &tracer).err());
        // Emit in table order, whatever order the pass produced them in.
        let metrics: Vec<(&MetricDef, Summary)> = PER_LAYER
            .iter()
            .filter_map(|m| {
                let found = t.metrics.iter().find(|(n, _)| *n == m.name)?;
                Some((m, found.1))
            })
            .collect();
        (
            t.attempted,
            t.failures.len().min(t.attempted),
            t.failures,
            metrics,
        )
    };
    let expected = if trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    if metrics.len() != expected || metrics.iter().any(|(_, s)| !s.median.is_finite()) {
        failures.push(format!(
            "{name}: {} of {expected} metrics measured, no result line",
            metrics.len()
        ));
        return failures;
    }
    for (m, s) in &metrics {
        println!(
            "{:<46} {:>6} n={:<4} median={:<16.6} q1={:<16.6} q3={:.6}",
            m.name, m.unit, s.n, s.median, s.q1, s.q3
        );
    }
    println!(
        "{}",
        result_line(attempted, failed, failures.is_empty(), &metrics)
    );
    failures
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The benchmark's own helper process (see `reference`), not a user command.
    if argv == [reference::HELPER_ARG] {
        return match reference::serve() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: reference helper: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (command, settings) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = match ops::Env::prepare() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let failures = match command {
        Command::Suite => suite::suite(&env, settings),
        Command::Aa => suite::aa(&env, settings),
        Command::Run { workload, trace } => single_run(&env, &workload, trace, settings),
    };
    // Removes the scratch directory.
    drop(env);
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let line = "--workload weak4k_busy --seed 7 --seconds 10 --trace 1";
        let (command, settings) = parse(&argv(line)).expect("valid");
        assert!(
            matches!(command, Command::Run { ref workload, trace: true } if workload == "weak4k_busy")
        );
        assert_eq!(
            (settings.seed, settings.seconds, settings.smoke),
            (7, 10.0, false)
        );
        assert!(matches!(parse(&argv("suite --smoke")), Ok((Command::Suite, s)) if s.smoke));
        assert!(matches!(parse(&argv("aa --seed 3")), Ok((Command::Aa, s)) if s.seed == 3));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for line in [
            "",
            "--workload nope --trace 0",
            "--workload conv456_bare --trace 2",
            "--workload conv456_bare --seconds 0",
            "--workload conv456_bare --seed",
            "aa --smoke",
            "suite --workload conv456_bare",
            "suite aa",
        ] {
            assert!(parse(&argv(line)).is_err(), "'{line}' should be refused");
        }
    }

    #[test]
    fn result_line_is_one_well_formed_json_object() {
        let metrics: Vec<(&MetricDef, Summary)> = END_TO_END
            .iter()
            .map(|(m, _)| (m, Summary::of(&[0.1, 0.25, 1e-7])))
            .collect();
        let line = result_line(12, 1, false, &metrics);
        assert!(!line.contains('\n'));
        let doc = mpisim::jsoncheck::parse_json(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(12));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(1));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(0.1));
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
