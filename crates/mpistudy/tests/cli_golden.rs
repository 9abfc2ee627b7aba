//! Cross-commit pins for what the `study` binary prints and writes: a
//! cold 6-cell sweep (stdout with the wall-clock seconds masked, every
//! store document) and the report served from it (JSON on stdout, the
//! regenerated figure CSVs, the text form with its per-section table).
//! Same scheme as `bench`'s `cli_golden.rs`, whose helpers this file
//! shares.

#[path = "../../bench/tests/support/mod.rs"]
mod support;
use support::{assert_usage_error, check, files_print, print_of, run, scratch};

const STUDY: &str = env!("CARGO_BIN_EXE_study");

const GRID: &str = "workload=conv machine=nehalem_cluster p=1,8,64 steps=5 seeds=0,1";

/// The `sweep:` line ends in the host seconds the sweep took.
fn mask_secs(stdout: &str) -> String {
    let (head, secs) = stdout
        .trim_end()
        .rsplit_once(", ")
        .expect("sweep line ends in ', <secs>s'");
    assert!(secs.ends_with('s') && secs[..secs.len() - 1].parse::<f64>().is_ok());
    format!("{head}, _s\n")
}

#[test]
fn sweep_and_report_are_pinned() {
    let dir = scratch("study");
    let sweep = run(
        STUDY,
        &dir,
        &["run", "--store", "store", "--grid", GRID, "--jobs", "2"],
    );
    assert_eq!(sweep.code, 0, "stderr:\n{}", sweep.stderr);
    let store_print = files_print(&dir.join("store"));
    let report = run(
        STUDY,
        &dir,
        &["report", "--store", "store", "--json", "--out", "figures"],
    );
    assert_eq!(report.code, 0, "stderr:\n{}", report.stderr);
    let text = run(STUDY, &dir, &["report", "--store", "store"]);
    assert_eq!(text.code, 0, "stderr:\n{}", text.stderr);
    check(
        "study run + report",
        &[
            ("run stdout", print_of(&mask_secs(&sweep.stdout))),
            ("store documents", store_print),
            ("report stdout", print_of(&report.stdout)),
            ("figure CSVs", files_print(&dir.join("figures"))),
            ("report text", print_of(&text.stdout)),
        ],
        &[
            0xfbc05086a6037947,
            0x7e4eafc267c52aa5,
            0xbe2c1d2573017acf,
            0x08682879a83a285d,
            0x87246aad194be1e4,
        ],
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn hostile_command_lines_get_one_error_line_and_the_usage() {
    let cases: [(&[&str], &str); 9] = [
        (&["run", "--store"], "--store requires a value"),
        (
            &["run", "--store", "D", "--grid", GRID, "--jobs", "x"],
            "--jobs expects a number, got 'x'",
        ),
        (&["run", "--bogus"], "unknown argument '--bogus'"),
        (
            &["frobnicate", "--store", "D"],
            "unknown command 'frobnicate'",
        ),
        (&["ls"], "missing --store"),
        (
            &[
                "run",
                "--store",
                "D",
                "--grid",
                "workload=quantum machine=knl p=1",
            ],
            "unknown workload 'quantum'",
        ),
        (
            &[
                "run",
                "--store",
                "D",
                "--grid",
                "workload=conv machine=marsrover p=1 steps=2",
            ],
            "nehalem_cluster",
        ),
        // Neither may run a truncated sweep and exit 0.
        (
            &[
                "run",
                "--store",
                "D",
                "--grid",
                "workload=conv machine=nehalem p=1 steps=3,9",
            ],
            "grid spec: steps= takes one value, got '3,9'",
        ),
        (
            &[
                "run",
                "--store",
                "D",
                "--grid",
                "workload=conv machine=nehalem p=2 p=4 steps=3",
            ],
            "grid spec: 'p' given twice",
        ),
    ];
    for (args, needle) in cases {
        assert_usage_error(STUDY, args, needle);
    }
}

#[test]
fn a_cell_that_cannot_run_is_counted_and_the_rest_still_run() {
    // p = 5 is not a cube, so the LULESH mesh refuses it inside the run;
    // p = 1 and p = 8 are fine and must still be simulated and stored.
    let dir = scratch("bad-cell");
    // A thread count no run accepts refuses every cell of its grid before
    // anything is simulated (0 used to run as 1, 10^8 did not come back).
    for threads in ["0", "100000000"] {
        let grid =
            format!("workload=lulesh machine=nehalem p=1,8 s=4 iters=2 threads={threads} seeds=0");
        let out = run(
            STUDY,
            &dir,
            &["run", "--store", "store-threads", "--grid", &grid],
        );
        assert_eq!(out.code, 1, "stderr:\n{}", out.stderr);
        assert!(
            out.stdout
                .starts_with("sweep: 2 cells, 0 executed, 0 cached"),
            "{}",
            out.stdout
        );
        let refusal = format!("threads= expects 1..=4096 threads per rank, got {threads}");
        assert_eq!(out.stderr.matches(&refusal).count(), 2, "{}", out.stderr);
        assert!(out.stderr.contains("sweep: 2 cell(s) failed"));
    }
    let grid = "workload=lulesh machine=nehalem p=1,5,8 s=4 iters=2 threads=1 seeds=0";
    for jobs in ["1", "2"] {
        let store = format!("store-{jobs}");
        let out = run(
            STUDY,
            &dir,
            &["run", "--store", &store, "--grid", grid, "--jobs", jobs],
        );
        assert_eq!(out.code, 1, "stderr:\n{}", out.stderr);
        assert!(
            out.stdout
                .starts_with("sweep: 3 cells, 2 executed, 0 cached"),
            "{}",
            out.stdout
        );
        let failed: Vec<&str> = out
            .stderr
            .lines()
            .filter(|l| l.starts_with("cell failed: "))
            .collect();
        assert_eq!(failed.len(), 1, "stderr:\n{}", out.stderr);
        assert!(failed[0].contains("workload=lulesh") && failed[0].contains("p=5"));
        assert!(failed[0].contains("perfect-cube"), "{}", failed[0]);
        assert!(out.stderr.contains("sweep: 1 cell(s) failed"));
        assert_eq!(
            std::fs::read_dir(dir.join(&store).join("runs"))
                .unwrap()
                .count(),
            2
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}
