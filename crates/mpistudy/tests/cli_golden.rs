//! Cross-commit pins for what the `study` binary prints and writes: a
//! cold 6-cell sweep (stdout with the wall-clock seconds masked, every
//! store document) and the report served from it (JSON on stdout, the
//! regenerated figure CSVs). Same scheme as `bench`'s `cli_golden.rs`,
//! whose helpers this file shares.

#[path = "../../bench/tests/support/mod.rs"]
mod support;
use support::{check, files_print, print_of, run, scratch};

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
    check(
        "study run + report",
        &[
            ("run stdout", print_of(&mask_secs(&sweep.stdout))),
            ("store documents", store_print),
            ("report stdout", print_of(&report.stdout)),
            ("figure CSVs", files_print(&dir.join("figures"))),
        ],
        &[
            0xfbc05086a6037947,
            0x7e4eafc267c52aa5,
            0xbe2c1d2573017acf,
            0x08682879a83a285d,
        ],
    );
    let _ = std::fs::remove_dir_all(dir);
}
