//! Cross-commit pins for what the `profile` binary prints and writes.
//! `golden_artifacts.rs` pins the library's documents and
//! `benchmark/golden.json` the files of two flag sets with stdout thrown
//! away; here the real binary runs and its *stdout*, its exit code and
//! every file it wrote are reduced to FNV-1a fingerprints committed next
//! to the code, so a front-end refactor that moves one byte fails.
//!
//! To re-pin after an intended change, run the test and copy the
//! `actual:` table it prints on failure.

mod support;
use support::{assert_usage_error, check, files_print, print_of, run, scratch};

const PROFILE: &str = env!("CARGO_BIN_EXE_profile");
const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const JSONCHECK: &str = env!("CARGO_BIN_EXE_jsoncheck");

/// Run `profile` with `args`, expect `code`, and check stdout plus (when
/// the flag set writes any) the written files against `golden`.
fn pinned(tag: &str, args: &str, code: i32, golden: &[u64]) {
    let dir = scratch(tag);
    let args: Vec<&str> = args.split_whitespace().collect();
    let out = run(PROFILE, &dir, &args);
    assert_eq!(out.code, code, "{tag}: stderr:\n{}", out.stderr);
    let mut got = vec![("stdout", print_of(&out.stdout))];
    if golden.len() > 1 {
        got.push(("files", files_print(&dir)));
    }
    check(tag, &got, golden);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn conv_observed_flag_set_is_pinned() {
    pinned(
        "conv-observed",
        "conv --p 8 --steps 10 --seed 1 --metrics --efficiency \
         --metrics-json metrics.json --profile-csv profile.csv",
        0,
        &[0x8d38c6ba8ee5c6b6, 0xd488800f58ce995e],
    );
}

#[test]
fn lulesh_summary_json_is_pinned() {
    pinned(
        "lulesh-summary",
        "lulesh --p 8 --threads 4 --iters 5 --summary-json summary.json",
        0,
        &[0x24c9d50c02fcf03b, 0xa8c75acaa792dbdc],
    );
}

#[test]
fn conv_compare_seq_what_if_is_pinned() {
    pinned(
        "conv-compare-seq",
        "conv --p 8 --steps 10 --compare-seq --what-if jitter=0",
        0,
        &[0x18094214e039881c],
    );
}

/// The cross-scale table at a scale where labels tie on their bound, pure
/// overheads sort by bound rather than by label, and a parent section
/// (`timeloop`) binds.
#[test]
fn lulesh_compare_seq_is_pinned() {
    pinned(
        "lulesh-compare-seq",
        "lulesh --p 8 --iters 10 --compare-seq",
        0,
        &[0x12504ff45b300084],
    );
}

#[test]
fn race_verify_is_pinned_and_exits_1() {
    pinned(
        "race-verify",
        "race --p 4 --verify --verify-json verify.json",
        1,
        &[0x889d75772e5f5bea, 0x5cd19021b738ef8f],
    );
}

/// `--check` at the paper's headline scale: the analyzer watches receives
/// only (the engine itself diagnoses deadlocks and divergent collectives),
/// so the flag adds its verdict line and changes nothing else — and a
/// checker whose cost grew with p would time this test out.
#[test]
fn check_at_the_papers_scale_is_clean_and_changes_no_artifact() {
    let [plain, checked] = ["", " --check"].map(|flag| {
        let dir = scratch(&format!("conv456-check{}", flag.trim()));
        let args = format!("conv --p 456 --steps 20 --profile-csv profile.csv{flag}");
        let args: Vec<&str> = args.split_whitespace().collect();
        let out = run(PROFILE, &dir, &args);
        assert_eq!(out.code, 0, "{flag}: stderr:\n{}", out.stderr);
        let files = files_print(&dir);
        let _ = std::fs::remove_dir_all(dir);
        (out.stdout, files)
    });
    assert_eq!(plain.1, checked.1, "the profile CSV differs under --check");
    let verdict = "mpicheck: clean — no diagnostics\n\n";
    assert!(checked.0.contains(verdict), "{}", checked.0);
    assert_eq!(checked.0.replacen(verdict, "", 1), plain.0);
}

/// Exploration steers the same scheduler on either engine. The reference
/// engine queues the three senders in the opposite order, so the canonical
/// run and the fingerprints differ — pinned apart — while the exploration
/// summary and the verdict at each site may not.
#[test]
fn race_verify_on_the_threads_engine_confirms_the_same_sites() {
    let flags = "race --p 4 --verify --verify-json verify.json --engine";
    pinned(
        "race-verify-threads",
        &format!("{flags} threads"),
        1,
        &[0xe646bd4e5de2b0ad, 0xc12d702715ee28fb],
    );
    let dir = scratch("race-verify-sites");
    let [des, threads] = ["des", "threads"].map(|engine| {
        let args: Vec<&str> = flags.split_whitespace().chain([engine]).collect();
        let out = run(PROFILE, &dir, &args);
        assert_eq!(out.code, 1, "{engine}: stderr:\n{}", out.stderr);
        out.stdout
            .lines()
            .filter_map(|line| match line {
                summary if summary.starts_with("verify: ") => Some(summary),
                site if site.contains(" wildcard #") => site.split(':').next(),
                _ => None,
            })
            .map(str::to_string)
            .collect::<Vec<_>>()
    });
    assert_eq!(des, threads);
    assert_eq!(des.len(), 4, "the summary and three sites: {des:?}");
    assert!(des[1].contains("CONFIRMED") && des[2].contains("CONFIRMED"));
    let _ = std::fs::remove_dir_all(dir);
}

/// Every `figures` target but `fig10` (which always runs the paper's full
/// 2500 iterations) at a scale the test profile finishes in seconds:
/// stdout and the 18 CSVs. `scripts/check.sh` holds the full-scale output
/// against `results/`; this holds the code path in tier-1.
#[test]
fn figures_at_reduced_scale_are_pinned() {
    let dir = scratch("figures-reduced");
    let args = "fig5a fig5b fig5c fig5d fig6 fig7 fig8 fig9 ablation-jitter \
                ablation-network ablation-adaptive ablation-balance halo-ratio \
                weak-scaling amdahl-vs-partial isoefficiency decomp-2d forecast \
                --steps 8 --reps 2 --iters 10 --out out";
    let args: Vec<&str> = args.split_whitespace().collect();
    let out = run(FIGURES, &dir, &args);
    assert_eq!(out.code, 0, "stderr:\n{}", out.stderr);
    let files = std::fs::read_dir(dir.join("out")).expect("out directory");
    assert_eq!(files.count(), 18);
    check(
        "figures at reduced scale",
        &[
            ("stdout", print_of(&out.stdout)),
            ("files", files_print(&dir)),
        ],
        &[0xfa51ed057d848f14, 0xa91758f4ad6800ee],
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn hostile_command_lines_get_one_error_line_and_the_usage() {
    for (exe, args, needle) in [
        (PROFILE, "conv --p", "--p requires a value"),
        (PROFILE, "conv --p x", "--p expects a number, got 'x'"),
        (PROFILE, "conv --bogus", "unknown argument '--bogus'"),
        (PROFILE, "conv extra", "unknown argument 'extra'"),
        (PROFILE, "quantum", "unknown workload 'quantum'"),
        (PROFILE, "conv --machine marsrover", "dual_broadwell"),
        (PROFILE, "conv --what-if net=marsrover", "future_manycore"),
        (PROFILE, "lulesh --p 5", "perfect cube"),
        (
            PROFILE,
            "lulesh --p 27 --threads 100000000 --iters 2",
            "--threads expects 1..=4096 threads per rank, got 100000000",
        ),
        (PROFILE, "lulesh --threads 0", "--threads expects 1..=4096"),
        (FIGURES, "fig7 --steps", "--steps requires a value"),
        (FIGURES, "fig7 --reps x", "--reps expects a number, got 'x'"),
        (FIGURES, "fig6 --reps 0", "--reps expects at least 1"),
        (FIGURES, "fig7 --bogus", "unknown argument '--bogus'"),
        (FIGURES, "fig7 fig11", "unknown target 'fig11'"),
    ] {
        let args: Vec<&str> = args.split_whitespace().collect();
        assert_usage_error(exe, &args, needle);
    }
}

/// A `scale:` factor that re-times a clock past 2^64 ns is refused, not
/// reported as the makespan of a clock that wrapped around.
#[test]
fn a_what_if_past_the_clock_range_is_an_error_not_a_makespan() {
    let dir = scratch("what-if-range");
    let spec = "scale:CONVOLVE=1e11";
    let out = run(
        PROFILE,
        &dir,
        &["conv", "--p", "8", "--steps", "5", "--what-if", spec],
    );
    assert_eq!(out.code, 1, "stderr:\n{}", out.stderr);
    let line = format!(
        "error: --what-if {spec}: the re-timed clock passes 2^64 ns (584 years) under {spec}\n"
    );
    assert_eq!(out.stderr, line);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn hostile_nesting_gets_an_offset_not_a_stack_overflow() {
    let dir = scratch("deep-json");
    for (file, unit) in [("arrays.json", "["), ("objects.json", "{\"a\":")] {
        std::fs::write(dir.join(file), unit.repeat(200_000)).expect("write document");
        let out = run(JSONCHECK, &dir, &[file]);
        assert_eq!(out.code, 1, "{file}: stderr:\n{}", out.stderr);
        assert_eq!(out.stdout, "");
        // 128 levels are followed; the bracket opening the next is the fault.
        let fault = format!("{file}: invalid JSON at byte {}: ...", 128 * unit.len());
        assert!(out.stderr.starts_with(&fault), "{}", out.stderr);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn every_spelling_of_a_machine_resolves() {
    let dir = scratch("machine-names");
    for args in [
        "conv --p 2 --steps 2 --machine nehalem_cluster",
        "conv --p 2 --steps 2 --machine nehalem --what-if net=dual_broadwell",
    ] {
        let args: Vec<&str> = args.split_whitespace().collect();
        let out = run(PROFILE, &dir, &args);
        assert_eq!(out.code, 0, "{args:?}: stderr:\n{}", out.stderr);
        assert!(out.stdout.contains("machine 'nehalem-cluster'"));
    }
    let _ = std::fs::remove_dir_all(dir);
}
