//! Shared by the `cli_golden` tests of `bench` and `mpistudy` (which
//! includes this file by path): run a real binary in a scratch directory
//! and reduce what it printed and wrote to FNV-1a fingerprints.

use mpi_sections::fasthash::fnv1a;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What one invocation of a binary produced.
pub struct Run {
    pub code: i32,
    pub stdout: String,
    pub stderr: String,
}

/// A fresh, empty scratch directory unique to this test.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Run `exe` with `args` and `dir` as its working directory, so relative
/// artifact paths land in `dir` and stdout (which echoes them) does not
/// depend on where the scratch directory lives.
pub fn run(exe: &str, dir: &Path, args: &[&str]) -> Run {
    let out = Command::new(exe)
        .args(args)
        .current_dir(dir)
        .env_remove("MPISIM_ENGINE")
        .output()
        .expect("spawn binary");
    Run {
        code: out.status.code().expect("exit code"),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

/// A command-line fault is answered with exit code 2, nothing on stdout,
/// and on stderr one `error: ...` line (containing `needle`) followed by
/// the usage — never a panic.
pub fn assert_usage_error(exe: &str, args: &[&str], needle: &str) {
    let out = run(exe, &std::env::temp_dir(), args);
    let what = format!("{args:?}: stderr:\n{}", out.stderr);
    assert_eq!(out.code, 2, "{what}");
    assert_eq!(out.stdout, "", "{what}");
    assert!(!out.stderr.contains("panicked"), "{what}");
    let mut lines = out.stderr.lines();
    let first = lines.next().unwrap_or("");
    assert!(
        first.starts_with("error: ") && first.contains(needle),
        "{what}"
    );
    assert!(
        lines.next().is_some_and(|l| l.starts_with("usage: ")),
        "{what}"
    );
}

/// One fingerprint over every file under `dir`: relative path and bytes,
/// in path order.
pub fn files_print(dir: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("read scratch directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        let rel = f.strip_prefix(dir).expect("under scratch");
        bytes.extend_from_slice(rel.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&std::fs::read(f).expect("read artifact"));
        bytes.push(0);
    }
    assert!(!files.is_empty(), "no artifact written under {dir:?}");
    fnv1a(&bytes)
}

/// Compare `(what, fingerprint)` pairs against the committed values; on a
/// mismatch print the table to paste.
pub fn check(name: &str, got: &[(&str, u64)], golden: &[u64]) {
    let have: Vec<u64> = got.iter().map(|(_, v)| *v).collect();
    if have != golden {
        let mut table = String::new();
        for (i, (what, v)) in got.iter().enumerate() {
            let mark = if golden.get(i) == Some(v) {
                ""
            } else {
                "   <-- moved"
            };
            table.push_str(&format!("    0x{v:016x}, // {what}{mark}\n"));
        }
        panic!("{name}: CLI output moved. actual:\n{table}");
    }
}

/// `fnv1a` of a string (stdout).
pub fn print_of(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}
