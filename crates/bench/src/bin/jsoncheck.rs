//! Validate JSON artifacts with the workspace's recursive-descent checker.
//!
//! ```text
//! cargo run --release -p bench --bin jsoncheck -- FILE [FILE...]
//! ```
//!
//! Reads each file and runs [`mpisim::jsoncheck::check_json`] — the exact
//! validator the exporter integration tests use — over its contents.
//! Prints one `ok`/`invalid` line per file; exits non-zero if any file is
//! missing or malformed. `scripts/check.sh` uses this to gate the JSON
//! documents the `profile` CLI emits (metrics, traces, timelines).

use std::process::ExitCode;

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: jsoncheck FILE [FILE...]");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in &files {
        let contents = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{path}: unreadable: {e}");
                failed = true;
                continue;
            }
        };
        match mpisim::jsoncheck::check_json(&contents) {
            Ok(()) => println!("{path}: ok ({} bytes)", contents.len()),
            Err(pos) => {
                eprintln!(
                    "{path}: invalid JSON at byte {pos}: ...{}...",
                    mpisim::jsoncheck::excerpt(&contents, pos)
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
