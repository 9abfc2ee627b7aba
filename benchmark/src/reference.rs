//! The host-speed reference: a fixed piece of work, independent of the
//! repository's code, that is timed between the operations of a run.
//!
//! The hosts this benchmark runs on are small VMs that share cores, caches
//! and memory with other tenants. Identical code runs 30–100 % slower there
//! for seconds to minutes at a time (CPU time moves with wall time, nothing
//! is reported as stolen), and no statistic of a run's operation times
//! alone removes a phase that outlasts the run: ten runs of identical code
//! spread 17–32 % in the check that refused the first version of this
//! benchmark. The reference goes through the same phases (correlation
//! 0.7–0.9 between the medians of 20 s windows on the defining host). A run
//! therefore reports every time multiplied by `QUIET_S ÷ median reference
//! sample of the run`: what the operation takes on a host on which the
//! reference takes `QUIET_S`, which is the defining host left alone
//! (README, "Noise").
//!
//! One sample is a dependent pointer chase over 8 MiB: cache and memory
//! latency, which is what the tenants contend for. A core-bound integer
//! recurrence was tried beside it and dropped: the operations' times followed
//! the chase alone more closely than any mix of the two (README, "Noise").
//!
//! The samples are taken by a helper process (this binary run as
//! `benchmark reference`), not by the process that spawns the operations:
//! a child's `ru_maxrss` never reads below the peak resident set of the
//! process that spawned it, so 16 MiB of chase table in the load generator
//! would hide the peak memory of every smaller operation. The helper sleeps
//! on its stdin while an operation runs.

use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// What one sample takes on the defining host when nothing else runs on it
/// (the first percentile of several thousand samples).
pub const QUIET_S: f64 = 0.095;

/// The sub-command that makes this binary the helper.
pub const HELPER_ARG: &str = "reference";

/// Links of the pointer chase: 2 Mi × 4 bytes = 8 MiB.
const LINKS: usize = 2 * 1024 * 1024;
const CHASE_STEPS: usize = LINKS;

/// The helper's side: the chain, and the work timed over it.
struct Chase {
    /// One cycle through all `LINKS` slots in pseudo-random order.
    next: Vec<u32>,
}

impl Chase {
    fn new() -> Chase {
        // Sattolo's shuffle gives a single cycle; the generator is a fixed
        // xorshift, so every run chases the same chain.
        let mut order: Vec<u32> = (0..LINKS as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for i in (1..LINKS).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state % i as u64) as usize);
        }
        let mut next = vec![0u32; LINKS];
        for k in 0..LINKS {
            next[order[k] as usize] = order[(k + 1) % LINKS];
        }
        Chase { next }
    }

    /// Host seconds of one sample.
    fn sample(&self) -> f64 {
        let start = Instant::now();
        let mut slot = black_box(0u32);
        for _ in 0..black_box(CHASE_STEPS) {
            slot = self.next[slot as usize];
        }
        black_box(slot);
        start.elapsed().as_secs_f64()
    }

    /// Samples until they cover `secs` (one at least).
    fn samples_covering(&self, secs: f64) -> Vec<f64> {
        let (mut samples, mut covered) = (Vec::new(), 0.0);
        while samples.is_empty() || covered < secs {
            let s = self.sample();
            covered += s;
            samples.push(s);
        }
        samples
    }
}

/// The helper's main loop: per line of stdin (seconds to cover) one line of
/// stdout (the samples' seconds), until stdin closes.
pub fn serve() -> io::Result<()> {
    let chase = Chase::new();
    let mut out = io::stdout().lock();
    for line in io::stdin().lock().lines() {
        let secs: f64 = line?
            .trim()
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "expected seconds"))?;
        let samples: Vec<String> = chase
            .samples_covering(secs)
            .iter()
            .map(f64::to_string)
            .collect();
        writeln!(out, "{}", samples.join(" "))?;
        out.flush()?;
    }
    Ok(())
}

/// The load generator's side: the running helper.
pub struct Reference {
    child: Child,
    /// `None` once closed, which is what ends the helper.
    requests: Option<ChildStdin>,
    answers: BufReader<ChildStdout>,
}

impl Reference {
    pub fn spawn() -> Result<Reference, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(&exe)
            .arg(HELPER_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {} {HELPER_ARG}: {e}", exe.display()))?;
        let requests = child.stdin.take();
        let answers = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Reference {
            child,
            requests,
            answers,
        })
    }

    /// Append samples to `into` until they cover `secs` (one at least).
    pub fn sample_for(&mut self, secs: f64, into: &mut Vec<f64>) -> Result<(), String> {
        let answer = (|| -> io::Result<String> {
            let mut requests = self.requests.as_ref().expect("open until drop");
            writeln!(requests, "{secs}")?;
            let mut line = String::new();
            self.answers.read_line(&mut line)?;
            Ok(line)
        })()
        .map_err(|e| format!("reference helper: {e}"))?;
        let before = into.len();
        for word in answer.split_whitespace() {
            into.push(
                word.parse()
                    .map_err(|_| format!("reference helper answered '{word}'"))?,
            );
        }
        if into.len() == before {
            return Err("reference helper gave no sample".to_string());
        }
        Ok(())
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // End of input ends the helper, after the sample it may be in.
        self.requests = None;
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_through_every_slot() {
        let c = Chase::new();
        let (mut slot, mut steps) = (0u32, 0usize);
        loop {
            slot = c.next[slot as usize];
            steps += 1;
            if slot == 0 || steps > LINKS {
                break;
            }
        }
        assert_eq!(steps, LINKS);
    }

    #[test]
    fn samples_cover_the_time_asked_for() {
        let c = Chase::new();
        let one = c.samples_covering(0.0);
        assert_eq!(one.len(), 1);
        let more = c.samples_covering(2.5 * one[0]);
        assert!(more.len() >= 2 && more.iter().all(|s| *s > 0.0));
        assert!(more.iter().sum::<f64>() >= 2.5 * one[0]);
    }
}
