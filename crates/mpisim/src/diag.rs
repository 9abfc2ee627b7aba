//! Structured diagnostics: what correctness tools report instead of panics.
//!
//! The runtime's historical error handling mirrors `MPI_ERRORS_ARE_FATAL`:
//! misuse panics a rank and the harness surfaces an opaque
//! [`RunError::RankPanicked`]. Analysis tools (the `mpicheck` crate, the
//! section runtime's verifier) want to say *what* went wrong — which ranks,
//! on which communicator, holding which wait-for cycle — so they build a
//! [`Diagnostic`] and abort the world through [`abort_with`]. The launch
//! harness recovers the diagnostics on the unwinding rank's thread and
//! returns [`RunError::Diagnosed`] instead of a bare panic message.
//!
//! [`RunError::RankPanicked`]: crate::RunError::RankPanicked
//! [`RunError::Diagnosed`]: crate::RunError::Diagnosed

use crate::event::CommId;
use std::cell::RefCell;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational observation; no correctness impact.
    Info,
    /// A hazard: the run completed but its behavior is fragile (e.g. a
    /// wildcard-receive message race).
    Warn,
    /// A definite correctness fault; the run was aborted.
    Error,
}

impl Severity {
    /// Uppercase label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Error => "ERROR",
        }
    }
}

/// One blocked call site inside a deadlock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedSite {
    /// World rank that is blocked.
    pub rank: usize,
    /// The blocked MPI-level call (e.g. `MPI_Recv`, `barrier`).
    pub call: String,
    /// What the call is waiting for, human-readable.
    pub waiting_for: String,
}

impl fmt::Display for BlockedSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} blocked in {} waiting for {}",
            self.rank, self.call, self.waiting_for
        )
    }
}

/// The fault class of a diagnostic, with kind-specific evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DiagnosticKind {
    /// A wait-for cycle: no rank in `cycle` can make progress.
    Deadlock {
        /// The blocked call sites, in cycle order: each entry waits on the
        /// next (the last waits on the first).
        cycle: Vec<BlockedSite>,
    },
    /// Ranks of one communicator disagree on the sequence of collectives.
    CollectiveDivergence {
        /// Index of the first divergent collective on this communicator.
        position: usize,
        /// The operation the communicator's agreed sequence expected.
        expected: String,
        /// The operation the offending rank performed instead.
        observed: String,
    },
    /// A wildcard receive had several simultaneously matching in-flight
    /// senders: the match order is nondeterministic on a real MPI.
    MessageRace {
        /// The receiving world rank.
        receiver: usize,
        /// Competing in-flight messages as `(sender world rank, tag)`.
        candidates: Vec<(usize, i32)>,
    },
    /// Section API misuse (imperfect nesting, order violation, exit
    /// without enter).
    SectionMisuse {
        /// The rank's open-section labels at the fault, outermost first.
        label_stack: Vec<String>,
        /// Index of the offending section event on that rank.
        event_index: u64,
    },
}

impl DiagnosticKind {
    /// Short kind name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            DiagnosticKind::Deadlock { .. } => "deadlock",
            DiagnosticKind::CollectiveDivergence { .. } => "collective-divergence",
            DiagnosticKind::MessageRace { .. } => "message-race",
            DiagnosticKind::SectionMisuse { .. } => "section-misuse",
        }
    }
}

/// One structured finding of a correctness tool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Fault class and evidence.
    pub kind: DiagnosticKind,
    /// Severity (only `Error` aborts a run).
    pub severity: Severity,
    /// World ranks involved, sorted ascending.
    pub ranks: Vec<usize>,
    /// Communicator the fault is tied to, when there is one.
    pub comm: Option<CommId>,
    /// One-line human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Render as a JSON object (hand-rolled: the workspace builds without
    /// registry access, so no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_field(&mut out, "kind", &json_str(self.kind.name()));
        push_field(&mut out, "severity", &json_str(self.severity.label()));
        let ranks: Vec<String> = self.ranks.iter().map(ToString::to_string).collect();
        push_field(&mut out, "ranks", &format!("[{}]", ranks.join(",")));
        match self.comm {
            Some(c) => push_field(&mut out, "comm", &c.0.to_string()),
            None => push_field(&mut out, "comm", "null"),
        }
        push_field(&mut out, "message", &json_str(&self.message));
        match &self.kind {
            DiagnosticKind::Deadlock { cycle } => {
                let sites: Vec<String> = cycle
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"rank\":{},\"call\":{},\"waiting_for\":{}}}",
                            s.rank,
                            json_str(&s.call),
                            json_str(&s.waiting_for)
                        )
                    })
                    .collect();
                push_field(&mut out, "cycle", &format!("[{}]", sites.join(",")));
            }
            DiagnosticKind::CollectiveDivergence {
                position,
                expected,
                observed,
            } => {
                push_field(&mut out, "position", &position.to_string());
                push_field(&mut out, "expected", &json_str(expected));
                push_field(&mut out, "observed", &json_str(observed));
            }
            DiagnosticKind::MessageRace {
                receiver,
                candidates,
            } => {
                push_field(&mut out, "receiver", &receiver.to_string());
                let cands: Vec<String> = candidates
                    .iter()
                    .map(|(r, t)| format!("[{r},{t}]"))
                    .collect();
                push_field(&mut out, "candidates", &format!("[{}]", cands.join(",")));
            }
            DiagnosticKind::SectionMisuse {
                label_stack,
                event_index,
            } => {
                let labels: Vec<String> = label_stack.iter().map(|l| json_str(l)).collect();
                push_field(&mut out, "label_stack", &format!("[{}]", labels.join(",")));
                push_field(&mut out, "event_index", &event_index.to_string());
            }
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            self.severity.label(),
            self.kind.name(),
            self.message
        )
    }
}

fn push_field(out: &mut String, key: &str, rendered_value: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(rendered_value);
}

/// The workspace's one JSON string escaper (defined in `machine`, the
/// lowest crate that emits JSON), re-exported where every emitter above
/// looks for it.
pub use machine::json_str;

/// Remove exact duplicates, preserving first-occurrence order (several
/// ranks may report the same fault before the world unwinds).
pub fn dedup(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::with_capacity(diags.len());
    for d in diags {
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

/// Human-readable multi-line report over a set of diagnostics.
pub fn report(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return "no diagnostics".to_string();
    }
    let mut out = String::new();
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!("{}. {d}\n", i + 1));
        match &d.kind {
            DiagnosticKind::Deadlock { cycle } => {
                for site in cycle {
                    out.push_str(&format!("     {site}\n"));
                }
            }
            DiagnosticKind::CollectiveDivergence {
                position,
                expected,
                observed,
            } => {
                out.push_str(&format!(
                    "     collective #{position}: expected {expected}, observed {observed}\n"
                ));
            }
            DiagnosticKind::MessageRace {
                receiver,
                candidates,
            } => {
                let cands: Vec<String> = candidates
                    .iter()
                    .map(|(r, t)| format!("rank {r} (tag {t})"))
                    .collect();
                out.push_str(&format!(
                    "     receiver rank {receiver}; competing senders: {}\n",
                    cands.join(", ")
                ));
            }
            DiagnosticKind::SectionMisuse {
                label_stack,
                event_index,
            } => {
                out.push_str(&format!(
                    "     open sections: [{}], section event #{event_index}\n",
                    label_stack.join(" > ")
                ));
            }
        }
    }
    out
}

/// JSON array over a set of diagnostics.
pub fn report_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    format!("[{}]", items.join(","))
}

// ----------------------------------------------------------------------
// The fatal-diagnostic channel
// ----------------------------------------------------------------------

/// Panic message carried by [`abort_with`] unwinds. The launch harness
/// recognizes it and replaces the opaque panic with the stored diagnostics.
pub const DIAGNOSED_MSG: &str = "mpisim: run aborted with diagnostics";

thread_local! {
    /// Diagnostics deposited by [`abort_with`] on the aborting rank's
    /// thread, recovered by the harness after `catch_unwind`.
    static PENDING: RefCell<Vec<Diagnostic>> = const { RefCell::new(Vec::new()) };
}

/// Abort the calling rank with structured diagnostics.
///
/// The diagnostics are stored thread-locally and the thread unwinds with a
/// sentinel panic; [`crate::WorldBuilder::run`] catches it, poisons the
/// world so peers unwind too, and returns
/// [`RunError::Diagnosed`](crate::RunError::Diagnosed). Works from any code
/// running on a rank's thread — a [`crate::Tool`] observing events, or a
/// library layer like the section runtime.
pub fn abort_with(diags: Vec<Diagnostic>) -> ! {
    PENDING.with(|p| p.borrow_mut().extend(diags));
    panic!("{DIAGNOSED_MSG}");
}

/// Drain the calling thread's pending diagnostics (harness side).
pub(crate) fn take_pending() -> Vec<Diagnostic> {
    PENDING.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            kind: DiagnosticKind::Deadlock {
                cycle: vec![
                    BlockedSite {
                        rank: 0,
                        call: "MPI_Recv".into(),
                        waiting_for: "a message from rank 1".into(),
                    },
                    BlockedSite {
                        rank: 1,
                        call: "MPI_Recv".into(),
                        waiting_for: "a message from rank 0".into(),
                    },
                ],
            },
            severity: Severity::Error,
            ranks: vec![0, 1],
            comm: Some(CommId::WORLD),
            message: "recv/recv cross-wait between ranks 0 and 1".into(),
        }
    }

    #[test]
    fn json_shape() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"kind\":\"deadlock\""), "{j}");
        assert!(j.contains("\"ranks\":[0,1]"), "{j}");
        assert!(j.contains("\"comm\":0"), "{j}");
        assert!(
            j.contains("\"waiting_for\":\"a message from rank 0\""),
            "{j}"
        );
    }

    #[test]
    fn json_escapes_control_and_quotes() {
        let mut d = sample();
        d.message = "a \"quoted\"\nline\u{1}".into();
        let j = d.to_json();
        assert!(j.contains("a \\\"quoted\\\"\\nline\\u0001"), "{j}");
    }

    #[test]
    fn dedup_preserves_order() {
        let a = sample();
        let mut b = sample();
        b.message = "different".into();
        let out = dedup(vec![a.clone(), b.clone(), a.clone()]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], a);
        assert_eq!(out[1], b);
    }

    #[test]
    fn report_lists_cycle_sites() {
        let r = report(&[sample()]);
        assert!(r.contains("deadlock"), "{r}");
        assert!(r.contains("rank 0 blocked in MPI_Recv"), "{r}");
        assert!(r.contains("rank 1 blocked in MPI_Recv"), "{r}");
        assert_eq!(report(&[]), "no diagnostics");
    }

    #[test]
    fn abort_stores_and_take_drains() {
        let result = std::panic::catch_unwind(|| {
            abort_with(vec![sample()]);
        });
        assert!(result.is_err());
        let pending = take_pending();
        assert_eq!(pending.len(), 1);
        assert!(take_pending().is_empty(), "drained");
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
    }
}
