//! Structured diagnostics: what the engine and its tools report instead
//! of panics.
//!
//! The runtime's historical error handling mirrors `MPI_ERRORS_ARE_FATAL`:
//! misuse panics a rank and the harness surfaces an opaque
//! [`RunError::RankPanicked`]. Whoever can say *what* went wrong — which
//! ranks, on which communicator, blocked on what — builds a [`Diagnostic`]
//! instead, and the run comes back as [`RunError::Diagnosed`]. Each hazard
//! is diagnosed in the one place that can prove it:
//!
//! * a **deadlock** by the scheduler (`crate::des`), which sees the ready
//!   heap drain with live ranks left; every stuck rank then describes its
//!   own [`Wait`] and the harness assembles them with [`deadlock`];
//! * a **divergent collective** by the communicator's rendezvous
//!   (`crate::collective`), whose generation *is* the communicator's agreed
//!   sequence ([`collective_divergence`]);
//! * **section misuse** by the section runtime and a **message race**
//!   (a judgement, not a proof) by the `mpicheck` tool.
//!
//! Code running on a rank aborts the world through [`abort_with`]; the
//! launch harness recovers the diagnostics on the unwinding rank's thread.
//!
//! [`RunError::RankPanicked`]: crate::RunError::RankPanicked
//! [`RunError::Diagnosed`]: crate::RunError::Diagnosed

use crate::event::CommId;
use crate::message::TagSel;
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

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
    /// A wait-for knot: no rank in `cycle` can make progress.
    Deadlock {
        /// The blocked call site of every stuck rank, in rank order.
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
// What the engine itself diagnoses
// ----------------------------------------------------------------------

/// What a suspended rank is waiting for, said by the rank itself from the
/// frame it was suspended in — and only once the scheduler has proved that
/// nothing can satisfy it (see `Scheduler::block_current`).
pub(crate) enum Wait {
    /// A blocking receive with no matching message queued.
    Recv {
        comm: CommId,
        /// The named source's world rank; `None` for a wildcard receive.
        src_world: Option<usize>,
        tag: TagSel,
    },
    /// A collective some member has not entered.
    Collective {
        op: &'static str,
        comm: CommId,
        /// World ranks of the communicator's members.
        members: Arc<Vec<usize>>,
    },
}

/// The deadlock report over the ranks that were still blocked when the
/// world ran dry, each with its own [`Wait`]. A rank nobody reported for
/// had finished — the scheduler declares a deadlock only once every live
/// rank is blocked. `context(rank)` is what the attached tools know about
/// where the rank was (its open sections); it is appended to the rank's
/// site. Sites are listed in rank order, whichever order the engine
/// revived the ranks in.
pub(crate) fn deadlock(
    mut stuck: Vec<(usize, Wait)>,
    context: impl Fn(usize) -> Vec<String>,
) -> Diagnostic {
    stuck.sort_unstable_by_key(|(rank, _)| *rank);
    let ranks: Vec<usize> = stuck.iter().map(|(rank, _)| *rank).collect();
    let waits_in_collective_on = |rank: usize, on: CommId| {
        ranks
            .binary_search(&rank)
            .is_ok_and(|at| matches!(&stuck[at].1, Wait::Collective { comm, .. } if *comm == on))
    };
    // The members a collective is missing, worked out once per communicator.
    let mut missing_on: Vec<(CommId, String)> = Vec::new();
    let mut cycle = Vec::with_capacity(stuck.len());
    for (rank, wait) in &stuck {
        let (call, mut waiting_for) = match wait {
            Wait::Recv {
                comm,
                src_world,
                tag,
            } => {
                let from = match src_world {
                    Some(src) if ranks.binary_search(src).is_err() => {
                        format!("a message from rank {src} (already finalized)")
                    }
                    Some(src) => format!("a message from rank {src}"),
                    None => "a message from any source".to_string(),
                };
                let tag = match tag {
                    TagSel::Is(t) => format!(" with tag {t}"),
                    TagSel::Any => String::new(),
                };
                (
                    "MPI_Recv",
                    format!("{from}{tag} on communicator {}", comm.0),
                )
            }
            Wait::Collective { op, comm, members } => {
                if !missing_on.iter().any(|(c, _)| c == comm) {
                    let absent = |member: &usize| !waits_in_collective_on(*member, *comm);
                    let missing: Vec<usize> = members.iter().copied().filter(absent).collect();
                    missing_on.push((*comm, listed(&missing)));
                }
                let missing = &missing_on.iter().find(|(c, _)| c == comm).expect("memo").1;
                (
                    *op,
                    format!(
                        "{missing} to enter the collective on communicator {}",
                        comm.0
                    ),
                )
            }
        };
        let context = context(*rank);
        if !context.is_empty() {
            waiting_for = format!("{waiting_for} [{}]", context.join("; "));
        }
        cycle.push(BlockedSite {
            rank: *rank,
            call: call.to_string(),
            waiting_for,
        });
    }
    Diagnostic {
        message: format!(
            "deadlock: {} cannot make progress (wait-for cycle)",
            listed(&ranks)
        ),
        kind: DiagnosticKind::Deadlock { cycle },
        severity: Severity::Error,
        ranks,
        comm: None,
    }
}

/// `rank 3`, or `ranks 0, 2, 4`.
fn listed(ranks: &[usize]) -> String {
    let numbers: Vec<String> = ranks.iter().map(ToString::to_string).collect();
    let plural = if ranks.len() == 1 { "" } else { "s" };
    format!("rank{plural} {}", numbers.join(", "))
}

/// A collective operation as ranks must agree on it: label and root.
pub(crate) type CollOp = (&'static str, Option<usize>);

fn describe((op, root): CollOp) -> String {
    match root {
        Some(root) => format!("{op}(root={root})"),
        None => op.to_string(),
    }
}

/// World rank `rank` entered `observed` as collective number `position` of
/// `comm`, where the first member to get there had entered `expected`.
pub(crate) fn collective_divergence(
    comm: CommId,
    rank: usize,
    position: u64,
    expected: CollOp,
    observed: CollOp,
) -> Diagnostic {
    let (expected, observed) = (describe(expected), describe(observed));
    Diagnostic {
        message: format!(
            "collective divergence on communicator {}: rank {rank} performed {observed} \
             but the communicator's sequence has {expected} at position {position}",
            comm.0
        ),
        kind: DiagnosticKind::CollectiveDivergence {
            position: position as usize,
            expected,
            observed,
        },
        severity: Severity::Error,
        ranks: vec![rank],
        comm: Some(comm),
    }
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
