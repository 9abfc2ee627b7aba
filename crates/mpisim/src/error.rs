//! Run-level error reporting.
//!
//! Inside a rank, misuse (bad peer rank, datatype mismatch, malformed
//! collective) panics — mirroring `MPI_ERRORS_ARE_FATAL`, the default error
//! handler of every real MPI. The launch harness catches rank panics,
//! poisons the world so blocked peers unwind instead of deadlocking, and
//! surfaces the first failure as a [`RunError`].
//!
//! What can be said precisely goes through a richer channel (see
//! [`crate::diag`]): the engine's own findings — a deadlock the scheduler
//! proved, a collective the members of a communicator disagree on — and
//! those of correctness tools are structured [`Diagnostic`]s, and the
//! harness returns [`RunError::Diagnosed`] carrying them instead of an
//! opaque panic string.

use crate::diag::{self, Diagnostic};
use std::fmt;

/// Why a simulated run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A rank panicked; carries the rank id and the panic payload (when it
    /// was a string).
    RankPanicked { rank: usize, message: String },
    /// The run was configured with zero ranks.
    NoRanks,
    /// The engine (deadlock, divergent collective) or a correctness tool
    /// failed the run with structured findings (deduplicated, in report
    /// order).
    Diagnosed(Vec<Diagnostic>),
    /// The world's fiber stacks could not be had — more ranks than
    /// `vm.max_map_count` leaves room to guard, a stack size the address
    /// space cannot hold, or (thread-backed fibers) a rank's thread the
    /// host would not start. Carries the reason as one line.
    StackReservation(String),
}

impl RunError {
    /// The diagnostics carried by a [`RunError::Diagnosed`], if any.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        match self {
            RunError::Diagnosed(diags) => diags,
            _ => &[],
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} failed: {message}")
            }
            RunError::NoRanks => write!(f, "world must have at least one rank"),
            RunError::StackReservation(reason) => f.write_str(reason),
            RunError::Diagnosed(diags) => {
                write!(
                    f,
                    "run aborted with {} diagnostic{}:\n{}",
                    diags.len(),
                    if diags.len() == 1 { "" } else { "s" },
                    diag::report(diags).trim_end()
                )
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Panic message used when a rank unwinds *because* another rank already
/// poisoned the world; such secondary panics are suppressed in reports.
pub const POISONED_MSG: &str = "mpisim: world poisoned by another rank's failure";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = RunError::RankPanicked {
            rank: 3,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "rank 3 failed: boom");
        assert_eq!(
            RunError::NoRanks.to_string(),
            "world must have at least one rank"
        );
        assert_eq!(
            RunError::StackReservation("no room".into()).to_string(),
            "no room"
        );
    }

    #[test]
    fn diagnosed_display_includes_messages() {
        let d = Diagnostic {
            kind: crate::diag::DiagnosticKind::SectionMisuse {
                label_stack: vec!["a".into()],
                event_index: 2,
            },
            severity: crate::diag::Severity::Error,
            ranks: vec![1],
            comm: None,
            message: "imperfect nesting on rank 1".into(),
        };
        let e = RunError::Diagnosed(vec![d.clone()]);
        assert!(e.to_string().contains("imperfect nesting on rank 1"));
        assert_eq!(e.diagnostics(), &[d]);
        assert!(RunError::NoRanks.diagnostics().is_empty());
    }
}
