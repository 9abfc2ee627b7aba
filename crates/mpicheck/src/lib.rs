//! # mpicheck — the wildcard-race heuristic for the virtual MPI runtime
//!
//! Of the classic MPI correctness hazards, the engine diagnoses what it can
//! *prove*, in every run, with or without this crate:
//!
//! * **Deadlock** — the scheduler sees the ready heap drain with live ranks
//!   left; every blocked rank then names its own call site. A recv/recv
//!   cross-wait, a rank skipping a barrier, or a receive from a finalized
//!   rank comes back as one [`mpisim::DiagnosticKind::Deadlock`].
//! * **Collective divergence** — a communicator's rendezvous compares each
//!   arrival's operation and root with the generation's first; the rank
//!   that disagrees aborts with the position and both operations.
//! * **Section misuse** — the `mpi-sections` runtime reports imperfect
//!   nesting and cross-rank order violations.
//!
//! What is left for a tool is the one finding that is a *judgement*, not a
//! proof. The [`Analyzer`] is an [`mpisim::Tool`] that watches receives:
//!
//! * **Message race** — a wildcard ([`Src::Any`]) receive that has more
//!   than one simultaneously matching in-flight sender is nondeterministic
//!   on a real MPI; the competing `(rank, tag)` pairs are reported as a
//!   warning (the run still completes).
//!
//! All four classes are [`mpisim::Diagnostic`]s; the fatal three surface as
//! [`mpisim::RunError::Diagnosed`]. The analyzer observes one event kind,
//! `RecvMatched`, whose candidate list is non-empty exactly for a wildcard
//! receive, and never advances virtual time, so a clean program produces
//! bit-identical [`mpisim::RunReport`]s with and without it
//! (property-tested in this crate).
//!
//! ## Example
//!
//! ```
//! use mpicheck::Analyzer;
//! use mpisim::{RunError, Src, TagSel, WorldBuilder};
//!
//! let analyzer = Analyzer::new();
//! let err = WorldBuilder::new(2)
//!     .tool(analyzer)
//!     .run(|p| {
//!         let world = p.world();
//!         // Both ranks receive first: a textbook cross-wait.
//!         let peer = 1 - p.world_rank();
//!         let _ = world.recv::<u8>(p, Src::Rank(peer), TagSel::Any);
//!         world.send(p, peer, 0, &[1u8]);
//!     })
//!     .unwrap_err();
//! assert!(matches!(err, RunError::Diagnosed(_)));
//! ```

use mpisim::diag::{Diagnostic, DiagnosticKind, Severity};
use mpisim::{CommId, EventKind, EventMask, MpiEvent, Tool};
use parking_lot::Mutex;
use std::sync::Arc;

/// The race analyzer. Attach with
/// [`WorldBuilder::tool`](mpisim::WorldBuilder::tool); its findings are
/// warnings, available from [`Analyzer::diagnostics`] after the run.
#[derive(Default)]
pub struct Analyzer {
    /// Non-fatal findings (message races), deduplicated.
    warnings: Mutex<Vec<Diagnostic>>,
}

impl Analyzer {
    /// A fresh analyzer, ready to attach to one world.
    pub fn new() -> Arc<Analyzer> {
        Arc::new(Analyzer::default())
    }

    /// The non-fatal findings collected so far (deduplicated, in discovery
    /// order). Fatal findings are not listed here — they abort the run and
    /// travel in [`mpisim::RunError::Diagnosed`].
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        self.warnings.lock().clone()
    }
}

/// The warning for a wildcard receive of `receiver` that could have matched
/// any of `candidates`, or `None` where there was no choice to make.
///
/// Only distinct senders can race: per-sender order is pinned by the
/// non-overtaking rule, so several queued messages from one sender are no
/// choice at all. Keep the earliest message per sender (what the runtime
/// could actually match) and warn only when two or more senders compete —
/// a single live candidate is deterministic, the verifier's "trivially
/// refuted".
fn race_warning(receiver: usize, comm: CommId, candidates: &[(usize, i32)]) -> Option<Diagnostic> {
    let mut competing: Vec<(usize, i32)> = Vec::new();
    for &(sender, tag) in candidates {
        if !competing.iter().any(|(seen, _)| *seen == sender) {
            competing.push((sender, tag));
        }
    }
    if competing.len() < 2 {
        return None;
    }
    competing.sort_unstable();
    let mut ranks: Vec<usize> = competing.iter().map(|(sender, _)| *sender).collect();
    ranks.push(receiver);
    ranks.sort_unstable();
    ranks.dedup();
    Some(Diagnostic {
        message: format!(
            "message race: wildcard receive on rank {receiver} had {} simultaneously \
             matching senders — the match order is nondeterministic on a real MPI",
            competing.len()
        ),
        kind: DiagnosticKind::MessageRace {
            receiver,
            candidates: competing,
        },
        severity: Severity::Warn,
        ranks,
        comm: Some(comm),
    })
}

impl Tool for Analyzer {
    fn interests(&self) -> EventMask {
        EventMask::only(EventKind::RecvMatched)
    }

    fn on_event(&self, world_rank: usize, event: &MpiEvent) {
        // A named receive observes no candidates: it had no choice.
        if let MpiEvent::RecvMatched {
            comm, candidates, ..
        } = event
        {
            if let Some(warning) = race_warning(world_rank, *comm, candidates) {
                let mut warnings = self.warnings.lock();
                if !warnings.contains(&warning) {
                    warnings.push(warning);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive one wildcard receive through `on_event` and return the
    /// analyzer's warnings for the given candidate set.
    fn race_warnings(candidates: Vec<(usize, i32)>) -> Vec<Diagnostic> {
        let analyzer = Analyzer::new();
        for r in 0..3 {
            analyzer.on_event(
                r,
                &MpiEvent::Init {
                    size: 3,
                    time: machine::VTime::ZERO,
                },
            );
        }
        let (src_world, tag) = candidates[0];
        analyzer.on_event(
            0,
            &MpiEvent::RecvMatched {
                comm: CommId::WORLD,
                src_world,
                tag,
                seq: 1,
                bytes: 4,
                sent: machine::VTime::ZERO,
                candidates,
                done: machine::VTime::ZERO,
                time: machine::VTime::ZERO,
            },
        );
        analyzer.diagnostics()
    }

    #[test]
    fn single_sender_multi_message_wildcard_does_not_warn() {
        // Three queued messages, all from rank 1: the non-overtaking rule
        // pins the match, so there is no race however many are queued.
        assert!(race_warnings(vec![(1, 7), (1, 8), (1, 9)]).is_empty());
    }

    #[test]
    fn multi_sender_wildcard_warns_with_per_sender_candidates() {
        // Two distinct senders, one of them with a second queued message:
        // the warning counts senders (2), not messages (3), and lists the
        // earliest message per sender only.
        let warnings = race_warnings(vec![(1, 7), (2, 7), (1, 8)]);
        assert_eq!(warnings.len(), 1);
        let w = &warnings[0];
        assert_eq!(w.severity, Severity::Warn);
        assert!(
            w.message.contains("had 2 simultaneously matching senders"),
            "{}",
            w.message
        );
        match &w.kind {
            DiagnosticKind::MessageRace {
                receiver,
                candidates,
            } => {
                assert_eq!(*receiver, 0);
                assert_eq!(candidates, &vec![(1, 7), (2, 7)]);
            }
            other => panic!("expected message race, got {other:?}"),
        }
        assert_eq!(w.ranks, vec![0, 1, 2]);
    }
}
