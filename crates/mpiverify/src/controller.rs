//! The recording/replaying [`MatchController`] exploration runs attach to
//! a [`WorldBuilder`](mpisim::WorldBuilder).
//!
//! A [`ScheduleController`] carries a *forced prefix* of decisions. While
//! the run's wildcard receives still fall inside the prefix, each one is
//! resolved to the prefix's chosen sender; past the prefix, the
//! controller answers `0` — the arrival-order default, i.e. exactly what
//! an uncontrolled run would do. Every decision (forced or default) is
//! logged, so after the run completes the controller holds the run's full
//! [`Schedule`], which the explorer mines for un-taken branches.
//!
//! Decisions are matched to prefix entries positionally, in global
//! decision order. That is sound because the simulator's scheduler runs
//! one rank at a time in a deterministic order: two runs of the same
//! program on the same engine that agree on their first `k` decisions
//! encounter decision `k + 1` at the same receive site with the same
//! queue contents.

use mpisim::{MatchCandidate, MatchController};
use parking_lot::Mutex;

use crate::schedule::{Decision, Schedule};

struct Inner {
    forced: Vec<Decision>,
    log: Vec<Decision>,
    /// Next wildcard slot per receiver world rank (grown on demand).
    next_slot: Vec<usize>,
    /// Set when a forced chosen sender was absent from the live candidate
    /// set — the replayed world diverged from the recorded one.
    diverged: bool,
}

/// Records the wildcard-match decisions of one run, optionally forcing a
/// prefix of them. See the module docs for the protocol.
pub struct ScheduleController {
    inner: Mutex<Inner>,
}

impl ScheduleController {
    /// A controller with an empty forced prefix: the run behaves exactly
    /// like an uncontrolled one and the controller records its canonical
    /// schedule.
    pub fn recording() -> Self {
        Self::replaying(Schedule::default())
    }

    /// A controller that forces `prefix`'s decisions in order, then
    /// defaults to arrival order.
    pub fn replaying(prefix: Schedule) -> Self {
        ScheduleController {
            inner: Mutex::new(Inner {
                forced: prefix.decisions,
                log: Vec::new(),
                next_slot: Vec::new(),
                diverged: false,
            }),
        }
    }

    /// The full decision log of the (completed) run.
    pub fn schedule(&self) -> Schedule {
        Schedule {
            decisions: self.inner.lock().log.clone(),
        }
    }

    /// Did any forced decision name a sender that was not a live
    /// candidate? A diverged replay is still deterministic but no longer
    /// reproduces the recorded run, so verdicts must not rest on it.
    pub fn diverged(&self) -> bool {
        self.inner.lock().diverged
    }
}

impl MatchController for ScheduleController {
    fn choose(&self, receiver: usize, candidates: &[MatchCandidate]) -> usize {
        let mut inner = self.inner.lock();
        if inner.next_slot.len() <= receiver {
            inner.next_slot.resize(receiver + 1, 0);
        }
        let slot = inner.next_slot[receiver];
        inner.next_slot[receiver] = slot + 1;
        let idx = inner.log.len();
        let choice = if idx < inner.forced.len() {
            let want = inner.forced[idx].chosen;
            match candidates.iter().position(|c| c.src_world == want) {
                Some(i) => i,
                None => {
                    inner.diverged = true;
                    0
                }
            }
        } else {
            0
        };
        inner.log.push(Decision {
            receiver,
            slot,
            candidates: candidates.iter().map(|c| (c.src_world, c.tag)).collect(),
            chosen: candidates[choice].src_world,
        });
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(senders: &[usize]) -> Vec<MatchCandidate> {
        senders
            .iter()
            .map(|&s| MatchCandidate {
                src_world: s,
                src_local: s,
                tag: 7,
                seq: mpisim::message::seq_of(s, 0),
            })
            .collect()
    }

    #[test]
    fn recording_defaults_to_arrival_order() {
        let ctl = ScheduleController::recording();
        assert_eq!(ctl.choose(0, &cands(&[2, 1])), 0);
        assert_eq!(ctl.choose(0, &cands(&[1])), 0);
        let s = ctl.schedule();
        assert_eq!(s.decisions.len(), 2);
        assert_eq!(s.decisions[0].chosen, 2);
        assert_eq!(s.decisions[0].slot, 0);
        assert_eq!(s.decisions[1].chosen, 1);
        assert_eq!(s.decisions[1].slot, 1);
        assert!(!ctl.diverged());
    }

    #[test]
    fn replaying_forces_named_sender() {
        let prefix = Schedule {
            decisions: vec![Decision {
                receiver: 0,
                slot: 0,
                candidates: vec![(1, 7), (2, 7)],
                chosen: 2,
            }],
        };
        let ctl = ScheduleController::replaying(prefix);
        assert_eq!(ctl.choose(0, &cands(&[1, 2])), 1);
        // Past the prefix: default.
        assert_eq!(ctl.choose(0, &cands(&[1, 2])), 0);
        assert!(!ctl.diverged());
        assert_eq!(ctl.schedule().decisions[0].chosen, 2);
    }

    #[test]
    fn missing_forced_sender_flags_divergence() {
        let prefix = Schedule {
            decisions: vec![Decision {
                receiver: 0,
                slot: 0,
                candidates: vec![(1, 7), (3, 7)],
                chosen: 3,
            }],
        };
        let ctl = ScheduleController::replaying(prefix);
        assert_eq!(ctl.choose(0, &cands(&[1, 2])), 0);
        assert!(ctl.diverged());
    }

    #[test]
    fn slots_are_per_receiver() {
        let ctl = ScheduleController::recording();
        ctl.choose(0, &cands(&[1]));
        ctl.choose(5, &cands(&[2]));
        ctl.choose(0, &cands(&[3]));
        let s = ctl.schedule();
        assert_eq!((s.decisions[0].receiver, s.decisions[0].slot), (0, 0));
        assert_eq!((s.decisions[1].receiver, s.decisions[1].slot), (5, 0));
        assert_eq!((s.decisions[2].receiver, s.decisions[2].slot), (0, 1));
    }
}
