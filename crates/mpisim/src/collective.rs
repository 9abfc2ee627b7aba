//! Generation-counted rendezvous: the synchronization core of collectives.
//!
//! Every communicator owns one [`Rendezvous`]. A collective proceeds in two
//! phases:
//!
//! 1. **Arrive.** Each participant deposits its virtual entry time, its
//!    declared payload bytes and its slot, a [`Payload`]: real data, only
//!    counts in timing mode, or the empty payload when it contributes
//!    nothing. The *last* arriver computes the collective's exit time from
//!    all entries (typically `max(entry) + cost`) and publishes a [`Done`]
//!    record.
//! 2. **Read.** Every participant reads the exit time and whatever data
//!    slots the operation semantics give it from its own `Arc` of the
//!    record; the record is freed when the last of them is dropped.
//!
//! Because collectives on one communicator are totally ordered per rank
//! (MPI semantics), arrivals always target the current accumulating
//! generation. The per-generation records let fast ranks start the next
//! collective while slow ranks still read the previous one.
//!
//! An early arriver suspends its fiber; the last arriver re-queues every
//! participant with the world's scheduler (`crate::des`).
//!
//! The generation is also the communicator's agreed collective sequence:
//! the first arriver of generation *k* defines operation *k* — label and
//! root — and a later arriver that enters anything else aborts the world
//! with a `CollectiveDivergence` diagnostic naming the position and both
//! operations. The comparison is always on (one tuple compare per
//! arrival), so ranks disagreeing on a root are caught in every run. A
//! member that never arrives leaves the others suspended here until the
//! scheduler proves the deadlock; each of them then reports the operation
//! and the communicator's members as its wait.

use crate::diag::{self, CollOp, Wait};
use crate::event::CommId;
use crate::mailbox::Poison;
use crate::message::Payload;
use machine::VTime;
use parking_lot::Mutex;
use std::sync::Arc;

/// View of the arrival data handed to the exit-time computation.
pub struct RvView<'a> {
    /// Entry time of each local rank.
    pub entries: &'a [VTime],
    /// Sum of the byte counts declared by all participants.
    pub total_bytes: u64,
    /// Generation number of this collective on this communicator
    /// (stable across ranks — usable as a deterministic jitter seed).
    pub gen: u64,
    /// Number of participants.
    pub p: usize,
}

impl RvView<'_> {
    /// The latest entry time — when the collective can actually start.
    pub fn max_entry(&self) -> VTime {
        self.entries.iter().copied().max().unwrap_or(VTime::ZERO)
    }
}

/// Published result of one completed collective generation.
pub struct Done {
    /// Generation number of this collective on its communicator (stable
    /// across ranks, like [`RvView::gen`]).
    pub gen: u64,
    /// Common exit time for every participant.
    pub exit: VTime,
    /// Sum of the byte counts declared by all participants — what the
    /// exit-time computation priced (surfaces on `CollectiveExit` events).
    pub total_bytes: u64,
    /// The slots, indexed by local rank. Readers may take or clone from
    /// them under the lock according to the operation's semantics.
    pub slots: Mutex<Vec<Payload>>,
    /// The generation's reduction over all slots, computed by the first
    /// reader that needs it and cloned by the rest (an allreduce folds p
    /// slots once, not once per rank).
    pub(crate) folded: Mutex<Option<Payload>>,
}

struct RvState {
    /// Generation currently accumulating arrivals.
    gen: u64,
    arrived: usize,
    entries: Vec<VTime>,
    slots: Vec<Payload>,
    total_bytes: u64,
    /// What the generation's first arriver entered: the operation every
    /// later arriver must enter too.
    op: Option<CollOp>,
    /// The completed generation's record, left by its last arriver until
    /// each of the `takers` members that waited for it has picked up its
    /// own handle. One place is enough: the next generation cannot
    /// complete before they all have, each arriving in it only after its
    /// pick-up.
    completed: Option<Arc<Done>>,
    takers: usize,
}

/// The rendezvous object of one communicator.
pub struct Rendezvous {
    state: Mutex<RvState>,
    /// The communicator this rendezvous belongs to (named in diagnostics).
    comm: CommId,
    /// World ranks of the participants, indexed by local rank — who the
    /// scheduler must wake when the collective completes.
    members: Arc<Vec<usize>>,
}

impl Rendezvous {
    /// The rendezvous of communicator `comm`, whose participants are the
    /// given world ranks (indexed by local rank).
    pub fn new(comm: CommId, members: Arc<Vec<usize>>) -> Self {
        let p = members.len();
        Rendezvous {
            state: Mutex::new(RvState {
                gen: 0,
                arrived: 0,
                entries: vec![VTime::ZERO; p],
                slots: empty_slots(p),
                total_bytes: 0,
                op: None,
                completed: None,
                takers: 0,
            }),
            comm,
            members,
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.members.len()
    }

    /// The generation accumulating arrivals: the one a member that has
    /// left every earlier generation joins next.
    pub fn generation(&self) -> u64 {
        self.state.lock().gen
    }

    /// Abort the world: local rank `local` entered `entered` in generation
    /// `gen`, whose first arriver had entered `agreed`.
    #[cold]
    #[inline(never)]
    fn diverged(&self, local: usize, gen: u64, agreed: CollOp, entered: CollOp) -> ! {
        let rank = self.members[local];
        diag::abort_with(vec![diag::collective_divergence(
            self.comm, rank, gen, agreed, entered,
        )])
    }

    /// Execute one collective phase for local rank `local`.
    ///
    /// `op` and `root` (the root's local rank, for a rooted collective)
    /// are what the members must agree on: an arriver that differs from
    /// the generation's first — one rank in a barrier while another is in
    /// a bcast, two bcasts with different roots — aborts the world with a
    /// `CollectiveDivergence` diagnostic, as it would abort a real MPI
    /// program. `compute_exit` runs exactly once per generation, on the
    /// last arriving rank.
    ///
    /// Returns the caller's own handle on the generation's [`Done`] record.
    #[allow(clippy::too_many_arguments)]
    pub fn arrive<F>(
        &self,
        local: usize,
        op: &'static str,
        root: Option<usize>,
        entry: VTime,
        bytes: u64,
        slot: Payload,
        compute_exit: F,
        poison: &Poison,
    ) -> Arc<Done>
    where
        F: FnOnce(&RvView<'_>) -> VTime,
    {
        let p = self.participants();
        assert!(local < p, "mpisim: local rank {local} out of range");
        let mut st = self.state.lock();
        poison.check();
        let gen = st.gen;
        match st.op {
            None => st.op = Some((op, root)),
            Some(agreed) if agreed == (op, root) => {}
            Some(agreed) => self.diverged(local, gen, agreed, (op, root)),
        }
        st.entries[local] = entry;
        assert!(
            st.slots[local].is_virtual() || slot.is_virtual(),
            "mpisim: duplicate arrival of local rank {local} in generation {gen}"
        );
        st.slots[local] = slot;
        st.total_bytes += bytes;
        st.arrived += 1;
        if st.arrived == p {
            // Last arriver: compute and publish, then open the next
            // generation for arrivals.
            let exit = {
                let view = RvView {
                    entries: &st.entries,
                    total_bytes: st.total_bytes,
                    gen,
                    p,
                };
                compute_exit(&view)
            };
            let slots = std::mem::replace(&mut st.slots, empty_slots(p));
            let done = Arc::new(Done {
                gen,
                exit,
                total_bytes: st.total_bytes,
                slots: Mutex::new(slots),
                folded: Mutex::new(None),
            });
            debug_assert!(st.completed.is_none(), "generation {gen} overtook a waiter");
            if p > 1 {
                st.completed = Some(done.clone());
                st.takers = p - 1;
            }
            st.gen += 1;
            st.arrived = 0;
            st.total_bytes = 0;
            st.op = None;
            st.entries.iter_mut().for_each(|e| *e = VTime::ZERO);
            crate::des::with_active(|s| self.members.iter().for_each(|&rank| s.wake(rank)));
            done
        } else {
            // Wait until this generation completes.
            loop {
                // A fast rank can be here for the next generation while
                // the previous record is still being picked up.
                if let Some(done) = st.completed.as_ref().filter(|done| done.gen == gen) {
                    let done = done.clone();
                    st.takers -= 1;
                    if st.takers == 0 {
                        st.completed = None;
                    }
                    return done;
                }
                poison.check();
                // Suspend this fiber; the last arriver (or the poison
                // path, or a message landing in this rank's mailbox)
                // re-queues it. Release the state lock first — peers take
                // it while this rank sleeps.
                drop(st);
                crate::des::with_active(|s| {
                    s.block_current(|| Wait::Collective {
                        op,
                        comm: self.comm,
                        members: self.members.clone(),
                    });
                });
                st = self.state.lock();
            }
        }
    }
}

/// One empty slot per participant: a generation's deposits start here.
fn empty_slots(p: usize) -> Vec<Payload> {
    std::iter::repeat_with(Payload::default).take(p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, RunError, WorldBuilder};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Run `body(rendezvous, local rank, poison)` as every rank of a
    /// `p`-rank world sharing one free-standing rendezvous; each engine's
    /// per-rank results.
    fn on_each_engine<R: Send>(
        p: usize,
        body: impl Fn(&Rendezvous, usize, &Poison) -> R + Send + Sync,
    ) -> [Result<Vec<R>, RunError>; 2] {
        [Engine::Des, Engine::Threads].map(|engine| {
            let rv = Rendezvous::new(CommId::WORLD, Arc::new((0..p).collect()));
            let report = WorldBuilder::new(p)
                .engine(engine)
                .run(|proc| body(&rv, proc.world_rank(), &proc.mailboxes.poison))?;
            let taken = rv.state.lock().completed.is_none();
            assert!(taken, "every waiter picked up its record");
            Ok(report.results)
        })
    }

    fn run_barrier(entries: Vec<u64>) -> Vec<VTime> {
        let computed = AtomicUsize::new(0);
        let [des, threads] = on_each_engine(entries.len(), |rv, local, poison| {
            rv.arrive(
                local,
                "barrier",
                None,
                VTime::from_nanos(entries[local]),
                0,
                Payload::default(),
                |view| {
                    computed.fetch_add(1, Ordering::SeqCst);
                    view.max_entry() + VTime::from_nanos(10)
                },
                poison,
            )
            .exit
        });
        assert_eq!(
            computed.load(Ordering::SeqCst),
            2,
            "exit computed once per world"
        );
        assert_eq!(des, threads);
        des.unwrap()
    }

    #[test]
    fn all_exit_at_max_plus_cost() {
        let times = run_barrier(vec![5, 80, 20, 3]);
        for t in &times {
            assert_eq!(*t, VTime::from_nanos(90));
        }
    }

    #[test]
    fn single_participant() {
        let times = run_barrier(vec![42]);
        assert_eq!(times, vec![VTime::from_nanos(52)]);
    }

    #[test]
    fn generations_progress() {
        let worlds = on_each_engine(3, |rv, local, poison| {
            for round in 0..50u64 {
                let done = rv.arrive(
                    local,
                    "barrier",
                    None,
                    VTime::from_nanos(round),
                    0,
                    Payload::default(),
                    |view| view.max_entry() + VTime::from_nanos(1),
                    poison,
                );
                assert_eq!(done.gen, round, "generations advance in lockstep");
                assert_eq!(done.exit, VTime::from_nanos(round + 1));
            }
        });
        assert_eq!(worlds, [Ok(vec![(); 3]), Ok(vec![(); 3])]);
    }

    /// The last arriver of a generation does not yield: it is in the next
    /// one before any waiter has run, so every round but the last hands a
    /// record to a rank whose peer has already moved on.
    #[test]
    fn a_fast_rank_enters_the_next_generation_before_a_slow_one_reads_this_one() {
        const ROUNDS: usize = 20;
        let read = [AtomicUsize::new(0), AtomicUsize::new(0)];
        let ahead = AtomicUsize::new(0);
        let worlds = on_each_engine(2, |rv, local, poison| {
            let other = 1 - local;
            for round in 0..ROUNDS {
                if round > 0 && read[other].load(Ordering::SeqCst) < round {
                    ahead.fetch_add(1, Ordering::SeqCst);
                }
                let done = rv.arrive(
                    local,
                    "exchange",
                    None,
                    VTime::from_nanos(round as u64),
                    0,
                    Payload::from_vec(vec![(round, local)]),
                    |view| view.max_entry() + VTime::from_nanos(7),
                    poison,
                );
                assert_eq!(done.gen as usize, round);
                assert_eq!(done.exit, VTime::from_nanos(round as u64 + 7));
                let slots = done.slots.lock();
                assert_eq!(slots[other].get::<Vec<(usize, usize)>>(), &[(round, other)]);
                read[local].store(round + 1, Ordering::SeqCst);
            }
            read[local].store(0, Ordering::SeqCst);
        });
        assert_eq!(worlds, [Ok(vec![(); 2]), Ok(vec![(); 2])]);
        assert_eq!(
            ahead.load(Ordering::SeqCst),
            2 * (ROUNDS - 1),
            "each engine overlaps every round but its first"
        );
    }

    /// Nothing but the readers' own handles keeps a record: once the last
    /// of them is dropped the record is freed.
    #[test]
    fn a_record_is_freed_when_its_last_reader_drops_it() {
        let worlds = on_each_engine(3, |rv, local, poison| {
            let done = rv.arrive(
                local,
                "barrier",
                None,
                VTime::ZERO,
                0,
                Payload::default(),
                |v| v.max_entry(),
                poison,
            );
            let weak = Arc::downgrade(&done);
            assert!(weak.upgrade().is_some());
            weak
        });
        for weak in worlds.into_iter().flat_map(Result::unwrap) {
            assert!(weak.upgrade().is_none(), "a record outlived its readers");
        }
    }

    #[test]
    fn slots_transport_data() {
        let worlds = on_each_engine(2, |rv, local, poison| {
            let slot = Payload::from_vec(vec![local as i32 * 10]);
            let done = rv.arrive(
                local,
                "gather",
                None,
                VTime::ZERO,
                4,
                slot,
                |view| {
                    assert_eq!(view.total_bytes, 8);
                    VTime::from_nanos(1)
                },
                poison,
            );
            // Each rank reads the *other* rank's value.
            let other = 1 - local;
            let slots = done.slots.lock();
            slots[other].get::<Vec<i32>>()[0]
        });
        assert_eq!(worlds, [Ok(vec![10, 0]), Ok(vec![10, 0])]);
    }

    /// Whichever rank arrives second observes the mismatch and aborts with
    /// the diagnostic; the harness then poisons the world, so the first
    /// arriver, asleep in the rendezvous, is woken and unwinds too. Which
    /// of the two defines position 1 is the engine's choice: the last
    /// arriver of generation 0 runs on into generation 1, and that is
    /// rank 1 where equal clocks run ascending, rank 0 where descending.
    #[test]
    fn mismatched_ops_panic() {
        const OPS: [CollOp; 2] = [("barrier", None), ("bcast", Some(0))];
        let worlds = on_each_engine(2, |rv, local, poison| {
            let (op, root) = OPS[local];
            let max = |v: &RvView<'_>| v.max_entry();
            let none = Payload::default;
            rv.arrive(local, "barrier", None, VTime::ZERO, 0, none(), max, poison);
            rv.arrive(local, op, root, VTime::ZERO, 0, none(), max, poison);
        });
        for (failed, first) in worlds.into_iter().zip([1, 0]) {
            let Err(RunError::Diagnosed(diags)) = failed else {
                panic!("mismatch must be diagnosed, got {failed:?}");
            };
            let second = 1 - first;
            let expect =
                diag::collective_divergence(CommId::WORLD, second, 1, OPS[first], OPS[second]);
            assert_eq!(diags, [expect]);
        }
    }

    #[test]
    fn divergence_records_position_and_ops() {
        let d = diag::collective_divergence(CommId(3), 1, 0, ("barrier", None), ("bcast", Some(0)));
        assert_eq!((d.ranks.as_slice(), d.comm), (&[1][..], Some(CommId(3))));
        assert!(d.message.contains("rank 1 performed bcast(root=0)"), "{d}");
        match &d.kind {
            diag::DiagnosticKind::CollectiveDivergence {
                position,
                expected,
                observed,
            } => {
                assert_eq!(*position, 0);
                assert_eq!(expected, "barrier");
                assert_eq!(observed, "bcast(root=0)");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }
}
