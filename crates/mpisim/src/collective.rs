//! Generation-counted rendezvous: the synchronization core of collectives.
//!
//! Every communicator owns one [`Rendezvous`]. A collective proceeds in two
//! phases:
//!
//! 1. **Arrive.** Each participant deposits its virtual entry time, its
//!    declared payload bytes and an optional data slot. The *last* arriver
//!    computes the collective's exit time from all entries (typically
//!    `max(entry) + cost`) and publishes a [`Done`] record.
//! 2. **Read.** Every participant reads the exit time and whatever data
//!    slots the operation semantics give it; the last reader reclaims the
//!    record.
//!
//! Because collectives on one communicator are totally ordered per rank
//! (MPI semantics), arrivals always target the current accumulating
//! generation; earlier generations only linger in `done` until their last
//! reader leaves. The per-generation records let fast ranks start the next
//! collective while slow ranks still read the previous one.

use crate::mailbox::Poison;
use machine::VTime;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

/// Type-erased data slot deposited by one participant.
pub type Slot = Option<Box<dyn Any + Send>>;

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
    /// Common exit time for every participant.
    pub exit: VTime,
    /// Sum of the byte counts declared by all participants — what the
    /// exit-time computation priced (surfaces on `CollectiveExit` events).
    pub total_bytes: u64,
    /// The data slots, indexed by local rank. Readers may take or clone
    /// from them under the lock according to the operation's semantics.
    pub slots: Mutex<Vec<Slot>>,
    /// The generation's reduction over all slots, computed by the first
    /// reader that needs it and cloned by the rest (an allreduce folds p
    /// slots once, not once per rank).
    pub(crate) folded: Mutex<Slot>,
    remaining_readers: Mutex<usize>,
}

struct RvState {
    /// Generation currently accumulating arrivals.
    gen: u64,
    arrived: usize,
    entries: Vec<VTime>,
    slots: Vec<Slot>,
    total_bytes: u64,
    /// Operation label of the first arriver, for mismatch detection.
    op: Option<&'static str>,
    /// Completed generations awaiting readers.
    done: HashMap<u64, Arc<Done>>,
}

/// The rendezvous object of one communicator.
pub struct Rendezvous {
    p: usize,
    state: Mutex<RvState>,
    cv: Condvar,
    /// World ranks of the participants, indexed by local rank — who the
    /// DES scheduler must wake when the collective completes. `None` for
    /// standalone rendezvous (unit tests) that only run under threads.
    members: Option<Arc<Vec<usize>>>,
}

impl Rendezvous {
    /// A rendezvous for `p` participants.
    pub fn new(p: usize) -> Self {
        Rendezvous::with_members(p, None)
    }

    /// A rendezvous whose participants are the given world ranks (indexed
    /// by local rank). The registry always uses this form so the DES
    /// engine knows which fibers to revive.
    pub fn with_members(p: usize, members: Option<Arc<Vec<usize>>>) -> Self {
        debug_assert!(members.as_ref().is_none_or(|m| m.len() == p));
        Rendezvous {
            p,
            state: Mutex::new(RvState {
                gen: 0,
                arrived: 0,
                entries: vec![VTime::ZERO; p],
                slots: (0..p).map(|_| None).collect(),
                total_bytes: 0,
                op: None,
                done: HashMap::new(),
            }),
            cv: Condvar::new(),
            members,
        }
    }

    /// Under the DES engine, make every (other) participant runnable.
    #[cfg(target_arch = "x86_64")]
    fn des_wake_members(&self, scheduler: &crate::des::Scheduler) {
        if let Some(members) = &self.members {
            for &world_rank in members.iter() {
                scheduler.wake(world_rank);
            }
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.p
    }

    /// Execute one collective phase for local rank `local`.
    ///
    /// `op` is a static label used to detect mismatched collectives (one
    /// rank in a barrier while another is in a bcast), which panics as it
    /// would abort a real MPI program. `compute_exit` runs exactly once per
    /// generation, on the last arriving rank's thread.
    ///
    /// Returns the generation's [`Done`] record; the caller must finish by
    /// calling [`Rendezvous::finish_read`] exactly once.
    #[allow(clippy::too_many_arguments)]
    pub fn arrive<F>(
        &self,
        local: usize,
        op: &'static str,
        entry: VTime,
        bytes: u64,
        slot: Slot,
        compute_exit: F,
        poison: &Poison,
    ) -> (u64, Arc<Done>)
    where
        F: FnOnce(&RvView<'_>) -> VTime,
    {
        assert!(local < self.p, "mpisim: local rank {local} out of range");
        let mut st = self.state.lock();
        poison.check();
        match st.op {
            None => st.op = Some(op),
            Some(prev) => assert_eq!(
                prev, op,
                "mpisim: collective mismatch on communicator (ranks disagree: {prev} vs {op})"
            ),
        }
        let gen = st.gen;
        st.entries[local] = entry;
        assert!(
            st.slots[local].is_none() || slot.is_none(),
            "mpisim: duplicate arrival of local rank {local} in generation {gen}"
        );
        st.slots[local] = slot;
        st.total_bytes += bytes;
        st.arrived += 1;
        if st.arrived == self.p {
            // Last arriver: compute and publish, then open the next
            // generation for arrivals.
            let exit = {
                let view = RvView {
                    entries: &st.entries,
                    total_bytes: st.total_bytes,
                    gen,
                    p: self.p,
                };
                compute_exit(&view)
            };
            let slots = std::mem::replace(&mut st.slots, (0..self.p).map(|_| None).collect());
            let done = Arc::new(Done {
                exit,
                total_bytes: st.total_bytes,
                slots: Mutex::new(slots),
                folded: Mutex::new(None),
                remaining_readers: Mutex::new(self.p),
            });
            st.done.insert(gen, done.clone());
            st.gen += 1;
            st.arrived = 0;
            st.total_bytes = 0;
            st.op = None;
            st.entries.iter_mut().for_each(|e| *e = VTime::ZERO);
            #[cfg(target_arch = "x86_64")]
            if crate::des::with_active(|s| self.des_wake_members(s)).is_some() {
                return (gen, done);
            }
            self.cv.notify_all();
            (gen, done)
        } else {
            // Wait until this generation completes.
            loop {
                if let Some(done) = st.done.get(&gen) {
                    return (gen, done.clone());
                }
                poison.check();
                #[cfg(target_arch = "x86_64")]
                if crate::des::is_active() {
                    // Suspend this fiber; the last arriver (or the poison
                    // path) re-queues it. Release the state lock first —
                    // peers run on this same scheduler thread.
                    drop(st);
                    crate::des::with_active(|s| s.block_current());
                    st = self.state.lock();
                    continue;
                }
                self.cv.wait(&mut st);
            }
        }
    }

    /// Declare that the caller finished reading generation `gen`'s record.
    /// The last reader reclaims the record's storage.
    pub fn finish_read(&self, gen: u64, done: &Arc<Done>) {
        let last = {
            let mut remaining = done.remaining_readers.lock();
            debug_assert!(*remaining > 0, "finish_read called too many times");
            *remaining -= 1;
            *remaining == 0
        };
        if last {
            self.state.lock().done.remove(&gen);
        }
    }

    /// Wake all blocked participants (world poisoning).
    pub fn wake_all(&self) {
        #[cfg(target_arch = "x86_64")]
        if crate::des::with_active(|s| self.des_wake_members(s)).is_some() {
            return;
        }
        let _guard = self.state.lock();
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    fn run_barrier(p: usize, entries: Vec<u64>) -> Vec<VTime> {
        let rv = Arc::new(Rendezvous::new(p));
        let poison = Arc::new(Poison::default());
        let computed = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            let mut handles = Vec::new();
            for (local, entry) in entries.iter().copied().enumerate() {
                let rv = rv.clone();
                let poison = poison.clone();
                let computed = computed.clone();
                handles.push(s.spawn(move || {
                    let (gen, done) = rv.arrive(
                        local,
                        "barrier",
                        VTime::from_nanos(entry),
                        0,
                        None,
                        |view| {
                            computed.fetch_add(1, Ordering::SeqCst);
                            view.max_entry() + VTime::from_nanos(10)
                        },
                        &poison,
                    );
                    let exit = done.exit;
                    rv.finish_read(gen, &done);
                    exit
                }));
            }
            let times: Vec<VTime> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(computed.load(Ordering::SeqCst), 1, "exit computed once");
            times
        })
    }

    #[test]
    fn all_exit_at_max_plus_cost() {
        let times = run_barrier(4, vec![5, 80, 20, 3]);
        for t in &times {
            assert_eq!(*t, VTime::from_nanos(90));
        }
    }

    #[test]
    fn single_participant() {
        let times = run_barrier(1, vec![42]);
        assert_eq!(times, vec![VTime::from_nanos(52)]);
    }

    #[test]
    fn generations_progress() {
        let p = 3;
        let rv = Arc::new(Rendezvous::new(p));
        let poison = Arc::new(Poison::default());
        thread::scope(|s| {
            for local in 0..p {
                let rv = rv.clone();
                let poison = poison.clone();
                s.spawn(move || {
                    for round in 0..50u64 {
                        let (gen, done) = rv.arrive(
                            local,
                            "barrier",
                            VTime::from_nanos(round),
                            0,
                            None,
                            |view| view.max_entry() + VTime::from_nanos(1),
                            &poison,
                        );
                        assert_eq!(gen, round, "generations advance in lockstep");
                        assert_eq!(done.exit, VTime::from_nanos(round + 1));
                        rv.finish_read(gen, &done);
                    }
                });
            }
        });
        // All records reclaimed.
        assert!(rv.state.lock().done.is_empty());
    }

    #[test]
    fn slots_transport_data() {
        let p = 2;
        let rv = Arc::new(Rendezvous::new(p));
        let poison = Arc::new(Poison::default());
        let results: Vec<i32> = thread::scope(|s| {
            let handles: Vec<_> = (0..p)
                .map(|local| {
                    let rv = rv.clone();
                    let poison = poison.clone();
                    s.spawn(move || {
                        let slot: Slot = Some(Box::new(vec![local as i32 * 10]));
                        let (gen, done) = rv.arrive(
                            local,
                            "gather",
                            VTime::ZERO,
                            4,
                            slot,
                            |view| {
                                assert_eq!(view.total_bytes, 8);
                                VTime::from_nanos(1)
                            },
                            &poison,
                        );
                        // Each rank reads the *other* rank's value.
                        let other = 1 - local;
                        let value = {
                            let slots = done.slots.lock();
                            let any = slots[other].as_ref().unwrap();
                            any.downcast_ref::<Vec<i32>>().unwrap()[0]
                        };
                        rv.finish_read(gen, &done);
                        value
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results, vec![10, 0]);
    }

    #[test]
    fn mismatched_ops_panic() {
        // Whichever rank arrives second observes the mismatch and panics;
        // it then poisons the rendezvous so the blocked first arriver
        // unwinds too (this is exactly what the world harness does).
        let rv = Arc::new(Rendezvous::new(2));
        let poison = Arc::new(Poison::default());
        let mut handles = Vec::new();
        for (local, op) in [(0usize, "barrier"), (1usize, "bcast")] {
            let rv = rv.clone();
            let poison = poison.clone();
            handles.push(thread::spawn(move || {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let (gen, done) =
                        rv.arrive(local, op, VTime::ZERO, 0, None, |v| v.max_entry(), &poison);
                    rv.finish_read(gen, &done);
                }));
                if r.is_err() {
                    poison.set();
                    rv.wake_all();
                }
                r.is_err()
            }));
        }
        let errs: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(errs.iter().any(|&e| e), "mismatch must be detected");
    }
}
