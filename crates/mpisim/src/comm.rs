//! Communicators and communication operations.
//!
//! [`Comm`] is a per-rank handle onto a shared communicator object. The
//! world communicator exists from launch; applications derive others with
//! [`Comm::dup`] and [`Comm::split`], exactly as in MPI.
//!
//! Timing semantics:
//!
//! * **Point-to-point** is eager/buffered: a send deposits the message with
//!   the sender's departure timestamp and returns after charging the CPU
//!   overhead `o`. The receiver's completion time is
//!   `max(now, send_end + latency + bytes/bandwidth + jitter) + o` — the
//!   timestamp piggyback scheme of DESIGN.md (D1). Waiting, imbalance and
//!   jitter therefore propagate causally from rank to rank.
//! * **Collectives** synchronize: every participant leaves at
//!   `max(entry times) + model cost (+ jitter)`, computed once per
//!   operation by the rendezvous machinery.
//!
//! Each price is a [`machine::MachineModel`] method (`send_overhead`,
//! `recv_done`, `collective_exit`), and the jitter streams are
//! `machine::noise`'s: the what-if replay calls the same methods on the
//! same streams, so a replay and a run on the altered machine agree.
//!
//! Each operation that moves data has one body over [`Payload`]s, real or
//! virtual: `send_payload`, `sendrecv_payload`, `bcast_payload`,
//! `scatterv_payload` and `gatherv_payload`. The typed forms and the
//! timing-mode `send_virtual` / `sendrecv_virtual` are adapters onto them,
//! so both fidelities share every event, byte count and price.

use crate::collective::{Done, Rendezvous};
use crate::event::{CommId, EventKind, MpiEvent};
use crate::message::{Envelope, Payload, Src, TagSel};
use crate::proc::Proc;
use machine::{DetRng, Topology};
use std::marker::PhantomData;
use std::sync::Arc;

/// Shared (cross-rank) state of one communicator.
pub struct CommShared {
    pub(crate) id: CommId,
    /// Mapping local rank -> world rank.
    pub(crate) world_ranks: Arc<Vec<usize>>,
    pub(crate) rendezvous: Rendezvous,
    pub(crate) spans_nodes: bool,
}

impl CommShared {
    /// Communicator `id` over the given world ranks (local rank i maps to
    /// `world_ranks[i]`), placed onto nodes by `topology`.
    pub(crate) fn new(id: CommId, world_ranks: Vec<usize>, topology: &Topology) -> Arc<CommShared> {
        let spans_nodes = topology.spans_nodes(&world_ranks);
        let world_ranks = Arc::new(world_ranks);
        Arc::new(CommShared {
            id,
            rendezvous: Rendezvous::new(id, world_ranks.clone()),
            world_ranks,
            spans_nodes,
        })
    }
}

/// A received message.
#[derive(Debug)]
pub struct Recvd<T> {
    /// The data (empty when the message was virtual — timing mode).
    pub data: Vec<T>,
    /// Logical element count, valid in both fidelity modes.
    pub elems: usize,
    /// Logical byte size.
    pub logical_bytes: u64,
    /// Sender's local rank in the communicator.
    pub src: usize,
    /// Message tag.
    pub tag: i32,
}

/// Handle for a posted non-blocking send.
#[derive(Debug)]
#[must_use = "a request must be waited on"]
pub struct SendReq;

impl SendReq {
    /// Complete the send. A buffered send completed when it was posted, so
    /// this costs nothing and raises no event.
    pub fn wait(self, _p: &mut Proc) {}
}

/// Handle for a posted non-blocking receive.
///
/// Matching and timing happen at [`RecvReq::wait`]; posting early costs
/// nothing and gains nothing (the eager model delivers the message at the
/// same virtual time either way). This mirrors an eager-protocol MPI where
/// the payload lands in a bounce buffer regardless of the posted receive.
#[derive(Debug)]
#[must_use = "a request must be waited on"]
pub struct RecvReq<T> {
    comm: Comm,
    src: Src,
    tag: TagSel,
    _marker: PhantomData<fn() -> T>,
}

impl<T: 'static> RecvReq<T> {
    /// Block until the matching message is consumed; returns it.
    pub fn wait(self, p: &mut Proc) -> Recvd<T> {
        self.comm.recv(p, self.src, self.tag)
    }
}

/// Complete a batch of receive requests (`MPI_Waitall`), returning the
/// messages in request order. The rank's clock ends at the completion of
/// the last-arriving message, as with a real waitall.
pub fn waitall<T: 'static>(p: &mut Proc, reqs: Vec<RecvReq<T>>) -> Vec<Recvd<T>> {
    reqs.into_iter().map(|r| r.wait(p)).collect()
}

/// Per-rank communicator handle.
#[derive(Clone)]
pub struct Comm {
    shared: Arc<CommShared>,
    local_rank: usize,
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("id", &self.shared.id)
            .field("size", &self.size())
            .field("local_rank", &self.local_rank)
            .finish()
    }
}

impl Comm {
    pub(crate) fn from_shared(shared: Arc<CommShared>, world_rank: usize) -> Comm {
        // The world communicator, and any other whose ranks are the
        // identity, answers in O(1): `Proc::world()` runs on every rank, so
        // a scan there is O(p²) over a launch.
        let local_rank = if shared.world_ranks.get(world_rank) == Some(&world_rank) {
            world_rank
        } else {
            shared
                .world_ranks
                .iter()
                .position(|&w| w == world_rank)
                .expect("mpisim: rank is not a member of this communicator")
        };
        Comm { shared, local_rank }
    }

    /// This rank's index within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.local_rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.shared.world_ranks.len()
    }

    /// The communicator's id (stable for the lifetime of the world).
    #[inline]
    pub fn id(&self) -> CommId {
        self.shared.id
    }

    /// World rank of a local rank.
    #[inline]
    pub fn world_rank_of(&self, local: usize) -> usize {
        self.shared.world_ranks[local]
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Blocking send of a payload, real or virtual.
    pub fn send_payload(&self, p: &mut Proc, dest: usize, tag: i32, payload: Payload) {
        assert!(
            dest < self.size(),
            "mpisim: send to invalid rank {dest} (comm size {})",
            self.size()
        );
        let dest_world = self.world_rank_of(dest);
        p.now += p.machine.send_overhead(p.world_rank, dest_world);
        let bytes = payload.logical_bytes();
        let envelope = Envelope {
            comm: self.id(),
            src_local: self.local_rank,
            src_world: p.world_rank,
            tag,
            send_end: p.now,
            seq: p.next_seq(),
            payload,
        };
        // Raised before the deposit becomes visible: no tool sees a
        // message matched before it saw it sent.
        if p.wants(EventKind::SendEnqueued) {
            p.raise(MpiEvent::SendEnqueued {
                comm: self.id(),
                dst_world: dest_world,
                tag,
                seq: envelope.seq,
                bytes,
                time: p.now,
            });
        }
        crate::des::with_active(|s| s.deposit(dest_world, envelope));
    }

    /// Blocking receive.
    pub fn recv<T: 'static>(&self, p: &mut Proc, src: Src, tag: TagSel) -> Recvd<T> {
        if let Src::Rank(r) = src {
            assert!(
                r < self.size(),
                "mpisim: receive from invalid rank {r} (comm size {})",
                self.size()
            );
        }
        // Candidate observation is only paid for when a tool subscribed
        // to RecvMatched, and then only by a wildcard receive (it is what
        // a race analyzer joins on).
        let observing = p.wants(EventKind::RecvMatched);
        let (envelope, candidates) = crate::des::with_active(|s| {
            s.recv_match(
                p.world_rank,
                p.now,
                &self.shared,
                src,
                tag,
                observing,
                &p.mailboxes.poison,
                p.mailboxes.controller(),
            )
        });
        let logical_bytes = envelope.payload.logical_bytes();
        let posted = p.now;
        p.now = p.machine.recv_done(
            envelope.src_world,
            p.world_rank,
            logical_bytes,
            envelope.send_end,
            p.now,
            &mut p.net_rng,
        );
        // Raised once priced: the clock stood still while the rank waited,
        // so the post is also the match, and nothing advances it again
        // before the enclosing call returns.
        if observing {
            p.raise(MpiEvent::RecvMatched {
                comm: self.id(),
                src_world: envelope.src_world,
                tag: envelope.tag,
                seq: envelope.seq,
                bytes: logical_bytes,
                sent: envelope.send_end,
                candidates,
                done: p.now,
                time: posted,
            });
        }
        let elems = envelope.payload.elems();
        Recvd {
            data: envelope.payload.into_vec::<T>(),
            elems,
            logical_bytes,
            src: envelope.src_local,
            tag: envelope.tag,
        }
    }

    /// Blocking standard-mode send of a slice (cloned into the message).
    #[inline(always)]
    pub fn send<T: Clone + Send + 'static>(&self, p: &mut Proc, dest: usize, tag: i32, data: &[T]) {
        self.send_payload(p, dest, tag, Payload::real(data));
    }

    /// Timing-mode send: prices `elems` elements of `T` without moving data.
    #[inline(always)]
    pub fn send_virtual<T>(&self, p: &mut Proc, dest: usize, tag: i32, elems: usize) {
        self.send_payload(p, dest, tag, Payload::virtual_elems::<T>(elems));
    }

    /// Combined send+receive (deadlock-free under the eager model).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn sendrecv<T: Clone + Send + 'static>(
        &self,
        p: &mut Proc,
        dest: usize,
        send_tag: i32,
        data: &[T],
        src: Src,
        recv_tag: TagSel,
    ) -> Recvd<T> {
        self.sendrecv_payload(p, dest, send_tag, Payload::real(data), src, recv_tag)
    }

    /// Timing-mode sendrecv: sends `elems` declared elements of `T`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn sendrecv_virtual<T: 'static>(
        &self,
        p: &mut Proc,
        dest: usize,
        send_tag: i32,
        elems: usize,
        src: Src,
        recv_tag: TagSel,
    ) -> Recvd<T> {
        let payload = Payload::virtual_elems::<T>(elems);
        self.sendrecv_payload(p, dest, send_tag, payload, src, recv_tag)
    }

    /// Send a payload, real or virtual, and receive a message whose data
    /// (if it carries any) is a `Vec<T>`.
    // Forced inline into the caller, like `sync`: a rank suspends under it.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn sendrecv_payload<T: 'static>(
        &self,
        p: &mut Proc,
        dest: usize,
        send_tag: i32,
        payload: Payload,
        src: Src,
        recv_tag: TagSel,
    ) -> Recvd<T> {
        self.send_payload(p, dest, send_tag, payload);
        self.recv(p, src, recv_tag)
    }

    /// Non-blocking (buffered) send: the send, and a handle to complete.
    pub fn isend<T: Clone + Send + 'static>(
        &self,
        p: &mut Proc,
        dest: usize,
        tag: i32,
        data: &[T],
    ) -> SendReq {
        self.send(p, dest, tag, data);
        SendReq
    }

    /// Non-blocking receive; matching happens at [`RecvReq::wait`].
    pub fn irecv<T: 'static>(&self, _p: &mut Proc, src: Src, tag: TagSel) -> RecvReq<T> {
        RecvReq {
            comm: self.clone(),
            src,
            tag,
            _marker: PhantomData,
        }
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    /// Synchronize at the rendezvous, depositing `slot`; returns the
    /// generation record with the rank's clock already advanced to the
    /// common exit time, which `op` prices
    /// (`machine::CollectiveCost::base_secs`) over every member's
    /// `my_bytes`. `root` is the root's local rank for rooted collectives:
    /// the members must agree on it as on `op` (the rendezvous checks),
    /// timing does not depend on it.
    // Forced inline: every rank suspends under this frame, and as a frame
    // of its own it took peak RSS at p = 16384 (conv, 25 steps) from 98.6
    // to 113.5 MB, fiber stack pages touched deeper. The payload bodies a
    // workload calls are forced into their callers for the same reason: as
    // frames of their own, each holding a 32-byte `Payload` in flight, they
    // took conv's deepest stack use at p = 16384 from 4072 to 4104 bytes,
    // past a rank's first page; inlined, it is 3992.
    #[inline(always)]
    fn sync(
        &self,
        p: &mut Proc,
        op: &'static str,
        root: Option<usize>,
        my_bytes: u64,
        slot: Payload,
    ) -> Arc<Done> {
        let spans = self.shared.spans_nodes;
        let seed = p.seed;
        let cid = self.shared.id;
        // Raised before `arrive`: a tool sees the rank enter the collective
        // before the rendezvous can park it. The generation read here is
        // the one `arrive` joins: the rank's previous one on this
        // communicator has completed, and it does not yield in between.
        if p.wants(EventKind::CollectiveEnter) {
            p.raise(MpiEvent::CollectiveEnter {
                op,
                comm: cid,
                round: self.shared.rendezvous.generation(),
                size: self.size(),
                time: p.now,
            });
        }
        crate::des::with_active(|s| s.note_clock(p.world_rank, p.now));
        let machine = &p.machine;
        let done = self.shared.rendezvous.arrive(
            self.local_rank,
            op,
            root,
            p.now,
            my_bytes,
            slot,
            |view| {
                let mut rng = DetRng::for_collective(seed, cid.0, view.gen);
                let last_in = view.max_entry();
                machine.collective_exit(op, view.p, spans, view.total_bytes, last_in, &mut rng)
            },
            &p.mailboxes.poison,
        );
        p.now = done.exit;
        if p.wants(EventKind::CollectiveExit) {
            p.raise(MpiEvent::CollectiveExit {
                op,
                comm: cid,
                round: done.gen,
                bytes: done.total_bytes,
                time: p.now,
            });
        }
        done
    }

    /// Barrier over the communicator.
    pub fn barrier(&self, p: &mut Proc) {
        self.sync(p, "barrier", None, 0, Payload::default());
    }

    /// Broadcast from `root`. The root passes `Some(data)`, everyone else
    /// `None`; all ranks (including the root) receive the broadcast vector.
    #[inline(always)]
    pub fn bcast<T: Clone + Send + 'static>(
        &self,
        p: &mut Proc,
        root: usize,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        self.bcast_payload::<T>(p, root, data.map(Payload::from_vec))
            .into_vec()
    }

    /// Broadcast of the root's payload, real (a `Vec<T>`) or virtual: the
    /// root passes `Some`, everyone else `None`, and every rank, the root
    /// included, receives a copy.
    pub fn bcast_payload<T: Clone + Send + 'static>(
        &self,
        p: &mut Proc,
        root: usize,
        payload: Option<Payload>,
    ) -> Payload {
        assert!(root < self.size(), "mpisim: bcast root out of range");
        assert_eq!(
            self.local_rank == root,
            payload.is_some(),
            "mpisim: bcast data must be Some exactly on the root"
        );
        let slot = payload.unwrap_or_default();
        let my_bytes = slot.logical_bytes();
        let done = self.sync(p, "bcast", Some(root), my_bytes, slot);
        // Bound, not returned: the lock guard must drop before `done`.
        let out = done.slots.lock()[root].cloned::<T>();
        out
    }

    /// Variable scatter of payloads, real or virtual: the root passes one
    /// per rank; every rank receives its own (moved, not cloned).
    // Forced inline into the caller, like `sync`: a rank suspends under it.
    #[inline(always)]
    pub fn scatterv_payload(
        &self,
        p: &mut Proc,
        root: usize,
        parts: Option<Vec<Payload>>,
    ) -> Payload {
        assert!(root < self.size(), "mpisim: scatterv root out of range");
        assert_eq!(
            self.local_rank == root,
            parts.is_some(),
            "mpisim: scatterv chunks must be Some exactly on the root"
        );
        let (my_bytes, slot) = match parts {
            Some(parts) => {
                assert_eq!(
                    parts.len(),
                    self.size(),
                    "mpisim: scatterv needs one chunk per rank"
                );
                let total = parts.iter().map(Payload::logical_bytes).sum();
                (total, Payload::from_vec(parts))
            }
            None => (0, Payload::default()),
        };
        let done = self.sync(p, "scatterv", Some(root), my_bytes, slot);
        // Bound, not returned: the lock guard must drop before `done`.
        let mine =
            std::mem::take(&mut done.slots.lock()[root].get_mut::<Vec<Payload>>()[self.local_rank]);
        mine
    }

    /// Equal-chunk scatter: the root's buffer length must be divisible by
    /// the communicator size.
    pub fn scatter<T: Send + 'static>(
        &self,
        p: &mut Proc,
        root: usize,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        let parts = data.map(|v| {
            let p_count = self.size();
            assert!(
                v.len() % p_count == 0,
                "mpisim: scatter length {} not divisible by {p_count}",
                v.len()
            );
            let chunk = v.len() / p_count;
            let mut v = v;
            let mut out = Vec::with_capacity(p_count);
            for _ in 0..p_count {
                let rest = v.split_off(chunk);
                out.push(Payload::from_vec(v));
                v = rest;
            }
            out
        });
        self.scatterv_payload(p, root, parts).into_vec()
    }

    /// Variable gather: every rank contributes a vector; the root receives
    /// all of them indexed by local rank (others receive an empty vec).
    #[inline(always)]
    pub fn gatherv<T: Send + 'static>(
        &self,
        p: &mut Proc,
        root: usize,
        data: Vec<T>,
    ) -> Vec<Vec<T>> {
        let all = self.gatherv_payload(p, root, Payload::from_vec(data));
        all.into_iter().map(Payload::into_vec).collect()
    }

    /// Variable gather of payloads, real or virtual: every rank contributes
    /// one; the root receives all of them indexed by local rank (others
    /// receive an empty vec).
    // Forced inline into the caller, like `sync`: a rank suspends under it.
    #[inline(always)]
    pub fn gatherv_payload(&self, p: &mut Proc, root: usize, payload: Payload) -> Vec<Payload> {
        assert!(root < self.size(), "mpisim: gatherv root out of range");
        let my_bytes = payload.logical_bytes();
        let done = self.sync(p, "gatherv", Some(root), my_bytes, payload);
        // The root alone reads the slots: it takes them whole.
        if self.local_rank == root {
            std::mem::take(&mut *done.slots.lock())
        } else {
            Vec::new()
        }
    }

    /// Gather with flattening: the root receives all contributions
    /// concatenated in rank order.
    pub fn gather<T: Send + 'static>(&self, p: &mut Proc, root: usize, data: Vec<T>) -> Vec<T> {
        self.gatherv(p, root, data).into_iter().flatten().collect()
    }

    /// Allgather: every rank receives every rank's contribution, indexed by
    /// local rank.
    pub fn allgather<T: Clone + Send + 'static>(&self, p: &mut Proc, data: Vec<T>) -> Vec<Vec<T>> {
        let my_bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        let done = self.sync(p, "allgather", None, my_bytes, Payload::from_vec(data));
        let slots = done.slots.lock();
        slots.iter().map(|s| s.get::<Vec<T>>().clone()).collect()
    }

    /// Element-wise reduction to the root. All ranks must contribute
    /// vectors of equal length and the same associative `op`.
    pub fn reduce<T, F>(&self, p: &mut Proc, root: usize, data: Vec<T>, op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        assert!(root < self.size(), "mpisim: reduce root out of range");
        let my_bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        let psize = self.size();
        let done = self.sync(p, "reduce", Some(root), my_bytes, Payload::from_vec(data));
        if self.local_rank == root {
            Self::fold_slots::<T, Vec<T>, F>(&done, psize, &op)
        } else {
            Vec::new()
        }
    }

    /// Element-wise all-reduce: all ranks receive the reduction.
    pub fn allreduce<T, F>(&self, p: &mut Proc, data: Vec<T>, op: F) -> Vec<T>
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        self.allreduce_as(p, data, op, <[T]>::to_vec)
    }

    /// [`Comm::allreduce`] over any owned slice `C`, with `read` taking
    /// what the caller wants from the shared fold. The scalar forms
    /// deposit a `[f64; 1]` and copy one number out: one heap object per
    /// rank and call (the slot's box) where a `Vec` in and a `Vec` out
    /// make three. Like `op`, `C` must be the same on every rank of the
    /// call: the fold reads every slot as the `C` of its first reader.
    fn allreduce_as<T, C, F, R>(
        &self,
        p: &mut Proc,
        data: C,
        op: F,
        read: impl FnOnce(&[T]) -> R,
    ) -> R
    where
        T: Clone + Send + 'static,
        C: AsRef<[T]> + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let slot = Payload::owning(data);
        let my_bytes = slot.logical_bytes();
        let psize = self.size();
        let done = self.sync(p, "allreduce", None, my_bytes, slot);
        Self::with_fold::<T, C, F, R>(&done, psize, &op, read)
    }

    /// Read the reduction every rank of the generation shares: the first
    /// reader folds the slots (each a `C`, in rank order, like
    /// [`Comm::reduce`]'s root) and leaves the result in the record for
    /// the others.
    fn with_fold<T, C, F, R>(done: &Done, psize: usize, op: &F, read: impl FnOnce(&[T]) -> R) -> R
    where
        T: Clone + Send + 'static,
        C: AsRef<[T]> + 'static,
        F: Fn(&T, &T) -> T,
    {
        let mut folded = done.folded.lock();
        let all = folded
            .get_or_insert_with(|| Payload::from_vec(Self::fold_slots::<T, C, F>(done, psize, op)));
        read(all.get::<Vec<T>>())
    }

    fn fold_slots<T, C, F>(done: &Done, psize: usize, op: &F) -> Vec<T>
    where
        T: Clone + 'static,
        C: AsRef<[T]> + 'static,
        F: Fn(&T, &T) -> T,
    {
        let slots = done.slots.lock();
        let mut acc = slots[0].get::<C>().as_ref().to_vec();
        for slot in slots.iter().take(psize).skip(1) {
            let v = slot.get::<C>().as_ref();
            assert_eq!(
                v.len(),
                acc.len(),
                "mpisim: reduce contributions have different lengths"
            );
            for (a, b) in acc.iter_mut().zip(v.iter()) {
                *a = op(a, b);
            }
        }
        acc
    }

    /// Scalar f64 allreduce with the minimum operator (the LULESH `dtmin`).
    pub fn allreduce_min_f64(&self, p: &mut Proc, x: f64) -> f64 {
        self.allreduce_as(p, [x], |a, b| a.min(*b), |all| all[0])
    }

    /// Scalar f64 allreduce with the sum operator.
    pub fn allreduce_sum_f64(&self, p: &mut Proc, x: f64) -> f64 {
        self.allreduce_as(p, [x], |a, b| a + b, |all| all[0])
    }

    // ------------------------------------------------------------------
    // Communicator construction
    // ------------------------------------------------------------------

    /// Split the communicator by color. Ranks passing `None` end up in no
    /// new communicator (MPI_UNDEFINED). Within one color, new ranks are
    /// ordered by `(key, old rank)`.
    pub fn split(&self, p: &mut Proc, color: Option<i32>, key: i32) -> Option<Comm> {
        // Phase 1: exchange (color, key) pairs; costed as a barrier.
        let done = self.sync(
            p,
            "split.exchange",
            None,
            0,
            Payload::owning([(color, key)]),
        );
        let xgen = done.gen;
        let pairs: Vec<(Option<i32>, i32)> = {
            let slots = done.slots.lock();
            slots
                .iter()
                .map(|s| s.get::<[(Option<i32>, i32); 1]>()[0])
                .collect()
        };

        // Grouping (deterministic on every rank): colors in ascending
        // order; members ordered by (key, old local rank).
        let mut colors: Vec<i32> = pairs.iter().filter_map(|(c, _)| *c).collect();
        colors.sort_unstable();
        colors.dedup();
        let groups: Vec<(i32, Vec<usize>)> = colors
            .iter()
            .map(|&c| {
                let mut members: Vec<(i32, usize)> = pairs
                    .iter()
                    .enumerate()
                    .filter_map(|(local, (col, k))| (*col == Some(c)).then_some((*k, local)))
                    .collect();
                members.sort_unstable();
                (c, members.into_iter().map(|(_, local)| local).collect())
            })
            .collect();

        // Phase 2: old local rank 0 creates the shared objects and
        // publishes them; every member picks up its group's comm. The
        // child ids are *derived* from (parent id, split sequence, color)
        // rather than drawn from a global counter: disjoint communicators
        // may split concurrently, and a counter would hand out ids in
        // real-time order, breaking run-to-run determinism of everything
        // keyed by comm id (collective jitter streams). The top bit marks
        // derived ids so they never collide with the world's.
        let slot = if self.local_rank == 0 {
            let created: Vec<(i32, Arc<CommShared>)> = groups
                .iter()
                .map(|(c, members)| {
                    let world_ranks: Vec<usize> =
                        members.iter().map(|&l| self.world_rank_of(l)).collect();
                    let derived = machine::noise::mix64(
                        machine::noise::mix64(self.shared.id.0 ^ (xgen << 24))
                            ^ (*c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    ) | (1 << 63);
                    let topology = &p.machine.topology;
                    (*c, CommShared::new(CommId(derived), world_ranks, topology))
                })
                .collect();
            Payload::from_vec(created)
        } else {
            Payload::default()
        };
        let done = self.sync(p, "split.create", None, 0, slot);
        color.and_then(|my_color| {
            let slots = done.slots.lock();
            let created = slots[0].get::<Vec<(i32, Arc<CommShared>)>>();
            created.iter().find_map(|(c, shared)| {
                (*c == my_color).then(|| Comm::from_shared(shared.clone(), p.world_rank))
            })
        })
    }

    /// Duplicate the communicator (same group, fresh id).
    pub fn dup(&self, p: &mut Proc) -> Comm {
        self.split(p, Some(0), self.local_rank as i32)
            .expect("mpisim: dup split cannot fail")
    }
}
