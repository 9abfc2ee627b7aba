//! Message payloads and envelopes.
//!
//! A [`Payload`] carries *logical* size separately from actual data, so the
//! same runtime serves two fidelity levels (see DESIGN.md):
//!
//! * **Full** — the payload holds real data; timing uses its byte size.
//! * **Timing** — the payload is empty but declares the logical element
//!   count; the network model prices the declared size. This is what lets a
//!   456-rank convolution over a 505 MB image run in megabytes of RAM.
//!
//! It is the one carrier of fidelity: a point-to-point message, a rank's
//! contribution to a collective and what a collective hands back are all
//! payloads, so each operation has one body whatever the fidelity, and
//! whether data exists is decided once, where the payload is built
//! ([`Payload::maybe`]).

use crate::event::CommId;
use machine::VTime;
use std::any::Any;

/// Message selector for the source rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Match a specific local rank of the communicator.
    Rank(usize),
    /// Match any source (`MPI_ANY_SOURCE`). Matching order among already
    /// arrived messages follows arrival order, which — as in real MPI — is
    /// not deterministic across runs; prefer `Rank` in deterministic tests.
    Any,
}

/// Message selector for the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match a specific tag.
    Is(i32),
    /// Match any tag (`MPI_ANY_TAG`).
    Any,
}

/// A type-erased payload with explicit logical size. The default is the
/// empty virtual payload: what a rank contributes to a barrier, or a
/// non-root to a broadcast.
#[derive(Default)]
pub struct Payload {
    /// The data, when running at full fidelity. `None` in timing mode.
    data: Option<Box<dyn Any + Send>>,
    /// Logical element count (drives `elems` on the receive side).
    elems: usize,
    /// Logical byte size (drives the network model).
    logical_bytes: u64,
}

impl Payload {
    /// A real payload cloned from a slice.
    pub fn real<T: Clone + Send + 'static>(data: &[T]) -> Payload {
        Payload::from_vec(data.to_vec())
    }

    /// A real payload taking ownership of a vector (no copy).
    pub fn from_vec<T: Send + 'static>(data: Vec<T>) -> Payload {
        Payload::owning(data)
    }

    /// A virtual payload of `elems` elements of type `T` (timing mode).
    pub fn virtual_elems<T>(elems: usize) -> Payload {
        Payload {
            data: None,
            elems,
            logical_bytes: (elems * std::mem::size_of::<T>()) as u64,
        }
    }

    /// `data` where it exists, else `elems` declared elements of `T`: the
    /// one place a caller's fidelity becomes a payload. Real data must be
    /// `elems` long, so both fidelities price the same message.
    pub fn maybe<T: Send + 'static>(data: Option<Vec<T>>, elems: usize) -> Payload {
        match data {
            Some(data) => {
                debug_assert_eq!(data.len(), elems, "mpisim: real and declared sizes differ");
                Payload::from_vec(data)
            }
            None => Payload::virtual_elems::<T>(elems),
        }
    }

    /// A real payload holding any owner of a slice (a `Vec`, an array)
    /// whole, in one box; read it back with [`Payload::get`] as that `C`.
    pub(crate) fn owning<T, C: AsRef<[T]> + Send + 'static>(data: C) -> Payload {
        let slice = data.as_ref();
        Payload {
            elems: slice.len(),
            logical_bytes: std::mem::size_of_val(slice) as u64,
            data: Some(Box::new(data)),
        }
    }

    /// Logical byte size.
    #[inline]
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Logical element count.
    #[inline]
    pub fn elems(&self) -> usize {
        self.elems
    }

    /// True when the payload carries no real data.
    #[inline]
    pub fn is_virtual(&self) -> bool {
        self.data.is_none()
    }

    /// The data as `Vec<T>`, `None` for a virtual payload. Panics on a
    /// datatype mismatch, mirroring MPI's fatal type errors.
    pub fn into_data<T: 'static>(self) -> Option<Vec<T>> {
        self.data
            .map(|data| *data.downcast().unwrap_or_else(|_| mismatch::<Vec<T>>()))
    }

    /// The data as `Vec<T>`; empty for a virtual payload.
    pub fn into_vec<T: 'static>(self) -> Vec<T> {
        self.into_data().unwrap_or_default()
    }

    /// The data as the `D` it was built from. Panics on a virtual payload
    /// and on a datatype mismatch.
    pub(crate) fn get<D: 'static>(&self) -> &D {
        let data = self
            .data
            .as_ref()
            .expect("mpisim: a virtual payload holds no data");
        data.downcast_ref().unwrap_or_else(|| mismatch::<D>())
    }

    /// [`Payload::get`], mutably.
    pub(crate) fn get_mut<D: 'static>(&mut self) -> &mut D {
        let data = self
            .data
            .as_mut()
            .expect("mpisim: a virtual payload holds no data");
        data.downcast_mut().unwrap_or_else(|| mismatch::<D>())
    }

    /// A copy: the `Vec<T>` cloned, or the same declared size.
    pub(crate) fn cloned<T: Clone + Send + 'static>(&self) -> Payload {
        match self.data {
            Some(_) => Payload::real(self.get::<Vec<T>>()),
            None => Payload {
                data: None,
                elems: self.elems,
                logical_bytes: self.logical_bytes,
            },
        }
    }
}

#[cold]
#[inline(never)]
fn mismatch<D>() -> ! {
    panic!(
        "mpisim: datatype mismatch (expected {})",
        std::any::type_name::<D>()
    )
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Payload")
            .field("elems", &self.elems)
            .field("logical_bytes", &self.logical_bytes)
            .field("virtual", &self.is_virtual())
            .finish()
    }
}

/// Bit position of the sender's world rank inside a message `seq`; the
/// bits below it count that sender's sends.
const SEQ_RANK_SHIFT: u32 = 40;

/// The `seq` of the `n`-th message (from 0) sent by `sender_world_rank`:
/// the rank over the per-sender counter, so globally unique and
/// independent of how ranks interleave. Panics when a part does not fit
/// its field, where it would alias another sender's messages.
#[inline]
pub fn seq_of(sender_world_rank: usize, n: u64) -> u64 {
    assert!(
        n >> SEQ_RANK_SHIFT == 0 && (sender_world_rank as u64) >> (64 - SEQ_RANK_SHIFT) == 0,
        "mpisim: message {n} of rank {sender_world_rank} does not fit the seq layout"
    );
    ((sender_world_rank as u64) << SEQ_RANK_SHIFT) | n
}

/// The inverse of [`seq_of`]: `(sender_world_rank, n)`.
#[inline]
pub fn seq_parts(seq: u64) -> (usize, u64) {
    let n = seq & ((1 << SEQ_RANK_SHIFT) - 1);
    ((seq >> SEQ_RANK_SHIFT) as usize, n)
}

/// A message in flight: payload plus matching and timing metadata.
#[derive(Debug)]
pub struct Envelope {
    /// Communicator the message travels on.
    pub comm: CommId,
    /// Sender's rank, local to that communicator.
    pub src_local: usize,
    /// Sender's world rank (for node-placement pricing).
    pub src_world: usize,
    /// Message tag.
    pub tag: i32,
    /// Virtual time at which the sender finished injecting the message.
    pub send_end: VTime,
    /// [`seq_of`] the sender and its send count: ordered per sender.
    pub seq: u64,
    /// The payload.
    pub payload: Payload,
}

impl Envelope {
    /// Does this envelope match the given receive selectors?
    #[inline]
    pub fn matches(&self, comm: CommId, src: Src, tag: TagSel) -> bool {
        if self.comm != comm {
            return false;
        }
        let src_ok = match src {
            Src::Any => true,
            Src::Rank(r) => self.src_local == r,
        };
        let tag_ok = match tag {
            TagSel::Any => true,
            TagSel::Is(t) => self.tag == t,
        };
        src_ok && tag_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(src: usize, tag: i32) -> Envelope {
        Envelope {
            comm: CommId::WORLD,
            src_local: src,
            src_world: src,
            tag,
            send_end: VTime::ZERO,
            seq: 0,
            payload: Payload::real(&[1u32, 2, 3]),
        }
    }

    #[test]
    fn real_payload_roundtrip() {
        let p = Payload::real(&[1.0f64, 2.0, 3.0]);
        assert_eq!(p.elems(), 3);
        assert_eq!(p.logical_bytes(), 24);
        assert!(!p.is_virtual());
        assert_eq!(p.into_vec::<f64>(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_no_copy() {
        let p = Payload::from_vec(vec![7u8; 10]);
        assert_eq!(p.logical_bytes(), 10);
        assert_eq!(p.into_vec::<u8>(), vec![7u8; 10]);
    }

    #[test]
    fn virtual_payload() {
        let p = Payload::virtual_elems::<f64>(1000);
        assert!(p.is_virtual());
        assert_eq!(p.elems(), 1000);
        assert_eq!(p.logical_bytes(), 8000);
        assert!(p.into_vec::<f64>().is_empty());
    }

    #[test]
    fn maybe_is_real_where_the_data_exists() {
        let real = Payload::maybe(Some(vec![1u16, 2]), 2);
        let declared = Payload::maybe(None::<Vec<u16>>, 2);
        assert_eq!((real.logical_bytes(), declared.logical_bytes()), (4, 4));
        assert_eq!(real.into_data::<u16>(), Some(vec![1, 2]));
        assert_eq!(declared.into_data::<u16>(), None);
    }

    #[test]
    #[should_panic(expected = "datatype mismatch")]
    fn type_mismatch_panics() {
        let p = Payload::real(&[1u32]);
        let _ = p.into_vec::<f64>();
    }

    #[test]
    fn seq_round_trips_up_to_its_limits() {
        let (max_rank, max_n) = (
            (1usize << (64 - SEQ_RANK_SHIFT)) - 1,
            (1u64 << SEQ_RANK_SHIFT) - 1,
        );
        for (rank, n) in [(0, 0), (1, 0), (0, 1), (455, 799), (max_rank, max_n)] {
            assert_eq!(seq_parts(seq_of(rank, n)), (rank, n));
        }
        // Distinct senders never share a seq, even at the counter's end.
        assert_ne!(seq_of(0, max_n), seq_of(1, 0));
        assert_eq!(seq_of(1, 0), seq_of(0, max_n) + 1);
    }

    #[test]
    #[should_panic(expected = "does not fit the seq layout")]
    fn seq_counter_overflow_fails_loudly() {
        seq_of(3, 1 << SEQ_RANK_SHIFT);
    }

    #[test]
    #[should_panic(expected = "does not fit the seq layout")]
    fn seq_rank_overflow_fails_loudly() {
        seq_of(1 << (64 - SEQ_RANK_SHIFT), 0);
    }

    #[test]
    fn matching() {
        let e = envelope(2, 9);
        assert!(e.matches(CommId::WORLD, Src::Rank(2), TagSel::Is(9)));
        assert!(e.matches(CommId::WORLD, Src::Any, TagSel::Is(9)));
        assert!(e.matches(CommId::WORLD, Src::Rank(2), TagSel::Any));
        assert!(!e.matches(CommId::WORLD, Src::Rank(1), TagSel::Is(9)));
        assert!(!e.matches(CommId::WORLD, Src::Rank(2), TagSel::Is(8)));
        assert!(!e.matches(CommId(5), Src::Any, TagSel::Any));
    }
}
