//! A fast, deterministic, non-cryptographic hasher for hot-path maps.
//!
//! The section enter/exit path hashes a rank id, a communicator id and a
//! short label on every call; SipHash (std's default) costs more than the
//! rest of the bookkeeping combined at 16k ranks. This is the well-known
//! Fx construction (rotate, xor, multiply by a Meyer-constant), which is
//! 3–5× cheaper on short keys and — unlike `RandomState` — independent of
//! process-level seeding, so map iteration feeding deterministic exports
//! never varies between runs. Not DoS-resistant: use only on keys the
//! application controls (labels, rank ids), never on external input.

use std::hash::{BuildHasherDefault, Hasher};

/// Hot-path replacement for `std::collections::HashMap`'s default hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// FNV-1a over a byte string: the workspace's one *stable fingerprint*
/// function. Unlike [`FastHasher`] (whose word-at-a-time folding is an
/// implementation detail of the hot-path maps), FNV-1a is byte-exact and
/// format-stable, so its values may be persisted: the mpistudy run store
/// addresses documents by it, mpiverify fingerprints run artifacts with
/// it, and metrics JSON embeds it as `results_fingerprint`. Changing this
/// function invalidates every stored hash — don't.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fnv1a`] of a string, rendered as the fixed-width hex form used for
/// store filenames and JSON fingerprint fields.
pub fn fnv1a_hex(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word-at-a-time hasher.
#[derive(Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // The tail as a zero-padded little-endian word, assembled in
            // registers: a variable-length copy into a buffer is a
            // `memcpy` call, and short labels are all tail.
            let tail = rest
                .iter()
                .rev()
                .fold(0u64, |word, &b| (word << 8) | u64::from(b));
            self.add(tail);
            self.add(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write(b"CONVOLVE");
        b.write(b"CONVOLVE");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_values() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write_u64(1);
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn tail_bytes_change_the_hash() {
        let mut a = FastHasher::default();
        let mut b = FastHasher::default();
        a.write(b"HALO");
        b.write(b"HALT");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn tail_is_the_zero_padded_little_endian_word() {
        // Hash values feed map iteration order, which deterministic
        // exports rely on: the tail must stay the word a zero-padded
        // 8-byte buffer reads as.
        for len in 1..=17u8 {
            let bytes: Vec<u8> = (1..=len).collect();
            let mut got = FastHasher::default();
            got.write(&bytes);
            let mut want = FastHasher::default();
            for chunk in bytes.chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                want.add(u64::from_le_bytes(word));
                if chunk.len() < 8 {
                    want.add(chunk.len() as u64);
                }
            }
            assert_eq!(got.finish(), want.finish(), "len {len}");
        }
    }

    #[test]
    fn fnv1a_reference_vectors() {
        // The canonical FNV-1a test vectors: any drift here would orphan
        // every content-addressed store document.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_hex("foobar"), "85944171f73967e8");
    }

    #[test]
    fn map_works_with_str_and_tuple_keys() {
        let mut m: FastMap<String, u32> = FastMap::default();
        m.insert("LOAD".into(), 1);
        m.insert("STORE".into(), 2);
        assert_eq!(m.get("LOAD"), Some(&1));
        assert_eq!(m.len(), 2);
    }
}
