//! An Fx-style multiplicative hasher for the engine's internal maps.
//!
//! The keys are fact ids, template symbols and slot fingerprints the
//! engine computes itself, and every index bucket is re-verified against
//! the facts it names, so a collision costs a longer candidate list,
//! never a wrong match. That makes SipHash's flood resistance a cost
//! without a benefit on the violation path. It is public for the same
//! trade made elsewhere on that path: a host manager fingerprints each
//! report only to compare it with the same process's previous one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time rotate-xor-multiply hasher (the rustc `FxHasher`
/// recipe). Fast and deterministic; not collision-resistant against
/// chosen input.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
