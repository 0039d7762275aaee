//! A small vector of [`FactId`]s that stays inline for the common case.
//!
//! Activation and refraction keys record the facts matched by a rule's
//! positive condition elements — almost always 1–3 of them in the
//! manager rule sets — so the engine keys its agenda and refraction
//! memory on this type instead of heap-allocating a `Vec<FactId>` per
//! entry. The fact store's duplicate and equality-join buckets (almost
//! always one id) use it for the same reason. Equality, hashing and ordering are slice-based (padding never
//! participates), and the ordering matches `Vec<FactId>`'s lexicographic
//! order exactly, which the conflict-resolution tie-break relies on.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use crate::fact::FactId;

/// Inline capacity: rules with more positive patterns spill to the heap.
const INLINE: usize = 4;

/// A fact-id vector inline up to [`INLINE`] entries.
#[derive(Clone, Debug)]
pub enum IdVec {
    /// Up to `INLINE` ids stored in place.
    Inline {
        /// Number of live entries in `buf`.
        len: u8,
        /// Storage; entries past `len` are padding and never compared.
        buf: [FactId; INLINE],
    },
    /// Spilled storage for longer id vectors.
    Heap(Vec<FactId>),
}

impl IdVec {
    /// The empty id vector.
    pub fn new() -> Self {
        IdVec::Inline {
            len: 0,
            buf: [FactId(0); INLINE],
        }
    }

    /// Build from a slice, inline when it fits.
    pub fn from_slice(ids: &[FactId]) -> Self {
        if ids.len() <= INLINE {
            let mut buf = [FactId(0); INLINE];
            buf[..ids.len()].copy_from_slice(ids);
            IdVec::Inline {
                len: ids.len() as u8,
                buf,
            }
        } else {
            IdVec::Heap(ids.to_vec())
        }
    }

    /// The live entries.
    pub fn as_slice(&self) -> &[FactId] {
        match self {
            IdVec::Inline { len, buf } => &buf[..*len as usize],
            IdVec::Heap(v) => v,
        }
    }

    /// Append an id, spilling to the heap when inline capacity runs out.
    pub fn push(&mut self, id: FactId) {
        match self {
            IdVec::Inline { len, buf } => {
                if (*len as usize) < INLINE {
                    buf[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut v = buf.to_vec();
                    v.push(id);
                    *self = IdVec::Heap(v);
                }
            }
            IdVec::Heap(v) => v.push(id),
        }
    }

    /// Remove `id` if present, keeping the order of the rest.
    pub fn remove(&mut self, id: FactId) {
        match self {
            IdVec::Inline { len, buf } => {
                let n = *len as usize;
                if let Some(pos) = buf[..n].iter().position(|&x| x == id) {
                    buf.copy_within(pos + 1..n, pos);
                    *len -= 1;
                }
            }
            IdVec::Heap(v) => v.retain(|&x| x != id),
        }
    }

    /// Number of ids.
    #[allow(dead_code)] // exercised by tests; kept for API symmetry
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when no ids are recorded (a rule with an empty left-hand
    /// side, or an index bucket that lost its last fact).
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Does the vector mention `id`?
    pub fn contains(&self, id: FactId) -> bool {
        self.as_slice().contains(&id)
    }

    /// Highest id — the activation's recency — or `FactId(0)` when empty.
    pub fn recency(&self) -> FactId {
        self.as_slice().iter().copied().max().unwrap_or(FactId(0))
    }
}

impl Default for IdVec {
    fn default() -> Self {
        IdVec::new()
    }
}

impl PartialEq for IdVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for IdVec {}

impl Hash for IdVec {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for IdVec {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IdVec {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl From<&[FactId]> for IdVec {
    fn from(ids: &[FactId]) -> Self {
        IdVec::from_slice(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(ids: &[u64]) -> IdVec {
        let ids: Vec<FactId> = ids.iter().map(|&i| FactId(i)).collect();
        IdVec::from_slice(&ids)
    }

    #[test]
    fn inline_and_heap_agree_with_slices() {
        let short = iv(&[3, 1, 2]);
        assert!(matches!(short, IdVec::Inline { .. }));
        assert_eq!(short.as_slice(), &[FactId(3), FactId(1), FactId(2)]);
        let long = iv(&[1, 2, 3, 4, 5, 6]);
        assert!(matches!(long, IdVec::Heap(_)));
        assert_eq!(long.len(), 6);
        assert!(long.contains(FactId(6)));
        assert!(!long.contains(FactId(7)));
    }

    #[test]
    fn equality_and_hash_ignore_padding() {
        use std::collections::HashSet;
        let mut grown = IdVec::new();
        grown.push(FactId(9));
        grown.push(FactId(4));
        assert_eq!(grown, iv(&[9, 4]));
        let mut set = HashSet::new();
        set.insert(grown);
        assert!(set.contains(&iv(&[9, 4])));
    }

    #[test]
    fn remove_keeps_order_inline_and_spilled() {
        let mut short = iv(&[3, 5, 9]);
        short.remove(FactId(5));
        short.remove(FactId(4));
        assert_eq!(short, iv(&[3, 9]));
        let mut long = iv(&[1, 2, 3, 4, 5, 6]);
        long.remove(FactId(1));
        assert_eq!(long, iv(&[2, 3, 4, 5, 6]));
        let mut one = iv(&[7]);
        one.remove(FactId(7));
        assert!(one.is_empty());
    }

    #[test]
    fn push_spills_to_heap() {
        let mut v = IdVec::new();
        for i in 0..6 {
            v.push(FactId(i));
        }
        assert!(matches!(v, IdVec::Heap(_)));
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn ordering_matches_vec_lexicographic() {
        // Mixed inline/heap comparisons follow slice order, which is what
        // Vec<FactId> comparisons in the naive matcher use.
        assert!(iv(&[1, 2]) < iv(&[1, 3]));
        assert!(iv(&[1, 2]) < iv(&[1, 2, 0]));
        assert!(iv(&[2]) > iv(&[1, 9, 9, 9, 9, 9]));
        assert_eq!(iv(&[]).recency(), FactId(0));
        assert_eq!(iv(&[5, 11, 2]).recency(), FactId(11));
    }
}
