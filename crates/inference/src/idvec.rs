//! Small vectors that stay inline for the common case.
//!
//! Activation and refraction keys record the facts matched by a rule's
//! positive condition elements — almost always 1–3 of them in the
//! manager rule sets — so the engine keys its agenda and refraction
//! memory on [`IdVec`] instead of heap-allocating a `Vec<FactId>` per
//! entry. The fact store's duplicate and equality-join buckets (almost
//! always one id) use it for the same reason, and the agenda's by-fact
//! index keeps its per-fact activation links, and each activation its
//! positions in those lists, in the same [`InlineVec`]. Equality, hashing
//! and ordering are slice-based (padding never participates), and the
//! ordering matches `Vec`'s lexicographic order exactly, which the
//! conflict-resolution tie-break relies on.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use crate::fact::FactId;

/// Inline capacity: longer vectors spill to the heap.
const INLINE: usize = 4;

/// A vector of `Copy` values inline up to [`INLINE`] entries.
#[derive(Clone, Debug)]
pub enum InlineVec<T> {
    /// Up to `INLINE` values stored in place.
    Inline {
        /// Number of live entries in `buf`.
        len: u8,
        /// Storage; entries past `len` are padding and never compared.
        buf: [T; INLINE],
    },
    /// Spilled storage for longer vectors.
    Heap(Vec<T>),
}

/// The fact ids of an activation, a refraction entry or an index bucket.
pub type IdVec = InlineVec<FactId>;

impl<T> InlineVec<T> {
    /// The live entries.
    pub fn as_slice(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, buf } => &buf[..*len as usize],
            InlineVec::Heap(v) => v,
        }
    }

    /// The live entries, writable in place.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, buf } => &mut buf[..*len as usize],
            InlineVec::Heap(v) => v,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when there are no entries (a rule with an empty left-hand
    /// side, or a bucket that lost its last fact).
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl<T: Copy + Default> InlineVec<T> {
    /// The empty vector.
    pub fn new() -> Self {
        InlineVec::Inline {
            len: 0,
            buf: [T::default(); INLINE],
        }
    }

    /// Build from a slice, inline when it fits.
    pub fn from_slice(items: &[T]) -> Self {
        if items.len() <= INLINE {
            let mut buf = [T::default(); INLINE];
            buf[..items.len()].copy_from_slice(items);
            InlineVec::Inline {
                len: items.len() as u8,
                buf,
            }
        } else {
            InlineVec::Heap(items.to_vec())
        }
    }

    /// Append a value, spilling to the heap when inline capacity runs out.
    pub fn push(&mut self, item: T) {
        match self {
            InlineVec::Inline { len, buf } => {
                if (*len as usize) < INLINE {
                    buf[*len as usize] = item;
                    *len += 1;
                } else {
                    let mut v = buf.to_vec();
                    v.push(item);
                    *self = InlineVec::Heap(v);
                }
            }
            InlineVec::Heap(v) => v.push(item),
        }
    }

    /// Remove entry `i` in O(1), moving the last entry into its place.
    pub fn swap_remove(&mut self, i: usize) {
        match self {
            InlineVec::Inline { len, buf } => {
                let n = *len as usize;
                assert!(i < n, "swap_remove index {i} of {n}");
                buf[i] = buf[n - 1];
                *len -= 1;
            }
            InlineVec::Heap(v) => {
                v.swap_remove(i);
            }
        }
    }
}

impl<T: Copy + Default + PartialEq> InlineVec<T> {
    /// Remove `item` if present, keeping the order of the rest.
    pub fn remove(&mut self, item: T) {
        match self {
            InlineVec::Inline { len, buf } => {
                let n = *len as usize;
                if let Some(pos) = buf[..n].iter().position(|&x| x == item) {
                    buf.copy_within(pos + 1..n, pos);
                    *len -= 1;
                }
            }
            InlineVec::Heap(v) => v.retain(|&x| x != item),
        }
    }

    /// Does the vector hold `item`?
    pub fn contains(&self, item: T) -> bool {
        self.as_slice().contains(&item)
    }
}

impl IdVec {
    /// Highest id — the activation's recency — or `FactId(0)` when empty.
    pub fn recency(&self) -> FactId {
        self.as_slice().iter().copied().max().unwrap_or(FactId(0))
    }
}

impl<T: Copy + Default> Default for InlineVec<T> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: PartialEq> PartialEq for InlineVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Eq> Eq for InlineVec<T> {}

impl<T: Hash> Hash for InlineVec<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: Ord> PartialOrd for InlineVec<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for InlineVec<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl<T: Copy + Default> From<&[T]> for InlineVec<T> {
    fn from(items: &[T]) -> Self {
        InlineVec::from_slice(items)
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
    fn swap_remove_moves_the_last_entry_into_the_hole() {
        let mut short = iv(&[3, 5, 9]);
        short.swap_remove(0);
        assert_eq!(short, iv(&[9, 5]));
        short.swap_remove(1);
        assert_eq!(short, iv(&[9]));
        short.swap_remove(0);
        assert!(short.is_empty());
        let mut long = iv(&[1, 2, 3, 4, 5, 6]);
        long.swap_remove(1);
        assert_eq!(long, iv(&[1, 6, 3, 4, 5]));
        long.as_mut_slice()[0] = FactId(8);
        assert_eq!(long, iv(&[8, 6, 3, 4, 5]));
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
