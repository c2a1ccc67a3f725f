//! A small vector with inline storage for the common short case.
//!
//! The Picos task memory holds, per in-flight task, its dependence list and its successor list;
//! the address table holds, per address, its reader list. In the paper's workloads these lists
//! are almost always tiny (a task rarely has more than a few dependences, an address rarely more
//! than a few concurrent readers), yet `Vec` pays a heap allocation for each. [`InlineVec`]
//! stores up to `N` elements inline inside the owning structure and only falls back to the heap
//! when a list genuinely grows past `N` — so the common case allocates nothing at all.
//!
//! The implementation stays within the crate's `#![forbid(unsafe_code)]` policy by requiring
//! `T: Copy + Default` (all simulator element types are small `Copy` tuples): the inline buffer
//! is a plain `[T; N]` initialised with defaults, and "moving" elements is a copy.

/// A vector storing up to `N` elements inline, spilling to the heap beyond that.
///
/// Once a value spills it stays heap-backed until [`clear`](InlineVec::clear) — lists that
/// briefly exceed `N` are rare enough that migrating back inline is not worth the copies.
#[derive(Debug, Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    inline: [T; N],
    /// Number of live inline elements; meaningful only while `!spilled`.
    len: usize,
    /// Heap storage, used exclusively once `spilled` is set.
    spill: Vec<T>,
    spilled: bool,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector (no heap allocation).
    pub fn new() -> Self {
        InlineVec { inline: [T::default(); N], len: 0, spill: Vec::new(), spilled: false }
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        if self.spilled {
            self.spill.len()
        } else {
            self.len
        }
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the vector has spilled to the heap.
    pub fn is_spilled(&self) -> bool {
        self.spilled
    }

    /// Appends an element, spilling to the heap if the inline buffer is full.
    pub fn push(&mut self, value: T) {
        if self.spilled {
            self.spill.push(value);
        } else if self.len < N {
            self.inline[self.len] = value;
            self.len += 1;
        } else {
            self.spill.reserve(N + 1);
            self.spill.extend_from_slice(&self.inline[..self.len]);
            self.spill.push(value);
            self.spilled = true;
            self.len = 0;
        }
    }

    /// Removes all elements. Keeps any heap capacity for reuse, but returns to inline mode so
    /// subsequent short lists stay allocation-free in steady state.
    pub fn clear(&mut self) {
        self.spill.clear();
        self.spilled = false;
        self.len = 0;
    }

    /// The elements as a contiguous slice.
    pub fn as_slice(&self) -> &[T] {
        if self.spilled {
            &self.spill
        } else {
            &self.inline[..self.len]
        }
    }

    /// The elements as a contiguous mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spilled {
            &mut self.spill
        } else {
            &mut self.inline[..self.len]
        }
    }

    /// Iterates over the elements in insertion order.
    pub fn iter(&self) -> core::slice::Iter<'_, T> {
        self.as_slice().iter()
    }

    /// Keeps only the elements for which `pred` returns `true`, preserving order.
    pub fn retain(&mut self, mut pred: impl FnMut(&T) -> bool) {
        if self.spilled {
            self.spill.retain(|v| pred(v));
        } else {
            let mut kept = 0;
            for i in 0..self.len {
                if pred(&self.inline[i]) {
                    self.inline[kept] = self.inline[i];
                    kept += 1;
                }
            }
            self.len = kept;
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        v.extend(iter);
        v
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.is_spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn spills_past_capacity_and_preserves_order() {
        let mut v: InlineVec<u32, 4> = (0..10).collect();
        assert!(v.is_spilled());
        assert_eq!(v.len(), 10);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
        v.push(10);
        assert_eq!(v.as_slice().last(), Some(&10));
    }

    #[test]
    fn clear_returns_to_inline_mode() {
        let mut v: InlineVec<u32, 2> = (0..5).collect();
        assert!(v.is_spilled());
        v.clear();
        assert!(v.is_empty() && !v.is_spilled());
        v.push(42);
        assert!(!v.is_spilled(), "short lists after clear stay inline");
        assert_eq!(v.as_slice(), &[42]);
    }

    #[test]
    fn retain_inline_and_spilled() {
        let mut inline: InlineVec<u32, 8> = (0..6).collect();
        inline.retain(|&x| x % 2 == 0);
        assert_eq!(inline.as_slice(), &[0, 2, 4]);

        let mut spilled: InlineVec<u32, 2> = (0..6).collect();
        spilled.retain(|&x| x % 2 == 1);
        assert_eq!(spilled.as_slice(), &[1, 3, 5]);
    }

    #[test]
    fn retain_to_empty_then_reuse() {
        let mut v: InlineVec<u32, 2> = (0..4).collect();
        v.retain(|_| false);
        assert!(v.is_empty());
        v.push(7);
        assert_eq!(v.as_slice(), &[7], "a spilled-then-emptied vector still accepts pushes");
    }

    #[test]
    fn matches_vec_reference_model() {
        // Mixed push/retain/clear sequence against a plain Vec oracle.
        let mut v: InlineVec<u64, 4> = InlineVec::new();
        let mut model: Vec<u64> = Vec::new();
        for round in 0u64..50 {
            match round % 7 {
                6 => {
                    v.clear();
                    model.clear();
                }
                3 => {
                    v.retain(|&x| x % 3 != 0);
                    model.retain(|&x| x % 3 != 0);
                }
                _ => {
                    v.push(round);
                    model.push(round);
                }
            }
            assert_eq!(v.as_slice(), model.as_slice(), "diverged at round {round}");
        }
    }
}
