//! Bottom-k sketches for distinct-count estimation (Cohen & Kaplan, PODC'07).
//!
//! Given a multiset `A` whose distinct values are hashed uniformly into
//! `(0, 1)`, the sketch keeps the `bk` smallest hash values. With
//! `L(A, bk)` the `bk`-th smallest hash, the number of distinct values is
//! estimated by `(bk − 1) / L(A, bk)`, with expected relative error
//! `√(2 / (π (bk − 2)))` and coefficient of variation at most
//! `1 / √(bk − 2)`.
//!
//! In BSRBK the sketch plays a slightly different role: samples are visited
//! in ascending hash order, each candidate counts the samples in which it
//! defaults, and the first candidate whose counter reaches `bk` has —
//! implicitly — the bottom-k sketch with the smallest `L(A, bk)`, hence the
//! largest estimated default probability (Theorem 6).

use std::collections::BinaryHeap;

/// Wrapper giving `f64` a total order so it can live in a `BinaryHeap`.
/// Only finite values are ever inserted (hash outputs are in `(0, 1)`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Finite(f64);

impl Eq for Finite {}

impl PartialOrd for Finite {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Finite {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A bottom-k sketch over hash values in `(0, 1)`.
#[derive(Debug, Clone)]
pub struct BottomK {
    bk: usize,
    // Max-heap of the bk smallest values seen: the root is L(A, bk) once
    // saturated, and insertion is O(log bk).
    heap: BinaryHeap<Finite>,
}

impl BottomK {
    /// Creates a sketch keeping the `bk` smallest hash values.
    ///
    /// # Panics
    /// Panics if `bk == 0`.
    pub fn new(bk: usize) -> Self {
        assert!(bk > 0, "bottom-k parameter must be positive");
        BottomK { bk, heap: BinaryHeap::with_capacity(bk + 1) }
    }

    /// The sketch parameter `bk`.
    pub fn bk(&self) -> usize {
        self.bk
    }

    /// Number of values currently retained (`min(inserted distinct, bk)`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no value has been inserted.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// `true` once `bk` values have been retained, i.e. `L(A, bk)` exists.
    fn is_saturated(&self) -> bool {
        self.heap.len() == self.bk
    }

    /// Offers a hash value to the sketch.
    ///
    /// Returns `true` if the value was retained (it was among the `bk`
    /// smallest **distinct** values seen so far). Re-inserting a retained
    /// value is a no-op: bottom-k sketches summarize the *set* of hash
    /// values, so duplicates must not occupy extra slots.
    ///
    /// # Panics
    /// Panics in debug builds if `value` is outside `(0, 1)`.
    pub fn insert(&mut self, value: f64) -> bool {
        debug_assert!(value > 0.0 && value < 1.0, "hash value {value} outside (0,1)");
        if self.heap.len() == self.bk && self.heap.peek().is_some_and(|&Finite(top)| value >= top) {
            return false; // not among the bk smallest; duplicates of larger values irrelevant
        }
        // O(bk) duplicate scan; bk is small (paper uses 4..64).
        if self.heap.iter().any(|&Finite(x)| x == value) {
            return false;
        }
        if self.heap.len() == self.bk {
            self.heap.pop();
        }
        self.heap.push(Finite(value));
        true
    }

    /// The `bk`-th smallest value `L(A, bk)`, if the sketch is saturated.
    pub fn kth_smallest(&self) -> Option<f64> {
        if self.is_saturated() {
            self.heap.peek().map(|&Finite(v)| v)
        } else {
            None
        }
    }

    /// Estimated number of distinct values: `(bk − 1) / L(A, bk)`.
    ///
    /// Returns `None` until the sketch is saturated (fewer than `bk`
    /// distinct values seen means the exact count is `len()`).
    pub fn distinct_estimate(&self) -> Option<f64> {
        self.kth_smallest().map(|l| (self.bk as f64 - 1.0) / l)
    }

    /// Merges another sketch into this one (union of the underlying sets).
    /// Both sketches must have the same `bk`.
    ///
    /// # Panics
    /// Panics if the parameters differ.
    pub fn merge(&mut self, other: &BottomK) {
        assert_eq!(self.bk, other.bk, "cannot merge sketches with different bk");
        for &Finite(v) in other.heap.iter() {
            self.insert(v);
        }
    }

    /// The retained values in ascending order.
    pub fn sorted_values(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.heap.iter().map(|&Finite(x)| x).collect();
        v.sort_unstable_by(|a, b| a.total_cmp(b));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::UnitHasher;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bk_panics() {
        let _ = BottomK::new(0);
    }

    #[test]
    fn keeps_smallest_values() {
        let mut s = BottomK::new(3);
        for v in [0.9, 0.1, 0.5, 0.3, 0.7, 0.2] {
            s.insert(v);
        }
        assert_eq!(s.sorted_values(), vec![0.1, 0.2, 0.3]);
        assert_eq!(s.kth_smallest(), Some(0.3));
    }

    #[test]
    fn unsaturated_sketch_has_no_estimate() {
        let mut s = BottomK::new(4);
        s.insert(0.5);
        s.insert(0.25);
        assert!(!s.is_saturated());
        assert_eq!(s.kth_smallest(), None);
        assert_eq!(s.distinct_estimate(), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn insert_reports_retention() {
        let mut s = BottomK::new(2);
        assert!(s.insert(0.5));
        assert!(s.insert(0.6));
        assert!(!s.insert(0.7)); // larger than both retained
        assert!(s.insert(0.1)); // evicts 0.6
        assert_eq!(s.sorted_values(), vec![0.1, 0.5]);
    }

    #[test]
    fn estimate_close_to_truth() {
        // Hash 0..n distinct keys; estimate should be within a few expected
        // relative errors of n.
        let h = UnitHasher::new(11);
        let n = 20_000u64;
        let mut s = BottomK::new(64);
        for k in 0..n {
            s.insert(h.hash_unit(k));
        }
        let est = s.distinct_estimate().unwrap();
        let rel_err = (est - n as f64).abs() / n as f64;
        // Expected relative error of the estimator: √(2 / (π (bk − 2))).
        let expected = (2.0 / (std::f64::consts::PI * 62.0)).sqrt();
        assert!(rel_err < 5.0 * expected, "rel_err = {rel_err}, expected ≈ {expected}");
    }

    #[test]
    fn estimate_improves_with_bk() {
        let h = UnitHasher::new(13);
        let n = 50_000u64;
        let mut errs = Vec::new();
        for bk in [8usize, 64, 512] {
            let mut s = BottomK::new(bk);
            for k in 0..n {
                s.insert(h.hash_unit(k));
            }
            let est = s.distinct_estimate().unwrap();
            errs.push((est - n as f64).abs() / n as f64);
        }
        // Error with bk = 512 should beat bk = 8 (allowing rare flukes by
        // comparing against twice the value).
        assert!(errs[2] < errs[0] * 2.0 + 0.01, "errors: {errs:?}");
    }

    #[test]
    fn merge_equals_union() {
        let h = UnitHasher::new(17);
        let mut a = BottomK::new(16);
        let mut b = BottomK::new(16);
        let mut all = BottomK::new(16);
        for k in 0..1000u64 {
            let v = h.hash_unit(k);
            if k % 2 == 0 {
                a.insert(v);
            } else {
                b.insert(v);
            }
            all.insert(v);
        }
        a.merge(&b);
        assert_eq!(a.sorted_values(), all.sorted_values());
    }

    #[test]
    #[should_panic(expected = "different bk")]
    fn merge_requires_same_bk() {
        let mut a = BottomK::new(4);
        let b = BottomK::new(8);
        a.merge(&b);
    }

    #[test]
    fn duplicate_values_do_not_inflate() {
        // The sketch summarizes the *set* of hash values: re-inserting a
        // retained value must not consume another slot.
        let mut s = BottomK::new(3);
        assert!(s.insert(0.4));
        for _ in 0..10 {
            assert!(!s.insert(0.4));
        }
        assert_eq!(s.len(), 1);
        assert!(!s.is_saturated());
        s.insert(0.2);
        s.insert(0.3);
        assert_eq!(s.kth_smallest(), Some(0.4));
    }

    #[test]
    fn duplicates_of_evicted_values_stay_out() {
        let mut s = BottomK::new(2);
        s.insert(0.5);
        s.insert(0.6);
        s.insert(0.1); // evicts 0.6
        assert!(!s.insert(0.6));
        assert_eq!(s.sorted_values(), vec![0.1, 0.5]);
    }
}
