//! Pseudo-random hashing to the unit interval.
//!
//! The bottom-k sketch of Cohen & Kaplan assumes a "truly random" hash
//! `h : U → (0, 1)` with no collisions. We approximate it with a seeded
//! SplitMix64 finalizer, which passes the usual avalanche tests and is
//! collision-free on distinct 64-bit inputs with overwhelming probability
//! (collisions of the 64-bit output are ~2⁻⁶⁴ per pair; the unit-interval
//! mapping keeps 53 bits).

/// A seeded hash function mapping `u64` keys to the open unit interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitHasher {
    seed: u64,
}

impl UnitHasher {
    /// Creates a hasher with the given seed. Two hashers with the same seed
    /// are identical functions — required so that the same sample id gets
    /// the same rank across algorithm phases.
    pub fn new(seed: u64) -> Self {
        UnitHasher { seed }
    }

    /// The raw 64-bit hash of `key` (SplitMix64 finalizer over `key ⊕ seed`).
    #[inline]
    fn hash_u64(&self, key: u64) -> u64 {
        let mut z = key ^ self.seed;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Hash of `key` mapped into the **open** interval `(0, 1)`.
    ///
    /// Uses the top 53 bits for the mantissa and nudges zero up to the
    /// smallest representable step so the bottom-k estimator
    /// `(bk − 1) / L(A, bk)` can never divide by zero.
    #[inline]
    pub fn hash_unit(&self, key: u64) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        let bits = self.hash_u64(key) >> 11; // 53 significant bits
        let x = bits as f64 * SCALE;
        if x == 0.0 {
            SCALE
        } else {
            x
        }
    }
}

/// Hashes the integers `0..t` and returns a permutation of `0..t` ordered
/// by ascending hash value.
///
/// This is exactly the order in which the BSRBK algorithm materializes
/// samples: it "sorts the samples in ascending order based on the hash
/// value" (paper §3.3) without materializing them first. `O(t log t)`.
pub fn hash_order(hasher: &UnitHasher, t: usize) -> Vec<u32> {
    // Keys are cached up front: recomputing two hashes inside the
    // comparator costs `2·t·log t` hash evaluations and dominated query
    // start-up for multi-million-sample budgets.
    let keys: Vec<f64> = (0..t as u64).map(|i| hasher.hash_unit(i)).collect();
    let mut idx: Vec<u32> = (0..t as u32).collect();
    idx.sort_unstable_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let h1 = UnitHasher::new(42);
        let h2 = UnitHasher::new(42);
        for k in 0..100u64 {
            assert_eq!(h1.hash_u64(k), h2.hash_u64(k));
            assert_eq!(h1.hash_unit(k), h2.hash_unit(k));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let h1 = UnitHasher::new(1);
        let h2 = UnitHasher::new(2);
        let same = (0..100u64).filter(|&k| h1.hash_u64(k) == h2.hash_u64(k)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_values_in_open_interval() {
        let h = UnitHasher::new(7);
        for k in 0..10_000u64 {
            let x = h.hash_unit(k);
            assert!(x > 0.0 && x < 1.0, "hash_unit({k}) = {x}");
        }
    }

    #[test]
    fn unit_values_look_uniform() {
        // Mean of U(0,1) is 0.5 with sd 1/sqrt(12n); allow 6 sigma.
        let h = UnitHasher::new(99);
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|k| h.hash_unit(k)).sum::<f64>() / n as f64;
        let sigma = (1.0 / 12.0f64).sqrt() / (n as f64).sqrt();
        assert!((mean - 0.5).abs() < 6.0 * sigma, "mean = {mean}");
    }

    #[test]
    fn no_collisions_on_small_domain() {
        let h = UnitHasher::new(3);
        let mut seen: Vec<u64> = (0..100_000u64).map(|k| h.hash_u64(k)).collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        assert_eq!(seen.len(), before);
    }

    #[test]
    fn hash_order_is_permutation() {
        let h = UnitHasher::new(5);
        let order = hash_order(&h, 1000);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000u32).collect::<Vec<_>>());
    }

    #[test]
    fn hash_order_is_ascending_in_hash() {
        let h = UnitHasher::new(5);
        let order = hash_order(&h, 500);
        for w in order.windows(2) {
            assert!(h.hash_unit(w[0] as u64) <= h.hash_unit(w[1] as u64));
        }
    }

    #[test]
    fn hash_order_empty_and_single() {
        let h = UnitHasher::new(5);
        assert!(hash_order(&h, 0).is_empty());
        assert_eq!(hash_order(&h, 1), vec![0]);
    }
}
