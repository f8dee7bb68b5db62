//! Minimal deterministic property-testing support.
//!
//! The workspace builds with no external dependencies, so the randomized
//! ("property") tests that would normally use `proptest` run on this tiny
//! kit instead: a SplitMix64 generator plus a random-graph builder shared
//! by the crates' test suites. Cases are seeded deterministically, so a
//! failure report (`case i`) is always reproducible.

use crate::builder::{from_parts, DuplicateEdgePolicy};
use crate::graph::UncertainGraph;

/// SplitMix64 — tiny, seedable, good enough to drive test-case generation.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates a generator for `seed` (any value is fine, including 0).
    pub fn new(seed: u64) -> Self {
        TestRng(seed)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (self.next_u64() >> 11) as f64 * SCALE
    }

    /// Uniform integer in `[0, bound)`; `bound` must be positive.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range");
        lo + self.next_bounded((hi - lo + 1) as u64) as usize
    }
}

/// A random valid uncertain graph with `2..=max_n` nodes and up to
/// `max_m` edges. Edge targets are built as `(u + d) mod n` with
/// `d ∈ 1..n`, so self-loops are impossible by construction; duplicates
/// collapse under [`DuplicateEdgePolicy::KeepMax`].
pub fn random_graph(rng: &mut TestRng, max_n: usize, max_m: usize) -> UncertainGraph {
    let n = rng.range_usize(2, max_n.max(2));
    let risks: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    let m = rng.range_usize(0, max_m);
    let edges: Vec<(u32, u32, f64)> = (0..m)
        .map(|_| {
            let u = rng.next_bounded(n as u64) as u32;
            let d = 1 + rng.next_bounded(n as u64 - 1) as u32;
            (u, (u + d) % n as u32, rng.next_f64())
        })
        .collect();
    // xlint: allow(panic-hygiene) — test-support generator: ids are
    // reduced mod `n` and probabilities drawn from `[0, 1)`, so the
    // parts are always valid.
    from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).expect("valid parts")
}

/// `input` after one random mutation, for decoder smoke tests: a bit
/// flip, a truncation, or a splice that overwrites a random span with a
/// random slice of `input` itself (so it shifts, repeats or drops
/// well-formed pieces).
pub fn mutate(rng: &mut TestRng, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    if out.is_empty() {
        return out;
    }
    match rng.next_bounded(3) {
        0 => {
            let bit = rng.next_bounded(out.len() as u64 * 8);
            out[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        1 => out.truncate(rng.range_usize(0, out.len() - 1)),
        _ => {
            let from = rng.range_usize(0, input.len());
            let to = rng.range_usize(from, input.len());
            let at = rng.range_usize(0, out.len());
            let end = rng.range_usize(at, out.len());
            out.splice(at..end, input[from..to].iter().copied());
        }
    }
    out
}

/// Runs `cases` deterministic property cases: each case gets its own
/// seeded [`TestRng`], and a panic inside the property is re-raised with
/// the case number so it can be replayed in isolation.
pub fn check(cases: u64, mut property: impl FnMut(&mut TestRng)) {
    for case in 0..cases {
        let mut rng = TestRng::new(0xC0FFEE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut rng)));
        if let Err(panic) = result {
            eprintln!("property failed at case {case} (seed derivation is deterministic)");
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(1);
        let mut b = TestRng::new(1);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn random_graph_is_valid() {
        let mut rng = TestRng::new(7);
        for _ in 0..16 {
            let g = random_graph(&mut rng, 20, 60);
            g.check_invariants().unwrap();
            assert!(g.num_nodes() >= 2);
        }
    }

    #[test]
    fn mutate_is_deterministic_and_changes_the_input() {
        let input = b"3 2\n0 0.1\n1 0.2\n2 0.3\n0 1 0.5\n1 2 0.25\n";
        let (mut a, mut b) = (TestRng::new(9), TestRng::new(9));
        let changed = (0..64)
            .filter(|_| {
                let out = mutate(&mut a, input);
                assert_eq!(out, mutate(&mut b, input));
                out != input
            })
            .count();
        assert!(changed > 48, "only {changed} of 64 mutations changed the input");
        assert!(mutate(&mut a, b"").is_empty());
    }

    #[test]
    fn check_runs_all_cases() {
        let mut count = 0;
        check(10, |_| count += 1);
        assert_eq!(count, 10);
    }
}
