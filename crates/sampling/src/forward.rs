//! Forward possible-world sampling — the inner loop of Algorithm 1.
//!
//! One sample: fix the world of the `(seed, sample_id)` counter-RNG
//! stream (every coin is a stateless function of `(seed, block, item)` —
//! see [`crate::coins`] for the contract), then BFS forward from the
//! self-defaulted seeds through surviving edges. Nodes reached that way
//! default.
//!
//! Two implementations share that semantic:
//!
//! * [`ForwardSampler`] — the **scalar reference**: one world at a time,
//!   kept as the oracle the bit-parallel kernel is validated against.
//!   Because coins are random-access, it draws edge coins lazily at BFS
//!   touch — the scalar mirror of the block path's frontier-lazy words.
//! * [`forward_counts`](crate::forward_counts) — the **runtime path**
//!   (see [`crate::parallel`]): worlds are packed `W·64`-per-
//!   [`SuperBlock`](crate::SuperBlock) with transposed lane-word
//!   synthesis and evaluated by the bit-parallel
//!   [`SuperKernel`](crate::SuperKernel), bit-identical to the scalar
//!   reference for any range and seed.

use crate::coins::{CoinTable, ScalarCoins};
use ugraph::{NodeId, UncertainGraph};

/// Reusable scalar forward sampler. Holds scratch buffers so repeated
/// samples allocate nothing.
///
/// This is the semantic reference for the block kernel, not the hot
/// path: it walks one world at a time, exactly like
/// [`PossibleWorld`](crate::PossibleWorld) evaluation, so its results
/// are bit-identical to the bit-parallel data path.
#[derive(Debug, Clone)]
pub struct ForwardSampler {
    // Epoch-stamped "defaulted in current sample" marks; avoids an O(n)
    // clear per sample.
    mark: Vec<u32>,
    epoch: u32,
    queue: Vec<u32>,
}

impl ForwardSampler {
    /// Creates a sampler with buffers sized for `graph`.
    pub fn new(graph: &UncertainGraph) -> Self {
        ForwardSampler { mark: vec![0; graph.num_nodes()], epoch: 0, queue: Vec::new() }
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Evaluates one possible world (the one fixed by `coins`) and
    /// invokes `on_default` for every node that defaults in it (seeds
    /// and infected nodes alike, each once).
    ///
    /// Edge coins are drawn lazily when the BFS first crosses the edge;
    /// since every coin is a stateless function of `(seed, sample,
    /// item)`, the world observed is identical to a fully materialized
    /// one.
    pub fn sample_with(
        &mut self,
        graph: &UncertainGraph,
        table: &CoinTable,
        coins: &ScalarCoins,
        mut on_default: impl FnMut(NodeId),
    ) {
        let epoch = self.next_epoch();
        self.queue.clear();
        // Lines 4–7 of Algorithm 1: self-default coins, node order.
        for v in graph.nodes() {
            if coins.node_coin(table, v.index()) {
                self.mark[v.index()] = epoch;
                self.queue.push(v.0);
                on_default(v);
            }
        }
        // Lines 10–19: BFS through surviving edges, drawing each edge's
        // coin at the moment the frontier reaches it.
        let mut head = 0;
        while head < self.queue.len() {
            let vq = NodeId(self.queue[head]);
            head += 1;
            for e in graph.out_edges(vq) {
                if self.mark[e.target.index()] != epoch && coins.edge_coin(table, e.id.index()) {
                    self.mark[e.target.index()] = epoch;
                    self.queue.push(e.target.0);
                    on_default(e.target);
                }
            }
        }
    }

    /// Evaluates one world and returns the defaulted-node mask.
    /// Allocates; the closure API is preferred in loops.
    pub fn sample_mask(
        &mut self,
        graph: &UncertainGraph,
        table: &CoinTable,
        coins: &ScalarCoins,
    ) -> Vec<bool> {
        let mut mask = vec![false; graph.num_nodes()];
        self.sample_with(graph, table, coins, |v| mask[v.index()] = true);
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::DefaultCounts;
    use crate::parallel::exact_width_counts;
    use crate::{forward_counts, BlockWords};
    use ugraph::{from_parts, DuplicateEdgePolicy};

    fn chain() -> UncertainGraph {
        from_parts(&[0.5, 0.0, 0.0], &[(0, 1, 0.5), (1, 2, 0.5)], DuplicateEdgePolicy::Error)
            .unwrap()
    }

    #[test]
    fn deterministic_nodes_behave_deterministically() {
        let g = from_parts(&[1.0, 0.0], &[(0, 1, 1.0)], DuplicateEdgePolicy::Error).unwrap();
        let table = CoinTable::new(&g);
        let mut s = ForwardSampler::new(&g);
        for i in 0..50u64 {
            let mask = s.sample_mask(&g, &table, &ScalarCoins::new(1, i));
            assert_eq!(mask, vec![true, true]);
        }
    }

    #[test]
    fn zero_probability_graph_never_defaults() {
        let g = from_parts(&[0.0, 0.0], &[(0, 1, 1.0)], DuplicateEdgePolicy::Error).unwrap();
        let counts = forward_counts(&g, 200, 3, 1);
        assert_eq!(counts.count(0), 0);
        assert_eq!(counts.count(1), 0);
    }

    #[test]
    fn counts_converge_to_chain_marginals() {
        // p(0) = 0.5, p(1) = 0.25, p(2) = 0.125.
        let g = chain();
        let counts = forward_counts(&g, 40_000, 7, 1);
        assert!((counts.estimate(0) - 0.5).abs() < 0.02);
        assert!((counts.estimate(1) - 0.25).abs() < 0.02);
        assert!((counts.estimate(2) - 0.125).abs() < 0.02);
    }

    #[test]
    fn each_default_reported_once() {
        let g = from_parts(
            &[1.0, 0.0, 0.0, 0.0],
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let table = CoinTable::new(&g);
        let mut s = ForwardSampler::new(&g);
        let mut seen = Vec::new();
        s.sample_with(&g, &table, &ScalarCoins::new(5, 0), |v| seen.push(v.0));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sampler_reuse_matches_fresh_sampler() {
        // Epoch recycling must not leak state between samples.
        let g = chain();
        let table = CoinTable::new(&g);
        let mut reused = ForwardSampler::new(&g);
        for sample_id in 0..20 {
            let coins = ScalarCoins::new(99, sample_id);
            let mut fresh = ForwardSampler::new(&g);
            assert_eq!(
                reused.sample_mask(&g, &table, &coins),
                fresh.sample_mask(&g, &table, &coins)
            );
        }
    }

    #[test]
    fn forward_counts_reproducible() {
        let g = chain();
        let a = forward_counts(&g, 500, 11, 1);
        let b = forward_counts(&g, 500, 11, 1);
        assert_eq!(a, b);
        let c = forward_counts(&g, 500, 12, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn block_path_bit_identical_to_scalar_reference() {
        let g = from_parts(
            &[0.3, 0.2, 0.1],
            &[(0, 1, 0.7), (1, 2, 0.4), (0, 2, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let table = CoinTable::new(&g);
        // Budgets straddling block boundaries, including t % 64 != 0.
        for t in [1u64, 63, 64, 65, 130, 500] {
            let blockwise = forward_counts(&g, t, 21, 1);
            let mut sampler = ForwardSampler::new(&g);
            let mut scalar = DefaultCounts::new(3);
            for i in 0..t {
                scalar.record_mask(&sampler.sample_mask(&g, &table, &ScalarCoins::new(21, i)));
            }
            assert_eq!(blockwise, scalar, "t = {t}");
        }
    }

    #[test]
    fn scalar_sampler_matches_materialized_world_bitwise() {
        // The scalar sampler and full world materialization project the
        // SAME stateless coins: identical worlds, not just equal
        // marginals — even though the sampler draws edge coins lazily.
        use crate::world::PossibleWorld;
        let g = from_parts(
            &[0.3, 0.2, 0.1],
            &[(0, 1, 0.7), (1, 2, 0.4), (0, 2, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let table = CoinTable::new(&g);
        let mut sampler = ForwardSampler::new(&g);
        for i in 0..200u64 {
            let mask = sampler.sample_mask(&g, &table, &ScalarCoins::new(22, i));
            let world = PossibleWorld::sample_with_table(&g, &table, 22, i);
            assert_eq!(mask, world.defaulted_nodes(&g), "sample {i}");
        }
    }

    #[test]
    fn every_width_is_bit_identical() {
        let g = from_parts(
            &[0.3, 0.2, 0.1],
            &[(0, 1, 0.7), (1, 2, 0.4), (0, 2, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let table = CoinTable::new(&g);
        // Budgets straddling superblock boundaries at every width.
        for range in [0..1u64, 0..100, 0..512, 0..700, 37..411, 64..256] {
            let reference =
                exact_width_counts(&g, &table, None, range.clone(), 5, BlockWords::W1).0;
            for width in BlockWords::ALL {
                let (counts, _) = exact_width_counts(&g, &table, None, range.clone(), 5, width);
                assert_eq!(counts, reference, "range {range:?}, width {width}");
            }
        }
    }

    #[test]
    fn range_decomposition_merges_exactly() {
        let g = chain();
        let table = CoinTable::new(&g);
        let whole = exact_width_counts(&g, &table, None, 0..300, 31, BlockWords::W1).0;
        // An unaligned split must still merge into the identical counts.
        let mut parts = exact_width_counts(&g, &table, None, 0..97, 31, BlockWords::W1).0;
        parts.merge(&exact_width_counts(&g, &table, None, 97..300, 31, BlockWords::W1).0);
        assert_eq!(whole, parts);
    }

    #[test]
    fn usage_reports_lazy_skips_per_block() {
        // Chain with an unreachable tail edge: 0 → 1 fires sometimes,
        // 1 → 2 only when 1 defaults; with ps(1) = ps(2) = 0 and a dead
        // first edge, the second edge is often never touched.
        let g =
            from_parts(&[0.0, 0.0, 0.0], &[(0, 1, 0.5), (1, 2, 0.5)], DuplicateEdgePolicy::Error)
                .unwrap();
        let table = CoinTable::new(&g);
        let (counts, usage) = exact_width_counts(&g, &table, None, 0..128, 9, BlockWords::W1);
        assert_eq!(counts.samples(), 128);
        // No seeds ever default, so no edge is ever touched.
        assert_eq!(usage.edge_words_materialized, 0);
        assert_eq!(usage.edge_words_skipped, 4, "2 edges × 2 blocks");
        assert_eq!(usage.lazy_skip_ratio(), 1.0);
    }
}
