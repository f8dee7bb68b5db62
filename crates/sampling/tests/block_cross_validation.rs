//! Cross-validation of the bit-parallel world-block data path against
//! the scalar `PossibleWorld` oracle (in-repo test kit; the workspace
//! builds offline with no external dependencies).
//!
//! The contract under test: sample `i` of a run seeded `s` IS the world
//! `PossibleWorld::sample_indexed(g, s, i)` — every coin a stateless
//! counter-RNG function of `(s, i / 64, item)` projected at lane
//! `i % 64` — and every counting API is a pure function of those worlds.
//! So `DefaultCounts` must be **bit-identical** across the block kernel
//! (lazy or eager edge materialization), the scalar samplers, and the
//! parallel drivers, for any seed, any thread count, and any budget
//! including `t % 64 != 0`.

mod common;

use common::{forward_range, oracle_forward_counts, reverse_range};
use ugraph::testkit::{check, random_graph, TestRng};
use ugraph::{NodeId, UncertainGraph};
use vulnds_sampling::{
    forward_counts, reverse_counts, BlockKernel, BlockWords, CoinTable, DefaultCounts, Direction,
    ForwardSampler, PossibleWorld, ReverseSampler, ScalarCoins, WorldBlock, LANES,
};

fn arb_graph(rng: &mut TestRng) -> UncertainGraph {
    random_graph(rng, 24, 60)
}

/// A budget straddling block boundaries most of the time.
fn arb_budget(rng: &mut TestRng) -> u64 {
    rng.range_usize(1, 3 * LANES + 7) as u64
}

/// The oracle projected onto a candidate list.
fn oracle_reverse_counts(
    g: &UncertainGraph,
    candidates: &[NodeId],
    t: u64,
    seed: u64,
) -> DefaultCounts {
    let table = CoinTable::new(g);
    let mut counts = DefaultCounts::new(candidates.len());
    for i in 0..t {
        let world = PossibleWorld::sample_with_table(g, &table, seed, i);
        let defaulted = world.defaulted_nodes(g);
        let mask: Vec<bool> = candidates.iter().map(|&v| defaulted[v.index()]).collect();
        counts.record_mask(&mask);
    }
    counts
}

/// Block-kernel forward counts are bit-identical to the materialized
/// world oracle, to the scalar `ForwardSampler`, and to the parallel
/// driver at every thread count.
#[test]
fn forward_block_equals_oracle_and_scalar_and_parallel() {
    check(24, |rng| {
        let g = arb_graph(rng);
        let t = arb_budget(rng);
        let seed = rng.next_bounded(1 << 20);
        let blockwise = forward_counts(&g, t, seed, 1);

        assert_eq!(blockwise, oracle_forward_counts(&g, 0..t, seed), "oracle, t = {t}");

        let table = CoinTable::new(&g);
        let mut sampler = ForwardSampler::new(&g);
        let mut scalar = DefaultCounts::new(g.num_nodes());
        for i in 0..t {
            scalar.begin_sample();
            sampler.sample_with(&g, &table, &ScalarCoins::new(seed, i), |v| scalar.bump(v.index()));
        }
        assert_eq!(blockwise, scalar, "scalar sampler, t = {t}");

        for threads in [2usize, 3, 7] {
            assert_eq!(
                forward_counts(&g, t, seed, threads),
                blockwise,
                "threads = {threads}, t = {t}"
            );
        }
    });
}

/// Reverse sampling is a projection of the same worlds: block kernel,
/// scalar `ReverseSampler` (with and without the negative cache), the
/// oracle, and the parallel driver all agree bitwise on any candidate
/// subset.
#[test]
fn reverse_block_equals_oracle_and_scalar_and_parallel() {
    check(24, |rng| {
        let g = arb_graph(rng);
        let t = arb_budget(rng);
        let seed = rng.next_bounded(1 << 20);
        let n = g.num_nodes();
        // A random candidate subset, sometimes everything.
        let candidates: Vec<NodeId> = if rng.next_bounded(4) == 0 {
            g.nodes().collect()
        } else {
            (0..rng.range_usize(1, n)).map(|_| NodeId(rng.next_bounded(n as u64) as u32)).collect()
        };

        let blockwise = reverse_counts(&g, &candidates, t, seed, 1);
        assert_eq!(blockwise, oracle_reverse_counts(&g, &candidates, t, seed), "oracle, t = {t}");

        let table = CoinTable::new(&g);
        for negative_cache in [true, false] {
            let mut sampler = if negative_cache {
                ReverseSampler::new(&g)
            } else {
                ReverseSampler::new(&g).without_negative_cache()
            };
            let mut scalar = DefaultCounts::new(candidates.len());
            let mut buf = Vec::new();
            for i in 0..t {
                sampler.sample_candidates(
                    &g,
                    &table,
                    &candidates,
                    ScalarCoins::new(seed, i),
                    &mut buf,
                );
                scalar.begin_sample();
                for (j, &hit) in buf.iter().enumerate() {
                    if hit {
                        scalar.bump(j);
                    }
                }
            }
            assert_eq!(blockwise, scalar, "scalar, negative_cache = {negative_cache}, t = {t}");
        }

        for threads in [2usize, 5] {
            assert_eq!(
                reverse_counts(&g, &candidates, t, seed, threads),
                blockwise,
                "threads = {threads}, t = {t}"
            );
        }
    });
}

/// Range decomposition is exact: counts over `a..b` plus `b..c` merge
/// into the counts over `a..c` for arbitrary (unaligned) split points —
/// the prefix-extension property the engine cache relies on. Unaligned
/// chunks occupy the *high* lanes of their home block, so this also
/// exercises partial lane masks that do not start at lane 0.
#[test]
fn unaligned_range_splits_merge_exactly() {
    check(24, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1 << 20);
        let end = arb_budget(rng) + arb_budget(rng);
        let cut = rng.next_bounded(end);
        let table = CoinTable::new(&g);
        let (w1, direction) = (BlockWords::W1, Direction::default());
        let forward = |range| forward_range(&g, &table, range, seed, 1, w1, direction).0;
        let whole = forward(0..end);
        let mut parts = forward(0..cut);
        parts.merge(&forward(cut..end));
        assert_eq!(whole, parts, "cut {cut} of {end}");

        let candidates: Vec<NodeId> = g.nodes().collect();
        let reverse = |range| reverse_range(&g, &table, &candidates, range, seed, 1, w1).0;
        let whole_r = reverse(0..end);
        let mut parts_r = reverse(0..cut);
        parts_r.merge(&reverse(cut..end));
        assert_eq!(whole_r, parts_r, "reverse cut {cut} of {end}");
    });
}

/// `materialize_ids` with scattered, non-consecutive sample ids (the
/// shape BSRBK's hash order produces) is lane-for-lane the oracle.
#[test]
fn scattered_id_blocks_match_oracle() {
    check(16, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1 << 20);
        let lanes = rng.range_usize(1, LANES);
        let ids: Vec<u64> = (0..lanes).map(|_| rng.next_bounded(10_000)).collect();
        let table = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        let mut kernel = BlockKernel::new(&g);
        block.materialize_ids(&g, &table, seed, &ids);
        let words = kernel.forward_defaults(&g, &table, &mut block).to_vec();
        for (lane, &id) in ids.iter().enumerate() {
            let defaulted =
                PossibleWorld::sample_with_table(&g, &table, seed, id).defaulted_nodes(&g);
            for v in 0..g.num_nodes() {
                assert_eq!(
                    words[v] >> lane & 1 == 1,
                    defaulted[v],
                    "lane {lane} (sample {id}), node {v}"
                );
            }
        }
        // The reverse kernel agrees candidate by candidate.
        kernel.begin_block();
        for v in g.nodes() {
            let word = kernel.reverse_hit_word(&g, &table, &mut block, v);
            assert_eq!(word, words[v.index()], "reverse word of {v}");
        }
    });
}
