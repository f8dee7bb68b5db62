//! Width cross-validation: every superblock width `W ∈ {1, 2, 4, 8}`
//! must produce counts **bit-identical** to the `PossibleWorld` oracle
//! and to every other width — including partial superblocks (budgets
//! with `t % (W·64) ≠ 0` and ranges resuming mid-superblock),
//! lazy-vs-eager edge word-vectors, and the parallel drivers' strided
//! superblock partitions.
//!
//! This is the property that makes width a pure throughput knob: sample
//! `i` always occupies lane `i % 64` of home block `i / 64`, whatever
//! superblock geometry evaluates it, so the planner (and users via
//! `--block-words`) can change width freely without changing a single
//! count.

mod common;

use common::{forward_range, oracle_forward_counts, reverse_range, two_chunk_range};
use ugraph::testkit::{check, random_graph, TestRng};
use ugraph::{NodeId, UncertainGraph};
use vulnds_sampling::{
    fit_width, BlockWords, CoinTable, DefaultCounts, Direction, PossibleWorld, SuperBlock,
    SuperKernel, LANES,
};

fn arb_graph(rng: &mut TestRng) -> UncertainGraph {
    random_graph(rng, 24, 60)
}

#[test]
fn every_width_forward_equals_oracle_and_each_other() {
    check(40, |rng| {
        let g = arb_graph(rng);
        let range = two_chunk_range(rng);
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        let oracle = oracle_forward_counts(&g, range.clone(), seed);
        let direction = Direction::default();
        for width in BlockWords::ALL {
            let (counts, usage) =
                forward_range(&g, &table, range.clone(), seed, 1, width, direction);
            assert_eq!(counts, oracle, "sequential width {width}, range {range:?}");
            assert!(usage.superblocks > 0, "no superblock accounted at width {width}");
            // The threaded driver partitions by superblock; counts must
            // merge back bit-identically.
            for threads in [2, 5] {
                let (par, _) =
                    forward_range(&g, &table, range.clone(), seed, threads, width, direction);
                assert_eq!(par, oracle, "parallel width {width}, threads {threads}");
            }
        }
    });
}

#[test]
fn every_width_reverse_equals_oracle_and_each_other() {
    check(40, |rng| {
        let g = arb_graph(rng);
        let range = two_chunk_range(rng);
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        // A random candidate subset, shuffled order.
        let mut candidates: Vec<NodeId> = g.nodes().collect();
        for i in (1..candidates.len()).rev() {
            candidates.swap(i, rng.next_bounded(i as u64 + 1) as usize);
        }
        candidates.truncate(rng.range_usize(1, candidates.len()));

        let oracle = {
            let mut counts = DefaultCounts::new(candidates.len());
            for i in range.clone() {
                let world = PossibleWorld::sample_with_table(&g, &table, seed, i);
                let defaulted = world.defaulted_nodes(&g);
                let mask: Vec<bool> = candidates.iter().map(|&v| defaulted[v.index()]).collect();
                counts.record_mask(&mask);
            }
            counts
        };
        for width in BlockWords::ALL {
            let (counts, _) = reverse_range(&g, &table, &candidates, range.clone(), seed, 1, width);
            assert_eq!(counts, oracle, "sequential width {width}, range {range:?}");
            let (par, _) = reverse_range(&g, &table, &candidates, range.clone(), seed, 3, width);
            assert_eq!(par, oracle, "parallel width {width}");
        }
    });
}

/// Lazy-vs-eager at every width: forcing all edge word-vectors up front
/// must leave the forward pass bit-identical to frontier-lazy synthesis.
#[test]
fn lazy_and_eager_edge_words_agree_at_every_width() {
    fn run<const W: usize>(g: &UncertainGraph, table: &CoinTable, seed: u64) {
        let mut eager_block = SuperBlock::<W>::new(g);
        let mut lazy_block = SuperBlock::<W>::new(g);
        let mut kernel = SuperKernel::<W>::new(g);
        let span = (W * LANES) as u64;
        for sb in 0..2u64 {
            eager_block.materialize(g, table, seed, sb * span, span as usize);
            eager_block.force_edges(table);
            let eager_words = kernel.forward_defaults(g, table, &mut eager_block).to_vec();
            lazy_block.materialize(g, table, seed, sb * span, span as usize);
            let lazy_words = kernel.forward_defaults(g, table, &mut lazy_block).to_vec();
            assert_eq!(eager_words, lazy_words, "width {W}, superblock {sb}");
        }
    }
    check(20, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        run::<1>(&g, &table, seed);
        run::<2>(&g, &table, seed);
        run::<4>(&g, &table, seed);
        run::<8>(&g, &table, seed);
    });
}

/// Every lane of every width unpacks to exactly the oracle world —
/// the strongest form of the stream contract (worlds, not just counts).
#[test]
fn superblock_lanes_are_oracle_worlds_at_every_width() {
    fn run<const W: usize>(g: &UncertainGraph, table: &CoinTable, seed: u64, rng: &mut TestRng) {
        let span = (W * LANES) as u64;
        let first = rng.next_bounded(3) * span;
        let lanes = rng.range_usize(1, W * LANES);
        let mut block = SuperBlock::<W>::new(g);
        block.materialize(g, table, seed, first, lanes);
        for _ in 0..4 {
            let lane = rng.next_bounded(lanes as u64) as usize;
            let expected = PossibleWorld::sample_indexed(g, seed, first + lane as u64);
            assert_eq!(block.lane_world(table, lane), expected, "width {W}, lane {lane}");
        }
    }
    check(20, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        run::<1>(&g, &table, seed, rng);
        run::<2>(&g, &table, seed, rng);
        run::<4>(&g, &table, seed, rng);
        run::<8>(&g, &table, seed, rng);
    });
}

/// `fit_width` narrowing composes with everything else: whatever width
/// the driver actually lands on, counts stay bit-identical.
#[test]
fn fitted_widths_preserve_counts() {
    check(20, |rng| {
        let g = arb_graph(rng);
        let t = rng.range_usize(1, 3000) as u64;
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        let oracle = oracle_forward_counts(&g, 0..t, seed);
        for threads in [1usize, 4, 16] {
            let planned = BlockWords::plan(t, threads);
            let fitted = fit_width(&(0..t), planned, threads);
            assert!(fitted <= planned, "fitting may only narrow");
            let (counts, _) =
                forward_range(&g, &table, 0..t, seed, threads, planned, Direction::default());
            assert_eq!(counts, oracle, "t {t}, threads {threads}, planned {planned}");
        }
    });
}
