//! Helpers shared by the sampling integration suites: the two range
//! passes with the arguments the suites never vary filled in, the
//! `PossibleWorld` oracle, and a range generator that keeps every width.

// Each suite uses only some of these helpers.
#![allow(dead_code)]

use std::ops::Range;
use ugraph::testkit::TestRng;
use ugraph::{NodeId, UncertainGraph};
use vulnds_sampling::{
    fit_width, parallel_forward_counts_range_width_traced,
    parallel_reverse_counts_range_width_traced, BlockWords, CoinTable, CoinUsage, DefaultCounts,
    Direction, PossibleWorld, LANES, MAX_BLOCK_WORDS,
};

/// The forward pass over `range` at `width` in `direction` on `threads`
/// workers, uncancelled and untraced.
pub fn forward_range(
    g: &UncertainGraph,
    table: &CoinTable,
    range: Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
    direction: Direction,
) -> (DefaultCounts, CoinUsage) {
    parallel_forward_counts_range_width_traced(
        g, table, range, seed, threads, width, direction, None, None,
    )
}

/// The reverse pass over `candidates` for `range` at `width` on
/// `threads` workers, uncancelled and untraced.
pub fn reverse_range(
    g: &UncertainGraph,
    table: &CoinTable,
    candidates: &[NodeId],
    range: Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
) -> (DefaultCounts, CoinUsage) {
    parallel_reverse_counts_range_width_traced(
        g, table, candidates, range, seed, threads, width, None, None,
    )
}

/// The oracle: materialize every world one at a time and record its
/// defaulted-node mask.
pub fn oracle_forward_counts(g: &UncertainGraph, range: Range<u64>, seed: u64) -> DefaultCounts {
    let table = CoinTable::new(g);
    let mut counts = DefaultCounts::new(g.num_nodes());
    for i in range {
        let world = PossibleWorld::sample_with_table(g, &table, seed, i);
        counts.record_mask(&world.defaulted_nodes(g));
    }
    counts
}

/// A sample range that always crosses a boundary of the widest
/// superblock (`MAX_BLOCK_WORDS · 64 = 512` worlds) and usually starts
/// and ends mid-superblock. It spans at least two chunks at every width,
/// so a one-thread pass runs at the width it is given: `fit_width` only
/// narrows a range below two chunks per worker.
pub fn two_chunk_range(rng: &mut TestRng) -> Range<u64> {
    let span = MAX_BLOCK_WORDS * LANES;
    let start = rng.range_usize(0, 3 * span) as u64;
    let boundary = (start / span as u64 + 1) * span as u64;
    let range = start..boundary + rng.range_usize(1, span + 7) as u64;
    let widest = BlockWords::ALL[BlockWords::ALL.len() - 1];
    assert_eq!(fit_width(&range, widest, 1), widest, "{range:?} narrows on one thread");
    range
}
