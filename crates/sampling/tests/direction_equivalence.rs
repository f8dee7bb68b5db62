//! Direction cross-validation: push, pull, and auto traversal must
//! produce counts **bit-identical** to the `PossibleWorld` oracle and
//! to each other at every width `W ∈ {1, 2, 4, 8}`, every seed, every
//! thread count, on partial superblocks, and with lazy or eager edge
//! word-vectors.
//!
//! This is the property that makes direction a pure throughput knob:
//! the forward fixpoint is a monotone OR-propagation and coin words are
//! random-access functions of `(seed, block, item, level)`, so the
//! order in which the kernel discovers a default — pushed out of a
//! sparse frontier or pulled in over a dense one — cannot change which
//! bits end up set. Only the cost diagnostics (which lazy edge words
//! happened to materialize, how many steps each strategy took) may
//! differ between directions.

mod common;

use common::{forward_range, oracle_forward_counts, two_chunk_range};
use ugraph::testkit::{check, random_graph, TestRng};
use ugraph::UncertainGraph;
use vulnds_sampling::{
    fit_width, BlockWords, CoinTable, Direction, SuperBlock, SuperKernel, LANES, MAX_BLOCK_WORDS,
};

fn arb_graph(rng: &mut TestRng) -> UncertainGraph {
    random_graph(rng, 24, 60)
}

#[test]
fn every_direction_equals_oracle_at_every_width_and_thread_count() {
    check(30, |rng| {
        let g = arb_graph(rng);
        let range = two_chunk_range(rng);
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        let oracle = oracle_forward_counts(&g, range.clone(), seed);
        for width in BlockWords::ALL {
            // The lazy-materialization ledger (covered edge words,
            // materialized + skipped) is `num_edges × covered_words`
            // regardless of direction — directions may split it
            // differently (different touch patterns) but never lose or
            // invent a word.
            let mut ledger: Option<u64> = None;
            for direction in Direction::ALL {
                let (counts, usage) =
                    forward_range(&g, &table, range.clone(), seed, 1, width, direction);
                assert_eq!(counts, oracle, "sequential {direction}, width {width}");
                let total = usage.edge_words_materialized + usage.edge_words_skipped;
                match ledger {
                    None => ledger = Some(total),
                    Some(expected) => assert_eq!(
                        total, expected,
                        "{direction}, width {width}: edge-word ledger out of balance"
                    ),
                }
                for threads in [2usize, 5] {
                    let (par, _) =
                        forward_range(&g, &table, range.clone(), seed, threads, width, direction);
                    assert_eq!(par, oracle, "parallel {direction}, width {width}, {threads}t");
                }
            }
        }
    });
}

/// Pinned directions only run their own step kind, and the switch
/// counter only moves when both kinds actually ran.
#[test]
fn step_counters_are_consistent_with_the_pinned_direction() {
    check(30, |rng| {
        let g = arb_graph(rng);
        let range = two_chunk_range(rng);
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        for direction in Direction::ALL {
            let (_, usage) =
                forward_range(&g, &table, range.clone(), seed, 1, BlockWords::W4, direction);
            match direction {
                Direction::Push => {
                    assert_eq!(usage.pull_steps, 0, "pinned push must never pull");
                    assert_eq!(usage.direction_switches, 0);
                }
                Direction::Pull => {
                    assert_eq!(usage.push_steps, 0, "pinned pull must never push");
                    assert_eq!(usage.direction_switches, 0);
                }
                Direction::Auto => {
                    if usage.push_steps == 0 || usage.pull_steps == 0 {
                        assert_eq!(
                            usage.direction_switches, 0,
                            "auto cannot switch without both step kinds"
                        );
                    }
                }
            }
        }
    });
}

/// Kernel-level equivalence across the full lazy/eager × direction
/// matrix: forcing every edge word-vector up front must leave all three
/// directions bit-identical to frontier-lazy synthesis, per superblock.
#[test]
fn directions_agree_with_lazy_and_eager_edges_at_every_width() {
    fn run<const W: usize>(g: &UncertainGraph, table: &CoinTable, seed: u64) {
        let mut block = SuperBlock::<W>::new(g);
        let mut kernel = SuperKernel::<W>::new(g);
        let span = (W * LANES) as u64;
        for sb in 0..2u64 {
            let mut reference: Option<Vec<u64>> = None;
            for eager in [false, true] {
                for direction in Direction::ALL {
                    block.materialize(g, table, seed, sb * span, span as usize);
                    if eager {
                        block.force_edges(table);
                    }
                    let words =
                        kernel.forward_defaults_directed(g, table, &mut block, direction).to_vec();
                    match &reference {
                        None => reference = Some(words),
                        Some(expected) => assert_eq!(
                            &words, expected,
                            "width {W}, superblock {sb}, {direction}, eager {eager}"
                        ),
                    }
                }
            }
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

/// A partial trailing superblock (covered lanes < W·64) must stay
/// direction-invariant too — the pull sweep's lane masks only cover the
/// populated lanes, exactly like push's seeded frontier.
#[test]
fn partial_superblocks_are_direction_invariant() {
    check(30, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_u64();
        let table = CoinTable::new(&g);
        // (8·64 + 1)..(2·8·64) worlds: one full widest superblock and a
        // partial one, so a one-thread pass keeps every width (a lone
        // partial superblock at an exact width is a `parallel` unit
        // test); the tail is partial at every width but sometimes W1–W4.
        let span = MAX_BLOCK_WORDS * LANES;
        let t = rng.range_usize(span + 1, 2 * span - 1) as u64;
        let oracle = oracle_forward_counts(&g, 0..t, seed);
        for width in BlockWords::ALL {
            assert_eq!(fit_width(&(0..t), width, 1), width, "t {t} narrows width {width}");
            for direction in Direction::ALL {
                let (counts, _) = forward_range(&g, &table, 0..t, seed, 1, width, direction);
                assert_eq!(counts, oracle, "t {t}, width {width}, {direction}");
            }
        }
    });
}
