//! # vulnds-bench — experiment harness for the VulnDS reproduction
//!
//! One binary per table/figure of the paper (run with `--release`):
//!
//! | Binary | Reproduces |
//! |--------|-----------|
//! | `table2` | Table 2 — dataset statistics |
//! | `fig4_bk_tuning` | Figure 4 — precision vs `bk` |
//! | `fig5_bound_orders` | Figure 5 — candidate size vs bound order |
//! | `fig6_efficiency` | Figure 6 — runtime of the five algorithms |
//! | `fig7_effectiveness` | Figure 7 — precision of the five algorithms |
//! | `table3_case_study` | Table 3 — default-prediction AUC |
//!
//! Micro-benches live in `benches/` (sampling, bounds, sketch,
//! algorithms, ablations), driven by the dependency-free harness in
//! [`microbench`]. Set `VULNDS_SCALE=1.0` to run experiments at the
//! paper's full dataset sizes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod machine;
pub mod microbench;
pub mod report;
pub mod workload;

use std::ops::Range;
use ugraph::{NodeId, UncertainGraph};
use vulnds_sampling::{
    parallel_forward_counts_range_width_traced, parallel_reverse_counts_range_width_traced,
    BlockWords, CoinTable, CoinUsage, DefaultCounts, Direction,
};

/// One forward pass over `range` at `width` in `direction` on the
/// calling thread, uncancelled and untraced: the fixed-budget unit the
/// sampling micro-benches and the `perf_sanity` gates time. The pass
/// narrows `width` if `range` holds fewer than two of its superblocks.
pub fn forward_on_one_thread(
    graph: &UncertainGraph,
    coins: &CoinTable,
    range: Range<u64>,
    seed: u64,
    width: BlockWords,
    direction: Direction,
) -> (DefaultCounts, CoinUsage) {
    parallel_forward_counts_range_width_traced(
        graph, coins, range, seed, 1, width, direction, None, None,
    )
}

/// The reverse pass over `candidates` like [`forward_on_one_thread`].
pub fn reverse_on_one_thread(
    graph: &UncertainGraph,
    coins: &CoinTable,
    candidates: &[NodeId],
    range: Range<u64>,
    seed: u64,
    width: BlockWords,
) -> (DefaultCounts, CoinUsage) {
    parallel_reverse_counts_range_width_traced(
        graph, coins, candidates, range, seed, 1, width, None, None,
    )
}
