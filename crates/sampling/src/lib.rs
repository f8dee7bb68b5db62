//! # vulnds-sampling — possible-world samplers for uncertain graphs
//!
//! Implements the sampling substrate of the VulnDS system. Every
//! runtime path is **bit-parallel end to end**: worlds are packed as
//! `[u64; W]` word-vectors — `W` consecutive 64-lane home blocks form a
//! *superblock* — one BFS step advances all `W·64` worlds with bitwise
//! AND/OR the compiler autovectorizes, and the lane words themselves
//! are synthesized transposed from a stateless `(seed, block, item,
//! level)` generator, with edge word-vectors materialized lazily when a
//! traversal first touches them. See [`coins`] for the generator,
//! [`block`] for the data path, and [`width`] for runtime width
//! selection (counts are bit-identical at every width).
//!
//! The paper needs exactly two sampling passes, and the crate exports
//! one driver pair for them plus a whole-budget convenience pair — four
//! entry points in all, every one running on the same chunk runner
//! ([`parallel`]):
//!
//! * [`forward_counts`] / [`reverse_counts`] — `t` forward worlds
//!   (Algorithm 1, for N/SN) or `t` per-candidate reverse worlds
//!   (Algorithm 5, for SR/BSR/BSRBK), at the planned width with a
//!   throwaway [`CoinTable`], for callers without a session cache;
//! * [`parallel_forward_counts_range_width_traced`] /
//!   [`parallel_reverse_counts_range_width_traced`] — the same passes
//!   over any sample-id range with a cached [`CoinTable`], an explicit
//!   [`BlockWords`] width (fitted to the thread count by [`fit_width`]),
//!   a forward traversal [`Direction`], an optional [`CancelToken`]
//!   (a cancelled pass returns a replayable chunk-aligned prefix) and an
//!   optional [`TouchLedger`] of touched edges. They return the counts
//!   plus the [`CoinUsage`] cost counters; the engine calls these.
//!
//! Counts are bit-identical for every thread count, width, direction,
//! range split and ledger choice. Underneath:
//!
//! * [`CoinTable`] / [`coins`] — per-graph dyadic thresholds plus the
//!   stateless bit-sliced Bernoulli synthesis.
//! * [`SuperBlock`] / [`SuperKernel`] — the W×64-lane possible-world
//!   kernel behind both passes; [`WorldBlock`] / [`BlockKernel`] are the
//!   width-1 aliases used by scattered-lane adaptive passes (BSRBK).
//! * [`ForwardSampler`] — scalar reference for the inner loop of the
//!   paper's Algorithm 1 (one world at a time).
//! * [`ReverseSampler`] — scalar reference for Algorithm 5: per-candidate
//!   reverse BFS with result caches and lazy coins.
//! * [`PossibleWorld`] / [`WorldEnumerator`] — fully-materialized worlds,
//!   the semantic oracle everything above is validated against
//!   (bit-identical, not just in distribution).
//!
//! ```
//! use ugraph::{from_parts, DuplicateEdgePolicy};
//! use vulnds_sampling::forward_counts;
//!
//! // 0 → 1 chain: p(0) = 0.5, p(1) = 0.5 · 0.5 = 0.25.
//! let g = from_parts(&[0.5, 0.0], &[(0, 1, 0.5)], DuplicateEdgePolicy::Error).unwrap();
//! let counts = forward_counts(&g, 20_000, 42, 1);
//! assert!((counts.estimate(1) - 0.25).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod block;
pub mod cancel;
pub mod coins;
pub mod counts;
pub mod direction;
pub mod forward;
pub mod parallel;
pub mod reverse;
pub mod rng;
pub mod touch;
pub mod width;
pub mod world;

pub use block::{
    block_chunks, lane_mask, superblock_chunks, BlockKernel, SuperBlock, SuperKernel, WorldBlock,
    LANES,
};
pub use cancel::CancelToken;
pub use coins::{CoinTable, CoinUsage, ScalarCoins, COIN_PRECISION};
pub use counts::DefaultCounts;
pub use direction::Direction;
pub use forward::ForwardSampler;
pub use parallel::{
    fit_width, forward_counts, parallel_forward_counts_range_width_traced,
    parallel_reverse_counts_range_width_traced, reverse_counts,
};
pub use reverse::ReverseSampler;
pub use rng::Xoshiro256pp;
pub use touch::{TouchLedger, TouchedEdges};
pub use width::{BlockWords, MAX_BLOCK_WORDS};
pub use world::{PossibleWorld, WorldEnumerator};
