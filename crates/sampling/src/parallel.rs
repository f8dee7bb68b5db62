//! The two sampling passes — forward worlds for N/SN (Algorithm 1) and
//! per-candidate reverse worlds for SR/BSR/BSRBK (Algorithm 5) — run by
//! one chunk runner over std scoped threads.
//!
//! Work is partitioned by **superblock** (`W·64`-sample aligned chunks,
//! see [`crate::block`]), not by individual sample: workers claim
//! chunks of the range's superblock decomposition from a shared atomic
//! counter, in index order. The calling thread is always worker 0 and
//! spawns `threads − 1` helpers, so a one-thread pass runs inline on the
//! same claim loop. Each chunk's counts are a pure function of
//! `(seed, chunk)` — the coin generator is a stateless counter RNG, so
//! workers share one read-only [`CoinTable`] and never coordinate beyond
//! the claim counter — and partial counts merge with commutative
//! addition, so a pass with any thread count produces **bit-identical
//! counts**, at any width.
//!
//! Sample `i` always draws from the counter-RNG stream derived from
//! `(seed, i)`, so counts over disjoint ranges merge into exactly the
//! counts of the union range — the property the engine's incremental
//! sample cache extends prefixes with — and every count is bit-identical
//! to the scalar [`ForwardSampler`](crate::ForwardSampler) /
//! [`ReverseSampler`](crate::ReverseSampler) references. Reverse counts
//! over any candidate list equal forward counts restricted to it.
//!
//! Cancellation ([`CancelToken`]) is checked before each claim, never
//! mid-chunk: a claimed chunk always finishes. Because claims are a
//! single monotone counter, the set of completed chunks at cancellation
//! is exactly the contiguous prefix `0..C` of the decomposition, so a
//! degraded answer replays bit-identically from its sample count alone.
//!
//! Width-aware chunking: a wide superblock coarsens the partition unit,
//! so before partitioning the passes narrow the requested width until
//! the range decomposes into at least two chunks per worker thread
//! ([`fit_width`]). Counts are width-independent, so narrowing never
//! changes an answer — it only keeps small budgets from starving
//! threads.

use crate::block::{superblock_chunks, SuperBlock, SuperKernel};
use crate::cancel::CancelToken;
use crate::coins::{CoinTable, CoinUsage};
use crate::counts::DefaultCounts;
use crate::direction::Direction;
use crate::touch::TouchLedger;
use crate::width::{with_block_words, BlockWords};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use ugraph::{NodeId, UncertainGraph};

/// Clamps a requested thread count to something sane: at least one, at
/// most one thread per work item, and never more than the machine's
/// available parallelism (extra threads could only contend).
pub(crate) fn effective_threads(requested: usize, work_items: u64) -> usize {
    let hardware = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    requested.max(1).min(work_items.max(1) as usize).min(hardware)
}

/// Number of superblock chunks `range` decomposes into at `width`.
fn chunk_count(range: &Range<u64>, width: BlockWords) -> u64 {
    if range.end <= range.start {
        return 0;
    }
    let span = width.lanes();
    (range.end - 1) / span - range.start / span + 1
}

/// Narrows `width` until the range decomposes into at least
/// [`MIN_UNITS_PER_THREAD`](crate::width::MIN_UNITS_PER_THREAD)
/// superblock chunks per worker thread (or width 1 is reached), so a
/// small budget still saturates and balances all threads even when the
/// planner asked for wide superblocks. Partial chunks count — unlike
/// [`BlockWords::plan`], which requires *full* superblocks, this guards
/// a concrete range where any chunk is real work for a thread. Counts
/// are bit-identical at every width, so this only redistributes work.
pub fn fit_width(range: &Range<u64>, width: BlockWords, threads: usize) -> BlockWords {
    let threads = threads.max(1) as u64;
    let mut width = width;
    while let Some(narrower) = width.narrower() {
        if chunk_count(range, width) >= threads * crate::width::MIN_UNITS_PER_THREAD {
            break;
        }
        width = narrower;
    }
    width
}

/// Runs `t` forward samples (ids `0..t`) and returns per-node default
/// counts: the whole of Algorithm 1 except the final top-k selection.
/// Superblocks are planner-selected ([`BlockWords::plan`]) and coins come
/// from a throwaway [`CoinTable`], for callers without a session cache.
pub fn forward_counts(graph: &UncertainGraph, t: u64, seed: u64, threads: usize) -> DefaultCounts {
    let coins = CoinTable::new(graph);
    let width = BlockWords::plan(t, threads);
    parallel_forward_counts_range_width_traced(
        graph,
        &coins,
        0..t,
        seed,
        threads,
        width,
        Direction::default(),
        None,
        None,
    )
    .0
}

/// Runs `t` reverse samples (ids `0..t`) over `candidates` and returns
/// per-candidate default counts (indexed by candidate position), like
/// [`forward_counts`] with a planned width and a throwaway
/// [`CoinTable`].
pub fn reverse_counts(
    graph: &UncertainGraph,
    candidates: &[NodeId],
    t: u64,
    seed: u64,
    threads: usize,
) -> DefaultCounts {
    let coins = CoinTable::new(graph);
    let width = BlockWords::plan(t, threads);
    parallel_reverse_counts_range_width_traced(
        graph,
        &coins,
        candidates,
        0..t,
        seed,
        threads,
        width,
        None,
        None,
    )
    .0
}

/// Forward samples for the sample ids in `range`, on superblocks of
/// `width` (narrowed by [`fit_width`]) over up to `threads` workers
/// (clamped to the machine and the chunk count), traversing in
/// `direction`. Counts are bit-identical for every width, direction and
/// thread count.
///
/// `cancel` is polled between superblock chunks: a cancelled pass
/// returns the contiguous chunk-aligned prefix it completed (its exact
/// sample count is `counts.samples()`), and replaying with that count as
/// the budget reproduces the prefix bit-identically. `ledger`, when
/// given, receives every worker's touched-edge set — the revalidation
/// bookkeeping for delta-aware sampled-state caches; it never changes a
/// count. Returns the counts plus the merged materialization counters
/// of every worker.
#[allow(clippy::too_many_arguments)]
pub fn parallel_forward_counts_range_width_traced(
    graph: &UncertainGraph,
    coins: &CoinTable,
    range: Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
    direction: Direction,
    cancel: Option<&CancelToken>,
    ledger: Option<&TouchLedger>,
) -> (DefaultCounts, CoinUsage) {
    let width = fit_width(&range, width, threads);
    let threads = effective_threads(threads, chunk_count(&range, width));
    forward_pass(graph, coins, range, seed, threads, width, direction, cancel, ledger)
}

/// Reverse samples over `candidates` for the sample ids in `range`:
/// one bit-parallel reverse BFS per candidate per superblock, with the
/// same width fitting, thread clamping, cancellation prefix and ledger
/// contract as [`parallel_forward_counts_range_width_traced`]. Counts
/// are indexed by candidate position.
#[allow(clippy::too_many_arguments)]
pub fn parallel_reverse_counts_range_width_traced(
    graph: &UncertainGraph,
    coins: &CoinTable,
    candidates: &[NodeId],
    range: Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
    cancel: Option<&CancelToken>,
    ledger: Option<&TouchLedger>,
) -> (DefaultCounts, CoinUsage) {
    let width = fit_width(&range, width, threads);
    let threads = effective_threads(threads, chunk_count(&range, width));
    reverse_pass(graph, coins, candidates, range, seed, threads, width, cancel, ledger)
}

/// The forward pass at exactly `width` on exactly `threads` workers —
/// no fitting, no clamping — so tests can force any width on any range
/// and the threaded merge path on a single core.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_pass(
    graph: &UncertainGraph,
    coins: &CoinTable,
    range: Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
    direction: Direction,
    cancel: Option<&CancelToken>,
    ledger: Option<&TouchLedger>,
) -> (DefaultCounts, CoinUsage) {
    let slots = graph.num_nodes();
    with_block_words!(width, W, {
        run_chunks::<W>(graph, coins, range, seed, slots, threads, cancel, ledger, |w| {
            let words = w.kernel.forward_defaults_directed(graph, coins, &mut w.block, direction);
            w.counts.record_words::<W>(words, w.block.lane_masks());
        })
    })
}

/// The reverse pass at exactly `width` on exactly `threads` workers
/// (see [`forward_pass`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn reverse_pass(
    graph: &UncertainGraph,
    coins: &CoinTable,
    candidates: &[NodeId],
    range: Range<u64>,
    seed: u64,
    threads: usize,
    width: BlockWords,
    cancel: Option<&CancelToken>,
    ledger: Option<&TouchLedger>,
) -> (DefaultCounts, CoinUsage) {
    let slots = candidates.len();
    with_block_words!(width, W, {
        run_chunks::<W>(graph, coins, range, seed, slots, threads, cancel, ledger, |w| {
            w.kernel.reverse_hits_into(graph, coins, &mut w.block, candidates, &mut w.hits);
            w.counts.record_words::<W>(&w.hits, w.block.lane_masks());
        })
    })
}

/// One pass at exactly `width` on the calling thread alone, in the
/// default direction: forward over every node, or reverse over
/// `candidates`. Unit tests pin widths with it that the public passes
/// would narrow.
#[cfg(test)]
pub(crate) fn exact_width_counts(
    graph: &UncertainGraph,
    coins: &CoinTable,
    candidates: Option<&[NodeId]>,
    range: Range<u64>,
    seed: u64,
    width: BlockWords,
) -> (DefaultCounts, CoinUsage) {
    match candidates {
        None => forward_pass(graph, coins, range, seed, 1, width, Direction::default(), None, None),
        Some(cands) => reverse_pass(graph, coins, cands, range, seed, 1, width, None, None),
    }
}

/// One worker's scratch: its superblock and kernel, the reverse pass's
/// hit words, and its partial counts.
struct Worker<const W: usize> {
    block: SuperBlock<W>,
    kernel: SuperKernel<W>,
    hits: Vec<u64>,
    counts: DefaultCounts,
}

/// The chunk runner behind both passes: `threads` workers (the caller
/// plus `threads − 1` helpers) claim the superblock chunks of `range` at
/// width `W`, materialize each one, and hand it to `step`, which
/// evaluates it and records into the worker's `slots` counts. The cancel
/// token is polled before each claim and a claimed chunk always
/// finishes, so the completed set is exactly the contiguous prefix of
/// the decomposition at the counter's final value, whatever the thread
/// count.
#[allow(clippy::too_many_arguments)]
fn run_chunks<const W: usize>(
    graph: &UncertainGraph,
    coins: &CoinTable,
    range: Range<u64>,
    seed: u64,
    slots: usize,
    threads: usize,
    cancel: Option<&CancelToken>,
    ledger: Option<&TouchLedger>,
    step: impl Fn(&mut Worker<W>) + Sync,
) -> (DefaultCounts, CoinUsage) {
    let chunks: Vec<Range<u64>> = superblock_chunks(range, W).collect();
    let next = AtomicUsize::new(0);
    let work = || {
        let mut w = Worker {
            block: SuperBlock::<W>::new(graph),
            kernel: SuperKernel::<W>::new(graph),
            hits: Vec::new(),
            counts: DefaultCounts::new(slots),
        };
        while !cancel.is_some_and(CancelToken::is_cancelled) {
            // ORDERING: Relaxed — the counter only hands out distinct
            // indices; chunk results flow to the merge through thread
            // join, not this atomic.
            let Some(chunk) = chunks.get(next.fetch_add(1, Ordering::Relaxed)) else { break };
            let lanes = (chunk.end - chunk.start) as usize;
            w.block.materialize(graph, coins, seed, chunk.start, lanes);
            step(&mut w);
        }
        if let Some(ledger) = ledger {
            ledger.absorb(w.block.touched_edges());
        }
        (w.counts, w.block.take_usage())
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let (mut counts, mut usage) = work();
        for helper in helpers {
            let (c, u) = helper.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            counts.merge(&c);
            usage.merge(&u);
        }
        (counts, usage)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coins::ScalarCoins;
    use crate::forward::ForwardSampler;
    use crate::reverse::ReverseSampler;
    use crate::{LANES, MAX_BLOCK_WORDS};
    use ugraph::{from_parts, DuplicateEdgePolicy};

    fn graph() -> UncertainGraph {
        from_parts(
            &[0.3, 0.2, 0.1, 0.4],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.25)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    /// One scalar-reference mask per sample of `range`: forward over
    /// every node, or reverse over `candidates`.
    fn scalar_masks(
        g: &UncertainGraph,
        range: Range<u64>,
        seed: u64,
        candidates: Option<&[NodeId]>,
    ) -> Vec<Vec<bool>> {
        let table = CoinTable::new(g);
        let mut forward = ForwardSampler::new(g);
        let mut reverse = ReverseSampler::new(g);
        range
            .map(|i| match candidates {
                None => forward.sample_mask(g, &table, &ScalarCoins::new(seed, i)),
                Some(cands) => {
                    let mut mask = Vec::new();
                    reverse.sample_candidates(
                        g,
                        &table,
                        cands,
                        ScalarCoins::new(seed, i),
                        &mut mask,
                    );
                    mask
                }
            })
            .collect()
    }

    fn oracle(masks: &[Vec<bool>], slots: usize) -> DefaultCounts {
        let mut counts = DefaultCounts::new(slots);
        masks.iter().for_each(|m| counts.record_mask(m));
        counts
    }

    #[derive(Debug, Clone, Copy)]
    enum Cancel {
        Never,
        Before,
        MidRun,
    }

    #[test]
    fn partitioned_runners_bit_identical_at_forced_thread_counts() {
        // Drive the pass entries directly so the threaded merge path runs
        // even where available_parallelism() == 1; one thread is the
        // caller alone. Every cell — thread count × ledger × cancel ×
        // direction × width — must be the scalar oracle over the prefix
        // it completed.
        let g = graph();
        let coins = CoinTable::new(&g);
        let cands = [NodeId(3), NodeId(1), NodeId(0)];
        let range = 37..1500u64;
        let seed = 9;
        for reverse in [false, true] {
            let targets = reverse.then_some(&cands[..]);
            let slots = targets.map_or(g.num_nodes(), <[NodeId]>::len);
            let masks = scalar_masks(&g, range.clone(), seed, targets);
            let pass = |range: Range<u64>,
                        threads: usize,
                        width: BlockWords,
                        cancel: Option<&CancelToken>,
                        ledger: Option<&TouchLedger>| match targets {
                None => forward_pass(
                    &g,
                    &coins,
                    range,
                    seed,
                    threads,
                    width,
                    Direction::Auto,
                    cancel,
                    ledger,
                ),
                Some(cands) => {
                    reverse_pass(&g, &coins, cands, range, seed, threads, width, cancel, ledger)
                }
            };
            for width in [BlockWords::W1, BlockWords::W4] {
                let mut full_touches = None;
                for threads in [1, 2, 3, 5] {
                    for traced in [false, true] {
                        for cancel in [Cancel::Never, Cancel::Before, Cancel::MidRun] {
                            let cell = format!(
                                "reverse {reverse}, width {width}, threads {threads}, \
                                 traced {traced}, cancel {cancel:?}"
                            );
                            let ledger = traced.then(|| TouchLedger::new(g.num_edges()));
                            let token = CancelToken::new();
                            if let Cancel::Before = cancel {
                                token.cancel();
                            }
                            let polled = match cancel {
                                Cancel::Never => None,
                                Cancel::Before | Cancel::MidRun => Some(&token),
                            };
                            let (counts, usage) = std::thread::scope(|scope| {
                                if let Cancel::MidRun = cancel {
                                    let token = token.clone();
                                    scope.spawn(move || token.cancel());
                                }
                                pass(range.clone(), threads, width, polled, ledger.as_ref())
                            });
                            let used = counts.samples();
                            assert_eq!(counts, oracle(&masks[..used as usize], slots), "{cell}");
                            let end = range.start + used;
                            match cancel {
                                Cancel::Never => assert_eq!(end, range.end, "{cell}"),
                                Cancel::Before => assert_eq!(used, 0, "{cell}"),
                                Cancel::MidRun => {
                                    assert!(
                                        used == 0 || end == range.end || end % width.lanes() == 0,
                                        "{cell}: prefix must end on a chunk boundary"
                                    );
                                    let replay =
                                        pass(range.start..end, threads, width, None, None).0;
                                    assert_eq!(replay, counts, "{cell}: prefix replay");
                                }
                            }
                            // Lazy accounting covers every home block of the
                            // completed prefix exactly once, whatever the
                            // partition.
                            let home_blocks =
                                if used == 0 { 0 } else { (end - 1) / 64 - range.start / 64 + 1 };
                            assert_eq!(
                                usage.edge_words_materialized + usage.edge_words_skipped,
                                home_blocks * g.num_edges() as u64,
                                "{cell}"
                            );
                            // A full traced pass touches the same edges at
                            // every thread count.
                            if let (Some(ledger), Cancel::Never) = (&ledger, cancel) {
                                let touches = ledger.snapshot();
                                assert!(touches.count() > 0, "{cell}");
                                assert_eq!(
                                    full_touches.get_or_insert_with(|| touches.clone()),
                                    &touches,
                                    "{cell}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn exact_widths_match_the_oracle_on_lone_partial_superblocks() {
        // The public passes fit their width to the range, so a range
        // inside one widest superblock never reaches a wide kernel through
        // them. Pin every width here, in every direction and in reverse,
        // on ranges that leave a lone partial superblock at the wide ones.
        let span = (MAX_BLOCK_WORDS * LANES) as u64;
        ugraph::testkit::check(12, |rng| {
            let g = ugraph::testkit::random_graph(rng, 24, 60);
            let coins = CoinTable::new(&g);
            let cands: Vec<NodeId> = g.nodes().step_by(3).collect();
            let seed = rng.next_u64();
            let start = rng.next_bounded(3 * span);
            let inside = start..start + 1 + rng.next_bounded(span - start % span);
            for range in [0..1, 0..63, 5..200, 70..511, 300..512, inside] {
                let forward = oracle(&scalar_masks(&g, range.clone(), seed, None), g.num_nodes());
                let masks = scalar_masks(&g, range.clone(), seed, Some(&cands));
                let reverse = oracle(&masks, cands.len());
                for width in BlockWords::ALL {
                    for direction in Direction::ALL {
                        let (counts, _) = forward_pass(
                            &g,
                            &coins,
                            range.clone(),
                            seed,
                            1,
                            width,
                            direction,
                            None,
                            None,
                        );
                        assert_eq!(counts, forward, "{range:?}, width {width}, {direction}");
                    }
                    let (counts, _) =
                        exact_width_counts(&g, &coins, Some(&cands), range.clone(), seed, width);
                    assert_eq!(counts, reverse, "reverse {range:?}, width {width}");
                }
            }
        });
    }

    #[test]
    fn parallel_forward_bit_identical_to_sequential() {
        let g = graph();
        let seq = forward_counts(&g, 1000, 42, 1);
        assert_eq!(seq, oracle(&scalar_masks(&g, 0..1000, 42, None), g.num_nodes()));
        for threads in [2, 3, 8] {
            assert_eq!(forward_counts(&g, 1000, 42, threads), seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_reverse_bit_identical_to_sequential() {
        let g = graph();
        let cands: Vec<NodeId> = g.nodes().collect();
        let seq = reverse_counts(&g, &cands, 1000, 7, 1);
        assert_eq!(seq, forward_counts(&g, 1000, 7, 1), "reverse over every node is forward");
        for threads in [2, 4] {
            assert_eq!(reverse_counts(&g, &cands, 1000, 7, threads), seq, "threads = {threads}");
        }
    }

    #[test]
    fn pre_cancelled_runs_return_empty_prefix() {
        // The width-fitting entry points honour the token too, inline on
        // the caller (threads = 1) and threaded.
        let g = graph();
        let coins = CoinTable::new(&g);
        let token = CancelToken::new();
        token.cancel();
        let cands: Vec<NodeId> = g.nodes().collect();
        for threads in [1, 4] {
            let (f, _) = parallel_forward_counts_range_width_traced(
                &g,
                &coins,
                0..500,
                9,
                threads,
                BlockWords::W1,
                Direction::Auto,
                Some(&token),
                None,
            );
            assert_eq!(f.samples(), 0, "threads = {threads}");
            let (r, _) = parallel_reverse_counts_range_width_traced(
                &g,
                &coins,
                &cands,
                0..500,
                9,
                threads,
                BlockWords::W1,
                Some(&token),
                None,
            );
            assert_eq!(r.samples(), 0, "threads = {threads}");
        }
    }

    #[test]
    fn mid_run_cancellation_prefix_replays_bit_identically() {
        // Cancel from another thread mid-pass, then replay the run with
        // the observed sample count as the exact budget: the replay must
        // reproduce the degraded counts bit-for-bit at several thread
        // counts. The cancel may land anywhere (including after the full
        // range) — the property must hold wherever it lands.
        let g = graph();
        let coins = CoinTable::new(&g);
        let token = CancelToken::new();
        let counts = std::thread::scope(|scope| {
            let token2 = token.clone();
            scope.spawn(move || token2.cancel());
            parallel_forward_counts_range_width_traced(
                &g,
                &coins,
                0..51_200,
                11,
                3,
                BlockWords::W1,
                Direction::Auto,
                Some(&token),
                None,
            )
            .0
        });
        let used = counts.samples();
        assert_eq!(used % LANES as u64, 0, "prefix must be block-aligned");
        for threads in [1, 2, 5] {
            assert_eq!(forward_counts(&g, used, 11, threads), counts, "replay threads = {threads}");
        }
    }

    #[test]
    fn width_requests_are_bit_identical_for_any_thread_count() {
        let g = graph();
        let coins = CoinTable::new(&g);
        let seq = oracle(&scalar_masks(&g, 0..900, 3, None), g.num_nodes());
        let cands: Vec<NodeId> = g.nodes().collect();
        for width in BlockWords::ALL {
            for threads in [1, 2, 8] {
                let (f, _) = parallel_forward_counts_range_width_traced(
                    &g,
                    &coins,
                    0..900,
                    3,
                    threads,
                    width,
                    Direction::Auto,
                    None,
                    None,
                );
                assert_eq!(f, seq, "forward width {width}, threads {threads}");
                let (r, _) = parallel_reverse_counts_range_width_traced(
                    &g,
                    &coins,
                    &cands,
                    0..900,
                    3,
                    threads,
                    width,
                    None,
                    None,
                );
                assert_eq!(r, seq, "reverse width {width}, threads {threads}");
            }
        }
    }

    #[test]
    fn traced_runs_are_bit_identical_and_record_touches() {
        let g = graph();
        let coins = CoinTable::new(&g);
        let plain = forward_counts(&g, 900, 3, 2);
        let ledger = TouchLedger::new(g.num_edges());
        for threads in [1, 3] {
            let (traced, _) = parallel_forward_counts_range_width_traced(
                &g,
                &coins,
                0..900,
                3,
                threads,
                BlockWords::W2,
                Direction::Auto,
                None,
                Some(&ledger),
            );
            assert_eq!(traced, plain, "threads = {threads}");
        }
        // Every self-risk here is positive and every edge p = 0.5, so at
        // 900 worlds each edge's source defaults somewhere: all edges
        // must appear in the ledger.
        assert_eq!(ledger.count(), g.num_edges());

        let cands: Vec<NodeId> = g.nodes().collect();
        let rplain = reverse_counts(&g, &cands, 900, 3, 2);
        let rledger = TouchLedger::new(g.num_edges());
        let (rtraced, _) = parallel_reverse_counts_range_width_traced(
            &g,
            &coins,
            &cands,
            0..900,
            3,
            2,
            BlockWords::W1,
            None,
            Some(&rledger),
        );
        assert_eq!(rtraced, rplain);
        assert!(rledger.count() > 0);
    }

    #[test]
    fn untouched_edges_cannot_change_counts() {
        // Node 4 has zero self-risk and no in-edges, so no world ever
        // defaults it and the frontier never reaches edge 4 → 0: that
        // edge's survival words are never synthesized. Changing its
        // probability and patching only its threshold must reproduce
        // every count bit-identically — the soundness invariant behind
        // delta-aware stream survival.
        let mut g = from_parts(
            &[0.3, 0.2, 0.1, 0.4, 0.0],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.25), (4, 0, 0.9)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let coins = CoinTable::new(&g);
        let ledger = TouchLedger::new(g.num_edges());
        let run = |g: &UncertainGraph, coins: &CoinTable, ledger| {
            parallel_forward_counts_range_width_traced(
                g,
                coins,
                0..2000,
                21,
                3,
                BlockWords::W2,
                Direction::Auto,
                None,
                ledger,
            )
            .0
        };
        let before = run(&g, &coins, Some(&ledger));
        let dormant = g.find_edge(NodeId(4), NodeId(0)).unwrap();
        assert!(!ledger.intersects(&[dormant.0]), "dormant edge must never materialize");

        g.set_edge_prob(dormant, 0.01).unwrap();
        let mut patched = coins.clone();
        patched.patch(&g, &[], &[dormant.0]);
        let after = run(&g, &patched, None);
        assert_eq!(after, before, "untouched-edge delta changed sampled counts");
    }

    #[test]
    fn fit_width_keeps_small_budgets_fine_grained() {
        // A few thousand worlds at width 8 would decompose into too few
        // superblocks to feed 8 threads; the fitted width must narrow
        // until every thread gets at least two chunks.
        let range = 0..2048u64;
        let fitted = fit_width(&range, BlockWords::W8, 8);
        assert_eq!(fitted, BlockWords::W2, "2048 worlds / 8 threads need 128-lane chunks");
        assert!(chunk_count(&range, fitted) >= 16);
        // With more budget the same request keeps its width.
        assert_eq!(fit_width(&(0..8192), BlockWords::W8, 8), BlockWords::W8);
        // Single-threaded runs never narrow below the chunk floor…
        assert_eq!(fit_width(&(0..1024), BlockWords::W8, 1), BlockWords::W8);
        // …and tiny ranges bottom out at width 1 without panicking.
        assert_eq!(fit_width(&(0..64), BlockWords::W8, 4), BlockWords::W1);
        assert_eq!(fit_width(&(5..5), BlockWords::W8, 4), BlockWords::W1);
    }

    #[test]
    fn chunk_counts_match_decomposition() {
        for (range, width) in [
            (0..2048u64, BlockWords::W8),
            (37..411, BlockWords::W1),
            (100..130, BlockWords::W2),
            (0..512, BlockWords::W4),
            (7..7, BlockWords::W8),
        ] {
            assert_eq!(
                chunk_count(&range, width),
                superblock_chunks(range.clone(), width.words()).count() as u64,
                "{range:?} at {width}"
            );
        }
    }

    #[test]
    fn thread_count_edge_cases() {
        let g = graph();
        // zero threads clamps to 1; more threads than blocks also works.
        let a = forward_counts(&g, 5, 1, 0);
        let b = forward_counts(&g, 5, 1, 128);
        assert_eq!(a, b);
        assert_eq!(a.samples(), 5);
    }

    #[test]
    fn zero_samples() {
        let g = graph();
        let c = forward_counts(&g, 0, 1, 4);
        assert_eq!(c.samples(), 0);
    }

    #[test]
    fn effective_threads_clamps_to_available_parallelism() {
        let hardware = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        // No hard cap anymore: a huge request lands exactly on the
        // machine's parallelism (previously frozen at 64).
        assert_eq!(effective_threads(usize::MAX, u64::MAX), hardware);
        assert_eq!(effective_threads(1_000_000, u64::MAX), hardware);
        // Still clamped below by 1 and above by the number of work items.
        assert_eq!(effective_threads(0, 10), 1);
        assert_eq!(effective_threads(8, 1), 1);
        assert_eq!(effective_threads(8, 3), 3.min(hardware));
        assert_eq!(effective_threads(1, 0), 1);
    }
}
