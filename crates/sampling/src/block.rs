//! Bit-parallel world superblocks — the W×64-lane possible-world kernel.
//!
//! A [`SuperBlock`] packs **`W · 64` possible worlds** — `W` consecutive
//! 64-lane *home blocks* — into `[u64; W]` word-vectors stored
//! transposed-contiguously: one word-vector per node (bit `j` of word
//! `w` = "node self-defaulted in lane `j` of home block `w`") and one
//! per edge. [`SuperKernel`] then advances *all `W · 64` worlds per
//! traversal step*: an edge transmission is `W` bitwise AND/ORs over
//! adjacent words — a shape the compiler autovectorizes to SSE/AVX/NEON
//! — so the structural work that dominated the 64-lane path (CSR index
//! arithmetic, frontier queue pushes, epoch checks) is amortized over
//! `W` times as many worlds.
//!
//! [`WorldBlock`] and [`BlockKernel`] are the `W = 1` aliases — the
//! classic 64-lane block path, still used by the scattered-lane adaptive
//! passes (BSRBK, bottom-k scoring) whose hash-order replay is
//! inherently single-word. Runtime width selection lives in
//! [`BlockWords`](crate::BlockWords).
//!
//! Materialization is bit-parallel too: lane words are synthesized
//! transposed, straight from the stateless `(seed, block, item, level)`
//! generator of [`crate::coins`], **per home block** — a superblock
//! holds `W` independent home-block syntheses side by side, which is
//! what keeps counts bit-identical across widths. Edge word-vectors are
//! **frontier-lazy**: [`SuperBlock::edge_word`] synthesizes all `W`
//! words of an edge the first time a traversal touches it, so a
//! superblock costs `O(W·n + W·(edges reached))` coins instead of
//! `O(W·(n + m))`.
//!
//! # The `(seed, block, lane)` stream contract
//!
//! Sample `i` occupies lane `i % 64` of home block `i / 64` — word
//! `(i / 64) % W` of superblock `i / (W · 64)` — and its world is
//! **exactly** [`PossibleWorld::sample_indexed(graph, seed, i)`]: every
//! coin is a fixed bit of the stateless synthesis keyed by
//! `(seed, i / 64, item)`, independent of the superblock width it is
//! evaluated under — see [`crate::coins`] for the generator. Every
//! sampler in this crate (the superblock kernels at every width, the
//! scalar [`ForwardSampler`](crate::ForwardSampler) and
//! [`ReverseSampler`](crate::ReverseSampler) references, and the
//! parallel drivers) evaluates deterministic functions of *those*
//! worlds, which is why counts are **bit-identical** across widths,
//! lazy and eager materialization, block and scalar evaluation, any
//! sample budget (including budgets that are not multiples of `W · 64`,
//! served through per-word lane masks over the partial superblock), and
//! any thread count.
//!
//! [`PossibleWorld::sample_indexed(graph, seed, i)`]: PossibleWorld::sample_indexed

use crate::coins::{bernoulli_bit, bernoulli_words, block_key, edge_key, node_key};
use crate::coins::{CoinTable, CoinUsage};
use crate::direction::Direction;
use crate::touch::TouchedEdges;
use crate::world::PossibleWorld;
use ugraph::{NodeId, UncertainGraph};

/// Number of possible worlds packed into one `u64` lane word: the lane
/// width of the SIMD-within-a-register kernel.
pub const LANES: usize = 64;

/// All-lanes mask for a word holding `lanes` worlds (`lanes ≤ 64`).
#[inline]
pub fn lane_mask(lanes: usize) -> u64 {
    assert!(lanes <= LANES, "a block holds at most {LANES} lanes");
    if lanes == LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// The word-vector of item `i` in a flat stride-`W` slice.
#[inline(always)]
fn wv<const W: usize>(words: &[u64], i: usize) -> &[u64; W] {
    // xlint: allow(panic-hygiene) — the slice is exactly `W` words by
    // construction of the index range, so the conversion is infallible.
    (&words[i * W..i * W + W]).try_into().expect("stride-W word-vector")
}

/// Mutable [`wv`].
#[inline(always)]
fn wv_mut<const W: usize>(words: &mut [u64], i: usize) -> &mut [u64; W] {
    // xlint: allow(panic-hygiene) — same exact-length slice invariant
    // as `wv`.
    (&mut words[i * W..i * W + W]).try_into().expect("stride-W word-vector")
}

/// Per-word lane masks of the sample chunk `first_id .. first_id + lanes`
/// within its `W`-word superblock: word `w` selects the chunk's samples
/// that live in home block `superblock · W + w`. Uncovered home blocks
/// get an all-zero mask (and draw no coins at all).
fn word_masks<const W: usize>(first_id: u64, lanes: usize) -> [u64; W] {
    let span = (W * LANES) as u64;
    let base = first_id / span * span;
    let (lo, hi) = (first_id, first_id + lanes as u64);
    let mut masks = [0u64; W];
    for (w, mask) in masks.iter_mut().enumerate() {
        let word_start = base + (w * LANES) as u64;
        let s = lo.max(word_start);
        let e = hi.min(word_start + LANES as u64);
        if s < e {
            *mask = lane_mask((e - s) as usize) << (s - word_start);
        }
    }
    masks
}

/// Where the current superblock's lanes draw their coins from.
#[derive(Debug, Clone)]
enum LaneSource<const W: usize> {
    /// No superblock materialized yet.
    Empty,
    /// Word `w` holds the 64 consecutive samples of home block
    /// `superblock · W + w`: coins come from transposed 64-lane
    /// synthesis under one block key per word.
    Aligned { keys: [u64; W] },
    /// Lane `j` is the arbitrary sample `ids[j]` (BSRBK hash order):
    /// each lane projects its own home block's synthesis, one bit at a
    /// time. Only built at `W = 1`.
    Scattered { keys: Vec<(u64, u32)> },
}

/// `W · 64` possible worlds packed as per-node and per-edge `[u64; W]`
/// word-vectors (stored transposed-contiguously in flat stride-`W`
/// buffers).
///
/// Node word-vectors are synthesized eagerly at
/// [`materialize`](Self::materialize) time (the forward kernel needs
/// every node's seeds); edge word-vectors are **frontier-lazy** —
/// synthesized by [`edge_word`](Self::edge_word) on first touch and
/// cached for the rest of the superblock via epoch stamps, so untouched
/// edges cost nothing.
///
/// Buffers are reusable: materialization overwrites them in place, so a
/// sampling loop allocates once per run. [`WorldBlock`] is the `W = 1`
/// alias.
#[derive(Debug, Clone)]
pub struct SuperBlock<const W: usize> {
    /// `node_words[v·W + w]` bit `j` — node `v` self-defaulted in lane
    /// `j` of home block `w`.
    node_words: Vec<u64>,
    /// `edge_words[e·W + w]` bit `j` — edge `e` (canonical id) survived
    /// in lane `j` of home block `w`. Valid only where
    /// `edge_epoch[e] == epoch`.
    edge_words: Vec<u64>,
    /// Lazy-materialization stamps: edge `e`'s word-vector belongs to
    /// the current superblock iff `edge_epoch[e] == epoch`.
    edge_epoch: Vec<u32>,
    epoch: u32,
    /// Which lanes of which words hold materialized worlds.
    lane_masks: [u64; W],
    /// Words of `lane_masks` that are non-zero — the per-edge lazy-skip
    /// accounting unit, so partial superblocks are not over-credited.
    covered_words: u64,
    source: LaneSource<W>,
    /// Edge words not yet materialized in the current superblock
    /// (flushed into `usage.edge_words_skipped` when the next superblock
    /// begins).
    pending_edge_words: u64,
    usage: CoinUsage,
    /// Every edge whose survival words this block ever synthesized, in
    /// any superblock — the revalidation ledger: counts are independent
    /// of every unmarked edge's coin (see [`crate::touch`]).
    touched: TouchedEdges,
}

/// The classic 64-lane world block — a [`SuperBlock`] of width 1.
pub type WorldBlock = SuperBlock<1>;

impl<const W: usize> SuperBlock<W> {
    /// Creates an empty superblock with buffers sized for `graph`.
    pub fn new(graph: &UncertainGraph) -> Self {
        assert!(W >= 1 && W <= crate::width::MAX_BLOCK_WORDS && W.is_power_of_two());
        SuperBlock {
            node_words: vec![0; graph.num_nodes() * W],
            edge_words: vec![0; graph.num_edges() * W],
            // Stamps start unequal to every epoch the block can reach,
            // so an edge_word() call before the first materialize()
            // hits the LaneSource::Empty panic instead of silently
            // serving an all-zero word.
            edge_epoch: vec![u32::MAX; graph.num_edges()],
            epoch: 0,
            lane_masks: [0; W],
            covered_words: 0,
            source: LaneSource::Empty,
            pending_edge_words: 0,
            usage: CoinUsage::default(),
            touched: TouchedEdges::new(graph.num_edges()),
        }
    }

    /// Starts a new superblock: flushes lazy-skip accounting and
    /// invalidates all cached edge word-vectors.
    fn begin_block(&mut self, covered_words: u64) {
        self.usage.edge_words_skipped += self.pending_edge_words;
        self.covered_words = covered_words;
        self.pending_edge_words = self.edge_epoch.len() as u64 * covered_words;
        self.usage.superblocks += 1;
        // `u32::MAX` is reserved as the never-materialized sentinel, so
        // recycle one step early.
        if self.epoch >= u32::MAX - 1 {
            self.edge_epoch.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Materializes the worlds of samples `first_id .. first_id + lanes`
    /// (all within one `W·64`-aligned superblock): sample `first_id + i`
    /// occupies lane `(first_id + i) % 64` of word
    /// `(first_id + i) / 64 % W`, so partial chunks of the same
    /// superblock draw the same transposed words and merge exactly —
    /// and the same lane words the width-1 path would synthesize for
    /// each covered home block, which is what keeps every width
    /// bit-identical.
    ///
    /// Node word-vectors are synthesized now; edge word-vectors wait for
    /// [`edge_word`](Self::edge_word) (call
    /// [`force_edges`](Self::force_edges) for the eager equivalent).
    pub fn materialize(
        &mut self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        seed: u64,
        first_id: u64,
        lanes: usize,
    ) {
        let span = (W * LANES) as u64;
        assert!(
            lanes >= 1 && first_id % span + lanes as u64 <= span,
            "chunk crosses a superblock boundary"
        );
        debug_assert!(coins.matches(graph), "stale coin table for this graph");
        debug_assert_eq!(coins.num_nodes(), graph.num_nodes(), "table/graph node mismatch");
        let superblock = first_id / span;
        let mut keys = [0u64; W];
        for (w, key) in keys.iter_mut().enumerate() {
            *key = block_key(seed, superblock * W as u64 + w as u64);
        }
        let masks = word_masks::<W>(first_id, lanes);
        self.begin_block(masks.iter().filter(|&&m| m != 0).count() as u64);
        for (v, out) in self.node_words.chunks_exact_mut(W).enumerate() {
            let t = coins.node_threshold(v);
            let mut item_keys = [0u64; W];
            for w in 0..W {
                item_keys[w] = node_key(keys[w], v);
            }
            let vec = bernoulli_words::<W>(t, &item_keys, &masks, &mut self.usage.words);
            out.copy_from_slice(&vec);
        }
        self.source = LaneSource::Aligned { keys };
        self.lane_masks = masks;
    }

    /// The survival word-vector of edge `e` in the current superblock,
    /// synthesized on first touch (frontier-lazy, all `W` words at once)
    /// and cached for the rest of the superblock.
    #[inline]
    pub fn edge_word(&mut self, coins: &CoinTable, e: usize) -> [u64; W] {
        if self.edge_epoch[e] == self.epoch {
            *wv::<W>(&self.edge_words, e)
        } else {
            self.materialize_edge(coins, e)
        }
    }

    fn materialize_edge(&mut self, coins: &CoinTable, e: usize) -> [u64; W] {
        self.edge_epoch[e] = self.epoch;
        self.touched.mark(e);
        // Saturating: a `take_usage` mid-block already flushed the
        // remaining edge words as skipped, so later touches must not
        // underflow the pending count.
        self.pending_edge_words = self.pending_edge_words.saturating_sub(self.covered_words);
        self.usage.edge_words_materialized += self.covered_words;
        let t = coins.edge_threshold(e);
        let mut vec = [0u64; W];
        match &self.source {
            LaneSource::Aligned { keys } => {
                let mut item_keys = [0u64; W];
                for w in 0..W {
                    item_keys[w] = edge_key(keys[w], e);
                }
                vec = bernoulli_words::<W>(t, &item_keys, &self.lane_masks, &mut self.usage.words);
            }
            LaneSource::Scattered { keys } => {
                let mut word = 0u64;
                if t != 0 {
                    for (j, &(key, lane)) in keys.iter().enumerate() {
                        let coin = bernoulli_bit(t, edge_key(key, e), lane, &mut self.usage.words);
                        word |= (coin as u64) << j;
                    }
                }
                vec[0] = word;
            }
            LaneSource::Empty => panic!("edge_word before materialize"),
        }
        wv_mut::<W>(&mut self.edge_words, e).copy_from_slice(&vec);
        vec
    }

    /// Eagerly synthesizes every edge word-vector of the current
    /// superblock — bit-identical to what the lazy path would produce on
    /// touch. Used by the eager/lazy equivalence tests and the
    /// materialization-phase benchmarks.
    pub fn force_edges(&mut self, coins: &CoinTable) {
        for e in 0..self.edge_epoch.len() {
            let _ = self.edge_word(coins, e);
        }
    }

    /// Per-node self-default word-vectors as a flat stride-`W` slice:
    /// node `v`'s words are `node_words()[v·W .. v·W + W]`. At `W = 1`
    /// this is the classic one-word-per-node layout.
    #[inline]
    pub fn node_words(&self) -> &[u64] {
        &self.node_words
    }

    /// Self-default word-vector of node `v` (always materialized).
    #[inline]
    pub fn node_word_vec(&self, v: usize) -> &[u64; W] {
        wv::<W>(&self.node_words, v)
    }

    /// Per-word masks of materialized lanes. Words whose mask is zero
    /// hold no worlds (partial superblocks at the tail of a budget, or
    /// the head of a cache extension resuming mid-superblock).
    #[inline]
    pub fn lane_masks(&self) -> &[u64; W] {
        &self.lane_masks
    }

    /// Number of materialized lanes across all words.
    #[inline]
    pub fn lane_count(&self) -> usize {
        self.lane_masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Drains the accumulated materialization counters (including the
    /// lazy-skip credit of the current superblock, which is thereby
    /// closed out).
    pub fn take_usage(&mut self) -> CoinUsage {
        self.usage.edge_words_skipped += self.pending_edge_words;
        self.pending_edge_words = 0;
        std::mem::take(&mut self.usage)
    }

    /// Every edge this block has ever materialized a survival word for
    /// (across all superblocks since construction) — the revalidation
    /// ledger consumed by delta-aware caches.
    pub fn touched_edges(&self) -> &TouchedEdges {
        &self.touched
    }

    /// Unpacks one lane (`lane < W · 64`, indexing the superblock's
    /// worlds in sample order) into a [`PossibleWorld`] — a test/debug
    /// helper, bit-identical to sampling that world directly. Forces
    /// every edge word of the superblock.
    pub fn lane_world(&mut self, coins: &CoinTable, lane: usize) -> PossibleWorld {
        let (word, bit_index) = (lane / LANES, lane % LANES);
        assert!(
            word < W && self.lane_masks[word] >> bit_index & 1 == 1,
            "lane {lane} is not materialized"
        );
        self.force_edges(coins);
        let bit = 1u64 << bit_index;
        PossibleWorld {
            self_default: self
                .node_words
                .chunks_exact(W)
                .map(|words| words[word] & bit != 0)
                .collect(),
            edge_live: self
                .edge_words
                .chunks_exact(W)
                .map(|words| words[word] & bit != 0)
                .collect(),
        }
    }
}

impl WorldBlock {
    /// Materializes worlds for explicit sample ids (at most [`LANES`]):
    /// lane `j` is sample `ids[j]`. Used by adaptive passes (BSRBK,
    /// bottom-k scoring) that visit samples in hash order. Each lane
    /// projects one bit out of its home block's synthesis, so scattered
    /// blocks remain bit-identical to the aligned path and the oracle.
    /// Scattered replay is inherently single-word, so this only exists
    /// at `W = 1`.
    pub fn materialize_ids(
        &mut self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        seed: u64,
        ids: &[u64],
    ) {
        assert!(ids.len() <= LANES, "a block holds at most {LANES} lanes");
        debug_assert!(coins.matches(graph), "stale coin table for this graph");
        self.begin_block(1);
        let keys: Vec<(u64, u32)> = ids
            .iter()
            .map(|&id| (block_key(seed, id / LANES as u64), (id % LANES as u64) as u32))
            .collect();
        for (v, word) in self.node_words.iter_mut().enumerate() {
            let t = coins.node_threshold(v);
            let mut w = 0u64;
            if t != 0 {
                for (j, &(key, lane)) in keys.iter().enumerate() {
                    let coin = bernoulli_bit(t, node_key(key, v), lane, &mut self.usage.words);
                    w |= (coin as u64) << j;
                }
            }
            *word = w;
        }
        self.lane_masks = [lane_mask(keys.len())];
        self.source = LaneSource::Scattered { keys };
    }

    /// Mask of materialized lanes — the single word of a width-1 block.
    #[inline]
    pub fn lane_mask(&self) -> u64 {
        self.lane_masks[0]
    }

    /// Self-default lane mask of node `v` (always materialized).
    #[inline]
    pub fn node_word(&self, v: usize) -> u64 {
        self.node_words[v]
    }
}

/// Reusable superblock BFS/propagation kernel. Holds all scratch buffers
/// (flat stride-`W`, like [`SuperBlock`]) so repeated superblocks
/// allocate nothing. Takes the superblock mutably: edge word-vectors
/// materialize lazily as the traversal first touches them.
/// [`BlockKernel`] is the `W = 1` alias.
#[derive(Debug, Clone)]
pub struct SuperKernel<const W: usize> {
    // Forward pass: per-node "defaulted in lane j of word w" vectors.
    defaulted: Vec<u64>,
    // Reverse pass: per-node "reachable from the candidate through
    // surviving edges" vectors, cleared via `touched`.
    reached: Vec<u64>,
    // Per-superblock positive/negative caches shared across candidates:
    // lanes where a node is known to default / known safe.
    hit_known: Vec<u64>,
    safe_known: Vec<u64>,
    queue: Vec<u32>,
    // Next-step frontier of the level-synchronized forward traversal.
    next: Vec<u32>,
    in_queue: Vec<bool>,
    touched: Vec<u32>,
    // Running popcount of `defaulted` across the current forward pass —
    // the live-lane density signal of the Auto direction switch, kept
    // incrementally (one popcount per newly-set word) so reading it per
    // step is free.
    live_lanes: u64,
}

/// The classic 64-lane block kernel — a [`SuperKernel`] of width 1.
pub type BlockKernel = SuperKernel<1>;

impl<const W: usize> SuperKernel<W> {
    /// Creates a kernel with scratch buffers sized for `graph`.
    pub fn new(graph: &UncertainGraph) -> Self {
        let n = graph.num_nodes();
        SuperKernel {
            defaulted: vec![0; n * W],
            reached: vec![0; n * W],
            hit_known: vec![0; n * W],
            safe_known: vec![0; n * W],
            queue: Vec::new(),
            next: Vec::new(),
            in_queue: vec![false; n],
            touched: Vec::new(),
            live_lanes: 0,
        }
    }

    /// Evaluates default reachability for all worlds of `block` at once:
    /// returns per-node word-vectors (flat stride-`W`, node `v` at
    /// `result[v·W .. v·W + W]`) where bit `j` of word `w` says "node
    /// defaults in lane `j` of home block `w`" (self-default or
    /// reachable from a self-defaulted node through surviving edges).
    ///
    /// A level-synchronized frontier fixpoint advances every lane of
    /// every word per step: an edge transmits
    /// `defaulted[source] & edge_word(edge)` as `W` adjacent ANDs, so
    /// the traversal cost is shared by all `W·64` worlds — and the edge
    /// word-vector is only synthesized if the transmission could still
    /// change the target, so untouched edges draw no coins at all.
    /// Runs [`Direction::Auto`]: each step pushes or pulls on measured
    /// frontier occupancy (see [`Self::forward_defaults_directed`]).
    pub fn forward_defaults(
        &mut self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        block: &mut SuperBlock<W>,
    ) -> &[u64] {
        self.forward_defaults_directed(graph, coins, block, Direction::default())
    }

    /// [`Self::forward_defaults`] with an explicit traversal
    /// [`Direction`]. Every step either **pushes** (expand the frontier
    /// queue over out-edges) or **pulls** (sweep every node with
    /// undecided lanes over its in-edges, retiring the scan early once
    /// the node saturates); [`Direction::Auto`] picks per step. A pull
    /// sweep only pays when its two shortcuts fire — skipping saturated
    /// nodes wholesale and breaking the in-edge scan at saturation — so
    /// Auto pulls when the frontier is node-dense (≥ 1/32 of all nodes
    /// queued, a loose Beamer-style occupancy signal) **and** lane-dense
    /// (≥ half of all covered lanes already defaulted, so saturation is
    /// common). On low-probability graphs whose worlds stay lane-sparse
    /// the second condition keeps Auto on the push path throughout.
    ///
    /// The update is a monotone OR and every coin word is random access
    /// by `(seed, block, item, level)`, so touch order cannot change
    /// values: all directions reach the identical fixpoint and the
    /// returned words are **bit-identical** for every choice. Only the
    /// cost diagnostics may differ — push and pull can materialize
    /// different lazy edge subsets on the way to the same answer.
    pub fn forward_defaults_directed(
        &mut self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        block: &mut SuperBlock<W>,
        direction: Direction,
    ) -> &[u64] {
        debug_assert_eq!(block.node_words.len(), self.defaulted.len(), "block/kernel mismatch");
        debug_assert_eq!(block.edge_epoch.len(), graph.num_edges(), "block/graph edge mismatch");
        self.defaulted.copy_from_slice(block.node_words());
        self.queue.clear();
        self.live_lanes = 0;
        for (v, words) in self.defaulted.chunks_exact(W).enumerate() {
            let mut any = 0u64;
            for &w in words {
                any |= w;
                self.live_lanes += u64::from(w.count_ones());
            }
            if any != 0 {
                self.queue.push(v as u32);
            }
        }
        let n = graph.num_nodes();
        let covered_lanes =
            block.lane_masks().iter().map(|m| u64::from(m.count_ones())).sum::<u64>() * n as u64;
        let mut previous: Option<bool> = None;
        while !self.queue.is_empty() {
            let pull = match direction {
                Direction::Push => false,
                Direction::Pull => true,
                // Occupancy switch: pull only when the frontier is
                // node-dense (Beamer) and lane-dense — the regime where
                // the sweep's saturated-node skip and early scan break
                // actually fire (see the method docs). The node bound is
                // deliberately loose (1/32, not the classic 1/8): at
                // high lane density the sweep's saturated-skip makes a
                // pull step nearly free, and thrashing back to push for
                // shrinking-queue tails measurably loses more than the
                // sweep costs.
                Direction::Auto => {
                    self.queue.len() * 32 >= n && 2 * self.live_lanes >= covered_lanes
                }
            };
            if previous.is_some_and(|p| p != pull) {
                block.usage.direction_switches += 1;
            }
            previous = Some(pull);
            if pull {
                block.usage.pull_steps += 1;
                self.pull_step(graph, coins, block);
            } else {
                block.usage.push_steps += 1;
                self.push_step(graph, coins, block);
            }
            std::mem::swap(&mut self.queue, &mut self.next);
        }
        &self.defaulted
    }

    /// One sparse frontier step: expand each queued node's out-edges,
    /// OR its lanes into the targets, and collect every node that
    /// gained lanes as the next frontier.
    fn push_step(&mut self, graph: &UncertainGraph, coins: &CoinTable, block: &mut SuperBlock<W>) {
        self.next.clear();
        for qi in 0..self.queue.len() {
            let v = self.queue[qi] as usize;
            let lanes = *wv::<W>(&self.defaulted, v);
            let targets = graph.out_neighbors(NodeId(v as u32));
            for (e, &t) in graph.out_edge_range(NodeId(v as u32)).zip(targets) {
                let t = t as usize;
                // Lanes the transmission could still infect; if none,
                // the edge word-vector is not even synthesized.
                let mut gate = [0u64; W];
                let mut any = 0u64;
                let target = wv::<W>(&self.defaulted, t);
                for w in 0..W {
                    gate[w] = lanes[w] & !target[w];
                    any |= gate[w];
                }
                if any == 0 {
                    continue;
                }
                let edge = block.edge_word(coins, e);
                let target = wv_mut::<W>(&mut self.defaulted, t);
                let mut new_any = 0u64;
                let mut new_lanes = 0u64;
                for w in 0..W {
                    let new = gate[w] & edge[w];
                    new_any |= new;
                    new_lanes += u64::from(new.count_ones());
                    target[w] |= new;
                }
                self.live_lanes += new_lanes;
                if new_any != 0 && !self.in_queue[t] {
                    self.in_queue[t] = true;
                    self.next.push(t as u32);
                }
            }
        }
        // Restore the all-false `in_queue` invariant between steps (the
        // flags only deduplicate pushes within one step).
        for &t in &self.next {
            self.in_queue[t as usize] = false;
        }
    }

    /// One dense frontier step: sweep every node that still has
    /// undecided lanes, pulling `defaulted[source] & edge` over its
    /// in-edges. Saturated nodes are skipped wholesale, and the in-edge
    /// scan breaks as soon as the node's covered lanes all decide.
    /// Within-sweep reads see already-updated sources (Gauss–Seidel),
    /// which only accelerates convergence — monotonicity makes the
    /// fixpoint schedule-independent.
    fn pull_step(&mut self, graph: &UncertainGraph, coins: &CoinTable, block: &mut SuperBlock<W>) {
        self.next.clear();
        let masks = *block.lane_masks();
        for v in 0..graph.num_nodes() {
            let mut undecided = [0u64; W];
            let mut any_undecided = 0u64;
            {
                let mine = wv::<W>(&self.defaulted, v);
                for w in 0..W {
                    undecided[w] = masks[w] & !mine[w];
                    any_undecided |= undecided[w];
                }
            }
            if any_undecided == 0 {
                continue;
            }
            let mut gained = [0u64; W];
            let mut any_gained = 0u64;
            let sources = graph.in_neighbors(NodeId(v as u32));
            for (&e, &s) in graph.in_edge_ids(NodeId(v as u32)).iter().zip(sources) {
                let mut gate = [0u64; W];
                let mut any = 0u64;
                let source = wv::<W>(&self.defaulted, s as usize);
                for w in 0..W {
                    gate[w] = source[w] & undecided[w];
                    any |= gate[w];
                }
                if any == 0 {
                    continue;
                }
                let edge = block.edge_word(coins, e as usize);
                let mut still = 0u64;
                for w in 0..W {
                    let new = gate[w] & edge[w];
                    gained[w] |= new;
                    any_gained |= new;
                    undecided[w] &= !new;
                    still |= undecided[w];
                }
                if still == 0 {
                    break;
                }
            }
            if any_gained != 0 {
                let mine = wv_mut::<W>(&mut self.defaulted, v);
                for w in 0..W {
                    mine[w] |= gained[w];
                    self.live_lanes += u64::from(gained[w].count_ones());
                }
                self.next.push(v as u32);
            }
        }
    }

    /// Starts a new superblock for [`Self::reverse_hit_words`]: forgets
    /// the per-superblock positive/negative caches. Must be called after
    /// materializing a fresh superblock and before the first candidate
    /// query against it.
    pub fn begin_block(&mut self) {
        self.hit_known.iter_mut().for_each(|w| *w = 0);
        self.safe_known.iter_mut().for_each(|w| *w = 0);
    }

    /// Decides, for every lane of every word of `block` at once, whether
    /// candidate `v` defaults in that lane's world: a reverse BFS over
    /// **in**-edges from `v` looks for a self-defaulted ancestor
    /// reachable through surviving edges, with per-lane frontiers.
    /// Returns the word-vector of worlds where `v` defaults. Edge
    /// word-vectors materialize lazily as the reverse frontier first
    /// crosses them, so the superblock's coin cost is
    /// `O(W · edges reached)`, not `O(W · m)`.
    ///
    /// Results are pure functions of the superblock's worlds, so the
    /// per-superblock caches filled by earlier candidates only skip work
    /// — they can never change an answer.
    pub fn reverse_hit_words(
        &mut self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        block: &mut SuperBlock<W>,
        v: NodeId,
    ) -> [u64; W] {
        let want = *block.lane_masks();
        let mut hit = [0u64; W];
        // Lanes still needing a verdict; shrinks as hits are found.
        let mut undecided = [0u64; W];
        let mut any_undecided = 0u64;
        {
            let known_hit = wv::<W>(&self.hit_known, v.index());
            let known_safe = wv::<W>(&self.safe_known, v.index());
            for w in 0..W {
                hit[w] = known_hit[w] & want[w];
                undecided[w] = want[w] & !hit[w] & !known_safe[w];
                any_undecided |= undecided[w];
            }
        }
        if any_undecided != 0 {
            self.queue.clear();
            self.touched.clear();
            wv_mut::<W>(&mut self.reached, v.index()).copy_from_slice(&undecided);
            self.touched.push(v.0);
            self.queue.push(v.0);
            self.in_queue[v.index()] = true;
            let mut head = 0;
            'bfs: while head < self.queue.len() {
                let u = self.queue[head] as usize;
                head += 1;
                self.in_queue[u] = false;
                let mut active = [0u64; W];
                let mut any_active = 0u64;
                {
                    let reached = wv::<W>(&self.reached, u);
                    for w in 0..W {
                        active[w] = reached[w] & undecided[w];
                        any_active |= active[w];
                    }
                }
                if any_active == 0 {
                    continue;
                }
                // A self-defaulted (or known-defaulted) ancestor decides
                // its lanes immediately.
                let mut hits_here = [0u64; W];
                let mut any_hits = 0u64;
                {
                    let node = block.node_word_vec(u);
                    let known_hit = wv::<W>(&self.hit_known, u);
                    for w in 0..W {
                        hits_here[w] = active[w] & (node[w] | known_hit[w]);
                        any_hits |= hits_here[w];
                    }
                }
                if any_hits != 0 {
                    let mut left = 0u64;
                    for w in 0..W {
                        hit[w] |= hits_here[w];
                        undecided[w] &= !hits_here[w];
                        left |= undecided[w];
                    }
                    if left == 0 {
                        break 'bfs;
                    }
                }
                // Known-safe lanes cannot contain a defaulted ancestor:
                // do not expand them.
                let mut expand = [0u64; W];
                let mut any_expand = 0u64;
                {
                    let known_safe = wv::<W>(&self.safe_known, u);
                    for w in 0..W {
                        expand[w] = active[w] & !hits_here[w] & !known_safe[w];
                        any_expand |= expand[w];
                    }
                }
                if any_expand == 0 {
                    continue;
                }
                let sources = graph.in_neighbors(NodeId(u as u32));
                for (&e, &s) in graph.in_edge_ids(NodeId(u as u32)).iter().zip(sources) {
                    let s = s as usize;
                    let mut gate = [0u64; W];
                    let mut any_gate = 0u64;
                    let mut was_reached = 0u64;
                    {
                        let reached = wv::<W>(&self.reached, s);
                        for w in 0..W {
                            gate[w] = expand[w] & !reached[w];
                            any_gate |= gate[w];
                            was_reached |= reached[w];
                        }
                    }
                    if any_gate == 0 {
                        continue;
                    }
                    let edge = block.edge_word(coins, e as usize);
                    let reached = wv_mut::<W>(&mut self.reached, s);
                    let mut any_new = 0u64;
                    for w in 0..W {
                        let new = gate[w] & edge[w];
                        any_new |= new;
                        reached[w] |= new;
                    }
                    if any_new != 0 {
                        if was_reached == 0 {
                            self.touched.push(s as u32);
                        }
                        if !self.in_queue[s] {
                            self.in_queue[s] = true;
                            self.queue.push(s as u32);
                        }
                    }
                }
            }
            // Reset per-candidate scratch. `in_queue` may hold stale
            // `true` marks when the search broke early, so clear both.
            for &u in &self.touched {
                wv_mut::<W>(&mut self.reached, u as usize).fill(0);
                self.in_queue[u as usize] = false;
            }
        }
        // Record the verdicts: lanes that exhausted without a hit are
        // provably safe for this candidate within this superblock.
        let known_hit = wv_mut::<W>(&mut self.hit_known, v.index());
        for w in 0..W {
            known_hit[w] |= hit[w];
        }
        let known_safe = wv_mut::<W>(&mut self.safe_known, v.index());
        for w in 0..W {
            known_safe[w] |= want[w] & !hit[w];
        }
        hit
    }

    /// [`Self::reverse_hit_words`] over a candidate list, writing one
    /// word-vector per candidate into `out` (cleared and refilled as a
    /// flat stride-`W` buffer, candidate `i` at `out[i·W .. i·W + W]`).
    /// Calls [`Self::begin_block`] internally.
    pub fn reverse_hits_into(
        &mut self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        block: &mut SuperBlock<W>,
        candidates: &[NodeId],
        out: &mut Vec<u64>,
    ) {
        self.begin_block();
        out.clear();
        for &v in candidates {
            let words = self.reverse_hit_words(graph, coins, block, v);
            out.extend_from_slice(&words);
        }
    }
}

impl BlockKernel {
    /// Single-word [`SuperKernel::reverse_hit_words`]: the lane mask of
    /// worlds where candidate `v` defaults. Used by the scattered-lane
    /// adaptive passes (BSRBK), which replay individual lanes.
    pub fn reverse_hit_word(
        &mut self,
        graph: &UncertainGraph,
        coins: &CoinTable,
        block: &mut WorldBlock,
        v: NodeId,
    ) -> u64 {
        self.reverse_hit_words(graph, coins, block, v)[0]
    }
}

/// Splits a sample-id range into chunks that never cross a 64-aligned
/// block boundary — [`superblock_chunks`] at width 1.
pub fn block_chunks(range: std::ops::Range<u64>) -> impl Iterator<Item = std::ops::Range<u64>> {
    superblock_chunks(range, 1)
}

/// Splits a sample-id range into chunks that never cross a
/// `words · 64`-aligned superblock boundary — the unit the parallel
/// driver partitions by and the engine cache snapshots at.
pub fn superblock_chunks(
    range: std::ops::Range<u64>,
    words: usize,
) -> impl Iterator<Item = std::ops::Range<u64>> {
    let span = (words * LANES) as u64;
    let end = range.end.max(range.start);
    let mut next = range.start;
    std::iter::from_fn(move || {
        if next >= end {
            return None;
        }
        let start = next;
        let boundary = (start / span + 1) * span;
        next = boundary.min(end);
        Some(start..next)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::{from_parts, DuplicateEdgePolicy};

    fn chain() -> UncertainGraph {
        from_parts(&[0.5, 0.0, 0.0], &[(0, 1, 0.5), (1, 2, 0.5)], DuplicateEdgePolicy::Error)
            .unwrap()
    }

    fn mesh() -> UncertainGraph {
        from_parts(
            &[0.4, 0.1, 0.2, 0.0, 0.3],
            &[(0, 1, 0.6), (1, 2, 0.5), (2, 0, 0.4), (1, 3, 0.7), (3, 4, 0.9)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn lanes_match_materialized_worlds_bitwise() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        block.materialize(&g, &coins, 42, 128, 64);
        assert_eq!(block.lane_mask(), u64::MAX);
        for j in [0usize, 1, 17, 63] {
            let expected = PossibleWorld::sample_indexed(&g, 42, 128 + j as u64);
            assert_eq!(block.lane_world(&coins, j), expected, "lane {j}");
        }
    }

    #[test]
    fn superblock_lanes_match_materialized_worlds_bitwise() {
        let g = mesh();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<4>::new(&g);
        // Superblock 2 of width 4 covers samples 512..768.
        block.materialize(&g, &coins, 42, 512, 256);
        assert_eq!(block.lane_masks(), &[u64::MAX; 4]);
        assert_eq!(block.lane_count(), 256);
        for lane in [0usize, 63, 64, 100, 191, 255] {
            let expected = PossibleWorld::sample_indexed(&g, 42, 512 + lane as u64);
            assert_eq!(block.lane_world(&coins, lane), expected, "lane {lane}");
        }
    }

    #[test]
    fn superblock_words_match_width1_blocks_bitwise() {
        // Word w of a superblock must hold exactly the lane words a
        // width-1 materialization of home block w would synthesize.
        let g = mesh();
        let coins = CoinTable::new(&g);
        let mut wide = SuperBlock::<4>::new(&g);
        wide.materialize(&g, &coins, 9, 256, 256);
        wide.force_edges(&coins);
        for w in 0..4usize {
            let mut narrow = WorldBlock::new(&g);
            narrow.materialize(&g, &coins, 9, 256 + (w * LANES) as u64, LANES);
            narrow.force_edges(&coins);
            for v in 0..g.num_nodes() {
                assert_eq!(wide.node_word_vec(v)[w], narrow.node_word(v), "node {v} word {w}");
            }
            for e in 0..g.num_edges() {
                assert_eq!(
                    wide.edge_word(&coins, e)[w],
                    narrow.edge_word(&coins, e)[0],
                    "edge {e} word {w}"
                );
            }
        }
    }

    #[test]
    fn partial_blocks_mask_unused_lanes() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        block.materialize(&g, &coins, 7, 0, 5);
        assert_eq!(block.lane_mask(), 0b11111);
        assert_eq!(block.lane_count(), 5);
        block.force_edges(&coins);
        // High lanes read as all-zero coins.
        for w in block.node_words().iter().chain(&block.edge_words) {
            assert_eq!(w & !0b11111, 0);
        }
    }

    #[test]
    fn partial_superblocks_mask_trailing_words() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<4>::new(&g);
        // Samples 0..70: word 0 full, word 1 partial, words 2–3 empty.
        block.materialize(&g, &coins, 7, 0, 70);
        assert_eq!(block.lane_masks(), &[u64::MAX, 0b111111, 0, 0]);
        assert_eq!(block.lane_count(), 70);
        block.force_edges(&coins);
        for words in block.node_words.chunks_exact(4).chain(block.edge_words.chunks_exact(4)) {
            assert_eq!(words[1] & !0b111111, 0);
            assert_eq!(words[2], 0);
            assert_eq!(words[3], 0);
        }
    }

    #[test]
    fn mid_superblock_chunks_mask_leading_words() {
        // A cache extension can resume at a 64-aligned point that is not
        // superblock-aligned: samples 64..256 of a width-4 superblock
        // leave word 0 empty.
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<4>::new(&g);
        block.materialize(&g, &coins, 7, 64, 192);
        assert_eq!(block.lane_masks(), &[0, u64::MAX, u64::MAX, u64::MAX]);
        let mut full = SuperBlock::<4>::new(&g);
        full.materialize(&g, &coins, 7, 0, 256);
        for v in 0..g.num_nodes() {
            assert_eq!(&block.node_word_vec(v)[1..], &full.node_word_vec(v)[1..], "node {v}");
            assert_eq!(block.node_word_vec(v)[0], 0, "node {v} word 0");
        }
    }

    #[test]
    fn unaligned_chunks_share_their_block_words() {
        // Samples 70..75 are lanes 6..11 of block 1: the same transposed
        // words as a full materialization of that block, masked.
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut full = WorldBlock::new(&g);
        full.materialize(&g, &coins, 9, 64, 64);
        full.force_edges(&coins);
        let mut partial = WorldBlock::new(&g);
        partial.materialize(&g, &coins, 9, 70, 5);
        partial.force_edges(&coins);
        assert_eq!(partial.lane_mask(), 0b11111 << 6);
        for v in 0..g.num_nodes() {
            assert_eq!(partial.node_word(v), full.node_word(v) & (0b11111 << 6), "node {v}");
        }
        for e in 0..g.num_edges() {
            assert_eq!(partial.edge_words[e], full.edge_words[e] & (0b11111 << 6), "edge {e}");
        }
    }

    #[test]
    fn lazy_edges_match_eager_edges_bitwise() {
        let g = mesh();
        let coins = CoinTable::new(&g);
        let mut eager = SuperBlock::<2>::new(&g);
        eager.materialize(&g, &coins, 5, 0, 128);
        eager.force_edges(&coins);
        let mut lazy = SuperBlock::<2>::new(&g);
        lazy.materialize(&g, &coins, 5, 0, 128);
        for e in [3usize, 0, 4, 1, 2, 3] {
            assert_eq!(lazy.edge_word(&coins, e), eager.edge_word(&coins, e), "edge {e}");
        }
    }

    #[test]
    fn usage_accounts_for_lazy_skips() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        block.materialize(&g, &coins, 1, 0, 64);
        let _ = block.edge_word(&coins, 0);
        let usage = block.take_usage();
        assert_eq!(usage.edge_words_materialized, 1);
        assert_eq!(usage.edge_words_skipped, 1);
        assert_eq!(usage.superblocks, 1);
        assert!(usage.words > 0);
        assert!((usage.lazy_skip_ratio() - 0.5).abs() < 1e-12);
        // Counters were drained.
        assert_eq!(block.take_usage(), CoinUsage::default());
        // Touching a fresh edge after a mid-block drain must not
        // underflow the pending count (the edge was already credited as
        // skipped by the drain).
        let _ = block.edge_word(&coins, 1);
        let after = block.take_usage();
        assert_eq!(after.edge_words_materialized, 1);
        assert_eq!(after.edge_words_skipped, 0);
    }

    #[test]
    fn superblock_usage_counts_covered_words_only() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<4>::new(&g);
        // 70 lanes cover 2 of the 4 words; touching edge 0 materializes
        // its covered words, edge 1 stays skipped.
        block.materialize(&g, &coins, 1, 0, 70);
        let _ = block.edge_word(&coins, 0);
        let usage = block.take_usage();
        assert_eq!(usage.edge_words_materialized, 2, "2 covered words for the touched edge");
        assert_eq!(usage.edge_words_skipped, 2, "2 covered words for the untouched edge");
        assert_eq!(usage.superblocks, 1);
    }

    #[test]
    fn forward_kernel_matches_scalar_world_evaluation() {
        let g = mesh();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        let mut kernel = BlockKernel::new(&g);
        block.materialize(&g, &coins, 9, 0, 64);
        let words = kernel.forward_defaults(&g, &coins, &mut block).to_vec();
        for j in 0..64 {
            let scalar = block.lane_world(&coins, j).defaulted_nodes(&g);
            for v in 0..g.num_nodes() {
                assert_eq!(words[v] >> j & 1 == 1, scalar[v], "lane {j}, node {v}");
            }
        }
    }

    #[test]
    fn superblock_forward_matches_width1_forward() {
        let g = mesh();
        let coins = CoinTable::new(&g);
        let mut wide = SuperBlock::<8>::new(&g);
        let mut wide_kernel = SuperKernel::<8>::new(&g);
        wide.materialize(&g, &coins, 11, 0, 512);
        let wide_words = wide_kernel.forward_defaults(&g, &coins, &mut wide).to_vec();
        let mut narrow = WorldBlock::new(&g);
        let mut narrow_kernel = BlockKernel::new(&g);
        for w in 0..8usize {
            narrow.materialize(&g, &coins, 11, (w * LANES) as u64, LANES);
            let narrow_words = narrow_kernel.forward_defaults(&g, &coins, &mut narrow);
            for v in 0..g.num_nodes() {
                assert_eq!(wide_words[v * 8 + w], narrow_words[v], "node {v} word {w}");
            }
        }
    }

    #[test]
    fn reverse_kernel_matches_forward_kernel() {
        let g = from_parts(
            &[0.3, 0.2, 0.1, 0.4],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.25), (3, 0, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        let mut kernel = BlockKernel::new(&g);
        block.materialize(&g, &coins, 3, 64, 64);
        let forward = kernel.forward_defaults(&g, &coins, &mut block).to_vec();
        let candidates: Vec<NodeId> = g.nodes().collect();
        let mut hits = Vec::new();
        kernel.reverse_hits_into(&g, &coins, &mut block, &candidates, &mut hits);
        assert_eq!(hits, forward, "reverse and forward must agree on every lane");
        // Repeating candidates exercises the per-block caches.
        let repeated: Vec<NodeId> = candidates.iter().chain(candidates.iter()).copied().collect();
        let mut hits2 = Vec::new();
        kernel.reverse_hits_into(&g, &coins, &mut block, &repeated, &mut hits2);
        assert_eq!(&hits2[..4], &forward[..]);
        assert_eq!(&hits2[4..], &forward[..]);
    }

    #[test]
    fn superblock_reverse_matches_superblock_forward() {
        let g = from_parts(
            &[0.3, 0.2, 0.1, 0.4],
            &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.25), (3, 0, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<2>::new(&g);
        let mut kernel = SuperKernel::<2>::new(&g);
        // Partial superblock: 100 of 128 lanes.
        block.materialize(&g, &coins, 3, 0, 100);
        let forward = kernel.forward_defaults(&g, &coins, &mut block).to_vec();
        let candidates: Vec<NodeId> = g.nodes().collect();
        let mut hits = Vec::new();
        kernel.reverse_hits_into(&g, &coins, &mut block, &candidates, &mut hits);
        assert_eq!(hits, forward, "reverse and forward must agree on every lane");
        let repeated: Vec<NodeId> = candidates.iter().chain(candidates.iter()).copied().collect();
        let mut hits2 = Vec::new();
        kernel.reverse_hits_into(&g, &coins, &mut block, &repeated, &mut hits2);
        assert_eq!(&hits2[..8], &forward[..]);
        assert_eq!(&hits2[8..], &forward[..]);
    }

    #[test]
    fn kernel_reuse_is_stateless_across_blocks() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<2>::new(&g);
        let mut kernel = SuperKernel::<2>::new(&g);
        block.materialize(&g, &coins, 1, 0, 128);
        let first = kernel.forward_defaults(&g, &coins, &mut block).to_vec();
        block.materialize(&g, &coins, 1, 128, 128);
        let _ = kernel.forward_defaults(&g, &coins, &mut block);
        block.materialize(&g, &coins, 1, 0, 128);
        assert_eq!(kernel.forward_defaults(&g, &coins, &mut block), &first[..]);
    }

    #[test]
    fn block_chunks_align_to_64() {
        let chunks: Vec<_> = block_chunks(10..200).collect();
        assert_eq!(chunks, vec![10..64, 64..128, 128..192, 192..200]);
        assert_eq!(block_chunks(0..64).collect::<Vec<_>>(), vec![0..64]);
        assert_eq!(block_chunks(5..5).count(), 0);
        assert_eq!(block_chunks(64..66).collect::<Vec<_>>(), vec![64..66]);
    }

    #[test]
    fn superblock_chunks_align_to_width() {
        let chunks: Vec<_> = superblock_chunks(10..600, 4).collect();
        assert_eq!(chunks, vec![10..256, 256..512, 512..600]);
        assert_eq!(superblock_chunks(0..512, 8).collect::<Vec<_>>(), vec![0..512]);
        assert_eq!(superblock_chunks(5..5, 8).count(), 0);
        assert_eq!(superblock_chunks(100..130, 2).collect::<Vec<_>>(), vec![100..128, 128..130]);
    }

    #[test]
    fn word_masks_cover_chunk_exactly() {
        assert_eq!(word_masks::<4>(0, 256), [u64::MAX; 4]);
        assert_eq!(word_masks::<4>(256, 70), [u64::MAX, 0b111111, 0, 0]);
        assert_eq!(word_masks::<4>(70, 5), [0, 0b11111 << 6, 0, 0]);
        assert_eq!(word_masks::<1>(70, 5), [0b11111 << 6]);
        // Samples 190..192 live in home block 2 = word 0 of superblock 1.
        assert_eq!(word_masks::<2>(190, 2), [0b11 << 62, 0]);
        assert_eq!(word_masks::<2>(254, 2), [0, 0b11 << 62]);
    }

    #[test]
    fn lane_mask_helper() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(64), u64::MAX);
        assert_eq!(lane_mask(63), u64::MAX >> 1);
    }

    #[test]
    #[should_panic(expected = "edge_word before materialize")]
    fn edge_word_requires_a_materialized_block() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        let _ = block.edge_word(&coins, 0);
    }

    #[test]
    #[should_panic(expected = "crosses a superblock boundary")]
    fn materialize_rejects_chunks_crossing_superblocks() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = SuperBlock::<2>::new(&g);
        block.materialize(&g, &coins, 1, 100, 100);
    }

    #[test]
    #[should_panic(expected = "at most 64 lanes")]
    fn materialize_ids_rejects_oversized_blocks() {
        let g = chain();
        let coins = CoinTable::new(&g);
        let mut block = WorldBlock::new(&g);
        let ids: Vec<u64> = (0..65).collect();
        block.materialize_ids(&g, &coins, 1, &ids);
    }
}
