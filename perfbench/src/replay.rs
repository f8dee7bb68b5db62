//! Layer-by-layer replay of answered queries.
//!
//! The engine does not time its own layers, so the traced run measures
//! them from outside: after the engine answers a query, the replay makes
//! the same public calls the engine made for it — bounds, candidate
//! reduction, coin table, the two `parallel_*_range_width_traced`
//! sampling functions, the bottom-k hash order and loop, top-k selection —
//! each inside its own span. What to redo is read from the answer's own
//! counters (`EngineStats`), so a layer the engine served from its cache
//! is not replayed. The replay keeps a mirror of the session's sample
//! snapshots so a partly cached pass draws exactly the range the engine
//! drew, and two checks keep it honest: the coin words its sampling calls
//! synthesize must equal the engine's `coin_words_synthesized`, and its
//! answer must equal the engine's bit for bit.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

use vulnds::core::{
    basic_sample_size, reduce_candidates, reduced_sample_size, select_top_k, select_top_k_dense,
    AlgorithmKind, ApproxParams, CandidateReduction, DetectRequest, DetectResponse,
    IncrementalBounds, ScoredNode, VulnConfig,
};
use vulnds::sampling::{
    fit_width, parallel_forward_counts_range_width_traced,
    parallel_reverse_counts_range_width_traced, BlockKernel, BlockWords, CoinTable, CoinUsage,
    DefaultCounts, TouchLedger, WorldBlock, LANES,
};
use vulnds::sketch::{bottomk_default_probability, hash_order, UnitHasher};
use vulnds::ugraph::{NodeId, UncertainGraph};

use crate::trace::Tracer;

/// The engine's seed domain for the BSRBK sample-order hash
/// (`HASH_DOMAIN` in `vulnds_core::engine::algorithms`). If the two
/// drift apart, every replayed BSRBK answer stops matching the engine's.
const BSRBK_HASH_DOMAIN: u64 = 0xB077_0A6B_5EED_0001;

/// What replaying one answer produced.
pub struct Replayed {
    /// Coin cost of the replayed sampling calls (sampling functions and BSRBK loop).
    pub usage: CoinUsage,
    /// The replay's own answer.
    pub top_k: Vec<ScoredNode>,
    /// A cached prefix the engine reported reusing was missing from the
    /// mirror and had to be drawn outside any span.
    pub fallback: bool,
}

type Snapshots = BTreeMap<u64, DefaultCounts>;

/// The replay's copy of one session's state on one graph snapshot.
pub struct Replay {
    graph: Arc<UncertainGraph>,
    config: VulnConfig,
    coins: Option<Arc<CoinTable>>,
    bounds: Option<Arc<(Vec<f64>, Vec<f64>)>>,
    reductions: HashMap<usize, Arc<CandidateReduction>>,
    /// Sample snapshots per stream: (forward?, seed, candidates).
    streams: HashMap<(bool, u64, Vec<u32>), Snapshots>,
}

enum Pass<'a> {
    Forward,
    Reverse(&'a [NodeId]),
}

impl Replay {
    pub fn new(graph: Arc<UncertainGraph>, config: VulnConfig) -> Self {
        Replay {
            graph,
            config,
            coins: None,
            bounds: None,
            reductions: HashMap::new(),
            streams: HashMap::new(),
        }
    }

    /// Moves to the next epoch's graph. Everything derived from
    /// probabilities is dropped; sample snapshots stay, because the
    /// replay only reads a snapshot where the engine reported reusing
    /// one, and the engine reuses a stream across an epoch only when it
    /// is bit-identical under the new graph.
    pub fn set_graph(&mut self, graph: Arc<UncertainGraph>) {
        self.graph = graph;
        self.coins = None;
        self.bounds = None;
        self.reductions.clear();
    }

    fn coin_table(&mut self) -> Arc<CoinTable> {
        let graph = &self.graph;
        Arc::clone(self.coins.get_or_insert_with(|| Arc::new(CoinTable::new(graph))))
    }

    fn bounds(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        computed: bool,
    ) -> Arc<(Vec<f64>, Vec<f64>)> {
        let (z, method) = (self.config.bound_order, self.config.bounds_method);
        let graph = Arc::clone(&self.graph);
        // The engine builds its bounds through `IncrementalBounds` (so a
        // later delta can repair them); `compute_bounds` can differ from
        // it in the last bit, so the replay makes the engine's call.
        let compute = || {
            let inc = IncrementalBounds::new((*graph).clone(), z, method);
            Arc::new((inc.lower().to_vec(), inc.upper().to_vec()))
        };
        match &self.bounds {
            Some(b) if !computed => Arc::clone(b),
            _ => {
                let b =
                    if computed { tracer.time("bounds.compute", id, compute) } else { compute() };
                self.bounds = Some(Arc::clone(&b));
                b
            }
        }
    }

    fn reduction(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        k: usize,
        bounds: &(Vec<f64>, Vec<f64>),
        computed: bool,
    ) -> Arc<CandidateReduction> {
        match self.reductions.get(&k) {
            Some(r) if !computed => Arc::clone(r),
            _ => {
                let compute = || Arc::new(reduce_candidates(&bounds.0, &bounds.1, k));
                let r = if computed {
                    tracer.time("candidates.reduce", id, compute)
                } else {
                    compute()
                };
                self.reductions.insert(k, Arc::clone(&r));
                r
            }
        }
    }

    /// One sampling-function call, exactly as the engine's stream cache
    /// makes it (with a touch ledger, at the fitted width).
    fn drive(
        &self,
        coins: &CoinTable,
        pass: &Pass<'_>,
        range: Range<u64>,
        seed: u64,
        width: BlockWords,
    ) -> (DefaultCounts, CoinUsage) {
        let threads = self.config.threads;
        let ledger = TouchLedger::new(self.graph.num_edges());
        let fitted = fit_width(&range, width, threads);
        match pass {
            Pass::Forward => parallel_forward_counts_range_width_traced(
                &self.graph,
                coins,
                range,
                seed,
                threads,
                fitted,
                self.config.direction,
                None,
                Some(&ledger),
            ),
            Pass::Reverse(candidates) => parallel_reverse_counts_range_width_traced(
                &self.graph,
                coins,
                candidates,
                range,
                seed,
                threads,
                fitted,
                None,
                Some(&ledger),
            ),
        }
    }

    /// Counts over samples `0..t`, given that the engine reused the
    /// prefix `0..t0` from its cache: draws `t0..t` the way the engine's
    /// prefix cache does (split at the last superblock boundary inside
    /// the gap) and records the same snapshots.
    #[allow(clippy::too_many_arguments)]
    fn sample(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        pass: Pass<'_>,
        seed: u64,
        t: u64,
        t0: u64,
        usage: &mut CoinUsage,
        fallback: &mut bool,
    ) -> DefaultCounts {
        let coins = self.coin_table();
        let width =
            self.config.block_words.unwrap_or_else(|| BlockWords::plan(t, self.config.threads));
        let key = match &pass {
            Pass::Forward => (true, seed, Vec::new()),
            Pass::Reverse(c) => (false, seed, c.iter().map(|v| v.0).collect()),
        };
        let mut snaps = self.streams.remove(&key).unwrap_or_default();
        let t0 = t0.min(t);
        let mut acc = match snaps.get(&t0) {
            _ if t0 == 0 => None,
            Some(c) => Some(c.clone()),
            None => {
                *fallback = true;
                let (c, _) = self.drive(&coins, &pass, 0..t0, seed, width);
                Some(c)
            }
        };
        // Like the engine's cache, split the gap at its last superblock
        // boundary and snapshot both ends.
        let t_align = t / width.lanes() * width.lanes();
        let mut ends = vec![t];
        if t_align > t0 && t_align < t {
            ends.insert(0, t_align);
        }
        let name = match pass {
            Pass::Forward => "sampling.forward",
            Pass::Reverse(_) => "sampling.reverse",
        };
        let mut from = t0;
        for end in ends.into_iter().filter(|&end| end > t0) {
            let range = from..end;
            from = end;
            let (counts, u) =
                tracer.time(name, id, || self.drive(&coins, &pass, range, seed, width));
            usage.merge(&u);
            let merged = match acc.take() {
                Some(mut base) => {
                    base.merge(&counts);
                    base
                }
                None => counts,
            };
            snaps.insert(end, merged.clone());
            acc = Some(merged);
        }
        self.streams.insert(key, snaps);
        acc.unwrap_or_else(|| DefaultCounts::new(0))
    }

    /// Replays one answered query. `coin_table_built` says whether the
    /// session built its coin table during this query (read from the
    /// session's `coin_tables_built` counter).
    pub fn detect(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        request: &DetectRequest,
        response: &DetectResponse,
        coin_table_built: bool,
    ) -> Replayed {
        let config = self.config.clone();
        let approx = match (request.epsilon, request.delta) {
            (None, None) => config.approx,
            (e, d) => ApproxParams::new(
                e.unwrap_or(config.approx.epsilon()),
                d.unwrap_or(config.approx.delta()),
            )
            .expect("the engine accepted these parameters"),
        };
        let seed = request.seed.unwrap_or(config.seed);
        let k = request.k;
        let engine = &response.engine;
        if coin_table_built {
            let graph = Arc::clone(&self.graph);
            let table = tracer.time("coins.table", id, || CoinTable::new(&graph));
            self.coins = Some(Arc::new(table));
        }
        let mut usage = CoinUsage::default();
        let mut fallback = false;
        let n = self.graph.num_nodes();

        if matches!(request.algorithm, AlgorithmKind::Naive | AlgorithmKind::SampledNaive) {
            let t = match request.algorithm {
                AlgorithmKind::Naive => config.naive_samples,
                _ => config.cap_samples(basic_sample_size(n, k, approx)).max(1),
            };
            let counts = self.sample(
                tracer,
                id,
                Pass::Forward,
                seed,
                t,
                engine.samples_reused,
                &mut usage,
                &mut fallback,
            );
            let top_k =
                tracer.time("topk.select", id, || select_top_k_dense(&counts.estimates(), k));
            return Replayed { usage, top_k, fallback };
        }

        let bounds = self.bounds(tracer, id, !engine.bounds_reused);
        let reduction = self.reduction(tracer, id, k, &bounds, !engine.reduction_reused);
        let midpoint = |v: NodeId| 0.5 * (bounds.0[v.index()] + bounds.1[v.index()]);
        let sr = request.algorithm == AlgorithmKind::SampleReverse;
        let verified: &[NodeId] = if sr { &[] } else { &reduction.verified };
        let (candidates, k_rem) = if sr {
            let mut c = reduction.verified.clone();
            c.extend(reduction.candidates.iter().copied());
            c.sort_unstable_by_key(|v| v.0);
            (c, k)
        } else {
            (reduction.candidates.clone(), k - reduction.verified_count().min(k))
        };
        // Verified nodes lead, scored by their bound midpoints.
        let merge = |chosen: Vec<ScoredNode>| {
            let mut out: Vec<ScoredNode> =
                verified.iter().map(|&node| ScoredNode { node, score: midpoint(node) }).collect();
            out.extend(chosen);
            out.truncate(k);
            out
        };
        if !sr && (k_rem == 0 || candidates.len() <= k_rem) {
            let top_k = tracer.time("topk.select", id, || {
                merge(select_top_k(
                    candidates.iter().map(|&node| ScoredNode { node, score: midpoint(node) }),
                    k_rem,
                ))
            });
            return Replayed { usage, top_k, fallback };
        }
        let t = config.cap_samples(reduced_sample_size(candidates.len(), k_rem, approx)).max(1);

        if request.algorithm != AlgorithmKind::BottomK {
            let counts = self.sample(
                tracer,
                id,
                Pass::Reverse(&candidates),
                seed,
                t,
                engine.samples_reused,
                &mut usage,
                &mut fallback,
            );
            let top_k = tracer.time("topk.select", id, || {
                merge(select_top_k(
                    candidates
                        .iter()
                        .enumerate()
                        .map(|(i, &node)| ScoredNode { node, score: counts.estimate(i) }),
                    k_rem,
                ))
            });
            return Replayed { usage, top_k, fallback };
        }

        // BSRBK: the adaptive bottom-k pass, as the engine runs it.
        let bk = config.bk;
        let hasher = UnitHasher::new(seed ^ BSRBK_HASH_DOMAIN);
        let order = tracer.time("sketch.hash_order", id, || hash_order(&hasher, t as usize));
        let coins = self.coin_table();
        let graph = Arc::clone(&self.graph);
        let pass = tracer.time("bsrbk.loop", id, || {
            bottomk_pass(&graph, &coins, &candidates, &order, &hasher, seed, bk, k_rem)
        });
        usage.merge(&pass.usage);
        let top_k = tracer.time("topk.select", id, || {
            let score = |i: usize| {
                if pass.saturated[i] {
                    bottomk_default_probability(bk, pass.kth_hash[i], t as usize)
                } else {
                    pass.counters[i] as f64 / pass.samples_used as f64
                }
            };
            let scored = candidates
                .iter()
                .enumerate()
                .filter(|(i, _)| !pass.early_stopped || pass.saturated[*i])
                .map(|(i, &node)| ScoredNode { node, score: score(i) });
            merge(select_top_k(scored, k_rem))
        });
        Replayed { usage, top_k, fallback }
    }
}

struct BottomKPass {
    counters: Vec<u32>,
    kth_hash: Vec<f64>,
    saturated: Vec<bool>,
    samples_used: u64,
    early_stopped: bool,
    usage: CoinUsage,
}

/// The engine's BSRBK loop: 64 hash-ordered worlds per block, one
/// bit-parallel reverse BFS per unsaturated candidate, lanes replayed in
/// sample order until `k_rem` candidates saturate.
#[allow(clippy::too_many_arguments)]
fn bottomk_pass(
    graph: &UncertainGraph,
    coins: &CoinTable,
    candidates: &[NodeId],
    order: &[u32],
    hasher: &UnitHasher,
    seed: u64,
    bk: usize,
    k_rem: usize,
) -> BottomKPass {
    let mut block = WorldBlock::new(graph);
    let mut kernel = BlockKernel::new(graph);
    let mut counters = vec![0u32; candidates.len()];
    let mut kth_hash = vec![0.0f64; candidates.len()];
    let mut saturated = vec![false; candidates.len()];
    let mut saturated_count = 0usize;
    let mut samples_used = 0u64;
    let mut early_stopped = false;
    let mut ids: Vec<u64> = Vec::with_capacity(LANES);
    let mut active: Vec<(usize, u64)> = Vec::with_capacity(candidates.len());
    'outer: for chunk in order.chunks(LANES) {
        ids.clear();
        ids.extend(chunk.iter().map(|&s| s as u64));
        block.materialize_ids(graph, coins, seed, &ids);
        kernel.begin_block();
        active.clear();
        for (i, &v) in candidates.iter().enumerate().filter(|(i, _)| !saturated[*i]) {
            active.push((i, kernel.reverse_hit_word(graph, coins, &mut block, v)));
        }
        for (lane, &sample_id) in ids.iter().enumerate() {
            let h = hasher.hash_unit(sample_id);
            samples_used += 1;
            for &(i, word) in &active {
                if !saturated[i] && word >> lane & 1 == 1 {
                    counters[i] += 1;
                    if counters[i] as usize == bk {
                        saturated[i] = true;
                        kth_hash[i] = h;
                        saturated_count += 1;
                    }
                }
            }
            if saturated_count >= k_rem {
                early_stopped = true;
                break 'outer;
            }
        }
    }
    BottomKPass {
        counters,
        kth_hash,
        saturated,
        samples_used,
        early_stopped,
        usage: block.take_usage(),
    }
}
