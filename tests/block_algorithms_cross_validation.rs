//! Cross-validation of the engine's five algorithms on the bit-parallel
//! world-block data path against scalar one-world-at-a-time references.
//!
//! The sampling-level bitwise proofs live in
//! `crates/sampling/tests/block_cross_validation.rs`; this suite covers
//! the layers above:
//!
//! * N / SN / SR / BSR answers route through the two sampling passes
//!   (`parallel_*_counts_range_width_traced`), so their estimates must
//!   equal a hand-rolled scalar-oracle run of the same budgets and
//!   candidate sets;
//! * BSRBK's chunked block replay (64 hash-ordered worlds per
//!   `WorldBlock`, lanes replayed in order) must reproduce a scalar
//!   per-sample adaptive pass — counters, saturation hashes, early-stop
//!   point and all;
//! * every algorithm stays bit-identical across thread counts and
//!   budgets that are not multiples of 64 (served via partial lane
//!   masks).

use ugraph::testkit::{check, TestRng};
use vulnds::prelude::*;
use vulnds::sampling::{
    BlockKernel, CoinTable, PossibleWorld, ReverseSampler, ScalarCoins, WorldBlock, LANES,
};
use vulnds::sketch::{bottomk_default_probability, hash_order, UnitHasher};

fn arb_graph(rng: &mut TestRng) -> UncertainGraph {
    let n = rng.range_usize(20, 80);
    let m = rng.range_usize(n, 3 * n);
    let risks: Vec<f64> = (0..n).map(|_| rng.next_f64() * 0.5).collect();
    let edges: Vec<(u32, u32, f64)> = (0..m)
        .map(|_| {
            let u = rng.next_bounded(n as u64) as u32;
            let d = 1 + rng.next_bounded(n as u64 - 1) as u32;
            (u, (u + d) % n as u32, rng.next_f64() * 0.5)
        })
        .collect();
    from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).unwrap()
}

/// N and SN top-k scores equal the scalar-oracle estimates of the same
/// forward budget — at thread counts on both sides of the machine's
/// parallelism and at non-64-multiple budgets.
#[test]
fn forward_algorithms_match_scalar_oracle_estimates() {
    check(8, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1000);
        // A deliberately unaligned fixed budget for N.
        let t = rng.range_usize(65, 300) as u64 | 1;
        for threads in [1usize, 4] {
            let cfg = VulnConfig::default().with_seed(seed).with_threads(threads);
            let d = Detector::builder(&g).config(cfg).naive_samples(t).build().unwrap();
            let r = d.detect(&DetectRequest::new(3, AlgorithmKind::Naive)).unwrap();

            // Scalar oracle: estimate every node over the same worlds.
            let mut counts = vec![0u64; g.num_nodes()];
            for i in 0..t {
                let world = PossibleWorld::sample_indexed(&g, seed, i);
                for (c, d) in counts.iter_mut().zip(world.defaulted_nodes(&g)) {
                    *c += d as u64;
                }
            }
            for scored in &r.top_k {
                let expected = counts[scored.node.index()] as f64 / t as f64;
                assert_eq!(scored.score, expected, "threads {threads}, node {:?}", scored.node);
            }
        }
    });
}

/// SR and BSR scores over an explicit candidate hint equal the scalar
/// oracle projected onto that hint.
#[test]
fn reverse_algorithms_match_scalar_oracle_estimates() {
    check(8, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1000);
        let hint: Vec<NodeId> = (0..10).map(NodeId).collect();
        for kind in [AlgorithmKind::SampleReverse, AlgorithmKind::BoundedSampleReverse] {
            let cfg = VulnConfig::default().with_seed(seed);
            let d = Detector::builder(&g).config(cfg).build().unwrap();
            let req = DetectRequest::new(2, kind).with_candidates(hint.clone());
            let r = d.detect(&req).unwrap();
            let t = r.stats.sample_budget;
            if t == 0 {
                continue; // degenerate BSR plan: bounds decided everything
            }
            let mut counts = vec![0u64; g.num_nodes()];
            for i in 0..t {
                let world = PossibleWorld::sample_indexed(&g, seed, i);
                for (c, d) in counts.iter_mut().zip(world.defaulted_nodes(&g)) {
                    *c += d as u64;
                }
            }
            // Sampled candidates carry exact oracle frequencies. The
            // first `stats.verified` entries are bound-verified nodes
            // with midpoint scores (skipped individually); every entry
            // after them must match the oracle bit for bit.
            for (rank, scored) in r.top_k.iter().enumerate() {
                if rank < r.stats.verified {
                    continue;
                }
                let freq = counts[scored.node.index()] as f64 / t as f64;
                assert_eq!(
                    scored.score, freq,
                    "{kind}: rank {rank} node {:?} scored {} vs oracle {freq}",
                    scored.node, scored.score
                );
            }
        }
    });
}

/// The BSRBK chunk-and-replay loop is an exact reformulation of the
/// scalar per-sample adaptive pass: same counters, same saturation
/// hashes, same stop sample.
#[test]
fn bsrbk_block_replay_matches_scalar_adaptive_pass() {
    check(10, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1000);
        let n = g.num_nodes();
        let candidates: Vec<NodeId> = (0..rng.range_usize(4, 16))
            .map(|_| NodeId(rng.next_bounded(n as u64) as u32))
            .collect();
        let t = rng.range_usize(70, 200);
        let bk = rng.range_usize(2, 6);
        let k_rem = rng.range_usize(1, candidates.len());
        let hasher = UnitHasher::new(seed ^ 0xB077_0A6B_5EED_0001);
        let order = hash_order(&hasher, t);

        // --- Scalar reference: one world per step, stop on saturation.
        let run_scalar = || {
            let table = CoinTable::new(&g);
            let mut sampler = ReverseSampler::new(&g);
            let mut counters = vec![0u32; candidates.len()];
            let mut kth_hash = vec![0.0f64; candidates.len()];
            let mut saturated = vec![false; candidates.len()];
            let mut saturated_count = 0usize;
            let mut used = 0u64;
            let mut stopped = false;
            'outer: for &sample_id in &order {
                let h = hasher.hash_unit(sample_id as u64);
                sampler.begin_sample(ScalarCoins::new(seed, sample_id as u64));
                used += 1;
                for (i, &v) in candidates.iter().enumerate() {
                    if !saturated[i] && sampler.is_influenced(&g, &table, v) {
                        counters[i] += 1;
                        if counters[i] as usize == bk {
                            saturated[i] = true;
                            kth_hash[i] = h;
                            saturated_count += 1;
                        }
                    }
                }
                if saturated_count >= k_rem {
                    stopped = true;
                    break 'outer;
                }
            }
            (counters, kth_hash, saturated, used, stopped)
        };

        // --- Block replay: 64 worlds per chunk, lanes consumed in order.
        let run_block = || {
            let table = CoinTable::new(&g);
            let mut block = WorldBlock::new(&g);
            let mut kernel = BlockKernel::new(&g);
            let mut counters = vec![0u32; candidates.len()];
            let mut kth_hash = vec![0.0f64; candidates.len()];
            let mut saturated = vec![false; candidates.len()];
            let mut saturated_count = 0usize;
            let mut used = 0u64;
            let mut stopped = false;
            'outer: for chunk in order.chunks(LANES) {
                let ids: Vec<u64> = chunk.iter().map(|&s| s as u64).collect();
                block.materialize_ids(&g, &table, seed, &ids);
                kernel.begin_block();
                let active: Vec<(usize, u64)> = candidates
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !saturated[*i])
                    .map(|(i, &v)| (i, kernel.reverse_hit_word(&g, &table, &mut block, v)))
                    .collect();
                for (lane, &sample_id) in ids.iter().enumerate() {
                    let h = hasher.hash_unit(sample_id);
                    used += 1;
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
                        stopped = true;
                        break 'outer;
                    }
                }
            }
            (counters, kth_hash, saturated, used, stopped)
        };

        assert_eq!(run_scalar(), run_block(), "bk {bk}, k_rem {k_rem}, t {t}");
    });
}

/// The engine's *actual* BSRBK implementation (the chunked block replay
/// inside `BottomKEarlyStop::run`, including its `begin_block` cache
/// resets) reproduces a scalar per-sample adaptive pass reconstructed
/// from the engine's own reported plan: same `samples_used`, same
/// early-stop verdict, and bit-identical scores for every sampled
/// top-k entry.
#[test]
fn engine_bsrbk_matches_scalar_adaptive_reference() {
    check(8, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1000);
        let k = rng.range_usize(2, 6);
        let bk = rng.range_usize(2, 5);
        let hint: Vec<NodeId> = g.nodes().collect();
        let cfg = VulnConfig::default().with_seed(seed).with_bk(bk);
        let d = Detector::builder(&g).config(cfg).build().unwrap();
        let req = DetectRequest::new(k, AlgorithmKind::BottomK).with_candidates(hint.clone());
        let r = d.detect(&req).unwrap();
        let t = r.stats.sample_budget;
        if t == 0 {
            return; // degenerate plan: the bounds decided everything
        }
        // Reconstruct the engine's plan from its response: verified
        // nodes lead the top-k, and the sampled candidate set is the
        // hint minus those verified nodes.
        let verified: Vec<NodeId> = r.top_k[..r.stats.verified].iter().map(|s| s.node).collect();
        let candidates: Vec<NodeId> =
            hint.iter().copied().filter(|v| !verified.contains(v)).collect();
        assert_eq!(candidates.len(), r.stats.candidates, "plan reconstruction drifted");
        let k_rem = k - r.stats.verified;

        // Scalar per-sample adaptive pass over the same plan.
        let table = CoinTable::new(&g);
        let hasher = UnitHasher::new(seed ^ 0xB077_0A6B_5EED_0001);
        let order = hash_order(&hasher, t as usize);
        let mut sampler = ReverseSampler::new(&g);
        let mut counters = vec![0u32; candidates.len()];
        let mut kth_hash = vec![0.0f64; candidates.len()];
        let mut saturated = vec![false; candidates.len()];
        let mut saturated_count = 0usize;
        let mut used = 0u64;
        let mut stopped = false;
        'outer: for &sample_id in &order {
            let h = hasher.hash_unit(sample_id as u64);
            sampler.begin_sample(ScalarCoins::new(seed, sample_id as u64));
            used += 1;
            for (i, &v) in candidates.iter().enumerate() {
                if !saturated[i] && sampler.is_influenced(&g, &table, v) {
                    counters[i] += 1;
                    if counters[i] as usize == bk {
                        saturated[i] = true;
                        kth_hash[i] = h;
                        saturated_count += 1;
                    }
                }
            }
            if saturated_count >= k_rem {
                stopped = true;
                break 'outer;
            }
        }
        assert_eq!(used, r.stats.samples_used, "samples_used diverged from the scalar pass");
        assert_eq!(stopped, r.stats.early_stopped, "early-stop verdict diverged");
        // Score every sampled top-k entry exactly as the engine must.
        for (rank, scored) in r.top_k.iter().enumerate().skip(r.stats.verified) {
            let i = candidates.iter().position(|&v| v == scored.node).expect("sampled entry");
            let expected = if saturated[i] {
                bottomk_default_probability(bk, kth_hash[i], t as usize)
            } else {
                assert!(!stopped, "early-stopped selection must come from saturated candidates");
                counters[i] as f64 / used as f64
            };
            assert_eq!(scored.score, expected, "rank {rank} node {:?}", scored.node);
        }
    });
}

/// End to end: all five algorithms agree bitwise across thread counts on
/// warm and cold sessions (extends PR 1's determinism suite to the block
/// data path explicitly).
#[test]
fn five_algorithms_bit_identical_across_thread_counts() {
    check(6, |rng| {
        let g = arb_graph(rng);
        let seed = rng.next_bounded(1000);
        let k = rng.range_usize(1, 5);
        for kind in AlgorithmKind::ALL {
            let mut reference: Option<DetectResponse> = None;
            for threads in [1usize, 3, 16] {
                let d = Detector::builder(&g)
                    .config(VulnConfig::default().with_seed(seed))
                    .threads(threads)
                    .build()
                    .unwrap();
                let r = d.detect(&DetectRequest::new(k, kind)).unwrap();
                match &reference {
                    None => reference = Some(r),
                    Some(e) => {
                        assert_eq!(e.top_k, r.top_k, "{kind} threads {threads}");
                        assert_eq!(e.stats.samples_used, r.stats.samples_used, "{kind}");
                    }
                }
            }
        }
    });
}
