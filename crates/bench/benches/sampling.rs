//! Micro-benchmarks of the sampling substrate, centered on the
//! scalar-vs-block comparison that motivates the bit-parallel data path
//! — now split into its two phases, since the counter-RNG refactor
//! attacks materialization specifically:
//!
//! * `materialize/{scalar,block}` — coin cost only: drawing one world's
//!   coins one at a time vs synthesizing all 64 lane words transposed
//!   (eagerly, so the phase is isolated from traversal order);
//! * `eval/{scalar,block}` — default reachability over pre-materialized
//!   worlds, the PR-2 comparison;
//! * `end_to_end/{scalar,block}` — both phases together; the block path
//!   runs production-shaped, i.e. with frontier-lazy edge words.
//!
//! Results append to stdout and are written to `BENCH_sampling.json`
//! (override the path with `VULNDS_BENCH_JSON`) so the perf trajectory
//! is tracked from PR 2 on, together with the coin precision and the
//! lazy-skip ratio. Raise `VULNDS_BENCH_MS` for tighter medians.

use ugraph::{NodeId, NodeOrder, UncertainGraph};
use vulnds_bench::machine::{available_parallelism, detected_simd, emit_machine};
use vulnds_bench::microbench::{bench, measure, JsonReport};
use vulnds_bench::{forward_on_one_thread, reverse_on_one_thread};
use vulnds_datasets::gen::{chung_lu, erdos, pref_attach};
use vulnds_datasets::{attach_probabilities, ProbabilityModel};
use vulnds_sampling::{
    forward_counts, reverse_counts, BlockKernel, BlockWords, CoinTable, DefaultCounts, Direction,
    ForwardSampler, PossibleWorld, ReverseSampler, ScalarCoins, WorldBlock, Xoshiro256pp,
    COIN_PRECISION, LANES,
};

/// Worlds per end-to-end measurement: two widest superblocks, so every
/// width runs the same fixed budget through one driver call — and a
/// one-thread pass keeps even width 8 (`fit_width` narrows below two
/// chunks per worker).
const WIDTH_BUDGET: u64 = 2 * (vulnds_sampling::MAX_BLOCK_WORDS * LANES) as u64;

struct Family {
    name: &'static str,
    graph: UncertainGraph,
}

/// The acceptance-size families: ≥ 10k nodes each, one per structure
/// generator, financial-skew probabilities so traversals stay sparse but
/// non-trivial.
fn families() -> Vec<Family> {
    let model = ProbabilityModel::financial();
    let mut rng = Xoshiro256pp::new(0xB10C_BE4C);
    let erdos_edges = erdos::generate(12_000, 36_000, &mut rng);
    let erdos_graph = attach_probabilities(12_000, &erdos_edges, model, &mut rng);
    let cl_params =
        chung_lu::ChungLuParams { nodes: 12_000, edges: 30_000, alpha: 2.5, max_degree: 400 };
    let cl_edges = chung_lu::generate(cl_params, &mut rng);
    let cl_graph = attach_probabilities(12_000, &cl_edges, model, &mut rng);
    let pa_params = pref_attach::PrefAttachParams { nodes: 12_000, edges: 14_000, hub_bias: 0.1 };
    let pa_edges = pref_attach::generate(pa_params, &mut rng);
    let pa_graph = attach_probabilities(12_000, &pa_edges, model, &mut rng);
    vec![
        Family { name: "erdos", graph: erdos_graph },
        Family { name: "chung_lu", graph: cl_graph },
        Family { name: "pref_attach", graph: pa_graph },
    ]
}

fn main() {
    let mut report = JsonReport::new();
    for Family { name, graph: g } in families() {
        let n = g.num_nodes();
        let m = g.num_edges();
        let table = CoinTable::new(&g);

        // --- Materialization phase: coins only, no reachability. ---
        // Scalar: every coin of 64 worlds drawn one lane at a time.
        let scalar_mat = measure(&format!("{name}/materialize/scalar_per_64_worlds"), || {
            let mut live = 0usize;
            for i in 0..LANES as u64 {
                let w = PossibleWorld::sample_with_table(&g, &table, 42, i);
                live += w.active_counts().1;
            }
            live
        });
        // Block: the same 64 worlds as transposed lane words, eagerly
        // (force_edges) so the phase excludes traversal effects.
        let mut block = WorldBlock::new(&g);
        let block_mat = measure(&format!("{name}/materialize/block_per_64_worlds"), || {
            block.materialize(&g, &table, 42, 0, LANES);
            block.force_edges(&table);
            block.lane_mask()
        });
        let _ = block.take_usage();

        // --- World evaluation: coins fixed, reachability only. ---
        let worlds: Vec<PossibleWorld> = (0..LANES as u64)
            .map(|i| PossibleWorld::sample_with_table(&g, &table, 42, i))
            .collect();
        let scalar_eval = measure(&format!("{name}/eval/scalar_per_64_worlds"), || {
            let mut counts = DefaultCounts::new(n);
            for w in &worlds {
                counts.record_mask(&w.defaulted_nodes(&g));
            }
            counts.samples()
        });

        // Block: the same 64 worlds, one bit-parallel BFS; edge words
        // are pre-materialized above so no synthesis happens here.
        let mut kernel = BlockKernel::new(&g);
        let block_eval = measure(&format!("{name}/eval/block_per_64_worlds"), || {
            let mut counts = DefaultCounts::new(n);
            let words = kernel.forward_defaults(&g, &table, &mut block);
            counts.record_block(words, block.lane_mask());
            counts.samples()
        });

        // --- End to end: materialization + evaluation. ---
        let mut sampler = ForwardSampler::new(&g);
        let scalar_e2e = measure(&format!("{name}/end_to_end/scalar_per_64_worlds"), || {
            let mut counts = DefaultCounts::new(n);
            for i in 0..LANES as u64 {
                counts.begin_sample();
                sampler
                    .sample_with(&g, &table, &ScalarCoins::new(43, i), |v| counts.bump(v.index()));
            }
            counts.samples()
        });
        let block_e2e = measure(&format!("{name}/end_to_end/block_per_64_worlds"), || {
            forward_on_one_thread(
                &g,
                &table,
                0..LANES as u64,
                43,
                BlockWords::W1,
                Direction::default(),
            )
            .0
            .samples()
        });

        // Per-width superblock rows: the same fixed budget (one widest
        // superblocks = 1024 worlds) through each monomorphized width, so
        // the width effect is isolated from call and allocation shape.
        let mut width_ns = Vec::new();
        for width in BlockWords::ALL {
            let label = format!("{name}/end_to_end/superblock_w{width}_per_{WIDTH_BUDGET}_worlds");
            let m = measure(&label, || {
                forward_on_one_thread(&g, &table, 0..WIDTH_BUDGET, 43, width, Direction::default())
                    .0
                    .samples()
            });
            width_ns.push((width, m.median_secs / WIDTH_BUDGET as f64 * 1e9));
        }
        let planned = BlockWords::plan(WIDTH_BUDGET, 1);
        let w1_ns = width_ns[0].1;
        let planned_ns =
            width_ns.iter().find(|(w, _)| *w == planned).expect("planned width measured").1;

        // Per-direction rows at the planned width: the same fixed budget
        // pinned to push, pinned to pull, and occupancy-switched auto.
        // Counts are bit-identical (see `direction_equivalence.rs`);
        // these rows track the throughput spread direction buys.
        let mut direction_ns = Vec::new();
        for direction in Direction::ALL {
            let m = measure(
                &format!("{name}/end_to_end/superblock_{direction}_per_{WIDTH_BUDGET}_worlds"),
                || {
                    forward_on_one_thread(&g, &table, 0..WIDTH_BUDGET, 43, planned, direction)
                        .0
                        .samples()
                },
            );
            direction_ns.push((direction, m.median_secs / WIDTH_BUDGET as f64 * 1e9));
        }
        let direction_row = |d: Direction| {
            direction_ns.iter().find(|(dd, _)| *dd == d).expect("direction measured").1
        };
        // Auto's step mix over the budget — a two-bucket frontier
        // occupancy histogram (push steps ran sparse, pull steps ran at
        // ≥ n/8 occupancy) plus how often the strategy flipped.
        let (_, auto_usage) =
            forward_on_one_thread(&g, &table, 0..WIDTH_BUDGET, 43, planned, Direction::Auto);
        let auto_steps = (auto_usage.push_steps + auto_usage.pull_steps).max(1);

        // Relabeled-vs-original rows: the same budget through each
        // cache-conscious node order. Relabeling renumbers canonical
        // edge ids, so these runs draw *different* coin streams — the
        // comparison is layout throughput under the same `(ε, δ)`
        // budget, not bit-identity (see `ugraph::relabel`).
        let mut relabel_ns = Vec::new();
        for (label, order) in
            [("degree", NodeOrder::DegreeDescending), ("bfs", NodeOrder::BfsFromHub)]
        {
            let (relabeled, _) = g.relabeled(order);
            let relabeled_table = CoinTable::new(&relabeled);
            let m = measure(
                &format!("{name}/end_to_end/superblock_relabel_{label}_per_{WIDTH_BUDGET}_worlds"),
                || {
                    let direction = Direction::default();
                    forward_on_one_thread(
                        &relabeled,
                        &relabeled_table,
                        0..WIDTH_BUDGET,
                        43,
                        planned,
                        direction,
                    )
                    .0
                    .samples()
                },
            );
            relabel_ns.push((label, m.median_secs / WIDTH_BUDGET as f64 * 1e9));
        }
        let relabel_row =
            |l: &str| relabel_ns.iter().find(|(ll, _)| *ll == l).expect("order measured").1;

        // Lazy-skip ratio of the production path, over a longer run so
        // per-block variation averages out.
        let (_, usage) = forward_on_one_thread(
            &g,
            &table,
            0..(32 * LANES as u64),
            43,
            BlockWords::W1,
            Direction::default(),
        );

        let mat_speedup = scalar_mat.median_secs / block_mat.median_secs;
        let eval_speedup = scalar_eval.median_secs / block_eval.median_secs;
        let e2e_speedup = scalar_e2e.median_secs / block_e2e.median_secs;
        println!(
            "{name}: materialize speedup {mat_speedup:.1}x, eval speedup {eval_speedup:.1}x, \
             end-to-end speedup {e2e_speedup:.1}x, superblock w{planned} vs w1 {:.2}x, \
             lazy skip {:.0}%",
            w1_ns / planned_ns,
            usage.lazy_skip_ratio() * 100.0
        );
        println!(
            "{name}: direction auto vs push {:.2}x (pull share {:.0}%, {} switches), \
             bfs relabel vs original {:.2}x",
            direction_row(Direction::Push) / direction_row(Direction::Auto),
            auto_usage.pull_steps as f64 / auto_steps as f64 * 100.0,
            auto_usage.direction_switches,
            planned_ns / relabel_row("bfs"),
        );

        let per_world = 1.0 / LANES as f64 * 1e9;
        let mut group = report
            .group(name)
            .num("nodes", n as f64)
            .num("edges", m as f64)
            .num("coin_precision_bits", COIN_PRECISION as f64)
            .num("scalar_materialize_per_world_ns", scalar_mat.median_secs * per_world)
            .num("block_materialize_per_world_ns", block_mat.median_secs * per_world)
            .num("materialize_speedup", mat_speedup)
            .num("scalar_eval_per_world_ns", scalar_eval.median_secs * per_world)
            .num("block_eval_per_world_ns", block_eval.median_secs * per_world)
            .num("eval_speedup", eval_speedup)
            .num("scalar_end_to_end_per_world_ns", scalar_e2e.median_secs * per_world)
            .num("block_end_to_end_per_world_ns", block_e2e.median_secs * per_world)
            .num("end_to_end_speedup", e2e_speedup);
        for (width, ns) in &width_ns {
            group = group.num(&format!("superblock_end_to_end_per_world_ns_w{width}"), *ns);
        }
        for (direction, ns) in &direction_ns {
            group = group.num(&format!("superblock_end_to_end_per_world_ns_{direction}"), *ns);
        }
        for (label, ns) in &relabel_ns {
            group = group.num(&format!("superblock_end_to_end_per_world_ns_relabel_{label}"), *ns);
        }
        group
            .num("superblock_end_to_end_per_world_ns", planned_ns)
            .num("superblock_block_words", planned.words() as f64)
            .num("superblock_speedup_vs_w1", w1_ns / planned_ns)
            .num(
                "auto_speedup_vs_push",
                direction_row(Direction::Push) / direction_row(Direction::Auto),
            )
            .num("auto_push_steps", auto_usage.push_steps as f64)
            .num("auto_pull_steps", auto_usage.pull_steps as f64)
            .num("auto_pull_step_share", auto_usage.pull_steps as f64 / auto_steps as f64)
            .num("auto_direction_switches", auto_usage.direction_switches as f64)
            .num("relabel_bfs_speedup_vs_original", planned_ns / relabel_row("bfs"))
            .num("relabel_degree_speedup_vs_original", planned_ns / relabel_row("degree"))
            .num("lazy_edge_skip_ratio", usage.lazy_skip_ratio())
            .num("coin_words_per_world", usage.words as f64 / (32.0 * LANES as f64));
    }

    // Context benches kept from the scalar era: reverse-candidate
    // crossover and parallel scaling, now on the block data path.
    let model = ProbabilityModel::financial();
    let mut rng = Xoshiro256pp::new(7);
    let edges = erdos::generate(3_000, 9_000, &mut rng);
    let g = attach_probabilities(3_000, &edges, model, &mut rng);
    for pct in [1usize, 10, 50] {
        let count = (g.num_nodes() * pct / 100).max(1);
        let candidates: Vec<NodeId> = (0..count as u32).map(NodeId).collect();
        bench(&format!("reverse_by_candidate_fraction/{pct}pct"), || {
            reverse_counts(&g, &candidates, 192, 42, 1)
        });
    }
    // The small-candidate regime the paper's lazy coins won: with the
    // counter RNG the block path only materializes the edge words the
    // candidates' reverse BFS trees touch, so this row now compares the
    // scalar per-world path against the lazy block path explicitly
    // (per 64 worlds over 50 candidates).
    {
        let table = CoinTable::new(&g);
        let candidates: Vec<NodeId> = (0..50u32).map(NodeId).collect();
        let mut scalar_sampler = ReverseSampler::new(&g);
        let mut buf = Vec::new();
        let mut sample_base = 0u64;
        let scalar_small =
            measure("reverse_small_candidate_set/scalar_50cand_per_64_worlds", || {
                let base = sample_base;
                sample_base += LANES as u64;
                let mut hits = 0usize;
                for i in base..base + LANES as u64 {
                    scalar_sampler.sample_candidates(
                        &g,
                        &table,
                        &candidates,
                        ScalarCoins::new(7, i),
                        &mut buf,
                    );
                    hits += buf.iter().filter(|&&h| h).count();
                }
                hits
            });
        let mut block_base = 0u64;
        let block_small = measure("reverse_small_candidate_set/block_50cand_per_64_worlds", || {
            let base = block_base;
            block_base += LANES as u64;
            reverse_on_one_thread(
                &g,
                &table,
                &candidates,
                base..base + LANES as u64,
                7,
                BlockWords::W1,
            )
            .0
            .samples()
        });
        // The superblock reverse path at the widest width, same budget
        // per call as the width rows above.
        let mut wide_base = 0u64;
        let wide_label =
            format!("reverse_small_candidate_set/superblock_w8_per_{WIDTH_BUDGET}_worlds");
        let wide_small = measure(&wide_label, || {
            let base = wide_base;
            wide_base += WIDTH_BUDGET;
            let range = base..base + WIDTH_BUDGET;
            reverse_on_one_thread(&g, &table, &candidates, range, 7, BlockWords::W8).0.samples()
        });
        let (_, usage) = reverse_on_one_thread(
            &g,
            &table,
            &candidates,
            0..(16 * LANES as u64),
            7,
            BlockWords::W1,
        );
        report
            .group("reverse_small_candidate_set")
            .num("nodes", g.num_nodes() as f64)
            .num("edges", g.num_edges() as f64)
            .num("candidates", 50.0)
            .num("scalar_per_world_ns", scalar_small.median_secs / LANES as f64 * 1e9)
            .num("block_per_world_ns", block_small.median_secs / LANES as f64 * 1e9)
            .num("superblock_w8_per_world_ns", wide_small.median_secs / WIDTH_BUDGET as f64 * 1e9)
            .num("speedup", scalar_small.median_secs / block_small.median_secs)
            .num("lazy_edge_skip_ratio", usage.lazy_skip_ratio());
    }
    // `effective_threads` clamps to available_parallelism, so on a
    // machine with fewer cores these rows measure the same (sequential)
    // path — record the hardware limit so trajectory readers can tell.
    let hardware = available_parallelism();
    println!("available_parallelism: {hardware}, simd: {}", detected_simd());
    for threads in [1usize, 2, 4] {
        let effective = threads.min(hardware);
        bench(&format!("parallel_forward/requested_{threads}_effective_{effective}"), || {
            forward_counts(&g, 2048, 42, threads)
        });
    }
    emit_machine(&mut report).num("block_words", BlockWords::plan(WIDTH_BUDGET, 1).words() as f64);

    // Default next to the workspace root, independent of the bench CWD.
    let path = std::env::var("VULNDS_BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sampling.json").to_string()
    });
    report.write(&path).expect("write benchmark report");
    println!("wrote {path}");
}
