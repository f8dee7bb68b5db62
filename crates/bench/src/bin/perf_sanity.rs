//! CI perf-sanity gates for the world-superblock data path.
//!
//! Four regressions fail this binary (and CI):
//!
//! 1. **Materialization**: the transposed bit-sliced coin synthesis
//!    (eager block materialization) must beat the scalar per-lane path
//!    (drawing the same 64 worlds coin by coin) by at least
//!    [`MATERIALIZE_REQUIRED_SPEEDUP`]. The block kernel's whole point
//!    is that materialization is bit-parallel; the margin is far below
//!    the ~30× the kernel delivers, keeping the gate robust to CI noise.
//! 2. **Superblocks**: the wide path (planner-selected `W`-word
//!    superblocks) must beat the single-word block path on a
//!    fixed-budget forward workload by at least
//!    [`SUPERBLOCK_REQUIRED_SPEEDUP`]. Widening exists to amortize
//!    structural BFS work across `W` words; if the wide kernel is ever
//!    not measurably faster, the superblock path has regressed. The
//!    margin is far below the ~1.4–1.6× measured at width 8.
//! 3. **Direction switching**: on a dense-frontier workload (high
//!    constant edge probabilities over a degree-16 graph, so most
//!    lanes go live) `Direction::Auto` must beat pinned push by at
//!    least [`DIRECTION_REQUIRED_SPEEDUP`] — if the occupancy switch
//!    ever stops engaging the pull sweep where pull wins, the
//!    direction-optimizing path has regressed. The financial-skew
//!    families stay lane-sparse and are deliberately *not* gated:
//!    there Auto's job is to match push, which gates 1–2 cover.
//! 4. **Relabeling**: a BFS-order relabel must beat the same graph
//!    under a scrambled node order by at least
//!    [`RELABEL_REQUIRED_SPEEDUP`] end-to-end. Two deliberate choices:
//!    the gate scrambles the ingest labels first, because generators
//!    emit nodes in an already cache-friendly creation order with
//!    nothing left to recover (measured ≈ 1.0×) — the scramble models
//!    the arbitrary-id layout real ingest produces. And it runs on the
//!    erdos family, not pref_attach: a hub-dominated graph keeps its
//!    hot set (the few high-degree hubs) cache-resident under *any*
//!    labeling, so pref_attach shows no layout effect even scrambled
//!    (measured ≈ 0.96–1.2× run-to-run, pure noise), while the flat
//!    erdos degree profile makes neighbor locality — exactly what
//!    relabeling buys — the dominant cache effect.
//!
//! Usage: `perf_sanity [--quick]`. `--quick` caps the per-measurement
//! budget (`VULNDS_BENCH_MS=60`) so the whole gate runs in a few
//! seconds.

use ugraph::{NodeOrder, UncertainGraph};
use vulnds_bench::forward_on_one_thread;
use vulnds_bench::microbench::measure;
use vulnds_datasets::gen::erdos;
use vulnds_datasets::{attach_probabilities, ProbabilityModel};
use vulnds_sampling::{
    BlockWords, CoinTable, DefaultCounts, Direction, PossibleWorld, SuperBlock, SuperKernel,
    WorldBlock, Xoshiro256pp, LANES, MAX_BLOCK_WORDS,
};

/// Block materialization must beat the scalar per-lane path by at least
/// this factor, or the gate fails.
const MATERIALIZE_REQUIRED_SPEEDUP: f64 = 1.5;

/// The planner-width superblock forward path must beat the single-word
/// block path by at least this factor on the fixed-budget workload, or
/// the gate fails.
const SUPERBLOCK_REQUIRED_SPEEDUP: f64 = 1.05;

/// Fixed forward budget for the superblock gate: several widest
/// superblocks, so both paths amortize their setup identically.
const SUPERBLOCK_BUDGET: u64 = 4 * (vulnds_sampling::MAX_BLOCK_WORDS * LANES) as u64;

/// `Direction::Auto` must beat pinned push by at least this factor on
/// the dense-frontier workload, or the gate fails.
const DIRECTION_REQUIRED_SPEEDUP: f64 = 1.1;

/// The BFS-order relabel must beat the scrambled node order by at least
/// this factor on the fixed-budget forward workload, or the gate fails.
const RELABEL_REQUIRED_SPEEDUP: f64 = 1.05;

/// One widest superblock (worlds `0..MAX_BLOCK_WORDS · 64`) through the
/// width-8 forward kernel in the default direction, returning the
/// samples counted. The range passes would narrow a lone superblock to
/// width 4, so the relabel gate drives the kernel itself.
fn one_widest_superblock(graph: &UncertainGraph, coins: &CoinTable, seed: u64) -> u64 {
    const W: usize = MAX_BLOCK_WORDS;
    let mut block = SuperBlock::<W>::new(graph);
    let mut kernel = SuperKernel::<W>::new(graph);
    let mut counts = DefaultCounts::new(graph.num_nodes());
    block.materialize(graph, coins, seed, 0, W * LANES);
    let words = kernel.forward_defaults_directed(graph, coins, &mut block, Direction::default());
    counts.record_words::<W>(words, block.lane_masks());
    counts.samples()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let defaulted_budget = quick && std::env::var("VULNDS_BENCH_MS").is_err();
    if defaulted_budget {
        std::env::set_var("VULNDS_BENCH_MS", "60");
    }

    let model = ProbabilityModel::financial();
    let mut rng = Xoshiro256pp::new(0x5A11_7E57);
    let edges = erdos::generate(2_000, 6_000, &mut rng);
    let g = attach_probabilities(2_000, &edges, model, &mut rng);
    let table = CoinTable::new(&g);

    let scalar = measure("perf_sanity/scalar_per_lane_materialize_64_worlds", || {
        let mut live = 0usize;
        for i in 0..LANES as u64 {
            live += PossibleWorld::sample_with_table(&g, &table, 7, i).active_counts().1;
        }
        live
    });
    let mut block = WorldBlock::new(&g);
    let blockwise = measure("perf_sanity/block_transposed_materialize_64_worlds", || {
        block.materialize(&g, &table, 7, 0, LANES);
        block.force_edges(&table);
        block.lane_mask()
    });

    let mut failed = false;
    let mat_speedup = scalar.median_secs / blockwise.median_secs;
    println!(
        "perf_sanity: block materialization speedup {mat_speedup:.1}x \
         (required ≥ {MATERIALIZE_REQUIRED_SPEEDUP}x)"
    );
    if mat_speedup.is_nan() || mat_speedup < MATERIALIZE_REQUIRED_SPEEDUP {
        eprintln!(
            "perf_sanity FAILED: block materialization ({:.3} ms) is not ≥ \
             {MATERIALIZE_REQUIRED_SPEEDUP}x faster than the scalar per-lane path ({:.3} ms)",
            blockwise.median_secs * 1e3,
            scalar.median_secs * 1e3,
        );
        failed = true;
    }

    // Superblock gate: same fixed forward budget through the width-1
    // block path and the planner-width superblock path.
    let narrow = measure("perf_sanity/forward_fixed_budget_w1", || {
        forward_on_one_thread(
            &g,
            &table,
            0..SUPERBLOCK_BUDGET,
            11,
            BlockWords::W1,
            Direction::default(),
        )
        .0
        .samples()
    });
    let planned = BlockWords::plan(SUPERBLOCK_BUDGET, 1);
    let wide = measure("perf_sanity/forward_fixed_budget_planned_width", || {
        forward_on_one_thread(&g, &table, 0..SUPERBLOCK_BUDGET, 11, planned, Direction::default())
            .0
            .samples()
    });
    let wide_speedup = narrow.median_secs / wide.median_secs;
    println!(
        "perf_sanity: superblock (w{planned}) forward speedup {wide_speedup:.2}x over w1 \
         (required ≥ {SUPERBLOCK_REQUIRED_SPEEDUP}x)"
    );
    if wide_speedup.is_nan() || wide_speedup < SUPERBLOCK_REQUIRED_SPEEDUP {
        eprintln!(
            "perf_sanity FAILED: the w{planned} superblock forward path ({:.3} ms) is not ≥ \
             {SUPERBLOCK_REQUIRED_SPEEDUP}x faster than the single-word block path ({:.3} ms)",
            wide.median_secs * 1e3,
            narrow.median_secs * 1e3,
        );
        failed = true;
    }

    // Direction gate: high constant probabilities drive most lanes live,
    // so frontiers go dense, nodes saturate fast, and the pull sweep's
    // saturation shortcuts pay — the regime Auto exists for. Dedicated
    // rng so edits to the gates above cannot silently change this graph.
    let mut dense_rng = Xoshiro256pp::new(0xD45E_F407);
    let dense_edges = erdos::generate(2_000, 32_000, &mut dense_rng);
    let dense =
        attach_probabilities(2_000, &dense_edges, ProbabilityModel::Constant(0.9), &mut dense_rng);
    let dense_table = CoinTable::new(&dense);
    // Interleaved rounds with a per-side minimum-of-medians: this runs
    // on shared hardware where steal-time spikes otherwise swamp the
    // effect size (see the relabel gate below for the same treatment).
    let mut push = f64::INFINITY;
    let mut auto = f64::INFINITY;
    for round in 0..3 {
        let p = measure(&format!("perf_sanity/dense_forward_fixed_budget_push_{round}"), || {
            forward_on_one_thread(
                &dense,
                &dense_table,
                0..SUPERBLOCK_BUDGET,
                11,
                planned,
                Direction::Push,
            )
            .0
            .samples()
        });
        push = push.min(p.median_secs);
        let a = measure(&format!("perf_sanity/dense_forward_fixed_budget_auto_{round}"), || {
            forward_on_one_thread(
                &dense,
                &dense_table,
                0..SUPERBLOCK_BUDGET,
                11,
                planned,
                Direction::Auto,
            )
            .0
            .samples()
        });
        auto = auto.min(a.median_secs);
    }
    let auto_speedup = push / auto;
    println!(
        "perf_sanity: dense-frontier auto vs push speedup {auto_speedup:.2}x \
         (required ≥ {DIRECTION_REQUIRED_SPEEDUP}x)"
    );
    if auto_speedup.is_nan() || auto_speedup < DIRECTION_REQUIRED_SPEEDUP {
        eprintln!(
            "perf_sanity FAILED: auto direction ({:.3} ms) is not ≥ \
             {DIRECTION_REQUIRED_SPEEDUP}x faster than pinned push ({:.3} ms) on the \
             dense-frontier workload",
            auto * 1e3,
            push * 1e3,
        );
        failed = true;
    }

    // Relabeling gate: erdos under scrambled ingest labels (see the
    // module docs for the family choice), BFS relabel vs the scrambled
    // layout it must recover. 100k nodes puts the per-superblock working
    // set past L3, so the layout effect is a DRAM-latency effect and
    // survives the frequency throttling that erases cache-resident
    // layout wins on shared runners.
    let mut relabel_rng = Xoshiro256pp::new(0x4E1A_8E10);
    let re_edges = erdos::generate(100_000, 300_000, &mut relabel_rng);
    let mut perm: Vec<u32> = (0..100_000u32).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, relabel_rng.next_bounded(i as u64 + 1) as usize);
    }
    let scrambled_edges: Vec<(u32, u32)> =
        re_edges.iter().map(|&(u, v)| (perm[u as usize], perm[v as usize])).collect();
    let scrambled = attach_probabilities(
        100_000,
        &scrambled_edges,
        ProbabilityModel::financial(),
        &mut relabel_rng,
    );
    let scrambled_table = CoinTable::new(&scrambled);
    let (relabeled, _) = scrambled.relabeled(NodeOrder::BfsFromHub);
    let relabeled_table = CoinTable::new(&relabeled);
    // The layout effect is ~1.1× — resolving it over run-to-run noise
    // needs more batches than the quick default's 3–4, so this gate
    // restores the full budget even under --quick and pays a few extra
    // seconds of wall time for a stable verdict.
    if defaulted_budget {
        std::env::set_var("VULNDS_BENCH_MS", "300");
    }
    // Interleaved rounds with a per-side minimum: frequency and page
    // placement drift between measurements otherwise dominates the
    // ~1.1× layout effect this gate resolves.
    let mut before = f64::INFINITY;
    let mut after = f64::INFINITY;
    for round in 0..4 {
        let b =
            measure(&format!("perf_sanity/relabel_forward_fixed_budget_scrambled_{round}"), || {
                one_widest_superblock(&scrambled, &scrambled_table, 13)
            });
        before = before.min(b.median_secs);
        let a =
            measure(&format!("perf_sanity/relabel_forward_fixed_budget_bfs_order_{round}"), || {
                one_widest_superblock(&relabeled, &relabeled_table, 13)
            });
        after = after.min(a.median_secs);
    }
    let relabel_speedup = before / after;
    println!(
        "perf_sanity: BFS relabel vs scrambled layout speedup {relabel_speedup:.2}x \
         (required ≥ {RELABEL_REQUIRED_SPEEDUP}x)"
    );
    if relabel_speedup.is_nan() || relabel_speedup < RELABEL_REQUIRED_SPEEDUP {
        eprintln!(
            "perf_sanity FAILED: the BFS-relabeled layout ({:.3} ms) is not ≥ \
             {RELABEL_REQUIRED_SPEEDUP}x faster than the scrambled node order ({:.3} ms)",
            after * 1e3,
            before * 1e3,
        );
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
}
