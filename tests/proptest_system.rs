//! System-level randomized property tests on tiny graphs where full
//! possible-world enumeration is feasible (n + m ≤ 24 coins). Uses the
//! in-repo deterministic test kit (the workspace builds offline with no
//! external dependencies).

use ugraph::testkit::{check, TestRng};
use vulnds::core::{
    exact_default_probabilities, lower_bounds_safe, reduce_candidates, upper_bounds,
};
use vulnds::prelude::*;
use vulnds::sampling::{forward_counts, reverse_counts};

/// A tiny random uncertain graph (≤ 6 nodes, ≤ 10 edges, so at most
/// 16 coins — well inside the enumerator's 24-coin limit).
fn tiny_graph(rng: &mut TestRng) -> UncertainGraph {
    let n = rng.range_usize(3, 6);
    let risks: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    let m = rng.range_usize(0, 10);
    let edges: Vec<(u32, u32, f64)> = (0..m)
        .map(|_| {
            let u = rng.next_bounded(n as u64) as u32;
            let d = 1 + rng.next_bounded(n as u64 - 1) as u32;
            (u, (u + d) % n as u32, rng.next_f64())
        })
        .collect();
    from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).unwrap()
}

/// The safe bounds enclose the exact probability on every graph —
/// including cyclic ones and converging paths.
#[test]
fn safe_bounds_enclose_exact() {
    check(24, |rng| {
        let g = tiny_graph(rng);
        let z = rng.range_usize(1, 4);
        let exact = exact_default_probabilities(&g);
        let lower = lower_bounds_safe(&g, z);
        let upper = upper_bounds(&g, z);
        for (v, &p) in exact.iter().enumerate() {
            assert!(lower[v] <= p + 1e-9, "v={v} z={z}: lower {} > exact {p}", lower[v]);
            assert!(upper[v] >= p - 1e-9, "v={v} z={z}: upper {} < exact {p}", upper[v]);
        }
    });
}

/// With safe bounds, candidate reduction never loses a true top-k node:
/// verified ∪ candidates ⊇ exact top-k (up to boundary ties).
#[test]
fn candidate_reduction_covers_exact_topk() {
    check(24, |rng| {
        let g = tiny_graph(rng);
        let n = g.num_nodes();
        let k = rng.range_usize(1, 3).min(n);
        let exact = exact_default_probabilities(&g);
        let lower = lower_bounds_safe(&g, 2);
        let upper = upper_bounds(&g, 2);
        let r = reduce_candidates(&lower, &upper, k);
        let mut covered = vec![false; n];
        for v in r.verified.iter().chain(&r.candidates) {
            covered[v.index()] = true;
        }
        // k-th exact value; any node strictly above it must be covered.
        let mut sorted = exact.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let pk = sorted[k - 1];
        for v in 0..n {
            if exact[v] > pk + 1e-9 {
                assert!(covered[v], "node {v} (p={}) lost; pk={pk}", exact[v]);
            }
        }
    });
}

/// Forward and reverse samplers estimate the same marginals.
#[test]
fn forward_and_reverse_marginals_agree() {
    check(24, |rng| {
        let g = tiny_graph(rng);
        let n = g.num_nodes();
        let t = 8_000;
        let fwd = forward_counts(&g, t, 1234, 1);
        let cands: Vec<NodeId> = g.nodes().collect();
        let rev = reverse_counts(&g, &cands, t, 4321, 1);
        for v in 0..n {
            let diff = (fwd.estimate(v) - rev.estimate(v)).abs();
            assert!(diff < 0.06, "node {v}: fwd {} rev {}", fwd.estimate(v), rev.estimate(v));
        }
    });
}

/// Monte-Carlo estimates converge to the enumerated truth.
#[test]
fn sampling_converges_to_exact() {
    check(24, |rng| {
        let g = tiny_graph(rng);
        let exact = exact_default_probabilities(&g);
        let counts = forward_counts(&g, 12_000, 777, 1);
        for (v, &p) in exact.iter().enumerate() {
            let diff = (counts.estimate(v) - p).abs();
            assert!(diff < 0.05, "node {v}: mc {} exact {p}", counts.estimate(v));
        }
    });
}

/// Default probabilities are monotone in self-risk: raising one node's
/// self-risk cannot lower anyone's default probability.
#[test]
fn monotone_in_self_risk() {
    check(24, |rng| {
        let g = tiny_graph(rng);
        let exact = exact_default_probabilities(&g);
        // Bump node 0's self-risk to 1.
        let risks: Vec<f64> =
            g.nodes().map(|v| if v.0 == 0 { 1.0 } else { g.self_risk(v) }).collect();
        let edges: Vec<(u32, u32, f64)> = g
            .edges()
            .map(|e| {
                let (u, v) = g.edge_endpoints(e);
                (u.0, v.0, g.edge_prob(e))
            })
            .collect();
        let bumped = from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).unwrap();
        let exact2 = exact_default_probabilities(&bumped);
        for v in 0..g.num_nodes() {
            assert!(
                exact2[v] >= exact[v] - 1e-9,
                "node {v} decreased: {} -> {}",
                exact[v],
                exact2[v]
            );
        }
    });
}
