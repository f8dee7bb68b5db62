//! Incremental bound maintenance under probability updates.
//!
//! A deployed risk system (paper §5: "we detect all loans monthly")
//! recalibrates probabilities far more often than topology changes. A
//! self-risk or edge-probability update only affects nodes reachable
//! within `z` hops downstream of the change, so the order-`z` bounds of
//! Algorithms 2–3 can be repaired locally instead of recomputed from
//! scratch — `O(|affected z-ball| · z)` instead of `O(z (n + m))`.
//!
//! Design: the maintainer caches every *level* of the bound recursions
//! (`z` vectors each). An update dirties the changed node at level 1;
//! dirtiness then flows along out-edges one level per round, exactly
//! mirroring how the batch recursion consumes level `i−1` to produce
//! level `i`. Repaired values are therefore bit-identical to a full
//! recomputation, which the tests assert.

use crate::bounds::{equation1, lower_levels, lower_step, upper_levels};
use crate::config::BoundsMethod;
use ugraph::{EdgeId, GraphError, NodeId, UncertainGraph};

/// Maintains order-`z` lower/upper bounds across probability updates.
#[derive(Debug, Clone)]
pub struct IncrementalBounds {
    graph: UncertainGraph,
    z: usize,
    method: BoundsMethod,
    /// `lower_levels[i]` — the lower recursion after `i+1` "orders"
    /// (level 0 is `ps`, matching Algorithm 2 order 1).
    lower_levels: Vec<Vec<f64>>,
    /// `upper_levels[i]` — the upper recursion after `i+1` applications
    /// of Equation 1 (level 0 is Eq. 1 with all-ones neighbors,
    /// matching Algorithm 3 order 1).
    upper_levels: Vec<Vec<f64>>,
}

impl IncrementalBounds {
    /// Computes initial bounds of order `z` (≥ 1).
    pub fn new(graph: UncertainGraph, z: usize, method: BoundsMethod) -> Self {
        assert!(z >= 1, "bound order must be at least 1");
        let lower_levels = lower_levels(&graph, z, method);
        let upper_levels = upper_levels(&graph, z);
        IncrementalBounds { graph, z, method, lower_levels, upper_levels }
    }

    /// The maintained graph.
    pub fn graph(&self) -> &UncertainGraph {
        &self.graph
    }

    /// The bound order `z`.
    pub fn order(&self) -> usize {
        self.z
    }

    /// Current (final-level) lower bounds.
    pub fn lower(&self) -> &[f64] {
        // xlint: allow(panic-hygiene) — the constructor rejects
        // `z == 0`, so both level stacks are never empty.
        self.lower_levels.last().expect("z >= 1")
    }

    /// Current (final-level) upper bounds.
    pub fn upper(&self) -> &[f64] {
        // xlint: allow(panic-hygiene) — same `z >= 1` construction
        // invariant as `lower`.
        self.upper_levels.last().expect("z >= 1")
    }

    /// Updates a node's self-risk and repairs the bounds. Returns the
    /// number of (node, level) cells recomputed — the cost witness used
    /// by tests and benchmarks.
    pub fn update_self_risk(&mut self, v: NodeId, ps: f64) -> Result<usize, GraphError> {
        self.graph.set_self_risk(v, ps)?;
        Ok(self.repair(&[v], true))
    }

    /// Updates an edge's diffusion probability and repairs the bounds.
    pub fn update_edge_prob(&mut self, e: EdgeId, prob: f64) -> Result<usize, GraphError> {
        self.graph.set_edge_prob(e, prob)?;
        let (_, target) = self.graph.edge_endpoints(e);
        // The edge probability enters every level's step at the target,
        // but not the lower level-0 seed (which is ps only).
        Ok(self.repair(&[target], false))
    }

    /// Repairs all cached levels given the set of directly-touched nodes.
    /// `touch_seed` says whether level 0 of the lower recursion (the `ps`
    /// seeds) changed at those nodes.
    fn repair(&mut self, touched: &[NodeId], touch_seed: bool) -> usize {
        let mut recomputed = 0usize;

        // --- lower recursion ---
        // `changed` holds the nodes whose level-(i−1) value changed; the
        // level-i candidates are their out-neighbors plus the touched
        // nodes (whose own step inputs changed at every level).
        let mut changed: Vec<u32> = Vec::new();
        if touch_seed {
            for &v in touched {
                let ps = self.graph.self_risk(v);
                if self.lower_levels[0][v.index()] != ps {
                    self.lower_levels[0][v.index()] = ps;
                    changed.push(v.0);
                    recomputed += 1;
                }
            }
        }
        for i in 1..self.z {
            let (before, rest) = self.lower_levels.split_at_mut(i);
            let prev = &before[i - 1];
            let cur = &mut rest[0];
            let mut candidates: Vec<u32> = touched.iter().map(|v| v.0).collect();
            for &c in &changed {
                candidates.extend(self.graph.out_neighbors(NodeId(c)));
            }
            candidates.sort_unstable();
            candidates.dedup();
            let mut next_changed = Vec::new();
            for &v in &candidates {
                let val = lower_step(self.method, &self.graph, NodeId(v), prev);
                recomputed += 1;
                if val != cur[v as usize] {
                    cur[v as usize] = val;
                    next_changed.push(v);
                }
            }
            changed = next_changed;
        }

        // --- upper recursion --- (level 0 is already one Eq.1 step, so
        // touched nodes are dirty at level 0 too).
        let ones = vec![1.0f64; self.graph.num_nodes()];
        let mut changed: Vec<u32> = Vec::new();
        for &v in touched {
            let val = equation1(&self.graph, v, &ones);
            recomputed += 1;
            if val != self.upper_levels[0][v.index()] {
                self.upper_levels[0][v.index()] = val;
                changed.push(v.0);
            }
        }
        for i in 1..self.z {
            let (before, rest) = self.upper_levels.split_at_mut(i);
            let prev = &before[i - 1];
            let cur = &mut rest[0];
            let mut candidates: Vec<u32> = touched.iter().map(|v| v.0).collect();
            for &c in &changed {
                candidates.extend(self.graph.out_neighbors(NodeId(c)));
            }
            candidates.sort_unstable();
            candidates.dedup();
            let mut next_changed = Vec::new();
            for &v in &candidates {
                let val = equation1(&self.graph, NodeId(v), prev);
                recomputed += 1;
                if val != cur[v as usize] {
                    cur[v as usize] = val;
                    next_changed.push(v);
                }
            }
            changed = next_changed;
        }
        recomputed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::compute_bounds;
    use ugraph::{from_parts, DuplicateEdgePolicy};
    use vulnds_sampling::Xoshiro256pp;

    fn random_graph(n: usize, m: usize, seed: u64) -> UncertainGraph {
        let mut rng = Xoshiro256pp::new(seed);
        let risks: Vec<f64> = (0..n).map(|_| rng.next_f64() * 0.5).collect();
        let mut edges = Vec::new();
        while edges.len() < m {
            let u = rng.next_bounded(n as u64) as u32;
            let v = rng.next_bounded(n as u64) as u32;
            if u != v {
                edges.push((u, v, rng.next_f64() * 0.5));
            }
        }
        from_parts(&risks, &edges, DuplicateEdgePolicy::KeepMax).unwrap()
    }

    fn assert_matches_batch(inc: &IncrementalBounds) {
        // Bitwise: the batch bounds and the maintainer share one level
        // builder, and repairs recompute exactly the cells it would.
        let (l, u) = compute_bounds(inc.graph(), inc.order(), inc.method);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(inc.lower()), bits(&l), "lower bounds differ");
        assert_eq!(bits(inc.upper()), bits(&u), "upper bounds differ");
    }

    #[test]
    fn initial_bounds_match_batch() {
        // Beside a random graph: one node with ps = 1 − 2⁻⁵², whose upper
        // bound is exactly ps at every order, and a near-zero edge that
        // moves its target by less than 1e-15. A batch recursion that
        // skips changes below a tolerance gets both wrong.
        let one = from_parts(&[1.0 - f64::EPSILON], &[], DuplicateEdgePolicy::Error).unwrap();
        let tiny = from_parts(&[0.5, 0.5], &[(0, 1, 1e-15)], DuplicateEdgePolicy::Error).unwrap();
        for g in [random_graph(50, 120, 1), one, tiny] {
            for method in [BoundsMethod::Paper, BoundsMethod::Safe] {
                for z in 1..=4 {
                    let inc = IncrementalBounds::new(g.clone(), z, method);
                    assert_matches_batch(&inc);
                }
            }
        }
    }

    #[test]
    fn self_risk_update_matches_batch() {
        let g = random_graph(60, 150, 2);
        for method in [BoundsMethod::Paper, BoundsMethod::Safe] {
            let mut inc = IncrementalBounds::new(g.clone(), 2, method);
            for (i, &v) in [3u32, 17, 42, 3].iter().enumerate() {
                inc.update_self_risk(NodeId(v), 0.1 + 0.2 * i as f64).unwrap();
                assert_matches_batch(&inc);
            }
        }
    }

    #[test]
    fn edge_update_matches_batch() {
        let g = random_graph(60, 150, 3);
        let last = g.num_edges() as u32 - 1; // duplicates may shrink m
        let mut inc = IncrementalBounds::new(g, 3, BoundsMethod::Paper);
        for e in [0u32, 5, 60, last] {
            inc.update_edge_prob(EdgeId(e), 0.33).unwrap();
            assert_matches_batch(&inc);
        }
    }

    #[test]
    fn repeated_updates_stay_exact() {
        let g = random_graph(40, 100, 4);
        let mut inc = IncrementalBounds::new(g, 4, BoundsMethod::Paper);
        let mut rng = Xoshiro256pp::new(99);
        for _ in 0..25 {
            if rng.bernoulli(0.5) {
                let v = NodeId(rng.next_bounded(40) as u32);
                inc.update_self_risk(v, rng.next_f64()).unwrap();
            } else {
                let e = EdgeId(rng.next_bounded(inc.graph().num_edges() as u64) as u32);
                inc.update_edge_prob(e, rng.next_f64()).unwrap();
            }
        }
        assert_matches_batch(&inc);
    }

    #[test]
    fn chain_update_cost_is_local() {
        // On a long chain with z = 2, an update should recompute a
        // handful of cells, not O(n·z).
        let n = 10_000;
        let edges: Vec<(u32, u32, f64)> = (0..n as u32 - 1).map(|v| (v, v + 1, 0.5)).collect();
        let g = from_parts(&vec![0.2; n], &edges, DuplicateEdgePolicy::Error).unwrap();
        let mut inc = IncrementalBounds::new(g, 2, BoundsMethod::Paper);
        let tail_before = inc.lower()[n - 1];
        let cells = inc.update_self_risk(NodeId(0), 0.9).unwrap();
        assert!(cells <= 8, "recomputed {cells} cells on a chain");
        assert_eq!(inc.lower()[n - 1], tail_before, "tail must be untouched");
        assert!(inc.lower()[1] > 0.2, "successor must feel the update");
    }

    #[test]
    fn no_op_update_recomputes_but_changes_nothing() {
        let g = random_graph(30, 60, 5);
        let mut inc = IncrementalBounds::new(g.clone(), 2, BoundsMethod::Paper);
        let before = (inc.lower().to_vec(), inc.upper().to_vec());
        inc.update_self_risk(NodeId(0), g.self_risk(NodeId(0))).unwrap();
        assert_eq!(inc.lower(), &before.0[..]);
        assert_eq!(inc.upper(), &before.1[..]);
        assert_matches_batch(&inc);
    }

    #[test]
    fn invalid_updates_are_rejected() {
        let g = random_graph(10, 20, 6);
        let mut inc = IncrementalBounds::new(g, 2, BoundsMethod::Paper);
        assert!(inc.update_self_risk(NodeId(99), 0.5).is_err());
        assert!(inc.update_self_risk(NodeId(0), 1.5).is_err());
        assert!(inc.update_edge_prob(EdgeId(999), 0.5).is_err());
        assert_matches_batch(&inc);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_order_rejected() {
        let g = random_graph(5, 8, 7);
        IncrementalBounds::new(g, 0, BoundsMethod::Paper);
    }
}
