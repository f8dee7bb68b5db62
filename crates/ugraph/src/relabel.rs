//! Cache-conscious node relabeling.
//!
//! CSR adjacency walks are only cache-sequential when topologically
//! close nodes have close ids. Real edge lists arrive in arbitrary
//! ingestion order, so hot kernels (the bit-parallel samplers of
//! `vulnds-sampling`, the bound recursions of `vulnds-core`) can spend
//! most of their time waiting on scattered `defaulted[target]` loads.
//! This module computes a **permutation** of the node ids — a
//! [`NodeOrder`] realized as a [`NodeMap`] — and rebuilds the graph
//! under it ([`UncertainGraph::relabeled`]), so frequently co-traversed
//! nodes land on adjacent cache lines.
//!
//! # Determinism contract
//!
//! A relabeled graph is a *different graph object*: canonical edge ids
//! are positions in the sorted `(source, target)` out-CSR, so the
//! permutation renumbers edges too, and the stateless coin generator of
//! `vulnds-sampling` (keyed by `(seed, block, item)`) therefore draws
//! **different coin streams** for the same logical network. Estimates
//! on the relabeled graph carry the same `(ε, δ)` guarantee and the
//! relabeling itself is fully deterministic — same graph, same order,
//! same permutation — but per-world outcomes are *not* bit-identical
//! to the original labeling (unlike width, direction, and thread
//! count, which never change a drawn world).

use crate::builder::GraphBuilder;
use crate::graph::UncertainGraph;
use crate::ids::NodeId;

/// Which permutation [`UncertainGraph::relabeled`] applies. Both are
/// deterministic functions of the graph's structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeOrder {
    /// Nodes sorted by total degree, descending (ties by old id).
    /// Packs the hubs — the nodes every traversal keeps touching —
    /// into the first few cache lines of every per-node array.
    DegreeDescending,
    /// Breadth-first visit order seeded at the highest-degree node,
    /// restarting at the highest-degree unvisited node until every
    /// component is covered. Neighbors get adjacent ids, so frontier
    /// expansion walks nearly-sequential memory. The default.
    #[default]
    BfsFromHub,
}

/// A node-id permutation and its inverse, produced by
/// [`UncertainGraph::relabeled`]. Maps ids between the original
/// labeling (`old`) and the relabeled one (`new`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMap {
    to_new: Vec<u32>,
    to_old: Vec<u32>,
}

impl NodeMap {
    /// Builds the map from a visit order: `to_old[new] = old`.
    fn from_visit_order(to_old: Vec<u32>) -> Self {
        let mut to_new = vec![0u32; to_old.len()];
        for (new, &old) in to_old.iter().enumerate() {
            to_new[old as usize] = new as u32;
        }
        NodeMap { to_new, to_old }
    }

    /// The relabeled id of original node `old`.
    #[inline]
    pub fn to_new(&self, old: NodeId) -> NodeId {
        NodeId(self.to_new[old.index()])
    }

    /// The original id of relabeled node `new`.
    #[inline]
    pub fn to_old(&self, new: NodeId) -> NodeId {
        NodeId(self.to_old[new.index()])
    }

    /// Number of nodes the permutation covers.
    pub fn len(&self) -> usize {
        self.to_old.len()
    }

    /// `true` for the empty graph's (empty) permutation.
    pub fn is_empty(&self) -> bool {
        self.to_old.is_empty()
    }
}

/// Node ids sorted by total degree descending, ties by ascending id —
/// the deterministic hub ranking both orders build on.
fn degree_ranked(graph: &UncertainGraph) -> Vec<u32> {
    let mut ranked: Vec<u32> = (0..graph.num_nodes() as u32).collect();
    ranked.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(NodeId(v))), v));
    ranked
}

/// BFS visit order over the union of out- and in-adjacency (both in
/// CSR order), seeded and re-seeded from `ranked`.
fn bfs_order(graph: &UncertainGraph, ranked: &[u32]) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for &seed in ranked {
        if visited[seed as usize] {
            continue;
        }
        visited[seed as usize] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let vid = NodeId(v);
            for &w in graph.out_neighbors(vid).iter().chain(graph.in_neighbors(vid)) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    order
}

impl UncertainGraph {
    /// Rebuilds the graph under the permutation of `order`, returning
    /// the relabeled graph and the [`NodeMap`] that translates ids in
    /// both directions. Self-risk and diffusion probabilities are
    /// preserved edge for edge; only the labeling (and therefore the
    /// CSR layout and the canonical edge ids) changes. See the
    /// [module docs](self) for the determinism contract.
    pub fn relabeled(&self, order: NodeOrder) -> (UncertainGraph, NodeMap) {
        let ranked = degree_ranked(self);
        let visit = match order {
            NodeOrder::DegreeDescending => ranked,
            NodeOrder::BfsFromHub => bfs_order(self, &ranked),
        };
        let map = NodeMap::from_visit_order(visit);
        (self.relabeled_with(&map), map)
    }

    /// Rebuilds the graph under an existing permutation (see
    /// [`UncertainGraph::relabeled`]).
    fn relabeled_with(&self, map: &NodeMap) -> UncertainGraph {
        assert_eq!(map.len(), self.num_nodes(), "permutation size mismatch");
        let mut b = GraphBuilder::new(self.num_nodes());
        for v in self.nodes() {
            // xlint: allow(panic-hygiene) — every id and probability
            // re-inserted here was validated when this graph was built,
            // and a bijection cannot introduce self-loops or duplicates.
            b.set_self_risk(map.to_new(v), self.self_risk(v)).expect("existing risk is valid");
        }
        for e in self.edges() {
            let (u, v) = self.edge_endpoints(e);
            // xlint: allow(panic-hygiene) — same revalidation argument
            // as the self-risks above.
            b.add_edge(map.to_new(u), map.to_new(v), self.edge_prob(e))
                .expect("existing edge is valid");
        }
        // xlint: allow(panic-hygiene) — a valid graph stays valid under
        // any bijective relabeling.
        b.build().expect("relabeling of a valid graph is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_parts, DuplicateEdgePolicy};
    use crate::ids::EdgeId;

    fn star_and_chain() -> UncertainGraph {
        // Node 5 is the hub (degree 4); 0→1→2 is a separate chain.
        from_parts(
            &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
            &[(5, 3, 0.5), (5, 4, 0.4), (6, 5, 0.3), (3, 6, 0.2), (0, 1, 0.9), (1, 2, 0.8)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn maps_are_inverse_permutations() {
        let g = star_and_chain();
        for order in [NodeOrder::DegreeDescending, NodeOrder::BfsFromHub] {
            let (r, map) = g.relabeled(order);
            r.check_invariants().unwrap();
            assert_eq!(map.len(), g.num_nodes());
            let mut seen = vec![false; g.num_nodes()];
            for v in g.nodes() {
                let new = map.to_new(v);
                assert_eq!(map.to_old(new), v, "{order:?}: inverse round-trip");
                assert!(!seen[new.index()], "{order:?}: {new:?} assigned twice");
                seen[new.index()] = true;
            }
        }
    }

    #[test]
    fn degree_descending_ranks_hubs_first() {
        let g = star_and_chain();
        let (_, map) = g.relabeled(NodeOrder::DegreeDescending);
        // Node 5 has the highest degree, so it becomes node 0.
        assert_eq!(map.to_old(NodeId(0)), NodeId(5));
        // Degrees are non-increasing along the new labeling.
        let degs: Vec<usize> =
            (0..g.num_nodes() as u32).map(|new| g.degree(map.to_old(NodeId(new)))).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]), "degrees not descending: {degs:?}");
    }

    #[test]
    fn bfs_order_starts_at_hub_and_covers_components() {
        let g = star_and_chain();
        let (_, map) = g.relabeled(NodeOrder::BfsFromHub);
        assert_eq!(map.to_old(NodeId(0)), NodeId(5), "BFS must seed at the hub");
        // The hub's component (3, 4, 5, 6) is labeled before the chain
        // component (0, 1, 2).
        for new in 0..4u32 {
            assert!(map.to_old(NodeId(new)).0 >= 3, "hub component first");
        }
        for new in 4..7u32 {
            assert!(map.to_old(NodeId(new)).0 < 3, "chain component second");
        }
    }

    #[test]
    fn probabilities_survive_relabeling() {
        let g = star_and_chain();
        for order in [NodeOrder::DegreeDescending, NodeOrder::BfsFromHub] {
            let (r, map) = g.relabeled(order);
            for v in g.nodes() {
                assert_eq!(r.self_risk(map.to_new(v)), g.self_risk(v), "{order:?}");
            }
            assert_eq!(r.num_edges(), g.num_edges());
            for e in g.edges() {
                let (u, v) = g.edge_endpoints(e);
                let re = r
                    .find_edge(map.to_new(u), map.to_new(v))
                    .unwrap_or_else(|| panic!("{order:?}: edge {u:?}→{v:?} lost"));
                assert_eq!(r.edge_prob(re), g.edge_prob(e), "{order:?}");
            }
        }
    }

    #[test]
    fn transpose_commutes_with_relabeling() {
        let g = star_and_chain();
        let (_, map) = g.relabeled(NodeOrder::BfsFromHub);
        // Structural equality ignores the probability version, so the
        // two construction orders must agree exactly.
        assert_eq!(g.relabeled_with(&map).transpose(), g.transpose().relabeled_with(&map));
    }

    #[test]
    fn identity_permutation_reproduces_the_graph() {
        let g = star_and_chain();
        let identity = NodeMap::from_visit_order((0..g.num_nodes() as u32).collect());
        assert_eq!(g.relabeled_with(&identity), g);
        assert!(!identity.is_empty());
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let empty = UncertainGraph::builder(0).build().unwrap();
        let (r, map) = empty.relabeled(NodeOrder::BfsFromHub);
        assert_eq!(r.num_nodes(), 0);
        assert!(map.is_empty());
        let one = from_parts(&[0.5], &[], DuplicateEdgePolicy::Error).unwrap();
        let (r1, m1) = one.relabeled(NodeOrder::DegreeDescending);
        assert_eq!(r1.self_risk(NodeId(0)), 0.5);
        assert_eq!(m1.to_new(NodeId(0)), NodeId(0));
    }

    #[test]
    fn relabeling_renumbers_canonical_edge_ids() {
        // The determinism-contract hinge: edge ids are CSR positions,
        // so a nontrivial permutation reorders them (different coin
        // streams on the relabeled graph).
        let g = star_and_chain();
        let (r, map) = g.relabeled(NodeOrder::DegreeDescending);
        let old0 = g.edge_endpoints(EdgeId(0));
        let new0 = r.edge_endpoints(EdgeId(0));
        assert_ne!(
            (map.to_new(old0.0), map.to_new(old0.1)),
            new0,
            "expected edge 0 to move under the hub-first permutation"
        );
    }
}
