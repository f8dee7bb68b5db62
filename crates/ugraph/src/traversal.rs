//! Deterministic (probability-blind) traversals over the graph structure.
//!
//! The samplers in `vulnds-sampling` implement their own probabilistic
//! BFS; the traversals here treat every edge as present (e.g. how many
//! nodes a default could reach at all).

use crate::graph::UncertainGraph;
use crate::ids::NodeId;
use std::collections::VecDeque;

/// Direction of a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow out-edges `(v, ·)`.
    Forward,
    /// Follow in-edges `(·, v)`.
    Reverse,
}

/// Breadth-first traversal from a set of roots, yielding `(node, depth)`.
#[derive(Debug)]
pub struct Bfs<'a> {
    graph: &'a UncertainGraph,
    direction: Direction,
    queue: VecDeque<(NodeId, u32)>,
    visited: Vec<bool>,
}

impl<'a> Bfs<'a> {
    /// Starts a BFS from a single root.
    pub fn new(graph: &'a UncertainGraph, root: NodeId, direction: Direction) -> Self {
        Self::from_roots(graph, std::iter::once(root), direction)
    }

    /// Starts a BFS from several roots at depth 0.
    fn from_roots(
        graph: &'a UncertainGraph,
        roots: impl IntoIterator<Item = NodeId>,
        direction: Direction,
    ) -> Self {
        let mut visited = vec![false; graph.num_nodes()];
        let mut queue = VecDeque::new();
        for r in roots {
            if !visited[r.index()] {
                visited[r.index()] = true;
                queue.push_back((r, 0));
            }
        }
        Bfs { graph, direction, queue, visited }
    }
}

impl Iterator for Bfs<'_> {
    type Item = (NodeId, u32);

    fn next(&mut self) -> Option<(NodeId, u32)> {
        let (v, d) = self.queue.pop_front()?;
        let neigh: &[u32] = match self.direction {
            Direction::Forward => self.graph.out_neighbors(v),
            Direction::Reverse => self.graph.in_neighbors(v),
        };
        for &w in neigh {
            if !self.visited[w as usize] {
                self.visited[w as usize] = true;
                self.queue.push_back((NodeId(w), d + 1));
            }
        }
        Some((v, d))
    }
}

/// Counts nodes reachable from `root` (inclusive).
pub fn reachable_count(graph: &UncertainGraph, root: NodeId, direction: Direction) -> usize {
    Bfs::new(graph, root, direction).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_parts, DuplicateEdgePolicy};

    fn chain() -> UncertainGraph {
        // 0 → 1 → 2 → 3
        from_parts(&[0.0; 4], &[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)], DuplicateEdgePolicy::Error)
            .unwrap()
    }

    fn diamond() -> UncertainGraph {
        // 0 → {1, 2} → 3
        from_parts(
            &[0.0; 4],
            &[(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn bfs_depths_on_chain() {
        let g = chain();
        let order: Vec<(u32, u32)> =
            Bfs::new(&g, NodeId(0), Direction::Forward).map(|(v, d)| (v.0, d)).collect();
        assert_eq!(order, vec![(0, 0), (1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn reverse_bfs_on_chain() {
        let g = chain();
        let order: Vec<u32> =
            Bfs::new(&g, NodeId(3), Direction::Reverse).map(|(v, _)| v.0).collect();
        assert_eq!(order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn bfs_visits_each_node_once_on_diamond() {
        let g = diamond();
        let visited: Vec<u32> =
            Bfs::new(&g, NodeId(0), Direction::Forward).map(|(v, _)| v.0).collect();
        assert_eq!(visited.len(), 4);
        let depth3: u32 = Bfs::new(&g, NodeId(0), Direction::Forward)
            .find(|&(v, _)| v == NodeId(3))
            .map(|(_, d)| d)
            .unwrap();
        assert_eq!(depth3, 2);
    }

    #[test]
    fn multi_root_bfs_dedups_roots() {
        let g = chain();
        let visited: Vec<u32> =
            Bfs::from_roots(&g, [NodeId(1), NodeId(1), NodeId(2)], Direction::Forward)
                .map(|(v, _)| v.0)
                .collect();
        assert_eq!(visited, vec![1, 2, 3]);
    }

    #[test]
    fn reachability_helpers() {
        let g = diamond();
        assert_eq!(reachable_count(&g, NodeId(0), Direction::Forward), 4);
        assert_eq!(reachable_count(&g, NodeId(3), Direction::Forward), 1);
        assert_eq!(reachable_count(&g, NodeId(3), Direction::Reverse), 4);
    }
}
