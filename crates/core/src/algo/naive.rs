//! `N` — Algorithm 1 with a fixed sample budget.
//!
//! The implementation lives in
//! [`engine::NaiveMonteCarlo`](crate::engine::NaiveMonteCarlo); this
//! module holds its behavioral test suite (the 0.2.0 free-function shim
//! was removed in 0.3.0).

#[cfg(test)]
mod tests {
    use crate::algo::{run_one_shot, AlgorithmKind};
    use crate::config::VulnConfig;
    use crate::engine::DetectResponse;
    use ugraph::{from_parts, DuplicateEdgePolicy, NodeId, UncertainGraph};

    fn detect_naive(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectResponse {
        run_one_shot(graph, k, AlgorithmKind::Naive, config)
    }

    fn chain() -> UncertainGraph {
        from_parts(&[0.6, 0.0, 0.0], &[(0, 1, 0.9), (1, 2, 0.9)], DuplicateEdgePolicy::Error)
            .unwrap()
    }

    #[test]
    fn finds_obvious_ranking() {
        // p = (0.6, 0.54, 0.486): ranking 0 > 1 > 2.
        let g = chain();
        let cfg = VulnConfig::default().with_seed(1);
        let r = detect_naive(&g, 2, &cfg);
        assert_eq!(r.node_ids(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(r.stats.samples_used, cfg.naive_samples);
        assert_eq!(r.stats.candidates, 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = chain();
        let cfg = VulnConfig::default().with_seed(7);
        assert_eq!(detect_naive(&g, 2, &cfg).top_k, detect_naive(&g, 2, &cfg).top_k);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = chain();
        let seq = detect_naive(&g, 2, &VulnConfig::default().with_seed(3));
        let par = detect_naive(&g, 2, &VulnConfig::default().with_seed(3).with_threads(4));
        assert_eq!(seq.top_k, par.top_k);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn rejects_zero_k() {
        detect_naive(&chain(), 0, &VulnConfig::default());
    }

    #[test]
    #[should_panic(expected = "exceeds the number of nodes")]
    fn rejects_oversized_k() {
        detect_naive(&chain(), 4, &VulnConfig::default());
    }
}
