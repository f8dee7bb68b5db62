//! `SR` — reverse sampling over the candidate set derived with the
//! *second* rule of Lemma 1 only (no verification).
//!
//! The implementation lives in
//! [`engine::SampleReverse`](crate::engine::SampleReverse); this module
//! holds its behavioral test suite (the 0.2.0 free-function shim was
//! removed in 0.3.0).

#[cfg(test)]
mod tests {
    use crate::algo::{run_one_shot, AlgorithmKind};
    use crate::config::VulnConfig;
    use crate::engine::DetectResponse;
    use ugraph::{from_parts, DuplicateEdgePolicy, NodeId, UncertainGraph};

    fn detect_sr(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectResponse {
        run_one_shot(graph, k, AlgorithmKind::SampleReverse, config)
    }

    fn graph() -> UncertainGraph {
        from_parts(
            &[0.8, 0.1, 0.05, 0.02, 0.01],
            &[(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.3), (3, 4, 0.1)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn finds_clear_top2() {
        // p ≈ (0.8, 0.748, 0.4, 0.13, 0.02).
        let g = graph();
        let r = detect_sr(&g, 2, &VulnConfig::default().with_seed(5));
        assert_eq!(r.node_ids(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(r.stats.verified, 0, "SR never verifies");
    }

    #[test]
    fn candidate_set_is_at_most_n() {
        let g = graph();
        let r = detect_sr(&g, 2, &VulnConfig::default());
        assert!(r.stats.candidates <= 5);
        assert!(r.stats.candidates >= 2);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = graph();
        let seq = detect_sr(&g, 2, &VulnConfig::default().with_seed(9));
        let par = detect_sr(&g, 2, &VulnConfig::default().with_seed(9).with_threads(3));
        assert_eq!(seq.top_k, par.top_k);
    }

    #[test]
    fn sample_cap_respected() {
        let g = graph();
        let r = detect_sr(&g, 2, &VulnConfig::default().with_max_samples(7));
        assert!(r.stats.sample_budget <= 7);
    }
}
