//! `BSR` — bounds + verification + reverse sampling with the reduced
//! sample size of Equation 4 (Theorem 5).
//!
//! The implementation lives in
//! [`engine::BoundedSampleReverse`](crate::engine::BoundedSampleReverse);
//! this module holds its behavioral test suite (the 0.2.0 free-function
//! shim was removed in 0.3.0).

#[cfg(test)]
mod tests {
    use crate::algo::{run_one_shot, AlgorithmKind};
    use crate::config::VulnConfig;
    use crate::engine::DetectResponse;
    use crate::sample_size::basic_sample_size;
    use ugraph::{from_parts, DuplicateEdgePolicy, NodeId, UncertainGraph};

    fn detect_bsr(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectResponse {
        run_one_shot(graph, k, AlgorithmKind::BoundedSampleReverse, config)
    }

    fn skewed() -> UncertainGraph {
        // One dominant node, a mid-tier pair, a long tail of safe nodes.
        let mut risks = vec![0.95, 0.5, 0.45];
        risks.extend(std::iter::repeat_n(0.01, 30));
        let edges: Vec<(u32, u32, f64)> = (3..32).map(|v| (0u32, v as u32, 0.02)).collect();
        from_parts(&risks, &edges, DuplicateEdgePolicy::Error).unwrap()
    }

    #[test]
    fn finds_dominant_nodes() {
        let g = skewed();
        let r = detect_bsr(&g, 3, &VulnConfig::default().with_seed(2));
        let mut ids = r.node_ids();
        ids.sort_unstable_by_key(|v| v.0);
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn budget_not_larger_than_sn() {
        // Equation 4 is the point of BSR: with pruning, never more samples
        // than Equation 3.
        let g = skewed();
        let cfg = VulnConfig::default();
        let r = detect_bsr(&g, 3, &cfg);
        let sn_budget = basic_sample_size(g.num_nodes(), 3, cfg.approx);
        assert!(
            r.stats.sample_budget <= sn_budget,
            "bsr {} > sn {sn_budget}",
            r.stats.sample_budget
        );
    }

    #[test]
    fn pruning_shrinks_candidates() {
        let g = skewed();
        let r = detect_bsr(&g, 3, &VulnConfig::default());
        assert!(
            r.stats.candidates < g.num_nodes(),
            "no pruning happened: {} candidates",
            r.stats.candidates
        );
    }

    #[test]
    fn zero_sampling_when_bounds_decide() {
        // Distinct deterministic risks and no edges: bounds are exact and
        // everything is verified.
        let g = from_parts(&[0.9, 0.7, 0.5, 0.3], &[], DuplicateEdgePolicy::Error).unwrap();
        let r = detect_bsr(&g, 2, &VulnConfig::default());
        assert_eq!(r.stats.samples_used, 0);
        assert_eq!(r.node_ids(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(r.stats.verified, 2);
    }

    #[test]
    fn result_always_has_k_entries() {
        let g = skewed();
        for k in [1, 2, 5, 10, 33] {
            let r = detect_bsr(&g, k, &VulnConfig::default());
            assert_eq!(r.top_k.len(), k, "k = {k}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = skewed();
        let seq = detect_bsr(&g, 3, &VulnConfig::default().with_seed(4));
        let par = detect_bsr(&g, 3, &VulnConfig::default().with_seed(4).with_threads(4));
        assert_eq!(seq.top_k, par.top_k);
    }
}
