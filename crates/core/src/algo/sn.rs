//! `SN` — Algorithm 1 with the sample size of Equation 3, making it an
//! `(ε, δ)`-approximation (Theorem 4).
//!
//! The implementation lives in
//! [`engine::SampledNaive`](crate::engine::SampledNaive); this module
//! holds its behavioral test suite (the 0.2.0 free-function shim was
//! removed in 0.3.0).

#[cfg(test)]
mod tests {
    use crate::algo::{run_one_shot, AlgorithmKind};
    use crate::config::VulnConfig;
    use crate::engine::DetectResponse;
    use crate::sample_size::basic_sample_size;
    use ugraph::{from_parts, DuplicateEdgePolicy, NodeId, UncertainGraph};

    fn detect_sn(graph: &UncertainGraph, k: usize, config: &VulnConfig) -> DetectResponse {
        run_one_shot(graph, k, AlgorithmKind::SampledNaive, config)
    }

    fn graph() -> UncertainGraph {
        from_parts(
            &[0.7, 0.05, 0.05, 0.05, 0.05],
            &[(0, 1, 0.8), (1, 2, 0.8), (2, 3, 0.2), (3, 4, 0.2)],
            DuplicateEdgePolicy::Error,
        )
        .unwrap()
    }

    #[test]
    fn uses_equation3_budget() {
        let g = graph();
        let cfg = VulnConfig::default();
        let r = detect_sn(&g, 2, &cfg);
        assert_eq!(r.stats.sample_budget, basic_sample_size(5, 2, cfg.approx));
        assert_eq!(r.stats.algorithm, AlgorithmKind::SampledNaive);
    }

    #[test]
    fn finds_clear_winner() {
        let g = graph();
        let r = detect_sn(&g, 1, &VulnConfig::default().with_seed(11));
        assert_eq!(r.node_ids(), vec![NodeId(0)]);
    }

    #[test]
    fn respects_sample_cap() {
        let g = graph();
        let r = detect_sn(&g, 2, &VulnConfig::default().with_max_samples(10));
        assert_eq!(r.stats.sample_budget, 10);
    }

    #[test]
    fn k_equals_n_needs_one_sample_only() {
        // Eq. 3 is 0 for k = n (no pairs to order); the implementation
        // clamps to ≥ 1 sample so estimates exist.
        let g = graph();
        let r = detect_sn(&g, 5, &VulnConfig::default());
        assert_eq!(r.stats.sample_budget, 1);
        assert_eq!(r.top_k.len(), 5);
    }
}
