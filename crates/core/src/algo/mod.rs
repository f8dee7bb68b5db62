//! The five detection algorithms evaluated in the paper:
//!
//! | Name | Paper label | Ingredients |
//! |------|-------------|-------------|
//! | [`AlgorithmKind::Naive`] | N | Algorithm 1, fixed sample size |
//! | [`AlgorithmKind::SampledNaive`] | SN | Algorithm 1, Eq. 3 sample size |
//! | [`AlgorithmKind::SampleReverse`] | SR | reverse sampling + Lemma 1 rule 2 |
//! | [`AlgorithmKind::BoundedSampleReverse`] | BSR | + verification (rule 1) + Eq. 4 |
//! | [`AlgorithmKind::BottomK`] | BSRBK | + bottom-k early stop (Thm. 6) |

mod bsr;
mod bsrbk;
mod naive;
pub(crate) mod reverse_common;
mod sn;
mod sr;

use std::time::Duration;

/// Which algorithm to run; see the module table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// `N` — basic sampling with a fixed budget.
    Naive,
    /// `SN` — basic sampling sized by Equation 3.
    SampledNaive,
    /// `SR` — reverse sampling over rule-2 candidates.
    SampleReverse,
    /// `BSR` — bounds, verification, reverse sampling sized by Equation 4.
    BoundedSampleReverse,
    /// `BSRBK` — BSR plus the bottom-k early-stopping rule.
    BottomK,
}

impl AlgorithmKind {
    /// All five, in the paper's presentation order.
    pub const ALL: [AlgorithmKind; 5] = [
        AlgorithmKind::Naive,
        AlgorithmKind::SampledNaive,
        AlgorithmKind::SampleReverse,
        AlgorithmKind::BoundedSampleReverse,
        AlgorithmKind::BottomK,
    ];

    /// The paper's short label (N, SN, SR, BSR, BSRBK).
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmKind::Naive => "N",
            AlgorithmKind::SampledNaive => "SN",
            AlgorithmKind::SampleReverse => "SR",
            AlgorithmKind::BoundedSampleReverse => "BSR",
            AlgorithmKind::BottomK => "BSRBK",
        }
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Diagnostics of one detection run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Which algorithm produced the result.
    pub algorithm: AlgorithmKind,
    /// Sample budget computed from theory (Eq. 3 / Eq. 4) or configuration.
    pub sample_budget: u64,
    /// Samples actually consumed (< budget only for BSRBK, whose
    /// early stop can cut a world block short).
    pub samples_used: u64,
    /// Candidate-set size `|B|` after pruning (n for N/SN).
    pub candidates: usize,
    /// Verified nodes `k'` (0 for everything but BSR/BSRBK).
    pub verified: usize,
    /// `true` if BSRBK's stop condition fired before the budget ran out.
    pub early_stopped: bool,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// One-shot run through a throwaway engine session — the harness behind
/// the per-algorithm behavioral test suites. Produces results identical
/// to a cold [`Detector`](crate::engine::Detector) session (it *is*
/// one), and panics where the session would return an error.
#[cfg(test)]
pub(crate) fn run_one_shot(
    graph: &ugraph::UncertainGraph,
    k: usize,
    algorithm: AlgorithmKind,
    config: &crate::config::VulnConfig,
) -> crate::engine::DetectResponse {
    assert!(k >= 1, "k must be positive");
    assert!(k <= graph.num_nodes(), "k = {k} exceeds the number of nodes ({})", graph.num_nodes());
    let detector = crate::engine::Detector::builder(graph)
        .config(config.clone())
        .build()
        .expect("session configuration is valid");
    match detector.detect(&crate::engine::DetectRequest::new(k, algorithm)) {
        Ok(response) => response,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = AlgorithmKind::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["N", "SN", "SR", "BSR", "BSRBK"]);
        assert_eq!(AlgorithmKind::BottomK.to_string(), "BSRBK");
    }
}
