//! Per-layer aggregates of a traced run, and the checks that keep the
//! replay faithful to the engine.

use vulnds::core::{AlgorithmKind, DetectRequest, DetectResponse};
use vulnds::sampling::CoinUsage;

use crate::replay::Replayed;
use crate::trace::Tracer;
use crate::{mean, quantile, ratio, Report};

/// Layer spans whose self time is reported per replayed query.
const LAYER_SPANS: [(&str, &str); 9] = [
    ("coins.table", "coins.table_ms"),
    ("bounds.compute", "bounds.compute_ms"),
    ("candidates.reduce", "candidates.reduce_ms"),
    ("sampling.forward", "sampling.forward_ms"),
    ("sampling.reverse", "sampling.reverse_ms"),
    ("sketch.hash_order", "sketch.hash_order_ms"),
    ("bsrbk.loop", "bsrbk.loop_ms"),
    ("topk.select", "topk.select_ms"),
    ("engine.detect", "engine.detect_ms"),
];

#[derive(Default)]
pub struct Ledger {
    /// Set-up repetitions: graph load and session build times.
    pub load_ms: Vec<f64>,
    pub build_ms: Vec<f64>,
    /// Replayed detect requests.
    pub replayed: u64,
    /// Σ (engine detect time − the replayed layers' time), in ns.
    pub unattributed_ns: i64,
    pub detect_ns: u64,
    pub samples_used: u64,
    pub samples_drawn: u64,
    pub coin_words: u64,
    pub superblocks: u64,
    pub usage: CoinUsage,
    pub candidates: Vec<f64>,
    pub verified: u64,
    pub verified_k: u64,
    pub bsrbk_used: u64,
    pub bsrbk_budget: u64,
    pub coin_word_checks: u64,
    pub coin_word_mismatches: u64,
    pub answer_mismatches: u64,
    pub fallbacks: u64,
    pub apply_ms: Vec<f64>,
    pub wal_ms: Vec<f64>,
    /// Ack latency of updates interleaved with reads.
    pub ack_ms: Vec<f64>,
    pub revalidated: u64,
    pub invalidated: u64,
    pub queue_wait_ms: Vec<f64>,
    pub shed: u64,
    pub decode_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub lag_ms_max: f64,
    pub reuse_ratio: f64,
    pub cache_waits: u64,
    /// Traced engine time over the same calls' untraced time, minus 1.
    pub overhead_share: f64,
    /// `batch-cold` answers outside the ε contract of the ground truth.
    pub epsilon_violations: u64,
}

impl Ledger {
    /// Books one replayed answer: counters from the engine's own stats,
    /// the unattributed time, and the two replay checks. `detect_span`
    /// is the span around the engine call, `replay_span` the span whose
    /// children are the replayed layer calls.
    pub fn record(
        &mut self,
        tracer: &Tracer,
        request: &DetectRequest,
        response: &DetectResponse,
        replayed: &Replayed,
        detect_span: usize,
        replay_span: usize,
    ) {
        let (engine, stats) = (&response.engine, &response.stats);
        let detect_ns = tracer.get(detect_span).duration_ns();
        self.replayed += 1;
        self.detect_ns += detect_ns;
        self.unattributed_ns += detect_ns as i64 - tracer.children_ns(replay_span) as i64;
        self.samples_used += stats.samples_used;
        self.samples_drawn += engine.samples_drawn;
        self.coin_words += engine.coin_words_synthesized;
        self.superblocks += engine.superblocks;
        self.usage.merge(&replayed.usage);
        self.fallbacks += u64::from(replayed.fallback);
        let reverse =
            !matches!(request.algorithm, AlgorithmKind::Naive | AlgorithmKind::SampledNaive);
        if reverse {
            self.candidates.push(stats.candidates as f64);
        }
        if matches!(request.algorithm, AlgorithmKind::BoundedSampleReverse | AlgorithmKind::BottomK)
        {
            self.verified += stats.verified as u64;
            self.verified_k += request.k as u64;
        }
        if request.algorithm == AlgorithmKind::BottomK {
            self.bsrbk_used += stats.samples_used;
            self.bsrbk_budget += stats.sample_budget;
        }
        self.coin_word_checks += 1;
        if replayed.usage.words != engine.coin_words_synthesized {
            self.coin_word_mismatches += 1;
        }
        let same = replayed.top_k.len() == response.top_k.len()
            && replayed
                .top_k
                .iter()
                .zip(&response.top_k)
                .all(|(a, b)| a.node == b.node && a.score.to_bits() == b.score.to_bits());
        if !same {
            self.answer_mismatches += 1;
        }
    }

    /// Replay drift is a benchmark defect, not a program one: it means
    /// the per-layer numbers no longer describe what the engine did.
    pub fn check(&self, report: &mut Report) {
        let share = ratio(self.unattributed_ns as f64, self.detect_ns as f64);
        report.notes.push(format!(
            "replay: {} answers, unattributed share {share:.4} (engine.self_ms / engine.detect_ms), \
             coin-word checks {} mismatches {}, answer mismatches {}, prefix fallbacks {}",
            self.replayed,
            self.coin_word_checks,
            self.coin_word_mismatches,
            self.answer_mismatches,
            self.fallbacks
        ));
        if self.coin_word_mismatches > 0 {
            report.defects.push(format!(
                "{} replayed sampling calls synthesized a different number of coin words than the engine reported",
                self.coin_word_mismatches
            ));
        }
        if self.answer_mismatches > 0 {
            report.defects.push(format!(
                "{} replayed answers differ from the engine's",
                self.answer_mismatches
            ));
        }
    }

    pub fn emit(&self, tracer: &Tracer, report: &mut Report) {
        let per_query = |ns: u64| ratio(ns as f64 / 1e6, self.replayed as f64);
        let self_times = tracer.self_times();
        let span_ns = |name: &str| self_times.get(name).map_or(0, |&(_, ns)| ns);
        report.layer("ugraph.load_ms", quantile(&self.load_ms, 0.5), "ms");
        report.layer("engine.build_ms", quantile(&self.build_ms, 0.5), "ms");
        for (span, metric) in LAYER_SPANS {
            report.layer(metric, per_query(span_ns(span)), "ms");
        }
        report.layer(
            "engine.self_ms",
            ratio(self.unattributed_ns as f64 / 1e6, self.replayed as f64),
            "ms",
        );
        report.layer("candidates.size", mean(&self.candidates), "count");
        report.layer(
            "candidates.verified_share",
            ratio(self.verified as f64, self.verified_k as f64),
            "share",
        );
        report.layer(
            "sampling.samples_used",
            ratio(self.samples_used as f64, self.replayed as f64),
            "count",
        );
        report.layer(
            "sampling.superblocks",
            ratio(self.superblocks as f64, self.replayed as f64),
            "count",
        );
        report.layer(
            "coins.words_per_sample",
            ratio(self.coin_words as f64, self.samples_drawn as f64),
            "count",
        );
        report.layer("coins.lazy_edge_skip_ratio", self.usage.lazy_skip_ratio(), "share");
        report.layer(
            "bsrbk.used_over_budget",
            ratio(self.bsrbk_used as f64, self.bsrbk_budget as f64),
            "share",
        );
        report.layer("engine.cache_reuse_ratio", self.reuse_ratio, "share");
        report.layer("engine.cache_waits", self.cache_waits as f64, "count");
        report.layer("update.apply_ms", quantile(&self.apply_ms, 0.5), "ms");
        report.layer(
            "update.cache_survival",
            ratio(self.revalidated as f64, (self.revalidated + self.invalidated) as f64),
            "share",
        );
        report.layer("wal.append_ms", quantile(&self.wal_ms, 0.5), "ms");
        report.layer("update.ack_ms_p50", quantile(&self.ack_ms, 0.5), "ms");
        report.layer("serve.queue_wait_ms_p50", quantile(&self.queue_wait_ms, 0.5), "ms");
        report.layer("serve.queue_wait_ms_p99", quantile(&self.queue_wait_ms, 0.99), "ms");
        report.layer("serve.shed", self.shed as f64, "count");
        report.layer("serve.decode_us", quantile(&self.decode_us, 0.5), "us");
        report.layer("serve.encode_us", quantile(&self.encode_us, 0.5), "us");
        report.layer("loadgen.lag_ms_max", self.lag_ms_max, "ms");
        report.layer("trace.overhead_share", self.overhead_share, "share");
        report.layer("check.coin_word_mismatches", self.coin_word_mismatches as f64, "count");
        report.layer("check.epsilon_violations", self.epsilon_violations as f64, "count");
    }
}
