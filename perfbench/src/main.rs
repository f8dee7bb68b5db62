//! Paper-scale benchmark for VulnDS: end-to-end metrics from an untraced
//! run, per-layer metrics from a traced replay of the same requests.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//! * `batch-cold` — the Figure-6 grid, closed loop, a fresh session per
//!   query, on Guarantee, P2P and Fraud at scale 1.0;
//! * `serve-repeat` — one warm session behind `serve_durable`, two
//!   closed-loop clients, repeating request shapes;
//! * `serve-update` — the same with one update in five, committed through
//!   a write-ahead log.
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and the metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). A failed correctness check exits with code 1. Scratch
//! files live in `.bench_tmp/` and are removed at exit; the spans of a
//! traced run are written to `.bench_out/`.

mod batch;
mod ledger;
mod replay;
mod serving;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use vulnds::datasets::Dataset;
use vulnds::sampling::Xoshiro256pp;
use vulnds::ugraph::{EdgeId, GraphDelta, NodeId, UncertainGraph};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One named metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any entry fails the run.
    pub defects: Vec<String>,
    /// Extra lines printed before the metrics (graph sizes, checks).
    pub notes: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }
}

/// Scratch space for one run: graph files and the write-ahead log.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = Path::new(".bench_tmp").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leaves the parent only when no concurrent run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from the
/// workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the catalog graphs. Like the paper's datasets they are the
/// same in every run; the workload seed varies the requests (their
/// sample seeds, order and updates). Run-to-run spread then measures the
/// program, not the graph generator.
const GRAPH_SEED: u64 = 42;

/// Generates `dataset` at scale 1.0 and writes it to a text graph file,
/// the input the timed set-up loads.
pub fn write_graph(scratch: &Scratch, dataset: Dataset) -> PathBuf {
    let graph = dataset.generate_scaled(GRAPH_SEED, 1.0);
    let path = scratch.dir.join(format!("{}.txt", dataset.spec().name));
    vulnds::ugraph::io::save_to_path(&graph, &path).expect("scratch directory is writable");
    path
}

pub fn load_graph(path: &Path) -> UncertainGraph {
    vulnds::ugraph::io::load_from_path(path).expect("the benchmark wrote this graph")
}

/// Changes of each kind in one update of the closed-loop trailers the
/// update metrics time: a recalibration batch, large enough that the
/// engine's work outweighs thread hand-offs.
pub const TRAILER_CHANGES: usize = 16;

/// `changes` self-risks and `changes` edge probabilities, each on a
/// uniformly drawn node or edge and set to a uniformly drawn value.
pub fn random_delta(graph: &UncertainGraph, rng: &mut Xoshiro256pp, changes: usize) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for _ in 0..changes {
        let v = rng.next_bounded(graph.num_nodes() as u64) as u32;
        delta = delta.set_self_risk(NodeId(v), rng.next_f64());
        let e = rng.next_bounded(graph.num_edges() as u64) as u32;
        delta = delta.set_edge_prob(EdgeId(e), rng.next_f64());
    }
    delta
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of each round, then the median over rounds. A slow
/// phase of a shared machine that hits one round leaves the result alone.
pub fn round_median(rounds: &[Vec<f64>], q: f64) -> f64 {
    let per_round: Vec<f64> =
        rounds.iter().filter(|r| !r.is_empty()).map(|r| quantile(r, q)).collect();
    quantile(&per_round, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds: a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload batch-cold|serve-repeat|serve-update --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot create scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = trace::Tracer::new();
    let report = match args.workload.as_str() {
        "batch-cold" => batch::run(&args, &scratch, &mut tracer),
        "serve-repeat" => serving::run(&args, &scratch, &mut tracer, false),
        "serve-update" => serving::run(&args, &scratch, &mut tracer, true),
        other => {
            eprintln!("error: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let dir = Path::new(".bench_out");
        let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| tracer.write_jsonl(&path)) {
            eprintln!("warning: spans not written: {e}");
        }
    }
    print(&args, &report)
}

fn print(args: &Args, report: &Report) -> ExitCode {
    let mut machine = vulnds_bench::microbench::JsonReport::new();
    vulnds_bench::machine::emit_machine(&mut machine);
    println!("# workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    println!("# machine {}", machine.render().split_whitespace().collect::<Vec<_>>().join(" "));
    for note in &report.notes {
        println!("# {note}");
    }
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for defect in &report.defects {
        println!("# DEFECT {defect}");
    }
    let metrics = if args.trace { &report.per_layer } else { &report.end_to_end };
    let body = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect::<Vec<_>>()
        .join(", ");
    let correct = report.defects.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        report.attempted, report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
