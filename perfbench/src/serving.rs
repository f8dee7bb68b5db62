//! `serve-repeat` and `serve-update`: one warm shared session on
//! Guarantee (scale 1.0) behind `vulnds::serve`, driven by [`CLIENTS`]
//! closed-loop clients.
//!
//! The generator hands the server a request line whenever fewer than
//! [`CLIENTS`] requests are outstanding, and each request is timed from
//! that moment to its response line. The mix is SN/SR/BSR/BSRBK at
//! ε = 0.2, k ∈ {1, 2, 5}% of n and seeds from a set of three, so request
//! shapes repeat and the session caches answer most of them.
//! `serve-update` makes every fifth request an update and runs through
//! `serve_durable` with a write-ahead log (`FsyncPolicy::Never`: disk
//! jitter stays out of the numbers). Input end is held until every
//! request has answered, so the drain window never cancels a query.

use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use vulnds::core::{AlgorithmKind, DetectRequest, Detector};
use vulnds::datasets::Dataset;
use vulnds::json::Json;
use vulnds::sampling::Xoshiro256pp;
use vulnds::serve::{
    detect_response_json, serve_durable, ServeOptions, UpdateLog, DEFAULT_SERVE_MAX_SAMPLES,
};
use vulnds::ugraph::{GraphDelta, UncertainGraph};
use vulnds::wal::{FsyncPolicy, Wal};

use crate::ledger::Ledger;
use crate::replay::Replay;
use crate::trace::Tracer;
use crate::{
    mix, ms_since, peak_rss_mb, quantile, random_delta, ratio, round_median, Args, Report, Scratch,
    TRAILER_CHANGES,
};

/// Requests outstanding at once: one per worker. Closed loop rather than
/// an open-loop fixed rate: on shared two-core machines an open-loop queue
/// amplifies slow phases of the host into run-to-run spreads beyond any
/// usable bound.
const CLIENTS: usize = 2;
/// Requests generated per second of run time, above what either mix
/// reaches; the run ends on time, not when they run out.
const MAX_REQUESTS_PER_S: f64 = 1000.0;
/// Latency limit for `slo_met_share` on both serving workloads.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
const WORKERS: usize = 2;
const EPSILON: f64 = 0.2;
const K_PERCENTS: [usize; 3] = [1, 2, 5];
const SEEDS: u64 = 3;
const ALGORITHMS: [AlgorithmKind; 4] = [
    AlgorithmKind::SampledNaive,
    AlgorithmKind::SampleReverse,
    AlgorithmKind::BoundedSampleReverse,
    AlgorithmKind::BottomK,
];
/// `serve-update`: every fifth request is an update.
const UPDATE_EVERY: usize = 5;
/// Updates committed to the warm session after the read phase (through
/// the log when there is one) and timed in-process: the update metrics.
/// They run in rounds spread over the correctness re-runs, so the median
/// over rounds samples the machine at several moments.
/// Acks through the server mostly time thread hand-offs.
const TRAILER_UPDATES: usize = 256;
/// The trailer's percentiles are taken per round of this many updates.
const TRAILER_ROUND: usize = 64;
/// Set-up repetitions before the timed section (the last one serves).
/// Set-up is reported as the median over these and the ones between
/// the correctness re-runs.
const SETUP_REPS: usize = 5;
/// Set-up repetitions spread over the correctness re-runs after the
/// timed section, so the median samples the machine over more than the
/// run's first half second.
const SETUP_REPS_LATER: usize = 40;
/// Run time per window that latency percentiles are taken over.
const WINDOW_S: f64 = 3.0;
/// Every `CHECK_EVERY`-th request, if a query, is re-run on a fresh
/// session.
const CHECK_EVERY: usize = 10;
/// Requests the traced run replays (and then the trailer).
const REPLAY_MAX: usize = 80;

enum Op {
    Detect(DetectRequest),
    Update(GraphDelta),
}

struct Item {
    line: String,
    op: Op,
}

/// Response lines as the sink saw them: `(id, arrival, line)`.
#[derive(Default)]
struct Responses {
    lines: Mutex<Vec<(u64, Instant, String)>>,
    arrived: Condvar,
}

impl Responses {
    /// Waits until `count` responses have arrived; returns when the
    /// `count`-th did.
    fn wait_for(&self, count: usize) -> Option<Instant> {
        let mut lines = self.lines.lock().expect("sink never panics holding the lock");
        while lines.len() < count {
            lines = self.arrived.wait(lines).expect("sink never panics holding the lock");
        }
        count.checked_sub(1).map(|last| lines[last].1)
    }
}

/// The response sink: timestamps every complete line on arrival.
struct TimedSink {
    responses: Arc<Responses>,
    /// By request id: whether the answer is checked, so its `top_k`
    /// must be kept.
    checked: Vec<bool>,
    pending: Vec<u8>,
}

impl Write for TimedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let now = Instant::now();
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let mut line = String::from_utf8_lossy(&line[..end]).into_owned();
            let id = response_id(&line).unwrap_or(u64::MAX);
            if !self.checked.get(id as usize).copied().unwrap_or(false) {
                strip_top_k(&mut line);
            }
            self.responses.lines.lock().expect("no panics under this lock").push((id, now, line));
            self.responses.arrived.notify_all();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The `id` of a response line, read from its `{"id":N,` prefix
/// without parsing the (possibly large) rest.
fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Empties the `top_k` array of a response line. The rest is all the
/// benchmark reads of an unchecked answer, and keeping every answer
/// would put the benchmark's own memory into `peak_rss_mb`.
fn strip_top_k(line: &mut String) {
    const KEY: &str = "\"top_k\":[";
    if let Some(start) = line.find(KEY).map(|s| s + KEY.len()) {
        if let Some(len) = line[start..].find(']') {
            line.replace_range(start..start + len, "");
        }
    }
}

/// The closed-loop generator: hands the server the next request line
/// once fewer than [`CLIENTS`] are outstanding, until the deadline, and
/// records when each was sent.
struct PacedInput<'a> {
    items: &'a [Item],
    responses: &'a Responses,
    deadline: Instant,
    next: usize,
    line: Vec<u8>,
    pos: usize,
    sent: Vec<Instant>,
    lag_ms_max: f64,
}

impl Read for PacedInput<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedInput<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.line.len() {
            let freed = self.responses.wait_for((self.next + 1).saturating_sub(CLIENTS));
            let now = Instant::now();
            let Some(item) = self.items.get(self.next).filter(|_| now < self.deadline) else {
                // End of input only once every request sent has answered.
                self.responses.wait_for(self.next);
                return Ok(&[]);
            };
            if let Some(freed) = freed {
                self.lag_ms_max = self.lag_ms_max.max(ms_since(freed));
            }
            self.sent.push(now);
            self.line.clear();
            self.line.extend_from_slice(item.line.as_bytes());
            self.line.push(b'\n');
            self.pos = 0;
            self.next += 1;
        }
        Ok(&self.line[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.line.len());
    }
}

/// Commits one round of trailer updates to the warm session (through
/// the log when there is one); returns the time of each.
fn trailer_round(
    detector: &Detector,
    log: Option<&UpdateLog>,
    round: &[GraphDelta],
    ledger: &mut Ledger,
    report: &mut Report,
) -> Vec<f64> {
    let mut times = Vec::new();
    for delta in round {
        let start = Instant::now();
        let outcome = match log {
            Some(log) => log.commit(detector, delta),
            None => detector.apply_delta(delta),
        };
        times.push(ms_since(start));
        match outcome {
            Ok(o) => {
                ledger.revalidated += o.revalidated;
                ledger.invalidated += o.invalidated;
            }
            Err(e) => report.defects.push(format!("trailer update failed: {e}")),
        }
    }
    times
}

/// One set-up: loads the graph, builds the session, computes its
/// bounds and, with `updates`, opens a fresh log; records the time in
/// `setup_s` and its parts in the ledger.
fn set_up(
    file: &Path,
    scratch: &Scratch,
    updates: bool,
    setup_s: &mut Vec<f64>,
    ledger: &mut Ledger,
) -> (Detector, Option<UpdateLog>) {
    let start = Instant::now();
    let t = Instant::now();
    let graph = crate::load_graph(file);
    ledger.load_ms.push(ms_since(t));
    let t = Instant::now();
    let detector = session(graph);
    ledger.build_ms.push(ms_since(t));
    detector.warm_bounds();
    let log = updates.then(|| {
        let path = scratch.dir.join(format!("wal-{}", setup_s.len()));
        let wal = Wal::create(path, 0, FsyncPolicy::Never).expect("scratch directory is writable");
        UpdateLog::new(wal, None)
    });
    setup_s.push(start.elapsed().as_secs_f64());
    (detector, log)
}

fn session(graph: UncertainGraph) -> Detector {
    Detector::builder(graph)
        .threads(1)
        .max_samples(DEFAULT_SERVE_MAX_SAMPLES)
        .build()
        .expect("valid configuration")
}

fn detect_item(id: usize, algorithm: AlgorithmKind, k: usize, seed: u64) -> Item {
    let label = algorithm.label().to_ascii_lowercase();
    Item {
        line: format!(
            "{{\"id\":{id},\"cmd\":\"detect\",\"k\":{k},\"algorithm\":\"{label}\",\"epsilon\":{EPSILON},\"seed\":{seed}}}"
        ),
        op: Op::Detect(DetectRequest::new(k, algorithm).with_epsilon(EPSILON).with_seed(seed)),
    }
}

fn update_item(id: usize, graph: &UncertainGraph, rng: &mut Xoshiro256pp) -> Item {
    let delta = random_delta(graph, rng, 1);
    let pairs = |items: &[(u32, f64)]| {
        items.iter().map(|(i, p)| format!("[{i},{p}]")).collect::<Vec<_>>().join(",")
    };
    Item {
        line: format!(
            "{{\"id\":{id},\"cmd\":\"update\",\"self_risk\":[{}],\"edge_prob\":[{}]}}",
            pairs(&delta.self_risk),
            pairs(&delta.edge_prob)
        ),
        op: Op::Update(delta),
    }
}

/// Every request shape of the mix: algorithm × k × seed.
fn shapes(n: usize, seed: u64) -> Vec<(AlgorithmKind, usize, u64)> {
    let mut out = Vec::new();
    for algorithm in ALGORITHMS {
        for pct in K_PERCENTS {
            for s in 0..SEEDS {
                // JSON numbers are doubles: keep seeds exact below 2^53.
                out.push((algorithm, (n * pct / 100).max(1), mix(seed, 0x5EED + s) >> 11));
            }
        }
    }
    out
}

fn schedule(graph: &UncertainGraph, args: &Args, updates: bool) -> Vec<Item> {
    let shapes = shapes(graph.num_nodes(), args.seed);
    let mut rng = Xoshiro256pp::new(mix(args.seed, 0x5C4E));
    let count = (MAX_REQUESTS_PER_S * args.seconds).ceil() as usize;
    let is_update = |id: usize| updates && id % UPDATE_EVERY == UPDATE_EVERY - 1;
    // The algorithms take turns (SN, SR, BSR, BSRBK, SN, …), so the slow
    // BSRBK queries are evenly spaced and the mix is the same in every
    // run; each algorithm's k × seed shapes cycle in a seeded order.
    let per_algorithm = shapes.len() / ALGORITHMS.len();
    let cycles: Vec<Vec<usize>> = (0..ALGORITHMS.len())
        .map(|a| {
            let mut cycle: Vec<usize> = (a * per_algorithm..(a + 1) * per_algorithm).collect();
            for i in (1..cycle.len()).rev() {
                cycle.swap(i, rng.next_bounded(i as u64 + 1) as usize);
            }
            cycle
        })
        .collect();
    let mut detects = 0;
    let mut items = Vec::with_capacity(count);
    for id in 0..count {
        if is_update(id) {
            items.push(update_item(id, graph, &mut rng));
        } else {
            let cycle = &cycles[detects % ALGORITHMS.len()];
            let (algorithm, k, seed) = shapes[cycle[detects / ALGORITHMS.len() % cycle.len()]];
            items.push(detect_item(id, algorithm, k, seed));
            detects += 1;
        }
    }
    items
}

/// Whether request `i` is one of the answers re-run on a fresh session.
fn is_checked(items: &[Item], i: usize) -> bool {
    i % CHECK_EVERY == 0 && matches!(items[i].op, Op::Detect(_))
}

/// One parsed response, matched to its request.
struct Outcome {
    arrival: Option<Instant>,
    latency_ms: f64,
    ok: bool,
    json: Option<Json>,
}

fn scores(json: &Json) -> Vec<(u64, u64)> {
    json.get("top_k")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|s| {
            let node = s.get("node").and_then(Json::as_u64).unwrap_or(u64::MAX);
            let score = s.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN);
            (node, score.to_bits())
        })
        .collect()
}

fn field(json: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(json, |j, key| j.get(key)).and_then(Json::as_f64)
}

pub fn run(args: &Args, scratch: &Scratch, tracer: &mut Tracer, updates: bool) -> Report {
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let file = crate::write_graph(scratch, Dataset::Guarantee);

    // Set-up: what a server pays before its first answer — load the
    // graph, build the session, compute its bounds, open the log.
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        server = Some(set_up(&file, scratch, updates, &mut setup_s, &mut ledger));
    }
    let (detector, log) = server.expect("at least one set-up repetition");
    let base = detector.graph();
    report.notes.push(format!("graph Guarantee n {} m {}", base.num_nodes(), base.num_edges()));

    // Warm the shared session on every request shape (untimed).
    let shapes = shapes(base.num_nodes(), args.seed);
    let warmup: Vec<DetectRequest> = shapes
        .iter()
        .map(|&(a, k, s)| DetectRequest::new(k, a).with_epsilon(EPSILON).with_seed(s))
        .collect();
    for request in &warmup {
        detector.detect(request).expect("warm-up queries are valid");
    }
    let before = detector.session_stats();
    let mut items = schedule(&base, args, updates);
    drop(base);

    // Timed section.
    let responses = Arc::new(Responses::default());
    let mut input = PacedInput {
        items: &items,
        responses: &responses,
        deadline: Instant::now() + Duration::from_secs_f64(args.seconds),
        next: 0,
        line: Vec::new(),
        pos: 0,
        sent: Vec::new(),
        lag_ms_max: 0.0,
    };
    let checked: Vec<bool> = (0..items.len()).map(|i| is_checked(&items, i)).collect();
    let sink = TimedSink { responses: Arc::clone(&responses), checked, pending: Vec::new() };
    let options = ServeOptions { workers: WORKERS, ..ServeOptions::default() };
    let summary = serve_durable(&detector, &options, log.as_ref(), &mut input, sink)
        .expect("the in-memory sink never fails");
    let peak_rss = peak_rss_mb();
    let after = detector.session_stats();
    let (sent, lag_ms_max) = (input.sent, input.lag_ms_max);
    items.truncate(sent.len());

    let mut by_id: BTreeMap<u64, (Instant, String)> = BTreeMap::new();
    for (id, at, line) in responses.lines.lock().expect("serving has ended").drain(..) {
        by_id.insert(id, (at, line));
    }
    let outcomes: Vec<Outcome> = (0..items.len())
        .map(|i| match by_id.remove(&(i as u64)) {
            None => Outcome { arrival: None, latency_ms: f64::INFINITY, ok: false, json: None },
            Some((at, line)) => {
                let json = Json::parse(&line).ok();
                let ok = json.as_ref().is_some_and(|j| {
                    j.get("ok").and_then(Json::as_bool) == Some(true)
                        && j.get("degraded").and_then(Json::as_bool) != Some(true)
                });
                let latency_ms = at.saturating_duration_since(sent[i]).as_secs_f64() * 1e3;
                Outcome { arrival: Some(at), latency_ms, ok, json }
            }
        })
        .collect();

    // Correctness: re-run a fixed sample of answers on a fresh
    // single-threaded session built on the graph of the answer's epoch.
    let mut deltas: BTreeMap<u64, &GraphDelta> = BTreeMap::new();
    for (item, out) in items.iter().zip(&outcomes) {
        if let (Op::Update(delta), Some(json)) = (&item.op, &out.json) {
            if let Some(epoch) = json.get("epoch").and_then(Json::as_u64) {
                deltas.insert(epoch, delta);
            }
        }
    }
    let mut checks: Vec<(u64, usize)> = items
        .iter()
        .zip(&outcomes)
        .enumerate()
        .filter(|&(i, (_, out))| is_checked(&items, i) && out.ok)
        .map(|(i, (_, out))| {
            let epoch = out.json.as_ref().and_then(|j| field(j, &["engine", "epoch"]));
            (epoch.unwrap_or(0.0) as u64, i)
        })
        .collect();
    checks.sort_unstable();

    // The trailer: update batches committed to the warm session and
    // timed in-process, in rounds spread over the re-runs below.
    let mut rng = Xoshiro256pp::new(mix(args.seed, 0x7A11));
    let graph = detector.graph();
    let trailer: Vec<GraphDelta> =
        (0..TRAILER_UPDATES).map(|_| random_delta(&graph, &mut rng, TRAILER_CHANGES)).collect();
    drop(graph);
    let mut update_ms: Vec<Vec<f64>> = Vec::new();
    let mut rounds = trailer.chunks(TRAILER_ROUND);
    let round_every = (checks.len() / TRAILER_UPDATES.div_ceil(TRAILER_ROUND)).max(1);

    let mut wrong = vec![false; items.len()];
    let mut graph = crate::load_graph(&file);
    let mut epoch = 0u64;
    let setup_every = (checks.len() / SETUP_REPS_LATER).max(1);
    for (n, &(target, i)) in checks.iter().enumerate() {
        if n % setup_every == 0 && setup_s.len() < SETUP_REPS + SETUP_REPS_LATER {
            set_up(&file, scratch, updates, &mut setup_s, &mut ledger);
        }
        if n % round_every == 0 {
            if let Some(round) = rounds.next() {
                update_ms.push(trailer_round(
                    &detector,
                    log.as_ref(),
                    round,
                    &mut ledger,
                    &mut report,
                ));
            }
        }
        while epoch < target {
            epoch += 1;
            match deltas.get(&epoch) {
                Some(delta) => delta.apply(&mut graph).expect("the server accepted this delta"),
                None => {
                    report.defects.push(format!("no acknowledged update for epoch {epoch}"));
                    break;
                }
            }
        }
        let Op::Detect(request) = &items[i].op else { unreachable!("checks hold detects") };
        let fresh = session(graph.clone()).detect(request).map_err(|e| e.to_string());
        let expected: Vec<(u64, u64)> = match &fresh {
            Ok(r) => r.top_k.iter().map(|s| (s.node.0 as u64, s.score.to_bits())).collect(),
            Err(_) => Vec::new(),
        };
        let served = outcomes[i].json.as_ref().map(scores).unwrap_or_default();
        if fresh.is_err() || served != expected {
            wrong[i] = true;
            report.defects.push(format!(
                "request {i} (epoch {target}): served top_k differs from a fresh session's"
            ));
        }
    }
    report.notes.push(format!(
        "replayed {} answers on fresh sessions at their epochs, {} mismatched",
        checks.len(),
        wrong.iter().filter(|&&w| w).count()
    ));

    for round in rounds {
        update_ms.push(trailer_round(&detector, log.as_ref(), round, &mut ledger, &mut report));
    }

    // End-to-end metrics. Query latencies are grouped into windows of
    // the run; each percentile is taken per window and reported as the
    // median over windows.
    let is_detect = |i: &usize| matches!(items[*i].op, Op::Detect(_));
    let good = |i: usize| outcomes[i].ok && !wrong[i];
    let windows = ((args.seconds / WINDOW_S).round() as usize).max(1);
    let mut detect_ms = vec![Vec::new(); windows];
    let mut interleaved_ms = Vec::new();
    for i in 0..items.len() {
        match is_detect(&i) {
            true => detect_ms[i * windows / items.len()].push(outcomes[i].latency_ms),
            false => interleaved_ms.push(outcomes[i].latency_ms),
        }
    }
    let per_window = |q: f64| {
        detect_ms.iter().map(|w| format!("{:.1}", quantile(w, q))).collect::<Vec<_>>().join(" ")
    };
    report.notes.push(format!(
        "window p50 ms: {}; p90 ms: {}; p99 ms: {}",
        per_window(0.5),
        per_window(0.9),
        per_window(0.99)
    ));
    let answered = (0..items.len()).filter(|i| is_detect(i) && good(*i)).count();
    let last = outcomes.iter().filter_map(|o| o.arrival).max();
    let span_s = match (sent.first(), last) {
        (Some(&first), Some(last)) => last.saturating_duration_since(first).as_secs_f64(),
        _ => 0.0,
    };
    let slo_met =
        (0..items.len()).filter(|&i| good(i) && outcomes[i].latency_ms <= LATENCY_LIMIT_MS).count();
    let failed = (0..items.len()).filter(|&i| !good(i)).count();
    report.attempted = (items.len() + TRAILER_UPDATES) as u64;
    report.failed = failed as u64;
    report.e2e("setup_s", quantile(&setup_s, 0.5), "s");
    report.e2e("queries_per_s", ratio(answered as f64, span_s), "1/s");
    report.e2e("latency_ms_p50", round_median(&detect_ms, 0.5), "ms");
    report.e2e("latency_ms_p90", round_median(&detect_ms, 0.9), "ms");
    report.e2e("latency_ms_p99", round_median(&detect_ms, 0.99), "ms");
    report.e2e("slo_met_share", ratio(slo_met as f64, items.len() as f64), "share");
    report.e2e("update_ms_p50", round_median(&update_ms, 0.5), "ms");
    report.e2e("update_ms_p90", round_median(&update_ms, 0.9), "ms");
    report.e2e("ok_share", 1.0 - ratio(failed as f64, report.attempted as f64), "share");
    report.e2e("peak_rss_mb", peak_rss, "MiB");
    report.notes.push(format!(
        "{} requests from {CLIENTS} clients ({} detect, {} update), {TRAILER_UPDATES} trailer updates, {} shed, {failed} failed",
        items.len(),
        detect_ms.iter().flatten().count(),
        interleaved_ms.len(),
        summary.shed
    ));
    if failed > 0 {
        report.defects.push(format!("{failed} requests failed, were shed, or answered wrong"));
    }

    if args.trace {
        for out in &outcomes {
            let Some(json) = &out.json else { continue };
            if let Some(elapsed) = field(json, &["stats", "elapsed_ms"]) {
                ledger.queue_wait_ms.push(out.latency_ms - elapsed);
            }
            ledger.revalidated += json.get("revalidated").and_then(Json::as_u64).unwrap_or(0);
            ledger.invalidated += json.get("invalidated").and_then(Json::as_u64).unwrap_or(0);
        }
        let drawn = after.samples_drawn - before.samples_drawn;
        let reused = after.samples_reused - before.samples_reused;
        ledger.reuse_ratio = ratio(reused as f64, (drawn + reused) as f64);
        ledger.cache_waits = after.cache_waits - before.cache_waits;
        ledger.shed = summary.shed;
        ledger.lag_ms_max = lag_ms_max;
        ledger.ack_ms = interleaved_ms;
        replay_serial(&file, scratch, &items, &trailer, &warmup, tracer, &mut ledger);
        ledger.check(&mut report);
        ledger.emit(tracer, &mut report);
    }
    report
}

/// The traced run: the first [`REPLAY_MAX`] requests and the trailer
/// again, one at a time on a fresh session warmed the same way, each
/// engine call inside a span and followed by its layer replay. The same
/// calls run once more untraced on another fresh session; the gap
/// between the two is the tracing overhead.
fn replay_serial(
    file: &Path,
    scratch: &Scratch,
    items: &[Item],
    trailer: &[GraphDelta],
    warmup: &[DetectRequest],
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) {
    // Trailer updates were committed in-process: no request line.
    let trailer: Vec<Item> =
        trailer.iter().map(|d| Item { line: String::new(), op: Op::Update(d.clone()) }).collect();
    let chosen: Vec<&Item> = items.iter().take(REPLAY_MAX).chain(&trailer).collect();
    let cold = || session(crate::load_graph(file));
    let wal = |name: &str| {
        Wal::create(scratch.dir.join(name), 0, FsyncPolicy::Never).expect("scratch is writable")
    };

    // Untraced: the same engine calls, timed only as a whole.
    let detector = cold();
    for request in warmup {
        detector.detect(request).expect("warm-up queries are valid");
    }
    let mut log = wal("untraced-wal");
    let start = Instant::now();
    for item in &chosen {
        match &item.op {
            Op::Detect(request) => {
                std::hint::black_box(detector.detect(request).ok());
            }
            Op::Update(delta) => {
                log.append(detector.epoch() + 1, delta).expect("scratch is writable");
                detector.apply_delta(delta).expect("the server accepted this delta");
            }
        }
    }
    let untraced_ms = ms_since(start);
    drop(detector);

    // Traced, after a warm-up that the replay mirrors.
    let detector = cold();
    let mut log = wal("traced-wal");
    let mut replay = Replay::new(detector.graph(), detector.config().clone());
    let mut scratch_tracer = Tracer::new();
    for request in warmup {
        let built = detector.session_stats().coin_tables_built;
        let response = detector.detect(request).expect("warm-up queries are valid");
        let built = detector.session_stats().coin_tables_built > built;
        replay.detect(&mut scratch_tracer, 0, request, &response, built);
    }
    let mut traced_ns = 0u64;
    for (i, item) in chosen.iter().enumerate() {
        let id = i as u64;
        if !item.line.is_empty() {
            let (_, decode) = tracer.span("serve.decode", id, |_| Json::parse(&item.line));
            ledger.decode_us.push(tracer.get(decode).duration_ns() as f64 / 1e3);
        }
        match &item.op {
            Op::Detect(request) => {
                let built = detector.session_stats().coin_tables_built;
                let (response, detect) =
                    tracer.span("engine.detect", id, |_| detector.detect(request));
                traced_ns += tracer.get(detect).duration_ns();
                let Ok(response) = response else { continue };
                let built = detector.session_stats().coin_tables_built > built;
                let (replayed, replay_span) =
                    tracer.span("replay", id, |t| replay.detect(t, id, request, &response, built));
                ledger.record(tracer, request, &response, &replayed, detect, replay_span);
                let (_, encode) = tracer.span("serve.encode", id, |_| {
                    std::hint::black_box(detect_response_json(&response).to_string())
                });
                ledger.encode_us.push(tracer.get(encode).duration_ns() as f64 / 1e3);
            }
            Op::Update(delta) => {
                let epoch = detector.epoch() + 1;
                let (_, append) = tracer.span("wal.append", id, |_| log.append(epoch, delta));
                let (_, apply) = tracer.span("update.apply", id, |_| detector.apply_delta(delta));
                let (append, apply) = (tracer.get(append), tracer.get(apply));
                traced_ns += append.duration_ns() + apply.duration_ns();
                ledger.wal_ms.push(append.duration_ns() as f64 / 1e6);
                ledger.apply_ms.push(apply.duration_ns() as f64 / 1e6);
                replay.set_graph(detector.graph());
            }
        }
    }
    ledger.overhead_share = ratio(traced_ns as f64 / 1e6, untraced_ms) - 1.0;
}
