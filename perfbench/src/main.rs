//! The repository benchmark: drives `FleetRuntime` through one of three
//! workloads and prints every metric by name and unit, then one JSON result
//! line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload select_filter --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run sets the workload up several times (the median is `setup_s`), warms
//! the pool and the per-worker scratch with one untimed pass, then measures:
//!
//! * a **closed loop**: every camera's whole pass is ingested as a backlog
//!   and drained, repeated on fresh fleets until the time budget is spent;
//! * an **open loop**: the same frames arrive on a fixed-rate schedule that
//!   never waits for the fleet, and each frame is timed from when it was due.
//!
//! `--trace 1` adds traced repetitions of both loops (spans from the
//! wrappers in `trace.rs`, written to `perfbench/out/`) and reports the
//! per-layer metrics instead of the end-to-end ones. See `README.md`.

mod stats;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use vmq_core::FleetRuntime;
use vmq_detect::Stage;

use stats::{median, quantile};
use trace::{poll_breakdown, Layer, PollBreakdown, Span, Tracer};
use workload::{Pass, Statement, Workload};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if workload::NAMES.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}; expected one of {:?}", workload::NAMES)),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one closed-loop repetition measured.
#[derive(Default)]
struct Closed {
    frames: u64,
    ingest_ns: u64,
    drain_ns: u64,
    poll_ms: Vec<f64>,
}

impl Closed {
    fn frames_per_s(&self) -> f64 {
        self.frames as f64 / (self.drain_ns as f64 / 1e9)
    }
}

/// What one open-loop pass measured.
#[derive(Default)]
struct Open {
    offered: u64,
    dropped: u64,
    latency_ms: Vec<f64>,
    /// Tick each latency sample was offered at, parallel to `latency_ms`.
    latency_tick: Vec<usize>,
    lag_ms: Vec<f64>,
    busy_ns: u64,
    wall_ns: u64,
    backlog_max: usize,
    mirror_ok: bool,
}

impl Open {
    fn late(&self, limit_ms: f64) -> u64 {
        self.latency_ms.iter().filter(|&&l| l > limit_ms).count() as u64
    }

    /// The median over `SEGMENTS` equal runs of ticks of each run's `q`
    /// latency quantile. A burst of host noise then moves one or two
    /// segments instead of the whole tail.
    fn segment_quantile(&self, ticks: usize, q: f64) -> f64 {
        const SEGMENTS: usize = 10;
        let per_segment = ticks.div_ceil(SEGMENTS);
        let mut segments: Vec<Vec<f64>> = vec![Vec::new(); SEGMENTS];
        for (&l, &t) in self.latency_ms.iter().zip(&self.latency_tick) {
            segments[t / per_segment].push(l);
        }
        let tails: Vec<f64> = segments.iter().filter(|s| !s.is_empty()).map(|s| quantile(s, q)).collect();
        median(&tails)
    }
}

/// Runs one poll, inside a poll span when traced.
fn poll(fleet: &mut FleetRuntime<'_>, tracer: Option<&Tracer>) -> usize {
    match tracer {
        Some(t) => {
            let open = t.begin_poll();
            let n = fleet.poll();
            t.end_poll(open, n);
            n
        }
        None => fleet.poll(),
    }
}

fn ingest(fleet: &mut FleetRuntime<'_>, tracer: Option<&Tracer>, frames: usize) -> u64 {
    match tracer {
        Some(t) => t.time(Layer::Ingest, frames * fleet.camera_count(), (0, 0), || fleet.ingest(frames)),
        None => fleet.ingest(frames),
    }
}

/// Pre-ingests the whole pass as a backlog and drains it.
fn closed_loop(w: &Workload, fleet: &mut FleetRuntime<'_>, tracer: Option<&Tracer>) -> Closed {
    let start = Instant::now();
    let dropped = ingest(fleet, tracer, w.frames_per_camera);
    assert_eq!(dropped, 0, "the closed-loop backlog fits the ingest queues");
    let ingest_ns = start.elapsed().as_nanos() as u64;
    let mut poll_ms = Vec::new();
    let drain = Instant::now();
    loop {
        let t = Instant::now();
        let n = poll(fleet, tracer);
        if n == 0 {
            break;
        }
        poll_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Closed {
        frames: (w.frames_per_camera * w.cameras.len()) as u64,
        ingest_ns,
        drain_ns: drain.elapsed().as_nanos() as u64,
        poll_ms,
    }
}

/// Offers one frame per camera every `1 / rate_hz` seconds, `ticks` times,
/// on a schedule that does not wait for the fleet, polling whenever frames
/// are queued.
/// A bench-side mirror of the per-camera FIFO queues (the fleet polls at
/// most `batch_size` frames per camera per sweep) tells which frames each
/// poll completed, so every frame is timed from when it was due.
fn open_loop(w: &Workload, fleet: &mut FleetRuntime<'_>, tracer: Option<&Tracer>, ticks: usize) -> Open {
    let period = Duration::from_secs_f64(1.0 / w.open.rate_hz);
    let capacity = w.fleet.queue_capacity;
    let batch = w.fleet.batch_size;
    let mut queues: Vec<VecDeque<(usize, Instant)>> = vec![VecDeque::new(); w.open.cameras];
    let mut out = Open { mirror_ok: true, ..Open::default() };
    let t0 = Instant::now();
    let mut tick = 0usize;
    loop {
        let now = Instant::now();
        while tick < ticks && t0 + period * tick as u32 <= now {
            let due = t0 + period * tick as u32;
            out.lag_ms.push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            let dropped = ingest(fleet, tracer, 1);
            let mut mirrored = 0;
            for q in &mut queues {
                if q.len() < capacity {
                    q.push_back((tick, due));
                } else {
                    mirrored += 1;
                }
            }
            out.mirror_ok &= mirrored == dropped;
            out.offered += w.open.cameras as u64;
            out.dropped += dropped;
            out.backlog_max = out.backlog_max.max(fleet.backlog());
            tick += 1;
        }
        if fleet.backlog() > 0 {
            let start = Instant::now();
            let processed = poll(fleet, tracer);
            let end = Instant::now();
            out.busy_ns += (end - start).as_nanos() as u64;
            let mut popped = 0;
            for q in &mut queues {
                for (t, due) in q.drain(..q.len().min(batch)) {
                    out.latency_ms.push((end - due).as_secs_f64() * 1e3);
                    out.latency_tick.push(t);
                    popped += 1;
                }
            }
            let mirrored_backlog: usize = queues.iter().map(VecDeque::len).sum();
            out.mirror_ok &= popped == processed && mirrored_backlog == fleet.backlog();
        } else if tick >= ticks {
            break;
        } else {
            // Sleep until just before the next tick, then spin: a parked
            // thread wakes late by a varying amount, which would add
            // scheduler noise to every latency sample.
            let wait = (t0 + period * tick as u32).saturating_duration_since(Instant::now());
            if wait > Duration::from_micros(500) {
                std::thread::sleep(wait - Duration::from_micros(500));
            } else {
                std::hint::spin_loop();
            }
        }
    }
    out.wall_ns = t0.elapsed().as_nanos() as u64;
    out
}

/// Hash of every statement result (matches, counts, virtual cost bits and
/// per-window aggregate reports) and of the fleet-wide cache and billing
/// counters, which depend on batching too, so only identical drives compare
/// equal.
fn full_digest(pass: &Pass) -> u64 {
    let o = &pass.outcome;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for s in &o.statements {
        (&s.name, s.camera, &s.run.matched_frames, s.run.frames_total).hash(&mut h);
        (s.run.frames_passed_filter, s.run.frames_detected, s.run.virtual_ms.to_bits()).hash(&mut h);
    }
    for reports in &pass.reports {
        for r in reports {
            (r.window_index, r.window_start, r.window_frames, &r.backend).hash(&mut h);
            for x in [r.true_fraction, r.plain_mean, r.cv_mean, r.mcv_mean, r.plain_variance, r.mcv_variance] {
                x.to_bits().hash(&mut h);
            }
        }
    }
    (o.detector_invocations, o.cache_hits, o.cache_evictions, o.cache_resident_bytes, o.cache_evicted_bytes)
        .hash(&mut h);
    (o.frames_ingested, o.frames_dropped, o.shared.shared_total_ms.to_bits(), o.coalesced_frames).hash(&mut h);
    h.finish()
}

/// Ground-truth quality of one pass.
struct Quality {
    true_frames: u64,
    found: u64,
    false_matches: u64,
    agg_mse: Vec<f64>,
    plain_mse: Vec<f64>,
    /// Per camera: ids of frames matching at least one of its statements.
    useful: Vec<HashSet<u64>>,
}

/// Regenerates every camera's frames and scores the pass against them.
fn quality(w: &Workload, pass: &Pass) -> Quality {
    let mut q = Quality {
        true_frames: 0,
        found: 0,
        false_matches: 0,
        agg_mse: Vec::new(),
        plain_mse: Vec::new(),
        useful: Vec::new(),
    };
    let mut statements = pass.outcome.statements.iter();
    for cam in &w.cameras {
        let frames = cam.frames(w.frames_per_camera);
        let mut useful = HashSet::new();
        for f in &frames {
            if cam.statements.iter().any(|s| s.query().matches_ground_truth(f)) {
                useful.insert(f.frame_id);
            }
        }
        q.useful.push(useful);
        for statement in &cam.statements {
            let outcome = statements.next().expect("one outcome per statement");
            if let Statement::Select { query, .. } = statement {
                let truth: BTreeSet<u64> =
                    frames.iter().filter(|f| query.matches_ground_truth(f)).map(|f| f.frame_id).collect();
                q.true_frames += truth.len() as u64;
                for id in &outcome.run.matched_frames {
                    if truth.contains(id) {
                        q.found += 1;
                    } else {
                        q.false_matches += 1;
                    }
                }
            }
        }
    }
    for r in pass.reports.iter().flatten() {
        q.agg_mse.push(r.mcv_variance + (r.mcv_mean - r.true_fraction).powi(2));
        q.plain_mse.push(r.plain_variance + (r.plain_mean - r.true_fraction).powi(2));
    }
    q
}

/// Checks camera `c` of a fleet pass over `n` frames per camera against
/// its isolated run.
fn parity(w: &Workload, pass: &Pass, c: usize, n: usize) -> bool {
    let frames = w.cameras[c].frames(n);
    let (runs, reports) = workload::isolated(w, c, &frames);
    let fleet_runs: Vec<_> = pass.outcome.statements.iter().filter(|s| s.camera == c).collect();
    let before: usize =
        w.cameras[..c].iter().map(|cam| cam.statements.iter().filter(|s| is_aggregate(s)).count()).sum();
    let fleet_reports = &pass.reports[before..before + reports.len()];
    let runs_equal = runs.len() == fleet_runs.len()
        && runs.iter().zip(&fleet_runs).all(|(a, b)| {
            a.matched_frames == b.run.matched_frames
                && a.frames_detected == b.run.frames_detected
                && a.frames_passed_filter == b.run.frames_passed_filter
                && a.virtual_ms.to_bits() == b.run.virtual_ms.to_bits()
        });
    let reports_equal = reports.iter().zip(fleet_reports).all(|(a, b)| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.window_index == y.window_index
                    && x.plain_mean.to_bits() == y.plain_mean.to_bits()
                    && x.mcv_mean.to_bits() == y.mcv_mean.to_bits()
                    && x.mcv_variance.to_bits() == y.mcv_variance.to_bits()
            })
    });
    runs_equal && reports_equal
}

fn is_aggregate(s: &Statement) -> bool {
    matches!(s, Statement::Aggregate { .. })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| !v.is_empty() && v != "0")
}

fn fingerprint(args: &Args, workers: usize) -> String {
    format!(
        "{{\"cores\":{},\"kernel_backend\":\"{}\",\"VMQ_FORCE_SCALAR\":{},\"VMQ_NO_POOL\":{},\"workers\":{},\"workload\":\"{}\",\"seed\":{}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        vmq_nn::KernelBackend::active().name(),
        env_flag("VMQ_FORCE_SCALAR"),
        env_flag("VMQ_NO_POOL"),
        workers,
        args.workload,
        args.seed
    )
}

/// A named check; the run fails if any is false.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Span totals per layer over a set of traced passes.
#[derive(Default)]
struct SpanTotals {
    breakdown: PollBreakdown,
    filter_calls: u64,
    filter_frames: u64,
    filter_ns: u64,
    detect_calls: u64,
    detect_ns: u64,
    estimator_calls: u64,
    estimator_ns: u64,
    frames_ingested: u64,
}

impl SpanTotals {
    fn add(&mut self, spans: &[Span], frames_ingested: u64) {
        let b = poll_breakdown(spans);
        let t = &mut self.breakdown;
        t.polls += b.polls;
        t.frames += b.frames;
        t.poll_ns += b.poll_ns;
        t.detect_ns += b.detect_ns;
        t.filter_ns += b.filter_ns;
        t.estimator_ns += b.estimator_ns;
        t.self_ns += b.self_ns;
        self.frames_ingested += frames_ingested;
        for s in spans.iter().filter(|s| s.parent != 0) {
            match s.layer {
                Layer::Filter => {
                    self.filter_calls += 1;
                    self.filter_frames += s.frames as u64;
                    self.filter_ns += s.duration_ns();
                }
                Layer::Detect => {
                    self.detect_calls += 1;
                    self.detect_ns += s.duration_ns();
                }
                Layer::Estimator => {
                    self.estimator_calls += 1;
                    self.estimator_ns += s.duration_ns();
                }
                Layer::Poll | Layer::Ingest => {}
            }
        }
    }
}

/// Untimed warm-up: drives fleets the way both loops will (one and two
/// frames per camera per poll, then a whole closed-loop pass) until a round
/// grows no per-thread scratch. A workspace rotates its buffers between
/// layers, so which buffer must grow depends on the order the networks run
/// in; only the real call patterns reach every buffer's high-water mark.
/// Returns the last closed-loop pass: the reference every timed pass must
/// reproduce.
fn warm_up(w: &Workload) -> Pass {
    for round in 1.. {
        let before = vmq_nn::scratch_growth_events();
        workload::run_fleet(w, w.open.cameras, None, |f| {
            for frames in [1, 1, 1, 1, 2, 2, 3] {
                f.ingest(frames);
                f.drain();
            }
        });
        let (reference, _) = workload::run_fleet(w, w.cameras.len(), None, |f| closed_loop(w, f, None));
        if vmq_nn::scratch_growth_events() == before || round == 8 {
            return reference;
        }
    }
    unreachable!("the loop returns by its eighth round")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Repeats the set-up; the median of the times is `setup_s`. Cheap set-ups
/// repeat until two seconds have passed, up to 200 times, so their median
/// spans more than one burst of host noise.
fn set_up(args: &Args) -> (Workload, Vec<f64>) {
    let mut times = Vec::new();
    let mut built = None;
    let start = Instant::now();
    while times.len() < 3 || (start.elapsed().as_secs_f64() < 2.0 && times.len() < 200) {
        let t = Instant::now();
        let w = workload::setup(&args.workload, args.seed);
        workload::run_fleet(&w, w.cameras.len(), None, |_| ());
        times.push(t.elapsed().as_secs_f64());
        built = Some(w);
    }
    (built.expect("at least one set-up ran"), times)
}

/// Untraced closed-loop repetitions on fresh fleets until `budget_s` is
/// spent (three at least). Also returns whether every repetition
/// reproduced the `reference` digest.
fn closed_reps(w: &Workload, budget_s: f64, reference: u64) -> (Vec<Closed>, bool) {
    let mut reps = Vec::new();
    let mut same = true;
    let start = Instant::now();
    while reps.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let (pass, c) = workload::run_fleet(w, w.cameras.len(), None, |f| closed_loop(w, f, None));
        same &= full_digest(&pass) == reference;
        reps.push(c);
    }
    (reps, same)
}

/// What the traced closed-loop repetitions recorded.
#[derive(Default)]
struct TracedReps {
    reps: Vec<Closed>,
    /// Every repetition reproduced the untraced reference digest.
    same: bool,
    spans: SpanTotals,
    /// Summed bench-side poll spans and the fleet's own `poll_wall_ms`.
    poll_ms: (f64, f64),
    /// Distinct detected frames that satisfy one of their camera's
    /// statements, and all distinct detected frames (first repetition).
    useful: (u64, u64),
    /// Spans of the last repetition, for the trace file.
    last: Vec<Span>,
}

/// [`closed_reps`] with a fresh tracer per repetition.
fn traced_reps(w: &Workload, budget_s: f64, reference: u64) -> TracedReps {
    let mut out = TracedReps { same: true, ..TracedReps::default() };
    let start = Instant::now();
    while out.reps.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let tracer = Tracer::new();
        let (pass, c) = workload::run_fleet(w, w.cameras.len(), Some(&tracer), |f| closed_loop(w, f, Some(&tracer)));
        out.same &= full_digest(&pass) == reference;
        let spans = tracer.take_spans();
        out.spans.add(&spans, c.frames);
        out.poll_ms.0 +=
            spans.iter().filter(|s| s.layer == Layer::Poll).map(|s| s.duration_ns() as f64 / 1e6).sum::<f64>();
        out.poll_ms.1 += pass.outcome.poll_wall_ms;
        if out.reps.is_empty() {
            let q = quality(w, &pass);
            let detected: HashSet<(u32, u64)> =
                spans.iter().filter(|s| s.layer == Layer::Detect).map(|s| (s.camera, s.frame_id)).collect();
            out.useful = (
                detected.iter().filter(|(c, f)| q.useful[*c as usize].contains(f)).count() as u64,
                detected.len() as u64,
            );
        }
        out.last = spans;
        out.reps.push(c);
    }
    out
}

/// Everything a run measured, for the metric tables.
struct Measured<'a> {
    w: &'a Workload,
    setup_s: Vec<f64>,
    reference: Pass,
    quality: Quality,
    closed: Vec<Closed>,
    open: Open,
    traced: Option<TracedReps>,
    tasks_executed: u64,
    threads_spawned: u64,
    scratch_growth: u64,
    max_queue_depth: usize,
}

impl Measured<'_> {
    /// Closed-loop throughput: the median of the repetitions' rates. On a
    /// shared host a few repetitions run two to three times slower or
    /// faster than the rest (see `README.md`); a ratio of sums moves with
    /// each of them, the median does not.
    fn fps(reps: &[Closed]) -> f64 {
        median(&reps.iter().map(Closed::frames_per_s).collect::<Vec<_>>())
    }

    fn failed(&self) -> u64 {
        self.open.dropped + self.open.late(workload::LATENCY_LIMIT_MS)
    }

    fn rmse(mse: &[f64]) -> f64 {
        (mse.iter().sum::<f64>() / mse.len().max(1) as f64).sqrt()
    }

    /// Frames passed by the select cascades ÷ frames they saw.
    fn filter_pass_rate(&self) -> f64 {
        let statements = self.w.cameras.iter().flat_map(|c| c.statements.iter());
        let (passed, total) = self
            .reference
            .outcome
            .statements
            .iter()
            .zip(statements)
            .filter(|(_, s)| !is_aggregate(s))
            .fold((0, 0), |(p, t), (o, _)| (p + o.run.frames_passed_filter, t + o.run.frames_total));
        ratio(passed as f64, total as f64)
    }

    fn end_to_end(&self) -> Metrics {
        let o = &self.reference.outcome;
        let q = &self.quality;
        let model = vmq_detect::CostModel::paper();
        let brute_per_frame = model.cost_ms(Stage::Decode) + model.cost_ms(Stage::MaskRcnn);
        let brute_ms: f64 = o.statements.iter().map(|s| s.run.frames_total as f64 * brute_per_frame).sum();
        let charged_ms = o.shared.shared_total_ms + self.w.planning.calibration_ms;
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("frames_per_s", Self::fps(&self.closed), "1/s"),
            ("frame_latency_p50_ms", quantile(&self.open.latency_ms, 0.5), "ms"),
            ("virtual_speedup", brute_ms / charged_ms, "x"),
            ("agg_rmse", Self::rmse(&q.agg_mse), "frac"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    fn per_layer(&self, t: &TracedReps) -> Metrics {
        let (o, q, open, s) = (&self.reference.outcome, &self.quality, &self.open, &t.spans);
        let recall = if q.true_frames == 0 { 1.0 } else { q.found as f64 / q.true_frames as f64 };
        let b = &s.breakdown;
        let poll_ms: Vec<f64> = self.closed.iter().flat_map(|c| c.poll_ms.iter().copied()).collect();
        let polls: usize = self.closed.iter().map(|c| c.poll_ms.len() + 1).sum();
        let ingested: f64 = self.closed.iter().map(|c| c.frames as f64).sum();
        let ingest_ns: f64 = self.closed.iter().map(|c| c.ingest_ns as f64).sum();
        let windows = q.agg_mse.len() as f64;
        let cv_wins = q.agg_mse.iter().zip(&q.plain_mse).filter(|(a, p)| a < p).count() as f64;
        let share = |ns: u64| ratio(ns as f64, b.poll_ns as f64);
        vec![
            ("filters.us_per_frame", ratio(s.filter_ns as f64 / 1e3, s.filter_frames as f64), "us"),
            ("filters.share", share(b.filter_ns), "frac"),
            ("filters.frames_per_call", ratio(s.filter_frames as f64, s.filter_calls as f64), "count"),
            ("filters.frames_per_ingested", ratio(s.filter_frames as f64, s.frames_ingested as f64), "count"),
            ("nn.scratch_growth", self.scratch_growth as f64, "count"),
            ("detect.calls_per_frame", ratio(s.detect_calls as f64, s.frames_ingested as f64), "count"),
            ("detect.useful_ratio", ratio(t.useful.0 as f64, t.useful.1 as f64), "frac"),
            ("detect.us_per_call", ratio(s.detect_ns as f64 / 1e3, s.detect_calls as f64), "us"),
            ("detect.share", share(b.detect_ns), "frac"),
            (
                "detect.cache_hit_ratio",
                ratio(o.cache_hits as f64, (o.cache_hits + o.detector_invocations) as f64),
                "frac",
            ),
            ("detect.cache_evictions", o.cache_evictions as f64, "count"),
            ("detect.cache_resident_bytes", o.cache_resident_bytes as f64, "B"),
            ("query.plan_ms", self.w.planning.plan_ms, "ms"),
            (
                "query.calibration_frames",
                (self.w.planning.calibration_frames + self.reference.calibration_frames) as f64,
                "count",
            ),
            ("query.brute_force_plans", self.w.planning.brute_force_plans as f64, "count"),
            ("query.filter_pass_rate", self.filter_pass_rate(), "frac"),
            ("select_recall", recall, "frac"),
            ("aggregate.windows", windows, "count"),
            ("aggregate.ms_per_window", ratio(s.estimator_ns as f64 / 1e6, s.estimator_calls as f64), "ms"),
            ("aggregate.share", share(b.estimator_ns), "frac"),
            (
                "aggregate.sampled_per_window",
                ratio(self.reference.charged.iter().sum::<u64>() as f64, windows),
                "count",
            ),
            ("aggregate.cv_win_frac", ratio(cv_wins, windows), "frac"),
            ("aggregate.plain_rmse", Self::rmse(&q.plain_mse), "frac"),
            ("frame_latency_p99_ms", open.segment_quantile(self.w.open.ticks, 0.99), "ms"),
            ("fleet.poll_ms_p50", quantile(&poll_ms, 0.5), "ms"),
            ("fleet.poll_ms_p99", quantile(&poll_ms, 0.99), "ms"),
            ("fleet.busy_frac", ratio(open.busy_ns as f64, open.wall_ns as f64), "frac"),
            ("fleet.backlog_max", open.backlog_max as f64, "count"),
            ("fleet.generator_lag_ms_p99", quantile(&open.lag_ms, 0.99), "ms"),
            ("fleet.coalesced_batch_mean", ratio(o.coalesced_frames as f64, o.coalesced_dispatches as f64), "count"),
            ("fleet.self_us_per_frame", ratio(b.self_ns as f64 / 1e3, b.frames as f64), "us"),
            ("fleet.self_share", share(b.self_ns), "frac"),
            ("fleet.failed_frac", ratio(self.failed() as f64, open.offered as f64), "frac"),
            ("video.ingest_us_per_frame", ratio(ingest_ns / 1e3, ingested), "us"),
            ("exec.tasks_per_poll", ratio(self.tasks_executed as f64, polls as f64), "count"),
            ("exec.threads_spawned", self.threads_spawned as f64, "count"),
            ("exec.max_queue_depth", self.max_queue_depth as f64, "count"),
            ("trace.overhead_frac", Self::fps(&self.closed) / Self::fps(&t.reps) - 1.0, "frac"),
        ]
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <select_filter|fleet_dedup|aggregate_cv> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let (w, setup_s) = set_up(&args);
    let fp = fingerprint(&args, w.fleet.workers);
    eprintln!("fingerprint {fp}");
    eprintln!(
        "set-up: {} cameras, {} statements, {} frames/camera; plans {:?}; {} set-ups, s min {:.4} median {:.4} max {:.4}",
        w.cameras.len(),
        w.cameras.iter().map(|c| c.statements.len()).sum::<usize>(),
        w.frames_per_camera,
        w.planning.plans,
        setup_s.len(),
        quantile(&setup_s, 0.0),
        median(&setup_s),
        quantile(&setup_s, 1.0)
    );
    let reference = warm_up(&w);
    let reference_digest = full_digest(&reference);
    let mut checks: Vec<Check> = Vec::new();
    let exec_before = vmq_exec::stats();
    let growth_before = vmq_nn::scratch_growth_events();

    // The open loops follow fixed schedules; the closed loops fill the rest
    // of the budget, split between untraced and traced repetitions when
    // tracing. The traced open loop only feeds spans, so a quarter of the
    // schedule is enough.
    let traced_ticks = w.open.ticks / 4;
    let open_s = w.open.seconds() + if args.trace { traced_ticks as f64 / w.open.rate_hz } else { 0.0 };
    let closed_s = (args.seconds - open_s).max(0.0) / if args.trace { 2.0 } else { 1.0 };
    let (closed, same) = closed_reps(&w, closed_s, reference_digest);
    let tasks_executed = vmq_exec::stats().tasks_executed - exec_before.tasks_executed;
    checks.push(Check {
        name: "closed-loop repetitions reproduce the reference pass",
        ok: same,
        detail: format!("{} repetitions", closed.len()),
    });
    let fps: Vec<f64> = closed.iter().map(Closed::frames_per_s).collect();
    eprintln!(
        "closed loop: {} repetitions of {} frames, frames/s min {:.0} median {:.0} max {:.0}",
        closed.len(),
        w.frames_per_camera * w.cameras.len(),
        quantile(&fps, 0.0),
        median(&fps),
        quantile(&fps, 1.0)
    );

    let mut traced = args.trace.then(|| traced_reps(&w, closed_s, reference_digest));
    if let Some(t) = &traced {
        checks.push(Check {
            name: "traced and untraced passes give identical outcomes",
            ok: t.same,
            detail: format!("{} traced repetitions", t.reps.len()),
        });
        let tolerance = 0.05;
        checks.push(Check {
            name: "poll spans add up to the fleet's own poll wall",
            ok: ratio((t.poll_ms.0 - t.poll_ms.1).abs(), t.poll_ms.1) <= tolerance,
            detail: format!("{:.2} ms spans vs {:.2} ms fleet, tolerance {tolerance}", t.poll_ms.0, t.poll_ms.1),
        });
    }

    // Open loop, untraced: every latency and queueing figure comes from it.
    let (open_pass, open) = workload::run_fleet(&w, w.open.cameras, None, |f| open_loop(&w, f, None, w.open.ticks));
    checks.push(Check {
        name: "open-loop queue mirror matches the fleet backlog",
        ok: open.mirror_ok,
        detail: String::new(),
    });
    // Traced open loop: spans of the one-frame-per-camera polls.
    let mut traced_open_pass = None;
    if let Some(t) = traced.as_mut() {
        let tracer = Tracer::new();
        let (pass, traced_open) =
            workload::run_fleet(&w, w.open.cameras, Some(&tracer), |f| open_loop(&w, f, Some(&tracer), traced_ticks));
        checks.push(Check {
            name: "open-loop queue mirror matches the fleet backlog",
            ok: traced_open.mirror_ok,
            detail: "traced".to_string(),
        });
        let spans = tracer.take_spans();
        t.spans.add(&spans, traced_open.offered - traced_open.dropped);
        t.last.extend(spans);
        traced_open_pass = Some((pass, traced_open.dropped));
        let path = std::path::PathBuf::from(format!("perfbench/out/trace-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, &fp, &t.last) {
            Ok(()) => eprintln!("trace: {} spans written to {}", t.last.len(), path.display()),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
    }
    eprintln!(
        "latency (untraced open loop): {} samples from {} ticks; p50 {:.2} p90 {:.2} p95 {:.2} p99 {:.2} \
         (median of ten segments' p99 {:.2}) max {:.2} ms; limit {} ms",
        open.latency_ms.len(),
        w.open.ticks,
        quantile(&open.latency_ms, 0.5),
        quantile(&open.latency_ms, 0.9),
        quantile(&open.latency_ms, 0.95),
        quantile(&open.latency_ms, 0.99),
        open.segment_quantile(w.open.ticks, 0.99),
        quantile(&open.latency_ms, 1.0),
        workload::LATENCY_LIMIT_MS
    );

    let exec_after = vmq_exec::stats();
    let threads_spawned = exec_after.threads_spawned - exec_before.threads_spawned;
    let scratch_growth = vmq_nn::scratch_growth_events() - growth_before;
    if !vmq_exec::spawn_mode() {
        checks.push(Check {
            name: "the warm pool spawns no threads while timing",
            ok: threads_spawned == 0,
            detail: format!("{threads_spawned} spawned"),
        });
    }
    checks.push(Check {
        name: "per-worker scratch does not grow while timing",
        ok: scratch_growth == 0,
        detail: format!("{scratch_growth} growth events"),
    });

    // Correctness against ground truth and against isolated runs.
    let quality = quality(&w, &reference);
    checks.push(Check {
        name: "every reported match is a ground-truth match",
        ok: quality.false_matches == 0,
        detail: format!("{} false matches", quality.false_matches),
    });
    let mut parity_passes = vec![
        (&reference, w.cameras.len(), w.frames_per_camera, 0, "closed"),
        (&open_pass, w.open.cameras, w.open.ticks, open.dropped, "open"),
    ];
    if let Some((pass, dropped)) = &traced_open_pass {
        parity_passes.push((pass, w.open.cameras, traced_ticks, *dropped, "traced open"));
    }
    for (pass, cameras, frames, dropped, label) in parity_passes {
        // A frame dropped at the edge legitimately changes an open loop.
        if dropped > 0 {
            continue;
        }
        for c in [0, cameras / 2, cameras - 1].into_iter().collect::<BTreeSet<_>>() {
            checks.push(Check {
                name: "sampled camera is bit-identical to its isolated run",
                ok: parity(&w, pass, c, frames),
                detail: format!("camera {c}, {label} loop"),
            });
        }
    }
    eprintln!(
        "selects: {} ground-truth frames, {} found; aggregates: {} windows",
        quality.true_frames,
        quality.found,
        quality.agg_mse.len()
    );

    let measured = Measured {
        w: &w,
        setup_s,
        reference,
        quality,
        closed,
        open,
        traced,
        tasks_executed,
        threads_spawned,
        scratch_growth,
        max_queue_depth: exec_after.max_queue_depth,
    };
    let metrics = match &measured.traced {
        Some(t) => measured.per_layer(t),
        None => measured.end_to_end(),
    };
    report(&fp, &checks, &metrics, &measured);
}

/// Prints the checks (stderr), then the fingerprint, every metric and the
/// JSON result line (stdout), and exits non-zero if a check failed.
fn report(fp: &str, checks: &[Check], metrics: &Metrics, m: &Measured<'_>) -> ! {
    for c in checks {
        let detail = if c.detail.is_empty() { String::new() } else { format!(" ({})", c.detail) };
        eprintln!("check {}: {}{detail}", if c.ok { "ok  " } else { "FAIL" }, c.name);
    }
    println!("fingerprint {fp}");
    for (name, value, unit) in metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    let all_finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = all_finite && checks.iter().all(|c| c.ok);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let attempted = m.closed.iter().map(|c| c.frames).sum::<u64>() + m.open.offered;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed(),
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
