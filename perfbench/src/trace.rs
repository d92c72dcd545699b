//! Write-only tracing at the boundaries where the fleet calls into its layers.
//!
//! The fleet is given [`TracedFilter`], [`TracedDetector`] and
//! [`TracedEstimator`] in place of the real backends. Each forwards every
//! trait method to the wrapped object unchanged; with a [`Tracer`] attached it
//! also records one [`Span`] per call. Nothing recorded here is ever read back
//! by the fleet, so tracing cannot change a result bit (the wrapped-vs-bare
//! test in `tests.rs` and the traced-vs-untraced check in `main.rs` pin this).
//!
//! Spans are kept in per-thread buffers (the detector is called from pool
//! workers) and collected once the traced run is over.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vmq_detect::{CostLedger, CostModel, Detector, FrameDetections, Stage};
use vmq_filters::{FilterEstimate, FilterKind, FilterProfile, FrameFilter};
use vmq_query::{WindowCharge, WindowData, WindowEstimator};
use vmq_video::{Frame, ObjectClass};

/// The layer a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One `FleetRuntime::poll` call (root of every other span).
    Poll,
    /// One `FleetRuntime::ingest` call.
    Ingest,
    /// One call into a `FrameFilter` inference method.
    Filter,
    /// One `Detector::detect` call.
    Detect,
    /// One `WindowEstimator::estimate_window` call.
    Estimator,
}

impl Layer {
    /// Name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Poll => "poll",
            Layer::Ingest => "ingest",
            Layer::Filter => "filter",
            Layer::Detect => "detect",
            Layer::Estimator => "estimator",
        }
    }
}

/// One recorded call. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer of the call.
    pub layer: Layer,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Id of the enclosing poll span (its own id for a poll span's children;
    /// 0 for calls made outside any poll).
    pub parent: u64,
    /// Id of this span when it is a poll span (poll ids count from 1); 0
    /// otherwise.
    pub poll_id: u64,
    /// Index of the recording thread, in order of first use.
    pub thread: u32,
    /// Frames the call handled (batch length; 1 for a detect call).
    pub frames: u32,
    /// Camera of the detected frame (detect spans only).
    pub camera: u32,
    /// Frame id of the detected frame (detect spans only).
    pub frame_id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's span buffer for the tracer with the given id.
    static LOCAL: RefCell<Option<(u64, u32, Buffer)>> = const { RefCell::new(None) };
}

/// Collects spans from every thread that calls into a traced wrapper.
pub struct Tracer {
    id: u64,
    epoch: Instant,
    open_poll: AtomicU64,
    next_poll: AtomicU64,
    buffers: Mutex<Vec<Buffer>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            open_poll: AtomicU64::new(0),
            next_poll: AtomicU64::new(1),
            buffers: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Marks the start of a poll: spans recorded until [`Tracer::end_poll`]
    /// take this poll as their parent. Returns the poll id and start time.
    pub fn begin_poll(&self) -> (u64, u64) {
        let id = self.next_poll.fetch_add(1, Ordering::Relaxed);
        let start = self.now_ns();
        // Workers read the open poll id while the poll runs; the pool's
        // task hand-off orders this store before their loads.
        self.open_poll.store(id, Ordering::SeqCst);
        (id, start)
    }

    /// Closes the poll opened by [`Tracer::begin_poll`] and records its span.
    pub fn end_poll(&self, (id, start): (u64, u64), frames: usize) {
        let end = self.now_ns();
        self.open_poll.store(0, Ordering::SeqCst);
        self.record(Span {
            layer: Layer::Poll,
            start_ns: start,
            end_ns: end,
            parent: 0,
            poll_id: id,
            thread: 0,
            frames: frames as u32,
            camera: 0,
            frame_id: 0,
        });
    }

    /// Records a span of `layer` around `f`.
    pub fn time<R>(&self, layer: Layer, frames: usize, key: (u32, u64), f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(Span {
            layer,
            start_ns: start,
            end_ns: end,
            parent: self.open_poll.load(Ordering::SeqCst),
            poll_id: 0,
            thread: 0,
            frames: frames as u32,
            camera: key.0,
            frame_id: key.1,
        });
        out
    }

    fn record(&self, mut span: Span) {
        LOCAL.with(|cell| {
            let mut slot = cell.borrow_mut();
            if slot.as_ref().map(|(id, _, _)| *id) != Some(self.id) {
                let buffer: Buffer = Arc::new(Mutex::new(Vec::with_capacity(1 << 12)));
                let mut buffers = self.buffers.lock().expect("tracer registry lock poisoned by a panicking thread");
                buffers.push(buffer.clone());
                *slot = Some((self.id, (buffers.len() - 1) as u32, buffer));
            }
            let (_, thread, buffer) = slot.as_ref().expect("buffer registered above");
            span.thread = *thread;
            buffer.lock().expect("span buffer lock poisoned by a panicking thread").push(span);
        });
    }

    /// Takes every span recorded so far, ordered by start time.
    pub fn take_spans(&self) -> Vec<Span> {
        let buffers = self.buffers.lock().expect("tracer registry lock poisoned by a panicking thread");
        let mut spans: Vec<Span> = Vec::new();
        for buffer in buffers.iter() {
            spans.append(&mut buffer.lock().expect("span buffer lock poisoned by a panicking thread"));
        }
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        spans
    }
}

/// A [`FrameFilter`] that forwards to `inner` and, when traced, records a
/// [`Layer::Filter`] span per inference call.
pub struct TracedFilter<'a> {
    inner: &'a dyn FrameFilter,
    tracer: Option<&'a Tracer>,
}

impl<'a> TracedFilter<'a> {
    /// Wraps `inner`; `tracer: None` forwards without recording.
    pub fn new(inner: &'a dyn FrameFilter, tracer: Option<&'a Tracer>) -> Self {
        TracedFilter { inner, tracer }
    }

    fn traced<R>(&self, frames: usize, f: impl FnOnce() -> R) -> R {
        match self.tracer {
            Some(t) => t.time(Layer::Filter, frames, (0, 0), f),
            None => f(),
        }
    }
}

impl FrameFilter for TracedFilter<'_> {
    fn estimate(&self, frame: &Frame) -> FilterEstimate {
        self.traced(1, || self.inner.estimate(frame))
    }

    fn estimate_batch(&self, frames: &[Frame]) -> Vec<FilterEstimate> {
        self.traced(frames.len(), || self.inner.estimate_batch(frames))
    }

    fn estimate_batch_sharded(&self, frames: &[Frame], workers: usize) -> Vec<FilterEstimate> {
        self.traced(frames.len(), || self.inner.estimate_batch_sharded(frames, workers))
    }

    fn profile(&self, frames: &[Frame], model: &CostModel, batch_size: usize) -> FilterProfile {
        self.inner.profile(frames, model, batch_size)
    }

    fn kind(&self) -> FilterKind {
        self.inner.kind()
    }

    fn kernel_backend(&self) -> &'static str {
        self.inner.kernel_backend()
    }

    fn grid_size(&self) -> usize {
        self.inner.grid_size()
    }

    fn threshold(&self) -> f32 {
        self.inner.threshold()
    }

    fn classes(&self) -> &[ObjectClass] {
        self.inner.classes()
    }
}

/// A [`Detector`] that forwards to `inner` and, when traced, records a
/// [`Layer::Detect`] span (with the frame's key) per call.
pub struct TracedDetector<'a> {
    inner: &'a dyn Detector,
    tracer: Option<&'a Tracer>,
}

impl<'a> TracedDetector<'a> {
    /// Wraps `inner`; `tracer: None` forwards without recording.
    pub fn new(inner: &'a dyn Detector, tracer: Option<&'a Tracer>) -> Self {
        TracedDetector { inner, tracer }
    }
}

impl Detector for TracedDetector<'_> {
    fn detect(&self, frame: &Frame) -> FrameDetections {
        match self.tracer {
            Some(t) => t.time(Layer::Detect, 1, (frame.camera_id, frame.frame_id), || self.inner.detect(frame)),
            None => self.inner.detect(frame),
        }
    }

    fn stage(&self) -> Stage {
        self.inner.stage()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`WindowEstimator`] that owns `inner`, forwards to it and, when traced,
/// records a [`Layer::Estimator`] span per window (its sampled detect spans
/// nest inside).
pub struct TracedEstimator<'a, E> {
    /// The wrapped estimator (read back for its per-window reports).
    pub inner: E,
    tracer: Option<&'a Tracer>,
    /// Detector frames the wrapped estimator reported charging, summed over
    /// windows (calibration frames included).
    pub charged_frames: u64,
    /// The calibration part of `charged_frames`.
    pub calibration_frames: u64,
}

impl<'a, E: WindowEstimator> TracedEstimator<'a, E> {
    /// Wraps `inner`; `tracer: None` forwards without recording.
    pub fn new(inner: E, tracer: Option<&'a Tracer>) -> Self {
        TracedEstimator { inner, tracer, charged_frames: 0, calibration_frames: 0 }
    }
}

impl<E: WindowEstimator> WindowEstimator for TracedEstimator<'_, E> {
    fn estimate_window(
        &mut self,
        window: WindowData<'_>,
        detector: &dyn Detector,
        ledger: &CostLedger,
    ) -> WindowCharge {
        let frames = window.frames.len();
        let charge = match self.tracer {
            Some(t) => {
                t.time(Layer::Estimator, frames, (0, 0), || self.inner.estimate_window(window, detector, ledger))
            }
            None => self.inner.estimate_window(window, detector, ledger),
        };
        self.charged_frames += charge.total();
        self.calibration_frames += charge.calibration_frames;
        charge
    }

    fn set_shed_level(&mut self, level: u32) {
        self.inner.set_shed_level(level);
    }
}

/// Wall time inside polls, split over the layers by the innermost-first
/// rule: an instant covered by a detect span is detect time, else by a
/// filter span filter time, else by an estimator span estimator time, else
/// the fleet's own time. The four parts add up to the poll wall exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct PollBreakdown {
    /// Polls analysed.
    pub polls: u64,
    /// Frames the polls processed.
    pub frames: u64,
    /// Summed poll wall, ns.
    pub poll_ns: u64,
    /// Detect-covered time, ns.
    pub detect_ns: u64,
    /// Filter-covered time outside detect spans, ns.
    pub filter_ns: u64,
    /// Estimator-covered time outside detect and filter spans, ns.
    pub estimator_ns: u64,
    /// Poll time covered by no child span, ns.
    pub self_ns: u64,
}

/// Splits every poll span's wall over its children (see [`PollBreakdown`]).
pub fn poll_breakdown(spans: &[Span]) -> PollBreakdown {
    let mut children: std::collections::HashMap<u64, Vec<&Span>> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.layer != Layer::Poll && s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out = PollBreakdown::default();
    for poll in spans.iter().filter(|s| s.layer == Layer::Poll) {
        out.polls += 1;
        out.frames += poll.frames as u64;
        out.poll_ns += poll.duration_ns();
        // Sweep the child interval boundaries; each segment goes to the
        // highest-priority layer active over it.
        let mut events: Vec<(u64, usize, i32)> = Vec::new();
        for c in children.get(&poll.poll_id).map(Vec::as_slice).unwrap_or(&[]) {
            let rank = match c.layer {
                Layer::Detect => 0,
                Layer::Filter => 1,
                Layer::Estimator => 2,
                Layer::Poll | Layer::Ingest => continue,
            };
            let (s, e) = (c.start_ns.max(poll.start_ns), c.end_ns.min(poll.end_ns));
            if e > s {
                events.push((s, rank, 1));
                events.push((e, rank, -1));
            }
        }
        events.sort_unstable();
        let mut active = [0i32; 3];
        let mut covered = [0u64; 3];
        let mut last = poll.start_ns;
        for (t, rank, delta) in events {
            if let Some(top) = active.iter().position(|&n| n > 0) {
                covered[top] += t - last;
            }
            last = t;
            active[rank] += delta;
        }
        out.detect_ns += covered[0];
        out.filter_ns += covered[1];
        out.estimator_ns += covered[2];
        out.self_ns += poll.duration_ns() - covered.iter().sum::<u64>();
    }
    out
}

/// Writes `spans` as JSON lines: one object per span with its id, name,
/// start, end (µs since the tracer started), parent poll id, thread and
/// frame count. Poll spans keep their poll id; other spans are numbered
/// after the last poll id.
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    let mut next_id = spans.iter().map(|s| s.poll_id).max().unwrap_or(0) + 1;
    for s in spans {
        let id = if s.layer == Layer::Poll {
            s.poll_id
        } else {
            next_id += 1;
            next_id - 1
        };
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"thread\":{},\"frames\":{}}}",
            id,
            s.layer.name(),
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.parent,
            s.thread,
            s.frames
        )?;
    }
    out.flush()
}
