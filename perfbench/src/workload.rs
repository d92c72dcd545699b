//! The three benchmark workloads: what each camera runs, how the fleet is
//! built from that description, and the isolated reference run the fleet is
//! checked against.
//!
//! Every input is derived from the workload seed: training data, camera
//! streams, calibrated-filter noise and estimator sampling. The fleet itself
//! only ever sees the frames its cameras generate.

use std::time::Instant;

use vmq_aggregate::{AggregateReport, WindowedAggregator};
use vmq_core::{CalibrationConfig, FleetConfig, FleetOutcome, FleetRuntime};
use vmq_detect::{CostLedger, DetectionCache, Detector, OracleDetector};
use vmq_filters::{
    CalibratedFilter, CalibrationProfile, FilterConfig, FrameFilter, QuantizedIcFilter, QuantizedOdFilter,
    TrainedFilters,
};
use vmq_query::{plan_cascade, AggregateSpec, CascadeConfig, PipelineConfig, Query, QueryRun, SharedStreamPlan};
use vmq_video::{Dataset, DatasetProfile, Frame, ObjectClass, Scene, SceneConfig};

use crate::trace::{TracedDetector, TracedEstimator, TracedFilter, Tracer};

/// Worker count of the `select_filter` and `fleet_dedup` fleets: the two
/// cores of the reference machine. `aggregate_cv` runs on one worker.
pub const WORKERS: usize = 2;
/// A frame that completes later than this after it was due counts as failed.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;
/// Grid side of the calibrated analytic filters (the learned filters' grid).
const CALIBRATED_GRID: usize = 14;

/// Names of the workloads, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["select_filter", "fleet_dedup", "aggregate_cv"];

/// A filter backend a camera registers.
#[derive(Debug, Clone)]
pub enum Backend {
    /// One of the workload's trained filters (shared by every camera).
    Learned(usize),
    /// A per-camera analytic filter; its noise stream is sequential, so each
    /// fleet pass gets a fresh, identically seeded instance.
    Calibrated { profile: CalibrationProfile, seed: u64 },
}

/// A standing statement. Backend indices are camera-local.
#[derive(Debug, Clone)]
pub enum Statement {
    /// A select with a fixed cascade (`backend: None` is brute force).
    Select { query: Query, cascade: CascadeConfig, backend: Option<usize> },
    /// A windowed aggregate estimated by a [`WindowedAggregator`].
    Aggregate {
        query: Query,
        spec: AggregateSpec,
        backends: Vec<usize>,
        sample_size: usize,
        trials: usize,
        seed: u64,
        /// Per-window control-variate backend choice over this many leading
        /// frames (`None`: always the first backend).
        adaptive_prefix: Option<usize>,
    },
}

impl Statement {
    /// The statement's frame predicate.
    pub fn query(&self) -> &Query {
        match self {
            Statement::Select { query, .. } | Statement::Aggregate { query, .. } => query,
        }
    }

    fn estimator(&self) -> Option<WindowedAggregator> {
        match self {
            Statement::Select { .. } => None,
            Statement::Aggregate { query, sample_size, trials, seed, adaptive_prefix, .. } => {
                let agg = WindowedAggregator::new(query.clone(), *sample_size, *trials, *seed);
                Some(match adaptive_prefix {
                    Some(p) => agg.with_adaptive_backend(*p),
                    None => agg,
                })
            }
        }
    }
}

/// One camera: its stream, its backends and its standing statements.
#[derive(Debug, Clone)]
pub struct Camera {
    pub scene: SceneConfig,
    pub seed: u64,
    pub classes: Vec<ObjectClass>,
    pub tenant: &'static str,
    pub backends: Vec<Backend>,
    pub statements: Vec<Statement>,
}

impl Camera {
    /// The first `n` frames the camera's stream produces.
    pub fn frames(&self, n: usize) -> Vec<Frame> {
        let mut scene = Scene::new(self.scene.clone(), self.seed);
        (0..n).map(|_| scene.step()).collect()
    }

    /// Fresh instances of the camera's calibrated backends, in backend order.
    pub fn calibrated_filters(&self) -> Vec<CalibratedFilter> {
        self.backends
            .iter()
            .filter_map(|b| match b {
                Backend::Calibrated { profile, seed } => {
                    Some(CalibratedFilter::new(self.classes.clone(), CALIBRATED_GRID, *profile, *seed))
                }
                Backend::Learned(_) => None,
            })
            .collect()
    }

    /// Fresh estimators for the camera's aggregates, in statement order.
    pub fn estimators(&self) -> Vec<WindowedAggregator> {
        self.statements.iter().filter_map(Statement::estimator).collect()
    }
}

/// What the set-up phase planned, for the query-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct Planning {
    /// Wall time spent in `plan_cascade`, ms.
    pub plan_ms: f64,
    /// Prefix frames annotated by the detector for planning.
    pub calibration_frames: u64,
    /// Virtual cost charged by planning, ms.
    pub calibration_ms: f64,
    /// Planned statements that chose brute force.
    pub brute_force_plans: usize,
    /// One `query: label` line per planned statement.
    pub plans: Vec<String>,
}

/// A fully set-up workload.
pub struct Workload {
    pub cameras: Vec<Camera>,
    /// Trained filters shared by every camera (indexed by [`Backend::Learned`]).
    pub learned: Vec<Box<dyn FrameFilter>>,
    pub oracle: OracleDetector,
    pub fleet: FleetConfig,
    /// Frames per camera in one closed-loop pass.
    pub frames_per_camera: usize,
    pub open: OpenLoop,
    pub planning: Planning,
}

/// The open-loop schedule: each of the first `cameras` cameras is offered
/// one frame every `1 / rate_hz` seconds, `ticks` times. Latency samples of
/// one tick share a poll, so the ticks are the independent samples.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub cameras: usize,
    pub ticks: usize,
    pub rate_hz: f64,
}

impl OpenLoop {
    /// Length of the schedule, seconds.
    pub fn seconds(&self) -> f64 {
        self.ticks as f64 / self.rate_hz
    }
}

/// SplitMix64 step: decorrelated per-purpose seeds from one workload seed.
fn derive_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407) ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Builds the named workload from `seed`. Everything here counts as set-up
/// time: generation, training, quantization and planning.
pub fn setup(name: &str, seed: u64) -> Workload {
    match name {
        "select_filter" => select_filter(seed),
        "fleet_dedup" => fleet_dedup(seed),
        "aggregate_cv" => aggregate_cv(seed),
        other => panic!("unknown workload {other}"),
    }
}

/// Seed of everything a deployment fixes before traffic arrives: training
/// data, weight initialisation, int8 calibration and the planner's
/// calibration recording. Every `--seed` runs the same deployment, so the
/// workload seed varies only the live traffic.
const DEPLOYMENT_SEED: u64 = 2020;

/// Trains IC and OD on `frames` frames of `profile` (the small 28-pixel
/// filter architecture, so set-up stays within seconds).
pub(crate) fn train(profile: &DatasetProfile, seed: u64, train_frames: usize, epochs: usize) -> TrainedFilters {
    let dataset = Dataset::generate(profile, train_frames, 0, seed);
    let mut config = FilterConfig::fast_test(profile.class_list()).with_seed(seed);
    config.schedule.epochs = epochs;
    config.schedule.count_only_epochs = (epochs / 2).max(1);
    TrainedFilters::train_ic_od(&dataset, &config, &OracleDetector::perfect())
}

fn base_fleet(queue_capacity: usize) -> FleetConfig {
    FleetConfig { batch_size: 16, workers: WORKERS, queue_capacity, ..FleetConfig::default() }
}

/// `select_filter`: cameras of the stock DeTRAC profile with standing q6/q7
/// selects, each planned once by `plan_cascade` over the IC/OD filters and
/// their int8 twins on a fixed calibration recording, plus one `a4`
/// aggregate per camera reading a planned backend (so it adds detector
/// sampling, not inference). q6 and q7 hold on well under 1 % of DeTRAC
/// frames, so recall rests on a handful of frames per run.
fn select_filter(seed: u64) -> Workload {
    const CAMERAS: usize = 16;
    const FRAMES: usize = 192;
    let profile = DatasetProfile::detrac();
    let trained = train(&profile, DEPLOYMENT_SEED, 400, 6);
    let calib = Dataset::generate(&profile, 48, 0, DEPLOYMENT_SEED + 1);
    let learned: Vec<Box<dyn FrameFilter>> = vec![
        Box::new(QuantizedIcFilter::from_trained(&trained.ic, calib.train())),
        Box::new(QuantizedOdFilter::from_trained(&trained.od, calib.train())),
        Box::new(trained.ic),
        Box::new(trained.od),
    ];
    const OD_F32: usize = 3;
    // Candidate order as in `CalibrationConfig::learned_with_int8`.
    let candidates: [usize; 4] = [2, OD_F32, 0, 1];
    let backends: Vec<&dyn FrameFilter> = candidates.iter().map(|&i| learned[i].as_ref()).collect();
    let calibration = CalibrationConfig::learned_with_int8();
    // The calibration recording: the leading `prefix_frames` of four cameras
    // outside the fleet, the same for every seed.
    let prefix: Vec<Frame> = (0..4)
        .flat_map(|k| {
            let scene = SceneConfig::from_profile(&profile).with_camera(1000 + k as u32);
            let mut scene = Scene::new(scene, DEPLOYMENT_SEED + 10 + k);
            (0..calibration.prefix_frames).map(move |_| scene.step())
        })
        .collect();
    let oracle = OracleDetector::perfect();
    let ledger = CostLedger::paper();
    let mut planning = Planning::default();
    let mut selects = Vec::new();
    for query in [Query::paper_q6(), Query::paper_q7()] {
        let start = Instant::now();
        let report = plan_cascade(
            &query,
            &prefix,
            &backends,
            &calibration.candidate_tolerances,
            &oracle,
            &ledger,
            PipelineConfig::DEFAULT_BATCH_SIZE,
        );
        planning.plan_ms += start.elapsed().as_secs_f64() * 1000.0;
        planning.calibration_frames += report.prefix_frames as u64;
        let choice = report.choice;
        planning.plans.push(format!("{}: {}", query.name, choice.label));
        let backend = if choice.brute_force {
            planning.brute_force_plans += 1;
            None
        } else {
            Some(candidates[choice.backend_index])
        };
        selects.push(Statement::Select { query, cascade: choice.cascade, backend });
    }
    planning.calibration_ms = ledger.total_ms();
    let agg_backend = selects
        .iter()
        .find_map(|s| match s {
            Statement::Select { backend: Some(b), .. } => Some(*b),
            _ => None,
        })
        .unwrap_or(OD_F32);
    let cameras = (0..CAMERAS)
        .map(|c| {
            let mut statements = selects.clone();
            statements.push(Statement::Aggregate {
                query: Query::paper_a4(),
                spec: AggregateSpec::new(64, 64),
                backends: vec![agg_backend],
                sample_size: 8,
                trials: 6,
                seed: derive_seed(seed, 4, c as u64),
                adaptive_prefix: None,
            });
            Camera {
                scene: SceneConfig::from_profile(&profile).with_camera(c as u32),
                seed: derive_seed(seed, 3, c as u64),
                classes: profile.class_list(),
                tenant: "traffic",
                backends: (0..learned.len()).map(Backend::Learned).collect(),
                statements,
            }
        })
        .collect();
    Workload {
        cameras,
        learned,
        oracle,
        fleet: base_fleet(FRAMES),
        frames_per_camera: FRAMES,
        // A quarter of the cameras: each open-loop poll infers one frame per
        // camera on one thread, and with the fleet under 25 % busy at 10 ms a
        // tick, a host that slows down twice over still keeps up. 800 ticks
        // (8 s) leave most of a run to the closed loop, whose two-worker
        // drain is the noisiest figure here.
        open: OpenLoop { cameras: CAMERAS / 4, ticks: 800, rate_hz: 100.0 },
        planning,
    }
}

/// `fleet_dedup`: hundreds of Jackson cameras with the seven-statement mix of
/// the `fleet_scale` harness over per-camera analytic filters, a tight cache
/// byte budget and coalesced detection.
fn fleet_dedup(seed: u64) -> Workload {
    const CAMERAS: usize = 240;
    // `FleetRuntime::finish` on 1 680 statements costs about as much as
    // draining 100 frames per camera, so a long backlog keeps most of each
    // closed-loop repetition in the measured drain.
    const FRAMES: usize = 144;
    const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
    let profile = DatasetProfile::jackson();
    let selects = [
        (Query::paper_q1(), CascadeConfig::strict()),
        (Query::paper_q3(), CascadeConfig::strict()),
        (Query::paper_q4(), CascadeConfig::tolerant()),
        (Query::paper_q5(), CascadeConfig::tolerant()),
        (Query::paper_q7(), CascadeConfig::strict()),
    ];
    let cameras = (0..CAMERAS)
        .map(|c| {
            let mut statements: Vec<Statement> = selects
                .iter()
                .map(|(query, cascade)| Statement::Select { query: query.clone(), cascade: *cascade, backend: Some(0) })
                .collect();
            for (k, spec) in
                [AggregateSpec::new(20, 20), AggregateSpec::hopping_seconds(1.0, 1.0)].into_iter().enumerate()
            {
                statements.push(Statement::Aggregate {
                    query: Query::paper_a1(),
                    spec,
                    backends: vec![0],
                    sample_size: 4,
                    trials: 3,
                    seed: derive_seed(seed, 5 + k as u64, c as u64),
                    adaptive_prefix: None,
                });
            }
            Camera {
                scene: SceneConfig::from_profile(&profile).with_camera(c as u32),
                seed: derive_seed(seed, 3, c as u64),
                classes: profile.class_list(),
                tenant: TENANTS[c % TENANTS.len()],
                backends: vec![Backend::Calibrated {
                    profile: CalibrationProfile::od_like(),
                    seed: derive_seed(seed, 7, c as u64),
                }],
                statements,
            }
        })
        .collect();
    Workload {
        cameras,
        learned: Vec::new(),
        oracle: OracleDetector::perfect(),
        fleet: FleetConfig { cache_bytes: 1 << 20, ..base_fleet(FRAMES) },
        frames_per_camera: FRAMES,
        // Window emissions recur every 20 ticks, so 200 ticks already give a
        // steady tail here; 25 Hz keeps the fleet under 25 % busy, so a host
        // that slows down twice over still keeps up.
        open: OpenLoop { cameras: CAMERAS, ticks: 200, rate_hz: 25.0 },
        planning: Planning::default(),
    }
}

/// `aggregate_cv`: the windowed aggregates a1–a5, each on its density-tuned
/// profile, with IC and OD f32 as control-variate columns chosen per window.
fn aggregate_cv(seed: u64) -> Workload {
    const CAMERAS_PER_QUERY: usize = 8;
    const FRAMES: usize = 240;
    const FPS: f32 = 30.0;
    let queries = [Query::paper_a1(), Query::paper_a2(), Query::paper_a3(), Query::paper_a4(), Query::paper_a5()];
    let mut learned: Vec<Box<dyn FrameFilter>> = Vec::new();
    let mut trained_for: Vec<(String, usize)> = Vec::new();
    // The filters of each query's profile; a3 and a4 share one profile, so
    // they share its filters.
    let mut filters_of: Vec<usize> = Vec::new();
    for (qi, query) in queries.iter().enumerate() {
        let profile = vmq_bench::aggregate_profile_for(&query.name);
        let key = format!("{profile:?}");
        let first = match trained_for.iter().find(|(k, _)| *k == key) {
            Some((_, i)) => *i,
            None => {
                let trained = train(&profile, DEPLOYMENT_SEED + qi as u64, 120, 3);
                learned.push(Box::new(trained.ic));
                learned.push(Box::new(trained.od));
                trained_for.push((key, learned.len() - 2));
                learned.len() - 2
            }
        };
        filters_of.push(first);
    }
    // Queries alternate across cameras, so every prefix of the fleet (the
    // open loop runs on one) covers all five.
    let cameras = (0..CAMERAS_PER_QUERY * queries.len())
        .map(|c| {
            let qi = c % queries.len();
            let profile = vmq_bench::aggregate_profile_for(&queries[qi].name);
            let first = filters_of[qi];
            Camera {
                scene: SceneConfig::from_profile(&profile).with_camera(c as u32).with_fps(FPS),
                seed: derive_seed(seed, 3, c as u64),
                classes: profile.class_list(),
                tenant: "analytics",
                backends: vec![Backend::Learned(first), Backend::Learned(first + 1)],
                statements: vec![Statement::Aggregate {
                    query: queries[qi].clone(),
                    spec: AggregateSpec::new(60, 60),
                    backends: vec![0, 1],
                    sample_size: 10,
                    trials: 4,
                    seed: derive_seed(seed, 4, c as u64),
                    adaptive_prefix: Some(10),
                }],
            }
        })
        .collect();
    Workload {
        cameras,
        learned,
        oracle: OracleDetector::perfect(),
        // One worker: with two, each pool fork-join covers under a millisecond
        // of f32 inference (half a 16-frame batch), and on a shared host the
        // drain rate swung 3× from repetition to repetition (one run:
        // 3 077–15 815 frames/s, median 5 635) while one worker held within
        // 13 % (median 7 956) in the same run.
        fleet: FleetConfig { workers: 1, ..base_fleet(FRAMES) },
        frames_per_camera: FRAMES,
        // Half the cameras, so the fleet stays under 25 % busy and a host
        // that slows down twice over still keeps up. 1 200 ticks (12 s, 20
        // windows per camera) leave most of a run to the closed loop.
        open: OpenLoop { cameras: CAMERAS_PER_QUERY * queries.len() / 2, ticks: 1200, rate_hz: 100.0 },
        planning: Planning::default(),
    }
}

/// Everything one fleet pass produced.
pub struct Pass {
    pub outcome: FleetOutcome,
    /// Per-window reports of every aggregate statement, registration order.
    pub reports: Vec<Vec<AggregateReport>>,
    /// Detector frames each aggregate's estimator charged.
    pub charged: Vec<u64>,
    /// The calibration part of `charged`, summed over aggregates.
    pub calibration_frames: u64,
}

/// Builds a fresh fleet of the first `cameras` cameras of `w` (wrappers
/// traced by `tracer` when given), hands it to `drive`, then finishes it.
pub fn run_fleet<R>(
    w: &Workload,
    cameras: usize,
    tracer: Option<&Tracer>,
    drive: impl FnOnce(&mut FleetRuntime<'_>) -> R,
) -> (Pass, R) {
    let cams = &w.cameras[..cameras];
    let calibrated: Vec<CalibratedFilter> = cams.iter().flat_map(Camera::calibrated_filters).collect();
    let learned: Vec<TracedFilter<'_>> = w.learned.iter().map(|f| TracedFilter::new(f.as_ref(), tracer)).collect();
    let per_camera: Vec<TracedFilter<'_>> = calibrated.iter().map(|f| TracedFilter::new(f, tracer)).collect();
    let mut estimators: Vec<TracedEstimator<'_, WindowedAggregator>> =
        cams.iter().flat_map(Camera::estimators).map(|e| TracedEstimator::new(e, tracer)).collect();
    let detector = TracedDetector::new(&w.oracle, tracer);
    let mut fleet = FleetRuntime::new(&detector, w.fleet.clone());
    let mut per_camera_iter = per_camera.iter();
    let mut estimator_iter = estimators.iter_mut();
    for cam in cams {
        let c = fleet.add_camera(Scene::new(cam.scene.clone(), cam.seed));
        let ids: Vec<usize> = cam
            .backends
            .iter()
            .map(|b| {
                let filter: &dyn FrameFilter = match b {
                    Backend::Learned(i) => &learned[*i],
                    Backend::Calibrated { .. } => per_camera_iter.next().expect("one filter per calibrated backend"),
                };
                fleet.add_backend(c, filter)
            })
            .collect();
        for statement in &cam.statements {
            match statement {
                Statement::Select { query, cascade, backend } => {
                    fleet.register_select(c, cam.tenant, query.clone(), *cascade, backend.map(|b| ids[b]));
                }
                Statement::Aggregate { query, spec, backends, .. } => {
                    let backends: Vec<usize> = backends.iter().map(|&b| ids[b]).collect();
                    let estimator = estimator_iter.next().expect("one estimator per aggregate");
                    fleet.register_aggregate(c, cam.tenant, query.clone(), *spec, &backends, estimator);
                }
            }
        }
    }
    let result = drive(&mut fleet);
    let outcome = fleet.finish();
    let charged = estimators.iter().map(|e| e.charged_frames).collect();
    let calibration_frames = estimators.iter().map(|e| e.calibration_frames).sum();
    let reports = estimators.into_iter().map(|e| e.inner.into_reports()).collect();
    (Pass { outcome, reports, charged, calibration_frames }, result)
}

/// Runs camera `c`'s statements alone through a `SharedStreamPlan` with a
/// fresh unbounded cache, fresh ledgers, one worker and the bare (unwrapped)
/// backends, over `frames`. Returns the per-statement runs and the aggregate
/// reports in registration order.
pub fn isolated(w: &Workload, c: usize, frames: &[Frame]) -> (Vec<QueryRun>, Vec<Vec<AggregateReport>>) {
    let cam = &w.cameras[c];
    let calibrated = cam.calibrated_filters();
    let mut estimators = cam.estimators();
    let detector: &dyn Detector = &w.oracle;
    let mut plan = SharedStreamPlan::new(
        detector,
        DetectionCache::new(),
        CostLedger::paper(),
        PipelineConfig::with_batch_size(w.fleet.batch_size),
    )
    .with_workers(1);
    let mut calibrated_iter = calibrated.iter();
    let ids: Vec<usize> = cam
        .backends
        .iter()
        .map(|b| {
            let filter: &dyn FrameFilter = match b {
                Backend::Learned(i) => w.learned[*i].as_ref(),
                Backend::Calibrated { .. } => calibrated_iter.next().expect("one filter per calibrated backend"),
            };
            plan.add_backend(filter)
        })
        .collect();
    let mut estimator_iter = estimators.iter_mut();
    for statement in &cam.statements {
        match statement {
            Statement::Select { query, cascade, backend } => {
                plan.register_select(query.clone(), *cascade, backend.map(|b| ids[b]), CostLedger::paper());
            }
            Statement::Aggregate { query, spec, backends, .. } => {
                let backends: Vec<usize> = backends.iter().map(|&b| ids[b]).collect();
                let estimator = estimator_iter.next().expect("one estimator per aggregate");
                plan.register_aggregate(query.clone(), *spec, &backends, estimator, CostLedger::paper());
            }
        }
    }
    let runs = plan.execute_slice(frames);
    drop(plan);
    (runs, estimators.into_iter().map(WindowedAggregator::into_reports).collect())
}
