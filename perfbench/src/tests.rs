//! The wrappers must be invisible to the fleet: a fleet given the bare
//! backends and one given the traced wrappers produce bit-identical
//! outcomes. Run with `cargo test --release` (the second case trains a
//! small filter).

use vmq_aggregate::WindowedAggregator;
use vmq_core::{FleetOutcome, FleetRuntime};
use vmq_filters::{CalibratedFilter, FrameFilter, QuantizedIcFilter};
use vmq_query::{AggregateSpec, CascadeConfig, Query};
use vmq_video::{Dataset, DatasetProfile, Scene, SceneConfig};

use crate::trace::{poll_breakdown, Layer, Span, Tracer};
use crate::workload::{self, Backend, Camera, Pass, Statement, Workload};
use crate::{closed_loop, full_digest};

/// `w` driven through a fleet built from the bare backends, detector and
/// estimators: the reference the wrapped fleet must reproduce.
fn bare_pass(w: &Workload) -> Pass {
    let calibrated: Vec<Vec<CalibratedFilter>> = w.cameras.iter().map(Camera::calibrated_filters).collect();
    let mut estimators: Vec<WindowedAggregator> = w.cameras.iter().flat_map(Camera::estimators).collect();
    let mut fleet = FleetRuntime::new(&w.oracle, w.fleet.clone());
    let mut estimator_iter = estimators.iter_mut();
    for (cam, own) in w.cameras.iter().zip(&calibrated) {
        let c = fleet.add_camera(Scene::new(cam.scene.clone(), cam.seed));
        let mut own = own.iter();
        let ids: Vec<usize> = cam
            .backends
            .iter()
            .map(|b| {
                let filter: &dyn FrameFilter = match b {
                    Backend::Learned(i) => w.learned[*i].as_ref(),
                    Backend::Calibrated { .. } => own.next().expect("one filter per calibrated backend"),
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
    fleet.ingest(w.frames_per_camera);
    fleet.drain();
    let outcome: FleetOutcome = fleet.finish();
    let reports = estimators.into_iter().map(WindowedAggregator::into_reports).collect();
    Pass { outcome, reports, charged: Vec::new(), calibration_frames: 0 }
}

fn assert_wrappers_invisible(w: &Workload) {
    let bare = full_digest(&bare_pass(w));
    let (untraced, _) = workload::run_fleet(w, w.cameras.len(), None, |f| closed_loop(w, f, None));
    assert_eq!(full_digest(&untraced), bare, "forwarding wrappers changed an outcome");
    let tracer = Tracer::new();
    let (traced, _) = workload::run_fleet(w, w.cameras.len(), Some(&tracer), |f| closed_loop(w, f, Some(&tracer)));
    assert_eq!(full_digest(&traced), bare, "tracing changed an outcome");
    let spans = tracer.take_spans();
    for layer in [Layer::Poll, Layer::Ingest, Layer::Filter, Layer::Detect, Layer::Estimator] {
        assert!(spans.iter().any(|s| s.layer == layer), "no {} span recorded", layer.name());
    }
}

#[test]
fn wrapped_fleet_matches_bare_fleet_with_calibrated_filters() {
    let mut w = workload::setup("fleet_dedup", 7);
    w.cameras.truncate(4);
    assert_wrappers_invisible(&w);
}

#[test]
fn wrapped_fleet_matches_bare_fleet_with_learned_and_int8_filters() {
    let profile = DatasetProfile::jackson();
    let trained = workload::train(&profile, 3, 48, 2);
    let calib = Dataset::generate(&profile, 16, 0, 4);
    let int8 = QuantizedIcFilter::from_trained(&trained.ic, calib.train());
    let mut w = workload::setup("fleet_dedup", 7);
    w.learned = vec![Box::new(trained.ic), Box::new(trained.od), Box::new(int8)];
    w.cameras = (0..2)
        .map(|c| Camera {
            scene: SceneConfig::from_profile(&profile).with_camera(c),
            seed: 40 + c as u64,
            classes: profile.class_list(),
            tenant: "t",
            backends: vec![Backend::Learned(0), Backend::Learned(1), Backend::Learned(2)],
            statements: vec![
                Statement::Select { query: Query::paper_q3(), cascade: CascadeConfig::tolerant(), backend: Some(2) },
                Statement::Aggregate {
                    query: Query::paper_a1(),
                    spec: AggregateSpec::new(16, 16),
                    backends: vec![0, 1],
                    sample_size: 4,
                    trials: 2,
                    seed: 9 + c as u64,
                    adaptive_prefix: Some(4),
                },
            ],
        })
        .collect();
    w.frames_per_camera = 40;
    w.fleet.queue_capacity = 40;
    assert_wrappers_invisible(&w);
}

fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u64, poll_id: u64) -> Span {
    Span { layer, start_ns, end_ns, parent, poll_id, thread: 0, frames: 1, camera: 0, frame_id: 0 }
}

#[test]
fn poll_breakdown_partitions_the_poll_wall() {
    // Poll 1 spans [0, 100): filter [10, 40), an estimator [50, 90) with a
    // nested detect [60, 70), and a parallel detect [65, 80) on a worker.
    let spans = vec![
        span(Layer::Poll, 0, 100, 0, 1),
        span(Layer::Filter, 10, 40, 1, 0),
        span(Layer::Estimator, 50, 90, 1, 0),
        span(Layer::Detect, 60, 70, 1, 0),
        span(Layer::Detect, 65, 80, 1, 0),
        span(Layer::Ingest, 100, 120, 0, 0),
    ];
    let b = poll_breakdown(&spans);
    assert_eq!((b.polls, b.poll_ns), (1, 100));
    assert_eq!(b.detect_ns, 20, "union of [60,70) and [65,80)");
    assert_eq!(b.filter_ns, 30);
    assert_eq!(b.estimator_ns, 20, "[50,90) minus the detect cover");
    assert_eq!(b.self_ns, 30);
    assert_eq!(b.detect_ns + b.filter_ns + b.estimator_ns + b.self_ns, b.poll_ns);
}
