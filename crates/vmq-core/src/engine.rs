//! The engine: dataset + trained filters + query / aggregate execution.

use crate::config::{CalibrationConfig, EngineConfig, FilterChoice};
use crate::report::Report;
use crate::runtime::{MultiQueryOutcome, RuntimeQuery, StatementOutcome, StreamRuntime};
use vmq_aggregate::{AggregateReport, HoppingWindow};
use vmq_detect::OracleDetector;
use vmq_filters::{CalibratedFilter, FrameFilter, TrainedFilters};
use vmq_query::{
    exec, CalibrationReport, CascadeConfig, CvBackendChoice, DriftConfig, ParsedStatement, PlanChoice, Query,
    QueryAccuracy, QueryExecutor, QueryRun, ReplanEvent, SpeedupReport,
};
use vmq_video::Dataset;

/// The combined outcome of a filtered query run: the run itself, its accuracy
/// against ground truth and the speedup over brute force.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The filtered run.
    pub run: QueryRun,
    /// The brute-force baseline run.
    pub brute_force: QueryRun,
    /// Accuracy of the filtered run against ground truth.
    pub accuracy: QueryAccuracy,
    /// Speedup of the filtered run over the brute-force baseline.
    pub speedup: SpeedupReport,
}

impl QueryOutcome {
    /// A one-line human-readable summary (a Table III style row).
    pub fn summary(&self) -> String {
        self.speedup.table_row(&self.run.query, &self.run.mode, self.accuracy.recall)
    }

    /// Per-operator breakdown of the filtered run, rendered from the
    /// pipeline's unified [`StageMetrics`](vmq_query::StageMetrics).
    pub fn stage_report(&self) -> Report {
        Report::from_stage_metrics(
            &format!("{} [{}] — operator pipeline", self.run.query, self.run.mode),
            &self.run.stage_metrics,
        )
    }
}

/// The outcome of an adaptive query run: the standard [`QueryOutcome`] plus
/// the calibration report describing how the plan was chosen.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The filtered-vs-brute-force outcome of executing the chosen plan.
    /// The filtered run's virtual time *includes* the calibration cost and
    /// its stage metrics carry a `calibrate` row.
    pub outcome: QueryOutcome,
    /// Every candidate profile and the selected plan.
    pub calibration: CalibrationReport,
}

impl AdaptiveOutcome {
    /// The plan the calibration selected.
    pub fn plan(&self) -> &PlanChoice {
        &self.calibration.choice
    }

    /// Plan swaps the drift monitor performed mid-stream, in stream order
    /// (empty without a monitor, or while the committed plan holds up).
    pub fn replans(&self) -> &[ReplanEvent] {
        &self.outcome.run.replans
    }

    /// A one-line Table III style summary; the mode column carries the
    /// chosen plan label (e.g. `adaptive OD-CCF-1/OD-CLF-2`).
    pub fn summary(&self) -> String {
        self.outcome.summary()
    }

    /// Per-operator breakdown including the `calibrate` pseudo-operator row,
    /// so the report shows exactly what the adaptivity cost.
    pub fn stage_report(&self) -> Report {
        self.outcome.stage_report()
    }
}

/// The outcome of a windowed aggregate run through the batched pipeline:
/// one [`AggregateReport`] per completed hopping window plus the pipeline
/// run whose stage metrics carry the cost accounting (window-wide filter
/// inference vs sampled detector work as separate stages).
#[derive(Debug, Clone)]
pub struct WindowedAggregateOutcome {
    /// Per-window estimation reports, in window order.
    pub reports: Vec<AggregateReport>,
    /// Per-window adaptive control-variate backend choices (empty unless
    /// [`VmqEngine::run_aggregate_adaptive`] selected among several
    /// backends).
    pub selections: Vec<CvBackendChoice>,
    /// The aggregate pipeline run (empty answer set; stage metrics and cost
    /// totals are what matter here).
    pub run: QueryRun,
}

impl WindowedAggregateOutcome {
    /// Table IV style rows, one line per window.
    pub fn table_rows(&self) -> String {
        self.reports.iter().map(|r| r.table_row()).collect::<Vec<_>>().join("\n")
    }

    /// Per-operator breakdown of the aggregate pipeline (proves the filter
    /// ran window-wide while the detector saw only sampled frames).
    pub fn stage_report(&self) -> Report {
        Report::from_stage_metrics(
            &format!("{} [{}] — operator pipeline", self.run.query, self.run.mode),
            &self.run.stage_metrics,
        )
    }
}

/// The high-level Video Monitoring Queries engine.
pub struct VmqEngine {
    pub(crate) config: EngineConfig,
    pub(crate) dataset: Dataset,
    pub(crate) oracle: OracleDetector,
    filters: Option<TrainedFilters>,
}

impl VmqEngine {
    /// Creates an engine and materialises its dataset.
    pub fn new(config: EngineConfig) -> Self {
        let dataset = Dataset::generate(&config.profile, config.train_frames, config.test_frames, config.seed);
        VmqEngine { config, dataset, oracle: OracleDetector::perfect(), filters: None }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The materialised dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Trains the IC, OD and OD-COF filters on the training split (labels
    /// produced by the oracle detector). Returns the trained filters; calling
    /// this again re-trains from scratch.
    pub fn train_filters(&mut self) -> &TrainedFilters {
        let trained = TrainedFilters::train(&self.dataset, &self.config.filter, &self.oracle);
        self.filters = Some(trained);
        self.filters.as_ref().expect("just trained")
    }

    /// The trained filters, if [`VmqEngine::train_filters`] has been called.
    pub fn filters(&self) -> Option<&TrainedFilters> {
        self.filters.as_ref()
    }

    /// The deterministic calibration prefix of the *training* split used to
    /// build int8 filter twins: activation scales are calibrated on frames
    /// the filters were trained on, never on the test stream the query runs
    /// over.
    fn quantization_calib(&self) -> &[vmq_video::Frame] {
        let train = self.dataset.train();
        &train[..train.len().min(48)]
    }

    /// Resolves a filter choice to a concrete filter. Learned choices require
    /// [`VmqEngine::train_filters`] to have been called; the int8 choices
    /// additionally quantize the trained weights on a deterministic
    /// training-split prefix (a one-time, milliseconds-scale build).
    pub(crate) fn resolve_filter(&self, choice: FilterChoice) -> Box<dyn FrameFilter + '_> {
        let trained = || self.filters.as_ref().expect("train_filters() first");
        match choice {
            FilterChoice::Ic => Box::new(EngineFilterRef(&trained().ic)),
            FilterChoice::Od => Box::new(EngineFilterRef(&trained().od)),
            FilterChoice::OdCof => Box::new(EngineFilterRef(&trained().cof)),
            FilterChoice::Calibrated(profile) => Box::new(CalibratedFilter::new(
                self.config.filter.classes.clone(),
                self.config.filter.grid,
                profile,
                self.config.seed,
            )),
            FilterChoice::IcInt8 => {
                Box::new(vmq_filters::QuantizedIcFilter::from_trained(&trained().ic, self.quantization_calib()))
            }
            FilterChoice::OdInt8 => {
                Box::new(vmq_filters::QuantizedOdFilter::from_trained(&trained().od, self.quantization_calib()))
            }
            FilterChoice::OdCofInt8 => {
                Box::new(vmq_filters::QuantizedCofFilter::from_trained(&trained().cof, self.quantization_calib()))
            }
        }
    }

    /// Creates an empty [`StreamRuntime`] over this engine's stream:
    /// register N statements (selects, adaptive selects, windowed
    /// aggregates), then [`StreamRuntime::run`] drives them all through one
    /// shared pass with deduplicated detection.
    pub fn runtime(&self) -> StreamRuntime<'_> {
        StreamRuntime::new(self)
    }

    /// Runs N statements through **one** shared stream pass: backend
    /// inference once per `(backend, frame)`, the expensive detector once
    /// per frame in the union any statement escalates (or samples), and a
    /// combined [`SharedCost`](vmq_detect::SharedCost) report splitting the
    /// deduplicated bill across the statements. Each per-statement outcome
    /// is bit-identical to running that statement alone.
    pub fn run_many(&self, statements: &[RuntimeQuery]) -> MultiQueryOutcome {
        self.run_many_sharded(statements, 1)
    }

    /// [`VmqEngine::run_many`] with the detect stage sharded across
    /// `workers` scoped threads (bit-identical results for any count).
    pub fn run_many_sharded(&self, statements: &[RuntimeQuery], workers: usize) -> MultiQueryOutcome {
        let mut runtime = self.runtime().with_workers(workers);
        for statement in statements {
            runtime.register(statement.clone());
        }
        runtime.run()
    }

    /// Runs a query over the test split: filtered execution plus the
    /// brute-force baseline, with accuracy and speedup. A thin single-query
    /// registration of the shared [`StreamRuntime`] (the baseline is the
    /// synthesised brute-force run, bit-identical to executing it under the
    /// engine's perfect oracle).
    pub fn run_query(&self, query: &Query, choice: FilterChoice, cascade: CascadeConfig) -> QueryOutcome {
        let outcome =
            self.run_many(&[RuntimeQuery::Select { query: query.clone(), choice, cascade }]).outcomes.remove(0);
        match outcome {
            StatementOutcome::Select(outcome) => outcome,
            _ => unreachable!("a Select statement yields a Select outcome"),
        }
    }

    /// Runs a query over the test split *adaptively*: the leading
    /// `calibration.prefix_frames` frames are annotated once with the
    /// expensive detector, every candidate `(backend × tolerance)`
    /// combination is profiled on them, and the cheapest combination that
    /// kept 100 % recall on the prefix is executed over the whole split.
    /// The filtered run's virtual time includes the calibration cost, so the
    /// reported speedup is what a caller would actually observe. A thin
    /// single-query registration of the shared [`StreamRuntime`].
    pub fn run_adaptive(&self, query: &Query, calibration: &CalibrationConfig) -> AdaptiveOutcome {
        let statement =
            RuntimeQuery::SelectAdaptive { query: query.clone(), calibration: calibration.clone(), drift: None };
        match self.run_many(&[statement]).outcomes.remove(0) {
            StatementOutcome::Adaptive(outcome) => outcome,
            _ => unreachable!("a SelectAdaptive statement yields an Adaptive outcome"),
        }
    }

    /// Like [`VmqEngine::run_adaptive`], additionally attaching an online
    /// drift monitor: a seeded fraction of filter-rejected frames is
    /// escalated to the detector as a recall sentinel (billed through the
    /// ledger's audit phase) and the plan is re-selected mid-stream when the
    /// audit contradicts the committed calibration. With a disabled config
    /// (`audit_fraction = 0`) the result is bit-identical to
    /// [`VmqEngine::run_adaptive`].
    pub fn run_adaptive_drifted(
        &self,
        query: &Query,
        calibration: &CalibrationConfig,
        drift: DriftConfig,
    ) -> AdaptiveOutcome {
        let statement =
            RuntimeQuery::SelectAdaptive { query: query.clone(), calibration: calibration.clone(), drift: Some(drift) };
        match self.run_many(&[statement]).outcomes.remove(0) {
            StatementOutcome::Adaptive(outcome) => outcome,
            _ => unreachable!("a SelectAdaptive statement yields an Adaptive outcome"),
        }
    }

    /// Runs a query over the test split as a lazily pulled *stream* (the
    /// same one-statement shared plan as [`VmqEngine::run_query`]), plus
    /// accuracy against ground truth.
    pub fn run_streaming(
        &self,
        query: &Query,
        choice: FilterChoice,
        cascade: CascadeConfig,
    ) -> (QueryRun, QueryAccuracy) {
        let frames = self.dataset.test();
        let filter = self.resolve_filter(choice);
        let run = exec::run_streaming(query, frames.iter().cloned(), filter.as_ref(), &self.oracle, cascade);
        let accuracy = QueryExecutor::new(query.clone()).accuracy(&run, frames);
        (run, accuracy)
    }

    /// Runs a *windowed aggregate* through the batched operator pipeline:
    /// the test split streams through `Source → WindowFilter →
    /// AggregateSink`, the cheap filter computes control-variate indicators
    /// on every frame, and each completed hopping window is estimated with
    /// `trials` repetitions of `sample_size` detector-sampled frames —
    /// one [`AggregateReport`] per window. This is how a parsed
    /// `WINDOW HOPPING` statement executes end to end.
    pub fn run_aggregate_windows(
        &self,
        query: &Query,
        choice: FilterChoice,
        window: HoppingWindow,
        sample_size: usize,
        trials: usize,
    ) -> WindowedAggregateOutcome {
        let statement = RuntimeQuery::Aggregate { query: query.clone(), choice, window, sample_size, trials };
        match self.run_many(&[statement]).outcomes.remove(0) {
            StatementOutcome::Aggregate(outcome) => outcome,
            _ => unreachable!("an Aggregate statement yields an Aggregate outcome"),
        }
    }

    /// Like [`VmqEngine::run_aggregate_windows`] but *adaptive*: every
    /// candidate backend of `calibration` computes indicators window-wide,
    /// and per window the leading `calibration.prefix_frames` frames are
    /// annotated with the expensive detector (charged as calibration work)
    /// so the backend whose indicator correlates best with the truth serves
    /// that window's control variates — the aggregate extension of the
    /// Table III cascade planner.
    pub fn run_aggregate_adaptive(
        &self,
        query: &Query,
        calibration: &CalibrationConfig,
        window: HoppingWindow,
        sample_size: usize,
        trials: usize,
    ) -> WindowedAggregateOutcome {
        let statement = RuntimeQuery::AggregateAdaptive {
            query: query.clone(),
            calibration: calibration.clone(),
            window,
            sample_size,
            trials,
        };
        match self.run_many(&[statement]).outcomes.remove(0) {
            StatementOutcome::Aggregate(outcome) => outcome,
            _ => unreachable!("an AggregateAdaptive statement yields an Aggregate outcome"),
        }
    }

    /// Executes a parsed statement as a windowed aggregate: the statement's
    /// `WINDOW HOPPING` clause supplies the hopping window (a statement
    /// without one is treated as a single window spanning the whole test
    /// split).
    pub fn run_aggregate_statement(
        &self,
        statement: &ParsedStatement,
        choice: FilterChoice,
        sample_size: usize,
        trials: usize,
    ) -> WindowedAggregateOutcome {
        let window = match statement.window {
            Some((size, advance)) => HoppingWindow::new(size, advance),
            None => HoppingWindow::tumbling(self.dataset.test().len()),
        };
        self.run_aggregate_windows(&statement.query, choice, window, sample_size, trials)
    }

    /// Estimates a one-window aggregate over the whole test split with
    /// control variates; `sample_size` frames per trial, `trials`
    /// repetitions. A thin wrapper over [`VmqEngine::run_aggregate_windows`]
    /// with a single tumbling window — bit-identical (sampling, estimates,
    /// variances) to the legacy eager estimator at equal seed, which the
    /// workspace parity tests pin down.
    pub fn estimate_aggregate(
        &self,
        query: &Query,
        choice: FilterChoice,
        sample_size: usize,
        trials: usize,
    ) -> AggregateReport {
        let window = HoppingWindow::tumbling(self.dataset.test().len());
        let mut outcome = self.run_aggregate_windows(query, choice, window, sample_size, trials);
        assert_eq!(outcome.reports.len(), 1, "a split-sized tumbling window yields exactly one report");
        outcome.reports.remove(0)
    }
}

/// A thin reference wrapper so `&IcFilter` / `&OdFilter` / `&CofFilter` can be
/// used where a boxed filter is expected without cloning trained weights.
struct EngineFilterRef<'a, F: FrameFilter>(&'a F);

impl<F: FrameFilter> FrameFilter for EngineFilterRef<'_, F> {
    fn estimate(&self, frame: &vmq_video::Frame) -> vmq_filters::FilterEstimate {
        self.0.estimate(frame)
    }

    fn estimate_batch(&self, frames: &[vmq_video::Frame]) -> Vec<vmq_filters::FilterEstimate> {
        self.0.estimate_batch(frames)
    }

    fn estimate_batch_sharded(&self, frames: &[vmq_video::Frame], workers: usize) -> Vec<vmq_filters::FilterEstimate> {
        self.0.estimate_batch_sharded(frames, workers)
    }

    fn kind(&self) -> vmq_filters::FilterKind {
        self.0.kind()
    }

    fn kernel_backend(&self) -> &'static str {
        self.0.kernel_backend()
    }

    fn grid_size(&self) -> usize {
        self.0.grid_size()
    }

    fn threshold(&self) -> f32 {
        self.0.threshold()
    }

    fn classes(&self) -> &[vmq_video::ObjectClass] {
        self.0.classes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmq_filters::CalibrationProfile;
    use vmq_video::DatasetProfile;

    #[test]
    fn engine_runs_queries_with_calibrated_filter_without_training() {
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(40, 150));
        let outcome = engine.run_query(
            &Query::paper_q4(),
            FilterChoice::Calibrated(CalibrationProfile::perfect()),
            CascadeConfig::strict(),
        );
        assert!(outcome.accuracy.is_perfect(), "perfect filter + strict cascade must stay exact");
        assert!(outcome.speedup.speedup > 1.0, "speedup {:?}", outcome.speedup);
        assert!(outcome.summary().contains("q4"));
    }

    #[test]
    fn engine_trains_and_uses_learned_filters() {
        let mut config = EngineConfig::small(DatasetProfile::jackson()).with_sizes(60, 80);
        config.filter.schedule.epochs = 2;
        let mut engine = VmqEngine::new(config);
        assert!(engine.filters().is_none());
        engine.train_filters();
        assert!(engine.filters().is_some());
        let outcome = engine.run_query(&Query::paper_q3(), FilterChoice::Od, CascadeConfig::tolerant());
        // The learned filter may not be selective after two fast-test epochs;
        // the worst case is that it passes every frame, in which case the
        // filtered run costs at most ~1 % more than brute force (the filter's
        // own 1.9 ms against Mask R-CNN's 200 ms).
        assert!(outcome.run.frames_total == engine.dataset().test().len());
        assert!(outcome.speedup.speedup >= 0.95, "speedup {:?}", outcome.speedup);
        assert!(outcome.accuracy.recall >= 0.0);
    }

    #[test]
    fn engine_runs_int8_quantized_filters_as_planner_candidates() {
        let mut config = EngineConfig::small(DatasetProfile::jackson()).with_sizes(60, 80);
        config.filter.schedule.epochs = 2;
        let mut engine = VmqEngine::new(config);
        engine.train_filters();

        // The int8 twin is an explicit FilterChoice: it executes through the
        // same pipeline, labels its mode with its own kind and reports the
        // int8 kernel backend on its cascade rows.
        let outcome = engine.run_query(&Query::paper_q3(), FilterChoice::OdInt8, CascadeConfig::tolerant());
        assert_eq!(outcome.run.frames_total, engine.dataset().test().len());
        assert!(outcome.run.mode.starts_with("OD-INT8"), "mode {}", outcome.run.mode);
        let cascade = outcome.run.stage_metrics.iter().find(|m| m.operator == "cascade-filter").expect("cascade stage");
        assert_eq!(cascade.kernel_backend.as_deref(), Some("int8"));
        // Int8 stages are priced below their f32 parents (0.95 vs 1.9 ms).
        assert!((cascade.virtual_ms - 0.95 * cascade.frames_in as f64).abs() < 1e-9);

        // And as adaptive candidates they flow through the same recall
        // calibration — the planner may pick them, never substitute them.
        let adaptive = engine.run_adaptive(&Query::paper_q3(), &CalibrationConfig::learned_with_int8());
        assert!(adaptive.outcome.accuracy.recall >= 0.0);
        assert!(adaptive.calibration.profiles.len() >= 4 * 9, "4 backends x 9 tolerances profiled");
    }

    #[test]
    fn engine_streams_through_the_same_pipeline() {
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(30, 100));
        let (run, accuracy) = engine.run_streaming(
            &Query::paper_q4(),
            FilterChoice::Calibrated(CalibrationProfile::perfect()),
            CascadeConfig::strict(),
        );
        assert!(run.mode.contains("streaming"));
        assert_eq!(run.frames_total, 100);
        assert!(accuracy.is_perfect(), "perfect filter + strict cascade must stay exact: {accuracy:?}");
        let operators: Vec<&str> = run.stage_metrics.iter().map(|m| m.operator.as_str()).collect();
        assert_eq!(operators, ["source", "cascade-filter", "detect", "predicate-eval", "sink"]);
    }

    #[test]
    fn stage_report_renders_operator_rows() {
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(30, 80));
        let outcome = engine.run_query(
            &Query::paper_q3(),
            FilterChoice::Calibrated(CalibrationProfile::perfect()),
            CascadeConfig::strict(),
        );
        let rendered = outcome.stage_report().render();
        assert!(rendered.contains("cascade-filter"));
        assert!(rendered.contains("mask-rcnn"));
        assert!(rendered.contains("pass rate"));
    }

    #[test]
    fn engine_runs_adaptive_queries_with_calibrated_backends() {
        use vmq_filters::FilterKind;
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(30, 200));
        let calibration = CalibrationConfig::calibrated(vec![
            CalibrationProfile::perfect().emulating(FilterKind::Od),
            CalibrationProfile::perfect().emulating(FilterKind::Ic),
        ])
        // The prefix must reach the stream's first true q3 frames (index
        // 107 at this seed): a prefix with no true frame certifies no
        // cascade and the planner would rightly ship the brute-force floor.
        .with_prefix(120);
        let outcome = engine.run_adaptive(&Query::paper_q3(), &calibration);
        assert!(outcome.outcome.accuracy.is_perfect(), "perfect backends stay exact: {:?}", outcome.outcome.accuracy);
        // Identical estimates from both backends: the cheaper IC price wins.
        assert_eq!(outcome.plan().backend, "IC");
        assert!(outcome.outcome.run.mode.starts_with("adaptive IC-CCF"), "mode {}", outcome.outcome.run.mode);
        assert_eq!(outcome.calibration.prefix_frames, 120);
        assert!(outcome.calibration.calibration_ms > 0.0);
        let rendered = outcome.stage_report().render();
        assert!(rendered.contains("calibrate"));
        assert!(outcome.summary().contains("adaptive"));
        // Calibration cost is part of the filtered bill: speedup is computed
        // against virtual_ms that already includes it.
        let stage_sum: f64 = outcome.outcome.run.stage_metrics.iter().map(|m| m.virtual_ms).sum();
        assert!((stage_sum - outcome.outcome.speedup.filtered_ms).abs() < 1e-9);
    }

    #[test]
    fn engine_estimates_aggregates() {
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(40, 200));
        let report = engine.estimate_aggregate(
            &Query::paper_a1(),
            FilterChoice::Calibrated(CalibrationProfile::od_like()),
            25,
            30,
        );
        assert_eq!(report.window_frames, 200);
        assert!(report.plain_variance >= 0.0);
        assert!((report.plain_mean - report.true_fraction).abs() < 0.15);
    }

    #[test]
    fn engine_runs_windowed_aggregates_through_the_pipeline() {
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(40, 200));
        let outcome = engine.run_aggregate_windows(
            &Query::paper_a1(),
            FilterChoice::Calibrated(CalibrationProfile::od_like()),
            vmq_aggregate::HoppingWindow::new(100, 50),
            20,
            15,
        );
        // 200 frames, size 100, advance 50 → windows at 0, 50, 100.
        assert_eq!(outcome.reports.len(), 3);
        for (i, report) in outcome.reports.iter().enumerate() {
            assert_eq!(report.window_index, i);
            assert_eq!(report.window_start, i * 50);
            assert_eq!(report.window_frames, 100);
        }
        assert!(outcome.run.mode.contains("aggregate"));
        assert_eq!(outcome.run.frames_detected, 3 * 20 * 15);
        let operators: Vec<&str> = outcome.run.stage_metrics.iter().map(|m| m.operator.as_str()).collect();
        assert_eq!(operators, ["source", "window-filter", "aggregate-sink"]);
        let rendered = outcome.stage_report().render();
        assert!(rendered.contains("window-filter"));
        assert!(outcome.table_rows().contains("a1"));
        assert!(outcome.selections.is_empty());
    }

    #[test]
    fn engine_runs_adaptive_windowed_aggregates() {
        use vmq_filters::FilterKind;
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(30, 200));
        let calibration = CalibrationConfig::calibrated(vec![
            CalibrationProfile::perfect().emulating(FilterKind::Od),
            CalibrationProfile::perfect().emulating(FilterKind::Ic),
        ])
        .with_prefix(24);
        let outcome = engine.run_aggregate_adaptive(
            &Query::paper_a1(),
            &calibration,
            vmq_aggregate::HoppingWindow::tumbling(100),
            20,
            10,
        );
        assert_eq!(outcome.reports.len(), 2);
        assert_eq!(outcome.selections.len(), 2, "one backend choice per window");
        for (choice, report) in outcome.selections.iter().zip(&outcome.reports) {
            // Identical perfect estimates: the cheaper IC stage must win.
            assert_eq!(choice.backend, "IC", "correlations {:?}", choice.correlations);
            assert_eq!(report.backend, "IC");
            assert!((report.time_per_sample_ms - 201.5).abs() < 1e-9, "IC price: {}", report.time_per_sample_ms);
        }
        // Both backends filtered every frame; calibration detector work is
        // tracked per window.
        let filters: Vec<&str> = outcome
            .run
            .stage_metrics
            .iter()
            .filter(|m| m.operator == "window-filter")
            .map(|m| m.operator.as_str())
            .collect();
        assert_eq!(filters.len(), 2);
        assert_eq!(outcome.run.frames_detected, 2 * (20 * 10 + 24));
    }

    #[test]
    fn engine_executes_parsed_window_hopping_statements() {
        use vmq_query::parse_statement;
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(40, 200));
        let statement = parse_statement(
            "hop",
            "SELECT cameraID, frameID FROM stream WHERE COUNT(car) >= 1 \
             WINDOW HOPPING (SIZE 80, ADVANCE BY 40)",
        )
        .expect("parse");
        let outcome =
            engine.run_aggregate_statement(&statement, FilterChoice::Calibrated(CalibrationProfile::od_like()), 15, 10);
        // 200 frames, size 80, advance 40 → windows at 0, 40, 80, 120.
        assert_eq!(outcome.reports.len(), 4);
        assert!(outcome.reports.iter().all(|r| r.window_frames == 80));
        // Without a window clause the whole split is one window.
        let plain = parse_statement("flat", "SELECT x FROM v WHERE COUNT(car) >= 1").expect("parse");
        let outcome =
            engine.run_aggregate_statement(&plain, FilterChoice::Calibrated(CalibrationProfile::od_like()), 15, 10);
        assert_eq!(outcome.reports.len(), 1);
        assert_eq!(outcome.reports[0].window_frames, 200);
    }

    #[test]
    #[should_panic(expected = "train_filters() first")]
    fn learned_filter_without_training_panics() {
        let engine = VmqEngine::new(EngineConfig::small(DatasetProfile::jackson()).with_sizes(30, 30));
        let _ = engine.run_query(&Query::paper_q1(), FilterChoice::Ic, CascadeConfig::strict());
    }
}
