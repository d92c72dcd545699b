//! Property-based tests of query evaluation, the filter cascade and the
//! parser (pretty-print → re-parse round trip).

use proptest::prelude::*;
use vmq_detect::Detector;
use vmq_detect::OracleDetector;
use vmq_filters::{CalibratedFilter, CalibrationProfile, FilterEstimate, FrameFilter};
use vmq_query::ast::CountOp;
use vmq_query::{
    format_statement, parse_statement, CascadeConfig, CountTarget, FilterCascade, ObjectRef, Predicate, Query,
    SpatialRelation,
};
use vmq_video::{BoundingBox, Color, Frame, ObjectClass, SceneObject};

fn bbox_strategy() -> impl Strategy<Value = BoundingBox> {
    (0.0f32..0.9, 0.0f32..0.9, 0.03f32..0.25, 0.03f32..0.25).prop_map(|(x, y, w, h)| BoundingBox::new(x, y, w, h))
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop::collection::vec((bbox_strategy(), 0usize..2, 0usize..3), 0..6).prop_map(|objs| Frame {
        camera_id: 0,
        frame_id: 7,
        timestamp: 0.0,
        objects: objs
            .into_iter()
            .enumerate()
            .map(|(i, (bbox, class_idx, color_idx))| SceneObject {
                track_id: i as u64,
                class: [ObjectClass::Car, ObjectClass::Person][class_idx],
                color: [Color::Red, Color::Blue, Color::White][color_idx],
                bbox,
                velocity: (0.0, 0.0),
            })
            .collect(),
    })
}

/// Screen regions used by generated region predicates (parser region names
/// are resolved against the standard catalogue at evaluation time).
const REGIONS: [&str; 4] = ["full", "upper-left", "lower-right", "right-half"];

fn object_ref_from(class_idx: usize, color_idx: usize) -> ObjectRef {
    let class = ObjectClass::ALL[class_idx % ObjectClass::ALL.len()];
    if color_idx < Color::ALL.len() {
        ObjectRef::colored(class, Color::ALL[color_idx])
    } else {
        ObjectRef::class(class)
    }
}

/// Generates an arbitrary predicate: count (total / class / class+colour),
/// spatial (any relation, optionally coloured refs) or region.
fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    (0u8..3, 0usize..ObjectClass::ALL.len(), 0usize..Color::ALL.len() + 1, 0u8..3, 0u32..4, 0usize..8).prop_map(
        |(kind, class_idx, color_idx, op_idx, value, extra)| {
            let op = [CountOp::Exactly, CountOp::AtLeast, CountOp::AtMost][op_idx as usize];
            let class = ObjectClass::ALL[class_idx];
            match kind {
                0 => {
                    let target = match extra % 3 {
                        0 => CountTarget::Total,
                        1 => CountTarget::Class(class),
                        _ => CountTarget::ClassColor(class, Color::ALL[color_idx % Color::ALL.len()]),
                    };
                    Predicate::Count { target, op, value }
                }
                1 => {
                    let relation = [
                        SpatialRelation::LeftOf,
                        SpatialRelation::RightOf,
                        SpatialRelation::Above,
                        SpatialRelation::Below,
                    ][extra % 4];
                    Predicate::Spatial {
                        first: object_ref_from(class_idx, color_idx),
                        relation,
                        second: object_ref_from(class_idx + 1 + extra, Color::ALL.len() - color_idx),
                    }
                }
                _ => Predicate::Region {
                    object: object_ref_from(class_idx, color_idx),
                    region: REGIONS[extra % REGIONS.len()].to_string(),
                    min_count: value,
                },
            }
        },
    )
}

/// Generates a random query AST plus a window clause. Every generated
/// statement carries a `WINDOW HOPPING` clause so the round trip always
/// exercises it: tumbling windows (kind 0) pretty-print with `ADVANCE BY`
/// omitted, so re-parsing must apply the advance-defaults-to-size rule;
/// other kinds spell the advance out. (The window-less round trip is pinned
/// by the parser's unit tests.)
fn ast_strategy() -> impl Strategy<Value = (Query, Option<(usize, usize)>)> {
    (prop::collection::vec(predicate_strategy(), 0..5), 0usize..3, 1usize..5000, 1usize..5000).prop_map(
        |(predicates, window_kind, size, advance)| {
            let mut query = Query::new("roundtrip");
            query.predicates = predicates;
            let window = match window_kind {
                0 => Some((size, size)),
                _ => Some((size, advance)),
            };
            (query, window)
        },
    )
}

fn paper_query_strategy() -> impl Strategy<Value = Query> {
    (0usize..5).prop_map(|i| match i {
        0 => Query::paper_q1(),
        1 => Query::paper_q3(),
        2 => Query::paper_q4(),
        3 => Query::paper_q5(),
        _ => Query::paper_a1(),
    })
}

/// One predicate of every shape a non-finite estimate field can break:
/// class counts (`=`, `>=`), the total count, a spatial relation and a
/// screen region.
fn fail_open_queries() -> Vec<Query> {
    let car = ObjectRef::class(ObjectClass::Car);
    vec![
        Query::paper_q1(),
        Query::paper_q3(),
        Query::paper_q4(),
        Query::paper_q5(),
        Query::new("any-car").class_count(ObjectClass::Car, CountOp::AtLeast, 1),
        Query::new("two-cars").class_count(ObjectClass::Car, CountOp::Exactly, 2),
        Query::new("any-object").total_count(CountOp::AtLeast, 1),
        Query::new("car-lower-right").in_region(car, "lower-right", 1),
    ]
}

/// Overwrites estimate fields with non-finite values. Each fault is
/// `(field, slot, cell, value)`: field 0 is a class count, 1 the total hint,
/// 2 a grid cell; the value is NaN, +inf or -inf.
fn inject_non_finite(estimate: &mut FilterEstimate, faults: &[(usize, usize, usize, usize)]) {
    for &(field, slot, cell, value) in faults {
        let v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][value];
        match field {
            0 => {
                let n = estimate.counts.len();
                estimate.counts[slot % n] = v;
            }
            1 => estimate.total_hint = Some(v),
            _ => {
                let n = estimate.grids.len();
                let grid = &mut estimate.grids[slot % n];
                let g = grid.size();
                grid.set(cell / g % g, cell % g, v);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cascade checks fail open on an untrustworthy filter: NaN or ±inf
    /// injected into any count, the total hint or any grid cell of a
    /// perfect filter's estimate never drops a frame that truly satisfies
    /// the query, under every tolerance of the lattice (recall stays 1.0).
    #[test]
    fn cascade_fails_open_on_non_finite_estimates(
        frame in frame_strategy(),
        faults in prop::collection::vec((0usize..3, 0usize..4, 0usize..4096, 0usize..3), 1..4),
    ) {
        let filter = CalibratedFilter::new(vec![ObjectClass::Car, ObjectClass::Person], 16, CalibrationProfile::perfect(), 3);
        let mut estimate = filter.estimate(&frame);
        inject_non_finite(&mut estimate, &faults);
        for query in fail_open_queries() {
            if !query.matches_ground_truth(&frame) {
                continue;
            }
            for config in CascadeConfig::lattice() {
                let cascade = FilterCascade::new(query.clone(), config);
                prop_assert!(cascade.passes(&estimate, filter.threshold()),
                    "{} dropped a true frame under {:?} with faults {:?}", query.name, config, faults);
            }
        }
    }

    /// Ground-truth evaluation agrees with evaluating the perfect detector's
    /// output (they are the same information through two code paths).
    #[test]
    fn ground_truth_matches_perfect_detector(frame in frame_strategy(), query in paper_query_strategy()) {
        let oracle = OracleDetector::perfect();
        let detections = oracle.detect(&frame);
        prop_assert_eq!(query.matches_ground_truth(&frame), query.matches_detections(&detections));
    }

    /// Spatial relations between two distinct single objects: exactly one of
    /// `left-of` / `right-of` holds unless the centres share a column.
    #[test]
    fn spatial_relations_are_exclusive(a in bbox_strategy(), b in bbox_strategy()) {
        let l = SpatialRelation::LeftOf.holds_boxes(&a, &b);
        let r = SpatialRelation::RightOf.holds_boxes(&a, &b);
        prop_assert!(!(l && r));
        if (a.center().0 - b.center().0).abs() > 1e-6 {
            prop_assert!(l || r);
        }
    }

    /// The cascade with a *perfect* filter and any tolerance never drops a
    /// frame that truly satisfies the query (no false negatives), for all of
    /// the paper's count/spatial/region predicate shapes.
    #[test]
    fn cascade_is_safe_with_perfect_filter(
        frame in frame_strategy(),
        query in paper_query_strategy(),
        count_tol in 0u32..3,
        loc_tol in 0usize..3,
    ) {
        let filter = CalibratedFilter::new(vec![ObjectClass::Car, ObjectClass::Person], 16, CalibrationProfile::perfect(), 3);
        let cascade = FilterCascade::new(query.clone(), CascadeConfig { count_tolerance: count_tol, location_tolerance: loc_tol });
        if query.matches_ground_truth(&frame) {
            let est = filter.estimate(&frame);
            prop_assert!(cascade.passes(&est, filter.threshold()),
                "cascade dropped a true frame for query {} with {} objects", query.name, frame.objects.len());
        }
    }

    /// Loosening the cascade tolerances never turns a pass into a drop.
    #[test]
    fn cascade_monotone_in_tolerance(frame in frame_strategy(), query in paper_query_strategy()) {
        let filter = CalibratedFilter::new(vec![ObjectClass::Car, ObjectClass::Person], 16, CalibrationProfile::od_like(), 9);
        let est = filter.estimate(&frame);
        let strict = FilterCascade::new(query.clone(), CascadeConfig::strict());
        let loose = FilterCascade::new(query.clone(), CascadeConfig::loose());
        if strict.passes(&est, filter.threshold()) {
            prop_assert!(loose.passes(&est, filter.threshold()));
        }
    }

    /// Per-predicate indicators are consistent with the overall cascade
    /// decision (the conjunction of the indicators).
    #[test]
    fn indicators_conjunction_equals_pass(frame in frame_strategy(), query in paper_query_strategy()) {
        let filter = CalibratedFilter::new(vec![ObjectClass::Car, ObjectClass::Person], 16, CalibrationProfile::od_like(), 11);
        let est = filter.estimate(&frame);
        let cascade = FilterCascade::new(query.clone(), CascadeConfig::tolerant());
        let indicators = cascade.predicate_indicators(&est, filter.threshold());
        prop_assert_eq!(indicators.len(), query.predicates.len());
        prop_assert_eq!(indicators.iter().all(|&b| b), cascade.passes(&est, filter.threshold()));
    }

    /// Parser round trip: pretty-printing an arbitrary AST into the paper's
    /// SQL-like syntax and re-parsing it reproduces the predicates and the
    /// window clause exactly.
    #[test]
    fn parser_round_trips_arbitrary_asts((query, window) in ast_strategy()) {
        let text = format_statement(&query, window);
        let parsed = parse_statement("roundtrip", &text)
            .unwrap_or_else(|e| panic!("cannot re-parse `{text}`: {e}"));
        prop_assert_eq!(&parsed.query.predicates, &query.predicates, "statement `{}`", text);
        prop_assert_eq!(parsed.window, window, "statement `{}`", text);
    }

    /// Queries built from arbitrary count predicates evaluate consistently
    /// with a manual count of the frame's objects.
    #[test]
    fn count_predicates_match_manual_count(frame in frame_strategy(), value in 0u32..4) {
        let query = Query::new("manual").class_count(ObjectClass::Car, vmq_query::ast::CountOp::AtLeast, value);
        let manual = frame.class_count(ObjectClass::Car) >= value as usize;
        prop_assert_eq!(query.matches_ground_truth(&frame), manual);
        // the predicate list reflects what was added
        prop_assert_eq!(query.predicates.len(), 1);
        match &query.predicates[0] {
            Predicate::Count { target, .. } => prop_assert_eq!(*target, CountTarget::Class(ObjectClass::Car)),
            _ => prop_assert!(false, "unexpected predicate shape"),
        }
        let _ = ObjectRef::class(ObjectClass::Car);
    }
}
