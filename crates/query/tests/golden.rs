//! Golden-fixture tests for the query layer.
//!
//! The fixtures are built by hand so the expected answers are known by
//! construction, not recorded from a previous run:
//!
//! - The engine is trained on frames where every metric is a (positive)
//!   affine image of one shared signal, so under Pearson all 325 pairs
//!   correlate perfectly and every pair becomes an invariant.
//! - The fault run replaces one metric with an uncorrelated signal, so
//!   the violated invariants are exactly the 25 pairs touching it.

use std::ops::Range;
use std::sync::Arc;

use ix_core::{
    pair_index, ContextId, Engine, HistoryRecorder, InvarNetConfig, OperationContext,
    PearsonMeasure, ViolationTuple,
};
use ix_history::HistoryStore;
use ix_metrics::{MetricFrame, MetricId, METRIC_COUNT};
use ix_query::{Query, QueryError, ScanStep};

const WINDOW: usize = 24;
/// The metric the fault corrupts (and counterfactuals pin).
const FAULTY: usize = 3;

/// The shared healthy signal: monotone with a wiggle (never constant).
fn healthy_signal(t: usize) -> f64 {
    t as f64 + 0.25 * ((t % 5) as f64)
}

/// An uncorrelated fault signal (alternating, orthogonal to the trend).
fn fault_signal(t: usize) -> f64 {
    if t.is_multiple_of(2) {
        10.0
    } else {
        -10.0
    }
}

/// One healthy row: every metric is `(m + 1) * s + m`, a positive affine
/// image of the shared signal (Pearson-correlation 1 with every other).
fn healthy_row(t: usize) -> Vec<f64> {
    let s = healthy_signal(t);
    (0..METRIC_COUNT)
        .map(|m| (m as f64 + 1.0) * s + m as f64)
        .collect()
}

fn faulty_row(t: usize) -> Vec<f64> {
    let mut row = healthy_row(t);
    row[FAULTY] = fault_signal(t);
    row
}

fn frame_of(rows: impl Iterator<Item = Vec<f64>>) -> MetricFrame {
    let mut frame = MetricFrame::new();
    for row in rows {
        frame.push_tick(&row).expect("fixture rows are finite");
    }
    frame
}

fn ctx() -> OperationContext {
    OperationContext::new("node-1", "Wordcount")
}

/// Engine with all-pairs invariants under Pearson, plus two signatures:
/// the faulty window itself and an all-healthy decoy.
fn trained_engine() -> Engine {
    let config = InvarNetConfig::builder()
        .tau(0.9)
        .epsilon(0.5)
        .window_ticks(WINDOW)
        .min_frame_ticks(4)
        .min_training_runs(2)
        .build();
    let engine = Engine::builder()
        .config(config)
        .measure(Arc::new(PearsonMeasure))
        .build();
    let normal: Vec<MetricFrame> = (0..2)
        .map(|_| frame_of((0..WINDOW).map(healthy_row)))
        .collect();
    engine
        .build_invariants(ctx(), &normal)
        .expect("invariant build");
    engine
        .record_signature(
            &ctx(),
            "metric3-fault",
            &frame_of((0..WINDOW).map(faulty_row)),
        )
        .expect("signature");
    engine
        .record_signature(&ctx(), "healthy-decoy", &normal[0])
        .expect("signature");
    engine
}

/// Records a healthy baseline run and a faulty current run into a store,
/// under the engine's id for the fixture context.
fn recorded_history(engine: &Engine) -> (HistoryStore, ContextId) {
    let id = engine
        .context_registry()
        .lookup(&ctx())
        .expect("interned during training");
    let store = HistoryStore::new();
    for t in 0..WINDOW {
        store.record_tick(id, t as u64, 1.0, 0.0, false, &healthy_row(t));
    }
    store.record_run_reset(id);
    for t in 0..WINDOW {
        store.record_tick(id, (WINDOW + t) as u64, 2.0, 1.0, true, &faulty_row(t));
    }
    (store, id)
}

/// The invariant indices of every pair touching the faulty metric.
fn pairs_touching_faulty() -> Vec<usize> {
    let mut indices: Vec<usize> = (0..METRIC_COUNT)
        .filter(|&m| m != FAULTY)
        .map(|m| pair_index(m.min(FAULTY), m.max(FAULTY)))
        .collect();
    indices.sort_unstable();
    indices
}

#[test]
fn explanations_rank_the_matching_signature_first() {
    let engine = trained_engine();
    let (store, _) = recorded_history(&engine);
    let diagnosis = Query::builder()
        .engine(&engine)
        .history(&store)
        .build()
        .explanations(&ctx())
        .rank()
        .expect("rank");
    // The current-run window is exactly the frame the signature was
    // recorded from, so the match is perfect.
    assert_eq!(diagnosis.ranked[0].problem, "metric3-fault");
    assert!(
        (diagnosis.ranked[0].similarity - 1.0).abs() < 1e-12,
        "identical window must match its own signature: {}",
        diagnosis.ranked[0].similarity
    );
    assert_eq!(diagnosis.ranked.len(), 2);
    assert!(diagnosis.ranked[0].similarity >= diagnosis.ranked[1].similarity);
    // The violated invariants are exactly the pairs touching the fault.
    let violated: Vec<usize> = diagnosis
        .tuple
        .binary()
        .iter()
        .enumerate()
        .filter(|(_, &v)| v)
        .map(|(k, _)| k)
        .collect();
    assert_eq!(violated, pairs_touching_faulty());
}

#[test]
fn explanations_plan_names_the_scans() {
    let engine = trained_engine();
    let (store, id) = recorded_history(&engine);
    let plan = Query::builder()
        .engine(&engine)
        .history(&store)
        .build()
        .explanations(&ctx())
        .plan()
        .expect("plan");
    assert_eq!(
        plan.steps,
        vec![
            ScanStep::CurrentRunWindow {
                context: id,
                max_ticks: WINDOW,
            },
            ScanStep::Associate {
                pairs: ix_core::pair_count(),
            },
            ScanStep::Grade,
            ScanStep::RankSignatures,
        ]
    );
    assert!(plan.to_string().contains("rank against signature database"));
}

#[test]
fn explanations_window_selectors_scan_the_requested_rows() {
    let engine = trained_engine();
    let (store, id) = recorded_history(&engine);
    let query = Query::builder().engine(&engine).history(&store).build();
    // The healthy first run, selected by rows: no violations at all.
    let healthy = query
        .explanations(&ctx())
        .rows(0..WINDOW)
        .rank()
        .expect("rank");
    assert_eq!(healthy.tuple.violation_count(), 0);
    assert_eq!(healthy.ranked[0].problem, "healthy-decoy");
    // The faulty second run, selected by lifetime ticks.
    let ticks: Range<u64> = WINDOW as u64..(2 * WINDOW) as u64;
    let faulty = query
        .explanations(&ctx())
        .ticks(ticks)
        .rank()
        .expect("rank");
    assert_eq!(faulty.ranked[0].problem, "metric3-fault");
    // Selecting nothing is an error, not an empty answer.
    assert!(matches!(
        query.explanations(&ctx()).ticks(500..900).rank(),
        Err(QueryError::EmptyWindow(_))
    ));
    let _ = id;
}

#[test]
fn unknown_context_is_reported() {
    let engine = trained_engine();
    let (store, _) = recorded_history(&engine);
    let stranger = OperationContext::new("node-9", "Sort");
    assert!(matches!(
        Query::builder()
            .engine(&engine)
            .history(&store)
            .build()
            .explanations(&stranger)
            .rank(),
        Err(QueryError::UnknownContext(_))
    ));
}

#[test]
fn cooccurrence_counts_are_golden() {
    let engine = trained_engine();
    let store = HistoryStore::new();
    let id = ContextId::from_index(0);
    // Hand-made diagnoses: violations {0,1,2}, {1,2}, {1,2,4} — so the
    // pair (1,2) co-occurs 3 times, (0,1)/(0,2) once, (1,4)/(2,4) once.
    for graded in [
        vec![1.0, 0.5, 0.75, 0.0, 0.0],
        vec![0.0, 0.25, 0.5, 0.0, 0.0],
        vec![0.0, 0.5, 0.25, 0.0, 1.0],
    ] {
        store.record_tick(id, 0, 1.0, 0.0, false, &healthy_row(0));
        store.record_diagnosis(
            id,
            0,
            &ix_core::Diagnosis {
                ranked: Vec::new(),
                tuple: ViolationTuple::from_graded(graded),
                degradation: None,
            },
        );
    }
    let report = Query::builder()
        .engine(&engine)
        .history(&store)
        .build()
        .cooccurrence()
        .compute()
        .expect("compute");
    assert_eq!(report.diagnoses, 3);
    assert_eq!(report.invariants, 5);
    let rendered: Vec<(usize, usize, usize)> =
        report.pairs.iter().map(|p| (p.a, p.b, p.count)).collect();
    assert_eq!(
        rendered,
        vec![(1, 2, 3), (0, 1, 1), (0, 2, 1), (1, 4, 1), (2, 4, 1)]
    );
    // min_count trims the singletons.
    let trimmed = Query::builder()
        .engine(&engine)
        .history(&store)
        .build()
        .cooccurrence()
        .min_count(2)
        .compute()
        .expect("compute");
    assert_eq!(trimmed.pairs.len(), 1);
    assert_eq!((trimmed.pairs[0].a, trimmed.pairs[0].b), (1, 2));
}

#[test]
fn cooccurrence_context_filter_resolves() {
    let engine = trained_engine();
    let (store, _) = recorded_history(&engine);
    // No diagnoses recorded yet: empty report, not an error.
    let report = Query::builder()
        .engine(&engine)
        .history(&store)
        .build()
        .cooccurrence()
        .for_context(&ctx())
        .compute()
        .expect("compute");
    assert_eq!(report.diagnoses, 0);
    assert!(report.pairs.is_empty());
    assert!(matches!(
        Query::builder()
            .engine(&engine)
            .history(&store)
            .build()
            .cooccurrence()
            .for_context(&OperationContext::new("node-9", "Sort"))
            .compute(),
        Err(QueryError::UnknownContext(_))
    ));
}

#[test]
fn counterfactual_attributes_the_fault_to_the_pinned_metric() {
    let engine = trained_engine();
    let (store, _) = recorded_history(&engine);
    let report = Query::builder()
        .engine(&engine)
        .history(&store)
        .build()
        .counterfactual(&ctx(), MetricId::ALL[FAULTY])
        .compute()
        .expect("compute");
    // Factually: exactly the 25 pairs touching the fault are violated.
    assert_eq!(
        report.factual.violation_count(),
        METRIC_COUNT - 1,
        "fixture violates one metric's pairs"
    );
    // Pinning the faulty metric to its baseline-run values restores the
    // healthy correlations: every violation clears, none appear.
    assert_eq!(report.cleared, pairs_touching_faulty());
    assert!(report.introduced.is_empty());
    assert_eq!(report.counterfactual.violation_count(), 0);
    assert!((report.attribution - 1.0).abs() < 1e-12);
}

#[test]
fn counterfactual_pinning_an_innocent_metric_attributes_nothing() {
    let engine = trained_engine();
    let (store, _) = recorded_history(&engine);
    let innocent = MetricId::ALL[10];
    let report = Query::builder()
        .engine(&engine)
        .history(&store)
        .build()
        .counterfactual(&ctx(), innocent)
        .compute()
        .expect("compute");
    // The innocent metric's baseline values equal its factual values
    // (the fault only touched metric 3), so nothing changes.
    assert_eq!(report.factual, report.counterfactual);
    assert!(report.cleared.is_empty());
    assert!(report.introduced.is_empty());
    assert!((report.attribution).abs() < 1e-12);
}

#[test]
fn counterfactual_requires_a_baseline_run() {
    let engine = trained_engine();
    let id = engine.context_registry().lookup(&ctx()).expect("interned");
    let store = HistoryStore::new();
    for t in 0..WINDOW {
        store.record_tick(id, t as u64, 1.0, 0.0, false, &faulty_row(t));
    }
    assert!(matches!(
        Query::builder()
            .engine(&engine)
            .history(&store)
            .build()
            .counterfactual(&ctx(), MetricId::ALL[FAULTY])
            .compute(),
        Err(QueryError::NoBaselineRun(_))
    ));
}

#[test]
fn counterfactual_plan_names_the_pin() {
    let engine = trained_engine();
    let (store, id) = recorded_history(&engine);
    let plan = Query::builder()
        .engine(&engine)
        .history(&store)
        .build()
        .counterfactual(&ctx(), MetricId::ALL[FAULTY])
        .plan()
        .expect("plan");
    assert_eq!(plan.steps.len(), 5);
    assert_eq!(
        plan.steps[0],
        ScanStep::RowRange {
            context: id,
            rows: WINDOW..2 * WINDOW,
        }
    );
    assert_eq!(
        plan.steps[1],
        ScanStep::SeriesScan {
            context: id,
            metric: MetricId::ALL[FAULTY],
            rows: 0..WINDOW,
        }
    );
    assert!(matches!(plan.steps[4], ScanStep::PinAndDiff { .. }));
}

#[test]
fn replay_reranks_from_recorded_scores() {
    let engine = trained_engine();
    let (store, id) = recorded_history(&engine);
    // Record the sweep the live engine would have produced.
    let frame = store.frame(id, WINDOW..2 * WINDOW).expect("frame");
    let matrix = engine.association_matrix(&frame).expect("matrix");
    store.record_sweep(id, (2 * WINDOW - 1) as u64, matrix.scores(), None);
    let replayed = Query::builder()
        .engine(&engine)
        .history(&store)
        .build()
        .explanations(&ctx())
        .replay_recorded()
        .rank()
        .expect("rank");
    let recomputed = Query::builder()
        .engine(&engine)
        .history(&store)
        .build()
        .explanations(&ctx())
        .rank()
        .expect("rank");
    assert_eq!(replayed, recomputed);
    // With no recorded sweep, replay refuses.
    let empty = HistoryStore::new();
    for t in 0..WINDOW {
        empty.record_tick(id, t as u64, 1.0, 0.0, false, &faulty_row(t));
    }
    assert!(matches!(
        Query::builder()
            .engine(&engine)
            .history(&empty)
            .build()
            .explanations(&ctx())
            .replay_recorded()
            .rank(),
        Err(QueryError::NoRecordedDiagnosis(_))
    ));
}
