//! Integration tests of the engine: tick-level ingestion must reproduce
//! batch results, state must stay isolated across contexts and threads,
//! the detector family must be selectable via config, and the batch
//! (whole-trace) entry points must gate, rank and refuse exactly as the
//! paper's pipeline does.

use invarnet_x::core::{
    AssociationMatrix, CoreError, CusumDetector, DetectionResult, DetectorChoice, Engine,
    ErrorKind, InvarNetConfig, InvariantSet, OperationContext, Telemetry, TickDecision,
};
use invarnet_x::metrics::{MetricFrame, METRIC_COUNT};
use invarnet_x::timeseries::SeriesBuilder;

/// A frame whose metrics are all driven by one latent ramp (strongly
/// associated), with metric 0 optionally replaced by noise.
fn coupled_frame(ticks: usize, seed: u64, break_metric0: bool) -> MetricFrame {
    let mut f = MetricFrame::new();
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for t in 0..ticks {
        let latent = (t as f64 * 0.23).sin() * 5.0 + 10.0 + 0.2 * next();
        let mut row: Vec<f64> = (0..METRIC_COUNT)
            .map(|k| latent * (k + 1) as f64 + 0.1 * next())
            .collect();
        if break_metric0 {
            row[0] = 100.0 * next();
        }
        f.push_tick(&row).unwrap();
    }
    f
}

fn normal_cpi(seed: u64, len: usize) -> Vec<f64> {
    SeriesBuilder::new(len)
        .level(1.0)
        .ar1(0.6)
        .noise(0.02)
        .build(seed)
        .unwrap()
        .into_values()
}

/// The batch-shaped result of a streamed run's decisions under the
/// context's detector threshold.
fn streamed_result(
    engine: &Engine,
    ctx: &OperationContext,
    decisions: Vec<TickDecision>,
) -> DetectionResult {
    DetectionResult::from_decisions(decisions, engine.detector(ctx).unwrap().threshold())
}

/// Ticks in the context's current run.
fn run_ticks(engine: &Engine, ctx: &OperationContext) -> usize {
    engine.inspector().context_state(ctx).unwrap().run_ticks
}

fn streaming_config() -> InvarNetConfig {
    InvarNetConfig {
        min_frame_ticks: 5,
        window_ticks: 40,
        ..InvarNetConfig::default()
    }
}

/// Offline-trains one context on the engine: ARIMA model, invariants, and
/// one recorded fault signature.
fn train_context(engine: &Engine, ctx: &OperationContext, cpi_traces: &[Vec<f64>], seed: u64) {
    engine
        .train_performance_model(ctx.clone(), cpi_traces)
        .unwrap();
    let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(40, seed + s, false)).collect();
    engine.build_invariants(ctx.clone(), &frames).unwrap();
    engine
        .record_signature(ctx, "metric0-break", &coupled_frame(40, seed + 9, true))
        .unwrap();
}

#[test]
fn streamed_ticks_reproduce_batch_detection_and_diagnosis() {
    let telemetry = Telemetry::shared();
    let engine = Engine::builder()
        .config(streaming_config())
        .observe(&telemetry)
        .build();

    let ctx = OperationContext::new("10.0.0.1", "Wordcount");
    let cpi_traces: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, 120)).collect();
    train_context(&engine, &ctx, &cpi_traces, 100);

    // An anomalous online run: CPI jumps at tick 60 and stays high (a
    // single anomaly onset), metrics break with it.
    let mut cpi = normal_cpi(42, 120);
    for v in cpi[60..].iter_mut() {
        *v *= 1.8;
    }
    let metrics = coupled_frame(120, 7, true);

    let mut onset: Option<usize> = None;
    let mut streamed_diagnosis = None;
    let mut decisions = Vec::new();
    for (t, &sample) in cpi.iter().enumerate() {
        let out = engine.ingest(&ctx, sample, metrics.tick(t)).unwrap();
        assert_eq!(out.tick, t);
        decisions.push(out.decision());
        if let Some(d) = out.diagnosis {
            assert!(
                onset.is_none(),
                "diagnosis must be edge-triggered, not per-tick"
            );
            onset = Some(t);
            streamed_diagnosis = Some(d);
        }
    }

    // Detection parity: the streamed decisions equal the batch detector
    // (bit-exact, so PartialEq over the f64 residuals holds).
    let streamed = streamed_result(&engine, &ctx, decisions);
    let model = engine.performance_model(&ctx).unwrap();
    let batch = model.detect(
        &cpi,
        engine.config().threshold_rule,
        engine.config().consecutive_anomalies,
    );
    assert_eq!(streamed, batch);

    // Diagnosis parity: the onset-tick diagnosis equals a batch diagnosis
    // over the same sliding window contents.
    let t = onset.expect("the injected jump must trigger a diagnosis");
    assert_eq!(Some(t), batch.first_anomaly);
    let window_ticks = engine.config().window_ticks;
    let start = (t + 1).saturating_sub(window_ticks);
    let window = metrics.window(start..t + 1);
    let batch_diagnosis = engine.diagnose(&ctx, &window).unwrap();
    let streamed_diagnosis = streamed_diagnosis.unwrap();
    assert_eq!(streamed_diagnosis, batch_diagnosis);
    assert_eq!(
        streamed_diagnosis.root_cause().unwrap().problem,
        "metric0-break"
    );

    // Observability: every layer reported through the sink.
    let total = telemetry.snapshot().total;
    assert_eq!(total.ticks, cpi.len() as u64);
    assert_eq!(total.detections, 1);
    assert_eq!(total.diagnoses, 2); // streaming onset + batch replay
    assert!(total.sweeps >= 2);
    assert!(total.sweep_micros.sum >= total.sweep_micros.max);
}

#[test]
fn concurrent_ingestion_matches_single_threaded_and_isolates_contexts() {
    let trace_len = 100;
    let contexts: Vec<OperationContext> = (0..8)
        .map(|i| OperationContext::new(format!("10.0.0.{i}"), "Wordcount"))
        .collect();
    let cpi_traces: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, trace_len)).collect();

    let setup = || {
        let engine = Engine::builder().config(streaming_config()).build();
        for (i, ctx) in contexts.iter().enumerate() {
            train_context(&engine, ctx, &cpi_traces, 200 + 10 * i as u64);
        }
        engine
    };

    // Per-context online streams: even contexts stay normal, odd contexts
    // get a CPI jump (and broken metrics) so diagnosis paths run under
    // contention too.
    let streams: Vec<(Vec<f64>, MetricFrame)> = contexts
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let mut cpi = normal_cpi(400 + i as u64, trace_len);
            let broken = i % 2 == 1;
            if broken {
                for v in cpi[60..90].iter_mut() {
                    *v *= 1.8;
                }
            }
            (cpi, coupled_frame(trace_len, 500 + i as u64, broken))
        })
        .collect();

    // Reference: one engine, everything ingested from this thread.
    let single = setup();
    let single_decisions: Vec<Vec<TickDecision>> = contexts
        .iter()
        .zip(&streams)
        .map(|(ctx, (cpi, metrics))| {
            (cpi.iter().enumerate())
                .map(|(t, &sample)| {
                    single
                        .ingest(ctx, sample, metrics.tick(t))
                        .unwrap()
                        .decision()
                })
                .collect()
        })
        .collect();

    // Concurrent: same work spread over 4 threads, 2 contexts each.
    let concurrent = setup();
    let mut concurrent_decisions: Vec<Vec<TickDecision>> = vec![Vec::new(); contexts.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = contexts
            .chunks(2)
            .map(|chunk| {
                let concurrent = &concurrent;
                let streams = &streams;
                let contexts = &contexts;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for ctx in chunk {
                        let i = contexts.iter().position(|c| c == ctx).unwrap();
                        let (cpi, metrics) = &streams[i];
                        let decisions: Vec<TickDecision> = (cpi.iter().enumerate())
                            .map(|(t, &sample)| {
                                let out = concurrent.ingest(ctx, sample, metrics.tick(t));
                                out.unwrap().decision()
                            })
                            .collect();
                        out.push((i, decisions));
                    }
                    out
                })
            })
            .collect();
        for worker in workers {
            for (i, decisions) in worker.join().unwrap() {
                concurrent_decisions[i] = decisions;
            }
        }
    });

    // Shard isolation: every context's detector run and window end up
    // identical to the single-threaded reference, which itself equals the
    // batch detector on that context's own trace.
    for (i, ctx) in contexts.iter().enumerate() {
        let got = streamed_result(&concurrent, ctx, concurrent_decisions[i].clone());
        let reference = streamed_result(&single, ctx, single_decisions[i].clone());
        assert_eq!(got, reference, "context {i} detection diverged");
        assert_eq!(
            concurrent.capture_run(ctx),
            single.capture_run(ctx),
            "context {i} detector state diverged"
        );
        let model = concurrent.performance_model(ctx).unwrap();
        let batch = model.detect(&streams[i].0, concurrent.config().threshold_rule, 3);
        assert_eq!(got, batch, "context {i} differs from batch detection");
        assert!(
            batch.is_anomalous() == (i % 2 == 1),
            "context {i} anomaly parity"
        );
        assert_eq!(
            concurrent.window_frame(ctx).unwrap(),
            single.window_frame(ctx).unwrap(),
            "context {i} window diverged"
        );
    }
    assert_eq!(concurrent.contexts().len(), contexts.len());
}

#[test]
fn cusum_detector_is_selectable_through_config() {
    let config = InvarNetConfig {
        detector: DetectorChoice::cusum_default(),
        min_frame_ticks: 5,
        window_ticks: 40,
        ..InvarNetConfig::default()
    };
    let engine = Engine::builder().config(config).build();
    let ctx = OperationContext::new("10.0.0.1", "Wordcount");
    // Flat CPI traces so CUSUM's in-control calibration is meaningful.
    let traces: Vec<Vec<f64>> = (0..4)
        .map(|s| {
            SeriesBuilder::new(150)
                .level(1.3)
                .noise(0.03)
                .build(s)
                .unwrap()
                .into_values()
        })
        .collect();
    engine
        .train_performance_model(ctx.clone(), &traces)
        .unwrap();
    let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(40, s, false)).collect();
    engine.build_invariants(ctx.clone(), &frames).unwrap();
    engine
        .record_signature(&ctx, "hog", &coupled_frame(40, 9, true))
        .unwrap();

    assert_eq!(engine.detector(&ctx).unwrap().name(), "CUSUM");

    // A sustained 2-sigma shift: the streamed CUSUM must alarm and match
    // the batch CUSUM tick for tick.
    let mut cpi = SeriesBuilder::new(120)
        .level(1.3)
        .noise(0.03)
        .build(77)
        .unwrap()
        .into_values();
    for v in cpi[60..].iter_mut() {
        *v += 0.08;
    }
    let metrics = coupled_frame(120, 11, true);
    let mut diagnosed = false;
    let mut decisions = Vec::new();
    for (t, &sample) in cpi.iter().enumerate() {
        let out = engine.ingest(&ctx, sample, metrics.tick(t)).unwrap();
        diagnosed |= out.diagnosis.is_some();
        decisions.push(out.decision());
    }
    let streamed = streamed_result(&engine, &ctx, decisions);
    assert!(streamed.is_anomalous(), "shift must alarm under CUSUM");
    assert!(diagnosed, "the alarm onset must trigger a diagnosis");

    let batch_cusum =
        CusumDetector::train(&traces, CusumDetector::DEFAULT_K, CusumDetector::DEFAULT_H)
            .unwrap()
            .detect(&cpi);
    assert_eq!(streamed.anomalies, batch_cusum.alarms);
    assert_eq!(streamed.first_anomaly, batch_cusum.first_alarm);
    // The batch path of Engine::detect streams through the same detector.
    assert_eq!(engine.detect(&ctx, &cpi).unwrap(), streamed);
}

#[test]
fn ingest_errors_are_precise_and_non_destructive() {
    let engine = Engine::builder().config(streaming_config()).build();
    let ctx = OperationContext::new("10.0.0.1", "Wordcount");

    // No model yet: ingest refuses.
    assert!(engine.ingest(&ctx, 1.0, &[1.0; METRIC_COUNT]).is_err());

    let cpi_traces: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, 120)).collect();
    engine
        .train_performance_model(ctx.clone(), &cpi_traces)
        .unwrap();

    // Wrong-width row: rejected without advancing the run.
    assert!(engine.ingest(&ctx, 1.0, &[1.0; 3]).is_err());
    engine.ingest(&ctx, 1.0, &[1.0; METRIC_COUNT]).unwrap();
    assert_eq!(
        run_ticks(&engine, &ctx),
        1,
        "rejected row must not consume a tick"
    );

    // Reset starts a fresh run.
    engine.reset_run(&ctx);
    assert_eq!(run_ticks(&engine, &ctx), 0);
    assert!(engine.capture_run(&ctx).is_none());
    let out = engine.ingest(&ctx, 1.0, &[1.0; METRIC_COUNT]).unwrap();
    assert_eq!(out.tick, 0);
}

#[test]
fn non_finite_cpi_is_rejected_before_any_state_changes() {
    let ctx = OperationContext::new("10.0.0.1", "Wordcount");
    let cpi_traces: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, 120)).collect();
    let engine = Engine::builder().config(streaming_config()).build();
    let twin = Engine::builder().config(streaming_config()).build();
    train_context(&engine, &ctx, &cpi_traces, 100);
    train_context(&twin, &ctx, &cpi_traces, 100);

    let cpi = normal_cpi(42, 12);
    let metrics = coupled_frame(12, 7, false);
    for (t, &sample) in cpi.iter().enumerate().take(6) {
        engine.ingest(&ctx, sample, metrics.tick(t)).unwrap();
        twin.ingest(&ctx, sample, metrics.tick(t)).unwrap();
    }
    let window = engine.window_frame(&ctx).unwrap();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = engine.ingest(&ctx, bad, metrics.tick(6)).unwrap_err();
        assert_eq!(err, CoreError::NonFiniteCpi(ctx.clone()));
        assert_eq!(err.kind(), ErrorKind::NonFiniteCpi);
    }
    // Nothing moved: the run, the window and the lifetime counter are
    // exactly where six clean ticks left them.
    assert_eq!(run_ticks(&engine, &ctx), 6);
    assert_eq!(engine.window_frame(&ctx).unwrap(), window);
    assert_eq!(engine.lifetime_ticks(), twin.lifetime_ticks());

    // The run continues bit-identically to a twin that never saw them.
    for (t, &sample) in cpi.iter().enumerate().skip(6) {
        let a = engine.ingest(&ctx, sample, metrics.tick(t)).unwrap();
        let b = twin.ingest(&ctx, sample, metrics.tick(t)).unwrap();
        assert_eq!(a.tick, t);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
    }

    // The check runs first, so an unknown context gets the same answer.
    let stranger = OperationContext::new("10.0.0.9", "Sort");
    assert_eq!(
        engine
            .ingest(&stranger, f64::NAN, metrics.tick(0))
            .unwrap_err(),
        CoreError::NonFiniteCpi(stranger.clone())
    );
}

#[test]
fn training_refuses_non_finite_cpi() {
    let ctx = OperationContext::new("10.0.0.1", "Wordcount");
    let engine = Engine::builder().config(streaming_config()).build();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut traces: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, 120)).collect();
        traces[1][57] = bad;
        let err = engine
            .train_performance_model(ctx.clone(), &traces)
            .unwrap_err();
        assert_eq!(err, CoreError::NonFiniteCpi(ctx.clone()));
    }
    assert!(engine.performance_model(&ctx).is_none());
    assert!(engine.detector(&ctx).is_none());

    let clean: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, 120)).collect();
    engine.train_performance_model(ctx.clone(), &clean).unwrap();
    assert!(engine.detector(&ctx).is_some());
}

/// An engine with invariants built for `ctx` from two coupled frames of
/// `ticks` ticks.
fn batch_engine(ctx: &OperationContext, ticks: usize) -> Engine {
    let engine = Engine::builder()
        .config(streaming_config())
        .threads(1)
        .build();
    let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(ticks, s, false)).collect();
    engine.build_invariants(ctx.clone(), &frames).unwrap();
    engine
}

#[test]
fn detection_gates_diagnosis() {
    let ctx = OperationContext::new("10.0.0.1", "Test");
    let engine = batch_engine(&ctx, 40);
    let cpi_traces: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, 120)).collect();
    engine
        .train_performance_model(ctx.clone(), &cpi_traces)
        .unwrap();
    engine
        .record_signature(&ctx, "x", &coupled_frame(40, 7, true))
        .unwrap();

    // Normal CPI: no diagnosis performed.
    let normal = &cpi_traces[0];
    let (det, diag) = engine
        .process(&ctx, normal, &coupled_frame(40, 8, true))
        .unwrap();
    assert!(!det.is_anomalous());
    assert!(diag.is_none());

    // Anomalous CPI: diagnosis runs.
    let mut hot = normal.clone();
    for v in hot[60..90].iter_mut() {
        *v *= 1.8;
    }
    let (det, diag) = engine
        .process(&ctx, &hot, &coupled_frame(40, 9, true))
        .unwrap();
    assert!(det.is_anomalous());
    assert_eq!(diag.unwrap().root_cause().unwrap().problem, "x");
}

#[test]
fn missing_state_errors() {
    let engine = Engine::builder().config(streaming_config()).build();
    let ctx = OperationContext::new("10.0.0.1", "Test");
    assert!(matches!(
        engine.detect(&ctx, &[1.0; 50]),
        Err(CoreError::NoPerformanceModel(_))
    ));
    assert!(matches!(
        engine.violation_tuple(&ctx, &coupled_frame(30, 1, false)),
        Err(CoreError::NoInvariants(_))
    ));
}

#[test]
fn frame_too_short_is_rejected() {
    let engine = Engine::builder().build();
    let ctx = OperationContext::new("10.0.0.1", "Test");
    let short = coupled_frame(5, 1, false);
    assert!(matches!(
        engine.build_invariants(ctx, &[short.clone(), short]),
        Err(CoreError::FrameTooShort { .. })
    ));
}

#[test]
fn top_causes_and_hints() {
    let ctx = OperationContext::new("10.0.0.1", "Test");
    let engine = batch_engine(&ctx, 50);
    engine
        .record_signature(&ctx, "break-a", &coupled_frame(50, 7, true))
        .unwrap();
    engine
        .record_signature(&ctx, "clean", &coupled_frame(50, 8, false))
        .unwrap();

    let d = engine.diagnose(&ctx, &coupled_frame(50, 9, true)).unwrap();
    // top_causes respects both k and the similarity floor.
    assert_eq!(d.top_causes(2, 0.0).len(), 2);
    assert_eq!(d.top_causes(1, 0.0).len(), 1);
    assert!(d.top_causes(5, 0.99).len() <= 2);

    // Hints name metric 0 (the broken one) in the strongest pairs.
    let inv = engine.invariant_set(&ctx).unwrap();
    let hints = d.hints(&inv).unwrap();
    assert!(!hints.is_empty());
    let first = hints[0];
    assert!(
        first.0.index() == 0 || first.1.index() == 0,
        "strongest hint should involve the broken metric: {hints:?}"
    );
    // Sorted by deviation, descending.
    for w in hints.windows(2) {
        assert!(w[0].2 >= w[1].2);
    }
}

#[test]
fn hints_reject_mismatched_invariant_set() {
    let ctx = OperationContext::new("10.0.0.1", "Test");
    let engine = batch_engine(&ctx, 50);
    engine
        .record_signature(&ctx, "p", &coupled_frame(50, 7, true))
        .unwrap();
    let d = engine.diagnose(&ctx, &coupled_frame(50, 9, true)).unwrap();

    // A set with a different pair population (different tau) has a
    // different length; hints must refuse it instead of panicking.
    let mats: Vec<AssociationMatrix> = (0..2)
        .map(|s| {
            engine
                .association_matrix(&coupled_frame(50, s, false))
                .unwrap()
        })
        .collect();
    let other = InvariantSet::select(&mats, 1e-9);
    if other.len() != d.tuple.len() {
        assert!(matches!(
            d.hints(&other),
            Err(CoreError::TupleLengthMismatch { .. })
        ));
    }
    // The matching set works.
    assert!(d.hints(&engine.invariant_set(&ctx).unwrap()).is_ok());
}

#[test]
fn contexts_are_isolated() {
    let a = OperationContext::new("n1", "W");
    let b = OperationContext::new("n2", "W");
    let engine = batch_engine(&a, 40);
    assert!(engine.invariant_set(&a).is_some());
    assert!(engine.invariant_set(&b).is_none());
    engine
        .record_signature(&a, "p", &coupled_frame(40, 5, true))
        .unwrap();
    // Context b has no invariants: diagnosis must error, not borrow a's.
    assert!(engine.diagnose(&b, &coupled_frame(40, 6, true)).is_err());
}
