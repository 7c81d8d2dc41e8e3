//! Integration tests of the telemetry subsystem: exact counter totals under
//! multi-threaded hammering, histogram-count invariants, Prometheus text
//! parse-back, JSON snapshot round-trips, and end-to-end attribution on a
//! streamed fault run.

use std::collections::HashMap;
use std::sync::Arc;

use invarnet_x::core::{
    ContextId, Engine, EngineEvent, EventSink, InvarNetConfig, OperationContext, Telemetry,
    TelemetrySnapshot,
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

#[test]
fn eight_threads_hammer_registry_with_exact_totals() {
    const THREADS: u64 = 8;
    const TICKS_PER_THREAD: u64 = 10_000;
    const SWEEP_EVERY: u64 = 50;
    const CONTEXTS: u64 = 4;

    let telemetry = Telemetry::shared();
    let ids: Vec<ContextId> = (0..CONTEXTS)
        .map(|i| {
            telemetry
                .contexts()
                .intern(&OperationContext::new(format!("10.0.0.{i}"), "W"))
        })
        .collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let telemetry = Arc::clone(&telemetry);
            let id = ids[(t % CONTEXTS) as usize];
            scope.spawn(move || {
                for k in 0..TICKS_PER_THREAD {
                    telemetry.record(&EngineEvent::TickIngested {
                        context: id,
                        tick: t * TICKS_PER_THREAD + k,
                        residual: (k % 7) as f64 * 0.1,
                        exceeded: k % 5 == 0,
                        micros: k % 1000,
                    });
                    if k % SWEEP_EVERY == 0 {
                        telemetry.record(&EngineEvent::SweepCompleted {
                            context: id,
                            pairs: 325,
                            micros: 1 + k,
                        });
                    }
                }
            });
        }
    });

    let snap = telemetry.snapshot();

    // Exact totals: nothing lost or double-counted under contention.
    assert_eq!(snap.total.ticks, THREADS * TICKS_PER_THREAD);
    assert_eq!(
        snap.total.threshold_exceedances,
        THREADS * TICKS_PER_THREAD.div_ceil(5)
    );
    let sweeps_per_thread = TICKS_PER_THREAD.div_ceil(SWEEP_EVERY);
    assert_eq!(snap.total.sweeps, THREADS * sweeps_per_thread);
    assert_eq!(snap.total.pairs_scored, THREADS * sweeps_per_thread * 325);

    // Per-context: two threads share each of the four contexts.
    assert_eq!(snap.contexts.len(), CONTEXTS as usize);
    for scope in &snap.contexts {
        assert_eq!(scope.ticks, 2 * TICKS_PER_THREAD, "{}", scope.context);
        assert_eq!(scope.sweeps, 2 * sweeps_per_thread, "{}", scope.context);
    }

    // Histogram-count invariants: bucket sums equal counts, counts equal
    // the number of recorded events, and sums/maxima are exact.
    for scope in snap.contexts.iter().chain([&snap.total]) {
        for hist in [
            &scope.ingest_micros,
            &scope.sweep_micros,
            &scope.diagnosis_micros,
            &scope.pair_score_nanos,
        ] {
            assert!(hist.is_consistent(), "{}", scope.context);
        }
        assert_eq!(scope.ingest_micros.count, scope.ticks);
        assert_eq!(scope.sweep_micros.count, scope.sweeps);
    }
    // Per-thread micros are k % 1000, so the exact total is known.
    let sum_per_thread: u64 = (0..TICKS_PER_THREAD).map(|k| k % 1000).sum();
    assert_eq!(snap.total.ingest_micros.sum, THREADS * sum_per_thread);
    assert_eq!(snap.total.ingest_micros.max, 999);
    assert_eq!(
        snap.total.sweep_micros.max,
        1 + (TICKS_PER_THREAD - 1) / SWEEP_EVERY * SWEEP_EVERY
    );
    // Quantiles stay within the log-bucket guarantee (≤ 2x, capped at max).
    let p50 = snap.total.ingest_micros.quantile(0.5);
    assert!((250..=999).contains(&p50), "p50 = {p50}");
}

/// A tiny parser of the Prometheus text exposition format: returns
/// `(metric, labels) -> value` for every sample line.
fn parse_prometheus(text: &str) -> HashMap<(String, String), f64> {
    let mut out = HashMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line");
        let (metric, labels) = match series.split_once('{') {
            Some((m, l)) => (m.to_string(), l.trim_end_matches('}').to_string()),
            None => (series.to_string(), String::new()),
        };
        let parsed: f64 = value.parse().expect("sample value");
        assert!(
            out.insert((metric, labels), parsed).is_none(),
            "duplicate series: {line}"
        );
    }
    out
}

#[test]
fn prometheus_text_parses_back_to_snapshot_values() {
    let telemetry = Telemetry::new();
    let ctx = telemetry
        .contexts()
        .intern(&OperationContext::new("n1", "Sort"));
    for k in 0..100u64 {
        telemetry.record(&EngineEvent::TickIngested {
            context: ctx,
            tick: k,
            residual: 0.1 * (k % 3) as f64,
            exceeded: k % 4 == 0,
            micros: k,
        });
    }
    telemetry.record(&EngineEvent::DetectionFired {
        context: ctx,
        tick: 50,
    });
    telemetry.record(&EngineEvent::SweepCompleted {
        context: ctx,
        pairs: 325,
        micros: 1234,
    });
    telemetry.record(&EngineEvent::SignatureMatched {
        context: ctx,
        tick: 50,
        best_similarity: 0.75,
        confident: true,
    });

    let snap = telemetry.snapshot();
    let samples = parse_prometheus(&snap.render_prometheus());
    let label = "context=\"Sort@n1\"".to_string();
    let get = |metric: &str| samples[&(metric.to_string(), label.clone())];

    let scope = &snap.contexts[0];
    assert_eq!(scope.context, "Sort@n1");
    assert_eq!(get("invarnet_ticks_ingested_total"), scope.ticks as f64);
    assert_eq!(
        get("invarnet_threshold_exceedances_total"),
        scope.threshold_exceedances as f64
    );
    assert_eq!(get("invarnet_detections_fired_total"), 1.0);
    assert_eq!(get("invarnet_sweeps_total"), 1.0);
    assert_eq!(get("invarnet_pairs_scored_total"), 325.0);
    assert_eq!(get("invarnet_signature_matches_total"), 1.0);
    assert_eq!(get("invarnet_last_similarity"), 0.75);
    assert_eq!(get("invarnet_max_residual"), scope.max_residual);

    // Histogram invariants in the exposition: +Inf bucket == _count ==
    // snapshot count, _sum == snapshot sum, buckets cumulative-monotone.
    for metric in ["invarnet_ingest_micros", "invarnet_sweep_micros"] {
        let hist = if metric == "invarnet_ingest_micros" {
            &scope.ingest_micros
        } else {
            &scope.sweep_micros
        };
        let inf_label = "context=\"Sort@n1\",le=\"+Inf\"".to_string();
        assert_eq!(
            samples[&(format!("{metric}_bucket"), inf_label)],
            hist.count as f64
        );
        assert_eq!(
            samples[&(format!("{metric}_count"), label.clone())],
            hist.count as f64
        );
        assert_eq!(
            samples[&(format!("{metric}_sum"), label.clone())],
            hist.sum as f64
        );
        let mut bucket_samples: Vec<(u64, f64)> = samples
            .iter()
            .filter(|((m, l), _)| m == &format!("{metric}_bucket") && !l.contains("+Inf"))
            .map(|((_, l), &v)| {
                let le = l.split("le=\"").nth(1).unwrap().trim_end_matches('"');
                (le.parse::<u64>().unwrap(), v)
            })
            .collect();
        bucket_samples.sort_unstable_by_key(|&(le, _)| le);
        for pair in bucket_samples.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "{metric} buckets must be monotone");
        }
    }
}

#[test]
fn streamed_fault_run_is_attributed_and_json_round_trips() {
    let telemetry = Telemetry::shared();
    let engine = Engine::builder()
        .config(InvarNetConfig {
            min_frame_ticks: 5,
            window_ticks: 40,
            ..InvarNetConfig::default()
        })
        .observe(&telemetry)
        .build();

    let ctx = OperationContext::new("10.0.0.1", "Wordcount");
    let cpi_traces: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, 120)).collect();
    engine
        .train_performance_model(ctx.clone(), &cpi_traces)
        .unwrap();
    let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(40, 100 + s, false)).collect();
    engine.build_invariants(ctx.clone(), &frames).unwrap();
    engine
        .record_signature(&ctx, "metric0-break", &coupled_frame(40, 109, true))
        .unwrap();

    // A run that goes anomalous at tick 60 and recovers at tick 90.
    let mut cpi = normal_cpi(42, 120);
    for v in cpi[60..90].iter_mut() {
        *v *= 1.8;
    }
    let metrics = coupled_frame(120, 7, true);
    for (t, &sample) in cpi.iter().enumerate() {
        engine.ingest(&ctx, sample, metrics.tick(t)).unwrap();
    }

    let snap = telemetry.snapshot();
    let scope = snap
        .contexts
        .iter()
        .find(|s| s.context == ctx.to_string())
        .expect("the streamed context must appear in the snapshot");
    assert_eq!(scope.ticks, cpi.len() as u64);
    assert_eq!(scope.ingest_micros.count, scope.ticks);
    assert_eq!(scope.detections, 1, "one anomaly onset");
    assert_eq!(scope.clears, 1, "the anomaly recovered");
    assert_eq!(scope.diagnoses, 1, "diagnosis is edge-triggered");
    assert_eq!(
        scope.matches_confident + scope.matches_unknown,
        scope.diagnoses,
        "every diagnosis reports a signature-match outcome"
    );
    assert!(scope.sweeps >= 1);
    assert_eq!(scope.sweep_micros.count, scope.sweeps);
    assert!(scope.pairs_scored >= 325);
    assert!(scope.threshold_exceedances >= 3);
    assert!(scope.max_residual > 0.0);

    // Spans cover the offline phases and the online diagnosis.
    for phase in ["train", "invariant_build", "sweep", "diagnosis"] {
        let p = snap.phases.iter().find(|p| p.phase == phase).unwrap();
        assert!(p.micros.count >= 1, "phase {phase} must have spans");
    }
    assert!(!snap.spans.is_empty());

    // The report prints the per-context row and latency quantiles.
    let report = snap.render_report();
    assert!(report.contains("Wordcount@10.0.0.1"));
    assert!(report.contains("swp_p50"));
    assert!(report.contains("diagnosis (µs)"));

    // Acceptance: the snapshot survives a JSON round-trip with identical
    // values (PartialEq covers every counter, gauge, bucket and span).
    let json = snap.to_json().unwrap();
    let back = TelemetrySnapshot::from_json(&json).unwrap();
    assert_eq!(back, snap);
    assert_eq!(back.render_prometheus(), snap.render_prometheus());
}

#[test]
fn unattributed_sweeps_and_profile_builds_flow_through_exporters() {
    let telemetry = Telemetry::shared();
    let engine = Engine::builder()
        .config(InvarNetConfig {
            min_frame_ticks: 5,
            ..InvarNetConfig::default()
        })
        .observe(&telemetry)
        .build();

    // Three unattributed sweeps over two distinct windows: no context owns
    // them, so nothing is reused and each one sweeps — deterministically.
    let a = coupled_frame(40, 1, false);
    let b = coupled_frame(40, 2, false);
    let first = engine.association_matrix(&a).unwrap();
    let _ = engine.association_matrix(&b).unwrap();
    let again = engine.association_matrix(&a).unwrap();
    assert_eq!(again, first, "a re-sweep must return the identical matrix");

    let snap = telemetry.snapshot();
    assert_eq!(snap.total.sweeps, 3, "unattributed sweeps reuse nothing");

    // The default MIC measure plans per-series profiles, so each sweep
    // records a profile_build span.
    let profile_phase = snap
        .phases
        .iter()
        .find(|p| p.phase == "profile_build")
        .expect("profile_build phase must be exported");
    assert_eq!(profile_phase.micros.count, 3);

    // The sweep counter reaches the Prometheus exposition...
    let samples = parse_prometheus(&snap.render_prometheus());
    let label = "context=\"(unattributed)\"".to_string();
    assert_eq!(samples[&("invarnet_sweeps_total".to_string(), label)], 3.0);

    // ...and the phase survives the JSON round-trip.
    let back = TelemetrySnapshot::from_json(&snap.to_json().unwrap()).unwrap();
    let back_phase = back
        .phases
        .iter()
        .find(|p| p.phase == "profile_build")
        .expect("profile_build phase survives the round-trip");
    assert_eq!(back_phase.micros.count, 3);
    assert_eq!(back, snap);
}

#[test]
fn null_sink_engine_still_works() {
    // The default engine (NullSink) runs the same pipeline with no
    // telemetry attached.
    let engine = Engine::builder()
        .config(InvarNetConfig {
            min_frame_ticks: 5,
            window_ticks: 40,
            ..InvarNetConfig::default()
        })
        .build();
    let ctx = OperationContext::new("10.0.0.9", "Grep");
    let cpi_traces: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, 120)).collect();
    engine
        .train_performance_model(ctx.clone(), &cpi_traces)
        .unwrap();

    let cpi = normal_cpi(5, 30);
    let metrics = coupled_frame(30, 5, false);
    for (t, &sample) in cpi.iter().enumerate() {
        engine.ingest(&ctx, sample, metrics.tick(t)).unwrap();
    }
    let state = engine
        .inspector()
        .context_state(&ctx)
        .expect("a trained context");
    assert_eq!(state.run_ticks, 30, "a run in flight");
}
