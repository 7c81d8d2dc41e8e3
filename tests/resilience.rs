//! Integration tests of the resilience layer: the degradation ladder picks
//! the declared tier for each failure shape and reports it on the event
//! stream, and the bounded-ingest shed policies always retain a contiguous
//! run of recent ticks at least as long as the detector's
//! consecutive-exceedance window (paper §3.1's 3-tick rule).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use invarnet_x::core::{
    AssociationMeasure, DegradationReason, DegradationTier, DetectionResult, Detector, DetectorRun,
    Engine, EngineEvent, EventSink, InvarNetConfig, MicMeasure, OperationContext, OverloadPolicy,
    SubmitOutcome, SweepBudget, TickDecision,
};
use invarnet_x::metrics::{MetricFrame, METRIC_COUNT};
use proptest::prelude::*;

/// A frame whose metrics all follow one latent ramp, so MIC finds a dense
/// invariant network; `break_metric0` decouples metric 0 for incidents.
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

/// An [`AssociationMeasure`] that stalls every score call once armed —
/// training runs at full speed, only the measured sweep is slow.
struct SlowWrapper {
    inner: MicMeasure,
    delay: Duration,
    armed: AtomicBool,
}

impl SlowWrapper {
    fn new(delay: Duration) -> Self {
        SlowWrapper {
            inner: MicMeasure::default(),
            delay,
            armed: AtomicBool::new(false),
        }
    }

    fn arm(&self) {
        self.armed.store(true, Ordering::Relaxed);
    }
}

impl AssociationMeasure for SlowWrapper {
    fn score(&self, x: &[f64], y: &[f64]) -> f64 {
        if self.armed.load(Ordering::Relaxed) {
            std::thread::sleep(self.delay);
        }
        self.inner.score(x, y)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    // No `prepare` override: forces the per-pair path the delay bites on.
}

/// Records the sweep-relevant event sequence as compact labels.
#[derive(Default)]
struct EventLog(Mutex<Vec<String>>);

impl EventLog {
    fn labels(&self) -> Vec<String> {
        self.0.lock().unwrap().clone()
    }
}

impl EventSink for EventLog {
    fn record(&self, event: &EngineEvent) {
        let label = match event {
            EngineEvent::SweepCompleted { .. } => "sweep-completed".to_string(),
            EngineEvent::SweepDegraded { tier, reason, .. } => {
                format!("degraded:{}:{}", tier.name(), reason.name())
            }
            EngineEvent::DiagnosisRan { .. } => "diagnosis-ran".to_string(),
            _ => return,
        };
        self.0.lock().unwrap().push(label);
    }
}

/// Trains invariants and one signature for `ctx` so `diagnose` has both a
/// reference network and a ranking candidate.
fn train(engine: &Engine, ctx: &OperationContext, seed: u64) {
    let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(40, seed + s, false)).collect();
    engine.build_invariants(ctx.clone(), &frames).unwrap();
    engine
        .record_signature(ctx, "metric0-break", &coupled_frame(40, seed + 9, true))
        .unwrap();
}

#[test]
fn warm_cache_degrades_to_tier1_cached_matrix() {
    let slow = Arc::new(SlowWrapper::new(Duration::from_millis(2)));
    let log = Arc::new(EventLog::default());
    let engine = Engine::builder()
        .config(InvarNetConfig::default())
        .measure(Arc::clone(&slow) as Arc<dyn AssociationMeasure>)
        .event_sink(Arc::clone(&log) as Arc<dyn EventSink>)
        .build();
    let ctx = OperationContext::new("10.1.0.1", "Wordcount");
    train(&engine, &ctx, 300);

    // Training sweeps wrote the context's sweep record at full fidelity; a
    // fresh incident window under a hopeless budget must fall back to that
    // recorded matrix — tier 1, the cheapest acceptable answer.
    slow.arm();
    let incident = coupled_frame(40, 777, true);
    let diagnosis = engine
        .diagnose_with_budget(&ctx, &incident, SweepBudget::wall_millis(5))
        .expect("degraded diagnosis still answers");
    let deg = diagnosis
        .degradation
        .expect("budget overrun must be declared");
    assert_eq!(deg.tier, DegradationTier::CachedMatrix);
    assert!(
        matches!(
            deg.reason,
            DegradationReason::WallClockExceeded | DegradationReason::PredictedOverrun
        ),
        "unexpected reason {:?}",
        deg.reason
    );
    assert!(
        log.labels()
            .iter()
            .any(|l| l.starts_with("degraded:cached-matrix:")),
        "the tier-1 fallback must be visible on the event stream: {:?}",
        log.labels()
    );
}

#[test]
fn cold_cache_degrades_to_tier2_pearson_fallback() {
    let slow = Arc::new(SlowWrapper::new(Duration::from_millis(2)));
    let build = || {
        Engine::builder()
            .measure(Arc::clone(&slow) as Arc<dyn AssociationMeasure>)
            .build()
    };
    let trained = build();
    let ctx = OperationContext::new("10.1.0.2", "Wordcount");
    train(&trained, &ctx, 310);
    // A fresh engine loaded with the trained state has swept nothing, so
    // it holds no sweep record: tier 1 is unavailable.
    let engine = build();
    engine.load_state(&trained.snapshot_state()).unwrap();

    slow.arm();
    let incident = coupled_frame(40, 778, true);
    let diagnosis = engine
        .diagnose_with_budget(&ctx, &incident, SweepBudget::wall_millis(5))
        .expect("degraded diagnosis still answers");
    let deg = diagnosis
        .degradation
        .expect("budget overrun must be declared");
    assert_eq!(deg.tier, DegradationTier::PearsonFallback);
}

#[test]
fn pair_budget_degrades_to_tier3_partial_matrix() {
    let trained = Engine::builder().build();
    let ctx = OperationContext::new("10.1.0.3", "Wordcount");
    train(&trained, &ctx, 320);
    // No sweep record on a freshly loaded engine: tier 1 is unavailable.
    let engine = Engine::builder().build();
    engine.load_state(&trained.snapshot_state()).unwrap();

    // A pair ceiling below the full population rules out every full sweep
    // (Pearson included): only the partial high-variance matrix fits.
    let incident = coupled_frame(40, 779, true);
    let budget = SweepBudget::default().with_max_pairs(10);
    let diagnosis = engine
        .diagnose_with_budget(&ctx, &incident, budget)
        .expect("degraded diagnosis still answers");
    let deg = diagnosis.degradation.expect("pair budget must be declared");
    assert_eq!(deg.tier, DegradationTier::PartialMatrix);
    assert_eq!(deg.reason, DegradationReason::PairBudgetExceeded);
}

#[test]
fn slow_measure_event_sequence_declares_the_degraded_sweep() {
    let slow = Arc::new(SlowWrapper::new(Duration::from_millis(2)));
    let log = Arc::new(EventLog::default());
    let engine = Engine::builder()
        .config(InvarNetConfig::default())
        .measure(Arc::clone(&slow) as Arc<dyn AssociationMeasure>)
        .event_sink(Arc::clone(&log) as Arc<dyn EventSink>)
        .build();
    let ctx = OperationContext::new("10.1.0.4", "Wordcount");
    train(&engine, &ctx, 330);
    let baseline_labels = log.labels().len();

    // Healthy diagnosis: a completed sweep, then the diagnosis — and no
    // degradation anywhere.
    let incident_a = coupled_frame(40, 780, true);
    engine
        .diagnose_with_budget(&ctx, &incident_a, SweepBudget::UNLIMITED)
        .expect("full-fidelity diagnosis");
    let healthy: Vec<String> = log.labels().split_off(baseline_labels);
    assert_eq!(
        healthy,
        vec!["sweep-completed".to_string(), "diagnosis-ran".to_string()],
        "full fidelity emits completion then diagnosis"
    );

    // Faulted diagnosis: the sweep never completes; a degradation event
    // must precede the diagnosis event, and no completion may be claimed.
    slow.arm();
    let after_healthy = log.labels().len();
    let incident_b = coupled_frame(40, 781, true);
    engine
        .diagnose_with_budget(&ctx, &incident_b, SweepBudget::wall_millis(5))
        .expect("degraded diagnosis");
    let faulted: Vec<String> = log.labels().split_off(after_healthy);
    assert_eq!(
        faulted.len(),
        2,
        "exactly degradation + diagnosis: {faulted:?}"
    );
    assert!(
        faulted[0].starts_with("degraded:cached-matrix:"),
        "degradation is declared before the answer: {faulted:?}"
    );
    assert_eq!(faulted[1], "diagnosis-ran");
}

/// A detector whose per-tick score echoes the CPI sample, so drained
/// [`invarnet_x::core::TickOutcome`]s reveal exactly which submitted ticks
/// survived the shed policy.
struct EchoDetector;

struct EchoRun {
    seen: usize,
}

impl DetectorRun for EchoRun {
    fn step(&mut self, x: f64) -> TickDecision {
        self.seen += 1;
        TickDecision {
            residual: x,
            exceeded: false,
            anomalous: false,
        }
    }

    fn result(&self) -> DetectionResult {
        DetectionResult {
            residuals: Vec::new(),
            exceedances: Vec::new(),
            anomalies: Vec::new(),
            threshold: f64::INFINITY,
            first_anomaly: None,
        }
    }
}

impl Detector for EchoDetector {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn begin_run(&self) -> Box<dyn DetectorRun> {
        Box::new(EchoRun { seen: 0 })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever queue capacity is configured and however hard the queue is
    /// flooded, both shed policies keep a *contiguous* run of submitted
    /// ticks no shorter than the detector's consecutive-exceedance window
    /// (`consecutive_anomalies`, the paper's 3-tick rule) — shedding can
    /// bound memory, but it must never starve anomaly confirmation.
    #[test]
    fn shed_policies_keep_a_contiguous_detection_window(
        cap in 0usize..12,
        n in 0usize..40,
        policy_pick in 0usize..2,
    ) {
        let shed_oldest = policy_pick == 0;
        let policy = if shed_oldest {
            OverloadPolicy::ShedOldest
        } else {
            OverloadPolicy::ShedNewest
        };
        let config = InvarNetConfig {
            ingest_queue_ticks: cap,
            overload: policy,
            ..InvarNetConfig::default()
        };
        let window = config.consecutive_anomalies;
        let ctx = OperationContext::new("10.2.0.1", "Sort");
        let engine = Engine::builder()
            .config(config)
            .detector(ctx.clone(), Arc::new(EchoDetector))
            .build();

        let capacity = engine.ingest_queue_capacity();
        prop_assert!(
            capacity >= window,
            "effective capacity {capacity} below the {window}-tick detection window"
        );

        let mut rejected = 0usize;
        for t in 0..n {
            let row = vec![t as f64; METRIC_COUNT];
            if matches!(
                engine.submit(&ctx, t as f64, &row),
                SubmitOutcome::Rejected
            ) {
                rejected += 1;
            }
        }

        let kept = n.min(capacity);
        let drained = engine.drain(usize::MAX);
        prop_assert_eq!(drained.len(), kept, "queue retains min(n, capacity) ticks");
        prop_assert!(kept >= window.min(n), "retained run shorter than the detection window");
        if shed_oldest {
            prop_assert_eq!(rejected, 0, "ShedOldest never rejects the incoming tick");
        } else {
            prop_assert_eq!(rejected, n - kept, "ShedNewest rejects exactly the overflow");
        }

        // The survivors are the expected *contiguous* slice of the
        // submission order: the newest `kept` under ShedOldest, the oldest
        // `kept` under ShedNewest.
        let mut survived: Vec<usize> = Vec::with_capacity(drained.len());
        for (c, r) in &drained {
            prop_assert_eq!(c, &ctx);
            survived.push(r.as_ref().expect("echo ingest never fails").residual as usize);
        }
        let expected: Vec<usize> = if shed_oldest {
            (n - kept..n).collect()
        } else {
            (0..kept).collect()
        };
        prop_assert_eq!(survived, expected, "survivors are not a contiguous run");
    }
}
