//! Integration tests of the resilience layer: a budgeted diagnosis pass
//! keeps every pair it scored, its verdict declares how the pairs it did
//! not reach were read and reports that on the event stream, and the
//! bounded-ingest shed policies always retain a contiguous run of recent
//! ticks at least as long as the detector's consecutive-exceedance window
//! (paper §3.1's 3-tick rule).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use invarnet_x::core::{
    AssociationMeasure, DegradationReason, DegradationTier, Detector, DetectorRun, Diagnosis,
    Engine, EngineEvent, EventSink, InvarNetConfig, MicMeasure, ModelStore, OperationContext,
    OverloadPolicy, RunState, SubmitOutcome, SweepBudget, TickDecision,
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
        .observe(Arc::clone(&log) as Arc<dyn EventSink>)
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
    assert_eq!(deg.reason, DegradationReason::WallClockExceeded);
    assert!(
        log.labels()
            .iter()
            .any(|l| l.starts_with("degraded:cached-matrix:")),
        "the tier-1 fallback must be visible on the event stream: {:?}",
        log.labels()
    );
}

#[test]
fn cold_cache_degrades_to_a_partial_matrix() {
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
    // it holds no sweep record: the invariant pairs the pass does not
    // reach have never been scored here, and are masked.
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
    assert_eq!(deg.tier, DegradationTier::PartialMatrix);
    assert_eq!(deg.reason, DegradationReason::WallClockExceeded);
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
        .observe(Arc::clone(&log) as Arc<dyn EventSink>)
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

/// Counts the pairs each diagnosis pass scored
/// (`SweepScreened::{screened + confirmed}`), one entry per pass.
#[derive(Default)]
struct ScoredLog(Mutex<Vec<usize>>);

impl EventSink for ScoredLog {
    fn record(&self, event: &EngineEvent) {
        if let EngineEvent::SweepScreened {
            screened,
            confirmed,
            ..
        } = *event
        {
            self.0.lock().unwrap().push(screened + confirmed);
        }
    }
}

/// The budget tests' fixture, trained once: the trained state, the
/// context, and full-fidelity diagnoses of four incident windows.
struct Trained {
    store: ModelStore,
    ctx: OperationContext,
    windows: Vec<MetricFrame>,
    full: Vec<Diagnosis>,
}

fn trained() -> &'static Trained {
    static TRAINED: OnceLock<Trained> = OnceLock::new();
    TRAINED.get_or_init(|| {
        let engine = Engine::builder().build();
        let ctx = OperationContext::new("10.1.0.5", "Wordcount");
        train(&engine, &ctx, 340);
        let store = engine.snapshot_state();
        let windows: Vec<MetricFrame> = (0..4).map(|s| coupled_frame(40, 790 + s, true)).collect();
        let full = windows
            .iter()
            .map(|w| fresh_engine(&store, None).diagnose(&ctx, w).unwrap())
            .collect();
        Trained {
            store,
            ctx,
            windows,
            full,
        }
    })
}

/// An engine loaded with `store` that has swept nothing yet.
fn fresh_engine(store: &ModelStore, sink: Option<Arc<dyn EventSink>>) -> Engine {
    let mut builder = Engine::builder();
    if let Some(sink) = sink {
        builder = builder.observe(sink);
    }
    let engine = builder.build();
    engine.load_state(store).unwrap();
    engine
}

#[test]
fn a_pair_budget_converges_on_the_full_diagnosis() {
    let t = trained();
    let window = &t.windows[0];
    let n = t.full[0].tuple.len();
    assert!(n > 100, "a dense invariant network: {n}");
    for k in [1, 40, n - 1, n] {
        let log = Arc::new(ScoredLog::default());
        let engine = fresh_engine(&t.store, Some(Arc::clone(&log) as Arc<dyn EventSink>));
        let budget = SweepBudget::default().with_max_pairs(k);
        let calls = n.div_ceil(k);
        for call in 1..=calls {
            let d = engine.diagnose_with_budget(&t.ctx, window, budget).unwrap();
            // Pairs are scored in ascending pair index, so after `call`
            // passes the first `call * k` invariants are graded as at full
            // fidelity, and the rest have never been scored.
            let reached = (call * k).min(n);
            for (j, (&got, &want)) in d
                .tuple
                .graded()
                .iter()
                .zip(t.full[0].tuple.graded())
                .enumerate()
            {
                let want = if j < reached { want } else { 0.0 };
                assert_eq!(got.to_bits(), want.to_bits(), "k {k} call {call} entry {j}");
            }
            if call < calls {
                let deg = d.degradation.expect("a capped pass is declared");
                assert_eq!(deg.tier, DegradationTier::PartialMatrix);
                assert_eq!(deg.reason, DegradationReason::PairBudgetExceeded);
            } else {
                assert_eq!(d, t.full[0], "k {k}: call {call} is the full diagnosis");
            }
        }
        // Each pass scored the next k pairs: the sets are disjoint and
        // cover every invariant pair exactly once.
        let scored = log.0.lock().unwrap().clone();
        let want: Vec<usize> = (0..calls).map(|c| k.min(n - c * k)).collect();
        assert_eq!(scored, want, "k {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Deterministic budgets — a pair cap and an already-expired deadline
    /// — over a context with or without a record: every pair the pass
    /// scored is graded as at full fidelity, every pair it did not reach
    /// is masked (no record) or graded at the record's earlier score, and
    /// the verdict's tier and reason say which.
    #[test]
    fn a_degraded_tuple_is_full_fidelity_where_it_scored(
        window in 1usize..4,
        recorded in 0u8..2,
        expired in 0u8..2,
        cap in 0usize..400,
    ) {
        let (recorded, expired) = (recorded == 1, expired == 1);
        let t = trained();
        let engine = fresh_engine(&t.store, None);
        if recorded {
            engine.diagnose(&t.ctx, &t.windows[0]).unwrap();
        }
        let mut budget = SweepBudget::default().with_max_pairs(cap);
        if expired {
            budget.wall = Some(Duration::ZERO);
        }
        let d = engine.diagnose_with_budget(&t.ctx, &t.windows[window], budget).unwrap();
        let (full, earlier) = (&t.full[window].tuple, &t.full[0].tuple);
        let n = full.len();
        let reached = if expired { 0 } else { cap.min(n) };
        for j in 0..n {
            let want = if j < reached {
                full.graded()[j]
            } else if recorded {
                earlier.graded()[j]
            } else {
                0.0
            };
            prop_assert_eq!(d.tuple.graded()[j].to_bits(), want.to_bits(), "entry {}", j);
        }
        match d.degradation {
            None => prop_assert_eq!(reached, n),
            Some(deg) => {
                prop_assert!(reached < n);
                let tier = if recorded {
                    DegradationTier::CachedMatrix
                } else {
                    DegradationTier::PartialMatrix
                };
                // The cap stopped a pass that scored all it allowed; the
                // deadline any other.
                let reason = if reached >= cap {
                    DegradationReason::PairBudgetExceeded
                } else {
                    DegradationReason::WallClockExceeded
                };
                prop_assert_eq!(deg.tier, tier);
                prop_assert_eq!(deg.reason, reason);
            }
        }
    }
}

/// A detector whose per-tick score echoes the CPI sample, so drained
/// [`invarnet_x::core::TickOutcome`]s reveal exactly which submitted ticks
/// survived the shed policy.
struct EchoDetector;

/// A run of [`EchoDetector`]: stateless.
struct EchoRun;

impl DetectorRun for EchoRun {
    fn step(&mut self, x: f64) -> TickDecision {
        TickDecision {
            residual: x,
            exceeded: false,
            anomalous: false,
        }
    }

    fn capture(&self) -> RunState {
        RunState::default()
    }

    fn install(&mut self, state: &RunState, _: usize) -> Result<(), String> {
        (*state == RunState::default())
            .then_some(())
            .ok_or_else(|| format!("an echo run holds no state, not {state:?}"))
    }
}

impl Detector for EchoDetector {
    fn name(&self) -> &'static str {
        "echo"
    }

    fn threshold(&self) -> f64 {
        f64::INFINITY
    }

    fn begin_run(&self) -> Box<dyn DetectorRun> {
        Box::new(EchoRun)
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
