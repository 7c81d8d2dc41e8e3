//! History-backed diagnosis parity: attaching an `ix-history` recorder
//! must not change what the engine computes — only record it.
//!
//! Two identically trained engines stream the same simulated fault run;
//! one records into a [`HistoryStore`], the other runs bare. Every
//! per-tick outcome, every diagnosis and every event (modulo wall-clock
//! timing fields) must be bit-identical, and `ix-query` explanations
//! over the recording must reproduce the live ranking bit-exactly.

use std::sync::{Arc, Mutex, PoisonError};

use invarnet_x::core::{
    pair_count, Engine, EngineEvent, EventSink, InvarNetConfig, OperationContext, Telemetry,
};
use invarnet_x::history::HistoryStore;
use invarnet_x::query::Query;
use invarnet_x::simulator::{FaultType, RunResult, Runner, WorkloadType};

/// An [`EventSink`] that keeps every event, so the bare twin's stream can
/// be compared against what the recorder captured.
#[derive(Default)]
struct VecSink(Mutex<Vec<EngineEvent>>);

impl EventSink for VecSink {
    fn record(&self, event: &EngineEvent) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(*event);
    }
}

impl VecSink {
    fn events(&self) -> Vec<EngineEvent> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Zeroes the wall-clock fields so two otherwise-identical event streams
/// compare equal, and drops the events whose multiplicity or order depends
/// on worker-pool scheduling rather than on what was computed.
fn normalize(events: &[EngineEvent]) -> Vec<EngineEvent> {
    events
        .iter()
        .filter(|e| {
            !matches!(
                e,
                EngineEvent::PairsScored { .. } | EngineEvent::SpanClosed { .. }
            )
        })
        .map(|e| match *e {
            EngineEvent::TickIngested {
                context,
                tick,
                residual,
                exceeded,
                ..
            } => EngineEvent::TickIngested {
                context,
                tick,
                residual,
                exceeded,
                micros: 0,
            },
            EngineEvent::DiagnosisRan { context, tick, .. } => EngineEvent::DiagnosisRan {
                context,
                tick,
                micros: 0,
            },
            EngineEvent::SweepCompleted { context, pairs, .. } => EngineEvent::SweepCompleted {
                context,
                pairs,
                micros: 0,
            },
            other => other,
        })
        .collect()
}

/// One identically trained engine per call: deterministic simulator data,
/// wired through the caller's builder customization.
fn trained_engine(
    wire: impl FnOnce(invarnet_x::core::EngineBuilder) -> invarnet_x::core::EngineBuilder,
) -> (Engine, OperationContext, RunResult) {
    let runner = Runner::new(11);
    let node = Runner::DEFAULT_FAULT_NODE;
    let workload = WorkloadType::Wordcount;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let engine = wire(Engine::builder().config(InvarNetConfig::default())).build();

    let normals = runner.normal_runs(workload, 4);
    let cpi_traces: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    engine
        .train_performance_model(context.clone(), &cpi_traces)
        .expect("train detector");
    let frames: Vec<_> = normals
        .iter()
        .map(|r| {
            let f = &r.per_node[node].frame;
            f.window(30..75.min(f.ticks()))
        })
        .collect();
    engine
        .build_invariants(context.clone(), &frames)
        .expect("build invariants");
    for fault in [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog] {
        let run = runner.fault_run(workload, fault, 0);
        engine
            .record_signature(&context, fault.name(), &run.fault_window().expect("window"))
            .expect("record signature");
    }
    let live = runner.fault_run(workload, FaultType::MemHog, 5);
    (engine, context, live)
}

/// Per-tick outcome fields that must match between the twins.
type Outcome = (usize, f64, bool, bool, Option<invarnet_x::core::Diagnosis>);

fn stream(engine: &Engine, context: &OperationContext, run: &RunResult) -> Vec<Outcome> {
    let node = Runner::DEFAULT_FAULT_NODE;
    let cpi = run.per_node[node].cpi.cpi_series();
    let frame = &run.per_node[node].frame;
    engine.reset_run(context);
    (0..frame.ticks().min(cpi.len()))
        .map(|t| {
            let out = engine
                .ingest(context, cpi[t], frame.tick(t))
                .expect("ingest tick");
            (
                out.tick,
                out.residual,
                out.exceeded,
                out.anomalous,
                out.diagnosis,
            )
        })
        .collect()
}

#[test]
fn recorder_attached_engine_is_bit_identical() {
    let (bare, context, run) = trained_engine(|b| b);
    let store = HistoryStore::builder().shared();
    let (recorded, context2, run2) = trained_engine(|b| b.observe(store.clone()));
    assert_eq!(context, context2);
    assert!(!bare.has_history());
    assert!(recorded.has_history());

    let bare_outcomes = stream(&bare, &context, &run);
    let recorded_outcomes = stream(&recorded, &context2, &run2);
    assert_eq!(
        bare_outcomes, recorded_outcomes,
        "every tick outcome — residuals, flags and full diagnoses — must \
         be bit-identical with a recorder attached"
    );

    // The recording itself holds exactly the diagnoses the live run saw.
    let id = recorded
        .context_registry()
        .lookup(&context)
        .expect("interned");
    let live_diagnoses: Vec<_> = recorded_outcomes
        .iter()
        .filter_map(|(_, _, _, _, d)| d.clone())
        .collect();
    let stored: Vec<_> = store
        .diagnoses_for(id)
        .into_iter()
        .map(|r| r.diagnosis)
        .collect();
    assert!(!stored.is_empty(), "the fault run must diagnose");
    assert_eq!(stored, live_diagnoses);
    assert_eq!(store.sweeps_for(id).len(), stored.len());
}

#[test]
fn recorded_events_match_a_bare_engine_modulo_timing() {
    let sink = Arc::new(VecSink::default());
    let (bare, context, run) = trained_engine(|b| b.observe(sink.clone() as Arc<dyn EventSink>));
    let store = HistoryStore::builder().shared();
    let (recorded, _, run2) = trained_engine(|b| b.observe(store.clone()));

    stream(&bare, &context, &run);
    stream(&recorded, &context, &run2);
    assert_eq!(
        normalize(&sink.events()),
        normalize(&store.events()),
        "the recorder must capture the same event stream a plain sink sees"
    );
}

/// A counting sink that also notes, at each tick it sees, how many events
/// the store and how many ticks the hub had taken by then: whether they
/// sit before or after it on the observation list.
struct OrderProbe {
    store: Arc<HistoryStore>,
    hub: Arc<Telemetry>,
    events: VecSink,
    /// Per `TickIngested`: (probe events before it, store events, hub ticks).
    at_ticks: Mutex<Vec<(usize, usize, u64)>>,
}

impl EventSink for OrderProbe {
    fn record(&self, event: &EngineEvent) {
        let before = self
            .events
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        if let EngineEvent::TickIngested { .. } = event {
            let counts = (
                before,
                self.store.events().len(),
                self.hub.snapshot().total.ticks,
            );
            self.at_ticks
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(counts);
        }
        self.events.record(event);
    }
}

#[test]
fn every_member_sees_every_event_in_list_order() {
    let (bare, context, run) = trained_engine(|b| b);
    let bare_outcomes = stream(&bare, &context, &run);

    // The probe sits in the middle; the hub goes first, then last.
    for hub_first in [true, false] {
        let store = HistoryStore::builder().shared();
        let hub = Telemetry::shared();
        let probe = Arc::new(OrderProbe {
            store: Arc::clone(&store),
            hub: Arc::clone(&hub),
            events: VecSink::default(),
            at_ticks: Mutex::default(),
        });
        let (engine, _, run) = trained_engine(|b| {
            let b = b.threads(1);
            let b = if hub_first {
                b.observe(&hub)
            } else {
                b.observe(store.clone())
            };
            let b = b.observe(Arc::clone(&probe) as Arc<dyn EventSink>);
            if hub_first {
                b.observe(store.clone())
            } else {
                b.observe(&hub)
            }
        });
        assert_eq!(
            stream(&engine, &context, &run),
            bare_outcomes,
            "an observed engine must ingest and diagnose like one with no member"
        );

        // The engine interns into the hub's registry wherever the hub
        // sits, and binds the store to it.
        assert!(Arc::ptr_eq(engine.context_registry(), hub.contexts()));
        let id = hub.contexts().lookup(&context).expect("interned");
        assert_eq!(store.label(id), hub.contexts().label(id));

        // Every member saw every event: the recorder's log is the sink's,
        // and the hub counted the same ticks and detections.
        let events = probe.events.events();
        assert_eq!(store.events(), events);
        let count = |f: fn(&EngineEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
        let total = hub.snapshot().total;
        assert_eq!(
            total.ticks,
            count(|e| matches!(e, EngineEvent::TickIngested { .. }))
        );
        assert_eq!(
            total.detections,
            count(|e| matches!(e, EngineEvent::DetectionFired { .. }))
        );

        // In list order: at each tick, a member before the probe has
        // already taken it and a member after has not.
        let at_ticks = probe
            .at_ticks
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        assert_eq!(at_ticks.len() as u64, total.ticks);
        for (k, &(before, stored, hub_ticks)) in at_ticks.iter().enumerate() {
            let k = k as u64;
            if hub_first {
                assert_eq!((stored, hub_ticks), (before, k + 1));
            } else {
                assert_eq!((stored, hub_ticks), (before + 1, k));
            }
        }
    }
}

#[test]
fn a_second_hub_labels_contexts_through_the_registry_it_is_bound_to() {
    // The engine interns into its first hub's registry and binds every
    // member to it, so a second hub resolves the ids it counts through
    // that registry: both hubs label the five ticks with the context, and
    // neither with `(unknown)`.
    let runner = Runner::new(11);
    let node = Runner::DEFAULT_FAULT_NODE;
    let normals = runner.normal_runs(WorkloadType::Wordcount, 4);
    let traces: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    let context = OperationContext::new("10.0.0.9", "Wordcount");
    let hubs = [Telemetry::shared(), Telemetry::shared()];
    let engine = Engine::builder()
        .threads(1)
        .observe(&hubs[0])
        .observe(&hubs[1])
        .build();
    engine
        .train_performance_model(context.clone(), &traces)
        .expect("train detector");
    let frame = &normals[0].per_node[node].frame;
    for (t, &cpi) in traces[0][..5].iter().enumerate() {
        engine
            .ingest(&context, cpi, frame.tick(t))
            .expect("ingest tick");
    }
    for (i, hub) in hubs.iter().enumerate() {
        let ticks: Vec<(String, u64)> = (hub.snapshot().contexts.into_iter())
            .map(|scope| (scope.context, scope.ticks))
            .collect();
        assert_eq!(
            ticks,
            [("Wordcount@10.0.0.9".to_string(), 5)],
            "hub {i}'s ticks by context"
        );
    }
}

#[test]
fn query_explanations_reproduce_the_live_ranking() {
    let store = HistoryStore::builder().shared();
    let (engine, context, run) = trained_engine(|b| b.observe(store.clone()));

    // Stop at the diagnosis tick so the recorded current-run window is
    // exactly the window the live diagnosis ranked over.
    let node = Runner::DEFAULT_FAULT_NODE;
    let cpi = run.per_node[node].cpi.cpi_series();
    let frame = &run.per_node[node].frame;
    engine.reset_run(&context);
    let mut live = None;
    for (t, &sample) in cpi.iter().enumerate().take(frame.ticks()) {
        let out = engine
            .ingest(&context, sample, frame.tick(t))
            .expect("ingest tick");
        if let Some(d) = out.diagnosis {
            live = Some(d);
            break;
        }
    }
    let live = live.expect("the fault run must diagnose");

    let query = Query::builder().engine(&engine).history(&store).build();
    let recomputed = query
        .explanations(&context)
        .rank()
        .expect("rank from the recorded window");
    assert_eq!(
        recomputed, live,
        "recomputing from history must reproduce the live ranking bit-exactly"
    );

    let replayed = query
        .explanations(&context)
        .replay_recorded()
        .rank()
        .expect("rank from recorded sweep scores");
    assert_eq!(replayed.ranked, live.ranked);
    assert_eq!(replayed.tuple, live.tuple);

    // A diagnosis scores only its invariant pairs: on those the recorded
    // sweep agrees with a full sweep of the history-served window, up to
    // cleared lower bounds that grade the same.
    let id = engine
        .context_registry()
        .lookup(&context)
        .expect("interned");
    let record = store.sweeps_for(id).pop().expect("sweep recorded");
    let window = store
        .window_frame(id, engine.config().window_ticks)
        .expect("window served from history");
    let resweep = engine
        .association_matrix(&window)
        .expect("sweep the recorded window");
    let invariants = engine.invariant_set(&context).expect("invariants");
    assert!(invariants.len() < pair_count(), "some pairs go unread");
    let mut read = vec![None; pair_count()];
    for e in invariants.entries() {
        read[e.pair] = Some(e.value);
    }
    // A read pair holds the resweep's bits, or a kernel entry below them
    // that cleared its invariant: both grade to zero deviation.
    let epsilon = engine.config().epsilon;
    assert_eq!(record.scores.len(), pair_count());
    for (pair, score) in record.scores.iter().enumerate() {
        match read[pair] {
            Some(reference) => {
                let want = resweep.at(pair);
                let both_zero_grade =
                    (reference - score).abs() < epsilon && (reference - want).abs() < epsilon;
                assert!(
                    score.to_bits() == want.to_bits() || (*score <= want && both_zero_grade),
                    "pair {pair}: recorded {score} vs resweep {want}"
                );
            }
            // A pair no invariant reads was never scored in this context,
            // in training or live: it holds the placeholder 0.0.
            None => assert_eq!(score.to_bits(), 0.0f64.to_bits(), "pair {pair}"),
        }
    }
}

/// A trivially cheap streaming detector: residual is the sample itself,
/// threshold fixed high enough that nothing fires, so eight threads can
/// hammer the ingest path without triggering sweeps.
struct FlatDetector;

/// One in-flight run of [`FlatDetector`]: stateless.
struct FlatRun;

impl invarnet_x::core::DetectorRun for FlatRun {
    fn step(&mut self, x: f64) -> invarnet_x::core::TickDecision {
        invarnet_x::core::TickDecision {
            residual: x,
            exceeded: x > 0.9,
            anomalous: false,
        }
    }

    fn capture(&self) -> invarnet_x::core::RunState {
        invarnet_x::core::RunState::default()
    }

    fn install(&mut self, state: &invarnet_x::core::RunState, _: usize) -> Result<(), String> {
        (*state == invarnet_x::core::RunState::default())
            .then_some(())
            .ok_or_else(|| format!("a flat run holds no state, not {state:?}"))
    }
}

impl invarnet_x::core::Detector for FlatDetector {
    fn name(&self) -> &'static str {
        "FLAT"
    }

    fn threshold(&self) -> f64 {
        0.9
    }

    fn begin_run(&self) -> Box<dyn invarnet_x::core::DetectorRun> {
        Box::new(FlatRun)
    }
}

/// The `RecorderTee` contract under contention: with eight threads each
/// streaming their own context, the recorder must observe every context's
/// events in exactly the order the live sink saw them, and the global
/// event populations must match as multisets (the *interleaving* across
/// contexts is scheduling-dependent and deliberately unconstrained).
#[test]
fn tee_preserves_per_context_order_under_concurrent_ingest() {
    use invarnet_x::metrics::METRIC_COUNT;

    const THREADS: usize = 8;
    const TICKS: usize = 200;

    let store = HistoryStore::builder().shared();
    let sink = Arc::new(VecSink::default());
    let mut builder = Engine::builder()
        .config(InvarNetConfig::default())
        .observe(sink.clone() as Arc<dyn EventSink>)
        .observe(store.clone());
    let contexts: Vec<OperationContext> = (0..THREADS)
        .map(|i| OperationContext::new(format!("10.0.0.{i}"), format!("Workload{i}")))
        .collect();
    for context in &contexts {
        builder = builder.detector(context.clone(), Arc::new(FlatDetector));
    }
    let engine = Arc::new(builder.build());

    std::thread::scope(|scope| {
        for (i, context) in contexts.iter().enumerate() {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                engine.reset_run(context);
                for t in 0..TICKS {
                    let sample = ((i * TICKS + t) as f64).sin().abs() * 0.8;
                    let row = vec![sample; METRIC_COUNT];
                    engine
                        .ingest(context, sample, &row)
                        .expect("concurrent ingest");
                }
            });
        }
    });

    let live = sink.events();
    let recorded = store.events();
    assert_eq!(live.len(), recorded.len(), "the tee must not drop events");

    for context in &contexts {
        let id = engine
            .context_registry()
            .lookup(context)
            .expect("ingested context is interned");
        let live_ctx: Vec<EngineEvent> =
            live.iter().filter(|e| e.context() == id).copied().collect();
        let recorded_ctx = store.events_for(id);
        assert_eq!(
            live_ctx.len(),
            TICKS,
            "one TickIngested per tick for {context}"
        );
        assert_eq!(
            live_ctx, recorded_ctx,
            "recorder must preserve the sink's per-context order for {context}"
        );
        // The recorded rows are the same ticks, in ingest order.
        assert_eq!(store.rows(id), TICKS);
        let rows = invarnet_x::query::context_rows(&store, id, 0..TICKS)
            .expect("recorded rows materialize");
        assert!(rows.windows(2).all(|w| w[0].tick < w[1].tick));
    }

    // Across contexts the interleavings may differ; the populations may not.
    let mut live_sorted: Vec<String> = live.iter().map(|e| format!("{e:?}")).collect();
    let mut recorded_sorted: Vec<String> = recorded.iter().map(|e| format!("{e:?}")).collect();
    live_sorted.sort_unstable();
    recorded_sorted.sort_unstable();
    assert_eq!(
        live_sorted, recorded_sorted,
        "global event multisets must match"
    );
}

#[test]
fn a_snapshot_loaded_engine_records_what_the_trained_engine_records() {
    let trained_store = HistoryStore::builder().shared();
    let (trained, context, run) = trained_engine(|b| b.observe(trained_store.clone()));
    let loaded_store = HistoryStore::builder().shared();
    let loaded = Engine::builder()
        .config(InvarNetConfig::default())
        .observe(loaded_store.clone())
        .build();
    loaded
        .load_state(&trained.snapshot_state())
        .expect("load the trained state");

    let outcomes = stream(&trained, &context, &run);
    assert_eq!(stream(&loaded, &context, &run), outcomes);
    // Training leaves no score behind that a live diagnosis could read:
    // the engine that trained and the engine that loaded its snapshot
    // record the same sweep rows, bit for bit, and the same diagnoses.
    type Sweep = (u64, Vec<u64>, Option<invarnet_x::core::SweepDegradation>);
    let recorded = |engine: &Engine, store: &HistoryStore| {
        let id = engine
            .context_registry()
            .lookup(&context)
            .expect("interned");
        let sweeps: Vec<Sweep> = store
            .sweeps_for(id)
            .into_iter()
            .map(|r| {
                let bits = r.scores.iter().map(|v| v.to_bits()).collect();
                (r.tick, bits, r.degradation)
            })
            .collect();
        let diagnoses: Vec<_> = store
            .diagnoses_for(id)
            .into_iter()
            .map(|r| (r.tick, r.diagnosis))
            .collect();
        (sweeps, diagnoses)
    };
    let (sweeps, diagnoses) = recorded(&trained, &trained_store);
    assert!(!sweeps.is_empty(), "the fault run must diagnose");
    assert_eq!(sweeps.len(), diagnoses.len());
    assert_eq!(recorded(&loaded, &loaded_store), (sweeps, diagnoses));
}
