//! Fleet eviction must be invisible: an evict→snapshot→warm cycle at any
//! point of a live run must leave diagnoses and event streams
//! bit-identical to a tenant that was never torn down.
//!
//! One engine is trained once on deterministic simulator data; its
//! [`ModelStore`] seeds both the fleet tenant and a bare never-evicted
//! twin. The same script of ticks then runs on both — ingested, or
//! submitted to the queue and drained — with the fleet tenant
//! force-evicted (and warmed) at proptest-chosen points.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

use ix_core::{
    CoreError, Engine, EngineEvent, ErrorCode, EventSink, InvarNetConfig, ModelStore,
    OperationContext, TickOutcome,
};
use ix_history::{load_model_store, model_store_bytes, model_store_from_bytes};
use ix_serve::{ContextState, Fleet, ServeError, TenantId, TenantSnapshot};
use ix_simulator::{FaultType, Runner, WorkloadType};
use proptest::prelude::*;

/// An [`EventSink`] that keeps every event for later comparison.
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

/// Zeroes wall-clock fields, drops scheduling-dependent events, and drops
/// the fleet's lifecycle events (the bare twin never has them).
fn normalize(events: &[EngineEvent]) -> Vec<EngineEvent> {
    events
        .iter()
        .filter(|e| {
            !matches!(
                e,
                EngineEvent::PairsScored { .. }
                    | EngineEvent::SpanClosed { .. }
                    | EngineEvent::TenantEvicted { .. }
                    | EngineEvent::TenantWarmed { .. }
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

/// Trained-once template: the model store both twins start from, the
/// context it covers, and the live fault run's `(cpi, row)` ticks.
struct Template {
    store: ModelStore,
    context: OperationContext,
    ticks: Vec<(f64, Vec<f64>)>,
}

fn template() -> &'static Template {
    static TEMPLATE: OnceLock<Template> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let runner = Runner::new(11);
        let node = Runner::DEFAULT_FAULT_NODE;
        let workload = WorkloadType::Wordcount;
        let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
        let engine = Engine::builder().config(InvarNetConfig::default()).build();

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
        let cpi = live.per_node[node].cpi.cpi_series();
        let frame = &live.per_node[node].frame;
        let ticks = (0..frame.ticks().min(cpi.len()))
            .map(|t| (cpi[t], frame.tick(t).to_vec()))
            .collect();
        Template {
            store: engine.snapshot_state(),
            context,
            ticks,
        }
    })
}

/// A directory of its own under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ix-serve-{name}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The two forms a cold tenant takes: its decoded image in memory, or
/// its snapshot file under a snapshot directory. Only the file form runs
/// the snapshot codec on the way.
#[derive(Debug, Clone, Copy)]
enum Cold {
    Memory,
    File,
}

/// A fleet builder evicting to `cold`, with a directory kept alive as
/// long as the returned guard when the form is a file.
fn evicting_to(cold: Cold, name: &str) -> (ix_serve::FleetBuilder, Option<ScratchDir>) {
    match cold {
        Cold::Memory => (Fleet::builder(), None),
        Cold::File => {
            let dir = ScratchDir::new(name);
            (Fleet::builder().snapshot_dir(dir.path()), Some(dir))
        }
    }
}

/// Per-tick outcome fields that must match between the twins.
type Outcome = (usize, u64, bool, bool, Option<ix_core::Diagnosis>);

fn outcome(o: TickOutcome) -> Outcome {
    (
        o.tick,
        o.residual.to_bits(),
        o.exceeded,
        o.anomalous,
        o.diagnosis,
    )
}

/// What one script step reported: an ingested tick's outcome, or a
/// drain's per-tick contexts and outcomes.
#[derive(Debug, PartialEq)]
enum Reply {
    Tick(Outcome),
    Drained(Vec<(OperationContext, Result<Outcome, CoreError>)>),
}

/// One step of a twin script. Ticks are the template run's, cycled, so a
/// script can run for longer than the run.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Ingest template tick `i` on the template's context.
    Ingest(usize),
    /// Submit template tick `i` to the queue, on context `context` (0:
    /// the template's, 1: [`second_context`]).
    Submit(usize, usize),
    /// Drain up to this many queued ticks.
    Drain(usize),
    /// Evict the fleet tenant (the twin has nothing to do).
    Evict,
    /// Warm the fleet tenant now, rather than on its next step.
    Warm,
}

/// A second context holding the template's trained state.
fn second_context() -> OperationContext {
    OperationContext::new("10.0.0.77", template().context.workload.clone())
}

/// The template's store with the template's model and invariant set
/// under [`second_context`] too.
fn two_context_store() -> ModelStore {
    let t = template();
    let key = ModelStore::context_key(&t.context);
    let other = ModelStore::context_key(&second_context());
    let mut store = t.store.clone();
    store
        .performance_models
        .insert(other.clone(), t.store.performance_models[&key].clone());
    store
        .invariants
        .insert(other, t.store.invariants[&key].clone());
    store
}

/// Runs `script` on a fleet tenant evicting to `cold` and on a
/// never-evicted twin engine, and asserts every reply is bit-identical;
/// with `events`, the event streams too (modulo timing and the fleet's
/// lifecycle). Returns the replies.
fn run_script(script: &[Step], cold: Cold, events: bool) -> Result<Vec<Reply>, ServeError> {
    let t = template();
    let contexts = [t.context.clone(), second_context()];
    let store = two_context_store();
    let tenant = TenantId::new("twin")?;

    let fleet_sink = Arc::new(VecSink::default());
    let (builder, _dir) = evicting_to(cold, "twin");
    let fleet = builder
        .event_sink(fleet_sink.clone() as Arc<dyn EventSink>)
        .build();
    fleet.with_engine(&tenant, |e| e.load_state(&store))??;

    let twin_sink = Arc::new(VecSink::default());
    let twin = Engine::builder()
        .config(InvarNetConfig::default())
        .observe(twin_sink.clone() as Arc<dyn EventSink>)
        .build();
    twin.load_state(&store)?;

    let tick = |i: usize| &t.ticks[i % t.ticks.len()];
    let drained = |d: Vec<(OperationContext, Result<TickOutcome, CoreError>)>| {
        Reply::Drained(d.into_iter().map(|(c, r)| (c, r.map(outcome))).collect())
    };
    let (mut fleet_replies, mut twin_replies) = (Vec::new(), Vec::new());
    for (at, &step) in script.iter().enumerate() {
        match step {
            Step::Ingest(i) => {
                let (cpi, row) = tick(i);
                let f = fleet.ingest(&tenant, &t.context, *cpi, row)?;
                fleet_replies.push(Reply::Tick(outcome(f)));
                let b = twin.ingest(&t.context, *cpi, row)?;
                twin_replies.push(Reply::Tick(outcome(b)));
            }
            Step::Submit(i, c) => {
                let (cpi, row) = tick(i);
                let f = fleet.submit(&tenant, &contexts[c], *cpi, row)?;
                assert_eq!(f, twin.submit(&contexts[c], *cpi, row), "step {at}");
            }
            Step::Drain(n) => {
                fleet_replies.push(drained(fleet.drain(&tenant, n)?));
                twin_replies.push(drained(twin.drain(n)));
            }
            Step::Evict => {
                fleet.evict(&tenant)?;
                assert!(!fleet.is_warm(&tenant), "evict must leave the slot cold");
            }
            Step::Warm => {
                fleet.warm(&tenant)?;
            }
        }
    }

    assert_eq!(
        fleet_replies, twin_replies,
        "tick and drain outcomes (residual bits, flags, full diagnoses) must be \
         bit-identical across evict→warm cycles ({cold:?})"
    );
    // Every script warms again after it evicts: both transitions must be
    // declared on the fleet sink.
    let evicted = script.iter().any(|s| matches!(s, Step::Evict));
    let lifecycle = fleet_sink.events();
    let declared = |f: fn(&EngineEvent) -> bool| lifecycle.iter().any(f);
    assert_eq!(
        declared(|e| matches!(e, EngineEvent::TenantEvicted { .. })),
        evicted
    );
    assert_eq!(
        declared(|e| matches!(e, EngineEvent::TenantWarmed { .. })),
        evicted
    );
    if events {
        assert_eq!(
            normalize(&fleet_sink.events()),
            normalize(&twin_sink.events()),
            "event streams (modulo timing and fleet lifecycle) must match"
        );
    }
    Ok(fleet_replies)
}

/// The template run ingested tick by tick, the tenant evicted before
/// tick `evict_at` and warmed lazily by the next ingest.
fn run_twin_pair(evict_at: usize, cold: Cold) -> Result<(), ServeError> {
    let ticks = template().ticks.len();
    let script: Vec<Step> = (0..ticks)
        .flat_map(|i| {
            (i == evict_at)
                .then_some(Step::Evict)
                .into_iter()
                .chain([Step::Ingest(i)])
        })
        .collect();
    let replies = run_script(&script, cold, true)?;
    assert!(
        replies
            .iter()
            .any(|r| matches!(r, Reply::Tick((_, _, _, _, Some(_))))),
        "the fault run must produce at least one diagnosis"
    );
    Ok(())
}

/// `ticks` queued ticks, alternating between the two contexts from
/// template tick `from`.
fn submits(from: usize, ticks: usize) -> impl Iterator<Item = Step> {
    (from..from + ticks).map(|i| Step::Submit(i, i % 2))
}

/// A run that ingests `split` ticks, queues `queued` more on both
/// contexts, drains `first` of them, is evicted and warmed, drains the
/// rest in two drains with an eviction between them, and goes on
/// ingesting.
fn queue_script(split: usize, queued: usize, first: usize) -> Vec<Step> {
    let mut script: Vec<Step> = (0..split).map(Step::Ingest).collect();
    script.extend(submits(split, queued));
    script.extend([Step::Drain(first), Step::Evict, Step::Warm, Step::Drain(2)]);
    script.extend([Step::Evict, Step::Drain(queued)]);
    script.extend((split + queued..split + queued + 20).map(Step::Ingest));
    script
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn evicted_tenant_is_bit_identical_to_a_never_evicted_twin(
        evict_at in 1usize..88
    ) {
        run_twin_pair(evict_at, Cold::Memory).expect("twin run in memory");
        run_twin_pair(evict_at, Cold::File).expect("twin run through a file");
    }

    #[test]
    fn queued_ticks_survive_eviction_bit_identically(
        split in 0usize..70,
        queued in 1usize..12,
        first in 0usize..12,
    ) {
        for cold in [Cold::Memory, Cold::File] {
            let script = queue_script(split, queued, first);
            let replies = run_script(&script, cold, false).expect("queue script");
            let drained: usize = replies
                .iter()
                .map(|r| match r {
                    Reply::Drained(d) => d.len(),
                    Reply::Tick(_) => 0,
                })
                .sum();
            prop_assert_eq!(drained, queued, "every queued tick drains once");
        }
    }
}

#[test]
fn eviction_mid_anomaly_window_is_bit_identical() {
    // The fault injects around the run's middle; evicting inside the
    // anomalous region stresses the edge-tracker restore.
    run_twin_pair(55, Cold::Memory).expect("twin run in memory");
    run_twin_pair(55, Cold::File).expect("twin run through a file");
}

#[test]
fn a_run_past_four_thousand_ticks_is_bit_identical() {
    // The template run cycled to 5 000 ticks, evicted past tick 4 096 —
    // where run tails used to be cut — and again near the end, each time
    // into an image no larger than a fresh one's window.
    let mut script: Vec<Step> = (0..5_000).map(Step::Ingest).collect();
    for at in [4_999, 4_097, 60] {
        script.insert(at, Step::Evict);
    }
    for cold in [Cold::Memory, Cold::File] {
        run_script(&script, cold, true).expect("a 5 000-tick run");
    }
}

#[test]
fn submit_evict_warm_drain_is_bit_identical_on_one_context() {
    // One context, so the event streams compare too (context ids are
    // interned per engine, in the order contexts are first used).
    let mut script: Vec<Step> = (0..30).map(Step::Ingest).collect();
    script.extend((30..35).map(|i| Step::Submit(i, 0)));
    script.extend([Step::Evict, Step::Warm, Step::Drain(3), Step::Evict]);
    script.extend([Step::Drain(8), Step::Ingest(35), Step::Ingest(36)]);
    for cold in [Cold::Memory, Cold::File] {
        run_script(&script, cold, true).expect("queue path");
    }
}

#[test]
fn non_finite_cpi_is_refused_and_the_tenant_still_evicts_and_warms() {
    let t = template();
    let tenant = TenantId::new("nan-sender").expect("valid");
    let fleet = Fleet::builder().build();
    fleet
        .with_engine(&tenant, |e| e.load_state(&t.store))
        .expect("materialize")
        .expect("load");
    let twin = Engine::builder().config(InvarNetConfig::default()).build();
    twin.load_state(&t.store).expect("load twin");

    let (split, end) = (10, 40);
    for (cpi, row) in &t.ticks[..split] {
        fleet
            .ingest(&tenant, &t.context, *cpi, row)
            .expect("ingest");
        twin.ingest(&t.context, *cpi, row).expect("twin ingest");
    }
    // A NaN sample off the wire is a typed engine error with its own
    // stable status code, and it changes nothing.
    let (_, row) = &t.ticks[split];
    let err = fleet
        .ingest(&tenant, &t.context, f64::NAN, row)
        .expect_err("NaN CPI must be refused");
    assert!(matches!(
        err,
        ServeError::Core(CoreError::NonFiniteCpi(ref c)) if *c == t.context
    ));
    assert_eq!(err.status(), ErrorCode::NonFiniteCpi.as_u16());

    // The tenant is not poisoned: it evicts, warms, and continues
    // bit-identically to a twin that never saw the NaN.
    fleet.evict(&tenant).expect("evict");
    fleet.warm(&tenant).expect("warm");
    for (cpi, row) in &t.ticks[split..end] {
        let a = fleet
            .ingest(&tenant, &t.context, *cpi, row)
            .expect("ingest");
        let b = twin.ingest(&t.context, *cpi, row).expect("twin ingest");
        assert_eq!(a.tick, b.tick);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        assert_eq!(a.diagnosis, b.diagnosis);
    }
}

#[test]
fn a_run_reset_on_a_context_without_a_model_still_warms() {
    // `reset_run` on a context the engine has no model for leaves no
    // entry, so the warm has no run to restore onto a detector the
    // context never had.
    let t = template();
    let tenant = TenantId::new("reset").expect("valid");
    let untrained = OperationContext::new("10.9.9.9", "Sort");
    for cold in [Cold::Memory, Cold::File] {
        let (builder, _dir) = evicting_to(cold, "reset");
        let fleet = builder.build();
        fleet
            .with_engine(&tenant, |e| e.load_state(&t.store))
            .expect("materialize")
            .expect("load");
        fleet.reset_run(&tenant, &untrained).expect("reset");
        fleet.evict(&tenant).expect("evict");
        fleet.warm(&tenant).expect("warm");
        assert!(fleet.is_warm(&tenant), "{cold:?}");
    }
}

#[test]
fn queued_ticks_are_part_of_the_tenant_and_an_untrained_context_lists_no_run() {
    // A context the engine holds no model for has no run: its queued
    // tick is refused at drain, and the snapshot lists no context. Trained
    // after its ticks were queued, the context's run is the engine's like
    // any other: a queued tick survives an eviction, drains after the warm
    // and its run continues there.
    let t = template();
    let tenant = TenantId::new("queued").expect("valid");
    let fleet = Fleet::builder().build();
    let snapshot = || {
        let bytes = fleet.snapshot_bytes(&tenant).expect("snapshot");
        TenantSnapshot::from_bytes(&bytes).expect("parse")
    };
    let (cpi, row) = &t.ticks[0];
    fleet
        .submit(&tenant, &t.context, *cpi, row)
        .expect("submit");
    let drained = fleet.drain(&tenant, 8).expect("drain");
    assert!(
        matches!(drained[..], [(_, Err(CoreError::NoPerformanceModel(_)))]),
        "{drained:?}"
    );
    assert!(
        snapshot().contexts.is_empty(),
        "an untrained context has no run"
    );

    for (cpi, row) in &t.ticks[..2] {
        fleet
            .submit(&tenant, &t.context, *cpi, row)
            .expect("submit");
    }
    fleet
        .with_engine(&tenant, |e| e.load_state(&t.store))
        .expect("warm tenant")
        .expect("load");
    let queued = snapshot();
    assert!(queued.contexts.is_empty(), "no tick has run yet");
    assert_eq!(queued.queue.ticks.len(), 2, "{:?}", queued.queue);
    fleet.evict(&tenant).expect("evict");
    fleet.warm(&tenant).expect("warm");
    let drained = fleet.drain(&tenant, 1).expect("drain");
    assert!(
        matches!(drained[..], [(_, Ok(ref o))] if o.tick == 0),
        "the warmed engine drains the queued tick: {drained:?}"
    );
    let listed = snapshot();
    assert!(
        matches!(&listed.contexts[..], [c] if c.context == t.context && c.run.ticks == 1),
        "{:?}",
        listed.contexts
    );
    assert_eq!(listed.queue.ticks.len(), 1);
    fleet.evict(&tenant).expect("evict");
    let drained = fleet.drain(&tenant, 8).expect("drain");
    assert!(
        matches!(drained[..], [(_, Ok(ref o))] if o.tick == 1),
        "the second queued tick continues the run: {drained:?}"
    );
    assert_eq!(
        fleet
            .with_engine(&tenant, |e| e.queued_ticks())
            .expect("warm"),
        0
    );
}

/// Hands the first `TickIngested` event it sees once armed to another
/// thread, then waits, up to [`RACE_WAIT`], for that thread to report its
/// eviction done: an eviction that can land while a drain is running
/// lands then.
struct PauseOnFirstTick {
    armed: AtomicBool,
    started: Mutex<Option<Sender<()>>>,
    evicted: Mutex<Receiver<()>>,
}

/// How long the paused drain waits for the racing eviction.
const RACE_WAIT: Duration = Duration::from_millis(300);

impl EventSink for PauseOnFirstTick {
    fn record(&self, event: &EngineEvent) {
        if matches!(event, EngineEvent::TickIngested { .. })
            && self.armed.swap(false, Ordering::SeqCst)
        {
            let started = self
                .started
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            started
                .expect("armed once")
                .send(())
                .expect("the evicting thread listens");
            let evicted = self.evicted.lock().unwrap_or_else(PoisonError::into_inner);
            // Not a failure either way: the eviction either finished, or
            // is waiting for this drain to let go of the fleet.
            let _ = evicted.recv_timeout(RACE_WAIT);
        }
    }
}

#[test]
fn an_eviction_racing_a_drain_captures_every_drained_tick() {
    // Two ticks are queued before the context is trained and three are
    // ingested after; then an eviction on another thread races the drain
    // of the queued two. Whenever it lands, the warmed tenant continues
    // like a twin that was never evicted: at tick 5, with the same
    // residual. (A drain that ran its ticks outside the fleet lock let
    // the eviction capture the run between them, and the warm resumed at
    // tick 3.)
    let t = template();
    let tenant = TenantId::new("raced").expect("valid");
    let (started_tx, started_rx) = mpsc::channel();
    let (evicted_tx, evicted_rx) = mpsc::channel();
    let sink = Arc::new(PauseOnFirstTick {
        armed: AtomicBool::new(false),
        started: Mutex::new(Some(started_tx)),
        evicted: Mutex::new(evicted_rx),
    });
    let fleet = Arc::new(
        Fleet::builder()
            .event_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
            .build(),
    );
    let twin = Engine::builder().config(InvarNetConfig::default()).build();
    for (cpi, row) in &t.ticks[..2] {
        fleet
            .submit(&tenant, &t.context, *cpi, row)
            .expect("submit");
        twin.submit(&t.context, *cpi, row);
    }
    fleet
        .with_engine(&tenant, |e| e.load_state(&t.store))
        .expect("warm tenant")
        .expect("load");
    twin.load_state(&t.store).expect("load twin");
    for (cpi, row) in &t.ticks[2..5] {
        fleet
            .ingest(&tenant, &t.context, *cpi, row)
            .expect("ingest");
        twin.ingest(&t.context, *cpi, row).expect("twin ingest");
    }

    sink.armed.store(true, Ordering::SeqCst);
    let evictor = {
        let fleet = Arc::clone(&fleet);
        let tenant = tenant.clone();
        std::thread::spawn(move || {
            started_rx.recv().expect("the drain starts");
            fleet.evict(&tenant).expect("evict");
            evicted_tx.send(()).ok();
        })
    };
    let drained = fleet.drain(&tenant, 8).expect("drain");
    assert!(
        matches!(drained[..], [(_, Ok(_)), (_, Ok(_))]),
        "{drained:?}"
    );
    assert_eq!(twin.drain(8).len(), 2);
    evictor.join().expect("the evicting thread");
    assert_eq!(fleet.status().evictions, 1);

    let (cpi, row) = &t.ticks[5];
    let a = twin.ingest(&t.context, *cpi, row).expect("twin ingest");
    let b = fleet
        .ingest(&tenant, &t.context, *cpi, row)
        .expect("warm and ingest");
    assert_eq!(a.tick, 5);
    assert_eq!(b.tick, a.tick, "the warmed run holds every drained tick");
    assert_eq!(b.residual.to_bits(), a.residual.to_bits());
}

#[test]
fn lru_eviction_keeps_the_warm_set_at_the_high_water_mark() {
    let t = template();
    let fleet = Fleet::builder().warm_limit(2).build();
    let tenants: Vec<TenantId> = (0..3)
        .map(|i| TenantId::new(format!("tenant-{i}")).expect("valid"))
        .collect();
    for tenant in &tenants {
        fleet
            .with_engine(tenant, |e| e.load_state(&t.store))
            .expect("materialize")
            .expect("load");
        let (cpi, row) = &t.ticks[0];
        fleet.ingest(tenant, &t.context, *cpi, row).expect("ingest");
    }
    let status = fleet.status();
    assert_eq!(status.tenants, 3);
    assert_eq!(status.warm, 2, "the high-water mark bounds the warm set");
    assert_eq!(status.evictions, 1);
    // tenant-0 was the least recently used, so it is the cold one.
    assert!(!fleet.is_warm(&tenants[0]));
    assert!(fleet.is_warm(&tenants[1]) && fleet.is_warm(&tenants[2]));

    // Touching the cold tenant warms it back (and evicts another).
    let (cpi, row) = &t.ticks[1];
    fleet
        .ingest(&tenants[0], &t.context, *cpi, row)
        .expect("ingest after warm");
    assert!(fleet.is_warm(&tenants[0]));
    assert_eq!(fleet.status().warm, 2);
    assert_eq!(fleet.status().warms, 1);
    assert!(fleet.status().warm_micros_max > 0);
}

#[test]
fn adopt_then_warm_restores_a_foreign_snapshot() {
    let t = template();
    let source = Fleet::builder().build();
    let tenant = TenantId::new("mover").expect("valid");
    source
        .with_engine(&tenant, |e| e.load_state(&t.store))
        .expect("materialize")
        .expect("load");
    for (cpi, row) in &t.ticks[..10] {
        source
            .ingest(&tenant, &t.context, *cpi, row)
            .expect("ingest");
    }
    let bytes = source.snapshot_bytes(&tenant).expect("snapshot");

    let destination = Fleet::builder().build();
    destination.adopt(tenant.clone(), bytes).expect("adopt");
    assert!(!destination.is_warm(&tenant));
    let micros = destination.warm(&tenant).expect("warm");
    assert!(destination.is_warm(&tenant));
    assert!(micros > 0, "an actual warm reports its latency");

    // Both fleets continue identically from tick 10.
    for (cpi, row) in &t.ticks[10..20] {
        let a = source.ingest(&tenant, &t.context, *cpi, row).expect("src");
        let b = destination
            .ingest(&tenant, &t.context, *cpi, row)
            .expect("dst");
        assert_eq!(a.tick, b.tick);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
    }
}

#[test]
fn snapshots_persist_to_disk_when_a_directory_is_configured() {
    let t = template();
    let dir = std::env::temp_dir().join(format!(
        "ix-serve-fleet-test-snapshots-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let fleet = Fleet::builder().snapshot_dir(&dir).build();
    let tenant = TenantId::new("disky").expect("valid");
    fleet
        .with_engine(&tenant, |e| e.load_state(&t.store))
        .expect("materialize")
        .expect("load");
    let (cpi, row) = &t.ticks[0];
    fleet
        .ingest(&tenant, &t.context, *cpi, row)
        .expect("ingest");
    let expected = fleet.snapshot_bytes(&tenant).expect("snapshot");
    fleet.evict(&tenant).expect("evict");
    let path = dir.join("disky.ixhist");
    assert_eq!(
        std::fs::read(&path).expect("eviction must write the snapshot file"),
        expected
    );
    let names: Vec<_> = std::fs::read_dir(&dir)
        .expect("list")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(names, ["disky.ixhist"], "no temporary file may be left");
    fleet.warm(&tenant).expect("warm from file");
    assert!(fleet.is_warm(&tenant));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_bytes_are_deterministic_and_match_what_eviction_stores() {
    let t = template();
    // Six contexts sharing the template's trained state, so the per-tenant
    // context map has an iteration order worth getting wrong.
    let key = ModelStore::context_key(&t.context);
    let mut store = t.store.clone();
    let contexts: Vec<OperationContext> = (0..6)
        .map(|i| OperationContext::new(format!("10.0.0.{i}"), format!("Job{}", 5 - i)))
        .collect();
    for context in &contexts {
        let k = ModelStore::context_key(context);
        store
            .performance_models
            .insert(k.clone(), t.store.performance_models[&key].clone());
        store.invariants.insert(k, t.store.invariants[&key].clone());
    }
    let tenant = TenantId::new("many").expect("valid");
    let fleets: Vec<Fleet> = (0..2).map(|_| Fleet::builder().build()).collect();
    for fleet in &fleets {
        fleet
            .with_engine(&tenant, |e| e.load_state(&store))
            .expect("materialize")
            .expect("load");
        for (cpi, row) in &t.ticks[..3] {
            for context in &contexts {
                fleet.ingest(&tenant, context, *cpi, row).expect("ingest");
            }
        }
    }
    let live = fleets[0].snapshot_bytes(&tenant).expect("snapshot");
    assert_eq!(live, fleets[1].snapshot_bytes(&tenant).expect("snapshot"));
    fleets[0].evict(&tenant).expect("evict");
    assert_eq!(
        fleets[0].snapshot_bytes(&tenant).expect("stored"),
        live,
        "an eviction stores the bytes Op::Snapshot serves"
    );
    let snapshot = TenantSnapshot::from_bytes(&live).expect("parse");
    assert_eq!(snapshot.contexts.len(), 6);
}

/// `c@a` on node `b` and `c` on node `a@b`, whose `workload@node` forms
/// are both `c@a@b`.
fn colliding() -> [OperationContext; 2] {
    [
        OperationContext::new("b", "c@a"),
        OperationContext::new("a@b", "c"),
    ]
}

/// Loads the template into `tenant` and tries to train both
/// [`colliding`] contexts: every training step refuses the one whose
/// workload holds an `@`, before anything is stored, and the other (an
/// `@` in the node parses back) trains. Returns the engine's store.
fn train_colliding(fleet: &Fleet, tenant: &TenantId) -> ModelStore {
    let t = template();
    let runner = Runner::new(11);
    let normals = runner.normal_runs(WorkloadType::Wordcount, 4);
    let node = Runner::DEFAULT_FAULT_NODE;
    let traces: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    let frames: Vec<_> = normals
        .iter()
        .map(|r| r.per_node[node].frame.window(30..75))
        .collect();
    let [refused, trained] = colliding();
    fleet
        .with_engine(tenant, |e| {
            e.load_state(&t.store)?;
            let refusal = CoreError::InvalidStoreKey {
                key: "c@a@b".to_string(),
            };
            assert_eq!(
                e.train_performance_model(refused.clone(), &traces),
                Err(refusal.clone())
            );
            assert_eq!(
                e.build_invariants(refused.clone(), &frames),
                Err(refusal.clone())
            );
            assert_eq!(
                e.record_signature(&refused, "hog", &frames[0]),
                Err(refusal)
            );
            assert!(e.performance_model(&refused).is_none());
            assert!(e.invariant_set(&refused).is_none());
            e.train_performance_model(trained.clone(), &traces)?;
            Ok::<_, CoreError>(e.snapshot_state())
        })
        .expect("materialize")
        .expect("train")
}

#[test]
fn a_workload_holding_an_at_is_refused_and_the_store_keeps_one_context_per_key() {
    let tenant = TenantId::new("collide").expect("valid");
    let fleet = Fleet::builder().build();
    let store = train_colliding(&fleet, &tenant);
    let [refused, trained] = colliding();
    let keys: Vec<&String> = store.performance_models.keys().collect();
    assert_eq!(
        keys,
        [&ModelStore::context_key(&template().context), "c@a@b"],
        "the template's context and the trained one"
    );
    let expected = TenantSnapshot::new(fleet.config().clone(), store, 0, Vec::new()).to_bytes();
    assert_eq!(fleet.snapshot_bytes(&tenant).expect("snapshot"), expected);
    fleet.evict(&tenant).expect("evict");
    fleet.warm(&tenant).expect("warm");
    fleet
        .with_engine(&tenant, |e| {
            assert!(e.performance_model(&trained).is_some());
            assert!(e.performance_model(&refused).is_none());
        })
        .expect("warm tenant");
    // The two contexts keep their own runs: a run reset on the refused
    // one, which has no model, leaves no run and does not touch the
    // trained one's.
    fleet.reset_run(&tenant, &refused).expect("reset");
    for (cpi, row) in &template().ticks[..5] {
        fleet.ingest(&tenant, &trained, *cpi, row).expect("ingest");
    }
    let snapshot =
        TenantSnapshot::from_bytes(&fleet.snapshot_bytes(&tenant).expect("live")).expect("parse");
    let runs: Vec<(&str, usize)> = snapshot
        .contexts
        .iter()
        .map(|c| (c.context.node.as_str(), c.run.ticks))
        .collect();
    assert_eq!(runs, [("a@b", 5)]);
    fleet.evict(&tenant).expect("evict");
    fleet
        .warm(&tenant)
        .expect("the trained context's run installs");
}

#[test]
fn an_in_memory_cold_tenant_serves_the_bytes_its_snapshot_file_holds() {
    // The same tenants, evicted in memory by one fleet and to files by
    // another: Op::Snapshot of the in-memory image is the file, byte for
    // byte, and both are what the live tenant served.
    let t = template();
    let dir = ScratchDir::new("both-forms");
    let memory = Fleet::builder().build();
    let files = Fleet::builder().snapshot_dir(dir.path()).build();
    let tailed = TenantId::new("tailed").expect("valid");
    let collide = TenantId::new("collide").expect("valid");
    let [_, trained] = colliding();
    for fleet in [&memory, &files] {
        fleet
            .with_engine(&tailed, |e| e.load_state(&t.store))
            .expect("materialize")
            .expect("load");
        train_colliding(fleet, &collide);
        for (cpi, row) in &t.ticks[..10] {
            fleet
                .ingest(&tailed, &t.context, *cpi, row)
                .expect("ingest");
            fleet.ingest(&collide, &trained, *cpi, row).expect("ingest");
        }
    }
    for tenant in [&tailed, &collide] {
        let live = memory.snapshot_bytes(tenant).expect("live");
        assert_eq!(files.snapshot_bytes(tenant).expect("live"), live);
        memory.evict(tenant).expect("evict in memory");
        files.evict(tenant).expect("evict to a file");
        let file = std::fs::read(dir.path().join(format!("{tenant}.ixhist"))).expect("file");
        assert_eq!(file, live, "{tenant}: the file eviction wrote");
        assert_eq!(
            memory.snapshot_bytes(tenant).expect("cold"),
            file,
            "{tenant}: Op::Snapshot of the in-memory image"
        );
    }
}

/// The template context's run after `ticks` template ticks, captured
/// from a bare engine.
fn captured_run(ticks: usize) -> ix_core::CapturedRun {
    let t = template();
    let engine = Engine::builder().threads(1).build();
    engine.load_state(&t.store).expect("load");
    for (cpi, row) in &t.ticks[..ticks] {
        engine.ingest(&t.context, *cpi, row).expect("ingest");
    }
    engine.capture_run(&t.context).expect("a run in flight")
}

/// Asserts `bytes` adopt (in memory) or replace the tenant's snapshot
/// file (`File`) in a fleet evicting to `cold`, and that every warm then
/// fails as `refused` says, leaving the tenant cold with the same image.
fn assert_warm_refused(cold: Cold, bytes: &[u8], refused: impl Fn(&ServeError) -> bool) {
    let t = template();
    let tenant = TenantId::new("refused").expect("valid");
    let (builder, dir) = evicting_to(cold, "failed-warm");
    let fleet = builder.build();
    match &dir {
        None => fleet.adopt(tenant.clone(), bytes.to_vec()).expect("adopt"),
        Some(dir) => {
            // The tenant's own snapshot file, replaced by the bytes.
            fleet
                .with_engine(&tenant, |e| e.load_state(&t.store))
                .expect("materialize")
                .expect("load");
            fleet.evict(&tenant).expect("evict to a file");
            std::fs::write(dir.path().join(format!("{tenant}.ixhist")), bytes)
                .expect("replace the snapshot file");
        }
    }
    assert_eq!(fleet.snapshot_bytes(&tenant).expect("cold"), bytes);
    for attempt in 0..2 {
        match fleet.warm(&tenant) {
            Err(e) => assert!(refused(&e), "{cold:?} warm {attempt}: {e:?}"),
            Ok(_) => panic!("{cold:?} warm {attempt} succeeded"),
        }
        assert!(!fleet.is_warm(&tenant));
        assert_eq!(
            fleet.snapshot_bytes(&tenant).expect("still cold"),
            bytes,
            "{cold:?}: the image after failed warm {attempt}"
        );
    }
}

#[test]
fn a_failed_warm_leaves_the_cold_tenant_whole() {
    // A snapshot whose run names a context the store has no model for:
    // the warm finds no detector to install the run onto and fails. In
    // either cold form — the adopted image in memory, or the tenant's
    // snapshot file — the tenant stays cold with the same image.
    let t = template();
    let orphan = OperationContext::new("10.9.9.9", "Orphan");
    let bytes = TenantSnapshot::new(
        InvarNetConfig::default(),
        t.store.clone(),
        7,
        vec![ContextState {
            context: orphan.clone(),
            run: captured_run(1),
        }],
    )
    .to_bytes();
    for cold in [Cold::Memory, Cold::File] {
        assert_warm_refused(
            cold,
            &bytes,
            |e| matches!(e, ServeError::Core(CoreError::NoPerformanceModel(c)) if *c == orphan),
        );
    }
}

#[test]
fn a_run_no_detector_could_reach_is_a_typed_error_at_warm() {
    // The snapshots are well formed, so they decode and adopt; each holds
    // a run that the ticks it claims could not leave: an ARIMA `w_hist`
    // one value short, a window one row long for a 10-tick run, a streak
    // longer than the run, a run longer than the tenant's lifetime ticks.
    // Installing one is a typed error — never an index out of bounds or an
    // overflow in the detector's next step — and the tenant stays cold.
    let t = template();
    let good = captured_run(10);
    let mut short = good.clone();
    short.detector.registers.pop();
    let mut narrow = good.clone();
    narrow.window.truncate(ix_metrics::METRIC_COUNT);
    let mut streak = good;
    streak.detector.counters = vec![11];
    // A full window, so only the length gives it away.
    let mut endless = captured_run(61);
    endless.ticks = usize::MAX;
    for run in [short, narrow, streak, endless] {
        let bytes = TenantSnapshot::new(
            InvarNetConfig::default(),
            t.store.clone(),
            10,
            vec![ContextState {
                context: t.context.clone(),
                run,
            }],
        )
        .to_bytes();
        for cold in [Cold::Memory, Cold::File] {
            assert_warm_refused(cold, &bytes, |e| {
                matches!(e, ServeError::Core(CoreError::InvalidRunState { .. }))
            });
        }
    }
}

/// Whether `store`'s model and invariant set for the template's context,
/// and its signature database, are the very values the template's store
/// holds.
fn shares_the_template(store: &ModelStore) -> bool {
    let t = template();
    let key = ModelStore::context_key(&t.context);
    Arc::ptr_eq(
        &store.performance_models[&key],
        &t.store.performance_models[&key],
    ) && Arc::ptr_eq(&store.invariants[&key], &t.store.invariants[&key])
        && Arc::ptr_eq(&store.signatures, &t.store.signatures)
}

/// The trained state `tenant`'s engine holds, shared.
fn state_of(fleet: &Fleet, tenant: &TenantId) -> ModelStore {
    fleet
        .with_engine(tenant, Engine::snapshot_state)
        .expect("warm tenant")
}

#[test]
fn tenants_materialized_from_one_template_share_its_trained_state() {
    let t = template();
    let fleet = Fleet::builder().build();
    let tenants = ["first", "second"].map(|n| TenantId::new(n).expect("valid"));
    for tenant in &tenants {
        fleet
            .with_engine(tenant, |e| e.load_state(&t.store))
            .expect("materialize")
            .expect("load");
    }
    for tenant in &tenants {
        assert!(shares_the_template(&state_of(&fleet, tenant)), "{tenant}");
        let model = fleet
            .with_engine(tenant, |e| e.performance_model(&t.context))
            .expect("warm tenant")
            .expect("a model");
        assert!(Arc::ptr_eq(
            &model,
            &t.store.performance_models[&ModelStore::context_key(&t.context)]
        ));
    }
}

#[test]
fn a_signature_recorded_on_one_tenant_leaves_the_others_unchanged() {
    let t = template();
    let fleet = Fleet::builder().build();
    let [writer, reader] = ["writer", "reader"].map(|n| TenantId::new(n).expect("valid"));
    for tenant in [&writer, &reader] {
        fleet
            .with_engine(tenant, |e| e.load_state(&t.store))
            .expect("materialize")
            .expect("load");
    }
    let before = t.store.signatures.len();
    let run = Runner::new(11).fault_run(WorkloadType::Wordcount, FaultType::NetDrop, 0);
    let window = run.fault_window().expect("window");
    fleet
        .with_engine(&writer, |e| e.record_signature(&t.context, "net", &window))
        .expect("warm tenant")
        .expect("record");
    let written = state_of(&fleet, &writer);
    assert_eq!(written.signatures.len(), before + 1);
    assert!(!Arc::ptr_eq(&written.signatures, &t.store.signatures));
    assert_eq!(
        written.signatures.records()[..before],
        t.store.signatures.records()[..]
    );
    assert!(shares_the_template(&state_of(&fleet, &reader)));
    assert_eq!(t.store.signatures.len(), before, "the template's database");
}

#[test]
fn an_evicted_and_rewarmed_tenant_still_shares_the_template() {
    let t = template();
    let fleet = Fleet::builder().build();
    let tenant = TenantId::new("cycled").expect("valid");
    fleet
        .with_engine(&tenant, |e| e.load_state(&t.store))
        .expect("materialize")
        .expect("load");
    for (cpi, row) in &t.ticks[..10] {
        fleet
            .ingest(&tenant, &t.context, *cpi, row)
            .expect("ingest");
    }
    for _ in 0..2 {
        fleet.evict(&tenant).expect("evict");
        fleet.warm(&tenant).expect("warm");
        assert!(shares_the_template(&state_of(&fleet, &tenant)));
    }
}

/// A snapshot of a tenant 10 ticks into the template's run.
fn trained_snapshot() -> Vec<u8> {
    let t = template();
    let fleet = Fleet::builder().build();
    let tenant = TenantId::new("victim").expect("valid");
    fleet
        .with_engine(&tenant, |e| e.load_state(&t.store))
        .expect("materialize")
        .expect("load");
    for (cpi, row) in &t.ticks[..10] {
        fleet
            .ingest(&tenant, &t.context, *cpi, row)
            .expect("ingest");
    }
    fleet.snapshot_bytes(&tenant).expect("snapshot")
}

#[test]
fn every_truncation_and_byte_flip_of_a_snapshot_is_a_typed_error() {
    // A current snapshot holding an ARIMA run ten ticks in, and the
    // committed version-2 one, whose tail decoding replays.
    let v2 = include_bytes!("data/trained_tenant_v2.ixh");
    for bytes in [trained_snapshot(), v2.to_vec()] {
        assert_every_mutation_refused(&bytes);
    }
}

fn assert_every_mutation_refused(bytes: &[u8]) {
    let fleet = Fleet::builder().build();
    let tenant = TenantId::new("adoptee").expect("valid");
    fleet.adopt(tenant.clone(), bytes.to_vec()).expect("intact");
    let refuse = |damaged: &[u8], what: &str| {
        assert!(
            matches!(
                TenantSnapshot::from_bytes(damaged),
                Err(ServeError::Snapshot(_))
            ),
            "{what} must be refused by from_bytes"
        );
        assert!(
            matches!(
                fleet.adopt(tenant.clone(), damaged.to_vec()),
                Err(ServeError::Snapshot(_))
            ),
            "{what} must be refused by adopt"
        );
    };
    for len in 0..bytes.len() {
        refuse(&bytes[..len], &format!("truncation to {len} bytes"));
    }
    let mut damaged = bytes.to_vec();
    for at in 0..bytes.len() {
        for mask in [0x01, 0xff] {
            damaged[at] ^= mask;
            refuse(&damaged, &format!("byte {at} ^ {mask:#04x}"));
            damaged[at] ^= mask;
        }
    }
}

#[test]
fn a_hostile_invariant_pair_is_refused_on_the_store_path() {
    let t = template();
    let key = ModelStore::context_key(&t.context);
    let entry = t.store.invariants[&key].entries()[0];
    // An invariant entry's rows are its `u32` pair and its `f64` value.
    let mut needle = (entry.pair as u32).to_le_bytes().to_vec();
    needle.extend_from_slice(&entry.value.to_bits().to_le_bytes());
    let mut hostile = model_store_bytes(&t.store);
    let at = hostile
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("the first entry is in the store file");
    hostile[at..at + 4].copy_from_slice(&99_999u32.to_le_bytes());
    let err = model_store_from_bytes(&hostile).expect_err("pair 99999 must be refused");
    assert!(err.to_string().contains("out of range"), "{err}");

    let path =
        std::env::temp_dir().join(format!("ix-serve-hostile-store-{}.ixh", std::process::id()));
    std::fs::write(&path, hostile).expect("write");
    let engine = Engine::builder().build();
    let err = engine
        .store_op(&path, load_model_store)
        .expect_err("pair 99999 must be refused");
    assert!(err.to_string().contains("out of range"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_snapshot_written_under_another_config_is_refused() {
    let t = template();
    let tenant = TenantId::new("foreign").expect("valid");
    let config = InvarNetConfig {
        window_ticks: 30,
        ..InvarNetConfig::default()
    };
    let source = Fleet::builder().config(config).build();
    source
        .with_engine(&tenant, |e| e.load_state(&t.store))
        .expect("materialize")
        .expect("load");
    let (cpi, row) = &t.ticks[0];
    source
        .ingest(&tenant, &t.context, *cpi, row)
        .expect("ingest");
    let foreign = source.snapshot_bytes(&tenant).expect("snapshot");

    // At adopt.
    let fleet = Fleet::builder().build();
    assert_foreign_config_refused(fleet.adopt(tenant.clone(), foreign.clone()));

    // At warm: a snapshot file replaced behind the fleet's back.
    let dir = std::env::temp_dir().join(format!(
        "ix-serve-fleet-test-foreign-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let fleet = Fleet::builder().snapshot_dir(&dir).build();
    fleet
        .with_engine(&tenant, |e| e.load_state(&t.store))
        .expect("materialize")
        .expect("load");
    fleet.evict(&tenant).expect("evict");
    std::fs::write(dir.join("foreign.ixhist"), &foreign).expect("overwrite");
    assert_foreign_config_refused(fleet.warm(&tenant).map(|_| ()));
    assert!(!fleet.is_warm(&tenant));
    std::fs::remove_dir_all(&dir).ok();
}

fn assert_foreign_config_refused(result: Result<(), ServeError>) {
    match result {
        Err(ServeError::Snapshot(msg)) => assert_eq!(
            msg,
            "the snapshot was written under a different engine configuration than this fleet's"
        ),
        other => panic!("expected the foreign-config refusal, got {other:?}"),
    }
}

#[test]
fn a_config_json_cannot_carry_does_not_strand_tenants_cold() {
    // JSON has no NaN: the config row spells this τ as `null`, which does
    // not parse back into a float. The fleet matches the row against its
    // own serialized config as bytes, so its tenants still warm.
    let t = template();
    let config = InvarNetConfig {
        tau: f64::NAN,
        ..InvarNetConfig::default()
    };
    let tenant = TenantId::new("nan-tau").expect("valid");
    let fleets: Vec<Fleet> = (0..2)
        .map(|_| Fleet::builder().config(config.clone()).build())
        .collect();
    for fleet in &fleets {
        fleet
            .with_engine(&tenant, |e| e.load_state(&t.store))
            .expect("materialize")
            .expect("load");
        for (cpi, row) in &t.ticks[..5] {
            fleet
                .ingest(&tenant, &t.context, *cpi, row)
                .expect("ingest");
        }
    }
    let (evicted, twin) = (&fleets[0], &fleets[1]);
    evicted.evict(&tenant).expect("evict");
    evicted.warm(&tenant).expect("warm");
    assert!(evicted.is_warm(&tenant));
    for (cpi, row) in &t.ticks[5..10] {
        let a = twin.ingest(&tenant, &t.context, *cpi, row).expect("twin");
        let b = evicted
            .ingest(&tenant, &t.context, *cpi, row)
            .expect("warmed");
        assert_eq!(a.tick, b.tick);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
    }

    // Another fleet built with the same config adopts and warms it too;
    // a default fleet parses the row and refuses it.
    let bytes = twin.snapshot_bytes(&tenant).expect("snapshot");
    let same = Fleet::builder().config(config).build();
    same.adopt(tenant.clone(), bytes.clone()).expect("adopt");
    same.warm(&tenant).expect("warm");
    let other = Fleet::builder().build();
    assert!(matches!(
        other.adopt(tenant, bytes),
        Err(ServeError::Snapshot(msg)) if msg.contains("config: ")
    ));
}

#[test]
fn lru_victim_order_is_pinned_for_a_mixed_touch_script() {
    let t = template();
    let sink = Arc::new(VecSink::default());
    let fleet = Fleet::builder()
        .warm_limit(3)
        .event_sink(sink.clone() as Arc<dyn EventSink>)
        .build();
    let ids: Vec<TenantId> = (0..6)
        .map(|i| TenantId::new(format!("t{i}")).expect("valid"))
        .collect();
    let tick = |i: usize| {
        let (cpi, row) = &t.ticks[0];
        fleet
            .ingest(&ids[i], &t.context, *cpi, row)
            .expect("ingest");
    };
    let load = |i: usize| {
        fleet
            .with_engine(&ids[i], |e| e.load_state(&t.store))
            .expect("touch")
            .expect("load");
    };
    load(0);
    tick(0);
    load(1);
    tick(1);
    load(2);
    for (cpi, row) in &t.ticks[..25] {
        fleet
            .ingest(&ids[2], &t.context, *cpi, row)
            .expect("ingest");
    }
    tick(0);
    load(3); // evicts t1
    fleet.diagnose(&ids[2], &t.context).expect("diagnose");
    fleet.evict(&ids[0]).expect("explicit evict");
    tick(1);
    load(4); // evicts t3
    tick(0); // evicts t2
             // A diagnosis that fails (the window is too short) still touches.
    assert!(fleet.diagnose(&ids[1], &t.context).is_err());
    load(5); // evicts t4
    tick(3); // evicts t0
    fleet.evict(&ids[5]).expect("explicit evict");
    tick(2);
    fleet.with_engine(&ids[4], |_| ()).expect("touch"); // evicts t1

    let number = |i: usize| fleet.tenant_number(&ids[i]).expect("slot");
    let victims: Vec<usize> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            EngineEvent::TenantEvicted { tenant, .. } => {
                (0..ids.len()).find(|&i| number(i) == *tenant)
            }
            _ => None,
        })
        .collect();
    assert_eq!(victims, [1, 0, 3, 2, 4, 0, 5, 1]);
    let warm: Vec<bool> = ids.iter().map(|id| fleet.is_warm(id)).collect();
    assert_eq!(warm, [false, false, true, true, true, false]);
    let status = fleet.status();
    assert_eq!((status.warm, status.cold), (3, 3));
}

#[test]
fn unknown_tenants_are_typed_errors() {
    let fleet = Fleet::builder().build();
    let ghost = TenantId::new("ghost").expect("valid");
    assert!(matches!(
        fleet.evict(&ghost),
        Err(ServeError::UnknownTenant(_))
    ));
    assert!(matches!(
        fleet.warm(&ghost),
        Err(ServeError::UnknownTenant(_))
    ));
    assert!(matches!(
        fleet.snapshot_bytes(&ghost),
        Err(ServeError::UnknownTenant(_))
    ));
}

#[test]
fn per_tenant_telemetry_namespaces_the_prometheus_export() {
    let t = template();
    let fleet = Fleet::builder().per_tenant_telemetry(true).build();
    let tenant = TenantId::new("acme").expect("valid");
    fleet
        .with_engine(&tenant, |e| e.load_state(&t.store))
        .expect("materialize")
        .expect("load");
    let (cpi, row) = &t.ticks[0];
    fleet
        .ingest(&tenant, &t.context, *cpi, row)
        .expect("ingest");
    let text = fleet.render_prometheus();
    assert!(text.contains("ix_fleet_tenants 1"));
    assert!(text.contains("ix_fleet_tenants_warm 1"));
    assert!(
        text.contains("acme/"),
        "per-tenant series must be namespaced by tenant id:\n{text}"
    );
}
