//! Fleet eviction must be invisible: an evict→snapshot→warm cycle at any
//! point of a live run must leave diagnoses and event streams
//! bit-identical to a tenant that was never torn down.
//!
//! One engine is trained once on deterministic simulator data; its
//! [`ModelStore`] seeds both the fleet tenant and a bare never-evicted
//! twin. The same fault run then streams into both, with the fleet
//! tenant force-evicted (and lazily warmed) at a proptest-chosen tick.

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ix_core::{
    CoreError, Engine, EngineEvent, ErrorCode, EventSink, InvarNetConfig, ModelStore,
    OperationContext,
};
use ix_serve::{Fleet, ServeError, TenantId};
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

/// Per-tick outcome fields that must match between the twins.
type Outcome = (usize, u64, bool, bool, Option<ix_core::Diagnosis>);

fn run_twin_pair(evict_at: usize) -> Result<(), ServeError> {
    let t = template();
    let tenant = TenantId::new("twin")?;

    let fleet_sink = Arc::new(VecSink::default());
    let fleet = Fleet::builder()
        .event_sink(fleet_sink.clone() as Arc<dyn EventSink>)
        .build();
    fleet.with_engine(&tenant, |e| e.load_state(&t.store))??;

    let twin_sink = Arc::new(VecSink::default());
    let twin = Engine::builder()
        .config(InvarNetConfig::default())
        .event_sink(twin_sink.clone() as Arc<dyn EventSink>)
        .build();
    twin.load_state(&t.store)?;

    let mut fleet_outcomes: Vec<Outcome> = Vec::new();
    let mut twin_outcomes: Vec<Outcome> = Vec::new();
    for (i, (cpi, row)) in t.ticks.iter().enumerate() {
        if i == evict_at {
            fleet.evict(&tenant)?;
            assert!(!fleet.is_warm(&tenant), "evict must leave the slot cold");
            // The next ingest warms the tenant lazily; no explicit warm().
        }
        let f = fleet.ingest(&tenant, &t.context, *cpi, row)?;
        let b = twin.ingest(&t.context, *cpi, row)?;
        fleet_outcomes.push((
            f.tick,
            f.residual.to_bits(),
            f.exceeded,
            f.anomalous,
            f.diagnosis,
        ));
        twin_outcomes.push((
            b.tick,
            b.residual.to_bits(),
            b.exceeded,
            b.anomalous,
            b.diagnosis,
        ));
    }

    assert_eq!(
        fleet_outcomes, twin_outcomes,
        "tick outcomes (residual bits, flags, full diagnoses) must be \
         bit-identical across an evict→snapshot→warm cycle at tick {evict_at}"
    );
    assert!(
        fleet_outcomes.iter().any(|(_, _, _, _, d)| d.is_some()),
        "the fault run must produce at least one diagnosis"
    );
    assert_eq!(
        normalize(&fleet_sink.events()),
        normalize(&twin_sink.events()),
        "event streams (modulo timing and fleet lifecycle) must match"
    );

    // The lifecycle itself must have been declared on the fleet sink.
    let events = fleet_sink.events();
    assert!(events
        .iter()
        .any(|e| matches!(e, EngineEvent::TenantEvicted { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, EngineEvent::TenantWarmed { .. })));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn evicted_tenant_is_bit_identical_to_a_never_evicted_twin(
        evict_at in 1usize..88
    ) {
        run_twin_pair(evict_at).expect("twin run");
    }
}

#[test]
fn eviction_mid_anomaly_window_is_bit_identical() {
    // The fault injects around the run's middle; evicting inside the
    // anomalous region stresses the edge-tracker restore.
    run_twin_pair(55).expect("twin run");
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
    let dir = std::env::temp_dir().join("ix-serve-fleet-test-snapshots");
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
    fleet.evict(&tenant).expect("evict");
    let path = dir.join("disky.ixhist");
    assert!(path.exists(), "eviction must write the snapshot file");
    fleet.warm(&tenant).expect("warm from file");
    assert!(fleet.is_warm(&tenant));
    std::fs::remove_file(&path).ok();
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
