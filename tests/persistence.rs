//! Persistence integration: a trained deployment survives a save/load
//! round-trip and produces identical online behaviour afterwards.

use invarnet_x::core::{Engine, InvarNetConfig, ModelStore, OperationContext, SignatureDatabase};
use invarnet_x::metrics::MetricFrame;
use invarnet_x::simulator::{FaultType, Runner, WorkloadType};

fn windowed(runner: &Runner, frame: &MetricFrame) -> MetricFrame {
    let len = runner.fault_duration_ticks;
    let start = runner
        .fault_start_tick
        .min(frame.ticks().saturating_sub(len));
    frame.window(start..(start + len).min(frame.ticks()))
}

#[test]
fn save_load_roundtrip_preserves_online_behaviour() {
    let workload = WorkloadType::Grep;
    let runner = Runner::new(401);
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());

    // Train.
    let system = Engine::builder().build();
    let normals = runner.normal_runs(workload, 5);
    let cpi: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    system
        .train_performance_model(context.clone(), &cpi)
        .expect("train");
    let frames: Vec<MetricFrame> = normals
        .iter()
        .map(|r| windowed(&runner, &r.per_node[node].frame))
        .collect();
    system
        .build_invariants(context.clone(), &frames)
        .expect("invariants");
    for fault in [FaultType::CpuHog, FaultType::DiskHog] {
        for idx in 0..2 {
            let r = runner.fault_run(workload, fault, idx);
            system
                .record_signature(&context, fault.name(), &r.fault_window().expect("window"))
                .expect("signature");
        }
    }

    // Persist to disk.
    let store = system.snapshot_state();
    let dir = std::env::temp_dir().join("invarnet_integration");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deployment.json");
    store.save(&path).expect("save");

    // Rehydrate into a fresh system.
    let loaded = ModelStore::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    let fresh = Engine::builder().build();
    fresh.load_state(&loaded).expect("rebuild");

    // Identical online behaviour on a fresh incident.
    let incident = runner.fault_run(workload, FaultType::DiskHog, 7);
    let trace = &incident.per_node[node];
    let w = incident.fault_window().expect("window");

    let det_a = system
        .detect(&context, &trace.cpi.cpi_series())
        .expect("detect");
    let det_b = fresh
        .detect(&context, &trace.cpi.cpi_series())
        .expect("detect");
    assert_eq!(det_a, det_b);

    let diag_a = system.diagnose(&context, &w).expect("diagnose");
    let diag_b = fresh.diagnose(&context, &w).expect("diagnose");
    assert_eq!(diag_a, diag_b);
    assert_eq!(diag_a.root_cause().expect("ranked").problem, "Disk-hog");
}

#[test]
fn signature_database_grows_online() {
    // "As more performance problems are diagnosed, the number of items in
    // signature database increases gradually" — additions go through &self,
    // so a long-running engine can learn while serving queries.
    let workload = WorkloadType::Wordcount;
    let runner = Runner::new(402);
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let system = Engine::builder().build();
    let normals = runner.normal_runs(workload, 4);
    let frames: Vec<MetricFrame> = normals
        .iter()
        .map(|r| windowed(&runner, &r.per_node[node].frame))
        .collect();
    system
        .build_invariants(context.clone(), &frames)
        .expect("invariants");

    let shared: &Engine = &system;
    assert_eq!(shared.with_signature_database(|db| db.len()), 0);
    for (i, fault) in [FaultType::CpuHog, FaultType::MemHog, FaultType::NetDrop]
        .iter()
        .enumerate()
    {
        let r = runner.fault_run(workload, *fault, 0);
        shared
            .record_signature(&context, fault.name(), &r.fault_window().expect("window"))
            .expect("record through shared reference");
        assert_eq!(shared.with_signature_database(|db| db.len()), i + 1);
    }
}

#[test]
fn snapshot_store_covers_all_artifacts() {
    let workload = WorkloadType::Sort;
    let runner = Runner::new(403);
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let system = Engine::builder().build();
    let normals = runner.normal_runs(workload, 4);
    let cpi: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    system
        .train_performance_model(context.clone(), &cpi)
        .expect("train");
    let frames: Vec<MetricFrame> = normals
        .iter()
        .map(|r| windowed(&runner, &r.per_node[node].frame))
        .collect();
    system
        .build_invariants(context.clone(), &frames)
        .expect("invariants");
    let r = runner.fault_run(workload, FaultType::MemHog, 0);
    system
        .record_signature(&context, "Mem-hog", &r.fault_window().expect("window"))
        .expect("signature");

    // The paper's three artifacts, keyed by `workload@node`.
    let store = system.snapshot_state();
    let key = ModelStore::context_key(&context);
    assert!(key.starts_with(workload.name()));
    assert!(store.performance_models.contains_key(&key));
    let invariants = &store.invariants[&key];
    assert_eq!(store.signatures.len(), 1);
    let signature = &store.signatures.records()[0];
    assert_eq!(signature.problem, "Mem-hog");
    // The signature's binary tuple has one bit per invariant.
    assert_eq!(signature.tuple.len(), invariants.len());

    // The JSON form carries all of it.
    let json = store.to_json().expect("serialize");
    assert_eq!(ModelStore::from_json(&json).expect("parse"), store);
}

#[test]
fn empty_signature_database_is_an_error_not_a_panic() {
    let workload = WorkloadType::Wordcount;
    let runner = Runner::new(404);
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let system = Engine::builder().build();
    let normals = runner.normal_runs(workload, 4);
    let frames: Vec<MetricFrame> = normals
        .iter()
        .map(|r| windowed(&runner, &r.per_node[node].frame))
        .collect();
    system
        .build_invariants(context.clone(), &frames)
        .expect("invariants");

    let r = runner.fault_run(workload, FaultType::CpuHog, 0);
    let err = system
        .diagnose(&context, &r.fault_window().expect("window"))
        .expect_err("no signatures recorded");
    assert!(matches!(
        err,
        invarnet_x::core::CoreError::EmptySignatureDatabase(_)
    ));

    // Using a second, isolated signature database wired in is fine.
    system.set_signature_database(SignatureDatabase::new());
    assert_eq!(system.with_signature_database(|db| db.len()), 0);
}

#[test]
fn engine_store_roundtrip_with_retry_and_typed_errors() {
    use invarnet_x::core::{CoreError, Engine, ErrorKind};

    let workload = WorkloadType::Grep;
    let runner = Runner::new(405);
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());

    let engine = Engine::builder().config(InvarNetConfig::default()).build();
    let normals = runner.normal_runs(workload, 5);
    let cpi: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    engine
        .train_performance_model(context.clone(), &cpi)
        .expect("train");
    let frames: Vec<MetricFrame> = normals
        .iter()
        .map(|r| windowed(&runner, &r.per_node[node].frame))
        .collect();
    engine
        .build_invariants(context.clone(), &frames)
        .expect("invariants");
    let r = runner.fault_run(workload, FaultType::CpuHog, 0);
    engine
        .record_signature(&context, "CPU-hog", &r.fault_window().expect("window"))
        .expect("signature");

    // Snapshot → save (with retry policy) → load → rehydrate a fresh engine.
    let dir = std::env::temp_dir().join("invarnet_engine_roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deployment.json");
    let store = engine.snapshot_state();
    engine.save_store(&store, &path).expect("save with retry");

    let fresh = Engine::builder().config(InvarNetConfig::default()).build();
    let loaded = fresh.load_store(&path).expect("load with retry");
    std::fs::remove_file(&path).ok();
    fresh.load_state(&loaded).expect("rehydrate");

    assert!(fresh.performance_model(&context).is_some());
    assert!(fresh.invariant_set(&context).is_some());
    assert_eq!(fresh.with_signature_database(|db| db.len()), 1);

    let w = r.fault_window().expect("window");
    let a = engine.diagnose(&context, &w).expect("diagnose original");
    let b = fresh.diagnose(&context, &w).expect("diagnose rehydrated");
    assert_eq!(a.ranked, b.ranked);

    // A missing file surfaces as a typed Io error with a source chain.
    let err = fresh
        .load_store(&dir.join("does_not_exist.json"))
        .expect_err("missing file");
    assert_eq!(err.kind(), ErrorKind::Io);
    assert!(std::error::Error::source(&err).is_some());
    assert!(matches!(err, CoreError::Io { .. }));
}
