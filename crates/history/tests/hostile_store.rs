//! Hostile bytes against the model-store file decoder: every truncation
//! and every single-byte flip of a trained deployment's file — the shape
//! `diagnose demo` writes, one performance model, 248 invariants and 3
//! signatures — must decode to a typed error, or to a store that
//! re-encodes byte-identically, and never panic. The retired JSON form, an
//! `IXHIST01` image without a store section and stray bytes around the
//! rows are refused.

use std::sync::OnceLock;

use ix_core::{Engine, ErrorKind, ModelStore, OperationContext};
use ix_history::{
    load_model_store, model_store_bytes, model_store_from_bytes, HistoryFileError, HistoryStore,
    SectionImage, MODEL_STORE_SECTION, REPLAY_SECTION,
};
use ix_simulator::{FaultType, Runner, WorkloadType};

/// The deployment `diagnose demo` trains: Wordcount on the fault node,
/// four normal runs' 30..75 windows and CPI traces, and one signature per
/// hog.
fn demo_store() -> &'static ModelStore {
    static STORE: OnceLock<ModelStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let runner = Runner::new(1);
        let node = Runner::DEFAULT_FAULT_NODE;
        let workload = WorkloadType::Wordcount;
        let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
        let engine = Engine::builder().build();
        let normals = runner.normal_runs(workload, 4);
        let frames: Vec<_> = normals
            .iter()
            .map(|r| {
                let frame = &r.per_node[node].frame;
                frame.window(30..75.min(frame.ticks()))
            })
            .collect();
        engine
            .build_invariants(context.clone(), &frames)
            .expect("invariants");
        let cpi: Vec<Vec<f64>> = normals
            .iter()
            .map(|r| r.per_node[node].cpi.cpi_series())
            .collect();
        engine
            .train_performance_model(context.clone(), &cpi)
            .expect("model");
        for fault in [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog] {
            let window = runner.fault_run(workload, fault, 0).fault_window();
            engine
                .record_signature(&context, fault.name(), &window.expect("window"))
                .expect("signature");
        }
        engine.snapshot_state()
    })
}

/// Decodes `bytes` as a model-store file, requiring a typed error or a
/// byte-identical re-encoding of whatever decoded.
fn check(bytes: &[u8], what: &str) {
    match model_store_from_bytes(bytes) {
        Err(HistoryFileError::Format(_)) => {}
        Err(e) => panic!("{what}: not a format error: {e}"),
        Ok(store) => assert_eq!(model_store_bytes(&store), bytes, "{what}: re-encodes"),
    }
}

/// The refusal message for `bytes`.
fn refusal(bytes: &[u8]) -> String {
    match model_store_from_bytes(bytes) {
        Err(HistoryFileError::Format(msg)) => msg,
        other => panic!("expected a format error, got {other:?}"),
    }
}

#[test]
fn the_demo_store_has_the_demo_shape_and_round_trips() {
    let store = demo_store();
    assert_eq!(store.performance_models.len(), 1);
    assert_eq!(store.invariants.len(), 1);
    assert_eq!(
        store.invariants.values().next().expect("one set").len(),
        248
    );
    assert_eq!(store.signatures.len(), 3);
    let bytes = model_store_bytes(store);
    assert_eq!(&model_store_from_bytes(&bytes).expect("intact"), store);
}

#[test]
fn every_truncation_and_byte_flip_of_a_store_file_is_typed_or_canonical() {
    let bytes = model_store_bytes(demo_store());
    for len in 0..bytes.len() {
        check(&bytes[..len], &format!("truncation to {len} bytes"));
    }
    let mut damaged = bytes.clone();
    for at in 0..bytes.len() {
        for mask in [0x01, 0xff] {
            damaged[at] ^= mask;
            check(&damaged, &format!("byte {at} ^ {mask:#04x}"));
            damaged[at] ^= mask;
        }
    }
}

#[test]
fn files_that_are_not_one_store_section_are_refused() {
    // The retired JSON form is named.
    let json = br#"{"performance_models": {}, "invariants": {}, "signatures": {"records": []}}"#;
    let msg = refusal(json);
    assert!(msg.contains("retired JSON form"), "{msg}");

    // An IXHIST01 image with no store section: a tenant snapshot.
    let snapshot = include_bytes!("../../serve/tests/data/trained_tenant_v2.ixh");
    let msg = refusal(snapshot);
    assert!(msg.contains("no STOR section"), "{msg}");

    // Bytes after the rows, inside the section.
    let store = demo_store();
    let rows = ix_history::codec::store_rows(store);
    let mut image = SectionImage::new(MODEL_STORE_SECTION, rows.encoded_len() + 1);
    rows.write(image.writer());
    image.writer().u8(0);
    let msg = refusal(&image.finish());
    assert!(msg.contains("unread"), "{msg}");

    // A second section after the store's.
    let bytes = model_store_bytes(store);
    let payload = ix_history::section_in(&bytes, MODEL_STORE_SECTION)
        .expect("well-formed")
        .expect("a STOR section")
        .to_vec();
    let two = HistoryStore::builder()
        .section(MODEL_STORE_SECTION, payload)
        .section(REPLAY_SECTION, b"header".to_vec())
        .build()
        .to_bytes();
    let msg = refusal(&two);
    assert!(msg.contains("nothing else"), "{msg}");

    // A file load names the JSON form too, as a `Serialization` error
    // whose source is the format error.
    let path = std::env::temp_dir().join(format!("ix-hostile-store-{}.json", std::process::id()));
    std::fs::write(&path, json).expect("write");
    let err = load_model_store(&path).expect_err("JSON is refused");
    std::fs::remove_file(&path).ok();
    assert_eq!(err.kind(), ErrorKind::Serialization);
    assert!(std::error::Error::source(&err).is_some());
    assert!(err.to_string().contains("retired JSON form"), "{err}");
}
