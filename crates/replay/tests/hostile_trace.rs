//! Hostile bytes against the trace decoders: every truncation and every
//! single-byte flip of a small trace — every `EngineEvent` variant, one
//! sweep, one degraded diagnosis and an `RPLY` header — must decode to a
//! typed error, or to a value that re-encodes byte-identically, and never
//! panic. Both `HistoryStore::from_bytes` and `ReplayHeader::extract` are
//! driven over each damaged copy.

use std::sync::Arc;

use ix_core::{
    ArimaModel, ArimaSpec, ContextId, DegradationReason, DegradationTier, Diagnosis, EngineEvent,
    EnginePhase, EventSink, HealthState, HistoryRecorder, InvarNetConfig, InvariantEntry,
    InvariantSet, ModelStore, OperationContext, OverloadPolicy, PerformanceModel, RankedCause,
    ResidualStats, Signature, SweepDegradation, ViolationTuple,
};
use ix_history::{HistoryFileError, HistoryStore, REPLAY_SECTION};
use ix_metrics::METRIC_COUNT;
use ix_replay::{ReplayError, ReplayHeader};

fn every_event(ctx: ContextId) -> Vec<EngineEvent> {
    let none = ContextId::UNATTRIBUTED;
    vec![
        EngineEvent::TickIngested {
            context: ctx,
            tick: 1,
            residual: 0.5,
            exceeded: true,
            micros: 3,
        },
        EngineEvent::DetectionFired {
            context: ctx,
            tick: 1,
        },
        EngineEvent::DetectionCleared {
            context: ctx,
            tick: 2,
        },
        EngineEvent::DiagnosisRan {
            context: ctx,
            tick: 1,
            micros: 900,
        },
        EngineEvent::SignatureMatched {
            context: ctx,
            tick: 1,
            best_similarity: 0.75,
            confident: true,
        },
        EngineEvent::SweepCompleted {
            context: ctx,
            pairs: 3,
            micros: 40,
        },
        EngineEvent::PairsScored {
            context: ctx,
            pairs: 3,
            micros: 30,
        },
        EngineEvent::SweepScreened {
            context: ctx,
            reused: 1,
            screened: 1,
            confirmed: 1,
        },
        EngineEvent::SpanClosed {
            phase: EnginePhase::Screen,
            context: ctx,
            micros: 50,
        },
        EngineEvent::SweepDegraded {
            context: ctx,
            tier: DegradationTier::CachedMatrix,
            reason: DegradationReason::WallClockExceeded,
        },
        EngineEvent::TickEnqueued {
            context: ctx,
            depth: 2,
        },
        EngineEvent::TickShed {
            context: ctx,
            policy: OverloadPolicy::ShedOldest,
        },
        EngineEvent::StoreRetried {
            context: none,
            attempt: 1,
            backoff_micros: 100,
        },
        EngineEvent::HealthChanged {
            context: ctx,
            from: HealthState::Healthy,
            to: HealthState::Degraded(DegradationTier::CachedMatrix),
        },
        EngineEvent::TenantEvicted {
            context: none,
            tenant: 7,
            ticks: 2,
        },
        EngineEvent::TenantWarmed {
            context: none,
            tenant: 7,
            micros: 60,
        },
    ]
}

/// A small trained state touching every store row.
fn small_store() -> ModelStore {
    let arima =
        ArimaModel::from_coefficients(ArimaSpec::new(1, 0, 1), 0.5, vec![0.25], vec![-0.5], 2.0, 7)
            .expect("a valid model");
    let stats = ResidualStats {
        max: 1.0,
        min: 0.0,
        p95: 0.75,
    };
    let mut store = ModelStore::new();
    store.performance_models.insert(
        "Sort@n1".to_string(),
        Arc::new(PerformanceModel::from_parts(arima, stats, 1.5)),
    );
    let entries = vec![
        InvariantEntry {
            pair: 3,
            value: 0.5,
        },
        InvariantEntry {
            pair: 9,
            value: 1.0,
        },
    ];
    store.invariants.insert(
        "Sort@n1".to_string(),
        Arc::new(InvariantSet::from_entries(entries, 0.25).expect("valid")),
    );
    Arc::make_mut(&mut store.signatures).add(Signature {
        tuple: ViolationTuple::from_graded(vec![0.0, 0.5]),
        problem: "hog".to_string(),
        context: OperationContext::new("n1", "Sort"),
    });
    store
}

fn small_trace() -> Vec<u8> {
    let store = HistoryStore::new();
    let ctx = ContextId::from_index(0);
    for t in 0..2u64 {
        let row: Vec<f64> = (0..METRIC_COUNT).map(|m| (m as f64) + t as f64).collect();
        store.record_tick(ctx, t, 1.25, 0.5, t == 1, &row);
    }
    for event in every_event(ctx) {
        store.record(&event);
    }
    let degradation = SweepDegradation {
        tier: DegradationTier::PartialMatrix,
        reason: DegradationReason::PairBudgetExceeded,
    };
    store.record_sweep(ctx, 1, &[0.25, 0.5, 1.0], Some(degradation));
    store.record_diagnosis(
        ctx,
        1,
        &Diagnosis {
            ranked: vec![RankedCause {
                problem: "hog".to_string(),
                similarity: 0.5,
            }],
            tuple: ViolationTuple::from_graded(vec![0.0, 1.0]),
            degradation: Some(degradation),
        },
    );
    ReplayHeader::new(InvarNetConfig::default(), small_store()).embed(&store);
    store.to_bytes()
}

/// Decodes `bytes` as a trace and its header, requiring a typed error or
/// a byte-identical re-encoding of whatever decoded.
fn check(bytes: &[u8], what: &str) {
    let store = match HistoryStore::from_bytes(bytes) {
        Err(HistoryFileError::Format(_)) => return,
        Err(e) => panic!("{what}: not a format error: {e}"),
        Ok(store) => store,
    };
    assert_eq!(store.to_bytes(), bytes, "{what}: the trace re-encodes");
    match ReplayHeader::extract(&store) {
        Ok(header) => {
            let fresh = HistoryStore::new();
            header.embed(&fresh);
            assert_eq!(
                fresh.section(REPLAY_SECTION),
                store.section(REPLAY_SECTION),
                "{what}: the header re-encodes"
            );
        }
        Err(ReplayError::MissingHeader | ReplayError::Header(_) | ReplayError::Version(_)) => {}
        Err(e) => panic!("{what}: unexpected header error {e}"),
    }
}

#[test]
fn the_small_trace_is_complete_and_round_trips() {
    let bytes = small_trace();
    assert!(bytes.len() < 4096, "a few KB: {}", bytes.len());
    let store = HistoryStore::from_bytes(&bytes).expect("intact");
    assert_eq!(store.events(), every_event(ContextId::from_index(0)));
    assert_eq!(store.sweeps().len(), 1);
    assert!(store.diagnoses()[0].diagnosis.degradation.is_some());
    let header = ReplayHeader::extract(&store).expect("header");
    assert_eq!(header.store, small_store());
    assert_eq!(store.to_bytes(), bytes);
}

#[test]
fn every_truncation_and_byte_flip_of_a_trace_is_typed_or_canonical() {
    let bytes = small_trace();
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
