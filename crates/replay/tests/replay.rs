//! End-to-end replay guarantees over simulated fault runs:
//!
//! - recording a faulty run through a [`RecordingSession`] and replaying
//!   the finished trace reproduces every row, event, sweep and diagnosis
//!   bit-exactly (modulo wall-clock fields) — zero divergences;
//! - the stepping debugger pauses on event/context/tick breakpoints and
//!   exposes live engine state at the pause point;
//! - [`bisect`] pins a planted single-tick perturbation to its exact
//!   lifetime tick and names the differing field.

use std::sync::Arc;

use ix_core::{ContextId, Engine, HistoryRecorder, InvarNetConfig, ModelStore, OperationContext};
use ix_history::HistoryStore;
use ix_metrics::METRIC_COUNT;
use ix_replay::{
    bisect, Breakpoint, EventKind, RecordingSession, ReplayDebugger, Replayer, StopReason,
};
use ix_simulator::{FaultType, RunResult, Runner, WorkloadType};

/// Trains a throwaway engine on deterministic simulator data and returns
/// its snapshotted state — the input a [`RecordingSession`] needs — plus
/// the live fault run to stream.
fn trained_state() -> (InvarNetConfig, ModelStore, OperationContext, RunResult) {
    let runner = Runner::new(11);
    let node = Runner::DEFAULT_FAULT_NODE;
    let workload = WorkloadType::Wordcount;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let config = InvarNetConfig::default();
    let trainer = Engine::builder().config(config.clone()).build();

    let normals = runner.normal_runs(workload, 4);
    let cpi_traces: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    trainer
        .train_performance_model(context.clone(), &cpi_traces)
        .expect("train detector");
    let frames: Vec<_> = normals
        .iter()
        .map(|r| {
            let f = &r.per_node[node].frame;
            f.window(30..75.min(f.ticks()))
        })
        .collect();
    trainer
        .build_invariants(context.clone(), &frames)
        .expect("build invariants");
    for fault in [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog] {
        let run = runner.fault_run(workload, fault, 0);
        trainer
            .record_signature(&context, fault.name(), &run.fault_window().expect("window"))
            .expect("record signature");
    }
    let live = runner.fault_run(workload, FaultType::MemHog, 5);
    (config, trainer.snapshot_state(), context, live)
}

/// Streams the fault run through `engine`, as a live deployment would.
fn stream(engine: &Engine, context: &OperationContext, run: &RunResult) -> usize {
    let node = Runner::DEFAULT_FAULT_NODE;
    let cpi = run.per_node[node].cpi.cpi_series();
    let frame = &run.per_node[node].frame;
    engine.reset_run(context);
    let ticks = frame.ticks().min(cpi.len());
    for (t, &sample) in cpi.iter().enumerate().take(ticks) {
        engine
            .ingest(context, sample, frame.tick(t))
            .expect("ingest tick");
    }
    ticks
}

/// Records the standard faulty scenario into a finished (header-stamped)
/// trace.
fn recorded_trace() -> (Arc<HistoryStore>, OperationContext, usize) {
    let (config, store, context, live) = trained_state();
    let session = RecordingSession::new(config, store).expect("recording session");
    let ticks = stream(session.engine(), &context, &live);
    (session.finish(), context, ticks)
}

#[test]
fn replay_round_trip_is_bit_exact() {
    let (trace, _, ticks) = recorded_trace();
    assert!(
        !trace.diagnoses().is_empty(),
        "the fault run must diagnose, or the round-trip proves nothing"
    );

    // Ship the trace through its on-disk form: the replay header must
    // survive serialization, and the replayer must work from the file
    // alone.
    let bytes = trace.to_bytes();
    let reloaded = Arc::new(HistoryStore::from_bytes(&bytes).expect("reload trace"));

    let mut replayer = Replayer::builder()
        .recorded(reloaded)
        .build()
        .expect("reconstruct engine from header");
    assert_eq!(replayer.schedule().len(), ticks);
    let report = replayer.verify().expect("replay to completion");
    assert_eq!(report.ticks_replayed, ticks);
    assert!(
        report.is_clean(),
        "replay must reproduce the recording bit-exactly; divergences: {:?}",
        report.divergences
    );

    // The fresh engine's own recording matches the original trace too.
    assert_eq!(
        replayer.replay_store().diagnoses(),
        replayer.recorded().diagnoses()
    );
}

#[test]
fn a_config_a_replay_cannot_read_is_refused_at_recording() {
    let (config, store, context, live) = trained_state();
    // A NaN is written as `null`, which no header read accepts: refused
    // before a single tick is recorded.
    let nan = InvarNetConfig {
        tau: f64::NAN,
        ..config.clone()
    };
    match RecordingSession::new(nan, store.clone()) {
        Err(e @ ix_replay::ReplayError::Config(_)) => {
            assert!(e.to_string().contains("null"), "{e}");
        }
        other => panic!("expected a config error, got {other:?}"),
    }
    // A finite config that differs from the default records and replays
    // clean.
    let finite = InvarNetConfig {
        tau: config.tau + 0.05,
        ..config
    };
    let session = RecordingSession::new(finite, store).expect("recording session");
    let ticks = stream(session.engine(), &context, &live);
    let bytes = session.finish().to_bytes();
    let reloaded = Arc::new(HistoryStore::from_bytes(&bytes).expect("reload trace"));
    let mut replayer = Replayer::builder()
        .recorded(reloaded)
        .build()
        .expect("reconstruct engine from header");
    let report = replayer.verify().expect("replay to completion");
    assert_eq!(report.ticks_replayed, ticks);
    assert!(report.is_clean(), "divergences: {:?}", report.divergences);
}

#[test]
fn trace_without_header_is_not_replayable() {
    let store = HistoryStore::builder().shared();
    assert!(matches!(
        Replayer::builder().recorded(store).build(),
        Err(ix_replay::ReplayError::MissingHeader)
    ));
}

#[test]
fn debugger_breaks_on_diagnosis_and_inspects_state() {
    let (trace, context, ticks) = recorded_trace();
    let replayer = Replayer::builder()
        .recorded(trace)
        .build()
        .expect("reconstruct");
    let mut debugger = ReplayDebugger::new(replayer);

    // Warm up a few ticks first: plain stepping reports the last tick.
    match debugger.step(3).expect("step") {
        StopReason::Stepped { report } => assert_eq!(report.index, 2),
        other => panic!("expected a plain step, got {other:?}"),
    }

    debugger.add_breakpoint(Breakpoint::on_event(EventKind::DiagnosisRan));
    let report = match debugger.run().expect("run to breakpoint") {
        StopReason::Breakpoint { breakpoint, report } => {
            assert_eq!(breakpoint, 0);
            report
        }
        other => panic!("expected the diagnosis breakpoint, got {other:?}"),
    };
    assert!(
        report.outcome.diagnosis.is_some(),
        "the breakpoint tick must carry the diagnosis"
    );
    assert!(report.matches_recorded);

    // Paused inspection: the fresh engine's state at the diagnosis tick.
    let inspector = debugger.inspector();
    let state = inspector
        .context_state(&context)
        .expect("context is live at the pause point");
    assert!(state.has_model && state.has_detector && state.has_invariants);
    assert_eq!(state.run_ticks, report.index + 1);
    assert!(state.window_ticks > 0);
    assert_eq!(inspector.lifetime_ticks(), (report.index + 1) as u64);

    // A tick breakpoint downstream of the diagnosis pauses exactly there,
    // then the rest of the schedule drains clean.
    let next_tick = report.scheduled.tick + 10;
    debugger.clear_breakpoints();
    if (next_tick as usize) < ticks {
        debugger.add_breakpoint(Breakpoint::on_tick(next_tick));
        match debugger.run().expect("run to tick breakpoint") {
            StopReason::Breakpoint { report, .. } => {
                assert_eq!(report.scheduled.tick, next_tick);
            }
            other => panic!("expected the tick breakpoint, got {other:?}"),
        }
        debugger.clear_breakpoints();
    }
    let mut replayer = debugger.into_replayer();
    let report = replayer.verify().expect("finish the replay");
    assert!(report.is_clean(), "divergences: {:?}", report.divergences);
}

/// A deterministic synthetic row for the bisect fixtures.
fn synthetic_row(t: u64) -> Vec<f64> {
    (0..METRIC_COUNT)
        .map(|m| ((t as f64) * 0.1 + m as f64).sin())
        .collect()
}

/// Builds a synthetic single-context trace of `ticks` rows, perturbing
/// one metric at `perturb_at` when given.
fn synthetic_store(ticks: u64, perturb_at: Option<u64>) -> Arc<HistoryStore> {
    let store = HistoryStore::builder().shared();
    let context = ContextId::from_index(0);
    for t in 0..ticks {
        let mut row = synthetic_row(t);
        if perturb_at == Some(t) {
            row[3] += 1e-9; // a single-bit-ish nudge replay must still catch
        }
        store.record_tick(context, t, 1.0 + (t as f64) * 0.01, 0.0, false, &row);
    }
    store
}

#[test]
fn bisect_pins_a_planted_single_tick_perturbation() {
    let clean = synthetic_store(200, None);
    let tampered = synthetic_store(200, Some(137));

    assert_eq!(
        bisect(&clean, &clean),
        None,
        "a trace never diverges from itself"
    );

    let report = bisect(&clean, &tampered).expect("the perturbation must be found");
    assert_eq!(report.tick, 137);
    assert!(
        report.detail.contains("metric[3]"),
        "the report must name the differing field, got: {}",
        report.detail
    );

    // Order must not matter.
    let flipped = bisect(&tampered, &clean).expect("symmetric");
    assert_eq!(flipped.tick, 137);
}

#[test]
fn bisect_finds_a_truncated_trace() {
    let full = synthetic_store(100, None);
    let truncated = synthetic_store(60, None);
    let report = bisect(&full, &truncated).expect("length mismatch is a divergence");
    assert_eq!(
        report.tick, 60,
        "the first missing row is the divergence point"
    );
}
