//! The canonical trained context, and the recorded scenario built on it:
//! one Wordcount context streaming a simulated MemHog fault run into a
//! replayable (header-stamped) trace.
//!
//! [`train_wordcount`] is the one training recipe the `perf` sections
//! share; [`record_fault_scenario`] is shared by `diagnose replay
//! --record` and `perf`'s replay section, so both exercise the identical
//! record → ship → replay path.

use std::sync::Arc;

use ix_core::{CoreError, Engine, EngineBuilder, InvarNetConfig, OperationContext};
use ix_history::HistoryStore;
use ix_replay::RecordingSession;
use ix_simulator::{FaultType, RunResult, Runner, WorkloadType};

/// A Wordcount context trained by [`train_wordcount`].
pub struct TrainedContext {
    /// The engine holding the trained context.
    pub engine: Engine,
    /// The trained context (`Runner::DEFAULT_FAULT_NODE`'s Wordcount).
    pub context: OperationContext,
    /// The simulator the training runs came from.
    pub runner: Runner,
    /// The four normal runs the context was trained on.
    pub normals: Vec<RunResult>,
}

/// Trains a Wordcount context on `seed`'s simulator, on an engine built
/// from `builder`: the performance model on four normal runs' CPI, the
/// invariants on their `30..75` tick windows. Callers add their own
/// signatures.
///
/// # Errors
///
/// Any training error of the engine.
pub fn train_wordcount(seed: u64, builder: EngineBuilder) -> Result<TrainedContext, CoreError> {
    let runner = Runner::new(seed);
    let node = Runner::DEFAULT_FAULT_NODE;
    let workload = WorkloadType::Wordcount;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let engine = builder.build();
    let normals = runner.normal_runs(workload, 4);
    let cpi_traces: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    engine.train_performance_model(context.clone(), &cpi_traces)?;
    let frames: Vec<_> = normals
        .iter()
        .map(|r| {
            let f = &r.per_node[node].frame;
            f.window(30..75.min(f.ticks()))
        })
        .collect();
    engine.build_invariants(context.clone(), &frames)?;
    Ok(TrainedContext {
        engine,
        context,
        runner,
        normals,
    })
}

/// A finished recording of the canonical scenario.
pub struct RecordedScenario {
    /// The header-stamped, self-contained trace.
    pub trace: Arc<HistoryStore>,
    /// The (single) recorded operation context.
    pub context: OperationContext,
    /// Ticks streamed into the trace.
    pub ticks: usize,
}

/// Trains a Wordcount context on `seed`'s simulator with one CpuHog,
/// MemHog and DiskHog signature each, then records a MemHog fault run
/// through a [`RecordingSession`].
///
/// # Errors
///
/// Renders any training or ingest failure as a message.
pub fn record_fault_scenario(seed: u64) -> Result<RecordedScenario, String> {
    let config = InvarNetConfig::default();
    let TrainedContext {
        engine: trainer,
        context,
        runner,
        ..
    } = train_wordcount(seed, Engine::builder().config(config.clone()))
        .map_err(|e| e.to_string())?;
    let workload = WorkloadType::Wordcount;
    for fault in [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog] {
        let run = runner.fault_run(workload, fault, 0);
        let window = run.fault_window().ok_or("fault run without a window")?;
        trainer
            .record_signature(&context, fault.name(), &window)
            .map_err(|e| e.to_string())?;
    }

    let session =
        RecordingSession::new(config, trainer.snapshot_state()).map_err(|e| e.to_string())?;
    let live = runner.fault_run(workload, FaultType::MemHog, 5);
    let node = &live.per_node[Runner::DEFAULT_FAULT_NODE];
    let cpi = node.cpi.cpi_series();
    session.engine().reset_run(&context);
    let ticks = node.frame.ticks().min(cpi.len());
    for (t, &sample) in cpi.iter().enumerate().take(ticks) {
        session
            .engine()
            .ingest(&context, sample, node.frame.tick(t))
            .map_err(|e| e.to_string())?;
    }
    Ok(RecordedScenario {
        trace: session.finish(),
        context,
        ticks,
    })
}
