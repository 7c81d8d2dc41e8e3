//! Campaign harness: trains InvarNet-X (or a baseline variant) from
//! simulator runs and evaluates diagnosis accuracy over fault campaigns.

use ix_core::{ArxMeasure, ConfusionMatrix, Engine, InvarNetConfig, MicMeasure, OperationContext};
use ix_metrics::MetricFrame;
use ix_simulator::{FaultType, Runner, WorkloadType};

/// Which association measure backs the invariant construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureKind {
    /// MIC — InvarNet-X proper.
    Mic,
    /// ARX fitness — the Jiang et al. baseline.
    Arx,
}

impl MeasureKind {
    /// Paper-style label.
    pub fn name(self) -> &'static str {
        match self {
            MeasureKind::Mic => "InvarNet-X",
            MeasureKind::Arx => "ARX",
        }
    }
}

/// Label used when anomaly detection fails to fire and no diagnosis is
/// produced (counts as a miss for the injected fault's recall).
pub const NOT_DETECTED: &str = "(not detected)";

/// Where the evaluation observes a run: the faulty node's trace.
fn observed_context(runner: &Runner, workload: WorkloadType) -> OperationContext {
    let node = &runner.nodes[Runner::DEFAULT_FAULT_NODE];
    OperationContext::new(node.ip(), workload.name())
}

/// The training window of a normal run: the same offset/length the fault
/// window will occupy, so baseline and diagnosis association estimates see
/// the same sample count (MIC estimates are sample-size dependent).
fn training_window(runner: &Runner, frame: &MetricFrame) -> MetricFrame {
    let len = runner.fault_duration_ticks;
    let start = runner
        .fault_start_tick
        .min(frame.ticks().saturating_sub(len));
    let end = (start + len).min(frame.ticks());
    frame.window(start..end)
}

/// A trained system plus the context it was trained for.
pub struct TrainedSystem {
    /// The trained engine.
    pub system: Engine,
    /// The context diagnosis queries should use.
    pub context: OperationContext,
}

/// Options of a training campaign.
#[derive(Debug, Clone, Copy)]
pub struct TrainOptions {
    /// Association measure.
    pub measure: MeasureKind,
    /// Normal runs used for the performance model and Algorithm 1.
    pub normal_runs: usize,
    /// Fault runs per fault used as training signatures (paper: 2).
    pub signature_runs: usize,
    /// Build everything under one global context (the ablation).
    pub no_context: bool,
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions {
            measure: MeasureKind::Mic,
            normal_runs: 6,
            signature_runs: 2,
            no_context: false,
        }
    }
}

/// Trains a full system for `workload`: performance model on N normal CPI
/// traces, invariants via Algorithm 1 on the normal runs' windows, and
/// `signature_runs` training signatures per fault.
///
/// With `no_context`, the invariants and signatures are built under the
/// collapsed global context from a *mixture* of workloads and nodes — the
/// paper's "single performance model and signature base" ablation.
pub fn train(
    runner: &Runner,
    workload: WorkloadType,
    faults: &[FaultType],
    opts: TrainOptions,
) -> TrainedSystem {
    let config = InvarNetConfig::default();
    let measure: std::sync::Arc<dyn ix_core::AssociationMeasure> = match opts.measure {
        MeasureKind::Mic => std::sync::Arc::new(MicMeasure::new(config.mic)),
        MeasureKind::Arx => std::sync::Arc::new(ArxMeasure::new(config.arx)),
    };
    let mut engine_builder = Engine::builder().config(config).measure(measure);
    if let Some(telemetry) = crate::telemetry::active() {
        engine_builder = engine_builder.observe(&telemetry);
    }
    let system = engine_builder.build();

    let context = if opts.no_context {
        OperationContext::global()
    } else {
        observed_context(runner, workload)
    };

    // Performance model: CPI traces of complete normal runs. The
    // no-context ablation owns a single ARIMA model that must serve every
    // workload and node — its residual band ends up wide enough to hide
    // real anomalies (the paper's argument for operation context).
    let normals = runner.normal_runs(workload, opts.normal_runs);
    let cpi_traces: Vec<Vec<f64>> = if opts.no_context {
        WorkloadType::ALL
            .iter()
            .flat_map(|&w| {
                runner
                    .normal_runs(w, (opts.normal_runs / 2).max(2))
                    .into_iter()
                    .enumerate()
                    .map(|(k, r)| r.per_node[1 + (k % 3)].cpi.cpi_series())
            })
            .collect()
    } else {
        normals
            .iter()
            .map(|r| r.per_node[Runner::DEFAULT_FAULT_NODE].cpi.cpi_series())
            .collect()
    };
    system
        .train_performance_model(context.clone(), &cpi_traces)
        .expect("performance model training on simulator traces");

    // Invariants: like-for-like windows of the normal runs.
    let frames: Vec<MetricFrame> = if opts.no_context {
        // Mixture: runs from every workload, observed on varying nodes.
        WorkloadType::ALL
            .iter()
            .flat_map(|&w| {
                runner
                    .normal_runs(w, (opts.normal_runs / 2).max(2))
                    .into_iter()
                    .enumerate()
                    .map(|(k, r)| {
                        let node = 1 + (k % 3); // slaves 1..=3
                        training_window(runner, &r.per_node[node].frame)
                    })
            })
            .collect()
    } else {
        normals
            .iter()
            .map(|r| training_window(runner, &r.per_node[Runner::DEFAULT_FAULT_NODE].frame))
            .collect()
    };
    system
        .build_invariants(context.clone(), &frames)
        .expect("invariant construction on simulator frames");

    // Signatures: the first `signature_runs` fault runs of each fault.
    // The no-context ablation has one signature base serving *every*
    // workload, so its training signatures come from a workload mixture —
    // exactly why the paper finds it "very disappointing": the same fault
    // violates different invariants under different workloads, and the
    // mixed references misalign with any particular job's behaviour.
    let signature_workloads: Vec<WorkloadType> = if opts.no_context {
        vec![WorkloadType::Sort, WorkloadType::Grep, WorkloadType::TpcDs]
    } else {
        vec![workload]
    };
    for &fault in faults {
        for &sig_workload in &signature_workloads {
            if fault.interactive_only() && sig_workload.is_batch() {
                continue;
            }
            for run_idx in 0..opts.signature_runs {
                let r = runner.fault_run(sig_workload, fault, run_idx);
                let window = r.fault_window().expect("fault window inside run");
                system
                    .record_signature(&context, fault.name(), &window)
                    .expect("signature recording");
            }
        }
    }

    TrainedSystem { system, context }
}

/// Evaluates diagnosis accuracy: for each fault, `test_runs` fresh runs
/// (indices after the training signatures) are diagnosed; the top-ranked
/// cause is compared with the injected fault.
///
/// When `gate_on_detection` is set, a run whose CPI trace raises no anomaly
/// is recorded as [`NOT_DETECTED`] (a recall miss) — the paper's pipeline
/// only diagnoses after the detector fires.
pub fn evaluate(
    trained: &TrainedSystem,
    runner: &Runner,
    workload: WorkloadType,
    faults: &[FaultType],
    test_runs: usize,
    first_test_index: usize,
    gate_on_detection: bool,
) -> ConfusionMatrix {
    let mut confusion = ConfusionMatrix::new();
    for &fault in faults {
        for k in 0..test_runs {
            let run_idx = first_test_index + k;
            let r = runner.fault_run(workload, fault, run_idx);
            let trace = &r.per_node[Runner::DEFAULT_FAULT_NODE];
            if gate_on_detection {
                let det = trained
                    .system
                    .detect(&trained.context, &trace.cpi.cpi_series())
                    .expect("model trained");
                if !det.is_anomalous() {
                    confusion.add(fault.name(), NOT_DETECTED);
                    continue;
                }
            }
            let window = r.fault_window().expect("fault window inside run");
            match trained.system.diagnose(&trained.context, &window) {
                Ok(d) => {
                    let predicted = d
                        .root_cause()
                        .map_or(NOT_DETECTED.to_string(), |c| c.problem.clone());
                    confusion.add(fault.name(), &predicted);
                }
                Err(_) => confusion.add(fault.name(), NOT_DETECTED),
            }
        }
    }
    confusion
}

/// The fault set of a workload: all 15 for interactive, 14 for batch
/// (Overload cannot happen under FIFO).
pub fn faults_for(workload: WorkloadType) -> Vec<FaultType> {
    FaultType::ALL
        .iter()
        .copied()
        .filter(|f| !f.interactive_only() || !workload.is_batch())
        .collect()
}
