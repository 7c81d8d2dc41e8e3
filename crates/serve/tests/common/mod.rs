//! The trained tenant the serving tests share.

use std::sync::{Arc, OnceLock};

use ix_core::{Engine, InvarNetConfig, ModelStore, OperationContext};
use ix_serve::{Fleet, TenantId};
use ix_simulator::{FaultType, Runner, WorkloadType};

/// Trained-once template: the model store every tenant starts from, the
/// context it covers, and the live Mem-hog run's `(cpi, row)` ticks.
pub struct Template {
    pub store: ModelStore,
    pub context: OperationContext,
    pub ticks: Vec<(f64, Vec<f64>)>,
}

/// The template, trained on first use.
pub fn template() -> &'static Template {
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
        for fault in [FaultType::CpuHog, FaultType::MemHog] {
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

/// A fleet holding one warm tenant loaded with the template's models.
pub fn started_fleet(tenant: &TenantId) -> Arc<Fleet> {
    let t = template();
    let fleet = Arc::new(Fleet::builder().build());
    fleet
        .with_engine(tenant, |e| e.load_state(&t.store))
        .expect("materialize")
        .expect("load");
    fleet
}
