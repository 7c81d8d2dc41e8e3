//! Signature-database explorer: builds invariants and signatures for every
//! batch fault, prints which invariant pairs each fault violates (the
//! "hints" the paper hands to administrators for unknown problems), and
//! persists the trained state as a JSON model store.
//!
//! ```text
//! cargo run --release --example signature_explorer
//! ```

use invarnet_x::core::{Engine, OperationContext};
use invarnet_x::metrics::MetricFrame;
use invarnet_x::simulator::{FaultType, Runner, WorkloadType};

fn main() {
    let workload = WorkloadType::Sort;
    let runner = Runner::new(33);
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());

    let system = Engine::builder().build();
    let normals = runner.normal_runs(workload, 6);
    let window = |frame: &MetricFrame| {
        let len = runner.fault_duration_ticks;
        let start = runner
            .fault_start_tick
            .min(frame.ticks().saturating_sub(len));
        frame.window(start..(start + len).min(frame.ticks()))
    };
    let frames: Vec<MetricFrame> = normals
        .iter()
        .map(|r| window(&r.per_node[node].frame))
        .collect();
    system
        .build_invariants(context.clone(), &frames)
        .expect("Algorithm 1");
    let cpi: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    system
        .train_performance_model(context.clone(), &cpi)
        .expect("ARIMA");

    let invariants = system.invariant_set(&context).expect("built");
    println!(
        "invariants for {context}: {} of 325 pairs\n",
        invariants.len()
    );

    // One signature per batch fault; show its most-violated pairs.
    for fault in FaultType::ALL.iter().filter(|f| !f.interactive_only()) {
        let r = runner.fault_run(workload, *fault, 0);
        let w = r.fault_window().expect("window");
        let tuple = system.violation_tuple(&context, &w).expect("tuple");
        system
            .record_signature(&context, fault.name(), &w)
            .expect("record");

        let mut violated: Vec<(f64, usize)> = tuple
            .graded()
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.0)
            .map(|(k, &v)| (v, k))
            .collect();
        violated.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
        let top: Vec<String> = violated
            .iter()
            .take(3)
            .map(|&(v, k)| {
                let (a, b) = invariants.metrics_of(k);
                format!("{a}~{b} ({v:.2})")
            })
            .collect();
        println!(
            "{:10} violations {:3}/{:3}  strongest: {}",
            fault.name(),
            tuple.violation_count(),
            tuple.len(),
            top.join(", ")
        );
    }

    // Persist everything the engine learned as one JSON model store.
    let store = system.snapshot_state();
    let json = store.to_json().expect("serialize store");
    println!(
        "\nJSON model store ({} bytes): {} models, {} invariant sets, {} signatures",
        json.len(),
        store.performance_models.len(),
        store.invariants.len(),
        store.signatures.len()
    );
}
