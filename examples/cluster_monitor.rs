//! Centralized cluster monitor — the paper's Fig. 3 architecture as a
//! running loop: one InvarNet-X instance holds per-context models for every
//! (workload, node) pair; jobs arrive, CPI is scored online, and cause
//! inference fires only when the detector does.
//!
//! ```text
//! cargo run --release --example cluster_monitor
//! ```

use invarnet_x::core::{Engine, InvarNetConfig, OperationContext, Telemetry};
use invarnet_x::metrics::MetricFrame;
use invarnet_x::simulator::{FaultType, Runner, WorkloadType};

fn main() {
    let runner = Runner::new(99);
    let node = Runner::DEFAULT_FAULT_NODE;
    let workloads = [
        WorkloadType::Wordcount,
        WorkloadType::Sort,
        WorkloadType::TpcDs,
    ];
    let known_faults = [
        FaultType::CpuHog,
        FaultType::MemHog,
        FaultType::DiskHog,
        FaultType::NetDrop,
        FaultType::Suspend,
    ];

    // ---- offline: train one context per workload on the observed node ----
    let telemetry = Telemetry::shared();
    let system = Engine::builder()
        .config(InvarNetConfig::default())
        .observe(&telemetry)
        .build();
    println!("== training contexts ==");
    for &workload in &workloads {
        let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
        let normals = runner.normal_runs(workload, 5);
        let cpi: Vec<Vec<f64>> = normals
            .iter()
            .map(|r| r.per_node[node].cpi.cpi_series())
            .collect();
        system
            .train_performance_model(context.clone(), &cpi)
            .expect("CPI model");
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
            .expect("invariants");
        for &fault in &known_faults {
            if fault.interactive_only() && workload.is_batch() {
                continue;
            }
            for idx in 0..2 {
                let r = runner.fault_run(workload, fault, idx);
                system
                    .record_signature(&context, fault.name(), &r.fault_window().expect("window"))
                    .expect("signature");
            }
        }
        println!(
            "  {context}: {} invariants, ARIMA {}",
            system.invariant_set(&context).expect("built").len(),
            system.performance_model(&context).expect("trained").spec()
        );
    }

    // ---- online: a stream of jobs, some of them sick -------------------
    println!("\n== monitoring a job stream ==");
    let schedule: [(WorkloadType, Option<FaultType>); 6] = [
        (WorkloadType::Wordcount, None),
        (WorkloadType::Sort, Some(FaultType::DiskHog)),
        (WorkloadType::TpcDs, None),
        (WorkloadType::Wordcount, Some(FaultType::NetDrop)),
        (WorkloadType::TpcDs, Some(FaultType::Suspend)),
        (WorkloadType::Sort, None),
    ];
    for (job_id, &(workload, fault)) in schedule.iter().enumerate() {
        let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
        let run = match fault {
            Some(f) => runner.fault_run(workload, f, 40 + job_id),
            None => runner.normal_run(workload, 40 + job_id),
        };
        let cpi = run.per_node[node].cpi.cpi_series();
        // The diagnosis window: around the detection point (here: the
        // standard injection window for simplicity).
        let frame = &run.per_node[node].frame;
        let len = runner.fault_duration_ticks;
        let start = runner
            .fault_start_tick
            .min(frame.ticks().saturating_sub(len));
        let window = frame.window(start..(start + len).min(frame.ticks()));

        let (det, diagnosis) = system
            .process(&context, &cpi, &window)
            .expect("trained context");
        let truth = fault.map_or("healthy".to_string(), |f| f.name().to_string());
        match (det.first_anomaly, diagnosis) {
            (None, _) => println!("job {job_id} [{context}] OK        (truth: {truth})"),
            (Some(t), Some(d)) => {
                let cause = d.root_cause().expect("ranked");
                println!(
                    "job {job_id} [{context}] ANOMALY at tick {t} -> {} ({:.2})  (truth: {truth})",
                    cause.problem, cause.similarity
                );
            }
            (Some(t), None) => {
                println!(
                    "job {job_id} [{context}] ANOMALY at tick {t}, no diagnosis (truth: {truth})"
                )
            }
        }
    }

    // ---- what the monitor itself cost, per context ---------------------
    println!("\n== engine telemetry ==\n{}", telemetry.render_report());
}
