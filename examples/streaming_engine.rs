//! Streaming diagnosis with the layered engine: one CPI sample and one
//! 26-metric row per tick, the way a live collectl/perf exporter feeds a
//! monitoring daemon.
//!
//! 1. simulate normal Wordcount runs and train the engine offline;
//! 2. replay a fault run tick by tick through `Engine::ingest`;
//! 3. watch the detection fire at the anomaly onset, get the ranked
//!    diagnosis from the sliding window, and dump the telemetry report
//!    (per-context counters plus sweep/diagnosis latency quantiles).
//!
//! ```text
//! cargo run --release --example streaming_engine
//! ```

use invarnet_x::core::{DetectionResult, Engine, InvarNetConfig, OperationContext, Telemetry};
use invarnet_x::metrics::MetricFrame;
use invarnet_x::simulator::{FaultType, Runner, WorkloadType};

fn main() {
    let workload = WorkloadType::Wordcount;
    let runner = Runner::new(7);
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());

    // ---------------------------------------------------------- offline --
    println!("== offline training for context {context} ==");
    let telemetry = Telemetry::shared();
    let engine = Engine::builder()
        .config(InvarNetConfig {
            window_ticks: runner.fault_duration_ticks,
            ..InvarNetConfig::default()
        })
        .observe(&telemetry)
        .build();

    let normals = runner.normal_runs(workload, 6);
    let cpi_traces: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    engine
        .train_performance_model(context.clone(), &cpi_traces)
        .expect("train ARIMA on CPI");

    // Invariants on windows shaped like the online sliding window.
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
    engine
        .build_invariants(context.clone(), &frames)
        .expect("Algorithm 1");
    println!(
        "detector: {}   invariants kept: {}/325   shards: {}   sweep workers: {}",
        engine.detector(&context).expect("trained").name(),
        engine.invariant_set(&context).expect("built").len(),
        engine.state_shards(),
        engine.threads(),
    );

    // Training signatures: two runs per investigated fault.
    for fault in [
        FaultType::CpuHog,
        FaultType::MemHog,
        FaultType::DiskHog,
        FaultType::NetDrop,
        FaultType::Suspend,
    ] {
        for k in 0..2 {
            let run = runner.fault_run(workload, fault, 100 + k);
            engine
                .record_signature(
                    &context,
                    fault.name(),
                    &run.fault_window().expect("fault window"),
                )
                .expect("record signature");
        }
    }
    println!(
        "signatures recorded: {}",
        engine.with_signature_database(|db| db.len())
    );

    // ----------------------------------------------------------- online --
    // A fresh Mem-hog run, streamed tick by tick as it would arrive live.
    let fault = FaultType::MemHog;
    let live = runner.fault_run(workload, fault, 7);
    let cpi = live.per_node[node].cpi.cpi_series();
    let metrics = &live.per_node[node].frame;
    println!(
        "\n== streaming a fresh {} run, {} ticks ==",
        fault.name(),
        cpi.len()
    );

    let mut decisions = Vec::with_capacity(cpi.len());
    for (t, &sample) in cpi.iter().enumerate() {
        let out = engine
            .ingest(&context, sample, metrics.tick(t))
            .expect("ingest tick");
        decisions.push(out.decision());
        if let Some(diagnosis) = out.diagnosis {
            println!(
                "tick {:3}: anomaly onset (residual {:.4} > threshold), diagnosing...",
                out.tick, out.residual
            );
            for (i, c) in diagnosis.ranked.iter().take(3).enumerate() {
                println!(
                    "   {}. {:10} similarity {:.3}",
                    i + 1,
                    c.problem,
                    c.similarity
                );
            }
            let verdict = diagnosis.root_cause().map(|c| c.problem.as_str());
            println!(
                "   injected: {}   diagnosed: {}   {}",
                fault.name(),
                verdict.unwrap_or("<none>"),
                if verdict == Some(fault.name()) {
                    "✓"
                } else {
                    "✗"
                },
            );
        }
    }

    let threshold = engine.detector(&context).expect("trained").threshold();
    let detection = DetectionResult::from_decisions(decisions, threshold);
    println!(
        "\nrun summary: first anomaly at {:?}, {} anomalous ticks",
        detection.first_anomaly,
        detection.anomalies.iter().filter(|&&a| a).count(),
    );
    let snapshot = telemetry.snapshot();
    println!(
        "telemetry: {} ticks, {} detections, {} diagnoses, {} sweeps ({} pairs scored)",
        snapshot.total.ticks,
        snapshot.total.detections,
        snapshot.total.diagnoses,
        snapshot.total.sweeps,
        snapshot.total.pairs_scored,
    );
    println!("\n== engine telemetry ==\n{}", snapshot.render_report());
}
