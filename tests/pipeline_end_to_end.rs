//! End-to-end integration: the full offline→online pipeline over the
//! simulator, across crates (simulator → metrics → core).

use invarnet_x::core::{Engine, OperationContext};
use invarnet_x::metrics::MetricFrame;
use invarnet_x::simulator::{FaultType, Runner, WorkloadType};

struct Setup {
    runner: Runner,
    system: Engine,
    context: OperationContext,
    workload: WorkloadType,
}

fn train_system(workload: WorkloadType, seed: u64, faults: &[FaultType]) -> Setup {
    let runner = Runner::new(seed);
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let system = Engine::builder().build();

    let normals = runner.normal_runs(workload, 5);
    let cpi: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    system
        .train_performance_model(context.clone(), &cpi)
        .expect("ARIMA training");

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
        .expect("invariant construction");

    for &fault in faults {
        for run_idx in 0..2 {
            let r = runner.fault_run(workload, fault, run_idx);
            system
                .record_signature(&context, fault.name(), &r.fault_window().expect("window"))
                .expect("signature");
        }
    }
    Setup {
        runner,
        system,
        context,
        workload,
    }
}

#[test]
fn distinct_resource_hogs_are_diagnosed_correctly() {
    let faults = [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog];
    let s = train_system(WorkloadType::Wordcount, 101, &faults);
    for fault in faults {
        for run_idx in 3..6 {
            let r = s.runner.fault_run(s.workload, fault, run_idx);
            let d = s
                .system
                .diagnose(&s.context, &r.fault_window().expect("window"))
                .expect("diagnosis");
            assert_eq!(
                d.root_cause().expect("non-empty ranking").problem,
                fault.name(),
                "run {run_idx}"
            );
        }
    }
}

#[test]
fn detection_fires_during_faults_and_stays_quiet_otherwise() {
    let s = train_system(WorkloadType::Wordcount, 102, &[FaultType::CpuHog]);
    let node = Runner::DEFAULT_FAULT_NODE;

    // Fault runs: anomaly within (or shortly after) the injection window.
    for run_idx in 3..6 {
        let r = s.runner.fault_run(s.workload, FaultType::CpuHog, run_idx);
        let det = s
            .system
            .detect(&s.context, &r.per_node[node].cpi.cpi_series())
            .expect("model trained");
        let first = det.first_anomaly.expect("fault must be detected");
        assert!(
            first >= s.runner.fault_start_tick
                && first <= s.runner.fault_start_tick + s.runner.fault_duration_ticks,
            "anomaly at {first}, window starts at {}",
            s.runner.fault_start_tick
        );
    }

    // Fresh normal runs: no anomaly.
    for run_idx in 50..54 {
        let r = s.runner.normal_run(s.workload, run_idx);
        let det = s
            .system
            .detect(&s.context, &r.per_node[node].cpi.cpi_series())
            .expect("model trained");
        assert!(
            !det.is_anomalous(),
            "false alarm at {:?} in run {run_idx}",
            det.first_anomaly
        );
    }
}

#[test]
fn suspend_produces_mass_violations_and_is_unambiguous() {
    let faults = [FaultType::Suspend, FaultType::CpuHog, FaultType::NetDrop];
    let s = train_system(WorkloadType::Wordcount, 103, &faults);
    for run_idx in 3..7 {
        let r = s.runner.fault_run(s.workload, FaultType::Suspend, run_idx);
        let d = s
            .system
            .diagnose(&s.context, &r.fault_window().expect("window"))
            .expect("diagnosis");
        // "These two faults can cause a large number of violations of
        // invariants which makes them easily distinguished".
        assert!(
            d.tuple.violation_count() * 2 > d.tuple.len(),
            "Suspend should violate most invariants ({} of {})",
            d.tuple.violation_count(),
            d.tuple.len()
        );
        assert_eq!(d.root_cause().expect("ranking").problem, "Suspend");
    }
}

#[test]
fn normal_windows_produce_few_violations() {
    let s = train_system(WorkloadType::Wordcount, 104, &[FaultType::CpuHog]);
    let node = Runner::DEFAULT_FAULT_NODE;
    for run_idx in 60..64 {
        let r = s.runner.normal_run(s.workload, run_idx);
        let frame = &r.per_node[node].frame;
        let len = s.runner.fault_duration_ticks;
        let start = s
            .runner
            .fault_start_tick
            .min(frame.ticks().saturating_sub(len));
        let w = frame.window(start..(start + len).min(frame.ticks()));
        let tuple = s.system.violation_tuple(&s.context, &w).expect("tuple");
        let rate = tuple.violation_count() as f64 / tuple.len().max(1) as f64;
        assert!(
            rate < 0.1,
            "normal window violates {:.0}% of invariants",
            rate * 100.0
        );
    }
}

#[test]
fn diagnosis_is_deterministic_given_seeds() {
    let faults = [FaultType::MemHog, FaultType::DiskHog];
    let a = train_system(WorkloadType::Sort, 105, &faults);
    let b = train_system(WorkloadType::Sort, 105, &faults);
    let run_a = a.runner.fault_run(a.workload, FaultType::MemHog, 4);
    let run_b = b.runner.fault_run(b.workload, FaultType::MemHog, 4);
    let d_a = a
        .system
        .diagnose(&a.context, &run_a.fault_window().expect("window"))
        .expect("diagnosis");
    let d_b = b
        .system
        .diagnose(&b.context, &run_b.fault_window().expect("window"))
        .expect("diagnosis");
    assert_eq!(d_a.ranked, d_b.ranked);
    assert_eq!(d_a.tuple, d_b.tuple);
}

#[test]
fn interactive_workload_supports_overload_diagnosis() {
    let faults = [FaultType::Overload, FaultType::Suspend, FaultType::CpuHog];
    let s = train_system(WorkloadType::TpcDs, 106, &faults);
    let mut correct = 0;
    for run_idx in 3..7 {
        let r = s.runner.fault_run(s.workload, FaultType::Overload, run_idx);
        let d = s
            .system
            .diagnose(&s.context, &r.fault_window().expect("window"))
            .expect("diagnosis");
        if d.root_cause().expect("ranking").problem == "Overload" {
            correct += 1;
        }
    }
    assert!(correct >= 3, "Overload diagnosed {correct}/4");
}

#[test]
fn signature_conflict_detector_flags_the_net_faults() {
    use invarnet_x::core::Similarity;
    let faults = [
        FaultType::NetDrop,
        FaultType::NetDelay,
        FaultType::CpuHog,
        FaultType::MemHog,
    ];
    let s = train_system(WorkloadType::Wordcount, 107, &faults);
    let conflicts = s
        .system
        .with_signature_database(|db| db.conflicts(&s.context, Similarity::Cosine, 0.85))
        .expect("consistent tuples");
    // The deliberate Net-drop/Net-delay conflict must surface; the
    // resource hogs must not conflict with each other at this bar.
    assert!(
        conflicts
            .iter()
            .any(|(a, b, _)| a == "Net-delay" && b == "Net-drop"),
        "net conflict missing: {conflicts:?}"
    );
    assert!(
        !conflicts
            .iter()
            .any(|(a, b, _)| a == "CPU-hog" && b == "Mem-hog"),
        "hogs should not conflict: {conflicts:?}"
    );
}

#[test]
fn concurrent_faults_surface_in_top_causes() {
    use invarnet_x::simulator::{simulate, FaultInjection, RunConfig};
    let faults = [FaultType::CpuHog, FaultType::NetDrop, FaultType::MemHog];
    let s = train_system(WorkloadType::Wordcount, 108, &faults);
    let node = Runner::DEFAULT_FAULT_NODE;
    let inj = |fault| FaultInjection {
        fault,
        node,
        start_tick: s.runner.fault_start_tick,
        duration_ticks: s.runner.fault_duration_ticks,
    };
    let mut hits = 0;
    for k in 0..4u64 {
        let mut cfg = RunConfig::new(s.workload, 5000 + k);
        cfg.nodes = s.runner.nodes.clone();
        cfg.fault = Some(inj(FaultType::MemHog));
        cfg.extra_faults.push(inj(FaultType::NetDrop));
        let r = simulate(&cfg);
        let d = s
            .system
            .diagnose(&s.context, &r.fault_window().expect("window"))
            .expect("diagnosis");
        let top2: Vec<&str> = d
            .top_causes(2, 0.0)
            .iter()
            .map(|c| c.problem.as_str())
            .collect();
        if top2.contains(&"Mem-hog") && top2.contains(&"Net-drop") {
            hits += 1;
        }
    }
    assert!(hits >= 2, "both causes in top-2 for only {hits}/4 runs");
}
