//! Resilience-layer costs: the deadline-bounded sweep under a 5 ms budget
//! on the paper's 26×120 workload, and the signature-database guard access
//! versus the deep clone it replaces — the numbers behind EXPERIMENTS.md.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use ix_core::{Engine, OperationContext, SweepBudget};
use ix_metrics::MetricFrame;
use ix_simulator::{FaultType, Runner, WorkloadType};

/// A trained engine and two abnormal 26×120 windows to diagnose, from
/// different incident runs (neither is a slide of the other).
fn trained() -> (Engine, OperationContext, [MetricFrame; 2]) {
    let runner = Runner::new(11);
    let node = Runner::DEFAULT_FAULT_NODE;
    let workload = WorkloadType::Wordcount;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let engine = Engine::builder().build();

    let normals = runner.normal_runs(workload, 4);
    let cpi_traces: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    engine
        .train_performance_model(context.clone(), &cpi_traces)
        .expect("train");
    let frames: Vec<_> = normals
        .iter()
        .map(|r| {
            let f = &r.per_node[node].frame;
            f.window(30..75.min(f.ticks()))
        })
        .collect();
    engine
        .build_invariants(context.clone(), &frames)
        .expect("invariants");
    for fault in [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog] {
        for run_idx in 0..2 {
            let r = runner.fault_run(workload, fault, run_idx);
            engine
                .record_signature(&context, fault.name(), &r.fault_window().expect("window"))
                .expect("signature");
        }
    }

    let windows = [9, 10].map(|run_idx| {
        runner
            .fault_run(workload, FaultType::MemHog, run_idx)
            .fault_window()
            .expect("fault window")
    });
    (engine, context, windows)
}

fn bench_resilience(c: &mut Criterion) {
    // The diagnose benches alternate between two incident windows that
    // are not slides of each other, so every iteration pays for (or
    // abandons) a real sweep instead of rescoring the context's record.
    let (engine, context, windows) = trained();
    let turn = std::cell::Cell::new(0);
    let next_window = || {
        turn.set(turn.get() ^ 1);
        &windows[turn.get()]
    };

    c.bench_function("diagnose_unlimited_budget", |b| {
        b.iter(|| {
            let window = next_window();
            let d = engine
                .diagnose_with_budget(black_box(&context), window, SweepBudget::UNLIMITED)
                .expect("diagnose");
            assert!(d.degradation.is_none(), "unlimited budget never degrades");
            d
        })
    });

    // The acceptance bar: a 5 ms budget must come back within 2× the
    // budget via a *declared* fallback tier whenever full fidelity cannot
    // fit. The assert keeps the measured path honest about which case ran.
    c.bench_function("diagnose_budget_5ms", |b| {
        b.iter(|| {
            let window = next_window();
            let started = std::time::Instant::now();
            let d = engine
                .diagnose_with_budget(&context, black_box(window), SweepBudget::wall_millis(5))
                .expect("diagnose");
            let elapsed = started.elapsed();
            assert!(
                d.degradation.is_some() || elapsed.as_millis() <= 5,
                "an over-budget sweep must declare its fallback tier"
            );
            d
        })
    });

    // Tier 1 path: the context's sweep record answers a *fresh* window
    // from its stale matrix without sweeping at all.
    let (warm, warm_ctx, [warm_window, _]) = trained();
    warm.diagnose_with_budget(&warm_ctx, &warm_window, SweepBudget::UNLIMITED)
        .expect("write the record");
    let runner = Runner::new(11);
    let fresh = runner
        .fault_run(WorkloadType::Wordcount, FaultType::MemHog, 12)
        .fault_window()
        .expect("window");
    c.bench_function("diagnose_budget_5ms_cached_tier", |b| {
        b.iter(|| {
            warm.diagnose_with_budget(&warm_ctx, black_box(&fresh), SweepBudget::wall_millis(5))
                .expect("diagnose")
        })
    });

    // Guard access vs the deep clone it replaced: reading one field out of
    // the signature database.
    c.bench_function("signature_db_clone_len", |b| {
        b.iter(|| {
            let db = engine.signature_database();
            black_box(db.len())
        })
    });
    c.bench_function("signature_db_guard_len", |b| {
        b.iter(|| engine.with_signature_database(|db| black_box(db.len())))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_resilience
}
criterion_main!(benches);
