//! Telemetry overhead on the ingest hot path.
//!
//! Compares `Engine::ingest` with the default `NullSink` and with a full
//! `Telemetry` hub attached — the numbers behind the overhead budget in DESIGN.md §7 and EXPERIMENTS.md.
//! Sink-only costs are also measured in isolation (one `TickIngested`
//! event, one histogram record).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use ix_core::{
    ContextId, Engine, EngineEvent, EventSink, Histogram, InvarNetConfig, NullSink,
    OperationContext, Telemetry,
};
use ix_simulator::{Runner, WorkloadType};

/// A trained engine plus a normal run to replay through it. The closure
/// customizes the [`ix_core::EngineBuilder`] (event sink, telemetry) before
/// the engine is built.
fn trained_engine(
    wire: impl FnOnce(ix_core::EngineBuilder) -> ix_core::EngineBuilder,
) -> (Engine, OperationContext, Vec<f64>, ix_metrics::MetricFrame) {
    let runner = Runner::new(11);
    let node = Runner::DEFAULT_FAULT_NODE;
    let workload = WorkloadType::Wordcount;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let engine = wire(Engine::builder().config(InvarNetConfig::default())).build();

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

    let live = runner.normal_run(workload, 50);
    let cpi = live.per_node[node].cpi.cpi_series();
    let frame = live.per_node[node].frame.clone();
    (engine, context, cpi, frame)
}

/// Replays the whole normal run through `Engine::ingest` once.
fn replay(
    engine: &Engine,
    context: &OperationContext,
    cpi: &[f64],
    frame: &ix_metrics::MetricFrame,
) {
    engine.reset_run(context);
    for (t, &sample) in cpi.iter().enumerate() {
        engine
            .ingest(context, sample, frame.tick(t))
            .expect("ingest");
    }
}

fn bench_telemetry(c: &mut Criterion) {
    // Ingest hot path under each sink. A normal run fires no detections,
    // so the difference is pure per-tick event cost.
    let (engine, context, cpi, frame) = trained_engine(|b| b);
    c.bench_function("ingest_run_null_sink", |b| {
        b.iter(|| replay(black_box(&engine), &context, &cpi, &frame))
    });

    let hub = Telemetry::shared();
    let (engine, context, cpi, frame) = trained_engine(|b| b.telemetry(&hub));
    c.bench_function("ingest_run_full_telemetry", |b| {
        b.iter(|| replay(black_box(&engine), &context, &cpi, &frame))
    });

    // Sink-only costs, no engine around them.
    let telemetry = Telemetry::new();
    let id = telemetry
        .contexts()
        .intern(&OperationContext::new("10.0.0.2", "Wordcount"));
    let event = EngineEvent::TickIngested {
        context: id,
        tick: 1,
        residual: 0.25,
        exceeded: false,
        micros: 3,
    };
    c.bench_function("record_tick_null_sink", |b| {
        b.iter(|| NullSink.record(black_box(&event)))
    });
    c.bench_function("record_tick_telemetry", |b| {
        b.iter(|| telemetry.record(black_box(&event)))
    });
    c.bench_function("record_tick_unattributed", |b| {
        let event = EngineEvent::TickIngested {
            context: ContextId::UNATTRIBUTED,
            tick: 1,
            residual: 0.25,
            exceeded: false,
            micros: 3,
        };
        b.iter(|| telemetry.record(black_box(&event)))
    });

    let histogram = Histogram::new();
    c.bench_function("histogram_record", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(997);
            histogram.record(black_box(v));
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_telemetry
}
criterion_main!(benches);
