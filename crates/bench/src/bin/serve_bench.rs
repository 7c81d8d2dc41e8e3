//! Fleet-scale serving benchmark: can one box hold 100k tenants at the
//! paper's 10-second cadence? Printed as JSON (redirect to
//! `BENCH_serve.json`).
//!
//! One engine is trained once on simulator data; its model store seeds
//! every synthetic tenant (1 hot context each). Three phases:
//!
//! - **cadence rounds** — every tenant ingests one tick per round
//!   through the [`Fleet`] surface; a round must finish well inside the
//!   10 s cadence budget, and per-ingest latencies give the p99.
//! - **wire sample** — a smaller batch of ticks crosses a real
//!   loopback `IXSRV01` TCP server for end-to-end frame latency.
//! - **cold→warm cycle** — a sample of tenants is force-evicted to
//!   snapshots and warmed back, timing each warm.
//!
//! ```bash
//! cargo run --release -p ix-bench --bin serve_bench > BENCH_serve.json
//! cargo run --release -p ix-bench --bin serve_bench -- --quick   # CI smoke
//! ```

use std::sync::Arc;
use std::time::Instant;

use ix_core::{Engine, InvarNetConfig, OperationContext};
use ix_serve::{Fleet, ServeClient, ServerHandle, TenantId};
use ix_simulator::{FaultType, Runner, WorkloadType};

/// Tenants in the full run (the ISSUE's fleet-scale floor).
const FULL_TENANTS: usize = 100_000;
/// Tenants in `--quick` CI smoke mode.
const QUICK_TENANTS: usize = 2_000;
/// Cadence rounds (one tick per tenant per round).
const ROUNDS: usize = 3;
/// Ticks crossing the TCP server for frame-latency sampling.
const WIRE_SAMPLE: usize = 2_000;
/// Tenants force-evicted and warmed for cold→warm timing.
const WARM_SAMPLE: usize = 100;

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry = ix_bench::telemetry::strip_flag(&mut args);
    let quick = args.iter().any(|a| a == "--quick");
    let tenants = if quick { QUICK_TENANTS } else { FULL_TENANTS };
    if telemetry {
        ix_bench::telemetry::enable();
    }

    // Train one template engine; its store seeds every tenant.
    let runner = Runner::new(11);
    let node = Runner::DEFAULT_FAULT_NODE;
    let workload = WorkloadType::Wordcount;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let template = Engine::builder().config(InvarNetConfig::default()).build();
    let normals = runner.normal_runs(workload, 4);
    let cpi_traces: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    template
        .train_performance_model(context.clone(), &cpi_traces)
        .expect("train detector");
    let frames: Vec<_> = normals
        .iter()
        .map(|r| {
            let f = &r.per_node[node].frame;
            f.window(30..75.min(f.ticks()))
        })
        .collect();
    template
        .build_invariants(context.clone(), &frames)
        .expect("build invariants");
    let fault = runner.fault_run(workload, FaultType::MemHog, 0);
    template
        .record_signature(
            &context,
            FaultType::MemHog.name(),
            &fault.fault_window().expect("window"),
        )
        .expect("record signature");
    let store = template.snapshot_state();

    // Normal-phase tick stream every tenant replays (anomaly-free so
    // rounds measure the steady-state ingest path, not diagnosis sweeps).
    let normal = &normals[0];
    let cpi = normal.per_node[node].cpi.cpi_series();
    let frame = &normal.per_node[node].frame;
    let ticks: Vec<(f64, Vec<f64>)> = (0..frame.ticks().min(cpi.len()))
        .map(|t| (cpi[t], frame.tick(t).to_vec()))
        .collect();

    // Lean per-tenant engines: one context each, no sharding fan-out.
    let config = InvarNetConfig {
        state_shards: 1,
        ..InvarNetConfig::default()
    };
    let fleet = Arc::new(
        Fleet::builder()
            .config(config)
            .warm_limit(tenants)
            .run_tail_cap(ROUNDS + 1)
            .build(),
    );

    // Materialize every tenant warm with the trained template state.
    let ids: Vec<TenantId> = (0..tenants)
        .map(|i| TenantId::new(format!("t{i}")).expect("valid"))
        .collect();
    let setup_start = Instant::now();
    for id in &ids {
        fleet
            .with_engine(id, |e| e.load_state(&store))
            .expect("materialize")
            .expect("load");
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    // Cadence rounds: one tick for every tenant per round.
    let mut ingest_us: Vec<u64> = Vec::with_capacity(tenants * ROUNDS);
    let mut round_s: Vec<f64> = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (tick_cpi, tick_row) = &ticks[round % ticks.len()];
        let round_start = Instant::now();
        for id in &ids {
            let t = Instant::now();
            fleet
                .ingest(id, &context, *tick_cpi, tick_row)
                .expect("ingest");
            ingest_us.push(t.elapsed().as_micros() as u64);
        }
        round_s.push(round_start.elapsed().as_secs_f64());
    }
    ingest_us.sort_unstable();
    let total_ticks = (tenants * ROUNDS) as f64;
    let total_s: f64 = round_s.iter().sum();
    let worst_round_s = round_s.iter().cloned().fold(0.0, f64::max);

    // Wire sample: frame latency through a real TCP server.
    let server = ServerHandle::builder()
        .accept_threads(1)
        .start(Arc::clone(&fleet))
        .expect("start server");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let mut frame_us: Vec<u64> = Vec::with_capacity(WIRE_SAMPLE);
    for i in 0..WIRE_SAMPLE {
        let id = &ids[i % ids.len()];
        let (tick_cpi, tick_row) = &ticks[(ROUNDS + i / ids.len()) % ticks.len()];
        let t = Instant::now();
        client
            .ingest(id, &context.node, &context.workload, *tick_cpi, tick_row)
            .expect("wire ingest");
        frame_us.push(t.elapsed().as_micros() as u64);
    }
    server.stop();
    frame_us.sort_unstable();

    // Cold→warm cycle on a tenant sample.
    let sample = WARM_SAMPLE.min(tenants);
    let mut warm_us: Vec<u64> = Vec::with_capacity(sample);
    let mut snapshot_bytes = 0usize;
    for id in ids.iter().take(sample) {
        snapshot_bytes = fleet.snapshot_bytes(id).expect("snapshot").len();
        fleet.evict(id).expect("evict");
        warm_us.push(fleet.warm(id).expect("warm"));
    }
    warm_us.sort_unstable();

    let status = fleet.status();
    println!("{{");
    println!("  \"bench\": \"serve_fleet\",");
    println!("  \"mode\": \"{}\",", if quick { "quick" } else { "full" });
    println!("  \"tenants\": {tenants},");
    println!("  \"rounds\": {ROUNDS},");
    println!("  \"cadence_budget_s\": 10.0,");
    println!("  \"results\": {{");
    println!("    \"setup_s\": {setup_s:.2},");
    println!(
        "    \"ingest_throughput_ticks_per_s\": {:.0},",
        total_ticks / total_s
    );
    println!("    \"worst_round_s\": {worst_round_s:.3},");
    println!("    \"cadence_sustained\": {},", worst_round_s < 10.0);
    println!("    \"ingest_p50_us\": {},", percentile(&ingest_us, 50.0));
    println!("    \"ingest_p99_us\": {},", percentile(&ingest_us, 99.0));
    println!("    \"frame_p50_us\": {},", percentile(&frame_us, 50.0));
    println!("    \"frame_p99_us\": {},", percentile(&frame_us, 99.0));
    println!("    \"wire_frames\": {WIRE_SAMPLE},");
    println!("    \"cold_warm_p50_us\": {},", percentile(&warm_us, 50.0));
    println!("    \"cold_warm_p99_us\": {},", percentile(&warm_us, 99.0));
    println!(
        "    \"cold_warm_max_us\": {},",
        warm_us.last().copied().unwrap_or(0)
    );
    println!("    \"warm_cycles\": {sample},");
    println!("    \"snapshot_bytes\": {snapshot_bytes},");
    println!("    \"fleet_evictions\": {},", status.evictions);
    println!("    \"fleet_health\": \"{}\"", status.health);
    println!("  }}");
    println!("}}");
}
