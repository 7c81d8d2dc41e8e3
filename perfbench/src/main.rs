//! End-to-end and per-layer benchmark of the InvarNet-X fleet serving
//! path, per tick and per diagnosis.
//!
//! One closed-loop client drives an `IXSRV01` server (one accept thread,
//! one sweep worker, all on one CPU: see `cpu`) over loopback TCP, one
//! tenant tick at a time, the way a fleet of monitored platforms reports
//! at the paper's 10-second cadence. The two workloads load different
//! layers of the same path:
//!
//! - `fleet_ticks`: every active tenant stays warm and replays fault-free
//!   jobs, so a tick costs frame decode, fleet lookup, the detector step
//!   and the window append, and never triggers a diagnosis.
//! - `platform_incidents`: every tenant replays jobs with an injected
//!   fault, and its operator asks for a diagnosis after every fourth tick
//!   once the window is full: the window slides by four ticks between
//!   diagnoses, so they take the incremental profile slide, screen,
//!   confirm and rank. Diagnosing after every tick would leave the
//!   caches cold for every tick, and the median tick then moved by a
//!   quarter with the load other guests put on the host.
//!
//! In both the tenants report from eight simulated platforms, each
//! with its own trained template; a dormant (evicted) tenant wakes for one
//! tick now and then, and watched tenants are diagnosed at set points of
//! their jobs, so every layer is exercised on every workload. Tenants
//! start at evenly spread positions in their jobs, so the mix of job
//! positions is the same however long the run is.
//!
//! `--trace 0` reports the end-to-end metrics, each in CPU time of the
//! whole process (see `cpu` for why): the CPU a tick takes, over all
//! ticks and over the ticks that find their tenant evicted (the
//! cold-warm cost a tenant pays), the CPU a diagnosis takes, on demand or
//! at an anomaly onset inside a tick, ticks served per CPU second, and
//! set-up time (the median of several set-ups). The tick figures leave
//! out the ticks that trigger a diagnosis: how many of those a run meets
//! varies with the simulated faults, and they cost a hundred ticks each.
//! Every CPU time is reported at the pace of the run's quiet stretches and
//! scaled by a gauge of the host's pace (see `Tally::at_reference_pace`
//! and `gauge`): the host's other guests slowed the same requests by up
//! to 1.9x for seconds to minutes at a time. Tail percentiles, and the
//! figures as measured and by the wall clock, go to standard error only.
//! `--trace 1` runs the same schedule in-process through the same public
//! layers and reports the per-layer metrics (see `trace`).
//!
//! Every reply is checked against a reference engine fed the same ticks
//! in-process. The last line of standard output is the result object.
//!
//! ```bash
//! python3 perfbench/run.py --workload fleet_ticks --seed 1 --seconds 10 --trace 0
//! ```

mod cpu;
mod drive;
mod gauge;
mod inputs;
mod setup;
mod trace;

use std::sync::Arc;
use std::time::{Duration, Instant};

use ix_core::EventSink;
use ix_serve::{ServeClient, ServerHandle};

use crate::drive::{Samples, Tally};
use crate::gauge::Gauge;
use crate::inputs::Inputs;
use crate::setup::{Plan, Workload};
use crate::trace::{LayerSink, Traced};

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Set-ups per end-to-end run; `setup_s` is the median of their CPU
/// times, each at the reference host's pace.
const SETUP_REPEATS: usize = 3;

/// Schedule driven before measuring starts, so first-touch costs settle.
const WARMUP: Duration = Duration::from_secs(1);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds `{value}` is not a positive number"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}` is neither 0 nor 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    match cpu::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("perfbench: running on CPU {cpu} alone"),
        Err(e) => eprintln!("perfbench: not held to one CPU ({e}); figures will spread more"),
    }
    let plan = args.workload.plan();
    let started = Instant::now();
    let inputs = Inputs::generate(args.seed, &plan);
    eprintln!(
        "perfbench: inputs and reference in {:.2} s",
        started.elapsed().as_secs_f64()
    );
    let measure = Duration::from_secs_f64(args.seconds);
    let mut gauge = Gauge::new().expect("start the host gauge");
    let (tally, metrics) = if args.trace {
        traced(&inputs, &plan, args.seed, measure, &mut gauge)
    } else {
        timed(&inputs, &plan, args.seed, measure, &mut gauge)
    };
    let all = tally.all();
    eprintln!(
        "perfbench: {} ticks ({} cold) and {} diagnoses in {:.2} s; {} wrong, {} failed",
        all.ticks.cpu_ns.len(),
        all.cold_ticks.cpu_ns.len(),
        all.diagnoses.cpu_ns.len(),
        tally.measured_s,
        tally.wrong,
        tally.failed
    );
    print_result(&tally, &metrics);
}

/// The end-to-end run: set up `SETUP_REPEATS` times, keeping the last
/// fleet, then drive the schedule over loopback TCP. Every CPU time is
/// reported at the reference host's pace (see `gauge`): a set-up's by the
/// gauge measured right before and after it.
fn timed(
    inputs: &Inputs,
    plan: &Plan,
    seed: u64,
    measure: Duration,
    gauge: &mut Gauge,
) -> (Tally, Vec<Metric>) {
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, server, client)) = served.take() {
            drop(client);
            ServerHandle::stop(server);
        }
        let gauge_before = gauge.measure();
        let started = cpu::process_ns();
        let tenants = setup::build(inputs, plan, seed, None);
        let server = ServerHandle::builder()
            .accept_threads(1)
            .start(Arc::clone(&tenants.fleet))
            .expect("start the IXSRV01 server");
        let client = ServeClient::connect(server.addr()).expect("connect to the server");
        let spent_s = (cpu::process_ns() - started) as f64 / 1e9;
        let host_ns = (gauge_before + gauge.measure()) as f64 / 2.0;
        setup_raw_s.push(spent_s);
        setup_s.push(spent_s * gauge::REFERENCE_NS / host_ns);
        served = Some((tenants, server, client));
    }
    let (mut tenants, server, mut client) = served.expect("at least one set-up");
    let tally = drive::run(
        &mut client,
        gauge,
        &mut tenants,
        inputs,
        plan,
        WARMUP,
        measure,
    );
    drop(client);
    server.stop();

    let us = |sorted: &[u64], q: f64| quantile(sorted, q) / 1e3;
    let mut all = tally.all();
    let mut paced = tally.at_reference_pace();
    all.sort();
    paced.sort();
    let mut gauges: Vec<u64> = tally.blocks.iter().map(|b| b.gauge_ns).collect();
    gauges.sort_unstable();
    eprintln!(
        "perfbench: host gauge p50 {:.1} us over the window (reference {:.1} us)",
        quantile(&gauges, 0.5) / 1e3,
        gauge::REFERENCE_NS / 1e3
    );
    eprintln!("perfbench: set-ups took {setup_raw_s:.3?} CPU s as measured");
    eprintln!(
        "perfbench: wall clock: tick p50 {:.1} us, p90 {:.1} us, p99 {:.1} us; \
         cold tick p50 {:.1} us; diagnosis p50 {:.1} us; {:.1} ticks/s",
        us(&all.ticks.wall_ns, 0.50),
        us(&all.ticks.wall_ns, 0.90),
        us(&all.ticks.wall_ns, 0.99),
        us(&all.cold_ticks.wall_ns, 0.50),
        us(&all.diagnoses.wall_ns, 0.50),
        all.ticks.wall_ns.len() as f64 / tally.measured_s,
    );
    eprintln!(
        "perfbench: CPU as measured: tick p50 {:.1} us, p90 {:.1} us, p99 {:.1} us; \
         cold tick p50 {:.1} us; diagnosis p50 {:.1} us",
        us(&all.ticks.cpu_ns, 0.50),
        us(&all.ticks.cpu_ns, 0.90),
        us(&all.ticks.cpu_ns, 0.99),
        us(&all.cold_ticks.cpu_ns, 0.50),
        us(&all.diagnoses.cpu_ns, 0.50),
    );
    let (ticks, cold, diagnoses) = (&paced.ticks, &paced.cold_ticks, &paced.diagnoses);
    setup_s.sort_by(f64::total_cmp);
    let metrics = vec![
        ("tick_cpu_p50_us", us(&ticks.cpu_ns, 0.50), "us"),
        ("cold_tick_cpu_p50_us", us(&cold.cpu_ns, 0.50), "us"),
        ("diagnose_cpu_p50_us", us(&diagnoses.cpu_ns, 0.50), "us"),
        ("ticks_per_cpu_s", per_cpu_second(ticks), "1/s"),
        ("setup_s", setup_s[setup_s.len() / 2], "s"),
    ];
    (tally, metrics)
}

/// Requests served per second of process CPU time they took.
fn per_cpu_second(samples: &Samples) -> f64 {
    let cpu_ns: u64 = samples.cpu_ns.iter().sum();
    samples.cpu_ns.len() as f64 * 1e9 / cpu_ns as f64
}

/// The per-layer run: one set-up with the layer sink on the fleet, then
/// the same schedule carried through the layers in-process.
fn traced(
    inputs: &Inputs,
    plan: &Plan,
    seed: u64,
    measure: Duration,
    gauge: &mut Gauge,
) -> (Tally, Vec<Metric>) {
    let sink = Arc::new(LayerSink::default());
    let mut tenants = setup::build(
        inputs,
        plan,
        seed,
        Some(Arc::clone(&sink) as Arc<dyn EventSink>),
    );
    let mut transport = Traced::new(Arc::clone(&tenants.fleet), sink);
    let tally = drive::run(
        &mut transport,
        gauge,
        &mut tenants,
        inputs,
        plan,
        WARMUP,
        measure,
    );
    (tally, transport.metrics())
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize] as f64
}

fn print_result(tally: &Tally, metrics: &[Metric]) {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
}
