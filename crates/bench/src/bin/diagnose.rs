//! `diagnose` — an operational CLI around the InvarNet-X library.
//!
//! Works on CSV metric frames (the `MetricFrame::to_csv` format, i.e. what
//! a collectl exporter would produce) plus newline-separated CPI values:
//!
//! ```text
//! # offline: build a deployment file (an IXHIST01 model-store image)
//! # from normal runs + labeled incidents
//! diagnose train --out deployment.ixh \
//!     --context Wordcount@192.168.1.102 \
//!     --normal run1.csv --normal run2.csv --normal run3.csv \
//!     --cpi cpi1.txt --cpi cpi2.txt \
//!     --incident CPU-hog=hog_window.csv
//!
//! # online: score a fresh window
//! diagnose infer --deployment deployment.ixh \
//!     --context Wordcount@192.168.1.102 --window incident.csv \
//!     [--cpi live.txt] [--budget-ms 5]
//!
//! # demo mode: generate everything from the simulator
//! diagnose demo
//!
//! # query mode: record simulated runs in an ix-history store, then
//! # answer explanation / co-occurrence / counterfactual queries over it
//! diagnose query [--seed N] [--pin mem.used] [--save history.ixh]
//!
//! # replay mode: record a replayable trace, verify one bit-exactly
//! # against a fresh engine, or bisect two traces to the first divergence
//! diagnose replay --record trace.ixh [--seed N]
//! diagnose replay trace.ixh
//! diagnose replay a.ixh --bisect b.ixh
//!
//! # operator console over a recorded trace (see also the ix-top binary)
//! diagnose top trace.ixh [--headless] [--frames N] [--width N] [--speed X]
//!
//! # serve mode: an IXSRV01 fleet server on simulator-trained tenants,
//! # driven by a loopback client (hold it open to point fleet-status at)
//! diagnose serve [--addr HOST:PORT] [--tenants N] [--hold SECS]
//!
//! # operator view of a running serve endpoint (one Health frame)
//! diagnose fleet-status --addr HOST:PORT [--tenant ID]
//! ```
//!
//! Every subcommand accepts `--telemetry`: the run's engine work (sweeps,
//! diagnoses, signature matches) is recorded in an
//! [`ix_core::Telemetry`] hub and a per-context report with latency
//! quantiles is printed before exiting.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ix_core::{CoreError, Engine, InvarNetConfig, OperationContext, SweepBudget};
use ix_history::{load_model_store, save_model_store};
use ix_metrics::MetricFrame;

/// Renders a [`CoreError`] with every cause in its `source()` chain
/// named once, so an I/O or parse failure names the underlying cause. A
/// `CoreError`'s text already ends with its immediate source, so only a
/// cause no text so far names is appended.
fn render_error(e: CoreError) -> String {
    let mut out = e.to_string();
    let mut cause: Option<&dyn std::error::Error> = std::error::Error::source(&e);
    while let Some(c) = cause {
        let text = c.to_string();
        if !out.contains(&text) {
            out.push_str(": ");
            out.push_str(&text);
        }
        cause = c.source();
    }
    out
}

/// Builds an [`Engine`] from `config`, attaching the shared telemetry hub
/// when `--telemetry` was passed.
fn build_system(config: InvarNetConfig) -> Engine {
    let mut builder = Engine::builder().config(config);
    if let Some(t) = ix_bench::telemetry::active() {
        builder = builder.telemetry(&t);
    }
    builder.build()
}

fn read_frame(path: &Path) -> Result<MetricFrame, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    MetricFrame::from_csv(&text, 10.0).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_cpi(path: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.trim()
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("{}: bad CPI value {l:?}", path.display()))
        })
        .collect()
}

fn parse_context(s: &str) -> Result<OperationContext, String> {
    let (workload, node) = s
        .split_once('@')
        .ok_or_else(|| format!("context must be workload@node, got {s:?}"))?;
    Ok(OperationContext::new(node, workload))
}

fn train(args: &[String]) -> Result<(), String> {
    let mut out = PathBuf::from("deployment.ixh");
    let mut context = None;
    let mut normals: Vec<PathBuf> = Vec::new();
    let mut cpis: Vec<PathBuf> = Vec::new();
    let mut incidents: Vec<(String, PathBuf)> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--out" => out = PathBuf::from(next("--out")?),
            "--context" => context = Some(parse_context(&next("--context")?)?),
            "--normal" => normals.push(PathBuf::from(next("--normal")?)),
            "--cpi" => cpis.push(PathBuf::from(next("--cpi")?)),
            "--incident" => {
                let v = next("--incident")?;
                let (label, path) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--incident wants LABEL=window.csv, got {v:?}"))?;
                incidents.push((label.to_string(), PathBuf::from(path)));
            }
            other => return Err(format!("unknown train argument: {other}")),
        }
    }
    let context = context.ok_or("--context is required")?;
    if normals.len() < 2 {
        return Err("need at least two --normal frames for Algorithm 1".into());
    }

    let system = build_system(InvarNetConfig::default());
    let frames: Result<Vec<MetricFrame>, String> = normals.iter().map(|p| read_frame(p)).collect();
    system
        .build_invariants(context.clone(), &frames?)
        .map_err(|e| e.to_string())?;
    if !cpis.is_empty() {
        let traces: Result<Vec<Vec<f64>>, String> = cpis.iter().map(|p| read_cpi(p)).collect();
        system
            .train_performance_model(context.clone(), &traces?)
            .map_err(|e| e.to_string())?;
    }
    for (label, path) in &incidents {
        let frame = read_frame(path)?;
        system
            .record_signature(&context, label, &frame)
            .map_err(|e| e.to_string())?;
    }

    let store = system.snapshot_state();
    system
        .store_op(&out, |p| save_model_store(&store, p))
        .map_err(render_error)?;
    println!(
        "wrote {} ({} invariants, {} signatures{})",
        out.display(),
        store.invariants.values().next().map_or(0, |s| s.len()),
        store.signatures.len(),
        if cpis.is_empty() {
            ", no CPI model"
        } else {
            ""
        }
    );
    Ok(())
}

fn infer(args: &[String]) -> Result<(), String> {
    let mut deployment = PathBuf::from("deployment.ixh");
    let mut context = None;
    let mut window = None;
    let mut cpi = None;
    let mut budget_ms = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--deployment" => deployment = PathBuf::from(next("--deployment")?),
            "--context" => context = Some(parse_context(&next("--context")?)?),
            "--window" => window = Some(PathBuf::from(next("--window")?)),
            "--cpi" => cpi = Some(PathBuf::from(next("--cpi")?)),
            "--budget-ms" => {
                let v = next("--budget-ms")?;
                budget_ms = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--budget-ms wants milliseconds, got {v:?}"))?,
                );
            }
            other => return Err(format!("unknown infer argument: {other}")),
        }
    }
    let context = context.ok_or("--context is required")?;
    let window = window.ok_or("--window is required")?;

    let mut config = InvarNetConfig::default();
    if let Some(ms) = budget_ms {
        config.sweep_budget = SweepBudget::wall_millis(ms);
    }
    let system = build_system(config);
    let store = system
        .store_op(&deployment, load_model_store)
        .map_err(render_error)?;
    system.load_state(&store).map_err(render_error)?;
    let invariants = system
        .invariant_set(&context)
        .ok_or_else(|| format!("deployment has no invariants for {context}"))?;

    // Optional detection gate.
    if let Some(cpi_path) = cpi {
        let series = read_cpi(&cpi_path)?;
        let det = system
            .detect(&context, &series)
            .map_err(|e| e.to_string())?;
        match det.first_anomaly {
            Some(t) => println!(
                "anomaly detected at sample {t} (residual threshold {:.4})",
                det.threshold
            ),
            None => {
                println!("no CPI anomaly — skipping cause inference (pipeline would not trigger)");
                return Ok(());
            }
        }
    }

    let frame = read_frame(&window)?;
    let diagnosis = system
        .diagnose(&context, &frame)
        .map_err(|e| e.to_string())?;
    println!(
        "violated invariants: {}/{}",
        diagnosis.tuple.violation_count(),
        diagnosis.tuple.len()
    );
    if let Some(deg) = diagnosis.degradation {
        println!(
            "NOTE: sweep degraded to tier {} ({}) — reason: {}",
            deg.tier.level(),
            deg.tier.name(),
            deg.reason.name()
        );
    }
    println!("ranked causes:");
    for (i, c) in diagnosis.ranked.iter().enumerate().take(5) {
        println!(
            "  {}. {:16} similarity {:.3}",
            i + 1,
            c.problem,
            c.similarity
        );
    }
    if !diagnosis.is_confident(0.5) {
        println!("\nlow confidence — violated association pairs (hints for manual triage):");
        let hints = diagnosis.hints(&invariants).map_err(|e| e.to_string())?;
        for (a, b, dev) in hints.into_iter().take(8) {
            println!("  {a} ~ {b}  deviation {dev:.2}");
        }
    }
    Ok(())
}

fn demo() -> Result<(), String> {
    use ix_simulator::{FaultType, Runner, WorkloadType};
    let dir = std::env::temp_dir().join("invarnet_demo");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let runner = Runner::new(1);
    let node = ix_simulator::Runner::DEFAULT_FAULT_NODE;
    let workload = WorkloadType::Wordcount;
    let ip = runner.nodes[node].ip();

    // Export simulated data as the CSV/CPI files a real deployment would have.
    let mut train_args: Vec<String> = vec![
        "--out".into(),
        dir.join("deployment.ixh").display().to_string(),
        "--context".into(),
        format!("{}@{}", workload.name(), ip),
    ];
    for (i, r) in runner.normal_runs(workload, 4).iter().enumerate() {
        let frame = &r.per_node[node].frame;
        let w = frame.window(30..75.min(frame.ticks()));
        let p = dir.join(format!("normal{i}.csv"));
        std::fs::write(&p, w.to_csv()).map_err(|e| e.to_string())?;
        train_args.push("--normal".into());
        train_args.push(p.display().to_string());
        let cp = dir.join(format!("cpi{i}.txt"));
        let text: String = r.per_node[node]
            .cpi
            .cpi_series()
            .iter()
            .map(|v| format!("{v}\n"))
            .collect();
        std::fs::write(&cp, text).map_err(|e| e.to_string())?;
        train_args.push("--cpi".into());
        train_args.push(cp.display().to_string());
    }
    for fault in [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog] {
        let r = runner.fault_run(workload, fault, 0);
        let p = dir.join(format!("{}.csv", fault.name()));
        std::fs::write(&p, r.fault_window().expect("window").to_csv())
            .map_err(|e| e.to_string())?;
        train_args.push("--incident".into());
        train_args.push(format!("{}={}", fault.name(), p.display()));
    }
    println!("== diagnose train ==");
    train(&train_args)?;

    // A fresh incident.
    let incident = runner.fault_run(workload, FaultType::MemHog, 5);
    let wp = dir.join("incident.csv");
    std::fs::write(&wp, incident.fault_window().expect("window").to_csv())
        .map_err(|e| e.to_string())?;
    let cp = dir.join("incident_cpi.txt");
    let text: String = incident.per_node[node]
        .cpi
        .cpi_series()
        .iter()
        .map(|v| format!("{v}\n"))
        .collect();
    std::fs::write(&cp, text).map_err(|e| e.to_string())?;

    println!("\n== diagnose infer (fresh Mem-hog incident) ==");
    infer(&[
        "--deployment".into(),
        dir.join("deployment.ixh").display().to_string(),
        "--context".into(),
        format!("{}@{}", workload.name(), ip),
        "--window".into(),
        wp.display().to_string(),
        "--cpi".into(),
        cp.display().to_string(),
    ])
}

fn query(args: &[String]) -> Result<(), String> {
    use ix_core::Diagnosis;
    use ix_history::HistoryStore;
    use ix_metrics::MetricId;
    use ix_query::Query;
    use ix_simulator::{FaultType, RunResult, Runner, WorkloadType};

    let mut seed: u64 = 1;
    let mut pin = MetricId::SwapUsed;
    let mut save: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--seed" => {
                let v = next("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants an integer, got {v:?}"))?;
            }
            "--pin" => {
                let v = next("--pin")?;
                pin = MetricId::from_name(&v).ok_or_else(|| {
                    format!("--pin wants a metric name (e.g. mem.used), got {v:?}")
                })?;
            }
            "--save" => save = Some(PathBuf::from(next("--save")?)),
            other => return Err(format!("unknown query argument: {other}")),
        }
    }

    let runner = Runner::new(seed);
    let node = Runner::DEFAULT_FAULT_NODE;
    let workload = WorkloadType::Wordcount;
    let context = parse_context(&format!("{}@{}", workload.name(), runner.nodes[node].ip()))?;

    // Offline phase (as `diagnose train`, but in-process), with a history
    // store attached so everything the engine sees afterwards is recorded.
    let store = HistoryStore::builder().shared();
    let mut builder = Engine::builder()
        .config(InvarNetConfig::default())
        .history(store.clone());
    if let Some(t) = ix_bench::telemetry::active() {
        builder = builder.telemetry(&t);
    }
    let engine = builder.build();

    let normals = runner.normal_runs(workload, 5);
    let frames: Vec<MetricFrame> = normals[..4]
        .iter()
        .map(|r| {
            let f = &r.per_node[node].frame;
            f.window(30..75.min(f.ticks()))
        })
        .collect();
    let traces: Vec<Vec<f64>> = normals[..4]
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    engine
        .train_performance_model(context.clone(), &traces)
        .map_err(render_error)?;
    engine
        .build_invariants(context.clone(), &frames)
        .map_err(render_error)?;
    for fault in [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog] {
        let r = runner.fault_run(workload, fault, 0);
        engine
            .record_signature(
                &context,
                fault.name(),
                &r.fault_window().expect("fault window"),
            )
            .map_err(render_error)?;
    }

    // Online phase: stream whole runs through `Engine::ingest`; each run
    // becomes one run in history. `stop` cuts the last run at the tick the
    // live diagnosis fired, so the recorded current-run window *is* the
    // engine's diagnosis window.
    let stream = |r: &RunResult, stop: bool| -> Result<Option<Diagnosis>, String> {
        engine.reset_run(&context);
        let cpi = r.per_node[node].cpi.cpi_series();
        let frame = &r.per_node[node].frame;
        let mut first = None;
        for (t, &sample) in cpi.iter().enumerate().take(frame.ticks()) {
            let out = engine
                .ingest(&context, sample, frame.tick(t))
                .map_err(render_error)?;
            if out.diagnosis.is_some() && first.is_none() {
                first = out.diagnosis;
                if stop {
                    break;
                }
            }
        }
        Ok(first)
    };
    stream(&normals[4], false)?; // run 0: healthy baseline for counterfactuals
    for (fault, run_idx) in [
        (FaultType::CpuHog, 3),
        (FaultType::DiskHog, 3),
        (FaultType::MemHog, 4),
    ] {
        stream(&runner.fault_run(workload, fault, run_idx), false)?;
    }
    let live = stream(&runner.fault_run(workload, FaultType::MemHog, 5), true)?
        .ok_or("the final mem-hog run produced no live diagnosis")?;

    let query = Query::builder().engine(&engine).history(&store).build();

    println!("== explanations (current-run window) ==");
    let explain = query.explanations(&context);
    println!("{}", explain.plan().map_err(|e| e.to_string())?);
    let recomputed = explain.rank().map_err(|e| e.to_string())?;
    println!("ranked causes:");
    for (i, c) in recomputed.ranked.iter().enumerate().take(5) {
        println!(
            "  {}. {:16} similarity {:.3}",
            i + 1,
            c.problem,
            c.similarity
        );
    }
    if recomputed != live {
        return Err("query ranking diverged from the live streaming diagnosis".into());
    }
    println!("recomputed from history == live streaming diagnosis: yes");
    let replay = query
        .explanations(&context)
        .replay_recorded()
        .rank()
        .map_err(|e| e.to_string())?;
    if replay.ranked != live.ranked || replay.tuple != live.tuple {
        return Err("replay of recorded sweep scores diverged from the live diagnosis".into());
    }
    println!("replayed from recorded sweep scores == live diagnosis: yes");

    let cooccur = query.cooccurrence().compute().map_err(|e| e.to_string())?;
    println!(
        "\n== co-occurrence across {} recorded diagnoses ==",
        cooccur.diagnoses
    );
    let invariants = engine
        .invariant_set(&context)
        .ok_or("no invariants for the context")?;
    for pair in cooccur.pairs.iter().take(5) {
        let (a1, a2) = invariants.metrics_of(pair.a);
        let (b1, b2) = invariants.metrics_of(pair.b);
        println!("  {:>2}x  [{a1} ~ {a2}] with [{b1} ~ {b2}]", pair.count);
    }

    println!("\n== counterfactual: pin {pin} to the baseline run ==");
    let report = query
        .counterfactual(&context, pin)
        .baseline_run(0)
        .compute()
        .map_err(|e| e.to_string())?;
    println!(
        "factual violations {}, cleared by pinning {}, introduced {}",
        report.factual.violation_count(),
        report.cleared.len(),
        report.introduced.len()
    );
    println!(
        "attribution: {:.2} of the anomaly's violations involve {pin}",
        report.attribution
    );

    // The on-disk format is canonical: save(load(x)) is byte-identical.
    let bytes = store.to_bytes();
    let reloaded = HistoryStore::from_bytes(&bytes).map_err(|e| e.to_string())?;
    if reloaded.to_bytes() != bytes {
        return Err("history serialization round-trip diverged".into());
    }
    let id = engine
        .context_registry()
        .lookup(&context)
        .ok_or("context was never interned")?;
    println!(
        "\nhistory: {} rows over {} runs, {} events, {} bytes (round-trip verified)",
        store.rows(id),
        store.run_count(id),
        store.events().len(),
        bytes.len()
    );
    if let Some(path) = save {
        store.save(&path).map_err(|e| e.to_string())?;
        println!("saved history to {}", path.display());
    }
    Ok(())
}

/// `diagnose replay`: record the canonical simulated scenario into a
/// replayable trace, verify a trace against a fresh engine, or bisect two
/// traces for their first divergent tick.
fn replay(args: &[String]) -> Result<(), String> {
    use ix_history::HistoryStore;
    use ix_replay::Replayer;
    use std::sync::Arc;

    let mut trace: Option<PathBuf> = None;
    let mut record: Option<PathBuf> = None;
    let mut bisect_with: Option<PathBuf> = None;
    let mut seed: u64 = 11;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--record" => record = Some(PathBuf::from(next("--record")?)),
            "--bisect" => bisect_with = Some(PathBuf::from(next("--bisect")?)),
            "--seed" => {
                let v = next("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants an integer, got {v:?}"))?;
            }
            other if !other.starts_with("--") => trace = Some(PathBuf::from(other)),
            other => return Err(format!("unknown replay argument: {other}")),
        }
    }

    if let Some(out) = record {
        let scenario = ix_bench::scenario::record_fault_scenario(seed)?;
        scenario.trace.save(&out).map_err(|e| e.to_string())?;
        println!(
            "recorded {} ticks of {} ({} events, {} diagnoses) to {}",
            scenario.ticks,
            scenario.context,
            scenario.trace.events().len(),
            scenario.trace.diagnoses().len(),
            out.display()
        );
        return Ok(());
    }

    let trace_path = trace
        .ok_or("usage: diagnose replay <trace.ixh> [--bisect other.ixh] | --record out.ixh")?;
    let (recorded, warnings) =
        HistoryStore::load_with_warnings(&trace_path).map_err(|e| e.to_string())?;
    for warning in &warnings {
        eprintln!("warning: {warning}");
    }

    if let Some(other_path) = bisect_with {
        let (other, other_warnings) =
            HistoryStore::load_with_warnings(&other_path).map_err(|e| e.to_string())?;
        for warning in &other_warnings {
            eprintln!("warning: {warning}");
        }
        return match ix_replay::bisect(&recorded, &other) {
            None => {
                println!("traces agree on every recorded row");
                Ok(())
            }
            Some(report) => {
                println!("{report}");
                Err("traces diverge".into())
            }
        };
    }

    let mut replayer = Replayer::builder()
        .recorded(Arc::new(recorded))
        .build()
        .map_err(|e| e.to_string())?;
    println!(
        "replaying {} ticks across {} contexts...",
        replayer.schedule().len(),
        replayer.recorded().contexts().len()
    );
    let report = replayer.verify().map_err(|e| e.to_string())?;
    if report.is_clean() {
        println!(
            "replayed {} ticks: outcome is bit-exact (rows, events, sweeps, diagnoses)",
            report.ticks_replayed
        );
        Ok(())
    } else {
        for divergence in &report.divergences {
            println!("divergence: {divergence}");
        }
        Err(format!(
            "replay diverged from the recording in {} place(s)",
            report.divergences.len()
        ))
    }
}

/// `diagnose top`: drive the `ix-top` console from a recorded trace.
fn top(args: &[String]) -> Result<(), String> {
    use ix_history::HistoryStore;
    use ix_top::{render_frame, ReplayFeed, Screen, TopConsole};

    let mut trace: Option<PathBuf> = None;
    let mut headless = false;
    let mut frames: Option<u64> = None;
    let mut width = 100usize;
    let mut speed = 1.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--headless" => headless = true,
            "--frames" => {
                frames = Some(
                    next("--frames")?
                        .parse()
                        .map_err(|_| "--frames wants an integer")?,
                );
            }
            "--width" => {
                width = next("--width")?
                    .parse()
                    .map_err(|_| "--width wants an integer")?;
            }
            "--speed" => {
                speed = next("--speed")?
                    .parse()
                    .map_err(|_| "--speed wants a number")?;
            }
            other if !other.starts_with("--") => trace = Some(PathBuf::from(other)),
            other => return Err(format!("unknown top argument: {other}")),
        }
    }
    let trace_path = trace.ok_or(
        "usage: diagnose top <trace.ixh> [--headless] [--frames N] [--width N] [--speed X]",
    )?;
    let (store, warnings) =
        HistoryStore::load_with_warnings(&trace_path).map_err(|e| e.to_string())?;
    for warning in &warnings {
        eprintln!("warning: {warning}");
    }

    let mut feed = ReplayFeed::builder()
        .console(TopConsole::new())
        .speed(speed)
        .build(&store);
    let batch = (feed.total() / 200).max(1) * feed.ticks_per_frame();
    let mut screen = if headless {
        None
    } else {
        Some(Screen::enter().map_err(|e| e.to_string())?)
    };
    let mut prev = None;
    let mut rendered = 0u64;
    while !feed.is_done() {
        if frames.is_some_and(|max| rendered >= max) {
            break;
        }
        feed.advance(batch);
        let snap = feed.snapshot();
        if let Some(live) = screen.as_mut() {
            let frame = render_frame(&snap, prev.as_ref(), width);
            live.paint(&frame).map_err(|e| e.to_string())?;
            std::thread::sleep(std::time::Duration::from_millis(
                (50.0 / speed.max(0.01)) as u64,
            ));
        }
        prev = Some(snap);
        rendered += 1;
    }
    drop(screen);
    print!("{}", render_frame(&feed.snapshot(), prev.as_ref(), width));
    Ok(())
}

/// `diagnose serve`: train a template tenant from the simulator, stand up
/// an `IXSRV01` fleet server, drive every tenant over a loopback client,
/// and print the fleet's wire-visible state.
fn serve(args: &[String]) -> Result<(), String> {
    use ix_serve::{Fleet, ServeClient, ServerHandle, TenantId};
    use ix_simulator::{FaultType, Runner, WorkloadType};

    let mut addr = "127.0.0.1:0".to_string();
    let mut tenants = 3usize;
    let mut hold_secs = 0u64;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--addr" => {
                addr = value(i)?;
                i += 2;
            }
            "--tenants" => {
                tenants = value(i)?
                    .parse()
                    .map_err(|_| "--tenants needs an integer".to_string())?;
                i += 2;
            }
            "--hold" => {
                hold_secs = value(i)?
                    .parse()
                    .map_err(|_| "--hold needs seconds".to_string())?;
                i += 2;
            }
            other => return Err(format!("unknown serve argument: {other}")),
        }
    }

    println!("training the template tenant from the simulator...");
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
        .map_err(render_error)?;
    let windows: Vec<_> = normals
        .iter()
        .map(|r| {
            let f = &r.per_node[node].frame;
            f.window(30..75.min(f.ticks()))
        })
        .collect();
    template
        .build_invariants(context.clone(), &windows)
        .map_err(render_error)?;
    let fault = runner.fault_run(workload, FaultType::MemHog, 0);
    template
        .record_signature(
            &context,
            FaultType::MemHog.name(),
            &fault.fault_window().ok_or("no fault window")?,
        )
        .map_err(render_error)?;
    let store = template.snapshot_state();

    let fleet = std::sync::Arc::new(Fleet::builder().per_tenant_telemetry(true).build());
    let ids: Vec<TenantId> = (0..tenants.max(1))
        .map(|i| TenantId::new(format!("tenant-{i}")).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    for id in &ids {
        fleet
            .with_engine(id, |e| e.load_state(&store))
            .map_err(|e| e.to_string())?
            .map_err(render_error)?;
    }

    let server = ServerHandle::builder()
        .addr(&addr)
        // A few extra accept threads so operators (fleet-status) can
        // connect while the demo stream holds its own connection.
        .accept_threads(4)
        .start(std::sync::Arc::clone(&fleet))
        .map_err(|e| e.to_string())?;
    println!("IXSRV01 listening on {}", server.addr());

    let mut client = ServeClient::connect(server.addr()).map_err(|e| e.to_string())?;
    let live = runner.fault_run(workload, FaultType::MemHog, 5);
    let cpi = live.per_node[node].cpi.cpi_series();
    let frame = &live.per_node[node].frame;
    let ticks = frame.ticks().min(cpi.len());
    let mut diagnoses = 0usize;
    for (t, &tick_cpi) in cpi.iter().enumerate().take(ticks) {
        for id in &ids {
            let reply = client
                .ingest(
                    id,
                    &context.node,
                    &context.workload,
                    tick_cpi,
                    frame.tick(t),
                )
                .map_err(|e| e.to_string())?;
            if reply.diagnosis.is_some() {
                diagnoses += 1;
            }
        }
    }
    println!(
        "streamed {ticks} ticks x {} tenants over the wire ({diagnoses} diagnoses)",
        ids.len()
    );
    let health = client.health(&ids[0]).map_err(|e| e.to_string())?;
    println!(
        "fleet: {} tenants ({} warm, {} cold), {} ticks, health {}",
        health.tenants, health.warm, health.cold, health.ticks, health.health
    );
    // Free this connection's accept thread for operator clients.
    drop(client);
    if hold_secs > 0 {
        println!(
            "holding the server open for {hold_secs}s (try: diagnose fleet-status --addr {})",
            server.addr()
        );
        std::thread::sleep(std::time::Duration::from_secs(hold_secs));
    }
    server.stop();
    println!("server stopped");
    Ok(())
}

/// `diagnose fleet-status`: one `Health` frame against a running serve
/// endpoint, rendered for an operator.
fn fleet_status(args: &[String]) -> Result<(), String> {
    use ix_serve::{ServeClient, TenantId};

    let mut addr: Option<String> = None;
    let mut tenant = "operator".to_string();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--addr" => {
                addr = Some(value(i)?);
                i += 2;
            }
            "--tenant" => {
                tenant = value(i)?;
                i += 2;
            }
            other => return Err(format!("unknown fleet-status argument: {other}")),
        }
    }
    let addr = addr.ok_or("fleet-status needs --addr HOST:PORT (see `diagnose serve --hold`)")?;
    let tenant = TenantId::new(tenant).map_err(|e| e.to_string())?;
    let mut client = ServeClient::connect(&addr).map_err(|e| e.to_string())?;
    let health = client.health(&tenant).map_err(|e| e.to_string())?;
    println!("fleet @ {addr}");
    println!(
        "  tenants:   {} ({} warm / {} cold)",
        health.tenants, health.warm, health.cold
    );
    println!("  ticks:     {}", health.ticks);
    println!("  evictions: {}  warms: {}", health.evictions, health.warms);
    println!("  health:    {}", health.health);
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if ix_bench::telemetry::strip_flag(&mut args) {
        ix_bench::telemetry::enable();
    }
    let result = match args.first().map(String::as_str) {
        Some("train") => train(&args[1..]),
        Some("infer") => infer(&args[1..]),
        Some("demo") => demo(),
        Some("query") => query(&args[1..]),
        Some("replay") => replay(&args[1..]),
        Some("top") => top(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("fleet-status") => fleet_status(&args[1..]),
        Some("--help") | Some("-h") | None => {
            println!(
                "diagnose — InvarNet-X as a CLI\n\n\
                 USAGE:\n  diagnose train --out FILE --context WORKLOAD@NODE \\\n\
                 \x20        --normal frame.csv... [--cpi trace.txt...] [--incident LABEL=window.csv...]\n\
                 \x20 diagnose infer --deployment FILE --context WORKLOAD@NODE --window incident.csv\n\
                 \x20        [--cpi live.txt] [--budget-ms MS]\n\
                 \x20 diagnose demo   # end-to-end on simulator-exported files\n\
                 \x20 diagnose query [--seed N] [--pin METRIC] [--save FILE]\n\
                 \x20        # record simulated runs into an ix-history store, then answer\n\
                 \x20        # explanation / co-occurrence / counterfactual queries over it\n\
                 \x20 diagnose replay --record out.ixh [--seed N]   # record a replayable trace\n\
                 \x20 diagnose replay trace.ixh                     # re-run it, assert bit-exact\n\
                 \x20 diagnose replay a.ixh --bisect b.ixh          # first divergent tick\n\
                 \x20 diagnose top trace.ixh [--headless] [--frames N] [--width N] [--speed X]\n\
                 \x20        # ix-top operator console over a recorded trace\n\
                 \x20 diagnose serve [--addr HOST:PORT] [--tenants N] [--hold SECS]\n\
                 \x20        # IXSRV01 fleet server on simulator-trained tenants\n\
                 \x20 diagnose fleet-status --addr HOST:PORT [--tenant ID]\n\
                 \x20        # one Health frame against a running serve endpoint\n\n\
                 Add --telemetry to any subcommand to print an engine telemetry report."
            );
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand: {other}")),
    };
    if let Some(telemetry) = ix_bench::telemetry::active() {
        println!("\n== engine telemetry ==\n{}", telemetry.render_report());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_cpi_refuses_non_finite_values() {
        let path = std::env::temp_dir().join(format!("ix-read-cpi-{}.txt", std::process::id()));
        std::fs::write(&path, "1.25\n\n0.5\n").unwrap();
        assert_eq!(read_cpi(&path).unwrap(), vec![1.25, 0.5]);
        for bad in ["NaN", "inf", "-inf", "infinity"] {
            std::fs::write(&path, format!("1.25\n{bad}\n")).unwrap();
            let err = read_cpi(&path).unwrap_err();
            assert!(err.contains("bad CPI value"), "{bad}: {err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_error_names_its_cause_once() {
        let dir = std::env::temp_dir();
        // A deployment file in the retired JSON form: a Serialization
        // error whose source is the store file's refusal.
        let json = dir.join(format!("ix-render-json-{}.json", std::process::id()));
        std::fs::write(&json, "{\"performance_models\": {}}").unwrap();
        let err = load_model_store(&json).unwrap_err();
        std::fs::remove_file(&json).unwrap();
        let cause = std::error::Error::source(&err).unwrap().to_string();
        assert!(cause.contains("JSON form"), "{cause}");
        assert_eq!(
            render_error(err),
            format!("serializing model store: {cause}")
        );
        // A missing file: an Io error whose source is the OS error.
        let missing = dir.join(format!("ix-render-missing-{}.ixh", std::process::id()));
        let err = load_model_store(&missing).unwrap_err();
        let cause = std::error::Error::source(&err).unwrap().to_string();
        let rendered = render_error(err);
        assert!(rendered.ends_with(&format!(": {cause}")), "{rendered}");
        assert_eq!(rendered.matches(&cause).count(), 1, "{rendered}");
    }
}
