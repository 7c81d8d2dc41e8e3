//! Recorded history + declarative RCA queries: attach an `ix-history`
//! store to the engine, stream simulated runs through it, then answer
//! questions the live pipeline cannot — after the fact, over everything
//! the engine ever saw.
//!
//! 1. train the engine offline and attach a columnar [`HistoryStore`];
//! 2. stream a healthy baseline run and several fault runs tick by tick;
//! 3. query the recording: ranked explanations (bit-identical to the live
//!    diagnosis), violation co-occurrence across runs, and a
//!    counterfactual with one metric pinned to its baseline behavior;
//! 4. round-trip the store through its on-disk format.
//!
//! ```text
//! cargo run --release --example query_history
//! ```

use invarnet_x::core::{Engine, InvarNetConfig, OperationContext};
use invarnet_x::history::HistoryStore;
use invarnet_x::metrics::{MetricFrame, MetricId};
use invarnet_x::query::Query;
use invarnet_x::simulator::{FaultType, RunResult, Runner, WorkloadType};

fn main() {
    let workload = WorkloadType::Wordcount;
    let runner = Runner::new(7);
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());

    // ---------------------------------------------------------- offline --
    println!("== offline training for context {context} ==");
    let store = HistoryStore::builder().shared();
    let engine = Engine::builder()
        .config(InvarNetConfig::default())
        .observe(store.clone())
        .build();

    let normals = runner.normal_runs(workload, 6);
    let cpi_traces: Vec<Vec<f64>> = normals[..5]
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    engine
        .train_performance_model(context.clone(), &cpi_traces)
        .expect("train ARIMA on CPI");
    let frames: Vec<MetricFrame> = normals[..5]
        .iter()
        .map(|r| {
            let f = &r.per_node[node].frame;
            f.window(30..75.min(f.ticks()))
        })
        .collect();
    engine
        .build_invariants(context.clone(), &frames)
        .expect("Algorithm 1");
    for fault in [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog] {
        let run = runner.fault_run(workload, fault, 100);
        engine
            .record_signature(&context, fault.name(), &run.fault_window().expect("window"))
            .expect("record signature");
    }
    println!(
        "invariants kept: {}/325   signatures: {}   history attached: {}",
        engine.invariant_set(&context).expect("built").len(),
        engine.with_signature_database(|db| db.len()),
        engine.has_history(),
    );

    // ----------------------------------------------------------- online --
    // Stream whole runs; every tick lands in the store as it is ingested.
    let stream = |run: &RunResult, stop_at_diagnosis: bool| {
        engine.reset_run(&context);
        let cpi = run.per_node[node].cpi.cpi_series();
        let frame = &run.per_node[node].frame;
        let mut live = None;
        for (t, &sample) in cpi.iter().enumerate().take(frame.ticks()) {
            let out = engine
                .ingest(&context, sample, frame.tick(t))
                .expect("ingest tick");
            if out.diagnosis.is_some() && live.is_none() {
                live = out.diagnosis;
                if stop_at_diagnosis {
                    break;
                }
            }
        }
        live
    };
    stream(&normals[5], false); // run 0: healthy baseline
    stream(&runner.fault_run(workload, FaultType::CpuHog, 3), false);
    stream(&runner.fault_run(workload, FaultType::MemHog, 4), false);
    // The last run stops at the diagnosis tick, so the recorded
    // current-run window is exactly the engine's diagnosis window.
    let live = stream(&runner.fault_run(workload, FaultType::MemHog, 7), true)
        .expect("the fault run diagnoses");
    println!(
        "\nstreamed {} runs; live diagnosis: {}",
        store.run_count(
            engine
                .context_registry()
                .lookup(&context)
                .expect("interned")
        ),
        live.root_cause().map_or("<none>", |c| c.problem.as_str()),
    );

    // ---------------------------------------------------------- queries --
    let query = Query::builder().engine(&engine).history(&store).build();

    // 1. Ranked explanations over the recorded window. The plan prints the
    //    scans it compiles to; the result is bit-identical to `live`.
    let explain = query.explanations(&context);
    println!("\n== explanations ==\n{}", explain.plan().expect("plan"));
    let recomputed = explain.rank().expect("rank");
    for (i, c) in recomputed.ranked.iter().take(3).enumerate() {
        println!(
            "  {}. {:10} similarity {:.3}",
            i + 1,
            c.problem,
            c.similarity
        );
    }
    assert_eq!(
        recomputed, live,
        "history window reproduces the live ranking"
    );
    println!("recomputed from history == live diagnosis: yes");
    let replayed = query
        .explanations(&context)
        .replay_recorded()
        .rank()
        .expect("replay");
    assert_eq!(replayed.ranked, live.ranked);
    println!("replayed from recorded sweep scores == live diagnosis: yes");

    // 2. Which invariants break *together* across all recorded diagnoses?
    let cooccur = query.cooccurrence().compute().expect("co-occurrence");
    println!("\n== co-occurrence over {} diagnoses ==", cooccur.diagnoses);
    let invariants = engine.invariant_set(&context).expect("built");
    for pair in cooccur.pairs.iter().take(5) {
        let (a1, a2) = invariants.metrics_of(pair.a);
        let (b1, b2) = invariants.metrics_of(pair.b);
        println!("  {:>2}x  [{a1} ~ {a2}] with [{b1} ~ {b2}]", pair.count);
    }

    // 3. Counterfactual: would the violations survive if swap usage had
    //    behaved like the healthy baseline run?
    let report = query
        .counterfactual(&context, MetricId::SwapUsed)
        .baseline_run(0)
        .compute()
        .expect("counterfactual");
    println!(
        "\n== counterfactual: pin {} to baseline ==\n\
         factual violations {}, cleared {}, introduced {}, attribution {:.2}",
        report.pinned,
        report.factual.violation_count(),
        report.cleared.len(),
        report.introduced.len(),
        report.attribution,
    );

    // ------------------------------------------------------- round-trip --
    let bytes = store.to_bytes();
    let reloaded = HistoryStore::from_bytes(&bytes).expect("parse IXHIST01");
    assert_eq!(reloaded.to_bytes(), bytes, "canonical on-disk format");
    println!(
        "\nhistory serialized to {} bytes; reload round-trip is byte-identical",
        bytes.len()
    );
}
