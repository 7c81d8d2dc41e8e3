//! The six chaos scenarios.
//!
//! Each scenario trains a deployment, injects one host-level fault, drives
//! the engine through it, and applies the harness oracle: every answer the
//! engine returns must be **correct** (full fidelity, matching a pristine
//! twin trained from the same simulator seed) or **explicitly degraded**
//! ([`ix_core::Diagnosis::degradation`], a typed [`ix_core::CoreError`],
//! or a health transition). A wrong answer with no declaration is the one
//! outcome that fails the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ix_core::{
    AssociationMeasure, Detector, Engine, ErrorKind, HealthState, InvarNetConfig, MicMeasure,
    OperationContext, OverloadPolicy, SubmitOutcome, SweepBudget,
};
use ix_metrics::METRIC_COUNT;

use crate::faults::{AllocChurn, JitterMeasure, PanickingDetector, SlowMeasure};
use crate::fixture::{Fixture, FixtureOptions};
use crate::report::ScenarioReport;

/// A registered chaos scenario.
pub struct Scenario {
    /// Kebab-case name (also the CLI filter key).
    pub name: &'static str,
    /// One-line description of the injected fault.
    pub description: &'static str,
    /// Runs the scenario to a report.
    pub run: fn() -> ScenarioReport,
}

/// Every scenario the harness knows, in execution order.
pub fn all_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "slow-measure",
            description: "every MIC score call stalls 2 ms under a 5 ms sweep budget",
            run: slow_measure,
        },
        Scenario {
            name: "clock-jitter",
            description: "bimodal per-pair latency spikes under a tight budget",
            run: clock_jitter,
        },
        Scenario {
            name: "allocator-pressure",
            description: "background allocation churn competes with the sweep",
            run: allocator_pressure,
        },
        Scenario {
            name: "truncated-store",
            description: "the persisted model store is cut mid-file",
            run: truncated_store,
        },
        Scenario {
            name: "poisoned-lock",
            description: "a detector panics while the shard lock is held",
            run: poisoned_lock,
        },
        Scenario {
            name: "queue-flood",
            description: "ingest floods a bounded queue under both shed policies",
            run: queue_flood,
        },
    ]
}

/// Stamps the elapsed time into a finished report.
fn finish(mut report: ScenarioReport, started: Instant) -> ScenarioReport {
    report.millis = started.elapsed().as_millis();
    report
}

/// Describes a [`ix_core::SweepDegradation`] for the notes.
fn describe(deg: ix_core::SweepDegradation) -> String {
    format!(
        "tier {} ({}) because {}",
        deg.tier.level(),
        deg.tier.name(),
        deg.reason.name()
    )
}

/// A 2 ms stall on every MIC score call makes the full 325-pair sweep cost
/// ≥650 ms — hopeless under a 5 ms budget. The engine must stop the pass,
/// answer from what it has, and say so; answering at "full fidelity" would
/// be a lie, and taking unbounded time would be an outage.
fn slow_measure() -> ScenarioReport {
    let started = Instant::now();
    let mut report = ScenarioReport::new("slow-measure");

    let budget = SweepBudget::wall_millis(5);
    let slow = Arc::new(SlowMeasure::new(
        MicMeasure::default(),
        Duration::from_millis(2),
    ));
    let fx = Fixture::trained(FixtureOptions {
        budget,
        measure: Some(Arc::clone(&slow) as Arc<dyn AssociationMeasure>),
        ..FixtureOptions::default()
    });
    slow.arm();

    let (window, _) = Fixture::incident(Fixture::incident_fault(), 7);
    let clock = Instant::now();
    match fx.engine.diagnose(&fx.context, &window) {
        Ok(diagnosis) => {
            let elapsed = clock.elapsed();
            report.note(format!(
                "diagnose returned in {elapsed:?} under a 5 ms budget"
            ));
            match diagnosis.degradation {
                Some(deg) => report.mark_degraded(describe(deg)),
                None => report.mark_failed(
                    "a sweep that cannot finish inside the budget claimed full fidelity",
                ),
            }
            if elapsed > Duration::from_millis(250) {
                report.mark_failed(format!("latency unbounded: {elapsed:?} for a 5 ms budget"));
            }
        }
        Err(e) => report.mark_failed(format!("diagnose errored instead of degrading: {e}")),
    }
    if fx.totals().sweeps_degraded == 0 {
        report.mark_failed("no SweepDegraded event reached the sink");
    }
    if fx.engine.health() == HealthState::Healthy {
        report.mark_failed("health stayed Healthy through a degraded sweep");
    } else {
        report.note(format!("health after fault: {}", fx.engine.health().name()));
    }
    finish(report, started)
}

/// Bimodal latency — every 6th score call stalls 3 ms — sometimes fits the
/// budget and sometimes does not. Whatever happens, each of three fresh
/// incidents must come back either full-fidelity-and-identical to a
/// pristine twin, or explicitly degraded.
fn clock_jitter() -> ScenarioReport {
    let started = Instant::now();
    let mut report = ScenarioReport::new("clock-jitter");

    let jitter = Arc::new(JitterMeasure::new(
        MicMeasure::default(),
        Duration::from_millis(3),
        6,
    ));
    let fx = Fixture::trained(FixtureOptions {
        budget: SweepBudget::wall_millis(30),
        measure: Some(Arc::clone(&jitter) as Arc<dyn AssociationMeasure>),
        ..FixtureOptions::default()
    });
    let twin = Fixture::trained(FixtureOptions::default());
    jitter.arm();

    for run_idx in [7, 8, 9] {
        let (window, _) = Fixture::incident(Fixture::incident_fault(), run_idx);
        let chaotic = match fx.engine.diagnose(&fx.context, &window) {
            Ok(d) => d,
            Err(e) => {
                report.mark_failed(format!("run {run_idx}: diagnose errored: {e}"));
                continue;
            }
        };
        match chaotic.degradation {
            Some(deg) => report.mark_degraded(format!("run {run_idx}: {}", describe(deg))),
            None => {
                // Full fidelity under jitter must be *bit-for-bit* the
                // pristine twin's answer — latency must never leak into
                // scores.
                let baseline = twin
                    .engine
                    .diagnose(&twin.context, &window)
                    .expect("pristine twin diagnoses");
                if baseline.ranked == chaotic.ranked {
                    report.note(format!("run {run_idx}: full fidelity, matches twin"));
                } else {
                    report.mark_failed(format!(
                        "run {run_idx}: full-fidelity answer diverged from the pristine twin"
                    ));
                }
            }
        }
    }
    finish(report, started)
}

/// Background allocation churn slows everything a little. Under a generous
/// budget the sweep should still complete at full fidelity and match the
/// pristine twin; if the host is slow enough to blow even that budget, the
/// engine must declare the degradation.
fn allocator_pressure() -> ScenarioReport {
    let started = Instant::now();
    let mut report = ScenarioReport::new("allocator-pressure");

    let fx = Fixture::trained(FixtureOptions {
        budget: SweepBudget::wall_millis(500),
        ..FixtureOptions::default()
    });
    let twin = Fixture::trained(FixtureOptions::default());
    let (window, _) = Fixture::incident(Fixture::incident_fault(), 7);
    let baseline = twin
        .engine
        .diagnose(&twin.context, &window)
        .expect("pristine twin diagnoses");

    let churn = AllocChurn::start(4);
    let outcome = fx.engine.diagnose(&fx.context, &window);
    drop(churn);

    match outcome {
        Ok(diagnosis) => match diagnosis.degradation {
            Some(deg) => report.mark_degraded(describe(deg)),
            None if diagnosis.ranked == baseline.ranked => {
                report.note("full fidelity under churn, matches twin");
            }
            None => report.mark_failed("answer under churn diverged from the pristine twin"),
        },
        Err(e) => report.mark_failed(format!("diagnose errored under churn: {e}")),
    }
    finish(report, started)
}

/// The persisted deployment file is cut mid-rows. Loading must fail with a
/// typed, sourced error and flip health to Degraded(persistence); restoring
/// the file must let retried loads walk health back to Healthy, and the
/// rehydrated engine must agree with the original.
fn truncated_store() -> ScenarioReport {
    let started = Instant::now();
    let mut report = ScenarioReport::new("truncated-store");

    let fx = Fixture::trained(FixtureOptions::default());
    let dir = std::env::temp_dir().join("ix_chaos_store");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.mark_failed(format!("cannot create temp dir: {e}"));
        return finish(report, started);
    }
    let path = dir.join("deployment.ixh");
    let store = fx.engine.snapshot_state();
    if let Err(e) = fx
        .engine
        .store_op(&path, |p| ix_history::save_model_store(&store, p))
    {
        report.mark_failed(format!("save failed on a healthy disk: {e}"));
        return finish(report, started);
    }

    let bytes = std::fs::read(&path).expect("just written");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    match fx.engine.store_op(&path, ix_history::load_model_store) {
        Ok(_) => report.mark_failed("a truncated store parsed successfully"),
        Err(e) => {
            if e.kind() != ErrorKind::Serialization && e.kind() != ErrorKind::Io {
                report.mark_failed(format!("unexpected error kind {:?}: {e}", e.kind()));
            } else if std::error::Error::source(&e).is_none() {
                report.mark_failed("the load error lost its source chain");
            } else {
                report.mark_degraded(format!("load failed loudly: kind {}", e.kind().name()));
            }
        }
    }
    if fx.totals().store_retries == 0 {
        report.mark_failed("the failing load was never retried");
    }
    match fx.engine.health() {
        HealthState::Degraded(_) => report.note("health: degraded after exhausted retries"),
        other => report.mark_failed(format!(
            "health is {} after a persistence failure",
            other.name()
        )),
    }

    // Heal the disk: retried loads must recover health.
    std::fs::write(&path, &bytes).expect("restore");
    let mut loaded = None;
    for _ in 0..3 {
        match fx.engine.store_op(&path, ix_history::load_model_store) {
            Ok(s) => loaded = Some(s),
            Err(e) => report.mark_failed(format!("load still failing on a healed disk: {e}")),
        }
    }
    std::fs::remove_file(&path).ok();
    if fx.engine.health() == HealthState::Healthy {
        report.note("health recovered to Healthy after a clean-load streak");
    } else {
        report.mark_failed(format!(
            "health stuck at {} after recovery",
            fx.engine.health().name()
        ));
    }

    // The rehydrated engine must agree with the original on a fresh
    // incident.
    if let Some(store) = loaded {
        let fresh = Engine::builder().config(fx.engine.config().clone()).build();
        if let Err(e) = fresh.load_state(&store) {
            report.mark_failed(format!("rehydration failed: {e}"));
        } else {
            let (window, _) = Fixture::incident(Fixture::incident_fault(), 7);
            let a = fx.engine.diagnose(&fx.context, &window).expect("original");
            let b = fresh.diagnose(&fx.context, &window).expect("rehydrated");
            if a.ranked == b.ranked {
                report.note("rehydrated engine matches the original diagnosis");
            } else {
                report.mark_failed("rehydrated engine diverged from the original");
            }
        }
    }
    finish(report, started)
}

/// A detector panics mid-`ingest`, while the engine holds the context's
/// shard lock. The poison must not spread: later ticks on the same context
/// must keep working, and the engine must stay queryable.
fn poisoned_lock() -> ScenarioReport {
    let started = Instant::now();
    let mut report = ScenarioReport::new("poisoned-lock");

    let context = OperationContext::new("10.0.0.66", "Wordcount");
    let detector: Arc<dyn Detector> = Arc::new(PanickingDetector::new(5));
    let engine = Engine::builder()
        .config(InvarNetConfig::default())
        .detector(context.clone(), detector)
        .build();
    let row = vec![0.5; METRIC_COUNT];

    for t in 0..4 {
        if let Err(e) = engine.ingest(&context, 1.0, &row) {
            report.mark_failed(format!("healthy tick {t} failed: {e}"));
            return finish(report, started);
        }
    }
    // Silence the default hook for the one panic we inject on purpose.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = catch_unwind(AssertUnwindSafe(|| engine.ingest(&context, 1.0, &row)));
    std::panic::set_hook(hook);
    if caught.is_ok() {
        report.mark_failed("the injected detector panic did not fire");
        return finish(report, started);
    }
    report.note("tick 5 panicked inside the shard closure (injected)");

    // The shard's lock was poisoned mid-write; the engine must recover it.
    match engine.ingest(&context, 1.0, &row) {
        Ok(_) => report.note("tick 6 ingested normally through the recovered lock"),
        Err(e) => report.mark_failed(format!("engine did not survive the poisoned lock: {e}")),
    }
    let run_ticks = engine
        .inspector()
        .context_state(&context)
        .map(|s| s.run_ticks);
    if run_ticks.unwrap_or(0) == 0 {
        report.mark_failed("run state lost after the panic");
    }
    let _ = engine.health(); // must not panic or deadlock
    finish(report, started)
}

/// Floods the bounded ingest queue far past capacity under both shed
/// policies. Depth must stay bounded, every shed must be counted, and once
/// the flood subsides the detector must still confirm the anomaly from the
/// contiguous ticks that survived.
fn queue_flood() -> ScenarioReport {
    let started = Instant::now();
    let mut report = ScenarioReport::new("queue-flood");

    // --- ShedOldest: newest ticks survive, depth stays bounded. ---------
    let fx = Fixture::trained(FixtureOptions {
        queue_ticks: 8,
        overload: OverloadPolicy::ShedOldest,
        ..FixtureOptions::default()
    });
    let cap = fx.engine.ingest_queue_capacity();
    report.note(format!("effective per-shard capacity: {cap}"));
    let (frame, cpi) = Fixture::incident_run(Fixture::incident_fault(), 7);

    // Flood phase: a burst of the run's normal prefix with no consumer.
    // All but the newest `cap` must be shed — loudly. (The burst stays
    // inside the pre-fault region so the post-flood window still has
    // enough ticks accumulated when the anomaly onset triggers
    // diagnosis.)
    let flood = 16.min(cpi.len());
    for (t, &sample) in cpi.iter().enumerate().take(flood) {
        let outcome = fx.engine.submit(&fx.context, sample, frame.tick(t));
        if matches!(outcome, SubmitOutcome::Rejected) {
            report.mark_failed("ShedOldest rejected a submission");
        }
        if fx.engine.queued_ticks() > cap {
            report.mark_failed(format!(
                "queue depth {} exceeded capacity {cap}",
                fx.engine.queued_ticks()
            ));
        }
    }
    let shed = fx.totals().ticks_shed;
    if shed != (flood - cap) as u64 {
        report.mark_failed(format!("expected {} sheds, counted {shed}", flood - cap));
    } else {
        report.note(format!(
            "flood of {flood} ticks shed exactly {shed}, all reported"
        ));
    }
    let drained = fx.engine.drain(usize::MAX);
    if drained.len() != cap || drained.iter().any(|(_, r)| r.is_err()) {
        report.mark_failed(format!(
            "drain processed {}/{cap} surviving ticks cleanly",
            drained.iter().filter(|(_, r)| r.is_ok()).count()
        ));
    }

    // Recovery phase: the rest of the run streams through submit→drain at
    // a sustainable pace. The prefix loss must not stop the detector from
    // confirming the real anomaly, nor the diagnosis from running at full
    // fidelity.
    let mut diagnosis = None;
    for (t, &sample) in cpi.iter().enumerate().skip(flood) {
        fx.engine.submit(&fx.context, sample, frame.tick(t));
        for (_, result) in fx.engine.drain(1) {
            match result {
                Ok(out) => {
                    if let Some(d) = out.diagnosis {
                        diagnosis.get_or_insert(d);
                    }
                }
                Err(e) => report.mark_failed(format!("post-flood ingest failed: {e}")),
            }
        }
    }
    if fx.totals().detections == 0 {
        report.mark_failed("the detector never confirmed the anomaly after the flood");
    } else {
        report.note("3-consecutive-exceedance detection confirmed after the flood");
    }
    match diagnosis {
        Some(d) if d.degradation.is_none() => {
            report.note(format!(
                "diagnosis ran at full fidelity, top cause: {}",
                d.root_cause().map_or("<none>", |c| c.problem.as_str())
            ));
        }
        Some(_) => report.mark_degraded("diagnosis ran degraded during recovery"),
        None => report.mark_failed("no diagnosis was produced for the flooded run"),
    }

    // --- ShedNewest: arrivals beyond capacity bounce, oldest survive. ---
    let fx2 = Fixture::trained(FixtureOptions {
        queue_ticks: 8,
        overload: OverloadPolicy::ShedNewest,
        ..FixtureOptions::default()
    });
    let cap2 = fx2.engine.ingest_queue_capacity();
    let mut rejected = 0usize;
    for (t, &sample) in cpi.iter().enumerate().take(cap2 + 10) {
        if matches!(
            fx2.engine.submit(&fx2.context, sample, frame.tick(t)),
            SubmitOutcome::Rejected
        ) {
            rejected += 1;
        }
    }
    if rejected != 10 {
        report.mark_failed(format!("ShedNewest rejected {rejected}/10 overflow ticks"));
    } else {
        report.note("ShedNewest bounced exactly the overflow, kept the oldest");
    }
    if fx2.totals().ticks_shed != 10 {
        report.mark_failed("rejected ticks were not reported as shed events");
    }
    if fx2.engine.drain(usize::MAX).len() != cap2 {
        report.mark_failed("drain did not return the surviving oldest ticks");
    }
    finish(report, started)
}
