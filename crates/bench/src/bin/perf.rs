//! One performance driver for the workspace: each layer's cost as named
//! metric records, printed as one JSON document.
//!
//! ```bash
//! cargo run --release -p ix-bench --bin perf > BENCH.json
//! cargo run --release -p ix-bench --bin perf -- --quick   # CI smoke
//! ```
//!
//! Every record has the shape of `BENCHMARK.json`'s metric record (`name`,
//! `unit`, `better`) plus `value`, grouped into one section per layer:
//! `sweep`, `history`, `replay`, `serve`, `telemetry`, `resilience` and
//! `kernels`. The document starts with a host fingerprint, because
//! wall-clock figures compare only on one host.
//!
//! `--quick` runs every section once, with minimal iterations and sizes
//! and no timing gate. Its correctness asserts still run: incremental ==
//! from-scratch over 8 slides, 2k tenants round-trip over loopback TCP, a
//! clean replay verify, a bisect that pins the planted tick, and an
//! unlimited budget that never degrades.

use std::cell::Cell;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ix_arima::{ArimaModel, ArimaSpec};
use ix_arx::{arx_association, ArxSearch};
use ix_bench::scenario::{record_fault_scenario, train_wordcount, TrainedContext};
use ix_core::{
    pair_count, AdvanceOutcome, AssociationMatrix, AssociationMeasure, ContextId, ContextRegistry,
    Engine, EngineBuilder, EngineEvent, EventSink, Histogram, HistoryRecorder, IncrementalSweep,
    InvarNetConfig, InvariantSet, MicMeasure, NullSink, OperationContext, PassScope,
    PearsonMeasure, ScreenOutcome, Similarity, SweepBudget, SweepPool, Telemetry, ViolationTuple,
};
use ix_history::HistoryStore;
use ix_metrics::{MetricFrame, MetricId, METRIC_COUNT};
use ix_mic::{mic_with_params, MicParams};
use ix_replay::{Breakpoint, EventKind, ReplayDebugger, Replayer};
use ix_serve::{Fleet, ServeClient, ServerHandle, TenantId};
use ix_simulator::{FaultType, Runner, WorkloadType};
use ix_timeseries::ArProcess;

/// The simulator seed every trained section uses.
const SEED: u64 = 11;

/// One named measurement.
struct Metric {
    name: String,
    unit: &'static str,
    better: &'static str,
    value: f64,
}

/// One layer's measurements.
struct Section {
    name: &'static str,
    metrics: Vec<Metric>,
}

impl Section {
    fn new(name: &'static str) -> Self {
        Section {
            name,
            metrics: Vec::new(),
        }
    }

    fn push(&mut self, name: impl Into<String>, unit: &'static str, better: &'static str, v: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            better,
            value: v,
        });
    }

    fn lower(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name, unit, "lower", value);
    }

    fn higher(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name, unit, "higher", value);
    }
}

/// Run settings shared by every section.
#[derive(Clone, Copy)]
struct Perf {
    quick: bool,
}

impl Perf {
    /// `full` normally, `quick` under `--quick`.
    fn size(self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Sorted wall-clock nanoseconds per call of `f`, one entry per
    /// sample of `batch` calls (one sample of one call under `--quick`).
    fn samples<R>(self, samples: usize, batch: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
        let (samples, batch) = (self.size(samples, 1), self.size(batch, 1));
        let mut ns: Vec<f64> = (0..samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        ns.sort_by(f64::total_cmp);
        ns
    }

    /// Median wall-clock nanoseconds per call of `f`.
    fn ns<R>(self, samples: usize, batch: usize, f: impl FnMut() -> R) -> f64 {
        let ns = self.samples(samples, batch, f);
        ns[ns.len() / 2]
    }
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

// ---------------------------------------------------------------- sweep

/// `total` ticks of a latent-coupled stream. The LCG advances a fixed
/// number of draws per tick, so a window at any offset is bit-identical to
/// the same rows generated in one go — the overlap property the
/// incremental slide detector requires.
fn stream_rows(total: usize) -> Vec<Vec<f64>> {
    let mut state = 42u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    (0..total)
        .map(|t| {
            let latent = (t as f64 * 0.23).sin() * 5.0 + 10.0 + 0.2 * next();
            (0..METRIC_COUNT)
                .map(|k| latent * (k + 1) as f64 + 0.1 * next())
                .collect()
        })
        .collect()
}

/// The stream's window `[offset, offset + ticks)` as a batch frame.
fn window_frame(rows: &[Vec<f64>], offset: usize, ticks: usize) -> MetricFrame {
    let mut f = MetricFrame::new();
    for row in &rows[offset..offset + ticks] {
        f.push_tick(row).expect("full-width row");
    }
    f
}

/// The same window series-major, the shape [`IncrementalSweep`] consumes.
fn window_series(rows: &[Vec<f64>], offset: usize, ticks: usize) -> Vec<Vec<f64>> {
    (0..METRIC_COUNT)
        .map(|k| rows[offset..offset + ticks].iter().map(|r| r[k]).collect())
        .collect()
}

/// MIC without a sweep plan: per-pair re-sort/re-partition, the
/// pre-profile-cache path, kept to isolate what the per-series
/// [`ix_mic::SeriesProfile`] cache buys.
struct UnplannedMic(MicMeasure);

impl AssociationMeasure for UnplannedMic {
    fn score(&self, x: &[f64], y: &[f64]) -> f64 {
        self.0.score(x, y)
    }

    fn name(&self) -> &'static str {
        "MIC(unplanned)"
    }
}

/// Drives one [`IncrementalSweep`] through `steps` slide-by-one windows,
/// asserting after every advance that the violation tuple — and every
/// invariant-pair score outside the provably-safe screened band — is
/// bit-identical to a full from-scratch sweep. Returns per-step timings
/// in ns (advance + rescore only) and the accumulated screen counters.
fn steady_state(
    rows: &[Vec<f64>],
    ticks: usize,
    steps: usize,
    epsilon: f64,
) -> (Vec<f64>, ScreenOutcome) {
    let mic = MicMeasure::new(MicParams::fast());
    let measure: Arc<dyn AssociationMeasure> = Arc::new(MicMeasure::new(MicParams::fast()));
    let pool = SweepPool::new(1);
    let base = window_frame(rows, 0, ticks);
    let matrix = AssociationMatrix::compute(&base, &mic, 1);
    let invariants = InvariantSet::select(std::slice::from_ref(&matrix), 0.2);
    let scope = PassScope::detached();
    let mut inc = IncrementalSweep::cold(
        &measure,
        window_series(rows, 0, ticks),
        vec![0.0; pair_count()],
        &invariants,
        &pool,
        &scope,
    )
    .expect("an unbounded pass completes");
    let mut timings = Vec::with_capacity(steps);
    let mut totals = ScreenOutcome::default();
    for step in 1..=steps {
        let series = window_series(rows, step, ticks);
        let t = Instant::now();
        let outcome = inc.advance(&series);
        let screen = inc
            .rescore(&invariants, epsilon, &pool, &scope)
            .expect("a cold record has a plan");
        timings.push(t.elapsed().as_nanos() as f64);
        assert_eq!(outcome, AdvanceOutcome::Advanced { shift: 1 });
        totals.reused += screen.reused;
        totals.screened += screen.screened;
        totals.confirmed += screen.confirmed;
        let fresh = AssociationMatrix::compute(&window_frame(rows, step, ticks), &mic, 1);
        assert_eq!(
            ViolationTuple::build(&invariants, &inc.matrix(), epsilon),
            ViolationTuple::build(&invariants, &fresh, epsilon),
            "step {step}: incremental violation tuple diverged from from-scratch"
        );
        for e in invariants.entries() {
            let got = inc.matrix().at(e.pair);
            let want = fresh.at(e.pair);
            let both_zero_grade =
                (e.value - got).abs() < epsilon && (e.value - want).abs() < epsilon;
            assert!(
                got.to_bits() == want.to_bits() || both_zero_grade,
                "step {step} pair {}: incremental {got} vs from-scratch {want}",
                e.pair
            );
        }
    }
    timings.sort_by(f64::total_cmp);
    (timings, totals)
}

/// The 26-metric / 325-pair association sweep: kernels, pool sizes, and
/// the steady-state incremental slide.
fn sweep(perf: Perf) -> Section {
    let mut s = Section::new("sweep");
    let (ticks, steps) = (perf.size(120, 60), perf.size(64, 8));
    let rows = stream_rows(ticks + steps);
    let window = window_frame(&rows, 0, ticks);
    let mic = MicMeasure::new(MicParams::fast());
    let mic_dyn: Arc<dyn AssociationMeasure> = Arc::new(MicMeasure::new(MicParams::fast()));
    let pearson_dyn: Arc<dyn AssociationMeasure> = Arc::new(PearsonMeasure);
    let reference = AssociationMatrix::compute(&window, &mic, 1);

    let single = perf.ns(7, 1, || {
        assert_eq!(AssociationMatrix::compute(&window, &mic, 1), reference);
    });
    s.lower("mic_single_thread_ms", "ms", single / 1e6);
    let unplanned_mic = UnplannedMic(MicMeasure::new(MicParams::fast()));
    let unplanned = perf.ns(7, 1, || {
        assert_eq!(
            AssociationMatrix::compute(&window, &unplanned_mic, 1),
            reference
        );
    });
    s.lower("mic_unplanned_single_thread_ms", "ms", unplanned / 1e6);
    for threads in [1usize, 4, 8] {
        let pool = SweepPool::new(threads);
        let ns = perf.ns(7, 1, || {
            assert_eq!(pool.sweep(&window, &mic_dyn), reference)
        });
        s.lower(format!("mic_pool{threads}_ms"), "ms", ns / 1e6);
    }
    // Pearson is cheap enough that per-call thread startup dominates:
    // the persistent pool against a scoped spawn per call.
    let pearson_pool = SweepPool::new(4);
    let pooled = perf.ns(21, 1, || pearson_pool.sweep(&window, &pearson_dyn));
    s.lower("pearson_pool4_ms", "ms", pooled / 1e6);
    let spawned = perf.ns(21, 1, || {
        AssociationMatrix::compute(&window, &PearsonMeasure, 4)
    });
    s.lower("pearson_spawn4_ms", "ms", spawned / 1e6);

    let (timings, totals) = steady_state(&rows, ticks, steps, 0.2);
    eprintln!(
        "perf sweep: incremental == from-scratch over {steps} slides \
         ({} reused / {} screened / {} confirmed) OK",
        totals.reused, totals.screened, totals.confirmed
    );
    s.lower(
        "steady_state_incremental_ms",
        "ms",
        timings[timings.len() / 2] / 1e6,
    );
    let stale_invariant = totals.screened + totals.confirmed;
    let hit_rate = if stale_invariant > 0 {
        totals.screened as f64 / stale_invariant as f64
    } else {
        0.0
    };
    s.higher("screen_hit_rate", "ratio", hit_rate);
    let per_step = |n: usize| n as f64 / steps as f64;
    s.higher("reused_pairs_per_slide", "count", per_step(totals.reused));
    s.higher(
        "screened_pairs_per_slide",
        "count",
        per_step(totals.screened),
    );
    s.lower(
        "confirmed_pairs_per_slide",
        "count",
        per_step(totals.confirmed),
    );
    s
}

// -------------------------------------------------- history + telemetry

/// Replays one normal Wordcount run through `Engine::ingest` on two
/// engines trained alike, a plain one and one built from `observed`,
/// alternating samples so host phases hit both alike. Records each
/// replay's median µs under `names[0]` and `names[1]`, and the median
/// paired difference per tick in ns under `names[2]`; returns the run's
/// tick count. A normal run fires no detection, so the difference is the
/// observer's per-tick cost.
fn ingest_overhead(
    perf: Perf,
    s: &mut Section,
    observed: EngineBuilder,
    names: [&str; 3],
) -> usize {
    let engines = [Engine::builder(), observed].map(|b| train_wordcount(SEED, b).expect("train"));
    let live = engines[0].runner.normal_run(WorkloadType::Wordcount, 50);
    let node = &live.per_node[Runner::DEFAULT_FAULT_NODE];
    let cpi = node.cpi.cpi_series();
    let ticks = node.frame.ticks().min(cpi.len());
    let replay_ns = |trained: &TrainedContext| {
        let started = Instant::now();
        trained.engine.reset_run(&trained.context);
        for (t, &sample) in cpi.iter().enumerate().take(ticks) {
            trained
                .engine
                .ingest(&trained.context, sample, node.frame.tick(t))
                .expect("ingest");
        }
        started.elapsed().as_nanos() as f64
    };
    let mut samples: [Vec<f64>; 3] = Default::default();
    for _ in 0..perf.size(31, 1) {
        let (base, with) = (replay_ns(&engines[0]), replay_ns(&engines[1]));
        for (sample, v) in samples.iter_mut().zip([base, with, with - base]) {
            sample.push(v);
        }
    }
    let [base, with, delta] = samples.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    });
    s.lower(names[0], "us", base / 1e3);
    s.lower(names[1], "us", with / 1e3);
    s.lower(names[2], "ns", (delta / ticks as f64).max(0.0));
    ticks
}

/// The `ix-history` recording overhead on ingest, and scans of a
/// 10k-tick store.
fn history(perf: Perf) -> Section {
    let mut s = Section::new("history");
    let ticks = ingest_overhead(
        perf,
        &mut s,
        Engine::builder().history(HistoryStore::builder().shared()),
        [
            "ingest_run_no_history_us",
            "ingest_run_with_history_us",
            "recording_overhead_ns_per_tick",
        ],
    );
    s.higher("replayed_run_ticks", "count", ticks as f64);

    let id = ContextId::from_index(0);
    let row: Vec<f64> = (0..METRIC_COUNT).map(|m| m as f64).collect();
    let direct = HistoryStore::new();
    let mut t = 0u64;
    let ns = perf.ns(15, 10_000, || {
        t += 1;
        direct.record_tick(id, t, 1.0, 0.1, false, &row);
    });
    s.lower("record_tick_direct_ns", "ns", ns);

    // Runs of 1000 ticks, ten of them.
    let store = HistoryStore::new();
    for t in 0..10_000u64 {
        if t % 1000 == 0 {
            store.record_run_reset(id);
        }
        store.record_tick(id, t, 1.0, 0.1, false, &row);
    }
    let ns = perf.ns(51, 1, || store.window_frame(id, 60).expect("window"));
    s.lower("window_frame_60_of_10k_us", "us", ns / 1e3);
    let ns = perf.ns(51, 1, || {
        store.frame_for_ticks(id, 5_000..5_060).expect("window")
    });
    s.lower("frame_for_ticks_60_of_10k_us", "us", ns / 1e3);
    let ns = perf.ns(51, 1, || {
        store
            .series(id, MetricId::MemUsed, 0..10_000)
            .expect("series")
    });
    s.lower("series_scan_10k_rows_us", "us", ns / 1e3);
    let bytes = store.to_bytes();
    s.lower(
        "serialize_10k_ms",
        "ms",
        perf.ns(7, 1, || store.to_bytes()) / 1e6,
    );
    let ns = perf.ns(7, 1, || HistoryStore::from_bytes(&bytes).expect("parse"));
    s.lower("parse_10k_ms", "ms", ns / 1e6);
    s.lower("history_file_bytes", "B", bytes.len() as f64);
    s
}

/// Telemetry overhead on the ingest path, and the sink-only costs.
fn telemetry(perf: Perf) -> Section {
    let mut s = Section::new("telemetry");
    ingest_overhead(
        perf,
        &mut s,
        Engine::builder().telemetry(&Telemetry::shared()),
        [
            "ingest_run_null_sink_us",
            "ingest_run_full_telemetry_us",
            "telemetry_overhead_ns_per_tick",
        ],
    );

    let telemetry = Telemetry::new();
    let tick = |context| EngineEvent::TickIngested {
        context,
        tick: 1,
        residual: 0.25,
        exceeded: false,
        micros: 3,
    };
    let attributed = tick(
        telemetry
            .contexts()
            .intern(&OperationContext::new("10.0.0.2", "Wordcount")),
    );
    let unattributed = tick(ContextId::UNATTRIBUTED);
    let ns = perf.ns(21, 100_000, || NullSink.record(black_box(&attributed)));
    s.lower("record_tick_null_sink_ns", "ns", ns);
    let ns = perf.ns(21, 100_000, || telemetry.record(black_box(&attributed)));
    s.lower("record_tick_telemetry_ns", "ns", ns);
    let ns = perf.ns(21, 100_000, || telemetry.record(black_box(&unattributed)));
    s.lower("record_tick_unattributed_ns", "ns", ns);
    let histogram = Histogram::new();
    let mut v = 0u64;
    let ns = perf.ns(21, 100_000, || {
        v = v.wrapping_add(997);
        histogram.record(black_box(v));
    });
    s.lower("histogram_record_ns", "ns", ns);
    s
}

// ----------------------------------------------------------- resilience

/// A trained context with two CpuHog, MemHog and DiskHog signatures each.
fn incident_engine() -> TrainedContext {
    let trained = train_wordcount(SEED, Engine::builder()).expect("train");
    for fault in [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog] {
        for run_idx in 0..2 {
            let run = trained
                .runner
                .fault_run(WorkloadType::Wordcount, fault, run_idx);
            trained
                .engine
                .record_signature(
                    &trained.context,
                    fault.name(),
                    &run.fault_window().expect("window"),
                )
                .expect("signature");
        }
    }
    trained
}

fn memhog_window(runner: &Runner, run_idx: usize) -> MetricFrame {
    runner
        .fault_run(WorkloadType::Wordcount, FaultType::MemHog, run_idx)
        .fault_window()
        .expect("fault window")
}

/// The budget ladder on 120-tick MemHog windows, and signature-database
/// access.
fn resilience(perf: Perf) -> Section {
    let mut s = Section::new("resilience");
    let TrainedContext {
        engine,
        context,
        runner,
        ..
    } = incident_engine();
    // Two incident windows that are not slides of each other, alternated,
    // so every diagnosis pays for (or abandons) a real sweep instead of
    // rescoring the context's record.
    let windows = [9, 10].map(|run_idx| memhog_window(&runner, run_idx));
    let turn = Cell::new(0);
    let next_window = || {
        turn.set(turn.get() ^ 1);
        &windows[turn.get()]
    };

    let ns = perf.ns(21, 1, || {
        let d = engine
            .diagnose_with_budget(&context, next_window(), SweepBudget::UNLIMITED)
            .expect("diagnose");
        assert!(d.degradation.is_none(), "unlimited budget never degrades");
    });
    s.lower("diagnose_unlimited_budget_ms", "ms", ns / 1e6);

    // A 5 ms budget must come back via a *declared* fallback tier whenever
    // full fidelity cannot fit. The check reads the wall clock, so it is
    // a timing gate and `--quick` skips it.
    let budgeted = perf.samples(21, 1, || {
        let started = Instant::now();
        let d = engine
            .diagnose_with_budget(&context, next_window(), SweepBudget::wall_millis(5))
            .expect("diagnose");
        assert!(
            perf.quick || d.degradation.is_some() || started.elapsed().as_millis() <= 5,
            "an over-budget sweep must declare its fallback tier"
        );
    });
    s.lower(
        "diagnose_budget_5ms_ms",
        "ms",
        budgeted[budgeted.len() / 2] / 1e6,
    );
    s.lower(
        "diagnose_budget_5ms_max_ms",
        "ms",
        budgeted[budgeted.len() - 1] / 1e6,
    );

    // Tier 1: the context's sweep record answers a fresh window from its
    // stale matrix.
    let warm = incident_engine();
    warm.engine
        .diagnose_with_budget(&warm.context, &windows[0], SweepBudget::UNLIMITED)
        .expect("write the record");
    let fresh = memhog_window(&runner, 12);
    let ns = perf.ns(21, 1, || {
        warm.engine
            .diagnose_with_budget(&warm.context, &fresh, SweepBudget::wall_millis(5))
            .expect("diagnose")
    });
    s.lower("diagnose_budget_5ms_cached_tier_us", "us", ns / 1e3);

    // Guard access against the deep clone it replaced.
    let ns = perf.ns(21, 100, || engine.signature_database().len());
    s.lower("signature_db_clone_len_us", "us", ns / 1e3);
    let ns = perf.ns(21, 10_000, || engine.with_signature_database(|db| db.len()));
    s.lower("signature_db_guard_len_ns", "ns", ns);
    s
}

// --------------------------------------------------------------- replay

/// The `ix-replay` record → verify → debug → bisect path on the canonical
/// recorded scenario.
fn replay(perf: Perf) -> Section {
    let mut s = Section::new("replay");
    let ns = perf.ns(5, 1, || {
        record_fault_scenario(SEED).expect("record scenario")
    });
    s.lower("record_scenario_ms", "ms", ns / 1e6);
    let scenario = record_fault_scenario(SEED).expect("record scenario");
    let ticks = scenario.ticks;
    let bytes = scenario.trace.to_bytes();
    let replayer = || {
        let store = HistoryStore::from_bytes(&bytes).expect("parse trace");
        Replayer::builder()
            .recorded(Arc::new(store))
            .build()
            .expect("replayer")
    };

    // Verify: ship the trace through bytes, rebuild the engine from the
    // embedded header, re-ingest every tick and compare everything.
    let verify = perf.ns(9, 1, || {
        let report = replayer().verify().expect("verify");
        assert!(report.is_clean(), "the recorded trace must replay clean");
    });
    s.lower("verify_round_trip_ms", "ms", verify / 1e6);
    s.lower("verify_us_per_tick", "us", verify / 1e3 / ticks as f64);
    let ns = perf.ns(9, 1, || {
        let mut debugger = ReplayDebugger::new(replayer());
        debugger.add_breakpoint(Breakpoint::on_event(EventKind::DiagnosisRan));
        debugger.run().expect("run to breakpoint");
    });
    s.lower("debug_to_first_diagnosis_ms", "ms", ns / 1e6);

    // Bisect: find a planted single-tick perturbation near the end. The
    // tampered twin is rebuilt row by row (history is append-only, so
    // there is no in-place mutation to reach for).
    let target = ticks as u64 - 3;
    let original = HistoryStore::from_bytes(&bytes).expect("parse trace");
    let perturbed = {
        let context = original.contexts()[0];
        let label = original.label(context);
        let (workload, node) = label.split_once('@').expect("workload@node label");
        let copy = HistoryStore::builder().shared();
        let registry = Arc::new(ContextRegistry::new());
        let id = registry.intern(&OperationContext::new(node, workload));
        copy.bind_registry(&registry);
        let rows = ix_query::context_rows(&original, context, 0..original.rows(context))
            .expect("recorded rows materialize");
        for row in rows {
            let mut metrics = row.metrics;
            if row.tick == target {
                metrics[3] += 1e-9;
            }
            copy.record_tick(id, row.tick, row.cpi, row.residual, row.exceeded, &metrics);
        }
        copy
    };
    let ns = perf.ns(9, 1, || {
        let report = ix_replay::bisect(&original, &perturbed).expect("perturbation must be found");
        assert_eq!(report.tick, target);
    });
    s.lower("bisect_single_tick_ms", "ms", ns / 1e6);
    s.higher("trace_ticks", "count", ticks as f64);
    s.lower("trace_bytes", "B", bytes.len() as f64);
    s
}

// ---------------------------------------------------------------- serve

/// Cadence rounds: one tick for every tenant per round.
const ROUNDS: usize = 3;
/// Ticks crossing the TCP server for frame-latency sampling.
const WIRE_SAMPLE: usize = 2_000;
/// Tenants force-evicted and warmed for cold→warm timing.
const WARM_SAMPLE: usize = 100;

/// Fleet-scale serving: can one box hold 100k tenants (2k under
/// `--quick`) at the paper's 10-second cadence? One trained template
/// seeds every single-context tenant. Cadence rounds tick every tenant
/// through the [`Fleet`] surface, a wire sample crosses a real loopback
/// `IXSRV01` server, and a tenant sample is evicted and warmed back.
fn serve(perf: Perf) -> Section {
    let mut s = Section::new("serve");
    let tenants = perf.size(100_000, 2_000);
    let TrainedContext {
        engine: template,
        context,
        runner,
        normals,
    } = train_wordcount(SEED, Engine::builder()).expect("train template");
    let fault = runner.fault_run(WorkloadType::Wordcount, FaultType::MemHog, 0);
    template
        .record_signature(
            &context,
            FaultType::MemHog.name(),
            &fault.fault_window().expect("window"),
        )
        .expect("record signature");
    let store = template.snapshot_state();

    // Normal-phase ticks every tenant replays: anomaly-free, so rounds
    // measure the steady-state ingest path, not diagnosis sweeps.
    let node = &normals[0].per_node[Runner::DEFAULT_FAULT_NODE];
    let cpi = node.cpi.cpi_series();
    let ticks: Vec<(f64, &[f64])> = (0..node.frame.ticks().min(cpi.len()))
        .map(|t| (cpi[t], node.frame.tick(t)))
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
    let ids: Vec<TenantId> = (0..tenants)
        .map(|i| TenantId::new(format!("t{i}")).expect("valid"))
        .collect();
    let setup = Instant::now();
    for id in &ids {
        fleet
            .with_engine(id, |e| e.load_state(&store))
            .expect("materialize")
            .expect("load");
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let mut ingest_us: Vec<u64> = Vec::with_capacity(tenants * ROUNDS);
    let mut round_s: Vec<f64> = Vec::with_capacity(ROUNDS);
    for &(tick_cpi, tick_row) in ticks.iter().cycle().take(ROUNDS) {
        let round = Instant::now();
        for id in &ids {
            let t = Instant::now();
            fleet
                .ingest(id, &context, tick_cpi, tick_row)
                .expect("ingest");
            ingest_us.push(t.elapsed().as_micros() as u64);
        }
        round_s.push(round.elapsed().as_secs_f64());
    }
    ingest_us.sort_unstable();

    let server = ServerHandle::builder()
        .accept_threads(1)
        .start(Arc::clone(&fleet))
        .expect("start server");
    let mut client = ServeClient::connect(server.addr()).expect("connect");
    let mut frame_us: Vec<u64> = Vec::with_capacity(WIRE_SAMPLE);
    for i in 0..WIRE_SAMPLE {
        let (tick_cpi, tick_row) = ticks[(ROUNDS + i / ids.len()) % ticks.len()];
        let t = Instant::now();
        client
            .ingest(
                &ids[i % ids.len()],
                &context.node,
                &context.workload,
                tick_cpi,
                tick_row,
            )
            .expect("wire ingest");
        frame_us.push(t.elapsed().as_micros() as u64);
    }
    server.stop();
    frame_us.sort_unstable();
    eprintln!("perf serve: {tenants} tenants, {WIRE_SAMPLE} frames over loopback TCP OK");

    let mut warm_us: Vec<u64> = Vec::with_capacity(WARM_SAMPLE);
    let mut snapshot_bytes = 0;
    for id in ids.iter().take(WARM_SAMPLE) {
        snapshot_bytes = fleet.snapshot_bytes(id).expect("snapshot").len();
        fleet.evict(id).expect("evict");
        warm_us.push(fleet.warm(id).expect("warm"));
    }
    warm_us.sort_unstable();

    s.higher("tenants", "count", tenants as f64);
    s.lower("fleet_setup_s", "s", setup_s);
    let total_s: f64 = round_s.iter().sum();
    s.higher(
        "ingest_throughput_ticks_per_s",
        "1/s",
        (tenants * ROUNDS) as f64 / total_s,
    );
    s.lower(
        "worst_round_s",
        "s",
        round_s.iter().copied().fold(0.0, f64::max),
    );
    s.lower("ingest_p50_us", "us", percentile(&ingest_us, 50.0));
    s.lower("ingest_p99_us", "us", percentile(&ingest_us, 99.0));
    s.lower("frame_p50_us", "us", percentile(&frame_us, 50.0));
    s.lower("frame_p99_us", "us", percentile(&frame_us, 99.0));
    s.lower("cold_warm_p50_us", "us", percentile(&warm_us, 50.0));
    s.lower("cold_warm_p99_us", "us", percentile(&warm_us, 99.0));
    s.lower("cold_warm_max_us", "us", percentile(&warm_us, 100.0));
    s.lower("snapshot_bytes", "B", snapshot_bytes as f64);
    s
}

// -------------------------------------------------------------- kernels

/// The statistical kernels behind Table 1's stages: MIC and ARX pair
/// scores, an ARIMA fit, signature search and one simulated run.
fn kernels(perf: Perf) -> Section {
    let mut s = Section::new("kernels");
    let series = |n, seed| {
        ArProcess {
            phi: vec![0.6],
            sigma: 1.0,
            c: 0.0,
        }
        .generate(n, seed)
    };
    for n in [45usize, 120, 300] {
        let (x, y) = (series(n, 1), series(n, 2));
        for (label, params) in [
            ("default", MicParams::default()),
            ("fast", MicParams::fast()),
        ] {
            let ns = perf.ns(21, 5, || mic_with_params(&x, &y, &params));
            s.lower(format!("mic_pair_{label}_{n}_us"), "us", ns / 1e3);
        }
    }
    for n in [45usize, 120] {
        let (x, y) = (series(n, 3), series(n, 4));
        let ns = perf.ns(21, 5, || arx_association(&x, &y, ArxSearch::default()));
        s.lower(format!("arx_pair_{n}_us"), "us", ns / 1e3);
    }
    let xs = series(150, 5);
    let ns = perf.ns(21, 5, || {
        ArimaModel::fit(&xs, ArimaSpec::new(1, 1, 0)).expect("fit")
    });
    s.lower("arima_fit_110_us", "us", ns / 1e3);

    // One incident's tuple over a typical invariant count, against 30
    // recorded signatures that differ from it in every seventh entry.
    let graded = |k: usize| {
        (0..247)
            .map(|i| match ((i + k) % 7, i % 3) {
                (0, _) => 0.4,
                (_, 0) => 0.2 + (i % 5) as f64 * 0.1,
                _ => 0.0,
            })
            .collect()
    };
    let tuple = ViolationTuple::from_graded(graded(0));
    let db: Vec<ViolationTuple> = (1..=30)
        .map(|k| ViolationTuple::from_graded(graded(k)))
        .collect();
    let ns = perf.ns(21, 100, || {
        db.iter()
            .map(|sig| tuple.similarity(sig, Similarity::Cosine).expect("aligned"))
            .fold(0.0f64, f64::max)
    });
    s.lower("signature_search_30_records_us", "us", ns / 1e3);
    let runner = Runner::new(9);
    let ns = perf.ns(7, 1, || runner.normal_run(WorkloadType::Wordcount, 123));
    s.lower("simulate_wordcount_run_ms", "ms", ns / 1e6);
    s
}

// --------------------------------------------------------------- output

/// A JSON string literal.
fn quote(text: &str) -> String {
    format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The host's CPU model, from `/proc/cpuinfo` where there is one.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn render(quick: bool, sections: &[Section]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = format!(
        "{{\n  \"host\": {{\"os\": {}, \"arch\": {}, \"available_parallelism\": {cores}, \
         \"cpu_model\": {}}},\n  \"quick\": {quick},\n  \"sections\": {{\n",
        quote(std::env::consts::OS),
        quote(std::env::consts::ARCH),
        quote(&cpu_model()),
    );
    for (i, section) in sections.iter().enumerate() {
        out += &format!("    {}: [\n", quote(section.name));
        for (j, m) in section.metrics.iter().enumerate() {
            out += &format!(
                "      {{\"name\": {}, \"unit\": {}, \"better\": {}, \"value\": {}}}{}\n",
                quote(&m.name),
                quote(m.unit),
                quote(m.better),
                m.value,
                if j + 1 < section.metrics.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        out += if i + 1 < sections.len() {
            "    ],\n"
        } else {
            "    ]\n"
        };
    }
    out + "  }\n}"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = match args.as_slice() {
        [] => false,
        [flag] if flag == "--quick" => true,
        _ => {
            eprintln!("usage: perf [--quick]");
            return ExitCode::from(2);
        }
    };
    let perf = Perf { quick };
    let sections = [
        sweep(perf),
        history(perf),
        replay(perf),
        serve(perf),
        telemetry(perf),
        resilience(perf),
        kernels(perf),
    ];
    println!("{}", render(quick, &sections));
    ExitCode::SUCCESS
}
