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
//! from-scratch over 8 slides of a MemHog fault run, which score at least
//! one pair exactly, 2k tenants round-trip over loopback TCP, a
//! clean replay verify, a bisect that pins the planted tick, and every
//! budgeted diagnosis declaring a degradation exactly when its pass left
//! pairs unsettled.

use std::cell::Cell;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ix_arima::{ArimaModel, ArimaSpec};
use ix_arx::{arx_association, ArxSearch};
use ix_bench::scenario::{
    record_fault_scenario, train_wordcount, TrainedContext, WordcountTraining,
};
use ix_core::{
    pair_count, AdvanceOutcome, AssociationMatrix, AssociationMeasure, ContextId, ContextRegistry,
    Engine, EngineBuilder, EngineEvent, EventSink, Histogram, HistoryRecorder, IncrementalSweep,
    InvarNetConfig, MicMeasure, NullSink, OperationContext, PassScope, PearsonMeasure,
    ScreenOutcome, Similarity, SweepBudget, SweepPool, Telemetry, ViolationTuple,
};
use ix_history::HistoryStore;
use ix_metrics::{MetricFrame, MetricId, METRIC_COUNT};
use ix_mic::{
    mic_floor_scratch, mic_with_params, mic_with_profiles_scratch, Floored, MicParams, MineScratch,
    SeriesProfile,
};
use ix_replay::{Breakpoint, EventKind, ReplayDebugger, Replayer};
use ix_serve::wire::{self, IngestRequest, Op, RequestFrame};
use ix_serve::{handle_request, Fleet, ServeClient, ServerHandle, TenantId};
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

/// `ticks` ticks of a latent-coupled stream: every metric tracks one
/// noisy sine, so most of the 325 pairs associate strongly.
fn stream_window(ticks: usize) -> MetricFrame {
    let mut state = 42u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut f = MetricFrame::new();
    for t in 0..ticks {
        let latent = (t as f64 * 0.23).sin() * 5.0 + 10.0 + 0.2 * next();
        let row: Vec<f64> = (0..METRIC_COUNT)
            .map(|k| latent * (k + 1) as f64 + 0.1 * next())
            .collect();
        f.push_tick(&row).expect("full-width row");
    }
    f
}

/// A frame series-major, the shape [`IncrementalSweep`] consumes.
fn series_of(frame: &MetricFrame) -> Vec<Vec<f64>> {
    MetricId::ALL.iter().map(|&m| frame.series(m)).collect()
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

/// The diagnosis pass on a slid window, on the seed's trained Wordcount
/// context (its 247 invariants, the default config's MIC parameters and
/// ε): one [`IncrementalSweep`] cold on the MemHog fault window of run 3,
/// then `steps` slide-by-one windows of the same run. After every advance
/// the violation tuple — and every invariant-pair score outside the
/// provably-safe cleared band — must be bit-identical to a full
/// from-scratch sweep. Returns per-step timings in ns (advance + rescore
/// only), the first slide's screen counters, their sum over all slides,
/// and the counters of the cold pass the slides start from.
fn steady_state(
    runs: &WordcountTraining,
    steps: usize,
) -> (Vec<f64>, ScreenOutcome, ScreenOutcome, ScreenOutcome) {
    let engine = Engine::builder().threads(1).build();
    runs.train(&engine).expect("train");
    let invariants = engine.invariant_set(&runs.context).expect("invariants");
    assert_eq!(
        invariants.len(),
        247,
        "the seeded context's invariant count"
    );
    let (params, epsilon) = (engine.config().mic, engine.config().epsilon);
    let mic = MicMeasure::new(params);
    let measure: Arc<dyn AssociationMeasure> = Arc::new(MicMeasure::new(params));
    let pool = SweepPool::new(1);
    let run = runs
        .runner
        .fault_run(WorkloadType::Wordcount, FaultType::MemHog, 3);
    let fault = run.fault.expect("a fault run");
    let ticks = run.fault_window().expect("fault window").ticks();
    let frame = &run.per_node[fault.node].frame;
    let window = |step: usize| {
        let start = fault.start_tick + step;
        frame.window(start..start + ticks)
    };
    assert!(
        fault.start_tick + steps + ticks <= frame.ticks(),
        "{steps} slides run past the fault run's {} ticks",
        frame.ticks()
    );
    let scope = PassScope::detached();
    let (mut inc, cold) = IncrementalSweep::cold(
        &measure,
        series_of(&window(0)),
        None,
        &invariants,
        epsilon,
        &pool,
        &scope,
    );
    assert_eq!(cold.unreached, 0, "an unbounded pass completes");
    let mut timings = Vec::with_capacity(steps);
    let mut first = ScreenOutcome::default();
    let mut totals = ScreenOutcome::default();
    for step in 1..=steps {
        let slid = window(step);
        let series = series_of(&slid);
        let t = Instant::now();
        let outcome = inc.advance(&series);
        let screen = inc.rescore(&invariants, epsilon, &pool, &scope);
        timings.push(t.elapsed().as_nanos() as f64);
        assert_eq!(outcome, AdvanceOutcome::Advanced { shift: 1 });
        if step == 1 {
            first = screen;
        }
        totals.reused += screen.reused;
        totals.screened += screen.screened;
        totals.confirmed += screen.confirmed;
        let fresh = AssociationMatrix::compute(&slid, &mic, 1);
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
    (timings, first, totals, cold)
}

/// The 26-metric / 325-pair association sweep: kernels and pool sizes,
/// the diagnosis pass on a slid window, and training.
fn sweep(perf: Perf) -> Section {
    let mut s = Section::new("sweep");
    let window = stream_window(perf.size(120, 60));
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
            assert_eq!(
                pool.sweep(&window, &mic_dyn, &PassScope::detached()),
                reference
            )
        });
        s.lower(format!("mic_pool{threads}_ms"), "ms", ns / 1e6);
    }
    // Pearson is cheap enough that per-call thread startup dominates:
    // the persistent pool against a scoped spawn per call.
    let pearson_pool = SweepPool::new(4);
    let pooled = perf.ns(21, 1, || {
        pearson_pool.sweep(&window, &pearson_dyn, &PassScope::detached())
    });
    s.lower("pearson_pool4_ms", "ms", pooled / 1e6);
    let spawned = perf.ns(21, 1, || {
        AssociationMatrix::compute(&window, &PearsonMeasure, 4)
    });
    s.lower("pearson_spawn4_ms", "ms", spawned / 1e6);

    let runs = WordcountTraining::new(SEED);
    let steps = perf.size(32, 8);
    let (timings, first, totals, cold) = steady_state(&runs, steps);
    eprintln!(
        "perf sweep: first slide {} reused / {} cleared / {} exact; \
         incremental == from-scratch over {steps} slides \
         ({} reused / {} cleared / {} exact) OK",
        first.reused,
        first.screened,
        first.confirmed,
        totals.reused,
        totals.screened,
        totals.confirmed
    );
    // A slide that scores no pair exactly times no kernel run to the end.
    assert!(totals.confirmed > 0, "no slide scored a pair exactly");
    s.lower(
        "steady_state_incremental_ms",
        "ms",
        timings[timings.len() / 2] / 1e6,
    );
    let per_step = |n: usize| n as f64 / steps as f64;
    s.higher("reused_pairs_per_slide", "count", per_step(totals.reused));
    s.higher(
        "cleared_pairs_per_slide",
        "count",
        per_step(totals.screened),
    );
    s.lower("exact_pairs_per_slide", "count", per_step(totals.confirmed));
    s.higher("cleared_pairs_per_cold_pass", "count", cold.screened as f64);
    training(perf, &runs, &mut s);
    s
}

/// Counts the sweep events `perf`'s count records and verdict checks read.
#[derive(Default)]
struct SweepTally {
    /// `PairsScored::pairs`, summed: the pairs the pool scored.
    scored: AtomicUsize,
    /// `SweepScreened::confirmed`, summed: the pairs scored exactly.
    exact: AtomicUsize,
    /// `reused + screened + confirmed` of the last `SweepScreened`: the
    /// pairs that pass left settled.
    settled: AtomicUsize,
}

impl SweepTally {
    /// Pairs scored and pairs scored exactly since the last call.
    // ordering: Relaxed — read after the counted call returned, which
    // joined every pool worker.
    fn take(&self) -> (usize, usize) {
        (
            self.scored.swap(0, Ordering::Relaxed),
            self.exact.swap(0, Ordering::Relaxed),
        )
    }
}

impl EventSink for SweepTally {
    // ordering: Relaxed — read after the diagnosis or training call
    // returned, which joined every pool worker.
    fn record(&self, event: &EngineEvent) {
        match *event {
            EngineEvent::PairsScored { pairs, .. } => {
                self.scored.fetch_add(pairs, Ordering::Relaxed);
            }
            EngineEvent::SweepScreened {
                reused,
                screened,
                confirmed,
                ..
            } => {
                self.exact.fetch_add(confirmed, Ordering::Relaxed);
                self.settled
                    .store(reused + screened + confirmed, Ordering::Relaxed);
            }
            EngineEvent::TickIngested { .. }
            | EngineEvent::DetectionFired { .. }
            | EngineEvent::DetectionCleared { .. }
            | EngineEvent::DiagnosisRan { .. }
            | EngineEvent::SignatureMatched { .. }
            | EngineEvent::SweepCompleted { .. }
            | EngineEvent::SpanClosed { .. }
            | EngineEvent::SweepDegraded { .. }
            | EngineEvent::TickEnqueued { .. }
            | EngineEvent::TickShed { .. }
            | EngineEvent::StoreRetried { .. }
            | EngineEvent::HealthChanged { .. }
            | EngineEvent::TenantEvicted { .. }
            | EngineEvent::TenantWarmed { .. } => {}
        }
    }
}

/// Training one platform template, as a fleet does once per platform:
/// the performance model, Algorithm 1 over four normal frames and the six
/// incident signatures, on a fresh engine over a one-worker pool (the
/// simulator runs are generated beforehand). Also the pairs the
/// invariant build scores and the signature pairs scored exactly, which
/// do not depend on the host.
fn training(perf: Perf, training: &WordcountTraining, s: &mut Section) {
    let windows = incident_windows(&training.runner);
    let pool = Arc::new(SweepPool::new(1));
    let train = |builder: EngineBuilder| {
        let engine = builder.shared_pool(Arc::clone(&pool)).build();
        training.train(&engine).expect("train");
        engine
    };
    let sign = |engine: &Engine| {
        for (problem, window) in &windows {
            engine
                .record_signature(&training.context, problem, window)
                .expect("signature");
        }
    };
    let ns = perf.ns(15, 1, || sign(&train(Engine::builder())));
    s.lower("train_template_ms", "ms", ns / 1e6);
    let tally = Arc::new(SweepTally::default());
    let engine = train(Engine::builder().observe(Arc::clone(&tally) as Arc<dyn EventSink>));
    s.lower("train_pairs_scored", "count", tally.take().0 as f64);
    sign(&engine);
    s.lower("signature_pairs_exact", "count", tally.take().1 as f64);
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
        Engine::builder().observe(HistoryStore::builder().shared()),
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
        Engine::builder().observe(&Telemetry::shared()),
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

/// The incident template's signature windows: two runs each of CpuHog,
/// MemHog and DiskHog.
fn incident_windows(runner: &Runner) -> Vec<(&'static str, MetricFrame)> {
    [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog]
        .into_iter()
        .flat_map(|fault| {
            (0..2).map(move |run_idx| {
                let run = runner.fault_run(WorkloadType::Wordcount, fault, run_idx);
                (fault.name(), run.fault_window().expect("window"))
            })
        })
        .collect()
}

/// A context trained on an engine built from `builder`, with the
/// incident template's signatures.
fn incident_engine(builder: EngineBuilder) -> TrainedContext {
    let trained = train_wordcount(SEED, builder).expect("train");
    for (problem, window) in incident_windows(&trained.runner) {
        trained
            .engine
            .record_signature(&trained.context, problem, &window)
            .expect("signature");
    }
    trained
}

fn memhog_window(runner: &Runner, run_idx: usize) -> MetricFrame {
    runner
        .fault_run(WorkloadType::Wordcount, FaultType::MemHog, run_idx)
        .fault_window()
        .expect("fault window")
}

/// Budgeted diagnoses on 120-tick MemHog windows — their cost and how
/// often their answers agree with full fidelity — and signature-database
/// access.
fn resilience(perf: Perf) -> Section {
    let mut s = Section::new("resilience");
    let tally = Arc::new(SweepTally::default());
    let TrainedContext {
        engine,
        context,
        runner,
        ..
    } = incident_engine(Engine::builder().observe(Arc::clone(&tally) as Arc<dyn EventSink>));
    // The verdict rule, checked on every diagnosis below: a diagnosis
    // declares a degradation exactly when its pass left pairs unsettled.
    let diagnose = |window: &MetricFrame, budget: SweepBudget| {
        // ordering: Relaxed — the diagnosing thread itself records
        // `SweepScreened`, so these are same-thread accesses.
        tally.settled.store(usize::MAX, Ordering::Relaxed);
        let d = engine
            .diagnose_with_budget(&context, window, budget)
            .expect("diagnose");
        // ordering: Relaxed — as above.
        let settled = tally.settled.load(Ordering::Relaxed);
        assert_ne!(settled, usize::MAX, "every diagnosis reports its pass");
        assert_eq!(
            d.degradation.is_some(),
            settled < pair_count(),
            "a pass that settled {settled} of {} pairs must declare a degradation \
             exactly when it settled fewer than all",
            pair_count()
        );
        d
    };
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
        let d = diagnose(next_window(), SweepBudget::UNLIMITED);
        assert!(d.degradation.is_none(), "unlimited budget never degrades");
    });
    s.lower("diagnose_unlimited_budget_ms", "ms", ns / 1e6);

    // A 5 ms budget: whether the pass fits depends on the host, the rule
    // above does not.
    let budgeted = perf.samples(21, 1, || {
        diagnose(next_window(), SweepBudget::wall_millis(5));
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

    // Answer quality under a budget: the share of graded tuple entries
    // equal to the unlimited-budget tuple of the same window, over the
    // same alternating windows (each pass reads the pairs it does not
    // reach at the other window's scores).
    let full = windows
        .each_ref()
        .map(|w| diagnose(w, SweepBudget::UNLIMITED).tuple);
    for (name, ms) in [("tuple_agreement_1ms", 1), ("tuple_agreement_5ms", 5)] {
        let (mut equal, mut graded) = (0, 0);
        for k in (0..perf.size(20, 2)).map(|i| i % 2) {
            let d = diagnose(&windows[k], SweepBudget::wall_millis(ms));
            graded += d.tuple.len();
            equal += d
                .tuple
                .graded()
                .iter()
                .zip(full[k].graded())
                .filter(|(a, b)| a.to_bits() == b.to_bits())
                .count();
        }
        s.higher(name, "ratio", equal as f64 / graded as f64);
    }

    // A 5 ms-budget rescore of the window the context's record already
    // holds: the pass revalidates the record and scores no pair, so this
    // is the unchanged-window path's fixed cost. The untimed first call
    // scores the fresh window and writes the record.
    let warm = incident_engine(Engine::builder());
    let fresh = memhog_window(&runner, 12);
    warm.engine
        .diagnose_with_budget(&warm.context, &fresh, SweepBudget::UNLIMITED)
        .expect("write the record");
    let ns = perf.ns(21, 1, || {
        warm.engine
            .diagnose_with_budget(&warm.context, &fresh, SweepBudget::wall_millis(5))
            .expect("diagnose")
    });
    s.lower("diagnose_unchanged_window_us", "us", ns / 1e3);

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
/// Ticks of the run the sample tenants carry into the cold evict/warm
/// cycle: ten windows' worth, which a snapshot holds in one.
const COLD_RUN: usize = 600;

/// Fleet-scale serving: can one box hold 100k tenants (2k under
/// `--quick`) at the paper's 10-second cadence? One trained template
/// seeds every single-context tenant. Cadence rounds tick every tenant
/// through the [`Fleet`] surface, a wire sample crosses a real loopback
/// `IXSRV01` server, and a tenant sample is evicted and warmed back: once
/// back to back a few ticks into their runs, and once [`COLD_RUN`] ticks in,
/// every sample tenant evicted before any warms, so each warm reads an
/// image that has left the cache, as a cold tick's does. Last, a sample
/// runs the binary Ingest path in process with its decode, handle and
/// encode layers timed apart (the split
/// `crates/serve/tests/alloc_counts.rs` counts).
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
    let fleet = Arc::new(Fleet::builder().config(config).warm_limit(tenants).build());
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

    let mut evict_ns: Vec<u64> = Vec::with_capacity(WARM_SAMPLE);
    let mut warm_ns: Vec<u64> = Vec::with_capacity(WARM_SAMPLE);
    let mut snapshot_bytes = 0;
    for id in ids.iter().take(WARM_SAMPLE) {
        snapshot_bytes = fleet.snapshot_bytes(id).expect("snapshot").len();
        let t = Instant::now();
        fleet.evict(id).expect("evict");
        evict_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        fleet.warm(id).expect("warm");
        warm_ns.push(t.elapsed().as_nanos() as u64);
    }
    evict_ns.sort_unstable();
    warm_ns.sort_unstable();

    let sample = &ids[..WARM_SAMPLE.min(ids.len())];
    for id in sample {
        fleet.reset_run(id, &context).expect("reset run");
        for &(tick_cpi, tick_row) in ticks.iter().cycle().take(COLD_RUN) {
            fleet
                .ingest(id, &context, tick_cpi, tick_row)
                .expect("ingest");
        }
    }
    let mut cold_evict_ns: Vec<u64> = sample
        .iter()
        .map(|id| {
            let t = Instant::now();
            fleet.evict(id).expect("evict");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    let mut cold_warm_ns: Vec<u64> = sample
        .iter()
        .map(|id| {
            let t = Instant::now();
            fleet.warm(id).expect("warm");
            t.elapsed().as_nanos() as u64
        })
        .collect();
    cold_evict_ns.sort_unstable();
    cold_warm_ns.sort_unstable();

    // The binary Ingest path a server connection runs, layer by layer:
    // the request body decoded, handled by the fleet, the reply encoded.
    let bodies: Vec<Vec<u8>> = (0..WIRE_SAMPLE)
        .map(|i| {
            let (tick_cpi, tick_row) = ticks[(ROUNDS + 1 + i / ids.len()) % ticks.len()];
            wire::encode_request(&RequestFrame {
                tenant: ids[i % ids.len()].clone(),
                op: Op::Ingest,
                payload: wire::encode_binary(&IngestRequest {
                    node: context.node.clone(),
                    workload: context.workload.clone(),
                    cpi: tick_cpi,
                    row: tick_row.to_vec(),
                }),
            })
        })
        .collect();
    let mut binary_ns: [Vec<u64>; 3] = std::array::from_fn(|_| Vec::with_capacity(WIRE_SAMPLE));
    for body in &bodies {
        let t = Instant::now();
        let request = wire::decode_request(body).expect("decode request");
        let decoded = Instant::now();
        let (status, payload) = handle_request(&fleet, &request);
        let handled = Instant::now();
        black_box(wire::encode_response(status, &payload));
        let encoded = Instant::now();
        assert_eq!(status, 0, "{}", String::from_utf8_lossy(&payload));
        for (layer, (from, to)) in
            binary_ns
                .iter_mut()
                .zip([(t, decoded), (decoded, handled), (handled, encoded)])
        {
            layer.push((to - from).as_nanos() as u64);
        }
    }
    for layer in &mut binary_ns {
        layer.sort_unstable();
    }

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
    for (name, layer) in ["binary_decode_ns", "binary_handle_ns", "binary_encode_ns"]
        .into_iter()
        .zip(&binary_ns)
    {
        s.lower(name, "ns", percentile(layer, 50.0));
    }
    s.lower("evict_p50_us", "us", percentile(&evict_ns, 50.0) / 1e3);
    s.lower("cold_warm_p50_us", "us", percentile(&warm_ns, 50.0) / 1e3);
    s.lower("cold_warm_p99_us", "us", percentile(&warm_ns, 99.0) / 1e3);
    s.lower("cold_warm_max_us", "us", percentile(&warm_ns, 100.0) / 1e3);
    s.lower(
        "cold_cycle_evict_p50_us",
        "us",
        percentile(&cold_evict_ns, 50.0) / 1e3,
    );
    s.lower(
        "cold_cycle_warm_p50_us",
        "us",
        percentile(&cold_warm_ns, 50.0) / 1e3,
    );
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
    // One profiled pair at the engine's default 60-tick window with fast
    // params, on a warm scratch: the unit of an exact pass, and the same
    // pair linked affinely and scored against a held invariant's floor (it
    // clears at the kernel's first unit).
    let params = MicParams::fast();
    let profile = |seed| SeriesProfile::build(&series(60, seed), &params).expect("profile");
    let (xp, yp) = (profile(1), profile(2));
    let mut scratch = MineScratch::new();
    let ns = perf.ns(21, 50, || {
        mic_with_profiles_scratch(&xp, &yp, &params, &mut scratch).expect("mic")
    });
    s.lower("mic_pair_planned_60_us", "us", ns / 1e3);
    // Every pair of the 60-tick Wordcount window that ends where each
    // fault does: the metrics a diagnosis scores, with the ties, steps and
    // plateaus that drive clump and superclump work, which a smooth AR(1)
    // pair lacks. The mean over all pairs of all windows.
    let runner = Runner::new(SEED);
    let windows: Vec<Vec<SeriesProfile>> = FaultType::ALL[..perf.size(FaultType::ALL.len(), 2)]
        .iter()
        .map(|&fault| {
            let run = runner.fault_run(WorkloadType::Wordcount, fault, 0);
            let f = run.fault.expect("fault injected");
            let end = (f.start_tick + f.duration_ticks).min(run.ticks);
            let frame = run.per_node[f.node].frame.window(end - 60..end);
            MetricId::ALL
                .iter()
                .map(|&m| SeriesProfile::build(&frame.series(m), &params).expect("profile"))
                .collect()
        })
        .collect();
    let pairs = windows.len() * pair_count();
    let ns = perf.ns(11, 1, || {
        let mut sum = 0.0;
        for profiles in &windows {
            for (i, xp) in profiles.iter().enumerate() {
                for yp in &profiles[i + 1..] {
                    sum += mic_with_profiles_scratch(xp, yp, &params, &mut scratch).expect("mic");
                }
            }
        }
        sum
    });
    s.lower("mic_pair_fault_window_60_us", "us", ns / pairs as f64 / 1e3);
    let linked: Vec<f64> = series(60, 1).iter().map(|x| 2.0 * x + 1.0).collect();
    let lp = SeriesProfile::build(&linked, &params).expect("profile");
    // Reference I = 1 at ε = 0.2: any entry above 0.8 proves it held.
    let clears = |v: f64| (1.0 - v).abs() < 0.2;
    let ns = perf.ns(21, 200, || {
        let floored = mic_floor_scratch(&xp, &lp, &params, clears, &mut scratch).expect("mic");
        assert!(matches!(floored, Floored::Cleared(_)), "{floored:?}");
    });
    s.lower("mic_pair_cleared_60_us", "us", ns / 1e3);
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
