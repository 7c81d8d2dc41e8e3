//! Count, don't time: machine-independent costs of the engine's own
//! training, tick and diagnosis paths, pinned exactly.
//!
//! A counting global allocator tallies every allocation in the process
//! while a measured call runs, sweep workers included, so this file holds
//! a single test: nothing else may allocate concurrently. The engine runs
//! one sweep worker, which makes the workers' share deterministic too. A
//! pinned figure changes only with a CHANGES.md line saying why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use invarnet_x::core::{
    Engine, EngineEvent, EnginePhase, EventSink, InvarNetConfig, OperationContext,
};
use invarnet_x::metrics::MetricFrame;
use invarnet_x::simulator::{FaultType, Runner, WorkloadType};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count() {
    // ordering: Relaxed — a statistic read after the counted call returns
    // on the same thread that switched counting off.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f`, returning its result with the allocations made inside it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let result = f();
    COUNTING.store(false, Ordering::Relaxed);
    (result, ALLOCATIONS.load(Ordering::Relaxed))
}

/// Counts the sweep events the costs are read from, without allocating.
#[derive(Default)]
struct SweepCounts {
    /// `SweepCompleted::pairs`, summed.
    completed_pairs: AtomicU64,
    /// `PairsScored::pairs`, summed: what the pool actually scored.
    scored_pairs: AtomicU64,
    /// `ProfileBuild` spans closed.
    profile_builds: AtomicU64,
    /// `SweepScreened::{reused, screened, confirmed}`, summed.
    screen: [AtomicU64; 3],
}

impl SweepCounts {
    /// The three counts, reset to zero.
    fn take(&self) -> (u64, u64, u64) {
        (
            self.completed_pairs.swap(0, Ordering::Relaxed),
            self.scored_pairs.swap(0, Ordering::Relaxed),
            self.profile_builds.swap(0, Ordering::Relaxed),
        )
    }

    /// Pairs reused, screened and confirmed, reset to zero.
    fn take_screen(&self) -> [u64; 3] {
        self.screen.each_ref().map(|n| n.swap(0, Ordering::Relaxed))
    }
}

impl EventSink for SweepCounts {
    fn record(&self, event: &EngineEvent) {
        // ordering: Relaxed — counters read after the counted call joined
        // every worker (the pool's latch publishes their increments).
        match *event {
            EngineEvent::SweepCompleted { pairs, .. } => {
                self.completed_pairs
                    .fetch_add(pairs as u64, Ordering::Relaxed);
            }
            EngineEvent::PairsScored { pairs, .. } => {
                self.scored_pairs.fetch_add(pairs as u64, Ordering::Relaxed);
            }
            EngineEvent::SweepScreened {
                reused,
                screened,
                confirmed,
                ..
            } => {
                for (sum, n) in self.screen.iter().zip([reused, screened, confirmed]) {
                    sum.fetch_add(n as u64, Ordering::Relaxed);
                }
            }
            EngineEvent::SpanClosed {
                phase: EnginePhase::ProfileBuild,
                ..
            } => {
                self.profile_builds.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

const SEED: u64 = 11;
/// Normal-run ticks streamed before counting: the window is full, and the
/// run-length buffers (which double at powers of two — tick 64 costs three
/// more allocations) are past their last doubling before tick 128.
const WARM_TICKS: usize = 65;
/// Normal-run ticks counted.
const COUNTED_TICKS: usize = 16;

/// What training cost, read from the sweep events: `(completed, scored,
/// profile builds)` of the invariant build, and per signature the same
/// three plus its pairs reused, cleared and scored exactly.
struct TrainingCosts {
    invariants: (u64, u64, u64),
    signatures: Vec<((u64, u64, u64), [u64; 3])>,
}

/// A Wordcount context trained on seeded simulator runs, on a one-worker
/// engine whose sweep events land in `counts`.
fn trained(counts: &Arc<SweepCounts>) -> (Engine, OperationContext, Runner, TrainingCosts) {
    let runner = Runner::new(SEED);
    let node = Runner::DEFAULT_FAULT_NODE;
    let workload = WorkloadType::Wordcount;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let engine = Engine::builder()
        .config(InvarNetConfig::default())
        .threads(1)
        .observe(Arc::clone(counts) as Arc<dyn EventSink>)
        .build();
    let normals = runner.normal_runs(workload, 4);
    let cpi: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    engine
        .train_performance_model(context.clone(), &cpi)
        .expect("train detector");
    let frames: Vec<_> = normals
        .iter()
        .map(|r| {
            let f = &r.per_node[node].frame;
            f.window(30..75.min(f.ticks()))
        })
        .collect();
    counts.take();
    engine
        .build_invariants(context.clone(), &frames)
        .expect("build invariants");
    let invariants = counts.take();
    counts.take_screen();
    let signatures = [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog]
        .map(|fault| {
            engine
                .record_signature(&context, fault.name(), &fault_window(&runner, fault))
                .expect("record signature");
            (counts.take(), counts.take_screen())
        })
        .to_vec();
    let costs = TrainingCosts {
        invariants,
        signatures,
    };
    (engine, context, runner, costs)
}

fn fault_window(runner: &Runner, fault: FaultType) -> MetricFrame {
    runner
        .fault_run(WorkloadType::Wordcount, fault, 3)
        .fault_window()
        .expect("fault window")
}

#[test]
fn engine_costs_are_pinned() {
    let counts = Arc::new(SweepCounts::default());
    let (engine, context, runner, training) = trained(&counts);
    let invariants = engine.invariant_set(&context).expect("invariants").len() as u64;
    assert_eq!(invariants, 247, "the seeded context's invariant count");

    // Algorithm 1 over four frames: each frame is planned once and scores
    // only the pairs whose band is still narrower than τ — all 325 on the
    // first frame, fewer on each later one.
    assert_eq!(
        training.invariants,
        (1152, 1152, 4),
        "pairs completed and scored, and profile builds, of the invariant build"
    );
    // Each signature is a cold diagnosis pass at full fidelity: one plan,
    // and exactly the invariant pairs scored, each only until it holds.
    let screens: Vec<[u64; 3]> = training.signatures.iter().map(|&(_, s)| s).collect();
    for &(costs, _) in &training.signatures {
        assert_eq!(costs, (invariants, invariants, 1), "pairs per signature");
    }
    assert_eq!(
        screens,
        [[78, 114, 133], [78, 120, 127], [78, 69, 178]],
        "CpuHog, MemHog and DiskHog signatures: pairs reused, cleared and scored exactly"
    );

    // A warm, non-anomalous tick: the window is full and the detector
    // quiet, so ingest only appends.
    let node = Runner::DEFAULT_FAULT_NODE;
    let normal = &runner.normal_runs(WorkloadType::Wordcount, 5)[4].per_node[node];
    let cpi = normal.cpi.cpi_series();
    engine.reset_run(&context);
    for (t, &sample) in cpi.iter().enumerate().take(WARM_TICKS) {
        engine
            .ingest(&context, sample, normal.frame.tick(t))
            .expect("ingest");
    }
    let mut tick_allocs = 0;
    let counted_ticks = cpi.iter().enumerate().skip(WARM_TICKS);
    for (t, &sample) in counted_ticks.take(COUNTED_TICKS) {
        let (out, n) = counted(|| engine.ingest(&context, sample, normal.frame.tick(t)));
        let out = out.expect("ingest");
        assert!(!out.anomalous && out.diagnosis.is_none(), "tick {t} fired");
        tick_allocs += n;
    }
    assert_eq!(
        tick_allocs,
        2 * COUNTED_TICKS as u64,
        "allocations per tick"
    );

    // A cold diagnosis: the window is not a slide of the record, so one
    // plan is built and exactly the invariant pairs are scored, each only
    // until its invariant provably holds. A first cold diagnosis warms
    // every buffer on the path.
    engine
        .diagnose(&context, &fault_window(&runner, FaultType::CpuHog))
        .expect("warm-up diagnosis");
    counts.take();
    counts.take_screen();
    let incident = fault_window(&runner, FaultType::MemHog);
    let (diagnosis, cold_allocs) = counted(|| engine.diagnose(&context, &incident));
    let diagnosis = diagnosis.expect("cold diagnosis");
    assert_eq!(diagnosis.ranked[0].problem, FaultType::MemHog.name());
    let (completed, scored, profiles) = counts.take();
    assert_eq!(
        (completed, scored),
        (invariants, invariants),
        "pairs scored"
    );
    assert_eq!(profiles, 1, "profile builds per cold diagnosis");
    assert_eq!(
        counts.take_screen(),
        [78, 120, 127],
        "pairs reused, cleared and scored exactly on a cold diagnosis"
    );
    assert_eq!(cold_allocs, 357, "allocations per cold diagnosis");

    // The unchanged window again: a zero-tick slide scores nothing, and
    // every bound pair is revalidated without kernel work.
    let (again, _) = counted(|| engine.diagnose(&context, &incident));
    assert_eq!(again.expect("re-diagnosis"), diagnosis);
    assert_eq!(
        counts.take(),
        (0, 0, 0),
        "pairs scored on an unchanged window"
    );

    // A one-tick slide of the incident window: profiles slide in place,
    // the 78 non-invariant pairs are reused, and each of the 247 stale
    // invariant pairs either clears its floor at some kernel unit or is
    // scored exactly. `perf`'s sweep section times this slide and the
    // ones after it.
    counts.take_screen();
    let run = runner.fault_run(WorkloadType::Wordcount, FaultType::MemHog, 3);
    let fault = run.fault.expect("a fault run");
    let start = fault.start_tick + 1;
    let slid = run.per_node[fault.node]
        .frame
        .window(start..start + incident.ticks());
    engine.diagnose(&context, &slid).expect("slid diagnosis");
    assert_eq!(
        counts.take_screen(),
        [78, 118, 129],
        "pairs reused, cleared and scored exactly on a one-tick slide"
    );
}
