//! Inputs made from `--seed`: the monitored platforms tenants report
//! from, each with the simulated jobs its tenants replay, the training
//! data of the template engine its tenants start from, and the reference
//! outcome of every tick and on-demand diagnosis.

use std::sync::Arc;

use ix_core::{Diagnosis, Engine, InvarNetConfig, ModelStore, OperationContext, SweepPool};
use ix_metrics::MetricFrame;
use ix_serve::wire::IngestReply;
use ix_simulator::{FaultType, RunResult, Runner, WorkloadType};

use crate::setup::Plan;

const WORKLOAD: WorkloadType = WorkloadType::Wordcount;

/// Normal runs the template's detector and invariants are trained on.
const TRAINING_RUNS: usize = 4;

/// Platforms per run; tenant `i` reports from platform `i % PLATFORMS`.
/// A platform's invariants set what a diagnosis costs: the median CPU
/// time of an on-demand diagnosis on `platform_incidents` was 4.7 ms on
/// one seed's platform and 7.8 ms on another's, each the same on a second
/// run. Several platforms per run average that out, as a fleet does:
/// with four, the median diagnosis there still moved between 4.1 and
/// 5.0 ms over ten seeds, at the reference pace.
const PLATFORMS: usize = 8;

/// Faults with a signature in the template's database; the tenants of
/// `platform_incidents` suffer them.
const FAULTS: [FaultType; 6] = [
    FaultType::CpuHog,
    FaultType::MemHog,
    FaultType::DiskHog,
    FaultType::NetDelay,
    FaultType::RpcHang,
    FaultType::ThreadLeak,
];

/// Distinct jobs per platform. A tenant replays them in turn, and there
/// are more of them than an engine's sweep cache holds, so no job-end
/// window is ever answered from a previous job's cache entry.
const STREAMS: usize = 12;

/// Ticks of every job: a tenant replays the first `JOB_TICKS` ticks of a
/// run. Wordcount runs last at least 0.8 times their 120-tick base, and
/// the fault window ends at tick 75, so every run holds this many. With
/// jobs all as long, a tick's place in its job, which sets the run tail
/// an evicted tenant carries and replays when it warms, is spread the
/// same way whatever the seed.
const JOB_TICKS: usize = 96;

/// First simulator run index jobs are drawn from, clear of the indices
/// training and signatures use.
const STREAM_RUNS: usize = 100;

/// Normal runs tried while looking for `STREAMS` on which the detector
/// never triggers a diagnosis.
const CANDIDATES: usize = 64;

/// Which runs tenants replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Fault-free runs on which no tick triggers a diagnosis, so tick
    /// latency measures the tick path alone.
    Normal,
    /// Runs with one of `FAULTS` injected.
    Faulty,
}

/// What the fleet must answer for one tick of a job.
#[derive(Debug)]
pub struct Expected {
    tick: u64,
    residual: f64,
    exceeded: bool,
    anomalous: bool,
    /// The diagnosis the tick triggers itself, at an anomaly onset.
    diagnosis: Option<Diagnosis>,
    /// An on-demand diagnosis of the window right after this tick, for
    /// the ticks where the schedule can ask for one.
    pub on_demand: Option<Diagnosis>,
}

impl Expected {
    /// Whether the tick triggers an onset diagnosis.
    pub fn diagnoses(&self) -> bool {
        self.diagnosis.is_some()
    }

    /// Whether an ingest reply is bit for bit the reference outcome.
    pub fn matches(&self, reply: &IngestReply) -> bool {
        reply.tick == self.tick
            && reply.residual.to_bits() == self.residual.to_bits()
            && reply.exceeded == self.exceeded
            && reply.anomalous == self.anomalous
            && reply.diagnosis == self.diagnosis
    }
}

/// One job: its `(cpi, metric row)` ticks and their expected outcomes.
pub struct Stream {
    pub ticks: Vec<(f64, Vec<f64>)>,
    pub expected: Vec<Expected>,
}

pub struct Inputs {
    pub platforms: Vec<Platform>,
}

impl Inputs {
    /// Simulates the platforms `seed` selects (see [`Platform::generate`]).
    pub fn generate(seed: u64, plan: &Plan) -> Inputs {
        Inputs {
            platforms: (0..PLATFORMS as u64)
                .map(|k| Platform::generate(seed * PLATFORMS as u64 + k, plan))
                .collect(),
        }
    }
}

/// One monitored platform: a simulated cluster and the jobs run on it.
pub struct Platform {
    /// The one operation context the platform's tenants report.
    pub context: OperationContext,
    pub streams: Vec<Stream>,
    training_cpi: Vec<Vec<f64>>,
    training_frames: Vec<MetricFrame>,
    signatures: Vec<(&'static str, MetricFrame)>,
}

impl Platform {
    /// Simulates the runs `seed` selects and computes the reference
    /// outcomes `plan` needs, on a template trained the same way set-up
    /// trains it.
    fn generate(seed: u64, plan: &Plan) -> Platform {
        let runner = Runner::new(seed);
        let node = Runner::DEFAULT_FAULT_NODE;
        let normals = runner.normal_runs(WORKLOAD, TRAINING_RUNS);
        let mut platform = Platform {
            context: OperationContext::new(runner.nodes[node].ip(), WORKLOAD.name()),
            streams: Vec::new(),
            training_cpi: normals
                .iter()
                .map(|r| r.per_node[node].cpi.cpi_series())
                .collect(),
            training_frames: normals
                .iter()
                .map(|r| {
                    let frame = &r.per_node[node].frame;
                    frame.window(30..75.min(frame.ticks()))
                })
                .collect(),
            signatures: FAULTS
                .iter()
                .map(|&fault| {
                    let run = runner.fault_run(WORKLOAD, fault, 0);
                    let window = run.fault_window().expect("the fault starts inside the run");
                    (fault.name(), window)
                })
                .collect(),
        };
        let pool = Arc::new(SweepPool::new(1));
        let store = platform.train_on(&pool);
        let expect = |ticks| reference(&store, &pool, &platform.context, ticks, plan);
        let streams: Vec<Stream> = match plan.streams {
            StreamKind::Normal => (STREAM_RUNS..STREAM_RUNS + CANDIDATES)
                .map(|i| expect(ticks_of(&runner.normal_run(WORKLOAD, i), node)))
                .filter(|s| {
                    s.ticks.len() == JOB_TICKS && s.expected.iter().all(|e| e.diagnosis.is_none())
                })
                .take(STREAMS)
                .collect(),
            StreamKind::Faulty => (0..STREAMS)
                .map(|i| {
                    let fault = FAULTS[i % FAULTS.len()];
                    let run = runner.fault_run(WORKLOAD, fault, 1 + i / FAULTS.len());
                    expect(ticks_of(&run, node))
                })
                .collect(),
        };
        assert_eq!(
            streams.len(),
            STREAMS,
            "too few normal runs on which no tick triggers a diagnosis"
        );
        assert!(
            streams.iter().all(|s| s.ticks.len() == JOB_TICKS),
            "a run is shorter than a job"
        );
        platform.streams = streams;
        platform
    }

    /// Trains the template the platform's tenants start from: the context's
    /// performance model and invariants, and one signature per fault.
    pub fn train(&self) -> ModelStore {
        self.train_on(&Arc::new(SweepPool::new(1)))
    }

    fn train_on(&self, pool: &Arc<SweepPool>) -> ModelStore {
        let engine = Engine::builder()
            .config(InvarNetConfig::default())
            .shared_pool(Arc::clone(pool))
            .build();
        engine
            .train_performance_model(self.context.clone(), &self.training_cpi)
            .expect("train the detector");
        engine
            .build_invariants(self.context.clone(), &self.training_frames)
            .expect("build the invariants");
        for (problem, window) in &self.signatures {
            engine
                .record_signature(&self.context, problem, window)
                .expect("record a signature");
        }
        engine.snapshot_state()
    }
}

/// The observed node's ticks of one run, at most `JOB_TICKS` of them.
fn ticks_of(run: &RunResult, node: usize) -> Vec<(f64, Vec<f64>)> {
    let cpi = run.per_node[node].cpi.cpi_series();
    let frame = &run.per_node[node].frame;
    (0..frame.ticks().min(cpi.len()).min(JOB_TICKS))
        .map(|t| (cpi[t], frame.tick(t).to_vec()))
        .collect()
}

/// Feeds one job through a fresh engine holding the template state, and
/// records what each tick returns and, after the ticks where `plan` asks
/// for one, what an on-demand diagnosis of the window returns.
fn reference(
    store: &ModelStore,
    pool: &Arc<SweepPool>,
    context: &OperationContext,
    ticks: Vec<(f64, Vec<f64>)>,
    plan: &Plan,
) -> Stream {
    let engine = Engine::builder()
        .config(InvarNetConfig::default())
        .shared_pool(Arc::clone(pool))
        .build();
    engine.load_state(store).expect("load the template state");
    let expected = ticks
        .iter()
        .enumerate()
        .map(|(pos, (cpi, row))| {
            let outcome = engine.ingest(context, *cpi, row).expect("reference tick");
            let on_demand = plan.diagnoses_after(pos + 1).then(|| {
                let window = engine
                    .window_frame(context)
                    .expect("the context has a window");
                engine
                    .diagnose(context, &window)
                    .expect("reference diagnosis")
            });
            Expected {
                tick: outcome.tick as u64,
                residual: outcome.residual,
                exceeded: outcome.exceeded,
                anomalous: outcome.anomalous,
                diagnosis: outcome.diagnosis,
                on_demand,
            }
        })
        .collect();
    Stream { ticks, expected }
}
