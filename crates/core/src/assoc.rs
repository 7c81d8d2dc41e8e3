//! Pairwise association matrices over the metric catalog.
//!
//! With `M = 26` metrics there are `M (M - 1) / 2 = 325` unordered pairs
//! ("in theory, M(M−1)/2 association pairs should be generated"). Pairs are
//! addressed by a canonical flat index so violation tuples across the whole
//! pipeline agree on ordering.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use ix_metrics::{MetricFrame, MetricId, METRIC_COUNT};

use crate::engine::telemetry::{ContextId, EnginePhase};
use crate::engine::{EngineEvent, EventSink, NullSink};
use crate::measure::{AssociationMeasure, DirectPlan, Floor, Floored, PairScorer, SweepPlan};

/// Pairs claimed per cursor increment. MIC cost is data-dependent, so small
/// batches keep workers load-balanced; 4 pairs amortize the atomic to noise
/// while bounding the straggler tail to one batch.
const STEAL_BATCH: usize = 4;

/// Number of unordered metric pairs.
pub const fn pair_count() -> usize {
    METRIC_COUNT * (METRIC_COUNT - 1) / 2
}

/// Canonical flat index of the unordered pair `(i, j)` with `i < j`.
///
/// # Panics
///
/// Panics when `i >= j` or `j >= METRIC_COUNT`.
pub fn pair_index(i: usize, j: usize) -> usize {
    assert!(i < j && j < METRIC_COUNT, "invalid pair ({i}, {j})");
    // Pairs are laid out row-major over the strict upper triangle: row i
    // holds (i, i+1) .. (i, M-1) at offset i*M - i(i+1)/2... computed as
    // the number of pairs preceding row i.
    let preceding = i * (2 * METRIC_COUNT - i - 1) / 2;
    preceding + (j - i - 1)
}

/// Inverse of [`pair_index`].
///
/// # Panics
///
/// Panics when `index >= pair_count()`.
pub fn pair_of_index(index: usize) -> (MetricId, MetricId) {
    assert!(index < pair_count(), "pair index {index} out of range");
    // Row i starts at preceding(i) = i (2M - i - 1) / 2; the wanted row is
    // the largest i with preceding(i) <= index. Solving the quadratic gives
    // i = floor((2M - 1 - sqrt((2M - 1)^2 - 8 index)) / 2); the loops
    // below absorb any floating-point rounding at row boundaries.
    let preceding = |i: usize| i * (2 * METRIC_COUNT - i - 1) / 2;
    let a = (2 * METRIC_COUNT - 1) as f64;
    let mut i = ((a - (a * a - 8.0 * index as f64).sqrt()) / 2.0) as usize;
    while preceding(i) > index {
        i -= 1;
    }
    while preceding(i + 1) <= index {
        i += 1;
    }
    let j = i + 1 + (index - preceding(i));
    (MetricId::ALL[i], MetricId::ALL[j])
}

/// The pairwise association scores of one metric frame under one measure —
/// the matrix `A` of the paper, stored as the flat upper triangle.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationMatrix {
    scores: Vec<f64>,
}

impl AssociationMatrix {
    /// Computes all pairwise scores of `frame` under `measure`,
    /// parallelizing the 325-pair sweep across `threads` workers.
    ///
    /// When the measure offers a [`SweepPlan`], per-series preprocessing is
    /// done once here and shared by every pair; scores are identical either
    /// way. Multi-threaded sweeps pull small pair batches off an atomic
    /// cursor, so data-dependent per-pair cost cannot strand one worker
    /// with a slow static chunk.
    pub fn compute<M: AssociationMeasure + ?Sized>(
        frame: &MetricFrame,
        measure: &M,
        threads: usize,
    ) -> Self {
        let series: Vec<Vec<f64>> = MetricId::ALL.iter().map(|&m| frame.series(m)).collect();
        let n_pairs = pair_count();
        let mut scores = vec![0.0f64; n_pairs];
        let threads = threads.max(1);
        let plan = measure.prepare(&series);

        if threads == 1 {
            let mut scorer = plan.as_deref().map(SweepPlan::scorer);
            for (idx, slot) in scores.iter_mut().enumerate() {
                let (a, b) = pair_of_index(idx);
                *slot = score_one(&mut scorer, measure, &series, a.index(), b.index());
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        let (series, cursor, plan) = (&series, &cursor, plan.as_deref());
                        scope.spawn(move || {
                            let mut local: Vec<(usize, f64)> = Vec::new();
                            let mut scorer = plan.map(SweepPlan::scorer);
                            while let Some((start, end)) = claim_batch(cursor, n_pairs) {
                                for idx in start..end {
                                    let (a, b) = pair_of_index(idx);
                                    let v = score_one(
                                        &mut scorer,
                                        measure,
                                        series,
                                        a.index(),
                                        b.index(),
                                    );
                                    local.push((idx, v));
                                }
                            }
                            local
                        })
                    })
                    .collect();
                for worker in workers {
                    for (idx, v) in worker.join().expect("sweep worker panicked") {
                        scores[idx] = v;
                    }
                }
            });
        }
        AssociationMatrix { scores }
    }

    /// Builds a matrix directly from flat scores (tests, deserialization).
    ///
    /// # Panics
    ///
    /// Panics when `scores.len() != pair_count()`.
    pub fn from_scores(scores: Vec<f64>) -> Self {
        assert_eq!(scores.len(), pair_count(), "wrong score vector length");
        AssociationMatrix { scores }
    }

    /// Score of pair `(a, b)` (order-insensitive).
    pub fn get(&self, a: MetricId, b: MetricId) -> f64 {
        let (i, j) = if a.index() < b.index() {
            (a.index(), b.index())
        } else {
            (b.index(), a.index())
        };
        self.scores[pair_index(i, j)]
    }

    /// Score at a flat pair index.
    pub fn at(&self, index: usize) -> f64 {
        self.scores[index]
    }

    /// The flat upper triangle.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }
}

/// Scores one pair through the plan's scorer when there is one, falling
/// back to the measure's pairwise entry point.
fn score_one<M: AssociationMeasure + ?Sized>(
    scorer: &mut Option<Box<dyn PairScorer + '_>>,
    measure: &M,
    series: &[Vec<f64>],
    a: usize,
    b: usize,
) -> f64 {
    match scorer {
        Some(s) => s.score_pair(a, b),
        None => measure.score(&series[a], &series[b]),
    }
}

/// Claims the next batch `[start, end)` of the flat pair index space off the
/// shared cursor; `None` once the space is exhausted.
fn claim_batch(cursor: &AtomicUsize, n_pairs: usize) -> Option<(usize, usize)> {
    // ordering: Relaxed — fetch_add atomicity alone hands each start out
    // once; results publish via the latch's mutex (the happens-before edge).
    // Modeled exhaustively by ix-analysis sched::models::CursorModel.
    let start = cursor.fetch_add(STEAL_BATCH, Ordering::Relaxed);
    (start < n_pairs).then(|| (start, (start + STEAL_BATCH).min(n_pairs)))
}

/// Where one pool pass reports and when it gives up: the context its
/// costs are attributed to, the sink that receives them (one
/// [`EngineEvent::PairsScored`] per batch, plus the
/// [`EnginePhase::ProfileBuild`] span of [`SweepPool::plan`]), and the
/// two bounds on the pair list — a deadline after which workers stop
/// claiming batches, and a cap on how many listed pairs are scored
/// (`None` for both = run to completion). Either way the scored
/// positions form a prefix of the list.
#[derive(Clone)]
pub struct PassScope {
    /// The context the pass is attributed to.
    pub context: ContextId,
    /// Receives the pass's cost events.
    pub sink: Arc<dyn EventSink>,
    /// Workers stop claiming batches once this instant passes.
    pub deadline: Option<Instant>,
    /// At most this many leading positions of the list are scored.
    pub max_pairs: Option<usize>,
}

impl PassScope {
    /// An unattributed, unbounded pass whose events go nowhere.
    pub fn detached() -> PassScope {
        PassScope {
            context: ContextId::UNATTRIBUTED,
            sink: Arc::new(NullSink),
            deadline: None,
            max_pairs: None,
        }
    }
}

impl std::fmt::Debug for PassScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassScope")
            .field("context", &self.context)
            .field("deadline", &self.deadline)
            .field("max_pairs", &self.max_pairs)
            .finish()
    }
}

/// One listed pair of a scoring pass: its flat index and, for an invariant
/// pair a lower bound can settle, the [`Floor`] it is scored against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassPair {
    /// Flat pair index ([`pair_index`]).
    pub pair: usize,
    /// `Some`: score only until the floor provably holds
    /// ([`PairScorer::score_floored`]). `None`: score exactly.
    pub floor: Option<Floor>,
}

impl PassPair {
    /// A pair scored exactly.
    pub fn exact(pair: usize) -> PassPair {
        PassPair { pair, floor: None }
    }
}

/// Everything one scoring pass's workers share: the plan every pair is
/// scored against, the pair list, the work cursor over it, and one result
/// slot per listed pair.
struct PairPass {
    plan: Box<dyn SweepPlan>,
    pairs: Vec<PassPair>,
    /// How many leading positions may be claimed: the list's length, or
    /// the scope's `max_pairs` when that is smaller.
    limit: usize,
    cursor: AtomicUsize,
    /// `scores[k]` holds the bits of `pairs[k]`'s score, written once by
    /// the worker that claimed position `k`.
    scores: Vec<AtomicU64>,
    /// `cleared[k]`: `scores[k]` is a lower bound that cleared its floor,
    /// not the exact score.
    cleared: Vec<AtomicBool>,
    /// Positions scored so far, counted per finished batch.
    scored: AtomicUsize,
    scope: PassScope,
}

/// A parallel for-each dispatched to the pool: workers claim indices in
/// `0..count` off the shared cursor and run `task` on each. Used to
/// parallelize per-series sweep preprocessing
/// ([`crate::measure::AssociationMeasure::prepare_on`]).
struct Scatter {
    task: Arc<dyn Fn(usize) + Send + Sync>,
    cursor: AtomicUsize,
    count: usize,
}

/// Counts a job's workers out; the submitter waits until all have left.
struct Latch {
    state: Mutex<LatchState>,
    open: Condvar,
}

struct LatchState {
    pending: usize,
    panicked: bool,
}

impl Latch {
    fn new(pending: usize) -> Latch {
        Latch {
            state: Mutex::new(LatchState {
                pending,
                panicked: false,
            }),
            open: Condvar::new(),
        }
    }

    fn arrive(&self, panicked: bool) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.pending = state.pending.saturating_sub(1);
        state.panicked |= panicked;
        if state.pending == 0 {
            self.open.notify_all();
        }
    }

    /// Blocks until every worker has arrived; `false` if one unwound.
    fn wait(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while state.pending > 0 {
            state = self
                .open
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        !state.panicked
    }
}

/// One worker's membership in one job. Dropping it releases the worker's
/// handle on the job's shared state *before* counting the worker out, so
/// once the submitter's latch opens no worker handle is left — the
/// submitter can take the state (and a pass's plan) back, even after a
/// worker unwound.
struct Hold<T> {
    shared: Option<Arc<T>>,
    latch: Arc<Latch>,
}

impl<T> Drop for Hold<T> {
    fn drop(&mut self) {
        self.shared = None;
        self.latch.arrive(std::thread::panicking());
    }
}

/// What a pool worker can be asked to do.
enum PoolJob {
    Pass(Hold<PairPass>),
    Scatter(Hold<Scatter>),
}

/// What one [`SweepPool::score_pairs`] pass hands back: the plan and the
/// pair list (every worker handle is gone, so the caller owns both again)
/// and the scores of the positions that were reached.
pub struct ScoredPairs {
    /// The plan the pass scored against.
    pub plan: Box<dyn SweepPlan>,
    /// The pair list the pass was given, in its order.
    pub pairs: Vec<PassPair>,
    /// `scores[k]` is the score of `pairs[k]` for every `k < scored`:
    /// [`Floored::Cleared`] only for a pair listed with a floor that a
    /// lower bound cleared. Later slots hold `Exact(0.0)`.
    pub scores: Vec<Floored>,
    /// How many leading positions were scored. Batches are claimed in
    /// list order, and a batch, once claimed, is always finished, so the
    /// scored positions form a prefix.
    pub scored: usize,
}

impl ScoredPairs {
    /// Whether every listed pair was scored (neither the deadline nor the
    /// pair cap cut in).
    pub fn completed(&self) -> bool {
        self.scored == self.pairs.len()
    }
}

impl std::fmt::Debug for ScoredPairs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoredPairs")
            .field("pairs", &self.pairs.len())
            .field("scored", &self.scored)
            .finish()
    }
}

/// A persistent worker pool for pairwise association sweeps.
///
/// The original `AssociationMatrix::compute` spawns (and joins) a fresh
/// scoped thread per chunk on every call; under streaming diagnosis the
/// sweep runs on every fired detection, so the engine keeps this pool
/// alive instead and re-dispatches work to long-lived workers over a
/// channel. Every scoring pass — a full 325-pair sweep, a diagnosis's
/// invariant pairs, an incremental confirm list — runs through one loop,
/// [`SweepPool::score_pairs`]. Dropping the pool shuts the workers down.
#[must_use = "dropping a SweepPool joins and discards its worker threads"]
pub struct SweepPool {
    job_tx: Option<Sender<PoolJob>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl SweepPool {
    /// Starts `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (job_tx, job_rx) = channel::<PoolJob>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..threads)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                std::thread::spawn(move || Self::worker_loop(&job_rx))
            })
            .collect();
        SweepPool {
            job_tx: Some(job_tx),
            workers,
            threads,
        }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Hands one copy of a job to every worker (the job's cursor hands
    /// out the actual work) and waits until all have left it. Panics if a
    /// worker unwound inside the job.
    fn run<T>(&self, shared: &Arc<T>, job: fn(Hold<T>) -> PoolJob) {
        let latch = Arc::new(Latch::new(self.threads));
        let job_tx = self.job_tx.as_ref().expect("pool alive until drop");
        for _ in 0..self.threads {
            job_tx
                .send(job(Hold {
                    shared: Some(Arc::clone(shared)),
                    latch: Arc::clone(&latch),
                }))
                .expect("pool workers alive until drop");
        }
        assert!(latch.wait(), "sweep worker panicked");
    }

    /// Runs `task(i)` for every `i` in `0..count` across the pool's
    /// workers, blocking until all indices have executed. Index order is
    /// unspecified; each index runs exactly once. The task must synchronize
    /// its own output (the pool only guarantees the happens-before edge
    /// between every `task(i)` and this method's return).
    pub fn scatter(&self, count: usize, task: Arc<dyn Fn(usize) + Send + Sync>) {
        let scatter = Arc::new(Scatter {
            task,
            cursor: AtomicUsize::new(0),
            count,
        });
        self.run(&scatter, PoolJob::Scatter);
    }

    fn worker_loop(job_rx: &Mutex<Receiver<PoolJob>>) {
        loop {
            // Hold the lock only while receiving, not while scoring.
            let job = match job_rx.lock() {
                Ok(rx) => rx.recv(),
                Err(_) => return,
            };
            match job {
                Ok(PoolJob::Pass(hold)) => {
                    if let Some(pass) = &hold.shared {
                        Self::score_batches(pass);
                    }
                }
                Ok(PoolJob::Scatter(hold)) => {
                    if let Some(job) = &hold.shared {
                        loop {
                            // ordering: Relaxed — fetch_add atomicity alone
                            // hands each index out once; the task's own
                            // writes publish through the latch's mutex.
                            let i = job.cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= job.count {
                                break;
                            }
                            (job.task)(i);
                        }
                    }
                }
                Err(_) => return,
            }
        }
    }

    /// One worker's share of a pass: claim small batches of list
    /// positions off the pass's cursor until the list (or its capped
    /// prefix) is drained — or the deadline passes, checked per batch so
    /// an expired pass stops within one [`STEAL_BATCH`] of pairs. Each
    /// batch's cost feeds the pair-scoring histogram.
    fn score_batches(pass: &PairPass) {
        let mut scorer = pass.plan.scorer();
        loop {
            // lint: allow(determinism, deadline expiry is a declared
            // degradation — the pass reports partial coverage)
            if pass.scope.deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let Some((start, end)) = claim_batch(&pass.cursor, pass.limit) else {
                break;
            };
            // lint: allow(determinism, telemetry-only: batch cost feeds
            // the pair-scoring histogram; replay normalizes timings)
            let started = Instant::now();
            for k in start..end {
                let PassPair { pair, floor } = pass.pairs[k];
                let (a, b) = pair_of_index(pair);
                let (a, b) = (a.index(), b.index());
                let (v, cleared) = match floor {
                    Some(floor) => match scorer.score_floored(a, b, floor) {
                        Floored::Cleared(v) => (v, true),
                        Floored::Exact(v) => (v, false),
                    },
                    None => (scorer.score_pair(a, b), false),
                };
                // ordering: Relaxed — each slot is written by the one
                // worker that claimed it; the latch's mutex publishes it.
                pass.scores[k].store(v.to_bits(), Ordering::Relaxed);
                pass.cleared[k].store(cleared, Ordering::Relaxed);
            }
            // ordering: Relaxed — a count published by the latch's mutex.
            pass.scored.fetch_add(end - start, Ordering::Relaxed);
            pass.scope.sink.record(&EngineEvent::PairsScored {
                context: pass.scope.context,
                pairs: end - start,
                micros: started.elapsed().as_micros() as u64,
            });
        }
    }

    /// The one pair-scoring loop: scores every listed pair against `plan`
    /// across the pool's workers (work-stealing batches, the deadline
    /// checked per batch, at most `scope.max_pairs` of them), and hands
    /// the plan back with the scores of the prefix it reached. A pair
    /// listed with a floor is scored only until the floor provably holds
    /// ([`PairScorer::score_floored`]); every other pair is scored
    /// exactly. Results are bit-identical for any worker count — each
    /// score lands in its list position, whichever worker computed it.
    ///
    /// # Panics
    ///
    /// When a pair index is not below [`pair_count`], or a worker panics.
    pub fn score_pairs(
        &self,
        plan: Box<dyn SweepPlan>,
        pairs: Vec<PassPair>,
        scope: &PassScope,
    ) -> ScoredPairs {
        let pass = Arc::new(PairPass {
            plan,
            limit: scope
                .max_pairs
                .map_or(pairs.len(), |cap| cap.min(pairs.len())),
            cursor: AtomicUsize::new(0),
            scores: pairs.iter().map(|_| AtomicU64::new(0)).collect(),
            cleared: pairs.iter().map(|_| AtomicBool::new(false)).collect(),
            pairs,
            scored: AtomicUsize::new(0),
            scope: scope.clone(),
        });
        self.run(&pass, PoolJob::Pass);
        let pass = Arc::into_inner(pass).expect("every worker released the pass");
        ScoredPairs {
            scored: pass.scored.into_inner(),
            scores: pass
                .scores
                .into_iter()
                .zip(pass.cleared)
                .map(|(bits, cleared)| {
                    let v = f64::from_bits(bits.into_inner());
                    if cleared.into_inner() {
                        Floored::Cleared(v)
                    } else {
                        Floored::Exact(v)
                    }
                })
                .collect(),
            pairs: pass.pairs,
            plan: pass.plan,
        }
    }

    /// The shared preprocessing of one window under `measure`, built on
    /// the pool ([`AssociationMeasure::prepare_on`]) and reported to
    /// `scope` as an [`EnginePhase::ProfileBuild`] span. A measure with
    /// nothing to amortize gets a plan that scores each pair through
    /// [`AssociationMeasure::score`], so every measure runs through
    /// [`SweepPool::score_pairs`].
    pub fn plan(
        &self,
        measure: &Arc<dyn AssociationMeasure>,
        series: &[Vec<f64>],
        scope: &PassScope,
    ) -> Box<dyn SweepPlan> {
        // lint: allow(determinism, telemetry-only: prepare micros feed a
        // SpanClosed event; replay normalizes all recorded timings)
        let started = Instant::now();
        match measure.prepare_on(series, self) {
            Some(plan) => {
                scope.sink.record(&EngineEvent::SpanClosed {
                    phase: EnginePhase::ProfileBuild,
                    context: scope.context,
                    micros: started.elapsed().as_micros() as u64,
                });
                plan
            }
            None => Box::new(DirectPlan::new(Arc::clone(measure), series.to_vec())),
        }
    }

    /// Computes all pairwise scores of `frame` under `measure` on the pool,
    /// as one planned pass over all 325 pairs whose costs are reported to
    /// `scope` (a scope with no deadline and no pair cap, such as
    /// [`PassScope::detached`]: a bounded pass leaves the pairs it did not
    /// reach at `0.0`).
    ///
    /// Results are identical to [`AssociationMatrix::compute`] with any
    /// thread count — scores are written back by pair index, so worker
    /// scheduling cannot reorder them.
    pub fn sweep(
        &self,
        frame: &MetricFrame,
        measure: &Arc<dyn AssociationMeasure>,
        scope: &PassScope,
    ) -> AssociationMatrix {
        let series: Vec<Vec<f64>> = MetricId::ALL.iter().map(|&m| frame.series(m)).collect();
        let plan = self.plan(measure, &series, scope);
        let pass = self.score_pairs(
            plan,
            (0..pair_count()).map(PassPair::exact).collect(),
            scope,
        );
        AssociationMatrix {
            scores: pass.scores.into_iter().map(Floored::value).collect(),
        }
    }
}

impl Drop for SweepPool {
    fn drop(&mut self) {
        // Closing the job channel ends every worker's recv loop.
        self.job_tx.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for SweepPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepPool")
            .field("threads", &self.threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::PearsonMeasure;

    #[test]
    fn pair_index_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..METRIC_COUNT {
            for j in i + 1..METRIC_COUNT {
                let idx = pair_index(i, j);
                assert!(idx < pair_count());
                assert!(seen.insert(idx), "duplicate index {idx}");
                let (a, b) = pair_of_index(idx);
                assert_eq!((a.index(), b.index()), (i, j));
            }
        }
        assert_eq!(seen.len(), pair_count());
    }

    #[test]
    fn pair_count_is_325() {
        assert_eq!(pair_count(), 325);
    }

    fn synthetic_frame(ticks: usize) -> MetricFrame {
        let mut f = MetricFrame::new();
        for t in 0..ticks {
            // Deterministic but varied: metric k at tick t.
            let row: Vec<f64> = (0..METRIC_COUNT)
                .map(|k| ((t * (k + 1)) as f64 * 0.37).sin() * 10.0 + 20.0 + k as f64)
                .collect();
            f.push_tick(&row).unwrap();
        }
        f
    }

    #[test]
    fn parallel_matches_serial() {
        let frame = synthetic_frame(60);
        let serial = AssociationMatrix::compute(&frame, &PearsonMeasure, 1);
        let parallel = AssociationMatrix::compute(&frame, &PearsonMeasure, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn work_stealing_is_bit_identical_to_serial_for_mic() {
        use crate::measure::MicMeasure;
        use ix_mic::MicParams;

        let frame = synthetic_frame(40);
        let mic = MicMeasure::new(MicParams::fast());
        let bits = |m: &AssociationMatrix| -> Vec<u64> {
            m.scores().iter().map(|s| s.to_bits()).collect()
        };
        let serial = AssociationMatrix::compute(&frame, &mic, 1);
        // Scoped work-stealing compute.
        let parallel = AssociationMatrix::compute(&frame, &mic, 4);
        assert_eq!(bits(&serial), bits(&parallel));
        // Persistent-pool work-stealing dispatch, twice on one pool to
        // exercise cursor reset between sweeps.
        let pool = SweepPool::new(4);
        let measure: Arc<dyn AssociationMeasure> = Arc::new(MicMeasure::new(MicParams::fast()));
        for _ in 0..2 {
            let stolen = pool.sweep(&frame, &measure, &PassScope::detached());
            assert_eq!(bits(&serial), bits(&stolen));
        }
    }

    #[test]
    fn get_is_symmetric() {
        let frame = synthetic_frame(40);
        let m = AssociationMatrix::compute(&frame, &PearsonMeasure, 2);
        let a = MetricId::CpuUser;
        let b = MetricId::NetRxKBps;
        assert_eq!(m.get(a, b), m.get(b, a));
    }

    #[test]
    fn identical_series_score_one_under_pearson() {
        // CpuUser and a perfectly correlated partner.
        let mut f = MetricFrame::new();
        for t in 0..50 {
            let mut row = vec![1.0; METRIC_COUNT];
            row[MetricId::CpuUser.index()] = t as f64;
            row[MetricId::CpuSystem.index()] = 2.0 * t as f64 + 5.0;
            f.push_tick(&row).unwrap();
        }
        let m = AssociationMatrix::compute(&f, &PearsonMeasure, 1);
        assert!((m.get(MetricId::CpuUser, MetricId::CpuSystem) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid pair")]
    fn pair_index_rejects_bad_order() {
        pair_index(5, 5);
    }

    #[test]
    fn a_bounded_pass_scores_a_prefix_of_its_list() {
        let frame = synthetic_frame(40);
        let pool = SweepPool::new(2);
        let measure: Arc<dyn AssociationMeasure> = Arc::new(PearsonMeasure);
        let series: Vec<Vec<f64>> = MetricId::ALL.iter().map(|&m| frame.series(m)).collect();
        let full = AssociationMatrix::compute(&frame, &PearsonMeasure, 1);
        let pairs: Vec<PassPair> = (0..pair_count()).rev().map(PassPair::exact).collect();
        let mut plan = pool.plan(&measure, &series, &PassScope::detached());
        // A deadline already in the past: workers give up before claiming
        // anything, and the protocol still terminates. A pair cap stops
        // the pass after exactly that many positions, batch size or not.
        let expired = PassScope {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..PassScope::detached()
        };
        for (scope, want) in [
            (expired, 0),
            (
                PassScope {
                    max_pairs: Some(7),
                    ..PassScope::detached()
                },
                7,
            ),
            (PassScope::detached(), pair_count()),
        ] {
            let pass = pool.score_pairs(plan, pairs.clone(), &scope);
            assert_eq!(pass.scored, want);
            assert_eq!(pass.completed(), want == pair_count());
            // The scored positions are the leading ones, in list order.
            for (k, item) in pairs.iter().enumerate() {
                let expected = if k < want { full.at(item.pair) } else { 0.0 };
                assert_eq!(pass.scores[k].value().to_bits(), expected.to_bits());
            }
            // The plan survives a bounded pass for the next one.
            plan = pass.plan;
        }
        assert_eq!(pool.sweep(&frame, &measure, &PassScope::detached()), full);
    }

    #[test]
    fn a_pair_list_scores_bit_identically_and_hands_the_plan_back() {
        use crate::measure::MicMeasure;
        use ix_mic::MicParams;

        let frame = synthetic_frame(40);
        let mic = MicMeasure::new(MicParams::fast());
        let full = AssociationMatrix::compute(&frame, &mic, 1);
        let measure: Arc<dyn AssociationMeasure> = Arc::new(mic);
        let series: Vec<Vec<f64>> = MetricId::ALL.iter().map(|&m| frame.series(m)).collect();
        let scope = PassScope::detached();
        for threads in [1, 3] {
            let pool = SweepPool::new(threads);
            let mut plan = pool.plan(&measure, &series, &scope);
            // Any order, any subset — including the empty list.
            for pairs in [vec![], vec![324, 0, 17], (0..pair_count()).rev().collect()] {
                let pairs: Vec<PassPair> = pairs.into_iter().map(PassPair::exact).collect();
                let pass = pool.score_pairs(plan, pairs.clone(), &scope);
                assert!(pass.completed());
                assert_eq!(pass.pairs, pairs);
                for (k, item) in pairs.iter().enumerate() {
                    assert!(matches!(pass.scores[k], Floored::Exact(_)));
                    assert_eq!(
                        pass.scores[k].value().to_bits(),
                        full.at(item.pair).to_bits()
                    );
                }
                plan = pass.plan;
            }
        }
    }
}
