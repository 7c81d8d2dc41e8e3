//! The layered streaming diagnosis engine.
//!
//! [`Engine`] is the crate's one front door — built with
//! [`Engine::builder`], it serves both the batch flow (train, build
//! invariants, record signatures, [`Engine::process`] whole traces) and
//! the streaming flow, split into explicit layers:
//!
//! - **ingest** ([`Engine::ingest`]) — one CPI sample + one metric row per
//!   tick, buffered in a per-context [`ix_metrics::SlidingFrame`];
//! - **detection** ([`detector`]) — a pluggable streaming [`Detector`]
//!   (ARIMA residuals or CUSUM, selected by
//!   [`crate::config::DetectorChoice`]);
//! - **state** ([`state`]) — per-context state sharded across `N` locks so
//!   concurrent contexts don't contend;
//! - **diagnosis** ([`diagnosis`]) — invariant violation tuples matched
//!   against the signature database, with association sweeps on a
//!   persistent [`SweepPool`];
//! - **events** ([`events`]) — counters and timings through a pluggable
//!   [`EventSink`];
//! - **recording** ([`recorder`]) — an optional append-only history sink
//!   ([`HistoryRecorder`], attach with [`EngineBuilder::history`]) that
//!   observes tick rows, events, sweep scores and diagnoses, and can serve
//!   diagnosis windows back to the engine;
//! - **telemetry** ([`telemetry`]) — the full observability stack on top of
//!   the events: context-attributed metrics, phase spans, and Prometheus /
//!   JSON / report exporters (attach with [`EngineBuilder::telemetry`]).

mod builder;
pub mod detector;
pub mod diagnosis;
pub mod events;
mod ingest;
pub mod inspect;
pub mod recorder;
pub mod resilience;
mod state;
pub mod telemetry;
mod wire;

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use ix_metrics::{MetricFrame, MetricId, METRIC_COUNT};

use crate::anomaly::{DetectionResult, PerformanceModel};
use crate::assoc::{pair_count, pair_index, AssociationMatrix, PassScope, SweepPool};
use crate::config::{DetectorChoice, InvarNetConfig};
use crate::context::OperationContext;
use crate::cusum::CusumDetector;
use crate::error::CoreError;
use crate::incremental::{AdvanceOutcome, IncrementalSweep, PassError};
use crate::invariants::InvariantSet;
use crate::measure::{AssociationMeasure, PearsonMeasure};
use crate::signature::{Signature, SignatureDatabase, ViolationTuple};

pub use builder::EngineBuilder;
pub use detector::{ArimaDetector, CusumStreamDetector, Detector, DetectorRun, TickDecision};
pub use diagnosis::{Diagnosis, RankedCause};
pub use events::{EngineEvent, EventSink, NullSink};
pub use ingest::TickOutcome;
pub use inspect::{ContextStateSnapshot, EngineInspector};
pub use recorder::{HistoryRecorder, NullRecorder};
pub use telemetry::Telemetry;

use recorder::RecorderTee;

use resilience::{
    DegradationReason, DegradationTier, HealthMonitor, IngestQueue, SweepBudget,
    SweepCostPredictor, SweepDegradation,
};
use state::ShardedStateMap;
use telemetry::{ContextId, ContextRegistry, EnginePhase, Span, CONFIDENT_SIMILARITY};

/// The streaming diagnosis engine. All methods take `&self`; state lives
/// behind sharded locks, so one engine can be shared across ingestion
/// threads.
pub struct Engine {
    config: InvarNetConfig,
    measure: Arc<dyn AssociationMeasure>,
    /// The degradation ladder's tier-2 measure: a full sweep under a
    /// cheap, always-available score (Pearson).
    fallback: Arc<dyn AssociationMeasure>,
    state: ShardedStateMap,
    signatures: RwLock<SignatureDatabase>,
    /// The sweep worker pool. Shared (`Arc`) so a fleet of tenant engines
    /// can run on one pool sized to the box instead of spawning worker
    /// threads per engine (see [`EngineBuilder::shared_pool`]).
    pool: Arc<SweepPool>,
    sink: Arc<dyn EventSink>,
    /// The attached history recorder, if any (see [`EngineBuilder::history`]).
    recorder: Option<Arc<dyn HistoryRecorder>>,
    /// The attached telemetry hub, if any — kept alongside the sink so the
    /// ingest path can attribute recorder-append costs to context scopes
    /// without downcasting the sink.
    telemetry: Option<Arc<Telemetry>>,
    contexts: Arc<ContextRegistry>,
    ticks: AtomicU64,
    health: HealthMonitor,
    queue: IngestQueue,
    /// EWMA estimates of full and incremental sweep cost, consulted to
    /// predict budget overruns before burning wall-clock on a doomed
    /// sweep (and to probe out of a stale over-budget estimate).
    sweep_cost: SweepCostPredictor,
    /// Per-context sweep records, the one place sweep work is reused:
    /// each context's last full-fidelity pass (window, scores,
    /// staleness) and, once diagnosed, the plan
    /// [`Engine::diagnosis_matrix_for`] scored it with and slides instead
    /// of planning again. An unchanged window and the degradation
    /// ladder's tier 1 read it too.
    sweep_records: Mutex<HashMap<ContextId, IncrementalSweep>>,
}

impl Engine {
    /// Starts an [`EngineBuilder`] — the only way to assemble an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The bare engine [`EngineBuilder::build`] starts from: `measure`
    /// scores the sweeps, which run on `pool`.
    fn assemble(
        config: InvarNetConfig,
        measure: Arc<dyn AssociationMeasure>,
        pool: Arc<SweepPool>,
    ) -> Self {
        let shards = config.state_shards;
        let queue = IngestQueue::new(
            shards,
            config.ingest_queue_ticks,
            config.consecutive_anomalies,
            config.overload,
        );
        Engine {
            config,
            measure,
            fallback: Arc::new(PearsonMeasure),
            state: ShardedStateMap::new(shards),
            signatures: RwLock::new(SignatureDatabase::new()),
            pool,
            sink: Arc::new(NullSink),
            recorder: None,
            telemetry: None,
            contexts: Arc::new(ContextRegistry::new()),
            ticks: AtomicU64::new(0),
            health: HealthMonitor::new(),
            queue,
            sweep_cost: SweepCostPredictor::new(),
            sweep_records: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn set_lifetime_ticks_internal(&mut self, ticks: u64) {
        self.ticks = AtomicU64::new(ticks);
    }

    /// The sweep pool this engine runs on (share it across engines with
    /// [`EngineBuilder::shared_pool`]).
    pub fn sweep_pool(&self) -> Arc<SweepPool> {
        Arc::clone(&self.pool)
    }

    /// The engine-wide lifetime tick counter: how many ticks have ever
    /// been ingested (the label the *next* tick will take). Seed a fresh
    /// engine to continue an old one's numbering with
    /// [`EngineBuilder::lifetime_ticks`].
    pub fn lifetime_ticks(&self) -> u64 {
        // ordering: Relaxed — a monotone counter read for snapshots; the
        // caller serializes against ingest externally when exactness
        // matters (e.g. fleet eviction quiesces the tenant first).
        self.ticks.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub(crate) fn set_event_sink_internal(&mut self, sink: Arc<dyn EventSink>) {
        self.sink = sink;
    }

    pub(crate) fn attach_telemetry_internal(&mut self, telemetry: &Arc<Telemetry>) {
        self.contexts = Arc::clone(telemetry.contexts());
        self.sink = Arc::<Telemetry>::clone(telemetry);
        self.telemetry = Some(Arc::clone(telemetry));
    }

    /// Fans the event stream out to extra sinks behind the primary one
    /// (see [`EngineBuilder::extra_sink`]). Must run after the
    /// sink/telemetry wiring and before the history tee, so the recorder
    /// still observes the identical stream.
    pub(crate) fn attach_extra_sinks_internal(&mut self, extras: Vec<Arc<dyn EventSink>>) {
        if extras.is_empty() {
            return;
        }
        self.sink = Arc::new(events::FanOutSink::new(Arc::clone(&self.sink), extras));
    }

    /// The attached telemetry hub, if any.
    pub(crate) fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Attaches a history recorder: the recorder is teed behind the event
    /// sink (it observes the identical event stream), receives tick rows,
    /// sweep scores and diagnoses first-class, and — when it can serve
    /// windows back — becomes the source of diagnosis frames. Must run
    /// after the sink/telemetry wiring so the tee wraps the final sink.
    pub(crate) fn attach_history_internal(&mut self, recorder: Arc<dyn HistoryRecorder>) {
        recorder.bind_registry(&self.contexts);
        self.sink = Arc::new(RecorderTee::new(
            Arc::clone(&self.sink),
            Arc::clone(&recorder),
        ));
        self.recorder = Some(recorder);
    }

    /// The attached history recorder, if any.
    pub(crate) fn recorder(&self) -> Option<&Arc<dyn HistoryRecorder>> {
        self.recorder.as_ref()
    }

    /// Whether a history recorder is attached.
    pub fn has_history(&self) -> bool {
        self.recorder.is_some()
    }

    /// The registry the engine interns [`crate::OperationContext`]s into.
    pub fn context_registry(&self) -> &Arc<ContextRegistry> {
        &self.contexts
    }

    pub(crate) fn intern_context(&self, context: &OperationContext) -> ContextId {
        self.contexts.intern(context)
    }

    /// The configuration.
    pub fn config(&self) -> &InvarNetConfig {
        &self.config
    }

    /// The association measure's name ("MIC" / "ARX" / ...).
    pub fn measure_name(&self) -> &'static str {
        self.measure.name()
    }

    /// Number of sweep workers.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Number of state shards.
    pub fn state_shards(&self) -> usize {
        self.state.shard_count()
    }

    pub(crate) fn sink(&self) -> &Arc<dyn EventSink> {
        &self.sink
    }

    pub(crate) fn state(&self) -> &ShardedStateMap {
        &self.state
    }

    pub(crate) fn tick_counter(&self) -> &AtomicU64 {
        &self.ticks
    }

    pub(crate) fn health_monitor(&self) -> &HealthMonitor {
        &self.health
    }

    pub(crate) fn ingest_queue(&self) -> &IngestQueue {
        &self.queue
    }

    // ------------------------------------------------------- offline part

    /// Trains the per-context performance model on N normal CPI traces and
    /// instantiates the configured streaming detector (ARIMA, or CUSUM
    /// calibrated on the same traces).
    ///
    /// # Errors
    ///
    /// [`CoreError::NonFiniteCpi`] when a trace holds a NaN or infinite
    /// sample (nothing is trained); otherwise propagates training errors
    /// ([`CoreError::NotEnoughRuns`], ARIMA failures).
    pub fn train_performance_model(
        &self,
        context: OperationContext,
        cpi_traces: &[Vec<f64>],
    ) -> Result<(), CoreError> {
        if cpi_traces.iter().flatten().any(|c| !c.is_finite()) {
            return Err(CoreError::NonFiniteCpi(context));
        }
        let id = self.intern_context(&context);
        let _span = Span::enter(&self.sink, EnginePhase::Train, id);
        let model = Arc::new(PerformanceModel::train(cpi_traces, self.config.beta)?);
        let detector: Arc<dyn Detector> = match self.config.detector {
            DetectorChoice::Arima => Arc::new(ArimaDetector::new(
                Arc::clone(&model),
                self.config.threshold_rule,
                self.config.consecutive_anomalies,
            )),
            DetectorChoice::Cusum { k, h } => Arc::new(CusumStreamDetector::new(
                CusumDetector::train(cpi_traces, k, h)?,
            )),
        };
        self.state
            .with_mut(&context, self.config.window_ticks, |s| {
                s.perf_model = Some(model);
                s.detector = Some(detector);
                s.reset_run();
            });
        self.note_run_reset(&context);
        Ok(())
    }

    /// Computes the pairwise association matrix of one frame under the
    /// configured measure, on the persistent worker pool. The sweep is
    /// attributed to no context, so it neither reuses nor records work.
    ///
    /// # Errors
    ///
    /// [`CoreError::FrameTooShort`] when the frame has too few ticks.
    pub fn association_matrix(&self, frame: &MetricFrame) -> Result<AssociationMatrix, CoreError> {
        self.association_matrix_for(ContextId::UNATTRIBUTED, frame)
    }

    /// [`Engine::association_matrix`] with the sweep attributed to an
    /// interned context (internal callers that know whose window this is):
    /// a full 325-pair sweep, which then replaces the context's record.
    pub(crate) fn association_matrix_for(
        &self,
        context: ContextId,
        frame: &MetricFrame,
    ) -> Result<AssociationMatrix, CoreError> {
        self.check_frame(frame)?;
        let series = (!context.is_unattributed()).then(|| frame_series(frame));
        // The matrix is a pure function of the frame's values under this
        // engine's fixed measure, so an unchanged window
        // (`violation_tuple` + `record_signature` on one frame) is served
        // from the context's record bit-for-bit — as long as every one of
        // its pairs is fresh (no slide or restricted pass left one stale).
        if let Some(series) = &series {
            let fresh = self.with_record(context, |record| {
                (record.is_fresh() && record.is_window(series)).then(|| record.matrix())
            });
            if let Some(matrix) = fresh.flatten() {
                self.note_health_ok(context);
                return Ok(matrix);
            }
        }
        // lint: allow(determinism, telemetry-only: sweep micros feed a
        // SweepCompleted event; replay normalizes all recorded timings)
        let started = Instant::now();
        let matrix = {
            let _span = Span::enter(&self.sink, EnginePhase::Sweep, context);
            self.pool
                .sweep_bounded(frame, &self.measure, &self.pass_scope(context, None))
                .matrix
        };
        let micros = started.elapsed().as_micros() as u64;
        self.sink.record(&EngineEvent::SweepCompleted {
            context,
            pairs: pair_count(),
            micros,
        });
        self.sweep_cost.observe_full(micros);
        if let Some(series) = series {
            let scores = matrix.scores().to_vec();
            self.put_record(context, IncrementalSweep::new(series, scores));
        }
        self.note_health_ok(context);
        Ok(matrix)
    }

    /// Refuses a frame too short to score.
    fn check_frame(&self, frame: &MetricFrame) -> Result<(), CoreError> {
        if frame.ticks() < self.config.min_frame_ticks {
            return Err(CoreError::FrameTooShort {
                required: self.config.min_frame_ticks,
                got: frame.ticks(),
            });
        }
        Ok(())
    }

    /// A pool pass attributed to `context`, reporting to the engine's
    /// sink, bounded by `deadline`.
    fn pass_scope(&self, context: ContextId, deadline: Option<Instant>) -> PassScope {
        PassScope {
            context,
            sink: Arc::clone(&self.sink),
            deadline,
        }
    }

    /// The diagnosis-path sweep, which scores only what the violation
    /// tuple reads: the invariant pairs. When the context's record holds
    /// the new window unchanged or slid forward a few ticks, it is
    /// answered by delta — profiles slide in place, clean pair scores are
    /// reused verbatim, and stale invariant pairs go through the
    /// screen-then-confirm pass ([`IncrementalSweep::rescore`]).
    /// Otherwise one cold pass ([`IncrementalSweep::cold`]) plans the
    /// window once and confirms every invariant pair; its plan becomes the
    /// new record. Either way the violation tuple is bit-identical to a
    /// full from-scratch sweep's.
    ///
    /// Under a budget, the answer is the first a declared degradation
    /// ladder can give when the pass cannot: the context's recorded
    /// matrix, a full Pearson sweep, or a partial matrix over the
    /// highest-variance metrics. Every degraded outcome is reported as
    /// [`EngineEvent::SweepDegraded`], and the verdict says which tier
    /// answered, so no caller can mistake a degraded matrix for a full one.
    pub(crate) fn diagnosis_matrix_for(
        &self,
        context: ContextId,
        frame: &MetricFrame,
        budget: SweepBudget,
        invariants: &InvariantSet,
    ) -> Result<SweepVerdict, CoreError> {
        self.check_frame(frame)?;
        let series = frame_series(frame);
        let mut previous = self.take_record(context);
        if let Some(mut record) = previous.take() {
            // Compose with the budget ladder: when even the incremental
            // pass is predicted over the wall budget, keep the (untouched)
            // record for a roomier window and let the cold path's checks
            // answer.
            let predicted = self.sweep_cost.predicted_incremental_micros();
            let over_wall = budget
                .wall
                .is_some_and(|wall| predicted > 0 && Duration::from_micros(predicted) > wall);
            // An unchanged window is a zero-tick slide: rescored, never
            // served raw, since a pair an earlier pass left stale may be
            // an invariant by now.
            if !over_wall && record.advance(&series) != AdvanceOutcome::Unsupported {
                match self.rescore_record(context, &mut record, invariants, budget) {
                    Ok(verdict) => {
                        self.put_record(context, record);
                        return Ok(verdict);
                    }
                    Err(PassError::DeadlineExpired) => {
                        self.put_record(context, record);
                        return Ok(self.degrade(
                            context,
                            frame,
                            budget,
                            DegradationReason::WallClockExceeded,
                            true,
                        ));
                    }
                    Err(PassError::Unplanned) => {}
                }
            }
            previous = Some(record);
        }
        Ok(self.cold_matrix_for(context, frame, series, budget, invariants, previous))
    }

    /// The cold pass of [`Engine::diagnosis_matrix_for`], with the
    /// ladder's gates in front of it: a pair budget below the pair
    /// population, or a predicted overrun of the wall budget, degrades
    /// without scoring. `previous` is the context's record, which stays
    /// the ladder's tier 1 until a completed pass replaces it.
    fn cold_matrix_for(
        &self,
        context: ContextId,
        frame: &MetricFrame,
        series: Vec<Vec<f64>>,
        budget: SweepBudget,
        invariants: &InvariantSet,
        previous: Option<IncrementalSweep>,
    ) -> SweepVerdict {
        // Pairs no invariant reads keep the previous record's score (or
        // 0.0), stale: the recorded-sweep convention.
        let scores = match &previous {
            Some(record) => record.scores().to_vec(),
            None => vec![0.0; pair_count()],
        };
        if let Some(record) = previous {
            self.put_record(context, record);
        }
        // A pair budget below the full pair population degrades without
        // trying, whatever the pass would score (and without the Pearson
        // tier, which scores every pair).
        if budget.max_pairs.is_some_and(|max| max < pair_count()) {
            return self.degrade(
                context,
                frame,
                budget,
                DegradationReason::PairBudgetExceeded,
                false,
            );
        }
        // When past from-scratch passes averaged longer than the wall
        // budget, predict the overrun instead of paying for it — except
        // for the periodic probe that keeps the estimate honest: a skipped
        // pass produces no sample, so without probes a stale over-budget
        // estimate would pin the engine in the degraded tier forever.
        if let Some(wall) = budget.wall {
            let predicted = self.sweep_cost.predicted_full_micros();
            if predicted > 0
                && Duration::from_micros(predicted) > wall
                && !self.sweep_cost.note_skipped_should_probe()
            {
                return self.degrade(
                    context,
                    frame,
                    budget,
                    DegradationReason::PredictedOverrun,
                    true,
                );
            }
        }
        // lint: allow(determinism, telemetry-only: pass micros feed a
        // SweepCompleted event; replay normalizes all recorded timings)
        let started = Instant::now();
        let scope = self.pass_scope(context, budget.deadline(started));
        let cold = {
            let _span = Span::enter(&self.sink, EnginePhase::Sweep, context);
            IncrementalSweep::cold(
                &self.measure,
                series,
                scores,
                invariants,
                &self.pool,
                &scope,
            )
        };
        // An abandoned pass still cost its deadline's worth of wall-clock;
        // fold that in too, so the estimate converges upward even when
        // passes never complete.
        let micros = started.elapsed().as_micros() as u64;
        self.sweep_cost.observe_full(micros);
        let Ok(record) = cold else {
            return self.degrade(
                context,
                frame,
                budget,
                DegradationReason::WallClockExceeded,
                true,
            );
        };
        self.sink.record(&EngineEvent::SweepCompleted {
            context,
            pairs: invariants.len(),
            micros,
        });
        let matrix = record.matrix();
        self.put_record(context, record);
        self.note_health_ok(context);
        SweepVerdict::full(matrix)
    }

    /// The screen-then-confirm pass over a record whose window is the
    /// diagnosis window, with its events.
    fn rescore_record(
        &self,
        context: ContextId,
        record: &mut IncrementalSweep,
        invariants: &InvariantSet,
        budget: SweepBudget,
    ) -> Result<SweepVerdict, PassError> {
        // lint: allow(determinism, telemetry-only: screen micros feed
        // events; replay normalizes timings)
        let started = Instant::now();
        let scope = self.pass_scope(context, budget.deadline(started));
        let outcome = {
            let _span = Span::enter(&self.sink, EnginePhase::Screen, context);
            record.rescore(invariants, self.config.epsilon, &self.pool, &scope)
        };
        let micros = started.elapsed().as_micros() as u64;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(error) => {
                if error == PassError::DeadlineExpired {
                    self.sweep_cost.observe_incremental(micros);
                }
                return Err(error);
            }
        };
        self.sink.record(&EngineEvent::SweepScreened {
            context,
            reused: outcome.reused,
            screened: outcome.screened,
            confirmed: outcome.confirmed,
        });
        self.sink.record(&EngineEvent::SweepCompleted {
            context,
            pairs: outcome.confirmed,
            micros,
        });
        self.sweep_cost.observe_incremental(micros);
        self.note_health_ok(context);
        Ok(SweepVerdict::full(record.matrix()))
    }

    /// Runs `f` over `context`'s sweep record, if it has one.
    fn with_record<R>(
        &self,
        context: ContextId,
        f: impl FnOnce(&IncrementalSweep) -> R,
    ) -> Option<R> {
        self.sweep_records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&context)
            .map(f)
    }

    /// Removes `context`'s sweep record for work outside the lock.
    fn take_record(&self, context: ContextId) -> Option<IncrementalSweep> {
        self.sweep_records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&context)
    }

    /// Stores `record` as `context`'s sweep record.
    fn put_record(&self, context: ContextId, record: IncrementalSweep) {
        self.sweep_records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(context, record);
    }

    /// Walks the degradation ladder until a tier produces a matrix. Tier 3
    /// always succeeds, so this function always returns a degraded — never
    /// silently absent — verdict.
    fn degrade(
        &self,
        context: ContextId,
        frame: &MetricFrame,
        budget: SweepBudget,
        reason: DegradationReason,
        allow_pearson: bool,
    ) -> SweepVerdict {
        // Tier 1: the context's recorded matrix, whichever path wrote it.
        // It comes from *this context's* window — stale, but structurally
        // sound; never a neighbor's, which could be silently wrong.
        if let Some(matrix) = self.with_record(context, IncrementalSweep::matrix) {
            let degradation = SweepDegradation {
                tier: DegradationTier::CachedMatrix,
                reason,
            };
            self.note_degradation(context, degradation.tier, reason);
            return SweepVerdict {
                matrix,
                degradation: Some(degradation),
                scored: None,
            };
        }
        // Tier 2: a full sweep under the cheap Pearson fallback, granted a
        // fresh wall budget of its own. Skipped when the pair budget rules
        // out any full sweep.
        if allow_pearson {
            // lint: allow(determinism, telemetry-only: fallback-sweep micros
            // feed a SweepCompleted event; replay normalizes timings)
            let started = Instant::now();
            let bounded = {
                let _span = Span::enter(&self.sink, EnginePhase::Sweep, context);
                self.pool.sweep_bounded(
                    frame,
                    &self.fallback,
                    &self.pass_scope(context, budget.deadline(started)),
                )
            };
            if bounded.completed {
                let degradation = SweepDegradation {
                    tier: DegradationTier::PearsonFallback,
                    reason,
                };
                self.note_degradation(context, degradation.tier, reason);
                return SweepVerdict {
                    matrix: bounded.matrix,
                    degradation: Some(degradation),
                    scored: None,
                };
            }
        }
        // Tier 3: a partial Pearson matrix over the highest-variance
        // metrics — bounded work, always completes.
        let (matrix, scored) = self.partial_matrix(frame, budget);
        let degradation = SweepDegradation {
            tier: DegradationTier::PartialMatrix,
            reason,
        };
        self.note_degradation(context, degradation.tier, reason);
        SweepVerdict {
            matrix,
            degradation: Some(degradation),
            scored: Some(scored),
        }
    }

    /// The ladder's last resort: Pearson scores for the pairs among the
    /// `k` highest-variance metrics, where `k(k-1)/2` fits the pair
    /// budget. Returns the matrix (unscored pairs hold `0.0`) and the
    /// scored mask — diagnosis masks unscored pairs out of the violation
    /// tuple rather than reading the placeholder zeros as evidence.
    fn partial_matrix(
        &self,
        frame: &MetricFrame,
        budget: SweepBudget,
    ) -> (AssociationMatrix, Vec<bool>) {
        const DEFAULT_PARTIAL_PAIRS: usize = 66; // 12 metrics' worth
        let pair_budget = budget
            .max_pairs
            .unwrap_or(DEFAULT_PARTIAL_PAIRS)
            .min(pair_count());
        // Largest k with k(k-1)/2 <= pair_budget, at least 2 so the
        // matrix is never empty.
        let mut k = 2;
        while k < METRIC_COUNT && (k + 1) * k / 2 <= pair_budget {
            k += 1;
        }
        let series = frame_series(frame);
        let mut by_variance: Vec<usize> = (0..METRIC_COUNT).collect();
        by_variance.sort_by(|&a, &b| {
            variance(&series[b])
                .total_cmp(&variance(&series[a]))
                .then(a.cmp(&b))
        });
        let mut chosen = by_variance[..k].to_vec();
        chosen.sort_unstable();
        let mut scores = vec![0.0f64; pair_count()];
        let mut scored = vec![false; pair_count()];
        for (pos, &i) in chosen.iter().enumerate() {
            for &j in &chosen[pos + 1..] {
                let pair = pair_index(i, j);
                scores[pair] = self.fallback.score(&series[i], &series[j]);
                scored[pair] = true;
            }
        }
        (AssociationMatrix::from_scores(scores), scored)
    }

    /// Runs Algorithm 1: builds the invariant set of a context from the
    /// metric frames of N normal runs.
    ///
    /// For comparability, pass frames windowed the same way diagnosis
    /// windows will be (association estimates depend on sample count).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotEnoughRuns`] / [`CoreError::FrameTooShort`].
    pub fn build_invariants(
        &self,
        context: OperationContext,
        normal_frames: &[MetricFrame],
    ) -> Result<(), CoreError> {
        if normal_frames.len() < self.config.min_training_runs {
            return Err(CoreError::NotEnoughRuns {
                required: self.config.min_training_runs,
                got: normal_frames.len(),
            });
        }
        let id = self.intern_context(&context);
        let _span = Span::enter(&self.sink, EnginePhase::InvariantBuild, id);
        let mut matrices = Vec::with_capacity(normal_frames.len());
        for frame in normal_frames {
            matrices.push(self.association_matrix_for(id, frame)?);
        }
        let set = Arc::new(InvariantSet::select(&matrices, self.config.tau));
        self.state
            .with_mut(&context, self.config.window_ticks, |s| {
                s.invariants = Some(set);
            });
        Ok(())
    }

    /// Builds the violation tuple of an abnormal window against the
    /// context's invariants.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoInvariants`] / frame errors.
    pub fn violation_tuple(
        &self,
        context: &OperationContext,
        abnormal: &MetricFrame,
    ) -> Result<ViolationTuple, CoreError> {
        let invariants = self
            .invariant_set(context)
            .ok_or_else(|| CoreError::NoInvariants(context.clone()))?;
        let matrix = self.association_matrix_for(self.intern_context(context), abnormal)?;
        Ok(ViolationTuple::build(
            &invariants,
            &matrix,
            self.config.epsilon,
        ))
    }

    /// Records a signature for an investigated problem ("once the
    /// performance problem is resolved, a new signature will be added").
    ///
    /// # Errors
    ///
    /// Same as [`Engine::violation_tuple`].
    pub fn record_signature(
        &self,
        context: &OperationContext,
        problem: &str,
        abnormal: &MetricFrame,
    ) -> Result<(), CoreError> {
        let tuple = self.violation_tuple(context, abnormal)?;
        self.signatures
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .add(Signature {
                tuple,
                problem: problem.to_string(),
                context: context.clone(),
            });
        Ok(())
    }

    // -------------------------------------------------------- batch online

    /// Scores a complete CPI trace against the context's detector.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoPerformanceModel`].
    pub fn detect(
        &self,
        context: &OperationContext,
        cpi: &[f64],
    ) -> Result<DetectionResult, CoreError> {
        let detector = self
            .detector(context)
            .ok_or_else(|| CoreError::NoPerformanceModel(context.clone()))?;
        let result = detector.score(cpi);
        if result.is_anomalous() {
            self.sink.record(&EngineEvent::DetectionFired {
                context: self.intern_context(context),
                // ordering: Relaxed — tick labels the event with the
                // monotone lifetime counter; exactness under concurrent
                // ingest is not part of the event contract.
                tick: self.ticks.load(std::sync::atomic::Ordering::Relaxed),
            });
        }
        Ok(result)
    }

    /// Cause inference: matches the abnormal window's violation tuple
    /// against the signature database, under the configured
    /// [`SweepBudget`] ([`InvarNetConfig::sweep_budget`], unlimited by
    /// default).
    ///
    /// # Errors
    ///
    /// Missing invariants/signatures for the context, or frame errors.
    pub fn diagnose(
        &self,
        context: &OperationContext,
        abnormal: &MetricFrame,
    ) -> Result<Diagnosis, CoreError> {
        self.diagnose_with_budget(context, abnormal, self.config.sweep_budget)
    }

    /// [`Engine::diagnose`] under an explicit [`SweepBudget`]. On budget
    /// overrun the sweep degrades along the declared ladder instead of
    /// blocking; the returned [`Diagnosis::degradation`] names the tier
    /// that answered (or is `None` for a full-fidelity answer).
    ///
    /// # Errors
    ///
    /// Missing invariants/signatures for the context, or frame errors.
    pub fn diagnose_with_budget(
        &self,
        context: &OperationContext,
        abnormal: &MetricFrame,
        budget: SweepBudget,
    ) -> Result<Diagnosis, CoreError> {
        let id = self.intern_context(context);
        // ordering: Relaxed — tick only labels the emitted events with the
        // monotone lifetime counter (see detect above).
        let tick = self.ticks.load(std::sync::atomic::Ordering::Relaxed);
        let _span = Span::enter(&self.sink, EnginePhase::Diagnosis, id);
        // lint: allow(determinism, telemetry-only: diagnosis micros feed a
        // DiagnosisReady event; replay normalizes all recorded timings)
        let started = Instant::now();
        let invariants = self
            .invariant_set(context)
            .ok_or_else(|| CoreError::NoInvariants(context.clone()))?;
        let verdict = self.diagnosis_matrix_for(id, abnormal, budget, &invariants)?;
        let tuple = verdict.violation_tuple(&invariants, self.config.epsilon);
        let mut diagnosis = self.rank_tuple(context, tuple)?;
        diagnosis.degradation = verdict.degradation;
        self.sink.record(&EngineEvent::DiagnosisRan {
            context: id,
            tick,
            micros: started.elapsed().as_micros() as u64,
        });
        self.emit_signature_match(id, tick, &diagnosis);
        self.record_diagnosis_history(id, tick, &verdict, &diagnosis);
        Ok(diagnosis)
    }

    /// Feeds one finished diagnosis (and the sweep scores behind it) to
    /// the attached recorder, if any.
    pub(crate) fn record_diagnosis_history(
        &self,
        context: ContextId,
        tick: u64,
        verdict: &SweepVerdict,
        diagnosis: &Diagnosis,
    ) {
        if let Some(recorder) = &self.recorder {
            recorder.record_sweep(context, tick, verdict.matrix.scores(), verdict.degradation);
            recorder.record_diagnosis(context, tick, diagnosis);
        }
    }

    /// Ranks an already-built violation tuple against the signature
    /// database.
    pub(crate) fn rank_tuple(
        &self,
        context: &OperationContext,
        tuple: ViolationTuple,
    ) -> Result<Diagnosis, CoreError> {
        let ranked = self
            .signatures
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .rank(context, &tuple, self.config.similarity)?
            .into_iter()
            .map(|(problem, similarity)| RankedCause {
                problem,
                similarity,
            })
            .collect();
        Ok(Diagnosis {
            ranked,
            tuple,
            degradation: None,
        })
    }

    /// Reports how well a finished diagnosis matched the signature
    /// database ([`EngineEvent::SignatureMatched`]).
    pub(crate) fn emit_signature_match(&self, context: ContextId, tick: u64, diag: &Diagnosis) {
        let best_similarity = diag.ranked.first().map_or(0.0, |r| r.similarity);
        self.sink.record(&EngineEvent::SignatureMatched {
            context,
            tick,
            best_similarity,
            confident: best_similarity >= CONFIDENT_SIMILARITY,
        });
    }

    /// The full batch online step: detect on CPI, and only when anomalous
    /// run cause inference on the metric window ("to reduce the cost of
    /// unnecessary performance diagnosis").
    ///
    /// # Errors
    ///
    /// Any error from detection or diagnosis.
    pub fn process(
        &self,
        context: &OperationContext,
        cpi: &[f64],
        window: &MetricFrame,
    ) -> Result<(DetectionResult, Option<Diagnosis>), CoreError> {
        let detection = self.detect(context, cpi)?;
        if detection.is_anomalous() {
            let diagnosis = self.diagnose(context, window)?;
            Ok((detection, Some(diagnosis)))
        } else {
            Ok((detection, None))
        }
    }

    // --------------------------------------------------------- inspection

    /// The trained performance model of a context.
    pub fn performance_model(&self, context: &OperationContext) -> Option<Arc<PerformanceModel>> {
        self.state.with(context, |s| s.perf_model.clone()).flatten()
    }

    /// The streaming detector of a context.
    pub fn detector(&self, context: &OperationContext) -> Option<Arc<dyn Detector>> {
        self.state.with(context, |s| s.detector.clone()).flatten()
    }

    /// The invariant set of a context.
    pub fn invariant_set(&self, context: &OperationContext) -> Option<Arc<InvariantSet>> {
        self.state.with(context, |s| s.invariants.clone()).flatten()
    }

    /// A snapshot of the signature database. This clones the whole
    /// database; for read-only access prefer
    /// [`Engine::with_signature_database`], which borrows it under the
    /// read guard instead.
    pub fn signature_database(&self) -> SignatureDatabase {
        self.with_signature_database(|db| db.clone())
    }

    /// Runs `f` over the signature database under its read lock, without
    /// cloning — the cheap way to count, scan or serialize signatures.
    pub fn with_signature_database<R>(&self, f: impl FnOnce(&SignatureDatabase) -> R) -> R {
        f(&self
            .signatures
            .read()
            .unwrap_or_else(PoisonError::into_inner))
    }

    /// Contexts with trained models, sorted.
    pub fn contexts(&self) -> Vec<OperationContext> {
        self.state
            .contexts()
            .into_iter()
            .filter(|c| {
                self.state
                    .with(c, |s| s.perf_model.is_some())
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Replaces the signature database (used when loading persisted state).
    pub fn set_signature_database(&self, db: SignatureDatabase) {
        *self
            .signatures
            .write()
            .unwrap_or_else(PoisonError::into_inner) = db;
    }

    pub(crate) fn install_invariant_set_internal(
        &self,
        context: OperationContext,
        set: InvariantSet,
    ) {
        let set = Arc::new(set);
        self.state
            .with_mut(&context, self.config.window_ticks, |s| {
                s.invariants = Some(set);
            });
    }

    pub(crate) fn install_performance_model_internal(
        &self,
        context: OperationContext,
        model: PerformanceModel,
    ) {
        let model = Arc::new(model);
        let detector: Arc<dyn Detector> = Arc::new(ArimaDetector::new(
            Arc::clone(&model),
            self.config.threshold_rule,
            self.config.consecutive_anomalies,
        ));
        self.state
            .with_mut(&context, self.config.window_ticks, |s| {
                s.perf_model = Some(model);
                s.detector = Some(detector);
                s.reset_run();
            });
        self.note_run_reset(&context);
    }

    pub(crate) fn install_detector_internal(
        &self,
        context: OperationContext,
        detector: Arc<dyn Detector>,
    ) {
        self.state
            .with_mut(&context, self.config.window_ticks, |s| {
                s.detector = Some(detector);
                s.reset_run();
            });
        self.note_run_reset(&context);
    }

    /// Tells the attached recorder (if any) that `context`'s sliding
    /// window was just discarded, so history keeps run boundaries aligned
    /// with the live window.
    pub(crate) fn note_run_reset(&self, context: &OperationContext) {
        if let Some(recorder) = &self.recorder {
            recorder.record_run_reset(self.intern_context(context));
        }
    }
}

/// What [`Engine::diagnosis_matrix_for`] produced: the matrix, which
/// degradation tier (if any) answered, and — for a partial matrix — which
/// pairs were actually scored.
pub(crate) struct SweepVerdict {
    pub(crate) matrix: AssociationMatrix,
    pub(crate) degradation: Option<SweepDegradation>,
    pub(crate) scored: Option<Vec<bool>>,
}

impl SweepVerdict {
    fn full(matrix: AssociationMatrix) -> Self {
        SweepVerdict {
            matrix,
            degradation: None,
            scored: None,
        }
    }

    /// Builds the violation tuple of this verdict's matrix, masking out
    /// pairs a partial sweep never scored (their placeholder zeros must
    /// not read as evidence of broken associations).
    pub(crate) fn violation_tuple(
        &self,
        invariants: &InvariantSet,
        epsilon: f64,
    ) -> ViolationTuple {
        match &self.scored {
            Some(mask) => ViolationTuple::build_masked(invariants, &self.matrix, epsilon, mask),
            None => ViolationTuple::build(invariants, &self.matrix, epsilon),
        }
    }
}

/// The frame series-major, one series per metric.
fn frame_series(frame: &MetricFrame) -> Vec<Vec<f64>> {
    MetricId::ALL.iter().map(|&m| frame.series(m)).collect()
}

/// Sample variance (biased, `n` denominator) — only used to rank metrics,
/// so the normalization constant is irrelevant.
fn variance(series: &[f64]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let n = series.len() as f64;
    let mean = series.iter().sum::<f64>() / n;
    series.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("measure", &self.measure.name())
            .field("contexts", &self.state.modeled_contexts())
            .field("invariant_sets", &self.state.invariant_contexts())
            .field(
                "signatures",
                &self
                    .signatures
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len(),
            )
            .field("shards", &self.state.shard_count())
            .field("threads", &self.pool.threads())
            .finish()
    }
}
