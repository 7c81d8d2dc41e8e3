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
//! - **events** ([`events`]) — counters and timings, delivered in order to
//!   each member of the engine's one observation list
//!   ([`EngineBuilder::observe`]);
//! - **recording** ([`recorder`]) — an optional append-only history member
//!   ([`HistoryRecorder`]) that observes tick rows, events, sweep scores
//!   and diagnoses, and can serve diagnosis windows back to the engine;
//! - **telemetry** ([`telemetry`]) — the full observability stack on top of
//!   the events: context-attributed metrics, phase spans, and Prometheus /
//!   JSON / report exporters (a [`telemetry::Telemetry`] hub is a member
//!   like any other).

mod builder;
pub mod detector;
pub mod diagnosis;
pub mod events;
mod image;
mod ingest;
pub mod inspect;
pub mod recorder;
pub mod resilience;
mod state;
pub mod telemetry;

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use ix_metrics::{MetricFrame, MetricId};

use crate::anomaly::{DetectionResult, PerformanceModel};
use crate::assoc::{pair_count, AssociationMatrix, PassPair, PassScope, SweepPool};
use crate::config::{DetectorChoice, InvarNetConfig};
use crate::context::OperationContext;
use crate::cusum::CusumDetector;
use crate::error::CoreError;
use crate::incremental::{AdvanceOutcome, IncrementalSweep, ScreenOutcome};
use crate::invariants::{InvariantBands, InvariantSet};
use crate::measure::AssociationMeasure;
use crate::signature::{Signature, SignatureDatabase, ViolationTuple};
use crate::store::ModelStore;

pub use builder::EngineBuilder;
pub use detector::{
    ArimaDetector, CusumStreamDetector, Detector, DetectorRun, RunState, TickDecision,
};
pub use diagnosis::{Diagnosis, RankedCause};
pub use events::{EngineEvent, EventKind, EventSink, NullSink, Observer};
pub use image::{CapturedRun, EngineImage, ImageRefused, RunView};
pub use ingest::TickOutcome;
pub use inspect::{ContextStateSnapshot, EngineInspector};
pub use recorder::HistoryRecorder;

use events::Observers;

use resilience::{
    DegradationReason, DegradationTier, HealthMonitor, IngestQueue, SweepBudget, SweepDegradation,
};
use state::ShardedStateMap;
use telemetry::{ContextId, ContextRegistry, EnginePhase, Span, CONFIDENT_SIMILARITY};

/// The streaming diagnosis engine. All methods take `&self`; state lives
/// behind sharded locks, so one engine can be shared across ingestion
/// threads.
pub struct Engine {
    /// Shared with the images taken from the engine, and with every
    /// engine built from the same `Arc` (see [`EngineBuilder::config`]).
    config: Arc<InvarNetConfig>,
    measure: Arc<dyn AssociationMeasure>,
    state: ShardedStateMap,
    /// The signature database, shared with the stores this engine was
    /// loaded from or captured into: [`Engine::record_signature`] copies
    /// it first when anyone else holds it.
    signatures: RwLock<Arc<SignatureDatabase>>,
    /// The sweep worker pool. Shared (`Arc`) so a fleet of tenant engines
    /// can run on one pool sized to the box instead of spawning worker
    /// threads per engine (see [`EngineBuilder::shared_pool`]).
    pool: Arc<SweepPool>,
    /// The observation list (see [`EngineBuilder::observe`]).
    observers: Arc<Observers>,
    /// The registry contexts intern into: the first hub's, or the
    /// engine's own.
    contexts: Arc<ContextRegistry>,
    ticks: AtomicU64,
    health: HealthMonitor,
    queue: IngestQueue,
    /// Per-context sweep records, the one place sweep work is reused:
    /// each context's last diagnosed (or signature) window, its pair
    /// scores and what each is worth (fresh, bound, stale or unscored),
    /// and the plan [`Engine::diagnosis_matrix_for`] scored it with and
    /// slides instead of planning again. A budgeted pass cut short leaves
    /// its record here too, so the next diagnosis resumes where it
    /// stopped.
    sweep_records: Mutex<HashMap<ContextId, IncrementalSweep>>,
}

impl Engine {
    /// Starts an [`EngineBuilder`] — the only way to assemble an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The bare engine [`EngineBuilder::build`] starts from: `measure`
    /// scores the sweeps, which run on `pool`, and `observers` watch it.
    fn assemble(
        config: Arc<InvarNetConfig>,
        measure: Arc<dyn AssociationMeasure>,
        pool: Arc<SweepPool>,
        observers: Vec<Observer>,
    ) -> Self {
        let (observers, contexts) = Observers::bind(observers);
        Engine {
            state: ShardedStateMap::new(config.state_shards),
            queue: IngestQueue::for_config(&config),
            config,
            measure,
            signatures: RwLock::new(Arc::default()),
            pool,
            observers: Arc::new(observers),
            contexts,
            ticks: AtomicU64::new(0),
            health: HealthMonitor::new(),
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

    /// Whether a history recorder is attached.
    pub fn has_history(&self) -> bool {
        !self.observers.recorders().is_empty()
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

    /// The observation list every event goes to.
    pub(crate) fn observers(&self) -> &Observers {
        &self.observers
    }

    /// A span over `phase` of `context`, closing to the observation list.
    pub(crate) fn span(&self, phase: EnginePhase, context: ContextId) -> Span {
        Span::enter(
            Arc::clone(&self.observers) as Arc<dyn EventSink>,
            phase,
            context,
        )
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
    /// [`CoreError::InvalidStoreKey`] for a workload holding an `@` (see
    /// [`ModelStore::context_key`]), [`CoreError::NonFiniteCpi`] when a
    /// trace holds a NaN or infinite sample (nothing is trained);
    /// otherwise propagates training errors ([`CoreError::NotEnoughRuns`],
    /// ARIMA failures).
    pub fn train_performance_model(
        &self,
        context: OperationContext,
        cpi_traces: &[Vec<f64>],
    ) -> Result<(), CoreError> {
        check_storable(&context)?;
        if cpi_traces.iter().flatten().any(|c| !c.is_finite()) {
            return Err(CoreError::NonFiniteCpi(context));
        }
        let id = self.intern_context(&context);
        let _span = self.span(EnginePhase::Train, id);
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
    /// configured measure, on the persistent worker pool: a full 325-pair
    /// sweep, attributed to no context, so it neither reuses nor records
    /// work.
    ///
    /// # Errors
    ///
    /// [`CoreError::FrameTooShort`] when the frame has too few ticks.
    pub fn association_matrix(&self, frame: &MetricFrame) -> Result<AssociationMatrix, CoreError> {
        self.check_frame(frame)?;
        let context = ContextId::UNATTRIBUTED;
        // lint: allow(determinism, telemetry-only: sweep micros feed a
        // SweepCompleted event; replay normalizes all recorded timings)
        let started = Instant::now();
        let matrix = {
            let _span = self.span(EnginePhase::Sweep, context);
            let scope = self.pass_scope(context, SweepBudget::UNLIMITED, started);
            self.pool.sweep(frame, &self.measure, &scope)
        };
        self.observers.record(&EngineEvent::SweepCompleted {
            context,
            pairs: pair_count(),
            micros: started.elapsed().as_micros() as u64,
        });
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
    /// sink, bounded by `budget` from `started`.
    fn pass_scope(&self, context: ContextId, budget: SweepBudget, started: Instant) -> PassScope {
        PassScope {
            context,
            sink: Arc::clone(&self.observers) as Arc<dyn EventSink>,
            deadline: budget.deadline(started),
            max_pairs: budget.max_pairs,
        }
    }

    /// The diagnosis-path sweep, which scores only what the violation
    /// tuple reads: the invariant pairs, each only until its invariant
    /// provably holds. When the context's record holds the new window
    /// unchanged or slid forward a few ticks, it is answered by delta —
    /// profiles slide in place, settled pair scores are reused verbatim,
    /// and the rest go through one floor-aware pool pass
    /// ([`IncrementalSweep::rescore`]). Otherwise one cold pass
    /// ([`IncrementalSweep::cold`]) plans the window once and runs the same
    /// pass over every invariant pair; its plan becomes the new record.
    /// Either way a completed pass gives a violation tuple bit-identical
    /// to a full from-scratch sweep's.
    ///
    /// Under a budget the pass may be cut short, by its deadline or by
    /// `max_pairs`. It keeps every pair it scored, and the record goes
    /// back with its plan, so the next diagnosis of this window or a slid
    /// one resumes where it stopped. The verdict reads each invariant pair
    /// the pass did not reach at its earlier score from this context, or
    /// masks it when the context never scored it, and its degradation
    /// says which.
    pub(crate) fn diagnosis_matrix_for(
        &self,
        context: ContextId,
        frame: &MetricFrame,
        budget: SweepBudget,
        invariants: &InvariantSet,
    ) -> Result<SweepVerdict, CoreError> {
        self.check_frame(frame)?;
        let series = frame_series(frame);
        let epsilon = self.config.epsilon;
        let mut record = self.take_record(context);
        // lint: allow(determinism, a deadline cut is a declared degradation;
        // pass micros feed events, and replay normalizes timings)
        let started = Instant::now();
        let scope = self.pass_scope(context, budget, started);
        // An unchanged window is a zero-tick slide: rescored, never served
        // raw, since a pair an earlier pass left stale may be an invariant
        // by now.
        let slid = record.as_mut().and_then(|slid| {
            if slid.advance(&series) == AdvanceOutcome::Unsupported {
                return None;
            }
            let _span = self.span(EnginePhase::Screen, context);
            Some(slid.rescore(invariants, epsilon, &self.pool, &scope))
        });
        let (record, outcome) = match (record, slid) {
            (Some(record), Some(outcome)) => (record, outcome),
            (previous, _) => {
                let _span = self.span(EnginePhase::Sweep, context);
                IncrementalSweep::cold(
                    &self.measure,
                    series,
                    previous,
                    invariants,
                    epsilon,
                    &self.pool,
                    &scope,
                )
            }
        };
        let micros = started.elapsed().as_micros() as u64;
        let verdict = self.verdict(context, &record, outcome, budget, invariants, micros);
        self.put_record(context, record);
        Ok(verdict)
    }

    /// Reports one diagnosis-path pass and builds its verdict. A completed
    /// pass is full fidelity. A pass cut short is degraded: to
    /// [`DegradationTier::CachedMatrix`] when every invariant pair it did
    /// not reach holds an earlier score from this context, and to
    /// [`DegradationTier::PartialMatrix`] when some were never scored and
    /// are masked; the reason names the bound that stopped it.
    fn verdict(
        &self,
        context: ContextId,
        record: &IncrementalSweep,
        outcome: ScreenOutcome,
        budget: SweepBudget,
        invariants: &InvariantSet,
        micros: u64,
    ) -> SweepVerdict {
        self.observers.record(&EngineEvent::SweepScreened {
            context,
            reused: outcome.reused,
            screened: outcome.screened,
            confirmed: outcome.confirmed,
        });
        let matrix = record.matrix();
        let scored_pairs = outcome.screened + outcome.confirmed;
        if outcome.unreached == 0 {
            self.observers.record(&EngineEvent::SweepCompleted {
                context,
                pairs: scored_pairs,
                micros,
            });
            self.note_health_ok(context);
            return SweepVerdict {
                matrix,
                degradation: None,
                scored: None,
            };
        }
        let scored = record.scored_mask(invariants);
        let tier = match scored {
            Some(_) => DegradationTier::PartialMatrix,
            None => DegradationTier::CachedMatrix,
        };
        // The pool finishes every pair it claims, so a pass that scored
        // its whole cap was stopped by the cap; any other by the deadline.
        let reason = if budget.max_pairs.is_some_and(|cap| scored_pairs >= cap) {
            DegradationReason::PairBudgetExceeded
        } else {
            DegradationReason::WallClockExceeded
        };
        self.note_degradation(context, tier, reason);
        SweepVerdict {
            matrix,
            degradation: Some(SweepDegradation { tier, reason }),
            scored,
        }
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

    /// Runs Algorithm 1: builds the invariant set of a context from the
    /// metric frames of N normal runs.
    ///
    /// Each frame is planned once and scores only the pairs whose band
    /// over the frames before it is still narrower than τ: a rejected pair
    /// stays rejected, so the set is the one [`InvariantSet::select`] picks
    /// from full sweeps of the same frames, bit for bit. Each frame's pass
    /// reports one [`EngineEvent::SweepCompleted`] with the pairs it
    /// scored.
    ///
    /// For comparability, pass frames windowed the same way diagnosis
    /// windows will be (association estimates depend on sample count).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidStoreKey`] for a workload holding an `@`,
    /// [`CoreError::NotEnoughRuns`] / [`CoreError::FrameTooShort`], before
    /// any frame is scored.
    pub fn build_invariants(
        &self,
        context: OperationContext,
        normal_frames: &[MetricFrame],
    ) -> Result<(), CoreError> {
        check_storable(&context)?;
        let required = self.config.min_training_runs.max(1);
        if normal_frames.len() < required {
            return Err(CoreError::NotEnoughRuns {
                required,
                got: normal_frames.len(),
            });
        }
        for frame in normal_frames {
            self.check_frame(frame)?;
        }
        let id = self.intern_context(&context);
        let _span = self.span(EnginePhase::InvariantBuild, id);
        let mut bands = InvariantBands::new(self.config.tau);
        for frame in normal_frames {
            // lint: allow(determinism, telemetry-only: sweep micros feed a
            // SweepCompleted event; replay normalizes all recorded timings)
            let started = Instant::now();
            let pass = {
                let _span = self.span(EnginePhase::Sweep, id);
                let scope = self.pass_scope(id, SweepBudget::UNLIMITED, started);
                let plan = self.pool.plan(&self.measure, &frame_series(frame), &scope);
                let pairs = bands.holding().map(PassPair::exact).collect();
                self.pool.score_pairs(plan, pairs, &scope)
            };
            for (item, score) in pass.pairs.iter().zip(&pass.scores) {
                bands.observe(item.pair, score.value());
            }
            self.observers.record(&EngineEvent::SweepCompleted {
                context: id,
                pairs: pass.scored,
                micros: started.elapsed().as_micros() as u64,
            });
            self.note_health_ok(id);
        }
        let set = Arc::new(bands.finish());
        self.state
            .with_mut(&context, self.config.window_ticks, |s| {
                s.invariants = Some(set);
            });
        Ok(())
    }

    /// Builds the violation tuple of an abnormal window against the
    /// context's invariants, through the pass [`Engine::diagnose`] runs,
    /// at full fidelity whatever the configured budget: it scores only the
    /// invariant pairs, each only until it provably holds, and a window
    /// the context's sweep record already holds (the one just diagnosed)
    /// costs no kernel work.
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
        let verdict = self.diagnosis_matrix_for(
            self.intern_context(context),
            abnormal,
            SweepBudget::UNLIMITED,
            &invariants,
        )?;
        Ok(verdict.violation_tuple(&invariants, self.config.epsilon))
    }

    /// Records a signature for an investigated problem ("once the
    /// performance problem is resolved, a new signature will be added").
    /// A database shared with a store or another engine is copied first,
    /// so the signature lands in this engine's database alone.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidStoreKey`] for a workload holding an `@`;
    /// otherwise as [`Engine::violation_tuple`].
    pub fn record_signature(
        &self,
        context: &OperationContext,
        problem: &str,
        abnormal: &MetricFrame,
    ) -> Result<(), CoreError> {
        check_storable(context)?;
        let tuple = self.violation_tuple(context, abnormal)?;
        let mut db = self
            .signatures
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::make_mut(&mut db).add(Signature {
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
            self.observers.record(&EngineEvent::DetectionFired {
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
    /// overrun the pass stops instead of blocking, keeping the pairs it
    /// scored; the returned [`Diagnosis::degradation`] says how the pairs
    /// it did not reach were read (or is `None` for a full-fidelity
    /// answer).
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
        let _span = self.span(EnginePhase::Diagnosis, id);
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
        self.observers.record(&EngineEvent::DiagnosisRan {
            context: id,
            tick,
            micros: started.elapsed().as_micros() as u64,
        });
        self.emit_signature_match(id, tick, &diagnosis);
        self.record_diagnosis_history(id, tick, &verdict, &diagnosis);
        Ok(diagnosis)
    }

    /// Feeds one finished diagnosis (and the sweep scores behind it) to
    /// every attached recorder.
    pub(crate) fn record_diagnosis_history(
        &self,
        context: ContextId,
        tick: u64,
        verdict: &SweepVerdict,
        diagnosis: &Diagnosis,
    ) {
        for recorder in self.observers.recorders() {
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
        self.observers.record(&EngineEvent::SignatureMatched {
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

    /// Replaces the signature database (an owned one, or one shared with
    /// a store or another engine).
    pub fn set_signature_database(&self, db: impl Into<Arc<SignatureDatabase>>) {
        *self
            .signatures
            .write()
            .unwrap_or_else(PoisonError::into_inner) = db.into();
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

    /// Tells every attached recorder that `context`'s sliding
    /// window was just discarded, so history keeps run boundaries aligned
    /// with the live window.
    pub(crate) fn note_run_reset(&self, context: &OperationContext) {
        let recorders = self.observers.recorders();
        if !recorders.is_empty() {
            let id = self.intern_context(context);
            for recorder in recorders {
                recorder.record_run_reset(id);
            }
        }
    }
}

/// What [`Engine::diagnosis_matrix_for`] produced: the matrix, how far
/// it sits from full fidelity (if at all), and — when some invariant
/// pairs were never scored in this context — which pairs were.
pub(crate) struct SweepVerdict {
    pub(crate) matrix: AssociationMatrix,
    pub(crate) degradation: Option<SweepDegradation>,
    pub(crate) scored: Option<Vec<bool>>,
}

impl SweepVerdict {
    /// Builds the violation tuple of this verdict's matrix, masking out
    /// pairs this context never scored (their placeholder zeros must not
    /// read as evidence of broken associations).
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

/// Refuses to store trained state for a context whose
/// [`ModelStore::context_key`] would not parse back to it: the key splits
/// at its first `@`, so a workload holding one would share its key with
/// another context (`c@a` on `b` and `c` on `a@b`), and a store would
/// keep one of their models.
fn check_storable(context: &OperationContext) -> Result<(), CoreError> {
    if context.workload.contains('@') {
        return Err(CoreError::InvalidStoreKey {
            key: ModelStore::context_key(context),
        });
    }
    Ok(())
}

/// The frame series-major, one series per metric.
fn frame_series(frame: &MetricFrame) -> Vec<Vec<f64>> {
    MetricId::ALL.iter().map(|&m| frame.series(m)).collect()
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
