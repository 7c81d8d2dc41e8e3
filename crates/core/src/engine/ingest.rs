//! The ingest layer: tick-at-a-time streaming entry point.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ix_metrics::{MetricFrame, METRIC_COUNT};

use crate::context::OperationContext;
use crate::error::CoreError;
use crate::invariants::InvariantSet;

use super::detector::{RunState, TickDecision};
use super::diagnosis::Diagnosis;
use super::events::{EngineEvent, EventSink};
use super::telemetry::EnginePhase;
use super::Engine;

/// What [`Engine::ingest`] concluded about one tick.
#[derive(Debug)]
pub struct TickOutcome {
    /// Zero-based index of this tick within the current run.
    pub tick: usize,
    /// The detector's per-tick score (see
    /// [`super::detector::TickDecision::residual`]).
    pub residual: f64,
    /// Whether the score exceeded the detector's threshold.
    pub exceeded: bool,
    /// Whether the detector reports a performance problem at this tick.
    pub anomalous: bool,
    /// Cause inference over the sliding window, run on the *onset* of an
    /// anomaly (edge-triggered) once the window holds at least
    /// `min_frame_ticks` ticks.
    pub diagnosis: Option<Diagnosis>,
}

impl TickOutcome {
    /// The detector's decision for this tick, e.g. to build a
    /// [`crate::DetectionResult`] of a streamed run with
    /// [`crate::DetectionResult::from_decisions`].
    pub fn decision(&self) -> TickDecision {
        TickDecision {
            residual: self.residual,
            exceeded: self.exceeded,
            anomalous: self.anomalous,
        }
    }
}

/// One context's in-flight run as plain values: everything the engine
/// keeps per run, which [`Engine::install_run`] puts back so the context
/// continues bit-identically. It is bounded by the window, however long
/// the run.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedRun {
    /// Ticks ingested into the run (at least one).
    pub ticks: usize,
    /// Whether the run's last tick was anomalous (the edge-trigger memory).
    pub prev_anomalous: bool,
    /// The sliding window's rows, oldest first, flat: [`METRIC_COUNT`]
    /// values per row, `min(ticks, window_ticks)` rows.
    pub window: Vec<f64>,
    /// The detector run's recursion state.
    pub detector: RunState,
}

/// Work the ingest path defers until after the shard lock is released.
struct DeferredDiagnosis {
    window: DeferredWindow,
    invariants: Arc<InvariantSet>,
}

/// The abnormal window, snapshotted *under the shard lock* so concurrent
/// ingest of the same context (or a concurrent reset) between lock
/// release and diagnosis cannot shift it.
enum DeferredWindow {
    /// A copy of the sliding window, taken when no recorder can serve
    /// history-backed windows.
    Frame(MetricFrame),
    /// The exact history row range of the window at the triggering tick.
    /// History is append-only, so the range keeps naming the same rows —
    /// and materializes bit-identically — after the lock drops.
    HistoryRows(std::ops::Range<usize>),
}

impl Engine {
    /// Ingests one tick for `context`: the CPI sample feeds the streaming
    /// detector, the metric row feeds the sliding window, and on the onset
    /// of an anomaly (anomalous now, not at the previous tick) cause
    /// inference runs over the window.
    ///
    /// Diagnosis is skipped — not failed — when the window holds fewer
    /// than `min_frame_ticks` ticks: association estimates over a near-empty
    /// window would be meaningless. The shard lock is held only for the
    /// detector step and window push; the association sweep and signature
    /// search run after it is released, so slow diagnoses never block
    /// ingestion of other contexts (or of this context from other threads).
    ///
    /// # Errors
    ///
    /// - [`CoreError::NonFiniteCpi`] — the CPI sample is NaN or infinite
    ///   (the tick is rejected without mutating state);
    /// - [`CoreError::NoPerformanceModel`] — [`Engine::train_performance_model`]
    ///   has not run for this context;
    /// - [`CoreError::Frame`] — the metric row has the wrong width or
    ///   non-finite values (the tick is rejected without mutating state);
    /// - [`CoreError::NoInvariants`] / signature errors — an anomaly onset
    ///   triggered diagnosis but the offline state is missing;
    /// - [`CoreError::HistoryWindow`] — the attached recorder failed to
    ///   serve the window rows it promised under the shard lock.
    pub fn ingest(
        &self,
        context: &OperationContext,
        cpi_sample: f64,
        metric_row: &[f64],
    ) -> Result<TickOutcome, CoreError> {
        // The sample feeds the detector run unchecked below, and a NaN
        // there would poison the run for good: refuse it up front.
        if !cpi_sample.is_finite() {
            return Err(CoreError::NonFiniteCpi(context.clone()));
        }
        let min_frame_ticks = self.config().min_frame_ticks;
        let window_ticks = self.config().window_ticks;
        let context_id = self.intern_context(context);
        // lint: allow(determinism, telemetry-only: ingest micros feed span
        // events; replay normalizes all recorded timings)
        let ingest_started = Instant::now();
        let (tick, lifetime_tick, decision, up_edge, down_edge, deferred, append_nanos) =
            self.state().with_mut(context, window_ticks, |state| {
                let Some(detector) = state.detector.clone() else {
                    return Err(CoreError::NoPerformanceModel(context.clone()));
                };
                state.window.push_tick(metric_row)?;
                let run = state.run.get_or_insert_with(|| detector.begin_run());
                let decision = run.step(cpi_sample);
                let tick = state.run_ticks;
                state.run_ticks += 1;
                // ordering: Relaxed — the lifetime tick is a monotone
                // ticket; atomicity of fetch_add gives uniqueness, and
                // per-context state is serialized by the shard lock.
                let lifetime_tick = self.tick_counter().fetch_add(1, Ordering::Relaxed);
                // Record under the shard lock so history rows land in
                // exactly the order the sliding window saw them — the
                // contract behind history-served diagnosis windows. The
                // appends are timed only when a hub wants the cost
                // histogram; the scope update itself happens after the
                // lock drops.
                let recorders = self.observers().recorders();
                let append_nanos = if recorders.is_empty() {
                    None
                } else {
                    let timed = self.observers().hub().is_some();
                    // lint: allow(determinism, telemetry-only: append nanos
                    // feed the recorder histogram, never engine results)
                    let append_started = timed.then(Instant::now);
                    for recorder in recorders {
                        recorder.record_tick(
                            context_id,
                            lifetime_tick,
                            cpi_sample,
                            decision.residual,
                            decision.exceeded,
                            metric_row,
                        );
                    }
                    append_started.map(|t| t.elapsed().as_nanos() as u64)
                };
                let up_edge = decision.anomalous && !state.prev_anomalous;
                let down_edge = !decision.anomalous && state.prev_anomalous;
                state.prev_anomalous = decision.anomalous;
                let deferred = if up_edge && state.window.ticks() >= min_frame_ticks {
                    let invariants = state
                        .invariants
                        .clone()
                        .ok_or_else(|| CoreError::NoInvariants(context.clone()))?;
                    // Snapshot the window while the shard lock still
                    // serializes this context: a recorder that serves
                    // windows yields the row range the tick above just
                    // closed; otherwise copy the sliding window itself.
                    let window = self
                        .observers()
                        .window_source()
                        .and_then(|r| r.window_rows(context_id, window_ticks))
                        .map(DeferredWindow::HistoryRows)
                        .unwrap_or_else(|| DeferredWindow::Frame(state.window.to_frame()));
                    Some(DeferredDiagnosis { window, invariants })
                } else {
                    None
                };
                Ok((
                    tick,
                    lifetime_tick,
                    decision,
                    up_edge,
                    down_edge,
                    deferred,
                    append_nanos,
                ))
            })?;

        // Attribute the recorder-append cost to the first hub's context
        // scope — outside the shard lock, so metrics bookkeeping never
        // extends the ingest critical section.
        if let (Some(nanos), Some(hub), Some(recorder)) = (
            append_nanos,
            self.observers().hub(),
            self.observers().window_source(),
        ) {
            let segments = recorder.segment_count(context_id);
            hub.metrics().with_scope(context_id, |scope| {
                scope.record_history_append(nanos, segments);
            });
        }

        self.observers().record(&EngineEvent::TickIngested {
            context: context_id,
            tick: lifetime_tick,
            residual: decision.residual,
            exceeded: decision.exceeded,
            micros: ingest_started.elapsed().as_micros() as u64,
        });
        if up_edge {
            self.observers().record(&EngineEvent::DetectionFired {
                context: context_id,
                tick: lifetime_tick,
            });
        }
        if down_edge {
            self.observers().record(&EngineEvent::DetectionCleared {
                context: context_id,
                tick: lifetime_tick,
            });
        }

        let diagnosis = match deferred {
            Some(DeferredDiagnosis { window, invariants }) => {
                let _span = self.span(EnginePhase::Diagnosis, context_id);
                // lint: allow(determinism, telemetry-only: diagnosis micros
                // feed a DiagnosisReady event; replay normalizes timings)
                let started = Instant::now();
                // Materialize the in-lock snapshot: either the frame copy
                // itself, or the captured history rows — which resolve to
                // the same values no matter what was ingested since. A
                // recorder that cannot serve rows it promised is an
                // error, never a silently empty window.
                let frame = match window {
                    DeferredWindow::Frame(frame) => frame,
                    DeferredWindow::HistoryRows(rows) => self
                        .observers()
                        .window_source()
                        .and_then(|r| r.frame_rows(context_id, rows))
                        .ok_or_else(|| CoreError::HistoryWindow(context.clone()))?,
                };
                let verdict = self.diagnosis_matrix_for(
                    context_id,
                    &frame,
                    self.config().sweep_budget,
                    &invariants,
                )?;
                let tuple = verdict.violation_tuple(&invariants, self.config().epsilon);
                let mut diagnosis = self.rank_tuple(context, tuple)?;
                diagnosis.degradation = verdict.degradation;
                self.observers().record(&EngineEvent::DiagnosisRan {
                    context: context_id,
                    tick: lifetime_tick,
                    micros: started.elapsed().as_micros() as u64,
                });
                self.emit_signature_match(context_id, lifetime_tick, &diagnosis);
                self.record_diagnosis_history(context_id, lifetime_tick, &verdict, &diagnosis);
                Some(diagnosis)
            }
            None => None,
        };

        Ok(TickOutcome {
            tick,
            residual: decision.residual,
            exceeded: decision.exceeded,
            anomalous: decision.anomalous,
            diagnosis,
        })
    }

    /// Discards the in-flight detector run and sliding window of a context
    /// (call at the start of a new job execution).
    pub fn reset_run(&self, context: &OperationContext) {
        self.state().with_existing_mut(context, |s| s.reset_run());
        self.note_run_reset(context);
    }

    /// Rebuilds a context's in-flight run from a recorded tail of
    /// `(cpi, metric_row)` ticks, oldest first: the sliding window, the
    /// streaming detector's run state and the anomaly edge-tracker end up
    /// exactly as if the ticks had been ingested live. Unlike
    /// [`Engine::ingest`] this emits no events, appends nothing to an
    /// attached recorder, and does not advance the lifetime tick counter —
    /// it restores state that was already counted once. A run captured
    /// with [`Engine::capture_run`] is restored with
    /// [`Engine::install_run`] instead, whatever its length; a tail is
    /// what older snapshots kept.
    ///
    /// # Errors
    ///
    /// - [`CoreError::NoPerformanceModel`] — the context has no detector
    ///   (restore trained state first, e.g. via [`Engine::load_state`]);
    /// - [`CoreError::Frame`] — a tail row has the wrong width or
    ///   non-finite values.
    pub fn restore_run<'a>(
        &self,
        context: &OperationContext,
        tail: impl IntoIterator<Item = (f64, &'a [f64])>,
    ) -> Result<(), CoreError> {
        let window_ticks = self.config().window_ticks;
        self.state().with_mut(context, window_ticks, |state| {
            let Some(detector) = state.detector.clone() else {
                return Err(CoreError::NoPerformanceModel(context.clone()));
            };
            state.reset_run();
            for (cpi, row) in tail {
                state.window.push_tick(row)?;
                let run = state.run.get_or_insert_with(|| detector.begin_run());
                let decision = run.step(cpi);
                state.prev_anomalous = decision.anomalous;
                state.run_ticks += 1;
            }
            Ok(())
        })
    }

    /// A copy of `context`'s in-flight run — its sliding window, detector
    /// state, edge-tracker and length — taken under one shard read lock;
    /// `None` when the context has no run in flight (no ticks since it was
    /// trained or reset).
    pub fn capture_run(&self, context: &OperationContext) -> Option<CapturedRun> {
        self.state()
            .with(context, |state| {
                let run = state.run.as_ref()?;
                Some(CapturedRun {
                    ticks: state.run_ticks,
                    prev_anomalous: state.prev_anomalous,
                    window: state.window.values().collect(),
                    detector: run.capture(),
                })
            })
            .flatten()
    }

    /// Makes `run`, captured from an engine under the same configuration
    /// with [`Engine::capture_run`], `context`'s in-flight run, under one
    /// shard write lock: the context then continues exactly as the
    /// captured one would have. Like [`Engine::restore_run`] it emits no
    /// events, records nothing and leaves the lifetime tick counter alone.
    ///
    /// # Errors
    ///
    /// - [`CoreError::NoPerformanceModel`] — the context has no detector;
    /// - [`CoreError::InvalidRunState`] — no run of the context's detector
    ///   could be in `run`'s state: no ticks, more ticks than this engine's
    ///   lifetime tick counter holds (build it with
    ///   [`crate::EngineBuilder::lifetime_ticks`] of the captured engine), a
    ///   window that is not `min(ticks, window_ticks)` whole finite rows, or
    ///   a detector state [`super::detector::DetectorRun::install`] refuses.
    ///
    /// The context's state is unchanged on error.
    pub fn install_run(
        &self,
        context: &OperationContext,
        run: &CapturedRun,
    ) -> Result<(), CoreError> {
        let window_ticks = self.config().window_ticks;
        let invalid = |reason: String| CoreError::InvalidRunState {
            reason: format!("context {context}: {reason}"),
        };
        let rows = run.window.len() / METRIC_COUNT;
        if run.ticks == 0 {
            return Err(invalid("a captured run has at least one tick".to_string()));
        }
        let lifetime = self.lifetime_ticks();
        if run.ticks as u64 > lifetime {
            return Err(invalid(format!(
                "a run {} ticks long is longer than the engine's {lifetime} lifetime ticks",
                run.ticks
            )));
        }
        if !run.window.len().is_multiple_of(METRIC_COUNT) || rows != run.ticks.min(window_ticks) {
            return Err(invalid(format!(
                "a run {} ticks long under a {window_ticks}-tick window holds {} rows of \
                 {METRIC_COUNT} values, where this window has {} values",
                run.ticks,
                run.ticks.min(window_ticks),
                run.window.len()
            )));
        }
        if let Some(v) = run.window.iter().find(|v| !v.is_finite()) {
            return Err(invalid(format!("window value {v} is not finite")));
        }
        self.state()
            .with_existing_mut(context, |state| {
                let detector = state
                    .detector
                    .clone()
                    .ok_or_else(|| CoreError::NoPerformanceModel(context.clone()))?;
                let mut fresh = detector.begin_run();
                fresh.install(&run.detector, run.ticks).map_err(invalid)?;
                state.reset_run();
                for row in run.window.chunks_exact(METRIC_COUNT) {
                    state.window.push_tick(row)?;
                }
                state.run = Some(fresh);
                state.prev_anomalous = run.prev_anomalous;
                state.run_ticks = run.ticks;
                Ok(())
            })
            .unwrap_or_else(|| Err(CoreError::NoPerformanceModel(context.clone())))
    }

    /// A batch copy of the context's current sliding window.
    pub fn window_frame(&self, context: &OperationContext) -> Option<MetricFrame> {
        self.state().with(context, |s| s.window.to_frame())
    }
}
