//! The ingest layer: tick-at-a-time streaming entry point.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use ix_metrics::MetricFrame;

use crate::anomaly::DetectionResult;
use crate::context::OperationContext;
use crate::error::CoreError;
use crate::invariants::InvariantSet;

use super::diagnosis::Diagnosis;
use super::events::EngineEvent;
use super::telemetry::{EnginePhase, Span};
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
                // append is timed only when telemetry wants the cost
                // histogram; the scope update itself happens after the
                // lock drops.
                let append_nanos = if let Some(recorder) = self.recorder() {
                    let timed = self.telemetry().is_some();
                    // lint: allow(determinism, telemetry-only: append nanos
                    // feed the recorder histogram, never engine results)
                    let append_started = timed.then(Instant::now);
                    recorder.record_tick(
                        context_id,
                        lifetime_tick,
                        cpi_sample,
                        decision.residual,
                        decision.exceeded,
                        metric_row,
                    );
                    append_started.map(|t| t.elapsed().as_nanos() as u64)
                } else {
                    None
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
                        .recorder()
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

        // Attribute the recorder-append cost to the context's telemetry
        // scope — outside the shard lock, so metrics bookkeeping never
        // extends the ingest critical section.
        if let Some(nanos) = append_nanos {
            if let (Some(telemetry), Some(recorder)) = (self.telemetry(), self.recorder()) {
                telemetry
                    .metrics()
                    .scope(context_id)
                    .record_history_append(nanos, recorder.segment_count(context_id));
            }
        }

        self.sink().record(&EngineEvent::TickIngested {
            context: context_id,
            tick: lifetime_tick,
            residual: decision.residual,
            exceeded: decision.exceeded,
            micros: ingest_started.elapsed().as_micros() as u64,
        });
        if up_edge {
            self.sink().record(&EngineEvent::DetectionFired {
                context: context_id,
                tick: lifetime_tick,
            });
        }
        if down_edge {
            self.sink().record(&EngineEvent::DetectionCleared {
                context: context_id,
                tick: lifetime_tick,
            });
        }

        let diagnosis = match deferred {
            Some(DeferredDiagnosis { window, invariants }) => {
                let _span = Span::enter(self.sink(), EnginePhase::Diagnosis, context_id);
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
                        .recorder()
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
                self.sink().record(&EngineEvent::DiagnosisRan {
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
    /// `(cpi, metric_row)` ticks: the sliding window, the streaming
    /// detector's run state and the anomaly edge-tracker end up exactly as
    /// if the ticks had been ingested live. Unlike [`Engine::ingest`] this
    /// emits no events, appends nothing to an attached recorder, and does
    /// not advance the lifetime tick counter — it restores state that was
    /// already counted once, so a warmed engine continues bit-identically
    /// to one that was never torn down (pair with
    /// [`crate::EngineBuilder::lifetime_ticks`] to restore the counter itself).
    ///
    /// # Errors
    ///
    /// - [`CoreError::NoPerformanceModel`] — the context has no detector
    ///   (restore trained state first, e.g. via [`Engine::load_state`]);
    /// - [`CoreError::Frame`] — a tail row has the wrong width or
    ///   non-finite values.
    pub fn restore_run(
        &self,
        context: &OperationContext,
        tail: &[(f64, Vec<f64>)],
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
                let decision = run.step(*cpi);
                state.prev_anomalous = decision.anomalous;
                state.run_ticks += 1;
            }
            Ok(())
        })
    }

    /// The batch-shaped detection result accumulated by the current run,
    /// if a run is in flight.
    pub fn detection_result(&self, context: &OperationContext) -> Option<DetectionResult> {
        self.state()
            .with(context, |s| s.run.as_ref().map(|r| r.result()))
            .flatten()
    }

    /// A batch copy of the context's current sliding window.
    pub fn window_frame(&self, context: &OperationContext) -> Option<MetricFrame> {
        self.state().with(context, |s| s.window.to_frame())
    }
}
