//! The telemetry subsystem: context-attributed metrics, spans and
//! exporters for the streaming engine.
//!
//! [`Telemetry`] is the engine's one aggregating [`EventSink`]: every
//! [`EngineEvent`] is attributed to an interned [`ContextId`] and
//! aggregated into the per-context [`MetricsRegistry`] (counters, gauges,
//! log-scale latency histograms) plus a bounded [`SpanRing`] of recently
//! closed phase [`Span`]s. A [`TelemetrySnapshot`] freezes everything
//! into plain serializable data for the Prometheus text, JSON, and report
//! exporters.
//!
//! ```
//! use std::sync::Arc;
//! use ix_core::{Engine, InvarNetConfig, Telemetry};
//!
//! let telemetry = Telemetry::shared();
//! let engine = Engine::builder()
//!     .config(InvarNetConfig::default())
//!     .observe(&telemetry)
//!     .build();
//! // ... train and ingest ...
//! let snapshot = telemetry.snapshot();
//! println!("{}", snapshot.render_report());
//! ```

mod context;
mod export;
mod histogram;
mod registry;
mod span;

use std::sync::{Arc, PoisonError, RwLock};

pub use context::{ContextId, ContextRegistry};
pub use export::{PhaseSnapshot, SpanSnapshot, TelemetrySnapshot};
pub use histogram::{bucket_upper_edge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{ContextScope, MetricsRegistry, ScopeSnapshot};
pub use span::{EnginePhase, Span, SpanRecord, SpanRing};

use super::events::{EngineEvent, EventSink};

/// Similarity at or above which a signature match counts as confident
/// (the bar `diagnose` and the examples use for reporting a known problem).
pub const CONFIDENT_SIMILARITY: f64 = 0.5;

/// Default capacity of the recent-span ring.
pub const DEFAULT_SPAN_CAPACITY: usize = 256;

/// The full telemetry sink: context registry + metrics registry + span
/// ring. Share one `Arc<Telemetry>` between the engine (one of its observers)
/// and whatever reads the numbers; several engines may share a single
/// `Telemetry` (their contexts intern into one registry), which is how the
/// bench harness aggregates across experiment systems.
///
/// An engine binds every member of its observation list to the registry
/// it interns into ([`EventSink::bind_registry`]): its first hub's. A hub
/// further down the list resolves the engine's context ids through the
/// registry it was bound to, so its snapshots label contexts as the first
/// hub's do.
#[derive(Debug)]
pub struct Telemetry {
    contexts: Arc<ContextRegistry>,
    /// The registry an engine bound the hub to, when one has: the one the
    /// ids of recorded events resolve through.
    bound: RwLock<Option<Arc<ContextRegistry>>>,
    metrics: MetricsRegistry,
    phases: [Histogram; EnginePhase::ALL.len()],
    spans: SpanRing,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A telemetry hub with the default span capacity.
    pub fn new() -> Self {
        Telemetry::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A telemetry hub keeping the last `span_capacity` spans.
    pub fn with_span_capacity(span_capacity: usize) -> Self {
        Telemetry {
            contexts: Arc::new(ContextRegistry::new()),
            bound: RwLock::new(None),
            metrics: MetricsRegistry::new(),
            phases: Default::default(),
            spans: SpanRing::new(span_capacity),
        }
    }

    /// `Arc::new(Telemetry::new())` — the form every attachment point
    /// takes.
    pub fn shared() -> Arc<Telemetry> {
        Arc::new(Telemetry::new())
    }

    /// The hub's own context interning registry: the one an engine
    /// interns into when the hub is the first on its observation list.
    pub fn contexts(&self) -> &Arc<ContextRegistry> {
        &self.contexts
    }

    /// The registry recorded context ids resolve through: the one an
    /// engine bound the hub to, or else the hub's own.
    fn labels(&self) -> Arc<ContextRegistry> {
        let bound = self.bound.read().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(bound.as_ref().unwrap_or(&self.contexts))
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The recent-span ring.
    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// Freezes every counter, gauge, histogram and retained span into a
    /// serializable [`TelemetrySnapshot`].
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let labels = self.labels();
        let contexts = self.metrics.snapshot_scopes(|id| labels.label(id));
        let mut total = ScopeSnapshot::empty("(all)".to_string());
        for scope in &contexts {
            total.merge(scope);
        }
        let phases = EnginePhase::ALL
            .iter()
            .map(|&p| PhaseSnapshot {
                phase: p.name().to_string(),
                micros: self.phases[p.index()].snapshot(),
            })
            .collect();
        let spans = self
            .spans
            .recent()
            .into_iter()
            .map(|r| SpanSnapshot {
                seq: r.seq,
                phase: r.phase.name().to_string(),
                context: labels.label(r.context),
                micros: r.micros,
            })
            .collect();
        TelemetrySnapshot {
            contexts,
            total,
            phases,
            spans,
        }
    }

    /// Prometheus text exposition (shorthand for
    /// `self.snapshot().render_prometheus()`).
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// Human-readable report (shorthand for
    /// `self.snapshot().render_report()`).
    pub fn render_report(&self) -> String {
        self.snapshot().render_report()
    }
}

impl EventSink for Telemetry {
    /// Resolves recorded context ids through `registry` from now on.
    fn bind_registry(&self, registry: &Arc<ContextRegistry>) {
        *self.bound.write().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(registry));
    }

    // ordering: Relaxed throughout — every update is a fetch_add/store on
    // an independent per-scope counter or last-write-wins gauge; snapshot
    // readers tolerate torn cross-counter views, and quiescence (engine
    // drop/join) makes the final numbers exact.
    fn record(&self, event: &EngineEvent) {
        use std::sync::atomic::Ordering::Relaxed;
        if let EngineEvent::SpanClosed {
            phase,
            context,
            micros,
        } = *event
        {
            self.phases[phase.index()].record(micros);
            self.spans.push(phase, context, micros);
            return;
        }
        // Fleet lifecycle events carry no per-context telemetry: the
        // fleet's own registry counts evictions and warm latencies.
        if matches!(
            event,
            EngineEvent::TenantEvicted { .. } | EngineEvent::TenantWarmed { .. }
        ) {
            return;
        }
        self.metrics
            .with_scope(event.context(), |scope| match *event {
                EngineEvent::TickIngested {
                    residual,
                    exceeded,
                    micros,
                    ..
                } => scope.record_tick(residual, exceeded, micros),
                EngineEvent::DetectionFired { .. } => {
                    scope.detections.fetch_add(1, Relaxed);
                }
                EngineEvent::DetectionCleared { .. } => {
                    scope.clears.fetch_add(1, Relaxed);
                }
                EngineEvent::DiagnosisRan { micros, .. } => {
                    scope.diagnoses.fetch_add(1, Relaxed);
                    scope.diagnosis_micros.record(micros);
                }
                EngineEvent::SignatureMatched {
                    best_similarity,
                    confident,
                    ..
                } => {
                    let matches = if confident {
                        &scope.matches_confident
                    } else {
                        &scope.matches_unknown
                    };
                    matches.fetch_add(1, Relaxed);
                    scope
                        .last_similarity
                        .store(best_similarity.to_bits(), Relaxed);
                }
                EngineEvent::SweepCompleted { pairs, micros, .. } => {
                    scope.sweeps.fetch_add(1, Relaxed);
                    scope.pairs_scored.fetch_add(pairs as u64, Relaxed);
                    scope.sweep_micros.record(micros);
                }
                EngineEvent::SweepScreened {
                    reused,
                    screened,
                    confirmed,
                    ..
                } => {
                    scope.sweep_pairs_reused.fetch_add(reused as u64, Relaxed);
                    scope
                        .sweep_pairs_screened
                        .fetch_add(screened as u64, Relaxed);
                    scope
                        .sweep_pairs_confirmed
                        .fetch_add(confirmed as u64, Relaxed);
                }
                EngineEvent::PairsScored { pairs, micros, .. } => {
                    let nanos_per_pair = micros.saturating_mul(1000) / (pairs.max(1) as u64);
                    scope.pair_score_nanos.record(nanos_per_pair);
                }
                EngineEvent::SweepDegraded { .. } => {
                    scope.sweeps_degraded.fetch_add(1, Relaxed);
                }
                EngineEvent::TickEnqueued { depth, .. } => scope.record_queue_depth(depth as u64),
                EngineEvent::TickShed { .. } => {
                    scope.ticks_shed.fetch_add(1, Relaxed);
                }
                EngineEvent::StoreRetried { .. } => {
                    scope.store_retries.fetch_add(1, Relaxed);
                }
                EngineEvent::HealthChanged { .. } => {
                    scope.health_transitions.fetch_add(1, Relaxed);
                }
                // Handled above, without a scope.
                EngineEvent::SpanClosed { .. }
                | EngineEvent::TenantEvicted { .. }
                | EngineEvent::TenantWarmed { .. } => {}
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_attributes_events_per_context() {
        let t = Telemetry::new();
        let a = t
            .contexts()
            .intern(&crate::OperationContext::new("n1", "W"));
        let b = t
            .contexts()
            .intern(&crate::OperationContext::new("n2", "W"));
        t.record(&EngineEvent::TickIngested {
            context: a,
            tick: 0,
            residual: 0.1,
            exceeded: false,
            micros: 4,
        });
        t.record(&EngineEvent::TickIngested {
            context: b,
            tick: 1,
            residual: 0.9,
            exceeded: true,
            micros: 6,
        });
        t.record(&EngineEvent::DetectionFired {
            context: b,
            tick: 1,
        });
        t.record(&EngineEvent::SweepCompleted {
            context: b,
            pairs: 325,
            micros: 1000,
        });
        t.record(&EngineEvent::PairsScored {
            context: b,
            pairs: 100,
            micros: 200,
        });
        let snap = t.snapshot();
        assert_eq!(snap.contexts.len(), 2);
        let sa = &snap.contexts[a.index()];
        let sb = &snap.contexts[b.index()];
        assert_eq!((sa.ticks, sa.detections), (1, 0));
        assert_eq!((sb.ticks, sb.detections, sb.sweeps), (1, 1, 1));
        assert_eq!(sb.pairs_scored, 325);
        assert_eq!(sb.pair_score_nanos.count, 1);
        assert_eq!(snap.total.ticks, 2);
        assert_eq!(snap.total.threshold_exceedances, 1);
        assert_eq!(snap.total.max_residual, 0.9);
    }

    #[test]
    fn spans_feed_ring_and_phase_histograms() {
        let t = Telemetry::new();
        t.record(&EngineEvent::SpanClosed {
            phase: EnginePhase::Sweep,
            context: ContextId::UNATTRIBUTED,
            micros: 1234,
        });
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].phase, "sweep");
        assert_eq!(snap.spans[0].context, "(unattributed)");
        let sweep_phase = snap.phases.iter().find(|p| p.phase == "sweep").unwrap();
        assert_eq!(sweep_phase.micros.count, 1);
        assert_eq!(sweep_phase.micros.max, 1234);
    }

    #[test]
    fn unattributed_scope_appears_only_when_used() {
        let t = Telemetry::new();
        assert!(t.snapshot().contexts.is_empty());
        t.record(&EngineEvent::SweepCompleted {
            context: ContextId::UNATTRIBUTED,
            pairs: 325,
            micros: 10,
        });
        let snap = t.snapshot();
        assert_eq!(snap.contexts.len(), 1);
        assert_eq!(snap.contexts[0].context, "(unattributed)");
    }

    #[test]
    fn engine_wide_events_alone_reach_the_snapshot() {
        // Store retries and health transitions are engine-wide, so they
        // land in the unattributed scope with no ticks or sweeps beside
        // them; the snapshot must still carry them.
        let t = Telemetry::new();
        t.record(&EngineEvent::StoreRetried {
            context: ContextId::UNATTRIBUTED,
            attempt: 1,
            backoff_micros: 1000,
        });
        let snap = t.snapshot();
        assert_eq!(snap.contexts.len(), 1);
        assert_eq!(snap.total.store_retries, 1);
    }
}
