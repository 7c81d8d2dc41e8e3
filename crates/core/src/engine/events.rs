//! Engine observability: lightweight events and a pluggable sink.
//!
//! Every layer of the streaming engine reports what it did to the
//! members of one ordered list, attached with
//! [`crate::EngineBuilder::observe`]: plain [`EventSink`]s, the
//! [`crate::Telemetry`] hub ([`super::telemetry`]), which aggregates the
//! events into per-context counters, latency histograms, spans and
//! exporters, and history recorders ([`super::recorder`]). An engine with
//! no member emits to nobody.
//!
//! Events carry an interned [`ContextId`] — a `Copy` `u32` from the
//! engine's [`super::telemetry::ContextRegistry`] — instead of an
//! [`crate::OperationContext`], because cloning a context (two heap
//! strings) per tick would dominate the cost of ingestion itself.

use std::sync::Arc;

use super::recorder::HistoryRecorder;
use super::resilience::{DegradationReason, DegradationTier, HealthState, OverloadPolicy};
use super::telemetry::{ContextId, ContextRegistry, EnginePhase, Telemetry};

/// Something the engine did, reported to the configured [`EventSink`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineEvent {
    /// A CPI sample and metric row were ingested (lifetime tick index).
    TickIngested {
        /// The operation context the tick belongs to.
        context: ContextId,
        /// Zero-based lifetime index of the ingested tick.
        tick: u64,
        /// The detector's score for the tick (see
        /// [`super::detector::TickDecision::residual`]).
        residual: f64,
        /// Whether the residual exceeded the detector's threshold.
        exceeded: bool,
        /// Wall-clock cost of the ingest step (detector + window push) in
        /// microseconds, excluding any triggered diagnosis.
        micros: u64,
    },
    /// The detection layer flagged a new anomaly onset (edge-triggered).
    DetectionFired {
        /// The context the detection fired in.
        context: ContextId,
        /// Lifetime tick index at which the detection fired.
        tick: u64,
    },
    /// The detection layer saw an anomalous-to-normal edge.
    DetectionCleared {
        /// The context the anomaly cleared in.
        context: ContextId,
        /// Lifetime tick index at which the anomaly cleared.
        tick: u64,
    },
    /// Cause inference ran over the sliding window.
    DiagnosisRan {
        /// The context that was diagnosed.
        context: ContextId,
        /// Lifetime tick index the diagnosis is correlated with (the
        /// triggering detection's tick for streaming ingest; the current
        /// lifetime tick for batch [`crate::Engine::diagnose`] calls).
        tick: u64,
        /// Wall-clock duration of the diagnosis in microseconds.
        micros: u64,
    },
    /// A diagnosis finished ranking against the signature database.
    SignatureMatched {
        /// The context that was diagnosed.
        context: ContextId,
        /// Lifetime tick index the diagnosis is correlated with.
        tick: u64,
        /// Similarity of the best-ranked signature (0 when the database
        /// held no signature for the context).
        best_similarity: f64,
        /// Whether the best match cleared
        /// [`super::telemetry::CONFIDENT_SIMILARITY`].
        confident: bool,
    },
    /// A pairwise association sweep finished on the worker pool.
    SweepCompleted {
        /// The context whose window was swept
        /// ([`ContextId::UNATTRIBUTED`] for caller-supplied frames).
        context: ContextId,
        /// Number of metric pairs scored.
        pairs: usize,
        /// Wall-clock duration of the sweep in microseconds.
        micros: u64,
    },
    /// One sweep worker finished scoring a chunk of metric pairs (the
    /// fine-grained cost signal behind the pair-scoring histogram).
    PairsScored {
        /// The context whose window was swept.
        context: ContextId,
        /// Pairs in the chunk.
        pairs: usize,
        /// Wall-clock microseconds the chunk took.
        micros: u64,
    },
    /// A diagnosis-path pass finished — a cold pass over a new window, or
    /// a rescore of the previous one, unchanged or slid forward a few
    /// ticks — and settled pairs one of three ways. The counts sum to
    /// [`crate::pair_count`] for a completed pass, and to fewer for one
    /// its budget cut short (followed by [`EngineEvent::SweepDegraded`]
    /// instead of [`EngineEvent::SweepCompleted`]).
    SweepScreened {
        /// The context whose window was swept.
        context: ContextId,
        /// Pairs whose recorded score was kept with no kernel work:
        /// non-invariant pairs, fresh pairs, and bound pairs whose floor
        /// still clears.
        reused: usize,
        /// Invariant pairs the pass stopped early on: a kernel entry, a
        /// lower bound on the score, proved the invariant held.
        screened: usize,
        /// Invariant pairs scored exactly.
        confirmed: usize,
    },
    /// A [`super::telemetry::Span`] guard closed.
    SpanClosed {
        /// The engine phase the span covered.
        phase: EnginePhase,
        /// The context the span was attributed to.
        context: ContextId,
        /// Wall-clock duration in microseconds.
        micros: u64,
    },
    /// A diagnosis pass could not finish inside its [`crate::SweepBudget`]:
    /// it kept the pairs it scored, and the answer read the rest as the
    /// tier says.
    SweepDegraded {
        /// The context whose diagnosis was degraded.
        context: ContextId,
        /// What the invariant pairs the pass did not reach were read as.
        tier: DegradationTier,
        /// What stopped the pass.
        reason: DegradationReason,
    },
    /// A tick entered the bounded ingest queue
    /// ([`crate::Engine::submit`]).
    TickEnqueued {
        /// The context the tick belongs to.
        context: ContextId,
        /// Depth of the tick's queue shard after the enqueue.
        depth: usize,
    },
    /// The bounded ingest queue shed a tick under overload.
    TickShed {
        /// The context of the *dropped* tick (the oldest queued tick for
        /// `ShedOldest`, the incoming tick for `ShedNewest`).
        context: ContextId,
        /// The overload policy that shed it.
        policy: OverloadPolicy,
    },
    /// A [`crate::ModelStore`] save/load failed and is about to be
    /// retried after a backoff sleep.
    StoreRetried {
        /// Always [`ContextId::UNATTRIBUTED`]: stores span contexts.
        context: ContextId,
        /// The 1-based attempt that just failed.
        attempt: u32,
        /// The jittered backoff about to be slept, in microseconds.
        backoff_micros: u64,
    },
    /// The engine's health state machine transitioned.
    HealthChanged {
        /// The context whose operation drove the transition
        /// ([`ContextId::UNATTRIBUTED`] for store operations).
        context: ContextId,
        /// The state before the transition.
        from: HealthState,
        /// The state after the transition.
        to: HealthState,
    },
    /// A fleet evicted a warm tenant engine: its models, runs and queued
    /// ticks were captured into a snapshot and the engine was torn down.
    TenantEvicted {
        /// Always [`ContextId::UNATTRIBUTED`]: eviction spans every
        /// context the tenant owns.
        context: ContextId,
        /// The fleet's numeric id of the evicted tenant.
        tenant: u64,
        /// Lifetime ticks the tenant had ingested at eviction.
        ticks: u64,
    },
    /// A fleet warmed a cold tenant engine from its snapshot.
    TenantWarmed {
        /// Always [`ContextId::UNATTRIBUTED`]: warming spans every
        /// context the tenant owns.
        context: ContextId,
        /// The fleet's numeric id of the warmed tenant.
        tenant: u64,
        /// Wall-clock cost of the warm (snapshot decode + state restore)
        /// in microseconds.
        micros: u64,
    },
}

/// The shape of an [`EngineEvent`], without its payload: what replay
/// breakpoints match on, and the leading tag byte of the event's binary
/// record in a history file (the discriminant, pinned by the codec tests
/// in `ix-history`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)] // variants mirror `EngineEvent` one-to-one
pub enum EventKind {
    TickIngested,
    DetectionFired,
    DetectionCleared,
    DiagnosisRan,
    SignatureMatched,
    SweepCompleted,
    PairsScored,
    SweepScreened,
    SpanClosed,
    SweepDegraded,
    TickEnqueued,
    TickShed,
    StoreRetried,
    HealthChanged,
    TenantEvicted,
    TenantWarmed,
}

impl EngineEvent {
    /// The event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            EngineEvent::TickIngested { .. } => EventKind::TickIngested,
            EngineEvent::DetectionFired { .. } => EventKind::DetectionFired,
            EngineEvent::DetectionCleared { .. } => EventKind::DetectionCleared,
            EngineEvent::DiagnosisRan { .. } => EventKind::DiagnosisRan,
            EngineEvent::SignatureMatched { .. } => EventKind::SignatureMatched,
            EngineEvent::SweepCompleted { .. } => EventKind::SweepCompleted,
            EngineEvent::PairsScored { .. } => EventKind::PairsScored,
            EngineEvent::SweepScreened { .. } => EventKind::SweepScreened,
            EngineEvent::SpanClosed { .. } => EventKind::SpanClosed,
            EngineEvent::SweepDegraded { .. } => EventKind::SweepDegraded,
            EngineEvent::TickEnqueued { .. } => EventKind::TickEnqueued,
            EngineEvent::TickShed { .. } => EventKind::TickShed,
            EngineEvent::StoreRetried { .. } => EventKind::StoreRetried,
            EngineEvent::HealthChanged { .. } => EventKind::HealthChanged,
            EngineEvent::TenantEvicted { .. } => EventKind::TenantEvicted,
            EngineEvent::TenantWarmed { .. } => EventKind::TenantWarmed,
        }
    }

    /// The context the event is attributed to ([`ContextId::UNATTRIBUTED`]
    /// when unknown).
    pub fn context(&self) -> ContextId {
        match *self {
            EngineEvent::TickIngested { context, .. }
            | EngineEvent::DetectionFired { context, .. }
            | EngineEvent::DetectionCleared { context, .. }
            | EngineEvent::DiagnosisRan { context, .. }
            | EngineEvent::SignatureMatched { context, .. }
            | EngineEvent::SweepCompleted { context, .. }
            | EngineEvent::PairsScored { context, .. }
            | EngineEvent::SweepScreened { context, .. }
            | EngineEvent::SpanClosed { context, .. }
            | EngineEvent::SweepDegraded { context, .. }
            | EngineEvent::TickEnqueued { context, .. }
            | EngineEvent::TickShed { context, .. }
            | EngineEvent::StoreRetried { context, .. }
            | EngineEvent::HealthChanged { context, .. }
            | EngineEvent::TenantEvicted { context, .. }
            | EngineEvent::TenantWarmed { context, .. } => context,
        }
    }
}

/// Receiver of [`EngineEvent`]s. Implementations must be cheap: `record`
/// runs on the ingestion path. Attach one to an engine with
/// [`crate::EngineBuilder::observe`].
pub trait EventSink: Send + Sync {
    /// Handles one event.
    fn record(&self, event: &EngineEvent);

    /// Shares the registry the engine interns contexts into, so the sink
    /// can resolve [`ContextId`]s back to labels. The engine calls it
    /// once per member, at build time.
    fn bind_registry(&self, registry: &Arc<ContextRegistry>) {
        let _ = registry;
    }
}

/// A sink that drops every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&self, _event: &EngineEvent) {}
}

/// One member of an engine's observation list, attached with
/// [`crate::EngineBuilder::observe`]. Every member sees every event, in
/// list order; the variant says what else the engine does with it.
#[derive(Clone)]
pub enum Observer {
    /// A plain event sink.
    Sink(Arc<dyn EventSink>),
    /// A telemetry hub. The engine interns contexts into the first hub's
    /// registry, and that hub also times recorder appends.
    Telemetry(Arc<Telemetry>),
    /// A history recorder: it also receives tick rows, sweep scores,
    /// diagnoses and run resets, and the first one serves diagnosis
    /// windows back (see [`HistoryRecorder`]).
    History(Arc<dyn HistoryRecorder>),
}

impl Observer {
    /// The member as the event sink every variant is.
    fn into_sink(self) -> Arc<dyn EventSink> {
        match self {
            Observer::Sink(sink) => sink,
            Observer::Telemetry(hub) => hub,
            Observer::History(recorder) => recorder,
        }
    }
}

impl From<Arc<dyn EventSink>> for Observer {
    fn from(sink: Arc<dyn EventSink>) -> Self {
        Observer::Sink(sink)
    }
}

impl From<&Arc<Telemetry>> for Observer {
    fn from(hub: &Arc<Telemetry>) -> Self {
        Observer::Telemetry(Arc::clone(hub))
    }
}

impl<R: HistoryRecorder + 'static> From<Arc<R>> for Observer {
    fn from(recorder: Arc<R>) -> Self {
        Observer::History(recorder)
    }
}

/// An engine's observation list: its members in attachment order, plus
/// the first hub and the recorders picked out once at build time for the
/// ingest path.
pub(crate) struct Observers {
    members: Box<[Arc<dyn EventSink>]>,
    hub: Option<Arc<Telemetry>>,
    recorders: Box<[Arc<dyn HistoryRecorder>]>,
}

impl Observers {
    /// The list of `members`, each bound to the registry the engine
    /// interns into: the first hub's, or a new one when there is no hub.
    /// Returns the list and that registry.
    pub(crate) fn bind(members: Vec<Observer>) -> (Self, Arc<ContextRegistry>) {
        let hub = members.iter().find_map(|m| match m {
            Observer::Telemetry(hub) => Some(Arc::clone(hub)),
            _ => None,
        });
        let registry = hub
            .as_ref()
            .map_or_else(Arc::default, |hub| Arc::clone(hub.contexts()));
        let recorders = members
            .iter()
            .filter_map(|m| match m {
                Observer::History(recorder) => Some(Arc::clone(recorder)),
                _ => None,
            })
            .collect();
        let members: Box<[_]> = members.into_iter().map(Observer::into_sink).collect();
        for member in &members {
            member.bind_registry(&registry);
        }
        let observers = Observers {
            members,
            hub,
            recorders,
        };
        (observers, registry)
    }

    /// The first telemetry hub, if any.
    pub(crate) fn hub(&self) -> Option<&Arc<Telemetry>> {
        self.hub.as_ref()
    }

    /// Every recorder, in list order.
    pub(crate) fn recorders(&self) -> &[Arc<dyn HistoryRecorder>] {
        &self.recorders
    }

    /// The recorder that serves diagnosis windows: the first one.
    pub(crate) fn window_source(&self) -> Option<&Arc<dyn HistoryRecorder>> {
        self.recorders.first()
    }
}

impl EventSink for Observers {
    /// Hands `event` to every member, in list order.
    fn record(&self, event: &EngineEvent) {
        for member in &*self.members {
            member.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(context: ContextId, tick: u64) -> EngineEvent {
        EngineEvent::TickIngested {
            context,
            tick,
            residual: 0.1,
            exceeded: false,
            micros: 2,
        }
    }

    #[test]
    fn null_sink_is_a_no_op() {
        NullSink.record(&tick(ContextId::UNATTRIBUTED, 7));
    }

    #[test]
    fn events_expose_their_context() {
        let ctx = ContextId::UNATTRIBUTED;
        assert_eq!(tick(ctx, 0).context(), ctx);
        assert_eq!(
            EngineEvent::SpanClosed {
                phase: EnginePhase::Sweep,
                context: ctx,
                micros: 1,
            }
            .context(),
            ctx
        );
    }
}
