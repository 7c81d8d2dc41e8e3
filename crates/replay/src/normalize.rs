//! Event normalization for cross-run comparison.

use ix_core::EngineEvent;

/// Zeroes the wall-clock fields so two otherwise-identical event streams
/// compare equal, and drops the events whose multiplicity or order depends
/// on worker-pool scheduling rather than on what was computed.
///
/// Replay equivalence is defined over this normalized stream: `micros`
/// durations on [`EngineEvent::TickIngested`], [`EngineEvent::DiagnosisRan`]
/// and [`EngineEvent::SweepCompleted`] are measurements of the host, not of
/// the computation, and [`EngineEvent::PairsScored`] /
/// [`EngineEvent::SpanClosed`] depend on how a sweep was sliced across
/// worker threads.
pub fn normalize_events(events: &[EngineEvent]) -> Vec<EngineEvent> {
    events
        .iter()
        .filter(|e| {
            !matches!(
                e,
                EngineEvent::PairsScored { .. } | EngineEvent::SpanClosed { .. }
            )
        })
        .map(|e| match *e {
            EngineEvent::TickIngested {
                context,
                tick,
                residual,
                exceeded,
                ..
            } => EngineEvent::TickIngested {
                context,
                tick,
                residual,
                exceeded,
                micros: 0,
            },
            EngineEvent::DiagnosisRan { context, tick, .. } => EngineEvent::DiagnosisRan {
                context,
                tick,
                micros: 0,
            },
            EngineEvent::SweepCompleted { context, pairs, .. } => EngineEvent::SweepCompleted {
                context,
                pairs,
                micros: 0,
            },
            // Warm latency is a host measurement, like the micros above.
            EngineEvent::TenantWarmed {
                context, tenant, ..
            } => EngineEvent::TenantWarmed {
                context,
                tenant,
                micros: 0,
            },
            EngineEvent::DetectionFired { .. }
            | EngineEvent::DetectionCleared { .. }
            | EngineEvent::SignatureMatched { .. }
            | EngineEvent::PairsScored { .. }
            | EngineEvent::SweepScreened { .. }
            | EngineEvent::SpanClosed { .. }
            | EngineEvent::SweepDegraded { .. }
            | EngineEvent::TickEnqueued { .. }
            | EngineEvent::TickShed { .. }
            | EngineEvent::StoreRetried { .. }
            | EngineEvent::HealthChanged { .. }
            | EngineEvent::TenantEvicted { .. } => *e,
        })
        .collect()
}
