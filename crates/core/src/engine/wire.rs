//! The stable wire form of [`EngineEvent`].
//!
//! History segments (`ix-history`), replay traces and any future
//! persistence of the event stream share this one encoding: a tagged
//! object whose `"type"` field carries the kebab-case event name and whose
//! remaining fields follow the variant's declaration order. The encoding
//! is *pinned* by the tests at the bottom of this module — changing a
//! field name, the tag spelling or the field order is a wire-format break
//! and must fail a test before it ships.
//!
//! Data-carrying enums are beyond the workspace's `serde_derive` subset
//! (it handles named-field structs and fieldless enums only), so the
//! impls here are written by hand against the `serde::Value` tree.

use serde::{DeError, Deserialize, Serialize, Value};

use super::events::EngineEvent;

/// Builds the tagged object for one variant: the `"type"` tag first, then
/// the payload fields in declaration order.
macro_rules! tagged {
    ($tag:expr, $(($name:expr, $value:expr)),* $(,)?) => {{
        let mut fields: Vec<(String, Value)> =
            vec![("type".to_string(), Value::Str($tag.to_string()))];
        $(fields.push(($name.to_string(), Serialize::to_value(&$value)));)*
        Value::Object(fields)
    }};
}

impl Serialize for EngineEvent {
    fn to_value(&self) -> Value {
        match *self {
            EngineEvent::TickIngested {
                context,
                tick,
                residual,
                exceeded,
                micros,
            } => tagged!(
                "tick-ingested",
                ("context", context),
                ("tick", tick),
                ("residual", residual),
                ("exceeded", exceeded),
                ("micros", micros),
            ),
            EngineEvent::DetectionFired { context, tick } => {
                tagged!("detection-fired", ("context", context), ("tick", tick))
            }
            EngineEvent::DetectionCleared { context, tick } => {
                tagged!("detection-cleared", ("context", context), ("tick", tick))
            }
            EngineEvent::DiagnosisRan {
                context,
                tick,
                micros,
            } => tagged!(
                "diagnosis-ran",
                ("context", context),
                ("tick", tick),
                ("micros", micros),
            ),
            EngineEvent::SignatureMatched {
                context,
                tick,
                best_similarity,
                confident,
            } => tagged!(
                "signature-matched",
                ("context", context),
                ("tick", tick),
                ("best_similarity", best_similarity),
                ("confident", confident),
            ),
            EngineEvent::SweepCompleted {
                context,
                pairs,
                micros,
            } => tagged!(
                "sweep-completed",
                ("context", context),
                ("pairs", pairs),
                ("micros", micros),
            ),
            EngineEvent::PairsScored {
                context,
                pairs,
                micros,
            } => tagged!(
                "pairs-scored",
                ("context", context),
                ("pairs", pairs),
                ("micros", micros),
            ),
            EngineEvent::SweepScreened {
                context,
                reused,
                screened,
                confirmed,
            } => tagged!(
                "sweep-screened",
                ("context", context),
                ("reused", reused),
                ("screened", screened),
                ("confirmed", confirmed),
            ),
            EngineEvent::SpanClosed {
                phase,
                context,
                micros,
            } => tagged!(
                "span-closed",
                ("phase", phase),
                ("context", context),
                ("micros", micros),
            ),
            EngineEvent::SweepDegraded {
                context,
                tier,
                reason,
            } => tagged!(
                "sweep-degraded",
                ("context", context),
                ("tier", tier),
                ("reason", reason),
            ),
            EngineEvent::TickEnqueued { context, depth } => {
                tagged!("tick-enqueued", ("context", context), ("depth", depth))
            }
            EngineEvent::TickShed { context, policy } => {
                tagged!("tick-shed", ("context", context), ("policy", policy))
            }
            EngineEvent::StoreRetried {
                context,
                attempt,
                backoff_micros,
            } => tagged!(
                "store-retried",
                ("context", context),
                ("attempt", attempt),
                ("backoff_micros", backoff_micros),
            ),
            EngineEvent::HealthChanged { context, from, to } => tagged!(
                "health-changed",
                ("context", context),
                ("from", from),
                ("to", to),
            ),
            EngineEvent::TenantEvicted {
                context,
                tenant,
                ticks,
            } => tagged!(
                "tenant-evicted",
                ("context", context),
                ("tenant", tenant),
                ("ticks", ticks),
            ),
            EngineEvent::TenantWarmed {
                context,
                tenant,
                micros,
            } => tagged!(
                "tenant-warmed",
                ("context", context),
                ("tenant", tenant),
                ("micros", micros),
            ),
        }
    }
}

impl Deserialize for EngineEvent {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        /// Decodes one named payload field.
        fn get<T: Deserialize>(value: &Value, name: &str) -> Result<T, DeError> {
            T::from_value(value.field(name)?)
        }
        let event = match value.field("type")?.as_str()? {
            "tick-ingested" => EngineEvent::TickIngested {
                context: get(value, "context")?,
                tick: get(value, "tick")?,
                residual: get(value, "residual")?,
                exceeded: get(value, "exceeded")?,
                micros: get(value, "micros")?,
            },
            "detection-fired" => EngineEvent::DetectionFired {
                context: get(value, "context")?,
                tick: get(value, "tick")?,
            },
            "detection-cleared" => EngineEvent::DetectionCleared {
                context: get(value, "context")?,
                tick: get(value, "tick")?,
            },
            "diagnosis-ran" => EngineEvent::DiagnosisRan {
                context: get(value, "context")?,
                tick: get(value, "tick")?,
                micros: get(value, "micros")?,
            },
            "signature-matched" => EngineEvent::SignatureMatched {
                context: get(value, "context")?,
                tick: get(value, "tick")?,
                best_similarity: get(value, "best_similarity")?,
                confident: get(value, "confident")?,
            },
            "sweep-completed" => EngineEvent::SweepCompleted {
                context: get(value, "context")?,
                pairs: get(value, "pairs")?,
                micros: get(value, "micros")?,
            },
            "pairs-scored" => EngineEvent::PairsScored {
                context: get(value, "context")?,
                pairs: get(value, "pairs")?,
                micros: get(value, "micros")?,
            },
            "sweep-screened" => EngineEvent::SweepScreened {
                context: get(value, "context")?,
                reused: get(value, "reused")?,
                screened: get(value, "screened")?,
                confirmed: get(value, "confirmed")?,
            },
            "span-closed" => EngineEvent::SpanClosed {
                phase: get(value, "phase")?,
                context: get(value, "context")?,
                micros: get(value, "micros")?,
            },
            "sweep-degraded" => EngineEvent::SweepDegraded {
                context: get(value, "context")?,
                tier: get(value, "tier")?,
                reason: get(value, "reason")?,
            },
            "tick-enqueued" => EngineEvent::TickEnqueued {
                context: get(value, "context")?,
                depth: get(value, "depth")?,
            },
            "tick-shed" => EngineEvent::TickShed {
                context: get(value, "context")?,
                policy: get(value, "policy")?,
            },
            "store-retried" => EngineEvent::StoreRetried {
                context: get(value, "context")?,
                attempt: get(value, "attempt")?,
                backoff_micros: get(value, "backoff_micros")?,
            },
            "health-changed" => EngineEvent::HealthChanged {
                context: get(value, "context")?,
                from: get(value, "from")?,
                to: get(value, "to")?,
            },
            "tenant-evicted" => EngineEvent::TenantEvicted {
                context: get(value, "context")?,
                tenant: get(value, "tenant")?,
                ticks: get(value, "ticks")?,
            },
            "tenant-warmed" => EngineEvent::TenantWarmed {
                context: get(value, "context")?,
                tenant: get(value, "tenant")?,
                micros: get(value, "micros")?,
            },
            other => return Err(DeError::unknown_variant(other)),
        };
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::super::resilience::{
        DegradationReason, DegradationTier, HealthState, OverloadPolicy,
    };
    use super::super::telemetry::{ContextId, EnginePhase};
    use super::*;

    fn roundtrip(event: EngineEvent) -> EngineEvent {
        let json = serde_json::to_string(&event).expect("serialize");
        serde_json::from_str(&json).expect("deserialize")
    }

    /// Every variant survives serialize → deserialize → `==`.
    #[test]
    fn every_variant_roundtrips() {
        let ctx = ContextId::from_index(3);
        let events = [
            EngineEvent::TickIngested {
                context: ctx,
                tick: 42,
                residual: 0.25,
                exceeded: true,
                micros: 7,
            },
            EngineEvent::DetectionFired {
                context: ctx,
                tick: 42,
            },
            EngineEvent::DetectionCleared {
                context: ctx,
                tick: 50,
            },
            EngineEvent::DiagnosisRan {
                context: ctx,
                tick: 42,
                micros: 1200,
            },
            EngineEvent::SignatureMatched {
                context: ctx,
                tick: 42,
                best_similarity: 0.875,
                confident: true,
            },
            EngineEvent::SweepCompleted {
                context: ctx,
                pairs: 325,
                micros: 5000,
            },
            EngineEvent::PairsScored {
                context: ctx,
                pairs: 40,
                micros: 600,
            },
            EngineEvent::SweepScreened {
                context: ctx,
                reused: 300,
                screened: 20,
                confirmed: 5,
            },
            EngineEvent::SpanClosed {
                phase: EnginePhase::Sweep,
                context: ctx,
                micros: 5100,
            },
            EngineEvent::SweepDegraded {
                context: ctx,
                tier: DegradationTier::PartialMatrix,
                reason: DegradationReason::WallClockExceeded,
            },
            EngineEvent::TickEnqueued {
                context: ctx,
                depth: 4,
            },
            EngineEvent::TickShed {
                context: ctx,
                policy: OverloadPolicy::ShedOldest,
            },
            EngineEvent::StoreRetried {
                context: ContextId::UNATTRIBUTED,
                attempt: 2,
                backoff_micros: 2048,
            },
            EngineEvent::HealthChanged {
                context: ctx,
                from: HealthState::Healthy,
                to: HealthState::Degraded(DegradationTier::CachedMatrix),
            },
            EngineEvent::TenantEvicted {
                context: ContextId::UNATTRIBUTED,
                tenant: 12,
                ticks: 480,
            },
            EngineEvent::TenantWarmed {
                context: ContextId::UNATTRIBUTED,
                tenant: 12,
                micros: 420,
            },
        ];
        for event in events {
            assert_eq!(roundtrip(event), event, "wire roundtrip of {event:?}");
        }
    }

    /// Pins the encoding: exact JSON for representative variants. A
    /// failure here is a wire-format break — segments written by older
    /// builds would no longer load.
    #[test]
    fn encoding_is_pinned() {
        let ctx = ContextId::from_index(3);
        let cases = [
            (
                EngineEvent::TickIngested {
                    context: ctx,
                    tick: 42,
                    residual: 0.25,
                    exceeded: true,
                    micros: 7,
                },
                r#"{"type":"tick-ingested","context":3,"tick":42,"residual":0.25,"exceeded":true,"micros":7}"#,
            ),
            (
                EngineEvent::DetectionFired {
                    context: ctx,
                    tick: 42,
                },
                r#"{"type":"detection-fired","context":3,"tick":42}"#,
            ),
            (
                EngineEvent::SweepDegraded {
                    context: ctx,
                    tier: DegradationTier::PartialMatrix,
                    reason: DegradationReason::WallClockExceeded,
                },
                r#"{"type":"sweep-degraded","context":3,"tier":"PartialMatrix","reason":"WallClockExceeded"}"#,
            ),
            (
                EngineEvent::SpanClosed {
                    phase: EnginePhase::Diagnosis,
                    context: ctx,
                    micros: 9,
                },
                r#"{"type":"span-closed","phase":"Diagnosis","context":3,"micros":9}"#,
            ),
            (
                EngineEvent::HealthChanged {
                    context: ctx,
                    from: HealthState::Healthy,
                    to: HealthState::Degraded(DegradationTier::CachedMatrix),
                },
                r#"{"type":"health-changed","context":3,"from":"Healthy","to":{"Degraded":"CachedMatrix"}}"#,
            ),
            (
                EngineEvent::StoreRetried {
                    context: ContextId::UNATTRIBUTED,
                    attempt: 2,
                    backoff_micros: 2048,
                },
                r#"{"type":"store-retried","context":4294967295,"attempt":2,"backoff_micros":2048}"#,
            ),
            (
                EngineEvent::SweepScreened {
                    context: ctx,
                    reused: 300,
                    screened: 20,
                    confirmed: 5,
                },
                r#"{"type":"sweep-screened","context":3,"reused":300,"screened":20,"confirmed":5}"#,
            ),
            (
                EngineEvent::TenantEvicted {
                    context: ContextId::UNATTRIBUTED,
                    tenant: 12,
                    ticks: 480,
                },
                r#"{"type":"tenant-evicted","context":4294967295,"tenant":12,"ticks":480}"#,
            ),
            (
                EngineEvent::TenantWarmed {
                    context: ContextId::UNATTRIBUTED,
                    tenant: 12,
                    micros: 420,
                },
                r#"{"type":"tenant-warmed","context":4294967295,"tenant":12,"micros":420}"#,
            ),
        ];
        for (event, expected) in cases {
            assert_eq!(
                serde_json::to_string(&event).expect("serialize"),
                expected,
                "pinned encoding of {event:?}"
            );
        }
        // The retired tier and reason names are refused, not mapped.
        for retired in [
            r#"{"type":"sweep-degraded","context":3,"tier":"PearsonFallback","reason":"WallClockExceeded"}"#,
            r#"{"type":"sweep-degraded","context":3,"tier":"PartialMatrix","reason":"PredictedOverrun"}"#,
        ] {
            assert!(
                serde_json::from_str::<EngineEvent>(retired).is_err(),
                "{retired}"
            );
        }
    }
}
