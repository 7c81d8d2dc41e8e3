//! InvarNet-X: the paper's primary contribution.
//!
//! A comprehensive invariant-based performance-diagnosis pipeline for big
//! data platforms, with two halves:
//!
//! **Offline** (per [`OperationContext`] — workload type × node):
//!
//! 1. [`PerformanceModel`] — an ARIMA model of normal CPI dynamics, plus
//!    residual thresholds calibrated by one of the three
//!    [`ThresholdRule`]s (max-min / 95-percentile / beta-max);
//! 2. [`InvariantSet`] — Algorithm 1: pairwise associations over the 26
//!    metrics across N normal runs; pairs whose score band is narrower than
//!    `tau` are *observable likely invariants*. The association measure is
//!    pluggable ([`AssociationMeasure`]): MIC for InvarNet-X proper,
//!    ARX fitness for the Jiang et al. baseline;
//! 3. [`SignatureDatabase`] — for each investigated fault, the
//!    [`ViolationTuple`] (which invariants deviate by at least `epsilon`)
//!    becomes the fault's signature.
//!
//! **Online**:
//!
//! 4. anomaly detection — three consecutive CPI prediction residuals above
//!    the calibrated threshold trigger cause inference;
//! 5. cause inference — the current violation tuple is matched against the
//!    signature database by a [`Similarity`] measure; the closest
//!    signatures' causes are reported, ranked.
//!
//! [`Engine`] is the one front door to both halves: assemble it with
//! [`Engine::builder`], run the offline steps
//! ([`Engine::train_performance_model`], [`Engine::build_invariants`],
//! [`Engine::record_signature`]), then either score whole traces
//! ([`Engine::process`]) or stream ticks ([`Engine::ingest`]). Persisted
//! state moves through [`Engine::snapshot_state`] and
//! [`Engine::load_state`]. `examples/quickstart.rs` in the workspace root
//! shows the full train → detect → diagnose loop.

#![warn(missing_docs)]

mod anomaly;
mod assoc;
mod config;
mod context;
mod cusum;
mod engine;
mod error;
mod eval;
mod incremental;
mod invariants;
mod measure;
mod signature;
mod similarity;
mod store;

pub use anomaly::{DetectionResult, PerformanceModel, ResidualStats, ThresholdRule};
pub use assoc::{
    pair_count, pair_index, pair_of_index, AssociationMatrix, PassPair, PassScope, ScoredPairs,
    SweepPool,
};
pub use config::{ConfigBuilder, DetectorChoice, InvarNetConfig};
pub use context::OperationContext;
pub use cusum::{CusumDetector, CusumResult};
pub use engine::resilience::{
    DegradationReason, DegradationTier, HealthState, OverloadPolicy, QueuedTick, QueuedTicks,
    RetryPolicy, SubmitOutcome, SweepBudget, SweepDegradation,
};
pub use engine::telemetry::{
    bucket_upper_edge, ContextId, ContextRegistry, ContextScope, EnginePhase, Histogram,
    HistogramSnapshot, MetricsRegistry, PhaseSnapshot, ScopeSnapshot, Span, SpanRecord, SpanRing,
    SpanSnapshot, Telemetry, TelemetrySnapshot, CONFIDENT_SIMILARITY, HISTOGRAM_BUCKETS,
};
pub use engine::{
    ArimaDetector, CapturedRun, ContextStateSnapshot, CusumStreamDetector, Detector, DetectorRun,
    Diagnosis, Engine, EngineBuilder, EngineEvent, EngineInspector, EventKind, EventSink,
    HistoryRecorder, NullSink, Observer, RankedCause, RunState, TickDecision, TickOutcome,
};
pub use error::{CoreError, ErrorCode, ErrorKind};
pub use eval::{ConfusionMatrix, EvalOutcome, PrecisionRecall};
pub use incremental::{AdvanceOutcome, IncrementalSweep, ScreenOutcome, MAX_SLIDE};
pub use invariants::{InvariantEntry, InvariantSet};
/// The ARIMA model a [`PerformanceModel`] wraps, re-exported so a decoder
/// can rebuild one ([`ArimaModel::from_coefficients`] validates it).
pub use ix_arima::{ArimaModel, ArimaSpec};
pub use measure::{
    ArxMeasure, AssociationMeasure, Floor, Floored, MicMeasure, PairScorer, PearsonMeasure,
    SlideOutcome, SweepPlan,
};
pub use signature::{Signature, SignatureDatabase, ViolationTuple};
pub use similarity::Similarity;
pub use store::ModelStore;
