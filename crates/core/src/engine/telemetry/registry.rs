//! The metrics registry: per-context counters, gauges and latency
//! histograms.
//!
//! Every metric is an atomic, so the record path never blocks: the only
//! shared structure is a slot table (`ContextId` → scope) behind an
//! `RwLock` that is write-locked solely when a new context appears. The
//! aggregate view is computed at snapshot time by merging the per-context
//! scopes, so recording touches exactly one scope.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use serde::{Deserialize, Serialize};

use super::context::ContextId;
use super::histogram::{Histogram, HistogramSnapshot};

/// Sets an f64 gauge stored as bits in an `AtomicU64`.
// ordering: Relaxed — a last-write-wins gauge; no reader infers anything
// from its value about other memory.
fn gauge_set(gauge: &AtomicU64, value: f64) {
    gauge.store(value.to_bits(), Ordering::Relaxed);
}

/// Monotone-max update of an f64 gauge (residuals are non-negative, so a
/// CAS loop on the numeric value is required only for correctness under
/// racing writers, not for ordering).
// ordering: Relaxed on load and both CAS sides — the loop's atomicity is
// what protects the max, not inter-variable ordering; single variable,
// monotone value.
fn gauge_max(gauge: &AtomicU64, value: f64) {
    let mut current = gauge.load(Ordering::Relaxed);
    while value > f64::from_bits(current) {
        match gauge.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

// ordering: Relaxed — point-in-time gauge read; staleness is acceptable by
// the snapshot contract.
fn gauge_get(gauge: &AtomicU64) -> f64 {
    f64::from_bits(gauge.load(Ordering::Relaxed))
}

/// All metrics of one context (or of the unattributed sentinel scope).
#[derive(Debug, Default)]
pub struct ContextScope {
    /// Ticks ingested.
    pub ticks: AtomicU64,
    /// Ticks whose detector residual exceeded the threshold.
    pub threshold_exceedances: AtomicU64,
    /// Anomaly onsets (edge-triggered detections).
    pub detections: AtomicU64,
    /// Anomaly clears (anomalous → normal edges).
    pub clears: AtomicU64,
    /// Cause-inference passes.
    pub diagnoses: AtomicU64,
    /// Association sweeps.
    pub sweeps: AtomicU64,
    /// Metric pairs scored across all sweeps.
    pub pairs_scored: AtomicU64,
    /// Pair scores served verbatim from the incremental sweep state.
    pub sweep_pairs_reused: AtomicU64,
    /// Invariant pairs a kernel lower bound proved held (pass stopped early).
    pub sweep_pairs_screened: AtomicU64,
    /// Invariant pairs scored exactly by the full association measure.
    pub sweep_pairs_confirmed: AtomicU64,
    /// Signature matches confident enough to report as a known problem.
    pub matches_confident: AtomicU64,
    /// Diagnoses whose best match stayed below the confidence bar.
    pub matches_unknown: AtomicU64,
    /// Diagnosis passes cut short by their budget (declared degraded).
    pub sweeps_degraded: AtomicU64,
    /// Ticks shed by the ingest queue's overload policy.
    pub ticks_shed: AtomicU64,
    /// Store save/load attempts that failed and were retried.
    pub store_retries: AtomicU64,
    /// Health state machine transitions.
    pub health_transitions: AtomicU64,
    /// Tick rows appended to an attached history recorder.
    pub history_rows_recorded: AtomicU64,
    /// Gauge: storage segments the attached recorder holds for this
    /// context (last reported).
    pub history_segments: AtomicU64,
    /// Gauge: ingest-queue shard depth after the most recent enqueue.
    pub queue_depth_last: AtomicU64,
    /// Gauge: deepest ingest-queue shard depth seen.
    pub queue_depth_max: AtomicU64,
    /// Gauge: the most recent detector residual (f64 bits).
    pub last_residual: AtomicU64,
    /// Gauge: the largest detector residual seen (f64 bits).
    pub max_residual: AtomicU64,
    /// Gauge: similarity of the most recent best signature match (f64 bits).
    pub last_similarity: AtomicU64,
    /// Ingest latency (µs per tick, detector step + window push).
    pub ingest_micros: Histogram,
    /// Sweep latency (µs per 325-pair sweep).
    pub sweep_micros: Histogram,
    /// Diagnosis latency (µs per cause-inference pass).
    pub diagnosis_micros: Histogram,
    /// Association-measure scoring cost (ns per metric pair, averaged over
    /// each worker chunk).
    pub pair_score_nanos: Histogram,
    /// Recorder-append cost (ns per `record_tick` call under the shard
    /// lock).
    pub recorder_append_nanos: Histogram,
}

impl ContextScope {
    /// Records one ingested tick.
    // ordering: Relaxed — independent monotone counters on the record path;
    // snapshot readers tolerate torn cross-counter views by contract.
    pub fn record_tick(&self, residual: f64, exceeded: bool, micros: u64) {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        if exceeded {
            self.threshold_exceedances.fetch_add(1, Ordering::Relaxed);
        }
        gauge_set(&self.last_residual, residual);
        gauge_max(&self.max_residual, residual);
        self.ingest_micros.record(micros);
    }

    /// Records one history append: the recorder's `record_tick` cost and,
    /// when the recorder reports one, its current segment count.
    // ordering: Relaxed — independent monotone counter and a last-write
    // gauge; no reader infers cross-variable state from them.
    pub fn record_history_append(&self, nanos: u64, segments: Option<u64>) {
        self.history_rows_recorded.fetch_add(1, Ordering::Relaxed);
        self.recorder_append_nanos.record(nanos);
        if let Some(segments) = segments {
            self.history_segments.store(segments, Ordering::Relaxed);
        }
    }

    /// Records one ingest-queue enqueue at the given shard depth.
    // ordering: Relaxed — both gauges are single-variable (store /
    // fetch_max); no reader infers cross-variable state from them.
    pub fn record_queue_depth(&self, depth: u64) {
        self.queue_depth_last.store(depth, Ordering::Relaxed);
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Plain-data copy of every metric in the scope.
    // ordering: Relaxed loads throughout — the snapshot is documented as
    // point-in-time-ish; exact once writers are quiescent (drop/join).
    pub fn snapshot(&self, context: String) -> ScopeSnapshot {
        ScopeSnapshot {
            context,
            ticks: self.ticks.load(Ordering::Relaxed),
            threshold_exceedances: self.threshold_exceedances.load(Ordering::Relaxed),
            detections: self.detections.load(Ordering::Relaxed),
            clears: self.clears.load(Ordering::Relaxed),
            diagnoses: self.diagnoses.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
            pairs_scored: self.pairs_scored.load(Ordering::Relaxed),
            sweep_pairs_reused: self.sweep_pairs_reused.load(Ordering::Relaxed),
            sweep_pairs_screened: self.sweep_pairs_screened.load(Ordering::Relaxed),
            sweep_pairs_confirmed: self.sweep_pairs_confirmed.load(Ordering::Relaxed),
            matches_confident: self.matches_confident.load(Ordering::Relaxed),
            matches_unknown: self.matches_unknown.load(Ordering::Relaxed),
            sweeps_degraded: self.sweeps_degraded.load(Ordering::Relaxed),
            ticks_shed: self.ticks_shed.load(Ordering::Relaxed),
            store_retries: self.store_retries.load(Ordering::Relaxed),
            health_transitions: self.health_transitions.load(Ordering::Relaxed),
            history_rows_recorded: self.history_rows_recorded.load(Ordering::Relaxed),
            history_segments: self.history_segments.load(Ordering::Relaxed),
            queue_depth_last: self.queue_depth_last.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            last_residual: gauge_get(&self.last_residual),
            max_residual: gauge_get(&self.max_residual),
            last_similarity: gauge_get(&self.last_similarity),
            ingest_micros: self.ingest_micros.snapshot(),
            sweep_micros: self.sweep_micros.snapshot(),
            diagnosis_micros: self.diagnosis_micros.snapshot(),
            pair_score_nanos: self.pair_score_nanos.snapshot(),
            recorder_append_nanos: self.recorder_append_nanos.snapshot(),
        }
    }
}

/// Serializable point-in-time copy of a [`ContextScope`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeSnapshot {
    /// Display label of the scope's context (`"(all)"` for the aggregate).
    pub context: String,
    /// Ticks ingested.
    pub ticks: u64,
    /// Ticks whose detector residual exceeded the threshold.
    pub threshold_exceedances: u64,
    /// Anomaly onsets.
    pub detections: u64,
    /// Anomaly clears.
    pub clears: u64,
    /// Cause-inference passes.
    pub diagnoses: u64,
    /// Association sweeps.
    pub sweeps: u64,
    /// Metric pairs scored.
    pub pairs_scored: u64,
    /// Pair scores served verbatim from the incremental sweep state.
    pub sweep_pairs_reused: u64,
    /// Invariant pairs a kernel lower bound proved held (pass stopped early).
    pub sweep_pairs_screened: u64,
    /// Invariant pairs scored exactly by the full association measure.
    pub sweep_pairs_confirmed: u64,
    /// Confident signature matches.
    pub matches_confident: u64,
    /// Below-confidence diagnoses.
    pub matches_unknown: u64,
    /// Diagnosis passes cut short by their budget (declared degraded).
    pub sweeps_degraded: u64,
    /// Ticks shed by the ingest queue's overload policy.
    pub ticks_shed: u64,
    /// Store save/load attempts that were retried.
    pub store_retries: u64,
    /// Health state machine transitions.
    pub health_transitions: u64,
    /// Tick rows appended to an attached history recorder.
    pub history_rows_recorded: u64,
    /// Storage segments the attached recorder holds (last reported).
    pub history_segments: u64,
    /// Ingest-queue shard depth after the most recent enqueue.
    pub queue_depth_last: u64,
    /// Deepest ingest-queue shard depth seen.
    pub queue_depth_max: u64,
    /// Most recent detector residual.
    pub last_residual: f64,
    /// Largest detector residual seen.
    pub max_residual: f64,
    /// Similarity of the most recent best match.
    pub last_similarity: f64,
    /// Ingest latency histogram (µs).
    pub ingest_micros: HistogramSnapshot,
    /// Sweep latency histogram (µs).
    pub sweep_micros: HistogramSnapshot,
    /// Diagnosis latency histogram (µs).
    pub diagnosis_micros: HistogramSnapshot,
    /// Pair-scoring cost histogram (ns per pair).
    pub pair_score_nanos: HistogramSnapshot,
    /// Recorder-append cost histogram (ns per recorded tick).
    pub recorder_append_nanos: HistogramSnapshot,
}

impl ScopeSnapshot {
    /// An all-zero snapshot labeled `context`.
    pub fn empty(context: String) -> Self {
        ScopeSnapshot {
            context,
            ticks: 0,
            threshold_exceedances: 0,
            detections: 0,
            clears: 0,
            diagnoses: 0,
            sweeps: 0,
            pairs_scored: 0,
            sweep_pairs_reused: 0,
            sweep_pairs_screened: 0,
            sweep_pairs_confirmed: 0,
            matches_confident: 0,
            matches_unknown: 0,
            sweeps_degraded: 0,
            ticks_shed: 0,
            store_retries: 0,
            health_transitions: 0,
            history_rows_recorded: 0,
            history_segments: 0,
            queue_depth_last: 0,
            queue_depth_max: 0,
            last_residual: 0.0,
            max_residual: 0.0,
            last_similarity: 0.0,
            ingest_micros: HistogramSnapshot::default(),
            sweep_micros: HistogramSnapshot::default(),
            diagnosis_micros: HistogramSnapshot::default(),
            pair_score_nanos: HistogramSnapshot::default(),
            recorder_append_nanos: HistogramSnapshot::default(),
        }
    }

    /// Merges `other` into this snapshot: counters add, gauges take the
    /// last/max as appropriate, histograms merge bucket-wise.
    pub fn merge(&mut self, other: &ScopeSnapshot) {
        self.ticks += other.ticks;
        self.threshold_exceedances += other.threshold_exceedances;
        self.detections += other.detections;
        self.clears += other.clears;
        self.diagnoses += other.diagnoses;
        self.sweeps += other.sweeps;
        self.pairs_scored += other.pairs_scored;
        self.sweep_pairs_reused += other.sweep_pairs_reused;
        self.sweep_pairs_screened += other.sweep_pairs_screened;
        self.sweep_pairs_confirmed += other.sweep_pairs_confirmed;
        self.matches_confident += other.matches_confident;
        self.matches_unknown += other.matches_unknown;
        self.sweeps_degraded += other.sweeps_degraded;
        self.ticks_shed += other.ticks_shed;
        self.store_retries += other.store_retries;
        self.health_transitions += other.health_transitions;
        self.history_rows_recorded += other.history_rows_recorded;
        self.history_segments += other.history_segments;
        self.queue_depth_last = self.queue_depth_last.max(other.queue_depth_last);
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        // "Last" gauges have no global order across scopes; keep the
        // strongest signal so the aggregate stays meaningful.
        self.last_residual = self.last_residual.max(other.last_residual);
        self.last_similarity = self.last_similarity.max(other.last_similarity);
        self.max_residual = self.max_residual.max(other.max_residual);
        self.ingest_micros.merge(&other.ingest_micros);
        self.sweep_micros.merge(&other.sweep_micros);
        self.diagnosis_micros.merge(&other.diagnosis_micros);
        self.pair_score_nanos.merge(&other.pair_score_nanos);
        self.recorder_append_nanos
            .merge(&other.recorder_append_nanos);
    }

    /// Whether any event has been recorded in this scope.
    pub fn is_empty(&self) -> bool {
        *self == ScopeSnapshot::empty(self.context.clone())
    }
}

/// The slot table mapping [`ContextId`]s to their [`ContextScope`]s.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    scopes: RwLock<Vec<Arc<ContextScope>>>,
    unattributed: Arc<ContextScope>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The scope of `id`, growing the slot table on first sight of a
    /// context. The fast path is a read-locked index.
    pub fn scope(&self, id: ContextId) -> Arc<ContextScope> {
        if id.is_unattributed() {
            return Arc::clone(&self.unattributed);
        }
        {
            let scopes = self.scopes.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(scope) = scopes.get(id.index()) {
                return Arc::clone(scope);
            }
        }
        let mut scopes = self.scopes.write().unwrap_or_else(PoisonError::into_inner);
        while scopes.len() <= id.index() {
            scopes.push(Arc::new(ContextScope::default()));
        }
        Arc::clone(&scopes[id.index()])
    }

    /// The unattributed sentinel scope.
    pub fn unattributed(&self) -> &Arc<ContextScope> {
        &self.unattributed
    }

    /// Number of per-context slots allocated so far.
    pub fn len(&self) -> usize {
        self.scopes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no per-context slot exists yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots every allocated scope, labeled through `label`, plus the
    /// unattributed scope (labeled by `label(ContextId::UNATTRIBUTED)`).
    pub fn snapshot_scopes(&self, label: impl Fn(ContextId) -> String) -> Vec<ScopeSnapshot> {
        let scopes: Vec<Arc<ContextScope>> = self
            .scopes
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(Arc::clone)
            .collect();
        let mut out: Vec<ScopeSnapshot> = scopes
            .iter()
            .enumerate()
            .map(|(i, scope)| {
                let id = ContextId::from_index(i);
                scope.snapshot(label(id))
            })
            .collect();
        let sentinel = self.unattributed.snapshot(label(ContextId::UNATTRIBUTED));
        if !sentinel.is_empty() {
            out.push(sentinel);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_table_grows_and_is_stable() {
        let reg = MetricsRegistry::new();
        let id = ContextId::from_index(2);
        let scope = reg.scope(id);
        scope.ticks.fetch_add(3, Ordering::Relaxed);
        assert_eq!(reg.len(), 3);
        // Same slot on re-lookup.
        assert_eq!(reg.scope(id).ticks.load(Ordering::Relaxed), 3);
        // Unattributed is its own scope.
        reg.scope(ContextId::UNATTRIBUTED)
            .sweeps
            .fetch_add(1, Ordering::Relaxed);
        assert_eq!(reg.unattributed().sweeps.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn gauges_track_last_and_max() {
        let scope = ContextScope::default();
        scope.record_tick(0.5, false, 10);
        scope.record_tick(2.0, true, 12);
        scope.record_tick(1.0, false, 8);
        let s = scope.snapshot("c".into());
        assert_eq!(s.ticks, 3);
        assert_eq!(s.threshold_exceedances, 1);
        assert_eq!(s.last_residual, 1.0);
        assert_eq!(s.max_residual, 2.0);
        assert_eq!(s.ingest_micros.count, 3);
    }

    #[test]
    fn merge_aggregates_scopes() {
        let a = ContextScope::default();
        let b = ContextScope::default();
        a.record_tick(1.0, true, 5);
        b.record_tick(3.0, false, 7);
        b.diagnoses.fetch_add(2, Ordering::Relaxed);
        let mut total = ScopeSnapshot::empty("(all)".into());
        total.merge(&a.snapshot("a".into()));
        total.merge(&b.snapshot("b".into()));
        assert_eq!(total.ticks, 2);
        assert_eq!(total.diagnoses, 2);
        assert_eq!(total.max_residual, 3.0);
        assert_eq!(total.ingest_micros.count, 2);
        assert!(total.ingest_micros.is_consistent());
    }
}
