//! Read-only engine inspection for debuggers and consoles.
//!
//! [`EngineInspector`] is a borrowing view over a live [`Engine`] that
//! exposes exactly the state a replay debugger or operator console needs
//! — per-context run state, the sliding window, queue depth, health
//! — through the engine's *existing* read paths. It introduces no new
//! locks and takes no lock for longer than the engine's own accessors
//! do, so inspection never perturbs the ingest hot path it observes.

use ix_metrics::MetricFrame;

use crate::context::OperationContext;

use super::resilience::HealthState;
use super::Engine;

/// A read-only borrowing view over a live [`Engine`] (see
/// [`Engine::inspector`]). Every accessor goes through the engine's
/// existing read paths; nothing here can mutate engine state.
#[derive(Clone, Copy)]
pub struct EngineInspector<'a> {
    engine: &'a Engine,
}

/// A point-in-time copy of one context's streaming state, taken under
/// that context's shard read lock (see
/// [`EngineInspector::context_state`]).
#[derive(Debug, Clone)]
pub struct ContextStateSnapshot {
    /// Ticks ingested into the current run.
    pub run_ticks: usize,
    /// Ticks currently held by the sliding window.
    pub window_ticks: usize,
    /// Whether the previous tick was anomalous (the edge-trigger memory).
    pub prev_anomalous: bool,
    /// Whether a trained performance model is installed.
    pub has_model: bool,
    /// Whether a streaming detector is installed.
    pub has_detector: bool,
    /// Whether an invariant set is installed.
    pub has_invariants: bool,
    /// A batch copy of the sliding window's current contents.
    pub window: MetricFrame,
}

impl Engine {
    /// A read-only inspector over this engine — the state-inspection
    /// surface behind the replay debugger and the operator console.
    pub fn inspector(&self) -> EngineInspector<'_> {
        EngineInspector { engine: self }
    }
}

impl EngineInspector<'_> {
    /// The lifetime tick counter: total ticks ingested across all
    /// contexts since the engine was built.
    pub fn lifetime_ticks(&self) -> u64 {
        let counter = self.engine.tick_counter();
        // ordering: Relaxed — a monotone counter read for display; no
        // other state is inferred from it.
        counter.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Ticks currently waiting in the bounded ingest queue.
    pub fn queued_ticks(&self) -> usize {
        self.engine.queued_ticks()
    }

    /// Effective per-shard capacity of the bounded ingest queue.
    pub fn queue_capacity(&self) -> usize {
        self.engine.ingest_queue_capacity()
    }

    /// The engine's current health state.
    pub fn health(&self) -> HealthState {
        self.engine.health()
    }

    /// Signatures currently held by the signature database.
    pub fn signature_count(&self) -> usize {
        self.engine.with_signature_database(|db| db.len())
    }

    /// All contexts the engine has state for (trained or not), sorted.
    pub fn known_contexts(&self) -> Vec<OperationContext> {
        self.engine.state().contexts()
    }

    /// A point-in-time snapshot of one context's streaming state, or
    /// `None` when the engine holds no state for the context. The copy is
    /// taken under the context's shard read lock — the same lock every
    /// other engine read of this context takes.
    pub fn context_state(&self, context: &OperationContext) -> Option<ContextStateSnapshot> {
        self.engine.state().with(context, |s| ContextStateSnapshot {
            run_ticks: s.run_ticks,
            window_ticks: s.window.ticks(),
            prev_anomalous: s.prev_anomalous,
            has_model: s.perf_model.is_some(),
            has_detector: s.detector.is_some(),
            has_invariants: s.invariants.is_some(),
            window: s.window.to_frame(),
        })
    }
}

impl std::fmt::Debug for EngineInspector<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineInspector")
            .field("lifetime_ticks", &self.lifetime_ticks())
            .field("queued_ticks", &self.queued_ticks())
            .field("health", &self.health())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::InvarNetConfig;
    use crate::context::OperationContext;
    use crate::engine::Engine;

    #[test]
    fn inspector_reads_engine_state_without_mutating() {
        let engine = Engine::builder()
            .config(InvarNetConfig::default())
            .threads(1)
            .build();
        let inspector = engine.inspector();
        assert_eq!(inspector.lifetime_ticks(), 0);
        assert_eq!(inspector.queued_ticks(), 0);
        assert!(inspector.queue_capacity() > 0);
        assert_eq!(inspector.signature_count(), 0);
        assert!(inspector.known_contexts().is_empty());
        let ctx = OperationContext::new("10.0.0.1", "Sort");
        assert!(inspector.context_state(&ctx).is_none());
    }

    #[test]
    fn context_snapshot_reflects_training() {
        let engine = Engine::builder()
            .config(InvarNetConfig::default())
            .threads(1)
            .build();
        let ctx = OperationContext::new("10.0.0.1", "Sort");
        let traces: Vec<Vec<f64>> = (0..5)
            .map(|r| {
                (0..40)
                    .map(|t| 1.0 + 0.01 * ((t + r) as f64).sin())
                    .collect()
            })
            .collect();
        engine
            .train_performance_model(ctx.clone(), &traces)
            .expect("train");
        let snap = engine
            .inspector()
            .context_state(&ctx)
            .expect("state exists after training");
        assert!(snap.has_model);
        assert!(snap.has_detector);
        assert!(!snap.has_invariants);
        assert_eq!(snap.run_ticks, 0);
        assert_eq!(snap.window_ticks, 0);
    }
}
