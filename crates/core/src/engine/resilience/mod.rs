//! The resilience layer: bounded work, bounded queues, retries and health.
//!
//! A production engine must keep diagnosing while the host itself is
//! degraded — slow disks, contended CPUs, skewed clocks. This module makes
//! every failure mode *bounded and observable* instead of silent:
//!
//! - [`SweepBudget`] — a wall-clock + pair-count budget for one
//!   diagnosis pass. The pass scores MIC pairs until the budget stops it
//!   and keeps every score it finished; the next diagnosis of the context
//!   resumes where it stopped. A pass cut short answers from the pairs
//!   it did not reach at their earlier scores ([`DegradationTier`]
//!   `CachedMatrix`), or masks the ones this context never scored
//!   (`PartialMatrix`), and emits [`super::EngineEvent::SweepDegraded`]
//!   with the tier and its [`DegradationReason`];
//! - [`OverloadPolicy`] — the bounded ingest queue's behavior when full
//!   ([`crate::Engine::submit`] / [`crate::Engine::drain`]);
//! - [`RetryPolicy`] — jittered exponential backoff for model-store file
//!   operations ([`crate::Engine::store_op`]; the file format lives in
//!   `ix-history`);
//! - [`HealthState`] — the poison-safe health state machine
//!   (`Healthy → Degraded(tier) → Recovering → Healthy`), queryable via
//!   [`crate::Engine::health`].
//!
//! The invariant the whole layer upholds: a diagnosis is either computed
//! at full fidelity or explicitly marked degraded
//! ([`crate::Diagnosis::degradation`]) — never silently wrong.

mod budget;
mod health;
pub(crate) mod queue;
mod retry;

pub use budget::{DegradationReason, DegradationTier, SweepBudget, SweepDegradation};
pub use health::HealthState;
pub use queue::{OverloadPolicy, QueuedTick, QueuedTicks, SubmitOutcome};
pub use retry::RetryPolicy;

pub(crate) use health::HealthMonitor;
pub(crate) use queue::IngestQueue;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, PoisonError};

use crate::context::OperationContext;
use crate::engine::telemetry::ContextId;
use crate::engine::{Engine, EngineEvent, EventSink};
use crate::error::CoreError;
use crate::store::ModelStore;

impl Engine {
    /// The engine's current health state.
    ///
    /// `Healthy` means recent work completed at full fidelity. A degraded
    /// sweep or a failed store operation moves the machine to
    /// `Degraded(tier)`; the first subsequent full-fidelity operation moves
    /// it to `Recovering`, and a short streak of clean operations restores
    /// `Healthy`. Transitions are reported as
    /// [`EngineEvent::HealthChanged`].
    pub fn health(&self) -> HealthState {
        self.health_monitor().current()
    }

    /// Records a degradation: emits [`EngineEvent::SweepDegraded`] and
    /// advances the health machine (emitting
    /// [`EngineEvent::HealthChanged`] on a transition).
    pub(crate) fn note_degradation(
        &self,
        context: ContextId,
        tier: DegradationTier,
        reason: DegradationReason,
    ) {
        self.observers().record(&EngineEvent::SweepDegraded {
            context,
            tier,
            reason,
        });
        if let Some((from, to)) = self.health_monitor().note_degraded(tier) {
            self.observers()
                .record(&EngineEvent::HealthChanged { context, from, to });
        }
    }

    /// Records a full-fidelity operation: advances the health machine
    /// toward `Healthy`, emitting [`EngineEvent::HealthChanged`] on a
    /// transition.
    pub(crate) fn note_health_ok(&self, context: ContextId) {
        if let Some((from, to)) = self.health_monitor().note_ok() {
            self.observers()
                .record(&EngineEvent::HealthChanged { context, from, to });
        }
    }

    /// Runs one model-store file operation on `path` — `op` is a single
    /// attempt, such as `ix_history`'s store-file save or load — under the
    /// configured [`RetryPolicy`] (jittered exponential backoff). Each
    /// retry is reported as [`EngineEvent::StoreRetried`]; exhausting the
    /// attempts degrades the engine's health
    /// ([`DegradationTier::Persistence`]), and a success counts toward its
    /// recovery.
    ///
    /// # Errors
    ///
    /// The last attempt's [`CoreError`] (kind `Io` or `Serialization` for
    /// the store-file operations) once every attempt has failed.
    pub fn store_op<T>(
        &self,
        path: &Path,
        mut op: impl FnMut(&Path) -> Result<T, CoreError>,
    ) -> Result<T, CoreError> {
        let policy = self.config().store_retry.clone();
        let seed = retry::path_seed(path);
        let result = policy.run(
            seed,
            |_attempt| op(path),
            |attempt, delay| {
                self.observers().record(&EngineEvent::StoreRetried {
                    context: ContextId::UNATTRIBUTED,
                    attempt,
                    backoff_micros: delay.as_micros() as u64,
                });
            },
        );
        match result {
            Ok(v) => {
                self.note_health_ok(ContextId::UNATTRIBUTED);
                Ok(v)
            }
            Err(e) => {
                if let Some((from, to)) = self
                    .health_monitor()
                    .note_degraded(DegradationTier::Persistence)
                {
                    self.observers().record(&EngineEvent::HealthChanged {
                        context: ContextId::UNATTRIBUTED,
                        from,
                        to,
                    });
                }
                Err(e)
            }
        }
    }

    /// Installs everything a [`ModelStore`] holds — performance models,
    /// invariant sets and the signature database — into this engine,
    /// sharing them with the store: nothing is copied, rebuilt or
    /// validated again (a decoded store was validated as it decoded).
    /// Context keys are parsed back from the store's `workload@node` form.
    ///
    /// # Errors
    ///
    /// [`CoreError`] with kind `Serialization` for a key with no `@`; the
    /// engine is left with the contexts installed before it.
    pub fn load_state(&self, store: &ModelStore) -> Result<(), CoreError> {
        for (key, model) in &store.performance_models {
            let context = context_of_key(key)?;
            self.install_performance_model_internal(&context, Arc::clone(model));
            if let Some(set) = store.invariants.get(key) {
                self.install_invariant_set_internal(&context, Arc::clone(set));
            }
        }
        for (key, set) in &store.invariants {
            if !store.performance_models.contains_key(key) {
                self.install_invariant_set_internal(&context_of_key(key)?, Arc::clone(set));
            }
        }
        self.set_signature_database(Arc::clone(&store.signatures));
        Ok(())
    }

    /// Captures this engine's trained state — every context's performance
    /// model and invariant set plus the signature database — into a
    /// [`ModelStore`] that shares them with the engine, ready to load into
    /// another engine or to write to a file with [`Engine::store_op`].
    pub fn snapshot_state(&self) -> ModelStore {
        let mut store = ModelStore {
            performance_models: BTreeMap::new(),
            invariants: BTreeMap::new(),
            signatures: Arc::clone(
                &self
                    .signatures
                    .read()
                    .unwrap_or_else(PoisonError::into_inner),
            ),
        };
        self.state().for_each(|context, state| {
            let key = || ModelStore::context_key(context);
            if let Some(model) = &state.perf_model {
                store.performance_models.insert(key(), Arc::clone(model));
            }
            if let Some(set) = &state.invariants {
                store.invariants.insert(key(), Arc::clone(set));
            }
        });
        store
    }
}

/// Parses a [`ModelStore`] context key (`workload@node`) back into an
/// [`OperationContext`].
fn context_of_key(key: &str) -> Result<OperationContext, CoreError> {
    match key.split_once('@') {
        Some((workload, node)) => Ok(OperationContext::new(node, workload)),
        None => Err(CoreError::InvalidStoreKey {
            key: key.to_string(),
        }),
    }
}
