//! The builder-first construction path for [`Engine`].
//!
//! [`EngineBuilder`] is the only way to construct an [`Engine`]: one
//! fluent expression that yields a ready, immutable engine:
//!
//! ```
//! use ix_core::{Engine, InvarNetConfig, Telemetry};
//!
//! let telemetry = Telemetry::shared();
//! let engine = Engine::builder()
//!     .config(InvarNetConfig::default())
//!     .threads(2)
//!     .observe(&telemetry)
//!     .build();
//! assert_eq!(engine.threads(), 2);
//! ```
//!
//! Everything that watches the engine — event sinks,
//! [`crate::Telemetry`] hubs, history recorders — is one [`Observer`] on
//! one ordered list, added with [`EngineBuilder::observe`]: each member
//! sees every event, in the order the members were added.

use std::sync::Arc;

use crate::assoc::SweepPool;
use crate::config::InvarNetConfig;
use crate::context::OperationContext;
use crate::measure::{AssociationMeasure, MicMeasure};
use crate::signature::SignatureDatabase;

use super::detector::Detector;
use super::events::Observer;
use super::Engine;

/// Assembles a fully configured [`Engine`] in one expression; obtain one
/// from [`Engine::builder`] (or [`crate::ConfigBuilder::engine`]) and
/// finish with [`EngineBuilder::build`], which is infallible.
#[must_use = "builder methods return the builder; call .build() to produce the engine"]
pub struct EngineBuilder {
    config: Option<Arc<InvarNetConfig>>,
    measure: Option<Arc<dyn AssociationMeasure>>,
    threads: Option<usize>,
    shared_pool: Option<Arc<SweepPool>>,
    lifetime_ticks: Option<u64>,
    observers: Vec<Observer>,
    signatures: Option<SignatureDatabase>,
    detectors: Vec<(OperationContext, Arc<dyn Detector>)>,
}

impl EngineBuilder {
    pub(crate) fn new() -> Self {
        EngineBuilder {
            config: None,
            measure: None,
            threads: None,
            shared_pool: None,
            lifetime_ticks: None,
            observers: Vec::new(),
            signatures: None,
            detectors: Vec::new(),
        }
    }

    /// The engine configuration (defaults to the paper values): owned, or
    /// an `Arc` shared with other engines. Engines built from one `Arc`
    /// share it, and an image taken from one of them installs into any
    /// other without comparing configurations
    /// ([`Engine::install_image`]).
    pub fn config(mut self, config: impl Into<Arc<InvarNetConfig>>) -> Self {
        self.config = Some(config.into());
        self
    }

    /// The association measure (defaults to MIC with the configured
    /// parameters).
    pub fn measure(mut self, measure: Arc<dyn AssociationMeasure>) -> Self {
        self.measure = Some(measure);
        self
    }

    /// Number of sweep workers (defaults to the available parallelism,
    /// capped at 8).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Runs this engine's sweeps on an existing worker pool instead of
    /// spawning its own. The fleet pattern: many tenant engines on one
    /// box share one pool sized to the cores (obtain another engine's
    /// pool with [`Engine::sweep_pool`]). Supersedes
    /// [`EngineBuilder::threads`] when both are set.
    pub fn shared_pool(mut self, pool: Arc<SweepPool>) -> Self {
        self.shared_pool = Some(pool);
        self
    }

    /// Seeds the engine-wide lifetime tick counter, so a rebuilt engine
    /// continues a predecessor's global tick numbering (fleet warm-from-
    /// snapshot; read the counter with [`Engine::lifetime_ticks`]).
    pub fn lifetime_ticks(mut self, ticks: u64) -> Self {
        self.lifetime_ticks = Some(ticks);
        self
    }

    /// Adds a member to the engine's observation list: an event sink
    /// (`Arc<dyn EventSink>`), a [`crate::Telemetry`] hub
    /// (`&Arc<Telemetry>`) or a history recorder (e.g. an `ix-history`
    /// `HistoryStore`). Every event goes to every member, in the order
    /// they were added. The engine interns contexts into the first hub's
    /// registry (or a registry of its own) and binds every member to it
    /// with [`crate::EventSink::bind_registry`]. Recorders also receive
    /// every tick row, sweep score, diagnosis and run reset, and the first
    /// one that serves windows back becomes the source of diagnosis
    /// frames. The engine behaves identically — bit for bit — whatever it
    /// is observed by; see [`crate::HistoryRecorder`].
    pub fn observe(mut self, member: impl Into<Observer>) -> Self {
        self.observers.push(member.into());
        self
    }

    /// Seeds the signature database (trained models and invariant sets
    /// come in through [`crate::Engine::load_state`], or are trained in
    /// place).
    pub fn signature_database(mut self, db: SignatureDatabase) -> Self {
        self.signatures = Some(db);
        self
    }

    /// Installs a custom streaming detector for a context.
    pub fn detector(mut self, context: OperationContext, detector: Arc<dyn Detector>) -> Self {
        self.detectors.push((context, detector));
        self
    }

    /// The finished engine.
    pub fn build(self) -> Engine {
        let config = self.config.unwrap_or_default();
        let measure = self
            .measure
            .unwrap_or_else(|| Arc::new(MicMeasure::new(config.mic)));
        let pool = self.shared_pool.unwrap_or_else(|| {
            let threads = self.threads.unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
            });
            Arc::new(SweepPool::new(threads))
        });
        let mut engine = Engine::assemble(config, measure, pool, self.observers);
        if let Some(ticks) = self.lifetime_ticks {
            engine.set_lifetime_ticks_internal(ticks);
        }
        if let Some(db) = self.signatures {
            engine.set_signature_database(db);
        }
        for (context, detector) in self.detectors {
            engine.install_detector_internal(context, detector);
        }
        engine
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder::new()
    }
}

impl std::fmt::Debug for EngineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineBuilder")
            .field("measure", &self.measure.as_ref().map(|m| m.name()))
            .field("threads", &self.threads)
            .field("shared_pool", &self.shared_pool.is_some())
            .field("lifetime_ticks", &self.lifetime_ticks)
            .field("observers", &self.observers.len())
            .field("signatures", &self.signatures.as_ref().map(|db| db.len()))
            .field("detectors", &self.detectors.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::PearsonMeasure;
    use crate::signature::{Signature, ViolationTuple};

    fn ctx() -> OperationContext {
        OperationContext::new("10.0.0.1", "Sort")
    }

    #[test]
    fn builder_wires_measure_threads_and_signatures() {
        let mut db = SignatureDatabase::new();
        db.add(Signature {
            tuple: ViolationTuple::from_graded(vec![0.5; 4]),
            problem: "CPU-hog".into(),
            context: ctx(),
        });
        let engine = Engine::builder()
            .config(InvarNetConfig::builder().state_shards(4).build())
            .measure(Arc::new(PearsonMeasure))
            .threads(2)
            .signature_database(db)
            .build();
        assert_eq!(engine.measure_name(), "Pearson");
        assert_eq!(engine.threads(), 2);
        assert_eq!(engine.state_shards(), 4);
        assert_eq!(engine.with_signature_database(|db| db.len()), 1);
    }

    #[test]
    fn shared_pool_is_reused_and_supersedes_threads() {
        let donor = Engine::builder().threads(2).build();
        let pool = donor.sweep_pool();
        let engine = Engine::builder()
            .threads(7)
            .shared_pool(Arc::clone(&pool))
            .build();
        assert_eq!(engine.threads(), 2);
        assert!(Arc::ptr_eq(&engine.sweep_pool(), &pool));
    }

    #[test]
    fn lifetime_ticks_seed_the_counter() {
        let engine = Engine::builder().lifetime_ticks(41).build();
        assert_eq!(engine.lifetime_ticks(), 41);
    }

    #[test]
    fn config_builder_flows_into_engine_builder() {
        let engine = InvarNetConfig::builder()
            .epsilon(0.3)
            .engine()
            .threads(1)
            .build();
        assert_eq!(engine.config().epsilon, 0.3);
        assert_eq!(engine.threads(), 1);
    }
}
