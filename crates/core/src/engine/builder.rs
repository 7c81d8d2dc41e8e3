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
//!     .telemetry(&telemetry)
//!     .build();
//! assert_eq!(engine.threads(), 2);
//! ```

use std::sync::Arc;

use crate::assoc::SweepPool;
use crate::config::InvarNetConfig;
use crate::context::OperationContext;
use crate::measure::{AssociationMeasure, MicMeasure};
use crate::signature::SignatureDatabase;

use super::detector::Detector;
use super::events::EventSink;
use super::recorder::HistoryRecorder;
use super::telemetry::Telemetry;
use super::Engine;

/// Assembles a fully configured [`Engine`] in one expression; obtain one
/// from [`Engine::builder`] (or [`crate::ConfigBuilder::engine`]) and
/// finish with [`EngineBuilder::build`], which is infallible.
#[must_use = "builder methods return the builder; call .build() to produce the engine"]
pub struct EngineBuilder {
    config: InvarNetConfig,
    measure: Option<Arc<dyn AssociationMeasure>>,
    threads: Option<usize>,
    shared_pool: Option<Arc<SweepPool>>,
    lifetime_ticks: Option<u64>,
    sink: Option<Arc<dyn EventSink>>,
    extra_sinks: Vec<Arc<dyn EventSink>>,
    telemetry: Option<Arc<Telemetry>>,
    history: Option<Arc<dyn HistoryRecorder>>,
    signatures: Option<SignatureDatabase>,
    detectors: Vec<(OperationContext, Arc<dyn Detector>)>,
}

impl EngineBuilder {
    pub(crate) fn new() -> Self {
        EngineBuilder {
            config: InvarNetConfig::default(),
            measure: None,
            threads: None,
            shared_pool: None,
            lifetime_ticks: None,
            sink: None,
            extra_sinks: Vec::new(),
            telemetry: None,
            history: None,
            signatures: None,
            detectors: Vec::new(),
        }
    }

    /// The engine configuration (defaults to the paper values).
    pub fn config(mut self, config: InvarNetConfig) -> Self {
        self.config = config;
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

    /// The observability sink every engine event goes to. Superseded by
    /// [`EngineBuilder::telemetry`] when both are set (a [`Telemetry`] hub
    /// *is* an event sink, plus a shared context registry).
    pub fn event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a [`Telemetry`] hub: the hub becomes the engine's event
    /// sink and the engine interns contexts into the hub's registry, so
    /// exporters can resolve context ids back to labels. Several engines
    /// may attach to one hub.
    pub fn telemetry(mut self, telemetry: &Arc<Telemetry>) -> Self {
        self.telemetry = Some(Arc::clone(telemetry));
        self
    }

    /// Adds a side observer of the event stream *in addition to* the
    /// primary sink or telemetry hub. Extras see every event after the
    /// primary sink, in attachment order, and before any attached history
    /// recorder's tee — so a live console can watch an engine that also
    /// exports telemetry and records history, without changing what either
    /// of those observes. May be called multiple times.
    pub fn extra_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.extra_sinks.push(sink);
        self
    }

    /// Attaches a history recorder (e.g. an `ix-history` `HistoryStore`):
    /// every tick row, event, sweep score and diagnosis is appended to it,
    /// and a recorder that serves windows back becomes the source of
    /// diagnosis frames. The engine behaves identically — bit for bit —
    /// with or without a recorder attached; see
    /// [`crate::HistoryRecorder`].
    pub fn history(mut self, recorder: Arc<dyn HistoryRecorder>) -> Self {
        self.history = Some(recorder);
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
        let measure = self
            .measure
            .unwrap_or_else(|| Arc::new(MicMeasure::new(self.config.mic)));
        let pool = self.shared_pool.unwrap_or_else(|| {
            let threads = self.threads.unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
            });
            Arc::new(SweepPool::new(threads))
        });
        let mut engine = Engine::assemble(self.config, measure, pool);
        if let Some(ticks) = self.lifetime_ticks {
            engine.set_lifetime_ticks_internal(ticks);
        }
        if let Some(telemetry) = &self.telemetry {
            engine.attach_telemetry_internal(telemetry);
        } else if let Some(sink) = self.sink {
            engine.set_event_sink_internal(sink);
        }
        // After the sink/telemetry wiring and before the history tee, so
        // extras observe the identical stream the recorder does.
        engine.attach_extra_sinks_internal(self.extra_sinks);
        // After the sink/telemetry wiring, so the recorder tee wraps the
        // final sink and binds the final context registry.
        if let Some(recorder) = self.history {
            engine.attach_history_internal(recorder);
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
            .field("telemetry", &self.telemetry.is_some())
            .field("event_sink", &self.sink.is_some())
            .field("extra_sinks", &self.extra_sinks.len())
            .field("history", &self.history.is_some())
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
    fn telemetry_supersedes_event_sink() {
        let telemetry = Telemetry::shared();
        let engine = Engine::builder()
            .event_sink(Arc::new(crate::NullSink))
            .telemetry(&telemetry)
            .build();
        // The engine interns into the hub's registry — the telemetry
        // attachment won.
        assert!(Arc::ptr_eq(engine.context_registry(), telemetry.contexts()));
    }

    #[test]
    fn extra_sinks_observe_alongside_primary() {
        let primary = Telemetry::shared();
        let extra = Telemetry::shared();
        let engine = Engine::builder()
            .event_sink(Arc::clone(&primary) as Arc<dyn EventSink>)
            .extra_sink(Arc::clone(&extra) as Arc<dyn EventSink>)
            .build();
        engine.sink().record(&crate::EngineEvent::DetectionFired {
            context: crate::ContextId::UNATTRIBUTED,
            tick: 3,
        });
        assert_eq!(primary.snapshot().total.detections, 1);
        assert_eq!(extra.snapshot().total.detections, 1);
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
