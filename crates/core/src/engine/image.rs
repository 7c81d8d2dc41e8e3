//! Engine images: an engine's whole state, moved out and back in.
//!
//! [`Engine::take_image`] moves everything the engine holds per context —
//! performance model, detector and invariant set (`Arc`s), the sliding
//! window, the in-flight detector run, the edge-tracker and the run's
//! length — out of its state shards, together with the ticks waiting in
//! its ingest queue, and records its lifetime tick counter and its
//! signature database beside them. [`Engine::install_image`] moves all of
//! it into another engine built under the same configuration with the
//! same lifetime tick counter, which then continues bit-identically.
//! Nothing is copied, re-keyed or validated on the way: an image taken
//! from an engine holds a state that engine was in.
//!
//! Bytes meet an image in two places. An encoder reads one through
//! [`EngineImage::store`] (the trained state, shared by `Arc`),
//! [`EngineImage::runs`] (each in-flight run, borrowed as a [`RunView`])
//! and [`EngineImage::queue`]; a decoder builds one from decoded values
//! with [`EngineImage::decoded`], the one place that refuses a run or a
//! queue no engine under the configuration could be in.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError};

use ix_metrics::METRIC_COUNT;

use crate::config::{DetectorChoice, InvarNetConfig};
use crate::context::OperationContext;
use crate::error::CoreError;
use crate::signature::SignatureDatabase;
use crate::store::ModelStore;

use super::detector::{ArimaDetector, Detector, RunState};
use super::resilience::{IngestQueue, QueuedTicks};
use super::state::{ContextState, ShardedStateMap};
use super::Engine;

/// One context's in-flight run as plain values: what a snapshot decodes,
/// and what [`EngineImage::decoded`] checks and turns back into a run. It
/// is bounded by the window, however long the run.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedRun {
    /// Ticks ingested into the run (at least one).
    pub ticks: usize,
    /// Whether the run's last tick was anomalous (the edge-trigger memory).
    pub prev_anomalous: bool,
    /// The sliding window's rows, oldest first, flat: [`METRIC_COUNT`]
    /// values per row, `min(ticks, window_ticks)` rows.
    pub window: Vec<f64>,
    /// The detector run's recursion state.
    pub detector: RunState,
}

impl CapturedRun {
    /// The run, borrowed.
    pub fn view(&self) -> RunView<'_> {
        RunView {
            ticks: self.ticks,
            prev_anomalous: self.prev_anomalous,
            window: (&self.window, &[]),
            detector: self.detector.clone(),
        }
    }
}

/// One context's in-flight run, borrowed from an [`EngineImage`] (see
/// [`EngineImage::runs`]) or from a [`CapturedRun`]: what an encoder
/// writes of it.
#[derive(Debug, Clone)]
pub struct RunView<'a> {
    /// Ticks ingested into the run.
    pub ticks: usize,
    /// Whether the run's last tick was anomalous.
    pub prev_anomalous: bool,
    /// The sliding window's values, oldest row first, in two slices: the
    /// halves of the window's ring, the second empty when it does not
    /// wrap.
    pub window: (&'a [f64], &'a [f64]),
    /// The detector run's recursion state.
    pub detector: RunState,
}

impl RunView<'_> {
    /// How many values the window holds.
    pub fn window_len(&self) -> usize {
        self.window.0.len() + self.window.1.len()
    }
}

impl From<RunView<'_>> for CapturedRun {
    fn from(view: RunView<'_>) -> Self {
        CapturedRun {
            ticks: view.ticks,
            prev_anomalous: view.prev_anomalous,
            window: [view.window.0, view.window.1].concat(),
            detector: view.detector,
        }
    }
}

/// An engine's whole state, moved out of it (see the module docs). It
/// is opaque: read it through its accessors, and build one from decoded
/// values with [`EngineImage::decoded`].
pub struct EngineImage {
    config: Arc<InvarNetConfig>,
    lifetime_ticks: u64,
    signatures: Arc<SignatureDatabase>,
    /// The state shards, each as the engine held it.
    shards: Vec<BTreeMap<OperationContext, ContextState>>,
    queue: QueuedTicks,
}

/// An image [`Engine::install_image`] refused, handed back whole, and why.
#[derive(Debug)]
pub struct ImageRefused {
    /// The image, as it was passed in.
    pub image: Box<EngineImage>,
    /// Why it does not fit the engine ([`CoreError::InvalidRunState`]).
    pub error: CoreError,
}

impl EngineImage {
    /// The lifetime tick counter the image continues from.
    pub fn lifetime_ticks(&self) -> u64 {
        self.lifetime_ticks
    }

    /// The trained state, shared with the image: every context's
    /// performance model and invariant set under its
    /// [`ModelStore::context_key`], and the signature database.
    pub fn store(&self) -> ModelStore {
        let mut store = ModelStore {
            performance_models: BTreeMap::new(),
            invariants: BTreeMap::new(),
            signatures: Arc::clone(&self.signatures),
        };
        for (context, state) in self.shards.iter().flatten() {
            add_to_store(&mut store, context, state);
        }
        store
    }

    /// Every context's in-flight run, in context order; a context with no
    /// run in flight (no ticks since it was trained or reset) is not
    /// listed.
    pub fn runs(&self) -> Vec<(&OperationContext, RunView<'_>)> {
        let mut runs: Vec<_> = (self.shards.iter().flatten())
            .filter_map(|(context, state)| {
                let run = state.run.as_ref()?;
                let view = RunView {
                    ticks: state.run_ticks,
                    prev_anomalous: state.prev_anomalous,
                    window: state.window.as_slices(),
                    detector: run.capture(),
                };
                Some((context, view))
            })
            .collect();
        runs.sort_by(|a, b| a.0.cmp(b.0));
        runs
    }

    /// The ticks waiting in the ingest queue, shard by shard in submission
    /// order, and the shard the next drain starts at.
    pub fn queue(&self) -> &QueuedTicks {
        &self.queue
    }

    /// An image of the state an engine under `config` holds once it has
    /// loaded `store` ([`Engine::load_state`]), been given each of `runs`
    /// as its context's in-flight run, and had `queue` submitted, with
    /// `lifetime_ticks` ticks ingested: the constructor for decoded values.
    ///
    /// # Errors
    ///
    /// As [`Engine::load_state`] refuses `store`; then, for the first run
    /// that no engine under `config` could hold,
    /// [`CoreError::NoPerformanceModel`] when its context has no model in
    /// `store`, or [`CoreError::InvalidRunState`] when no run of the
    /// context's detector could be in its state: no ticks, more ticks than
    /// `lifetime_ticks`, a window that is not `min(ticks, window_ticks)`
    /// whole finite rows, or a detector state
    /// [`super::detector::DetectorRun::install`] refuses; last,
    /// [`CoreError::InvalidRunState`] when `queue`'s cursor names no queue
    /// shard or more of its ticks land in one shard than the shard holds.
    pub fn decoded<'a>(
        config: Arc<InvarNetConfig>,
        lifetime_ticks: u64,
        store: &ModelStore,
        runs: impl IntoIterator<Item = (&'a OperationContext, &'a CapturedRun)>,
        queue: QueuedTicks,
    ) -> Result<Self, CoreError> {
        let state = ShardedStateMap::new(config.state_shards);
        load_store(&state, &config, store, |_| ())?;
        for (context, run) in runs {
            install_run(&state, &config, lifetime_ticks, context, run)?;
        }
        IngestQueue::for_config(&config).check_shape(&queue)?;
        Ok(EngineImage {
            lifetime_ticks,
            signatures: Arc::clone(&store.signatures),
            shards: state.into_shards(),
            queue,
            config,
        })
    }
}

impl std::fmt::Debug for EngineImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineImage")
            .field("lifetime_ticks", &self.lifetime_ticks)
            .field(
                "contexts",
                &self.shards.iter().map(BTreeMap::len).sum::<usize>(),
            )
            .field("queued_ticks", &self.queue.ticks.len())
            .finish()
    }
}

impl Engine {
    /// Moves the engine's state out into an [`EngineImage`]: every
    /// context's state, shard by shard, and every queued tick, with the
    /// engine's lifetime tick counter and its signature database, which
    /// the engine keeps sharing. The engine is left with no contexts and
    /// an empty queue; its sweep records, health and counters stay. Taken
    /// one lock at a time, so the image is exact only while nothing else
    /// uses the engine.
    pub fn take_image(&self) -> EngineImage {
        EngineImage {
            config: Arc::clone(&self.config),
            lifetime_ticks: self.lifetime_ticks(),
            signatures: Arc::clone(
                &self
                    .signatures
                    .read()
                    .unwrap_or_else(PoisonError::into_inner),
            ),
            shards: self.state().take_shards(),
            queue: self.ingest_queue().take(),
        }
    }

    /// Moves `image` into this engine, which then continues exactly as the
    /// engine the image came from would have: its contexts and queued
    /// ticks become this engine's, and its signature database replaces
    /// this engine's. It emits no events and records nothing: the image's
    /// ticks were counted when they were ingested or submitted.
    ///
    /// # Errors
    ///
    /// [`ImageRefused`], holding the image whole, with a
    /// [`CoreError::InvalidRunState`] when the image was taken under
    /// another configuration, its lifetime tick counter is not this
    /// engine's (build the engine with
    /// [`crate::EngineBuilder::lifetime_ticks`] of
    /// [`EngineImage::lifetime_ticks`]), or this engine already holds a
    /// context or a queued tick. Nothing changes then.
    pub fn install_image(&self, image: EngineImage) -> Result<(), ImageRefused> {
        let refuse = |image, reason: String| {
            Err(ImageRefused {
                image: Box::new(image),
                error: CoreError::InvalidRunState { reason },
            })
        };
        if !Arc::ptr_eq(&image.config, &self.config) && *image.config != *self.config {
            return refuse(
                image,
                "the image was taken under another configuration".to_string(),
            );
        }
        let lifetime = self.lifetime_ticks();
        if image.lifetime_ticks != lifetime {
            let reason = format!(
                "an image {} ticks into its lifetime does not continue an engine {lifetime} \
                 ticks into its own",
                image.lifetime_ticks
            );
            return refuse(image, reason);
        }
        if !self.state().is_empty() || self.queued_ticks() > 0 {
            return refuse(image, "the engine already holds state".to_string());
        }
        self.state().put_shards(image.shards);
        self.ingest_queue().put(image.queue);
        self.set_signature_database(image.signatures);
        Ok(())
    }
}

/// Adds `state`'s performance model and invariant set, if it has them,
/// to `store` under `context`'s key, shared.
pub(crate) fn add_to_store(
    store: &mut ModelStore,
    context: &OperationContext,
    state: &ContextState,
) {
    let key = || ModelStore::context_key(context);
    if let Some(model) = &state.perf_model {
        store.performance_models.insert(key(), Arc::clone(model));
    }
    if let Some(set) = &state.invariants {
        store.invariants.insert(key(), Arc::clone(set));
    }
}

/// Sets every performance model of `store` (with the configured
/// detector built on it, and a fresh run) and every invariant set into
/// `state`, each under the context its key parses back to, calling
/// `reset` with each context whose run a model reset.
///
/// # Errors
///
/// As [`Engine::load_state`]; the contexts before a bad key are set.
pub(crate) fn load_store(
    state: &ShardedStateMap,
    config: &InvarNetConfig,
    store: &ModelStore,
    mut reset: impl FnMut(&OperationContext),
) -> Result<(), CoreError> {
    if matches!(config.detector, DetectorChoice::Cusum { .. })
        && !store.performance_models.is_empty()
    {
        let reason = "the store holds no CUSUM parameters, and this engine's \
                      detector is CUSUM";
        return Err(CoreError::Serialization {
            op: "model store",
            source: Arc::from(Box::<dyn std::error::Error + Send + Sync>::from(reason)),
        });
    }
    for (key, model) in &store.performance_models {
        let detector: Arc<dyn Detector> = Arc::new(ArimaDetector::new(
            Arc::clone(model),
            config.threshold_rule,
            config.consecutive_anomalies,
        ));
        let context = context_of_key(key)?;
        state.with_mut(&context, config.window_ticks, |s| {
            s.perf_model = Some(Arc::clone(model));
            s.detector = Some(detector);
            if let Some(set) = store.invariants.get(key) {
                s.invariants = Some(Arc::clone(set));
            }
            s.reset_run();
        });
        reset(&context);
    }
    for (key, set) in &store.invariants {
        if !store.performance_models.contains_key(key) {
            state.with_mut(&context_of_key(key)?, config.window_ticks, |s| {
                s.invariants = Some(Arc::clone(set));
            });
        }
    }
    Ok(())
}

/// Makes `run` `context`'s in-flight run in `state`, whose engine is
/// `lifetime` ticks into its life, after checking that a run of the
/// context's detector could be in it (see [`EngineImage::decoded`]).
/// The context's state is unchanged on error.
fn install_run(
    state: &ShardedStateMap,
    config: &InvarNetConfig,
    lifetime: u64,
    context: &OperationContext,
    run: &CapturedRun,
) -> Result<(), CoreError> {
    let window_ticks = config.window_ticks;
    let invalid = |reason: String| CoreError::InvalidRunState {
        reason: format!("context {context}: {reason}"),
    };
    let rows = run.window.len() / METRIC_COUNT;
    if run.ticks == 0 {
        return Err(invalid("a captured run has at least one tick".to_string()));
    }
    if run.ticks as u64 > lifetime {
        return Err(invalid(format!(
            "a run {} ticks long is longer than the engine's {lifetime} lifetime ticks",
            run.ticks
        )));
    }
    if !run.window.len().is_multiple_of(METRIC_COUNT) || rows != run.ticks.min(window_ticks) {
        return Err(invalid(format!(
            "a run {} ticks long under a {window_ticks}-tick window holds {} rows of \
             {METRIC_COUNT} values, where this window has {} values",
            run.ticks,
            run.ticks.min(window_ticks),
            run.window.len()
        )));
    }
    if let Some(v) = run.window.iter().find(|v| !v.is_finite()) {
        return Err(invalid(format!("window value {v} is not finite")));
    }
    state
        .with_existing_mut(context, |s| {
            let detector = s
                .detector
                .clone()
                .ok_or_else(|| CoreError::NoPerformanceModel(context.clone()))?;
            let mut fresh = detector.begin_run();
            fresh.install(&run.detector, run.ticks).map_err(invalid)?;
            s.reset_run();
            for row in run.window.chunks_exact(METRIC_COUNT) {
                s.window.push_tick(row)?;
            }
            s.run = Some(fresh);
            s.prev_anomalous = run.prev_anomalous;
            s.run_ticks = run.ticks;
            Ok(())
        })
        .unwrap_or_else(|| Err(CoreError::NoPerformanceModel(context.clone())))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Three normal CPI traces to train a context on.
    fn traces() -> Vec<Vec<f64>> {
        (0..3)
            .map(|r| {
                (0..80)
                    .map(|t| 1.0 + 0.01 * ((t + 7 * r) as f64 * 0.37).sin())
                    .collect()
            })
            .collect()
    }

    /// An engine under `config` with one trained context `ticks` ticks
    /// into its run, fed the first training trace, and one queued tick.
    fn ticked(config: &Arc<InvarNetConfig>, ticks: usize) -> (Engine, OperationContext) {
        let engine = Engine::builder()
            .config(Arc::clone(config))
            .threads(1)
            .build();
        let context = OperationContext::new("10.0.0.1", "Sort");
        let traces = traces();
        engine
            .train_performance_model(context.clone(), &traces)
            .expect("train");
        for t in 0..ticks {
            let row = [t as f64; METRIC_COUNT];
            engine
                .ingest(&context, traces[0][t % 80], &row)
                .expect("ingest");
        }
        engine.submit(&context, traces[0][ticks % 80], &[0.5; METRIC_COUNT]);
        (engine, context)
    }

    #[test]
    fn a_moved_image_continues_bit_identically() {
        // 70 ticks: the 60-tick window's ring has wrapped.
        let config = Arc::new(InvarNetConfig::default());
        let (engine, context) = ticked(&config, 70);
        let (twin, _) = ticked(&config, 70);
        let image = engine.take_image();
        assert!(engine.inspector().known_contexts().is_empty());
        assert_eq!(engine.queued_ticks(), 0, "a take leaves the engine empty");
        let runs: Vec<CapturedRun> = image.runs().into_iter().map(|(_, r)| r.into()).collect();
        assert!(
            matches!(&runs[..], [run] if run.ticks == 70 && run.window.len() == 60 * METRIC_COUNT)
        );

        let warmed = Engine::builder()
            .config(Arc::clone(&config))
            .threads(1)
            .lifetime_ticks(image.lifetime_ticks())
            .build();
        warmed
            .install_image(image)
            .expect("an image fits a fresh engine");
        let drained = |e: &Engine| {
            let out = e.drain(8);
            out.into_iter()
                .map(|(_, o)| o.map(|o| (o.tick, o.residual.to_bits())))
                .collect::<Vec<_>>()
        };
        assert_eq!(drained(&warmed), drained(&twin), "the queued tick");
        for t in 71..100 {
            let row = [t as f64; METRIC_COUNT];
            let cpi = traces()[0][t % 80];
            let tick = |e: &Engine| {
                let out = e.ingest(&context, cpi, &row);
                out.map(|o| (o.tick, o.residual.to_bits(), o.anomalous))
            };
            assert_eq!(tick(&warmed), tick(&twin), "tick {t}");
        }
        assert_eq!(warmed.window_frame(&context), twin.window_frame(&context));
        assert_eq!(warmed.lifetime_ticks(), twin.lifetime_ticks());
    }

    #[test]
    fn an_image_that_does_not_fit_is_handed_back_whole() {
        let config = Arc::new(InvarNetConfig::default());
        let (engine, context) = ticked(&config, 5);
        let image = engine.take_image();
        let refused = |target: &Engine, image: EngineImage| match target.install_image(image) {
            Err(ImageRefused {
                image,
                error: CoreError::InvalidRunState { .. },
            }) => *image,
            other => panic!("expected a refusal, got {other:?}"),
        };
        let other = Engine::builder()
            .config(InvarNetConfig {
                window_ticks: 30,
                ..InvarNetConfig::default()
            })
            .lifetime_ticks(5)
            .build();
        let image = refused(&other, image);
        let early = Engine::builder()
            .config(Arc::clone(&config))
            .lifetime_ticks(4)
            .build();
        let image = refused(&early, image);
        let (busy, _) = ticked(&config, 5);
        let image = refused(&busy, image);
        assert!(other.inspector().known_contexts().is_empty());
        assert_eq!(busy.queued_ticks(), 1, "a refusal changes nothing");

        // An equal configuration in another `Arc` fits, and the image
        // arrives whole: the run and the queued tick.
        let equal = Engine::builder()
            .config(InvarNetConfig::default())
            .lifetime_ticks(5)
            .build();
        equal
            .install_image(image)
            .expect("an equal configuration fits");
        let state = equal.inspector().context_state(&context).expect("moved in");
        assert_eq!(state.run_ticks, 5);
        assert_eq!(equal.queued_ticks(), 1);
    }
}
