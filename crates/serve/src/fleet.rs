//! The multi-tenant fleet: N tenant engines behind one serving surface.
//!
//! A [`Fleet`] owns a slot table keyed by [`TenantId`]. Each slot is
//! either **warm** — a live [`Engine`] plus the bookkeeping needed to
//! tear it down losslessly — or **cold** — the tenant's decoded image in
//! memory, or its `IXHIST01` snapshot file under the configured snapshot
//! directory. Slots
//! materialize lazily: the first tick for an unknown tenant builds its
//! engine on the spot, and every tenant engine shares one
//! [`SweepPool`], so a hundred thousand tenants cost one worker pool,
//! not a hundred thousand.
//!
//! When the warm count crosses the configured high-water mark
//! ([`FleetBuilder::warm_limit`]), the least-recently-used warm tenant is
//! evicted. In memory, the cold tenant is its engine's moved state: the
//! [`EngineImage`] [`Engine::take_image`] moves out of it — every
//! context's trained model, detector and invariant set (`Arc`s), sliding
//! window, detector run, edge-tracker and run length, the ticks waiting in
//! its ingest queue, its signature database and its lifetime tick counter
//! — before the emptied engine is dropped. Warming builds a fresh engine
//! with the image's lifetime tick counter and moves the image into it
//! ([`Engine::install_image`]). Nothing is copied, encoded, decoded,
//! re-keyed or revalidated in between, so an eviction and a warm cost the
//! same at tick 60 and at tick 60 000, and tenants materialized from one
//! template keep sharing its trained state through any number of
//! evictions. A tenant's sweep records stay with the dropped engine, as a
//! file warm could not bring them back either.
//!
//! Bytes exist only where a snapshot crosses the process boundary: a
//! snapshot-directory file, [`Fleet::snapshot_bytes`] and [`Fleet::adopt`]
//! (which decodes the snapshot to check it and keeps it as bytes under the
//! fleet's config row). To encode a warm tenant, the fleet takes its
//! engine's image, encodes it and moves it back (and a snapshot-directory
//! eviction moves it back when the write fails, so the tenant stays warm);
//! a warm from bytes decodes them into an image ([`EngineImage::decoded`])
//! and moves that in. The warm slots
//! form an intrusive list in LRU order, so finding the victim, touching
//! a tenant and counting the warm set are O(1), whatever the number of
//! tenants. A snapshot is refused — at [`Fleet::adopt`], and at a warm
//! from bytes — when it was written under a configuration other than the
//! fleet's (a config row byte-equal to the fleet's own serialized config
//! matches without a parse), and a snapshot file is replaced atomically
//! (temporary file, fsync, rename), so a crash never leaves a torn one.
//! A warm is *bit-invisible*: the warmed engine continues exactly as if
//! it had never been torn down, whether its ticks came through
//! [`Fleet::ingest`] or through the queue ([`Fleet::submit`] /
//! [`Fleet::drain`], which reuse the engine's bounded ingest queue and
//! [`ix_core::OverloadPolicy`] semantics verbatim). Both transitions are
//! declared, never silent: [`EngineEvent::TenantEvicted`] /
//! [`EngineEvent::TenantWarmed`] land on the fleet's event sink.
//!
//! Every operation on a tenant, its engine work included, runs under the
//! one fleet lock, so an eviction never takes an engine's image while a
//! tick is in it.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use ix_core::{
    ContextId, Diagnosis, Engine, EngineEvent, EngineImage, EventSink, HealthState, ImageRefused,
    InvarNetConfig, OperationContext, SubmitOutcome, SweepPool, Telemetry, TelemetrySnapshot,
    TickOutcome,
};

use crate::error::ServeError;
use crate::snapshot::{self, Body};
use crate::tenant::TenantId;

/// Default high-water mark for warm tenants.
const DEFAULT_WARM_LIMIT: usize = 1024;

/// The null link of the LRU list.
const NIL: usize = usize::MAX;

/// A live tenant.
struct WarmTenant {
    engine: Arc<Engine>,
    telemetry: Option<Arc<Telemetry>>,
}

/// An evicted (or adopted) tenant.
enum ColdTenant {
    /// The state an in-memory eviction moved out of its engine.
    Image(EngineImage),
    /// An adopted snapshot's bytes, under the fleet's config row.
    Bytes(Vec<u8>),
    /// Its snapshot file under the snapshot directory.
    File(PathBuf),
}

enum State {
    Warm(WarmTenant),
    Cold(ColdTenant),
}

struct Slot {
    id: TenantId,
    /// Dense tenant number for event attribution.
    num: u64,
    state: State,
    /// Neighbours in the LRU list while warm; [`NIL`] at the ends and
    /// while cold.
    prev: usize,
    next: usize,
}

/// The slot table. Slots are never removed, so an index names a tenant
/// for the fleet's lifetime, and the warm slots form an intrusive doubly
/// linked list by index — least recently used at the head — so a touch,
/// an eviction and the warm count are all O(1) and allocation-free.
struct FleetInner {
    index: HashMap<TenantId, usize>,
    slots: Vec<Slot>,
    lru_head: usize,
    lru_tail: usize,
    /// Length of the LRU list.
    warm: usize,
    next_num: u64,
}

impl FleetInner {
    fn slot(&self, tenant: &TenantId) -> Result<usize, ServeError> {
        self.index
            .get(tenant)
            .copied()
            .ok_or_else(|| ServeError::UnknownTenant(tenant.clone()))
    }

    /// Gives `tenant` a fresh tenant number and `state`, replacing any
    /// slot it had; a warm state enters the LRU list as most recent.
    fn put(&mut self, tenant: TenantId, state: State) -> usize {
        let num = self.next_num;
        self.next_num += 1;
        let warm = matches!(state, State::Warm(_));
        let i = match self.index.get(&tenant) {
            Some(&i) => {
                if matches!(self.slots[i].state, State::Warm(_)) {
                    self.unlink(i);
                }
                self.slots[i].num = num;
                self.slots[i].state = state;
                i
            }
            None => {
                let i = self.slots.len();
                self.index.insert(tenant.clone(), i);
                self.slots.push(Slot {
                    id: tenant,
                    num,
                    state,
                    prev: NIL,
                    next: NIL,
                });
                i
            }
        };
        if warm {
            self.link_back(i);
        }
        i
    }

    /// Appends slot `i` to the LRU list as the most recently used.
    fn link_back(&mut self, i: usize) {
        self.slots[i].prev = self.lru_tail;
        self.slots[i].next = NIL;
        match self.lru_tail {
            NIL => self.lru_head = i,
            tail => self.slots[tail].next = i,
        }
        self.lru_tail = i;
        self.warm += 1;
    }

    /// Removes slot `i` from the LRU list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.lru_head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.lru_tail = prev,
            n => self.slots[n].prev = prev,
        }
        self.slots[i].prev = NIL;
        self.slots[i].next = NIL;
        self.warm -= 1;
    }

    /// Marks warm slot `i` as the most recently used.
    fn touch(&mut self, i: usize) {
        if self.lru_tail != i {
            self.unlink(i);
            self.link_back(i);
        }
    }

    /// The warm tenants, least recently used first.
    fn warm_tenants(&self) -> impl Iterator<Item = (&TenantId, &WarmTenant)> {
        let mut at = self.lru_head;
        std::iter::from_fn(move || {
            let slot = self.slots.get(at)?;
            at = slot.next;
            match &slot.state {
                State::Warm(w) => Some((&slot.id, w)),
                State::Cold(_) => None,
            }
        })
    }
}

/// Point-in-time fleet counters (see [`Fleet::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStatus {
    /// Registered tenants (warm + cold).
    pub tenants: usize,
    /// Currently warm tenants.
    pub warm: usize,
    /// Currently cold tenants.
    pub cold: usize,
    /// The configured warm high-water mark.
    pub warm_limit: usize,
    /// Lifetime evictions.
    pub evictions: u64,
    /// Lifetime warms.
    pub warms: u64,
    /// Ticks ingested through the fleet surface.
    pub ticks: u64,
    /// Mean cold→warm latency in microseconds (0 before the first warm).
    pub warm_micros_mean: u64,
    /// Worst cold→warm latency in microseconds.
    pub warm_micros_max: u64,
    /// The fold of every warm tenant's health machine.
    pub health: &'static str,
}

/// Lifetime fleet counters, updated outside the slot lock where possible.
#[derive(Debug, Default)]
struct FleetMetrics {
    /// Ticks ingested through [`Fleet::ingest`].
    ticks: AtomicU64,
    /// Tenants evicted.
    evictions: AtomicU64,
    /// Tenants warmed from a snapshot.
    warms: AtomicU64,
    /// Sum of warm latencies (µs).
    warm_micros_total: AtomicU64,
    /// Worst warm latency (µs).
    warm_micros_max: AtomicU64,
}

/// Assembles a [`Fleet`] in one expression; obtain one from
/// [`Fleet::builder`] and finish with [`FleetBuilder::build`].
#[must_use = "builder methods return the builder; call .build() to produce the fleet"]
pub struct FleetBuilder {
    config: Arc<InvarNetConfig>,
    warm_limit: usize,
    snapshot_dir: Option<PathBuf>,
    sink: Option<Arc<dyn EventSink>>,
    per_tenant_telemetry: bool,
    threads: usize,
}

impl FleetBuilder {
    fn new() -> Self {
        FleetBuilder {
            config: Arc::default(),
            warm_limit: DEFAULT_WARM_LIMIT,
            snapshot_dir: None,
            sink: None,
            per_tenant_telemetry: false,
            threads: 1,
        }
    }

    /// The engine configuration every tenant engine is built with
    /// (defaults to the paper values).
    pub fn config(mut self, config: InvarNetConfig) -> Self {
        self.config = Arc::new(config);
        self
    }

    /// High-water mark for warm tenants: warming past it evicts the
    /// least-recently-used warm tenant first (defaults to 1024; at least
    /// 1).
    pub fn warm_limit(mut self, limit: usize) -> Self {
        self.warm_limit = limit.max(1);
        self
    }

    /// Persists eviction snapshots as `<tenant>.ixhist` files under `dir`
    /// instead of holding the bytes in memory. The directory must exist.
    pub fn snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// The fleet-wide event sink: every tenant engine's event stream and
    /// the fleet's own lifecycle events ([`EngineEvent::TenantEvicted`] /
    /// [`EngineEvent::TenantWarmed`]) land here.
    ///
    /// Each tenant engine gets the sink as a member of its observation
    /// list (after the tenant's hub, when
    /// [`FleetBuilder::per_tenant_telemetry`] is on). It keeps its name,
    /// rather than `observe`, because the end-to-end benchmark in
    /// `perfbench/` calls it. Unset, tenant engines observe nothing and
    /// lifecycle events go nowhere.
    ///
    /// The sink is called with the fleet lock held, so it must not call
    /// back into the fleet: that call would wait on the lock forever.
    pub fn event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a private [`Telemetry`] hub to every tenant engine, so
    /// [`Fleet::render_prometheus`] can export per-tenant-namespaced
    /// series. Off by default — at fleet scale the hubs dominate memory.
    pub fn per_tenant_telemetry(mut self, on: bool) -> Self {
        self.per_tenant_telemetry = on;
        self
    }

    /// Workers in the shared sweep pool every tenant engine runs its
    /// association sweeps on (defaults to 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The finished fleet.
    pub fn build(self) -> Fleet {
        let config_json =
            serde_json::to_string(&*self.config).expect("config serialization is infallible");
        Fleet {
            config: self.config,
            config_json,
            warm_limit: self.warm_limit,
            snapshot_dir: self.snapshot_dir,
            sink: self.sink,
            per_tenant_telemetry: self.per_tenant_telemetry,
            pool: Arc::new(SweepPool::new(self.threads)),
            inner: Mutex::new(FleetInner {
                index: HashMap::new(),
                slots: Vec::new(),
                lru_head: NIL,
                lru_tail: NIL,
                warm: 0,
                next_num: 0,
            }),
            metrics: FleetMetrics::default(),
        }
    }
}

impl std::fmt::Debug for FleetBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetBuilder")
            .field("warm_limit", &self.warm_limit)
            .field("snapshot_dir", &self.snapshot_dir)
            .field("event_sink", &self.sink.is_some())
            .field("per_tenant_telemetry", &self.per_tenant_telemetry)
            .field("threads", &self.threads)
            .finish()
    }
}

/// The multi-tenant serving layer (see the module docs).
pub struct Fleet {
    /// Shared by every tenant engine, so their images install into one
    /// another without comparing configurations.
    config: Arc<InvarNetConfig>,
    /// `config` as every snapshot spells it, serialized once: evictions
    /// write these bytes, and a warm or adopt whose config row equals
    /// them needs no parse.
    config_json: String,
    warm_limit: usize,
    snapshot_dir: Option<PathBuf>,
    sink: Option<Arc<dyn EventSink>>,
    per_tenant_telemetry: bool,
    pool: Arc<SweepPool>,
    inner: Mutex<FleetInner>,
    metrics: FleetMetrics,
}

impl Fleet {
    /// The builder-first construction path.
    pub fn builder() -> FleetBuilder {
        FleetBuilder::new()
    }

    /// The configuration tenant engines are built with.
    pub fn config(&self) -> &InvarNetConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FleetInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands a fleet lifecycle event to the fleet sink, if one is set.
    fn emit(&self, event: &EngineEvent) {
        if let Some(sink) = &self.sink {
            sink.record(event);
        }
    }

    /// Builds a fresh tenant engine wired into the fleet's shared pool
    /// and sinks, optionally seeding the lifetime tick counter.
    fn build_engine(&self, lifetime_ticks: u64) -> (Arc<Engine>, Option<Arc<Telemetry>>) {
        let mut builder = Engine::builder()
            .config(Arc::clone(&self.config))
            .shared_pool(Arc::clone(&self.pool))
            .lifetime_ticks(lifetime_ticks);
        let telemetry = self.per_tenant_telemetry.then(Telemetry::shared);
        if let Some(hub) = &telemetry {
            builder = builder.observe(hub);
        }
        if let Some(sink) = &self.sink {
            builder = builder.observe(Arc::clone(sink));
        }
        (Arc::new(builder.build()), telemetry)
    }

    /// Ensures `tenant` has a slot and that it is warm, evicting the LRU
    /// warm tenant first when the high-water mark would be crossed.
    /// Returns the tenant's engine, its slot marked most recently used.
    fn ensure_warm(
        &self,
        inner: &mut FleetInner,
        tenant: &TenantId,
    ) -> Result<Arc<Engine>, ServeError> {
        let (i, engine) = match inner.index.get(tenant).copied() {
            Some(i) => match &inner.slots[i].state {
                State::Warm(warm) => (i, Arc::clone(&warm.engine)),
                State::Cold(_) => {
                    self.make_room(inner)?;
                    (i, self.warm_slot(inner, i)?.0)
                }
            },
            None => {
                self.make_room(inner)?;
                let (engine, telemetry) = self.build_engine(0);
                let warm = WarmTenant {
                    engine: Arc::clone(&engine),
                    telemetry,
                };
                (inner.put(tenant.clone(), State::Warm(warm)), engine)
            }
        };
        inner.touch(i);
        Ok(engine)
    }

    /// [`Fleet::ensure_warm`] for a tenant that must already have a slot.
    fn ensure_known_warm(
        &self,
        inner: &mut FleetInner,
        tenant: &TenantId,
    ) -> Result<Arc<Engine>, ServeError> {
        inner.slot(tenant)?;
        self.ensure_warm(inner, tenant)
    }

    /// Evicts LRU warm tenants until a new warm slot fits the high-water
    /// mark.
    fn make_room(&self, inner: &mut FleetInner) -> Result<(), ServeError> {
        while inner.warm >= self.warm_limit && inner.lru_head != NIL {
            self.evict_slot(inner, inner.lru_head)?;
        }
        Ok(())
    }

    /// Reads snapshot bytes for this fleet, refusing a snapshot written
    /// under another configuration: the warmed engine would not continue
    /// bit-identically. A config row byte-equal to the fleet's own
    /// serialized config matches without being parsed; any other row is
    /// parsed and, once the whole body has decoded, compared with the
    /// fleet's config.
    fn decode(&self, bytes: &[u8]) -> Result<Body, ServeError> {
        let (config, body) = snapshot::decode(bytes, |text| {
            if text == self.config_json {
                Ok(Cow::Borrowed(&self.config))
            } else {
                snapshot::parse_config(text).map(Cow::Owned)
            }
        })?;
        // A row equal to the fleet's as bytes is the fleet's config, even
        // one a NaN makes unequal to itself.
        if matches!(&config, Cow::Owned(c) if *c != *self.config) {
            return Err(ServeError::Snapshot(
                "the snapshot was written under a different engine configuration \
                 than this fleet's"
                    .to_string(),
            ));
        }
        Ok(body)
    }

    /// Replaces warm slot `i` with a cold one: in memory, the image moved
    /// out of its engine, and under a snapshot directory, the image's
    /// bytes, written durably before the slot changes. A failed write
    /// moves the image back, and the tenant stays warm.
    fn evict_slot(&self, inner: &mut FleetInner, i: usize) -> Result<(), ServeError> {
        let State::Warm(warm) = &inner.slots[i].state else {
            return Err(ServeError::UnknownTenant(inner.slots[i].id.clone()));
        };
        let engine = Arc::clone(&warm.engine);
        let image = engine.take_image();
        let ticks = image.lifetime_ticks();
        let cold = match &self.snapshot_dir {
            Some(dir) => {
                let path = dir.join(format!("{}.ixhist", inner.slots[i].id));
                let bytes = snapshot::image_bytes(&image, &self.config_json);
                if let Err(e) = write_durably(&path, &bytes) {
                    put_back(inner, i, &engine, image);
                    return Err(e.into());
                }
                ColdTenant::File(path)
            }
            None => ColdTenant::Image(image),
        };
        inner.slots[i].state = State::Cold(cold);
        inner.unlink(i);
        // ordering: Relaxed — independent monotone counters; status reads
        // tolerate torn cross-counter views by contract.
        self.metrics.evictions.fetch_add(1, Ordering::Relaxed);
        self.emit(&EngineEvent::TenantEvicted {
            context: ContextId::UNATTRIBUTED,
            tenant: inner.slots[i].num,
            ticks,
        });
        Ok(())
    }

    /// Builds a warm tenant from `image`: a fresh engine with the image's
    /// lifetime tick counter, into which the image moves. On a refusal the
    /// engine is dropped and the image handed back whole.
    fn install(&self, image: EngineImage) -> Result<WarmTenant, ImageRefused> {
        let (engine, telemetry) = self.build_engine(image.lifetime_ticks());
        engine.install_image(image)?;
        Ok(WarmTenant { engine, telemetry })
    }

    /// Builds a warm tenant from snapshot bytes: decoded into an image,
    /// then installed.
    fn install_bytes(&self, bytes: &[u8]) -> Result<WarmTenant, ServeError> {
        let image = self.decode(bytes)?.into_image(Arc::clone(&self.config))?;
        self.install(image).map_err(|refused| refused.error.into())
    }

    /// Builds a warm tenant from `cold`, the form `state` held; on an
    /// error puts `cold` back into `state` whole, so the tenant stays cold
    /// with nothing lost.
    fn warm_cold(&self, cold: ColdTenant, state: &mut State) -> Result<WarmTenant, ServeError> {
        let (error, cold) = match cold {
            ColdTenant::Image(image) => match self.install(image) {
                Ok(warm) => return Ok(warm),
                Err(refused) => (refused.error.into(), ColdTenant::Image(*refused.image)),
            },
            ColdTenant::Bytes(bytes) => match self.install_bytes(&bytes) {
                Ok(warm) => return Ok(warm),
                Err(e) => (e, ColdTenant::Bytes(bytes)),
            },
            ColdTenant::File(path) => {
                let read = std::fs::read(&path).map_err(ServeError::from);
                match read.and_then(|bytes| self.install_bytes(&bytes)) {
                    Ok(warm) => return Ok(warm),
                    Err(e) => (e, ColdTenant::File(path)),
                }
            }
        };
        *state = State::Cold(cold);
        Err(error)
    }

    /// Warms cold slot `i` — moving its image into a fresh engine, or
    /// decoding its bytes into one — and makes it the most recently used
    /// warm slot. Returns the engine and the cold→warm latency in
    /// microseconds.
    fn warm_slot(
        &self,
        inner: &mut FleetInner,
        i: usize,
    ) -> Result<(Arc<Engine>, u64), ServeError> {
        // lint: allow(determinism, telemetry-only: warm micros feed the
        // TenantWarmed event; replay normalizes all recorded timings)
        let started = Instant::now();
        let state = &mut inner.slots[i].state;
        // An empty placeholder holds the slot only until this call puts
        // back a warm tenant or, on an error, the cold form whole.
        let placeholder = State::Cold(ColdTenant::Bytes(Vec::new()));
        let warm = match std::mem::replace(state, placeholder) {
            State::Warm(warm) => {
                let engine = Arc::clone(&warm.engine);
                *state = State::Warm(warm);
                return Ok((engine, 0));
            }
            State::Cold(cold) => self.warm_cold(cold, state)?,
        };
        let engine = Arc::clone(&warm.engine);
        *state = State::Warm(warm);
        inner.link_back(i);
        let micros = started.elapsed().as_micros() as u64;
        // ordering: Relaxed — independent monotone counters / fetch_max
        // gauge; status reads tolerate torn cross-counter views.
        self.metrics.warms.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — same counter contract as above.
        self.metrics
            .warm_micros_total
            .fetch_add(micros, Ordering::Relaxed);
        // ordering: Relaxed — same counter contract as above.
        self.metrics
            .warm_micros_max
            .fetch_max(micros, Ordering::Relaxed);
        self.emit(&EngineEvent::TenantWarmed {
            context: ContextId::UNATTRIBUTED,
            tenant: inner.slots[i].num,
            micros,
        });
        Ok((engine, micros))
    }

    /// Adopts a tenant in cold state from snapshot bytes (e.g. produced
    /// by a previous fleet's eviction, or shipped from another box). The
    /// tenant warms lazily on first touch, from the bytes re-encoded under
    /// this fleet's config row. Adopting over a tenant that already has a
    /// slot replaces it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] when the bytes do not parse as a tenant
    /// snapshot, or were written under a configuration other than this
    /// fleet's.
    pub fn adopt(&self, tenant: TenantId, bytes: Vec<u8>) -> Result<(), ServeError> {
        // Decoded now, so a bad snapshot fails at adopt time, not at first
        // ingest. Whether its runs and queue fit an engine is checked when
        // a warm builds its image.
        let bytes = self.decode(&bytes)?.to_bytes(&self.config_json);
        self.lock()
            .put(tenant, State::Cold(ColdTenant::Bytes(bytes)));
        Ok(())
    }

    /// Ingests one tick for `tenant`'s `context`, materializing or
    /// warming the tenant first when needed.
    ///
    /// # Errors
    ///
    /// Engine errors pass through as [`ServeError::Core`]; snapshot and
    /// I/O errors surface from an eviction or warm the call triggered.
    pub fn ingest(
        &self,
        tenant: &TenantId,
        context: &OperationContext,
        cpi: f64,
        row: &[f64],
    ) -> Result<TickOutcome, ServeError> {
        let mut inner = self.lock();
        let outcome = self
            .ensure_warm(&mut inner, tenant)?
            .ingest(context, cpi, row)?;
        // ordering: Relaxed — a monotone counter; status reads tolerate
        // staleness.
        self.metrics.ticks.fetch_add(1, Ordering::Relaxed);
        Ok(outcome)
    }

    /// Submits one tick to the tenant engine's bounded ingest queue,
    /// under the engine's configured [`ix_core::OverloadPolicy`] —
    /// fleet-wide overload semantics are exactly the engine's, and every
    /// shed is declared on the fleet sink. A queued tick is part of the
    /// tenant's state: an eviction keeps it, and the warmed engine drains
    /// it.
    ///
    /// # Errors
    ///
    /// Snapshot and I/O errors surface from an eviction or warm the call
    /// triggered.
    pub fn submit(
        &self,
        tenant: &TenantId,
        context: &OperationContext,
        cpi: f64,
        row: &[f64],
    ) -> Result<SubmitOutcome, ServeError> {
        let mut inner = self.lock();
        Ok(self
            .ensure_warm(&mut inner, tenant)?
            .submit(context, cpi, row))
    }

    /// Drains up to `max_ticks` queued ticks through the tenant's engine,
    /// under the fleet lock, as [`Fleet::ingest`] runs its tick: no
    /// eviction can capture the engine while a drained tick is in it.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when the tenant has no slot.
    #[allow(clippy::type_complexity)]
    pub fn drain(
        &self,
        tenant: &TenantId,
        max_ticks: usize,
    ) -> Result<Vec<(OperationContext, Result<TickOutcome, ix_core::CoreError>)>, ServeError> {
        let mut inner = self.lock();
        Ok(self.ensure_known_warm(&mut inner, tenant)?.drain(max_ticks))
    }

    /// Discards the in-flight run of `tenant`'s `context`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when the tenant has no slot.
    pub fn reset_run(
        &self,
        tenant: &TenantId,
        context: &OperationContext,
    ) -> Result<(), ServeError> {
        let mut inner = self.lock();
        self.ensure_known_warm(&mut inner, tenant)?
            .reset_run(context);
        Ok(())
    }

    /// Runs `f` against the tenant's live engine (materializing or
    /// warming it first), under the fleet lock, e.g. to train models or
    /// record signatures. Whatever `f` leaves in the engine, trained or
    /// run state, lands in eviction snapshots.
    ///
    /// # Errors
    ///
    /// Snapshot and I/O errors surface from an eviction or warm the call
    /// triggered.
    pub fn with_engine<R>(
        &self,
        tenant: &TenantId,
        f: impl FnOnce(&Engine) -> R,
    ) -> Result<R, ServeError> {
        let mut inner = self.lock();
        let engine = self.ensure_warm(&mut inner, tenant)?;
        Ok(f(&engine))
    }

    /// On-demand diagnosis over the tenant context's current sliding
    /// window.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] for a tenant without a slot;
    /// [`ServeError::Core`] when the context has no window or the
    /// engine's offline state is missing.
    pub fn diagnose(
        &self,
        tenant: &TenantId,
        context: &OperationContext,
    ) -> Result<Diagnosis, ServeError> {
        let mut inner = self.lock();
        let engine = self.ensure_known_warm(&mut inner, tenant)?;
        let frame = engine.window_frame(context).ok_or_else(|| {
            ServeError::Core(ix_core::CoreError::NoPerformanceModel(context.clone()))
        })?;
        Ok(engine.diagnose(context, &frame)?)
    }

    /// Evicts `tenant` now (the explicit form of what the LRU does on
    /// high-water).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when the tenant has no slot or is
    /// already cold; snapshot/I/O errors from persisting.
    pub fn evict(&self, tenant: &TenantId) -> Result<(), ServeError> {
        let mut inner = self.lock();
        let i = inner.slot(tenant)?;
        self.evict_slot(&mut inner, i)
    }

    /// Warms `tenant` now, making it the most recently used warm tenant,
    /// and returns the cold→warm latency in microseconds (0 when the
    /// tenant was already warm, which leaves the LRU order untouched).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when the tenant has no slot;
    /// snapshot/I/O errors from reading or parsing.
    pub fn warm(&self, tenant: &TenantId) -> Result<u64, ServeError> {
        let mut inner = self.lock();
        let i = inner.slot(tenant)?;
        if matches!(inner.slots[i].state, State::Warm(_)) {
            return Ok(0);
        }
        self.make_room(&mut inner)?;
        Ok(self.warm_slot(&mut inner, i)?.1)
    }

    /// Serializes the tenant's current state to snapshot bytes without
    /// evicting or warming it — the bytes a `snapshot_dir` eviction
    /// writes. A warm tenant's engine image is taken, encoded and moved
    /// back; a cold tenant's image in memory is encoded under this fleet's
    /// config row; an adopted snapshot's bytes and a snapshot file are
    /// served as they are.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when the tenant has no slot;
    /// [`ServeError::Io`] when its snapshot file cannot be read.
    pub fn snapshot_bytes(&self, tenant: &TenantId) -> Result<Vec<u8>, ServeError> {
        let mut inner = self.lock();
        let i = inner.slot(tenant)?;
        match &inner.slots[i].state {
            State::Warm(warm) => {
                let engine = Arc::clone(&warm.engine);
                let image = engine.take_image();
                let bytes = snapshot::image_bytes(&image, &self.config_json);
                put_back(&mut inner, i, &engine, image);
                Ok(bytes)
            }
            State::Cold(ColdTenant::Image(image)) => {
                Ok(snapshot::image_bytes(image, &self.config_json))
            }
            State::Cold(ColdTenant::Bytes(bytes)) => Ok(bytes.clone()),
            State::Cold(ColdTenant::File(path)) => Ok(std::fs::read(path)?),
        }
    }

    /// Whether the tenant is currently warm.
    pub fn is_warm(&self, tenant: &TenantId) -> bool {
        let inner = self.lock();
        inner
            .slot(tenant)
            .is_ok_and(|i| matches!(inner.slots[i].state, State::Warm(_)))
    }

    /// The dense number events attribute this tenant under, if the
    /// tenant has a slot.
    pub fn tenant_number(&self, tenant: &TenantId) -> Option<u64> {
        let inner = self.lock();
        inner.slot(tenant).ok().map(|i| inner.slots[i].num)
    }

    /// One tenant's health (cold tenants report `Healthy` — an evicted
    /// engine has no failure modes running).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`] when the tenant has no slot.
    pub fn tenant_health(&self, tenant: &TenantId) -> Result<HealthState, ServeError> {
        let inner = self.lock();
        Ok(match &inner.slots[inner.slot(tenant)?].state {
            State::Warm(w) => w.engine.health(),
            State::Cold(_) => HealthState::Healthy,
        })
    }

    /// Fleet health: the worst state across every warm tenant's health
    /// machine (`Degraded` beats `Recovering` beats `Healthy`).
    pub fn health(&self) -> HealthState {
        let inner = self.lock();
        let mut worst = HealthState::Healthy;
        for (_, w) in inner.warm_tenants() {
            let health = w.engine.health();
            worst = match (worst, health) {
                (HealthState::Degraded(t), _) => HealthState::Degraded(t),
                (_, HealthState::Degraded(t)) => HealthState::Degraded(t),
                (HealthState::Recovering, _) | (_, HealthState::Recovering) => {
                    HealthState::Recovering
                }
                (HealthState::Healthy, HealthState::Healthy) => HealthState::Healthy,
            };
        }
        worst
    }

    /// Point-in-time fleet counters.
    pub fn status(&self) -> FleetStatus {
        let (tenants, warm) = {
            let inner = self.lock();
            (inner.slots.len(), inner.warm)
        };
        // ordering: Relaxed loads — the status is point-in-time-ish by
        // contract; exact once writers are quiescent.
        let warms = self.metrics.warms.load(Ordering::Relaxed);
        let total = self.metrics.warm_micros_total.load(Ordering::Relaxed);
        // ordering: Relaxed — same point-in-time contract as above.
        let evictions = self.metrics.evictions.load(Ordering::Relaxed);
        let ticks = self.metrics.ticks.load(Ordering::Relaxed);
        let warm_micros_max = self.metrics.warm_micros_max.load(Ordering::Relaxed);
        FleetStatus {
            tenants,
            warm,
            cold: tenants - warm,
            warm_limit: self.warm_limit,
            evictions,
            warms,
            ticks,
            warm_micros_mean: total.checked_div(warms).unwrap_or(0),
            warm_micros_max,
            health: self.health().name(),
        }
    }

    /// Prometheus exposition of the fleet: fleet-level series always, and
    /// — when [`FleetBuilder::per_tenant_telemetry`] is on — every warm
    /// tenant's full engine telemetry with each context label namespaced
    /// as `tenant/context`.
    pub fn render_prometheus(&self) -> String {
        let status = self.status();
        let mut out = String::new();
        let fleet_series: &[(&str, u64)] = &[
            ("ix_fleet_tenants", status.tenants as u64),
            ("ix_fleet_tenants_warm", status.warm as u64),
            ("ix_fleet_tenants_cold", status.cold as u64),
            ("ix_fleet_warm_limit", status.warm_limit as u64),
            ("ix_fleet_evictions_total", status.evictions),
            ("ix_fleet_warms_total", status.warms),
            ("ix_fleet_ticks_total", status.ticks),
            ("ix_fleet_warm_micros_mean", status.warm_micros_mean),
            ("ix_fleet_warm_micros_max", status.warm_micros_max),
        ];
        for (name, value) in fleet_series {
            out.push_str(&format!("{name} {value}\n"));
        }
        out.push_str(&format!(
            "ix_fleet_health{{state=\"{}\"}} 1\n",
            status.health
        ));
        let snapshots: Vec<(TenantId, TelemetrySnapshot)> = self
            .lock()
            .warm_tenants()
            .filter_map(|(id, w)| w.telemetry.as_ref().map(|hub| (id.clone(), hub.snapshot())))
            .collect();
        for (tenant, mut snap) in snapshots {
            for scope in &mut snap.contexts {
                scope.context = format!("{tenant}/{}", scope.context);
            }
            snap.total.context = format!("{tenant}/(all)");
            out.push_str(&snap.render_prometheus());
        }
        out
    }
}

/// Moves `image`, taken from warm slot `i`'s `engine` to be encoded, back
/// into it. The take left the engine empty and nothing has run on it
/// since, under the fleet lock, so it takes its own image back; were it
/// to refuse, the slot would go cold holding the image, so nothing is
/// lost either way.
fn put_back(inner: &mut FleetInner, i: usize, engine: &Engine, image: EngineImage) {
    if let Err(refused) = engine.install_image(image) {
        inner.slots[i].state = State::Cold(ColdTenant::Image(*refused.image));
        inner.unlink(i);
    }
}

/// Writes `bytes` to `path` so that a crash leaves either the previous
/// file or the complete new one, never a torn mix: the bytes go to a
/// temporary file beside `path`, are synced to disk, and the temporary
/// file is then renamed over `path`. Syncing the directory afterwards
/// makes the rename itself durable.
fn write_durably(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => File::open(dir)?.sync_all(),
        _ => Ok(()),
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = self.status();
        f.debug_struct("Fleet")
            .field("tenants", &status.tenants)
            .field("warm", &status.warm)
            .field("warm_limit", &self.warm_limit)
            .field("snapshot_dir", &self.snapshot_dir)
            .finish()
    }
}
