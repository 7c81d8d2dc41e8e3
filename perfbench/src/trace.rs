//! Per-layer tracing for `--trace 1`: a transport that carries each
//! request through the serving layers in-process and times every call,
//! an event sink that splits the fleet handler at the engine's own
//! events, and an allocation counter.
//!
//! The layers, in request order:
//!
//! - `wire_encode`: the client's JSON payload and `IXSRV01` frame;
//! - `wire_decode`: the server's `read_frame` and `decode_request`;
//! - inside `handle_request`, split where `TenantEvicted`, `TenantWarmed`,
//!   `TickIngested` and `DiagnosisRan` arrive: the eviction a cold tenant
//!   forces (payload decode, LRU victim search, snapshot encode), the warm
//!   itself, the ingest up to the engine's tick event (for a warm tenant
//!   this includes payload decode and fleet lookup), the diagnosis an
//!   anomaly onset triggers inside an ingest, an on-demand diagnosis
//!   (window copy, sweep or screen, rank), and the reply after the last
//!   event;
//! - `wire_reply`: the response frame and the client's reply decode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use ix_core::{pair_count, Diagnosis, EngineEvent, EventSink, OperationContext};
use ix_serve::wire::{
    self, DiagnoseRequest, IngestReply, IngestRequest, Op, RequestFrame, DEFAULT_MAX_FRAME_BYTES,
};
use ix_serve::{handle_request, Fleet, ServeError, TenantId, STATUS_OK};

use crate::drive::Transport;
use crate::Metric;

/// The system allocator, counting calls once a [`Traced`] transport
/// exists.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count_allocation() {
    // ordering: Relaxed — a statistic that publishes no other data.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

fn allocations() -> u64 {
    // ordering: Relaxed — a statistic that publishes no other data.
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// An event that closes a layer inside `handle_request`.
#[derive(Debug, Clone, Copy)]
enum Mark {
    Evicted,
    Warmed,
    Ingested,
    Diagnosed,
}

#[derive(Debug, Default)]
struct Seen {
    /// When each layer-closing event of the current request arrived.
    marks: Vec<(Instant, Mark)>,
    diagnoses: u64,
    full_sweeps: u64,
    full_sweep_micros: u64,
    swept_pairs: u64,
    screened_pairs: u64,
}

/// The fleet's event sink in traced runs.
#[derive(Debug, Default)]
pub struct LayerSink(Mutex<Seen>);

impl LayerSink {
    fn seen(&self) -> MutexGuard<'_, Seen> {
        // Every update leaves `Seen` valid, so a poisoned guard is usable.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl EventSink for LayerSink {
    fn record(&self, event: &EngineEvent) {
        let mark = match *event {
            EngineEvent::TenantEvicted { .. } => Mark::Evicted,
            EngineEvent::TenantWarmed { .. } => Mark::Warmed,
            EngineEvent::TickIngested { .. } => Mark::Ingested,
            EngineEvent::DiagnosisRan { .. } => Mark::Diagnosed,
            EngineEvent::SweepCompleted { pairs, micros, .. } => {
                let mut seen = self.seen();
                seen.swept_pairs += pairs as u64;
                if pairs == pair_count() {
                    seen.full_sweeps += 1;
                    seen.full_sweep_micros += micros;
                }
                return;
            }
            EngineEvent::SweepScreened { screened, .. } => {
                self.seen().screened_pairs += screened as u64;
                return;
            }
            _ => return,
        };
        let at = Instant::now();
        let mut seen = self.seen();
        if matches!(mark, Mark::Diagnosed) {
            seen.diagnoses += 1;
        }
        seen.marks.push((at, mark));
    }
}

/// Per-layer sums over the measured requests.
#[derive(Debug, Default)]
struct Layers {
    requests: u64,
    encode_ns: u64,
    decode_ns: u64,
    reply_ns: u64,
    request_bytes: u64,
    reply_bytes: u64,
    evictions: u64,
    evict_ns: u64,
    warms: u64,
    warm_ns: u64,
    ticks: u64,
    ingest_ns: u64,
    tick_reply_ns: u64,
    tick_allocs: u64,
    onsets: u64,
    onset_diagnose_ns: u64,
    diagnoses: u64,
    diagnose_ns: u64,
    diagnose_reply_ns: u64,
    diagnose_allocs: u64,
}

/// Carries each request through the serving layers in-process, in the
/// order a server connection runs them, and times each layer.
pub struct Traced {
    fleet: Arc<Fleet>,
    sink: Arc<LayerSink>,
    layers: Layers,
}

impl Traced {
    /// `sink` must be the event sink `fleet` was built with.
    pub fn new(fleet: Arc<Fleet>, sink: Arc<LayerSink>) -> Traced {
        // ordering: Relaxed — a statistic switch that publishes no data.
        COUNTING.store(true, Ordering::Relaxed);
        Traced {
            fleet,
            sink,
            layers: Layers::default(),
        }
    }

    fn call<T>(
        &mut self,
        tenant: &TenantId,
        op: Op,
        payload: impl FnOnce() -> Result<String, ServeError>,
        parse: impl FnOnce(&str) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let started = Instant::now();
        let frame = RequestFrame {
            tenant: tenant.clone(),
            op,
            payload: payload()?.into_bytes(),
        };
        let mut request = Vec::new();
        wire::write_frame(&mut request, &wire::encode_request(&frame))?;
        let encoded = Instant::now();
        let frame = wire::decode_request(&read_frame(&request)?)?;
        let decoded = Instant::now();
        self.sink.seen().marks.clear();
        let allocs_before = allocations();
        let (status, reply) = handle_request(&self.fleet, &frame);
        let allocs = allocations() - allocs_before;
        let handled = Instant::now();
        let marks = self.sink.seen().marks.clone();
        let mut response = Vec::new();
        wire::write_frame(&mut response, &wire::encode_response(status, &reply))?;
        let (status, payload) = wire::decode_response(&read_frame(&response)?)?;
        let parsed = if status == STATUS_OK {
            std::str::from_utf8(&payload)
                .map_err(protocol)
                .and_then(parse)
        } else {
            Err(ServeError::Status {
                code: status,
                message: String::from_utf8_lossy(&payload).into_owned(),
            })
        };
        let replied = Instant::now();

        let l = &mut self.layers;
        l.requests += 1;
        l.encode_ns += nanos(started, encoded);
        l.decode_ns += nanos(encoded, decoded);
        l.reply_ns += nanos(handled, replied);
        l.request_bytes += request.len() as u64;
        l.reply_bytes += response.len() as u64;
        let mut from = decoded;
        for (at, mark) in marks {
            let spent = nanos(from, at);
            from = at;
            match mark {
                Mark::Evicted => {
                    l.evictions += 1;
                    l.evict_ns += spent;
                }
                Mark::Warmed => {
                    l.warms += 1;
                    l.warm_ns += spent;
                }
                Mark::Ingested => l.ingest_ns += spent,
                Mark::Diagnosed if op == Op::Ingest => {
                    l.onsets += 1;
                    l.onset_diagnose_ns += spent;
                }
                Mark::Diagnosed => l.diagnose_ns += spent,
            }
        }
        let tail = nanos(from, handled);
        if op == Op::Ingest {
            l.ticks += 1;
            l.tick_reply_ns += tail;
            l.tick_allocs += allocs;
        } else {
            l.diagnoses += 1;
            l.diagnose_reply_ns += tail;
            l.diagnose_allocs += allocs;
        }
        parsed
    }

    /// The per-layer metrics of the measured requests.
    pub fn metrics(&self) -> Vec<Metric> {
        let l = &self.layers;
        let seen = self.sink.seen();
        let per = |sum: u64, n: u64| {
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64
            }
        };
        vec![
            ("wire_encode_ns", per(l.encode_ns, l.requests), "ns"),
            ("wire_decode_ns", per(l.decode_ns, l.requests), "ns"),
            ("fleet_evict_ns", per(l.evict_ns, l.evictions), "ns"),
            ("fleet_warm_ns", per(l.warm_ns, l.warms), "ns"),
            ("ingest_ns", per(l.ingest_ns, l.ticks), "ns"),
            ("tick_reply_ns", per(l.tick_reply_ns, l.ticks), "ns"),
            ("diagnose_ns", per(l.diagnose_ns, l.diagnoses), "ns"),
            (
                "onset_diagnose_ns",
                per(l.onset_diagnose_ns, l.onsets),
                "ns",
            ),
            (
                "diagnose_reply_ns",
                per(l.diagnose_reply_ns, l.diagnoses),
                "ns",
            ),
            ("wire_reply_ns", per(l.reply_ns, l.requests), "ns"),
            (
                "full_sweep_us",
                per(seen.full_sweep_micros, seen.full_sweeps),
                "us",
            ),
            (
                "evictions_per_kilotick",
                per(1000 * l.evictions, l.ticks),
                "count",
            ),
            (
                "onsets_per_kilotick",
                per(1000 * l.onsets, l.ticks),
                "count",
            ),
            (
                "swept_pairs_per_diagnosis",
                per(seen.swept_pairs, seen.diagnoses),
                "count",
            ),
            (
                "screened_pairs_per_diagnosis",
                per(seen.screened_pairs, seen.diagnoses),
                "count",
            ),
            ("allocs_per_tick", per(l.tick_allocs, l.ticks), "count"),
            (
                "allocs_per_diagnose",
                per(l.diagnose_allocs, l.diagnoses),
                "count",
            ),
            ("request_bytes", per(l.request_bytes, l.requests), "B"),
            ("reply_bytes", per(l.reply_bytes, l.requests), "B"),
        ]
    }
}

impl Transport for Traced {
    fn ingest(
        &mut self,
        tenant: &TenantId,
        context: &OperationContext,
        cpi: f64,
        row: &[f64],
    ) -> Result<IngestReply, ServeError> {
        let payload = || {
            serde_json::to_string(&IngestRequest {
                node: context.node.clone(),
                workload: context.workload.clone(),
                cpi,
                row: row.to_vec(),
            })
            .map_err(protocol)
        };
        self.call(tenant, Op::Ingest, payload, |text| {
            serde_json::from_str(text).map_err(protocol)
        })
    }

    fn diagnose(
        &mut self,
        tenant: &TenantId,
        context: &OperationContext,
    ) -> Result<Diagnosis, ServeError> {
        let payload = || {
            serde_json::to_string(&DiagnoseRequest {
                node: context.node.clone(),
                workload: context.workload.clone(),
            })
            .map_err(protocol)
        };
        self.call(tenant, Op::Diagnose, payload, |text| {
            serde_json::from_str(text).map_err(protocol)
        })
    }

    fn start_measuring(&mut self) {
        self.layers = Layers::default();
        *self.sink.seen() = Seen::default();
    }
}

fn read_frame(bytes: &[u8]) -> Result<Vec<u8>, ServeError> {
    wire::read_frame(&mut &bytes[..], DEFAULT_MAX_FRAME_BYTES)?
        .ok_or_else(|| ServeError::Protocol("empty frame buffer".to_string()))
}

fn protocol(e: impl std::fmt::Display) -> ServeError {
    ServeError::Protocol(e.to_string())
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}
