//! The `IXSRV01` TCP server: a thread-per-core accept loop over a
//! shared [`Fleet`].
//!
//! Each accept thread owns a clone of the listening socket and serves
//! its accepted connection to completion — frames on one connection are
//! sequential by construction, so per-connection state is one bounded
//! read buffer ([`ServerBuilder::max_frame_bytes`]) plus the reply
//! buffers, all reused from one request to the next. A frame that
//! arrives in pieces, with pauses longer than the socket's read timeout,
//! is resumed, not dropped. Overload never sheds silently: ticks route
//! through the fleet's engines, whose [`ix_core::OverloadPolicy`]
//! declares every shed on the event stream, and protocol-level
//! rejections cross back to the client as non-zero response statuses.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ix_core::OperationContext;

use crate::error::{ServeError, STATUS_OK};
use crate::fleet::Fleet;
use crate::tenant::TenantId;
use crate::wire::{
    self, DiagnoseRequest, DrainReply, DrainRequest, Encoding, FrameReader, HealthReply,
    IngestReply, IngestRequest, Op, RequestFrame, DEFAULT_MAX_FRAME_BYTES,
};

/// How long an idle accept thread sleeps between polls.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Assembles and starts a [`ServerHandle`]; obtain one from
/// [`ServerHandle::builder`].
#[must_use = "builder methods return the builder; call .start() to run the server"]
#[derive(Debug)]
pub struct ServerBuilder {
    addr: String,
    accept_threads: usize,
    max_frame_bytes: usize,
}

impl ServerBuilder {
    fn new() -> Self {
        ServerBuilder {
            addr: "127.0.0.1:0".to_string(),
            accept_threads: 0,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }

    /// The address to bind (defaults to `127.0.0.1:0` — loopback, OS
    /// picks the port; read it back from [`ServerHandle::addr`]).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Accept threads to run (defaults to one per available core).
    pub fn accept_threads(mut self, threads: usize) -> Self {
        self.accept_threads = threads;
        self
    }

    /// Per-connection frame size limit in bytes (defaults to 1 MiB).
    pub fn max_frame_bytes(mut self, max: usize) -> Self {
        self.max_frame_bytes = max.max(16);
        self
    }

    /// Binds the listener and starts the accept threads.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the bind fails.
    pub fn start(self, fleet: Arc<Fleet>) -> Result<ServerHandle, ServeError> {
        let listener = TcpListener::bind(&self.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let threads = if self.accept_threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.accept_threads
        };
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let listener = listener.try_clone()?;
            let fleet = Arc::clone(&fleet);
            let stop = Arc::clone(&stop);
            let max = self.max_frame_bytes;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ix-serve-accept-{i}"))
                    .spawn(move || accept_loop(&listener, &fleet, &stop, max))
                    .map_err(ServeError::Io)?,
            );
        }
        Ok(ServerHandle {
            addr,
            stop,
            workers,
        })
    }
}

/// A running `IXSRV01` server; dropping it without [`ServerHandle::stop`]
/// leaves the accept threads running for the process lifetime.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The builder-first construction path.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }

    /// The bound address (with the OS-assigned port when the builder
    /// bound port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the accept threads to stop and joins them. In-flight
    /// connections finish their current frame; new connections are no
    /// longer accepted.
    pub fn stop(self) {
        // ordering: Release pairs with the Acquire load in accept_loop so
        // a joined worker observed the flag, not a stale false.
        self.stop.store(true, Ordering::Release);
        for worker in self.workers {
            // A worker that panicked already tore its connection down;
            // joining it is best-effort cleanup, not a correctness gate.
            let _ = worker.join();
        }
    }
}

/// One accept thread: poll-accept on the shared listener, serve each
/// accepted connection to completion.
fn accept_loop(listener: &TcpListener, fleet: &Fleet, stop: &AtomicBool, max_frame: usize) {
    // ordering: Acquire pairs with the Release store in ServerHandle::stop.
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // A connection that errors mid-frame is simply dropped;
                // protocol errors inside intact frames were already
                // answered with status frames.
                let _ = serve_connection(stream, fleet, stop, max_frame);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Serves one connection: sequential `IXSRV01` frames until EOF. The
/// frame and payload buffers are the connection's, reused from one
/// request to the next.
fn serve_connection(
    stream: TcpStream,
    fleet: &Fleet,
    stop: &AtomicBool,
    max_frame: usize,
) -> Result<(), ServeError> {
    stream.set_nonblocking(false)?;
    // Frames are request/response sized, not stream sized: Nagle's
    // algorithm would hold every response for the peer's delayed ACK.
    stream.set_nodelay(true)?;
    // A read timeout keeps a silent client from pinning its accept
    // thread past shutdown.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let mut frames = FrameReader::default();
    let mut payload = Vec::new();
    let mut out = Vec::new();
    loop {
        // ordering: Acquire pairs with the Release store in stop().
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let body = match frames.read(&mut reader, max_frame) {
            Ok(Some(body)) => body,
            Ok(None) => return Ok(()),
            // The timeout fired between reads: `frames` keeps whatever
            // part of a frame has arrived, and the next read resumes it.
            Err(ServeError::Io(e))
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e @ ServeError::FrameTooLarge { .. }) => {
                // The prefix itself is trusted no further: answer, then
                // drop the connection rather than resync mid-stream.
                let status = error_reply(&e, &mut payload);
                wire::write_frame_with(&mut writer, &mut out, |o| {
                    wire::push_response(o, status, &payload)
                })?;
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let handled = wire::parse_request(body).and_then(|(op, tenant, request)| {
            Ok(handle(
                fleet,
                &TenantId::new(tenant)?,
                op,
                request,
                &mut payload,
            ))
        });
        let status = handled.unwrap_or_else(|e| error_reply(&e, &mut payload));
        wire::write_frame_with(&mut writer, &mut out, |o| {
            wire::push_response(o, status, &payload)
        })?;
    }
}

/// Executes one decoded request against the fleet, returning the wire
/// status and response payload.
pub fn handle_request(fleet: &Fleet, request: &RequestFrame) -> (u16, Vec<u8>) {
    let mut payload = Vec::new();
    let status = handle(
        fleet,
        &request.tenant,
        request.op,
        &request.payload,
        &mut payload,
    );
    (status, payload)
}

/// [`handle_request`] over borrowed parts, leaving the response payload
/// in `out`.
fn handle(fleet: &Fleet, tenant: &TenantId, op: Op, request: &[u8], out: &mut Vec<u8>) -> u16 {
    match dispatch(fleet, tenant, op, request, out) {
        Ok(()) => STATUS_OK,
        Err(e) => error_reply(&e, out),
    }
}

/// Puts `e`'s text in `out` and returns its status.
fn error_reply(e: &ServeError, out: &mut Vec<u8>) -> u16 {
    out.clear();
    out.extend_from_slice(e.to_string().as_bytes());
    e.status()
}

/// Runs one request. A payload is binary unless it starts with `{`; a
/// JSON request gets a JSON reply (see [`wire`]'s compat rule).
fn dispatch(
    fleet: &Fleet,
    tenant: &TenantId,
    op: Op,
    request: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), ServeError> {
    let encoding = Encoding::of(request);
    match op {
        Op::Ingest => {
            let req: IngestRequest = encoding.decode(request)?;
            let context = OperationContext {
                node: req.node,
                workload: req.workload,
            };
            let outcome = fleet.ingest(tenant, &context, req.cpi, &req.row)?;
            let reply = IngestReply {
                tick: outcome.tick as u64,
                residual: outcome.residual,
                exceeded: outcome.exceeded,
                anomalous: outcome.anomalous,
                diagnosis: outcome.diagnosis,
            };
            encoding.encode(&reply, out)
        }
        Op::Drain => {
            let req: DrainRequest = encoding.decode(request)?;
            let results = fleet.drain(tenant, req.max_ticks)?;
            let errors = results.iter().filter(|(_, r)| r.is_err()).count() as u64;
            let reply = DrainReply {
                drained: results.len() as u64 - errors,
                errors,
            };
            encoding.encode(&reply, out)
        }
        Op::Diagnose => {
            let req: DiagnoseRequest = encoding.decode(request)?;
            let context = OperationContext {
                node: req.node,
                workload: req.workload,
            };
            encoding.encode(&fleet.diagnose(tenant, &context)?, out)
        }
        Op::Health => {
            let status = fleet.status();
            let reply = HealthReply {
                tenants: status.tenants as u64,
                warm: status.warm as u64,
                cold: status.cold as u64,
                evictions: status.evictions,
                warms: status.warms,
                ticks: status.ticks,
                health: status.health.to_string(),
            };
            wire::json_into(&reply, out)
        }
        Op::Snapshot => {
            *out = fleet.snapshot_bytes(tenant)?;
            Ok(())
        }
    }
}
