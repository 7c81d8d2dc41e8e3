//! The `IXSRV01` length-prefixed binary serving protocol, and the one
//! codec for its payloads.
//!
//! Every message is one *frame*: a little-endian `u32` byte length
//! followed by that many body bytes. Request bodies are
//!
//! | field | size | meaning |
//! |---|---|---|
//! | `version` | `u8` | protocol version ([`PROTOCOL_VERSION`]) |
//! | `op` | `u8` | operation ([`Op`]) |
//! | `tenant_len` | `u16` LE | tenant id byte length |
//! | `tenant` | `tenant_len` | tenant id, UTF-8 |
//! | `payload_len` | `u32` LE | payload byte length |
//! | `payload` | `payload_len` | op-specific payload |
//!
//! and response bodies are
//!
//! | field | size | meaning |
//! |---|---|---|
//! | `version` | `u8` | protocol version |
//! | `status` | `u16` LE | `0` ok; `1..=99` [`ix_core::ErrorCode`]; `100..` serve statuses |
//! | `payload_len` | `u32` LE | payload byte length |
//! | `payload` | `payload_len` | binary reply, JSON health, snapshot bytes, or error text |
//!
//! # Payloads (version 2)
//!
//! Ingest, Drain and Diagnose requests and their replies are binary: the
//! [`BINARY_TAG`] byte, then the fields below, little-endian, written
//! with `ix-history`'s [`Writer`] and read with its bounds-checked
//! [`Reader`] (the cursor tenant snapshots use). `str` is a `u32` byte
//! length plus UTF-8; `f64` is the raw IEEE-754 bits, so NaN and ∞ reach
//! the engine's own checks; `bool` and `option` are one byte, `0` or `1`.
//!
//! | payload | fields after the tag |
//! |---|---|
//! | [`IngestRequest`] | node `str`, workload `str`, cpi `f64`, `u32` count + row `f64`s |
//! | [`DrainRequest`] | max_ticks `u64` |
//! | [`DiagnoseRequest`] | node `str`, workload `str` |
//! | [`IngestReply`] | tick `u64`, residual `f64`, exceeded `bool`, anomalous `bool`, diagnosis `option` + the [`Diagnosis`] fields |
//! | [`DrainReply`] | drained `u64`, errors `u64` |
//! | [`Diagnosis`] | the diagnosis layout of [`ix_history::codec`]: `u32` count + causes (problem `str`, similarity `f64`), `u32` count + tuple `f64`s, degradation `option` + tier `u8` + reason `u8` |
//!
//! Decoding checks every count and length against the bytes left before
//! it allocates, and refuses trailing bytes, a `bool` or `option` byte
//! other than `0`/`1`, an unknown tier or reason and non-UTF-8 text — so
//! a payload that decodes re-encodes byte-identically. Every refusal is
//! a [`ServeError::Protocol`].
//!
//! Health replies are JSON ([`HealthReply`]; the request is empty),
//! Snapshot replies are raw `IXHIST01` bytes, and a non-zero status
//! carries the error's text.
//!
//! **JSON compat.** A request payload whose first byte is `{` is decoded
//! as the version-1 JSON shape of the same struct and answered in JSON;
//! [`BINARY_TAG`] is never `{`, so the first byte decides. The
//! [`ServeClient`](crate::ServeClient) speaks only binary; the compat
//! path serves callers that build JSON payloads themselves and hand them
//! to [`handle_request`](crate::handle_request).
//!
//! Frames are bounded — both sides reject a declared length over their
//! limit *before* allocating, so a hostile or corrupt prefix cannot
//! balloon a connection's memory.

use std::io::{ErrorKind, Read, Write};

use ix_core::Diagnosis;
use ix_history::{codec, HistoryFileError, Reader, Writer};
use serde::{DeError, Deserialize, Serialize, Value};

use crate::error::ServeError;
use crate::tenant::TenantId;

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 2;

/// First byte of every binary payload. JSON payloads start with `{`, so
/// this one byte tells the two apart.
pub const BINARY_TAG: u8 = 0xB1;

/// Default per-connection frame size limit (1 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// The operation a request frame asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ingest one tick synchronously (payload: binary [`IngestRequest`];
    /// reply: [`IngestReply`]).
    Ingest,
    /// Drain the tenant's ingest queue (payload: binary [`DrainRequest`];
    /// reply: [`DrainReply`]).
    Drain,
    /// Diagnose a context's current window (payload: binary
    /// [`DiagnoseRequest`]; reply: [`Diagnosis`]).
    Diagnose,
    /// Report fleet health and counters (empty payload; reply: JSON
    /// [`HealthReply`]).
    Health,
    /// Return the tenant's snapshot bytes (empty payload; reply: raw
    /// `IXHIST01` bytes).
    Snapshot,
}

impl Op {
    /// The stable op byte.
    pub fn as_u8(self) -> u8 {
        match self {
            Op::Ingest => 0,
            Op::Drain => 1,
            Op::Diagnose => 2,
            Op::Health => 3,
            Op::Snapshot => 4,
        }
    }

    /// The operation behind an op byte.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownOp`] for a byte no operation claims.
    pub fn from_u8(byte: u8) -> Result<Op, ServeError> {
        match byte {
            0 => Ok(Op::Ingest),
            1 => Ok(Op::Drain),
            2 => Ok(Op::Diagnose),
            3 => Ok(Op::Health),
            4 => Ok(Op::Snapshot),
            other => Err(ServeError::UnknownOp(other)),
        }
    }
}

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// The tenant the request addresses.
    pub tenant: TenantId,
    /// The requested operation.
    pub op: Op,
    /// The op-specific payload.
    pub payload: Vec<u8>,
}

/// `Op::Ingest` payload: one tick for one tenant context.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRequest {
    /// Context node half.
    pub node: String,
    /// Context workload half.
    pub workload: String,
    /// The CPI sample.
    pub cpi: f64,
    /// The metric row.
    pub row: Vec<f64>,
}

impl Serialize for IngestRequest {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("node".to_string(), self.node.to_value()),
            ("workload".to_string(), self.workload.to_value()),
            ("cpi".to_string(), self.cpi.to_value()),
            ("row".to_string(), self.row.to_value()),
        ])
    }
}

impl Deserialize for IngestRequest {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(IngestRequest {
            node: String::from_value(value.field("node")?)?,
            workload: String::from_value(value.field("workload")?)?,
            cpi: f64::from_value(value.field("cpi")?)?,
            row: Vec::<f64>::from_value(value.field("row")?)?,
        })
    }
}

impl BinaryPayload for IngestRequest {
    fn write_fields(&self, w: &mut Writer) {
        write_ingest(w, &self.node, &self.workload, self.cpi, &self.row);
    }

    fn read_fields(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        let node = r.str()?.to_owned();
        let workload = r.str()?.to_owned();
        let cpi = r.f64()?;
        let n = r.count(8)?;
        Ok(IngestRequest {
            node,
            workload,
            cpi,
            row: r.f64s(n)?,
        })
    }
}

/// `Op::Drain` payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainRequest {
    /// Upper bound on ticks to drain.
    pub max_ticks: usize,
}

impl Serialize for DrainRequest {
    fn to_value(&self) -> Value {
        Value::Object(vec![(
            "max_ticks".to_string(),
            (self.max_ticks as u64).to_value(),
        )])
    }
}

impl Deserialize for DrainRequest {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(DrainRequest {
            max_ticks: u64::from_value(value.field("max_ticks")?)? as usize,
        })
    }
}

impl BinaryPayload for DrainRequest {
    fn write_fields(&self, w: &mut Writer) {
        w.u64(self.max_ticks as u64);
    }

    fn read_fields(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        let max_ticks = r.u64()?;
        Ok(DrainRequest {
            max_ticks: usize::try_from(max_ticks).map_err(|_| {
                HistoryFileError::Format(format!("max_ticks {max_ticks} overflows usize"))
            })?,
        })
    }
}

/// `Op::Diagnose` payload: which context to diagnose.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnoseRequest {
    /// Context node half.
    pub node: String,
    /// Context workload half.
    pub workload: String,
}

impl Serialize for DiagnoseRequest {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("node".to_string(), self.node.to_value()),
            ("workload".to_string(), self.workload.to_value()),
        ])
    }
}

impl Deserialize for DiagnoseRequest {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(DiagnoseRequest {
            node: String::from_value(value.field("node")?)?,
            workload: String::from_value(value.field("workload")?)?,
        })
    }
}

impl BinaryPayload for DiagnoseRequest {
    fn write_fields(&self, w: &mut Writer) {
        write_context(w, &self.node, &self.workload);
    }

    fn read_fields(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        Ok(DiagnoseRequest {
            node: r.str()?.to_owned(),
            workload: r.str()?.to_owned(),
        })
    }
}

/// `Op::Ingest` success reply: the engine's tick outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReply {
    /// Zero-based tick index within the current run.
    pub tick: u64,
    /// The detector's per-tick score.
    pub residual: f64,
    /// Whether the score exceeded the detector's threshold.
    pub exceeded: bool,
    /// Whether the detector reports a performance problem.
    pub anomalous: bool,
    /// Cause inference, when the tick was an anomaly onset.
    pub diagnosis: Option<Diagnosis>,
}

impl Serialize for IngestReply {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("tick".to_string(), self.tick.to_value()),
            ("residual".to_string(), self.residual.to_value()),
            ("exceeded".to_string(), self.exceeded.to_value()),
            ("anomalous".to_string(), self.anomalous.to_value()),
            ("diagnosis".to_string(), self.diagnosis.to_value()),
        ])
    }
}

impl Deserialize for IngestReply {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(IngestReply {
            tick: u64::from_value(value.field("tick")?)?,
            residual: f64::from_value(value.field("residual")?)?,
            exceeded: bool::from_value(value.field("exceeded")?)?,
            anomalous: bool::from_value(value.field("anomalous")?)?,
            diagnosis: Option::<Diagnosis>::from_value(value.field("diagnosis")?)?,
        })
    }
}

impl BinaryPayload for IngestReply {
    fn write_fields(&self, w: &mut Writer) {
        w.u64(self.tick);
        w.f64(self.residual);
        w.bool(self.exceeded);
        w.bool(self.anomalous);
        w.bool(self.diagnosis.is_some());
        if let Some(diagnosis) = &self.diagnosis {
            diagnosis.write_fields(w);
        }
    }

    fn read_fields(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        Ok(IngestReply {
            tick: r.u64()?,
            residual: r.f64()?,
            exceeded: r.bool("exceeded")?,
            anomalous: r.bool("anomalous")?,
            diagnosis: if r.bool("diagnosis option")? {
                Some(Diagnosis::read_fields(r)?)
            } else {
                None
            },
        })
    }
}

/// `Op::Drain` success reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReply {
    /// Ticks drained and processed successfully.
    pub drained: u64,
    /// Ticks drained that the engine rejected.
    pub errors: u64,
}

impl Serialize for DrainReply {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("drained".to_string(), self.drained.to_value()),
            ("errors".to_string(), self.errors.to_value()),
        ])
    }
}

impl Deserialize for DrainReply {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(DrainReply {
            drained: u64::from_value(value.field("drained")?)?,
            errors: u64::from_value(value.field("errors")?)?,
        })
    }
}

impl BinaryPayload for DrainReply {
    fn write_fields(&self, w: &mut Writer) {
        w.u64(self.drained);
        w.u64(self.errors);
    }

    fn read_fields(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        Ok(DrainReply {
            drained: r.u64()?,
            errors: r.u64()?,
        })
    }
}

/// `Op::Diagnose` success reply and the diagnosis nested in an onset
/// [`IngestReply`].
impl BinaryPayload for Diagnosis {
    fn write_fields(&self, w: &mut Writer) {
        codec::write_diagnosis(w, self);
    }

    fn read_fields(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        codec::read_diagnosis(r)
    }
}

/// `Op::Health` success reply: the fleet's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReply {
    /// Registered tenants (warm + cold).
    pub tenants: u64,
    /// Currently warm tenants.
    pub warm: u64,
    /// Currently cold tenants.
    pub cold: u64,
    /// Lifetime evictions.
    pub evictions: u64,
    /// Lifetime warms.
    pub warms: u64,
    /// Ticks ingested through the fleet surface.
    pub ticks: u64,
    /// The folded fleet health state name.
    pub health: String,
}

impl Serialize for HealthReply {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("tenants".to_string(), self.tenants.to_value()),
            ("warm".to_string(), self.warm.to_value()),
            ("cold".to_string(), self.cold.to_value()),
            ("evictions".to_string(), self.evictions.to_value()),
            ("warms".to_string(), self.warms.to_value()),
            ("ticks".to_string(), self.ticks.to_value()),
            ("health".to_string(), self.health.to_value()),
        ])
    }
}

impl Deserialize for HealthReply {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(HealthReply {
            tenants: u64::from_value(value.field("tenants")?)?,
            warm: u64::from_value(value.field("warm")?)?,
            cold: u64::from_value(value.field("cold")?)?,
            evictions: u64::from_value(value.field("evictions")?)?,
            warms: u64::from_value(value.field("warms")?)?,
            ticks: u64::from_value(value.field("ticks")?)?,
            health: String::from_value(value.field("health")?)?,
        })
    }
}

/// A payload with a binary layout (see the module docs). Encode and
/// decode it with [`encode_binary`] and [`decode_binary`], which add and
/// check the [`BINARY_TAG`].
pub trait BinaryPayload: Sized {
    /// Appends the payload's fields.
    fn write_fields(&self, w: &mut Writer);

    /// Reads the payload's fields.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] on truncation or a field the layout
    /// does not allow.
    fn read_fields(r: &mut Reader<'_>) -> Result<Self, HistoryFileError>;
}

/// Encodes `value` as a binary payload: [`BINARY_TAG`], then its fields.
pub fn encode_binary<T: BinaryPayload>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    binary_into(&mut out, |w| value.write_fields(w));
    out
}

/// Decodes a binary payload.
///
/// # Errors
///
/// [`ServeError::Protocol`] for a missing or wrong tag, truncation,
/// trailing bytes or a field the layout does not allow.
pub fn decode_binary<T: BinaryPayload>(payload: &[u8]) -> Result<T, ServeError> {
    let mut r = Reader::new(payload);
    let tag = r.u8().map_err(|e| protocol("payload", e))?;
    if tag != BINARY_TAG {
        return Err(ServeError::Protocol(format!(
            "payload tag {tag:#04x} is neither binary ({BINARY_TAG:#04x}) nor JSON"
        )));
    }
    let value = T::read_fields(&mut r).map_err(|e| protocol("payload", e))?;
    finish(&r, "payload")?;
    Ok(value)
}

/// Clears `out` and writes one binary payload into it, reusing its
/// allocation.
pub(crate) fn binary_into(out: &mut Vec<u8>, fields: impl FnOnce(&mut Writer)) {
    out.clear();
    let mut w = Writer::from(std::mem::take(out));
    w.u8(BINARY_TAG);
    fields(&mut w);
    *out = w.into_bytes();
}

/// The [`IngestRequest`] fields, from borrowed parts.
pub(crate) fn write_ingest(w: &mut Writer, node: &str, workload: &str, cpi: f64, row: &[f64]) {
    write_context(w, node, workload);
    w.f64(cpi);
    w.u32_field(row.len());
    w.f64s(row);
}

/// The [`DiagnoseRequest`] fields, from borrowed parts.
pub(crate) fn write_context(w: &mut Writer, node: &str, workload: &str) {
    w.bytes(node.as_bytes());
    w.bytes(workload.as_bytes());
}

/// How a request payload is encoded, and so how its reply is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Encoding {
    /// [`BINARY_TAG`] and a binary layout.
    Binary,
    /// The JSON compat shape: the payload starts with `{`.
    Json,
}

impl Encoding {
    /// The encoding a request payload's first byte declares.
    pub(crate) fn of(payload: &[u8]) -> Encoding {
        if payload.first() == Some(&b'{') {
            Encoding::Json
        } else {
            Encoding::Binary
        }
    }

    /// Decodes a request payload in this encoding.
    pub(crate) fn decode<T: BinaryPayload + Deserialize>(
        self,
        payload: &[u8],
    ) -> Result<T, ServeError> {
        match self {
            Encoding::Binary => decode_binary(payload),
            Encoding::Json => {
                let text = std::str::from_utf8(payload)
                    .map_err(|e| ServeError::Protocol(format!("payload not UTF-8: {e}")))?;
                serde_json::from_str(text)
                    .map_err(|e| ServeError::Protocol(format!("payload: {e}")))
            }
        }
    }

    /// Clears `out` and encodes a reply into it in this encoding.
    pub(crate) fn encode<T: BinaryPayload + Serialize>(
        self,
        value: &T,
        out: &mut Vec<u8>,
    ) -> Result<(), ServeError> {
        match self {
            Encoding::Binary => {
                binary_into(out, |w| value.write_fields(w));
                Ok(())
            }
            Encoding::Json => json_into(value, out),
        }
    }
}

/// Clears `out` and writes `value`'s JSON into it.
pub(crate) fn json_into<T: Serialize>(value: &T, out: &mut Vec<u8>) -> Result<(), ServeError> {
    let text =
        serde_json::to_string(value).map_err(|e| ServeError::Protocol(format!("encode: {e}")))?;
    out.clear();
    out.extend_from_slice(text.as_bytes());
    Ok(())
}

/// Encodes a request frame body (everything after the length prefix).
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    let mut out = Vec::new();
    push_request(&mut out, &frame.tenant, frame.op, &frame.payload);
    out
}

/// Appends a request frame body to `out`.
pub(crate) fn push_request(out: &mut Vec<u8>, tenant: &TenantId, op: Op, payload: &[u8]) {
    let tenant = tenant.as_str().as_bytes();
    out.reserve(2 + 2 + tenant.len() + 4 + payload.len());
    out.push(PROTOCOL_VERSION);
    out.push(op.as_u8());
    out.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
    out.extend_from_slice(tenant);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decodes a request frame body.
///
/// # Errors
///
/// [`ServeError::Version`] for an unknown version byte;
/// [`ServeError::UnknownOp`] for an unclaimed op byte;
/// [`ServeError::Protocol`] for truncated fields or an invalid tenant id.
pub fn decode_request(body: &[u8]) -> Result<RequestFrame, ServeError> {
    let (op, tenant, payload) = parse_request(body)?;
    Ok(RequestFrame {
        tenant: TenantId::new(tenant)?,
        op,
        payload: payload.to_vec(),
    })
}

/// [`decode_request`]'s checks, with the tenant id and payload borrowed
/// from `body` (the tenant id not yet validated as a [`TenantId`]).
pub(crate) fn parse_request(body: &[u8]) -> Result<(Op, &str, &[u8]), ServeError> {
    let mut r = Reader::new(body);
    let frame = |e| protocol("frame", e);
    let version = r.u8().map_err(frame)?;
    if version != PROTOCOL_VERSION {
        return Err(ServeError::Version(version));
    }
    let op = Op::from_u8(r.u8().map_err(frame)?)?;
    let tenant_len = read_u16(&mut r).map_err(frame)? as usize;
    let tenant = std::str::from_utf8(r.take(tenant_len).map_err(frame)?)
        .map_err(|e| ServeError::Protocol(format!("tenant id not UTF-8: {e}")))?;
    let payload = r.bytes().map_err(frame)?;
    finish(&r, "frame")?;
    Ok((op, tenant, payload))
}

/// Encodes a response frame body.
pub fn encode_response(status: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    push_response(&mut out, status, payload);
    out
}

/// Appends a response frame body to `out`.
pub(crate) fn push_response(out: &mut Vec<u8>, status: u16, payload: &[u8]) {
    out.reserve(1 + 2 + 4 + payload.len());
    out.push(PROTOCOL_VERSION);
    out.extend_from_slice(&status.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decodes a response frame body into `(status, payload)`.
///
/// # Errors
///
/// [`ServeError::Version`] for an unknown version byte;
/// [`ServeError::Protocol`] for truncated fields.
pub fn decode_response(body: &[u8]) -> Result<(u16, Vec<u8>), ServeError> {
    parse_response(body).map(|(status, payload)| (status, payload.to_vec()))
}

/// [`decode_response`], with the payload borrowed from `body`.
pub(crate) fn parse_response(body: &[u8]) -> Result<(u16, &[u8]), ServeError> {
    let mut r = Reader::new(body);
    let frame = |e| protocol("frame", e);
    let version = r.u8().map_err(frame)?;
    if version != PROTOCOL_VERSION {
        return Err(ServeError::Version(version));
    }
    let status = read_u16(&mut r).map_err(frame)?;
    let payload = r.bytes().map_err(frame)?;
    finish(&r, "frame")?;
    Ok((status, payload))
}

fn read_u16(r: &mut Reader<'_>) -> Result<u16, HistoryFileError> {
    let b = r.take(2)?;
    Ok(u16::from(b[0]) | u16::from(b[1]) << 8)
}

fn protocol(what: &str, e: HistoryFileError) -> ServeError {
    match e {
        HistoryFileError::Format(msg) => ServeError::Protocol(format!("{what}: {msg}")),
        HistoryFileError::Io(e) => ServeError::Io(e),
    }
}

fn finish(r: &Reader<'_>, what: &str) -> Result<(), ServeError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(ServeError::Protocol(format!(
            "{n} trailing bytes after the {what}"
        ))),
    }
}

/// Bytes a connection's [`FrameReader`] asks its stream for at the
/// least: a served request or reply fits whole, so one `read` brings in
/// one frame.
const READ_AHEAD: usize = 4096;

/// Reads length-prefixed frames for one connection, reading ahead into
/// one reused buffer and handing out whole frames from it: a frame that
/// arrived at once costs one `read`, whatever its size. A read that
/// fails — a socket read timeout included — keeps what the buffer had,
/// and the next call resumes there, so a peer that stalls mid-frame
/// loses nothing. The buffer never grows past the larger of
/// [`READ_AHEAD`] and the largest frame allowed; a frame whose prefix
/// declares more is refused before it grows.
#[derive(Debug, Default)]
pub(crate) struct FrameReader {
    /// Bytes read and not yet handed out are `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// Returns the next frame's body, reading more of the stream only
    /// when the buffer does not hold all of it, or `None` at a clean EOF
    /// (the peer closed between frames).
    ///
    /// # Errors
    ///
    /// [`ServeError::FrameTooLarge`] when the declared length exceeds
    /// `max` (checked *before* the buffer grows); [`ServeError::Io`] on
    /// socket errors, including an EOF inside a frame. After a
    /// `WouldBlock` or `TimedOut` error, calling again resumes the frame.
    pub fn read(
        &mut self,
        reader: &mut impl Read,
        max: usize,
    ) -> Result<Option<&[u8]>, ServeError> {
        loop {
            let held = self.end - self.start;
            if held == 0 {
                // Nothing held: the next read lands at the front.
                (self.start, self.end) = (0, 0);
            }
            let need = match self.buf.get(self.start..self.start + 4) {
                Some(&[a, b, c, d]) if held >= 4 => 4 + frame_len([a, b, c, d], max)?,
                _ => 4,
            };
            if held >= need {
                let body = self.start + 4..self.start + need;
                self.start += need;
                return Ok(Some(&self.buf[body]));
            }
            if self.start + need > self.buf.len() {
                // The frame's tail would not fit behind it: move what is
                // held to the front, and grow to hold the whole frame.
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, held);
                if need > self.buf.len() {
                    self.buf.resize(need.max(READ_AHEAD.min(max + 4)), 0);
                }
            }
            match read_some(reader, &mut self.buf[self.end..])? {
                0 if held == 0 => return Ok(None),
                0 if held < 4 => return Err(eof("EOF inside a frame length prefix")),
                0 => return Err(eof("EOF inside a frame body")),
                n => self.end += n,
            }
        }
    }
}

/// The body length a frame's 4-byte prefix declares.
///
/// # Errors
///
/// [`ServeError::FrameTooLarge`] when it exceeds `max`.
fn frame_len(prefix: [u8; 4], max: usize) -> Result<usize, ServeError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max {
        return Err(ServeError::FrameTooLarge { len, max });
    }
    Ok(len)
}

/// Fills `buf` from `reader`, one `read` at a time; returns how many
/// bytes arrived before an EOF.
fn fill(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match read_some(reader, &mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// One `read`, retried when a signal interrupts it.
fn read_some(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match reader.read(buf) {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            done => return done,
        }
    }
}

fn eof(msg: &str) -> ServeError {
    ServeError::Io(std::io::Error::new(ErrorKind::UnexpectedEof, msg))
}

/// Reads exactly one length-prefixed frame body — nothing past it is
/// consumed — or `None` at a clean EOF (the peer closed between frames).
///
/// # Errors
///
/// [`ServeError::FrameTooLarge`] when the declared length exceeds `max`
/// (checked *before* allocating); [`ServeError::Io`] on socket errors,
/// including an EOF inside a frame.
pub fn read_frame(reader: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, ServeError> {
    let mut prefix = [0; 4];
    match fill(reader, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        _ => return Err(eof("EOF inside a frame length prefix")),
    }
    let len = frame_len(prefix, max)?;
    let mut body = Vec::with_capacity(len);
    if reader.take(len as u64).read_to_end(&mut body)? < len {
        return Err(eof("EOF inside a frame body"));
    }
    Ok(Some(body))
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// [`ServeError::Io`] on socket errors.
pub fn write_frame(writer: &mut impl Write, body: &[u8]) -> Result<(), ServeError> {
    write_frame_with(writer, &mut Vec::new(), |out| out.extend_from_slice(body))
}

/// Writes one length-prefixed frame whose body `body` appends, building
/// it in `out` (cleared first, and reused across frames).
pub(crate) fn write_frame_with(
    writer: &mut impl Write,
    out: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>),
) -> Result<(), ServeError> {
    out.clear();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
    // One write for prefix + body: a split write would let the kernel
    // emit the 4-byte prefix as its own segment and stall the body
    // behind the peer's delayed ACK.
    writer.write_all(out)?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::{
        DegradationReason, DegradationTier, RankedCause, SweepDegradation, ViolationTuple,
    };

    #[test]
    fn request_frames_round_trip() {
        let frame = RequestFrame {
            tenant: TenantId::new("acme").expect("valid"),
            op: Op::Ingest,
            payload: b"{\"x\":1}".to_vec(),
        };
        let body = encode_request(&frame);
        assert_eq!(decode_request(&body).expect("decode"), frame);
    }

    #[test]
    fn request_encoding_is_pinned() {
        // Golden bytes: version 2, op 0, tenant "ab", payload "hi". A
        // change here is a wire format break — bump PROTOCOL_VERSION.
        let frame = RequestFrame {
            tenant: TenantId::new("ab").expect("valid"),
            op: Op::Ingest,
            payload: b"hi".to_vec(),
        };
        assert_eq!(
            encode_request(&frame),
            vec![2, 0, 2, 0, b'a', b'b', 2, 0, 0, 0, b'h', b'i']
        );
    }

    #[test]
    fn response_encoding_is_pinned() {
        // Golden bytes: version 2, status 104 (unknown tenant), payload "no".
        assert_eq!(
            encode_response(104, b"no"),
            vec![2, 104, 0, 2, 0, 0, 0, b'n', b'o']
        );
        let (status, payload) = decode_response(&encode_response(104, b"no")).expect("decode");
        assert_eq!((status, payload.as_slice()), (104, b"no".as_slice()));
    }

    #[test]
    fn binary_ingest_request_is_pinned() {
        // Golden bytes: tag, node "n" and workload "w" as u32-prefixed
        // UTF-8, cpi 1.5 and a row [0.25, -2.0] as raw IEEE-754 bits.
        let request = IngestRequest {
            node: "n".to_string(),
            workload: "w".to_string(),
            cpi: 1.5,
            row: vec![0.25, -2.0],
        };
        let bytes = encode_binary(&request);
        assert_eq!(
            bytes,
            [
                &[BINARY_TAG][..],
                &[1, 0, 0, 0, b'n', 1, 0, 0, 0, b'w'],
                &1.5f64.to_bits().to_le_bytes(),
                &[2, 0, 0, 0],
                &0.25f64.to_bits().to_le_bytes(),
                &(-2.0f64).to_bits().to_le_bytes(),
            ]
            .concat()
        );
        assert_eq!(
            decode_binary::<IngestRequest>(&bytes).expect("decode"),
            request
        );
    }

    #[test]
    fn binary_ingest_reply_is_pinned() {
        // Golden bytes: tag, tick 7 as u64, residual 0.5 as raw bits,
        // exceeded 1, anomalous 0, no diagnosis; then the same reply with
        // an onset diagnosis: one cause "x" at similarity 1.0, a one-slot
        // tuple [0.75], degraded to tier 3 (partial matrix) for reason 1
        // (pair budget).
        let mut reply = IngestReply {
            tick: 7,
            residual: 0.5,
            exceeded: true,
            anomalous: false,
            diagnosis: None,
        };
        let head = [
            &[BINARY_TAG][..],
            &7u64.to_le_bytes(),
            &0.5f64.to_bits().to_le_bytes(),
            &[1, 0],
        ]
        .concat();
        assert_eq!(encode_binary(&reply), [&head[..], &[0]].concat());
        reply.diagnosis = Some(Diagnosis {
            ranked: vec![RankedCause {
                problem: "x".to_string(),
                similarity: 1.0,
            }],
            tuple: ViolationTuple::from_graded(vec![0.75]),
            degradation: Some(SweepDegradation {
                tier: DegradationTier::PartialMatrix,
                reason: DegradationReason::PairBudgetExceeded,
            }),
        });
        let bytes = encode_binary(&reply);
        let golden = |tail: [u8; 3]| {
            [
                &head[..],
                &[1],
                &[1, 0, 0, 0, 1, 0, 0, 0, b'x'],
                &1.0f64.to_bits().to_le_bytes(),
                &[1, 0, 0, 0],
                &0.75f64.to_bits().to_le_bytes(),
                &tail,
            ]
            .concat()
        };
        assert_eq!(bytes, golden([1, 3, 1]));
        assert_eq!(decode_binary::<IngestReply>(&bytes).expect("decode"), reply);
        // The retired tier 2 and reason 2 are refused, not mapped.
        for tail in [[1, 2, 1], [1, 3, 2]] {
            let bytes = golden(tail);
            let mut r = Reader::new(&bytes[1..]);
            assert!(
                matches!(
                    IngestReply::read_fields(&mut r),
                    Err(HistoryFileError::Format(_))
                ),
                "tail {tail:?} decoded"
            );
        }
    }

    #[test]
    fn binary_tag_is_never_json() {
        assert_ne!(BINARY_TAG, b'{');
        assert_eq!(Encoding::of(&[BINARY_TAG]), Encoding::Binary);
        assert_eq!(Encoding::of(b"{}"), Encoding::Json);
        assert!(matches!(
            decode_binary::<DrainRequest>(b"{\"max_ticks\":1}"),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert!(matches!(
            decode_request(&[9, 0, 0, 0]),
            Err(ServeError::Version(9))
        ));
        assert!(matches!(
            decode_request(&[PROTOCOL_VERSION, 77, 0, 0, 0, 0, 0, 0]),
            Err(ServeError::UnknownOp(77))
        ));
        assert!(matches!(
            decode_request(&[PROTOCOL_VERSION, 0, 5, 0, b'a']),
            Err(ServeError::Protocol(_))
        ));
        // Trailing garbage after a well-formed body is rejected too.
        let mut body = encode_request(&RequestFrame {
            tenant: TenantId::new("t").expect("valid"),
            op: Op::Health,
            payload: Vec::new(),
        });
        body.push(0xFF);
        assert!(matches!(
            decode_request(&body),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn frames_over_the_limit_are_rejected_before_allocation() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut huge.as_slice(), 1024).expect_err("too large");
        assert!(matches!(err, ServeError::FrameTooLarge { max: 1024, .. }));
    }

    #[test]
    fn clean_eof_reads_as_none() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut { empty }, 1024).expect("eof").is_none());
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").expect("write");
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame(&mut r, 1024).expect("frame").as_deref(),
            Some(b"abc".as_slice())
        );
        assert!(read_frame(&mut r, 1024).expect("eof").is_none());
    }

    #[test]
    fn an_eof_inside_a_frame_is_an_error() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"abcdef").expect("write");
        let unexpected =
            |e: ServeError| matches!(e, ServeError::Io(e) if e.kind() == ErrorKind::UnexpectedEof);
        for cut in 1..stream.len() {
            let err = read_frame(&mut &stream[..cut], 1024).expect_err("cut");
            assert!(unexpected(err), "read_frame, cut at {cut}");
            let err = FrameReader::default()
                .read(&mut &stream[..cut], 1024)
                .expect_err("cut");
            assert!(unexpected(err), "FrameReader, cut at {cut}");
        }
    }

    /// Hands out its bytes three at a time, failing with `WouldBlock`
    /// between the reads, as a socket with a read timeout does when the
    /// peer stalls.
    struct Stalling<'a> {
        bytes: &'a [u8],
        stall: bool,
    }

    impl Read for Stalling<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.stall = !self.stall;
            if self.stall {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.bytes.len()).min(3);
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_stalled_frame_resumes_where_it_stopped() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"hello").expect("write");
        write_frame(&mut stream, b"world!").expect("write");
        let mut reader = Stalling {
            bytes: &stream,
            stall: false,
        };
        let mut frames = FrameReader::default();
        let mut bodies = Vec::new();
        loop {
            match frames.read(&mut reader, 1024) {
                Ok(Some(body)) => bodies.push(body.to_vec()),
                Ok(None) => break,
                Err(ServeError::Io(e)) if e.kind() == ErrorKind::WouldBlock => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(bodies, vec![b"hello".to_vec(), b"world!".to_vec()]);
    }

    /// Hands out one written frame per `read` at most, as a socket does
    /// when each request arrives in its own segment, and counts the
    /// reads.
    struct Segments {
        frames: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Read for Segments {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(frame) = self.frames.front_mut() else {
                return Ok(0);
            };
            let n = buf.len().min(frame.len());
            buf[..n].copy_from_slice(&frame[..n]);
            frame.drain(..n);
            if frame.is_empty() {
                self.frames.pop_front();
            }
            Ok(n)
        }
    }

    #[test]
    fn a_connection_reads_each_frame_with_one_read() {
        const FRAMES: usize = 16;
        let request = encode_request(&RequestFrame {
            tenant: TenantId::new("counted").expect("valid"),
            op: Op::Ingest,
            payload: encode_binary(&IngestRequest {
                node: "10.0.0.1".to_string(),
                workload: "Sort".to_string(),
                cpi: 1.5,
                row: vec![0.25; 26],
            }),
        });
        let mut frame = Vec::new();
        write_frame(&mut frame, &request).expect("write");
        let mut stream = Segments {
            frames: vec![frame; FRAMES].into(),
            reads: 0,
        };
        let mut frames = FrameReader::default();
        for _ in 0..FRAMES {
            let body = frames.read(&mut stream, 1024).expect("read");
            assert_eq!(body, Some(request.as_slice()));
        }
        assert_eq!(stream.reads, FRAMES, "reads for {FRAMES} ingest requests");
        assert!(frames.read(&mut stream, 1024).expect("eof").is_none());
        assert_eq!(stream.reads, FRAMES + 1, "the clean EOF costs one read");
    }

    #[test]
    fn frames_already_read_ahead_cost_no_read() {
        let mut stream = Vec::new();
        for body in [b"one".as_slice(), b"two", b"three"] {
            write_frame(&mut stream, body).expect("write");
        }
        let mut stream = Segments {
            frames: vec![stream].into(),
            reads: 0,
        };
        let mut frames = FrameReader::default();
        for body in [b"one".as_slice(), b"two", b"three"] {
            assert_eq!(frames.read(&mut stream, 1024).expect("read"), Some(body));
        }
        assert_eq!(stream.reads, 1, "three frames in one segment");
        // A clean EOF after the buffered frames.
        assert!(frames.read(&mut stream, 1024).expect("eof").is_none());
    }

    #[test]
    fn an_oversized_frame_is_refused_before_the_buffer_grows() {
        let max = 1024;
        let mut stream = ((max + 1) as u32).to_le_bytes().to_vec();
        stream.resize(4 + max + 1, 0);
        let mut frames = FrameReader::default();
        let err = frames
            .read(&mut stream.as_slice(), max)
            .expect_err("too large");
        assert!(matches!(
            err,
            ServeError::FrameTooLarge {
                len: 1025,
                max: 1024
            }
        ));
        assert!(frames.buf.len() <= max + 4, "grew to {}", frames.buf.len());
        // A frame of exactly `max` fits in `max + 4`.
        let mut stream = (max as u32).to_le_bytes().to_vec();
        stream.resize(4 + max, 7);
        let mut frames = FrameReader::default();
        let body = frames.read(&mut stream.as_slice(), max).expect("read");
        assert_eq!(body.map(<[u8]>::len), Some(max));
        assert_eq!(frames.buf.len(), max + 4);
    }

    #[test]
    fn payload_structs_round_trip_as_json() {
        let req = IngestRequest {
            node: "10.0.0.1".to_string(),
            workload: "Sort".to_string(),
            cpi: 1.5,
            row: vec![0.25, -0.5],
        };
        let json = serde_json::to_string(&req).expect("encode");
        let back: IngestRequest = serde_json::from_str(&json).expect("decode");
        assert_eq!(back, req);

        let reply = IngestReply {
            tick: 7,
            residual: 0.125,
            exceeded: true,
            anomalous: false,
            diagnosis: None,
        };
        let json = serde_json::to_string(&reply).expect("encode");
        let back: IngestReply = serde_json::from_str(&json).expect("decode");
        assert_eq!(back, reply);
    }
}
