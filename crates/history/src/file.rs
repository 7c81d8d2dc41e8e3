//! The file-backed segment format: `IXHIST01`.
//!
//! A saved store is one little-endian binary file:
//!
//! ```text
//! magic            8 bytes  b"IXHIST01"
//! labels           u32 count, then per label: u32 byte-length + UTF-8
//! context logs     u32 count, then per log:
//!   context        u32 dense id
//!   rows           u64
//!   run starts     u32 count + u64 each
//!   columns        rows × u64 ticks, rows × f64 cpi, rows × f64 residual,
//!                  rows × u8 exceeded, then METRIC_COUNT × rows f64
//!                  metric-major metric columns
//! events           u32 count, then per event: u32 byte-length + a
//!                  binary event record
//! sweeps           u32 count, length-prefixed binary sweep records
//! diagnoses        u32 count, length-prefixed binary diagnosis records
//! sections         zero or more trailing sections, each: 4-byte ASCII
//!                  tag + u32 byte-length + opaque payload
//! ```
//!
//! Floating-point columns are raw IEEE-754 bits, so a load reproduces the
//! saved values bit-exactly. The side-log records are the binary records
//! of [`crate::codec`], whose tests pin their bytes; a record must
//! consume exactly its length. A record that starts with `{` is the
//! retired JSON form, refused by name.
//!
//! Trailing sections are the format's versioned extension point (the
//! original `IXHIST01` files simply have none): `ix-replay` stores its
//! config/seed header under [`REPLAY_SECTION`], `ix-serve` a tenant's
//! state under [`SERVE_SECTION`], and a model-store file is one
//! [`MODEL_STORE_SECTION`] ([`crate::save_model_store`]). Unknown tags
//! load with a warning instead of an error — a file written by a newer
//! writer stays readable — and are preserved verbatim so a save of the
//! load reproduces the original bytes. A truncated section frame is still a hard
//! [`HistoryFileError::Format`].

use std::fmt;
use std::fs;
use std::path::Path;

use ix_metrics::METRIC_COUNT;

use crate::codec;
use crate::model_store::MODEL_STORE_SECTION;
use crate::store::{ContextLog, HistoryStore, Inner};

/// Leading magic of every history file (format name + version).
const MAGIC: &[u8; 8] = b"IXHIST01";

/// Tag of the trailing section holding `ix-replay`'s config/seed header.
pub const REPLAY_SECTION: [u8; 4] = *b"RPLY";

/// Tag of the trailing section holding `ix-serve`'s tenant snapshot (an
/// evicted tenant's trained store, lifetime tick counter, per-context
/// runs and queued ticks).
pub const SERVE_SECTION: [u8; 4] = *b"SRVT";

/// Section tags this version of the crate understands; anything else
/// loads with a warning (forward-compat) and is carried verbatim.
const KNOWN_SECTIONS: &[[u8; 4]] = &[REPLAY_SECTION, SERVE_SECTION, MODEL_STORE_SECTION];

/// Upper bound on the dense context ids a file may claim. Context logs
/// live in a `Vec` indexed by id, so an unchecked hostile id would force
/// a multi-gigabyte `resize_with`; no deployment approaches a million
/// contexts.
const MAX_CONTEXT_ID: usize = 1 << 20;

/// Bytes one row occupies in the columnar image: tick (8) + CPI (8) +
/// residual (8) + exceeded flag (1) + the metric columns.
const ROW_BYTES: usize = 25 + 8 * METRIC_COUNT;

/// Why a history file failed to load.
#[derive(Debug)]
pub enum HistoryFileError {
    /// The underlying read or write failed.
    Io(std::io::Error),
    /// The bytes are not a well-formed `IXHIST01` file.
    Format(String),
}

impl fmt::Display for HistoryFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryFileError::Io(e) => write!(f, "history file I/O: {e}"),
            HistoryFileError::Format(msg) => write!(f, "malformed history file: {msg}"),
        }
    }
}

impl std::error::Error for HistoryFileError {}

impl From<std::io::Error> for HistoryFileError {
    fn from(e: std::io::Error) -> Self {
        HistoryFileError::Io(e)
    }
}

/// Sequential little-endian writer over a growable buffer — the encoder
/// behind `IXHIST01`, exposed so formats nested in a trailing section
/// (such as `ix-serve`'s tenant snapshots) encode with the same
/// primitives. Floats are written as raw IEEE-754 bits.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Encodes a count/length/id the format stores as `u32`, refusing
    /// loudly — instead of silently truncating into a corrupt file —
    /// when the value does not fit the field.
    ///
    /// # Panics
    ///
    /// Panics when `v` exceeds `u32::MAX`.
    #[inline]
    pub fn u32_field(&mut self, v: usize) {
        let v = u32::try_from(v)
            .expect("IXHIST01 u32 field overflow: count, length or id exceeds u32::MAX");
        self.u32(v);
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `f64` as its raw bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends `f64`s as raw bits, with no length prefix.
    #[inline]
    pub fn f64s(&mut self, vs: &[f64]) {
        // Sized once, then filled in 8-byte chunks: a loop the compiler
        // turns into straight stores, where one `extend` per value
        // checks the capacity each time.
        let at = self.buf.len();
        self.buf.resize(at + 8 * vs.len(), 0);
        for (out, v) in self.buf[at..].chunks_exact_mut(8).zip(vs) {
            out.copy_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Appends a `u32` count (see [`Writer::u32_field`]) and the `f64`s
    /// as raw bits.
    #[inline]
    pub fn f64_list(&mut self, vs: &[f64]) {
        self.u32_field(vs.len());
        self.f64s(vs);
    }

    /// Appends a `bool` as one byte, `0` or `1`.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a `u32` length prefix (see [`Writer::u32_field`]) and the
    /// bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32_field(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends the bytes with no length prefix, e.g. the pieces of a
    /// string whose length was written ahead of them.
    #[inline]
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// A row-free `IXHIST01` image holding exactly one trailing section,
/// written in place. The empty-store header and the section frame go
/// into the buffer first, the payload is appended through
/// [`SectionImage::writer`], and [`SectionImage::finish`] patches the
/// frame's length. The result equals
/// `HistoryStore::builder().section(tag, payload).build().to_bytes()`
/// byte for byte, without building a store or copying the payload.
#[derive(Debug)]
pub struct SectionImage {
    w: Writer,
}

impl SectionImage {
    /// Offset of the payload in the image: the magic, the empty store's
    /// five zero counts (labels, context logs, events, sweeps,
    /// diagnoses), the tag and the `u32` length.
    pub(crate) const PAYLOAD_AT: usize = MAGIC.len() + 5 * 4 + 4 + 4;

    /// Starts an image of section `tag`, sized for a payload of
    /// `payload_len` bytes (a hint: a longer payload still fits).
    pub fn new(tag: [u8; 4], payload_len: usize) -> Self {
        let mut w = Writer::from(Vec::with_capacity(Self::PAYLOAD_AT + payload_len));
        w.raw(MAGIC);
        for _ in 0..5 {
            w.u32(0);
        }
        w.raw(&tag);
        w.u32(0); // payload length, patched by `finish`
        SectionImage { w }
    }

    /// The writer the payload is appended with.
    pub fn writer(&mut self) -> &mut Writer {
        &mut self.w
    }

    /// The payload written so far, for patching fields (such as a
    /// checksum) that depend on what follows them.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.w.buf[Self::PAYLOAD_AT..]
    }

    /// The finished image.
    ///
    /// # Panics
    ///
    /// Panics when the payload exceeds `u32::MAX` bytes, as
    /// [`Writer::bytes`] does.
    pub fn finish(mut self) -> Vec<u8> {
        let len = u32::try_from(self.w.buf.len() - Self::PAYLOAD_AT)
            .expect("IXHIST01 u32 field overflow: section payload exceeds u32::MAX bytes");
        self.w.buf[Self::PAYLOAD_AT - 4..Self::PAYLOAD_AT].copy_from_slice(&len.to_le_bytes());
        self.w.buf
    }
}

impl From<Vec<u8>> for Writer {
    /// A writer appending to `buf`, so an encoder can reuse one
    /// allocation across messages.
    fn from(buf: Vec<u8>) -> Writer {
        Writer { buf }
    }
}

/// Sequential little-endian reader with a bounds-checked cursor — the
/// decoder behind `IXHIST01`, exposed alongside [`Writer`]. Every read
/// fails with [`HistoryFileError::Format`] instead of panicking when the
/// buffer runs out.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] when fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], HistoryFileError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| HistoryFileError::Format(format!("truncated at byte {}", self.at)))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// The next byte.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] at the end of the buffer.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, HistoryFileError> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] when fewer than 4 bytes remain.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, HistoryFileError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// The next little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] when fewer than 8 bytes remain.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, HistoryFileError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// The next `f64`, from its raw bits.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] when fewer than 8 bytes remain.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, HistoryFileError> {
        self.u64().map(f64::from_bits)
    }

    /// The next byte as a `bool`, refusing anything but `0` and `1` so
    /// that a decoded value re-encodes to the same byte.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] at the end of the buffer, or naming
    /// `what` for any other byte.
    #[inline]
    pub fn bool(&mut self, what: &str) -> Result<bool, HistoryFileError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(HistoryFileError::Format(format!(
                "{what} byte {other} is neither 0 nor 1"
            ))),
        }
    }

    /// The next `f64`, which must be finite.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] on truncation or a NaN or infinity.
    #[inline]
    pub fn finite_f64(&mut self) -> Result<f64, HistoryFileError> {
        let v = self.f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(HistoryFileError::Format(format!("non-finite value {v}")))
        }
    }

    /// A `u32` count and that many `f64`s, each of which must be finite:
    /// what [`Writer::f64_list`] writes.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] on truncation, an oversized count or
    /// a NaN or infinity.
    #[inline]
    pub fn finite_f64s(&mut self) -> Result<Vec<f64>, HistoryFileError> {
        let n = self.count(8)?;
        let mut values = Vec::with_capacity(n);
        self.extend_finite_f64s(n, &mut values)?;
        Ok(values)
    }

    /// Appends the next `n` `f64`s (no length prefix) to `out`, each of
    /// which must be finite — so many short lists can be read into one
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] when fewer than `8 × n` bytes remain
    /// or on a NaN or infinity; `out` is then left as it was.
    #[inline]
    pub fn extend_finite_f64s(
        &mut self,
        n: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), HistoryFileError> {
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| HistoryFileError::Format(format!("f64 column of {n} rows overflows")))?;
        let raw = self.take(bytes)?;
        let at = out.len();
        out.extend(
            raw.chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes")))),
        );
        match out[at..].iter().find(|v| !v.is_finite()) {
            Some(&v) => {
                out.truncate(at);
                Err(HistoryFileError::Format(format!("non-finite value {v}")))
            }
            None => Ok(()),
        }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Reads a `u32` element count, rejecting counts whose payload
    /// (`count × min_elem_size` bytes) cannot possibly fit in the rest
    /// of the buffer — so a hostile count can never drive a huge
    /// preallocation or unbounded loop.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] on truncation or an oversized count.
    #[inline]
    pub fn count(&mut self, min_elem_size: usize) -> Result<usize, HistoryFileError> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_elem_size) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(HistoryFileError::Format(format!(
                "count {n} exceeds the {} bytes remaining",
                self.remaining()
            ))),
        }
    }

    /// The next `n` `f64`s (no length prefix), from their raw bits.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] when fewer than `8 × n` bytes remain.
    #[inline]
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, HistoryFileError> {
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| HistoryFileError::Format(format!("f64 column of {n} rows overflows")))?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }

    /// The next `u32`-length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] on truncation.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], HistoryFileError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// The next `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] on truncation or invalid UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, HistoryFileError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| HistoryFileError::Format(format!("non-UTF-8 string: {e}")))
    }
}

/// Writes a `u32` count, then each record behind a `u32` length that is
/// patched once the record is written.
fn write_records<T>(w: &mut Writer, records: &[T], write: impl Fn(&mut Writer, &T)) {
    w.u32_field(records.len());
    for record in records {
        let at = w.buf.len();
        w.u32(0);
        write(w, record);
        let len = u32::try_from(w.buf.len() - at - 4)
            .expect("IXHIST01 u32 field overflow: record exceeds u32::MAX bytes");
        w.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Reads what [`write_records`] wrote. Each record must consume exactly
/// its length.
fn read_records<T>(
    r: &mut Reader<'_>,
    what: &str,
    read: impl Fn(&mut Reader<'_>) -> Result<T, HistoryFileError>,
) -> Result<Vec<T>, HistoryFileError> {
    // Each record costs at least its 4-byte length prefix.
    let count = r.count(4)?;
    let mut records = Vec::new();
    for i in 0..count {
        let bytes = r.bytes()?;
        if bytes.first() == Some(&b'{') {
            return Err(HistoryFileError::Format(format!(
                "{what} record {i} is in the retired JSON form; this build reads only \
                 binary records"
            )));
        }
        let mut record = Reader::new(bytes);
        records.push(read(&mut record)?);
        if record.remaining() != 0 {
            return Err(HistoryFileError::Format(format!(
                "{what} record {i} leaves {} of its bytes unread",
                record.remaining()
            )));
        }
    }
    Ok(records)
}

impl HistoryStore {
    /// Serializes the store into the `IXHIST01` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.with_inner(|inner| {
            let mut w = Writer::default();
            w.buf.extend_from_slice(MAGIC);
            // Labels: prefer the bound registry's current table so saved
            // files resolve ids without the live engine.
            let labels = match &inner.registry {
                Some(registry) => registry.labels(),
                None => inner.labels.clone(),
            };
            w.u32_field(labels.len());
            for label in &labels {
                w.bytes(label.as_bytes());
            }
            let logs: Vec<(usize, &ContextLog)> = inner
                .logs
                .iter()
                .enumerate()
                .filter_map(|(i, log)| log.as_ref().map(|log| (i, log)))
                .collect();
            w.u32_field(logs.len());
            for (ctx, log) in logs {
                w.u32_field(ctx);
                w.u64(log.rows as u64);
                w.u32_field(log.run_starts.len());
                for &start in &log.run_starts {
                    w.u64(start as u64);
                }
                for seg in &log.segments {
                    for &t in seg.ticks() {
                        w.u64(t);
                    }
                }
                for seg in &log.segments {
                    w.f64s(seg.cpi());
                }
                for seg in &log.segments {
                    w.f64s(seg.residual());
                }
                for seg in &log.segments {
                    w.buf.extend(seg.exceeded().iter().map(|&b| u8::from(b)));
                }
                for m in 0..METRIC_COUNT {
                    for seg in &log.segments {
                        w.f64s(seg.column(m));
                    }
                }
            }
            write_records(&mut w, &inner.events, codec::write_event);
            write_records(&mut w, &inner.sweeps, codec::write_sweep);
            write_records(&mut w, &inner.diagnoses, codec::write_diagnosis_record);
            for (tag, payload) in &inner.sections {
                w.buf.extend_from_slice(tag);
                w.bytes(payload);
            }
            w.buf
        })
    }

    /// Reconstructs a store from `IXHIST01` bytes.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Format`] on a bad magic, truncation, a count
    /// or context id larger than the buffer can back, context logs out of
    /// id order, run starts that are not strictly increasing within the
    /// recorded rows, an exceeded flag other than 0 or 1, non-finite
    /// metric values, or a side-log record that is JSON, does not decode
    /// or does not consume exactly its length. Counts are
    /// validated against the remaining bytes *before* anything is
    /// preallocated, so a hostile file fails with `Format` instead of
    /// aborting on allocation.
    pub fn from_bytes(bytes: &[u8]) -> Result<HistoryStore, HistoryFileError> {
        HistoryStore::from_bytes_with_warnings(bytes).map(|(store, _)| store)
    }

    /// [`HistoryStore::from_bytes`], additionally reporting non-fatal
    /// warnings — currently one per unknown trailing section tag, which a
    /// newer writer may have appended (the section is preserved verbatim,
    /// so re-saving keeps it).
    ///
    /// # Errors
    ///
    /// Exactly as [`HistoryStore::from_bytes`]; a *truncated* trailing
    /// section (fewer bytes than its tag + length frame promise) is still
    /// a hard [`HistoryFileError::Format`].
    pub fn from_bytes_with_warnings(
        bytes: &[u8],
    ) -> Result<(HistoryStore, Vec<String>), HistoryFileError> {
        let mut sections = Vec::new();
        let (mut inner, warnings) =
            HistoryStore::parse(bytes, |tag, payload| sections.push((tag, payload.to_vec())))?;
        inner.sections = sections;
        Ok((HistoryStore::from_inner(inner), warnings))
    }

    /// Parses an `IXHIST01` image: everything ahead of the trailing sections
    /// into an [`Inner`] (with no sections), each trailing section handed to
    /// `section` in file order as a slice of `bytes`, plus one warning per
    /// unknown section tag. The one parser behind [`HistoryStore::from_bytes`]
    /// and [`section_in`].
    fn parse<'a>(
        bytes: &'a [u8],
        mut section: impl FnMut([u8; 4], &'a [u8]),
    ) -> Result<(Inner, Vec<String>), HistoryFileError> {
        let mut r = Reader::new(bytes);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(HistoryFileError::Format(
                "missing IXHIST01 magic".to_string(),
            ));
        }
        let mut inner = Inner::default();
        // Each label costs at least its 4-byte length prefix.
        let label_count = r.count(4)?;
        for _ in 0..label_count {
            let raw = r.bytes()?;
            let label = std::str::from_utf8(raw)
                .map_err(|e| HistoryFileError::Format(format!("non-UTF-8 label: {e}")))?;
            inner.labels.push(label.to_string());
        }
        // Each log costs at least context id (4) + row count (8) + run
        // count (4) + the mandatory row-0 run start (8).
        let log_count = r.count(24)?;
        for _ in 0..log_count {
            let ctx = r.u32()? as usize;
            if ctx > MAX_CONTEXT_ID {
                return Err(HistoryFileError::Format(format!(
                    "context id {ctx} exceeds the format cap {MAX_CONTEXT_ID}"
                )));
            }
            // Logs are written in id order, one per id.
            if ctx < inner.logs.len() {
                return Err(HistoryFileError::Format(format!(
                    "context log {ctx} is out of order"
                )));
            }
            let rows = usize::try_from(r.u64()?)
                .map_err(|_| HistoryFileError::Format("row count overflow".to_string()))?;
            if rows
                .checked_mul(ROW_BYTES)
                .is_none_or(|b| b > r.remaining())
            {
                return Err(HistoryFileError::Format(format!(
                    "row count {rows} exceeds the {} bytes remaining",
                    r.remaining()
                )));
            }
            let run_count = r.count(8)?;
            let mut run_starts = Vec::with_capacity(run_count);
            for _ in 0..run_count {
                run_starts.push(
                    usize::try_from(r.u64()?)
                        .map_err(|_| HistoryFileError::Format("run start overflow".to_string()))?,
                );
            }
            if run_starts.first() != Some(&0) {
                return Err(HistoryFileError::Format(
                    "run starts must begin at row 0".to_string(),
                ));
            }
            if run_starts.windows(2).any(|w| w[1] <= w[0]) {
                return Err(HistoryFileError::Format(
                    "run starts must be strictly increasing".to_string(),
                ));
            }
            // `window_frame` subtracts the last start from `rows`; a
            // start past the end would underflow every current-run scan.
            if run_starts.last().is_some_and(|&s| s > rows) {
                return Err(HistoryFileError::Format(
                    "run start beyond the recorded rows".to_string(),
                ));
            }
            let mut ticks = Vec::with_capacity(rows);
            for _ in 0..rows {
                ticks.push(r.u64()?);
            }
            // Time-window scans binary-search the tick column.
            if ticks.windows(2).any(|w| w[1] < w[0]) {
                return Err(HistoryFileError::Format(
                    "tick labels must be non-decreasing".to_string(),
                ));
            }
            let cpi = r.f64s(rows)?;
            let residual = r.f64s(rows)?;
            let exceeded = r.take(rows)?;
            if exceeded.iter().any(|&b| b > 1) {
                return Err(HistoryFileError::Format(
                    "exceeded flag is neither 0 nor 1".to_string(),
                ));
            }
            let mut columns = Vec::with_capacity(METRIC_COUNT);
            for _ in 0..METRIC_COUNT {
                let column = r.f64s(rows)?;
                // The live ingest path only records rows the sliding
                // window accepted (finite values); frames served from a
                // loaded store rely on the same invariant.
                if column.iter().any(|v| !v.is_finite()) {
                    return Err(HistoryFileError::Format(
                        "non-finite metric value".to_string(),
                    ));
                }
                columns.push(column);
            }
            let mut log = ContextLog {
                segments: Vec::new(),
                rows: 0,
                run_starts,
            };
            let mut row = vec![0.0; METRIC_COUNT];
            for i in 0..rows {
                for (m, slot) in row.iter_mut().enumerate() {
                    *slot = columns[m][i];
                }
                log.push(ticks[i], cpi[i], residual[i], exceeded[i] == 1, &row);
            }
            let idx = ctx;
            if inner.logs.len() <= idx {
                inner.logs.resize_with(idx + 1, || None);
            }
            inner.logs[idx] = Some(log);
        }
        inner.events = read_records(&mut r, "event", codec::read_event)?;
        inner.sweeps = read_records(&mut r, "sweep", codec::read_sweep)?;
        inner.diagnoses = read_records(&mut r, "diagnosis", codec::read_diagnosis_record)?;
        // Trailing sections: 4-byte tag + u32 length + payload, until the
        // buffer ends. Unknown tags warn instead of failing so files from
        // newer writers stay loadable; a short frame still errors.
        let mut warnings = Vec::new();
        while r.remaining() > 0 {
            let tag: [u8; 4] = r
                .take(4)
                .map_err(|_| {
                    HistoryFileError::Format(format!(
                        "truncated trailing section ({} bytes left, tag needs 4)",
                        bytes.len() - r.at
                    ))
                })?
                .try_into()
                .expect("take(4) yields 4 bytes");
            let payload = r.bytes()?;
            if !KNOWN_SECTIONS.contains(&tag) {
                warnings.push(format!(
                    "unknown trailing section {:?} ({} bytes) — written by a newer \
                     ix-history; preserved but not interpreted",
                    String::from_utf8_lossy(&tag),
                    payload.len()
                ));
            }
            section(tag, payload);
        }
        Ok((inner, warnings))
    }

    /// Saves the store to `path` in the `IXHIST01` format.
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Io`] when the write fails.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), HistoryFileError> {
        fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads a store saved with [`HistoryStore::save`].
    ///
    /// # Errors
    ///
    /// [`HistoryFileError::Io`] when the read fails,
    /// [`HistoryFileError::Format`] when the bytes are malformed.
    pub fn load(path: impl AsRef<Path>) -> Result<HistoryStore, HistoryFileError> {
        let bytes = fs::read(path)?;
        HistoryStore::from_bytes(&bytes)
    }

    /// [`HistoryStore::load`], additionally reporting the non-fatal
    /// warnings of [`HistoryStore::from_bytes_with_warnings`].
    ///
    /// # Errors
    ///
    /// Exactly as [`HistoryStore::load`].
    pub fn load_with_warnings(
        path: impl AsRef<Path>,
    ) -> Result<(HistoryStore, Vec<String>), HistoryFileError> {
        let bytes = fs::read(path)?;
        HistoryStore::from_bytes_with_warnings(&bytes)
    }
}

/// The payload of the first trailing section tagged `tag` in an
/// `IXHIST01` image, borrowed from `bytes` rather than copied, or `None`
/// when the image has no such section.
///
/// This is the parse [`HistoryStore::from_bytes`] runs, keeping the
/// section in place instead of building a store around a copy of it, so
/// it accepts and refuses exactly the same bytes.
///
/// # Errors
///
/// Exactly as [`HistoryStore::from_bytes`].
pub fn section_in(bytes: &[u8], tag: [u8; 4]) -> Result<Option<&[u8]>, HistoryFileError> {
    let mut found = None;
    HistoryStore::parse(bytes, |t, payload| {
        if t == tag && found.is_none() {
            found = Some(payload);
        }
    })?;
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::{
        ContextId, Diagnosis, EngineEvent, HistoryRecorder, RankedCause, ViolationTuple,
    };
    use ix_metrics::MetricId;

    fn sample_store() -> HistoryStore {
        let store = HistoryStore::new();
        let ctx = ContextId::from_index(0);
        for t in 0..600u64 {
            let row: Vec<f64> = (0..METRIC_COUNT)
                .map(|m| (t as f64).mul_add(0.25, m as f64) + 0.125)
                .collect();
            store.record_tick(ctx, t, 1.5 + t as f64, 0.0625 * t as f64, t % 7 == 0, &row);
            if t == 199 {
                store.record_run_reset(ctx);
            }
        }
        store.record_event(&EngineEvent::DetectionFired {
            context: ctx,
            tick: 42,
        });
        store.record_sweep(ctx, 42, &[0.5, 0.25, 0.125], None);
        store.record_diagnosis(
            ctx,
            42,
            &Diagnosis {
                ranked: vec![RankedCause {
                    problem: "disk hog".to_string(),
                    similarity: 0.875,
                }],
                tuple: ViolationTuple::from_graded(vec![0.0, 0.5, 1.0]),
                degradation: None,
            },
        );
        store
    }

    #[test]
    fn bytes_round_trip_bit_exactly() {
        let store = sample_store();
        let bytes = store.to_bytes();
        let loaded = HistoryStore::from_bytes(&bytes).expect("well-formed");
        let ctx = ContextId::from_index(0);
        assert_eq!(loaded.rows(ctx), 600);
        assert_eq!(loaded.run_count(ctx), 2);
        assert_eq!(loaded.run_rows(ctx, 0), Some(0..200));
        assert_eq!(
            store.frame(ctx, 0..600).expect("frame"),
            loaded.frame(ctx, 0..600).expect("frame")
        );
        assert_eq!(
            store.series(ctx, MetricId::ALL[13], 100..550),
            loaded.series(ctx, MetricId::ALL[13], 100..550)
        );
        assert_eq!(
            store.cpi_series(ctx, 0..600),
            loaded.cpi_series(ctx, 0..600)
        );
        assert_eq!(store.events(), loaded.events());
        assert_eq!(store.sweeps(), loaded.sweeps());
        assert_eq!(store.diagnoses(), loaded.diagnoses());
        // Serialization is canonical: a save of the load reproduces the
        // original bytes.
        assert_eq!(loaded.to_bytes(), bytes);
    }

    #[test]
    fn save_and_load_via_file() {
        let store = sample_store();
        let path = std::env::temp_dir().join("ix-history-file-test.ixh");
        store.save(&path).expect("save");
        let loaded = HistoryStore::load(&path).expect("load");
        assert_eq!(loaded.to_bytes(), store.to_bytes());
        let _ = std::fs::remove_file(&path);
    }

    /// Hand-writes a one-log file with `data_rows` real rows behind a
    /// `claimed_rows` header, so tests can corrupt the header fields
    /// independently of the payload.
    fn crafted(
        claimed_rows: u64,
        data_rows: usize,
        run_starts: &[u64],
        ctx: u32,
        metric: f64,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&0u32.to_le_bytes()); // no labels
        buf.extend_from_slice(&1u32.to_le_bytes()); // one log
        buf.extend_from_slice(&ctx.to_le_bytes());
        buf.extend_from_slice(&claimed_rows.to_le_bytes());
        buf.extend_from_slice(&(run_starts.len() as u32).to_le_bytes());
        for &s in run_starts {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        for t in 0..data_rows as u64 {
            buf.extend_from_slice(&t.to_le_bytes()); // ticks
        }
        for _ in 0..data_rows {
            buf.extend_from_slice(&1.0f64.to_bits().to_le_bytes()); // cpi
        }
        for _ in 0..data_rows {
            buf.extend_from_slice(&0.0f64.to_bits().to_le_bytes()); // residual
        }
        buf.extend(vec![0u8; data_rows]); // exceeded
        for _ in 0..METRIC_COUNT {
            for _ in 0..data_rows {
                buf.extend_from_slice(&metric.to_bits().to_le_bytes());
            }
        }
        for _ in 0..3 {
            buf.extend_from_slice(&0u32.to_le_bytes()); // events/sweeps/diagnoses
        }
        buf
    }

    fn expect_format_error(bytes: &[u8]) {
        assert!(matches!(
            HistoryStore::from_bytes(bytes),
            Err(HistoryFileError::Format(_))
        ));
    }

    #[test]
    fn crafted_baseline_is_well_formed() {
        let store = HistoryStore::from_bytes(&crafted(3, 3, &[0], 0, 1.0)).expect("valid");
        assert_eq!(store.rows(ContextId::from_index(0)), 3);
    }

    #[test]
    fn hostile_counts_fail_instead_of_allocating() {
        // A claimed row count near u64::MAX with no data behind it.
        expect_format_error(&crafted(u64::MAX, 0, &[0], 0, 1.0));
        expect_format_error(&crafted(u64::MAX / 8, 0, &[0], 0, 1.0));
        // A context id far past the dense-id cap.
        expect_format_error(&crafted(3, 3, &[0], u32::MAX, 1.0));
        // A label section claiming u32::MAX entries in an empty buffer.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        expect_format_error(&bytes);
        // A run-start section claiming more entries than bytes remain.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no labels
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one log
        bytes.extend_from_slice(&0u32.to_le_bytes()); // ctx
        bytes.extend_from_slice(&0u64.to_le_bytes()); // rows
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // run count
        expect_format_error(&bytes);
        // An event section claiming u32::MAX records after a valid log.
        let mut bytes = crafted(3, 3, &[0], 0, 1.0);
        let events_at = bytes.len() - 12;
        bytes[events_at..events_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        expect_format_error(&bytes);
    }

    #[test]
    fn rejects_inconsistent_run_starts() {
        // First start not at row 0.
        expect_format_error(&crafted(3, 3, &[1], 0, 1.0));
        // A start beyond the recorded rows (would underflow window
        // scans).
        expect_format_error(&crafted(3, 3, &[0, 5], 0, 1.0));
        // Not strictly increasing.
        expect_format_error(&crafted(3, 3, &[0, 2, 2], 0, 1.0));
        // The run-boundary edge case is legal: a reset recorded after
        // the last row leaves the final start == rows.
        assert!(HistoryStore::from_bytes(&crafted(3, 3, &[0, 3], 0, 1.0)).is_ok());
    }

    #[test]
    fn rejects_unsorted_ticks_and_non_finite_metrics() {
        expect_format_error(&crafted(3, 3, &[0], 0, f64::NAN));
        expect_format_error(&crafted(3, 3, &[0], 0, f64::INFINITY));
        // Swap the first two tick labels so the column decreases.
        let mut bytes = crafted(3, 3, &[0], 0, 1.0);
        let ticks_at = MAGIC.len() + 4 + 4 + 4 + 8 + 4 + 8;
        let (a, b) = (ticks_at, ticks_at + 8);
        for i in 0..8 {
            bytes.swap(a + i, b + i);
        }
        expect_format_error(&bytes);
    }

    #[test]
    fn known_sections_round_trip_canonically() {
        let store = sample_store();
        store.set_section(REPLAY_SECTION, vec![1, 2, 3, 4, 5]);
        let bytes = store.to_bytes();
        let (loaded, warnings) =
            HistoryStore::from_bytes_with_warnings(&bytes).expect("well-formed");
        assert!(
            warnings.is_empty(),
            "known tags must not warn: {warnings:?}"
        );
        assert_eq!(loaded.section(REPLAY_SECTION), Some(vec![1, 2, 3, 4, 5]));
        assert_eq!(loaded.section(*b"none"), None);
        assert_eq!(loaded.to_bytes(), bytes);
        // Replacing a section keeps one copy under the tag.
        loaded.set_section(REPLAY_SECTION, vec![9]);
        assert_eq!(loaded.section(REPLAY_SECTION), Some(vec![9]));
        assert_eq!(loaded.section_tags(), vec![REPLAY_SECTION]);
    }

    #[test]
    fn section_image_equals_the_builder_path() {
        let payloads: [&[u8]; 3] = [&[], b"x", &[0xab; 300]];
        for tag in [SERVE_SECTION, REPLAY_SECTION, *b"ZZT9"] {
            for payload in payloads {
                let built = HistoryStore::builder()
                    .section(tag, payload.to_vec())
                    .build()
                    .to_bytes();
                // An exact, a short and a zero size hint give the same bytes.
                for hint in [payload.len(), 1, 0] {
                    let mut image = SectionImage::new(tag, hint);
                    image.writer().raw(payload);
                    assert_eq!(image.payload_mut(), payload);
                    assert_eq!(image.finish(), built, "tag {tag:?}, hint {hint}");
                }
                assert_eq!(section_in(&built, tag).expect("well-formed"), Some(payload));
            }
        }
        // Patching the payload in place lands in the image.
        let mut image = SectionImage::new(SERVE_SECTION, 4);
        image.writer().u32(0);
        image.payload_mut()[..4].copy_from_slice(&7u32.to_le_bytes());
        let bytes = image.finish();
        assert_eq!(
            section_in(&bytes, SERVE_SECTION).expect("well-formed"),
            Some(&[7, 0, 0, 0][..])
        );
    }

    #[test]
    fn section_in_borrows_the_first_section_under_a_tag() {
        let mut bytes = crafted(3, 3, &[0], 0, 1.0);
        for (tag, payload) in [
            (REPLAY_SECTION, &b"first"[..]),
            (*b"ZZT9", b"?"),
            (REPLAY_SECTION, b"second"),
        ] {
            bytes.extend_from_slice(&tag);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(payload);
        }
        let found = section_in(&bytes, REPLAY_SECTION).expect("well-formed");
        assert_eq!(found, Some(&b"first"[..]));
        assert!(
            bytes
                .as_ptr_range()
                .contains(&found.expect("present").as_ptr()),
            "the payload is a slice of the input"
        );
        assert_eq!(
            section_in(&bytes, SERVE_SECTION).expect("well-formed"),
            None
        );
        // The rows ahead of the sections are checked as a load checks them.
        let bad = crafted(3, 3, &[0], 0, f64::NAN);
        assert!(HistoryStore::from_bytes(&bad).is_err());
        assert!(section_in(&bad, REPLAY_SECTION).is_err());
    }

    #[test]
    fn unknown_trailing_section_loads_with_a_warning() {
        // A file written by a hypothetical newer ix-history: a valid body
        // followed by a section tag this version has never heard of.
        let mut bytes = crafted(3, 3, &[0], 0, 1.0);
        bytes.extend_from_slice(b"ZZT9");
        bytes.extend_from_slice(&6u32.to_le_bytes());
        bytes.extend_from_slice(b"future");
        let (store, warnings) =
            HistoryStore::from_bytes_with_warnings(&bytes).expect("forward-compat load");
        assert_eq!(store.rows(ContextId::from_index(0)), 3);
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("ZZT9"),
            "the warning must name the tag: {}",
            warnings[0]
        );
        // The unknown section is preserved verbatim: canonical round-trip.
        assert_eq!(store.to_bytes(), bytes);
        assert_eq!(store.section(*b"ZZT9"), Some(b"future".to_vec()));
        // The warning-discarding entry point still loads the file.
        assert!(HistoryStore::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn truncated_trailing_section_still_errors() {
        let base = crafted(3, 3, &[0], 0, 1.0);
        // Fewer bytes than a tag needs.
        let mut bytes = base.clone();
        bytes.extend_from_slice(b"ZZ");
        expect_format_error(&bytes);
        // A tag with no length frame.
        let mut bytes = base.clone();
        bytes.extend_from_slice(b"ZZT9");
        expect_format_error(&bytes);
        // A length frame promising more payload than remains.
        let mut bytes = base;
        bytes.extend_from_slice(b"ZZT9");
        bytes.extend_from_slice(&100u32.to_le_bytes());
        bytes.extend_from_slice(b"short");
        expect_format_error(&bytes);
    }

    /// `crafted(3, 3, ..)` followed by one event record with `record` as
    /// its payload.
    fn with_event_record(record: &[u8]) -> Vec<u8> {
        let mut bytes = crafted(3, 3, &[0], 0, 1.0);
        let events_at = bytes.len() - 12;
        bytes.truncate(events_at);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(record.len() as u32).to_le_bytes());
        bytes.extend_from_slice(record);
        bytes.extend_from_slice(&[0; 8]); // no sweeps, no diagnoses
        bytes
    }

    #[test]
    fn side_log_records_are_binary_and_exact() {
        // DetectionFired: tag 1, context 0, tick 42.
        let mut record = vec![1, 0, 0, 0, 0];
        record.extend_from_slice(&42u64.to_le_bytes());
        let store = HistoryStore::from_bytes(&with_event_record(&record)).expect("valid");
        assert_eq!(
            store.events(),
            vec![EngineEvent::DetectionFired {
                context: ContextId::from_index(0),
                tick: 42,
            }]
        );
        // The retired JSON form is refused by name.
        let json = br#"{"type":"detection-fired","context":0,"tick":42}"#;
        match HistoryStore::from_bytes(&with_event_record(json)) {
            Err(HistoryFileError::Format(msg)) => assert!(msg.contains("retired JSON"), "{msg}"),
            other => panic!("expected a format error, got {other:?}"),
        }
        // A record with bytes left over inside its length.
        record.push(0);
        match HistoryStore::from_bytes(&with_event_record(&record)) {
            Err(HistoryFileError::Format(msg)) => assert!(msg.contains("unread"), "{msg}"),
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_canonical_columns() {
        // An exceeded flag other than 0 or 1 would load as `true` and
        // re-encode as 1.
        let mut bytes = crafted(3, 3, &[0], 0, 1.0);
        let flags_at = MAGIC.len() + 4 + 4 + 4 + 8 + 4 + 8 + 3 * 24;
        assert_eq!(bytes[flags_at], 0);
        bytes[flags_at] = 2;
        expect_format_error(&bytes);
        // Two logs for one context id: the second would replace the first.
        let one = crafted(1, 1, &[0], 0, 1.0);
        let log = &one[MAGIC.len() + 8..one.len() - 12];
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no labels
        bytes.extend_from_slice(&2u32.to_le_bytes()); // two logs
        bytes.extend_from_slice(log);
        bytes.extend_from_slice(log);
        bytes.extend_from_slice(&[0; 12]);
        expect_format_error(&bytes);
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            HistoryStore::from_bytes(b"not a history file"),
            Err(HistoryFileError::Format(_))
        ));
        let mut bytes = sample_store().to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(HistoryStore::from_bytes(&bytes).is_err());
        bytes = sample_store().to_bytes();
        bytes.push(0);
        assert!(HistoryStore::from_bytes(&bytes).is_err());
    }
}
