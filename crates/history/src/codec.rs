//! The one binary encoding of every record the workspace persists.
//!
//! The `IXHIST01` side logs (events, sweeps, diagnoses), `ix-replay`'s
//! `RPLY` header, `ix-serve`'s `SRVT` snapshot and its IXSRV01 payloads
//! all write these records with [`Writer`] and read them with the
//! bounds-checked [`Reader`]: each persisted type has exactly one encoder
//! and one decoder, here.
//!
//! Integers are little-endian and `f64`s their raw IEEE-754 bits, so every
//! value round-trips bit-exactly. A `bool` or `option` is one byte, `0` or
//! `1`; `usize` values travel as `u64`; `str` is a `u32` byte length plus
//! UTF-8. Enums are pinned bytes:
//!
//! | type | bytes |
//! |---|---|
//! | [`ContextId`] | `u32` (the unattributed sentinel is `u32::MAX`) |
//! | [`EnginePhase`] | `u8`: its index in [`EnginePhase::ALL`] |
//! | [`DegradationTier`] | `u8`: [`DegradationTier::level`] (1, 3 or 4) |
//! | [`DegradationReason`] | `u8`: 0 wall clock, 1 pair budget |
//! | [`OverloadPolicy`] | `u8`: 0 block, 1 shed oldest, 2 shed newest |
//! | [`HealthState`] | `u8`: 0 healthy, 1 degraded + tier `u8`, 2 recovering |
//!
//! Tier byte 2 (a Pearson sweep) and reason byte 2 (a predicted overrun)
//! are retired: never written, and refused on read.
//!
//! | record | layout |
//! |---|---|
//! | [`EngineEvent`] | [`EventKind`] tag `u8`, then the variant's fields in declaration order |
//! | [`SweepRecord`] | tag `b'S'`, context, tick `u64`, `u32` count + score `f64`s, degradation `option` |
//! | [`DiagnosisRecord`] | tag `b'D'`, context, tick `u64`, then the [`Diagnosis`] |
//! | [`Diagnosis`] | `u32` count + causes (problem `str`, similarity `f64`), `u32` count + tuple `f64`s, degradation `option` |
//! | degradation | tier `u8`, reason `u8` |
//! | store rows | see [`StoreRows`] |
//! | [`CapturedRun`] | ticks `u64`, previous tick anomalous `bool`, `u32` count + window `f64`s (finite, oldest row first), `u32` count + detector register `f64`s, `u32` count + detector counter `u64`s |
//! | [`QueuedTicks`] | cursor `u64`, `u32` count, then per tick: node, workload `str` each, CPI `f64`, `u32` count + row `f64`s |
//!
//! Decoding checks every count against the bytes left before it
//! allocates, and refuses an unknown tag or enum byte, a `bool` or
//! `option` byte other than `0`/`1` and non-UTF-8 text, so a record that
//! decodes re-encodes byte-identically. Every refusal is a
//! [`HistoryFileError::Format`].

use std::sync::Arc;

use ix_core::{
    ArimaModel, ArimaSpec, CapturedRun, ContextId, DegradationReason, DegradationTier, Diagnosis,
    EngineEvent, EnginePhase, EventKind, HealthState, InvariantEntry, InvariantSet, ModelStore,
    OperationContext, OverloadPolicy, PerformanceModel, QueuedTick, QueuedTicks, RankedCause,
    ResidualStats, RunState, RunView, Signature, SignatureDatabase, SweepDegradation,
    ViolationTuple,
};

use crate::file::{HistoryFileError, Reader, Writer};
use crate::store::{DiagnosisRecord, SweepRecord};

/// Leading byte of a [`SweepRecord`]. Event tags are the [`EventKind`]
/// discriminants (0–15); neither record tag is `{`, the first byte of the
/// retired JSON records, so the file reader can refuse those by name.
const SWEEP_TAG: u8 = b'S';

/// Leading byte of a [`DiagnosisRecord`].
const DIAGNOSIS_TAG: u8 = b'D';

fn malformed(msg: String) -> HistoryFileError {
    HistoryFileError::Format(msg)
}

/// A value with a pinned binary form inside a record.
trait Field: Sized {
    fn put(self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Result<Self, HistoryFileError>;
}

/// Implements [`Field`] for types the [`Writer`] and [`Reader`] carry as is.
macro_rules! primitive {
    ($($ty:ident),*) => {$(
        impl Field for $ty {
            fn put(self, w: &mut Writer) {
                w.$ty(self);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
                r.$ty()
            }
        }
    )*};
}

primitive!(u32, u64, f64);

impl Field for usize {
    fn put(self, w: &mut Writer) {
        w.u64(self as u64);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| malformed(format!("count {v} overflows usize")))
    }
}

impl Field for bool {
    fn put(self, w: &mut Writer) {
        w.bool(self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        r.bool("bool")
    }
}

impl Field for ContextId {
    fn put(self, w: &mut Writer) {
        w.u32_field(self.index());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        Ok(ContextId::from_index(r.u32()? as usize))
    }
}

/// Implements [`Field`] for a fieldless enum as its pinned bytes; any
/// other byte is refused.
macro_rules! byte_enum {
    ($ty:ident, $what:literal, { $($variant:ident = $byte:literal),* $(,)? }) => {
        impl Field for $ty {
            fn put(self, w: &mut Writer) {
                w.u8(match self {
                    $($ty::$variant => $byte,)*
                });
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
                match r.u8()? {
                    $($byte => Ok($ty::$variant),)*
                    other => Err(malformed(format!(concat!("unknown ", $what, " {}"), other))),
                }
            }
        }
    };
}

// Tier byte 2 (a Pearson sweep) and reason byte 2 (a predicted overrun)
// are retired: never written again, and refused on read.
byte_enum!(DegradationTier, "degradation tier", {
    CachedMatrix = 1,
    PartialMatrix = 3,
    Persistence = 4,
});
byte_enum!(DegradationReason, "degradation reason", {
    WallClockExceeded = 0,
    PairBudgetExceeded = 1,
});
byte_enum!(OverloadPolicy, "overload policy", {
    Block = 0,
    ShedOldest = 1,
    ShedNewest = 2,
});

impl Field for EnginePhase {
    fn put(self, w: &mut Writer) {
        w.u8(self.index() as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        let byte = r.u8()?;
        EnginePhase::ALL
            .get(usize::from(byte))
            .copied()
            .ok_or_else(|| malformed(format!("unknown engine phase {byte}")))
    }
}

impl Field for HealthState {
    fn put(self, w: &mut Writer) {
        match self {
            HealthState::Healthy => w.u8(0),
            HealthState::Degraded(tier) => {
                w.u8(1);
                tier.put(w);
            }
            HealthState::Recovering => w.u8(2),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        match r.u8()? {
            0 => Ok(HealthState::Healthy),
            1 => Ok(HealthState::Degraded(DegradationTier::get(r)?)),
            2 => Ok(HealthState::Recovering),
            other => Err(malformed(format!("unknown health state {other}"))),
        }
    }
}

impl Field for Option<SweepDegradation> {
    fn put(self, w: &mut Writer) {
        self.is_some().put(w);
        if let Some(d) = self {
            d.tier.put(w);
            d.reason.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, HistoryFileError> {
        if !r.bool("degradation option")? {
            return Ok(None);
        }
        let tier = DegradationTier::get(r)?;
        let reason = DegradationReason::get(r)?;
        // lint: allow(degradation-emits-event) a decoded record carries a
        // degradation the recording engine already declared on its stream
        Ok(Some(SweepDegradation { tier, reason }))
    }
}

/// The event record codec: each variant's fields, in declaration order.
macro_rules! event_records {
    ($($variant:ident { $($field:ident),* }),* $(,)?) => {
        /// Writes one event record: its [`EventKind`] tag, then its fields.
        pub(crate) fn write_event(w: &mut Writer, event: &EngineEvent) {
            w.u8(event.kind() as u8);
            match *event {
                $(EngineEvent::$variant { $($field),* } => { $($field.put(w);)* })*
            }
        }

        /// Reads one event record written by [`write_event`].
        pub(crate) fn read_event(r: &mut Reader<'_>) -> Result<EngineEvent, HistoryFileError> {
            match r.u8()? {
                $(tag if tag == EventKind::$variant as u8 => Ok(EngineEvent::$variant {
                    $($field: Field::get(r)?),*
                }),)*
                tag => Err(malformed(format!("unknown event tag {tag}"))),
            }
        }
    };
}

event_records! {
    TickIngested { context, tick, residual, exceeded, micros },
    DetectionFired { context, tick },
    DetectionCleared { context, tick },
    DiagnosisRan { context, tick, micros },
    SignatureMatched { context, tick, best_similarity, confident },
    SweepCompleted { context, pairs, micros },
    PairsScored { context, pairs, micros },
    SweepScreened { context, reused, screened, confirmed },
    SpanClosed { phase, context, micros },
    SweepDegraded { context, tier, reason },
    TickEnqueued { context, depth },
    TickShed { context, policy },
    StoreRetried { context, attempt, backoff_micros },
    HealthChanged { context, from, to },
    TenantEvicted { context, tenant, ticks },
    TenantWarmed { context, tenant, micros },
}

/// Writes a [`Diagnosis`]'s fields (see the module-level table).
pub fn write_diagnosis(w: &mut Writer, diagnosis: &Diagnosis) {
    w.u32_field(diagnosis.ranked.len());
    for cause in &diagnosis.ranked {
        w.bytes(cause.problem.as_bytes());
        w.f64(cause.similarity);
    }
    w.f64_list(diagnosis.tuple.graded());
    diagnosis.degradation.put(w);
}

/// Reads a [`Diagnosis`] written by [`write_diagnosis`].
///
/// # Errors
///
/// [`HistoryFileError::Format`] on truncation, non-UTF-8 text, or a byte
/// the layout does not allow.
pub fn read_diagnosis(r: &mut Reader<'_>) -> Result<Diagnosis, HistoryFileError> {
    // A cause is at least its problem's length field and similarity.
    let n = r.count(4 + 8)?;
    let mut ranked = Vec::with_capacity(n);
    for _ in 0..n {
        ranked.push(RankedCause {
            problem: r.str()?.to_owned(),
            similarity: r.f64()?,
        });
    }
    let n = r.count(8)?;
    let tuple = ViolationTuple::from_graded(r.f64s(n)?);
    Ok(Diagnosis {
        ranked,
        tuple,
        degradation: Field::get(r)?,
    })
}

/// Writes one sweep record.
pub(crate) fn write_sweep(w: &mut Writer, record: &SweepRecord) {
    w.u8(SWEEP_TAG);
    record.context.put(w);
    w.u64(record.tick);
    w.f64_list(&record.scores);
    record.degradation.put(w);
}

/// Reads one sweep record written by [`write_sweep`].
pub(crate) fn read_sweep(r: &mut Reader<'_>) -> Result<SweepRecord, HistoryFileError> {
    expect_tag(r, SWEEP_TAG, "sweep")?;
    let context = ContextId::get(r)?;
    let tick = r.u64()?;
    let n = r.count(8)?;
    Ok(SweepRecord {
        context,
        tick,
        scores: r.f64s(n)?,
        degradation: Field::get(r)?,
    })
}

/// Writes one diagnosis record.
pub(crate) fn write_diagnosis_record(w: &mut Writer, record: &DiagnosisRecord) {
    w.u8(DIAGNOSIS_TAG);
    record.context.put(w);
    w.u64(record.tick);
    write_diagnosis(w, &record.diagnosis);
}

/// Reads one diagnosis record written by [`write_diagnosis_record`].
pub(crate) fn read_diagnosis_record(
    r: &mut Reader<'_>,
) -> Result<DiagnosisRecord, HistoryFileError> {
    expect_tag(r, DIAGNOSIS_TAG, "diagnosis")?;
    Ok(DiagnosisRecord {
        context: ContextId::get(r)?,
        tick: r.u64()?,
        diagnosis: read_diagnosis(r)?,
    })
}

/// Writes a run — borrowed from an [`ix_core::EngineImage`] or a
/// [`CapturedRun`] — as a [`CapturedRun`] record (see the module-level
/// table). Every float is its raw bits, so the run continues
/// bit-identically once decoded.
pub fn write_run(w: &mut Writer, run: &RunView<'_>) {
    w.u64(run.ticks as u64);
    w.bool(run.prev_anomalous);
    w.u32_field(run.window_len());
    w.f64s(run.window.0);
    w.f64s(run.window.1);
    w.f64_list(&run.detector.registers);
    w.u32_field(run.detector.counters.len());
    for &counter in &run.detector.counters {
        w.u64(counter);
    }
}

/// The exact number of bytes [`write_run`] appends for `run`.
pub fn run_encoded_len(run: &RunView<'_>) -> usize {
    8 + 1
        + 4
        + 8 * run.window_len()
        + 4
        + 8 * run.detector.registers.len()
        + 4
        + 8 * run.detector.counters.len()
}

/// Reads a [`CapturedRun`] written by [`write_run`]. Only the format is
/// checked here; whether a run of some detector could be in the state is
/// [`ix_core::EngineImage::decoded`]'s to refuse.
///
/// # Errors
///
/// [`HistoryFileError::Format`] on truncation, a count the remaining
/// bytes cannot back, a tick count that overflows `usize`, a flag byte
/// other than `0`/`1` or a non-finite window value.
pub fn read_run(r: &mut Reader<'_>) -> Result<CapturedRun, HistoryFileError> {
    let ticks =
        usize::try_from(r.u64()?).map_err(|_| malformed("run tick count overflows".to_string()))?;
    let prev_anomalous = r.bool("previous-tick-anomalous flag")?;
    let window = r.finite_f64s()?;
    let n = r.count(8)?;
    let registers = r.f64s(n)?;
    let n = r.count(8)?;
    let counters = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
    Ok(CapturedRun {
        ticks,
        prev_anomalous,
        window,
        detector: RunState {
            registers,
            counters,
        },
    })
}

/// Writes [`QueuedTicks`] (see the module-level table), each value as the
/// submitter sent it: a queued tick is checked only when it is drained.
pub fn write_queue(w: &mut Writer, queue: &QueuedTicks) {
    w.u64(queue.cursor as u64);
    w.u32_field(queue.ticks.len());
    for tick in &queue.ticks {
        w.bytes(tick.context.node.as_bytes());
        w.bytes(tick.context.workload.as_bytes());
        w.f64(tick.cpi);
        w.f64_list(&tick.row);
    }
}

/// The exact number of bytes [`write_queue`] appends for `queue`.
pub fn queue_encoded_len(queue: &QueuedTicks) -> usize {
    let ticks: usize = (queue.ticks.iter())
        .map(|t| 4 + t.context.node.len() + 4 + t.context.workload.len() + 8 + 4 + 8 * t.row.len())
        .sum();
    8 + 4 + ticks
}

/// Reads [`QueuedTicks`] written by [`write_queue`].
///
/// # Errors
///
/// [`HistoryFileError::Format`] on truncation, a count the remaining
/// bytes cannot back, a cursor that overflows `usize` or non-UTF-8 text.
pub fn read_queue(r: &mut Reader<'_>) -> Result<QueuedTicks, HistoryFileError> {
    let cursor =
        usize::try_from(r.u64()?).map_err(|_| malformed("queue cursor overflows".to_string()))?;
    // Smallest tick: two string lengths, the CPI and the row count.
    let n = r.count(20)?;
    let mut ticks = Vec::with_capacity(n);
    for _ in 0..n {
        let node = r.str()?;
        let workload = r.str()?;
        let cpi = r.f64()?;
        let len = r.count(8)?;
        ticks.push(QueuedTick {
            context: OperationContext::new(node, workload),
            cpi,
            row: r.f64s(len)?,
        });
    }
    Ok(QueuedTicks { cursor, ticks })
}

fn expect_tag(r: &mut Reader<'_>, tag: u8, what: &str) -> Result<(), HistoryFileError> {
    match r.u8()? {
        found if found == tag => Ok(()),
        found => Err(malformed(format!(
            "{what} record tag {found:#04x} is not {tag:#04x}"
        ))),
    }
}

/// A [`ModelStore`]'s rows, in the order the store holds them: models
/// and invariant sets in key order, then the signatures.
///
/// | row | encoding |
/// |---|---|
/// | performance models | `u32` count, then per model: key `str`, p/d/q `u32` each, intercept `f64`, `u32` count + AR `f64`s, `u32` count + MA `f64`s, σ² `f64`, n_effective `u64`, residual max/min/p95 `f64` each, β `f64` |
/// | invariant sets | `u32` count, then per set: key `str`, τ `f64`, `u32` count + `(u32 pair, f64 value)` entries |
/// | signatures | `u32` count, then per signature: problem, node, workload `str` each, `u32` count + graded `f64`s |
///
/// [`read_store_rows`] builds the engine's live values and refuses what
/// loading the store into an engine would trip over: keys out of order or
/// not in `workload@node` form, a model
/// [`ArimaModel::from_coefficients`] refuses (coefficient counts that
/// disagree with the orders, a negative σ²), a non-finite model or
/// signature value, and invariant entries [`InvariantSet::from_entries`]
/// refuses. This is the one place a stored model is validated: loading a
/// decoded store shares its values and checks nothing again.
#[derive(Debug, Clone, Copy)]
pub struct StoreRows<'a> {
    store: &'a ModelStore,
}

/// The rows of a [`ModelStore`].
pub fn store_rows(store: &ModelStore) -> StoreRows<'_> {
    StoreRows { store }
}

impl StoreRows<'_> {
    /// The exact number of bytes [`StoreRows::write`] appends; each term
    /// is a row of the layout table.
    pub fn encoded_len(&self) -> usize {
        let text = |len: usize| 4 + len;
        let floats = |n: usize| 4 + 8 * n;
        let models: usize = self
            .store
            .performance_models
            .iter()
            .map(|(key, m)| {
                let a = m.arima();
                let coefficients =
                    floats(a.ar_coefficients().len()) + floats(a.ma_coefficients().len());
                text(key.len()) + 12 + 8 + coefficients + 48
            })
            .sum();
        let invariants: usize = self
            .store
            .invariants
            .iter()
            .map(|(key, set)| text(key.len()) + 8 + 4 + 12 * set.len())
            .sum();
        let signatures: usize = self
            .store
            .signatures
            .records()
            .iter()
            .map(|s| {
                text(s.problem.len())
                    + text(s.context.node.len())
                    + text(s.context.workload.len())
                    + floats(s.tuple.len())
            })
            .sum();
        12 + models + invariants + signatures
    }

    /// Appends the rows.
    pub fn write(self, w: &mut Writer) {
        w.u32_field(self.store.performance_models.len());
        for (key, m) in &self.store.performance_models {
            let a = m.arima();
            let spec = a.spec();
            let stats = m.stats();
            w.bytes(key.as_bytes());
            w.u32_field(spec.p);
            w.u32_field(spec.d);
            w.u32_field(spec.q);
            w.f64(a.intercept());
            w.f64_list(a.ar_coefficients());
            w.f64_list(a.ma_coefficients());
            w.f64(a.sigma2());
            w.u64(a.n_effective() as u64);
            w.f64s(&[stats.max, stats.min, stats.p95, m.beta()]);
        }

        w.u32_field(self.store.invariants.len());
        for (key, set) in &self.store.invariants {
            w.bytes(key.as_bytes());
            w.f64(set.tau());
            w.u32_field(set.len());
            for e in set.entries() {
                w.u32_field(e.pair);
                w.f64(e.value);
            }
        }

        let signatures = self.store.signatures.records();
        w.u32_field(signatures.len());
        for s in signatures {
            w.bytes(s.problem.as_bytes());
            w.bytes(s.context.node.as_bytes());
            w.bytes(s.context.workload.as_bytes());
            w.f64_list(s.tuple.graded());
        }
    }
}

/// Reads store rows written by [`StoreRows::write`].
///
/// # Errors
///
/// [`HistoryFileError::Format`] on truncation, a count the remaining
/// bytes cannot back, or any refusal listed on [`StoreRows`].
pub fn read_store_rows(r: &mut Reader<'_>) -> Result<ModelStore, HistoryFileError> {
    let mut store = ModelStore::new();
    // Smallest model: key length, p/d/q, intercept, two list counts, σ²,
    // n_effective, three residual stats and β.
    let models = r.count(80)?;
    let mut last_key = None;
    for _ in 0..models {
        let key = next_key(r, &mut last_key)?;
        let p = r.u32()? as usize;
        let d = r.u32()? as usize;
        let q = r.u32()? as usize;
        let intercept = r.finite_f64()?;
        let ar = r.finite_f64s()?;
        let ma = r.finite_f64s()?;
        let sigma2 = r.finite_f64()?;
        let n_effective = usize::try_from(r.u64()?)
            .map_err(|_| malformed(format!("model `{key}`: n_effective overflows")))?;
        let stats = ResidualStats {
            max: r.finite_f64()?,
            min: r.finite_f64()?,
            p95: r.finite_f64()?,
        };
        let beta = r.finite_f64()?;
        let (ar_len, ma_len) = (ar.len(), ma.len());
        let arima = ArimaModel::from_coefficients(
            ArimaSpec::new(p, d, q),
            intercept,
            ar,
            ma,
            sigma2,
            n_effective,
        )
        .map_err(|_| {
            malformed(format!(
                "model `{key}`: orders ({p}, {d}, {q}) with {ar_len} AR and {ma_len} MA \
                 coefficients and σ² {sigma2} do not form a model"
            ))
        })?;
        store.performance_models.insert(
            key.to_string(),
            Arc::new(PerformanceModel::from_parts(arima, stats, beta)),
        );
    }

    // Smallest set: key length, τ, entry count.
    let sets = r.count(16)?;
    let mut last_key = None;
    for _ in 0..sets {
        let key = next_key(r, &mut last_key)?;
        let tau = r.f64()?;
        let n = r.count(12)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let pair = r.u32()? as usize;
            let value = r.f64()?;
            entries.push(InvariantEntry { pair, value });
        }
        let set = InvariantSet::from_entries(entries, tau)
            .map_err(|e| malformed(format!("invariants `{key}`: {e}")))?;
        store.invariants.insert(key.to_string(), Arc::new(set));
    }

    // Smallest signature: three string lengths and the tuple count.
    let signatures = r.count(16)?;
    let mut db = SignatureDatabase::new();
    for _ in 0..signatures {
        let problem = r.str()?.to_string();
        let node = r.str()?;
        let workload = r.str()?;
        let graded = r.finite_f64s()?;
        db.add(Signature {
            tuple: ViolationTuple::from_graded(graded),
            problem,
            context: OperationContext::new(node, workload),
        });
    }
    store.signatures = Arc::new(db);
    Ok(store)
}

/// Reads a `workload@node` map key that must sort strictly after the
/// previous one, so a decoded map re-encodes to the same bytes.
fn next_key<'a>(
    r: &mut Reader<'a>,
    last: &mut Option<&'a str>,
) -> Result<&'a str, HistoryFileError> {
    let key = r.str()?;
    if last.is_some_and(|prev| key <= prev) {
        return Err(malformed(format!("key `{key}` is out of order")));
    }
    if !key.contains('@') {
        return Err(malformed(format!(
            "key `{key}` is not in workload@node form"
        )));
    }
    *last = Some(key);
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One little-endian field of an expected record.
    enum F {
        B(u8),
        W(u32),
        Q(u64),
        D(f64),
    }

    fn image(fields: &[F]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in fields {
            match *f {
                F::B(v) => out.push(v),
                F::W(v) => out.extend_from_slice(&v.to_le_bytes()),
                F::Q(v) => out.extend_from_slice(&v.to_le_bytes()),
                F::D(v) => out.extend_from_slice(&v.to_bits().to_le_bytes()),
            }
        }
        out
    }

    fn encoded(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::default();
        write(&mut w);
        w.into_bytes()
    }

    /// Decodes `bytes` with `read`, requiring it to consume them all.
    fn decoded<T>(
        bytes: &[u8],
        read: impl FnOnce(&mut Reader<'_>) -> Result<T, HistoryFileError>,
    ) -> Result<T, HistoryFileError> {
        let mut r = Reader::new(bytes);
        let value = read(&mut r)?;
        assert_eq!(r.remaining(), 0, "the record consumes exactly its bytes");
        Ok(value)
    }

    /// Pins every event variant's record byte for byte, and round-trips
    /// it. A failure here is a format break: traces written by older
    /// builds would no longer load.
    #[test]
    fn every_event_record_is_pinned() {
        use F::{B, D, Q, W};
        let ctx = ContextId::from_index(3);
        let none = ContextId::UNATTRIBUTED;
        let cases = [
            (
                EngineEvent::TickIngested {
                    context: ctx,
                    tick: 42,
                    residual: 0.25,
                    exceeded: true,
                    micros: 7,
                },
                vec![B(0), W(3), Q(42), D(0.25), B(1), Q(7)],
            ),
            (
                EngineEvent::DetectionFired {
                    context: ctx,
                    tick: 42,
                },
                vec![B(1), W(3), Q(42)],
            ),
            (
                EngineEvent::DetectionCleared {
                    context: ctx,
                    tick: 50,
                },
                vec![B(2), W(3), Q(50)],
            ),
            (
                EngineEvent::DiagnosisRan {
                    context: ctx,
                    tick: 42,
                    micros: 1200,
                },
                vec![B(3), W(3), Q(42), Q(1200)],
            ),
            (
                EngineEvent::SignatureMatched {
                    context: ctx,
                    tick: 42,
                    best_similarity: 0.875,
                    confident: false,
                },
                vec![B(4), W(3), Q(42), D(0.875), B(0)],
            ),
            (
                EngineEvent::SweepCompleted {
                    context: ctx,
                    pairs: 325,
                    micros: 5000,
                },
                vec![B(5), W(3), Q(325), Q(5000)],
            ),
            (
                EngineEvent::PairsScored {
                    context: ctx,
                    pairs: 4,
                    micros: 60,
                },
                vec![B(6), W(3), Q(4), Q(60)],
            ),
            (
                EngineEvent::SweepScreened {
                    context: ctx,
                    reused: 300,
                    screened: 20,
                    confirmed: 5,
                },
                vec![B(7), W(3), Q(300), Q(20), Q(5)],
            ),
            (
                EngineEvent::SpanClosed {
                    phase: EnginePhase::ProfileBuild,
                    context: ctx,
                    micros: 9,
                },
                vec![B(8), B(5), W(3), Q(9)],
            ),
            (
                EngineEvent::SweepDegraded {
                    context: ctx,
                    tier: DegradationTier::PartialMatrix,
                    reason: DegradationReason::PairBudgetExceeded,
                },
                vec![B(9), W(3), B(3), B(1)],
            ),
            (
                EngineEvent::TickEnqueued {
                    context: ctx,
                    depth: 4,
                },
                vec![B(10), W(3), Q(4)],
            ),
            (
                EngineEvent::TickShed {
                    context: ctx,
                    policy: OverloadPolicy::ShedNewest,
                },
                vec![B(11), W(3), B(2)],
            ),
            (
                EngineEvent::StoreRetried {
                    context: none,
                    attempt: 2,
                    backoff_micros: 2048,
                },
                vec![B(12), W(u32::MAX), W(2), Q(2048)],
            ),
            (
                EngineEvent::HealthChanged {
                    context: ctx,
                    from: HealthState::Recovering,
                    to: HealthState::Degraded(DegradationTier::CachedMatrix),
                },
                vec![B(13), W(3), B(2), B(1), B(1)],
            ),
            (
                EngineEvent::TenantEvicted {
                    context: none,
                    tenant: 12,
                    ticks: 480,
                },
                vec![B(14), W(u32::MAX), Q(12), Q(480)],
            ),
            (
                EngineEvent::TenantWarmed {
                    context: none,
                    tenant: 12,
                    micros: 420,
                },
                vec![B(15), W(u32::MAX), Q(12), Q(420)],
            ),
        ];
        for (event, fields) in cases {
            let bytes = encoded(|w| write_event(w, &event));
            assert_eq!(bytes, image(&fields), "pinned record of {event:?}");
            assert_eq!(bytes[0], event.kind() as u8);
            assert_eq!(decoded(&bytes, read_event).expect("decodes"), event);
        }
    }

    #[test]
    fn every_enum_byte_is_pinned() {
        use F::{B, W};
        let health = |from, to| EngineEvent::HealthChanged {
            context: ContextId::from_index(0),
            from,
            to,
        };
        let tiers = [
            (DegradationTier::CachedMatrix, 1),
            (DegradationTier::PartialMatrix, 3),
            (DegradationTier::Persistence, 4),
        ];
        for (tier, byte) in tiers {
            let event = health(HealthState::Healthy, HealthState::Degraded(tier));
            let bytes = encoded(|w| write_event(w, &event));
            assert_eq!(bytes, image(&[B(13), W(0), B(0), B(1), B(byte)]));
            assert_eq!(decoded(&bytes, read_event).expect("decodes"), event);
        }
        for (phase, byte) in EnginePhase::ALL.into_iter().zip(0u8..) {
            let event = EngineEvent::SpanClosed {
                phase,
                context: ContextId::from_index(0),
                micros: 0,
            };
            assert_eq!(encoded(|w| write_event(w, &event))[1], byte, "{phase:?}");
        }
        let policies = [
            OverloadPolicy::Block,
            OverloadPolicy::ShedOldest,
            OverloadPolicy::ShedNewest,
        ];
        for (policy, byte) in policies.into_iter().zip(0u8..) {
            let event = EngineEvent::TickShed {
                context: ContextId::from_index(0),
                policy,
            };
            assert_eq!(encoded(|w| write_event(w, &event))[5], byte, "{policy:?}");
        }
    }

    #[test]
    fn unknown_and_retired_bytes_are_refused() {
        use F::{B, Q, W};
        let refused = |fields: &[F]| decoded(&image(fields), read_event).is_err();
        // Tags past the last kind, and the JSON form's `{`.
        assert!(refused(&[B(16), W(0), Q(0)]));
        assert!(refused(&[B(b'{'), W(0), Q(0)]));
        // Retired tier byte 2 and reason byte 2.
        assert!(refused(&[B(9), W(0), B(2), B(0)]));
        assert!(refused(&[B(9), W(0), B(3), B(2)]));
        assert!(!refused(&[B(9), W(0), B(3), B(0)]));
        // A bool byte other than 0 or 1.
        assert!(refused(&[B(4), W(0), Q(0), Q(0), B(2)]));
        // An unknown phase, policy and health state.
        assert!(refused(&[B(8), B(7), W(0), Q(0)]));
        assert!(refused(&[B(11), W(0), B(3)]));
        assert!(refused(&[B(13), W(0), B(3), B(0)]));
    }

    fn degraded_diagnosis() -> Diagnosis {
        Diagnosis {
            ranked: vec![RankedCause {
                problem: "Mem-hog".to_string(),
                similarity: 0.5,
            }],
            tuple: ViolationTuple::from_graded(vec![0.0, 1.0]),
            degradation: Some(SweepDegradation {
                tier: DegradationTier::CachedMatrix,
                reason: DegradationReason::WallClockExceeded,
            }),
        }
    }

    #[test]
    fn diagnosis_and_side_log_records_are_pinned() {
        use F::{B, D, Q, W};
        let diagnosis = degraded_diagnosis();
        let mut fields = vec![W(1), W(7)];
        fields.extend(b"Mem-hog".iter().map(|&b| B(b)));
        fields.extend([D(0.5), W(2), D(0.0), D(1.0), B(1), B(1), B(0)]);
        let body = image(&fields);
        let bytes = encoded(|w| write_diagnosis(w, &diagnosis));
        assert_eq!(bytes, body);
        assert_eq!(decoded(&bytes, read_diagnosis).expect("decodes"), diagnosis);

        let record = DiagnosisRecord {
            context: ContextId::from_index(2),
            tick: 9,
            diagnosis,
        };
        let bytes = encoded(|w| write_diagnosis_record(w, &record));
        let mut expected = image(&[B(DIAGNOSIS_TAG), W(2), Q(9)]);
        expected.extend_from_slice(&body);
        assert_eq!(bytes, expected);
        assert_eq!(
            decoded(&bytes, read_diagnosis_record).expect("decodes"),
            record
        );

        let sweep = SweepRecord {
            context: ContextId::from_index(2),
            tick: 9,
            scores: vec![0.25, 0.5],
            degradation: None,
        };
        let bytes = encoded(|w| write_sweep(w, &sweep));
        assert_eq!(
            bytes,
            image(&[B(SWEEP_TAG), W(2), Q(9), W(2), D(0.25), D(0.5), B(0)])
        );
        assert_eq!(decoded(&bytes, read_sweep).expect("decodes"), sweep);
        // A sweep record where a diagnosis record belongs is refused.
        assert!(decoded(&bytes, read_diagnosis_record).is_err());
    }

    /// A store holding one ARIMA(1,0,1) model under `key`.
    fn one_model_store(key: &str) -> ModelStore {
        let arima = ArimaModel::from_coefficients(
            ArimaSpec::new(1, 0, 1),
            0.5,
            vec![0.25],
            vec![-0.5],
            2.0,
            7,
        )
        .expect("a valid model");
        let stats = ResidualStats {
            max: 1.0,
            min: 0.0,
            p95: 0.75,
        };
        let mut store = ModelStore::new();
        store.performance_models.insert(
            key.to_string(),
            Arc::new(PerformanceModel::from_parts(arima, stats, 1.5)),
        );
        store
    }

    #[test]
    fn store_rows_an_engine_could_not_load_are_refused() {
        let refusal = |bytes: &[u8]| match decoded(bytes, read_store_rows) {
            Err(HistoryFileError::Format(msg)) => msg,
            other => panic!("expected a refusal, got {other:?}"),
        };
        let ok = one_model_store("Sort@n1");
        let bytes = encoded(|w| store_rows(&ok).write(w));
        assert_eq!(decoded(&bytes, read_store_rows).expect("decodes"), ok);
        // The model row after the count and "Sort@n1": p, d, q at 15, 19
        // and 23; intercept; the AR count at 35 and its value; the MA
        // count at 47 and its value; σ² at 59.
        let patched = |at: usize, value: &[u8]| {
            let mut b = bytes.clone();
            b[at..at + value.len()].copy_from_slice(value);
            b
        };
        for damaged in [
            patched(15, &2u32.to_le_bytes()),
            patched(23, &0u32.to_le_bytes()),
            patched(59, &(-1.0f64).to_bits().to_le_bytes()),
        ] {
            let msg = refusal(&damaged);
            assert!(msg.contains("do not form a model"), "{msg}");
        }
        let bad_key = one_model_store("Sort");
        let msg = refusal(&encoded(|w| store_rows(&bad_key).write(w)));
        assert!(msg.contains("not in workload@node form"), "{msg}");
    }

    #[test]
    fn run_and_queue_records_are_pinned() {
        use F::{B, D, Q, W};
        let run = CapturedRun {
            ticks: 5,
            prev_anomalous: true,
            window: vec![0.5, 1.5],
            detector: RunState {
                registers: vec![f64::NAN, -0.25],
                counters: vec![3],
            },
        };
        let bytes = encoded(|w| write_run(w, &run.view()));
        assert_eq!(bytes.len(), run_encoded_len(&run.view()));
        let mut expected = image(&[Q(5), B(1), W(2), D(0.5), D(1.5), W(2)]);
        expected.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        expected.extend(image(&[D(-0.25), W(1), Q(3)]));
        assert_eq!(bytes, expected);
        let back = decoded(&bytes, read_run).expect("decodes");
        assert_eq!(
            encoded(|w| write_run(w, &back.view())),
            bytes,
            "raw register bits"
        );
        // A window held as a ring's two halves writes as one list.
        let halves = RunView {
            window: (&run.window[..1], &run.window[1..]),
            ..run.view()
        };
        assert_eq!(encoded(|w| write_run(w, &halves)), bytes);
        // A window value is a metric sample, so it must be finite.
        let mut bad = bytes.clone();
        bad[13..21].copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        assert!(decoded(&bad, read_run).is_err());

        let queue = QueuedTicks {
            cursor: 2,
            ticks: vec![QueuedTick {
                context: OperationContext::new("n", "W"),
                cpi: f64::NAN,
                row: vec![0.5],
            }],
        };
        let bytes = encoded(|w| write_queue(w, &queue));
        assert_eq!(bytes.len(), queue_encoded_len(&queue));
        let mut expected = image(&[Q(2), W(1), W(1), B(b'n'), W(1), B(b'W')]);
        expected.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        expected.extend(image(&[W(1), D(0.5)]));
        assert_eq!(bytes, expected);
        let back = decoded(&bytes, read_queue).expect("decodes");
        assert_eq!(
            encoded(|w| write_queue(w, &back)),
            bytes,
            "a queued NaN as sent"
        );
        let mut inflated = bytes;
        inflated[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decoded(&inflated, read_queue).is_err());
    }

    #[test]
    fn store_rows_round_trip_at_their_exact_length() {
        let mut store = one_model_store("Sort@n1");
        let entries = vec![InvariantEntry {
            pair: 3,
            value: 0.5,
        }];
        store.invariants.insert(
            "Sort@n1".to_string(),
            Arc::new(InvariantSet::from_entries(entries, 0.25).expect("valid")),
        );
        Arc::make_mut(&mut store.signatures).add(Signature {
            tuple: ViolationTuple::from_graded(vec![0.0]),
            problem: "hog".to_string(),
            context: OperationContext::new("n1", "Sort"),
        });
        for store in [ModelStore::new(), store] {
            let rows = store_rows(&store);
            let len = rows.encoded_len();
            let bytes = encoded(|w| rows.write(w));
            assert_eq!(bytes.len(), len);
            assert_eq!(decoded(&bytes, read_store_rows).expect("decodes"), store);
        }
    }
}
