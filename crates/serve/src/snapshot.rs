//! Tenant snapshots: everything an evicted tenant needs to warm back up.
//!
//! An eviction must be invisible to the tenant: the warmed engine has to
//! continue *bit-identically* to one that was never torn down. The
//! snapshot therefore carries the three inputs that determine a tenant
//! engine — its [`InvarNetConfig`], its trained [`ModelStore`]
//! (performance models, invariant sets, signatures), and the live run
//! state the trained store does not cover: the engine-wide lifetime tick
//! counter plus, per context, the `(cpi, metric_row)` tail of the current
//! run (replayed through `Engine::restore_run` on warm). A tail is held
//! flat — one `Vec<f64>` per context, [`TAIL_STRIDE`] values per tick —
//! so a served tick appends to it without allocating, an eviction moves
//! it and a decode fills one buffer.
//!
//! A fleet holds an in-memory cold tenant as the decoded image itself
//! ([`TenantImage`]: the trained store and the run tails, no config row)
//! and meets these bytes only at the process boundary: a snapshot file,
//! `Fleet::snapshot_bytes` and `Fleet::adopt`. It encodes through the
//! same encoder as [`TenantSnapshot::to_bytes`], so both produce the same
//! bytes. The config row is the fleet's cached canonical JSON, serialized
//! once when the fleet is built. A fleet reading an image compares that
//! row with its cached JSON as bytes and parses it only when they differ.
//!
//! The container is an `IXHIST01` file with no tick rows: the whole
//! snapshot is the binary `SRVT` trailing section
//! ([`ix_history::SERVE_SECTION`]), so reading one takes a fixed-size
//! header plus one section — microseconds, independent of how long the
//! tenant has been alive. Any `IXHIST01` reader that predates the tag
//! still loads the file (with a warning) and carries the section
//! verbatim.
//!
//! # `SRVT` layout (version 2)
//!
//! Little-endian, encoded with `ix-history`'s [`Writer`] and decoded with
//! its bounds-checked [`Reader`]. `str` is a `u32` byte length plus UTF-8;
//! `f64` is the raw IEEE-754 bits, so every value round-trips bit-exactly.
//!
//! | field | encoding |
//! |---|---|
//! | version | `u32` ([`SNAPSHOT_VERSION`]) |
//! | checksum | `u64` over every byte after this field |
//! | lifetime ticks | `u64` |
//! | config | `str`: the canonical JSON of the [`InvarNetConfig`] |
//! | store rows | the model-store rows of [`ix_history::codec::StoreRows`]: performance models, invariant sets, signatures |
//! | contexts | `u32` count, then per context: node, workload `str` each, truncated `u8`, `u32` count + tail ticks, each `cpi f64` + `u32` count + row `f64`s |
//!
//! The container is read in place ([`ix_history::section_in`]): the
//! payload is never copied out of the image. Decoding checks every count
//! against the bytes left before it allocates, and refuses what the
//! engine would trip over later: a bad checksum, trailing bytes, a
//! non-finite float, non-UTF-8 text, a tail tick whose row is not
//! [`METRIC_COUNT`] values wide, and the store rows' own refusals (map
//! keys out of order, invariant pairs that are out of range or not
//! strictly increasing). Every refusal is a [`ServeError::Snapshot`].

use ix_core::{InvarNetConfig, ModelStore};
use ix_history::codec;
use ix_history::{section_in, HistoryFileError, Reader, SectionImage, SERVE_SECTION};
use ix_metrics::METRIC_COUNT;

use crate::error::ServeError;

/// The snapshot version this crate writes and the only one it reads.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Values one tick occupies in a flat run tail ([`ContextState::tail`]):
/// the CPI sample the detector stepped on, then the metric row the
/// sliding window absorbed.
pub const TAIL_STRIDE: usize = 1 + METRIC_COUNT;

/// Bytes ahead of the checksummed body: version (4) + checksum (8).
const HEADER_BYTES: usize = 12;

/// Bytes one tail tick occupies in the image: the CPI, the row count and
/// the row.
const TICK_BYTES: usize = 8 + 4 + 8 * METRIC_COUNT;

/// One context's live state at eviction time.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextState {
    /// The context's node half (`OperationContext::new(node, workload)`).
    pub node: String,
    /// The context's workload half.
    pub workload: String,
    /// The current run's ticks since the last reset, oldest first, flat:
    /// [`TAIL_STRIDE`] values per tick, its CPI then its metric row. Empty
    /// when [`ContextState::truncated`] is set — the run outgrew the
    /// fleet's tail cap and the warmed context starts a fresh run instead.
    pub tail: Vec<f64>,
    /// Whether the run tail outgrew the cap and was dropped (the warmed
    /// engine resets this context's run rather than restoring it).
    pub truncated: bool,
}

/// Everything needed to rebuild an evicted tenant's engine, bit-identical
/// to the moment of eviction.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Snapshot format version (see [`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The tenant engine's configuration.
    pub config: InvarNetConfig,
    /// The trained state (models, invariants, signatures).
    pub store: ModelStore,
    /// The engine-wide lifetime tick counter at eviction.
    pub lifetime_ticks: u64,
    /// Per-context live run state.
    pub contexts: Vec<ContextState>,
}

impl TenantSnapshot {
    /// A current-version snapshot of the given tenant state.
    pub fn new(
        config: InvarNetConfig,
        store: ModelStore,
        lifetime_ticks: u64,
        contexts: Vec<ContextState>,
    ) -> Self {
        TenantSnapshot {
            version: SNAPSHOT_VERSION,
            config,
            store,
            lifetime_ticks,
            contexts,
        }
    }

    /// Serializes the snapshot into a row-free `IXHIST01` image carrying
    /// the `SRVT` section — through the one encoder a fleet's eviction
    /// uses, so a decoded image re-encodes to the same bytes.
    ///
    /// # Panics
    ///
    /// Panics when a context's tail is not a whole number of
    /// [`TAIL_STRIDE`]-value ticks.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(
            self.contexts
                .iter()
                .all(|c| c.tail.len() % TAIL_STRIDE == 0),
            "a run tail holds whole ticks of TAIL_STRIDE values"
        );
        let config =
            serde_json::to_string(&self.config).expect("config serialization is infallible");
        encode(Parts {
            version: self.version,
            lifetime_ticks: self.lifetime_ticks,
            config: &config,
            store: &self.store,
            contexts: self.contexts.iter().map(ContextView::from),
        })
    }

    /// Parses a snapshot back out of an `IXHIST01` image.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] when the bytes are not an `IXHIST01`
    /// image, carry no `SRVT` section, were written in another snapshot
    /// version, or fail any check of the module-level layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ServeError> {
        let (config, image) = decode(bytes, parse_config)?;
        Ok(TenantSnapshot {
            version: SNAPSHOT_VERSION,
            config,
            store: image.store,
            lifetime_ticks: image.lifetime_ticks,
            contexts: image.contexts,
        })
    }
}

/// One context's run state, borrowed.
#[derive(Clone, Copy)]
pub(crate) struct ContextView<'a> {
    pub node: &'a str,
    pub workload: &'a str,
    pub truncated: bool,
    /// Whole ticks of [`TAIL_STRIDE`] values.
    pub tail: &'a [f64],
}

impl<'a> From<&'a ContextState> for ContextView<'a> {
    fn from(c: &'a ContextState) -> Self {
        ContextView {
            node: &c.node,
            workload: &c.workload,
            truncated: c.truncated,
            tail: &c.tail,
        }
    }
}

/// Borrowed views of everything one image holds: what [`encode`] reads.
pub(crate) struct Parts<'a, C> {
    pub version: u32,
    pub lifetime_ticks: u64,
    /// The config row, already serialized.
    pub config: &'a str,
    pub store: &'a ModelStore,
    pub contexts: C,
}

/// The snapshot encoder: writes `parts` as a row-free `IXHIST01` image in
/// one pass, into one buffer sized up front (see the module-level layout
/// table).
pub(crate) fn encode<'a, C>(parts: Parts<'a, C>) -> Vec<u8>
where
    C: ExactSizeIterator<Item = ContextView<'a>> + Clone,
{
    let mut image = SectionImage::new(SERVE_SECTION, payload_len(&parts));
    let w = image.writer();
    w.u32(parts.version);
    w.u64(0); // checksum, patched below once the body is written
    w.u64(parts.lifetime_ticks);
    w.bytes(parts.config.as_bytes());

    codec::store_rows(parts.store).write(w);

    w.u32_field(parts.contexts.len());
    for c in parts.contexts {
        w.bytes(c.node.as_bytes());
        w.bytes(c.workload.as_bytes());
        w.bool(c.truncated);
        w.u32_field(c.tail.len() / TAIL_STRIDE);
        for tick in c.tail.chunks_exact(TAIL_STRIDE) {
            w.f64(tick[0]);
            w.f64_list(&tick[1..]);
        }
    }

    let payload = image.payload_mut();
    let sum = checksum(&payload[HEADER_BYTES..]);
    payload[4..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
    image.finish()
}

/// The exact `SRVT` payload length [`encode`] writes for `parts`; each
/// term is a row of the module-level layout table.
fn payload_len<'a, C>(parts: &Parts<'a, C>) -> usize
where
    C: Iterator<Item = ContextView<'a>> + Clone,
{
    let text = |len: usize| 4 + len;
    let contexts: usize = parts
        .contexts
        .clone()
        .map(|c| {
            let ticks = c.tail.len() / TAIL_STRIDE * TICK_BYTES;
            text(c.node.len()) + text(c.workload.len()) + 1 + 4 + ticks
        })
        .sum();
    let store = codec::store_rows(parts.store).encoded_len();
    HEADER_BYTES + 8 + text(parts.config.len()) + store + 4 + contexts
}

/// A tenant's state, decoded: everything an image holds but its config
/// row. An in-memory cold tenant is one of these — captured from the
/// live engine at eviction, or decoded once at adopt — and a warm moves
/// it into a fresh engine.
#[derive(Debug)]
pub(crate) struct TenantImage {
    pub lifetime_ticks: u64,
    pub store: ModelStore,
    pub contexts: Vec<ContextState>,
}

impl TenantImage {
    /// The image's bytes under the config row `config`.
    pub fn to_bytes(&self, config: &str) -> Vec<u8> {
        encode(Parts {
            version: SNAPSHOT_VERSION,
            lifetime_ticks: self.lifetime_ticks,
            config,
            store: &self.store,
            contexts: self.contexts.iter().map(ContextView::from),
        })
    }
}

/// The snapshot decoder: reads the `SRVT` payload in place through
/// [`section_in`] (which accepts exactly the containers
/// [`ix_history::HistoryStore::from_bytes`] does), then checks and reads
/// it into the config `read_config` makes of the config row and the
/// image. `read_config` runs in the place the layout has the row, so its
/// refusals come in the same order as the rest of the body's.
pub(crate) fn decode<C>(
    bytes: &[u8],
    read_config: impl FnOnce(&str) -> Result<C, HistoryFileError>,
) -> Result<(C, TenantImage), ServeError> {
    let payload = section_in(bytes, SERVE_SECTION)
        .map_err(|e| ServeError::Snapshot(format!("container: {e}")))?
        .ok_or_else(|| ServeError::Snapshot("no SRVT section".to_string()))?;
    let mut r = Reader::new(payload);
    let version = r.u32().map_err(body_error)?;
    if version != SNAPSHOT_VERSION {
        // A version-1 body was JSON text, so it began with `{`.
        let found = if payload.first() == Some(&b'{') {
            "version 1 (JSON)".to_string()
        } else {
            format!("version {version}")
        };
        return Err(ServeError::Snapshot(format!(
            "snapshot {found} is not readable by this build, which reads only \
             version {SNAPSHOT_VERSION}"
        )));
    }
    let stored = r.u64().map_err(body_error)?;
    let actual = checksum(&payload[HEADER_BYTES..]);
    if stored != actual {
        return Err(ServeError::Snapshot(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    decode_body(&mut r, read_config).map_err(body_error)
}

/// Parses the config row.
pub(crate) fn parse_config(text: &str) -> Result<InvarNetConfig, HistoryFileError> {
    serde_json::from_str(text).map_err(|e| malformed(format!("config: {e}")))
}

/// Maps a body decoding failure onto the serving layer's typed error.
fn body_error(e: HistoryFileError) -> ServeError {
    match e {
        HistoryFileError::Format(msg) => ServeError::Snapshot(format!("SRVT body: {msg}")),
        HistoryFileError::Io(e) => ServeError::Io(e),
    }
}

fn malformed(msg: String) -> HistoryFileError {
    HistoryFileError::Format(msg)
}

/// Everything after the checksum; see the module-level layout table.
fn decode_body<C>(
    r: &mut Reader<'_>,
    read_config: impl FnOnce(&str) -> Result<C, HistoryFileError>,
) -> Result<(C, TenantImage), HistoryFileError> {
    let lifetime_ticks = r.u64()?;
    let config = read_config(r.str()?)?;

    let store = codec::read_store_rows(r)?;

    // Smallest context: two string lengths, the flag and the tail count.
    let count = r.count(13)?;
    let mut contexts = Vec::with_capacity(count);
    for _ in 0..count {
        let node = r.str()?.to_string();
        let workload = r.str()?.to_string();
        let truncated = r.bool("truncated flag")?;
        let ticks = r.count(TICK_BYTES)?;
        if truncated && ticks > 0 {
            return Err(malformed(format!(
                "context `{workload}@{node}` is truncated but keeps {ticks} tail ticks"
            )));
        }
        let mut tail = Vec::with_capacity(ticks * TAIL_STRIDE);
        for tick in 0..ticks {
            tail.push(r.finite_f64()?);
            let width = r.u32()?;
            if width as usize != METRIC_COUNT {
                return Err(malformed(format!(
                    "tail tick {tick} of context `{workload}@{node}` has {width} metric \
                     values, not {METRIC_COUNT}"
                )));
            }
            r.extend_finite_f64s(METRIC_COUNT, &mut tail)?;
        }
        contexts.push(ContextState {
            node,
            workload,
            tail,
            truncated,
        });
    }

    if r.remaining() != 0 {
        return Err(malformed(format!("{} trailing bytes", r.remaining())));
    }
    Ok((
        config,
        TenantImage {
            lifetime_ticks,
            store,
            contexts,
        },
    ))
}

/// The body checksum. Four lanes take turns absorbing the 8-byte words
/// of each 32-byte block — a word is xor-ed into its lane, which is then
/// multiplied by an odd constant and rotated — and the length, the four
/// lanes and the zero-padded words of the final partial block are then
/// absorbed the same way into one state. Every step is a bijection of
/// both the state and the word, so changing any one word — in particular
/// any single byte — always changes the result. The lanes are
/// independent, so the loop runs at the multiplier's throughput rather
/// than its latency.
fn checksum(bytes: &[u8]) -> u64 {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(MUL).rotate_left(29);
    let word = |chunk: &[u8]| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    };
    let mut lanes = [1u64, 2, 3, 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word(chunk));
        }
    }
    let mut h = mix(0, bytes.len() as u64);
    for lane in lanes {
        h = mix(h, lane);
    }
    for chunk in blocks.remainder().chunks(8) {
        h = mix(h, word(chunk));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use ix_core::{
        ArimaModel, ArimaSpec, InvariantEntry, InvariantSet, OperationContext, PerformanceModel,
        ResidualStats, Signature, ViolationTuple,
    };
    use ix_history::HistoryStore;

    /// One flat tail tick: `cpi`, then a row whose metric `m` reads
    /// `first + m`.
    fn tick(cpi: f64, first: f64) -> Vec<f64> {
        std::iter::once(cpi)
            .chain((0..METRIC_COUNT).map(|m| first + m as f64))
            .collect()
    }

    fn sample() -> TenantSnapshot {
        TenantSnapshot::new(
            InvarNetConfig::default(),
            ModelStore::new(),
            42,
            vec![ContextState {
                node: "10.0.0.1".to_string(),
                workload: "Sort".to_string(),
                tail: [tick(1.25, 0.5), tick(0.75, -0.25)].concat(),
                truncated: false,
            }],
        )
    }

    /// A hand-built snapshot touching every field of the layout.
    fn small() -> TenantSnapshot {
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
            "Sort@n1".to_string(),
            Arc::new(PerformanceModel::from_parts(arima, stats, 1.5)),
        );
        let entries = vec![
            InvariantEntry {
                pair: 3,
                value: 0.5,
            },
            InvariantEntry {
                pair: 9,
                value: 1.0,
            },
        ];
        store.invariants.insert(
            "Sort@n1".to_string(),
            Arc::new(InvariantSet::from_entries(entries, 0.25).expect("valid")),
        );
        Arc::make_mut(&mut store.signatures).add(Signature {
            tuple: ViolationTuple::from_graded(vec![0.0, 0.5]),
            problem: "hog".to_string(),
            context: OperationContext::new("n1", "Sort"),
        });
        TenantSnapshot::new(
            InvarNetConfig::default(),
            store,
            5,
            vec![ContextState {
                node: "n1".to_string(),
                workload: "Sort".to_string(),
                tail: tick(1.0, 2.0),
                truncated: false,
            }],
        )
    }

    fn payload(snapshot: &TenantSnapshot) -> Vec<u8> {
        HistoryStore::from_bytes(&snapshot.to_bytes())
            .expect("container")
            .section(SERVE_SECTION)
            .expect("SRVT")
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        for snap in [sample(), small()] {
            let bytes = snap.to_bytes();
            assert_eq!(bytes.capacity(), bytes.len(), "the image is sized exactly");
            let built = HistoryStore::builder()
                .section(SERVE_SECTION, payload(&snap))
                .build()
                .to_bytes();
            assert_eq!(bytes, built, "the store builder frames the same image");
            let back = TenantSnapshot::from_bytes(&bytes).expect("parse");
            assert_eq!(back, snap);
            assert_eq!(back.to_bytes(), bytes);
        }
        let back = TenantSnapshot::from_bytes(&sample().to_bytes()).expect("parse");
        assert_eq!(back.contexts[0].tail[0].to_bits(), 1.25_f64.to_bits());
        assert_eq!(back.contexts[0].tail.len(), 2 * TAIL_STRIDE);
    }

    #[test]
    fn layout_is_pinned() {
        // Golden bytes of the SRVT payload. A change here is a snapshot
        // format break — bump SNAPSHOT_VERSION. The config blob is spelled
        // by its encoder, but the pinned checksum covers it too.
        let config = serde_json::to_string(&InvarNetConfig::default()).expect("config");
        let mut expected: Vec<u8> = Vec::new();
        let mut put = |bytes: &[u8]| expected.extend_from_slice(bytes);
        put(&[2, 0, 0, 0]); // version
        put(&0xa415_0cd2_b926_e19e_u64.to_le_bytes()); // checksum
        put(&[5, 0, 0, 0, 0, 0, 0, 0]); // lifetime ticks
        put(&(config.len() as u32).to_le_bytes());
        put(config.as_bytes());
        // One performance model.
        put(&[1, 0, 0, 0]);
        put(&[7, 0, 0, 0]);
        put(b"Sort@n1");
        put(&[1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0]); // p, d, q
        put(&0.5_f64.to_bits().to_le_bytes()); // intercept
        put(&[1, 0, 0, 0]);
        put(&0.25_f64.to_bits().to_le_bytes()); // ar
        put(&[1, 0, 0, 0]);
        put(&(-0.5_f64).to_bits().to_le_bytes()); // ma
        put(&2.0_f64.to_bits().to_le_bytes()); // sigma2
        put(&[7, 0, 0, 0, 0, 0, 0, 0]); // n_effective
        for v in [1.0_f64, 0.0, 0.75, 1.5] {
            put(&v.to_bits().to_le_bytes()); // max, min, p95, beta
        }
        // One invariant set.
        put(&[1, 0, 0, 0]);
        put(&[7, 0, 0, 0]);
        put(b"Sort@n1");
        put(&0.25_f64.to_bits().to_le_bytes()); // tau
        put(&[2, 0, 0, 0]);
        put(&[3, 0, 0, 0]);
        put(&0.5_f64.to_bits().to_le_bytes());
        put(&[9, 0, 0, 0]);
        put(&1.0_f64.to_bits().to_le_bytes());
        // One signature.
        put(&[1, 0, 0, 0]);
        put(&[3, 0, 0, 0]);
        put(b"hog");
        put(&[2, 0, 0, 0]);
        put(b"n1");
        put(&[4, 0, 0, 0]);
        put(b"Sort");
        put(&[2, 0, 0, 0]);
        put(&0.0_f64.to_bits().to_le_bytes());
        put(&0.5_f64.to_bits().to_le_bytes());
        // One context with a one-tick tail: its CPI, then its row.
        put(&[1, 0, 0, 0]);
        put(&[2, 0, 0, 0]);
        put(b"n1");
        put(&[4, 0, 0, 0]);
        put(b"Sort");
        put(&[0]); // not truncated
        put(&[1, 0, 0, 0]);
        put(&1.0_f64.to_bits().to_le_bytes()); // cpi
        put(&(METRIC_COUNT as u32).to_le_bytes());
        for m in 0..METRIC_COUNT {
            put(&(2.0 + m as f64).to_bits().to_le_bytes()); // row
        }
        assert_eq!(payload(&small()), expected);
    }

    #[test]
    fn missing_section_is_a_typed_error() {
        let bytes = HistoryStore::new().to_bytes();
        assert!(matches!(
            TenantSnapshot::from_bytes(&bytes),
            Err(ServeError::Snapshot(_))
        ));
    }

    #[test]
    fn other_versions_are_rejected_by_name() {
        let mut snap = sample();
        snap.version = SNAPSHOT_VERSION + 1;
        match TenantSnapshot::from_bytes(&snap.to_bytes()) {
            Err(ServeError::Snapshot(msg)) => assert!(msg.contains("version 3"), "{msg}"),
            other => panic!("expected a version error, got {other:?}"),
        }
        // The version-1 body was JSON.
        let json = br#"{"version":1,"config":{},"store":{},"lifetime_ticks":0,"contexts":[]}"#;
        let bytes = HistoryStore::builder()
            .section(SERVE_SECTION, json.to_vec())
            .build()
            .to_bytes();
        match TenantSnapshot::from_bytes(&bytes) {
            Err(ServeError::Snapshot(msg)) => assert!(msg.contains("version 1 (JSON)"), "{msg}"),
            other => panic!("expected a version error, got {other:?}"),
        }
    }

    /// Re-frames a hand-edited payload with a valid checksum, so the
    /// checks behind the checksum are reached.
    fn reframed(mut payload: Vec<u8>) -> Vec<u8> {
        let sum = checksum(&payload[HEADER_BYTES..]);
        payload[4..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
        HistoryStore::builder()
            .section(SERVE_SECTION, payload)
            .build()
            .to_bytes()
    }

    fn expect_snapshot_error(bytes: &[u8], needle: &str) {
        match TenantSnapshot::from_bytes(bytes) {
            Err(ServeError::Snapshot(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected a snapshot error naming {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn checksummed_bodies_are_still_validated() {
        let good = payload(&small());
        let find = |needle: &[u8]| {
            good.windows(needle.len())
                .rposition(|w| w == needle)
                .expect("needle")
        };
        // The second invariant pair (9) becomes 99999: out of range.
        let mut bad = good.clone();
        let at = find(&[9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f]);
        bad[at..at + 4].copy_from_slice(&99_999_u32.to_le_bytes());
        let hostile = reframed(bad);
        expect_snapshot_error(&hostile, "out of range");
        // A fleet refuses it at adopt, before it could warm and index
        // past the association matrix at diagnosis time.
        let fleet = crate::Fleet::builder().build();
        let tenant = crate::TenantId::new("hostile").expect("valid");
        assert!(matches!(
            fleet.adopt(tenant, hostile),
            Err(ServeError::Snapshot(msg)) if msg.contains("out of range")
        ));
        // ... or 3 again: not strictly increasing.
        let mut bad = good.clone();
        bad[at] = 3;
        expect_snapshot_error(&reframed(bad), "out of order");
        // The last row value becomes NaN.
        let mut bad = good.clone();
        let len = bad.len();
        bad[len - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        expect_snapshot_error(&reframed(bad), "non-finite");
        // The tail tick's row count, its tick count and the truncated
        // flag, counted back from the end of the one-tick tail.
        let width = len - 8 * METRIC_COUNT - 4;
        let ticks = width - 8 - 4;
        let flag = ticks - 1;
        // The row count says 25: the row is refused at decode, not at
        // warm. A fleet refuses it at adopt.
        let mut bad = good.clone();
        bad[width..width + 4].copy_from_slice(&(METRIC_COUNT as u32 - 1).to_le_bytes());
        let narrow = reframed(bad);
        expect_snapshot_error(&narrow, "not 26");
        assert!(matches!(
            crate::Fleet::builder().build().adopt(crate::TenantId::new("narrow").expect("valid"), narrow),
            Err(ServeError::Snapshot(msg)) if msg.contains("metric values")
        ));
        // The truncated flag becomes 2.
        let mut bad = good.clone();
        assert_eq!(bad[flag], 0);
        bad[flag] = 2;
        expect_snapshot_error(&reframed(bad), "truncated flag");
        // The problem name stops being UTF-8.
        let mut bad = good.clone();
        let at = find(b"hog");
        bad[at] = 0xff;
        expect_snapshot_error(&reframed(bad), "UTF-8");
        // A trailing byte.
        let mut bad = good.clone();
        bad.push(0);
        expect_snapshot_error(&reframed(bad), "trailing");
        // A count the remaining bytes cannot back.
        let mut bad = good;
        bad[ticks..ticks + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        expect_snapshot_error(&reframed(bad), "exceeds");
    }

    #[test]
    fn a_snapshot_whose_config_names_a_retired_field_still_loads() {
        // Written by the previous release: the same tenant as `source`
        // below, but its config JSON still carries the frame-cache
        // capacity field that release had. Unknown config fields are
        // ignored, so it parses to the same snapshot, adopts and warms
        // into a default fleet, and continues like the source tenant.
        let legacy = include_bytes!("../tests/data/legacy_config_snapshot.ixh").to_vec();
        let tenant = crate::TenantId::new("legacy").expect("valid");
        let (source, ctx) = source_fleet(&tenant);
        let current = source.snapshot_bytes(&tenant).expect("snapshot");

        let parsed = TenantSnapshot::from_bytes(&legacy).expect("legacy parse");
        assert_eq!(parsed.config, InvarNetConfig::default());
        assert_eq!(parsed, TenantSnapshot::from_bytes(&current).expect("parse"));
        assert!(
            current.len() < legacy.len(),
            "the retired field is not written back"
        );

        let fleet = crate::Fleet::builder().build();
        fleet.adopt(tenant.clone(), legacy).expect("adopt");
        fleet.warm(&tenant).expect("warm");
        assert!(fleet.is_warm(&tenant));
        assert_continues_like(&source, &fleet, &tenant, &ctx);
    }

    #[test]
    fn an_adopted_snapshot_is_served_under_the_fleets_config_row() {
        // An adopted tenant is held as its decoded image, so its snapshot
        // bytes are encoded again, under the fleet's own config row: the
        // legacy row's retired field is not served back.
        let legacy = include_bytes!("../tests/data/legacy_config_snapshot.ixh").to_vec();
        let tenant = crate::TenantId::new("legacy").expect("valid");
        let (source, _) = source_fleet(&tenant);
        let current = source.snapshot_bytes(&tenant).expect("snapshot");
        let fleet = crate::Fleet::builder().build();
        fleet.adopt(tenant.clone(), legacy.clone()).expect("adopt");
        let served = fleet.snapshot_bytes(&tenant).expect("cold");
        assert_ne!(served, legacy);
        assert_eq!(served, current);
    }

    fn row(t: usize) -> Vec<f64> {
        vec![t as f64; ix_metrics::METRIC_COUNT]
    }

    /// A default fleet whose `tenant` holds `small()`'s trained state and
    /// three ingested ticks of its context.
    fn source_fleet(tenant: &crate::TenantId) -> (crate::Fleet, OperationContext) {
        let ctx = OperationContext::new("n1", "Sort");
        let source = crate::Fleet::builder().build();
        source
            .with_engine(tenant, |e| e.load_state(&small().store))
            .expect("materialize")
            .expect("load");
        for t in 0..3 {
            source.ingest(tenant, &ctx, 1.0, &row(t)).expect("ingest");
        }
        (source, ctx)
    }

    /// Asserts the next tick of `tenant` scores the same in both fleets.
    fn assert_continues_like(
        source: &crate::Fleet,
        fleet: &crate::Fleet,
        tenant: &crate::TenantId,
        ctx: &OperationContext,
    ) {
        let a = source.ingest(tenant, ctx, 1.0, &row(3)).expect("source");
        let b = fleet.ingest(tenant, ctx, 1.0, &row(3)).expect("warmed");
        assert_eq!(a.tick, b.tick);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
    }

    /// `bytes` with its config row replaced by `config` and the checksum
    /// recomputed.
    fn with_config(bytes: &[u8], config: &str) -> Vec<u8> {
        let payload = section_in(bytes, SERVE_SECTION)
            .expect("container")
            .expect("SRVT");
        // Version, checksum and lifetime ticks precede the config row.
        let at = HEADER_BYTES + 8;
        let old_len = u32::from_le_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
        let mut edited = payload[..at].to_vec();
        edited.extend_from_slice(&(config.len() as u32).to_le_bytes());
        edited.extend_from_slice(config.as_bytes());
        edited.extend_from_slice(&payload[at + 4 + old_len as usize..]);
        reframed(edited)
    }

    #[test]
    fn a_config_row_that_parses_equal_adopts_and_warms() {
        // Re-spaced JSON: not the fleet's bytes, so the row is parsed, and
        // it parses to the fleet's config.
        let tenant = crate::TenantId::new("respaced").expect("valid");
        let (source, ctx) = source_fleet(&tenant);
        let current = source.snapshot_bytes(&tenant).expect("snapshot");
        let canonical = serde_json::to_string(&InvarNetConfig::default()).expect("config");
        let respaced = canonical.replace(',', ", ");
        assert_ne!(respaced, canonical);
        let bytes = with_config(&current, &respaced);
        assert_eq!(
            TenantSnapshot::from_bytes(&bytes).expect("parse").config,
            InvarNetConfig::default()
        );
        let fleet = crate::Fleet::builder().build();
        fleet.adopt(tenant.clone(), bytes).expect("adopt");
        fleet.warm(&tenant).expect("warm");
        assert_continues_like(&source, &fleet, &tenant, &ctx);
    }

    #[test]
    fn a_malformed_config_row_is_refused() {
        let tenant = crate::TenantId::new("garbled").expect("valid");
        let (source, _) = source_fleet(&tenant);
        let current = source.snapshot_bytes(&tenant).expect("snapshot");
        let bytes = with_config(&current, "{\"epsilon\": ");
        expect_snapshot_error(&bytes, "SRVT body: config: ");
        let fleet = crate::Fleet::builder().build();
        assert!(matches!(
            fleet.adopt(tenant, bytes),
            Err(ServeError::Snapshot(msg)) if msg.starts_with("SRVT body: config: ")
        ));
    }

    #[test]
    fn garbage_bytes_are_a_typed_error() {
        assert!(matches!(
            TenantSnapshot::from_bytes(b"definitely not IXHIST01"),
            Err(ServeError::Snapshot(_))
        ));
    }
}
