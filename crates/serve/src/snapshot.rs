//! Tenant snapshots: everything an evicted tenant needs to warm back up.
//!
//! An eviction must be invisible to the tenant: the warmed engine has to
//! continue *bit-identically* to one that was never torn down. The
//! snapshot therefore carries the inputs that determine a tenant engine —
//! its [`InvarNetConfig`], its trained [`ModelStore`] (performance models,
//! invariant sets, signatures) — and the live state the trained store does
//! not cover, as the engine itself holds it: the lifetime tick counter,
//! each context's in-flight run ([`CapturedRun`]: the sliding window, the
//! detector's recursion state, the edge-tracker and the run's length) and
//! the ticks waiting in the engine's ingest queue ([`QueuedTicks`]). A run
//! is bounded by the window, so a snapshot does not grow with the run, and
//! a warm installs it rather than replaying anything.
//!
//! A fleet holds an in-memory cold tenant as its engine's moved state
//! ([`EngineImage`], from `Engine::take_image`) and meets these bytes only
//! at the process boundary: a snapshot file, `Fleet::snapshot_bytes` and
//! `Fleet::adopt`. The encoder reads an image through its accessors — the
//! trained store shared by `Arc`, each run borrowed as a [`RunView`], the
//! queue — and a [`TenantSnapshot`]'s plain values through the same
//! views, so both produce the same bytes. A warm from bytes decodes the
//! plain values and builds the image with [`EngineImage::decoded`], which
//! refuses any run or queue the tenant's engine could not be in. The
//! config row is the fleet's cached canonical JSON, serialized once when
//! the fleet is built. A fleet reading an image compares that row with its
//! cached JSON as bytes and parses it only when they differ.
//!
//! The container is an `IXHIST01` file with no tick rows: the whole
//! snapshot is the binary `SRVT` trailing section
//! ([`ix_history::SERVE_SECTION`]), so reading one takes a fixed-size
//! header plus one section — microseconds, independent of how long the
//! tenant has been alive. Any `IXHIST01` reader that predates the tag
//! still loads the file (with a warning) and carries the section
//! verbatim.
//!
//! # `SRVT` layout (version 3)
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
//! | contexts | `u32` count, then per context: node, workload `str` each, then its run ([`codec::write_run`]) |
//! | queue | the engine's queued ticks ([`codec::write_queue`]) |
//!
//! The container is read in place ([`ix_history::section_in`]): the
//! payload is never copied out of the image. Decoding checks every count
//! against the bytes left before it allocates, and refuses a bad checksum,
//! trailing bytes, non-UTF-8 text, a non-finite float where the engine
//! holds only finite ones (model values, window rows), and the store rows'
//! own refusals (map keys out of order, invariant pairs that are out of
//! range or not strictly increasing). Every refusal is a
//! [`ServeError::Snapshot`]. Whether a run or queue is one the tenant's
//! engine could be in is checked when a warm builds its image
//! ([`EngineImage::decoded`]), as a typed [`ix_core::CoreError`].
//!
//! # Version 2
//!
//! Version 2 kept, per context, a truncated flag and the run's
//! `(cpi, metric_row)` ticks since its last reset — the row as a `u32`
//! count and that many `f64`s — in place of its run, and no queue. It
//! still decodes: each tail is replayed once, at decode, into an engine
//! under the snapshot's config and store (`Engine::restore_run`), and the
//! run it leaves is read out of the engine's image; a truncated context,
//! or one with no ticks, has no run and warms onto a fresh one. The
//! decoded snapshot has the current form, and encodes as version 3.

use std::borrow::Cow;
use std::sync::Arc;

use ix_core::{
    CapturedRun, CoreError, Engine, EngineImage, InvarNetConfig, ModelStore, OperationContext,
    QueuedTicks, RunView,
};
use ix_history::codec;
use ix_history::{section_in, HistoryFileError, Reader, SectionImage, SERVE_SECTION};
use ix_metrics::METRIC_COUNT;

use crate::error::ServeError;

/// The snapshot version this crate writes.
pub const SNAPSHOT_VERSION: u32 = 3;

/// The older version this crate still reads (see the module docs).
const LEGACY_VERSION: u32 = 2;

/// Bytes ahead of the checksummed body: version (4) + checksum (8).
const HEADER_BYTES: usize = 12;

/// One context's in-flight run at eviction time.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextState {
    /// The context.
    pub context: OperationContext,
    /// Its run.
    pub run: CapturedRun,
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
    /// Each context's in-flight run; a context with none is not listed.
    pub contexts: Vec<ContextState>,
    /// The ticks waiting in the engine's ingest queue.
    pub queue: QueuedTicks,
}

impl TenantSnapshot {
    /// A current-version snapshot of the given tenant state, with an
    /// empty ingest queue.
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
            queue: QueuedTicks::default(),
        }
    }

    /// Serializes the snapshot into a row-free `IXHIST01` image carrying
    /// the `SRVT` section — through the one encoder a fleet's eviction
    /// uses, so a decoded image re-encodes to the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let config =
            serde_json::to_string(&self.config).expect("config serialization is infallible");
        encode(Parts {
            version: self.version,
            lifetime_ticks: self.lifetime_ticks,
            config: &config,
            store: &self.store,
            runs: &views(&self.contexts),
            queue: &self.queue,
        })
    }

    /// Parses a snapshot back out of an `IXHIST01` image. A version-2
    /// snapshot's tails are replayed into runs (see the module docs).
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] when the bytes are not an `IXHIST01`
    /// image, carry no `SRVT` section, were written in a version this
    /// build does not read, or fail any check of the module-level layout.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ServeError> {
        let (config, body) = decode(bytes, |text| parse_config(text).map(Cow::Owned))?;
        Ok(TenantSnapshot {
            version: SNAPSHOT_VERSION,
            config: config.into_owned(),
            store: body.store,
            lifetime_ticks: body.lifetime_ticks,
            contexts: body.contexts,
            queue: body.queue,
        })
    }
}

/// Borrowed views of everything one snapshot holds: what [`encode`] reads.
struct Parts<'a> {
    version: u32,
    lifetime_ticks: u64,
    /// The config row, already serialized.
    config: &'a str,
    store: &'a ModelStore,
    /// Each context's run, in context order.
    runs: &'a [(&'a OperationContext, RunView<'a>)],
    queue: &'a QueuedTicks,
}

/// Each of `contexts`' runs, borrowed.
fn views(contexts: &[ContextState]) -> Vec<(&OperationContext, RunView<'_>)> {
    (contexts.iter())
        .map(|c| (&c.context, c.run.view()))
        .collect()
}

/// The snapshot bytes of `image` under the config row `config`: what a
/// fleet serves and writes for a tenant whose engine state it is.
pub(crate) fn image_bytes(image: &EngineImage, config: &str) -> Vec<u8> {
    encode(Parts {
        version: SNAPSHOT_VERSION,
        lifetime_ticks: image.lifetime_ticks(),
        config,
        store: &image.store(),
        runs: &image.runs(),
        queue: image.queue(),
    })
}

/// The snapshot encoder: writes `parts` as a row-free `IXHIST01` image in
/// one pass, into one buffer sized up front (see the module-level layout
/// table).
fn encode(parts: Parts<'_>) -> Vec<u8> {
    let mut image = SectionImage::new(SERVE_SECTION, payload_len(&parts));
    let w = image.writer();
    w.u32(parts.version);
    w.u64(0); // checksum, patched below once the body is written
    w.u64(parts.lifetime_ticks);
    w.bytes(parts.config.as_bytes());

    codec::store_rows(parts.store).write(w);

    w.u32_field(parts.runs.len());
    for (context, run) in parts.runs {
        w.bytes(context.node.as_bytes());
        w.bytes(context.workload.as_bytes());
        codec::write_run(w, run);
    }
    codec::write_queue(w, parts.queue);

    let payload = image.payload_mut();
    let sum = checksum(&payload[HEADER_BYTES..]);
    payload[4..HEADER_BYTES].copy_from_slice(&sum.to_le_bytes());
    image.finish()
}

/// The exact `SRVT` payload length [`encode`] writes for `parts`; each
/// term is a row of the module-level layout table.
fn payload_len(parts: &Parts<'_>) -> usize {
    let text = |len: usize| 4 + len;
    let contexts: usize = (parts.runs.iter())
        .map(|(context, run)| {
            text(context.node.len()) + text(context.workload.len()) + codec::run_encoded_len(run)
        })
        .sum();
    let store = codec::store_rows(parts.store).encoded_len();
    HEADER_BYTES
        + 8
        + text(parts.config.len())
        + store
        + 4
        + contexts
        + codec::queue_encoded_len(parts.queue)
}

/// A snapshot's body, decoded: everything it holds but its version and
/// config row, as plain values.
#[derive(Debug)]
pub(crate) struct Body {
    pub lifetime_ticks: u64,
    pub store: ModelStore,
    pub contexts: Vec<ContextState>,
    pub queue: QueuedTicks,
}

impl Body {
    /// The body's bytes under the config row `config`.
    pub fn to_bytes(&self, config: &str) -> Vec<u8> {
        encode(Parts {
            version: SNAPSHOT_VERSION,
            lifetime_ticks: self.lifetime_ticks,
            config,
            store: &self.store,
            runs: &views(&self.contexts),
            queue: &self.queue,
        })
    }

    /// The image of the engine state the body describes, under `config`
    /// (see [`EngineImage::decoded`]).
    ///
    /// # Errors
    ///
    /// A run naming a context the store has no model for, or any other
    /// refusal of [`EngineImage::decoded`].
    pub fn into_image(self, config: Arc<InvarNetConfig>) -> Result<EngineImage, CoreError> {
        let runs = self.contexts.iter().map(|c| (&c.context, &c.run));
        EngineImage::decoded(config, self.lifetime_ticks, &self.store, runs, self.queue)
    }
}

/// The snapshot decoder: reads the `SRVT` payload in place through
/// [`section_in`] (which accepts exactly the containers
/// [`ix_history::HistoryStore::from_bytes`] does), then checks and reads
/// it into the config `read_config` makes of the config row and the
/// body. `read_config` runs in the place the layout has the row, so its
/// refusals come in the same order as the rest of the body's; a
/// version-2 body's tails are replayed under the config it returns.
pub(crate) fn decode<'c>(
    bytes: &[u8],
    read_config: impl FnOnce(&str) -> Result<Cow<'c, InvarNetConfig>, HistoryFileError>,
) -> Result<(Cow<'c, InvarNetConfig>, Body), ServeError> {
    let payload = section_in(bytes, SERVE_SECTION)
        .map_err(|e| ServeError::Snapshot(format!("container: {e}")))?
        .ok_or_else(|| ServeError::Snapshot("no SRVT section".to_string()))?;
    let mut r = Reader::new(payload);
    let version = r.u32().map_err(body_error)?;
    if version != SNAPSHOT_VERSION && version != LEGACY_VERSION {
        // A version-1 body was JSON text, so it began with `{`.
        let found = if payload.first() == Some(&b'{') {
            "version 1 (JSON)".to_string()
        } else {
            format!("version {version}")
        };
        return Err(ServeError::Snapshot(format!(
            "snapshot {found} is not readable by this build, which reads versions \
             {LEGACY_VERSION} and {SNAPSHOT_VERSION}"
        )));
    }
    let stored = r.u64().map_err(body_error)?;
    let actual = checksum(&payload[HEADER_BYTES..]);
    if stored != actual {
        return Err(ServeError::Snapshot(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    decode_body(version, &mut r, read_config).map_err(body_error)
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
fn decode_body<'c>(
    version: u32,
    r: &mut Reader<'_>,
    read_config: impl FnOnce(&str) -> Result<Cow<'c, InvarNetConfig>, HistoryFileError>,
) -> Result<(Cow<'c, InvarNetConfig>, Body), HistoryFileError> {
    let lifetime_ticks = r.u64()?;
    let config = read_config(r.str()?)?;

    let store = codec::read_store_rows(r)?;

    let (contexts, queue) = if version == LEGACY_VERSION {
        let tails = read_tails(r)?;
        end_of_body(r)?;
        (replay(&tails, &config, &store)?, QueuedTicks::default())
    } else {
        // Smallest context: two string lengths and the smallest run.
        let count = r.count(8 + 8 + 1 + 12)?;
        let mut contexts = Vec::with_capacity(count);
        for _ in 0..count {
            let node = r.str()?;
            let workload = r.str()?;
            contexts.push(ContextState {
                context: OperationContext::new(node, workload),
                run: codec::read_run(r)?,
            });
        }
        let queue = codec::read_queue(r)?;
        end_of_body(r)?;
        (contexts, queue)
    };
    Ok((
        config,
        Body {
            lifetime_ticks,
            store,
            contexts,
            queue,
        },
    ))
}

fn end_of_body(r: &Reader<'_>) -> Result<(), HistoryFileError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(malformed(format!("{n} trailing bytes"))),
    }
}

/// One version-2 context: its run's ticks since the last reset, flat
/// (the CPI, then the row); none when the run was truncated.
struct Tail {
    context: OperationContext,
    ticks: Vec<f64>,
}

/// Reads version 2's contexts: per context, node, workload `str` each,
/// truncated `u8`, `u32` count + tail ticks, each `cpi f64` + `u32` count
/// + row `f64`s.
fn read_tails(r: &mut Reader<'_>) -> Result<Vec<Tail>, HistoryFileError> {
    const TICK_BYTES: usize = 8 + 4 + 8 * METRIC_COUNT;
    // Smallest context: two string lengths, the flag and the tail count.
    let count = r.count(13)?;
    let mut tails = Vec::with_capacity(count);
    for _ in 0..count {
        let context = OperationContext::new(r.str()?, r.str()?);
        let truncated = r.bool("truncated flag")?;
        let ticks = r.count(TICK_BYTES)?;
        if truncated && ticks > 0 {
            return Err(malformed(format!(
                "context `{context}` is truncated but keeps {ticks} tail ticks"
            )));
        }
        let mut tail = Vec::with_capacity(ticks * (1 + METRIC_COUNT));
        for tick in 0..ticks {
            tail.push(r.finite_f64()?);
            let width = r.u32()?;
            if width as usize != METRIC_COUNT {
                return Err(malformed(format!(
                    "tail tick {tick} of context `{context}` has {width} metric values, \
                     not {METRIC_COUNT}"
                )));
            }
            r.extend_finite_f64s(METRIC_COUNT, &mut tail)?;
        }
        tails.push(Tail {
            context,
            ticks: tail,
        });
    }
    Ok(tails)
}

/// Replays version-2 tails, once, into an engine under `config` holding
/// `store`, and reads the runs they leave out of its image, in context
/// order. A truncated or empty tail leaves no run.
fn replay(
    tails: &[Tail],
    config: &InvarNetConfig,
    store: &ModelStore,
) -> Result<Vec<ContextState>, HistoryFileError> {
    if tails.iter().all(|t| t.ticks.is_empty()) {
        return Ok(Vec::new());
    }
    let engine = Engine::builder().config(config.clone()).threads(1).build();
    engine
        .load_state(store)
        .map_err(|e| malformed(format!("version 2 store: {e}")))?;
    for tail in tails.iter().filter(|t| !t.ticks.is_empty()) {
        let ticks = tail.ticks.chunks_exact(1 + METRIC_COUNT);
        engine
            .restore_run(&tail.context, ticks.map(|t| (t[0], &t[1..])))
            .map_err(|e| malformed(format!("version 2 tail of context `{}`: {e}", tail.context)))?;
    }
    let image = engine.take_image();
    let runs = image.runs().into_iter().map(|(context, run)| ContextState {
        context: context.clone(),
        run: run.into(),
    });
    Ok(runs.collect())
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
        ArimaModel, ArimaSpec, InvariantEntry, InvariantSet, PerformanceModel, QueuedTick,
        ResidualStats, RunState, Signature, ViolationTuple,
    };
    use ix_history::HistoryStore;

    /// A metric row whose metric `m` reads `first + m`.
    fn row_from(first: f64) -> Vec<f64> {
        (0..METRIC_COUNT).map(|m| first + m as f64).collect()
    }

    fn sample() -> TenantSnapshot {
        let mut snapshot = TenantSnapshot::new(
            InvarNetConfig::default(),
            ModelStore::new(),
            42,
            vec![ContextState {
                context: OperationContext::new("10.0.0.1", "Sort"),
                run: CapturedRun {
                    ticks: 2,
                    prev_anomalous: true,
                    window: [row_from(0.5), row_from(-0.25)].concat(),
                    detector: RunState {
                        registers: vec![1.25, f64::INFINITY],
                        counters: vec![2],
                    },
                },
            }],
        );
        snapshot.queue = QueuedTicks {
            cursor: 5,
            ticks: vec![QueuedTick {
                context: OperationContext::new("10.0.0.1", "Sort"),
                cpi: 0.75,
                row: vec![0.5; 3],
            }],
        };
        snapshot
    }

    /// A hand-built snapshot touching every field of the layout: an
    /// ARIMA(1,0,1) context one tick into its run, and one queued tick.
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
        let context = OperationContext::new("n1", "Sort");
        let mut snapshot = TenantSnapshot::new(
            InvarNetConfig::default(),
            store,
            5,
            vec![ContextState {
                context: context.clone(),
                run: CapturedRun {
                    ticks: 1,
                    prev_anomalous: false,
                    window: row_from(2.0),
                    // After one tick of ARIMA(1,0,1): the differenced
                    // value (the sample) and its innovation (none yet).
                    detector: RunState {
                        registers: vec![1.0, 0.0],
                        counters: vec![0],
                    },
                },
            }],
        );
        snapshot.queue = QueuedTicks {
            cursor: 0,
            ticks: vec![QueuedTick {
                context,
                cpi: 3.0,
                row: vec![4.0],
            }],
        };
        snapshot
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
        let run = &back.contexts[0].run;
        assert_eq!(run.window[0].to_bits(), 0.5_f64.to_bits());
        assert_eq!(run.window.len(), 2 * METRIC_COUNT);
        assert_eq!(
            run.detector.registers[1],
            f64::INFINITY,
            "registers are raw bits"
        );
    }

    #[test]
    fn layout_is_pinned() {
        // Golden bytes of the SRVT payload. A change here is a snapshot
        // format break — bump SNAPSHOT_VERSION. The config blob is spelled
        // by its encoder, but the pinned checksum covers it too.
        let config = serde_json::to_string(&InvarNetConfig::default()).expect("config");
        let mut expected: Vec<u8> = Vec::new();
        let mut put = |bytes: &[u8]| expected.extend_from_slice(bytes);
        put(&[3, 0, 0, 0]); // version
        put(&0x4927_4448_c717_7654_u64.to_le_bytes()); // checksum
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
        // One context one tick into its run: its length, edge flag,
        // window row, two registers and the streak.
        put(&[1, 0, 0, 0]);
        put(&[2, 0, 0, 0]);
        put(b"n1");
        put(&[4, 0, 0, 0]);
        put(b"Sort");
        put(&[1, 0, 0, 0, 0, 0, 0, 0]); // ticks
        put(&[0]); // not anomalous
        put(&(METRIC_COUNT as u32).to_le_bytes());
        for m in 0..METRIC_COUNT {
            put(&(2.0 + m as f64).to_bits().to_le_bytes()); // window
        }
        put(&[2, 0, 0, 0]);
        put(&1.0_f64.to_bits().to_le_bytes()); // w_hist
        put(&0.0_f64.to_bits().to_le_bytes()); // e_hist
        put(&[1, 0, 0, 0]);
        put(&[0, 0, 0, 0, 0, 0, 0, 0]); // streak
                                        // The queue: its cursor, then one tick as submitted.
        put(&[0, 0, 0, 0, 0, 0, 0, 0]);
        put(&[1, 0, 0, 0]);
        put(&[2, 0, 0, 0]);
        put(b"n1");
        put(&[4, 0, 0, 0]);
        put(b"Sort");
        put(&3.0_f64.to_bits().to_le_bytes()); // cpi
        put(&[1, 0, 0, 0]);
        put(&4.0_f64.to_bits().to_le_bytes()); // row
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
            Err(ServeError::Snapshot(msg)) => assert!(msg.contains("version 4"), "{msg}"),
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
        // The last window value becomes NaN: no engine window holds one.
        let last = find(&27.0_f64.to_bits().to_le_bytes());
        let mut bad = good.clone();
        bad[last..last + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        expect_snapshot_error(&reframed(bad), "non-finite");
        // The window's count and the edge flag, counted back from the
        // window's first value.
        let window = find(&2.0_f64.to_bits().to_le_bytes()) - 4;
        let flag = window - 1;
        // The edge flag becomes 2.
        let mut bad = good.clone();
        assert_eq!(bad[flag], 0);
        bad[flag] = 2;
        expect_snapshot_error(&reframed(bad), "anomalous flag");
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
        bad[window..window + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        expect_snapshot_error(&reframed(bad), "exceeds");
    }

    /// A version-2 payload of `small()`'s store and lifetime ticks, with
    /// `contexts` written by `write` (node, workload, flag, tail).
    fn version_2(count: u32, write: impl FnOnce(&mut ix_history::Writer)) -> Vec<u8> {
        let config = serde_json::to_string(&InvarNetConfig::default()).expect("config");
        let mut w = ix_history::Writer::default();
        w.u32(LEGACY_VERSION);
        w.u64(0);
        w.u64(5);
        w.bytes(config.as_bytes());
        codec::store_rows(&small().store).write(&mut w);
        w.u32(count);
        write(&mut w);
        reframed(w.into_bytes())
    }

    #[test]
    fn a_version_2_tail_replays_into_the_run_it_left() {
        // `small()`'s context one tick in, as version 2 kept it: the tick
        // itself. Beside it, a truncated context, which has no run to keep
        // and needs no model.
        let bytes = version_2(2, |w| {
            w.bytes(b"n1");
            w.bytes(b"Sort");
            w.bool(false);
            w.u32(1);
            w.f64(1.0);
            w.f64_list(&row_from(2.0));
            w.bytes(b"n9");
            w.bytes(b"Sort");
            w.bool(true);
            w.u32(0);
        });
        let mut expected = small();
        expected.queue = QueuedTicks::default();
        let decoded = TenantSnapshot::from_bytes(&bytes).expect("a version 2 body");
        assert_eq!(decoded, expected, "the replayed run is the captured one");
        assert_eq!(decoded.version, SNAPSHOT_VERSION);

        // A truncated context that keeps ticks, and a tail on a context the
        // store has no model for, are refused at decode.
        let truncated = version_2(1, |w| {
            w.bytes(b"n1");
            w.bytes(b"Sort");
            w.bool(true);
            w.u32(1);
            w.f64(1.0);
            w.f64_list(&row_from(2.0));
        });
        expect_snapshot_error(&truncated, "is truncated but keeps 1 tail ticks");
        let orphan = version_2(1, |w| {
            w.bytes(b"n9");
            w.bytes(b"Sort");
            w.bool(false);
            w.u32(1);
            w.f64(1.0);
            w.f64_list(&row_from(2.0));
        });
        expect_snapshot_error(&orphan, "no performance model");
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
