//! `ix-history`: the columnar history store behind InvarNet-X's RCA
//! query layer.
//!
//! The engine (`ix-core`) diagnoses one anomaly at a time and then forgets
//! it: the sliding window rolls on, the next sweep overwrites the last.
//! This crate is the engine's memory. A [`HistoryStore`] attached with
//! `Engine::builder().observe(...)` receives the whole stream first-hand —
//! every accepted tick row, every [`ix_core::EngineEvent`], every sweep's
//! association scores and every finished diagnosis — and lays it out for
//! later interrogation:
//!
//! - **Tick columns** ([`TickSegment`]): per-context, append-only columnar
//!   segments — lifetime tick labels, the CPI sample, the detector
//!   residual/verdict, and the 26-wide metric row stored metric-major so a
//!   single metric's series over thousands of ticks is one contiguous
//!   `memcpy`-shaped scan.
//! - **The event log**: the exact [`ix_core::EngineEvent`] stream the
//!   engine's sink saw (the recorder is teed *behind* the sink), persisted
//!   as tagged binary records.
//! - **Sweep and diagnosis records** ([`SweepRecord`],
//!   [`DiagnosisRecord`]): the flat association-score triangle with its
//!   degradation tier, and the ranked [`ix_core::Diagnosis`], both stamped
//!   with the lifetime tick that produced them.
//!
//! Scans come in two shapes: *row ranges* ([`HistoryStore::frame`],
//! [`HistoryStore::series`]) and *time windows* over lifetime ticks
//! ([`HistoryStore::frame_for_ticks`], [`HistoryStore::rows_for_ticks`]).
//! Run boundaries are first-class ([`HistoryStore::run_count`],
//! [`HistoryStore::run_rows`]) because the engine's own diagnosis windows
//! never cross them.
//!
//! The store doubles as the engine's window server through the two-step
//! `HistoryRecorder::window_rows` / `HistoryRecorder::frame_rows`
//! protocol: under the ingest path's shard lock the engine captures the
//! row range of the current run's tail, and after the lock drops it
//! materializes exactly those rows — append-only columns guarantee the
//! range resolves to the same values even if concurrent ticks or resets
//! landed in between. A recorder-attached engine therefore diagnoses
//! *from history* and still produces output bit-identical to a
//! recorder-free twin.
//!
//! Stores round-trip through a little-endian binary segment file
//! ([`HistoryStore::save`] / [`HistoryStore::load`]); columns are written
//! as raw IEEE-754 bits, so saved values reload bit-exactly too. A reader
//! that wants only one trailing section of an image takes it in place
//! with [`section_in`]: the same parse, without building a store or
//! copying the section.
//!
//! The [`codec`] module is the one binary encoding of every record the
//! workspace persists: the side-log records here, and the [`Diagnosis`]
//! and model-store rows that `ix-replay`'s header and `ix-serve`'s
//! snapshots and payloads embed. A trained deployment's file is those
//! store rows as one section ([`save_model_store`] /
//! [`load_model_store`]).
//!
//! [`Diagnosis`]: ix_core::Diagnosis

#![warn(missing_docs)]

pub mod codec;
mod file;
mod model_store;
mod segment;
mod store;

pub use file::{
    section_in, HistoryFileError, Reader, SectionImage, Writer, REPLAY_SECTION, SERVE_SECTION,
};
pub use model_store::{
    load_model_store, model_store_bytes, model_store_from_bytes, save_model_store,
    MODEL_STORE_SECTION,
};
pub use segment::{TickSegment, SEGMENT_CAPACITY};
pub use store::{DiagnosisRecord, HistoryStore, HistoryStoreBuilder, SweepRecord};
