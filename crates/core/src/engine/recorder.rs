//! First-class recording: the engine's append-only history sink.
//!
//! Everything the engine observes — tick rows, the event stream, sweep
//! scores and finished diagnoses — can flow into a [`HistoryRecorder`]
//! attached with [`crate::EngineBuilder::observe`]. The engine calls the
//! recorder at fixed points on its data path:
//!
//! - [`HistoryRecorder::record_tick`] inside the ingest step, under the
//!   context's shard lock, so recorded rows are in exactly the order the
//!   sliding window saw them;
//! - [`EventSink::record`] for every [`crate::EngineEvent`], in its place
//!   on the engine's observation list, like any other member;
//! - [`HistoryRecorder::record_sweep`] / [`HistoryRecorder::record_diagnosis`]
//!   after each cause-inference pass, with the association scores and the
//!   ranked result;
//! - [`HistoryRecorder::record_run_reset`] whenever a context's sliding
//!   window is discarded, so run boundaries survive into history.
//!
//! The first recorder on the list, when it implements
//! [`HistoryRecorder::window_rows`] and [`HistoryRecorder::frame_rows`],
//! becomes the source of diagnosis windows, through a two-step snapshot
//! protocol that survives concurrent ingest of the same context: still
//! under the shard lock that serialized [`HistoryRecorder::record_tick`],
//! the engine asks for the *row range* of the current window
//! ([`HistoryRecorder::window_rows`]);
//! after the lock drops it materializes exactly those rows
//! ([`HistoryRecorder::frame_rows`]). Because history is append-only, a
//! range captured under the lock keeps naming the same rows no matter
//! how many ticks or run resets land in between — so the diagnosed frame
//! is bit-identical to the sliding window at the moment detection fired.
//! The engine falls back to an in-lock copy of the sliding window when
//! `window_rows` returns `None`. With no recorder attached, nothing on
//! the data path changes.

use std::ops::Range;

use ix_metrics::MetricFrame;

use super::diagnosis::Diagnosis;
use super::events::EventSink;
use super::resilience::SweepDegradation;
use super::telemetry::ContextId;

/// Receiver of the engine's history stream: an [`EventSink`] that also
/// takes tick rows, sweep scores, diagnoses and run resets. Implementations
/// must be cheap: `record_tick` runs under a state-shard lock on the
/// ingestion path.
pub trait HistoryRecorder: EventSink {
    /// One ingested tick: the lifetime tick label, the CPI sample, the
    /// detector's residual/threshold verdict, and the full metric row.
    /// Called in sliding-window order for each context.
    fn record_tick(
        &self,
        context: ContextId,
        tick: u64,
        cpi: f64,
        residual: f64,
        exceeded: bool,
        row: &[f64],
    );

    /// The context's sliding window was discarded (new job run, model
    /// re-install). Rows recorded before this call belong to the previous
    /// run.
    fn record_run_reset(&self, context: ContextId);

    /// The association scores behind one diagnosis: the flat upper
    /// triangle (indexed by [`crate::pair_index`]) and the degradation
    /// tier that produced it (`None` for a full-fidelity sweep).
    fn record_sweep(
        &self,
        context: ContextId,
        tick: u64,
        scores: &[f64],
        degradation: Option<SweepDegradation>,
    );

    /// One finished cause-inference pass, correlated with the lifetime
    /// tick stamped on its [`crate::EngineEvent::DiagnosisRan`].
    fn record_diagnosis(&self, context: ContextId, tick: u64, diagnosis: &Diagnosis);

    /// The row range of the last `max_ticks` recorded rows of the
    /// context's *current run* — step one of history-served diagnosis
    /// windows. The engine calls this under the same shard lock as
    /// [`HistoryRecorder::record_tick`], immediately after the
    /// triggering tick lands, so the returned range names exactly the
    /// rows the sliding window holds at that instant. Return `None` to
    /// keep the engine on its in-lock window copy.
    fn window_rows(&self, context: ContextId, max_ticks: usize) -> Option<Range<usize>> {
        let _ = (context, max_ticks);
        None
    }

    /// Materializes an exact row range captured by
    /// [`HistoryRecorder::window_rows`] — step two, called after the
    /// shard lock is released. Recorders must treat history as
    /// append-only so a previously returned range stays servable (and
    /// bit-identical) regardless of concurrent ingest or run resets;
    /// `None` here is a contract violation the engine surfaces as an
    /// error rather than diagnosing a fabricated window.
    fn frame_rows(&self, context: ContextId, rows: Range<usize>) -> Option<MetricFrame> {
        let _ = (context, rows);
        None
    }

    /// How many storage segments the recorder currently holds for a
    /// context, for the `history_segments` telemetry gauge. `None` (the
    /// default) means the recorder has no segment notion — the gauge is
    /// simply not updated.
    fn segment_count(&self, context: ContextId) -> Option<u64> {
        let _ = context;
        None
    }
}
