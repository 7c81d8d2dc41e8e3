//! Recording sessions and the replay driver.
//!
//! [`RecordingSession`] is the write side: it builds the engine a
//! replayable trace must be recorded with (config + history recorder +
//! trained state) and stamps the [`ReplayHeader`] into the trace on
//! [`RecordingSession::finish`]. [`Replayer`] is the read side: it
//! rebuilds that engine from the header, re-ingests the recorded rows in
//! their original global order, and [`Replayer::verify`] compares
//! everything the fresh engine produced against the recording.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use ix_core::{
    ContextId, Engine, EngineEvent, EventSink, HistoryRecorder, InvarNetConfig, ModelStore,
    OperationContext, TickOutcome,
};
use ix_history::HistoryStore;
use ix_query::{all_context_rows, TickRow};

use crate::error::ReplayError;
use crate::header::ReplayHeader;
use crate::normalize::normalize_events;

/// An [`EventSink`] that buffers events so the replay driver can hand
/// each step the events that step produced.
#[derive(Default)]
pub(crate) struct CaptureSink(Mutex<Vec<EngineEvent>>);

impl EventSink for CaptureSink {
    fn record(&self, event: &EngineEvent) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(*event);
    }
}

impl CaptureSink {
    /// Takes everything recorded since the last drain.
    pub(crate) fn drain(&self) -> Vec<EngineEvent> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// The write side of a replayable trace: an engine wired to record into a
/// [`HistoryStore`], with the header inputs retained so
/// [`RecordingSession::finish`] can stamp them into the trace.
pub struct RecordingSession {
    engine: Engine,
    history: Arc<HistoryStore>,
    header: ReplayHeader,
}

impl RecordingSession {
    /// Builds a recording engine from `config` and the trained `store`,
    /// exactly as the replayer will rebuild it later.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Config`] when the config would not read back out of
    /// the trace's header (its canonical JSON does not parse back to it,
    /// as a NaN's `null` does not), and [`ReplayError::Engine`] when the
    /// trained store does not load.
    pub fn new(config: InvarNetConfig, store: ModelStore) -> Result<Self, ReplayError> {
        ReplayHeader::check_config(&config)?;
        let history = HistoryStore::builder().shared();
        let recorder: Arc<dyn HistoryRecorder> = Arc::clone(&history) as _;
        let engine = Engine::builder()
            .config(config.clone())
            .history(recorder)
            .build();
        engine.load_state(&store)?;
        Ok(RecordingSession {
            engine,
            history,
            header: ReplayHeader::new(config, store),
        })
    }

    /// The engine to stream the live run through.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The trace being recorded.
    pub fn history(&self) -> &Arc<HistoryStore> {
        &self.history
    }

    /// Stamps the replay header into the trace and returns it. The trace
    /// is self-contained from here: `to_bytes` / `save` it, and any
    /// [`Replayer`] can rebuild the engine from the file alone.
    pub fn finish(self) -> Arc<HistoryStore> {
        self.header.embed(&self.history);
        self.history
    }
}

impl std::fmt::Debug for RecordingSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingSession")
            .field("contexts", &self.history.contexts().len())
            .field("ticks", &self.history.tick_count())
            .finish()
    }
}

/// One entry of the replay schedule: a recorded row plus where it came
/// from and whether a run reset preceded it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledTick {
    /// The context id *in the recorded trace*.
    pub context: ContextId,
    /// The context's `workload@node` label.
    pub label: String,
    /// Row index within the context's log.
    pub row: usize,
    /// The engine's lifetime tick label — the global ingestion order.
    pub tick: u64,
    /// Whether this row opened a new run (a `reset_run` must be issued
    /// before re-ingesting it).
    pub reset_before: bool,
    /// The recorded CPI sample.
    pub cpi: f64,
    /// The recorded detector residual (what replay must reproduce).
    pub residual: f64,
    /// The recorded threshold verdict (what replay must reproduce).
    pub exceeded: bool,
    /// The recorded metric row.
    pub metrics: Vec<f64>,
}

/// What one replayed tick produced, alongside the recorded row it is
/// expected to match.
#[derive(Debug)]
pub struct TickReport {
    /// Position in the replay schedule (0-based).
    pub index: usize,
    /// The scheduled (recorded) tick this report replays.
    pub scheduled: ScheduledTick,
    /// What the fresh engine concluded for the tick.
    pub outcome: TickOutcome,
    /// Every event the fresh engine emitted while processing the tick.
    pub events: Vec<EngineEvent>,
    /// Whether the outcome's residual and verdict are bit-identical to
    /// the recorded row.
    pub matches_recorded: bool,
}

/// One way the replay differed from the recording.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The two traces do not even hold the same context set.
    Contexts {
        /// Context labels only the recording has.
        recorded_only: Vec<String>,
        /// Context labels only the replay has.
        replayed_only: Vec<String>,
    },
    /// A context's row counts differ.
    RowCount {
        /// The context's label.
        context: String,
        /// Rows in the recording.
        recorded: usize,
        /// Rows in the replay.
        replayed: usize,
    },
    /// A specific row differs.
    Row {
        /// The context's label.
        context: String,
        /// Row index within the context's log.
        row: usize,
        /// Lifetime tick label of the recorded row.
        tick: u64,
        /// Which fields differ and how.
        detail: String,
    },
    /// The normalized event streams differ.
    Event {
        /// Index into the normalized stream of the first difference.
        index: usize,
        /// The recorded event at that index, if any.
        recorded: Option<EngineEvent>,
        /// The replayed event at that index, if any.
        replayed: Option<EngineEvent>,
    },
    /// The recorded diagnoses differ (count or content).
    Diagnosis {
        /// Index of the first differing diagnosis record.
        index: usize,
        /// Human-readable difference.
        detail: String,
    },
    /// The recorded sweeps differ (count or content).
    Sweep {
        /// Index of the first differing sweep record.
        index: usize,
        /// Human-readable difference.
        detail: String,
    },
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Divergence::Contexts {
                recorded_only,
                replayed_only,
            } => write!(
                f,
                "context sets differ: only recorded {recorded_only:?}, only replayed {replayed_only:?}"
            ),
            Divergence::RowCount {
                context,
                recorded,
                replayed,
            } => write!(
                f,
                "{context}: row count differs (recorded {recorded}, replayed {replayed})"
            ),
            Divergence::Row {
                context,
                row,
                tick,
                detail,
            } => write!(f, "{context}: row {row} (tick {tick}) differs: {detail}"),
            Divergence::Event {
                index,
                recorded,
                replayed,
            } => write!(
                f,
                "event {index} differs: recorded {recorded:?}, replayed {replayed:?}"
            ),
            Divergence::Diagnosis { index, detail } => {
                write!(f, "diagnosis {index} differs: {detail}")
            }
            Divergence::Sweep { index, detail } => write!(f, "sweep {index} differs: {detail}"),
        }
    }
}

/// The verdict of a full replay: every way the fresh run differed from
/// the recording (empty means bit-exact equivalence).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// How many scheduled ticks were replayed.
    pub ticks_replayed: usize,
    /// Every detected difference, in comparison order.
    pub divergences: Vec<Divergence>,
}

impl ReplayReport {
    /// Whether the replay reproduced the recording exactly.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The read side: a fresh engine rebuilt from a trace's [`ReplayHeader`],
/// stepping through the recorded schedule tick by tick.
pub struct Replayer {
    header: ReplayHeader,
    recorded: Arc<HistoryStore>,
    engine: Engine,
    replay_store: Arc<HistoryStore>,
    capture: Arc<CaptureSink>,
    schedule: Vec<ScheduledTick>,
    contexts: HashMap<ContextId, OperationContext>,
    cursor: usize,
}

/// Assembles a [`Replayer`] in one expression; obtain one from
/// [`Replayer::builder`] and finish with [`ReplayerBuilder::build`].
#[must_use = "builder methods return the builder; call .build() to produce the replayer"]
#[derive(Debug, Default)]
pub struct ReplayerBuilder {
    recorded: Option<Arc<HistoryStore>>,
}

impl ReplayerBuilder {
    /// The recorded trace to replay (a store carrying a [`ReplayHeader`],
    /// e.g. one produced by [`RecordingSession::finish`] or loaded from an
    /// `IXHIST01` file). Required.
    pub fn recorded(mut self, recorded: Arc<HistoryStore>) -> Self {
        self.recorded = Some(recorded);
        self
    }

    /// The finished replayer: the recording engine rebuilt from the
    /// trace's header, with the replay schedule prepared.
    ///
    /// # Errors
    ///
    /// [`ReplayError::MissingHeader`] when no trace was supplied (or the
    /// trace has no header), [`ReplayError::Header`] /
    /// [`ReplayError::Version`] when the trace is not replayable,
    /// [`ReplayError::Engine`] when the trained state does not load, and
    /// [`ReplayError::Trace`] when the recorded rows are internally
    /// inconsistent.
    pub fn build(self) -> Result<Replayer, ReplayError> {
        let recorded = self.recorded.ok_or(ReplayError::MissingHeader)?;
        Replayer::from_parts(recorded)
    }
}

impl Replayer {
    /// The builder-first construction path.
    pub fn builder() -> ReplayerBuilder {
        ReplayerBuilder::default()
    }

    /// Rebuilds the recording engine from `recorded`'s header and
    /// prepares the replay schedule.
    fn from_parts(recorded: Arc<HistoryStore>) -> Result<Self, ReplayError> {
        let header = ReplayHeader::extract(&recorded)?;
        let capture = Arc::new(CaptureSink::default());
        let replay_store = HistoryStore::builder().shared();
        let recorder: Arc<dyn HistoryRecorder> = Arc::clone(&replay_store) as _;
        let engine = Engine::builder()
            .config(header.config.clone())
            .event_sink(Arc::clone(&capture) as Arc<dyn EventSink>)
            .history(recorder)
            .build();
        engine.load_state(&header.store)?;
        let schedule = build_schedule(&recorded)?;
        let contexts = parse_contexts(&recorded)?;
        Ok(Replayer {
            header,
            recorded,
            engine,
            replay_store,
            capture,
            schedule,
            contexts,
            cursor: 0,
        })
    }

    /// The header the trace was recorded with.
    pub fn header(&self) -> &ReplayHeader {
        &self.header
    }

    /// The recorded trace being replayed.
    pub fn recorded(&self) -> &Arc<HistoryStore> {
        &self.recorded
    }

    /// The trace the *fresh* engine is recording as it replays.
    pub fn replay_store(&self) -> &Arc<HistoryStore> {
        &self.replay_store
    }

    /// The fresh engine (for inspection — see [`Engine::inspector`]).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The full replay schedule in global ingestion order.
    pub fn schedule(&self) -> &[ScheduledTick] {
        &self.schedule
    }

    /// Index of the next scheduled tick to replay.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Whether every scheduled tick has been replayed.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.schedule.len()
    }

    /// Replays the next scheduled tick. Returns `Ok(None)` at the end of
    /// the schedule.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Engine`] when the fresh engine rejects a tick the
    /// recording accepted — itself a divergence worth debugging.
    pub fn step(&mut self) -> Result<Option<TickReport>, ReplayError> {
        let Some(scheduled) = self.schedule.get(self.cursor).cloned() else {
            return Ok(None);
        };
        let context = self
            .contexts
            .get(&scheduled.context)
            .ok_or_else(|| {
                ReplayError::Trace(format!("no context for id {:?}", scheduled.context))
            })?
            .clone();
        if scheduled.reset_before {
            self.engine.reset_run(&context);
        }
        let outcome = self
            .engine
            .ingest(&context, scheduled.cpi, &scheduled.metrics)?;
        let events = self.capture.drain();
        let matches_recorded = outcome.residual.to_bits() == scheduled.residual.to_bits()
            && outcome.exceeded == scheduled.exceeded;
        let index = self.cursor;
        self.cursor += 1;
        Ok(Some(TickReport {
            index,
            scheduled,
            outcome,
            events,
            matches_recorded,
        }))
    }

    /// Replays every remaining scheduled tick; returns how many ran.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ReplayError`] from [`Replayer::step`].
    pub fn run_to_end(&mut self) -> Result<usize, ReplayError> {
        let mut ran = 0;
        while self.step()?.is_some() {
            ran += 1;
        }
        Ok(ran)
    }

    /// Replays to the end of the schedule and compares everything the
    /// fresh engine produced — rows, normalized events, diagnoses,
    /// sweeps — against the recording.
    ///
    /// # Errors
    ///
    /// Propagates replay errors; comparison itself cannot fail.
    pub fn verify(&mut self) -> Result<ReplayReport, ReplayError> {
        self.run_to_end()?;
        let mut divergences = Vec::new();
        compare_contexts(&self.recorded, &self.replay_store, &mut divergences);
        compare_rows(&self.recorded, &self.replay_store, &mut divergences);
        compare_events(&self.recorded, &self.replay_store, &mut divergences);
        compare_diagnoses(&self.recorded, &self.replay_store, &mut divergences);
        compare_sweeps(&self.recorded, &self.replay_store, &mut divergences);
        Ok(ReplayReport {
            ticks_replayed: self.cursor,
            divergences,
        })
    }
}

impl std::fmt::Debug for Replayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replayer")
            .field("schedule", &self.schedule.len())
            .field("cursor", &self.cursor)
            .finish()
    }
}

/// Merges every context's recorded rows into one schedule ordered by
/// lifetime tick — the engine's global ingestion order — and marks the
/// rows that opened a new run.
fn build_schedule(recorded: &HistoryStore) -> Result<Vec<ScheduledTick>, ReplayError> {
    let mut schedule = Vec::with_capacity(recorded.tick_count());
    for context in recorded.contexts() {
        let label = recorded.label(context);
        let rows = all_context_rows(recorded, context);
        if rows.len() != recorded.rows(context) {
            return Err(ReplayError::Trace(format!(
                "{label}: columns disagree on row count"
            )));
        }
        // Rows at which a run *after the first* started need a reset
        // before them; the first run rides on the engine's initial state.
        let mut run_firsts = Vec::new();
        for run in 1..recorded.run_count(context) {
            if let Some(range) = recorded.run_rows(context, run) {
                if !range.is_empty() {
                    run_firsts.push(range.start);
                }
            }
        }
        for row in rows {
            let TickRow {
                row,
                tick,
                cpi,
                residual,
                exceeded,
                metrics,
            } = row;
            schedule.push(ScheduledTick {
                context,
                label: label.clone(),
                row,
                tick,
                reset_before: run_firsts.contains(&row),
                cpi,
                residual,
                exceeded,
                metrics,
            });
        }
    }
    schedule.sort_by_key(|t| t.tick);
    // Lifetime ticks are unique engine-wide; duplicates mean the trace
    // was merged or corrupted and the global order is unrecoverable.
    for pair in schedule.windows(2) {
        if pair[0].tick == pair[1].tick {
            return Err(ReplayError::Trace(format!(
                "duplicate lifetime tick {} ({} and {})",
                pair[0].tick, pair[0].label, pair[1].label
            )));
        }
    }
    Ok(schedule)
}

/// Parses every recorded context label back into an [`OperationContext`].
fn parse_contexts(
    recorded: &HistoryStore,
) -> Result<HashMap<ContextId, OperationContext>, ReplayError> {
    let mut map = HashMap::new();
    for context in recorded.contexts() {
        let label = recorded.label(context);
        let (workload, node) = label
            .split_once('@')
            .ok_or_else(|| ReplayError::Trace(format!("unparseable context label {label:?}")))?;
        map.insert(context, OperationContext::new(node, workload));
    }
    Ok(map)
}

/// Bit-exact equality for floats: replay promises the same bits, not
/// merely the same value, and `NaN != NaN` would mask real matches.
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn compare_contexts(
    recorded: &HistoryStore,
    replayed: &HistoryStore,
    divergences: &mut Vec<Divergence>,
) {
    let rec: Vec<String> = recorded
        .contexts()
        .iter()
        .map(|&c| recorded.label(c))
        .collect();
    let rep: Vec<String> = replayed
        .contexts()
        .iter()
        .map(|&c| replayed.label(c))
        .collect();
    let recorded_only: Vec<String> = rec.iter().filter(|l| !rep.contains(l)).cloned().collect();
    let replayed_only: Vec<String> = rep.iter().filter(|l| !rec.contains(l)).cloned().collect();
    if !recorded_only.is_empty() || !replayed_only.is_empty() {
        divergences.push(Divergence::Contexts {
            recorded_only,
            replayed_only,
        });
    }
}

/// Finds a store's context id by label (ids are expected to match between
/// recording and replay, but comparing by label keeps the diff readable
/// even when they do not).
fn context_by_label(store: &HistoryStore, label: &str) -> Option<ContextId> {
    store
        .contexts()
        .into_iter()
        .find(|&c| store.label(c) == label)
}

fn compare_rows(
    recorded: &HistoryStore,
    replayed: &HistoryStore,
    divergences: &mut Vec<Divergence>,
) {
    for context in recorded.contexts() {
        let label = recorded.label(context);
        let Some(rep_ctx) = context_by_label(replayed, &label) else {
            continue; // already reported by compare_contexts
        };
        let rec_rows = all_context_rows(recorded, context);
        let rep_rows = all_context_rows(replayed, rep_ctx);
        if rec_rows.len() != rep_rows.len() {
            divergences.push(Divergence::RowCount {
                context: label.clone(),
                recorded: rec_rows.len(),
                replayed: rep_rows.len(),
            });
        }
        for (a, b) in rec_rows.iter().zip(rep_rows.iter()) {
            if let Some(detail) = row_diff(a, b) {
                divergences.push(Divergence::Row {
                    context: label.clone(),
                    row: a.row,
                    tick: a.tick,
                    detail,
                });
            }
        }
    }
}

/// Describes how two rows differ, or `None` when they are bit-identical.
/// Public to the crate so bisection reports the same field-level detail.
pub(crate) fn row_diff(a: &TickRow, b: &TickRow) -> Option<String> {
    let mut parts = Vec::new();
    if a.tick != b.tick {
        parts.push(format!("tick {} vs {}", a.tick, b.tick));
    }
    if !bits_eq(a.cpi, b.cpi) {
        parts.push(format!("cpi {} vs {}", a.cpi, b.cpi));
    }
    if !bits_eq(a.residual, b.residual) {
        parts.push(format!("residual {} vs {}", a.residual, b.residual));
    }
    if a.exceeded != b.exceeded {
        parts.push(format!("exceeded {} vs {}", a.exceeded, b.exceeded));
    }
    if a.metrics.len() != b.metrics.len() {
        parts.push(format!(
            "metric width {} vs {}",
            a.metrics.len(),
            b.metrics.len()
        ));
    } else {
        for (i, (x, y)) in a.metrics.iter().zip(b.metrics.iter()).enumerate() {
            if !bits_eq(*x, *y) {
                parts.push(format!("metric[{i}] {x} vs {y}"));
            }
        }
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join(", "))
    }
}

fn compare_events(
    recorded: &HistoryStore,
    replayed: &HistoryStore,
    divergences: &mut Vec<Divergence>,
) {
    let rec = normalize_events(&recorded.events());
    let rep = normalize_events(&replayed.events());
    let len = rec.len().max(rep.len());
    for i in 0..len {
        let a = rec.get(i).copied();
        let b = rep.get(i).copied();
        if a != b {
            divergences.push(Divergence::Event {
                index: i,
                recorded: a,
                replayed: b,
            });
            break; // one desync cascades; report the first only
        }
    }
}

fn compare_diagnoses(
    recorded: &HistoryStore,
    replayed: &HistoryStore,
    divergences: &mut Vec<Divergence>,
) {
    let rec = recorded.diagnoses();
    let rep = replayed.diagnoses();
    let len = rec.len().max(rep.len());
    for i in 0..len {
        match (rec.get(i), rep.get(i)) {
            (Some(a), Some(b)) if a == b => continue,
            (a, b) => {
                divergences.push(Divergence::Diagnosis {
                    index: i,
                    detail: format!("recorded {a:?}, replayed {b:?}"),
                });
                break;
            }
        }
    }
}

fn compare_sweeps(
    recorded: &HistoryStore,
    replayed: &HistoryStore,
    divergences: &mut Vec<Divergence>,
) {
    let rec = recorded.sweeps();
    let rep = replayed.sweeps();
    let len = rec.len().max(rep.len());
    for i in 0..len {
        match (rec.get(i), rep.get(i)) {
            (Some(a), Some(b)) if a == b => continue,
            (a, b) => {
                divergences.push(Divergence::Sweep {
                    index: i,
                    detail: format!("recorded {a:?}, replayed {b:?}"),
                });
                break;
            }
        }
    }
}
