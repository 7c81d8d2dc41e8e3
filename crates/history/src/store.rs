//! The [`HistoryStore`]: a thread-safe, append-only columnar history.

use std::ops::Range;
use std::sync::{Arc, PoisonError, RwLock};

use ix_core::{
    ContextId, ContextRegistry, Diagnosis, EngineEvent, HistoryRecorder, SweepDegradation,
};
use ix_metrics::{MetricFrame, MetricId, METRIC_COUNT};

use crate::segment::{TickSegment, SEGMENT_CAPACITY};

/// One sweep's association scores: the flat upper-triangle (indexed by
/// `ix_core::pair_index`) plus the degradation tier that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRecord {
    /// The context the sweep ran for.
    pub context: ContextId,
    /// Lifetime tick of the diagnosis that triggered the sweep.
    pub tick: u64,
    /// The flat pairwise score triangle.
    pub scores: Vec<f64>,
    /// `None` for a full-fidelity sweep; otherwise the tier served.
    pub degradation: Option<SweepDegradation>,
}

/// One finished cause-inference pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisRecord {
    /// The context diagnosed.
    pub context: ContextId,
    /// Lifetime tick of the anomaly onset.
    pub tick: u64,
    /// The ranked diagnosis, exactly as the engine returned it.
    pub diagnosis: Diagnosis,
}

/// Per-context tick log: a chain of columnar segments plus run boundaries.
#[derive(Debug, Clone, Default)]
pub(crate) struct ContextLog {
    pub(crate) segments: Vec<TickSegment>,
    pub(crate) rows: usize,
    /// Row index at which each run started; the last entry is the current
    /// run. Never empty once the log exists.
    pub(crate) run_starts: Vec<usize>,
}

impl ContextLog {
    fn new() -> Self {
        ContextLog {
            segments: Vec::new(),
            rows: 0,
            run_starts: vec![0],
        }
    }

    pub(crate) fn push(&mut self, tick: u64, cpi: f64, residual: f64, exceeded: bool, row: &[f64]) {
        if self.segments.last().is_none_or(TickSegment::is_full) {
            self.segments.push(TickSegment::new());
        }
        let seg = self.segments.last_mut().expect("segment pushed above");
        seg.push(tick, cpi, residual, exceeded, row);
        self.rows += 1;
    }

    fn mark_run(&mut self) {
        let last = *self.run_starts.last().expect("run_starts is never empty");
        // Consecutive resets with no rows between them are one boundary.
        if self.rows > last {
            self.run_starts.push(self.rows);
        }
    }

    /// Splits a global row index into (segment, offset).
    fn locate(&self, row: usize) -> (usize, usize) {
        // All segments but the last are full, so the split is arithmetic.
        (row / SEGMENT_CAPACITY, row % SEGMENT_CAPACITY)
    }

    fn frame(&self, range: Range<usize>) -> MetricFrame {
        let mut frame = MetricFrame::new();
        let mut row = vec![0.0; METRIC_COUNT];
        for i in range {
            let (seg, off) = self.locate(i);
            self.segments[seg].copy_row(off, &mut row);
            frame
                .push_tick(&row)
                .expect("history rows were validated on ingest");
        }
        frame
    }

    /// Concatenates one column over a row range via contiguous per-segment
    /// slices.
    fn gather(&self, range: Range<usize>, column: impl Fn(&TickSegment) -> &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(range.len());
        let mut i = range.start;
        while i < range.end {
            let (seg, off) = self.locate(i);
            let col = column(&self.segments[seg]);
            let take = (range.end - i).min(col.len() - off);
            out.extend_from_slice(&col[off..off + take]);
            i += take;
        }
        out
    }

    /// First row whose lifetime tick is `>= tick` (rows are tick-sorted).
    fn partition(&self, tick: u64) -> usize {
        let mut base = 0;
        for seg in &self.segments {
            let ticks = seg.ticks();
            match ticks.last() {
                Some(&last) if last < tick => base += ticks.len(),
                _ => return base + ticks.partition_point(|&t| t < tick),
            }
        }
        base
    }
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    /// Per-context logs, indexed by `ContextId::index()`.
    pub(crate) logs: Vec<Option<ContextLog>>,
    /// The engine's event stream, in emission order.
    pub(crate) events: Vec<EngineEvent>,
    pub(crate) sweeps: Vec<SweepRecord>,
    pub(crate) diagnoses: Vec<DiagnosisRecord>,
    /// Labels resolved from the bound registry (or loaded from a file).
    pub(crate) labels: Vec<String>,
    pub(crate) registry: Option<Arc<ContextRegistry>>,
    /// Tagged trailing sections carried at the end of the `IXHIST01`
    /// image, in file order. Known tags (e.g. the replay header) are
    /// interpreted by their owners; unknown tags are preserved verbatim so
    /// saving a loaded file stays byte-canonical.
    pub(crate) sections: Vec<([u8; 4], Vec<u8>)>,
}

impl Inner {
    fn log(&self, context: ContextId) -> Option<&ContextLog> {
        self.logs.get(context.index())?.as_ref()
    }

    fn log_mut(&mut self, context: ContextId) -> &mut ContextLog {
        let idx = context.index();
        if self.logs.len() <= idx {
            self.logs.resize_with(idx + 1, || None);
        }
        self.logs[idx].get_or_insert_with(ContextLog::new)
    }
}

/// The columnar engine history: per-context tick columns, the event log,
/// and sweep/diagnosis records, behind one `RwLock`.
///
/// Attach a shared store with `Engine::builder().history(store)`; query it
/// directly or through `ix-query`. All appends take the write lock
/// briefly; scans take the read lock and copy out, so queries never block
/// ingestion for longer than their own copy.
#[derive(Debug, Default)]
pub struct HistoryStore {
    inner: RwLock<Inner>,
}

/// Assembles a [`HistoryStore`] in one expression; obtain one from
/// [`HistoryStore::builder`] and finish with
/// [`HistoryStoreBuilder::build`] (or [`HistoryStoreBuilder::shared`] for
/// the `Arc`-wrapped form every engine attachment wants).
#[must_use = "builder methods return the builder; call .build() or .shared() to produce the store"]
#[derive(Debug, Default)]
pub struct HistoryStoreBuilder {
    registry: Option<Arc<ContextRegistry>>,
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl HistoryStoreBuilder {
    /// Binds a context registry up front, so labels resolve before the
    /// store is ever attached to an engine (attachment re-binds to the
    /// engine's registry either way).
    pub fn registry(mut self, registry: &Arc<ContextRegistry>) -> Self {
        self.registry = Some(Arc::clone(registry));
        self
    }

    /// Seeds a trailing section (tag + opaque payload) the store will
    /// carry into its `IXHIST01` image. May be called multiple times; a
    /// repeated tag replaces the earlier payload.
    pub fn section(mut self, tag: [u8; 4], payload: Vec<u8>) -> Self {
        match self.sections.iter_mut().find(|(t, _)| *t == tag) {
            Some((_, existing)) => *existing = payload,
            None => self.sections.push((tag, payload)),
        }
        self
    }

    /// The finished store.
    pub fn build(self) -> HistoryStore {
        HistoryStore::from_inner(Inner {
            registry: self.registry,
            sections: self.sections,
            ..Inner::default()
        })
    }

    /// The finished store behind an [`Arc`], ready to hand to
    /// `Engine::builder().history(...)` and keep for querying.
    pub fn shared(self) -> Arc<HistoryStore> {
        Arc::new(self.build())
    }
}

impl HistoryStore {
    /// An empty store.
    pub fn new() -> Self {
        HistoryStore::default()
    }

    /// The builder-first construction path.
    pub fn builder() -> HistoryStoreBuilder {
        HistoryStoreBuilder::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn from_inner(inner: Inner) -> Self {
        HistoryStore {
            inner: RwLock::new(inner),
        }
    }

    pub(crate) fn with_inner<T>(&self, f: impl FnOnce(&Inner) -> T) -> T {
        f(&self.read())
    }

    /// Contexts with at least one recorded tick, in id order.
    pub fn contexts(&self) -> Vec<ContextId> {
        let inner = self.read();
        inner
            .logs
            .iter()
            .enumerate()
            .filter(|(_, log)| log.is_some())
            .map(|(i, _)| ContextId::from_index(i))
            .collect()
    }

    /// Rows recorded for `context` (0 when unknown).
    pub fn rows(&self, context: ContextId) -> usize {
        self.read().log(context).map_or(0, |log| log.rows)
    }

    /// Total rows recorded across all contexts.
    pub fn tick_count(&self) -> usize {
        let inner = self.read();
        inner.logs.iter().flatten().map(|log| log.rows).sum()
    }

    /// The display label of a recorded context. Falls back to the bound
    /// registry's rendering, then to `"(context N)"`.
    pub fn label(&self, context: ContextId) -> String {
        let inner = self.read();
        if let Some(label) = inner.labels.get(context.index()) {
            return label.clone();
        }
        match &inner.registry {
            Some(registry) => registry.label(context),
            None => format!("(context {})", context.index()),
        }
    }

    /// The metric rows `range` (row indices) as a batch frame. `None` when
    /// the context is unknown or the range exceeds the recorded rows.
    pub fn frame(&self, context: ContextId, range: Range<usize>) -> Option<MetricFrame> {
        let inner = self.read();
        let log = inner.log(context)?;
        (range.start <= range.end && range.end <= log.rows).then(|| log.frame(range))
    }

    /// One metric's series over a row range — a contiguous columnar scan.
    pub fn series(
        &self,
        context: ContextId,
        metric: MetricId,
        range: Range<usize>,
    ) -> Option<Vec<f64>> {
        let inner = self.read();
        let log = inner.log(context)?;
        (range.start <= range.end && range.end <= log.rows)
            .then(|| log.gather(range, |seg| seg.column(metric.index())))
    }

    /// The CPI column over a row range.
    pub fn cpi_series(&self, context: ContextId, range: Range<usize>) -> Option<Vec<f64>> {
        let inner = self.read();
        let log = inner.log(context)?;
        (range.start <= range.end && range.end <= log.rows)
            .then(|| log.gather(range, TickSegment::cpi))
    }

    /// The detector-residual column over a row range.
    pub fn residual_series(&self, context: ContextId, range: Range<usize>) -> Option<Vec<f64>> {
        let inner = self.read();
        let log = inner.log(context)?;
        (range.start <= range.end && range.end <= log.rows)
            .then(|| log.gather(range, TickSegment::residual))
    }

    /// The detector threshold-exceeded column over a row range.
    pub fn exceeded_series(&self, context: ContextId, range: Range<usize>) -> Option<Vec<bool>> {
        let inner = self.read();
        let log = inner.log(context)?;
        if range.start > range.end || range.end > log.rows {
            return None;
        }
        let mut out = Vec::with_capacity(range.len());
        let mut i = range.start;
        while i < range.end {
            let (seg, off) = log.locate(i);
            let col = log.segments[seg].exceeded();
            let take = (range.end - i).min(col.len() - off);
            out.extend_from_slice(&col[off..off + take]);
            i += take;
        }
        Some(out)
    }

    /// The lifetime tick labels over a row range.
    pub fn tick_labels(&self, context: ContextId, range: Range<usize>) -> Option<Vec<u64>> {
        let inner = self.read();
        let log = inner.log(context)?;
        if range.start > range.end || range.end > log.rows {
            return None;
        }
        let mut out = Vec::with_capacity(range.len());
        let mut i = range.start;
        while i < range.end {
            let (seg, off) = log.locate(i);
            let col = log.segments[seg].ticks();
            let take = (range.end - i).min(col.len() - off);
            out.extend_from_slice(&col[off..off + take]);
            i += take;
        }
        Some(out)
    }

    /// The row holding lifetime tick `tick` exactly, if recorded.
    pub fn row_of_tick(&self, context: ContextId, tick: u64) -> Option<usize> {
        let inner = self.read();
        let log = inner.log(context)?;
        let at = log.partition(tick);
        let (seg, off) = log.locate(at);
        (at < log.rows && log.segments[seg].ticks()[off] == tick).then_some(at)
    }

    /// The row range whose lifetime ticks fall in `ticks`
    /// (half-open) — the time-window scan primitive.
    pub fn rows_for_ticks(&self, context: ContextId, ticks: Range<u64>) -> Option<Range<usize>> {
        let inner = self.read();
        let log = inner.log(context)?;
        let start = log.partition(ticks.start);
        let end = log.partition(ticks.end);
        Some(start..end.max(start))
    }

    /// The metric rows of a lifetime-tick window as a batch frame.
    pub fn frame_for_ticks(&self, context: ContextId, ticks: Range<u64>) -> Option<MetricFrame> {
        let range = self.rows_for_ticks(context, ticks)?;
        self.frame(context, range)
    }

    /// Number of runs recorded for the context (a run boundary is marked
    /// by the engine whenever the context's sliding window is discarded).
    pub fn run_count(&self, context: ContextId) -> usize {
        self.read()
            .log(context)
            .map_or(0, |log| log.run_starts.len())
    }

    /// The row range of run `run` (0-based, in boundary order).
    pub fn run_rows(&self, context: ContextId, run: usize) -> Option<Range<usize>> {
        let inner = self.read();
        let log = inner.log(context)?;
        let start = *log.run_starts.get(run)?;
        let end = log.run_starts.get(run + 1).copied().unwrap_or(log.rows);
        Some(start..end)
    }

    /// The last `max_ticks` rows of the context's *current run* as a
    /// frame — the store's view of the engine's diagnosis window.
    ///
    /// This reads the run tail live, so under concurrent ingest it is a
    /// moving target; the engine itself snapshots the window race-free
    /// through the two-step [`HistoryRecorder::window_rows`] /
    /// [`HistoryRecorder::frame_rows`] protocol instead.
    pub fn window_frame(&self, context: ContextId, max_ticks: usize) -> Option<MetricFrame> {
        let rows = HistoryRecorder::window_rows(self, context, max_ticks)?;
        self.frame(context, rows)
    }

    /// The full event log, in emission order.
    pub fn events(&self) -> Vec<EngineEvent> {
        self.read().events.clone()
    }

    /// Events attributed to one context, in emission order.
    pub fn events_for(&self, context: ContextId) -> Vec<EngineEvent> {
        self.read()
            .events
            .iter()
            .filter(|e| e.context() == context)
            .copied()
            .collect()
    }

    /// All sweep records, in recording order.
    pub fn sweeps(&self) -> Vec<SweepRecord> {
        self.read().sweeps.clone()
    }

    /// Sweep records for one context.
    pub fn sweeps_for(&self, context: ContextId) -> Vec<SweepRecord> {
        self.read()
            .sweeps
            .iter()
            .filter(|s| s.context == context)
            .cloned()
            .collect()
    }

    /// All diagnosis records, in recording order.
    pub fn diagnoses(&self) -> Vec<DiagnosisRecord> {
        self.read().diagnoses.clone()
    }

    /// Diagnosis records for one context.
    pub fn diagnoses_for(&self, context: ContextId) -> Vec<DiagnosisRecord> {
        self.read()
            .diagnoses
            .iter()
            .filter(|d| d.context == context)
            .cloned()
            .collect()
    }

    /// The payload of the trailing section tagged `tag`, if present.
    ///
    /// Sections are the format's forward-compat extension point: a
    /// four-byte tag plus an opaque payload appended after the diagnosis
    /// log (see the `IXHIST01` layout in the crate docs). `ix-replay`
    /// stores its config/seed header under `REPLAY_SECTION`.
    pub fn section(&self, tag: [u8; 4]) -> Option<Vec<u8>> {
        self.read()
            .sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, payload)| payload.clone())
    }

    /// Installs (or replaces) the trailing section tagged `tag`.
    pub fn set_section(&self, tag: [u8; 4], payload: Vec<u8>) {
        let mut inner = self.write();
        match inner.sections.iter_mut().find(|(t, _)| *t == tag) {
            Some((_, existing)) => *existing = payload,
            None => inner.sections.push((tag, payload)),
        }
    }

    /// The tags of all trailing sections, in file order.
    pub fn section_tags(&self) -> Vec<[u8; 4]> {
        self.read().sections.iter().map(|(t, _)| *t).collect()
    }
}

impl HistoryRecorder for HistoryStore {
    fn record_tick(
        &self,
        context: ContextId,
        tick: u64,
        cpi: f64,
        residual: f64,
        exceeded: bool,
        row: &[f64],
    ) {
        // The sentinel has no log slot; the engine never ingests under it,
        // so an unattributed row is dropped rather than misfiled.
        if context.is_unattributed() {
            return;
        }
        let mut inner = self.write();
        inner
            .log_mut(context)
            .push(tick, cpi, residual, exceeded, row);
    }

    fn record_run_reset(&self, context: ContextId) {
        if context.is_unattributed() {
            return;
        }
        let mut inner = self.write();
        inner.log_mut(context).mark_run();
    }

    fn record_event(&self, event: &EngineEvent) {
        self.write().events.push(*event);
    }

    fn record_sweep(
        &self,
        context: ContextId,
        tick: u64,
        scores: &[f64],
        degradation: Option<SweepDegradation>,
    ) {
        self.write().sweeps.push(SweepRecord {
            context,
            tick,
            scores: scores.to_vec(),
            degradation,
        });
    }

    fn record_diagnosis(&self, context: ContextId, tick: u64, diagnosis: &Diagnosis) {
        self.write().diagnoses.push(DiagnosisRecord {
            context,
            tick,
            diagnosis: diagnosis.clone(),
        });
    }

    fn bind_registry(&self, registry: &Arc<ContextRegistry>) {
        self.write().registry = Some(Arc::clone(registry));
    }

    fn window_rows(&self, context: ContextId, max_ticks: usize) -> Option<Range<usize>> {
        let inner = self.read();
        let log = inner.log(context)?;
        let start = *log.run_starts.last().expect("run_starts is never empty");
        // The engine's sliding window holds at least one tick even when
        // configured with zero, so mirror that floor for bit-exactness.
        let take = (log.rows - start).min(max_ticks.max(1));
        Some(log.rows - take..log.rows)
    }

    // Rows are append-only, so a range captured by `window_rows` under
    // the engine's shard lock materializes the same values here even
    // after concurrent ticks or run resets have landed.
    fn frame_rows(&self, context: ContextId, rows: Range<usize>) -> Option<MetricFrame> {
        self.frame(context, rows)
    }

    fn segment_count(&self, context: ContextId) -> Option<u64> {
        self.read()
            .log(context)
            .map(|log| log.segments.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(base: f64) -> Vec<f64> {
        (0..METRIC_COUNT).map(|m| base + m as f64).collect()
    }

    fn store_with_rows(n: usize) -> (HistoryStore, ContextId) {
        let store = HistoryStore::new();
        let ctx = ContextId::from_index(0);
        for t in 0..n {
            store.record_tick(ctx, t as u64 * 2, 1.0, 0.0, false, &row(t as f64));
        }
        (store, ctx)
    }

    #[test]
    fn rows_and_frames_round_trip() {
        let (store, ctx) = store_with_rows(700);
        assert_eq!(store.rows(ctx), 700);
        assert_eq!(store.tick_count(), 700);
        assert_eq!(store.contexts(), vec![ctx]);
        // The range crosses the 512-row segment boundary.
        let frame = store.frame(ctx, 500..520).expect("in range");
        assert_eq!(frame.ticks(), 20);
        assert_eq!(frame.get(0, MetricId::ALL[3]), 500.0 + 3.0);
        assert_eq!(frame.get(19, MetricId::ALL[0]), 519.0);
        assert!(store.frame(ctx, 0..701).is_none());
        assert!(store.frame(ContextId::from_index(9), 0..1).is_none());
    }

    #[test]
    fn columnar_series_scans() {
        let (store, ctx) = store_with_rows(600);
        let series = store
            .series(ctx, MetricId::ALL[7], 510..514)
            .expect("in range");
        assert_eq!(series, vec![517.0, 518.0, 519.0, 520.0]);
        let cpi = store.cpi_series(ctx, 0..3).expect("in range");
        assert_eq!(cpi, vec![1.0, 1.0, 1.0]);
        assert_eq!(
            store.tick_labels(ctx, 511..513).expect("in range"),
            vec![1022, 1024]
        );
    }

    #[test]
    fn time_window_scans_by_lifetime_tick() {
        let (store, ctx) = store_with_rows(100);
        // Ticks are 0, 2, 4, ... — tick 50 sits at row 25.
        assert_eq!(store.row_of_tick(ctx, 50), Some(25));
        assert_eq!(store.row_of_tick(ctx, 51), None);
        assert_eq!(store.rows_for_ticks(ctx, 50..60), Some(25..30));
        let frame = store.frame_for_ticks(ctx, 50..60).expect("window");
        assert_eq!(frame.ticks(), 5);
        assert_eq!(frame.get(0, MetricId::ALL[0]), 25.0);
    }

    #[test]
    fn run_boundaries_window_the_current_run() {
        let store = HistoryStore::new();
        let ctx = ContextId::from_index(2);
        for t in 0..10u64 {
            store.record_tick(ctx, t, 1.0, 0.0, false, &row(t as f64));
        }
        store.record_run_reset(ctx);
        store.record_run_reset(ctx); // back-to-back resets collapse
        for t in 10..14u64 {
            store.record_tick(ctx, t, 1.0, 0.0, false, &row(t as f64));
        }
        assert_eq!(store.run_count(ctx), 2);
        assert_eq!(store.run_rows(ctx, 0), Some(0..10));
        assert_eq!(store.run_rows(ctx, 1), Some(10..14));
        // The served window never crosses the run boundary.
        let window = store.window_frame(ctx, 8).expect("window");
        assert_eq!(window.ticks(), 4);
        assert_eq!(window.get(0, MetricId::ALL[0]), 10.0);
        // And is capped by max_ticks within a long run.
        let window = store.window_frame(ctx, 3).expect("window");
        assert_eq!(window.ticks(), 3);
        assert_eq!(window.get(0, MetricId::ALL[0]), 11.0);
    }

    #[test]
    fn window_row_snapshots_survive_concurrent_appends_and_resets() {
        let store = HistoryStore::new();
        let ctx = ContextId::from_index(0);
        for t in 0..10u64 {
            store.record_tick(ctx, t, 1.0, 0.0, false, &row(t as f64));
        }
        let rows = store.window_rows(ctx, 4).expect("window rows");
        assert_eq!(rows, 6..10);
        let before = store.frame_rows(ctx, rows.clone()).expect("frame");
        // Later ingest and run resets of the same context must not move
        // what a captured range resolves to (the engine relies on this
        // between releasing the shard lock and diagnosing).
        store.record_run_reset(ctx);
        for t in 10..30u64 {
            store.record_tick(ctx, t, 9.0, 9.0, true, &row(100.0 + t as f64));
        }
        let after = store.frame_rows(ctx, rows).expect("frame");
        assert_eq!(before, after);
        assert_eq!(after.get(0, MetricId::ALL[0]), 6.0);
        // And the convenience view now serves the new run's tail instead.
        let live = store.window_frame(ctx, 4).expect("window");
        assert_eq!(live.get(0, MetricId::ALL[0]), 126.0);
    }

    #[test]
    fn event_sweep_and_diagnosis_logs() {
        let store = HistoryStore::new();
        let ctx = ContextId::from_index(1);
        let other = ContextId::from_index(3);
        store.record_event(&EngineEvent::DetectionFired {
            context: ctx,
            tick: 5,
        });
        store.record_event(&EngineEvent::DetectionCleared {
            context: other,
            tick: 6,
        });
        store.record_sweep(ctx, 5, &[0.5, 0.25], None);
        let diagnosis = Diagnosis {
            ranked: Vec::new(),
            tuple: ix_core::ViolationTuple::from_graded(vec![0.0, 1.0]),
            degradation: None,
        };
        store.record_diagnosis(ctx, 5, &diagnosis);
        assert_eq!(store.events().len(), 2);
        assert_eq!(store.events_for(ctx).len(), 1);
        assert_eq!(store.sweeps_for(ctx)[0].scores, vec![0.5, 0.25]);
        assert_eq!(store.diagnoses_for(ctx)[0].diagnosis, diagnosis);
        assert_eq!(store.diagnoses().len(), 1);
        assert!(store.sweeps_for(other).is_empty());
    }

    #[test]
    fn labels_fall_back_without_registry() {
        let store = HistoryStore::new();
        assert_eq!(store.label(ContextId::from_index(4)), "(context 4)");
        let registry = Arc::new(ContextRegistry::new());
        let id = registry.intern(&ix_core::OperationContext::new("node1", "Wordcount"));
        store.bind_registry(&registry);
        assert_eq!(store.label(id), registry.label(id));
    }
}
