//! The per-context sweep record, the one place the engine reuses sweep
//! work: a cold diagnosis plans its window once and scores only the
//! invariant pairs, a re-diagnosed unchanged window is rescored as a
//! zero-tick slide instead of swept, and stays sound when the invariants
//! change under a record with unscored pairs. A violation tuple (and so a
//! signature) runs the same pass, so a tuple of the window just diagnosed
//! scores nothing.

use std::sync::{Arc, Mutex};

use invarnet_x::core::{
    pair_count, Engine, EngineEvent, EnginePhase, EventSink, InvariantSet, ModelStore,
    OperationContext,
};
use invarnet_x::metrics::{MetricFrame, METRIC_COUNT};

/// Deterministic pseudo-random samples in `[0, 1)`.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    }
}

/// A frame whose metrics all follow one latent ramp (a dense invariant
/// network), with metric 0 optionally decoupled.
fn coupled_frame(ticks: usize, seed: u64, break_metric0: bool) -> MetricFrame {
    let mut next = lcg(seed);
    let mut f = MetricFrame::new();
    for t in 0..ticks {
        let latent = (t as f64 * 0.23).sin() * 5.0 + 10.0 + 0.2 * next();
        let mut row: Vec<f64> = (0..METRIC_COUNT)
            .map(|k| latent * (k + 1) as f64 + 0.1 * next())
            .collect();
        if break_metric0 {
            row[0] = 100.0 * next();
        }
        f.push_tick(&row).unwrap();
    }
    f
}

/// Independent noise rows: every metric moves on every tick, so a
/// one-tick slide leaves every pair stale.
fn noise_rows(seed: u64, ticks: usize) -> Vec<Vec<f64>> {
    let mut next = lcg(seed);
    (0..ticks)
        .map(|_| (0..METRIC_COUNT).map(|_| next()).collect())
        .collect()
}

fn window(rows: &[Vec<f64>], offset: usize, ticks: usize) -> MetricFrame {
    let mut f = MetricFrame::new();
    for row in &rows[offset..offset + ticks] {
        f.push_tick(row).unwrap();
    }
    f
}

/// Every event the engine emits, in order.
#[derive(Default)]
struct EventLog(Mutex<Vec<EngineEvent>>);

impl EventLog {
    fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    fn since(&self, mark: usize) -> Vec<EngineEvent> {
        self.0.lock().unwrap()[mark..].to_vec()
    }
}

impl EventSink for EventLog {
    fn record(&self, event: &EngineEvent) {
        self.0.lock().unwrap().push(*event);
    }
}

fn logged_engine() -> (Engine, Arc<EventLog>) {
    let log = Arc::new(EventLog::default());
    let engine = Engine::builder()
        .observe(Arc::clone(&log) as Arc<dyn EventSink>)
        .build();
    (engine, log)
}

fn train(engine: &Engine, ctx: &OperationContext) {
    let frames = [coupled_frame(40, 1, false), coupled_frame(40, 2, false)];
    engine.build_invariants(ctx.clone(), &frames).unwrap();
    engine
        .record_signature(ctx, "metric0-break", &coupled_frame(40, 9, true))
        .unwrap();
}

/// Invariants over the few pairs stable across a coupled and a noise
/// window: most pairs are not invariants, so a slide leaves them stale.
/// Returns how many invariants there are.
fn train_narrow(engine: &Engine, ctx: &OperationContext) -> usize {
    let training = [
        coupled_frame(40, 1, false),
        window(&noise_rows(3, 40), 0, 40),
    ];
    engine.build_invariants(ctx.clone(), &training).unwrap();
    engine
        .record_signature(ctx, "narrow", &coupled_frame(40, 9, true))
        .unwrap();
    let narrow = engine.invariant_set(ctx).unwrap().len();
    assert!(narrow < pair_count() / 2, "{narrow} invariants");
    narrow
}

fn spans(events: &[EngineEvent], wanted: EnginePhase) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, EngineEvent::SpanClosed { phase, .. } if *phase == wanted))
        .count()
}

fn screens(events: &[EngineEvent]) -> Vec<(usize, usize, usize)> {
    events
        .iter()
        .filter_map(|e| match *e {
            EngineEvent::SweepScreened {
                reused,
                screened,
                confirmed,
                ..
            } => Some((reused, screened, confirmed)),
            _ => None,
        })
        .collect()
}

fn completed_pairs(events: &[EngineEvent]) -> Vec<usize> {
    events
        .iter()
        .filter_map(|e| match *e {
            EngineEvent::SweepCompleted { pairs, .. } => Some(pairs),
            _ => None,
        })
        .collect()
}

#[test]
fn a_cold_window_is_planned_once_and_scores_only_invariant_pairs() {
    let ctx = OperationContext::new("10.2.0.4", "Wordcount");
    let (engine, log) = logged_engine();
    let narrow = train_narrow(&engine, &ctx);
    let incident = window(&noise_rows(11, 40), 0, 40);

    let mark = log.len();
    let got = engine.diagnose(&ctx, &incident).unwrap();
    let events = log.since(mark);
    assert_eq!(spans(&events, EnginePhase::ProfileBuild), 1, "one plan");
    assert_eq!(spans(&events, EnginePhase::Sweep), 1);
    assert_eq!(completed_pairs(&events), [narrow]);
    assert_eq!(
        screens(&events),
        [(pair_count() - narrow, 0, narrow)],
        "a cold pass's pairs reused, cleared and scored exactly"
    );
    let (fresh, _) = logged_engine();
    train_narrow(&fresh, &ctx);
    assert_eq!(fresh.diagnose(&ctx, &incident).unwrap(), got);

    // A violation tuple of the diagnosed window runs the diagnosis pass
    // over the record: a zero-tick rescore, with no sweep and no pair
    // scored, that reads the diagnosis's tuple.
    let mark = log.len();
    let tuple = engine.violation_tuple(&ctx, &incident).unwrap();
    let events = log.since(mark);
    assert_eq!(spans(&events, EnginePhase::Sweep), 0);
    assert_eq!(completed_pairs(&events), [0]);
    assert_eq!(tuple, got.tuple);
}

#[test]
fn rediagnosing_an_unchanged_window_rescores_without_sweeping() {
    let ctx = OperationContext::new("10.2.0.1", "Wordcount");
    let (engine, log) = logged_engine();
    train(&engine, &ctx);
    let incident = coupled_frame(40, 77, true);
    let first = engine.diagnose(&ctx, &incident).unwrap();

    let mark = log.len();
    let second = engine.diagnose(&ctx, &incident).unwrap();
    let events = log.since(mark);
    assert_eq!(spans(&events, EnginePhase::Sweep), 0, "no full sweep");
    assert_eq!(
        spans(&events, EnginePhase::ProfileBuild),
        0,
        "no profiles built"
    );
    assert_eq!(spans(&events, EnginePhase::Screen), 1);
    // A zero-tick slide leaves nothing stale: every pair is reused.
    assert_eq!(screens(&events), [(pair_count(), 0, 0)]);
    assert!(events.iter().all(|e| match e {
        EngineEvent::SweepCompleted { pairs, .. } => *pairs == 0,
        _ => true,
    }));

    assert_eq!(second, first);
    let (fresh, _) = logged_engine();
    train(&fresh, &ctx);
    assert_eq!(fresh.diagnose(&ctx, &incident).unwrap(), second);
}

#[test]
fn unchanged_window_under_new_invariants_matches_a_from_scratch_engine() {
    let ctx = OperationContext::new("10.2.0.2", "Wordcount");
    let (engine, log) = logged_engine();
    let narrow = train_narrow(&engine, &ctx);

    let rows = noise_rows(5, 41);
    let (w0, w1) = (window(&rows, 0, 40), window(&rows, 1, 40));
    engine.diagnose(&ctx, &w0).unwrap();
    let mark = log.len();
    engine.diagnose(&ctx, &w1).unwrap();
    let slid = screens(&log.since(mark));
    assert_eq!(slid.len(), 1, "the one-tick slide is incremental");
    assert!(slid[0].0 > pair_count() - narrow - 1, "{slid:?}");

    // New invariants over every pair, installed without a sweep, so the
    // record keeps the pairs the old set never read unscored.
    let wide = InvariantSet::select(
        &[Engine::builder()
            .build()
            .association_matrix(&coupled_frame(40, 4, false))
            .unwrap()],
        0.2,
    );
    assert_eq!(wide.len(), pair_count());
    let reference = Engine::builder().build();
    let mut store = ModelStore::new();
    store
        .invariants
        .insert(ModelStore::context_key(&ctx), Arc::new(wide));
    reference.load_state(&store).unwrap();
    reference
        .record_signature(&ctx, "wide", &coupled_frame(40, 9, true))
        .unwrap();
    engine.load_state(&reference.snapshot_state()).unwrap();

    let mark = log.len();
    let got = engine.diagnose(&ctx, &w1).unwrap();
    let events = log.since(mark);
    // Served raw, the record would hand the new invariants placeholder
    // zeros for every pair the old set never read.
    let want = reference.diagnose(&ctx, &w1).unwrap();
    assert_eq!(got.tuple, want.tuple);
    assert_eq!(got, want);
    // ...and it was served from the record, rescored, not swept.
    assert_eq!(spans(&events, EnginePhase::Sweep), 0);
    assert_eq!(screens(&events).len(), 1);
}

#[test]
fn a_violation_tuple_of_the_recorded_window_is_a_zero_tick_rescore() {
    let ctx = OperationContext::new("10.2.0.3", "Wordcount");
    let (engine, log) = logged_engine();
    train_narrow(&engine, &ctx);
    let rows = noise_rows(7, 41);
    let (w0, w1) = (window(&rows, 0, 40), window(&rows, 1, 40));
    engine.diagnose(&ctx, &w0).unwrap();
    let slid = engine.diagnose(&ctx, &w1).unwrap();

    // The record holds w1 after a slide: a violation tuple of w1 rescores
    // it in place, building no profile and scoring no pair, and reads the
    // diagnosis's tuple.
    let mark = log.len();
    let tuple = engine.violation_tuple(&ctx, &w1).unwrap();
    let events = log.since(mark);
    assert_eq!(spans(&events, EnginePhase::Sweep), 0);
    assert_eq!(spans(&events, EnginePhase::ProfileBuild), 0);
    assert_eq!(completed_pairs(&events), [0]);
    assert_eq!(tuple, slid.tuple);

    let (fresh, _) = logged_engine();
    train_narrow(&fresh, &ctx);
    assert_eq!(fresh.violation_tuple(&ctx, &w1).unwrap(), tuple);
}
