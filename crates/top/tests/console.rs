//! Console behavior over synthetic and live event streams: the tail
//! distills the right events, live attachment rides the engine's observation
//! list, and replay re-interns recorded labels positionally.

use std::sync::Arc;

use ix_core::{
    ContextId, DegradationReason, DegradationTier, Engine, EngineEvent, EventSink, HealthState,
    HistoryRecorder, InvarNetConfig, OperationContext, OverloadPolicy, Telemetry,
};
use ix_history::HistoryStore;
use ix_top::{ReplayFeed, TopConsole};

#[test]
fn tail_keeps_notable_events_and_counters_track() {
    let console = TopConsole::with_tail(3);
    let hub = Telemetry::shared();
    let ctx = ContextId::from_index(0);

    console.record(&EngineEvent::TickIngested {
        context: ctx,
        tick: 41,
        residual: 1.0,
        exceeded: false,
        micros: 5,
    });
    console.record(&EngineEvent::TickEnqueued {
        context: ctx,
        depth: 7,
    });
    console.record(&EngineEvent::DetectionFired {
        context: ctx,
        tick: 42,
    });
    console.record(&EngineEvent::TickShed {
        context: ctx,
        policy: OverloadPolicy::ShedOldest,
    });
    console.record(&EngineEvent::SweepDegraded {
        context: ctx,
        tier: DegradationTier::CachedMatrix,
        reason: DegradationReason::WallClockExceeded,
    });
    console.record(&EngineEvent::HealthChanged {
        context: ctx,
        from: HealthState::Healthy,
        to: HealthState::Degraded(DegradationTier::CachedMatrix),
    });

    let snap = console.snapshot(&hub, None);
    assert_eq!(snap.latest_tick, 41);
    assert_eq!(snap.queue_depth, 7);
    assert_eq!(snap.shed_ticks, 1);
    assert_eq!(snap.degraded_sweeps, 1);
    assert_eq!(snap.health, "degraded");
    // Capacity 3: the DETECT line scrolled out, the newest three remain.
    assert_eq!(snap.tail.len(), 3);
    assert!(snap.tail[0].contains("SHED"));
    assert!(snap.tail[1].contains("DEGRADE"));
    assert!(snap.tail[2].contains("HEALTH"));
    assert_eq!(console.events_seen(), 6);
}

#[test]
fn live_attachment_sees_the_engine_stream_without_new_locks() {
    const TICKS: u64 = 17;
    // The console is one more member of the engine's observation list:
    // nothing on the ingest path knows it exists, so per-tick cost is
    // unchanged by design. `build` binds it to the hub's registry.
    let hub = Telemetry::shared();
    let console = Arc::new(TopConsole::new());
    let engine = Engine::builder()
        .config(InvarNetConfig::default())
        .observe(&hub)
        .observe(Arc::clone(&console) as Arc<dyn EventSink>)
        .build();

    let context = OperationContext::new("10.0.0.9", "Wordcount");
    let trace: Vec<Vec<f64>> = (0..5)
        .map(|r| {
            (0..40)
                .map(|t| 1.0 + 0.1 * ((t + r) as f64 * 0.3).sin())
                .collect()
        })
        .collect();
    engine
        .train_performance_model(context.clone(), &trace)
        .expect("train");
    // Twelve normal ticks, then a CPI spike that fires a detection while
    // the window is still too short to diagnose.
    for t in 0..TICKS {
        let row = vec![0.5; ix_metrics::METRIC_COUNT];
        let cpi = if t < 12 {
            1.0 + 0.1 * ((t as f64) * 0.3).sin()
        } else {
            10.0
        };
        engine.ingest(&context, cpi, &row).expect("ingest");
    }

    let snap = console.snapshot(&hub, Some(&engine));
    assert!(
        console.events_seen() >= TICKS,
        "every ingest tick must reach the console"
    );
    assert_eq!(snap.latest_tick, TICKS - 1);
    assert_eq!(snap.health, "healthy");
    assert_eq!(snap.queue_capacity, engine.ingest_queue_capacity() as u64);
    // The hub saw the same stream.
    assert_eq!(snap.telemetry.total.ticks, TICKS);
    // The console resolves the engine's context ids through the registry
    // `build` bound it to.
    assert!(
        snap.tail
            .iter()
            .any(|line| line.contains("DETECT") && line.contains("Wordcount@10.0.0.9")),
        "tail: {:?}",
        snap.tail
    );
}

#[test]
fn replay_feed_reinterns_recorded_labels_positionally() {
    // A synthetic trace recorded under two contexts, shipped through
    // bytes (labels persist in the file) and replayed into a fresh hub.
    let store = HistoryStore::builder().shared();
    let registry = Arc::new(ix_core::ContextRegistry::new());
    let a = registry.intern(&OperationContext::new("10.0.0.1", "Wordcount"));
    let b = registry.intern(&OperationContext::new("10.0.0.2", "Sort"));
    store.bind_registry(&registry);
    for t in 0..4u64 {
        let ctx = if t % 2 == 0 { a } else { b };
        store.record_tick(
            ctx,
            t,
            1.0,
            0.0,
            false,
            &vec![0.0; ix_metrics::METRIC_COUNT],
        );
        store.record(&EngineEvent::TickIngested {
            context: ctx,
            tick: t,
            residual: 0.0,
            exceeded: false,
            micros: 1,
        });
    }
    store.record(&EngineEvent::DetectionFired {
        context: b,
        tick: 3,
    });

    let bytes = store.to_bytes();
    let reloaded = HistoryStore::from_bytes(&bytes).expect("reload");

    let mut feed = ReplayFeed::builder()
        .console(TopConsole::new())
        .speed(2.0)
        .build(&reloaded);
    assert_eq!(feed.label(a), "Wordcount@10.0.0.1");
    assert_eq!(feed.label(b), "Sort@10.0.0.2");
    assert_eq!(feed.total(), 5);

    let mut advanced = 0;
    while !feed.is_done() {
        advanced += feed.advance(2);
    }
    assert_eq!(advanced, 5);
    let snap = feed.snapshot();
    assert_eq!(snap.latest_tick, 3);
    let position = snap.replay.expect("replay position is stamped");
    assert_eq!(position.position, 5);
    assert_eq!(position.total, 5);
    // The tail resolves the recorded id to its recorded label.
    assert!(snap.tail.iter().any(|l| l.contains("Sort@10.0.0.2")));
    // The hub's scopes carry the re-interned labels too.
    assert!(snap
        .telemetry
        .contexts
        .iter()
        .any(|s| s.context == "Wordcount@10.0.0.1" && s.ticks == 2));
}
