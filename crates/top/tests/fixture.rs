//! The committed fixture trace: a recorded simulated fault run the CI
//! smoke test replays headless through the `ix-top` binary.
//!
//! Regenerate after a history-format or recording change with
//! `IX_TOP_BLESS=1 cargo test -p ix-top --test fixture`.

use std::path::PathBuf;
use std::sync::Arc;

use ix_core::{Engine, InvarNetConfig, OperationContext};
use ix_history::HistoryStore;
use ix_replay::RecordingSession;
use ix_simulator::{FaultType, Runner, WorkloadType};
use ix_top::{render_frame, ReplayFeed, TopConsole};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/fixture.ixh")
}

/// The fixture's exact length. Every record kind has a fixed width, so a
/// recording's length does not depend on its wall-clock readings, and
/// the event counts (one `PairsScored` per claimed batch of pairs) do not
/// depend on the sweep worker count.
const FIXTURE_BYTES: usize = 86_242;

/// Records the standard simulated MemHog scenario into a replayable
/// trace (the same recipe as the `ix-replay` round-trip tests).
fn record_fixture() -> Arc<HistoryStore> {
    let runner = Runner::new(11);
    let node = Runner::DEFAULT_FAULT_NODE;
    let workload = WorkloadType::Wordcount;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let config = InvarNetConfig::default();
    let trainer = Engine::builder().config(config.clone()).build();

    let normals = runner.normal_runs(workload, 4);
    let cpi_traces: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    trainer
        .train_performance_model(context.clone(), &cpi_traces)
        .expect("train detector");
    let frames: Vec<_> = normals
        .iter()
        .map(|r| {
            let f = &r.per_node[node].frame;
            f.window(30..75.min(f.ticks()))
        })
        .collect();
    trainer
        .build_invariants(context.clone(), &frames)
        .expect("build invariants");
    for fault in [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog] {
        let run = runner.fault_run(workload, fault, 0);
        trainer
            .record_signature(&context, fault.name(), &run.fault_window().expect("window"))
            .expect("record signature");
    }

    let session =
        RecordingSession::new(config, trainer.snapshot_state()).expect("recording session");
    let live = runner.fault_run(workload, FaultType::MemHog, 5);
    let cpi = live.per_node[node].cpi.cpi_series();
    let frame = &live.per_node[node].frame;
    session.engine().reset_run(&context);
    for (t, &sample) in cpi.iter().enumerate().take(frame.ticks().min(cpi.len())) {
        session
            .engine()
            .ingest(&context, sample, frame.tick(t))
            .expect("ingest tick");
    }
    session.finish()
}

#[test]
fn committed_fixture_trace_drives_the_console() {
    let path = fixture_path();
    if std::env::var_os("IX_TOP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("data dir")).expect("mkdir");
        record_fixture().save(&path).expect("save fixture trace");
    }
    let (store, warnings) = HistoryStore::load_with_warnings(&path)
        .unwrap_or_else(|e| panic!("missing fixture trace: {e} (bless with IX_TOP_BLESS=1)"));
    assert!(
        warnings.is_empty(),
        "the fixture must load clean on current readers: {warnings:?}"
    );
    let bytes = std::fs::read(&path).expect("read fixture");
    assert_eq!(
        store.to_bytes(),
        bytes,
        "the fixture re-encodes byte-identically"
    );
    assert!(
        !store.diagnoses().is_empty(),
        "the fixture scenario must contain a diagnosis"
    );

    let mut feed = ReplayFeed::builder()
        .console(TopConsole::new())
        .speed(4.0)
        .build(&store);
    let mut prev = None;
    let mut frames = 0;
    while !feed.is_done() {
        feed.advance(64);
        let snap = feed.snapshot();
        let frame = render_frame(&snap, prev.as_ref(), 100);
        assert!(
            frame.lines().count() >= 6,
            "frames must have the full layout"
        );
        prev = Some(snap);
        frames += 1;
    }
    assert!(frames > 1, "the fixture must span multiple frames");

    let last = prev.expect("at least one frame");
    assert!(last.latest_tick > 0);
    assert!(
        last.tail.iter().any(|l| l.contains("DIAGNOSE")),
        "the fault run's diagnosis must surface in the tail: {:?}",
        last.tail
    );
    assert_eq!(last.replay.expect("replay position").position, feed.total());
    // The telemetry hub rebuilt from events attributes the run to the
    // recorded workload@node label.
    assert!(last
        .telemetry
        .contexts
        .iter()
        .any(|s| s.context.starts_with("Wordcount@") && s.ticks > 0));
}

#[test]
fn fixture_length_is_pinned() {
    let committed = std::fs::metadata(fixture_path()).expect("fixture").len();
    assert_eq!(committed, FIXTURE_BYTES as u64, "the committed fixture");
    assert_eq!(
        record_fixture().to_bytes().len(),
        FIXTURE_BYTES,
        "a fresh recording"
    );
}
