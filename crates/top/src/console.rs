//! The console's event-facing half: an [`EventSink`] that distills the
//! engine's event stream into the state a frame needs.
//!
//! Attach a [`TopConsole`] to a live engine with
//! `Engine::builder().observe(&hub).observe(console)` — as one more member
//! of the engine's observation list it sees the same stream every other
//! member sees, and the ingest hot path gains no new locks (the console's mutex is taken only on the
//! events the engine already emits, never on a path the engine did not
//! already pay for).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

use ix_core::{
    ContextId, ContextRegistry, Engine, EngineEvent, EventSink, Telemetry, TelemetrySnapshot,
};

/// How many tail lines a console retains by default.
pub const DEFAULT_TAIL: usize = 12;

/// Mutable console state, guarded by one mutex that is only touched from
/// event delivery and snapshotting — never from the ingest shard locks.
#[derive(Debug, Default)]
struct ConsoleState {
    tail: VecDeque<String>,
    latest_tick: u64,
    queue_depth: u64,
    shed_ticks: u64,
    degraded_sweeps: u64,
    health: Option<String>,
    events_seen: u64,
}

/// An [`EventSink`] that keeps a scrolling tail of notable events plus
/// the latest tick / queue / health readings, ready to be frozen into a
/// [`TopSnapshot`].
pub struct TopConsole {
    state: Mutex<ConsoleState>,
    tail_capacity: usize,
    labels: Mutex<Option<Arc<ContextRegistry>>>,
}

impl TopConsole {
    /// A console retaining [`DEFAULT_TAIL`] tail lines.
    pub fn new() -> Self {
        TopConsole::with_tail(DEFAULT_TAIL)
    }

    /// A console retaining up to `tail_capacity` tail lines.
    pub fn with_tail(tail_capacity: usize) -> Self {
        TopConsole {
            state: Mutex::new(ConsoleState::default()),
            tail_capacity: tail_capacity.max(1),
            labels: Mutex::new(None),
        }
    }

    fn label(&self, context: ContextId) -> String {
        let bound = self.labels.lock().unwrap_or_else(PoisonError::into_inner);
        match bound.as_ref() {
            Some(registry) => registry.label(context),
            None => format!("ctx {}", context.index()),
        }
    }

    /// Total events this console has observed.
    pub fn events_seen(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .events_seen
    }

    /// Freezes the console + telemetry hub into a renderable snapshot.
    /// Pass the engine when one is in-process so the queue capacity and
    /// authoritative health reading come from it.
    pub fn snapshot(&self, hub: &Telemetry, engine: Option<&Engine>) -> TopSnapshot {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (queue_depth, queue_capacity, health) = match engine {
            Some(engine) => {
                let inspector = engine.inspector();
                (
                    inspector.queued_ticks() as u64,
                    inspector.queue_capacity() as u64,
                    inspector.health().name().to_string(),
                )
            }
            None => (
                state.queue_depth,
                0,
                state
                    .health
                    .clone()
                    .unwrap_or_else(|| "healthy".to_string()),
            ),
        };
        TopSnapshot {
            telemetry: hub.snapshot(),
            tail: state.tail.iter().cloned().collect(),
            latest_tick: state.latest_tick,
            queue_depth,
            queue_capacity,
            shed_ticks: state.shed_ticks,
            degraded_sweeps: state.degraded_sweeps,
            health,
            replay: None,
        }
    }

    fn push_tail(&self, state: &mut ConsoleState, line: String) {
        if state.tail.len() == self.tail_capacity {
            state.tail.pop_front();
        }
        state.tail.push_back(line);
    }
}

impl Default for TopConsole {
    fn default() -> Self {
        TopConsole::new()
    }
}

impl std::fmt::Debug for TopConsole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopConsole")
            .field("tail_capacity", &self.tail_capacity)
            .field("events_seen", &self.events_seen())
            .finish()
    }
}

impl EventSink for TopConsole {
    /// Shares a context registry so tail lines carry `workload@node`
    /// labels instead of bare context indices. An engine calls it at
    /// build time; a replay feed calls it with its own hub's registry.
    fn bind_registry(&self, registry: &Arc<ContextRegistry>) {
        *self.labels.lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(registry));
    }

    fn record(&self, event: &EngineEvent) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.events_seen += 1;
        // Every variant is named: a new event must decide its console
        // treatment explicitly, not vanish behind a wildcard.
        let line = match *event {
            EngineEvent::TickIngested { tick, .. } => {
                state.latest_tick = state.latest_tick.max(tick);
                None
            }
            EngineEvent::DetectionFired { context, tick } => Some(format!(
                "t{tick:>6}  DETECT   {} anomaly onset",
                self.label(context)
            )),
            EngineEvent::DetectionCleared { context, tick } => Some(format!(
                "t{tick:>6}  CLEAR    {} back to normal",
                self.label(context)
            )),
            EngineEvent::DiagnosisRan {
                context,
                tick,
                micros,
            } => Some(format!(
                "t{tick:>6}  DIAGNOSE {} ({micros} us)",
                self.label(context)
            )),
            EngineEvent::SignatureMatched {
                context,
                tick,
                best_similarity,
                confident,
            } => Some(format!(
                "t{tick:>6}  MATCH    {} sim {best_similarity:.3}{}",
                self.label(context),
                if confident { "" } else { " (unknown)" }
            )),
            EngineEvent::SweepCompleted {
                context,
                pairs,
                micros,
            } => Some(format!(
                "        SWEEP    {} {pairs} pairs ({micros} us)",
                self.label(context)
            )),
            EngineEvent::PairsScored { .. } => None,
            EngineEvent::SweepScreened {
                context,
                reused,
                screened,
                confirmed,
            } => Some(format!(
                "        SCREEN   {} {reused} reused / {screened} screened / {confirmed} confirmed",
                self.label(context)
            )),
            EngineEvent::SpanClosed { .. } => None,
            EngineEvent::SweepDegraded {
                context,
                tier,
                reason,
            } => {
                state.degraded_sweeps += 1;
                Some(format!(
                    "        DEGRADE  {} -> {tier:?} ({reason:?})",
                    self.label(context)
                ))
            }
            EngineEvent::TickEnqueued { depth, .. } => {
                state.queue_depth = depth as u64;
                None
            }
            EngineEvent::TickShed { context, policy } => {
                state.shed_ticks += 1;
                Some(format!(
                    "        SHED     {} ({policy:?})",
                    self.label(context)
                ))
            }
            EngineEvent::StoreRetried {
                attempt,
                backoff_micros,
                ..
            } => Some(format!(
                "        RETRY    store attempt {attempt} (backoff {backoff_micros} us)"
            )),
            EngineEvent::HealthChanged { from, to, .. } => {
                state.health = Some(to.name().to_string());
                Some(format!("        HEALTH   {} -> {}", from.name(), to.name()))
            }
            EngineEvent::TenantEvicted { tenant, ticks, .. } => {
                Some(format!("        EVICT    tenant {tenant} ({ticks} ticks)"))
            }
            EngineEvent::TenantWarmed { tenant, micros, .. } => {
                Some(format!("        WARM     tenant {tenant} ({micros} us)"))
            }
        };
        if let Some(line) = line {
            self.push_tail(&mut state, line);
        }
    }
}

/// Where a replay-driven console currently is in its trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayPosition {
    /// Events fed so far.
    pub position: usize,
    /// Total events in the trace.
    pub total: usize,
    /// The playback speed multiplier.
    pub speed: f64,
}

/// One frozen frame's worth of console state: everything
/// [`crate::render_frame`] needs, and nothing live.
#[derive(Debug, Clone)]
pub struct TopSnapshot {
    /// The telemetry hub's frozen counters, gauges and histograms.
    pub telemetry: TelemetrySnapshot,
    /// The scrolling tail of notable events, oldest first.
    pub tail: Vec<String>,
    /// Highest lifetime tick observed.
    pub latest_tick: u64,
    /// Current ingest queue depth.
    pub queue_depth: u64,
    /// Ingest queue capacity (0 when unknown, e.g. replay mode).
    pub queue_capacity: u64,
    /// Ticks shed under overload.
    pub shed_ticks: u64,
    /// Sweeps answered by a degraded tier.
    pub degraded_sweeps: u64,
    /// The engine health state name.
    pub health: String,
    /// Set when the console is replaying a recorded trace.
    pub replay: Option<ReplayPosition>,
}
