//! A stepping debugger over the replay schedule.
//!
//! The debugger wraps a [`Replayer`] and adds control flow: `step(n)`,
//! breakpoints on event kind / context / tick predicates, and paused
//! inspection of the fresh engine's live state through
//! [`ix_core::EngineInspector`].

use ix_core::{ContextId, Engine, EngineInspector, EventKind};

use crate::driver::{Replayer, TickReport};
use crate::error::ReplayError;

/// A conjunction of predicates over one replayed tick. Every `Some`
/// condition must hold; a breakpoint with every field `None` pauses on
/// every tick (single-stepping by another name).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakpoint {
    /// Pause when the tick emitted an event of this kind.
    pub kind: Option<EventKind>,
    /// Pause on ticks of this (recorded) context.
    pub context: Option<ContextId>,
    /// Pause on this lifetime tick.
    pub tick: Option<u64>,
    /// Pause when the tick's outcome differs from the recorded row.
    pub on_divergence: bool,
}

impl Breakpoint {
    /// A breakpoint on an event kind.
    pub fn on_event(kind: EventKind) -> Self {
        Breakpoint {
            kind: Some(kind),
            ..Breakpoint::default()
        }
    }

    /// A breakpoint on a context.
    pub fn on_context(context: ContextId) -> Self {
        Breakpoint {
            context: Some(context),
            ..Breakpoint::default()
        }
    }

    /// A breakpoint on a lifetime tick.
    pub fn on_tick(tick: u64) -> Self {
        Breakpoint {
            tick: Some(tick),
            ..Breakpoint::default()
        }
    }

    /// A breakpoint on the first tick whose outcome differs from the
    /// recording.
    pub fn on_divergence() -> Self {
        Breakpoint {
            on_divergence: true,
            ..Breakpoint::default()
        }
    }

    /// Whether this breakpoint fires for `report`.
    pub fn matches(&self, report: &TickReport) -> bool {
        if let Some(kind) = self.kind {
            if !report.events.iter().any(|e| e.kind() == kind) {
                return false;
            }
        }
        if let Some(context) = self.context {
            if report.scheduled.context != context {
                return false;
            }
        }
        if let Some(tick) = self.tick {
            if report.scheduled.tick != tick {
                return false;
            }
        }
        if self.on_divergence && report.matches_recorded {
            return false;
        }
        true
    }
}

/// Why the debugger paused.
#[derive(Debug)]
pub enum StopReason {
    /// A breakpoint fired; `breakpoint` indexes into
    /// [`ReplayDebugger::breakpoints`].
    Breakpoint {
        /// Index of the breakpoint that fired.
        breakpoint: usize,
        /// The tick that triggered it.
        report: TickReport,
    },
    /// The step budget ran out; the last tick replayed is attached.
    Stepped {
        /// The last tick replayed before pausing.
        report: TickReport,
    },
    /// The schedule is exhausted.
    EndOfTrace,
}

/// A stepping debugger over a [`Replayer`].
pub struct ReplayDebugger {
    replayer: Replayer,
    breakpoints: Vec<Breakpoint>,
}

impl ReplayDebugger {
    /// Wraps a replayer with an empty breakpoint set.
    pub fn new(replayer: Replayer) -> Self {
        ReplayDebugger {
            replayer,
            breakpoints: Vec::new(),
        }
    }

    /// Adds a breakpoint; returns its index (for [`StopReason`]).
    pub fn add_breakpoint(&mut self, breakpoint: Breakpoint) -> usize {
        self.breakpoints.push(breakpoint);
        self.breakpoints.len() - 1
    }

    /// The current breakpoint set.
    pub fn breakpoints(&self) -> &[Breakpoint] {
        &self.breakpoints
    }

    /// Removes every breakpoint.
    pub fn clear_breakpoints(&mut self) {
        self.breakpoints.clear();
    }

    /// The wrapped replayer (position, schedule, stores).
    pub fn replayer(&self) -> &Replayer {
        &self.replayer
    }

    /// Consumes the debugger, returning the replayer (e.g. to
    /// [`Replayer::verify`] after stepping through the interesting part).
    pub fn into_replayer(self) -> Replayer {
        self.replayer
    }

    /// A read-only inspector over the fresh engine, valid at the current
    /// pause point.
    pub fn inspector(&self) -> EngineInspector<'_> {
        self.replayer.engine().inspector()
    }

    /// The fresh engine itself.
    pub fn engine(&self) -> &Engine {
        self.replayer.engine()
    }

    /// Replays up to `n` ticks, pausing early when a breakpoint fires.
    ///
    /// # Errors
    ///
    /// Propagates [`ReplayError`] from the underlying [`Replayer::step`].
    pub fn step(&mut self, n: usize) -> Result<StopReason, ReplayError> {
        let mut last = None;
        for _ in 0..n {
            match self.replayer.step()? {
                None => return Ok(StopReason::EndOfTrace),
                Some(report) => {
                    if let Some(index) = self.breakpoints.iter().position(|b| b.matches(&report)) {
                        return Ok(StopReason::Breakpoint {
                            breakpoint: index,
                            report,
                        });
                    }
                    last = Some(report);
                }
            }
        }
        match last {
            Some(report) => Ok(StopReason::Stepped { report }),
            None => Ok(StopReason::EndOfTrace),
        }
    }

    /// Replays until a breakpoint fires or the schedule ends.
    ///
    /// # Errors
    ///
    /// Propagates [`ReplayError`] from the underlying [`Replayer::step`].
    pub fn run(&mut self) -> Result<StopReason, ReplayError> {
        loop {
            match self.step(usize::MAX)? {
                StopReason::Stepped { .. } => continue,
                stop => return Ok(stop),
            }
        }
    }
}

impl std::fmt::Debug for ReplayDebugger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayDebugger")
            .field("position", &self.replayer.position())
            .field("breakpoints", &self.breakpoints)
            .finish()
    }
}
