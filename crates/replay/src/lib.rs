//! `ix-replay`: deterministic replay of recorded engine history.
//!
//! An `ix-history` trace captures everything a streaming engine did —
//! every accepted tick row, every [`ix_core::EngineEvent`], every sweep's
//! association scores and every finished diagnosis. This crate closes the
//! loop: given a trace whose [`ReplayHeader`] embeds the engine
//! configuration and trained [`ix_core::ModelStore`], it reconstructs a
//! fresh engine, re-ingests the recorded ticks in their original global
//! order, and asserts that what the fresh engine computes is *byte-exact*
//! equal (modulo wall-clock timing fields) to what was recorded:
//!
//! - [`RecordingSession`] — the write side: builds the engine a
//!   replayable trace must be recorded with and embeds the header, so a
//!   trace is self-contained (`record → ship the one file → replay`).
//! - [`Replayer`] — the read side: reconstructs the engine from the
//!   header, streams the recorded schedule, and [`Replayer::verify`]
//!   produces a [`ReplayReport`] listing every divergence down to the
//!   first differing row, event or diagnosis.
//! - [`ReplayDebugger`] — a stepping debugger over the same schedule:
//!   `step(n)`, [`Breakpoint`]s on event kind / context / tick
//!   predicates, and state inspection (per-context detector state, the
//!   sliding window, queue depth) at any paused tick through
//!   [`ix_core::EngineInspector`].
//! - [`bisect`] — binary-searches two traces of the same scenario for
//!   the first lifetime tick at which they diverge, reporting the
//!   differing row (built on `ix-query`'s row scans).
//!
//! Determinism comes from the engine itself: ingestion is a pure
//! function of (config, trained state, tick stream) once wall-clock
//! readings are excluded, and context ids are assigned in
//! `ModelStore`-key order by `Engine::load_state` on both sides.

#![warn(missing_docs)]

mod bisect;
mod debugger;
mod driver;
mod error;
mod header;
mod normalize;

pub use bisect::{bisect, BisectReport};
pub use debugger::{Breakpoint, ReplayDebugger, StopReason};
pub use driver::{
    Divergence, RecordingSession, ReplayReport, Replayer, ReplayerBuilder, ScheduledTick,
    TickReport,
};
pub use error::ReplayError;
pub use header::{ReplayHeader, REPLAY_HEADER_VERSION};
pub use ix_core::EventKind;
pub use normalize::normalize_events;
