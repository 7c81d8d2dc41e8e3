//! `ix-top`: a live operator console over the engine's telemetry and
//! event stream.
//!
//! The console has three deliberately separate halves:
//!
//! - [`TopConsole`] — an [`ix_core::EventSink`] that distills the event
//!   stream into a scrolling tail plus queue / shed / health readings.
//!   Attach it to a live engine with
//!   `Engine::builder().observe(&hub).observe(console)`; as one more member
//!   of the engine's observation list it sees the same stream every other
//!   member sees, and the ingest hot path gains no new locks.
//! - [`render_frame`] — a pure function from a frozen [`TopSnapshot`]
//!   (plus the previous frame, for cost-drift sparklines) to plain text.
//!   No clock, no terminal: identical snapshots render identical bytes,
//!   so frames are golden-testable and CI can smoke-run the console
//!   headless.
//! - [`Screen`] — the only ANSI-aware piece, hand-rolled because the
//!   workspace is offline: hide-cursor/clear/paint/restore, nothing more.
//!
//! Replay mode ([`ReplayFeed`]) drives the same pipeline from a recorded
//! `ix-history` trace instead of a live engine: recorded events are fed
//! into a fresh telemetry hub (the hub itself is an event sink) and the
//! recorded context labels are re-interned positionally, so the console
//! shows the run exactly as a live attachment would have.

#![warn(missing_docs)]

mod ansi;
mod console;
mod render;
mod replay_feed;

pub use ansi::{Screen, CLEAR_AND_HOME, HIDE_CURSOR, SHOW_CURSOR};
pub use console::{ReplayPosition, TopConsole, TopSnapshot, DEFAULT_TAIL};
pub use render::render_frame;
pub use replay_feed::{ReplayFeed, ReplayFeedBuilder};
