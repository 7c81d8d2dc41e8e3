//! Replay error type.

use std::fmt;

use ix_core::CoreError;

/// Why a trace could not be recorded, reconstructed or replayed.
#[derive(Debug)]
pub enum ReplayError {
    /// The trace has no `RPLY` header section — it was recorded without a
    /// [`crate::RecordingSession`] and cannot be replayed standalone.
    MissingHeader,
    /// The header section exists but does not parse.
    Header(String),
    /// The header was written in a version this crate does not read
    /// (version 1 was JSON; only [`crate::REPLAY_HEADER_VERSION`] is read).
    Version(u32),
    /// The config cannot be recorded into a header a replay can read: its
    /// canonical JSON does not parse back to it (a NaN writes `null`).
    Config(String),
    /// Reconstructing the engine from the header failed.
    Engine(CoreError),
    /// The trace's row data is internally inconsistent (e.g. a context
    /// whose columns disagree in length).
    Trace(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::MissingHeader => {
                write!(f, "trace has no replay header (RPLY section)")
            }
            ReplayError::Header(msg) => write!(f, "replay header does not parse: {msg}"),
            ReplayError::Version(v) => write!(
                f,
                "replay header version {v} is not readable by this build, which reads only \
                 version {}",
                crate::REPLAY_HEADER_VERSION
            ),
            ReplayError::Config(msg) => write!(f, "config cannot be recorded for replay: {msg}"),
            ReplayError::Engine(e) => write!(f, "engine reconstruction failed: {e}"),
            ReplayError::Trace(msg) => write!(f, "trace is inconsistent: {msg}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Engine(e) => Some(e),
            ReplayError::MissingHeader
            | ReplayError::Header(_)
            | ReplayError::Version(_)
            | ReplayError::Config(_)
            | ReplayError::Trace(_) => None,
        }
    }
}

impl From<CoreError> for ReplayError {
    fn from(e: CoreError) -> Self {
        ReplayError::Engine(e)
    }
}
