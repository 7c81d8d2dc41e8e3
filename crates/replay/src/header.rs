//! The replay header: configuration + trained state embedded in a trace.
//!
//! A trace is replayable only if the replayer can rebuild the *exact*
//! engine that produced it. The header carries the two inputs that
//! determine the engine — the [`InvarNetConfig`] and the trained
//! [`ModelStore`] — in the trace file's `RPLY` trailing section (see
//! `ix_history::REPLAY_SECTION`). Readers that predate the section
//! mechanism reject such files; readers that know the mechanism but not
//! this tag load the trace with a warning and simply cannot replay it —
//! the forward-compatibility contract of the `IXHIST01` format.
//!
//! # `RPLY` layout (version 2)
//!
//! | field | encoding |
//! |---|---|
//! | version | `u32` ([`REPLAY_HEADER_VERSION`]) |
//! | config | `str`: the canonical JSON of the [`InvarNetConfig`] |
//! | store | the model-store rows of [`ix_history::codec::StoreRows`] |
//!
//! The version is read first: a version-1 header was JSON text, so a
//! payload starting with `{` is [`ReplayError::Version`]`(1)`. The config
//! row must be the canonical JSON of the config it parses to, and the
//! rows must end the payload, so a header that decodes re-encodes
//! byte-identically.

use ix_core::{InvarNetConfig, ModelStore};
use ix_history::codec;
use ix_history::{HistoryFileError, HistoryStore, Reader, Writer, REPLAY_SECTION};

use crate::error::ReplayError;

/// The header version this crate writes and the only one it reads.
pub const REPLAY_HEADER_VERSION: u32 = 2;

/// Everything needed to rebuild the engine a trace was recorded with.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayHeader {
    /// Header format version (see [`REPLAY_HEADER_VERSION`]).
    pub version: u32,
    /// The engine configuration of the recording run.
    pub config: InvarNetConfig,
    /// The trained state the recording engine was loaded with.
    pub store: ModelStore,
}

impl ReplayHeader {
    /// A current-version header for the given recording inputs.
    pub fn new(config: InvarNetConfig, store: ModelStore) -> Self {
        ReplayHeader {
            version: REPLAY_HEADER_VERSION,
            config,
            store,
        }
    }

    /// Refuses a config that a written header would not give back: one
    /// whose canonical JSON does not parse to an equal config (a NaN is
    /// written as `null`), so [`ReplayHeader::extract`] would refuse every
    /// trace recorded under it.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Config`] naming why the JSON does not read back.
    pub(crate) fn check_config(config: &InvarNetConfig) -> Result<(), ReplayError> {
        let text = serde_json::to_string(config).expect("config serialization is infallible");
        match serde_json::from_str::<InvarNetConfig>(&text) {
            Ok(back) if back == *config => Ok(()),
            Ok(_) => Err(ReplayError::Config(
                "its JSON parses to a different config".to_string(),
            )),
            Err(e) => Err(ReplayError::Config(format!("its JSON does not parse: {e}"))),
        }
    }

    /// Writes this header into the trace's `RPLY` section (replacing any
    /// previous one).
    pub fn embed(&self, history: &HistoryStore) {
        let config =
            serde_json::to_string(&self.config).expect("config serialization is infallible");
        let rows = codec::store_rows(&self.store);
        let mut w = Writer::from(Vec::with_capacity(8 + config.len() + rows.encoded_len()));
        w.u32(self.version);
        w.bytes(config.as_bytes());
        rows.write(&mut w);
        history.set_section(REPLAY_SECTION, w.into_bytes());
    }

    /// Reads the header back out of a trace.
    ///
    /// # Errors
    ///
    /// [`ReplayError::MissingHeader`] when the trace has no `RPLY`
    /// section, [`ReplayError::Version`] when it was written in another
    /// header version, and [`ReplayError::Header`] when it does not
    /// decode.
    pub fn extract(history: &HistoryStore) -> Result<Self, ReplayError> {
        let payload = history
            .section(REPLAY_SECTION)
            .ok_or(ReplayError::MissingHeader)?;
        if payload.first() == Some(&b'{') {
            return Err(ReplayError::Version(1));
        }
        let mut r = Reader::new(&payload);
        let version = r.u32().map_err(header_error)?;
        if version != REPLAY_HEADER_VERSION {
            return Err(ReplayError::Version(version));
        }
        let text = r.str().map_err(header_error)?;
        let config: InvarNetConfig =
            serde_json::from_str(text).map_err(|e| ReplayError::Header(format!("config: {e}")))?;
        if serde_json::to_string(&config).ok().as_deref() != Some(text) {
            return Err(ReplayError::Header(
                "config: not the canonical JSON of the config it parses to".to_string(),
            ));
        }
        let store = codec::read_store_rows(&mut r).map_err(header_error)?;
        if r.remaining() != 0 {
            return Err(ReplayError::Header(format!(
                "{} trailing bytes",
                r.remaining()
            )));
        }
        Ok(ReplayHeader {
            version,
            config,
            store,
        })
    }
}

fn header_error(e: HistoryFileError) -> ReplayError {
    ReplayError::Header(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_through_a_store_section() {
        let store = HistoryStore::new();
        let header = ReplayHeader::new(InvarNetConfig::default(), ModelStore::new());
        header.embed(&store);
        let back = ReplayHeader::extract(&store).expect("extract");
        assert_eq!(back, header);
    }

    #[test]
    fn missing_header_is_a_typed_error() {
        let store = HistoryStore::new();
        assert!(matches!(
            ReplayHeader::extract(&store),
            Err(ReplayError::MissingHeader)
        ));
    }

    #[test]
    fn newer_version_is_rejected() {
        let store = HistoryStore::new();
        let mut header = ReplayHeader::new(InvarNetConfig::default(), ModelStore::new());
        header.version = REPLAY_HEADER_VERSION + 1;
        header.embed(&store);
        assert!(matches!(
            ReplayHeader::extract(&store),
            Err(ReplayError::Version(v)) if v == REPLAY_HEADER_VERSION + 1
        ));
    }

    #[test]
    fn garbage_section_is_a_header_error() {
        let store = HistoryStore::new();
        store.set_section(REPLAY_SECTION, b"\x02\0\0\0not a header".to_vec());
        assert!(matches!(
            ReplayHeader::extract(&store),
            Err(ReplayError::Header(_))
        ));
    }

    #[test]
    fn a_version_1_json_header_is_a_version_error() {
        let store = HistoryStore::new();
        store.set_section(
            REPLAY_SECTION,
            br#"{"version":1,"config":{},"store":{}}"#.to_vec(),
        );
        assert!(matches!(
            ReplayHeader::extract(&store),
            Err(ReplayError::Version(1))
        ));
    }
}
