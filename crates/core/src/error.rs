use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use crate::OperationContext;

/// Coarse classification of a [`CoreError`], for callers that branch on
/// failure class (retry I/O, surface configuration gaps, reject input)
/// without matching every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// A context is missing its trained performance model.
    MissingModel,
    /// A context is missing its invariant set.
    MissingInvariants,
    /// The signature database holds nothing for the context.
    EmptySignatureDatabase,
    /// Too few training runs were supplied.
    NotEnoughRuns,
    /// A metric frame is too short for association analysis.
    FrameTooShort,
    /// The underlying ARIMA machinery failed.
    Arima,
    /// A metric row was rejected by the sliding window.
    Frame,
    /// The attached history recorder could not serve a diagnosis window.
    HistoryWindow,
    /// Violation tuples from different invariant sets were mixed.
    TupleLengthMismatch,
    /// (De)serialization of persisted state failed.
    Serialization,
    /// A filesystem operation on persisted state failed.
    Io,
    /// An ingested CPI sample was NaN or infinite.
    NonFiniteCpi,
}

impl ErrorKind {
    /// Stable kebab-case name (logs, reports).
    pub fn name(&self) -> &'static str {
        match self {
            ErrorKind::MissingModel => "missing-model",
            ErrorKind::MissingInvariants => "missing-invariants",
            ErrorKind::EmptySignatureDatabase => "empty-signature-database",
            ErrorKind::NotEnoughRuns => "not-enough-runs",
            ErrorKind::FrameTooShort => "frame-too-short",
            ErrorKind::Arima => "arima",
            ErrorKind::Frame => "frame",
            ErrorKind::HistoryWindow => "history-window",
            ErrorKind::TupleLengthMismatch => "tuple-length-mismatch",
            ErrorKind::Serialization => "serialization",
            ErrorKind::Io => "io",
            ErrorKind::NonFiniteCpi => "non-finite-cpi",
        }
    }
}

/// Stable numeric identity of an [`ErrorKind`], for protocols and logs
/// that must survive recompilation and version skew.
///
/// The `u16` discriminants are part of the public contract: they are used
/// verbatim as `IXSRV01` response status codes by `ix-serve`, so existing
/// values must never be renumbered. New kinds append new codes; `0` is
/// reserved for "no error" on the wire and is never a valid `ErrorCode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(u16)]
pub enum ErrorCode {
    /// [`ErrorKind::MissingModel`].
    MissingModel = 1,
    /// [`ErrorKind::MissingInvariants`].
    MissingInvariants = 2,
    /// [`ErrorKind::EmptySignatureDatabase`].
    EmptySignatureDatabase = 3,
    /// [`ErrorKind::NotEnoughRuns`].
    NotEnoughRuns = 4,
    /// [`ErrorKind::FrameTooShort`].
    FrameTooShort = 5,
    /// [`ErrorKind::Arima`].
    Arima = 6,
    /// [`ErrorKind::Frame`].
    Frame = 7,
    /// [`ErrorKind::HistoryWindow`].
    HistoryWindow = 8,
    /// [`ErrorKind::TupleLengthMismatch`].
    TupleLengthMismatch = 9,
    /// [`ErrorKind::Serialization`].
    Serialization = 10,
    /// [`ErrorKind::Io`].
    Io = 11,
    /// [`ErrorKind::NonFiniteCpi`].
    NonFiniteCpi = 12,
}

impl ErrorCode {
    /// Every code, in discriminant order (round-trip tests, exhaustive
    /// protocol tables).
    pub const ALL: &'static [ErrorCode] = &[
        ErrorCode::MissingModel,
        ErrorCode::MissingInvariants,
        ErrorCode::EmptySignatureDatabase,
        ErrorCode::NotEnoughRuns,
        ErrorCode::FrameTooShort,
        ErrorCode::Arima,
        ErrorCode::Frame,
        ErrorCode::HistoryWindow,
        ErrorCode::TupleLengthMismatch,
        ErrorCode::Serialization,
        ErrorCode::Io,
        ErrorCode::NonFiniteCpi,
    ];

    /// The wire representation.
    pub const fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a wire status back to a code. `None` for `0` (success on
    /// the wire) and for codes minted by a newer peer.
    pub fn from_u16(code: u16) -> Option<ErrorCode> {
        match code {
            1 => Some(ErrorCode::MissingModel),
            2 => Some(ErrorCode::MissingInvariants),
            3 => Some(ErrorCode::EmptySignatureDatabase),
            4 => Some(ErrorCode::NotEnoughRuns),
            5 => Some(ErrorCode::FrameTooShort),
            6 => Some(ErrorCode::Arima),
            7 => Some(ErrorCode::Frame),
            8 => Some(ErrorCode::HistoryWindow),
            9 => Some(ErrorCode::TupleLengthMismatch),
            10 => Some(ErrorCode::Serialization),
            11 => Some(ErrorCode::Io),
            12 => Some(ErrorCode::NonFiniteCpi),
            _ => None,
        }
    }

    /// The matching coarse kind.
    pub fn kind(self) -> ErrorKind {
        match self {
            ErrorCode::MissingModel => ErrorKind::MissingModel,
            ErrorCode::MissingInvariants => ErrorKind::MissingInvariants,
            ErrorCode::EmptySignatureDatabase => ErrorKind::EmptySignatureDatabase,
            ErrorCode::NotEnoughRuns => ErrorKind::NotEnoughRuns,
            ErrorCode::FrameTooShort => ErrorKind::FrameTooShort,
            ErrorCode::Arima => ErrorKind::Arima,
            ErrorCode::Frame => ErrorKind::Frame,
            ErrorCode::HistoryWindow => ErrorKind::HistoryWindow,
            ErrorCode::TupleLengthMismatch => ErrorKind::TupleLengthMismatch,
            ErrorCode::Serialization => ErrorKind::Serialization,
            ErrorCode::Io => ErrorKind::Io,
            ErrorCode::NonFiniteCpi => ErrorKind::NonFiniteCpi,
        }
    }

    /// Stable kebab-case name — identical to the kind's name.
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }
}

impl ErrorKind {
    /// The stable numeric code of this kind.
    pub fn code(&self) -> ErrorCode {
        match self {
            ErrorKind::MissingModel => ErrorCode::MissingModel,
            ErrorKind::MissingInvariants => ErrorCode::MissingInvariants,
            ErrorKind::EmptySignatureDatabase => ErrorCode::EmptySignatureDatabase,
            ErrorKind::NotEnoughRuns => ErrorCode::NotEnoughRuns,
            ErrorKind::FrameTooShort => ErrorCode::FrameTooShort,
            ErrorKind::Arima => ErrorCode::Arima,
            ErrorKind::Frame => ErrorCode::Frame,
            ErrorKind::HistoryWindow => ErrorCode::HistoryWindow,
            ErrorKind::TupleLengthMismatch => ErrorCode::TupleLengthMismatch,
            ErrorKind::Serialization => ErrorCode::Serialization,
            ErrorKind::Io => ErrorCode::Io,
            ErrorKind::NonFiniteCpi => ErrorCode::NonFiniteCpi,
        }
    }
}

/// Errors produced by the InvarNet-X pipeline.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// No performance model has been trained for the context.
    NoPerformanceModel(OperationContext),
    /// No invariant set has been built for the context.
    NoInvariants(OperationContext),
    /// The signature database holds no signatures for the context.
    EmptySignatureDatabase(OperationContext),
    /// Training needs at least `required` runs, got `got`.
    NotEnoughRuns {
        /// Runs required.
        required: usize,
        /// Runs supplied.
        got: usize,
    },
    /// A supplied metric frame is too short for association analysis.
    FrameTooShort {
        /// Ticks required.
        required: usize,
        /// Ticks supplied.
        got: usize,
    },
    /// The underlying ARIMA fit failed.
    Arima(ix_arima::ArimaError),
    /// An ingested metric row was rejected by the sliding window.
    Frame(ix_metrics::FrameError),
    /// The attached history recorder failed to serve the diagnosis-window
    /// row range it promised under the shard lock — a recorder contract
    /// violation (history must be append-only), surfaced instead of
    /// diagnosing a fabricated window.
    HistoryWindow(OperationContext),
    /// Two violation tuples (or a tuple and an invariant set) have
    /// mismatched lengths — they come from different invariant sets.
    TupleLengthMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// (De)serializing persisted state failed.
    Serialization {
        /// What was being (de)serialized ("model store", ...).
        op: &'static str,
        /// The underlying decoder error (shared so the variant stays
        /// `Clone`).
        source: Arc<dyn std::error::Error + Send + Sync>,
    },
    /// A filesystem operation on persisted state failed.
    Io {
        /// What was being done ("save model store", "load model store").
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error (shared so the variant stays `Clone`).
        source: Arc<std::io::Error>,
    },
    /// A persisted context key was not in `workload@node` form, or a
    /// context to be trained has a workload holding an `@`, so its key
    /// would not parse back to it.
    InvalidStoreKey {
        /// The offending key.
        key: String,
    },
    /// An ingested or training CPI sample for the context was NaN or
    /// infinite; the tick or training call was rejected before any state
    /// changed.
    NonFiniteCpi(OperationContext),
    /// Persisted invariant entries failed validation (see
    /// [`crate::InvariantSet::from_entries`]).
    InvalidInvariantSet {
        /// What was wrong with the entries or τ.
        reason: String,
    },
    /// An engine image cannot be installed, or a decoded run or ingest
    /// queue cannot become one: the image does not fit the engine, or no
    /// engine could be in that state (see [`crate::Engine::install_image`]
    /// and [`crate::EngineImage::decoded`]).
    InvalidRunState {
        /// What was wrong, naming the context or queue shard.
        reason: String,
    },
}

impl CoreError {
    /// The coarse [`ErrorKind`] of this error.
    pub fn kind(&self) -> ErrorKind {
        match self {
            CoreError::NoPerformanceModel(_) => ErrorKind::MissingModel,
            CoreError::NoInvariants(_) => ErrorKind::MissingInvariants,
            CoreError::EmptySignatureDatabase(_) => ErrorKind::EmptySignatureDatabase,
            CoreError::NotEnoughRuns { .. } => ErrorKind::NotEnoughRuns,
            CoreError::FrameTooShort { .. } => ErrorKind::FrameTooShort,
            CoreError::Arima(_) => ErrorKind::Arima,
            CoreError::Frame(_) => ErrorKind::Frame,
            CoreError::HistoryWindow(_) => ErrorKind::HistoryWindow,
            CoreError::TupleLengthMismatch { .. } => ErrorKind::TupleLengthMismatch,
            CoreError::Serialization { .. }
            | CoreError::InvalidStoreKey { .. }
            | CoreError::InvalidInvariantSet { .. }
            | CoreError::InvalidRunState { .. } => ErrorKind::Serialization,
            CoreError::Io { .. } => ErrorKind::Io,
            CoreError::NonFiniteCpi(_) => ErrorKind::NonFiniteCpi,
        }
    }

    /// The stable numeric code of this error's kind (wire status codes).
    pub fn code(&self) -> ErrorCode {
        self.kind().code()
    }
}

// Manual because the sources are not `PartialEq`: two `Io` errors compare
// equal when they describe the same operation, file and error kind, two
// `Serialization` errors when their operations and messages agree.
impl PartialEq for CoreError {
    fn eq(&self, other: &Self) -> bool {
        use CoreError::*;
        match (self, other) {
            (NoPerformanceModel(a), NoPerformanceModel(b)) => a == b,
            (NoInvariants(a), NoInvariants(b)) => a == b,
            (EmptySignatureDatabase(a), EmptySignatureDatabase(b)) => a == b,
            (
                NotEnoughRuns {
                    required: r1,
                    got: g1,
                },
                NotEnoughRuns {
                    required: r2,
                    got: g2,
                },
            ) => (r1, g1) == (r2, g2),
            (
                FrameTooShort {
                    required: r1,
                    got: g1,
                },
                FrameTooShort {
                    required: r2,
                    got: g2,
                },
            ) => (r1, g1) == (r2, g2),
            (Arima(a), Arima(b)) => a == b,
            (Frame(a), Frame(b)) => a == b,
            (HistoryWindow(a), HistoryWindow(b)) => a == b,
            (
                TupleLengthMismatch {
                    expected: e1,
                    got: g1,
                },
                TupleLengthMismatch {
                    expected: e2,
                    got: g2,
                },
            ) => (e1, g1) == (e2, g2),
            (Serialization { op: o1, source: s1 }, Serialization { op: o2, source: s2 }) => {
                o1 == o2 && s1.to_string() == s2.to_string()
            }
            (
                Io {
                    op: o1,
                    path: p1,
                    source: s1,
                },
                Io {
                    op: o2,
                    path: p2,
                    source: s2,
                },
            ) => o1 == o2 && p1 == p2 && s1.kind() == s2.kind(),
            (InvalidStoreKey { key: k1 }, InvalidStoreKey { key: k2 }) => k1 == k2,
            (NonFiniteCpi(a), NonFiniteCpi(b)) => a == b,
            (InvalidInvariantSet { reason: r1 }, InvalidInvariantSet { reason: r2 }) => r1 == r2,
            (InvalidRunState { reason: r1 }, InvalidRunState { reason: r2 }) => r1 == r2,
            _ => false,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoPerformanceModel(ctx) => {
                write!(f, "no performance model trained for context {ctx}")
            }
            CoreError::NoInvariants(ctx) => write!(f, "no invariants built for context {ctx}"),
            CoreError::EmptySignatureDatabase(ctx) => {
                write!(f, "signature database empty for context {ctx}")
            }
            CoreError::NotEnoughRuns { required, got } => {
                write!(f, "need at least {required} runs, got {got}")
            }
            CoreError::FrameTooShort { required, got } => {
                write!(
                    f,
                    "metric frame too short: need {required} ticks, got {got}"
                )
            }
            CoreError::Arima(e) => write!(f, "ARIMA: {e}"),
            CoreError::Frame(e) => write!(f, "metric frame: {e}"),
            CoreError::HistoryWindow(ctx) => {
                write!(
                    f,
                    "history recorder could not serve the diagnosis window for context {ctx}"
                )
            }
            CoreError::TupleLengthMismatch { expected, got } => {
                write!(
                    f,
                    "violation tuple length {got} does not match invariant set {expected}"
                )
            }
            CoreError::Serialization { op, source } => {
                write!(f, "serializing {op}: {source}")
            }
            CoreError::Io { op, path, source } => {
                write!(f, "{op} at {}: {source}", path.display())
            }
            CoreError::InvalidStoreKey { key } => {
                write!(
                    f,
                    "store key {key:?} does not parse back to one workload@node context"
                )
            }
            CoreError::NonFiniteCpi(ctx) => {
                write!(f, "non-finite CPI sample rejected for context {ctx}")
            }
            CoreError::InvalidInvariantSet { reason } => {
                write!(f, "invalid invariant set: {reason}")
            }
            CoreError::InvalidRunState { reason } => write!(f, "invalid run state: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Arima(e) => Some(e),
            CoreError::Frame(e) => Some(e),
            CoreError::Serialization { source, .. } => Some(source.as_ref()),
            CoreError::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<ix_arima::ArimaError> for CoreError {
    fn from(e: ix_arima::ArimaError) -> Self {
        CoreError::Arima(e)
    }
}

impl From<ix_metrics::FrameError> for CoreError {
    fn from(e: ix_metrics::FrameError) -> Self {
        CoreError::Frame(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_classify_every_variant() {
        let io = CoreError::Io {
            op: "load model store",
            path: PathBuf::from("/tmp/x.json"),
            source: Arc::new(std::io::Error::other("boom")),
        };
        assert_eq!(io.kind(), ErrorKind::Io);
        assert_eq!(io.kind().name(), "io");
        let key = CoreError::InvalidStoreKey { key: "bad".into() };
        assert_eq!(key.kind(), ErrorKind::Serialization);
        let set = CoreError::InvalidInvariantSet {
            reason: "bad".into(),
        };
        assert_eq!(set.kind(), ErrorKind::Serialization);
        let window = CoreError::HistoryWindow(OperationContext::new("node1", "Wordcount"));
        assert_eq!(window.kind(), ErrorKind::HistoryWindow);
        assert_eq!(window.kind().name(), "history-window");
        assert_eq!(
            CoreError::FrameTooShort {
                required: 20,
                got: 3
            }
            .kind(),
            ErrorKind::FrameTooShort
        );
    }

    #[test]
    fn error_codes_round_trip_and_are_pinned() {
        // The numeric values are a wire contract (IXSRV01 status codes):
        // this table is the pin — renumbering any entry is a breaking
        // protocol change and must fail here.
        let pinned: [(ErrorCode, u16); 12] = [
            (ErrorCode::MissingModel, 1),
            (ErrorCode::MissingInvariants, 2),
            (ErrorCode::EmptySignatureDatabase, 3),
            (ErrorCode::NotEnoughRuns, 4),
            (ErrorCode::FrameTooShort, 5),
            (ErrorCode::Arima, 6),
            (ErrorCode::Frame, 7),
            (ErrorCode::HistoryWindow, 8),
            (ErrorCode::TupleLengthMismatch, 9),
            (ErrorCode::Serialization, 10),
            (ErrorCode::Io, 11),
            (ErrorCode::NonFiniteCpi, 12),
        ];
        assert_eq!(pinned.len(), ErrorCode::ALL.len());
        for (code, wire) in pinned {
            assert_eq!(code.as_u16(), wire);
            assert_eq!(ErrorCode::from_u16(wire), Some(code));
            // kind → code → kind is the identity.
            assert_eq!(code.kind().code(), code);
            assert_eq!(code.name(), code.kind().name());
        }
        // 0 is reserved for success; unknown codes decode to None.
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
    }

    #[test]
    fn errors_expose_their_wire_code() {
        let ctx = OperationContext::new("node1", "Wordcount");
        assert_eq!(
            CoreError::NoPerformanceModel(ctx.clone()).code().as_u16(),
            1
        );
        assert_eq!(
            CoreError::HistoryWindow(ctx).code(),
            ErrorCode::HistoryWindow
        );
        assert_eq!(
            CoreError::InvalidStoreKey { key: "bad".into() }.code(),
            ErrorCode::Serialization
        );
    }

    #[test]
    fn io_errors_compare_by_op_path_and_kind() {
        let mk = |kind| CoreError::Io {
            op: "save model store",
            path: PathBuf::from("/tmp/x.json"),
            source: Arc::new(std::io::Error::new(kind, "detail")),
        };
        assert_eq!(
            mk(std::io::ErrorKind::NotFound),
            mk(std::io::ErrorKind::NotFound)
        );
        assert_ne!(
            mk(std::io::ErrorKind::NotFound),
            mk(std::io::ErrorKind::PermissionDenied)
        );
    }

    #[test]
    fn source_chains_are_exposed() {
        use std::error::Error as _;
        let e = CoreError::Io {
            op: "load model store",
            path: PathBuf::from("/nope"),
            source: Arc::new(std::io::Error::other("disk fell over")),
        };
        assert!(e.source().unwrap().to_string().contains("disk fell over"));
        assert!(CoreError::NotEnoughRuns {
            required: 2,
            got: 0
        }
        .source()
        .is_none());
    }
}
