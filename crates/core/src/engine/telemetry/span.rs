//! The span layer: scoped timers over engine phases and a bounded ring of
//! recently closed spans.
//!
//! A [`Span`] is an RAII guard: entering stamps the clock, dropping emits
//! an [`EngineEvent::SpanClosed`] through the engine's [`EventSink`]. The
//! [`crate::Telemetry`] sink turns those events into [`SpanRecord`]s in a
//! fixed-capacity [`SpanRing`], so a stuck or slow diagnosis can be
//! post-mortemed from the last few hundred phase timings without any
//! logging infrastructure.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use super::super::events::{EngineEvent, EventSink};
use super::context::ContextId;

/// The engine phase a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnginePhase {
    /// Offline ARIMA/CUSUM training ([`crate::Engine::train_performance_model`]).
    Train,
    /// Algorithm 1 invariant construction ([`crate::Engine::build_invariants`]).
    InvariantBuild,
    /// One pairwise association sweep on the worker pool.
    Sweep,
    /// One cause-inference pass (violation tuple + signature ranking).
    Diagnosis,
    /// One ingest tick. The engine does not open a span per tick (the ring
    /// would hold nothing else); ingest latency flows through
    /// [`EngineEvent::TickIngested`] instead. The phase exists for callers
    /// that want to time their own ingest batches.
    Ingest,
    /// Per-series profile construction at the start of a sweep (the shared
    /// preprocessing the profiled MIC kernel amortizes across all pairs).
    ProfileBuild,
    /// The rescore of a slid or unchanged window (slide the profiles,
    /// reuse settled pairs, and score the rest in one floor-aware pass that
    /// stops each invariant pair once it provably holds).
    Screen,
}

impl EnginePhase {
    /// Every phase, in reporting order.
    pub const ALL: [EnginePhase; 7] = [
        EnginePhase::Train,
        EnginePhase::InvariantBuild,
        EnginePhase::Sweep,
        EnginePhase::Diagnosis,
        EnginePhase::Ingest,
        EnginePhase::ProfileBuild,
        EnginePhase::Screen,
    ];

    /// Stable snake_case name (used as the metric label).
    pub fn name(self) -> &'static str {
        match self {
            EnginePhase::Train => "train",
            EnginePhase::InvariantBuild => "invariant_build",
            EnginePhase::Sweep => "sweep",
            EnginePhase::Diagnosis => "diagnosis",
            EnginePhase::Ingest => "ingest",
            EnginePhase::ProfileBuild => "profile_build",
            EnginePhase::Screen => "screen",
        }
    }

    /// The dense index of this phase within [`EnginePhase::ALL`].
    pub fn index(self) -> usize {
        match self {
            EnginePhase::Train => 0,
            EnginePhase::InvariantBuild => 1,
            EnginePhase::Sweep => 2,
            EnginePhase::Diagnosis => 3,
            EnginePhase::Ingest => 4,
            EnginePhase::ProfileBuild => 5,
            EnginePhase::Screen => 6,
        }
    }

    /// Inverse of [`EnginePhase::name`].
    pub fn from_name(name: &str) -> Option<EnginePhase> {
        EnginePhase::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for EnginePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An RAII timer over one engine phase. Dropping the span emits
/// [`EngineEvent::SpanClosed`] with the elapsed wall-clock microseconds.
#[must_use = "dropping a Span immediately closes its phase with a zero-length timing"]
pub struct Span {
    sink: Arc<dyn EventSink>,
    phase: EnginePhase,
    context: ContextId,
    started: Instant,
}

impl Span {
    /// Starts timing `phase` for `context`; the closing event goes to
    /// `sink`.
    pub fn enter(sink: &Arc<dyn EventSink>, phase: EnginePhase, context: ContextId) -> Span {
        Span {
            sink: Arc::clone(sink),
            phase,
            context,
            // lint: allow(determinism, telemetry-only: span durations feed
            // SpanClosed events; replay normalizes all recorded timings)
            started: Instant::now(),
        }
    }

    /// Microseconds elapsed since the span was entered.
    pub fn elapsed_micros(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// The phase being timed.
    pub fn phase(&self) -> EnginePhase {
        self.phase
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.sink.record(&EngineEvent::SpanClosed {
            phase: self.phase,
            context: self.context,
            micros: self.elapsed_micros(),
        });
    }
}

/// One closed span, as kept by the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Monotone sequence number (total spans ever closed, 1-based).
    pub seq: u64,
    /// The phase the span covered.
    pub phase: EnginePhase,
    /// The context the span was attributed to.
    pub context: ContextId,
    /// Wall-clock duration in microseconds.
    pub micros: u64,
}

/// A bounded ring of the most recently closed spans. Pushing past capacity
/// evicts the oldest record.
#[derive(Debug)]
pub struct SpanRing {
    ring: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
    seq: AtomicU64,
}

impl SpanRing {
    /// A ring keeping the last `capacity` spans (at least one).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpanRing {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            seq: AtomicU64::new(0),
        }
    }

    /// Records one closed span; returns its sequence number.
    pub fn push(&self, phase: EnginePhase, context: ContextId, micros: u64) -> u64 {
        // ordering: Relaxed — seq is a monotone ticket; uniqueness comes
        // from fetch_add's atomicity, and record visibility from the ring
        // mutex right below.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(SpanRecord {
            seq,
            phase,
            context,
            micros,
        });
        seq
    }

    /// The retained spans, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        self.ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    /// Total spans ever pushed (including evicted ones).
    pub fn total(&self) -> u64 {
        // ordering: Relaxed — monotone counter read, no paired data.
        self.seq.load(Ordering::Relaxed)
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::events::NullSink;

    #[test]
    fn ring_keeps_the_newest_spans() {
        let ring = SpanRing::new(3);
        for i in 0..5u64 {
            ring.push(EnginePhase::Sweep, ContextId::UNATTRIBUTED, i * 10);
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(ring.total(), 5);
        assert_eq!(
            recent.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(recent.last().unwrap().micros, 40);
    }

    #[test]
    fn span_emits_on_drop() {
        use std::sync::atomic::AtomicUsize;

        #[derive(Default)]
        struct Capture {
            closed: AtomicUsize,
        }
        impl EventSink for Capture {
            fn record(&self, event: &EngineEvent) {
                if let EngineEvent::SpanClosed { phase, .. } = event {
                    assert_eq!(*phase, EnginePhase::Diagnosis);
                    self.closed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let capture = Arc::new(Capture::default());
        let sink: Arc<dyn EventSink> = Arc::clone(&capture) as Arc<dyn EventSink>;
        {
            let span = Span::enter(&sink, EnginePhase::Diagnosis, ContextId::UNATTRIBUTED);
            assert_eq!(span.phase(), EnginePhase::Diagnosis);
            assert_eq!(capture.closed.load(Ordering::Relaxed), 0);
        }
        assert_eq!(capture.closed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn phase_names_roundtrip() {
        for phase in EnginePhase::ALL {
            assert_eq!(EnginePhase::from_name(phase.name()), Some(phase));
            assert_eq!(EnginePhase::ALL[phase.index()], phase);
        }
        assert_eq!(EnginePhase::from_name("nope"), None);
        // Spans against a NullSink cost one Instant and one virtual call.
        let sink: Arc<dyn EventSink> = Arc::new(NullSink);
        let s = Span::enter(&sink, EnginePhase::Ingest, ContextId::UNATTRIBUTED);
        drop(s);
    }
}
