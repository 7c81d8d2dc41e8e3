//! Sweep budgets and the vocabulary of a degraded answer.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// A budget for one diagnosis sweep: optional wall-clock and pair-count
/// limits.
///
/// The default budget is unlimited — identical to pre-budget behavior.
/// With a budget set, [`crate::Engine::diagnose`] still always returns a
/// [`crate::Diagnosis`]: the diagnosis pass keeps every pair it finished
/// scoring, and an answer that left invariant pairs unscored carries
/// [`crate::Diagnosis::degradation`] saying so.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepBudget {
    /// Wall-clock limit for the association sweep, if any.
    pub wall: Option<Duration>,
    /// Maximum number of metric pairs to score in one diagnosis pass, if
    /// any.
    pub max_pairs: Option<usize>,
}

impl SweepBudget {
    /// No limits: sweeps always run to completion.
    pub const UNLIMITED: SweepBudget = SweepBudget {
        wall: None,
        max_pairs: None,
    };

    /// A wall-clock-only budget.
    pub fn wall_clock(limit: Duration) -> Self {
        SweepBudget {
            wall: Some(limit),
            max_pairs: None,
        }
    }

    /// A wall-clock-only budget in milliseconds.
    pub fn wall_millis(ms: u64) -> Self {
        Self::wall_clock(Duration::from_millis(ms))
    }

    /// Adds a pair-count ceiling to this budget.
    #[must_use]
    pub fn with_max_pairs(mut self, pairs: usize) -> Self {
        self.max_pairs = Some(pairs);
        self
    }

    /// Whether this budget imposes no limit at all.
    pub fn is_unlimited(&self) -> bool {
        self.wall.is_none() && self.max_pairs.is_none()
    }

    /// The absolute deadline implied by the wall-clock limit, measured
    /// from `start`.
    pub(crate) fn deadline(&self, start: Instant) -> Option<Instant> {
        self.wall.map(|w| start + w)
    }
}

/// How far a degraded answer sits from full fidelity.
///
/// A diagnosis pass cut short by its [`SweepBudget`] keeps every pair it
/// scored; the tier says what the pairs it did not reach were read as.
/// `level()` orders the tiers by distance from full fidelity. Level 2 is
/// retired (it named a Pearson sweep) and is never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DegradationTier {
    /// Level 1: every invariant pair the pass did not reach carries an
    /// earlier MIC score from this context's sweep record (stale, but
    /// the right measure).
    CachedMatrix,
    /// Level 3: some invariant pairs have never been scored in this
    /// context; they are masked out of the violation tuple.
    PartialMatrix,
    /// Persistence tier: a [`crate::ModelStore`] save/load exhausted its
    /// retries. Not part of the sweep ladder; reported through
    /// [`super::HealthState`] only.
    Persistence,
}

impl DegradationTier {
    /// Distance from full fidelity (full sweep = 0; larger is worse).
    pub fn level(&self) -> u8 {
        match self {
            DegradationTier::CachedMatrix => 1,
            DegradationTier::PartialMatrix => 3,
            DegradationTier::Persistence => 4,
        }
    }

    /// Stable kebab-case name (telemetry labels, reports).
    pub fn name(&self) -> &'static str {
        match self {
            DegradationTier::CachedMatrix => "cached-matrix",
            DegradationTier::PartialMatrix => "partial-matrix",
            DegradationTier::Persistence => "persistence",
        }
    }
}

/// What stopped a diagnosis pass before it scored every pair it needed.
/// Wire reason 2 is retired (it named a predicted overrun) and is never
/// reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DegradationReason {
    /// The pass's wall-clock deadline expired mid-pass.
    WallClockExceeded,
    /// The budget's pair ceiling is below the number of pairs the pass
    /// needed to score.
    PairBudgetExceeded,
}

impl DegradationReason {
    /// Stable kebab-case name (telemetry labels, reports).
    pub fn name(&self) -> &'static str {
        match self {
            DegradationReason::WallClockExceeded => "wall-clock-exceeded",
            DegradationReason::PairBudgetExceeded => "pair-budget-exceeded",
        }
    }
}

// Hand-written because `Duration` has no `serde` impl in the offline
// compat crate: the wall limit travels as integer microseconds, which
// keeps the wire form exact (no float rounding) and stable across
// platforms.
impl Serialize for SweepBudget {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "wall_micros".to_string(),
                self.wall.map(|w| w.as_micros() as u64).to_value(),
            ),
            ("max_pairs".to_string(), self.max_pairs.to_value()),
        ])
    }
}

impl Deserialize for SweepBudget {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let wall = Option::<u64>::from_value(value.field("wall_micros")?)?;
        Ok(SweepBudget {
            wall: wall.map(Duration::from_micros),
            max_pairs: Option::<usize>::from_value(value.field("max_pairs")?)?,
        })
    }
}

/// How a degraded diagnosis was produced: how far it sits from full
/// fidelity and what stopped its pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SweepDegradation {
    /// What the pairs the pass did not reach were read as.
    pub tier: DegradationTier,
    /// What stopped the pass.
    pub reason: DegradationReason,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        assert!(SweepBudget::default().is_unlimited());
        assert_eq!(SweepBudget::default(), SweepBudget::UNLIMITED);
        assert!(SweepBudget::UNLIMITED.deadline(Instant::now()).is_none());
    }

    #[test]
    fn constructors_set_limits() {
        let b = SweepBudget::wall_millis(5).with_max_pairs(40);
        assert_eq!(b.wall, Some(Duration::from_millis(5)));
        assert_eq!(b.max_pairs, Some(40));
        assert!(!b.is_unlimited());
        let start = Instant::now();
        assert_eq!(b.deadline(start), Some(start + Duration::from_millis(5)));
    }

    #[test]
    fn budget_wire_encoding_is_pinned() {
        let b = SweepBudget::wall_millis(5).with_max_pairs(40);
        let json = serde_json::to_string(&b).expect("encode");
        assert_eq!(json, r#"{"wall_micros":5000,"max_pairs":40}"#);
        let back: SweepBudget = serde_json::from_str(&json).expect("decode");
        assert_eq!(back, b);
        let unlimited = serde_json::to_string(&SweepBudget::UNLIMITED).expect("encode");
        assert_eq!(unlimited, r#"{"wall_micros":null,"max_pairs":null}"#);
        let back: SweepBudget = serde_json::from_str(&unlimited).expect("decode");
        assert_eq!(back, SweepBudget::UNLIMITED);
    }

    #[test]
    fn tiers_are_ordered_by_level() {
        let ladder = [
            DegradationTier::CachedMatrix,
            DegradationTier::PartialMatrix,
            DegradationTier::Persistence,
        ];
        for pair in ladder.windows(2) {
            assert!(pair[0].level() < pair[1].level());
            assert!(pair[0] < pair[1]);
        }
        // Level 2 is retired: wire decoders refuse it.
        assert!(ladder.iter().all(|tier| tier.level() != 2));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DegradationTier::CachedMatrix.name(), "cached-matrix");
        assert_eq!(DegradationTier::PartialMatrix.name(), "partial-matrix");
        assert_eq!(DegradationTier::Persistence.name(), "persistence");
        assert_eq!(
            DegradationReason::WallClockExceeded.name(),
            "wall-clock-exceeded"
        );
        assert_eq!(
            DegradationReason::PairBudgetExceeded.name(),
            "pair-budget-exceeded"
        );
    }
}
