//! Sweep budgets and the degradation ladder's vocabulary.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// A budget for one diagnosis sweep: optional wall-clock and pair-count
/// limits.
///
/// The default budget is unlimited — identical to pre-budget behavior.
/// With a budget set, [`crate::Engine::diagnose`] still always returns a
/// [`crate::Diagnosis`], but an overrun answer is computed by a declared
/// fallback tier and carries [`crate::Diagnosis::degradation`] saying so.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepBudget {
    /// Wall-clock limit for the association sweep, if any.
    pub wall: Option<Duration>,
    /// Maximum number of metric pairs to score, if any.
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

/// The declared fallback ladder, cheapest-acceptable first.
///
/// When a full-fidelity MIC sweep cannot finish inside its
/// [`SweepBudget`], the engine walks these tiers in order and takes the
/// first one that yields an answer. `level()` orders the tiers by how far
/// they sit from full fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DegradationTier {
    /// Tier 1: reuse the matrix in this context's sweep record (stale but
    /// full-fidelity MIC scores).
    CachedMatrix,
    /// Tier 2: re-run the full sweep with the cheap Pearson measure
    /// instead of MIC (fresh but linear-only association scores).
    PearsonFallback,
    /// Tier 3: score only the pairs among the highest-variance metrics
    /// (fresh, but most pairs carry no evidence).
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
            DegradationTier::PearsonFallback => 2,
            DegradationTier::PartialMatrix => 3,
            DegradationTier::Persistence => 4,
        }
    }

    /// Stable kebab-case name (telemetry labels, reports).
    pub fn name(&self) -> &'static str {
        match self {
            DegradationTier::CachedMatrix => "cached-matrix",
            DegradationTier::PearsonFallback => "pearson-fallback",
            DegradationTier::PartialMatrix => "partial-matrix",
            DegradationTier::Persistence => "persistence",
        }
    }
}

/// Why a sweep left the full-fidelity path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DegradationReason {
    /// The sweep's wall-clock deadline expired mid-sweep.
    WallClockExceeded,
    /// The budget's pair ceiling is below the full pair count.
    PairBudgetExceeded,
    /// The sweep-latency estimate predicted an overrun, so the full sweep
    /// was not attempted at all.
    PredictedOverrun,
}

impl DegradationReason {
    /// Stable kebab-case name (telemetry labels, reports).
    pub fn name(&self) -> &'static str {
        match self {
            DegradationReason::WallClockExceeded => "wall-clock-exceeded",
            DegradationReason::PairBudgetExceeded => "pair-budget-exceeded",
            DegradationReason::PredictedOverrun => "predicted-overrun",
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

/// How a degraded diagnosis was produced: the tier that answered and the
/// reason the full sweep was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SweepDegradation {
    /// The fallback tier that produced the association matrix.
    pub tier: DegradationTier,
    /// Why the full-fidelity sweep was abandoned.
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
            DegradationTier::PearsonFallback,
            DegradationTier::PartialMatrix,
            DegradationTier::Persistence,
        ];
        for pair in ladder.windows(2) {
            assert!(pair[0].level() < pair[1].level());
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(DegradationTier::CachedMatrix.name(), "cached-matrix");
        assert_eq!(DegradationTier::PearsonFallback.name(), "pearson-fallback");
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
        assert_eq!(
            DegradationReason::PredictedOverrun.name(),
            "predicted-overrun"
        );
    }
}
