//! The engine's poison-safe health state machine.

use std::sync::{Mutex, PoisonError};

use super::budget::DegradationTier;

/// Consecutive full-fidelity operations required to leave `Recovering`.
const RECOVERY_SUCCESSES: u32 = 3;

/// The engine's coarse health, driven by sweep degradations and store
/// failures.
///
/// Transitions:
///
/// - any state → `Degraded(tier)` on a degradation (re-degrading replaces
///   the tier with the latest one);
/// - `Degraded(_)` → `Recovering` on the first full-fidelity operation;
/// - `Recovering` → `Healthy` after three consecutive full-fidelity
///   operations (a degradation mid-recovery falls back to
///   `Degraded`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Recent operations all completed at full fidelity.
    Healthy,
    /// The most recent degradation fell back to the carried tier.
    Degraded(DegradationTier),
    /// Operations are clean again but the streak is still short.
    Recovering,
}

impl HealthState {
    /// Stable kebab-case name (telemetry labels, reports).
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded(_) => "degraded",
            HealthState::Recovering => "recovering",
        }
    }
}

struct HealthInner {
    state: HealthState,
    /// Consecutive clean operations while `Recovering`.
    streak: u32,
}

/// Tracks [`HealthState`] across threads; a panicking holder cannot wedge
/// it (poisoning is recovered on every acquisition).
pub(crate) struct HealthMonitor {
    inner: Mutex<HealthInner>,
}

impl HealthMonitor {
    pub(crate) fn new() -> Self {
        HealthMonitor {
            inner: Mutex::new(HealthInner {
                state: HealthState::Healthy,
                streak: 0,
            }),
        }
    }

    pub(crate) fn current(&self) -> HealthState {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .state
    }

    /// Records a degradation; returns `Some((from, to))` when the state
    /// changed.
    pub(crate) fn note_degraded(
        &self,
        tier: DegradationTier,
    ) -> Option<(HealthState, HealthState)> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let from = inner.state;
        let to = HealthState::Degraded(tier);
        inner.state = to;
        inner.streak = 0;
        (from != to).then_some((from, to))
    }

    /// Records a full-fidelity operation; returns `Some((from, to))` when
    /// the state changed.
    pub(crate) fn note_ok(&self) -> Option<(HealthState, HealthState)> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let from = inner.state;
        match from {
            HealthState::Healthy => None,
            HealthState::Degraded(_) => {
                inner.state = HealthState::Recovering;
                inner.streak = 1;
                Some((from, HealthState::Recovering))
            }
            HealthState::Recovering => {
                inner.streak += 1;
                if inner.streak >= RECOVERY_SUCCESSES {
                    inner.state = HealthState::Healthy;
                    inner.streak = 0;
                    Some((from, HealthState::Healthy))
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_healthy_and_clean_ops_are_quiet() {
        let m = HealthMonitor::new();
        assert_eq!(m.current(), HealthState::Healthy);
        assert_eq!(m.note_ok(), None);
        assert_eq!(m.current(), HealthState::Healthy);
    }

    #[test]
    fn full_degrade_recover_cycle() {
        let m = HealthMonitor::new();
        let degraded = HealthState::Degraded(DegradationTier::PartialMatrix);
        assert_eq!(
            m.note_degraded(DegradationTier::PartialMatrix),
            Some((HealthState::Healthy, degraded))
        );
        // First clean op: Degraded -> Recovering.
        assert_eq!(m.note_ok(), Some((degraded, HealthState::Recovering)));
        // The streak (started at 1) completes after two more clean ops.
        assert_eq!(m.note_ok(), None);
        assert_eq!(m.current(), HealthState::Recovering);
        assert_eq!(
            m.note_ok(),
            Some((HealthState::Recovering, HealthState::Healthy))
        );
        assert_eq!(m.current(), HealthState::Healthy);
    }

    #[test]
    fn redegrading_replaces_the_tier_and_resets_the_streak() {
        let m = HealthMonitor::new();
        m.note_degraded(DegradationTier::CachedMatrix);
        // Same tier again: no transition (state unchanged).
        assert_eq!(m.note_degraded(DegradationTier::CachedMatrix), None);
        // Worse tier: transition between the two Degraded states.
        assert_eq!(
            m.note_degraded(DegradationTier::PartialMatrix),
            Some((
                HealthState::Degraded(DegradationTier::CachedMatrix),
                HealthState::Degraded(DegradationTier::PartialMatrix)
            ))
        );
        // A degradation mid-recovery restarts the cycle.
        m.note_ok();
        assert_eq!(m.current(), HealthState::Recovering);
        m.note_degraded(DegradationTier::Persistence);
        assert_eq!(
            m.current(),
            HealthState::Degraded(DegradationTier::Persistence)
        );
        m.note_ok();
        m.note_ok();
        assert_eq!(m.current(), HealthState::Recovering);
        m.note_ok();
        assert_eq!(m.current(), HealthState::Healthy);
    }
}
