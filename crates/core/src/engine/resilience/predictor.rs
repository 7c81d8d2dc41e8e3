//! The sweep-cost predictor behind [`super::SweepBudget`]'s
//! predicted-overrun check.
//!
//! The engine keeps two exponential moving averages of recent sweep cost:
//! one for from-scratch passes (full sweeps, and a diagnosis's cold pass
//! over its invariant pairs) and one for incremental rescores of a slid
//! or unchanged window ([`crate::IncrementalSweep`]). The from-scratch
//! estimate gates [`crate::Engine::diagnose_with_budget`]'s cold pass
//! *before* any wall-clock is burned; the incremental estimate lets the
//! ladder recognize that a context with live incremental state is far
//! cheaper to serve than its cold history suggests.
//!
//! Two failure modes of the naive EWMA are fixed here:
//!
//! - **Stuck-degraded**: once the estimate exceeds the wall budget every
//!   sweep is skipped, so no new sample ever lands and the estimate can
//!   never recover — even after the overload that inflated it has passed.
//!   [`SweepCostPredictor::note_skipped_should_probe`] grants one probe
//!   sweep after every [`PROBE_AFTER_SKIPS`] consecutive skips, giving the
//!   estimate a fresh sample to converge on.
//! - **Slow downward re-convergence**: the quarter-weight fold that keeps
//!   the estimate calm on the way *up* (one slow outlier should not
//!   degrade the next sweep) made it take ~8 samples to trust a regime
//!   shift back *down*. Downward samples now fold at half weight, so a
//!   cheap steady state is re-learned within a few sweeps (pinned by the
//!   step-response test below).

use std::sync::atomic::{AtomicU64, Ordering};

/// Consecutive predictor-skipped sweeps before one probe sweep is let
/// through to refresh the estimate.
pub(crate) const PROBE_AFTER_SKIPS: u64 = 4;

/// EWMA estimates of full and incremental sweep cost, in microseconds
/// (`0` = no sample yet). All methods are lock-free and advisory: a lost
/// concurrent update skews an estimate by one sample at worst.
#[derive(Debug, Default)]
pub(crate) struct SweepCostPredictor {
    full_micros: AtomicU64,
    incremental_micros: AtomicU64,
    consecutive_skips: AtomicU64,
}

impl SweepCostPredictor {
    pub(crate) fn new() -> Self {
        SweepCostPredictor::default()
    }

    /// Predicted cost of the next full from-scratch sweep in µs (`0` when
    /// no full sweep has completed yet).
    pub(crate) fn predicted_full_micros(&self) -> u64 {
        // ordering: Relaxed — advisory load estimate; a stale read merely
        // degrades (or probes) one sweep earlier or later.
        self.full_micros.load(Ordering::Relaxed)
    }

    /// Predicted cost of the next incremental rescore in µs (`0` when
    /// none has completed yet).
    pub(crate) fn predicted_incremental_micros(&self) -> u64 {
        // ordering: Relaxed — same advisory reasoning as the full estimate.
        self.incremental_micros.load(Ordering::Relaxed)
    }

    /// Folds one completed full-sweep duration into the full estimate and
    /// clears the skip streak (a real sample beats any probe schedule).
    pub(crate) fn observe_full(&self, micros: u64) {
        fold(&self.full_micros, micros);
        // ordering: Relaxed — the streak is a heuristic counter.
        self.consecutive_skips.store(0, Ordering::Relaxed);
    }

    /// Folds one completed incremental-pass duration into the incremental
    /// estimate and clears the skip streak.
    pub(crate) fn observe_incremental(&self, micros: u64) {
        fold(&self.incremental_micros, micros);
        // ordering: Relaxed — the streak is a heuristic counter.
        self.consecutive_skips.store(0, Ordering::Relaxed);
    }

    /// Records that the predictor's say-so just skipped a sweep. Returns
    /// `true` when the caller should run the sweep anyway as a probe —
    /// granted once per [`PROBE_AFTER_SKIPS`] consecutive skips, so a
    /// stale over-budget estimate cannot pin the engine in the degraded
    /// tier forever.
    pub(crate) fn note_skipped_should_probe(&self) -> bool {
        // ordering: Relaxed — the streak only schedules probes; losing an
        // increment under contention delays one probe by one sweep.
        let skips = self.consecutive_skips.fetch_add(1, Ordering::Relaxed) + 1;
        if skips >= PROBE_AFTER_SKIPS {
            // ordering: Relaxed — restarting the heuristic streak.
            self.consecutive_skips.store(0, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

/// Asymmetric EWMA fold: quarter-weight on the way up (stay calm about
/// one slow outlier), half-weight on the way down (trust a cheaper regime
/// quickly). Estimates never fold to zero — `0` is reserved for "no
/// sample yet".
fn fold(estimate: &AtomicU64, sample: u64) {
    // ordering: Relaxed on both sides — the estimate is advisory; a lost
    // racing update skews it by one sample at worst.
    let old = estimate.load(Ordering::Relaxed);
    let new = if old == 0 {
        sample.max(1)
    } else if sample < old {
        ((old + sample) / 2).max(1)
    } else {
        ((3 * old + sample) / 4).max(1)
    };
    // ordering: Relaxed — see the load above.
    estimate.store(new, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_response_reconverges_downward_fast() {
        let p = SweepCostPredictor::new();
        for _ in 0..16 {
            p.observe_full(10_000);
        }
        assert_eq!(p.predicted_full_micros(), 10_000);
        // Regime shift down: within 3 samples the estimate must be inside
        // 2x of the new steady state (half-weight fold: 5500, 3250, 2125).
        for _ in 0..3 {
            p.observe_full(1_000);
        }
        assert!(
            p.predicted_full_micros() < 2_200,
            "estimate {} did not re-converge",
            p.predicted_full_micros()
        );
        // And it settles onto the new steady state (integer halving
        // leaves at most a rounding residue).
        for _ in 0..12 {
            p.observe_full(1_000);
        }
        assert!(
            (1_000..1_010).contains(&p.predicted_full_micros()),
            "estimate {} did not settle",
            p.predicted_full_micros()
        );
    }

    #[test]
    fn step_response_stays_calm_upward() {
        let p = SweepCostPredictor::new();
        for _ in 0..8 {
            p.observe_full(1_000);
        }
        // One slow outlier moves the estimate by only a quarter of the gap.
        p.observe_full(9_000);
        assert_eq!(p.predicted_full_micros(), 3_000);
    }

    #[test]
    fn probe_is_granted_after_consecutive_skips() {
        let p = SweepCostPredictor::new();
        p.observe_full(50_000);
        // Skips accumulate; the fourth is let through as a probe.
        assert!(!p.note_skipped_should_probe());
        assert!(!p.note_skipped_should_probe());
        assert!(!p.note_skipped_should_probe());
        assert!(p.note_skipped_should_probe());
        // The streak restarts after a granted probe...
        assert!(!p.note_skipped_should_probe());
        // ...and a real observation clears it entirely.
        p.observe_full(50_000);
        assert!(!p.note_skipped_should_probe());
        assert!(!p.note_skipped_should_probe());
        assert!(!p.note_skipped_should_probe());
        assert!(p.note_skipped_should_probe());
    }

    #[test]
    fn estimates_are_tracked_independently() {
        let p = SweepCostPredictor::new();
        assert_eq!(p.predicted_full_micros(), 0);
        assert_eq!(p.predicted_incremental_micros(), 0);
        p.observe_full(6_000);
        p.observe_incremental(400);
        assert_eq!(p.predicted_full_micros(), 6_000);
        assert_eq!(p.predicted_incremental_micros(), 400);
        // A zero-duration sample never folds the estimate to the "no
        // sample yet" sentinel.
        p.observe_incremental(0);
        assert!(p.predicted_incremental_micros() >= 1);
    }
}
