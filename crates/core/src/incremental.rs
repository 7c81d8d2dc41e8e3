//! Incremental two-stage association sweeps.
//!
//! A diagnosis-window sweep scores all 325 metric pairs with MIC even
//! though consecutive windows differ by a handful of ticks. The engine
//! keeps one [`IncrementalSweep`] record per context — the last swept
//! window, its per-pair scores and staleness — and, on the diagnosis
//! path, a [`SweepPlan`] that advances the record by delta:
//!
//! 1. **Slide** — [`IncrementalSweep::advance`] detects that the new
//!    window is the old one unchanged or shifted forward by at most
//!    [`MAX_SLIDE`] ticks and slides every per-series profile in place
//!    ([`SweepPlan::slide`]), bit-identically to rebuilding it. Series
//!    whose departing and entering samples are bit-equal are *clean*:
//!    their (value, partner) multisets are unchanged, so every cached
//!    pair score involving only clean series **is** the fresh score.
//! 2. **Screen, then confirm** — [`IncrementalSweep::rescore`] walks the
//!    stale pairs. Pairs the violation tuple never reads (non-invariants)
//!    keep their cached score. Invariant pairs are screened with the
//!    kernel's own conservative lower bound
//!    ([`ix_mic::mic_screen_bound_scratch`] via
//!    [`crate::measure::PairScorer::screen_bound`]): when every possible
//!    fresh score in `[bound, 1]` and the cached score all grade to zero
//!    deviation, the pair cannot cross the violation threshold and the
//!    cached score is kept; otherwise MIC runs in full and the fresh
//!    score replaces the cache.
//!
//! The soundness contract: a diagnosis built from
//! [`IncrementalSweep::matrix`] after [`IncrementalSweep::rescore`]
//! produces a violation tuple bit-identical to one built from a full
//! from-scratch sweep of the same window — clean pairs by multiset
//! invariance, confirmed pairs by the slide's bit-exactness, and screened
//! pairs because both the cached and every possible fresh score grade to
//! exactly `0.0`. A screened pair stays stale, so an unchanged window is
//! rescored too (as a zero-tick slide) rather than served raw: the
//! invariants may have changed since the last pass. `tests/golden_sweep.rs`
//! pins both halves (bit-exactness hammer + no-false-negative proptest).

use std::sync::Arc;

use ix_metrics::METRIC_COUNT;

use crate::assoc::{pair_count, pair_index, pair_of_index, AssociationMatrix, SweepPool};
use crate::invariants::InvariantSet;
use crate::measure::{AssociationMeasure, SlideOutcome, SweepPlan};

/// Longest window shift (in ticks) `advance` absorbs in place. Beyond
/// this, shift detection costs more than it saves and the caller should
/// fall back to a full sweep.
pub const MAX_SLIDE: usize = 8;

/// How [`IncrementalSweep::advance`] related the new window to its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvanceOutcome {
    /// The new window is bit-identical to the recorded one; nothing moved.
    /// Pairs left stale by an earlier slide stay stale, so rescore before
    /// reading the matrix.
    Identical,
    /// The new window is the recorded one slid forward by `shift` ticks;
    /// the plan was advanced in place and stale pairs were marked.
    Advanced {
        /// How many ticks the window moved.
        shift: usize,
    },
    /// The new window is not a bounded forward slide of the recorded one,
    /// the record has no plan to slide, or the plan refused to slide. The
    /// plan (if any) is dropped; the record keeps its last window and
    /// scores. Run a full sweep.
    Unsupported,
}

/// Counters from one [`IncrementalSweep::rescore`] pass, in pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScreenOutcome {
    /// Pairs whose cached score was kept with no fresh work: clean pairs
    /// (score provably fresh) plus stale pairs no invariant reads.
    pub reused: usize,
    /// Stale invariant pairs the conservative bound proved unable to
    /// cross the violation threshold; cached score kept.
    pub screened: usize,
    /// Stale invariant pairs re-scored with the full measure.
    pub confirmed: usize,
}

/// One context's record of its last full-fidelity sweep: the window it
/// reflects, the per-pair scores and staleness, and — when the record was
/// seeded on the diagnosis path — the plan that slides it forward.
pub struct IncrementalSweep {
    /// The window the record currently reflects, series-major.
    series: Vec<Vec<f64>>,
    /// The delta-maintained plan (profiles, for MIC). A plan-less record
    /// only recognizes its own window again.
    plan: Option<Box<dyn SweepPlan>>,
    /// Per-pair scores: fresh wherever the violation tuple consults them.
    scores: Vec<f64>,
    /// `stale[pair]` — the cached score may differ from a fresh one.
    /// Screened pairs stay stale (their cache was proven harmless, not
    /// fresh); confirmed pairs become clean.
    stale: Vec<bool>,
    /// Per-series "profile moved" flags for the advance in progress.
    moved: Vec<bool>,
    /// Per-series "needs full rebuild" flags for the advance in progress.
    rebuilt: Vec<bool>,
}

impl IncrementalSweep {
    /// A plan-less record of a completed full-fidelity sweep: `series` is
    /// the swept window, `scores` its full score vector. It can serve the
    /// same window again, but any slide is [`AdvanceOutcome::Unsupported`]
    /// until [`IncrementalSweep::attach_plan`] succeeds.
    pub fn new(series: Vec<Vec<f64>>, scores: Vec<f64>) -> IncrementalSweep {
        IncrementalSweep {
            moved: vec![false; series.len()],
            rebuilt: vec![false; series.len()],
            stale: vec![false; scores.len()],
            series,
            plan: None,
            scores,
        }
    }

    /// Seeds a record that can slide from a completed full-fidelity sweep
    /// (see [`IncrementalSweep::new`]). Returns `None` when the measure's
    /// plan does not support delta-maintenance (the engine then stays on
    /// the full-sweep path).
    pub fn seed(
        measure: &Arc<dyn AssociationMeasure>,
        pool: &SweepPool,
        series: Vec<Vec<f64>>,
        scores: Vec<f64>,
    ) -> Option<IncrementalSweep> {
        let mut record = IncrementalSweep::new(series, scores);
        record.attach_plan(measure, pool).then_some(record)
    }

    /// Builds a delta-maintained plan over the recorded window, so later
    /// slides can be absorbed. Returns whether the record has a plan:
    /// `false` when the record is malformed or the measure's plan cannot
    /// slide. Pairs already stale stay stale; the next rescore settles
    /// them with the new plan.
    pub fn attach_plan(&mut self, measure: &Arc<dyn AssociationMeasure>, pool: &SweepPool) -> bool {
        if self.plan.is_some() {
            return true;
        }
        if self.series.len() != METRIC_COUNT || self.scores.len() != pair_count() {
            return false;
        }
        let n = self.series.first().map(Vec::len).unwrap_or(0);
        if n == 0 || self.series.iter().any(|s| s.len() != n) {
            return false;
        }
        self.plan = measure
            .prepare_on(&self.series, pool)
            .filter(|plan| plan.incremental());
        self.plan.is_some()
    }

    /// Whether every per-pair score is fresh for the recorded window (no
    /// slide has left a pair stale).
    pub fn is_fresh(&self) -> bool {
        !self.stale.contains(&true)
    }

    /// Whether `series` is bit-identical to the recorded window.
    pub fn is_window(&self, series: &[Vec<f64>]) -> bool {
        self.series.len() == series.len()
            && self.series.iter().zip(series).all(|(old, new)| {
                old.len() == new.len()
                    && old.iter().zip(new).all(|(a, b)| a.to_bits() == b.to_bits())
            })
    }

    /// Detects whether `new_series` is this record's window unchanged or
    /// slid forward by at most [`MAX_SLIDE`] ticks and, if it slid,
    /// absorbs the shift: every profile slides in place and pairs
    /// touching a moved series are marked stale. A plan-less record only
    /// recognizes its own window.
    ///
    /// On [`AdvanceOutcome::Unsupported`] the plan may be partially slid,
    /// so it is dropped; the recorded window and scores are untouched.
    pub fn advance(&mut self, new_series: &[Vec<f64>]) -> AdvanceOutcome {
        if new_series.len() != self.series.len() || self.series.is_empty() {
            self.plan = None;
            return AdvanceOutcome::Unsupported;
        }
        let n = self.series[0].len();
        if n == 0
            || self.series.iter().any(|s| s.len() != n)
            || new_series.iter().any(|s| s.len() != n)
        {
            self.plan = None;
            return AdvanceOutcome::Unsupported;
        }
        // The slide distance: smallest s with old[s..] == new[..n-s] bitwise
        // for every series. Bit comparison keeps the contract exact (and
        // refuses NaN windows, which compare unequal to themselves).
        let mut shift = None;
        for s in 0..=MAX_SLIDE.min(n) {
            let matches = self.series.iter().zip(new_series).all(|(old, new)| {
                old[s..]
                    .iter()
                    .zip(&new[..n - s])
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            if matches {
                shift = Some(s);
                break;
            }
        }
        let Some(shift) = shift else {
            self.plan = None;
            return AdvanceOutcome::Unsupported;
        };
        if shift == 0 {
            return AdvanceOutcome::Identical;
        }
        let Some(plan) = self.plan.as_mut() else {
            return AdvanceOutcome::Unsupported;
        };
        for flag in &mut self.moved {
            *flag = false;
        }
        for flag in &mut self.rebuilt {
            *flag = false;
        }
        for step in 0..shift {
            for (k, new) in new_series.iter().enumerate() {
                if self.rebuilt[k] {
                    continue;
                }
                let departing = self.series[k][step];
                let entering = new[n - shift + step];
                match plan.slide(k, departing, entering) {
                    SlideOutcome::Clean => {}
                    SlideOutcome::Moved => self.moved[k] = true,
                    SlideOutcome::Rebuild => {
                        self.rebuilt[k] = true;
                        self.moved[k] = true;
                    }
                    SlideOutcome::Unsupported => {
                        self.plan = None;
                        return AdvanceOutcome::Unsupported;
                    }
                }
            }
        }
        for (k, new) in new_series.iter().enumerate() {
            if self.rebuilt[k] {
                plan.rebuild_series(k, new);
            }
            self.series[k].copy_from_slice(new);
        }
        for i in 0..self.series.len() {
            for j in (i + 1)..self.series.len() {
                if self.moved[i] || self.moved[j] {
                    self.stale[pair_index(i, j)] = true;
                }
            }
        }
        AdvanceOutcome::Advanced { shift }
    }

    /// Stage two: re-establishes the soundness contract for the current
    /// window under `invariants` and violation threshold `epsilon`.
    ///
    /// A stale invariant pair with reference `I` and cached score `c` is
    /// *screened out* (cached score kept) only when all three hold
    /// strictly — `1 - I < epsilon`, `|I - c| < epsilon`, and
    /// `|I - bound| < epsilon` for the measure's conservative lower bound
    /// — because then every possible fresh score in `[bound, 1]` and the
    /// cached score grade to exactly `0.0` deviation: the violation tuple
    /// cannot tell the cache from a fresh sweep. Anything else is
    /// confirmed with the full measure.
    ///
    /// Returns `None`, changing nothing, when a pair is stale and the
    /// record has no plan to settle it with: its scores are then not
    /// vouched for and the caller must sweep from scratch.
    pub fn rescore(&mut self, invariants: &InvariantSet, epsilon: f64) -> Option<ScreenOutcome> {
        let IncrementalSweep {
            plan,
            scores,
            stale,
            ..
        } = self;
        let Some(plan) = plan else {
            // Nothing to score with, and nothing needs it when every
            // score is fresh.
            return (!stale.contains(&true)).then_some(ScreenOutcome {
                reused: pair_count(),
                ..ScreenOutcome::default()
            });
        };
        let mut scorer = plan.scorer();
        let entries = invariants.entries();
        let mut cursor = 0usize;
        let mut outcome = ScreenOutcome::default();
        for idx in 0..pair_count() {
            while cursor < entries.len() && entries[cursor].pair < idx {
                cursor += 1;
            }
            let reference = match entries.get(cursor) {
                Some(e) if e.pair == idx => Some(e.value),
                _ => None,
            };
            if !stale[idx] {
                outcome.reused += 1;
                continue;
            }
            let Some(reference) = reference else {
                // Stale but not an invariant: the violation tuple never
                // reads this pair, so the cached score stays.
                outcome.reused += 1;
                continue;
            };
            let (a, b) = pair_of_index(idx);
            let (a, b) = (a.index(), b.index());
            if 1.0 - reference < epsilon && (reference - scores[idx]).abs() < epsilon {
                if let Some(bound) = scorer.screen_bound(a, b) {
                    if (reference - bound).abs() < epsilon {
                        outcome.screened += 1;
                        continue;
                    }
                }
            }
            scores[idx] = scorer.score_pair(a, b);
            stale[idx] = false;
            outcome.confirmed += 1;
        }
        Some(outcome)
    }

    /// The current per-pair scores as an association matrix. After a
    /// [`IncrementalSweep::rescore`] it is bit-identical to a full
    /// from-scratch sweep on every pair the violation tuple consults (all
    /// invariant pairs); non-invariant stale pairs may hold the score of an
    /// earlier window.
    pub fn matrix(&self) -> AssociationMatrix {
        AssociationMatrix::from_scores(self.scores.clone())
    }

    /// The flat per-pair score cache (see [`IncrementalSweep::matrix`]).
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }
}

impl std::fmt::Debug for IncrementalSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSweep")
            .field("window_ticks", &self.series.first().map(Vec::len))
            .field("planned", &self.plan.is_some())
            .field("stale_pairs", &self.stale.iter().filter(|&&s| s).count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{MicMeasure, PearsonMeasure};
    use ix_metrics::{MetricFrame, MetricId};
    use ix_mic::MicParams;

    fn frame(ticks: usize, offset: usize) -> MetricFrame {
        let mut f = MetricFrame::new();
        for t in offset..offset + ticks {
            let row: Vec<f64> = (0..METRIC_COUNT)
                .map(|k| ((t * (k + 1)) as f64 * 0.37).sin() * 10.0 + 20.0 + k as f64)
                .collect();
            f.push_tick(&row).unwrap();
        }
        f
    }

    fn series_of(frame: &MetricFrame) -> Vec<Vec<f64>> {
        MetricId::ALL.iter().map(|&m| frame.series(m)).collect()
    }

    fn mic() -> Arc<dyn AssociationMeasure> {
        Arc::new(MicMeasure::new(MicParams::fast()))
    }

    #[test]
    fn seed_requires_an_incremental_plan() {
        let pool = SweepPool::new(1);
        let f = frame(40, 0);
        let series = series_of(&f);
        let scores = vec![0.0; pair_count()];
        let pearson: Arc<dyn AssociationMeasure> = Arc::new(PearsonMeasure);
        assert!(IncrementalSweep::seed(&pearson, &pool, series.clone(), scores.clone()).is_none());
        assert!(IncrementalSweep::seed(&mic(), &pool, series, scores).is_some());
        // Malformed seeds are refused.
        assert!(IncrementalSweep::seed(&mic(), &pool, vec![], vec![0.0; pair_count()]).is_none());
    }

    #[test]
    fn advance_classifies_windows() {
        let pool = SweepPool::new(1);
        let measure = mic();
        let base = frame(40, 0);
        let matrix = AssociationMatrix::compute(&base, &MicMeasure::new(MicParams::fast()), 1);
        let mut inc =
            IncrementalSweep::seed(&measure, &pool, series_of(&base), matrix.scores().to_vec())
                .unwrap();
        // Same window: identical, state not consumed.
        assert_eq!(inc.advance(&series_of(&base)), AdvanceOutcome::Identical);
        // One-tick slide.
        assert_eq!(
            inc.advance(&series_of(&frame(40, 1))),
            AdvanceOutcome::Advanced { shift: 1 }
        );
        // Multi-tick slide within MAX_SLIDE.
        assert_eq!(
            inc.advance(&series_of(&frame(40, 4))),
            AdvanceOutcome::Advanced { shift: 3 }
        );
        // A jump beyond MAX_SLIDE is not a slide.
        assert_eq!(
            inc.advance(&series_of(&frame(40, 100))),
            AdvanceOutcome::Unsupported
        );
    }

    #[test]
    fn plan_less_records_serve_only_their_own_window() {
        let pool = SweepPool::new(1);
        let mic_measure = MicMeasure::new(MicParams::fast());
        let base = frame(40, 0);
        let matrix = AssociationMatrix::compute(&base, &mic_measure, 1);
        let invariants = InvariantSet::select(std::slice::from_ref(&matrix), 0.2);
        let mut record = IncrementalSweep::new(series_of(&base), matrix.scores().to_vec());
        assert!(record.is_window(&series_of(&base)));
        assert_eq!(record.advance(&series_of(&base)), AdvanceOutcome::Identical);
        // Every score is fresh, so the zero-tick rescore needs no plan.
        assert_eq!(
            record.rescore(&invariants, 0.2),
            Some(ScreenOutcome {
                reused: pair_count(),
                ..ScreenOutcome::default()
            })
        );
        // Without a plan a slide is not absorbed; the record stays put.
        assert_eq!(
            record.advance(&series_of(&frame(40, 1))),
            AdvanceOutcome::Unsupported
        );
        assert!(record.is_window(&series_of(&base)));
        // With a plan attached the same slide is absorbed.
        assert!(record.attach_plan(&mic(), &pool));
        assert_eq!(
            record.advance(&series_of(&frame(40, 1))),
            AdvanceOutcome::Advanced { shift: 1 }
        );
        assert!(!record.is_fresh());
        // A jump drops the plan; the stale pairs then cannot be settled.
        assert_eq!(
            record.advance(&series_of(&frame(40, 100))),
            AdvanceOutcome::Unsupported
        );
        assert!(record.is_window(&series_of(&frame(40, 1))));
        assert_eq!(record.rescore(&invariants, 0.2), None);
        // Re-attaching a plan settles them against a fresh sweep.
        assert!(record.attach_plan(&mic(), &pool));
        let outcome = record.rescore(&invariants, 0.0).unwrap();
        assert_eq!(outcome.screened, 0);
        let fresh = AssociationMatrix::compute(&frame(40, 1), &mic_measure, 1);
        for e in invariants.entries() {
            assert_eq!(
                record.matrix().at(e.pair).to_bits(),
                fresh.at(e.pair).to_bits()
            );
        }
    }

    #[test]
    fn incremental_matches_from_scratch_on_invariant_pairs() {
        let pool = SweepPool::new(1);
        let measure = mic();
        let mic_measure = MicMeasure::new(MicParams::fast());
        let base = frame(40, 0);
        let matrix = AssociationMatrix::compute(&base, &mic_measure, 1);
        // Train invariants on the base window (every pair's band is 0).
        let invariants = InvariantSet::select(std::slice::from_ref(&matrix), 0.2);
        let epsilon = 0.2;
        let mut inc =
            IncrementalSweep::seed(&measure, &pool, series_of(&base), matrix.scores().to_vec())
                .unwrap();
        for offset in 1..=6 {
            let next = frame(40, offset);
            assert_eq!(
                inc.advance(&series_of(&next)),
                AdvanceOutcome::Advanced { shift: 1 }
            );
            let outcome = inc.rescore(&invariants, epsilon).unwrap();
            assert_eq!(
                outcome.reused + outcome.screened + outcome.confirmed,
                pair_count()
            );
            let fresh = AssociationMatrix::compute(&next, &mic_measure, 1);
            // The violation tuple must be bit-identical to a full sweep.
            let inc_tuple =
                crate::signature::ViolationTuple::build(&invariants, &inc.matrix(), epsilon);
            let fresh_tuple = crate::signature::ViolationTuple::build(&invariants, &fresh, epsilon);
            assert_eq!(inc_tuple, fresh_tuple, "window offset {offset}");
            // Confirmed + clean pairs are bit-identical scores; screened
            // pairs are allowed to keep the cached value.
            for e in invariants.entries() {
                let got = inc.matrix().at(e.pair);
                let want = fresh.at(e.pair);
                let both_zero_grade =
                    (e.value - got).abs() < epsilon && (e.value - want).abs() < epsilon;
                assert!(
                    got.to_bits() == want.to_bits() || both_zero_grade,
                    "pair {}: {} vs {}",
                    e.pair,
                    got,
                    want
                );
            }
        }
    }

    #[test]
    fn rescore_screens_only_provably_safe_pairs() {
        // With epsilon = 0 nothing can be screened (the strict inequality
        // `1 - I < 0` never holds), so every stale invariant pair must be
        // confirmed — the no-false-negative property at its sharpest.
        let pool = SweepPool::new(1);
        let measure = mic();
        let mic_measure = MicMeasure::new(MicParams::fast());
        let base = frame(40, 0);
        let matrix = AssociationMatrix::compute(&base, &mic_measure, 1);
        let invariants = InvariantSet::select(std::slice::from_ref(&matrix), 0.2);
        let mut inc =
            IncrementalSweep::seed(&measure, &pool, series_of(&base), matrix.scores().to_vec())
                .unwrap();
        let next = frame(40, 1);
        assert_eq!(
            inc.advance(&series_of(&next)),
            AdvanceOutcome::Advanced { shift: 1 }
        );
        let outcome = inc.rescore(&invariants, 0.0).unwrap();
        assert_eq!(outcome.screened, 0);
        // Every invariant pair now carries the exact fresh score.
        let fresh = AssociationMatrix::compute(&next, &mic_measure, 1);
        for e in invariants.entries() {
            assert_eq!(
                inc.matrix().at(e.pair).to_bits(),
                fresh.at(e.pair).to_bits()
            );
        }
    }
}
