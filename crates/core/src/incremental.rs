//! Incremental two-stage association sweeps.
//!
//! A diagnosis reads only its invariant pairs: the violation tuple
//! compares each invariant's reference score with the window's score of
//! the same pair. The engine keeps one [`IncrementalSweep`] record per
//! context — the last scored window, its per-pair scores and staleness,
//! and the [`SweepPlan`] they were scored against — and answers a
//! diagnosis with the least scoring that keeps the tuple exact:
//!
//! 0. **Cold pass** — a window that is not a slide of the record gets
//!    [`IncrementalSweep::cold`]: one plan built on the pool (for MIC, 26
//!    series profiles, built once), a record seeded from it with every
//!    pair stale, and one pool pass that confirms exactly the invariant
//!    pairs. The other pairs keep the previous record's scores (or `0.0`)
//!    and stay stale; no diagnosis reads them.
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
//!    cached score is kept; the rest go to the pool as one confirm pass
//!    and the fresh scores replace the cache.
//!
//! Cold passes and confirm passes run through the same loop as a full
//! sweep, [`SweepPool::score_pairs`], under the diagnosis's deadline; a
//! pass cut short writes nothing into the record.
//!
//! The soundness contract: a diagnosis built from
//! [`IncrementalSweep::matrix`] after [`IncrementalSweep::cold`] or
//! [`IncrementalSweep::rescore`] produces a violation tuple bit-identical
//! to one built from a full from-scratch sweep of the same window —
//! confirmed pairs by the plan's bit-exactness, clean pairs by multiset
//! invariance, and screened pairs because both the cached and every
//! possible fresh score grade to exactly `0.0`. A screened or unscored
//! pair stays stale, so an unchanged window is rescored too (as a
//! zero-tick slide) rather than served raw: the invariants may have
//! changed since the last pass. `tests/golden_sweep.rs` pins both halves
//! (bit-exactness hammer from a cold pass + no-false-negative proptest).

use std::sync::Arc;

use crate::assoc::{
    pair_count, pair_index, pair_of_index, AssociationMatrix, PassScope, SweepPool,
};
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

/// Why a scoring pass over a record gave no answer. The record's scores
/// and staleness are untouched either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassError {
    /// A stale invariant pair needs scoring and the record has no plan to
    /// score it with: sweep from scratch.
    Unplanned,
    /// The pool pass hit its deadline; no partial score was written.
    DeadlineExpired,
}

/// One context's record of its last full-fidelity pass: the window it
/// reflects, the per-pair scores and staleness, and — when the record was
/// written on the diagnosis path — the plan that scores and slides it.
pub struct IncrementalSweep {
    /// The window the record currently reflects, series-major.
    series: Vec<Vec<f64>>,
    /// The plan the record's pairs are scored against (profiles, for
    /// MIC). A plan-less record only recognizes its own window again.
    plan: Option<Box<dyn SweepPlan>>,
    /// Per-pair scores: fresh wherever the violation tuple consults them.
    scores: Vec<f64>,
    /// `stale[pair]` — the cached score may differ from a fresh one.
    /// Screened pairs stay stale (their cache was proven harmless, not
    /// fresh); confirmed pairs become clean. Pairs no pass has scored for
    /// this window keep an earlier window's score (or `0.0`) and stay
    /// stale.
    stale: Vec<bool>,
    /// Per-series "profile moved" flags for the advance in progress.
    moved: Vec<bool>,
    /// Per-series "needs full rebuild" flags for the advance in progress.
    rebuilt: Vec<bool>,
    /// The pairs the pass in progress confirms (a buffer kept across
    /// passes).
    confirm: Vec<usize>,
}

impl IncrementalSweep {
    /// A plan-less record of a completed full sweep: `series` is the swept
    /// window, `scores` its full score vector, every pair fresh. It can
    /// serve the same window again, but any slide is
    /// [`AdvanceOutcome::Unsupported`].
    pub fn new(series: Vec<Vec<f64>>, scores: Vec<f64>) -> IncrementalSweep {
        IncrementalSweep {
            moved: vec![false; series.len()],
            rebuilt: vec![false; series.len()],
            stale: vec![false; scores.len()],
            series,
            plan: None,
            scores,
            confirm: Vec::new(),
        }
    }

    /// The cold pass: plans `series` once on the pool
    /// ([`SweepPool::plan`]), seeds a record from that plan with every
    /// pair stale and `scores` as the cached values, then confirms every
    /// invariant pair with the full measure in one pool pass — no screen,
    /// so the invariant pairs end up with exactly a from-scratch sweep's
    /// scores. Every other pair keeps its value from `scores` (an earlier
    /// record's, or `0.0`) and stays stale.
    ///
    /// # Errors
    ///
    /// [`PassError::DeadlineExpired`] when `scope`'s deadline cut the pass
    /// short; the half-scored record is dropped.
    ///
    /// # Panics
    ///
    /// When `scores` does not hold [`pair_count`] values.
    pub fn cold(
        measure: &Arc<dyn AssociationMeasure>,
        series: Vec<Vec<f64>>,
        scores: Vec<f64>,
        invariants: &InvariantSet,
        pool: &SweepPool,
        scope: &PassScope,
    ) -> Result<IncrementalSweep, PassError> {
        assert_eq!(scores.len(), pair_count(), "wrong score vector length");
        let plan = pool.plan(measure, &series, scope);
        let mut record = IncrementalSweep::new(series, scores);
        record.plan = Some(plan);
        record.stale.fill(true);
        record
            .confirm
            .extend(invariants.entries().iter().map(|e| e.pair));
        record.confirm_pending(pool, scope)?;
        Ok(record)
    }

    /// Whether every per-pair score is fresh for the recorded window (no
    /// slide or invariant-pair pass has left a pair stale).
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
    /// cannot tell the cache from a fresh sweep. The screen runs on the
    /// calling thread; everything else goes to the pool as one confirm
    /// pass ([`SweepPool::score_pairs`]) under `scope`.
    ///
    /// # Errors
    ///
    /// Changing no score: [`PassError::Unplanned`] when a stale invariant
    /// pair needs a score and the record has no plan (the caller must
    /// sweep from scratch), [`PassError::DeadlineExpired`] when the
    /// confirm pass ran out of time.
    pub fn rescore(
        &mut self,
        invariants: &InvariantSet,
        epsilon: f64,
        pool: &SweepPool,
        scope: &PassScope,
    ) -> Result<ScreenOutcome, PassError> {
        let mut outcome = ScreenOutcome::default();
        self.confirm.clear();
        {
            let IncrementalSweep {
                plan,
                scores,
                stale,
                confirm,
                ..
            } = &mut *self;
            let mut scorer = None;
            let entries = invariants.entries();
            let mut cursor = 0usize;
            for idx in 0..pair_count() {
                while cursor < entries.len() && entries[cursor].pair < idx {
                    cursor += 1;
                }
                let reference = match entries.get(cursor) {
                    Some(e) if e.pair == idx => e.value,
                    // Stale or not, the violation tuple never reads a
                    // non-invariant pair: the cached score stays.
                    _ => {
                        outcome.reused += 1;
                        continue;
                    }
                };
                if !stale[idx] {
                    outcome.reused += 1;
                    continue;
                }
                if 1.0 - reference < epsilon && (reference - scores[idx]).abs() < epsilon {
                    let Some(plan) = plan.as_deref() else {
                        return Err(PassError::Unplanned);
                    };
                    let (a, b) = pair_of_index(idx);
                    let scorer = scorer.get_or_insert_with(|| plan.scorer());
                    if let Some(bound) = scorer.screen_bound(a.index(), b.index()) {
                        if (reference - bound).abs() < epsilon {
                            outcome.screened += 1;
                            continue;
                        }
                    }
                }
                confirm.push(idx);
            }
        }
        outcome.confirmed = self.confirm.len();
        self.confirm_pending(pool, scope)?;
        Ok(outcome)
    }

    /// Scores the pairs in `self.confirm` on the pool and, only when the
    /// pass completed, writes them into the record as fresh scores.
    fn confirm_pending(&mut self, pool: &SweepPool, scope: &PassScope) -> Result<(), PassError> {
        if self.confirm.is_empty() {
            return Ok(());
        }
        let Some(plan) = self.plan.take() else {
            return Err(PassError::Unplanned);
        };
        let pass = pool.score_pairs(plan, std::mem::take(&mut self.confirm), scope);
        let completed = pass.completed();
        if completed {
            for (&pair, &score) in pass.pairs.iter().zip(&pass.scores) {
                self.scores[pair] = score;
                self.stale[pair] = false;
            }
        }
        self.plan = Some(pass.plan);
        self.confirm = pass.pairs;
        if completed {
            Ok(())
        } else {
            Err(PassError::DeadlineExpired)
        }
    }

    /// The current per-pair scores as an association matrix. After
    /// [`IncrementalSweep::cold`] or [`IncrementalSweep::rescore`] it is
    /// bit-identical to a full from-scratch sweep on every pair the
    /// violation tuple consults (all invariant pairs); non-invariant stale
    /// pairs hold an earlier window's score, or `0.0` when no pass has
    /// scored them.
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
    use ix_metrics::{MetricFrame, MetricId, METRIC_COUNT};
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

    /// The invariants of one window: every pair, with that window's score.
    fn all_pairs(frame: &MetricFrame) -> InvariantSet {
        let matrix = AssociationMatrix::compute(frame, &MicMeasure::new(MicParams::fast()), 1);
        InvariantSet::select(std::slice::from_ref(&matrix), 0.2)
    }

    /// A record of `frame` after a cold pass over every pair.
    fn cold_record(pool: &SweepPool, frame: &MetricFrame) -> IncrementalSweep {
        IncrementalSweep::cold(
            &mic(),
            series_of(frame),
            vec![0.0; pair_count()],
            &all_pairs(frame),
            pool,
            &PassScope::detached(),
        )
        .unwrap()
    }

    #[test]
    fn cold_pass_scores_only_the_invariant_pairs() {
        let pool = SweepPool::new(2);
        let base = frame(40, 0);
        let fresh = AssociationMatrix::compute(&base, &MicMeasure::new(MicParams::fast()), 1);
        let every = all_pairs(&base);
        let entries: Vec<_> = every.entries().iter().step_by(3).copied().collect();
        let invariants = InvariantSet::from_entries(entries, 0.2).unwrap();
        let previous: Vec<f64> = (0..pair_count()).map(|p| p as f64 / 1000.0).collect();
        for measure in [
            mic(),
            Arc::new(PearsonMeasure) as Arc<dyn AssociationMeasure>,
        ] {
            let record = IncrementalSweep::cold(
                &measure,
                series_of(&base),
                previous.clone(),
                &invariants,
                &pool,
                &PassScope::detached(),
            )
            .unwrap();
            let want = pool.sweep(&base, &measure);
            for (pair, &seeded) in previous.iter().enumerate() {
                let read = invariants.entries().iter().any(|e| e.pair == pair);
                // Invariant pairs carry the exact fresh score; every other
                // pair keeps the score it was seeded with, and stays stale.
                let expected = if read { want.at(pair) } else { seeded };
                assert_eq!(record.scores()[pair].to_bits(), expected.to_bits());
                assert_eq!(record.stale[pair], !read, "pair {pair}");
            }
            assert!(!record.is_fresh());
        }
        // Every pair an invariant: the record is a full sweep.
        let full = cold_record(&pool, &base);
        assert!(full.is_fresh());
        assert_eq!(full.matrix(), fresh);
    }

    #[test]
    fn advance_classifies_windows() {
        let pool = SweepPool::new(1);
        let base = frame(40, 0);
        let mut inc = cold_record(&pool, &base);
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
        let scope = PassScope::detached();
        let base = frame(40, 0);
        let matrix = AssociationMatrix::compute(&base, &MicMeasure::new(MicParams::fast()), 1);
        let invariants = all_pairs(&base);
        let mut record = IncrementalSweep::new(series_of(&base), matrix.scores().to_vec());
        assert!(record.is_window(&series_of(&base)));
        assert_eq!(record.advance(&series_of(&base)), AdvanceOutcome::Identical);
        // Every score is fresh, so the zero-tick rescore needs no plan.
        assert_eq!(
            record.rescore(&invariants, 0.2, &pool, &scope),
            Ok(ScreenOutcome {
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
        // A planned record absorbs the same slide...
        let mut record = cold_record(&pool, &base);
        assert_eq!(
            record.advance(&series_of(&frame(40, 1))),
            AdvanceOutcome::Advanced { shift: 1 }
        );
        assert!(!record.is_fresh());
        // ...and a jump drops the plan; the stale pairs then cannot be
        // settled, and nothing is written.
        assert_eq!(
            record.advance(&series_of(&frame(40, 100))),
            AdvanceOutcome::Unsupported
        );
        assert!(record.is_window(&series_of(&frame(40, 1))));
        let before = record.scores().to_vec();
        assert_eq!(
            record.rescore(&invariants, 0.2, &pool, &scope),
            Err(PassError::Unplanned)
        );
        assert_eq!(record.scores(), &before[..]);
    }

    #[test]
    fn an_expired_pass_writes_nothing() {
        let pool = SweepPool::new(2);
        let base = frame(40, 0);
        let invariants = all_pairs(&base);
        let expired = PassScope {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..PassScope::detached()
        };
        let cold = IncrementalSweep::cold(
            &mic(),
            series_of(&base),
            vec![0.0; pair_count()],
            &invariants,
            &pool,
            &expired,
        );
        assert_eq!(cold.err(), Some(PassError::DeadlineExpired));

        let mut record = cold_record(&pool, &base);
        let next = frame(40, 1);
        assert_eq!(
            record.advance(&series_of(&next)),
            AdvanceOutcome::Advanced { shift: 1 }
        );
        let (scores, stale) = (record.scores().to_vec(), record.stale.clone());
        assert_eq!(
            record.rescore(&invariants, 0.0, &pool, &expired),
            Err(PassError::DeadlineExpired)
        );
        assert_eq!(record.scores(), &scores[..]);
        assert_eq!(record.stale, stale);
        // The plan survived the expired pass: the next pass completes.
        let outcome = record
            .rescore(&invariants, 0.0, &pool, &PassScope::detached())
            .unwrap();
        assert!(outcome.confirmed > 0);
        let fresh = AssociationMatrix::compute(&next, &MicMeasure::new(MicParams::fast()), 1);
        for e in invariants.entries() {
            assert_eq!(
                record.scores()[e.pair].to_bits(),
                fresh.at(e.pair).to_bits()
            );
        }
    }

    #[test]
    fn incremental_matches_from_scratch_on_invariant_pairs() {
        let pool = SweepPool::new(1);
        let mic_measure = MicMeasure::new(MicParams::fast());
        let base = frame(40, 0);
        // Train invariants on the base window (every pair's band is 0).
        let invariants = all_pairs(&base);
        let epsilon = 0.2;
        let mut inc = cold_record(&pool, &base);
        for offset in 1..=6 {
            let next = frame(40, offset);
            assert_eq!(
                inc.advance(&series_of(&next)),
                AdvanceOutcome::Advanced { shift: 1 }
            );
            let outcome = inc
                .rescore(&invariants, epsilon, &pool, &PassScope::detached())
                .unwrap();
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
        let base = frame(40, 0);
        let invariants = all_pairs(&base);
        let mut inc = cold_record(&pool, &base);
        let next = frame(40, 1);
        assert_eq!(
            inc.advance(&series_of(&next)),
            AdvanceOutcome::Advanced { shift: 1 }
        );
        let outcome = inc
            .rescore(&invariants, 0.0, &pool, &PassScope::detached())
            .unwrap();
        assert_eq!(outcome.screened, 0);
        // Every invariant pair now carries the exact fresh score.
        let fresh = AssociationMatrix::compute(&next, &MicMeasure::new(MicParams::fast()), 1);
        for e in invariants.entries() {
            assert_eq!(
                inc.matrix().at(e.pair).to_bits(),
                fresh.at(e.pair).to_bits()
            );
        }
    }
}
