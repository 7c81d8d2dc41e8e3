//! Incremental, floor-aware association sweeps.
//!
//! A diagnosis reads only its invariant pairs, and only through the
//! violation tuple, which flags an invariant when `|I − A| >= ε`. The
//! engine keeps one [`IncrementalSweep`] record per context — the last
//! scored window, its per-pair scores and what each score is worth, and
//! the [`SweepPlan`] they were scored against — and answers a diagnosis
//! with the least scoring that keeps the tuple exact.
//!
//! Each pair's score carries one of four tags:
//!
//! - **fresh** — the exact score of the recorded window;
//! - **bound** — a kernel entry of the recorded window that cleared its
//!   invariant's floor: `<=` the exact score, and it grades to zero
//!   deviation exactly when the exact score does;
//! - **stale** — an earlier window's score from this context;
//! - **unscored** — no pass of this context has scored the pair; the
//!   score is a placeholder `0.0`.
//!
//! One rule covers a window that moved: every scored pair becomes stale,
//! and unscored pairs stay unscored. Fresh and bound tags therefore only
//! ever describe the window the record holds.
//!
//! Passes over a record:
//!
//! 0. **Cold pass** — a window that is not a slide of the record gets
//!    [`IncrementalSweep::cold`]: one plan built on the pool (for MIC, 26
//!    series profiles, built once), a record seeded from the previous one
//!    under the rule above (with no previous record every pair is
//!    unscored), then the rescore below. Pairs no invariant reads keep
//!    their seeded score and tag.
//! 1. **Slide** — [`IncrementalSweep::advance`] detects that the new
//!    window is the old one unchanged or shifted forward by at most
//!    [`MAX_SLIDE`] ticks. A shift of one or more ticks slides every
//!    per-series profile in place ([`SweepPlan::slide`]; a profile that
//!    cannot take a step is rebuilt from the new window), bit-identically
//!    to building it afresh, and then applies the rule above: what the
//!    slide saves is the profile builds, not kernel work.
//! 2. **Rescore** — [`IncrementalSweep::rescore`] classifies every pair
//!    under the current invariants and ε. Non-invariant pairs keep their
//!    score. Fresh pairs are reused. A bound pair is reused with no kernel
//!    work when its invariant's [`Floor`] (which exists only when
//!    `1 − I < ε`) still clears its score. Every other invariant pair goes,
//!    in ascending pair index, to one pool pass ([`SweepPool::score_pairs`]),
//!    carrying its floor when it has one: the MIC kernel then runs one
//!    unit at a time and stops as soon as an entry clears
//!    ([`ix_mic::mic_floor_scratch`]). A cleared pair stores that entry and
//!    becomes bound; any other pair stores its exact score and becomes
//!    fresh. Only a zero-tick slide (an unchanged window) finds fresh or
//!    bound invariant pairs to reuse.
//!
//! Every pass runs under the diagnosis's [`PassScope`]: its deadline and
//! pair cap. A pass cut short keeps the prefix of its list it scored;
//! the pairs it did not reach keep their tag (stale or unscored), so the
//! next pass over the record, of the same window or a slid one, resumes
//! where this one stopped.
//!
//! The soundness contract: a diagnosis built from
//! [`IncrementalSweep::matrix`] after a *completed* [`IncrementalSweep::cold`]
//! or [`IncrementalSweep::rescore`] ([`ScreenOutcome::unreached`] is `0`)
//! produces a violation tuple bit-identical
//! to one built from a full from-scratch sweep of the same window. Fresh
//! pairs hold the exact bits: the plan is bit-exact, and a pair is fresh
//! only for the window it was scored on. A bound pair holds an entry `v`
//! of the set the kernel maximizes, computed by the same code, so
//! `v <= mic`; with `1 − I < ε`, monotone rounding gives
//! `fl(I − mic) <= fl(I − v) < ε` and `fl(mic − I) <= fl(1 − I) < ε`, so
//! both grade to `0.0`. An unchanged window is rescored too (as a
//! zero-tick slide) rather than served raw: the invariants may have
//! changed since the last pass.
//! `tests/golden_sweep.rs` pins the contract (bit-exactness hammer from a
//! cold pass), and `crates/mic/tests/floor.rs` the kernel's half of it.

use std::sync::Arc;

use crate::assoc::{pair_count, AssociationMatrix, PassPair, PassScope, SweepPool};
use crate::invariants::InvariantSet;
use crate::measure::{AssociationMeasure, Floor, Floored, SweepPlan};

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
    /// the plan was slid in place, every scored pair is now stale and
    /// unscored pairs stay unscored.
    Advanced {
        /// How many ticks the window moved.
        shift: usize,
    },
    /// The new window is not a bounded forward slide of the recorded one,
    /// or the record's plan does not slide ([`SweepPlan::incremental`]).
    /// The record is untouched: run a cold pass over the new window.
    Unsupported,
}

/// Counters from one [`IncrementalSweep::rescore`] (or cold) pass, in
/// pairs; the four sum to [`pair_count`]. `reused`, `screened` and
/// `confirmed` alone sum to fewer when the pass was cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScreenOutcome {
    /// Pairs whose recorded score was kept with no kernel work: pairs no
    /// invariant reads, fresh pairs, and bound pairs whose floor still
    /// clears. On a cold pass or a slide no invariant pair is fresh or
    /// bound, so this counts exactly the pairs no invariant reads; only a
    /// zero-tick rescore reuses invariant pairs.
    pub reused: usize,
    /// Pairs the pass stopped early on: a kernel entry cleared the
    /// invariant's floor, and the pair is now bound.
    pub screened: usize,
    /// Pairs the pass scored exactly; the pair is now fresh.
    pub confirmed: usize,
    /// Invariant pairs that needed scoring and that the pass did not
    /// reach, because its deadline or pair cap stopped it; each keeps its
    /// tag, stale or unscored. `0` for a completed pass.
    pub unreached: usize,
}

/// What a record's score for one pair is worth (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairState {
    /// The exact score of the recorded window.
    Fresh,
    /// A kernel entry of the recorded window that cleared its floor:
    /// `<=` the exact score.
    Bound,
    /// An earlier window's score from this context.
    Stale,
    /// Never scored in this context: a placeholder `0.0`.
    Unscored,
}

/// One context's record of its last pass: the window it reflects, the
/// per-pair scores and their tags, and the plan that scores and slides it.
pub struct IncrementalSweep {
    /// The window the record currently reflects, series-major.
    series: Vec<Vec<f64>>,
    /// The plan the record's pairs are scored against (profiles, for
    /// MIC). `None` only while a pass has lent it to the pool.
    plan: Option<Box<dyn SweepPlan>>,
    /// Per-pair scores, worth what `state` says.
    scores: Vec<f64>,
    /// Per-pair tags: fresh, bound, stale or unscored.
    state: Vec<PairState>,
    /// The pairs the pass in progress scores (a buffer kept across
    /// passes).
    pending: Vec<PassPair>,
}

impl IncrementalSweep {
    /// The cold pass: plans `series` once on the pool
    /// ([`SweepPool::plan`]) and seeds a record for it from `previous`,
    /// the context's earlier record, whose buffers it takes over: every
    /// score is kept, scored pairs become stale, and unscored pairs stay
    /// unscored. With no previous record every pair is unscored at `0.0`.
    /// Then [`IncrementalSweep::rescore`] runs under `invariants`,
    /// `epsilon` and `scope`. When the pass completes every invariant pair
    /// is fresh or bound, so the violation tuple is exact; every other
    /// pair keeps its seeded score and tag.
    ///
    /// # Panics
    ///
    /// When `previous` does not hold [`pair_count`] scores.
    pub fn cold(
        measure: &Arc<dyn AssociationMeasure>,
        series: Vec<Vec<f64>>,
        previous: Option<IncrementalSweep>,
        invariants: &InvariantSet,
        epsilon: f64,
        pool: &SweepPool,
        scope: &PassScope,
    ) -> (IncrementalSweep, ScreenOutcome) {
        let mut record = match previous {
            Some(mut record) => {
                assert_eq!(
                    record.scores.len(),
                    pair_count(),
                    "wrong score vector length"
                );
                record.mark_stale();
                record.series = series;
                // The old plan goes before the new one is built, so the
                // new profiles can take its memory.
                record.plan = None;
                record
            }
            None => IncrementalSweep {
                series,
                plan: None,
                scores: vec![0.0; pair_count()],
                state: vec![PairState::Unscored; pair_count()],
                pending: Vec::new(),
            },
        };
        record.plan = Some(pool.plan(measure, &record.series, scope));
        let reused = record.list_pending(invariants, epsilon);
        let outcome = record.score_pending(reused, pool, scope);
        (record, outcome)
    }

    /// Detects whether `new_series` is this record's window unchanged or
    /// slid forward by at most [`MAX_SLIDE`] ticks and, if it slid,
    /// absorbs the shift: every profile slides in place (or is rebuilt
    /// from the new window when it cannot take a step), every scored pair
    /// becomes stale, and unscored pairs stay unscored.
    ///
    /// On [`AdvanceOutcome::Unsupported`] nothing has moved: the record
    /// still holds its window, scores and plan.
    pub fn advance(&mut self, new_series: &[Vec<f64>]) -> AdvanceOutcome {
        if new_series.len() != self.series.len() || self.series.is_empty() {
            return AdvanceOutcome::Unsupported;
        }
        let n = self.series[0].len();
        if n == 0
            || self.series.iter().any(|s| s.len() != n)
            || new_series.iter().any(|s| s.len() != n)
        {
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
            return AdvanceOutcome::Unsupported;
        };
        if shift == 0 {
            return AdvanceOutcome::Identical;
        }
        let Some(plan) = self.plan.as_mut().filter(|plan| plan.incremental()) else {
            return AdvanceOutcome::Unsupported;
        };
        for (k, (old, new)) in self.series.iter_mut().zip(new_series).enumerate() {
            plan.slide(k, shift, new);
            old.copy_from_slice(new);
        }
        self.mark_stale();
        AdvanceOutcome::Advanced { shift }
    }

    /// Marks every scored pair stale and leaves unscored pairs unscored:
    /// what a window that moved does to the record's tags.
    fn mark_stale(&mut self) {
        for state in &mut self.state {
            if *state != PairState::Unscored {
                *state = PairState::Stale;
            }
        }
    }

    /// Re-establishes the soundness contract for the current window under
    /// `invariants` and violation threshold `epsilon`.
    ///
    /// Pairs no invariant reads keep their score; fresh pairs are reused;
    /// a bound pair is reused when its invariant's [`Floor`] still clears
    /// the recorded entry. Every other invariant pair goes, in ascending
    /// pair index, to one pool pass ([`SweepPool::score_pairs`]) under
    /// `scope`, carrying its floor when `1 − I < ε`: a cleared pair stores
    /// the clearing kernel entry and becomes bound, any other pair stores
    /// its exact score and becomes fresh. When the scope's deadline or
    /// pair cap stops the pass, the pairs it reached are written all the
    /// same, and the rest are counted in [`ScreenOutcome::unreached`].
    pub fn rescore(
        &mut self,
        invariants: &InvariantSet,
        epsilon: f64,
        pool: &SweepPool,
        scope: &PassScope,
    ) -> ScreenOutcome {
        let reused = self.list_pending(invariants, epsilon);
        self.score_pending(reused, pool, scope)
    }

    /// Lists in `self.pending`, in ascending pair index, every invariant
    /// pair whose recorded score does not settle its tuple entry, with its
    /// floor. Returns how many pairs were settled (or never read).
    fn list_pending(&mut self, invariants: &InvariantSet, epsilon: f64) -> usize {
        let mut reused = 0;
        let entries = invariants.entries();
        self.pending.clear();
        self.pending.reserve(entries.len());
        let mut cursor = 0usize;
        for idx in 0..pair_count() {
            while cursor < entries.len() && entries[cursor].pair < idx {
                cursor += 1;
            }
            let floor = match entries.get(cursor) {
                Some(e) if e.pair == idx => Floor::new(e.value, epsilon),
                // Whatever its tag, the violation tuple never reads a
                // non-invariant pair: the recorded score stays.
                _ => {
                    reused += 1;
                    continue;
                }
            };
            let settled = match self.state[idx] {
                PairState::Fresh => true,
                PairState::Bound => floor.is_some_and(|f| f.clears(self.scores[idx])),
                PairState::Stale | PairState::Unscored => false,
            };
            if settled {
                reused += 1;
            } else {
                self.pending.push(PassPair { pair: idx, floor });
            }
        }
        reused
    }

    /// Scores the pairs in `self.pending` against the record's plan on the
    /// pool and writes the prefix the pass reached into the record:
    /// cleared pairs as bound, the rest as fresh. The plan goes back into
    /// the record.
    fn score_pending(
        &mut self,
        reused: usize,
        pool: &SweepPool,
        scope: &PassScope,
    ) -> ScreenOutcome {
        if self.pending.is_empty() {
            return ScreenOutcome {
                reused,
                ..ScreenOutcome::default()
            };
        }
        let plan = self
            .plan
            .take()
            .expect("a record holds its plan between passes");
        let pass = pool.score_pairs(plan, std::mem::take(&mut self.pending), scope);
        self.plan = Some(pass.plan);
        self.pending = pass.pairs;
        let mut screened = 0;
        for (item, &score) in self.pending[..pass.scored].iter().zip(&pass.scores) {
            let (v, state) = match score {
                Floored::Cleared(v) => {
                    screened += 1;
                    (v, PairState::Bound)
                }
                Floored::Exact(v) => (v, PairState::Fresh),
            };
            self.scores[item.pair] = v;
            self.state[item.pair] = state;
        }
        ScreenOutcome {
            reused,
            screened,
            confirmed: pass.scored - screened,
            unreached: self.pending.len() - pass.scored,
        }
    }

    /// The current per-pair scores as an association matrix. After a
    /// completed [`IncrementalSweep::cold`] or [`IncrementalSweep::rescore`]
    /// it gives the violation tuple a full from-scratch sweep would: every
    /// invariant pair holds its exact score, or a kernel entry `<=` it that
    /// grades the same. Stale pairs hold an earlier window's score, and
    /// unscored pairs `0.0`.
    pub fn matrix(&self) -> AssociationMatrix {
        AssociationMatrix::from_scores(self.scores.clone())
    }

    /// The pairs the violation tuple may read: `Some(mask)`, with
    /// `mask[pair]` false for every pair no pass of this context has
    /// scored, when one of them is an invariant pair
    /// ([`crate::ViolationTuple::build_masked`]); `None` when every
    /// invariant pair has a score.
    pub(crate) fn scored_mask(&self, invariants: &InvariantSet) -> Option<Vec<bool>> {
        invariants
            .entries()
            .iter()
            .any(|e| self.state[e.pair] == PairState::Unscored)
            .then(|| {
                self.state
                    .iter()
                    .map(|&s| s != PairState::Unscored)
                    .collect()
            })
    }

    /// The flat per-pair score cache (see [`IncrementalSweep::matrix`]).
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// How many pairs carry `state`.
    fn count(&self, state: PairState) -> usize {
        self.state.iter().filter(|&&s| s == state).count()
    }
}

impl std::fmt::Debug for IncrementalSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSweep")
            .field("window_ticks", &self.series.first().map(Vec::len))
            .field("bound_pairs", &self.count(PairState::Bound))
            .field("stale_pairs", &self.count(PairState::Stale))
            .field("unscored_pairs", &self.count(PairState::Unscored))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::InvariantEntry;
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

    /// A record of `frame` after a cold pass over every pair under
    /// `epsilon` (`0.0`: no pair has a floor, so every score is exact).
    fn cold_record(pool: &SweepPool, frame: &MetricFrame, epsilon: f64) -> IncrementalSweep {
        let (record, _) = IncrementalSweep::cold(
            &mic(),
            series_of(frame),
            None,
            &all_pairs(frame),
            epsilon,
            pool,
            &PassScope::detached(),
        );
        record
    }

    #[test]
    fn cold_pass_scores_only_the_invariant_pairs() {
        let pool = SweepPool::new(2);
        let base = frame(40, 0);
        let fresh = AssociationMatrix::compute(&base, &MicMeasure::new(MicParams::fast()), 1);
        let every = all_pairs(&base);
        let entries: Vec<_> = every.entries().iter().step_by(3).copied().collect();
        let invariants = InvariantSet::from_entries(entries, 0.2).unwrap();
        // The previous record: every pair of another window scored
        // exactly, so fresh there and stale here.
        let other = frame(40, 100);
        let previous = AssociationMatrix::compute(&other, &MicMeasure::new(MicParams::fast()), 1);
        for (measure, floors) in [
            (mic(), true),
            (
                Arc::new(PearsonMeasure) as Arc<dyn AssociationMeasure>,
                false,
            ),
        ] {
            for epsilon in [0.0, 0.2] {
                let (record, outcome) = IncrementalSweep::cold(
                    &measure,
                    series_of(&base),
                    Some(cold_record(&pool, &other, 0.0)),
                    &invariants,
                    epsilon,
                    &pool,
                    &PassScope::detached(),
                );
                assert_eq!(outcome.reused, pair_count() - invariants.len());
                assert_eq!(outcome.screened + outcome.confirmed, invariants.len());
                assert_eq!(outcome.unreached, 0);
                assert_eq!(outcome.screened, record.count(PairState::Bound));
                // Only MIC stops early, and only when a floor exists.
                assert_eq!(outcome.screened > 0, floors && epsilon > 0.0);
                let want = pool.sweep(&base, &measure, &PassScope::detached());
                for (pair, &seeded) in previous.scores().iter().enumerate() {
                    let (got, exact) = (record.scores()[pair], want.at(pair));
                    match invariants.entries().iter().find(|e| e.pair == pair) {
                        // Every other pair keeps the score it was seeded
                        // with, and stays stale.
                        None => {
                            assert_eq!(got.to_bits(), seeded.to_bits());
                            assert_eq!(record.state[pair], PairState::Stale);
                        }
                        // Invariant pairs carry the exact score, or a
                        // cleared entry below it that grades the same.
                        Some(e) => match record.state[pair] {
                            PairState::Fresh => assert_eq!(got.to_bits(), exact.to_bits()),
                            PairState::Bound => {
                                let floor = Floor::new(e.value, epsilon).expect("a floor");
                                assert!(got <= exact && floor.clears(got) && floor.clears(exact));
                            }
                            PairState::Stale | PairState::Unscored => {
                                panic!("invariant pair {pair} left unsettled")
                            }
                        },
                    }
                }
            }
        }
        // With no previous record, the pairs no invariant reads stay
        // unscored at 0.0, and the scored mask hides them.
        let (record, _) = IncrementalSweep::cold(
            &mic(),
            series_of(&base),
            None,
            &invariants,
            0.2,
            &pool,
            &PassScope::detached(),
        );
        assert_eq!(
            record.count(PairState::Unscored),
            pair_count() - invariants.len()
        );
        assert_eq!(record.scored_mask(&invariants), None);
        assert_eq!(
            record
                .scored_mask(&every)
                .map(|m| m.iter().filter(|&&s| s).count()),
            Some(invariants.len())
        );
        // Every pair an invariant and no floor: the record is a full sweep.
        let full = cold_record(&pool, &base, 0.0);
        assert_eq!(full.count(PairState::Fresh), pair_count());
        assert_eq!(full.matrix(), fresh);
        // With floors some pairs are bound, so it is not.
        assert!(cold_record(&pool, &base, 0.2).count(PairState::Bound) > 0);
    }

    #[test]
    fn a_bound_pair_out_of_reach_of_new_invariants_is_rescored() {
        let pool = SweepPool::new(1);
        let scope = PassScope::detached();
        let base = frame(40, 0);
        let invariants = all_pairs(&base);
        let mut record = cold_record(&pool, &base, 0.2);
        let bound: Vec<usize> = (0..pair_count())
            .filter(|&p| record.state[p] == PairState::Bound)
            .collect();
        assert!(!bound.is_empty());
        // Unchanged window, same invariants: every bound pair is
        // revalidated with no kernel work.
        assert_eq!(record.advance(&series_of(&base)), AdvanceOutcome::Identical);
        assert_eq!(
            record.rescore(&invariants, 0.2, &pool, &scope),
            ScreenOutcome {
                reused: pair_count(),
                ..ScreenOutcome::default()
            }
        );
        // New references put every bound pair out of reach (1 − I >= ε):
        // each is scored again, exactly.
        let entries = invariants
            .entries()
            .iter()
            .map(|e| InvariantEntry {
                value: if bound.contains(&e.pair) {
                    0.5
                } else {
                    e.value
                },
                ..*e
            })
            .collect();
        let lowered = InvariantSet::from_entries(entries, invariants.tau()).unwrap();
        assert_eq!(
            record.rescore(&lowered, 0.2, &pool, &scope),
            ScreenOutcome {
                reused: pair_count() - bound.len(),
                screened: 0,
                confirmed: bound.len(),
                unreached: 0,
            }
        );
        let fresh = AssociationMatrix::compute(&base, &MicMeasure::new(MicParams::fast()), 1);
        for &pair in &bound {
            assert_eq!(record.state[pair], PairState::Fresh);
            assert_eq!(record.scores()[pair].to_bits(), fresh.at(pair).to_bits());
        }
    }

    #[test]
    fn advance_classifies_windows() {
        let pool = SweepPool::new(1);
        let base = frame(40, 0);
        let mut inc = cold_record(&pool, &base, 0.2);
        // Same window: identical, state not consumed.
        assert_eq!(inc.advance(&series_of(&base)), AdvanceOutcome::Identical);
        // One-tick slide: every scored pair is stale.
        assert_eq!(
            inc.advance(&series_of(&frame(40, 1))),
            AdvanceOutcome::Advanced { shift: 1 }
        );
        assert_eq!(inc.count(PairState::Stale), pair_count());
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
    fn an_unsupported_advance_leaves_the_record_whole() {
        let pool = SweepPool::new(1);
        let scope = PassScope::detached();
        let base = frame(40, 0);
        let invariants = all_pairs(&base);
        let scores = |record: &IncrementalSweep| -> Vec<u64> {
            record.scores().iter().map(|v| v.to_bits()).collect()
        };
        // A plan that does not slide recognizes its own window, and
        // refuses a slide without touching the record.
        let pearson: Arc<dyn AssociationMeasure> = Arc::new(PearsonMeasure);
        let (mut record, _) = IncrementalSweep::cold(
            &pearson,
            series_of(&base),
            None,
            &invariants,
            0.2,
            &pool,
            &scope,
        );
        let before = scores(&record);
        assert_eq!(record.advance(&series_of(&base)), AdvanceOutcome::Identical);
        assert_eq!(
            record.advance(&series_of(&frame(40, 1))),
            AdvanceOutcome::Unsupported
        );
        assert_eq!(scores(&record), before);
        assert_eq!(
            record.rescore(&invariants, 0.2, &pool, &scope),
            ScreenOutcome {
                reused: pair_count(),
                ..ScreenOutcome::default()
            }
        );
        // A sliding plan absorbs a slide, which leaves pairs stale; a jump
        // is then refused with the slid window, its stale pairs and its
        // plan intact, so a rescore still settles them against it.
        let mut record = cold_record(&pool, &base, 0.0);
        let next = frame(40, 1);
        assert_eq!(
            record.advance(&series_of(&next)),
            AdvanceOutcome::Advanced { shift: 1 }
        );
        let stale = record.count(PairState::Stale);
        assert!(stale > 0);
        assert_eq!(
            record.advance(&series_of(&frame(40, 100))),
            AdvanceOutcome::Unsupported
        );
        assert_eq!(record.count(PairState::Stale), stale);
        let outcome = record.rescore(&invariants, 0.0, &pool, &scope);
        assert_eq!((outcome.confirmed, outcome.unreached), (stale, 0));
        let want = AssociationMatrix::compute(&next, &MicMeasure::new(MicParams::fast()), 1);
        assert_eq!(record.matrix(), want);
    }

    #[test]
    fn a_pass_cut_short_keeps_the_prefix_it_scored() {
        let pool = SweepPool::new(2);
        let base = frame(40, 0);
        // Every pair is an invariant, so a pass lists pairs 0..325 in
        // order; epsilon 0.0 gives no floors, so every score is exact.
        let invariants = all_pairs(&base);
        let expired = PassScope {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..PassScope::detached()
        };
        let capped = PassScope {
            max_pairs: Some(10),
            ..PassScope::detached()
        };
        let unreached = |n| ScreenOutcome {
            unreached: n,
            ..ScreenOutcome::default()
        };
        // A cold pass that reaches nothing leaves every pair unscored.
        let (record, outcome) = IncrementalSweep::cold(
            &mic(),
            series_of(&base),
            None,
            &invariants,
            0.0,
            &pool,
            &expired,
        );
        assert_eq!(outcome, unreached(pair_count()));
        assert_eq!(record.count(PairState::Unscored), pair_count());
        // A capped cold pass over that record scores exactly the first ten
        // pairs; the rest stay unscored.
        let (mut record, outcome) = IncrementalSweep::cold(
            &mic(),
            series_of(&base),
            Some(record),
            &invariants,
            0.0,
            &pool,
            &capped,
        );
        assert_eq!(
            outcome,
            ScreenOutcome {
                confirmed: 10,
                unreached: pair_count() - 10,
                ..ScreenOutcome::default()
            }
        );
        let full = AssociationMatrix::compute(&base, &MicMeasure::new(MicParams::fast()), 1);
        for pair in 0..pair_count() {
            let (state, score) = if pair < 10 {
                (PairState::Fresh, full.at(pair))
            } else {
                (PairState::Unscored, 0.0)
            };
            assert_eq!(record.state[pair], state, "pair {pair}");
            assert_eq!(record.scores()[pair].to_bits(), score.to_bits());
        }
        assert_eq!(
            record.scored_mask(&invariants),
            Some((0..pair_count()).map(|p| p < 10).collect())
        );
        // A slide makes the scored pairs stale; unscored ones stay so. An
        // expired pass then writes nothing, and the plan survives it.
        let next = frame(40, 1);
        assert_eq!(
            record.advance(&series_of(&next)),
            AdvanceOutcome::Advanced { shift: 1 }
        );
        assert_eq!(record.count(PairState::Stale), 10);
        assert_eq!(record.count(PairState::Unscored), pair_count() - 10);
        let (scores, state) = (record.scores().to_vec(), record.state.clone());
        assert_eq!(
            record.rescore(&invariants, 0.0, &pool, &expired),
            unreached(pair_count())
        );
        assert_eq!(record.scores(), &scores[..]);
        assert_eq!(record.state, state);
        // The next capped pass resumes in pair order: the ten stale pairs.
        assert_eq!(
            record.rescore(&invariants, 0.0, &pool, &capped),
            ScreenOutcome {
                confirmed: 10,
                unreached: pair_count() - 10,
                ..ScreenOutcome::default()
            }
        );
        let fresh = AssociationMatrix::compute(&next, &MicMeasure::new(MicParams::fast()), 1);
        for pair in 0..10 {
            assert_eq!(record.state[pair], PairState::Fresh);
            assert_eq!(record.scores()[pair].to_bits(), fresh.at(pair).to_bits());
        }
        assert_eq!(record.count(PairState::Unscored), pair_count() - 10);
        // An unbounded pass completes the record: a full sweep of `next`.
        let outcome = record.rescore(&invariants, 0.0, &pool, &PassScope::detached());
        assert_eq!(
            (outcome.reused, outcome.confirmed, outcome.unreached),
            (10, pair_count() - 10, 0)
        );
        assert_eq!(record.count(PairState::Fresh), pair_count());
        assert_eq!(record.matrix(), fresh);
    }

    #[test]
    fn incremental_matches_from_scratch_on_invariant_pairs() {
        let pool = SweepPool::new(1);
        let mic_measure = MicMeasure::new(MicParams::fast());
        let base = frame(40, 0);
        // Train invariants on the base window (every pair's band is 0).
        let invariants = all_pairs(&base);
        let epsilon = 0.2;
        let mut inc = cold_record(&pool, &base, epsilon);
        for offset in 1..=6 {
            let next = frame(40, offset);
            assert_eq!(
                inc.advance(&series_of(&next)),
                AdvanceOutcome::Advanced { shift: 1 }
            );
            let outcome = inc.rescore(&invariants, epsilon, &pool, &PassScope::detached());
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
            // Fresh pairs are bit-identical scores; bound pairs may hold
            // a cleared entry below the exact score.
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
        // With epsilon = 0 no pair has a floor (the strict inequality
        // `1 - I < 0` never holds), so every stale or bound invariant pair
        // must be scored exactly — the no-false-negative property at its
        // sharpest.
        let pool = SweepPool::new(1);
        let base = frame(40, 0);
        let invariants = all_pairs(&base);
        let mut inc = cold_record(&pool, &base, 0.2);
        let next = frame(40, 1);
        assert_eq!(
            inc.advance(&series_of(&next)),
            AdvanceOutcome::Advanced { shift: 1 }
        );
        let outcome = inc.rescore(&invariants, 0.0, &pool, &PassScope::detached());
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
