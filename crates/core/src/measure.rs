//! Pluggable pairwise association measures.
//!
//! InvarNet-X proper scores metric pairs with MIC; the paper's baseline
//! comparison "use[s] ARX instead of MIC to implement the invariant
//! construction", so the whole invariant/signature machinery is generic
//! over this trait.

use std::cell::Cell;
use std::sync::{Arc, Mutex};

use ix_arx::ArxSearch;
pub use ix_mic::Floored;
use ix_mic::{mic_floor_scratch, mic_with_profiles_scratch, MicParams, MineScratch, SeriesProfile};
use ix_timeseries::pearson;

use crate::assoc::SweepPool;

/// Per-sweep shared preprocessing of all metric series, produced by
/// [`AssociationMeasure::prepare`]. A plan owns whatever a measure can
/// amortize across the sweep's pairs (for MIC: one [`SeriesProfile`] per
/// series); workers then pull per-thread [`PairScorer`]s from it.
///
/// Plans that report [`SweepPlan::incremental`] additionally slide in
/// place: [`SweepPlan::slide`] moves one series forward a few ticks,
/// leaving the plan exactly as if it had been prepared from the slid
/// window.
#[must_use = "a SweepPlan holds the sweep's amortized preprocessing; dropping it redoes that work"]
pub trait SweepPlan: Send + Sync {
    /// A scorer with its own mutable scratch. Each sweep worker takes one,
    /// so scoring needs no locking.
    fn scorer(&self) -> Box<dyn PairScorer + '_>;

    /// Whether this plan slides in place via [`SweepPlan::slide`].
    /// Defaults to `false` (plans are immutable per-sweep snapshots).
    fn incremental(&self) -> bool {
        false
    }

    /// Slides series `index` forward by `shift` ticks to `window`, its new
    /// window: the series loses its first `shift` samples and gains the
    /// last `shift` of `window`. Implementations must leave series `index`
    /// exactly as if the plan had been prepared from `window`. Called only
    /// on plans that report [`SweepPlan::incremental`]; the default does
    /// nothing.
    fn slide(&mut self, index: usize, shift: usize, window: &[f64]) {
        let _ = (index, shift, window);
    }
}

/// Scores pairs by series index against a [`SweepPlan`]'s shared state,
/// carrying per-worker scratch so the hot loop does not allocate.
pub trait PairScorer {
    /// The association score of series `a` versus series `b` (indices into
    /// the series slice the plan was prepared from).
    fn score_pair(&mut self, a: usize, b: usize) -> f64;

    /// Scores the pair only until `floor` provably holds: a measure whose
    /// score is a maximum may stop at the first lower bound `v` with
    /// `floor.clears(v)` and return [`Floored::Cleared`]`(v)`, where `v`
    /// is `<=` the exact score. The default scores exactly, as
    /// [`PairScorer::score_pair`] does.
    fn score_floored(&mut self, a: usize, b: usize, floor: Floor) -> Floored {
        let _ = floor;
        Floored::Exact(self.score_pair(a, b))
    }
}

/// The question a diagnosis asks of one invariant pair whose reference is
/// within reach of a lower bound: does the window's score grade to zero
/// deviation? A `Floor` exists only when `1 − I < ε`; then every score `v`
/// with `|I − v| < ε`, and every score above it, grades to `0.0` in the
/// violation tuple (which flags `|I − A| >= ε`), so a lower bound that
/// clears settles the pair's tuple entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floor {
    reference: f64,
    epsilon: f64,
}

impl Floor {
    /// The floor of an invariant with reference `reference` under
    /// violation threshold `epsilon`, or `None` when `1 − I >= ε`: no
    /// score can then be proven held from below.
    pub fn new(reference: f64, epsilon: f64) -> Option<Floor> {
        (1.0 - reference < epsilon).then_some(Floor { reference, epsilon })
    }

    /// Whether score `v` grades to zero deviation: the negation of the
    /// violation tuple's own test on `(I − v).abs()`.
    pub fn clears(self, v: f64) -> bool {
        (self.reference - v).abs() < self.epsilon
    }
}

/// A symmetric association score between two metric series, in `[0, 1]`.
pub trait AssociationMeasure: Send + Sync {
    /// The association score of the pair. Implementations return `0.0` for
    /// degenerate inputs (constant series, too few points) rather than
    /// erroring — "no measurable association".
    fn score(&self, x: &[f64], y: &[f64]) -> f64;

    /// Short human-readable name ("MIC", "ARX", ...).
    fn name(&self) -> &'static str;

    /// Per-sweep preprocessing shared across all pairs of `series`.
    /// Measures with nothing to amortize return `None` (the default) and
    /// are scored through [`AssociationMeasure::score`] directly. Any plan
    /// returned MUST score bit-identically to `score` on the same series.
    fn prepare(&self, series: &[Vec<f64>]) -> Option<Box<dyn SweepPlan>> {
        let _ = series;
        None
    }

    /// [`AssociationMeasure::prepare`] with a worker pool available for
    /// parallelizing the per-series preprocessing itself. The default
    /// ignores the pool; any override MUST produce a plan bit-identical to
    /// `prepare` on the same series.
    fn prepare_on(&self, series: &[Vec<f64>], pool: &SweepPool) -> Option<Box<dyn SweepPlan>> {
        let _ = pool;
        self.prepare(series)
    }
}

/// `true` when every sample equals the first — the measure-independent
/// "no association" fast path.
fn is_constant(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] == w[1])
}

/// The plan of a measure with nothing to amortize: it keeps the window and
/// scores each pair through [`AssociationMeasure::score`], so every
/// measure runs through the pool's one pair-scoring loop.
pub(crate) struct DirectPlan {
    measure: Arc<dyn AssociationMeasure>,
    series: Vec<Vec<f64>>,
}

impl DirectPlan {
    pub(crate) fn new(measure: Arc<dyn AssociationMeasure>, series: Vec<Vec<f64>>) -> Self {
        DirectPlan { measure, series }
    }
}

impl SweepPlan for DirectPlan {
    fn scorer(&self) -> Box<dyn PairScorer + '_> {
        Box::new(DirectScorer(self))
    }
}

/// Scores pairs of a [`DirectPlan`]'s window with its measure.
struct DirectScorer<'p>(&'p DirectPlan);

impl PairScorer for DirectScorer<'_> {
    fn score_pair(&mut self, a: usize, b: usize) -> f64 {
        let plan = self.0;
        plan.measure.score(&plan.series[a], &plan.series[b])
    }
}

/// The Maximal Information Coefficient measure (InvarNet-X proper).
#[derive(Debug, Clone, Default)]
pub struct MicMeasure {
    /// MINE parameters.
    pub params: MicParams,
}

impl MicMeasure {
    /// A measure with explicit parameters.
    pub fn new(params: MicParams) -> Self {
        MicMeasure { params }
    }
}

impl AssociationMeasure for MicMeasure {
    fn score(&self, x: &[f64], y: &[f64]) -> f64 {
        // Degenerate inputs score exactly 0.0 without entering the kernel:
        // the kernel errors on short/mismatched input (mapped to 0.0 below)
        // and provably returns 0.0 for a constant axis (a single row or
        // column carries no information).
        if x.len() != y.len() || x.len() < 4 || is_constant(x) || is_constant(y) {
            return 0.0;
        }
        ix_mic::mic_with_params(x, y, &self.params).unwrap_or(0.0)
    }

    fn name(&self) -> &'static str {
        "MIC"
    }

    fn prepare(&self, series: &[Vec<f64>]) -> Option<Box<dyn SweepPlan>> {
        // A series the kernel would reject (too short; a frame is finite by
        // construction) gets a `None` slot and scores 0.0 against every
        // partner — exactly what `score`'s error path yields.
        let profiles = series
            .iter()
            .map(|s| SeriesProfile::build(s, &self.params).ok())
            .collect();
        Some(Box::new(MicSweepPlan {
            params: self.params,
            profiles,
        }))
    }

    fn prepare_on(&self, series: &[Vec<f64>], pool: &SweepPool) -> Option<Box<dyn SweepPlan>> {
        // Profile construction dominates warm-cache sweep cost and is
        // embarrassingly parallel (one independent profile per series), so
        // scatter it across the pool's workers. Each slot is written by
        // exactly one worker; output is bit-identical to `prepare`.
        let shared: Arc<Vec<Vec<f64>>> = Arc::new(series.to_vec());
        let slots: Arc<Vec<Mutex<Option<SeriesProfile>>>> =
            Arc::new(series.iter().map(|_| Mutex::new(None)).collect());
        let params = self.params;
        let task = {
            let shared = Arc::clone(&shared);
            let slots = Arc::clone(&slots);
            Arc::new(move |i: usize| {
                let profile = SeriesProfile::build(&shared[i], &params).ok();
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = profile;
                }
            })
        };
        pool.scatter(series.len(), task);
        let profiles = slots
            .iter()
            .map(|slot| slot.lock().map(|mut guard| guard.take()).unwrap_or(None))
            .collect();
        Some(Box::new(MicSweepPlan {
            params: self.params,
            profiles,
        }))
    }
}

thread_local! {
    /// The kernel scratch of this thread's last MIC scorer. A scorer takes
    /// it on creation and puts it back on drop, so a pool worker reuses
    /// buffers already grown to its windows' size across passes instead
    /// of regrowing them on every diagnosis.
    static SCRATCH: Cell<Option<MineScratch>> = const { Cell::new(None) };
}

/// The shared half of a MIC sweep: one profile per series.
struct MicSweepPlan {
    params: MicParams,
    profiles: Vec<Option<SeriesProfile>>,
}

impl SweepPlan for MicSweepPlan {
    fn scorer(&self) -> Box<dyn PairScorer + '_> {
        Box::new(MicScorer {
            plan: self,
            scratch: SCRATCH
                .try_with(Cell::take)
                .ok()
                .flatten()
                .unwrap_or_default(),
        })
    }

    fn incremental(&self) -> bool {
        true
    }

    fn slide(&mut self, index: usize, shift: usize, window: &[f64]) {
        let Some(slot) = self.profiles.get_mut(index) else {
            return;
        };
        let entering = &window[window.len().saturating_sub(shift)..];
        let absorbed = slot
            .as_mut()
            .is_some_and(|profile| entering.iter().all(|&v| profile.slide(v).is_ok()));
        // A non-finite entering sample, or a series with no profile: build
        // from the new window, which lands on the same slot a fresh
        // `prepare` would.
        if !absorbed {
            *slot = SeriesProfile::build(window, &self.params).ok();
        }
    }
}

/// Per-worker MIC scorer: borrows the shared profiles, holds its thread's
/// scratch.
#[must_use = "a MicScorer holds its thread's kernel scratch until dropped"]
struct MicScorer<'p> {
    plan: &'p MicSweepPlan,
    scratch: MineScratch,
}

impl Drop for MicScorer<'_> {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        // A scorer dropped while its thread exits has no slot to return to.
        let _ = SCRATCH.try_with(|slot| slot.set(Some(scratch)));
    }
}

impl PairScorer for MicScorer<'_> {
    fn score_pair(&mut self, a: usize, b: usize) -> f64 {
        match (&self.plan.profiles[a], &self.plan.profiles[b]) {
            (Some(xp), Some(yp)) => {
                mic_with_profiles_scratch(xp, yp, &self.plan.params, &mut self.scratch)
                    .unwrap_or(0.0)
            }
            _ => 0.0,
        }
    }

    fn score_floored(&mut self, a: usize, b: usize, floor: Floor) -> Floored {
        match (&self.plan.profiles[a], &self.plan.profiles[b]) {
            (Some(xp), Some(yp)) => mic_floor_scratch(
                xp,
                yp,
                &self.plan.params,
                |v| floor.clears(v),
                &mut self.scratch,
            )
            .unwrap_or(Floored::Exact(0.0)),
            // A missing profile scores exactly 0.0.
            _ => Floored::Exact(0.0),
        }
    }
}

/// The ARX fitness measure (Jiang et al. baseline).
#[derive(Debug, Clone, Default)]
pub struct ArxMeasure {
    /// Order-search ranges.
    pub search: ArxSearch,
}

impl ArxMeasure {
    /// A measure with explicit search ranges.
    pub fn new(search: ArxSearch) -> Self {
        ArxMeasure { search }
    }
}

impl AssociationMeasure for ArxMeasure {
    fn score(&self, x: &[f64], y: &[f64]) -> f64 {
        ix_arx::arx_association(x, y, self.search)
    }

    fn name(&self) -> &'static str {
        "ARX"
    }
}

/// Absolute Pearson correlation — a cheap linear reference measure, useful
/// in ablations and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct PearsonMeasure;

impl AssociationMeasure for PearsonMeasure {
    fn score(&self, x: &[f64], y: &[f64]) -> f64 {
        // Same degenerate-input policy as MIC: fewer than four samples or a
        // constant axis is "no measurable association", scored 0.0 without
        // touching the kernel (a constant axis has zero variance, so the
        // correlation would come back 0.0 anyway).
        if x.len() != y.len() || x.len() < 4 || is_constant(x) || is_constant(y) {
            return 0.0;
        }
        pearson(x, y).abs()
    }

    fn name(&self) -> &'static str {
        "Pearson"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        (x, y)
    }

    #[test]
    fn all_measures_score_linear_high() {
        let (x, y) = linear(120);
        for m in [
            &MicMeasure::default() as &dyn AssociationMeasure,
            &ArxMeasure::default(),
            &PearsonMeasure,
        ] {
            let s = m.score(&x, &y);
            assert!(s > 0.95, "{} scored {s}", m.name());
        }
    }

    #[test]
    fn measures_handle_degenerate_input() {
        let x = vec![1.0; 50];
        let y: Vec<f64> = (0..50).map(f64::from).collect();
        for m in [
            &MicMeasure::default() as &dyn AssociationMeasure,
            &ArxMeasure::default(),
            &PearsonMeasure,
        ] {
            let s = m.score(&x, &y);
            assert!(s.is_finite() && (0.0..=1.0).contains(&s), "{}", m.name());
        }
        // Truly tiny input must not panic either.
        assert_eq!(PearsonMeasure.score(&[1.0], &[2.0]), 0.0);
        assert_eq!(MicMeasure::default().score(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn mic_beats_arx_on_non_monotone_relation() {
        // The paper's core argument for MIC: nonlinearity. An iid input
        // through a non-monotone map defeats linear ARX but not MIC.
        let mut state = 9u64;
        let x: Vec<f64> = (0..300)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|v| (6.0 * v).cos()).collect();
        let mic = MicMeasure::default().score(&x, &y);
        let arx = ArxMeasure::default().score(&x, &y);
        assert!(mic > arx + 0.2, "mic {mic} vs arx {arx}");
    }

    #[test]
    fn names() {
        assert_eq!(MicMeasure::default().name(), "MIC");
        assert_eq!(ArxMeasure::default().name(), "ARX");
        assert_eq!(PearsonMeasure.name(), "Pearson");
    }

    #[test]
    fn degenerate_inputs_short_circuit_to_zero() {
        let short = [1.0, 2.0, 3.0];
        let constant = vec![5.0; 30];
        let ramp: Vec<f64> = (0..30).map(f64::from).collect();
        for m in [
            &MicMeasure::default() as &dyn AssociationMeasure,
            &PearsonMeasure,
        ] {
            assert_eq!(m.score(&short, &short), 0.0, "{}: n < 4", m.name());
            assert_eq!(m.score(&constant, &ramp), 0.0, "{}: constant x", m.name());
            assert_eq!(m.score(&ramp, &constant), 0.0, "{}: constant y", m.name());
            assert_eq!(m.score(&ramp, &ramp[..20]), 0.0, "{}: mismatch", m.name());
        }
    }

    #[test]
    fn mic_plan_scores_bit_identical_to_direct() {
        let mut series: Vec<Vec<f64>> = (0..4)
            .map(|k| {
                (0..40)
                    .map(|t| ((t * (k + 1)) as f64 * 0.37).sin() * 10.0)
                    .collect()
            })
            .collect();
        series.push(vec![3.0; 40]);
        let measure = MicMeasure::default();
        let plan = measure.prepare(&series).expect("MIC always plans");
        let mut scorer = plan.scorer();
        for i in 0..series.len() {
            for j in 0..series.len() {
                if i == j {
                    continue;
                }
                let direct = measure.score(&series[i], &series[j]);
                let planned = scorer.score_pair(i, j);
                assert_eq!(planned.to_bits(), direct.to_bits(), "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn default_measures_do_not_plan() {
        let series = vec![vec![1.0, 2.0, 3.0, 4.0]; 2];
        assert!(ArxMeasure::default().prepare(&series).is_none());
        assert!(PearsonMeasure.prepare(&series).is_none());
    }
}
