//! The MINE driver: characteristic matrix, MIC and companion statistics.
//!
//! Since the shared-profile sweep optimization, all entry points funnel into
//! one profiled kernel: [`SeriesProfile`] hoists per-series preprocessing
//! (sorting, tie groups, equipartitions) out of the pair loop, and
//! [`MineScratch`] holds every buffer the kernel needs so steady-state
//! sweeps allocate nothing per pair. The classic allocating entry points
//! ([`mic`], [`mine`], [`characteristic_matrix`]) are thin wrappers that
//! build two profiles and a scratch on the fly — same public API, same
//! scores bit-for-bit. [`mic_floor_scratch`] runs the same kernel one unit
//! at a time for callers that only need to know whether MIC clears a
//! floor.

use std::fmt;

use crate::grid::ClumpScratch;
use crate::optimize::{optimize_axis_into, DpScratch};
use crate::profile::{MineScratch, SeriesProfile};

/// Errors produced by MINE computations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MicError {
    /// The two input slices have different lengths.
    LengthMismatch {
        /// Length of the x slice.
        xs: usize,
        /// Length of the y slice.
        ys: usize,
    },
    /// Fewer than four points — no 2x2 grid is meaningful.
    TooFewPoints {
        /// Points supplied.
        got: usize,
    },
    /// A sample was NaN or infinite.
    NonFinite,
    /// Parameters out of range (`alpha` must be in `(0, 1]`, `c >= 1`).
    BadParams,
}

impl fmt::Display for MicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MicError::LengthMismatch { xs, ys } => {
                write!(f, "length mismatch: xs has {xs} samples, ys has {ys}")
            }
            MicError::TooFewPoints { got } => {
                write!(f, "need at least 4 points for MIC, got {got}")
            }
            MicError::NonFinite => write!(f, "samples must be finite"),
            MicError::BadParams => write!(f, "alpha must be in (0,1] and c >= 1"),
        }
    }
}

impl std::error::Error for MicError {}

/// MINE tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicParams {
    /// Grid budget exponent: `B(n) = n^alpha`. Reshef et al. default: 0.6.
    pub alpha: f64,
    /// Superclump factor: at most `c * x` clumps when optimizing `x`
    /// columns. Reshef et al. default: 15.
    pub c: f64,
}

impl Default for MicParams {
    fn default() -> Self {
        MicParams {
            alpha: 0.6,
            c: 15.0,
        }
    }
}

impl MicParams {
    /// A cheaper preset (smaller grids, fewer superclumps) for large batch
    /// scans where per-pair cost matters more than the last digit of
    /// accuracy — InvarNet-X's pairwise invariant construction uses this.
    pub fn fast() -> Self {
        MicParams {
            alpha: 0.55,
            c: 5.0,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), MicError> {
        if self.alpha > 0.0 && self.alpha <= 1.0 && self.c >= 1.0 {
            Ok(())
        } else {
            Err(MicError::BadParams)
        }
    }
}

/// The normalized characteristic matrix `M(x, y)` for all grid shapes
/// `x * y <= B`, plus the statistics MINE derives from it.
#[derive(Debug, Clone)]
pub struct CharacteristicMatrix {
    /// `entries[(x, y)]` = normalized maximal MI for an x-by-y grid, stored
    /// sparsely as `(x, y, value)` with `x, y >= 2`.
    entries: Vec<(usize, usize, f64)>,
}

impl CharacteristicMatrix {
    /// The grid shapes and values present.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Largest normalized entry = MIC.
    pub fn mic(&self) -> f64 {
        self.entries
            .iter()
            .map(|&(_, _, v)| v)
            .fold(0.0, f64::max)
            .clamp(0.0, 1.0)
    }
}

/// The MINE statistics family of a point set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MineStats {
    /// Maximal Information Coefficient, in `[0, 1]`.
    pub mic: f64,
    /// Maximum Asymmetry Score — large for non-monotone relationships.
    pub mas: f64,
    /// Maximum Edge Value — closeness to being a function of one variable.
    pub mev: f64,
    /// Minimum Cell Number — `log2` of the smallest grid achieving MIC.
    pub mcn: f64,
    /// Total Information Coefficient — the mean of the characteristic
    /// matrix. Less sensitive to grid-size noise than the max, useful as a
    /// dependence screen (Reshef et al., 2016).
    pub tic: f64,
}

/// MIC with default parameters (`alpha = 0.6`, `c = 15`).
///
/// # Errors
///
/// See [`MicError`].
pub fn mic(xs: &[f64], ys: &[f64]) -> Result<f64, MicError> {
    mic_with_params(xs, ys, &MicParams::default())
}

/// MIC with explicit parameters.
///
/// # Errors
///
/// See [`MicError`].
pub fn mic_with_params(xs: &[f64], ys: &[f64], params: &MicParams) -> Result<f64, MicError> {
    Ok(mine(xs, ys, params)?.mic)
}

/// MIC from two prebuilt [`SeriesProfile`]s, allocating a fresh scratch.
/// Bit-identical to [`mic_with_params`] on the same samples; the profiles
/// amortize per-series preprocessing across all of a series' pairs.
///
/// # Errors
///
/// [`MicError::BadParams`] when either profile was built under different
/// parameters, [`MicError::LengthMismatch`] when the profiles cover a
/// different number of samples.
pub fn mic_with_profiles(
    xp: &SeriesProfile,
    yp: &SeriesProfile,
    params: &MicParams,
) -> Result<f64, MicError> {
    mic_with_profiles_scratch(xp, yp, params, &mut MineScratch::new())
}

/// [`mic_with_profiles`] reusing a caller-held [`MineScratch`]: zero
/// allocations per pair once the scratch is warm. This is
/// [`mic_floor_scratch`] with a predicate that never clears.
///
/// # Errors
///
/// See [`mic_with_profiles`].
pub fn mic_with_profiles_scratch(
    xp: &SeriesProfile,
    yp: &SeriesProfile,
    params: &MicParams,
    scratch: &mut MineScratch,
) -> Result<f64, MicError> {
    mic_floor_scratch(xp, yp, params, |_| false, scratch).map(Floored::value)
}

/// What [`mic_floor_scratch`] returns: a kernel entry that satisfied the
/// caller's predicate, or the exact MIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Floored {
    /// The best entry computed when the predicate first held. It is one
    /// member of the set MIC maximizes over, so it is `<=` the exact MIC
    /// at the bit level.
    Cleared(f64),
    /// The exact MIC: no entry satisfied the predicate.
    Exact(f64),
}

impl Floored {
    /// The carried score, cleared or exact.
    pub fn value(self) -> f64 {
        match self {
            Floored::Cleared(v) | Floored::Exact(v) => v,
        }
    }
}

/// The MIC kernel run one *unit* at a time, stopping as soon as a computed
/// entry satisfies `clears`.
///
/// A unit is one row count in one orientation: one equipartition, one
/// clump rebuild and one dynamic program, which give the characteristic
/// entries for every column count at that row count. Units run rows 2 in
/// the first orientation, rows 2 in the second, then rows 3, and so on.
/// After each unit, when the best entry so far `v` satisfies `clears(v)`,
/// the kernel returns [`Floored::Cleared`]`(v)`; otherwise it finishes
/// every unit and returns [`Floored::Exact`] with the same bits as the
/// full kernel (the entry set is the same, and max does not depend on
/// order).
///
/// Every entry is a lower bound on MIC, so a caller whose question is
/// "is MIC at least this high?" gets its answer from the first entry
/// that clears — for a predicate monotone in `v`, exactly when the exact
/// MIC would clear it.
///
/// # Errors
///
/// See [`mic_with_profiles`].
pub fn mic_floor_scratch(
    xp: &SeriesProfile,
    yp: &SeriesProfile,
    params: &MicParams,
    clears: impl Fn(f64) -> bool,
    scratch: &mut MineScratch,
) -> Result<Floored, MicError> {
    params.validate()?;
    if xp.params() != params || yp.params() != params {
        return Err(MicError::BadParams);
    }
    if xp.len() != yp.len() {
        return Err(MicError::LengthMismatch {
            xs: xp.len(),
            ys: yp.len(),
        });
    }
    // A constant axis admits only one row/column: every grid carries zero
    // information, exactly what the full kernel would compute.
    if xp.is_constant() || yp.is_constant() {
        return Ok(Floored::Exact(0.0));
    }
    let b = xp.grid_budget();
    let MineScratch {
        sorted_rows,
        clumps,
        dp,
        ..
    } = scratch;
    // The shape sets of the two orientations are mutually transposed-complete
    // (x*y <= B is symmetric), so the max over the symmetrized matrix equals
    // the max over both halves — no per-shape pairing needed on the hot path.
    let mut best = 0.0f64;
    for rows in 2..=(b / 2).max(2) {
        for (a, partitioned) in [(xp, yp), (yp, xp)] {
            if !unit_into(a, partitioned, rows, b, params.c, sorted_rows, clumps, dp) {
                return Ok(Floored::Exact(best.clamp(0.0, 1.0)));
            }
            best = dp
                .mi
                .iter()
                .enumerate()
                .map(|(idx, &i_val)| entry(i_val, idx + 2, rows))
                .fold(best, f64::max);
            if clears(best) {
                return Ok(Floored::Cleared(best));
            }
        }
    }
    Ok(Floored::Exact(best.clamp(0.0, 1.0)))
}

/// A conservative lower bound on the MIC of a profiled pair: the
/// characteristic matrix's `(2, 2)` entry, taken over both orientations.
///
/// The bound is computed with the *kernel's own* machinery — the same
/// `rows = 2` equipartition, the same clump decomposition under the same
/// superclump cap, and the same two-column minimization the dynamic program
/// performs for `l = 2` — so the returned value is bit-identical to one
/// entry of the set [`mic_with_profiles_scratch`] maximizes over. That
/// makes `bound <= mic` exact at the bit level, not merely up to rounding:
/// a screen that drops a pair because `[bound, 1]` cannot cross a
/// threshold can never disagree with the full kernel.
///
/// Cost is `O(c * B(n) + n)` per pair (one clump rebuild and a linear scan
/// over column splits) versus the full kernel's `O(B(n)^2)`-ish dynamic
/// program over every grid shape — roughly two orders of magnitude cheaper
/// at sweep sizes.
///
/// A bare Pearson screen was considered and rejected: no finite-sample
/// inequality ties `|r|` to MIC, so any Pearson threshold either misses
/// violations (unsound) or needs a slack term wide enough to screen
/// nothing. The `(2, 2)` entry is the cheapest member of MIC's own maximized
/// family, which is the only way to get a sound bound for free.
///
/// # Errors
///
/// [`MicError::BadParams`] when either profile was built under different
/// parameters, [`MicError::LengthMismatch`] when the profiles cover a
/// different number of samples — the same contract as
/// [`mic_with_profiles_scratch`].
pub fn mic_screen_bound_scratch(
    xp: &SeriesProfile,
    yp: &SeriesProfile,
    params: &MicParams,
    scratch: &mut MineScratch,
) -> Result<f64, MicError> {
    params.validate()?;
    if xp.params() != params || yp.params() != params {
        return Err(MicError::BadParams);
    }
    if xp.len() != yp.len() {
        return Err(MicError::LengthMismatch {
            xs: xp.len(),
            ys: yp.len(),
        });
    }
    // Mirrors the full kernel: a constant axis scores exactly zero.
    if xp.is_constant() || yp.is_constant() {
        return Ok(0.0);
    }
    let b = xp.grid_budget();
    let MineScratch {
        sorted_rows,
        clumps,
        ..
    } = scratch;
    let e1 = corner_entry_into(xp, yp, b, params.c, sorted_rows, clumps);
    let e2 = corner_entry_into(yp, xp, b, params.c, sorted_rows, clumps);
    Ok(e1.max(e2).clamp(0.0, 1.0))
}

/// The `(cols = 2, rows = 2)` half-characteristic entry for one orientation,
/// bit-identical to what [`half_characteristic_into`] pushes for that shape.
///
/// Every step reproduces the `rows = 2` iteration of the full kernel: same
/// partition, same `sorted_rows` mapping, same superclump cap, and the
/// `l = 2` slice of the dynamic program collapsed to its closed form
/// `min(cost(0, k), min_t cost(0, t) + cost(t, k))` — the DP's
/// `best_full[1].min(best_full[2])` without materializing the cost
/// triangle.
fn corner_entry_into(
    xp: &SeriesProfile,
    yp: &SeriesProfile,
    b: usize,
    c: f64,
    sorted_rows: &mut Vec<usize>,
    clumps: &mut ClumpScratch,
) -> f64 {
    let rows = 2usize;
    let x_max = b / rows;
    if x_max < 2 {
        return 0.0;
    }
    let part = yp.partition(rows);
    sorted_rows.clear();
    sorted_rows.extend(xp.order().iter().map(|&i| part.assignment[i]));
    let max_clumps = ((c * x_max as f64).ceil() as usize).max(1);
    clumps.rebuild(xp.groups(), sorted_rows, part.bins.max(1), max_clumps);
    let view = clumps.view();
    let k = view.len();
    let n = view.points();
    let h_q = crate::entropy::entropy_from_counts(view.row_totals());
    // The same degenerate guards as `optimize_axis_into`: any of these makes
    // every entry of the orientation zero.
    if k < 2 || n == 0 || view.n_rows() < 2 || h_q == 0.0 {
        return 0.0;
    }
    let mut best = view.cost(0, k);
    for t in 1..k {
        let v = view.cost(0, t) + view.cost(t, k);
        if v < best {
            best = v;
        }
    }
    let mi = (h_q - best / n as f64).max(0.0);
    // denom = log2(min(cols, rows)) = log2(2) = 1.0, so normalization is the
    // identity for this shape.
    mi.clamp(0.0, 1.0)
}

/// Full MINE statistics.
///
/// # Errors
///
/// See [`MicError`].
pub fn mine(xs: &[f64], ys: &[f64], params: &MicParams) -> Result<MineStats, MicError> {
    // Validation order (params, lengths, count, finiteness) is part of the
    // public contract; profile construction would report count first.
    params.validate()?;
    if xs.len() != ys.len() {
        return Err(MicError::LengthMismatch {
            xs: xs.len(),
            ys: ys.len(),
        });
    }
    let n = xs.len();
    if n < 4 {
        return Err(MicError::TooFewPoints { got: n });
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return Err(MicError::NonFinite);
    }

    let mut scratch = MineScratch::new();
    let (xp, yp) = (
        SeriesProfile::build(xs, params)?,
        SeriesProfile::build(ys, params)?,
    );
    half_halves(&xp, &yp, params.c, &mut scratch);
    let (d1, d2) = (&scratch.d1, &scratch.d2);

    let entries = symmetrize(d1, d2);
    let mut mic_val = 0.0f64;
    let mut mcn_grid = usize::MAX;
    let mut mev = 0.0f64;
    let mut mas = 0.0f64;
    let tic = if entries.is_empty() {
        0.0
    } else {
        entries.iter().map(|&(_, _, v)| v).sum::<f64>() / entries.len() as f64
    };
    let d1_map: std::collections::HashMap<(usize, usize), f64> =
        d1.iter().map(|&(x, y, v)| ((x, y), v)).collect();
    for &(x, y, v) in &entries {
        if v > mic_val {
            mic_val = v;
        }
        if x == 2 || y == 2 {
            mev = mev.max(v);
        }
        // MAS compares the two orientations of the same shape within one
        // half-characteristic matrix — nonzero for non-monotone relations.
        if let (Some(&a), Some(&b)) = (d1_map.get(&(x, y)), d1_map.get(&(y, x))) {
            mas = mas.max((a - b).abs());
        }
    }
    for &(x, y, v) in &entries {
        if v >= mic_val - 1e-12 {
            mcn_grid = mcn_grid.min(x * y);
        }
    }
    let mcn = if mcn_grid == usize::MAX {
        2.0
    } else {
        (mcn_grid as f64).log2()
    };
    Ok(MineStats {
        mic: mic_val.clamp(0.0, 1.0),
        mas: mas.clamp(0.0, 1.0),
        mev: mev.clamp(0.0, 1.0),
        mcn,
        tic: tic.clamp(0.0, 1.0),
    })
}

/// The MICe estimator of Reshef et al. 2016 (*Measuring Dependence
/// Powerfully and Equitably*): the characteristic matrix is restricted to
/// grids whose **denser axis is equipartitioned** — shape `(x, y)` with
/// `x <= y` takes the y-axis equipartition and optimizes only the x-axis.
/// This makes the statistic a consistent estimator of the population MIC
/// and considerably cheaper than the exhaustive search.
///
/// # Errors
///
/// See [`MicError`].
pub fn mic_e(xs: &[f64], ys: &[f64], params: &MicParams) -> Result<f64, MicError> {
    params.validate()?;
    if xs.len() != ys.len() {
        return Err(MicError::LengthMismatch {
            xs: xs.len(),
            ys: ys.len(),
        });
    }
    let n = xs.len();
    if n < 4 {
        return Err(MicError::TooFewPoints { got: n });
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return Err(MicError::NonFinite);
    }
    let mut scratch = MineScratch::new();
    let (xp, yp) = (
        SeriesProfile::build(xs, params)?,
        SeriesProfile::build(ys, params)?,
    );
    // Orientation 1 optimizes columns over xs given equipartitioned ys; its
    // (cols, rows) entries with cols <= rows satisfy the MICe restriction.
    // Orientation 2 covers the shapes whose denser axis is x.
    half_halves(&xp, &yp, params.c, &mut scratch);
    let best = scratch
        .d1
        .iter()
        .chain(&scratch.d2)
        .filter(|&&(cols, rows, _)| cols <= rows)
        .map(|&(_, _, v)| v)
        .fold(0.0f64, f64::max);
    Ok(best.clamp(0.0, 1.0))
}

/// Fills `scratch.d1`/`scratch.d2` with the two half-characteristic
/// orientations of a profiled pair.
fn half_halves(xp: &SeriesProfile, yp: &SeriesProfile, c: f64, scratch: &mut MineScratch) {
    let b = xp.grid_budget();
    let MineScratch {
        sorted_rows,
        clumps,
        dp,
        d1,
        d2,
    } = scratch;
    half_characteristic_into(xp, yp, b, c, sorted_rows, clumps, dp, d1);
    half_characteristic_into(yp, xp, b, c, sorted_rows, clumps, dp, d2);
}

/// Computes the characteristic matrix holding for every shape `(cols, rows)`
/// with `cols * rows <= b` the normalized maximal MI when the `yp` axis is
/// equipartitioned into `rows` and the `xp` axis is optimized into `cols`.
///
/// Entries land in `out` sorted by `(cols, rows)` so the two orientations
/// align. All working memory comes from the caller; nothing is allocated
/// once the buffers are warm.
#[allow(clippy::too_many_arguments)]
fn half_characteristic_into(
    xp: &SeriesProfile,
    yp: &SeriesProfile,
    b: usize,
    c: f64,
    sorted_rows: &mut Vec<usize>,
    clumps: &mut ClumpScratch,
    dp: &mut DpScratch,
    out: &mut Vec<(usize, usize, f64)>,
) {
    out.clear();
    for rows in 2..=(b / 2).max(2) {
        if !unit_into(xp, yp, rows, b, c, sorted_rows, clumps, dp) {
            break;
        }
        for (idx, &i_val) in dp.mi.iter().enumerate() {
            let cols = idx + 2;
            out.push((cols, rows, entry(i_val, cols, rows)));
        }
    }
    out.sort_by_key(|&(x, y, _)| (x, y));
}

/// One unit of the kernel: equipartitions the `yp` axis into `rows`,
/// clumps the `xp` axis under it and runs the column dynamic program,
/// leaving the maximal MI per column count in `dp.mi` (`mi[cols - 2]`).
/// Returns `false`, computing nothing, when the budget `b` leaves fewer
/// than two columns at this row count.
#[allow(clippy::too_many_arguments)]
fn unit_into(
    xp: &SeriesProfile,
    yp: &SeriesProfile,
    rows: usize,
    b: usize,
    c: f64,
    sorted_rows: &mut Vec<usize>,
    clumps: &mut ClumpScratch,
    dp: &mut DpScratch,
) -> bool {
    let x_max = b / rows;
    if x_max < 2 {
        return false;
    }
    let part = yp.partition(rows);
    sorted_rows.clear();
    sorted_rows.extend(xp.order().iter().map(|&i| part.assignment[i]));
    let max_clumps = ((c * x_max as f64).ceil() as usize).max(1);
    clumps.rebuild(xp.groups(), sorted_rows, part.bins.max(1), max_clumps);
    optimize_axis_into(clumps.view(), x_max, dp);
    true
}

/// The characteristic entry of a `cols`-by-`rows` grid with maximal MI
/// `i_val`: normalized by `log2(min(cols, rows))` and clamped to `[0, 1]`.
fn entry(i_val: f64, cols: usize, rows: usize) -> f64 {
    let denom = (cols.min(rows) as f64).log2();
    let v = if denom > 0.0 { i_val / denom } else { 0.0 };
    v.clamp(0.0, 1.0)
}

/// Symmetrizes the two half-characteristic matrices: the value for shape
/// `(x, y)` is the larger of orientation 1's `(x, y)` entry and orientation
/// 2's `(y, x)` entry (the same grid shape seen from the transposed data).
fn symmetrize(d1: &[(usize, usize, f64)], d2: &[(usize, usize, f64)]) -> Vec<(usize, usize, f64)> {
    let d2_map: std::collections::HashMap<(usize, usize), f64> =
        d2.iter().map(|&(x, y, v)| ((x, y), v)).collect();
    d1.iter()
        .map(|&(x, y, v1)| {
            let v2 = d2_map.get(&(y, x)).copied().unwrap_or(0.0);
            (x, y, v1.max(v2))
        })
        .collect()
}

/// Characteristic matrix with symmetrized entries, for inspection and tests.
///
/// # Errors
///
/// See [`MicError`].
pub fn characteristic_matrix(
    xs: &[f64],
    ys: &[f64],
    params: &MicParams,
) -> Result<CharacteristicMatrix, MicError> {
    params.validate()?;
    if xs.len() != ys.len() {
        return Err(MicError::LengthMismatch {
            xs: xs.len(),
            ys: ys.len(),
        });
    }
    if xs.len() < 4 {
        return Err(MicError::TooFewPoints { got: xs.len() });
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return Err(MicError::NonFinite);
    }
    let mut scratch = MineScratch::new();
    let (xp, yp) = (
        SeriesProfile::build(xs, params)?,
        SeriesProfile::build(ys, params)?,
    );
    half_halves(&xp, &yp, params.c, &mut scratch);
    Ok(CharacteristicMatrix {
        entries: symmetrize(&scratch.d1, &scratch.d2),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linspace(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 / n as f64).collect()
    }

    #[test]
    fn identity_relation_scores_one() {
        let xs = linspace(100);
        let m = mic(&xs, &xs).unwrap();
        assert!(m > 0.99, "mic = {m}");
    }

    #[test]
    fn linear_relation_scores_one() {
        let xs = linspace(150);
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        assert!(mic(&xs, &ys).unwrap() > 0.99);
    }

    #[test]
    fn parabola_scores_high_despite_zero_pearson() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 / 100.0 - 1.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        assert!(mic(&xs, &ys).unwrap() > 0.9);
    }

    #[test]
    fn sine_scores_high() {
        let xs = linspace(300);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (4.0 * std::f64::consts::PI * x).sin())
            .collect();
        assert!(mic(&xs, &ys).unwrap() > 0.8);
    }

    #[test]
    fn independent_noise_scores_low() {
        // Two decorrelated pseudo-random streams.
        let mut s1 = 1u64;
        let mut s2 = 999u64;
        let next = |s: &mut u64| {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*s >> 33) as f64 / (1u64 << 31) as f64
        };
        let xs: Vec<f64> = (0..300).map(|_| next(&mut s1)).collect();
        let ys: Vec<f64> = (0..300).map(|_| next(&mut s2)).collect();
        let m = mic(&xs, &ys).unwrap();
        assert!(m < 0.35, "independent noise mic = {m}");
    }

    #[test]
    fn symmetric_in_arguments() {
        let xs = linspace(80);
        let ys: Vec<f64> = xs.iter().map(|x| (x * 6.0).cos() + 0.2 * x).collect();
        let a = mic(&xs, &ys).unwrap();
        let b = mic(&ys, &xs).unwrap();
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn constant_series_scores_zero() {
        let xs = linspace(50);
        let ys = vec![2.5; 50];
        assert!(mic(&xs, &ys).unwrap() < 1e-9);
    }

    #[test]
    fn error_paths() {
        assert_eq!(
            mic(&[1.0, 2.0], &[1.0]).unwrap_err(),
            MicError::LengthMismatch { xs: 2, ys: 1 }
        );
        assert_eq!(
            mic(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]).unwrap_err(),
            MicError::TooFewPoints { got: 3 }
        );
        assert_eq!(
            mic(&[1.0, f64::NAN, 2.0, 3.0], &[1.0, 2.0, 3.0, 4.0]).unwrap_err(),
            MicError::NonFinite
        );
        let bad = MicParams {
            alpha: 0.0,
            c: 15.0,
        };
        assert_eq!(
            mic_with_params(&linspace(10), &linspace(10), &bad).unwrap_err(),
            MicError::BadParams
        );
    }

    #[test]
    fn profiled_entry_points_validate() {
        let params = MicParams::default();
        let other = MicParams::fast();
        let xp = SeriesProfile::build(&linspace(20), &params).unwrap();
        let yp_other = SeriesProfile::build(&linspace(20), &other).unwrap();
        let yp_short = SeriesProfile::build(&linspace(10), &params).unwrap();
        assert_eq!(
            mic_with_profiles(&xp, &yp_other, &params).unwrap_err(),
            MicError::BadParams
        );
        assert_eq!(
            mic_with_profiles(&xp, &yp_short, &params).unwrap_err(),
            MicError::LengthMismatch { xs: 20, ys: 10 }
        );
    }

    #[test]
    fn profiled_mic_matches_classic_entry_point() {
        let params = MicParams::default();
        let xs = linspace(90);
        let ys: Vec<f64> = xs.iter().map(|x| (x * 6.0).cos() + 0.2 * x).collect();
        let xp = SeriesProfile::build(&xs, &params).unwrap();
        let yp = SeriesProfile::build(&ys, &params).unwrap();
        let classic = mic_with_params(&xs, &ys, &params).unwrap();
        let profiled = mic_with_profiles(&xp, &yp, &params).unwrap();
        assert_eq!(classic.to_bits(), profiled.to_bits());
        // Scratch reuse across pairs must not perturb results.
        let mut scratch = MineScratch::new();
        for _ in 0..3 {
            let v = mic_with_profiles_scratch(&xp, &yp, &params, &mut scratch).unwrap();
            assert_eq!(v.to_bits(), classic.to_bits());
            let sym = mic_with_profiles_scratch(&yp, &xp, &params, &mut scratch).unwrap();
            assert!((sym - classic).abs() < 1e-12);
        }
    }

    #[test]
    fn fast_params_still_detect_linear() {
        let xs = linspace(100);
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x).collect();
        assert!(mic_with_params(&xs, &ys, &MicParams::fast()).unwrap() > 0.95);
    }

    #[test]
    fn mine_stats_ranges() {
        let xs = linspace(120);
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let s = mine(&xs, &ys, &MicParams::default()).unwrap();
        assert!((0.0..=1.0).contains(&s.mic));
        assert!((0.0..=1.0).contains(&s.mas));
        assert!((0.0..=1.0).contains(&s.mev));
        assert!(s.mcn >= 2.0);
        // For a functional relationship MEV tracks MIC closely.
        assert!(s.mev > 0.8 * s.mic);
        // TIC is a mean of entries bounded by the max.
        assert!(s.tic <= s.mic + 1e-12);
        assert!(
            s.tic > 0.3,
            "functional data should have high TIC: {}",
            s.tic
        );
    }

    #[test]
    fn mic_e_close_to_mic_on_functional_data() {
        let xs = linspace(200);
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let full = mic(&xs, &ys).unwrap();
        let e = mic_e(&xs, &ys, &MicParams::default()).unwrap();
        assert!(e <= full + 1e-9, "MICe bounded by MIC: {e} vs {full}");
        assert!(e > 0.85, "MICe should stay high on clean data: {e}");
    }

    #[test]
    fn mic_e_low_on_independent_noise() {
        let mut s1 = 2u64;
        let mut s2 = 55u64;
        let next = |s: &mut u64| {
            *s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (*s >> 33) as f64 / (1u64 << 31) as f64
        };
        let xs: Vec<f64> = (0..300).map(|_| next(&mut s1)).collect();
        let ys: Vec<f64> = (0..300).map(|_| next(&mut s2)).collect();
        assert!(mic_e(&xs, &ys, &MicParams::default()).unwrap() < 0.3);
    }

    #[test]
    fn mic_e_symmetric() {
        let xs = linspace(90);
        let ys: Vec<f64> = xs.iter().map(|x| (x * 7.0).sin()).collect();
        let a = mic_e(&xs, &ys, &MicParams::default()).unwrap();
        let b = mic_e(&ys, &xs, &MicParams::default()).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn tic_separates_dependence_from_noise() {
        let xs = linspace(200);
        let ys: Vec<f64> = xs.iter().map(|x| (x * 9.0).sin()).collect();
        let dependent = mine(&xs, &ys, &MicParams::default()).unwrap().tic;
        let mut s1 = 5u64;
        let mut s2 = 17u64;
        let next = |s: &mut u64| {
            *s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (*s >> 33) as f64 / (1u64 << 31) as f64
        };
        let nx: Vec<f64> = (0..200).map(|_| next(&mut s1)).collect();
        let ny: Vec<f64> = (0..200).map(|_| next(&mut s2)).collect();
        let independent = mine(&nx, &ny, &MicParams::default()).unwrap().tic;
        assert!(
            dependent > 3.0 * independent,
            "tic dependent {dependent} vs independent {independent}"
        );
    }

    #[test]
    fn characteristic_matrix_entries_within_budget() {
        let xs = linspace(100);
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 - x).collect();
        let cm = characteristic_matrix(&xs, &ys, &MicParams::default()).unwrap();
        let b = (100f64).powf(0.6).floor() as usize;
        for &(x, y, v) in cm.entries() {
            assert!(x >= 2 && y >= 2 && x * y <= b);
            assert!((0.0..=1.0).contains(&v));
        }
        assert!((cm.mic() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn screen_bound_never_exceeds_mic_bit_exactly() {
        // The bound is one member of the set MIC maximizes over, so
        // `bound <= mic` must hold exactly — no epsilon.
        let params = MicParams::fast();
        let mut scratch = MineScratch::new();
        let mut s1 = 42u64;
        let next = |s: &mut u64| {
            *s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*s >> 33) as f64 / (1u64 << 31) as f64
        };
        let n = 120;
        let shapes: Vec<(Vec<f64>, Vec<f64>)> = vec![
            {
                // Noisy linear.
                let xs: Vec<f64> = (0..n).map(|_| next(&mut s1)).collect();
                let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 0.3 * next(&mut s1)).collect();
                (xs, ys)
            },
            {
                // Parabola (zero Pearson, high MIC).
                let xs: Vec<f64> = (0..n).map(|i| i as f64 / 60.0 - 1.0).collect();
                let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
                (xs, ys)
            },
            {
                // Independent noise.
                let xs: Vec<f64> = (0..n).map(|_| next(&mut s1)).collect();
                let ys: Vec<f64> = (0..n).map(|_| next(&mut s1)).collect();
                (xs, ys)
            },
            {
                // Heavy ties.
                let xs: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
                let ys: Vec<f64> = (0..n).map(|i| ((i * 3) % 5) as f64).collect();
                (xs, ys)
            },
        ];
        for (xs, ys) in &shapes {
            let xp = SeriesProfile::build(xs, &params).unwrap();
            let yp = SeriesProfile::build(ys, &params).unwrap();
            let full = mic_with_profiles_scratch(&xp, &yp, &params, &mut scratch).unwrap();
            let bound = mic_screen_bound_scratch(&xp, &yp, &params, &mut scratch).unwrap();
            assert!(
                bound <= full,
                "bound {bound} must never exceed mic {full} (exact, no tolerance)"
            );
            assert!((0.0..=1.0).contains(&bound));
        }
    }

    #[test]
    fn screen_bound_is_the_2x2_characteristic_entry() {
        // Symmetrized (2, 2) entry of the full characteristic matrix ==
        // the bound, bit for bit: the bound IS that entry, recomputed
        // without the DP triangle.
        let params = MicParams::fast();
        let xs = linspace(120);
        let ys: Vec<f64> = xs.iter().map(|x| (x * 9.0).sin() + 0.1 * x).collect();
        let cm = characteristic_matrix(&xs, &ys, &params).unwrap();
        let entry = cm
            .entries()
            .iter()
            .find(|&&(c, r, _)| c == 2 && r == 2)
            .map(|&(_, _, v)| v)
            .unwrap();
        let xp = SeriesProfile::build(&xs, &params).unwrap();
        let yp = SeriesProfile::build(&ys, &params).unwrap();
        let mut scratch = MineScratch::new();
        let bound = mic_screen_bound_scratch(&xp, &yp, &params, &mut scratch).unwrap();
        assert_eq!(bound.to_bits(), entry.to_bits());
    }

    #[test]
    fn screen_bound_high_on_linear_data() {
        // A 2x2 grid captures a monotone relation almost perfectly, so the
        // bound is tight exactly where cached invariants sit (near 1).
        let params = MicParams::fast();
        let xs = linspace(120);
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let xp = SeriesProfile::build(&xs, &params).unwrap();
        let yp = SeriesProfile::build(&ys, &params).unwrap();
        let mut scratch = MineScratch::new();
        let bound = mic_screen_bound_scratch(&xp, &yp, &params, &mut scratch).unwrap();
        assert!(bound > 0.95, "linear bound = {bound}");
    }

    #[test]
    fn screen_bound_zero_for_constant_series() {
        let params = MicParams::fast();
        let xp = SeriesProfile::build(&linspace(50), &params).unwrap();
        let yp = SeriesProfile::build(&[2.5; 50], &params).unwrap();
        let mut scratch = MineScratch::new();
        assert_eq!(
            mic_screen_bound_scratch(&xp, &yp, &params, &mut scratch).unwrap(),
            0.0
        );
    }

    #[test]
    fn screen_bound_validates_like_the_kernel() {
        let params = MicParams::default();
        let other = MicParams::fast();
        let xp = SeriesProfile::build(&linspace(20), &params).unwrap();
        let yp_other = SeriesProfile::build(&linspace(20), &other).unwrap();
        let yp_short = SeriesProfile::build(&linspace(10), &params).unwrap();
        let mut scratch = MineScratch::new();
        assert_eq!(
            mic_screen_bound_scratch(&xp, &yp_other, &params, &mut scratch).unwrap_err(),
            MicError::BadParams
        );
        assert_eq!(
            mic_screen_bound_scratch(&xp, &yp_short, &params, &mut scratch).unwrap_err(),
            MicError::LengthMismatch { xs: 20, ys: 10 }
        );
    }

    #[test]
    fn floor_kernel_stops_on_a_linear_pair_and_runs_out_on_noise() {
        let params = MicParams::fast();
        let mut scratch = MineScratch::new();
        // A held invariant with reference 1 at threshold 0.2: any entry
        // above 0.8 proves it.
        let clears = |v: f64| (1.0 - v).abs() < 0.2;
        let xs = linspace(120);
        let linear: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let xp = SeriesProfile::build(&xs, &params).unwrap();
        let yp = SeriesProfile::build(&linear, &params).unwrap();
        let mic = mic_with_profiles_scratch(&xp, &yp, &params, &mut scratch).unwrap();
        match mic_floor_scratch(&xp, &yp, &params, clears, &mut scratch).unwrap() {
            Floored::Cleared(v) => assert!(clears(v) && v <= mic, "{v} vs {mic}"),
            exact => panic!("a linear pair must clear, got {exact:?}"),
        }
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let noise: Vec<f64> = (0..120).map(|_| next()).collect();
        let np = SeriesProfile::build(&noise, &params).unwrap();
        let mic = mic_with_profiles_scratch(&xp, &np, &params, &mut scratch).unwrap();
        assert_eq!(
            mic_floor_scratch(&xp, &np, &params, clears, &mut scratch).unwrap(),
            Floored::Exact(mic)
        );
        // A constant axis scores exactly zero, as in the full kernel.
        let cp = SeriesProfile::build(&[2.5; 120], &params).unwrap();
        assert_eq!(
            mic_floor_scratch(&xp, &cp, &params, |_| true, &mut scratch).unwrap(),
            Floored::Exact(0.0)
        );
    }

    #[test]
    fn monotone_transform_invariance() {
        // MIC depends only on ranks, so exp() on one axis must not change it.
        let xs = linspace(90);
        let ys: Vec<f64> = xs.iter().map(|x| (x * 5.0).sin()).collect();
        let xs_t: Vec<f64> = xs.iter().map(|x| (3.0 * x).exp()).collect();
        let a = mic(&xs, &ys).unwrap();
        let b = mic(&xs_t, &ys).unwrap();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }
}
