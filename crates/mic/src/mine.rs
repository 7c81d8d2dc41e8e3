//! The MINE driver: MIC and the characteristic matrix.
//!
//! Every entry point funnels into one kernel unit, [`unit_into`]:
//! [`SeriesProfile`] hoists per-series preprocessing (sorting, tie groups,
//! equipartitions) out of the pair loop, and [`MineScratch`] holds every
//! buffer the kernel needs so steady-state sweeps allocate nothing per
//! pair. [`mic_floor_scratch`] loops the unit over every grid row count and
//! can stop early for callers that only need to know whether MIC clears a
//! floor; the classic allocating entry points ([`mic`],
//! [`mic_with_params`]) build two profiles and run it to the end, and
//! [`characteristic_matrix`] loops the same unit to keep every entry.

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
/// `x * y <= B`.
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
    let (xp, yp) = profiles(xs, ys, params)?;
    mic_with_profiles(&xp, &yp, params)
}

/// Checks a raw sample pair and profiles both series. Validation order
/// (params, lengths, count, finiteness) is part of the public contract;
/// profile construction alone would report count first.
fn profiles(
    xs: &[f64],
    ys: &[f64],
    params: &MicParams,
) -> Result<(SeriesProfile, SeriesProfile), MicError> {
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
    Ok((
        SeriesProfile::build(xs, params)?,
        SeriesProfile::build(ys, params)?,
    ))
}

/// MIC from two prebuilt [`SeriesProfile`]s, allocating a fresh scratch:
/// what [`mic_with_params`] runs once it has profiled the samples. Held
/// profiles amortize per-series preprocessing across all of a series'
/// pairs.
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

/// Characteristic matrix with symmetrized entries, for inspection and tests:
/// the value for shape `(x, y)` is the larger of the first orientation's
/// `(x, y)` entry and the second's `(y, x)` entry (the same grid shape seen
/// from the transposed data). Entries are sorted by `(x, y)`; their max is
/// the MIC [`mic_with_params`] returns.
///
/// # Errors
///
/// See [`MicError`].
pub fn characteristic_matrix(
    xs: &[f64],
    ys: &[f64],
    params: &MicParams,
) -> Result<CharacteristicMatrix, MicError> {
    let (xp, yp) = profiles(xs, ys, params)?;
    let b = xp.grid_budget();
    let MineScratch {
        sorted_rows,
        clumps,
        dp,
    } = &mut MineScratch::new();
    // Each orientation's entries `(cols, rows, value)`, sorted by shape.
    let mut halves = [Vec::new(), Vec::new()];
    for ((a, partitioned), half) in [(&xp, &yp), (&yp, &xp)].into_iter().zip(&mut halves) {
        for rows in 2..=(b / 2).max(2) {
            if !unit_into(a, partitioned, rows, b, params.c, sorted_rows, clumps, dp) {
                break;
            }
            half.extend(dp.mi.iter().enumerate().map(|(idx, &i_val)| {
                let cols = idx + 2;
                (cols, rows, entry(i_val, cols, rows))
            }));
        }
        half.sort_by_key(|&(x, y, _)| (x, y));
    }
    let [d1, d2] = halves;
    let entries = d1
        .iter()
        .map(|&(x, y, v1)| {
            let v2 = d2
                .binary_search_by_key(&(y, x), |&(c, r, _)| (c, r))
                .map_or(0.0, |i| d2[i].2);
            (x, y, v1.max(v2))
        })
        .collect();
    Ok(CharacteristicMatrix { entries })
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
