//! The `OptimizeXAxis` dynamic program of the MINE SOM, reformulated as a
//! minimum-conditional-entropy partition problem.
//!
//! For a fixed row partition `Q` of all `n` points, the mutual information of
//! a column partition `P` decomposes as
//!
//! ```text
//! I(P; Q) = H(Q) - H(Q | P) = H(Q) - (1/n) * sum_j cost(col_j)
//! ```
//!
//! where `cost(col) = sum_r -n_{r,col} log2(n_{r,col} / n_col)` is computed by
//! [`Clumps::cost`]. `H(Q)` does not depend on `P`, so maximizing `I` over
//! partitions into at most `l` columns is exactly minimizing the summed
//! column cost — a textbook interval-partition DP over clump boundaries.
//! Refining a partition never increases conditional entropy, so the optimum
//! over "at most `l`" equals the running minimum over "exactly `l' <= l`".

use crate::entropy::entropy_from_counts;
use crate::grid::{ClumpView, Clumps};

/// Reusable working memory for the DP: the cost triangle, the two rolling DP
/// rows, the per-column-count optima, and the output MI vector. Held inside
/// [`crate::MineScratch`] so steady-state sweeps never allocate here.
#[derive(Debug, Default, Clone)]
pub(crate) struct DpScratch {
    /// Column-cost triangle, flattened column-major (see
    /// [`optimize_axis_into`]).
    cost: Vec<f64>,
    /// DP row for `l - 1` allowed columns.
    prev: Vec<f64>,
    /// DP row for `l` allowed columns.
    cur: Vec<f64>,
    /// Best full-partition cost per allowed column count.
    best_full: Vec<f64>,
    /// Output: mutual information per allowed column count (`mi[l - 2]`).
    pub mi: Vec<f64>,
}

/// Maximal mutual information (bits) achievable by partitioning the x axis
/// into at most `l` columns, for every `l` in `2..=x_max`, given the fixed
/// row partition captured in `clumps`.
///
/// Returns a vector `v` with `v[l - 2]` holding the value for `l` columns.
/// Degenerate inputs (fewer than two clumps or rows, or `x_max < 2`) yield
/// all-zero values of the appropriate length.
pub fn optimize_axis(clumps: &Clumps, x_max: usize) -> Vec<f64> {
    let mut dp = DpScratch::default();
    optimize_axis_into(clumps.view(), x_max, &mut dp);
    dp.mi
}

/// In-place form of [`optimize_axis`]: results land in `dp.mi`, every buffer
/// in `dp` is reused across calls.
pub(crate) fn optimize_axis_into(clumps: ClumpView<'_>, x_max: usize, dp: &mut DpScratch) {
    dp.mi.clear();
    if x_max < 2 {
        return;
    }
    let out_len = x_max - 1;
    let k = clumps.len();
    let n = clumps.points();
    let h_q = entropy_from_counts(clumps.row_totals());
    if k < 2 || n == 0 || clumps.n_rows() < 2 || h_q == 0.0 {
        dp.mi.resize(out_len, 0.0);
        return;
    }
    let l_cap = x_max.min(k);

    // cost(s, t) for 0 <= s < t <= k: cost of column (s, t]. Stored
    // column-major: column t holds s = 0..t at offset t * (t - 1) / 2, so
    // the inner minimization below walks `prev` and one column of costs as
    // two contiguous slices, in the same `s` order as a row-major walk.
    //
    // prev[t] for the current l: minimum total cost of partitioning the first
    // t clumps into exactly l columns (prev[0] is never read).
    //
    // The last layer (l = l_cap) is read only at t = k. At l_cap == 2 no
    // middle layer exists, so the DP reads only cost(0, t) (layer 1) and
    // column k (the last layer): those alone are computed, with column k
    // at offset 0.
    let col = |t: usize| t * (t - 1) / 2;
    dp.cost.clear();
    dp.prev.clear();
    dp.prev.push(f64::INFINITY);
    let last_col = if l_cap == 2 {
        for t in 1..=k {
            clumps.push_column_costs(t, 0..1, &mut dp.prev);
        }
        clumps.push_column_costs(k, 0..k, &mut dp.cost);
        0
    } else {
        dp.cost.reserve(col(k + 1));
        for t in 1..=k {
            clumps.push_column_costs(t, 0..t, &mut dp.cost);
        }
        dp.prev.extend((1..=k).map(|t| dp.cost[col(t)]));
        col(k)
    };
    let cost = &dp.cost;
    dp.best_full.clear();
    dp.best_full.resize(l_cap + 1, f64::INFINITY);
    dp.best_full[1] = dp.prev[k];

    // Middle layers: every t is read by the next layer. Entries below
    // t = l keep stale values; the next layer starts reading at t = l.
    dp.cur.clear();
    dp.cur.resize(k + 1, f64::INFINITY);
    for l in 2..l_cap {
        for t in l..=k {
            dp.cur[t] = min_split(&dp.prev[l - 1..t], &cost[col(t) + l - 1..col(t) + t]);
        }
        dp.best_full[l] = dp.cur[k];
        std::mem::swap(&mut dp.prev, &mut dp.cur);
    }
    dp.best_full[l_cap] = min_split(
        &dp.prev[l_cap - 1..k],
        &cost[last_col + l_cap - 1..last_col + k],
    );

    // Convert to mutual information, enforcing monotonicity over "at most l".
    let mut running_min = dp.best_full[1];
    for l in 2..=x_max {
        if l <= l_cap {
            running_min = running_min.min(dp.best_full[l]);
        }
        let i = if running_min.is_finite() {
            (h_q - running_min / n as f64).max(0.0)
        } else {
            0.0
        };
        dp.mi.push(i);
    }
}

/// `min_s prev[s] + costs[s]` over aligned slices, in `s` order; infinite
/// when empty.
#[inline]
fn min_split(prev: &[f64], costs: &[f64]) -> f64 {
    let mut best = f64::INFINITY;
    for (&p, &c) in prev.iter().zip(costs) {
        let v = p + c;
        if v < best {
            best = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::mutual_information;
    use crate::grid::{equipartition, Clumps};

    /// Brute-force maximal MI over all partitions of the clump boundaries
    /// into at most `l` columns.
    fn brute_force(xs: &[f64], rows: &[usize], n_rows: usize, l: usize) -> f64 {
        let clumps = Clumps::build(xs, rows, n_rows, usize::MAX);
        let k = clumps.len();
        let mut best = 0.0f64;
        // Enumerate subsets of internal boundaries 1..k with at most l-1 cuts.
        let internal = k - 1;
        for mask in 0..(1u32 << internal) {
            if mask.count_ones() as usize > l - 1 {
                continue;
            }
            let mut cuts: Vec<usize> = vec![0];
            for b in 0..internal {
                if mask & (1 << b) != 0 {
                    cuts.push(b + 1);
                }
            }
            cuts.push(k);
            // Build the count table: rows x columns.
            let mut table = vec![vec![0usize; cuts.len() - 1]; n_rows];
            for c in 0..cuts.len() - 1 {
                let (s, t) = (cuts[c], cuts[c + 1]);
                for (r, row_counts) in table.iter_mut().enumerate() {
                    // cum_rows is private, so recount from raw points.
                    let start = clumps.boundary(s);
                    let end = clumps.boundary(t);
                    row_counts[c] = rows[start..end].iter().filter(|&&rr| rr == r).count();
                }
            }
            best = best.max(mutual_information(&table));
        }
        best
    }

    #[test]
    fn dp_matches_brute_force_small() {
        // 12 points, rows form a noisy step pattern.
        let xs: Vec<f64> = (0..12).map(f64::from).collect();
        let rows = vec![0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1];
        for l in 2..=4 {
            let clumps = Clumps::build(&xs, &rows, 2, usize::MAX);
            let dp = optimize_axis(&clumps, l);
            let bf = brute_force(&xs, &rows, 2, l);
            assert!(
                (dp[l - 2] - bf).abs() < 1e-9,
                "l={l}: dp={} bf={bf}",
                dp[l - 2]
            );
        }
    }

    #[test]
    fn dp_matches_brute_force_three_rows() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let rows = vec![0, 1, 2, 2, 1, 0, 0, 2, 1, 2];
        for l in 2..=5 {
            let clumps = Clumps::build(&xs, &rows, 3, usize::MAX);
            let dp = optimize_axis(&clumps, l);
            let bf = brute_force(&xs, &rows, 3, l);
            assert!(
                (dp[l - 2] - bf).abs() < 1e-9,
                "l={l}: dp={} bf={bf}",
                dp[l - 2]
            );
        }
    }

    #[test]
    fn perfect_step_function_reaches_h_q() {
        // First half row 0, second half row 1: a 2-column split captures Q
        // exactly, so I = H(Q) = 1 bit.
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        let rows: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let clumps = Clumps::build(&xs, &rows, 2, usize::MAX);
        let dp = optimize_axis(&clumps, 4);
        assert!((dp[0] - 1.0).abs() < 1e-12);
        // More allowed columns can't exceed H(Q).
        assert!(dp.iter().all(|&v| v <= 1.0 + 1e-12));
    }

    #[test]
    fn monotone_in_allowed_columns() {
        let xs: Vec<f64> = (0..30).map(f64::from).collect();
        let rows: Vec<usize> = (0..30).map(|i| (i / 3) % 3).collect();
        let clumps = Clumps::build(&xs, &rows, 3, usize::MAX);
        let dp = optimize_axis(&clumps, 8);
        for w in dp.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "not monotone: {dp:?}");
        }
    }

    #[test]
    fn degenerate_inputs_give_zero() {
        // Single row: no information to capture.
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let rows = vec![0usize; 10];
        let clumps = Clumps::build(&xs, &rows, 1, usize::MAX);
        assert!(optimize_axis(&clumps, 4).iter().all(|&v| v == 0.0));
        // x_max < 2 yields empty.
        assert!(optimize_axis(&clumps, 1).is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        let xs: Vec<f64> = (0..30).map(f64::from).collect();
        let rows: Vec<usize> = (0..30).map(|i| (i / 3) % 3).collect();
        let clumps = Clumps::build(&xs, &rows, 3, usize::MAX);
        let mut dp = DpScratch::default();
        // Larger problem first so every buffer is oversized for the second.
        optimize_axis_into(clumps.view(), 8, &mut dp);
        let big = dp.mi.clone();
        optimize_axis_into(clumps.view(), 3, &mut dp);
        assert_eq!(dp.mi, optimize_axis(&clumps, 3));
        assert_eq!(big, optimize_axis(&clumps, 8));
    }

    #[test]
    fn equipartition_plus_dp_on_linear_relation() {
        // y = x: with y equipartitioned into 2 rows the best 2-column split
        // recovers I = 1 bit.
        let xs: Vec<f64> = (0..40).map(f64::from).collect();
        let ys = xs.clone();
        let rows = equipartition(&ys, 2);
        let clumps = Clumps::build(&xs, &rows, 2, usize::MAX);
        let dp = optimize_axis(&clumps, 2);
        assert!((dp[0] - 1.0).abs() < 1e-9, "{dp:?}");
    }
}
