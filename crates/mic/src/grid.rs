//! Axis partitioning: adaptive equipartition, clumps and superclumps.
//!
//! Terminology follows the MINE Supporting Online Material:
//!
//! - an *equipartition* of an axis assigns points to `k` bins of as-equal-as-
//!   possible size, never splitting ties (points with identical values);
//! - a *clump* is a maximal run of consecutive points (in x order) that can
//!   never be separated by an optimal column boundary: same-x ties, and runs
//!   of points falling in one identical row;
//! - *superclumps* cap the number of clumps the dynamic program must
//!   consider, by equipartitioning clumps into at most `max_clumps` blocks.
//!
//! The clump tables are plain flat vectors owned by a [`ClumpScratch`] so
//! the sweep hot path can rebuild them in place, pair after pair, without
//! allocating; the public [`Clumps`] type wraps one rebuild into an owning
//! value for direct use and tests.

/// Adaptive equipartition of `values` into at most `k` bins.
///
/// Returns one bin index per input position. Ties (equal values) always land
/// in the same bin, so fewer than `k` distinct bins may be used. This is the
/// `EquipartitionYAxis` routine of the MINE SOM.
pub fn equipartition(values: &[f64], k: usize) -> Vec<usize> {
    let n = values.len();
    let mut assignment = vec![0usize; n];
    if n == 0 || k == 0 {
        return assignment;
    }
    let mut idx: Vec<usize> = (0..n).collect();
    // NaN never reaches here (profiles reject non-finite input); Equal on
    // the impossible branch keeps the sort total without reordering ties.
    idx.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut current_bin = 0usize;
    let mut in_bin = 0usize; // points placed in the current bin so far
    let mut target = n as f64 / k as f64;
    let mut i = 0usize;
    while i < n {
        // Tie group [i, j).
        let mut j = i + 1;
        while j < n && values[idx[j]] == values[idx[i]] {
            j += 1;
        }
        let group = j - i;
        // Would starting a new bin put us closer to the target size?
        let overshoot = (in_bin as f64 + group as f64 - target).abs();
        let undershoot = (in_bin as f64 - target).abs();
        if in_bin != 0 && overshoot >= undershoot && current_bin + 1 < k {
            current_bin += 1;
            in_bin = 0;
            target = (n - i) as f64 / (k - current_bin) as f64;
        }
        for &p in &idx[i..j] {
            assignment[p] = current_bin;
        }
        in_bin += group;
        i = j;
    }
    assignment
}

/// A borrowed, read-only view of one clump decomposition — what the
/// `optimize_axis` dynamic program consumes. Backed either by a
/// [`ClumpScratch`] (hot path) or an owning [`Clumps`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClumpView<'a> {
    /// Cumulative point counts at clump boundaries: `boundaries[0] == 0`,
    /// `boundaries[len] == n`.
    boundaries: &'a [usize],
    /// Flattened cumulative row counts, stride `n_rows`: entry
    /// `[t * n_rows + r]` counts points among the first `boundaries[t]`
    /// (in x order) assigned to row `r`.
    cum_rows: &'a [usize],
    n_rows: usize,
}

impl ClumpView<'_> {
    /// Number of clumps.
    pub fn len(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// Total number of points.
    pub fn points(&self) -> usize {
        // lint: allow(hot-path-panic) boundaries always holds the leading 0
        // sentinel (see rebuild), so last() cannot be None
        *self.boundaries.last().expect("boundaries never empty")
    }

    /// Number of rows in the fixed y partition.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Points contained in the column formed by clumps `(s, t]`.
    #[inline]
    pub fn col_count(&self, s: usize, t: usize) -> usize {
        self.boundaries[t] - self.boundaries[s]
    }

    /// Row totals over the full point set.
    pub fn row_totals(&self) -> &[usize] {
        &self.cum_rows[self.cum_rows.len() - self.n_rows..]
    }

    /// Unnormalized column cost in bits: `sum_r -n_r * log2(n_r / n_col)`
    /// where `n_r` counts the column's points in row `r`. Dividing the sum of
    /// column costs by the total point count gives `H(Q|P)`.
    pub fn cost(&self, s: usize, t: usize) -> f64 {
        let n_col = self.col_count(s, t);
        if n_col == 0 {
            return 0.0;
        }
        let n_col_f = n_col as f64;
        let lo = &self.cum_rows[s * self.n_rows..(s + 1) * self.n_rows];
        let hi = &self.cum_rows[t * self.n_rows..(t + 1) * self.n_rows];
        let mut acc = 0.0;
        for r in 0..self.n_rows {
            let c = (hi[r] - lo[r]) as f64;
            if c > 0.0 {
                acc -= c * (c / n_col_f).log2();
            }
        }
        acc
    }
}

/// Reusable buffers holding one clump decomposition; `rebuild` refills them
/// in place without allocating once warm.
#[derive(Debug, Default, Clone)]
pub(crate) struct ClumpScratch {
    /// Clump ranges before the superclump pass.
    ranges: Vec<(usize, usize)>,
    /// Clump ranges after the superclump pass (used only when capping).
    merged: Vec<(usize, usize)>,
    boundaries: Vec<usize>,
    cum_rows: Vec<usize>,
    n_rows: usize,
}

impl ClumpScratch {
    /// Rebuilds the clump decomposition of points already sorted by x.
    ///
    /// `xs` are the sorted x values, `rows` the row assignment of each point
    /// (aligned with `xs`), `n_rows` the number of rows in the y partition,
    /// and `max_clumps` the superclump cap (`c * x` in MINE terms).
    pub fn rebuild(&mut self, xs: &[f64], rows: &[usize], n_rows: usize, max_clumps: usize) {
        assert_eq!(xs.len(), rows.len(), "xs and rows must align");
        let n = xs.len();
        self.n_rows = n_rows;

        // Pass 1 (fused with the merge pass): group same-x runs; a run
        // spanning several rows is an unsplittable "mixed" block, a run
        // within one row merges into a pure predecessor of the same row.
        self.ranges.clear();
        let mut last_pure: Option<usize> = None;
        let mut i = 0;
        while i < n {
            let mut j = i + 1;
            let mut pure = Some(rows[i]);
            while j < n && xs[j] == xs[i] {
                if rows[j] != rows[i] {
                    pure = None;
                }
                j += 1;
            }
            match (last_pure, pure, self.ranges.last_mut()) {
                (Some(prev_row), Some(row), Some(last)) if prev_row == row => last.1 = j,
                _ => {
                    self.ranges.push((i, j));
                    last_pure = pure;
                }
            }
            i = j;
        }

        // Pass 2: superclumps — equipartition clumps by point count when the
        // DP would otherwise see too many.
        let ranges: &[(usize, usize)] = if max_clumps >= 1 && self.ranges.len() > max_clumps {
            superclump_into(&self.ranges, n, max_clumps, &mut self.merged);
            &self.merged
        } else {
            &self.ranges
        };

        // Cumulative tables: stride `n_rows`, first stride all zero, each
        // following stride extends the previous by one clump's row counts.
        self.boundaries.clear();
        self.boundaries.push(0);
        self.cum_rows.clear();
        self.cum_rows.resize(n_rows, 0);
        for &(s, e) in ranges {
            let prev = self.cum_rows.len() - n_rows;
            for r in 0..n_rows {
                let carried = self.cum_rows[prev + r];
                self.cum_rows.push(carried);
            }
            let at = self.cum_rows.len() - n_rows;
            for &r in &rows[s..e] {
                self.cum_rows[at + r] += 1;
            }
            self.boundaries.push(e);
        }
    }

    /// A read-only view of the most recent rebuild.
    pub fn view(&self) -> ClumpView<'_> {
        ClumpView {
            boundaries: &self.boundaries,
            cum_rows: &self.cum_rows,
            n_rows: self.n_rows,
        }
    }
}

/// The clump decomposition of a point set, with cumulative row counts at
/// clump boundaries — the owning form of the crate's internal clump view,
/// for direct use and tests. The sweep hot path rebuilds reusable clump
/// scratch space instead.
#[derive(Debug, Clone)]
pub struct Clumps {
    scratch: ClumpScratch,
}

impl Clumps {
    /// Builds clumps from points already sorted by x.
    ///
    /// `xs` are the sorted x values, `rows` the row assignment of each point
    /// (aligned with `xs`), `n_rows` the number of rows in the y partition,
    /// and `max_clumps` the superclump cap (`c * x` in MINE terms).
    pub fn build(xs: &[f64], rows: &[usize], n_rows: usize, max_clumps: usize) -> Clumps {
        let mut scratch = ClumpScratch::default();
        scratch.rebuild(xs, rows, n_rows, max_clumps);
        Clumps { scratch }
    }

    pub(crate) fn view(&self) -> ClumpView<'_> {
        self.scratch.view()
    }

    /// Number of clumps.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// Whether there are no clumps (empty point set).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of points.
    pub fn points(&self) -> usize {
        self.view().points()
    }

    /// Number of rows in the fixed y partition.
    pub fn n_rows(&self) -> usize {
        self.view().n_rows()
    }

    /// Points contained in the column formed by clumps `(s, t]`.
    #[inline]
    pub fn col_count(&self, s: usize, t: usize) -> usize {
        self.view().col_count(s, t)
    }

    /// Cumulative point count at clump boundary `t` (`0 <= t <= len`).
    #[inline]
    pub fn boundary(&self, t: usize) -> usize {
        self.scratch.boundaries[t]
    }

    /// Row totals over the full point set.
    pub fn row_totals(&self) -> &[usize] {
        let stride = self.scratch.n_rows;
        &self.scratch.cum_rows[self.scratch.cum_rows.len() - stride..]
    }

    /// Unnormalized column cost in bits: `sum_r -n_r * log2(n_r / n_col)`
    /// where `n_r` counts the column's points in row `r`. Dividing the sum of
    /// column costs by the total point count gives `H(Q|P)`.
    pub fn cost(&self, s: usize, t: usize) -> f64 {
        self.view().cost(s, t)
    }
}

/// Equipartitions clump ranges into at most `k` superclumps by point count.
fn superclump_into(ranges: &[(usize, usize)], n: usize, k: usize, out: &mut Vec<(usize, usize)>) {
    out.clear();
    let mut in_bin = 0usize;
    let mut consumed = 0usize;
    let mut bins_done = 0usize;
    let mut target = n as f64 / k as f64;
    for &(s, e) in ranges {
        let group = e - s;
        let overshoot = (in_bin as f64 + group as f64 - target).abs();
        let undershoot = (in_bin as f64 - target).abs();
        let start_new = in_bin != 0 && overshoot >= undershoot && bins_done + 1 < k;
        if start_new {
            bins_done += 1;
            in_bin = 0;
            target = (n - consumed) as f64 / (k - bins_done) as f64;
        }
        match out.last_mut() {
            Some(last) if !start_new && in_bin != 0 => last.1 = e,
            _ => out.push((s, e)),
        }
        in_bin += group;
        consumed += group;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equipartition_even_split() {
        let vals: Vec<f64> = (0..12).map(f64::from).collect();
        let a = equipartition(&vals, 3);
        let mut counts = [0usize; 3];
        for &b in &a {
            counts[b] += 1;
        }
        assert_eq!(counts, [4, 4, 4]);
        // Sorted input: assignment must be monotone.
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn equipartition_keeps_ties_together() {
        let vals = [1.0, 1.0, 1.0, 1.0, 2.0, 3.0];
        let a = equipartition(&vals, 3);
        assert!(a[0] == a[1] && a[1] == a[2] && a[2] == a[3]);
    }

    #[test]
    fn equipartition_constant_input_single_bin() {
        let a = equipartition(&[5.0; 8], 4);
        assert!(a.iter().all(|&b| b == a[0]));
    }

    #[test]
    fn equipartition_respects_input_order() {
        // Unsorted input: assignment follows value rank, not position.
        let vals = [3.0, 1.0, 2.0];
        let a = equipartition(&vals, 3);
        assert!(a[1] < a[2] && a[2] < a[0]);
    }

    #[test]
    fn clumps_merge_same_row_runs() {
        // x strictly increasing, rows: 0 0 0 1 1 0 -> clumps {0,1,2} {3,4} {5}.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let rows = [0, 0, 0, 1, 1, 0];
        let c = Clumps::build(&xs, &rows, 2, usize::MAX);
        assert_eq!(c.len(), 3);
        assert_eq!(c.col_count(0, 1), 3);
        assert_eq!(c.col_count(1, 2), 2);
        assert_eq!(c.col_count(2, 3), 1);
    }

    #[test]
    fn clumps_same_x_mixed_rows_stay_together() {
        // Three points share x = 2.0 across two rows: one unsplittable clump.
        let xs = [1.0, 2.0, 2.0, 2.0, 3.0];
        let rows = [0, 0, 1, 0, 1];
        let c = Clumps::build(&xs, &rows, 2, usize::MAX);
        assert_eq!(c.len(), 3);
        assert_eq!(c.col_count(1, 2), 3);
    }

    #[test]
    fn mixed_block_never_merges_into_pure_run() {
        // A pure row-0 run, then a mixed same-x block containing row 0, then
        // another pure row-0 run: three separate clumps (the mixed block is
        // impure, so neither neighbour may absorb it).
        let xs = [1.0, 2.0, 2.0, 3.0];
        let rows = [0, 0, 1, 0];
        let c = Clumps::build(&xs, &rows, 2, usize::MAX);
        assert_eq!(c.len(), 3);
        assert_eq!(c.col_count(1, 2), 2);
    }

    #[test]
    fn superclumps_cap_count() {
        // Alternating rows force one clump per point.
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let rows: Vec<usize> = (0..100).map(|i| i % 2).collect();
        let c = Clumps::build(&xs, &rows, 2, 10);
        assert!(c.len() <= 10, "got {} clumps", c.len());
        assert_eq!(c.points(), 100);
    }

    #[test]
    fn cost_zero_for_pure_column() {
        let xs = [1.0, 2.0, 3.0];
        let rows = [0, 0, 0];
        let c = Clumps::build(&xs, &rows, 2, usize::MAX);
        assert_eq!(c.len(), 1);
        assert!(c.cost(0, 1).abs() < 1e-12);
    }

    #[test]
    fn cost_matches_entropy_formula() {
        // Column with 2 points in row 0 and 2 in row 1: H = 1 bit, cost = 4 * 1.
        let xs = [1.0, 2.0, 3.0, 4.0];
        let rows = [0, 1, 0, 1];
        let c = Clumps::build(&xs, &rows, 2, usize::MAX);
        let total_cost = c.cost(0, c.len());
        assert!((total_cost - 4.0).abs() < 1e-12, "{total_cost}");
    }

    #[test]
    fn row_totals_accumulate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let rows = [0, 1, 1, 1];
        let c = Clumps::build(&xs, &rows, 2, usize::MAX);
        assert_eq!(c.row_totals(), &[1, 3]);
    }

    #[test]
    fn scratch_rebuild_reuses_buffers_across_inputs() {
        let mut scratch = ClumpScratch::default();
        scratch.rebuild(
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            &[0, 0, 0, 1, 1, 0],
            2,
            usize::MAX,
        );
        assert_eq!(scratch.view().len(), 3);
        // A smaller rebuild must fully replace the previous tables.
        scratch.rebuild(&[1.0, 2.0], &[0, 1], 2, usize::MAX);
        let v = scratch.view();
        assert_eq!(v.len(), 2);
        assert_eq!(v.points(), 2);
        assert_eq!(v.row_totals(), &[1, 1]);
    }
}
