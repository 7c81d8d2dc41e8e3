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

use std::ops::Range;
use std::sync::OnceLock;

/// Widest column (in points) whose per-row cost terms come from the
/// process-wide column-cost table; wider columns compute them directly.
/// The triangular table holds `(XLOG_CAP + 1) * (XLOG_CAP + 2) / 2` entries
/// (~260 KB at 256), built once on first use.
pub(crate) const XLOG_CAP: usize = 256;

/// The column-cost table: row `m` (`0 <= m <= XLOG_CAP`) starts at offset
/// `m * (m + 1) / 2` and holds `c * log2(c / m)` for `c = 0..=m`, with the
/// `c = 0` entry `0.0`. Each entry is computed by exactly the expression
/// the direct path evaluates, so a cost summed from the table has the same
/// bits; subtracting the `0.0` of an empty row leaves the sum unchanged.
fn xlog_table() -> &'static [f64] {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = Vec::with_capacity((XLOG_CAP + 1) * (XLOG_CAP + 2) / 2);
        for m in 0..=XLOG_CAP {
            table.push(0.0);
            let m_f = m as f64;
            for c in 1..=m {
                let c = c as f64;
                table.push(c * (c / m_f).log2());
            }
        }
        table
    })
}

/// Row `m` of the column-cost table, or `None` when `m > XLOG_CAP`.
fn xlog_row(table: &'static [f64], m: usize) -> Option<&'static [f64]> {
    let start = m * (m + 1) / 2;
    table.get(start..start + m + 1)
}

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

/// Tie groups of sorted values as `(start, end)` position ranges: each
/// maximal run of equal values is one group. Reuses `out`.
pub(crate) fn tie_groups_into(sorted: &[f64], out: &mut Vec<(usize, usize)>) {
    out.clear();
    let n = sorted.len();
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && sorted[j] == sorted[i] {
            j += 1;
        }
        out.push((i, j));
        i = j;
    }
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
    /// The process-wide column-cost table (see [`xlog_table`]).
    xlog: &'static [f64],
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
    ///
    /// Columns of at most [`XLOG_CAP`] points look each term up in the
    /// column-cost table; wider ones evaluate it directly. Both paths give
    /// the same bits.
    pub fn cost(&self, s: usize, t: usize) -> f64 {
        let n_col = self.col_count(s, t);
        if n_col == 0 {
            return 0.0;
        }
        let lo = &self.cum_rows[s * self.n_rows..(s + 1) * self.n_rows];
        let hi = &self.cum_rows[t * self.n_rows..(t + 1) * self.n_rows];
        let mut acc = 0.0;
        if let Some(xlog) = xlog_row(self.xlog, n_col) {
            for (&h, &l) in hi.iter().zip(lo) {
                acc -= xlog[h - l];
            }
        } else {
            let n_col_f = n_col as f64;
            for (&h, &l) in hi.iter().zip(lo) {
                let c = (h - l) as f64;
                if c > 0.0 {
                    acc -= c * (c / n_col_f).log2();
                }
            }
        }
        acc
    }

    /// Appends [`ClumpView::cost`]`(s, t)` for every `s` in `starts`
    /// (each `s <= t`) to `out`, with the same bits.
    ///
    /// When every column fits the column-cost table and the partition has
    /// 2, 3 or 4 rows, column `t`'s counts are read once and each cost is
    /// the table terms subtracted from `0.0` in row order, as in `cost`;
    /// an empty column subtracts only the `0.0` entries and stays `0.0`.
    /// Other shapes call `cost` per entry.
    pub fn push_column_costs(&self, t: usize, starts: Range<usize>, out: &mut Vec<f64>) {
        if self.points() <= XLOG_CAP {
            match self.n_rows {
                2 => return self.push_table_costs::<2>(t, starts, out),
                3 => return self.push_table_costs::<3>(t, starts, out),
                4 => return self.push_table_costs::<4>(t, starts, out),
                _ => {}
            }
        }
        out.extend(starts.map(|s| self.cost(s, t)));
    }

    /// [`ClumpView::push_column_costs`] for `N` rows, every column within
    /// the table.
    fn push_table_costs<const N: usize>(&self, t: usize, starts: Range<usize>, out: &mut Vec<f64>) {
        let mut hi = [0usize; N];
        hi.copy_from_slice(&self.cum_rows[t * N..(t + 1) * N]);
        let end = self.boundaries[t];
        for s in starts {
            let n_col = end - self.boundaries[s];
            let row = &self.xlog[n_col * (n_col + 1) / 2..];
            let lo = &self.cum_rows[s * N..(s + 1) * N];
            let mut acc = 0.0;
            for r in 0..N {
                acc -= row[hi[r] - lo[r]];
            }
            out.push(acc);
        }
    }
}

/// Row key of a mixed tie group: never a row index, so it never merges.
const MIXED: usize = usize::MAX;

/// Reusable buffers holding one clump decomposition; `rebuild` refills them
/// in place without allocating once warm.
#[derive(Debug, Default, Clone)]
pub(crate) struct ClumpScratch {
    /// Clump start offsets in x order, then `n`: clump `t` holds points
    /// `boundaries[t]..boundaries[t + 1]`. Pass 1 writes the clumps, the
    /// superclump pass rewrites them in place.
    boundaries: Vec<usize>,
    cum_rows: Vec<usize>,
    n_rows: usize,
}

impl ClumpScratch {
    /// Rebuilds the clump decomposition of points already sorted by x.
    ///
    /// `groups` are the x tie groups as `(start, end)` ranges covering
    /// `0..rows.len()` in order (see [`tie_groups_into`]), `rows` the row
    /// assignment of each point in x order, `n_rows` the number of rows in
    /// the y partition, and `max_clumps` the superclump cap (`c * x` in
    /// MINE terms).
    pub fn rebuild(
        &mut self,
        groups: &[(usize, usize)],
        rows: &[usize],
        n_rows: usize,
        max_clumps: usize,
    ) {
        let n = rows.len();
        self.n_rows = n_rows;

        // Pass 1: one clump per tie group, except that a group within one
        // row merges into a preceding clump of that row; a group spanning
        // several rows is an unsplittable "mixed" clump of its own. Each
        // group writes the next start slot unconditionally and keeps it
        // only when it does not merge.
        let bounds = &mut self.boundaries;
        bounds.resize(n + 1, 0);
        bounds[0] = 0;
        let mut k = 0;
        if groups.len() == n {
            // Tie-free x: every point is a pure group of its own row.
            k = usize::from(n > 0);
            for (i, pair) in rows.windows(2).enumerate() {
                bounds[k] = i + 1;
                k += usize::from(pair[1] != pair[0]);
            }
        } else {
            let mut last = MIXED;
            for &(i, j) in groups {
                let row = rows[i];
                let key = if rows[i + 1..j].iter().all(|&r| r == row) {
                    row
                } else {
                    MIXED
                };
                bounds[k] = i;
                k += usize::from(key == MIXED || key != last);
                last = key;
            }
        }
        bounds[k] = n;

        // Pass 2: superclumps — equipartition clumps by point count when the
        // DP would otherwise see too many.
        if max_clumps >= 1 && k > max_clumps {
            k = superclump_into(&mut bounds[..=k], max_clumps);
        }
        bounds.truncate(k + 1);

        // Cumulative tables: stride `n_rows`, first stride all zero, each
        // following stride extends the previous by one clump's row counts.
        self.cum_rows.clear();
        self.cum_rows.reserve((k + 1) * n_rows);
        match n_rows {
            2 => cumulate::<2>(bounds, rows, &mut self.cum_rows),
            3 => cumulate::<3>(bounds, rows, &mut self.cum_rows),
            4 => cumulate::<4>(bounds, rows, &mut self.cum_rows),
            _ => {
                self.cum_rows.resize(n_rows, 0);
                for pair in bounds.windows(2) {
                    let prev = self.cum_rows.len() - n_rows;
                    self.cum_rows.extend_from_within(prev..);
                    let at = prev + n_rows;
                    for &r in &rows[pair[0]..pair[1]] {
                        self.cum_rows[at + r] += 1;
                    }
                }
            }
        }
    }

    /// A read-only view of the most recent rebuild.
    pub fn view(&self) -> ClumpView<'_> {
        ClumpView {
            boundaries: &self.boundaries,
            cum_rows: &self.cum_rows,
            n_rows: self.n_rows,
            xlog: xlog_table(),
        }
    }
}

/// Appends the cumulative row counts of `N` rows at every clump boundary
/// to `cum_rows`, from one running count array.
fn cumulate<const N: usize>(bounds: &[usize], rows: &[usize], cum_rows: &mut Vec<usize>) {
    let mut counts = [0usize; N];
    cum_rows.extend_from_slice(&counts);
    for pair in bounds.windows(2) {
        for &r in &rows[pair[0]..pair[1]] {
            counts[r] += 1;
        }
        cum_rows.extend_from_slice(&counts);
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
        assert_eq!(xs.len(), rows.len(), "xs and rows must align");
        let mut groups = Vec::new();
        tie_groups_into(xs, &mut groups);
        let mut scratch = ClumpScratch::default();
        scratch.rebuild(&groups, rows, n_rows, max_clumps);
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

/// Equipartitions the clumps delimited by `bounds` (start offsets, then
/// the point count) into at most `k` superclumps by point count, rewriting
/// the offsets in place; returns the superclump count.
///
/// A superclump starts at a clump whenever moving on to a new bin brings
/// the current bin no further from its target size. The float arithmetic
/// (`target`, `overshoot`, `undershoot`) decides every start, so it is
/// the MINE SOM's, operation for operation. Starts are written behind the
/// read position, so the rewrite never clobbers an unread offset.
fn superclump_into(bounds: &mut [usize], k: usize) -> usize {
    let clumps = bounds.len() - 1;
    let n = bounds[clumps];
    let mut in_bin = 0usize;
    let mut bins_done = 0usize;
    let mut target = n as f64 / k as f64;
    let mut out = 0;
    let mut s = 0;
    for t in 1..=clumps {
        let e = bounds[t];
        let group = e - s;
        let overshoot = (in_bin as f64 + group as f64 - target).abs();
        let undershoot = (in_bin as f64 - target).abs();
        if in_bin != 0 && overshoot >= undershoot && bins_done + 1 < k {
            bins_done += 1;
            in_bin = 0;
            target = (n - s) as f64 / (k - bins_done) as f64;
        }
        bounds[out] = s;
        out += usize::from(in_bin == 0);
        in_bin += group;
        s = e;
    }
    bounds[out] = n;
    out
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
    fn xlog_table_matches_direct_expression_bit_for_bit() {
        let table = xlog_table();
        assert_eq!(table.len(), (XLOG_CAP + 1) * (XLOG_CAP + 2) / 2);
        for m in 1..=XLOG_CAP {
            let row = xlog_row(table, m).expect("row within cap");
            assert_eq!(row.len(), m + 1);
            assert_eq!(row[0].to_bits(), 0.0f64.to_bits(), "m={m} c=0");
            for (c, entry) in row.iter().enumerate().skip(1) {
                let (c_f, m_f) = (c as f64, m as f64);
                let direct = c_f * (c_f / m_f).log2();
                assert_eq!(entry.to_bits(), direct.to_bits(), "m={m} c={c}");
            }
        }
        assert!(xlog_row(table, XLOG_CAP + 1).is_none());
    }

    /// Every row term evaluated directly: the reference both cost paths
    /// must reproduce bit for bit.
    fn direct_cost(c: &Clumps, s: usize, t: usize) -> f64 {
        let n_col = c.col_count(s, t) as f64;
        let mut acc = 0.0;
        for r in 0..c.n_rows() {
            let rows = &c.scratch.cum_rows;
            let count = (rows[t * c.n_rows() + r] - rows[s * c.n_rows() + r]) as f64;
            if count > 0.0 {
                acc -= count * (count / n_col).log2();
            }
        }
        acc
    }

    #[test]
    fn wide_columns_take_the_direct_path_with_the_same_bits() {
        // 3 rows, 2 * XLOG_CAP points, one clump every 7 points: the full
        // column and every column spanning more than XLOG_CAP points miss
        // the table, narrower ones hit it.
        let n = 2 * XLOG_CAP;
        let xs: Vec<f64> = (0..n).map(|i| (i / 7) as f64).collect();
        let rows: Vec<usize> = (0..n).map(|i| (i * i + i / 5) % 3).collect();
        let c = Clumps::build(&xs, &rows, 3, usize::MAX);
        let k = c.len();
        assert!(c.col_count(0, k) > XLOG_CAP);
        let (mut wide, mut narrow) = (0, 0);
        for s in 0..k {
            for t in s + 1..=k {
                if xlog_row(xlog_table(), c.col_count(s, t)).is_none() {
                    wide += 1;
                } else {
                    narrow += 1;
                }
                assert_eq!(
                    c.cost(s, t).to_bits(),
                    direct_cost(&c, s, t).to_bits(),
                    "({s}, {t}]"
                );
            }
        }
        assert!(wide > 0 && narrow > 0, "wide {wide}, narrow {narrow}");
    }

    #[test]
    fn column_costs_match_cost_entry_by_entry() {
        // Every entry `push_column_costs` writes, not only the DP's minima:
        // 2-4 rows take the row-specialized table path, 5 the per-entry
        // one; point sets up to XLOG_CAP read the table, wider ones fall
        // back to `cost` (whose direct path is pinned above). `s == t` is
        // the empty column.
        for n in [60, XLOG_CAP, XLOG_CAP + 1, 2 * XLOG_CAP] {
            for tie_run in [1, 3] {
                for n_rows in 2..=5 {
                    let xs: Vec<f64> = (0..n).map(|i| (i / tie_run) as f64).collect();
                    let rows: Vec<usize> = (0..n).map(|i| (i * i + i / 5) % n_rows).collect();
                    let c = Clumps::build(&xs, &rows, n_rows, usize::MAX);
                    let v = c.view();
                    assert!(v.len() > 10, "n={n} rows={n_rows}: {} clumps", v.len());
                    let mut out = Vec::new();
                    for t in 1..=v.len() {
                        out.clear();
                        v.push_column_costs(t, 0..t + 1, &mut out);
                        assert_eq!(out.len(), t + 1);
                        for (s, got) in out.iter().enumerate() {
                            assert_eq!(
                                got.to_bits(),
                                v.cost(s, t).to_bits(),
                                "n={n} ties={tie_run} rows={n_rows} ({s}, {t}]"
                            );
                        }
                        // A range not starting at 0, as the DP's last
                        // column reads it.
                        out.clear();
                        v.push_column_costs(t, t / 2..t, &mut out);
                        let direct: Vec<u64> = (t / 2..t).map(|s| v.cost(s, t).to_bits()).collect();
                        let got: Vec<u64> = out.iter().map(|c| c.to_bits()).collect();
                        assert_eq!(got, direct, "n={n} ties={tie_run} rows={n_rows} t={t}");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_rebuild_reuses_buffers_across_inputs() {
        let mut scratch = ClumpScratch::default();
        let singles: Vec<(usize, usize)> = (0..6).map(|i| (i, i + 1)).collect();
        scratch.rebuild(&singles, &[0, 0, 0, 1, 1, 0], 2, usize::MAX);
        assert_eq!(scratch.view().len(), 3);
        // A smaller rebuild must fully replace the previous tables.
        scratch.rebuild(&singles[..2], &[0, 1], 2, usize::MAX);
        let v = scratch.view();
        assert_eq!(v.len(), 2);
        assert_eq!(v.points(), 2);
        assert_eq!(v.row_totals(), &[1, 1]);
    }
}
