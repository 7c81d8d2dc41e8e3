//! The clump rebuild and the column dynamic program against a reference
//! copy of their straightforward form.
//!
//! The kernel builds clumps from tie-group boundaries, fills only the
//! column costs its dynamic program reads, and specializes both on the row
//! count. The reference below walks `(start, end)` clump tuples, merges
//! superclumps as tuples, carries the cumulative row counts stride by
//! stride, and runs the dynamic program over the full cost triangle. Both
//! must agree exactly: the same clump tables as integers, and the same
//! column costs and mutual information by `to_bits`. The reference lives
//! here only, as a test oracle.

use proptest::prelude::*;

use ix_mic::{
    entropy_from_counts, equipartition, mic_with_profiles_scratch, optimize_axis, Clumps,
    MicParams, MineScratch, SeriesProfile,
};

/// A clump decomposition built the straightforward way.
struct Reference {
    /// Cumulative point counts at clump boundaries, from 0 to `n`.
    boundaries: Vec<usize>,
    /// Cumulative row counts at each boundary, stride `n_rows`.
    cum_rows: Vec<usize>,
    n_rows: usize,
}

impl Reference {
    /// Groups same-x runs (a run spanning several rows stands alone, a run
    /// within one row merges into a pure predecessor of the same row),
    /// caps the clumps by superclumps, then accumulates row counts.
    fn build(xs: &[f64], rows: &[usize], n_rows: usize, max_clumps: usize) -> Reference {
        let n = xs.len();
        let mut ranges: Vec<(usize, usize)> = Vec::new();
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
            match (last_pure, pure, ranges.last_mut()) {
                (Some(prev_row), Some(row), Some(last)) if prev_row == row => last.1 = j,
                _ => {
                    ranges.push((i, j));
                    last_pure = pure;
                }
            }
            i = j;
        }
        if max_clumps >= 1 && ranges.len() > max_clumps {
            ranges = superclumps(&ranges, n, max_clumps);
        }
        let mut boundaries = vec![0];
        let mut cum_rows = vec![0; n_rows];
        for &(s, e) in &ranges {
            let prev = cum_rows.len() - n_rows;
            for r in 0..n_rows {
                let carried = cum_rows[prev + r];
                cum_rows.push(carried);
            }
            let at = cum_rows.len() - n_rows;
            for &r in &rows[s..e] {
                cum_rows[at + r] += 1;
            }
            boundaries.push(e);
        }
        Reference {
            boundaries,
            cum_rows,
            n_rows,
        }
    }

    fn len(&self) -> usize {
        self.boundaries.len() - 1
    }

    fn row_totals(&self) -> &[usize] {
        &self.cum_rows[self.cum_rows.len() - self.n_rows..]
    }

    /// Every row term `-c * log2(c / n_col)` evaluated directly, in row
    /// order. The kernel's column-cost table holds exactly these terms
    /// (grid.rs checks every entry by `to_bits`), so the bits must match.
    fn cost(&self, s: usize, t: usize) -> f64 {
        let n_col = (self.boundaries[t] - self.boundaries[s]) as f64;
        let mut acc = 0.0;
        for r in 0..self.n_rows {
            let c =
                (self.cum_rows[t * self.n_rows + r] - self.cum_rows[s * self.n_rows + r]) as f64;
            if c > 0.0 {
                acc -= c * (c / n_col).log2();
            }
        }
        acc
    }

    /// The column dynamic program over the full cost triangle, every layer
    /// at every `t`: `v[l - 2]` is the maximal mutual information with at
    /// most `l` columns.
    fn optimize(&self, x_max: usize) -> Vec<f64> {
        if x_max < 2 {
            return Vec::new();
        }
        let k = self.len();
        let n = self.boundaries[k];
        let h_q = entropy_from_counts(self.row_totals());
        if k < 2 || n == 0 || self.n_rows < 2 || h_q == 0.0 {
            return vec![0.0; x_max - 1];
        }
        let l_cap = x_max.min(k);
        let mut cost = vec![vec![0.0; k + 1]; k + 1];
        for (s, row) in cost.iter_mut().enumerate() {
            for (t, c) in row.iter_mut().enumerate().skip(s + 1) {
                *c = self.cost(s, t);
            }
        }
        // prev[t]: the minimum cost of the first t clumps in exactly l
        // columns; best_full[l - 1]: that minimum over all k clumps.
        let mut prev = cost[0].clone();
        prev[0] = f64::INFINITY;
        let mut best_full = vec![prev[k]];
        for l in 2..=l_cap {
            let mut cur = vec![f64::INFINITY; k + 1];
            for t in l..=k {
                let mut best = f64::INFINITY;
                for s in l - 1..t {
                    let v = prev[s] + cost[s][t];
                    if v < best {
                        best = v;
                    }
                }
                cur[t] = best;
            }
            best_full.push(cur[k]);
            prev = cur;
        }
        let mut running_min = best_full[0];
        (2..=x_max)
            .map(|l| {
                if let Some(&full) = best_full.get(l - 1) {
                    running_min = running_min.min(full);
                }
                if running_min.is_finite() {
                    (h_q - running_min / n as f64).max(0.0)
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Equipartitions clump ranges into at most `k` superclumps by point count.
fn superclumps(ranges: &[(usize, usize)], n: usize, k: usize) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
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
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts the kernel's clumps and dynamic program equal the reference's.
fn assert_matches_reference(xs: &[f64], rows: &[usize], n_rows: usize, cap: usize, x_max: usize) {
    let clumps = Clumps::build(xs, rows, n_rows, cap);
    let reference = Reference::build(xs, rows, n_rows, cap);
    let k = reference.len();
    let case = format!("n {} rows {n_rows} cap {cap} x_max {x_max}", xs.len());
    assert_eq!(clumps.len(), k, "clump count, {case}");
    for t in 0..=k {
        assert_eq!(
            clumps.boundary(t),
            reference.boundaries[t],
            "boundary {t}, {case}"
        );
    }
    assert_eq!(clumps.row_totals(), reference.row_totals(), "{case}");
    for t in 1..=k {
        for s in 0..t {
            let count = reference.boundaries[t] - reference.boundaries[s];
            assert_eq!(clumps.col_count(s, t), count, "({s}, {t}], {case}");
            let (got, want) = (clumps.cost(s, t), reference.cost(s, t));
            assert_eq!(got.to_bits(), want.to_bits(), "cost ({s}, {t}], {case}");
        }
    }
    assert_eq!(
        bits(&optimize_axis(&clumps, x_max)),
        bits(&reference.optimize(x_max)),
        "optimize_axis, {case}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn clumps_and_dp_match_the_reference(
        steps in prop::collection::vec(0usize..3, 0..320),
        ties in 0usize..3,
        labels in prop::collection::vec(0usize..8, 320..321),
        stay in prop::collection::vec(0.0f64..1.0, 320..321),
        stickiness in 0.0f64..1.0,
        n_rows in 1usize..9,
        cap_pick in 0usize..6,
        x_max in 2usize..9,
    ) {
        // Sorted x: tie-free (every step at least 1), all tied (one value),
        // or mixed (a zero step ties a point to its predecessor).
        let mut xs = Vec::with_capacity(steps.len());
        let mut x = 0.0f64;
        for &step in &steps {
            x += match ties {
                0 => step as f64 + 1.0,
                1 => 0.0,
                _ => step as f64,
            };
            xs.push(x);
        }
        // Rows repeat their predecessor with probability `stickiness`, so
        // pure runs of several points (and so merges) are common.
        let mut rows: Vec<usize> = Vec::with_capacity(xs.len());
        for i in 0..xs.len() {
            let row = match rows.last() {
                Some(&prev) if stay[i] < stickiness => prev,
                _ => labels[i] % n_rows,
            };
            rows.push(row);
        }
        let k = Reference::build(&xs, &rows, n_rows, usize::MAX).len();
        let cap = [1, 2, k.saturating_sub(1), k, k + 1, usize::MAX][cap_pick];
        assert_matches_reference(&xs, &rows, n_rows, cap, x_max);
    }
}

#[test]
fn wide_and_degenerate_inputs_match_the_reference() {
    // No points, one point, and a constant axis.
    assert_matches_reference(&[], &[], 2, usize::MAX, 4);
    assert_matches_reference(&[1.0], &[0], 2, usize::MAX, 4);
    assert_matches_reference(&[3.0; 9], &[0, 1, 0, 1, 1, 0, 1, 0, 0], 2, 4, 3);
    // More points than the column-cost table covers: the widest columns
    // take the direct path, for specialized and generic row counts alike.
    let n = 600;
    let xs: Vec<f64> = (0..n).map(|i| (i / 3) as f64).collect();
    for n_rows in [2, 3, 4, 5] {
        let rows: Vec<usize> = (0..n).map(|i| (i * i + i / 7) % n_rows).collect();
        for cap in [10, 40, usize::MAX] {
            assert_matches_reference(&xs, &rows, n_rows, cap, 6);
        }
    }
}

/// The MIC of two raw series through the reference clumps and dynamic
/// program: every row count in both orientations, each entry normalized by
/// `log2(min(cols, rows))`.
fn reference_mic(xs: &[f64], ys: &[f64], params: &MicParams) -> f64 {
    let b = (xs.len() as f64).powf(params.alpha).floor().max(4.0) as usize;
    let constant = |v: &[f64]| v.iter().all(|&a| a == v[0]);
    if constant(xs) || constant(ys) {
        return 0.0;
    }
    let mut best = 0.0f64;
    for rows in 2..=(b / 2).max(2) {
        let x_max = b / rows;
        if x_max < 2 {
            break;
        }
        for (a, partitioned) in [(xs, ys), (ys, xs)] {
            let assignment = equipartition(partitioned, rows);
            let bins = assignment.iter().max().map_or(1, |&m| m + 1);
            let mut order: Vec<usize> = (0..a.len()).collect();
            order.sort_by(|&i, &j| a[i].total_cmp(&a[j]));
            let sorted: Vec<f64> = order.iter().map(|&i| a[i]).collect();
            let sorted_rows: Vec<usize> = order.iter().map(|&i| assignment[i]).collect();
            let cap = ((params.c * x_max as f64).ceil() as usize).max(1);
            let mi = Reference::build(&sorted, &sorted_rows, bins, cap).optimize(x_max);
            for (idx, &i_val) in mi.iter().enumerate() {
                let denom = ((idx + 2).min(rows) as f64).log2();
                let v = if denom > 0.0 { i_val / denom } else { 0.0 };
                best = best.max(v.clamp(0.0, 1.0));
            }
        }
    }
    best.clamp(0.0, 1.0)
}

#[test]
fn slid_profiles_feed_their_tie_groups_to_the_kernel() {
    // A tie-free x window slides in a copy of one of its values (a tie
    // appears), keeps it while other samples move, then slides it out (the
    // tie is gone); y carries ties of its own throughout. After every slide
    // the kernel reads the slid profile's tie groups, and its MIC must have
    // the bits of the reference and of profiles built fresh.
    let params = MicParams::fast();
    let n = 60;
    let mut xs: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 * 0.5).collect();
    let mut ys: Vec<f64> = (0..n)
        .map(|i| ((i * i) % 7) as f64 + (i / 20) as f64)
        .collect();
    let mut xp = SeriesProfile::build(&xs, &params).expect("profile");
    let mut yp = SeriesProfile::build(&ys, &params).expect("profile");
    let mut scratch = MineScratch::new();
    let mut tied_steps = 0;
    for step in 0..n + 3 {
        // Enter a copy of the sample at offset 5 (always already in the
        // window, so a tie forms) at step 0, fresh values otherwise; the
        // copy and its original leave within the run.
        let entering_x = if step == 0 {
            xs[5]
        } else {
            100.0 + step as f64 * 0.25
        };
        let entering_y = ((step * 3) % 5) as f64;
        xs.remove(0);
        ys.remove(0);
        xs.push(entering_x);
        ys.push(entering_y);
        xp.slide(entering_x).expect("slide");
        yp.slide(entering_y).expect("slide");
        let mut distinct = xs.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        if distinct.len() < n {
            tied_steps += 1;
        }
        let slid = mic_with_profiles_scratch(&xp, &yp, &params, &mut scratch).expect("mic");
        let fresh = mic_with_profiles_scratch(
            &SeriesProfile::build(&xs, &params).expect("profile"),
            &SeriesProfile::build(&ys, &params).expect("profile"),
            &params,
            &mut scratch,
        )
        .expect("mic");
        let reference = reference_mic(&xs, &ys, &params);
        assert_eq!(slid.to_bits(), fresh.to_bits(), "step {step}");
        assert_eq!(slid.to_bits(), reference.to_bits(), "step {step}");
    }
    // The tie formed at step 0 and its original left at step 5: both the
    // tied and the tie-free path ran after a slide.
    assert!(
        tied_steps > 0 && tied_steps < n + 3,
        "tied for {tied_steps} steps"
    );
}
