//! Per-series preprocessing for shared-profile MIC sweeps.
//!
//! MINE's per-pair cost is dominated by axis preprocessing: sorting the
//! optimized axis and equipartitioning the row axis once per bin count.
//! In a pairwise sweep every series participates in `M - 1` pairs, so that
//! work is redone `M - 1` times per series. A [`SeriesProfile`] hoists it
//! out: one stable sort plus the equipartition assignment for every bin
//! count `k <= B(n) / 2`, computed once per series and reused by
//! [`crate::mic_with_profiles`] across all of the series' pairs.
//!
//! Bit-exactness: the legacy kernel sorted each pair by `(x, tie-break y)`
//! while a profile sorts by `(x, tie-break input index)`. The clump
//! decomposition treats an equal-`x` run as one atomic block whose row
//! *multiset* is all that matters (purity, merging, cumulative counts and
//! column costs are all order-free within the run), so any tie-break
//! yields the identical characteristic matrix. The property tests in
//! `crates/mic/tests/profile_equivalence.rs` assert this bit-for-bit.

use crate::grid::{tie_groups_into, ClumpScratch};
use crate::mine::{MicError, MicParams};
use crate::optimize::DpScratch;

/// The per-`k` equipartition of one series.
#[derive(Debug, Clone)]
pub(crate) struct Partition {
    /// Bin index per input position (ties always share a bin).
    pub assignment: Vec<usize>,
    /// Number of distinct bins actually used (`<= k` under ties).
    pub bins: usize,
}

/// Reusable preprocessing of one series for MIC against any partner of the
/// same length under the same [`MicParams`].
#[derive(Debug, Clone)]
pub struct SeriesProfile {
    params: MicParams,
    /// Grid budget `B(n) = max(4, floor(n^alpha))`.
    budget: usize,
    /// Stable sort permutation by value: `order[i]` is the input index of
    /// the i-th smallest sample.
    order: Vec<usize>,
    /// The samples in sorted order (`values[order[i]]`).
    sorted: Vec<f64>,
    /// Whether every sample is identical (MIC is exactly 0 against any
    /// partner).
    constant: bool,
    /// `partitions[k - 2]`: the equipartition into `k` bins, for
    /// `k in 2..=budget / 2`.
    partitions: Vec<Partition>,
    /// Tie-group `(start, end)` boundaries in sorted order, kept up to
    /// date by [`SeriesProfile::slide`] without allocating: the
    /// partitions are derived from them, and every clump rebuild of this
    /// series as the optimized axis starts from them.
    groups: Vec<(usize, usize)>,
}

impl SeriesProfile {
    /// Preprocesses one series: one stable sort plus the equipartition for
    /// every row count the MINE grid search will visit.
    ///
    /// # Errors
    ///
    /// [`MicError::TooFewPoints`] (< 4 samples), [`MicError::NonFinite`],
    /// [`MicError::BadParams`] — the same validation
    /// [`crate::mic_with_params`] applies to each input.
    pub fn build(values: &[f64], params: &MicParams) -> Result<SeriesProfile, MicError> {
        params.validate()?;
        let n = values.len();
        if n < 4 {
            return Err(MicError::TooFewPoints { got: n });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(MicError::NonFinite);
        }
        let budget = (n as f64).powf(params.alpha).floor().max(4.0) as usize;

        let mut order: Vec<usize> = (0..n).collect();
        // Stable, so ties keep input order; any tie order yields identical
        // MINE output (see module docs). Non-finite values were rejected
        // above, so the Equal fallback is unreachable and tie-neutral.
        order.sort_by(|&a, &b| {
            values[a]
                .partial_cmp(&values[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        let constant = sorted.first() == sorted.last();

        // Tie-group boundaries in sorted order, shared by every k below.
        let mut groups = Vec::new();
        tie_groups_into(&sorted, &mut groups);

        let max_rows = (budget / 2).max(2);
        let mut partitions = Vec::with_capacity(max_rows - 1);
        for k in 2..=max_rows {
            partitions.push(equipartition_groups(&order, &groups, n, k));
        }
        Ok(SeriesProfile {
            params: *params,
            budget,
            order,
            sorted,
            constant,
            partitions,
            groups,
        })
    }

    /// Slides the profile one tick: the window's oldest sample leaves and
    /// `entering` joins at the back.
    ///
    /// The caller guarantees the underlying window really did shift by one
    /// — every sample's input index drops by one, the one at index 0
    /// leaves, and `entering` becomes index `n - 1`. Under that contract
    /// the result is bit-identical to [`SeriesProfile::build`] on the slid
    /// window: the stable-sort invariant is preserved directly (index 0 is
    /// globally smallest, so it leads its tie run; index `n - 1` is
    /// globally largest, so it is inserted after every tie of `entering`),
    /// and tie groups and partitions are re-derived with the same
    /// arithmetic as a fresh build.
    ///
    /// # Errors
    ///
    /// [`MicError::NonFinite`] when `entering` is not finite; the profile
    /// is left unchanged.
    pub fn slide(&mut self, entering: f64) -> Result<(), MicError> {
        if !entering.is_finite() {
            return Err(MicError::NonFinite);
        }
        let n = self.order.len();
        // Drop the departing sample (input index 0) and shift every
        // remaining input index down by one. Removal keeps the stable
        // order of the survivors: equal values stay in ascending index
        // order whichever run member leaves.
        // lint: allow(hot-path-panic) order is a permutation of 0..n, so 0 is present.
        let p0 = self.order.iter().position(|&i| i == 0).unwrap_or(0);
        self.order.remove(p0);
        self.sorted.remove(p0);
        for idx in &mut self.order {
            *idx -= 1;
        }
        // Insert the entering sample after all of its ties: index n - 1 is
        // globally largest, so "after every equal value" is exactly where a
        // fresh stable sort would put it. Capacity was freed by the remove
        // above, so neither insert reallocates.
        let pos = self.sorted.partition_point(|&v| v <= entering);
        self.order.insert(pos, n - 1);
        self.sorted.insert(pos, entering);
        self.constant = self.sorted.first() == self.sorted.last();
        // Re-derive tie groups and every equipartition with the same
        // arithmetic as a fresh build, reusing the buffers in place.
        tie_groups_into(&self.sorted, &mut self.groups);
        let max_rows = (self.budget / 2).max(2);
        for k in 2..=max_rows {
            equipartition_groups_into(&self.order, &self.groups, n, k, &mut self.partitions[k - 2]);
        }
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the profile covers no samples (never true — construction
    /// requires at least four).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Whether every sample is identical.
    pub fn is_constant(&self) -> bool {
        self.constant
    }

    /// The grid budget `B(n)` the profile was prepared for.
    pub fn grid_budget(&self) -> usize {
        self.budget
    }

    /// The parameters the profile was built with.
    pub fn params(&self) -> &MicParams {
        &self.params
    }

    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// The tie groups of the sorted samples (see [`tie_groups_into`]).
    pub(crate) fn groups(&self) -> &[(usize, usize)] {
        &self.groups
    }

    /// The equipartition into `k` bins (`2 <= k <= budget / 2`).
    pub(crate) fn partition(&self, k: usize) -> &Partition {
        &self.partitions[k - 2]
    }
}

/// Equipartition over precomputed tie groups: identical arithmetic to
/// [`crate::equipartition`], minus the per-call sort.
fn equipartition_groups(
    order: &[usize],
    groups: &[(usize, usize)],
    n: usize,
    k: usize,
) -> Partition {
    let mut out = Partition {
        assignment: vec![0usize; n],
        bins: 1,
    };
    equipartition_groups_into(order, groups, n, k, &mut out);
    out
}

/// [`equipartition_groups`] writing into an existing [`Partition`] —
/// allocation-free once the assignment buffer is warm (the slide path
/// keeps `n` constant, so `resize` never grows past build-time capacity).
fn equipartition_groups_into(
    order: &[usize],
    groups: &[(usize, usize)],
    n: usize,
    k: usize,
    out: &mut Partition,
) {
    out.assignment.resize(n, 0);
    let mut current_bin = 0usize;
    let mut in_bin = 0usize;
    let mut target = n as f64 / k as f64;
    for &(i, j) in groups {
        let group = j - i;
        let overshoot = (in_bin as f64 + group as f64 - target).abs();
        let undershoot = (in_bin as f64 - target).abs();
        if in_bin != 0 && overshoot >= undershoot && current_bin + 1 < k {
            current_bin += 1;
            in_bin = 0;
            target = (n - i) as f64 / (k - current_bin) as f64;
        }
        for &p in &order[i..j] {
            out.assignment[p] = current_bin;
        }
        in_bin += group;
    }
    out.bins = current_bin + 1;
}

/// Reusable working memory for the MINE kernel: the row mapping, clump
/// tables and DP arrays. One scratch per worker thread
/// makes steady-state sweeps allocation-free per pair — every buffer grows
/// to the high-water mark of the first few pairs and is then reused.
#[derive(Debug, Default, Clone)]
pub struct MineScratch {
    /// Row assignment of each point in x-sorted order.
    pub(crate) sorted_rows: Vec<usize>,
    /// Clump tables (boundaries, cumulative row counts).
    pub(crate) clumps: ClumpScratch,
    /// DP working memory (cost triangle, rolling rows, MI output).
    pub(crate) dp: DpScratch,
}

impl MineScratch {
    /// An empty scratch arena; buffers grow on first use.
    pub fn new() -> Self {
        MineScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equipartition;

    #[test]
    fn profile_partitions_match_equipartition() {
        // Values with heavy ties in unsorted order.
        let values = [3.0, 1.0, 2.0, 2.0, 1.0, 3.0, 2.0, 0.5, 4.0, 2.0];
        let p = SeriesProfile::build(&values, &MicParams::default()).unwrap();
        for k in 2..=p.grid_budget() / 2 {
            assert_eq!(
                p.partition(k).assignment,
                equipartition(&values, k),
                "k = {k}"
            );
            let max_bin = p.partition(k).assignment.iter().max().unwrap();
            assert_eq!(p.partition(k).bins, max_bin + 1);
        }
    }

    #[test]
    fn profile_sort_is_stable_and_aligned() {
        let values = [2.0, 1.0, 2.0, 1.0, 3.0];
        let p = SeriesProfile::build(&values, &MicParams::default()).unwrap();
        assert_eq!(p.order(), &[1, 3, 0, 2, 4]);
        assert_eq!(p.sorted, &[1.0, 1.0, 2.0, 2.0, 3.0]);
        assert_eq!(p.groups(), &[(0, 2), (2, 4), (4, 5)]);
        assert!(!p.is_constant());
        assert!(!p.is_empty());
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn profile_flags_constant_series() {
        let p = SeriesProfile::build(&[7.0; 12], &MicParams::default()).unwrap();
        assert!(p.is_constant());
    }

    /// Asserts every observable component of two profiles is bit-equal.
    fn assert_profiles_identical(a: &SeriesProfile, b: &SeriesProfile) {
        assert_eq!(a.order, b.order);
        let a_bits: Vec<u64> = a.sorted.iter().map(|v| v.to_bits()).collect();
        let b_bits: Vec<u64> = b.sorted.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a_bits, b_bits);
        assert_eq!(a.constant, b.constant);
        assert_eq!(a.budget, b.budget);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.partitions.len(), b.partitions.len());
        for (pa, pb) in a.partitions.iter().zip(&b.partitions) {
            assert_eq!(pa.assignment, pb.assignment);
            assert_eq!(pa.bins, pb.bins);
        }
    }

    #[test]
    fn slide_matches_rebuild_bit_for_bit() {
        // A window with ties, then a stream of entering values that hit
        // every interesting case: new minimum, new maximum, duplicate of
        // an existing value, duplicate of the departing value.
        let mut window = vec![3.0, 1.0, 2.0, 2.0, 1.0, 3.0, 2.0, 0.5, 4.0, 2.0];
        let entering = [2.0, -1.0, 9.0, 3.0, 2.0, 2.0, 0.5, 4.0, 1.0, 1.0];
        let params = MicParams::default();
        let mut profile = SeriesProfile::build(&window, &params).unwrap();
        for &e in &entering {
            window.remove(0);
            window.push(e);
            profile.slide(e).unwrap();
            let fresh = SeriesProfile::build(&window, &params).unwrap();
            assert_profiles_identical(&profile, &fresh);
        }
    }

    #[test]
    fn clean_slide_reports_unmoved() {
        let window = [5.0, 1.0, 5.0, 2.0, 5.0, 3.0];
        let mut profile = SeriesProfile::build(&window, &MicParams::default()).unwrap();
        // The departing front value re-enters at the back: the multiset
        // is unchanged, and the profile is still the slid window's.
        profile.slide(5.0).unwrap();
        let slid = [1.0, 5.0, 2.0, 5.0, 3.0, 5.0];
        let fresh = SeriesProfile::build(&slid, &MicParams::default()).unwrap();
        assert_profiles_identical(&profile, &fresh);
    }

    #[test]
    fn slide_through_constant_and_back() {
        let mut window = vec![7.0, 7.0, 7.0, 7.0, 1.0];
        let mut profile = SeriesProfile::build(&window, &MicParams::default()).unwrap();
        // 1.0 stays; sliding 7.0 out and 7.0 in keeps it non-constant.
        for _ in 0..4 {
            window.remove(0);
            window.push(7.0);
            profile.slide(7.0).unwrap();
        }
        // Now the 1.0 departs and a 7.0 enters: all equal.
        window.remove(0);
        window.push(7.0);
        profile.slide(7.0).unwrap();
        assert!(profile.is_constant());
        assert_profiles_identical(
            &profile,
            &SeriesProfile::build(&window, &MicParams::default()).unwrap(),
        );
        // And back out of constant.
        window.remove(0);
        window.push(2.5);
        profile.slide(2.5).unwrap();
        assert!(!profile.is_constant());
        assert_profiles_identical(
            &profile,
            &SeriesProfile::build(&window, &MicParams::default()).unwrap(),
        );
    }

    #[test]
    fn slide_rejects_non_finite_and_leaves_profile_intact() {
        let window = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut profile = SeriesProfile::build(&window, &MicParams::default()).unwrap();
        assert_eq!(profile.slide(f64::NAN).unwrap_err(), MicError::NonFinite);
        assert_profiles_identical(
            &profile,
            &SeriesProfile::build(&window, &MicParams::default()).unwrap(),
        );
    }

    #[test]
    fn profile_validation_matches_mine() {
        assert_eq!(
            SeriesProfile::build(&[1.0, 2.0, 3.0], &MicParams::default()).unwrap_err(),
            MicError::TooFewPoints { got: 3 }
        );
        assert_eq!(
            SeriesProfile::build(&[1.0, f64::NAN, 2.0, 3.0], &MicParams::default()).unwrap_err(),
            MicError::NonFinite
        );
        let bad = MicParams { alpha: 0.0, c: 1.0 };
        assert_eq!(
            SeriesProfile::build(&[1.0, 2.0, 3.0, 4.0], &bad).unwrap_err(),
            MicError::BadParams
        );
    }
}
