//! Algorithm 1 of the paper: invariant selection.
//!
//! Across `N` normal runs of one workload on one node, a metric pair whose
//! association scores stay within a band of width `tau` is an *observable
//! likely invariant*; its reference value is the band maximum
//! (`I(m, n) <- Max(V(m, n))`).

use ix_metrics::MetricId;

use crate::assoc::{pair_count, pair_of_index, AssociationMatrix};
use crate::error::CoreError;

/// One selected invariant: a pair index plus its reference score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvariantEntry {
    /// Canonical flat pair index (see [`crate::pair_index`]).
    pub pair: usize,
    /// Reference association score `I = Max(V)`.
    pub value: f64,
}

/// Algorithm 1 in progress: each pair's band `[min V, max V]` over the
/// normal runs folded so far. A pair whose band has reached `tau` is
/// rejected, and since a band only widens it stays rejected, so later
/// runs need to score only the pairs [`InvariantBands::holds`] keeps.
#[derive(Debug)]
pub(crate) struct InvariantBands {
    lo: Vec<f64>,
    hi: Vec<f64>,
    tau: f64,
}

impl InvariantBands {
    /// No run folded yet: every pair still holds.
    pub(crate) fn new(tau: f64) -> Self {
        InvariantBands {
            lo: vec![f64::INFINITY; pair_count()],
            hi: vec![f64::NEG_INFINITY; pair_count()],
            tau,
        }
    }

    /// Whether `pair`'s band is still narrower than `tau` — the paper's
    /// `max(V) − min(V) < τ`, the one place the test is written.
    pub(crate) fn holds(&self, pair: usize) -> bool {
        self.hi[pair] - self.lo[pair] < self.tau
    }

    /// The pairs that still hold, in ascending pair index.
    pub(crate) fn holding(&self) -> impl Iterator<Item = usize> + '_ {
        (0..pair_count()).filter(|&pair| self.holds(pair))
    }

    /// Folds one run's score of `pair` into its band. A rejected pair is
    /// left as it is.
    pub(crate) fn observe(&mut self, pair: usize, v: f64) {
        if self.holds(pair) {
            self.lo[pair] = self.lo[pair].min(v);
            self.hi[pair] = self.hi[pair].max(v);
        }
    }

    /// The pairs that held over every run, each with reference
    /// `I = max(V)`.
    pub(crate) fn finish(self) -> InvariantSet {
        let entries = self
            .holding()
            .map(|pair| InvariantEntry {
                pair,
                value: self.hi[pair],
            })
            .collect();
        InvariantSet {
            entries,
            tau: self.tau,
        }
    }
}

/// The invariant set of one operation context.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantSet {
    entries: Vec<InvariantEntry>,
    tau: f64,
}

impl InvariantSet {
    /// Runs Algorithm 1 over the association matrices of `N` normal runs:
    /// every run's scores are folded, in run order, into the per-pair
    /// bands [`crate::Engine::build_invariants`] feeds as it scores.
    ///
    /// # Panics
    ///
    /// Panics when `runs` is empty (callers validate run counts first).
    pub fn select(runs: &[AssociationMatrix], tau: f64) -> Self {
        assert!(
            !runs.is_empty(),
            "invariant selection needs at least one run"
        );
        let mut bands = InvariantBands::new(tau);
        for run in runs {
            for (pair, &v) in run.scores().iter().enumerate() {
                bands.observe(pair, v);
            }
        }
        bands.finish()
    }

    /// Reassembles a persisted set, validating what [`InvariantSet::select`]
    /// guarantees by construction.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInvariantSet`] when a pair index is not below
    /// [`pair_count`], the pair indices are not strictly increasing, or a
    /// reference value or `tau` is not finite.
    pub fn from_entries(entries: Vec<InvariantEntry>, tau: f64) -> Result<Self, CoreError> {
        let invalid = |reason: String| Err(CoreError::InvalidInvariantSet { reason });
        if !tau.is_finite() {
            return invalid(format!("tau {tau} is not finite"));
        }
        let mut next = 0;
        for e in &entries {
            if e.pair >= pair_count() {
                return invalid(format!(
                    "pair {} is out of range (pair count {})",
                    e.pair,
                    pair_count()
                ));
            }
            if e.pair < next {
                return invalid(format!("pair {} is out of order", e.pair));
            }
            if !e.value.is_finite() {
                return invalid(format!("pair {} has non-finite value {}", e.pair, e.value));
            }
            next = e.pair + 1;
        }
        Ok(InvariantSet { entries, tau })
    }

    /// The selected invariants, ordered by pair index.
    pub fn entries(&self) -> &[InvariantEntry] {
        &self.entries
    }

    /// Number of invariants.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pair was stable.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stability threshold the set was built with.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The metric pair of entry `k`.
    pub fn metrics_of(&self, k: usize) -> (MetricId, MetricId) {
        pair_of_index(self.entries[k].pair)
    }

    /// Graded deviations of an abnormal association matrix from the
    /// invariant references: `|I - A|` per invariant, in entry order.
    pub fn deviations(&self, abnormal: &AssociationMatrix) -> Vec<f64> {
        self.entries
            .iter()
            .map(|e| (e.value - abnormal.at(e.pair)).abs())
            .collect()
    }

    /// Renders the invariant network in Graphviz DOT format — the picture
    /// of the paper's Fig. 1. Metrics are nodes; invariants are edges
    /// weighted by their reference score. When `violations` is given
    /// (aligned with this set), violated edges are drawn dashed red, as in
    /// the figure.
    ///
    /// # Panics
    ///
    /// Panics when `violations` has a different length than this set.
    pub fn to_dot(&self, violations: Option<&[bool]>) -> String {
        if let Some(v) = violations {
            assert_eq!(v.len(), self.len(), "violation vector must align");
        }
        let mut used = std::collections::BTreeSet::new();
        let mut edges = String::new();
        for (k, e) in self.entries.iter().enumerate() {
            let (a, b) = pair_of_index(e.pair);
            used.insert(a);
            used.insert(b);
            let violated = violations.is_some_and(|v| v[k]);
            let style = if violated {
                ", style=dashed, color=red"
            } else {
                ""
            };
            edges.push_str(&format!(
                "  \"{a}\" -- \"{b}\" [weight={:.2}{style}];\n",
                e.value
            ));
        }
        let mut out =
            String::from("graph invariants {\n  layout=neato;\n  node [shape=ellipse];\n");
        for m in used {
            out.push_str(&format!("  \"{m}\";\n"));
        }
        out.push_str(&edges);
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_with(pair_values: &[(usize, f64)], default: f64) -> AssociationMatrix {
        let mut scores = vec![default; pair_count()];
        for &(p, v) in pair_values {
            scores[p] = v;
        }
        AssociationMatrix::from_scores(scores)
    }

    #[test]
    fn stable_pairs_are_selected_with_max_value() {
        // Pair 0 stable (0.8..0.9), pair 1 unstable (0.2..0.8).
        let runs = vec![
            matrix_with(&[(0, 0.80), (1, 0.20)], 0.5),
            matrix_with(&[(0, 0.90), (1, 0.80)], 0.5),
            matrix_with(&[(0, 0.85), (1, 0.50)], 0.5),
        ];
        let set = InvariantSet::select(&runs, 0.2);
        let e0 = set
            .entries()
            .iter()
            .find(|e| e.pair == 0)
            .expect("pair 0 kept");
        assert_eq!(e0.value, 0.90);
        assert!(set.entries().iter().all(|e| e.pair != 1), "pair 1 dropped");
        // All other pairs constant at 0.5: kept.
        assert_eq!(set.len(), pair_count() - 1);
    }

    #[test]
    fn selection_is_monotone_in_tau() {
        let runs: Vec<AssociationMatrix> = (0..4)
            .map(|r| {
                let scores: Vec<f64> = (0..pair_count())
                    .map(|p| ((p * 7 + r * 13) % 10) as f64 / 10.0)
                    .collect();
                AssociationMatrix::from_scores(scores)
            })
            .collect();
        let tight = InvariantSet::select(&runs, 0.1);
        let loose = InvariantSet::select(&runs, 0.5);
        assert!(tight.len() <= loose.len());
        // Every invariant kept by the tight threshold is kept by the loose one.
        let loose_pairs: std::collections::HashSet<usize> =
            loose.entries().iter().map(|e| e.pair).collect();
        for e in tight.entries() {
            assert!(loose_pairs.contains(&e.pair));
        }
    }

    #[test]
    fn from_entries_accepts_what_select_builds() {
        let runs = vec![matrix_with(&[(3, 0.1)], 0.7), matrix_with(&[], 0.7)];
        let set = InvariantSet::select(&runs, 0.2);
        let back = InvariantSet::from_entries(set.entries().to_vec(), set.tau()).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn from_entries_rejects_what_select_cannot_build() {
        let entry = |pair, value| InvariantEntry { pair, value };
        let cases = [
            (vec![entry(pair_count(), 0.5)], 0.2, "out of range"),
            (vec![entry(99_999, 0.5)], 0.2, "out of range"),
            (vec![entry(4, 0.5), entry(4, 0.6)], 0.2, "out of order"),
            (vec![entry(5, 0.5), entry(4, 0.6)], 0.2, "out of order"),
            (vec![entry(0, f64::NAN)], 0.2, "non-finite"),
            (vec![entry(0, f64::INFINITY)], 0.2, "non-finite"),
            (vec![entry(0, 0.5)], f64::NAN, "tau"),
        ];
        for (entries, tau, needle) in cases {
            match InvariantSet::from_entries(entries, tau) {
                Err(CoreError::InvalidInvariantSet { reason }) => {
                    assert!(reason.contains(needle), "{reason:?} lacks {needle:?}");
                }
                other => panic!("expected InvalidInvariantSet({needle}), got {other:?}"),
            }
        }
    }

    #[test]
    fn single_run_keeps_everything() {
        let runs = vec![matrix_with(&[], 0.7)];
        let set = InvariantSet::select(&runs, 0.2);
        assert_eq!(set.len(), pair_count());
    }

    #[test]
    fn deviations_measure_violations() {
        let runs = vec![matrix_with(&[(0, 0.9)], 0.5), matrix_with(&[(0, 0.9)], 0.5)];
        let set = InvariantSet::select(&runs, 0.2);
        let abnormal = matrix_with(&[(0, 0.3)], 0.5);
        let dev = set.deviations(&abnormal);
        assert_eq!(dev.len(), set.len());
        let k = set.entries().iter().position(|e| e.pair == 0).unwrap();
        assert!((dev[k] - 0.6).abs() < 1e-12);
        assert!(dev.iter().enumerate().all(|(i, &d)| i == k || d < 1e-12));
    }

    #[test]
    fn dot_export_marks_violations() {
        let runs = vec![matrix_with(&[(0, 0.9), (1, 0.8)], 0.0)];
        // tau small: with a single run everything is "stable"; keep two
        // meaningful invariants by zeroing the rest and filtering level.
        let set = InvariantSet::select(&runs, 0.2);
        let mut violations = vec![false; set.len()];
        violations[0] = true;
        let dot = set.to_dot(Some(&violations));
        assert!(dot.starts_with("graph invariants {"));
        assert!(dot.contains("style=dashed, color=red"));
        assert!(dot.contains("cpu.user"));
        // Without violations no edge is red.
        let clean = set.to_dot(None);
        assert!(!clean.contains("color=red"));
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn dot_export_rejects_misaligned_violations() {
        let runs = vec![matrix_with(&[], 0.5)];
        let set = InvariantSet::select(&runs, 0.2);
        set.to_dot(Some(&[true]));
    }

    #[test]
    fn metrics_of_maps_back_to_catalog() {
        let runs = vec![matrix_with(&[], 0.5)];
        let set = InvariantSet::select(&runs, 0.2);
        let (a, b) = set.metrics_of(0);
        assert_ne!(a, b);
    }
}
