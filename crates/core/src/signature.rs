//! Violation tuples and the signature database.
//!
//! "All the violations constitute a binary tuple (0, 1, 1, 0, ..., 0) which
//! is used to signify a performance problem uniquely. [...] Aggregating all
//! the binary tuples constructed for multiple performance problems, a
//! signature database is established." We additionally keep the deviation
//! magnitude per violated invariant, which the graded cosine similarity
//! exploits; the binary view is always recoverable.

use serde::{Deserialize, Serialize};

use crate::assoc::AssociationMatrix;
use crate::context::OperationContext;
use crate::invariants::InvariantSet;
use crate::similarity::Similarity;
use crate::CoreError;

/// The violations of an invariant set by one abnormal observation window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViolationTuple {
    /// Per-invariant violation magnitude: `|I - A|` where it reaches the
    /// threshold `epsilon`, `0.0` elsewhere. Indexed like
    /// [`InvariantSet::entries`].
    graded: Vec<f64>,
}

impl ViolationTuple {
    /// Builds the tuple of `abnormal` against `invariants` with violation
    /// threshold `epsilon`.
    pub fn build(invariants: &InvariantSet, abnormal: &AssociationMatrix, epsilon: f64) -> Self {
        let graded = invariants
            .deviations(abnormal)
            .into_iter()
            .map(|d| if d >= epsilon { d } else { 0.0 })
            .collect();
        ViolationTuple { graded }
    }

    /// [`ViolationTuple::build`] over a partial matrix: invariants whose
    /// pair was never scored (`scored[pair] == false`) contribute `0.0`
    /// instead of reading the matrix's placeholder value as a deviation.
    /// `scored` is indexed by [`crate::assoc::pair_index`] like the matrix
    /// itself.
    pub fn build_masked(
        invariants: &InvariantSet,
        abnormal: &AssociationMatrix,
        epsilon: f64,
        scored: &[bool],
    ) -> Self {
        let graded = invariants
            .deviations(abnormal)
            .into_iter()
            .enumerate()
            .map(|(k, d)| {
                let (a, b) = invariants.metrics_of(k);
                let pair = crate::assoc::pair_index(a.index(), b.index());
                if scored.get(pair).copied().unwrap_or(false) && d >= epsilon {
                    d
                } else {
                    0.0
                }
            })
            .collect();
        ViolationTuple { graded }
    }

    /// Builds a tuple from raw graded values (deserialization, tests).
    pub fn from_graded(graded: Vec<f64>) -> Self {
        ViolationTuple { graded }
    }

    /// The paper's binary tuple: `true` where the invariant is violated.
    pub fn binary(&self) -> Vec<bool> {
        self.graded.iter().map(|&v| v > 0.0).collect()
    }

    /// Graded magnitudes.
    pub fn graded(&self) -> &[f64] {
        &self.graded
    }

    /// Number of invariants covered.
    pub fn len(&self) -> usize {
        self.graded.len()
    }

    /// Whether the tuple covers no invariants.
    pub fn is_empty(&self) -> bool {
        self.graded.is_empty()
    }

    /// Number of violated invariants.
    pub fn violation_count(&self) -> usize {
        self.graded.iter().filter(|&&v| v > 0.0).count()
    }

    /// Similarity to another tuple.
    ///
    /// # Errors
    ///
    /// [`CoreError::TupleLengthMismatch`] when the tuples come from
    /// different invariant sets.
    pub fn similarity(&self, other: &ViolationTuple, sim: Similarity) -> Result<f64, CoreError> {
        if self.len() != other.len() {
            return Err(CoreError::TupleLengthMismatch {
                expected: self.len(),
                got: other.len(),
            });
        }
        Ok(sim.score(&self.graded, &other.graded))
    }
}

/// One signature record: "(binary tuple, problem name, ip, workload type)".
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// The violation tuple observed under the problem.
    pub tuple: ViolationTuple,
    /// Root-cause label (e.g. "CPU-hog").
    pub problem: String,
    /// The operation context the signature belongs to.
    pub context: OperationContext,
}

/// The signature database: all investigated problems' signatures, searchable
/// by tuple similarity within an operation context.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SignatureDatabase {
    records: Vec<Signature>,
}

impl SignatureDatabase {
    /// An empty database.
    pub fn new() -> Self {
        SignatureDatabase::default()
    }

    /// Adds a signature ("as more performance problems are diagnosed, the
    /// number of items in the signature database increases gradually").
    pub fn add(&mut self, signature: Signature) {
        self.records.push(signature);
    }

    /// All records.
    pub fn records(&self) -> &[Signature] {
        &self.records
    }

    /// Records of one context.
    pub fn records_for<'a>(
        &'a self,
        context: &'a OperationContext,
    ) -> impl Iterator<Item = &'a Signature> + 'a {
        self.records.iter().filter(move |s| &s.context == context)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Detects *signature conflicts* within a context: pairs of distinct
    /// problems whose training signatures are at least `min_similarity`
    /// close under `sim` — the failure mode the paper observes between
    /// Net-drop and Net-delay ("that's a typical signature conflict") and
    /// defers to future work. Returns `(problem_a, problem_b, similarity)`
    /// sorted by similarity descending; each problem pair appears once with
    /// its *maximum* cross-signature similarity.
    ///
    /// # Errors
    ///
    /// A tuple-length mismatch from signatures of different invariant sets.
    pub fn conflicts(
        &self,
        context: &OperationContext,
        sim: Similarity,
        min_similarity: f64,
    ) -> Result<Vec<(String, String, f64)>, CoreError> {
        let records: Vec<&Signature> = self.records_for(context).collect();
        let mut best: std::collections::BTreeMap<(String, String), f64> = Default::default();
        for (i, a) in records.iter().enumerate() {
            for b in records.iter().skip(i + 1) {
                if a.problem == b.problem {
                    continue;
                }
                let score = a.tuple.similarity(&b.tuple, sim)?;
                if score < min_similarity {
                    continue;
                }
                let key = if a.problem <= b.problem {
                    (a.problem.clone(), b.problem.clone())
                } else {
                    (b.problem.clone(), a.problem.clone())
                };
                let slot = best.entry(key).or_insert(f64::MIN);
                if score > *slot {
                    *slot = score;
                }
            }
        }
        let mut out: Vec<(String, String, f64)> =
            best.into_iter().map(|((a, b), s)| (a, b, s)).collect();
        out.sort_by(|x, y| y.2.partial_cmp(&x.2).expect("finite scores"));
        Ok(out)
    }

    /// Ranks the problems of `context` by tuple similarity, best first.
    /// A problem with several training signatures is scored by its best
    /// match. Ties rank deterministically by problem name.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptySignatureDatabase`] when the context has no
    /// signatures, or a tuple-length mismatch from stale signatures.
    pub fn rank(
        &self,
        context: &OperationContext,
        tuple: &ViolationTuple,
        sim: Similarity,
    ) -> Result<Vec<(String, f64)>, CoreError> {
        let mut best: std::collections::BTreeMap<&str, f64> = Default::default();
        let mut any = false;
        for record in self.records_for(context) {
            any = true;
            let score = record.tuple.similarity(tuple, sim)?;
            let slot = best.entry(record.problem.as_str()).or_insert(f64::MIN);
            if score > *slot {
                *slot = score;
            }
        }
        if !any {
            return Err(CoreError::EmptySignatureDatabase(context.clone()));
        }
        let mut ranked: Vec<(String, f64)> =
            best.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite scores")
                .then(a.0.cmp(&b.0))
        });
        Ok(ranked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::pair_count;

    fn ctx() -> OperationContext {
        OperationContext::new("10.0.0.1", "Wordcount")
    }

    fn invariant_set() -> InvariantSet {
        let runs = vec![AssociationMatrix::from_scores(vec![0.8; pair_count()])];
        InvariantSet::select(&runs, 0.2)
    }

    #[test]
    fn tuple_thresholds_deviations() {
        let set = invariant_set();
        let mut scores = vec![0.8; pair_count()];
        scores[0] = 0.3; // deviation 0.5 -> violated
        scores[1] = 0.7; // deviation 0.1 -> not violated
        let abnormal = AssociationMatrix::from_scores(scores);
        let t = ViolationTuple::build(&set, &abnormal, 0.2);
        assert_eq!(t.len(), pair_count());
        assert_eq!(t.violation_count(), 1);
        assert!(t.binary()[0]);
        assert!(!t.binary()[1]);
        assert!((t.graded()[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn masked_build_ignores_unscored_pairs() {
        let set = invariant_set();
        let mut scores = vec![0.8; pair_count()];
        scores[0] = 0.3; // deviation 0.5 on a scored pair -> violated
        scores[1] = 0.1; // deviation 0.7, but the pair is unscored
        let abnormal = AssociationMatrix::from_scores(scores);
        let mut mask = vec![true; pair_count()];
        mask[1] = false;
        let t = ViolationTuple::build_masked(&set, &abnormal, 0.2, &mask);
        assert!(t.binary()[0], "scored violation must survive");
        assert!(!t.binary()[1], "unscored pair must not read as violated");
        // The unmasked build over the same matrix *would* flag pair 1.
        assert!(ViolationTuple::build(&set, &abnormal, 0.2).binary()[1]);
    }

    #[test]
    fn rank_prefers_matching_problem() {
        let mut db = SignatureDatabase::new();
        let mk = |bits: &[usize]| {
            let mut g = vec![0.0; 10];
            for &b in bits {
                g[b] = 0.5;
            }
            ViolationTuple::from_graded(g)
        };
        db.add(Signature {
            tuple: mk(&[0, 1, 2]),
            problem: "CPU-hog".into(),
            context: ctx(),
        });
        db.add(Signature {
            tuple: mk(&[7, 8, 9]),
            problem: "Net-drop".into(),
            context: ctx(),
        });
        let probe = mk(&[0, 1, 3]);
        let ranked = db.rank(&ctx(), &probe, Similarity::Jaccard).unwrap();
        assert_eq!(ranked[0].0, "CPU-hog");
        assert!(ranked[0].1 > ranked[1].1);
    }

    #[test]
    fn rank_uses_best_of_multiple_signatures() {
        let mut db = SignatureDatabase::new();
        let mk = |bits: &[usize]| {
            let mut g = vec![0.0; 6];
            for &b in bits {
                g[b] = 1.0;
            }
            ViolationTuple::from_graded(g)
        };
        // Two training signatures for the same problem; the probe matches
        // the second one.
        db.add(Signature {
            tuple: mk(&[0]),
            problem: "Lock-R".into(),
            context: ctx(),
        });
        db.add(Signature {
            tuple: mk(&[4, 5]),
            problem: "Lock-R".into(),
            context: ctx(),
        });
        let ranked = db.rank(&ctx(), &mk(&[4, 5]), Similarity::Jaccard).unwrap();
        assert_eq!(ranked[0], ("Lock-R".to_string(), 1.0));
    }

    #[test]
    fn rank_respects_context() {
        let mut db = SignatureDatabase::new();
        db.add(Signature {
            tuple: ViolationTuple::from_graded(vec![1.0; 4]),
            problem: "CPU-hog".into(),
            context: OperationContext::new("10.0.0.2", "Sort"),
        });
        let err = db
            .rank(
                &ctx(),
                &ViolationTuple::from_graded(vec![1.0; 4]),
                Similarity::Cosine,
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::EmptySignatureDatabase(_)));
    }

    #[test]
    fn conflicts_find_near_identical_problems() {
        let mut db = SignatureDatabase::new();
        let mk = |bits: &[usize]| {
            let mut g = vec![0.0; 12];
            for &b in bits {
                g[b] = 0.5;
            }
            ViolationTuple::from_graded(g)
        };
        // Net-drop and Net-delay overlap on 3 of 4 bits; CPU-hog is disjoint.
        db.add(Signature {
            tuple: mk(&[0, 1, 2, 3]),
            problem: "Net-drop".into(),
            context: ctx(),
        });
        db.add(Signature {
            tuple: mk(&[0, 1, 2, 4]),
            problem: "Net-delay".into(),
            context: ctx(),
        });
        db.add(Signature {
            tuple: mk(&[8, 9, 10]),
            problem: "CPU-hog".into(),
            context: ctx(),
        });
        let conflicts = db.conflicts(&ctx(), Similarity::Jaccard, 0.5).unwrap();
        assert_eq!(conflicts.len(), 1, "{conflicts:?}");
        assert_eq!(
            (conflicts[0].0.as_str(), conflicts[0].1.as_str()),
            ("Net-delay", "Net-drop")
        );
        assert!((conflicts[0].2 - 0.6).abs() < 1e-12); // 3/5 overlap
    }

    #[test]
    fn conflicts_ignore_same_problem_and_other_contexts() {
        let mut db = SignatureDatabase::new();
        let t = ViolationTuple::from_graded(vec![1.0; 5]);
        db.add(Signature {
            tuple: t.clone(),
            problem: "A".into(),
            context: ctx(),
        });
        db.add(Signature {
            tuple: t.clone(),
            problem: "A".into(),
            context: ctx(),
        });
        db.add(Signature {
            tuple: t,
            problem: "B".into(),
            context: OperationContext::new("elsewhere", "Sort"),
        });
        assert!(db
            .conflicts(&ctx(), Similarity::Cosine, 0.1)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn mismatched_tuples_error() {
        let a = ViolationTuple::from_graded(vec![1.0; 4]);
        let b = ViolationTuple::from_graded(vec![1.0; 5]);
        assert!(matches!(
            a.similarity(&b, Similarity::Cosine),
            Err(CoreError::TupleLengthMismatch { .. })
        ));
    }
}
