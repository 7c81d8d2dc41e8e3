//! Persistence of trained state.
//!
//! The paper archives each artifact in XML: performance models as the
//! five-tuple `(p, d, q, ip, type)`, invariants as `(I, ip, type)` and
//! signatures as `(binary tuple, problem name, ip, workload type)`. We
//! persist the same artifacts at full fidelity as JSON (so coefficients
//! survive a round-trip without refitting); [`ModelStore`] JSON is the
//! store's only format.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use ix_arima::{ArimaModel, ArimaSpec};

use crate::anomaly::{PerformanceModel, ResidualStats};
use crate::context::OperationContext;
use crate::error::CoreError;
use crate::invariants::InvariantSet;
use crate::signature::SignatureDatabase;

/// Serializable form of a performance model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredPerformanceModel {
    /// AR order.
    pub p: usize,
    /// Differencing order.
    pub d: usize,
    /// MA order.
    pub q: usize,
    /// Intercept of the differenced ARMA equation.
    pub intercept: f64,
    /// AR coefficients.
    pub ar: Vec<f64>,
    /// MA coefficients.
    pub ma: Vec<f64>,
    /// Innovation variance.
    pub sigma2: f64,
    /// Regression rows used by the fit.
    pub n_effective: usize,
    /// Calibrated residual statistics.
    pub stats: ResidualStats,
    /// Beta factor for the beta-max rule.
    pub beta: f64,
}

impl StoredPerformanceModel {
    /// Captures a trained model.
    pub fn from_model(m: &PerformanceModel) -> Self {
        let a = m.arima();
        StoredPerformanceModel {
            p: a.spec().p,
            d: a.spec().d,
            q: a.spec().q,
            intercept: a.intercept(),
            ar: a.ar_coefficients().to_vec(),
            ma: a.ma_coefficients().to_vec(),
            sigma2: a.sigma2(),
            n_effective: a.n_effective(),
            stats: m.stats(),
            beta: m.beta(),
        }
    }

    /// Reassembles the model.
    ///
    /// # Errors
    ///
    /// [`CoreError`] of kind [`crate::ErrorKind::Arima`] on inconsistent
    /// stored parts (the underlying
    /// [`ix_arima::ArimaError::Degenerate`] rides along as the
    /// [`std::error::Error::source`]).
    pub fn into_model(self) -> Result<PerformanceModel, CoreError> {
        let arima = ArimaModel::from_coefficients(
            ArimaSpec::new(self.p, self.d, self.q),
            self.intercept,
            self.ar,
            self.ma,
            self.sigma2,
            self.n_effective,
        )?;
        Ok(PerformanceModel::from_parts(arima, self.stats, self.beta))
    }
}

/// The complete persisted state of an InvarNet-X deployment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelStore {
    /// Performance models per context.
    pub performance_models: BTreeMap<String, StoredPerformanceModel>,
    /// Invariant sets per context.
    pub invariants: BTreeMap<String, InvariantSet>,
    /// The signature database.
    pub signatures: SignatureDatabase,
}

impl ModelStore {
    /// An empty store.
    pub fn new() -> Self {
        ModelStore::default()
    }

    /// Context key used in the maps (`workload@node`).
    pub fn context_key(context: &OperationContext) -> String {
        context.to_string()
    }

    /// Adds a performance model.
    pub fn put_model(&mut self, context: &OperationContext, model: &PerformanceModel) {
        self.performance_models.insert(
            Self::context_key(context),
            StoredPerformanceModel::from_model(model),
        );
    }

    /// Adds an invariant set.
    pub fn put_invariants(&mut self, context: &OperationContext, set: &InvariantSet) {
        self.invariants
            .insert(Self::context_key(context), set.clone());
    }

    /// Serializes to a JSON string.
    ///
    /// # Errors
    ///
    /// [`CoreError`] of kind [`crate::ErrorKind::Serialization`]
    /// (effectively unreachable for this type).
    pub fn to_json(&self) -> Result<String, CoreError> {
        serde_json::to_string_pretty(self).map_err(|source| CoreError::Serialization {
            op: "model store",
            source,
        })
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// [`CoreError`] of kind [`crate::ErrorKind::Serialization`] on
    /// malformed JSON; the parser error is the
    /// [`std::error::Error::source`].
    pub fn from_json(text: &str) -> Result<Self, CoreError> {
        serde_json::from_str(text).map_err(|source| CoreError::Serialization {
            op: "model store",
            source,
        })
    }

    /// Writes the JSON form to a file.
    ///
    /// # Errors
    ///
    /// [`CoreError`] of kind [`crate::ErrorKind::Io`] carrying the path
    /// and the underlying [`std::io::Error`].
    pub fn save(&self, path: &Path) -> Result<(), CoreError> {
        let json = self.to_json()?;
        fs::write(path, json).map_err(|source| CoreError::Io {
            op: "save model store",
            path: path.to_path_buf(),
            source: Arc::new(source),
        })
    }

    /// Reads the JSON form from a file.
    ///
    /// # Errors
    ///
    /// [`CoreError`] of kind [`crate::ErrorKind::Io`] when the file cannot
    /// be read, kind [`crate::ErrorKind::Serialization`] when its contents
    /// do not parse.
    pub fn load(path: &Path) -> Result<Self, CoreError> {
        let text = fs::read_to_string(path).map_err(|source| CoreError::Io {
            op: "load model store",
            path: path.to_path_buf(),
            source: Arc::new(source),
        })?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::{pair_count, AssociationMatrix};
    use crate::signature::{Signature, ViolationTuple};
    use ix_timeseries::SeriesBuilder;

    fn ctx() -> OperationContext {
        OperationContext::new("192.168.1.102", "Wordcount")
    }

    fn trained_model() -> PerformanceModel {
        let traces: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                SeriesBuilder::new(120)
                    .level(1.1)
                    .ar1(0.6)
                    .noise(0.03)
                    .build(s)
                    .unwrap()
                    .into_values()
            })
            .collect();
        PerformanceModel::train(&traces, 1.2).unwrap()
    }

    fn sample_store() -> ModelStore {
        let mut store = ModelStore::new();
        store.put_model(&ctx(), &trained_model());
        let runs = vec![AssociationMatrix::from_scores(vec![0.8; pair_count()])];
        store.put_invariants(&ctx(), &InvariantSet::select(&runs, 0.2));
        let mut db = SignatureDatabase::new();
        db.add(Signature {
            tuple: ViolationTuple::from_graded(vec![0.0, 0.5, 0.0]),
            problem: "CPU-hog".into(),
            context: ctx(),
        });
        store.signatures = db;
        store
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let store = sample_store();
        let json = store.to_json().unwrap();
        let back = ModelStore::from_json(&json).unwrap();
        assert_eq!(store, back);
    }

    #[test]
    fn stored_model_roundtrips_behaviour() {
        let model = trained_model();
        let stored = StoredPerformanceModel::from_model(&model);
        let back = stored.into_model().unwrap();
        // Same predictions on a probe trace.
        let probe: Vec<f64> = SeriesBuilder::new(80)
            .level(1.1)
            .ar1(0.6)
            .noise(0.03)
            .build(99)
            .unwrap()
            .into_values();
        assert_eq!(
            model.arima().one_step_forecasts(&probe),
            back.arima().one_step_forecasts(&probe)
        );
        assert_eq!(model.stats(), back.stats());
    }

    #[test]
    fn corrupt_stored_model_is_rejected() {
        let model = trained_model();
        let mut stored = StoredPerformanceModel::from_model(&model);
        stored.ar.push(0.5); // now inconsistent with p
        assert!(stored.into_model().is_err());
    }

    #[test]
    fn file_roundtrip() {
        let store = sample_store();
        let dir = std::env::temp_dir().join("invarnet_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        store.save(&path).unwrap();
        let back = ModelStore::load(&path).unwrap();
        assert_eq!(store, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_failures_carry_kind_and_source() {
        use std::error::Error as _;
        let missing = ModelStore::load(Path::new("/nonexistent/invarnet-store.json")).unwrap_err();
        assert_eq!(missing.kind(), crate::ErrorKind::Io);
        assert!(missing.source().is_some());

        let garbled = ModelStore::from_json("{ not json").unwrap_err();
        assert_eq!(garbled.kind(), crate::ErrorKind::Serialization);
        assert!(garbled.source().is_some());
    }
}
