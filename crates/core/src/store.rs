//! Persistence of trained state.
//!
//! The paper archives each artifact in XML: performance models as the
//! five-tuple `(p, d, q, ip, type)`, invariants as `(I, ip, type)` and
//! signatures as `(binary tuple, problem name, ip, workload type)`. A
//! [`ModelStore`] holds the same artifacts at full fidelity, so
//! coefficients survive a round-trip without refitting. Its one encoding
//! is the binary store rows of `ix_history::codec`; a model-store file is
//! an `IXHIST01` image with one section of those rows, written and read
//! by `ix-history` through [`crate::Engine::store_op`].

use std::collections::BTreeMap;

use ix_arima::{ArimaModel, ArimaSpec};

use crate::anomaly::{PerformanceModel, ResidualStats};
use crate::context::OperationContext;
use crate::error::CoreError;
use crate::invariants::InvariantSet;
use crate::signature::SignatureDatabase;

/// The persisted form of a performance model.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_timeseries::SeriesBuilder;

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
}
