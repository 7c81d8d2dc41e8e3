//! Performance anomaly detection: ARIMA model drift on CPI (Sect. 3.2).
//!
//! The model of normal CPI dynamics is trained on N complete normal
//! execution traces. At runtime the one-step-ahead prediction residual
//! `xi = |M'cpi(t) - Mcpi(t)|` is compared against a threshold calibrated
//! from the training residuals `R` by one of three rules; `3` consecutive
//! exceedances report a performance problem.

use serde::{Deserialize, Serialize};

use ix_arima::{select_order, ArimaModel, ArimaSpec, OrderSearch};
use ix_timeseries::{max as ts_max, min as ts_min, percentile};

use crate::CoreError;

/// The residual-threshold rules of Sect. 3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThresholdRule {
    /// `max(R)` upper bar / `min(R)` lower bar.
    MaxMin,
    /// The 95th percentile of `R`.
    P95,
    /// `beta * max(R)` (paper's choice, beta = 1.2).
    BetaMax,
}

impl Default for ThresholdRule {
    /// The paper's selected rule.
    fn default() -> Self {
        ThresholdRule::BetaMax
    }
}

impl ThresholdRule {
    /// All three rules, for the Fig. 6 comparison.
    pub const ALL: [ThresholdRule; 3] = [
        ThresholdRule::MaxMin,
        ThresholdRule::P95,
        ThresholdRule::BetaMax,
    ];

    /// Paper-style label.
    pub fn name(self) -> &'static str {
        match self {
            ThresholdRule::MaxMin => "max-min",
            ThresholdRule::P95 => "95-percentile",
            ThresholdRule::BetaMax => "beta-max",
        }
    }
}

/// Residual statistics collected from the training runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualStats {
    /// Largest absolute training residual.
    pub max: f64,
    /// Smallest absolute training residual.
    pub min: f64,
    /// 95th percentile of absolute training residuals.
    pub p95: f64,
}

/// The per-context performance model: a fitted ARIMA model of CPI plus
/// calibrated residual statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceModel {
    model: ArimaModel,
    stats: ResidualStats,
    beta: f64,
}

/// The outcome of scoring a CPI trace against a performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionResult {
    /// Per-tick absolute prediction residuals `xi`.
    pub residuals: Vec<f64>,
    /// Per-tick raw exceedance flags (before the consecutive-count rule).
    pub exceedances: Vec<bool>,
    /// Per-tick anomaly flags after requiring `consecutive` exceedances
    /// (a flag at `t` means ticks `t-2, t-1, t` all exceeded, for 3).
    pub anomalies: Vec<bool>,
    /// The threshold the rule produced.
    pub threshold: f64,
    /// First tick flagged anomalous, if any.
    pub first_anomaly: Option<usize>,
}

impl DetectionResult {
    /// Whether any anomaly was reported.
    pub fn is_anomalous(&self) -> bool {
        self.first_anomaly.is_some()
    }
}

impl PerformanceModel {
    /// Trains on N complete normal CPI traces: fits an ARIMA model (AIC
    /// order search on the concatenation-free first trace, then residual
    /// calibration over all traces, matching the paper's "utilize N
    /// complete normal execution traces ... to train").
    ///
    /// # Errors
    ///
    /// [`CoreError::NotEnoughRuns`] with fewer than one trace, or an ARIMA
    /// error if the traces are unusable.
    pub fn train(traces: &[Vec<f64>], beta: f64) -> Result<Self, CoreError> {
        Self::train_with_search(traces, beta, OrderSearch::default())
    }

    /// Trains with an explicit ARIMA order search.
    ///
    /// # Errors
    ///
    /// See [`PerformanceModel::train`].
    pub fn train_with_search(
        traces: &[Vec<f64>],
        beta: f64,
        search: OrderSearch,
    ) -> Result<Self, CoreError> {
        if traces.is_empty() {
            return Err(CoreError::NotEnoughRuns {
                required: 1,
                got: 0,
            });
        }
        // Fit on the longest trace (most phase coverage), calibrate on all.
        let longest = traces
            .iter()
            .max_by_key(|t| t.len())
            .expect("non-empty checked above");
        let (_, model) = select_order(longest, search)?;
        let mut all_abs: Vec<f64> = Vec::new();
        for trace in traces {
            let warm = model.spec().warmup();
            let res = model.residuals(trace);
            all_abs.extend(res.iter().skip(warm).map(|r| r.abs()));
        }
        if all_abs.is_empty() {
            return Err(CoreError::NotEnoughRuns {
                required: 1,
                got: 0,
            });
        }
        let stats = ResidualStats {
            max: ts_max(&all_abs),
            min: ts_min(&all_abs),
            p95: percentile(&all_abs, 95.0),
        };
        Ok(PerformanceModel { model, stats, beta })
    }

    /// Reassembles a model from persisted parts (see [`crate::ModelStore`]).
    pub fn from_parts(model: ArimaModel, stats: ResidualStats, beta: f64) -> Self {
        PerformanceModel { model, stats, beta }
    }

    /// The calibrated beta factor.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The fitted ARIMA model.
    pub fn arima(&self) -> &ArimaModel {
        &self.model
    }

    /// The model order (stored as `(p, d, q, ip, type)` in the paper's XML).
    pub fn spec(&self) -> ArimaSpec {
        self.model.spec()
    }

    /// Calibrated residual statistics.
    pub fn stats(&self) -> ResidualStats {
        self.stats
    }

    /// The threshold value a rule yields.
    pub fn threshold(&self, rule: ThresholdRule) -> f64 {
        match rule {
            ThresholdRule::MaxMin | ThresholdRule::P95 => {
                if rule == ThresholdRule::MaxMin {
                    self.stats.max
                } else {
                    self.stats.p95
                }
            }
            ThresholdRule::BetaMax => self.beta * self.stats.max,
        }
    }

    /// Scores a CPI trace: residuals, exceedances and the consecutive-count
    /// anomaly flags.
    pub fn detect(&self, cpi: &[f64], rule: ThresholdRule, consecutive: usize) -> DetectionResult {
        let threshold = self.threshold(rule);
        let warm = self.model.spec().warmup();
        let residuals: Vec<f64> = self.model.residuals(cpi).iter().map(|r| r.abs()).collect();
        let exceedances: Vec<bool> = residuals
            .iter()
            .enumerate()
            .map(|(t, &r)| t >= warm && r > threshold)
            .collect();
        let consecutive = consecutive.max(1);
        let mut anomalies = vec![false; exceedances.len()];
        let mut streak = 0usize;
        let mut first_anomaly = None;
        for (t, &e) in exceedances.iter().enumerate() {
            streak = if e { streak + 1 } else { 0 };
            if streak >= consecutive {
                anomalies[t] = true;
                first_anomaly.get_or_insert(t);
            }
        }
        DetectionResult {
            residuals,
            exceedances,
            anomalies,
            threshold,
            first_anomaly,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_timeseries::SeriesBuilder;

    fn normal_cpi(seed: u64) -> Vec<f64> {
        SeriesBuilder::new(150)
            .level(1.2)
            .ar1(0.7)
            .noise(0.03)
            .build(seed)
            .unwrap()
            .into_values()
    }

    fn train_model() -> PerformanceModel {
        let traces: Vec<Vec<f64>> = (0..5).map(normal_cpi).collect();
        PerformanceModel::train(&traces, 1.2).unwrap()
    }

    #[test]
    fn normal_trace_is_not_anomalous_under_beta_max() {
        let m = train_model();
        let r = m.detect(&normal_cpi(99), ThresholdRule::BetaMax, 3);
        assert!(!r.is_anomalous(), "false alarm at {:?}", r.first_anomaly);
    }

    #[test]
    fn injected_cpi_jump_is_detected() {
        let m = train_model();
        let mut cpi = normal_cpi(100);
        for v in cpi[80..110].iter_mut() {
            *v *= 1.6;
        }
        let r = m.detect(&cpi, ThresholdRule::BetaMax, 3);
        assert!(r.is_anomalous());
        let first = r.first_anomaly.unwrap();
        assert!((80..=95).contains(&first), "first anomaly at {first}");
    }

    #[test]
    fn p95_rule_is_most_sensitive() {
        let m = train_model();
        assert!(m.threshold(ThresholdRule::P95) < m.threshold(ThresholdRule::MaxMin));
        assert!(m.threshold(ThresholdRule::MaxMin) < m.threshold(ThresholdRule::BetaMax));
    }

    #[test]
    fn p95_rule_false_alarms_more() {
        // The paper's Fig. 6 finding: the 95-percentile rule has the worst
        // detection result (spurious alarms on normal data).
        let m = train_model();
        let mut p95_exceedances = 0;
        let mut beta_exceedances = 0;
        for seed in 200..205 {
            let cpi = normal_cpi(seed);
            p95_exceedances += m
                .detect(&cpi, ThresholdRule::P95, 1)
                .exceedances
                .iter()
                .filter(|&&e| e)
                .count();
            beta_exceedances += m
                .detect(&cpi, ThresholdRule::BetaMax, 1)
                .exceedances
                .iter()
                .filter(|&&e| e)
                .count();
        }
        assert!(
            p95_exceedances > 3 * beta_exceedances.max(1),
            "p95 {p95_exceedances} vs beta-max {beta_exceedances}"
        );
    }

    #[test]
    fn consecutive_rule_suppresses_single_spikes() {
        let m = train_model();
        let mut cpi = normal_cpi(101);
        cpi[70] *= 2.0; // one isolated spike
        let r = m.detect(&cpi, ThresholdRule::BetaMax, 3);
        assert!(!r.is_anomalous());
        let r1 = m.detect(&cpi, ThresholdRule::BetaMax, 1);
        assert!(r1.is_anomalous());
    }

    #[test]
    fn training_requires_runs() {
        assert!(matches!(
            PerformanceModel::train(&[], 1.2),
            Err(CoreError::NotEnoughRuns { .. })
        ));
    }

    #[test]
    fn rule_names() {
        assert_eq!(ThresholdRule::MaxMin.name(), "max-min");
        assert_eq!(ThresholdRule::P95.name(), "95-percentile");
        assert_eq!(ThresholdRule::BetaMax.name(), "beta-max");
    }
}
