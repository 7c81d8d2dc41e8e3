use serde::{DeError, Deserialize, Serialize, Value};

use crate::anomaly::ThresholdRule;
use crate::engine::resilience::{OverloadPolicy, RetryPolicy, SweepBudget};
use crate::similarity::Similarity;

/// Which streaming anomaly detector the engine's detection layer runs on
/// each ingested CPI sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorChoice {
    /// ARIMA one-step prediction residual thresholding — the paper's
    /// detector (Sect. 3.2).
    Arima,
    /// Two-sided tabular CUSUM on standardized raw CPI — the
    /// threshold-the-metric baseline the paper's related work uses.
    Cusum {
        /// Slack in sigmas; deviations below `k * sigma` are tolerated.
        k: f64,
        /// Decision interval in sigmas.
        h: f64,
    },
}

impl Default for DetectorChoice {
    /// The paper's detector.
    fn default() -> Self {
        DetectorChoice::Arima
    }
}

impl DetectorChoice {
    /// CUSUM with the textbook parameters (`k = 0.5`, `h = 5`).
    pub fn cusum_default() -> Self {
        DetectorChoice::Cusum {
            k: crate::CusumDetector::DEFAULT_K,
            h: crate::CusumDetector::DEFAULT_H,
        }
    }
}

// Hand-written because one variant carries data, which the offline
// derive macro does not support: the wire form is a `kind`-tagged object.
impl Serialize for DetectorChoice {
    fn to_value(&self) -> Value {
        match *self {
            DetectorChoice::Arima => {
                Value::Object(vec![("kind".to_string(), Value::Str("Arima".to_string()))])
            }
            DetectorChoice::Cusum { k, h } => Value::Object(vec![
                ("kind".to_string(), Value::Str("Cusum".to_string())),
                ("k".to_string(), k.to_value()),
                ("h".to_string(), h.to_value()),
            ]),
        }
    }
}

impl Deserialize for DetectorChoice {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value.field("kind")?.as_str()? {
            "Arima" => Ok(DetectorChoice::Arima),
            "Cusum" => Ok(DetectorChoice::Cusum {
                k: f64::from_value(value.field("k")?)?,
                h: f64::from_value(value.field("h")?)?,
            }),
            other => Err(DeError::unknown_variant(other)),
        }
    }
}

/// Tunable parameters of the pipeline, defaulted to the paper's values.
#[derive(Debug, Clone, PartialEq)]
pub struct InvarNetConfig {
    /// Violation threshold ε: `|I - A| >= epsilon` flags a violation
    /// (paper: 0.2).
    pub epsilon: f64,
    /// Invariant stability threshold τ: `max(V) - min(V) < tau` keeps a
    /// pair as an invariant (paper: 0.2, Algorithm 1).
    pub tau: f64,
    /// Fluctuation factor β of the beta-max threshold rule (paper: 1.2).
    pub beta: f64,
    /// Consecutive anomalous residuals required before a performance
    /// problem is reported (paper: 3).
    pub consecutive_anomalies: usize,
    /// The residual threshold rule (paper selects beta-max in Sect. 4.2).
    pub threshold_rule: ThresholdRule,
    /// Signature similarity measure. The paper stores binary tuples; we
    /// default to cosine over the graded violation vector, which preserves
    /// the binary support while weighting strong deviations — Jaccard and
    /// Hamming over the binary tuple are also available.
    pub similarity: Similarity,
    /// MIC parameters for the pairwise scan; `MicParams::fast()` keeps the
    /// 325-pair sweep cheap (the paper stresses invariant construction cost
    /// — Table 1).
    pub mic: ix_mic::MicParams,
    /// ARX order search for the baseline measure.
    pub arx: ix_arx::ArxSearch,
    /// Minimum runs Algorithm 1 needs to judge stability.
    pub min_training_runs: usize,
    /// Minimum ticks a frame must have for association analysis.
    pub min_frame_ticks: usize,
    /// The streaming detector family the engine instantiates per context.
    pub detector: DetectorChoice,
    /// Capacity (ticks) of the per-context sliding metric window the
    /// engine diagnoses over; at the paper's 10 s cadence the default
    /// covers 10 minutes.
    pub window_ticks: usize,
    /// Number of locks the per-context engine state is sharded across
    /// (concurrent ingestion from different contexts contends only within
    /// a shard).
    pub state_shards: usize,
    /// Wall-clock / pair-count budget for diagnosis passes; on overrun the
    /// pass stops, keeping what it scored, and the diagnosis is declared
    /// degraded instead of blocking.
    /// Defaults to [`SweepBudget::UNLIMITED`].
    pub sweep_budget: SweepBudget,
    /// What [`crate::Engine::submit`] does when a tick's ingest-queue
    /// shard is full.
    pub overload: OverloadPolicy,
    /// Per-shard capacity (ticks) of the bounded ingest queue. Clamped up
    /// to `consecutive_anomalies` so shedding can never retain fewer
    /// contiguous ticks than anomaly confirmation needs.
    pub ingest_queue_ticks: usize,
    /// Retry schedule for model-store file operations
    /// ([`crate::Engine::store_op`]).
    pub store_retry: RetryPolicy,
}

impl InvarNetConfig {
    /// Starts a [`ConfigBuilder`] from the paper defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }
}

// The mic/arx parameter structs live in foreign crates without `serde`
// support, so they are flattened through their public fields here — the
// orphan rule forbids implementing the traits for them directly.
fn mic_to_value(mic: &ix_mic::MicParams) -> Value {
    Value::Object(vec![
        ("alpha".to_string(), mic.alpha.to_value()),
        ("c".to_string(), mic.c.to_value()),
    ])
}

fn mic_from_value(value: &Value) -> Result<ix_mic::MicParams, DeError> {
    Ok(ix_mic::MicParams {
        alpha: f64::from_value(value.field("alpha")?)?,
        c: f64::from_value(value.field("c")?)?,
    })
}

fn arx_to_value(arx: &ix_arx::ArxSearch) -> Value {
    Value::Object(vec![
        ("max_n".to_string(), arx.max_n.to_value()),
        ("max_m".to_string(), arx.max_m.to_value()),
        ("max_k".to_string(), arx.max_k.to_value()),
    ])
}

fn arx_from_value(value: &Value) -> Result<ix_arx::ArxSearch, DeError> {
    Ok(ix_arx::ArxSearch {
        max_n: usize::from_value(value.field("max_n")?)?,
        max_m: usize::from_value(value.field("max_m")?)?,
        max_k: usize::from_value(value.field("max_k")?)?,
    })
}

// Hand-written because the mic/arx fields are foreign types (see above);
// every other field uses its own (derived or hand-written) impl. The
// field order is the struct's declaration order and is pinned by tests —
// replay trace headers depend on this encoding staying stable.
impl Serialize for InvarNetConfig {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("epsilon".to_string(), self.epsilon.to_value()),
            ("tau".to_string(), self.tau.to_value()),
            ("beta".to_string(), self.beta.to_value()),
            (
                "consecutive_anomalies".to_string(),
                self.consecutive_anomalies.to_value(),
            ),
            ("threshold_rule".to_string(), self.threshold_rule.to_value()),
            ("similarity".to_string(), self.similarity.to_value()),
            ("mic".to_string(), mic_to_value(&self.mic)),
            ("arx".to_string(), arx_to_value(&self.arx)),
            (
                "min_training_runs".to_string(),
                self.min_training_runs.to_value(),
            ),
            (
                "min_frame_ticks".to_string(),
                self.min_frame_ticks.to_value(),
            ),
            ("detector".to_string(), self.detector.to_value()),
            ("window_ticks".to_string(), self.window_ticks.to_value()),
            ("state_shards".to_string(), self.state_shards.to_value()),
            ("sweep_budget".to_string(), self.sweep_budget.to_value()),
            ("overload".to_string(), self.overload.to_value()),
            (
                "ingest_queue_ticks".to_string(),
                self.ingest_queue_ticks.to_value(),
            ),
            ("store_retry".to_string(), self.store_retry.to_value()),
        ])
    }
}

impl Deserialize for InvarNetConfig {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(InvarNetConfig {
            epsilon: f64::from_value(value.field("epsilon")?)?,
            tau: f64::from_value(value.field("tau")?)?,
            beta: f64::from_value(value.field("beta")?)?,
            consecutive_anomalies: usize::from_value(value.field("consecutive_anomalies")?)?,
            threshold_rule: ThresholdRule::from_value(value.field("threshold_rule")?)?,
            similarity: Similarity::from_value(value.field("similarity")?)?,
            mic: mic_from_value(value.field("mic")?)?,
            arx: arx_from_value(value.field("arx")?)?,
            min_training_runs: usize::from_value(value.field("min_training_runs")?)?,
            min_frame_ticks: usize::from_value(value.field("min_frame_ticks")?)?,
            detector: DetectorChoice::from_value(value.field("detector")?)?,
            window_ticks: usize::from_value(value.field("window_ticks")?)?,
            state_shards: usize::from_value(value.field("state_shards")?)?,
            sweep_budget: SweepBudget::from_value(value.field("sweep_budget")?)?,
            overload: OverloadPolicy::from_value(value.field("overload")?)?,
            ingest_queue_ticks: usize::from_value(value.field("ingest_queue_ticks")?)?,
            store_retry: RetryPolicy::from_value(value.field("store_retry")?)?,
        })
    }
}

/// Fluent builder over [`InvarNetConfig`]: start from the paper defaults,
/// override the knobs under study, `build()`.
///
/// ```
/// use ix_core::InvarNetConfig;
///
/// let config = InvarNetConfig::builder()
///     .epsilon(0.25)
///     .window_ticks(120)
///     .state_shards(16)
///     .build();
/// assert_eq!(config.epsilon, 0.25);
/// assert_eq!(config.tau, 0.2); // untouched defaults stay at paper values
/// ```
#[derive(Debug, Clone, Default)]
#[must_use = "builder methods return the builder; call .build() to produce the config"]
pub struct ConfigBuilder {
    config: InvarNetConfig,
}

impl ConfigBuilder {
    /// Violation threshold ε.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Invariant stability threshold τ.
    pub fn tau(mut self, tau: f64) -> Self {
        self.config.tau = tau;
        self
    }

    /// Fluctuation factor β of the beta-max threshold rule.
    pub fn beta(mut self, beta: f64) -> Self {
        self.config.beta = beta;
        self
    }

    /// Consecutive anomalous residuals required before reporting.
    pub fn consecutive_anomalies(mut self, n: usize) -> Self {
        self.config.consecutive_anomalies = n;
        self
    }

    /// The residual threshold rule.
    pub fn threshold_rule(mut self, rule: ThresholdRule) -> Self {
        self.config.threshold_rule = rule;
        self
    }

    /// Signature similarity measure.
    pub fn similarity(mut self, similarity: Similarity) -> Self {
        self.config.similarity = similarity;
        self
    }

    /// MIC parameters for the pairwise scan.
    pub fn mic(mut self, mic: ix_mic::MicParams) -> Self {
        self.config.mic = mic;
        self
    }

    /// The streaming detector family the engine instantiates per context.
    pub fn detector(mut self, detector: DetectorChoice) -> Self {
        self.config.detector = detector;
        self
    }

    /// Capacity (ticks) of the per-context sliding metric window.
    pub fn window_ticks(mut self, ticks: usize) -> Self {
        self.config.window_ticks = ticks;
        self
    }

    /// Number of locks the per-context engine state is sharded across.
    pub fn state_shards(mut self, shards: usize) -> Self {
        self.config.state_shards = shards;
        self
    }

    /// Minimum runs Algorithm 1 needs to judge stability.
    pub fn min_training_runs(mut self, runs: usize) -> Self {
        self.config.min_training_runs = runs;
        self
    }

    /// Minimum ticks a frame must have for association analysis.
    pub fn min_frame_ticks(mut self, ticks: usize) -> Self {
        self.config.min_frame_ticks = ticks;
        self
    }

    /// Wall-clock / pair-count budget for diagnosis sweeps.
    pub fn sweep_budget(mut self, budget: SweepBudget) -> Self {
        self.config.sweep_budget = budget;
        self
    }

    /// Overload policy of the bounded ingest queue.
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        self.config.overload = policy;
        self
    }

    /// Per-shard capacity (ticks) of the bounded ingest queue.
    pub fn ingest_queue_ticks(mut self, ticks: usize) -> Self {
        self.config.ingest_queue_ticks = ticks;
        self
    }

    /// Retry schedule for model-store persistence.
    pub fn store_retry(mut self, policy: RetryPolicy) -> Self {
        self.config.store_retry = policy;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> InvarNetConfig {
        self.config
    }

    /// Finishes the configuration and starts an
    /// [`crate::EngineBuilder`] from it — `InvarNetConfig::builder()
    /// .…. engine() .…. build()` reads as one fluent chain.
    pub fn engine(self) -> crate::engine::EngineBuilder {
        crate::engine::Engine::builder().config(self.build())
    }
}

impl Default for InvarNetConfig {
    fn default() -> Self {
        InvarNetConfig {
            epsilon: 0.2,
            tau: 0.2,
            beta: 1.2,
            consecutive_anomalies: 3,
            threshold_rule: ThresholdRule::BetaMax,
            similarity: Similarity::Cosine,
            mic: ix_mic::MicParams::fast(),
            arx: ix_arx::ArxSearch::default(),
            min_training_runs: 2,
            min_frame_ticks: 20,
            detector: DetectorChoice::Arima,
            window_ticks: 60,
            state_shards: 8,
            sweep_budget: SweepBudget::UNLIMITED,
            overload: OverloadPolicy::Block,
            ingest_queue_ticks: 64,
            store_retry: RetryPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_only_what_it_is_told() {
        let c = InvarNetConfig::builder()
            .tau(0.3)
            .detector(DetectorChoice::cusum_default())
            .state_shards(4)
            .build();
        assert_eq!(c.tau, 0.3);
        assert_eq!(c.detector, DetectorChoice::cusum_default());
        assert_eq!(c.state_shards, 4);
        // Everything else stays at the paper defaults.
        assert_eq!(c.epsilon, 0.2);
        assert_eq!(c.window_ticks, 60);
    }

    #[test]
    fn config_round_trips_through_serde() {
        let config = InvarNetConfig::builder()
            .epsilon(0.25)
            .detector(DetectorChoice::cusum_default())
            .sweep_budget(SweepBudget::wall_millis(7).with_max_pairs(100))
            .build();
        let json = serde_json::to_string(&config).expect("encode");
        let back: InvarNetConfig = serde_json::from_str(&json).expect("decode");
        assert_eq!(back, config);
    }

    #[test]
    fn detector_wire_encoding_is_pinned() {
        assert_eq!(
            serde_json::to_string(&DetectorChoice::Arima).expect("encode"),
            r#"{"kind":"Arima"}"#
        );
        assert_eq!(
            serde_json::to_string(&DetectorChoice::Cusum { k: 0.5, h: 5.0 }).expect("encode"),
            r#"{"kind":"Cusum","k":0.5,"h":5.0}"#
        );
        let back: DetectorChoice =
            serde_json::from_str(r#"{"kind":"Cusum","k":0.5,"h":5.0}"#).expect("decode");
        assert_eq!(back, DetectorChoice::Cusum { k: 0.5, h: 5.0 });
        assert!(serde_json::from_str::<DetectorChoice>(r#"{"kind":"Wavelet"}"#).is_err());
    }

    #[test]
    fn config_field_names_are_pinned() {
        // Replay trace headers embed this encoding: renaming a field is a
        // wire-format break and must be caught here, not in a replay.
        let value = InvarNetConfig::default().to_value();
        let names: Vec<&str> = value
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "epsilon",
                "tau",
                "beta",
                "consecutive_anomalies",
                "threshold_rule",
                "similarity",
                "mic",
                "arx",
                "min_training_runs",
                "min_frame_ticks",
                "detector",
                "window_ticks",
                "state_shards",
                "sweep_budget",
                "overload",
                "ingest_queue_ticks",
                "store_retry",
            ]
        );
    }

    #[test]
    fn defaults_match_paper() {
        let c = InvarNetConfig::default();
        assert_eq!(c.epsilon, 0.2);
        assert_eq!(c.tau, 0.2);
        assert_eq!(c.beta, 1.2);
        assert_eq!(c.consecutive_anomalies, 3);
        assert_eq!(c.threshold_rule, ThresholdRule::BetaMax);
    }
}
