//! The detection layer: streaming anomaly detectors over CPI.
//!
//! A [`Detector`] is the trained, shareable half (one per context); a
//! [`DetectorRun`] is the mutable per-run half that consumes one CPI sample
//! per tick and reports a [`TickDecision`]. Two implementations exist:
//!
//! - [`ArimaDetector`] — the paper's detector: one-step ARIMA prediction
//!   residuals against a calibrated threshold, with the consecutive-count
//!   rule. Its incremental run reproduces
//!   [`PerformanceModel::detect`] *bit-exactly*: same differencing
//!   cascade, same innovation recursion, same binomial reconstruction,
//!   evaluated in the same order.
//! - [`CusumStreamDetector`] — two-sided tabular CUSUM on standardized raw
//!   CPI, the threshold-the-metric baseline, selectable through
//!   [`crate::config::DetectorChoice::Cusum`].

use std::collections::VecDeque;
use std::sync::Arc;

use crate::anomaly::{DetectionResult, PerformanceModel, ThresholdRule};
use crate::cusum::CusumDetector;

/// What the detection layer concluded about one ingested CPI sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickDecision {
    /// The detector's per-tick score (absolute prediction residual for
    /// ARIMA; the larger cumulative sum, in sigmas, for CUSUM).
    pub residual: f64,
    /// Whether the score exceeded the detector's threshold at this tick.
    pub exceeded: bool,
    /// Whether the detector reports a performance problem at this tick
    /// (for ARIMA, after the consecutive-exceedance rule).
    pub anomalous: bool,
}

/// The mutable, per-run state of a streaming detector.
///
/// `Send + Sync` because runs live inside the engine's sharded `RwLock`
/// map: mutation happens under a write lock, but read-path inspection
/// ([`DetectorRun::result`]) can observe a run from any thread.
pub trait DetectorRun: Send + Sync {
    /// Consumes the next CPI sample and scores it.
    fn step(&mut self, x: f64) -> TickDecision;

    /// The accumulated batch-shaped result of everything stepped so far.
    fn result(&self) -> DetectionResult;

    /// Makes room for `ticks` more steps up front, so a run replayed
    /// from a known number of ticks allocates no more than a short one.
    /// A hint only: the default does nothing.
    fn reserve(&mut self, ticks: usize) {
        let _ = ticks;
    }
}

/// The trained, shareable half of a streaming detector.
pub trait Detector: Send + Sync {
    /// Short name ("ARIMA" / "CUSUM").
    fn name(&self) -> &'static str;

    /// Starts a fresh run (e.g. at the start of a job execution).
    fn begin_run(&self) -> Box<dyn DetectorRun>;

    /// Scores a complete trace at once. The default implementation streams
    /// the trace through a fresh run; implementations may override with a
    /// cheaper batch path as long as the results are identical.
    fn score(&self, cpi: &[f64]) -> DetectionResult {
        let mut run = self.begin_run();
        for &x in cpi {
            run.step(x);
        }
        run.result()
    }
}

// ---------------------------------------------------------------- ARIMA

/// The paper's detector (Sect. 3.2) in streaming form.
pub struct ArimaDetector {
    model: Arc<PerformanceModel>,
    rule: ThresholdRule,
    consecutive: usize,
}

impl ArimaDetector {
    /// Wraps a trained performance model.
    pub fn new(model: Arc<PerformanceModel>, rule: ThresholdRule, consecutive: usize) -> Self {
        ArimaDetector {
            model,
            rule,
            consecutive: consecutive.max(1),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &PerformanceModel {
        &self.model
    }
}

impl Detector for ArimaDetector {
    fn name(&self) -> &'static str {
        "ARIMA"
    }

    fn begin_run(&self) -> Box<dyn DetectorRun> {
        let arima = self.model.arima();
        let spec = arima.spec();
        Box::new(ArimaRun {
            threshold: self.model.threshold(self.rule),
            warm: spec.warmup(),
            start: spec.p.max(spec.q),
            d: spec.d,
            intercept: arima.intercept(),
            phi: arima.ar_coefficients().to_vec(),
            theta: arima.ma_coefficients().to_vec(),
            consecutive: self.consecutive,
            diff_regs: vec![None; spec.d],
            w_hist: VecDeque::with_capacity(spec.p + 1),
            e_hist: VecDeque::with_capacity(spec.q + 1),
            x_hist: VecDeque::with_capacity(spec.d + 1),
            t: 0,
            streak: 0,
            acc: RunAccumulator::new(),
        })
    }

    fn score(&self, cpi: &[f64]) -> DetectionResult {
        // Batch path: defer to the model directly (the incremental run is
        // verified bit-identical by tests, but this avoids per-tick
        // bookkeeping for full traces).
        self.model.detect(cpi, self.rule, self.consecutive)
    }
}

/// Accumulates per-tick decisions into a batch-shaped [`DetectionResult`].
struct RunAccumulator {
    residuals: Vec<f64>,
    exceedances: Vec<bool>,
    anomalies: Vec<bool>,
    first_anomaly: Option<usize>,
}

impl RunAccumulator {
    fn new() -> Self {
        RunAccumulator {
            residuals: Vec::new(),
            exceedances: Vec::new(),
            anomalies: Vec::new(),
            first_anomaly: None,
        }
    }

    fn reserve(&mut self, ticks: usize) {
        self.residuals.reserve(ticks);
        self.exceedances.reserve(ticks);
        self.anomalies.reserve(ticks);
    }

    fn push(&mut self, d: &TickDecision) {
        if d.anomalous {
            self.first_anomaly.get_or_insert(self.residuals.len());
        }
        self.residuals.push(d.residual);
        self.exceedances.push(d.exceeded);
        self.anomalies.push(d.anomalous);
    }

    fn result(&self, threshold: f64) -> DetectionResult {
        DetectionResult {
            residuals: self.residuals.clone(),
            exceedances: self.exceedances.clone(),
            anomalies: self.anomalies.clone(),
            threshold,
            first_anomaly: self.first_anomaly,
        }
    }
}

/// Incremental replay of [`PerformanceModel::detect`].
///
/// State per tick: `d` cascaded differencing registers (each holding the
/// previous output of the stage above), the last `p` differenced values,
/// the last `q` innovations and the last `d` original values for the
/// binomial reconstruction — exactly the quantities the batch recursion
/// reads at index `t`.
struct ArimaRun {
    threshold: f64,
    warm: usize,
    start: usize,
    d: usize,
    intercept: f64,
    phi: Vec<f64>,
    theta: Vec<f64>,
    consecutive: usize,
    /// Cascade register `i` holds the previous input of differencing
    /// stage `i`; `None` until that stage has seen one value.
    diff_regs: Vec<Option<f64>>,
    /// Recent differenced values, newest first (`w_hist[i] = w[wt-1-i]`).
    w_hist: VecDeque<f64>,
    /// Recent innovations, newest first (`e_hist[j] = e[wt-1-j]`).
    e_hist: VecDeque<f64>,
    /// Recent original values, newest first (`x_hist[k-1] = x[t-k]`).
    x_hist: VecDeque<f64>,
    t: usize,
    streak: usize,
    acc: RunAccumulator,
}

impl ArimaRun {
    /// Feeds `x` through the differencing cascade; `Some(w[t - d])` once
    /// all `d` stages have history.
    fn difference(&mut self, x: f64) -> Option<f64> {
        let mut v = x;
        for reg in &mut self.diff_regs {
            match reg.replace(v) {
                Some(prev) => v -= prev,
                None => return None,
            }
        }
        Some(v)
    }
}

impl DetectorRun for ArimaRun {
    fn step(&mut self, x: f64) -> TickDecision {
        let t = self.t;
        self.t += 1;

        // Differenced-scale recursion, identical to the batch loop.
        let mut w_hat = None;
        if let Some(w) = self.difference(x) {
            let wt = t - self.d;
            let (pred, e) = if wt < self.start {
                (w, 0.0)
            } else {
                let mut pred = self.intercept;
                for (i, &phi) in self.phi.iter().enumerate() {
                    pred += phi * self.w_hist[i];
                }
                for (j, &theta) in self.theta.iter().enumerate() {
                    pred += theta * self.e_hist[j];
                }
                (pred, w - pred)
            };
            w_hat = Some(pred);
            if !self.phi.is_empty() {
                self.w_hist.push_front(w);
                self.w_hist.truncate(self.phi.len());
            }
            if !self.theta.is_empty() {
                self.e_hist.push_front(e);
                self.e_hist.truncate(self.theta.len());
            }
        }

        // Original-scale forecast: echo during warmup, binomial
        // reconstruction afterwards.
        let forecast = if t < self.warm {
            x
        } else {
            // lint: allow(hot-path-panic) t >= warm guarantees the cascade
            // above ran to completion and produced w_hat
            let mut pred = w_hat.expect("past warmup implies full cascade");
            let mut sign = 1.0;
            let mut binom = 1.0;
            for k in 1..=self.d {
                binom = binom * (self.d - k + 1) as f64 / k as f64;
                sign = -sign;
                pred += -sign * binom * self.x_hist[k - 1];
            }
            pred
        };
        if self.d > 0 {
            self.x_hist.push_front(x);
            self.x_hist.truncate(self.d);
        }

        let residual = (x - forecast).abs();
        let exceeded = t >= self.warm && residual > self.threshold;
        self.streak = if exceeded { self.streak + 1 } else { 0 };
        let decision = TickDecision {
            residual,
            exceeded,
            anomalous: self.streak >= self.consecutive,
        };
        self.acc.push(&decision);
        decision
    }

    fn result(&self) -> DetectionResult {
        self.acc.result(self.threshold)
    }

    fn reserve(&mut self, ticks: usize) {
        self.acc.reserve(ticks);
    }
}

// ---------------------------------------------------------------- CUSUM

/// Streaming two-sided tabular CUSUM (see [`CusumDetector`]).
///
/// The per-tick residual is the larger of the two cumulative sums *before*
/// the post-alarm reset, so `residual > h` exactly when the tick alarms;
/// `exceeded` and `anomalous` coincide because CUSUM already accumulates
/// evidence — no extra consecutive-count rule is applied.
pub struct CusumStreamDetector {
    detector: CusumDetector,
}

impl CusumStreamDetector {
    /// Wraps a calibrated CUSUM detector.
    pub fn new(detector: CusumDetector) -> Self {
        CusumStreamDetector { detector }
    }

    /// The wrapped detector.
    pub fn cusum(&self) -> &CusumDetector {
        &self.detector
    }
}

impl Detector for CusumStreamDetector {
    fn name(&self) -> &'static str {
        "CUSUM"
    }

    fn begin_run(&self) -> Box<dyn DetectorRun> {
        Box::new(CusumRun {
            detector: self.detector.clone(),
            s_hi: 0.0,
            s_lo: 0.0,
            acc: RunAccumulator::new(),
        })
    }
}

struct CusumRun {
    detector: CusumDetector,
    s_hi: f64,
    s_lo: f64,
    acc: RunAccumulator,
}

impl DetectorRun for CusumRun {
    fn step(&mut self, x: f64) -> TickDecision {
        let z = (x - self.detector.mu) / self.detector.sigma;
        self.s_hi = (self.s_hi + z - self.detector.k).max(0.0);
        self.s_lo = (self.s_lo - z - self.detector.k).max(0.0);
        let excursion = self.s_hi.max(self.s_lo);
        let alarm = excursion > self.detector.h;
        if alarm {
            // Restart after an alarm so subsequent shifts are also seen.
            self.s_hi = 0.0;
            self.s_lo = 0.0;
        }
        let decision = TickDecision {
            residual: excursion,
            exceeded: alarm,
            anomalous: alarm,
        };
        self.acc.push(&decision);
        decision
    }

    fn result(&self) -> DetectionResult {
        self.acc.result(self.detector.h)
    }

    fn reserve(&mut self, ticks: usize) {
        self.acc.reserve(ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_timeseries::SeriesBuilder;

    fn cpi(seed: u64) -> Vec<f64> {
        SeriesBuilder::new(150)
            .level(1.2)
            .ar1(0.7)
            .noise(0.03)
            .build(seed)
            .unwrap()
            .into_values()
    }

    fn model() -> Arc<PerformanceModel> {
        let traces: Vec<Vec<f64>> = (0..4).map(cpi).collect();
        Arc::new(PerformanceModel::train(&traces, 1.2).unwrap())
    }

    /// The crux of the streaming refactor: tick-at-a-time stepping must
    /// reproduce the batch detector bit for bit.
    #[test]
    fn incremental_arima_matches_batch_bitexactly() {
        let m = model();
        let det = ArimaDetector::new(Arc::clone(&m), ThresholdRule::BetaMax, 3);
        for seed in [50u64, 51, 52] {
            let mut xs = cpi(seed);
            if seed == 52 {
                for v in xs[70..100].iter_mut() {
                    *v *= 1.7; // make one trace anomalous
                }
            }
            let batch = m.detect(&xs, ThresholdRule::BetaMax, 3);
            let mut run = det.begin_run();
            for &x in &xs {
                run.step(x);
            }
            let streamed = run.result();
            assert_eq!(streamed, batch, "seed {seed}");
            // Per-tick bit equality, not just structural equality.
            for (t, (a, b)) in streamed.residuals.iter().zip(&batch.residuals).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "residual bits differ at tick {t}");
            }
        }
    }

    /// Differenced models exercise the cascade + binomial reconstruction.
    #[test]
    fn incremental_matches_batch_with_differencing() {
        use ix_arima::{ArimaModel, ArimaSpec};
        // Random-walk-ish series so ARIMA(1,1,1) is a sensible fit.
        let mut xs = vec![1.0f64];
        let mut s = 9u64;
        for _ in 0..200 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let step = ((s >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.1;
            xs.push(xs.last().unwrap() + step);
        }
        let arima = ArimaModel::fit(&xs, ArimaSpec::new(1, 1, 1)).unwrap();
        let stats = crate::anomaly::ResidualStats {
            max: 0.05,
            min: 0.0,
            p95: 0.04,
        };
        let m = Arc::new(PerformanceModel::from_parts(arima, stats, 1.2));
        let batch = m.detect(&xs, ThresholdRule::BetaMax, 3);
        let det = ArimaDetector::new(Arc::clone(&m), ThresholdRule::BetaMax, 3);
        let mut run = det.begin_run();
        for &x in &xs {
            run.step(x);
        }
        assert_eq!(run.result(), batch);
    }

    #[test]
    fn batch_score_equals_model_detect() {
        let m = model();
        let det = ArimaDetector::new(Arc::clone(&m), ThresholdRule::BetaMax, 3);
        let xs = cpi(60);
        assert_eq!(det.score(&xs), m.detect(&xs, ThresholdRule::BetaMax, 3));
    }

    #[test]
    fn cusum_stream_matches_batch_alarms() {
        let traces: Vec<Vec<f64>> = (0..4).map(cpi).collect();
        let cusum =
            CusumDetector::train(&traces, CusumDetector::DEFAULT_K, CusumDetector::DEFAULT_H)
                .unwrap();
        let mut xs = cpi(61);
        for v in xs[90..].iter_mut() {
            *v += 0.10;
        }
        let batch = cusum.detect(&xs);
        let det = CusumStreamDetector::new(cusum);
        let streamed = det.score(&xs);
        assert_eq!(streamed.anomalies, batch.alarms);
        assert_eq!(streamed.first_anomaly, batch.first_alarm);
        assert!(streamed.is_anomalous());
        assert_eq!(det.name(), "CUSUM");
    }
}
