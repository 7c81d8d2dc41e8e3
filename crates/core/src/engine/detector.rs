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

/// A detector run's recursion state as plain values, in the run's own
/// layout: what [`DetectorRun::capture`] copies out and
/// [`DetectorRun::install`] puts back into a fresh run of the same
/// detector. Floats are kept as they are, so a state persisted as raw bits
/// continues its run bit-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunState {
    /// The run's float registers.
    pub registers: Vec<f64>,
    /// The run's counters.
    pub counters: Vec<u64>,
}

/// The mutable, per-run state of a streaming detector.
///
/// `Send + Sync` because runs live inside the engine's sharded `RwLock`
/// map: mutation happens under a write lock, but a capture
/// ([`DetectorRun::capture`]) can observe a run from any thread.
pub trait DetectorRun: Send + Sync {
    /// Consumes the next CPI sample and scores it.
    fn step(&mut self, x: f64) -> TickDecision;

    /// The run's recursion state after the samples stepped so far: all a
    /// fresh run of the same detector needs to continue it.
    fn capture(&self) -> RunState;

    /// Makes this fresh run continue one that `ticks` steps of the same
    /// detector left in `state`.
    ///
    /// # Errors
    ///
    /// Why no `ticks` steps of this detector could leave `state` (a
    /// register list of the wrong length, a counter out of range); the run
    /// is then unchanged.
    fn install(&mut self, state: &RunState, ticks: usize) -> Result<(), String>;
}

/// The trained, shareable half of a streaming detector.
pub trait Detector: Send + Sync {
    /// Short name ("ARIMA" / "CUSUM").
    fn name(&self) -> &'static str;

    /// The score a tick must exceed to count as an exceedance
    /// ([`DetectionResult::threshold`]).
    fn threshold(&self) -> f64;

    /// Starts a fresh run (e.g. at the start of a job execution).
    fn begin_run(&self) -> Box<dyn DetectorRun>;

    /// Scores a complete trace at once. The default implementation streams
    /// the trace through a fresh run; implementations may override with a
    /// cheaper batch path as long as the results are identical.
    fn score(&self, cpi: &[f64]) -> DetectionResult {
        let mut run = self.begin_run();
        DetectionResult::from_decisions(cpi.iter().map(|&x| run.step(x)), self.threshold())
    }
}

impl DetectionResult {
    /// The batch-shaped result of a run's per-tick decisions, oldest
    /// first, under `threshold`.
    pub fn from_decisions(
        decisions: impl IntoIterator<Item = TickDecision>,
        threshold: f64,
    ) -> Self {
        let mut result = DetectionResult {
            residuals: Vec::new(),
            exceedances: Vec::new(),
            anomalies: Vec::new(),
            threshold,
            first_anomaly: None,
        };
        for d in decisions {
            if d.anomalous {
                result.first_anomaly.get_or_insert(result.residuals.len());
            }
            result.residuals.push(d.residual);
            result.exceedances.push(d.exceeded);
            result.anomalies.push(d.anomalous);
        }
        result
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

    fn threshold(&self) -> f64 {
        self.model.threshold(self.rule)
    }

    fn begin_run(&self) -> Box<dyn DetectorRun> {
        let arima = self.model.arima();
        let spec = arima.spec();
        Box::new(ArimaRun {
            threshold: self.threshold(),
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
        })
    }

    fn score(&self, cpi: &[f64]) -> DetectionResult {
        // Batch path: defer to the model directly (the incremental run is
        // verified bit-identical by tests, but this avoids per-tick
        // bookkeeping for full traces).
        self.model.detect(cpi, self.rule, self.consecutive)
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

    /// The register lengths `ticks` steps leave: set cascade registers,
    /// `w_hist`, `e_hist` and `x_hist`.
    fn lengths_after(&self, ticks: usize) -> [usize; 4] {
        let differenced = ticks.saturating_sub(self.d);
        [
            ticks.min(self.d),
            differenced.min(self.phi.len()),
            differenced.min(self.theta.len()),
            ticks.min(self.d),
        ]
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
        TickDecision {
            residual,
            exceeded,
            anomalous: self.streak >= self.consecutive,
        }
    }

    /// Registers: the set cascade registers, `w_hist`, `e_hist` and
    /// `x_hist`, each newest first; counters: the streak. The tick count
    /// `t` is the run's length, which the caller keeps.
    fn capture(&self) -> RunState {
        RunState {
            registers: (self.diff_regs.iter().map_while(|r| *r))
                .chain(self.w_hist.iter().copied())
                .chain(self.e_hist.iter().copied())
                .chain(self.x_hist.iter().copied())
                .collect(),
            counters: vec![self.streak as u64],
        }
    }

    fn install(&mut self, state: &RunState, ticks: usize) -> Result<(), String> {
        let lengths = self.lengths_after(ticks);
        let expected: usize = lengths.iter().sum();
        if state.registers.len() != expected {
            return Err(format!(
                "an ARIMA run {ticks} ticks long holds {expected} registers, not {}",
                state.registers.len()
            ));
        }
        let streak = match state.counters[..] {
            [streak] if streak <= ticks.saturating_sub(self.warm) as u64 => streak as usize,
            _ => {
                return Err(format!(
                    "an ARIMA run {ticks} ticks long with warm-up {} has one streak counter \
                     of at most the ticks past warm-up, not {:?}",
                    self.warm, state.counters
                ))
            }
        };
        let mut values = state.registers.iter().copied();
        let [set, w, e, x] = lengths;
        for (i, reg) in self.diff_regs.iter_mut().enumerate() {
            *reg = if i < set { values.next() } else { None };
        }
        self.w_hist.clear();
        self.w_hist.extend(values.by_ref().take(w));
        self.e_hist.clear();
        self.e_hist.extend(values.by_ref().take(e));
        self.x_hist.clear();
        self.x_hist.extend(values.take(x));
        self.t = ticks;
        self.streak = streak;
        Ok(())
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

    fn threshold(&self) -> f64 {
        self.detector.h
    }

    fn begin_run(&self) -> Box<dyn DetectorRun> {
        Box::new(CusumRun {
            detector: self.detector.clone(),
            s_hi: 0.0,
            s_lo: 0.0,
        })
    }
}

struct CusumRun {
    detector: CusumDetector,
    s_hi: f64,
    s_lo: f64,
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
        TickDecision {
            residual: excursion,
            exceeded: alarm,
            anomalous: alarm,
        }
    }

    /// Registers: `s_hi`, `s_lo`; no counters.
    fn capture(&self) -> RunState {
        RunState {
            registers: vec![self.s_hi, self.s_lo],
            counters: Vec::new(),
        }
    }

    fn install(&mut self, state: &RunState, _ticks: usize) -> Result<(), String> {
        // Every step leaves both sums finite and non-negative.
        match (&state.registers[..], &state.counters[..]) {
            (&[s_hi, s_lo], []) if [s_hi, s_lo].iter().all(|s| s.is_finite() && *s >= 0.0) => {
                self.s_hi = s_hi;
                self.s_lo = s_lo;
                Ok(())
            }
            _ => Err(format!(
                "a CUSUM run holds two finite, non-negative sums and no counters, not {state:?}"
            )),
        }
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
            let streamed =
                DetectionResult::from_decisions(xs.iter().map(|&x| run.step(x)), det.threshold());
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
        let streamed =
            DetectionResult::from_decisions(xs.iter().map(|&x| run.step(x)), det.threshold());
        assert_eq!(streamed, batch);
    }

    fn differenced_detector(p: usize, d: usize, q: usize) -> ArimaDetector {
        use ix_arima::{ArimaModel, ArimaSpec};
        let arima = ArimaModel::from_coefficients(
            ArimaSpec::new(p, d, q),
            0.01,
            vec![0.4; p],
            vec![-0.3; q],
            0.5,
            100,
        )
        .unwrap();
        let stats = crate::anomaly::ResidualStats {
            max: 0.05,
            min: 0.0,
            p95: 0.04,
        };
        let model = PerformanceModel::from_parts(arima, stats, 1.2);
        ArimaDetector::new(Arc::new(model), ThresholdRule::BetaMax, 3)
    }

    /// Steps `xs[..split]` through one run, captures it, installs the
    /// capture into a fresh run and steps `xs[split..]` through both.
    fn assert_capture_continues(det: &dyn Detector, xs: &[f64], split: usize) {
        let mut whole = det.begin_run();
        for &x in &xs[..split] {
            whole.step(x);
        }
        let mut resumed = det.begin_run();
        resumed
            .install(&whole.capture(), split)
            .unwrap_or_else(|e| panic!("split {split}: {e}"));
        for &x in &xs[split..] {
            let (a, b) = (whole.step(x), resumed.step(x));
            assert_eq!(a.residual.to_bits(), b.residual.to_bits(), "split {split}");
            assert_eq!((a.exceeded, a.anomalous), (b.exceeded, b.anomalous));
        }
        assert_eq!(whole.capture(), resumed.capture(), "split {split}");
    }

    #[test]
    fn a_captured_run_continues_bit_identically_at_every_split() {
        let mut xs = cpi(70);
        for v in xs[60..90].iter_mut() {
            *v *= 1.7; // exceedance streaks to carry across the split
        }
        let arima = ArimaDetector::new(model(), ThresholdRule::BetaMax, 3);
        let traces: Vec<Vec<f64>> = (0..4).map(cpi).collect();
        let cusum = CusumStreamDetector::new(
            CusumDetector::train(&traces, CusumDetector::DEFAULT_K, CusumDetector::DEFAULT_H)
                .unwrap(),
        );
        let detectors: [&dyn Detector; 4] = [
            &arima,
            &differenced_detector(2, 1, 1),
            &differenced_detector(1, 2, 2),
            &cusum,
        ];
        for det in detectors {
            for split in [1, 2, 3, 4, 5, 30, 75, 149] {
                assert_capture_continues(det, &xs, split);
            }
        }
    }

    #[test]
    fn a_state_no_run_could_reach_is_refused() {
        let det = differenced_detector(2, 1, 1);
        let mut run = det.begin_run();
        for &x in &cpi(71)[..10] {
            run.step(x);
        }
        let good = run.capture();
        // d = 1 register, p = 2 differenced values, q = 1 innovation,
        // d = 1 original, then the streak.
        assert_eq!(good.registers.len(), 5);
        let mut fresh = det.begin_run();
        let mut short = good.clone();
        short.registers.pop();
        assert!(
            fresh.install(&short, 10).is_err(),
            "a w_hist shorter than p"
        );
        assert!(
            fresh.install(&good, 1).is_err(),
            "too many registers for 1 tick"
        );
        let mut streak = good.clone();
        streak.counters = vec![10];
        assert!(
            fresh.install(&streak, 10).is_err(),
            "a streak inside warm-up"
        );
        streak.counters = vec![];
        assert!(fresh.install(&streak, 10).is_err(), "no streak");
        // Refused installs left the run fresh: it scores like a new one.
        let x = cpi(71)[0];
        assert_eq!(fresh.step(x), det.begin_run().step(x));
        let mut cusum = CusumStreamDetector::new(
            CusumDetector::train(
                &[cpi(1), cpi(2)],
                CusumDetector::DEFAULT_K,
                CusumDetector::DEFAULT_H,
            )
            .unwrap(),
        )
        .begin_run();
        for bad in [vec![0.0], vec![-1.0, 0.0], vec![f64::NAN, 0.0]] {
            let state = RunState {
                registers: bad,
                counters: Vec::new(),
            };
            assert!(cusum.install(&state, 3).is_err(), "{state:?}");
        }
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
