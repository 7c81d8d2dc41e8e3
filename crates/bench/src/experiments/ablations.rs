//! Ablation studies on the design choices DESIGN.md calls out: the
//! violation threshold ε, the stability threshold τ, the similarity
//! measure, the diagnosis window length, the number of training runs, and
//! the anomaly detector (ARIMA drift vs raw-CPI CUSUM).
//!
//! None of these appear as figures in the paper; they quantify the knobs
//! the paper fixes by fiat (ε = τ = 0.2, cosine-equivalent matching,
//! 5-minute windows, N ≈ 10–20 training runs, ARIMA).

use ix_core::{
    ConfusionMatrix, CusumDetector, Engine, InvarNetConfig, OperationContext, PerformanceModel,
    Similarity,
};
use ix_metrics::MetricFrame;
use ix_simulator::{FaultType, Runner, WorkloadType};

use crate::harness::faults_for;
use crate::report::{pct, Table};

/// One ablation data point: a parameter value and the campaign accuracy it
/// achieves.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Human-readable parameter setting.
    pub setting: String,
    /// Macro precision.
    pub precision: f64,
    /// Macro recall.
    pub recall: f64,
}

/// A named ablation sweep.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Which knob was swept.
    pub name: &'static str,
    /// The paper's (default) setting, rendered.
    pub default_setting: String,
    /// One point per setting.
    pub points: Vec<AblationPoint>,
}

impl AblationResult {
    /// Plain-text report.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["setting", "precision", "recall"]);
        for p in &self.points {
            let marker = if p.setting == self.default_setting {
                format!("{} (paper)", p.setting)
            } else {
                p.setting.clone()
            };
            t.row(vec![marker, pct(p.precision), pct(p.recall)]);
        }
        format!("Ablation: {}\n\n{}", self.name, t.render())
    }
}

/// Shared campaign: train with `config` on Wordcount, evaluate `test_runs`
/// per fault with a custom diagnosis-window length.
fn campaign(
    runner: &Runner,
    mut config: InvarNetConfig,
    window_ticks: usize,
    normal_runs: usize,
    test_runs: usize,
) -> ConfusionMatrix {
    // Short-window sweeps must still be accepted by the frame validator.
    config.min_frame_ticks = config.min_frame_ticks.min(window_ticks);
    let workload = WorkloadType::Wordcount;
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
    let faults = faults_for(workload);

    let system = Engine::builder().config(config).build();

    let window = |frame: &MetricFrame| {
        let start = runner
            .fault_start_tick
            .min(frame.ticks().saturating_sub(window_ticks));
        frame.window(start..(start + window_ticks).min(frame.ticks()))
    };
    let normals = runner.normal_runs(workload, normal_runs);
    let frames: Vec<MetricFrame> = normals
        .iter()
        .map(|r| window(&r.per_node[node].frame))
        .collect();
    system
        .build_invariants(context.clone(), &frames)
        .expect("invariants");

    let fault_window = |r: &ix_simulator::RunResult| {
        let f = r.fault.expect("fault run");
        let end = (f.start_tick + window_ticks).min(r.ticks);
        r.per_node[f.node].frame.window(f.start_tick..end)
    };
    for &fault in &faults {
        for idx in 0..2 {
            let r = runner.fault_run(workload, fault, idx);
            system
                .record_signature(&context, fault.name(), &fault_window(&r))
                .expect("signature");
        }
    }

    let mut confusion = ConfusionMatrix::new();
    for &fault in &faults {
        for k in 0..test_runs {
            let r = runner.fault_run(workload, fault, 2 + k);
            match system.diagnose(&context, &fault_window(&r)) {
                Ok(d) => {
                    let predicted = d
                        .root_cause()
                        .map_or("(none)".to_string(), |c| c.problem.clone());
                    confusion.add(fault.name(), &predicted);
                }
                Err(_) => confusion.add(fault.name(), "(none)"),
            }
        }
    }
    confusion
}

/// Sweeps the violation threshold ε.
pub fn epsilon(seed: u64, test_runs: usize) -> AblationResult {
    let runner = Runner::new(seed);
    let points = [0.05, 0.1, 0.2, 0.35, 0.5]
        .into_iter()
        .map(|eps| {
            let config = InvarNetConfig {
                epsilon: eps,
                ..InvarNetConfig::default()
            };
            let c = campaign(&runner, config, runner.fault_duration_ticks, 6, test_runs);
            AblationPoint {
                setting: format!("epsilon={eps}"),
                precision: c.macro_precision(),
                recall: c.macro_recall(),
            }
        })
        .collect();
    AblationResult {
        name: "violation threshold epsilon",
        default_setting: "epsilon=0.2".to_string(),
        points,
    }
}

/// Sweeps the invariant-stability threshold τ.
pub fn tau(seed: u64, test_runs: usize) -> AblationResult {
    let runner = Runner::new(seed);
    let points = [0.05, 0.1, 0.2, 0.4, 0.8]
        .into_iter()
        .map(|tau| {
            let config = InvarNetConfig {
                tau,
                ..InvarNetConfig::default()
            };
            let c = campaign(&runner, config, runner.fault_duration_ticks, 6, test_runs);
            AblationPoint {
                setting: format!("tau={tau}"),
                precision: c.macro_precision(),
                recall: c.macro_recall(),
            }
        })
        .collect();
    AblationResult {
        name: "invariant stability threshold tau",
        default_setting: "tau=0.2".to_string(),
        points,
    }
}

/// Compares the three similarity measures.
pub fn similarity(seed: u64, test_runs: usize) -> AblationResult {
    let runner = Runner::new(seed);
    let points = [
        ("cosine", Similarity::Cosine),
        ("jaccard", Similarity::Jaccard),
        ("hamming", Similarity::Hamming),
    ]
    .into_iter()
    .map(|(name, sim)| {
        let config = InvarNetConfig {
            similarity: sim,
            ..InvarNetConfig::default()
        };
        let c = campaign(&runner, config, runner.fault_duration_ticks, 6, test_runs);
        AblationPoint {
            setting: name.to_string(),
            precision: c.macro_precision(),
            recall: c.macro_recall(),
        }
    })
    .collect();
    AblationResult {
        name: "signature similarity measure",
        default_setting: "cosine".to_string(),
        points,
    }
}

/// Sweeps the diagnosis-window length (the paper's faults last 5 min = 30
/// ticks; we default to 45).
pub fn window(seed: u64, test_runs: usize) -> AblationResult {
    let runner = Runner::new(seed);
    let points = [15usize, 30, 45, 60]
        .into_iter()
        .map(|w| {
            let c = campaign(&runner, InvarNetConfig::default(), w, 6, test_runs);
            AblationPoint {
                setting: format!("{w} ticks"),
                precision: c.macro_precision(),
                recall: c.macro_recall(),
            }
        })
        .collect();
    AblationResult {
        name: "diagnosis window length",
        default_setting: "45 ticks".to_string(),
        points,
    }
}

/// Sweeps the number of normal training runs behind Algorithm 1.
pub fn training_runs(seed: u64, test_runs: usize) -> AblationResult {
    let runner = Runner::new(seed);
    let points = [2usize, 4, 6, 10]
        .into_iter()
        .map(|n| {
            let c = campaign(
                &runner,
                InvarNetConfig::default(),
                runner.fault_duration_ticks,
                n,
                test_runs,
            );
            AblationPoint {
                setting: format!("{n} runs"),
                precision: c.macro_precision(),
                recall: c.macro_recall(),
            }
        })
        .collect();
    AblationResult {
        name: "normal training runs (Algorithm 1)",
        default_setting: "6 runs".to_string(),
        points,
    }
}

/// Result of the detector ablation (ARIMA drift vs CUSUM on raw CPI).
#[derive(Debug, Clone)]
pub struct DetectorAblation {
    /// Rows: (workload, detector, detection rate on faults, false-alarm
    /// rate on normal runs).
    pub rows: Vec<(WorkloadType, &'static str, f64, f64)>,
}

impl DetectorAblation {
    /// The expected shape: both detectors catch faults on the steady
    /// interactive workload, but CUSUM false-alarms on the phase-structured
    /// batch workload where ARIMA stays quiet.
    pub fn shape_holds(&self) -> bool {
        let get = |w: WorkloadType, d: &str| {
            self.rows
                .iter()
                .find(|(rw, rd, _, _)| *rw == w && *rd == d)
                .map(|&(_, _, det, fa)| (det, fa))
                .expect("row present")
        };
        let (arima_det, arima_fa) = get(WorkloadType::Wordcount, "ARIMA");
        let (cusum_det, cusum_fa) = get(WorkloadType::Wordcount, "CUSUM");
        arima_det >= 0.9 && arima_fa <= 0.1 && cusum_fa > arima_fa + 0.3 && cusum_det >= 0.5
    }

    /// Plain-text report.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "workload",
            "detector",
            "fault detection",
            "false alarms",
        ]);
        for (w, d, det, fa) in &self.rows {
            t.row(vec![
                w.name().to_string(),
                d.to_string(),
                pct(*det),
                pct(*fa),
            ]);
        }
        format!(
            "Ablation: anomaly detector (ARIMA drift vs raw-CPI CUSUM)\n\
             Expected: CUSUM false-alarms on phase-structured batch CPI; ARIMA does not.\n\n{}\n\
             Shape holds: {}\n",
            t.render(),
            self.shape_holds()
        )
    }
}

/// Runs the detector ablation.
pub fn detector(seed: u64, test_runs: usize) -> DetectorAblation {
    let runner = Runner::new(seed);
    let node = Runner::DEFAULT_FAULT_NODE;
    let mut rows = Vec::new();
    for workload in [WorkloadType::Wordcount, WorkloadType::TpcDs] {
        let traces: Vec<Vec<f64>> = runner
            .normal_runs(workload, 5)
            .iter()
            .map(|r| r.per_node[node].cpi.cpi_series())
            .collect();
        let arima = PerformanceModel::train(&traces, 1.2).expect("arima");
        let cusum =
            CusumDetector::train(&traces, CusumDetector::DEFAULT_K, CusumDetector::DEFAULT_H)
                .expect("cusum");

        let mut arima_hits = 0usize;
        let mut cusum_hits = 0usize;
        for k in 0..test_runs {
            let r = runner.fault_run(workload, FaultType::CpuHog, 100 + k);
            let cpi = r.per_node[node].cpi.cpi_series();
            arima_hits += usize::from(arima.detect(&cpi, Default::default(), 3).is_anomalous());
            cusum_hits += usize::from(cusum.detect(&cpi).is_anomalous());
        }
        let mut arima_fa = 0usize;
        let mut cusum_fa = 0usize;
        for k in 0..test_runs {
            let r = runner.normal_run(workload, 200 + k);
            let cpi = r.per_node[node].cpi.cpi_series();
            arima_fa += usize::from(arima.detect(&cpi, Default::default(), 3).is_anomalous());
            cusum_fa += usize::from(cusum.detect(&cpi).is_anomalous());
        }
        let n = test_runs as f64;
        rows.push((
            workload,
            "ARIMA",
            arima_hits as f64 / n,
            arima_fa as f64 / n,
        ));
        rows.push((
            workload,
            "CUSUM",
            cusum_hits as f64 / n,
            cusum_fa as f64 / n,
        ));
    }
    DetectorAblation { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_extremes_are_worse_than_default() {
        let r = epsilon(11, 3);
        let find = |s: &str| {
            r.points
                .iter()
                .find(|p| p.setting == s)
                .expect("setting present")
                .recall
        };
        let default = find("epsilon=0.2");
        // A huge epsilon blinds the tuple; accuracy must not beat default.
        assert!(find("epsilon=0.5") <= default + 0.05, "{}", r.render());
    }

    #[test]
    fn window_sweep_produces_sane_points() {
        let r = window(12, 3);
        assert_eq!(r.points.len(), 4);
        for p in &r.points {
            assert!((0.0..=1.0).contains(&p.precision), "{}", r.render());
            assert!((0.0..=1.0).contains(&p.recall), "{}", r.render());
        }
        // The default window must be solidly usable.
        let default = r
            .points
            .iter()
            .find(|p| p.setting == "45 ticks")
            .expect("default present");
        assert!(default.recall > 0.6, "{}", r.render());
    }
}
