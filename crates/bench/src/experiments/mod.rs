//! One module per table/figure of the paper's evaluation.
//!
//! Every experiment takes a seed (and where relevant a run count), returns a
//! structured result and renders a plain-text report that states the paper's
//! observation next to the measured one. Absolute numbers are not expected
//! to match (the substrate is a simulator, not the authors' testbed) — the
//! *shape* is what each experiment checks.

mod ablations;
mod batchsweep;
mod fig2;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig9_10;
mod multifault;
mod table1;

pub use ablations::{
    detector as ablation_detector, epsilon as ablation_epsilon, similarity as ablation_similarity,
    tau as ablation_tau, training_runs as ablation_training_runs, window as ablation_window,
    AblationPoint, AblationResult, DetectorAblation,
};
pub use batchsweep::{run as batchsweep, BatchSweepResult, WorkloadOutcome};
pub use fig2::{run as fig2, Fig2Result};
pub use fig4::{run as fig4, Fig4Result, WorkloadCpiCorrelation};
pub use fig5::{run as fig5, Fig5Result, ResidualTrace};
pub use fig6::{run as fig6, Fig6Result, RuleOutcome};
pub use fig7::{run_fig7 as fig7, run_fig8 as fig8, DiagnosisFigure};
pub use fig9_10::{run as fig9_10, ComparisonFigure, VariantResult};
pub use multifault::{run as multifault, MultiFaultResult, PairOutcome};
pub use table1::{run as table1, OverheadRow, Table1Result};

/// The experiments `repro --experiment all` runs, in order.
pub const ALL: &[&str] = &[
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9_10",
    "table1",
    "multifault",
    "batchsweep",
];

/// The experiments `repro --experiment ablations` runs, in order.
pub const ABLATIONS: &[&str] = &[
    "ablation-epsilon",
    "ablation-tau",
    "ablation-similarity",
    "ablation-window",
    "ablation-training",
    "ablation-detector",
];

/// Runs one experiment by id and renders its report.
///
/// # Errors
///
/// An unknown experiment id.
pub fn render(id: &str, seed: u64, runs: usize) -> Result<String, String> {
    let out = match id {
        "fig2" => fig2(seed).render(),
        "fig4" => fig4(seed, 25).render(),
        "fig5" => fig5(seed).render(),
        "fig6" => fig6(seed).render(),
        "fig7" => fig7(seed, runs).render(),
        "fig8" => fig8(seed, runs).render(),
        // Figs. 9 and 10 come from the same three-variant campaign; either
        // id prints the combined report.
        "fig9" | "fig10" | "fig9_10" => fig9_10(seed, runs).render(),
        "table1" => table1(seed).render(),
        "multifault" => multifault(seed, runs).render(),
        "batchsweep" => batchsweep(seed, runs).render(),
        "ablation-epsilon" => ablation_epsilon(seed, runs).render(),
        "ablation-tau" => ablation_tau(seed, runs).render(),
        "ablation-similarity" => ablation_similarity(seed, runs).render(),
        "ablation-window" => ablation_window(seed, runs).render(),
        "ablation-training" => ablation_training_runs(seed, runs).render(),
        "ablation-detector" => ablation_detector(seed, runs).render(),
        other => return Err(format!("unknown experiment: {other}")),
    };
    Ok(out)
}
