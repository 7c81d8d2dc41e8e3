//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro --experiment all            # everything (fig2 fig4 fig5 fig6 fig7 fig8 fig9 fig10 table1)
//! repro --experiment fig7 --runs 10 # one experiment, 10 test runs per fault
//! repro --list
//! ```

use std::process::ExitCode;

use ix_bench::experiments;

struct Args {
    experiment: String,
    seed: u64,
    runs: usize,
}

fn parse_args(raw: Vec<String>) -> Result<Args, String> {
    let mut experiment = String::from("all");
    let mut seed = 2014u64; // the year the paper appeared
    let mut runs = 10usize;
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--experiment" | "-e" => {
                experiment = it.next().ok_or("--experiment needs a value")?;
            }
            "--seed" | "-s" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?;
            }
            "--runs" | "-r" => {
                runs = it
                    .next()
                    .ok_or("--runs needs a value")?
                    .parse()
                    .map_err(|_| "--runs must be an integer")?;
            }
            "--list" | "-l" => {
                println!(
                    "fig2 fig4 fig5 fig6 fig7 fig8 fig9 fig10 table1 multifault batchsweep \
                     ablation-epsilon ablation-tau ablation-similarity ablation-window \
                     ablation-training ablation-detector all ablations"
                );
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!(
                    "repro — regenerate the InvarNet-X paper's tables and figures\n\n\
                     USAGE: repro [--experiment <id|all>] [--seed <n>] [--runs <n>] [--telemetry]\n\n\
                     Experiments: fig2 fig4 fig5 fig6 fig7 fig8 fig9 fig10 table1\n\
                     --runs controls test runs per fault for fig7/fig8/fig9/fig10 (paper: 38).\n\
                     --telemetry prints an engine telemetry report after the experiments."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        experiment,
        seed,
        runs,
    })
}

fn main() -> ExitCode {
    // The same shared handling `diagnose` uses: strip the flag before
    // subcommand parsing so every experiment sees a clean argument list.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if ix_bench::telemetry::strip_flag(&mut raw) {
        ix_bench::telemetry::enable();
    }
    let args = match parse_args(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nrun with --help for usage");
            return ExitCode::FAILURE;
        }
    };
    let ids: &[&str] = match args.experiment.as_str() {
        "all" => experiments::ALL,
        "ablations" => experiments::ABLATIONS,
        other => &[other],
    };
    for id in ids {
        println!("=== {id} (seed {}, runs {}) ===", args.seed, args.runs);
        match experiments::render(id, args.seed, args.runs) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(telemetry) = ix_bench::telemetry::active() {
        println!("=== engine telemetry ===\n{}", telemetry.render_report());
    }
    ExitCode::SUCCESS
}
