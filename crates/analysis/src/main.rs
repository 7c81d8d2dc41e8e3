//! The `ix-analysis` command-line front end.
//!
//! - `ix-analysis check [--root PATH] [--json] [--out FILE]` — run the
//!   lint pass; nonzero exit on any violation. `--json` prints findings
//!   (including root→sink call chains) as machine-readable JSON; `--out`
//!   additionally writes that JSON to a file (for CI artifacts).
//! - `ix-analysis explain <rule@path:line> [--root PATH]` — re-run the
//!   pass and print one finding in full, with its call chain one hop per
//!   line.
//! - `ix-analysis sched [--bound N]` — run the interleaving models:
//!   shipped algorithms must pass exhaustively, seeded racy variants must
//!   be caught; nonzero exit otherwise.
//! - `ix-analysis rules` — print the rule catalog, the lock-order map,
//!   the hot-function list, the determinism roots, and the sink taxonomy.

use std::path::PathBuf;
use std::process::ExitCode;

use ix_analysis::rules::{
    all_rules, run_all, Violation, HOT_FUNCTIONS, LOCK_ORDER, ROOT_FUNCTIONS,
};
use ix_analysis::sched::models::{
    CounterModel, CursorModel, GaugeMaxModel, ScopeGrowModel, TwoLockModel,
};
use ix_analysis::sched::{explore, Model, DEFAULT_BOUND};
use ix_analysis::workspace::Workspace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("sched") => sched(&args[1..]),
        Some("rules") => rules(),
        _ => {
            eprintln!(
                "usage: ix-analysis <check [--root PATH] [--json] [--out FILE] | \
                 explain <rule@path:line> [--root PATH] | sched [--bound N] | rules>"
            );
            ExitCode::from(2)
        }
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Resolves the workspace root from `--root` or by walking up from the
/// current directory, then scans it.
fn scan_workspace(args: &[String]) -> Result<Workspace, ExitCode> {
    let root = match flag_value(args, "--root") {
        Some(p) => PathBuf::from(p),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match Workspace::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "ix-analysis: no workspace root found above {}",
                        cwd.display()
                    );
                    return Err(ExitCode::from(2));
                }
            }
        }
    };
    Workspace::scan(&root).map_err(|e| {
        eprintln!("ix-analysis: {e}");
        ExitCode::from(2)
    })
}

fn check(args: &[String]) -> ExitCode {
    let ws = match scan_workspace(args) {
        Ok(ws) => ws,
        Err(code) => return code,
    };
    let violations = run_all(&ws);
    let json = args.iter().any(|a| a == "--json");
    let out_path = flag_value(args, "--out");
    if json || out_path.is_some() {
        let rendered = findings_json(&ws, &violations);
        if json {
            println!("{rendered}");
        }
        if let Some(path) = out_path {
            if let Err(e) = std::fs::write(&path, &rendered) {
                eprintln!("ix-analysis: write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if !json {
        for v in &violations {
            println!("{v}");
        }
    }
    if violations.is_empty() {
        if !json {
            println!(
                "ix-analysis check: {} files, {} rules, 0 violations",
                ws.files.len(),
                all_rules().len()
            );
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            println!(
                "ix-analysis check: {} violation(s) in {} files",
                violations.len(),
                ws.files.len()
            );
        }
        ExitCode::FAILURE
    }
}

/// Minimal JSON string escape (the only strings we emit are paths, fn
/// names, and rule messages).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the findings report as JSON (hand-rolled — `ix-analysis` takes
/// no serialization dependency).
fn findings_json(ws: &Workspace, violations: &[Violation]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"files\": {},\n", ws.files.len()));
    out.push_str(&format!("  \"rules\": {},\n", all_rules().len()));
    out.push_str(&format!("  \"violations\": {},\n", violations.len()));
    out.push_str("  \"findings\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"id\": {}, ", json_str(&v.id())));
        out.push_str(&format!("\"rule\": {}, ", json_str(v.rule)));
        out.push_str(&format!("\"path\": {}, ", json_str(&v.path)));
        out.push_str(&format!("\"line\": {}, ", v.line));
        out.push_str(&format!("\"message\": {}, ", json_str(&v.message)));
        out.push_str("\"chain\": [");
        for (j, hop) in v.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"function\": {}, \"path\": {}, \"line\": {}, \"via_line\": {}}}",
                json_str(&hop.function),
                json_str(&hop.path),
                hop.line,
                hop.via_line
            ));
        }
        out.push_str("]}");
    }
    if !violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn explain(args: &[String]) -> ExitCode {
    let Some(id) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: ix-analysis explain <rule@path:line> [--root PATH]");
        return ExitCode::from(2);
    };
    let ws = match scan_workspace(args) {
        Ok(ws) => ws,
        Err(code) => return code,
    };
    let violations = run_all(&ws);
    let Some(v) = violations.iter().find(|v| &v.id() == id) else {
        eprintln!(
            "ix-analysis: no finding `{id}` ({} finding(s) total — run `check` to list them)",
            violations.len()
        );
        return ExitCode::FAILURE;
    };
    println!("{}", v.id());
    println!("  rule:    {}", v.rule);
    println!("  site:    {}:{}", v.path, v.line);
    println!("  message: {}", v.message);
    if !v.chain.is_empty() {
        println!("  chain (root first):");
        for hop in &v.chain {
            if hop.via_line == 0 {
                println!("    {} ({}:{})", hop.function, hop.path, hop.line);
            } else {
                println!(
                    "    -> {} ({}:{}) called at line {}",
                    hop.function, hop.path, hop.line, hop.via_line
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs one model that must pass exhaustively. Returns failure text.
fn expect_clean<M: Model>(model: &M, bound: usize) -> Result<String, String> {
    match explore(model, bound) {
        Ok(stats) => Ok(format!(
            "pass  {:<48} {} schedules, {} steps, depth {}, bound {}",
            model.name(),
            stats.schedules,
            stats.steps,
            stats.max_depth,
            stats.bound
        )),
        Err(cex) => Err(format!("FAIL  {:<48} {cex}", model.name())),
    }
}

/// Runs one seeded-bug model that the explorer must catch.
fn expect_caught<M: Model>(model: &M, bound: usize) -> Result<String, String> {
    match explore(model, bound) {
        Err(cex) => Ok(format!("catch {:<48} {cex}", model.name())),
        Ok(_) => Err(format!(
            "FAIL  {:<48} seeded bug was NOT caught — the checker is broken",
            model.name()
        )),
    }
}

fn sched(args: &[String]) -> ExitCode {
    let bound = flag_value(args, "--bound")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_BOUND);
    let runs = [
        expect_clean(&CursorModel::new(2, 6, 2, false), bound),
        expect_caught(&CursorModel::new(2, 6, 2, true), bound),
        expect_clean(&CounterModel::new(2, 2, false), bound),
        expect_caught(&CounterModel::new(2, 2, true), bound),
        expect_clean(&GaugeMaxModel::new(&[3, 7, 5], false), bound),
        expect_caught(&GaugeMaxModel::new(&[3, 7], true), bound),
        expect_clean(&ScopeGrowModel::new(2, 42, false), bound),
        expect_caught(&ScopeGrowModel::new(2, 42, true), bound),
        expect_clean(&TwoLockModel::new(false), bound.max(4)),
        expect_caught(&TwoLockModel::new(true), bound.max(4)),
    ];
    let mut failed = false;
    for run in &runs {
        match run {
            Ok(line) => println!("{line}"),
            Err(line) => {
                failed = true;
                println!("{line}");
            }
        }
    }
    if failed {
        println!("ix-analysis sched: FAILED (bound {bound})");
        ExitCode::FAILURE
    } else {
        println!(
            "ix-analysis sched: {} models ok at preemption bound {bound}",
            runs.len()
        );
        ExitCode::SUCCESS
    }
}

fn rules() -> ExitCode {
    println!("lint rules:");
    for rule in all_rules() {
        println!("  {:<26} {}", rule.id(), rule.description());
    }
    println!("\nlock-acquisition order (outermost first):");
    for class in LOCK_ORDER {
        println!(
            "  rank {}  {:<12} {:<8} on {:<16} — {}",
            class.rank, class.field, class.kind, class.holder, class.why
        );
    }
    println!("\nhot (allocation/clock-free) functions:");
    for (file, name) in HOT_FUNCTIONS {
        println!("  {file}::{name}");
    }
    println!("\ndeterminism roots (taint sources for the `determinism` rule):");
    for (owner, name) in ROOT_FUNCTIONS {
        println!("  {owner}::{name}");
    }
    println!("\ndeterminism sink taxonomy:");
    println!("  hash-iteration   HashMap/HashSet iteration order varies per process");
    println!("  random-state     RandomState is seeded per process");
    println!("  wall-clock       Instant::now / SystemTime::now");
    println!("  thread-id        thread::current() identity");
    println!("  ptr-as-int       pointer-to-integer casts (address-dependent)");
    println!("  env-read         env::var / env::vars (host-dependent)");
    println!("  par-float        float accumulation in a spawning function");
    ExitCode::SUCCESS
}
