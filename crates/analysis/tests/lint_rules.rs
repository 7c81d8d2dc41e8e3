//! Every lint rule fires on its minimal bad-code fixture at the expected
//! path and line — and the real workspace is clean.
//!
//! Fixtures live in `tests/fixtures/`, one per rule. Each is lexed with a
//! fabricated workspace-relative path (some rules key off the path — hot
//! dirs, the engine tree, `HOT_FUNCTIONS`), then run against the *real*
//! scanned workspace for cross-file facts (`EngineEvent` variants, Drop
//! impls).

use std::path::Path;

use ix_analysis::callgraph::CallGraph;
use ix_analysis::rules::{all_rules, run_all, Violation};
use ix_analysis::workspace::{build_file, Workspace};

fn real_workspace() -> Workspace {
    let root = Workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above CARGO_MANIFEST_DIR");
    Workspace::scan(&root).expect("scan workspace")
}

/// Runs one rule over `fixture_name` lexed as if it lived at `rel`.
fn check_fixture(ws: &Workspace, rule_id: &str, fixture_name: &str, rel: &str) -> Vec<Violation> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture_name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    check_source(ws, rule_id, &src, rel)
}

/// Runs one rule over `src` lexed as if it lived at `rel`.
fn check_source(ws: &Workspace, rule_id: &str, src: &str, rel: &str) -> Vec<Violation> {
    let file = build_file(Path::new("/ws"), &Path::new("/ws").join(rel), src);
    let rules = all_rules();
    let rule = rules
        .iter()
        .find(|r| r.id() == rule_id)
        .unwrap_or_else(|| panic!("no rule with id {rule_id}"));
    let mut out = Vec::new();
    rule.check(&file, ws, &mut out);
    out
}

/// Asserts `rule_id` fires on `fixture_name` (lexed as if it lived at
/// `rel`) at exactly `line`.
fn assert_fires(ws: &Workspace, rule_id: &str, fixture_name: &str, rel: &str, line: u32) {
    let out = check_fixture(ws, rule_id, fixture_name, rel);
    assert!(
        out.iter()
            .any(|v| v.rule == rule_id && v.path == rel && v.line == line),
        "{rule_id} did not fire at {rel}:{line} on {fixture_name}; got: {out:#?}"
    );
}

/// Asserts the determinism rule catches exactly one sink in the fixture,
/// at `line`, with a printed root→…→sink chain starting at the fixture's
/// `Engine::ingest` root — and nothing else (the clean twin passes).
fn assert_determinism_catches(ws: &Workspace, fixture_name: &str, line: u32) {
    let rel = format!(
        "crates/core/src/engine/{}",
        fixture_name.replace("determinism_", "bad_")
    );
    let out = check_fixture(ws, "determinism", fixture_name, &rel);
    assert_eq!(
        out.len(),
        1,
        "{fixture_name}: exactly the seeded sink fires; got: {out:#?}"
    );
    let v = &out[0];
    assert_eq!(v.line, line, "{fixture_name}: sink line; got: {out:#?}");
    assert!(
        v.chain.len() >= 2,
        "{fixture_name}: finding must carry a root→sink chain; got: {v:#?}"
    );
    assert_eq!(
        v.chain[0].function, "Engine::ingest",
        "{fixture_name}: chain starts at the declared root; got: {v:#?}"
    );
    assert!(
        v.chain.iter().skip(1).all(|h| h.via_line > 0),
        "{fixture_name}: every non-root hop records its call site; got: {v:#?}"
    );
}

#[test]
fn atomic_ordering_comment_fires() {
    let ws = real_workspace();
    assert_fires(
        &ws,
        "atomic-ordering-comment",
        "atomic_ordering_comment.rs",
        "crates/core/src/bad_ordering.rs",
        5,
    );
}

#[test]
fn hot_path_panic_fires() {
    let ws = real_workspace();
    assert_fires(
        &ws,
        "hot-path-panic",
        "hot_path_panic.rs",
        "crates/core/src/engine/bad_panic.rs",
        3,
    );
}

#[test]
fn lock_order_fires() {
    let ws = real_workspace();
    assert_fires(
        &ws,
        "lock-order",
        "lock_order.rs",
        "crates/core/src/bad_locks.rs",
        5,
    );
}

#[test]
fn poison_recovery_fires() {
    let ws = real_workspace();
    assert_fires(
        &ws,
        "poison-recovery",
        "poison_recovery.rs",
        "crates/core/src/bad_poison.rs",
        3,
    );
}

#[test]
fn event_match_exhaustive_fires() {
    let ws = real_workspace();
    assert!(
        !ws.engine_event_variants.is_empty(),
        "EngineEvent variants should be parsed from the real tree"
    );
    assert_fires(
        &ws,
        "event-match-exhaustive",
        "event_match_exhaustive.rs",
        "crates/core/src/bad_events.rs",
        5,
    );
}

#[test]
fn unsafe_safety_comment_fires() {
    let ws = real_workspace();
    assert_fires(
        &ws,
        "unsafe-safety-comment",
        "unsafe_safety_comment.rs",
        "crates/core/src/bad_unsafe.rs",
        3,
    );
}

#[test]
fn scoring_path_purity_fires() {
    let ws = real_workspace();
    // The fabricated rel must be a HOT_FUNCTIONS file for the rule to
    // look at the fixture's `claim_batch` body at all.
    assert_fires(
        &ws,
        "scoring-path-purity",
        "scoring_path_purity.rs",
        "crates/core/src/assoc.rs",
        3,
    );
}

#[test]
fn must_use_guards_fires() {
    let ws = real_workspace();
    assert_fires(
        &ws,
        "must-use-guards",
        "must_use_guards.rs",
        "crates/core/src/bad_guard.rs",
        2,
    );
}

#[test]
fn no_print_in_lib_fires() {
    let ws = real_workspace();
    assert_fires(
        &ws,
        "no-print-in-lib",
        "no_print_in_lib.rs",
        "crates/core/src/bad_print.rs",
        3,
    );
}

#[test]
fn engine_missing_docs_fires() {
    let ws = real_workspace();
    assert_fires(
        &ws,
        "engine-missing-docs",
        "engine_missing_docs.rs",
        "crates/core/src/engine/bad_docs.rs",
        2,
    );
}

#[test]
fn degradation_emits_event_fires() {
    let ws = real_workspace();
    assert_fires(
        &ws,
        "degradation-emits-event",
        "degradation_emits_event.rs",
        "crates/core/src/engine/bad_degrade.rs",
        5,
    );
}

#[test]
fn degradation_emits_event_accepts_emitting_functions() {
    let ws = real_workspace();
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/degradation_emits_event.rs");
    let src = std::fs::read_to_string(&path).expect("read fixture");
    let rel = "crates/core/src/engine/bad_degrade.rs";
    let file = build_file(Path::new("/ws"), &Path::new("/ws").join(rel), &src);
    let rules = all_rules();
    let rule = rules
        .iter()
        .find(|r| r.id() == "degradation-emits-event")
        .expect("registered");
    let mut out = Vec::new();
    rule.check(&file, &ws, &mut out);
    assert_eq!(out.len(), 1, "only the silent site fires: {out:#?}");
    assert!(
        out[0].message.contains("quiet_fallback"),
        "loud_fallback (which calls note_degradation) must pass: {out:#?}"
    );
}

#[test]
fn determinism_catches_wall_clock() {
    let ws = real_workspace();
    assert_determinism_catches(&ws, "determinism_wall_clock.rs", 12);
}

#[test]
fn determinism_catches_hash_iteration() {
    let ws = real_workspace();
    assert_determinism_catches(&ws, "determinism_hash_iter.rs", 13);
}

#[test]
fn determinism_catches_random_state() {
    let ws = real_workspace();
    assert_determinism_catches(&ws, "determinism_random_state.rs", 11);
}

#[test]
fn determinism_catches_thread_id() {
    let ws = real_workspace();
    assert_determinism_catches(&ws, "determinism_thread_id.rs", 11);
}

#[test]
fn determinism_catches_ptr_key() {
    let ws = real_workspace();
    assert_determinism_catches(&ws, "determinism_ptr_key.rs", 11);
}

#[test]
fn determinism_catches_env_read() {
    let ws = real_workspace();
    assert_determinism_catches(&ws, "determinism_env_read.rs", 11);
}

#[test]
fn determinism_catches_parallel_float_reduction() {
    let ws = real_workspace();
    assert_determinism_catches(&ws, "determinism_par_float.rs", 15);
}

#[test]
fn purity_flags_allocation_planted_in_a_callee() {
    let ws = real_workspace();
    // `claim_batch` is a listed hot fn; the allocation lives in a helper
    // it calls. The pre-call-graph rule scanned only listed bodies and
    // missed exactly this shape.
    let out = check_fixture(
        &ws,
        "scoring-path-purity",
        "purity_callee.rs",
        "crates/core/src/assoc.rs",
    );
    let v = out
        .iter()
        .find(|v| v.line == 11)
        .unwrap_or_else(|| panic!("callee allocation not flagged: {out:#?}"));
    assert!(
        v.message.contains("stage_scratch") && v.message.contains("claim_batch"),
        "message names helper and hot root: {v:#?}"
    );
    assert!(
        v.chain.iter().any(|h| h.function == "claim_batch")
            && v.chain.iter().any(|h| h.function == "stage_scratch"),
        "chain spans hot fn to helper: {v:#?}"
    );
}

/// Runs the purity rule over the real `rel` with an allocating line
/// planted as the first statement of `fn anchor`; returns the findings
/// and the planted line's number.
fn purity_with_plant(ws: &Workspace, rel: &str, anchor: &str) -> (Vec<Violation>, u32) {
    let root = Workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
    let src = std::fs::read_to_string(root.join(rel)).expect("read source");
    let sig = src
        .find(&format!("fn {anchor}"))
        .unwrap_or_else(|| panic!("no fn {anchor} in {rel}"));
    let body = sig + src[sig..].find("{\n").expect("body") + 2;
    let line = src[..body].matches('\n').count() as u32 + 1;
    let planted = format!(
        "{}let planted: Vec<u8> = std::iter::empty().collect();\n{}",
        &src[..body],
        &src[body..]
    );
    (check_source(ws, "scoring-path-purity", &planted, rel), line)
}

#[test]
fn purity_covers_the_clump_rebuild_column_costs_and_dp() {
    // The kernel's unit reaches these through method calls on other
    // values, which the call graph does not follow confidently; each is
    // caught only because it, or the function calling it, is listed. Two
    // are reached through turbofish calls (`cumulate::<2>(..)`,
    // `self.push_table_costs::<2>(..)`).
    let ws = real_workspace();
    for (rel, anchor, root) in [
        ("crates/mic/src/grid.rs", "rebuild", "rebuild"),
        ("crates/mic/src/grid.rs", "cumulate", "rebuild"),
        (
            "crates/mic/src/grid.rs",
            "push_table_costs",
            "push_column_costs",
        ),
        (
            "crates/mic/src/optimize.rs",
            "min_split",
            "optimize_axis_into",
        ),
    ] {
        let (out, line) = purity_with_plant(&ws, rel, anchor);
        let v = out
            .iter()
            .find(|v| v.line == line && v.path == rel)
            .unwrap_or_else(|| panic!("plant in {anchor} not flagged at {rel}:{line}: {out:#?}"));
        assert!(
            v.chain.first().is_some_and(|h| h.function.ends_with(root))
                && v.chain.iter().any(|h| h.function.ends_with(anchor)),
            "chain runs from {root} to {anchor}: {v:#?}"
        );
    }
}

#[test]
fn purity_reports_a_hot_function_entry_that_matches_nothing() {
    // Deleting a listed hot function (here: renaming it away) without its
    // HOT_FUNCTIONS entry leaves a stale entry, reported once, against the
    // rule's own source.
    let mut ws = real_workspace();
    let rel = "crates/mic/src/mine.rs";
    let src = std::fs::read_to_string(ws.root.join(rel)).expect("read source");
    let planted = src.replace("fn mic_floor_scratch(", "fn mic_floor_scratch_gone(");
    assert_ne!(planted, src, "the plant must rename the hot function");
    let i = ws.files.iter().position(|f| f.rel == rel).expect("mine.rs");
    ws.files[i] = build_file(&ws.root, &ws.root.join(rel), &planted);
    ws.graph = CallGraph::build(&ws.files);
    let purity = "crates/analysis/src/rules/purity.rs";
    let mut out = Vec::new();
    for file in &ws.files {
        for rule in all_rules()
            .iter()
            .filter(|r| r.id() == "scoring-path-purity")
        {
            rule.check(file, &ws, &mut out);
        }
    }
    assert_eq!(out.len(), 1, "exactly the stale entry: {out:#?}");
    assert!(
        out[0].path == purity && out[0].message.contains("mine.rs::mic_floor_scratch`"),
        "the stale entry is named against {purity}: {out:#?}"
    );
}

#[test]
fn wire_coverage_flags_untested_variant() {
    let ws = real_workspace();
    let out = check_fixture(
        &ws,
        "wire-coverage",
        "wire_coverage.rs",
        "crates/core/src/engine/events.rs",
    );
    assert_eq!(
        out.len(),
        1,
        "only the phantom variant fires (TickIngested is codec-tested): {out:#?}"
    );
    assert!(
        out[0].message.contains("PhantomEvent") && out[0].line == 10,
        "finding anchors to the untested variant: {out:#?}"
    );
}

#[test]
fn degradation_accepts_emit_routed_through_callee() {
    let ws = real_workspace();
    let out = check_fixture(
        &ws,
        "degradation-emits-event",
        "degradation_emits_event.rs",
        "crates/core/src/engine/bad_degrade.rs",
    );
    assert_eq!(out.len(), 1, "only the silent site fires: {out:#?}");
    assert!(
        out[0].message.contains("quiet_fallback"),
        "routed_fallback (emit in a callee) and loud_fallback must pass: {out:#?}"
    );
}

#[test]
fn rule_catalog_is_complete() {
    let ids: Vec<&str> = all_rules().iter().map(|r| r.id()).collect();
    assert_eq!(ids.len(), 13, "rule catalog: {ids:?}");
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate rule ids: {ids:?}");
}

#[test]
fn real_workspace_is_clean() {
    let ws = real_workspace();
    let violations = run_all(&ws);
    assert!(
        violations.is_empty(),
        "the real tree must lint clean; violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
