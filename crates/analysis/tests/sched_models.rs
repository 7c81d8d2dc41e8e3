//! Bound-sensitivity and exhaustiveness checks for the interleaving
//! models, mirroring the gating `ix-analysis sched` run.
//!
//! The shipped algorithms must pass exhaustively at (and above)
//! `DEFAULT_BOUND`; every seeded racy variant must produce a
//! counterexample. The bound-0 cases document *why* a preemption bound is
//! the right search knob: with zero preemptions each thread runs to
//! completion once scheduled, so serial executions of the racy variants
//! are still correct — the bugs live strictly in the preempted schedules.

use ix_analysis::sched::models::{
    CounterModel, CursorModel, GaugeMaxModel, ScopeGrowModel, TwoLockModel,
};
use ix_analysis::sched::{explore, DEFAULT_BOUND};

#[test]
fn shipped_algorithms_pass_exhaustively_at_default_bound() {
    explore(&CursorModel::new(2, 6, 2, false), DEFAULT_BOUND).expect("cursor");
    explore(&CounterModel::new(2, 2, false), DEFAULT_BOUND).expect("counter");
    explore(&GaugeMaxModel::new(&[3, 7, 5], false), DEFAULT_BOUND).expect("gauge");
    explore(&ScopeGrowModel::new(2, 42, false), DEFAULT_BOUND).expect("scope");
    explore(&TwoLockModel::new(false), 4).expect("two-lock");
}

#[test]
fn shipped_algorithms_stay_clean_above_the_documented_bound() {
    // Raising the bound only enlarges the schedule space; a clean pass two
    // notches above DEFAULT_BOUND guards against the bound being tuned to
    // just barely miss a bad schedule.
    let stats_lo = explore(&CursorModel::new(2, 6, 2, false), DEFAULT_BOUND).expect("cursor lo");
    let stats_hi =
        explore(&CursorModel::new(2, 6, 2, false), DEFAULT_BOUND + 2).expect("cursor hi");
    // The cursor model is small enough that DEFAULT_BOUND may already
    // cover its full schedule space, so the count can only grow or hold.
    assert!(stats_hi.schedules >= stats_lo.schedules);
    explore(&CounterModel::new(2, 2, false), DEFAULT_BOUND + 2).expect("counter hi");
    explore(&GaugeMaxModel::new(&[3, 7, 5], false), DEFAULT_BOUND + 2).expect("gauge hi");
}

#[test]
fn racy_variants_are_caught_at_default_bound() {
    explore(&CursorModel::new(2, 6, 2, true), DEFAULT_BOUND).expect_err("cursor");
    explore(&CounterModel::new(2, 2, true), DEFAULT_BOUND).expect_err("counter");
    explore(&GaugeMaxModel::new(&[3, 7], true), DEFAULT_BOUND).expect_err("gauge");
    explore(&ScopeGrowModel::new(2, 42, true), DEFAULT_BOUND).expect_err("scope");
    explore(&TwoLockModel::new(true), 4).expect_err("two-lock");
}

#[test]
fn racy_counter_needs_exactly_one_preemption() {
    // Serial schedules execute the torn load/store back to back.
    explore(&CounterModel::new(2, 2, true), 0).expect("bound 0 is serial");
    // One adverse switch between the load and the store loses an update.
    let cex = explore(&CounterModel::new(2, 2, true), 1).expect_err("bound 1");
    assert!(!cex.schedule.is_empty());
}

#[test]
fn racy_cursor_needs_exactly_one_preemption() {
    explore(&CursorModel::new(2, 6, 2, true), 0).expect("bound 0 is serial");
    explore(&CursorModel::new(2, 6, 2, true), 1).expect_err("bound 1");
}

#[test]
fn inverted_lock_order_reports_deadlock() {
    let cex = explore(&TwoLockModel::new(true), 4).expect_err("ABBA must deadlock");
    assert!(
        cex.error.contains("deadlock"),
        "expected a deadlock counterexample, got: {cex}"
    );
}
