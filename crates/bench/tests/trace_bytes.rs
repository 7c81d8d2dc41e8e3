//! The exact length of the trace `perf`'s replay section records and
//! reports as `trace_bytes`. Every history record kind has a fixed width,
//! so the length does not depend on the recording's wall-clock readings;
//! a change here is a change of the trace format or of what the scenario
//! records.

use ix_bench::scenario::record_fault_scenario;

/// `perf`'s simulator seed (`SEED` in `src/bin/perf.rs`).
const PERF_SEED: u64 = 11;

#[test]
fn perf_trace_bytes_are_pinned() {
    let scenario = record_fault_scenario(PERF_SEED).expect("record scenario");
    assert_eq!(scenario.trace.to_bytes().len(), 86_242);
}
