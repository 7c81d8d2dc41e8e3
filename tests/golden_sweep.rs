//! Bit-exactness acceptance suite for the shared-profile sweep and the
//! incremental, floor-aware sweep.
//!
//! `tests/data/golden_sweep_26x120.txt` holds the exact IEEE-754 bit
//! pattern of all 325 pairwise scores on a fixed synthetic 26×120 window,
//! for MIC (fast params), ARX and Pearson — captured from the
//! pre-profile-cache kernel. The optimized path (per-series profiles,
//! allocation-free scratch kernel, work-stealing pool) must reproduce
//! every score bit-for-bit, serial and parallel alike. Regenerate the
//! fixture only on a deliberate numeric change:
//! `cargo run --release -p ix-bench --bin golden_sweep`.
//!
//! The property half pins the incremental sweep's soundness contract
//! (see `crates/core/src/incremental.rs`):
//!
//! - **bit-exactness hammer** — starting from a cold pass over a random
//!   invariant subset and sliding over randomized tick streams, a
//!   diagnosis built from the record is bit-identical (violation tuple and
//!   every consulted score, up to cleared lower bounds that grade the
//!   same) to a full from-scratch sweep of the same window, on one worker
//!   and on four;
//! - **training through the diagnosis pass** — `Engine::build_invariants`
//!   (which scores, on each later frame, only the pairs still under τ)
//!   selects the set `InvariantSet::select` picks from full sweeps, and a
//!   signature's tuple (a cold, a repeated and a slid window) equals
//!   `ViolationTuple::build` over a full sweep, bit for bit.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use invarnet_x::core::{
    pair_count, AdvanceOutcome, ArxMeasure, AssociationMatrix, AssociationMeasure, Engine,
    IncrementalSweep, InvarNetConfig, InvariantSet, MicMeasure, OperationContext, PassScope,
    PearsonMeasure, SweepPool, ViolationTuple, MAX_SLIDE,
};
use invarnet_x::metrics::{MetricFrame, MetricId, METRIC_COUNT};
use invarnet_x::mic::MicParams;

/// The fixed window: identical to the generator in the `golden_sweep`
/// fixture binary (`crates/bench/src/bin/golden_sweep.rs`).
fn frame(ticks: usize) -> MetricFrame {
    let mut f = MetricFrame::new();
    let mut state = 42u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for t in 0..ticks {
        let latent = (t as f64 * 0.23).sin() * 5.0 + 10.0 + 0.2 * next();
        let row: Vec<f64> = (0..METRIC_COUNT)
            .map(|k| {
                let v = latent * (k + 1) as f64 + 0.1 * next();
                if k % 2 == 0 {
                    (v * 8.0).round() / 8.0
                } else {
                    v
                }
            })
            .collect();
        f.push_tick(&row).expect("full-width row");
    }
    f
}

/// Parses the fixture into `measure -> bits-per-pair-index`.
fn golden() -> HashMap<String, Vec<u64>> {
    let text = include_str!("data/golden_sweep_26x120.txt");
    let mut out: HashMap<String, Vec<u64>> = HashMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let name = parts.next().expect("measure name").to_string();
        let idx: usize = parts.next().expect("pair index").parse().unwrap();
        let bits = u64::from_str_radix(parts.next().expect("bit pattern"), 16).unwrap();
        let scores = out.entry(name).or_default();
        assert_eq!(scores.len(), idx, "fixture indices must be dense");
        scores.push(bits);
    }
    out
}

fn assert_matches_golden(
    name: &str,
    matrix: &AssociationMatrix,
    golden: &HashMap<String, Vec<u64>>,
) {
    let expected = &golden[name];
    assert_eq!(matrix.scores().len(), expected.len(), "{name}: pair count");
    for (idx, (score, &bits)) in matrix.scores().iter().zip(expected).enumerate() {
        assert_eq!(
            score.to_bits(),
            bits,
            "{name}: pair {idx} drifted ({} vs golden {})",
            score,
            f64::from_bits(bits)
        );
    }
}

#[test]
fn optimized_sweep_reproduces_golden_bits_for_every_measure() {
    let window = frame(120);
    let golden = golden();
    let measures: [(&str, Arc<dyn AssociationMeasure>); 3] = [
        ("mic_fast", Arc::new(MicMeasure::new(MicParams::fast()))),
        ("arx", Arc::new(ArxMeasure::default())),
        ("pearson", Arc::new(PearsonMeasure)),
    ];
    for (name, measure) in &measures {
        // Serial, statically threaded, and persistent work-stealing pool
        // must all land on the recorded bits.
        for threads in [1, 4] {
            let matrix = AssociationMatrix::compute(&window, measure.as_ref(), threads);
            assert_matches_golden(name, &matrix, &golden);
        }
        let pool = SweepPool::new(4);
        assert_matches_golden(
            name,
            &pool.sweep(&window, measure, &PassScope::detached()),
            &golden,
        );
    }
}

#[test]
fn fixture_is_complete() {
    let golden = golden();
    assert_eq!(golden.len(), 3, "three measures");
    for (name, scores) in &golden {
        assert_eq!(scores.len(), 325, "{name}: 26 metrics -> 325 pairs");
    }
}

// ---------------------------------------------------------------------------
// Incremental floor-aware sweep properties.
// ---------------------------------------------------------------------------

/// One tick of a deterministic infinite metric stream: a latent sinusoid
/// per metric plus hash noise keyed on `(seed, t, k)` only, so two windows
/// at overlapping offsets share their overlap bit-for-bit — the property
/// the slide detector relies on.
fn stream_value(seed: u64, t: usize, k: usize) -> f64 {
    let mut h = seed
        ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ ((k as u64) << 40).wrapping_add(0x2545_f491_4f6c_dd1d);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    let noise = (h >> 11) as f64 / (1u64 << 53) as f64;
    (t as f64 * 0.21).sin() * 4.0 * (k + 1) as f64 + 10.0 * (k + 1) as f64 + noise
}

/// The stream's window `[offset, offset + ticks)` as a batch frame.
/// `shapes[k]` reshapes metric `k`: `2` holds it constant, `3` quantises
/// it to about four values; any other value, or no entry, keeps the
/// stream as it is.
fn streamed_window(seed: u64, offset: usize, ticks: usize, shapes: &[u8]) -> MetricFrame {
    let mut f = MetricFrame::new();
    for t in offset..offset + ticks {
        let row: Vec<f64> = (0..METRIC_COUNT)
            .map(|k| {
                let v = stream_value(seed, t, k);
                match shapes.get(k) {
                    Some(2) => (k + 1) as f64,
                    Some(3) => (v / (3.0 * (k + 1) as f64)).round(),
                    _ => v,
                }
            })
            .collect();
        f.push_tick(&row).expect("full-width row");
    }
    f
}

fn series_of(frame: &MetricFrame) -> Vec<Vec<f64>> {
    MetricId::ALL.iter().map(|&m| frame.series(m)).collect()
}

/// The parts of `all` whose pair `keep` selects: none for `keep == 0`,
/// every pair for `keep == 4`, and about `keep` quarters of them between.
fn invariant_subset(all: &InvariantSet, keep: u8, mask: &[u8]) -> InvariantSet {
    let entries = all
        .entries()
        .iter()
        .filter(|e| mask[e.pair] < keep)
        .copied()
        .collect();
    InvariantSet::from_entries(entries, all.tau()).expect("a subset of a valid set")
}

/// Asserts the record's violation tuple — and every score it consults —
/// is indistinguishable from a full from-scratch sweep of `window`.
fn assert_matches_full_sweep(
    inc: &IncrementalSweep,
    invariants: &InvariantSet,
    window: &MetricFrame,
    epsilon: f64,
    what: &str,
) {
    let fresh = AssociationMatrix::compute(window, &MicMeasure::new(MicParams::fast()), 1);
    let inc_tuple = ViolationTuple::build(invariants, &inc.matrix(), epsilon);
    let fresh_tuple = ViolationTuple::build(invariants, &fresh, epsilon);
    assert_eq!(inc_tuple, fresh_tuple, "{what}");
    // Wherever MIC was actually consulted the score is bit-exact;
    // screened pairs may keep the cache only when both scores provably
    // grade to zero deviation.
    for e in invariants.entries() {
        let got = inc.matrix().at(e.pair);
        let want = fresh.at(e.pair);
        let both_zero_grade = (e.value - got).abs() < epsilon && (e.value - want).abs() < epsilon;
        assert!(
            got.to_bits() == want.to_bits() || both_zero_grade,
            "{what}: pair {}: incremental {got} vs fresh {want}",
            e.pair
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Bit-exactness hammer: start one IncrementalSweep from a cold pass
    // over a random invariant subset (empty and all 325 pairs included),
    // drive it through a random stream of window shifts (including
    // zero-shift repeats) in which some metrics are held constant or
    // quantised to a few values (so a step's departing and entering
    // samples are often bit-equal, and ties run through the sort), and
    // check after the cold pass and every advance that the violation
    // tuple — and every score the tuple consults — is indistinguishable
    // from a full from-scratch sweep of the same window, on a 1- and a
    // 4-worker pool.
    #[test]
    fn incremental_sweep_matches_from_scratch_over_random_streams(
        seed in 0u64..10_000,
        shifts in prop::collection::vec(0usize..MAX_SLIDE + 1, 1..5),
        epsilon in 0.02f64..0.4,
        keep in 0u8..5,
        mask in prop::collection::vec(0u8..4, 325..326),
        shapes in prop::collection::vec(0u8..4, METRIC_COUNT..METRIC_COUNT + 1),
    ) {
        let ticks = 30;
        let measure: Arc<dyn AssociationMeasure> = Arc::new(MicMeasure::new(MicParams::fast()));
        let base = streamed_window(seed, 0, ticks, &shapes);
        let matrix = AssociationMatrix::compute(&base, &MicMeasure::new(MicParams::fast()), 1);
        let all = InvariantSet::select(std::slice::from_ref(&matrix), 0.2);
        prop_assert_eq!(all.len(), pair_count());
        let invariants = invariant_subset(&all, keep, &mask);
        for threads in [1, 4] {
            let pool = SweepPool::new(threads);
            let scope = PassScope::detached();
            let (mut inc, cold) = IncrementalSweep::cold(
                &measure,
                series_of(&base),
                None,
                &invariants,
                epsilon,
                &pool,
                &scope,
            );
            prop_assert_eq!(cold.unreached, 0, "an unbounded pass completes");
            // A pair no invariant reads is never scored: it holds 0.0.
            let mut read = vec![false; pair_count()];
            for e in invariants.entries() {
                read[e.pair] = true;
            }
            for (pair, v) in inc.scores().iter().enumerate() {
                prop_assert!(read[pair] || v.to_bits() == 0.0f64.to_bits(), "pair {}", pair);
            }
            let what = format!("cold pass, {threads} workers");
            assert_matches_full_sweep(&inc, &invariants, &base, epsilon, &what);
            let mut offset = 0usize;
            for &shift in &shifts {
                offset += shift;
                let next = streamed_window(seed, offset, ticks, &shapes);
                let outcome = inc.advance(&series_of(&next));
                if shift == 0 {
                    prop_assert_eq!(outcome, AdvanceOutcome::Identical);
                } else {
                    prop_assert_eq!(outcome, AdvanceOutcome::Advanced { shift });
                }
                let screen = inc.rescore(&invariants, epsilon, &pool, &scope);
                prop_assert_eq!(
                    screen.reused + screen.screened + screen.confirmed,
                    pair_count()
                );
                let what = format!("offset {offset} shift {shift}, {threads} workers");
                assert_matches_full_sweep(&inc, &invariants, &next, epsilon, &what);
            }
        }
    }

    // Training runs through the diagnosis pass and drops rejected pairs,
    // and neither changes a bit of what it produces: random normal frames
    // (each metric coupled to the stream's latent or decoupled, per
    // frame, so pairs fall out of τ at different frames), on one worker
    // and on four.
    #[test]
    fn training_matches_full_sweeps(
        seed in 0u64..10_000,
        decoupled in prop::collection::vec(0u32..(1 << 26), 2..5),
        tau in 0.05f64..0.5,
        epsilon in 0.05f64..0.4,
        shift in 1usize..MAX_SLIDE + 1,
    ) {
        let ticks = 30;
        let config = InvarNetConfig {
            tau,
            epsilon,
            min_frame_ticks: ticks,
            ..InvarNetConfig::default()
        };
        let frames: Vec<MetricFrame> = decoupled
            .iter()
            .enumerate()
            .map(|(run, &mask)| {
                let mut f = MetricFrame::new();
                for t in 0..ticks {
                    let row: Vec<f64> = (0..METRIC_COUNT)
                        .map(|k| {
                            let v = stream_value(seed + run as u64, t, k);
                            if mask & (1 << k) != 0 {
                                stream_value(seed ^ 0x5eed, t * 7 + run, k) * 37.0 % 11.0
                            } else {
                                v
                            }
                        })
                        .collect();
                    f.push_tick(&row).expect("full-width row");
                }
                f
            })
            .collect();
        let abnormal = [
            streamed_window(seed ^ 0xfa17, 0, ticks, &[]),
            streamed_window(seed ^ 0xfa17, 0, ticks, &[]),
            streamed_window(seed ^ 0xfa17, shift, ticks, &[]),
        ];
        let ctx = OperationContext::new("10.3.0.1", "Wordcount");
        let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|v| v.to_bits()).collect() };
        for threads in [1, 4] {
            let engine = Engine::builder().config(config.clone()).threads(threads).build();
            engine.build_invariants(ctx.clone(), &frames).expect("build invariants");
            let got = engine.invariant_set(&ctx).expect("invariants");
            let full: Vec<AssociationMatrix> = frames
                .iter()
                .map(|f| engine.association_matrix(f).expect("full sweep"))
                .collect();
            let want = InvariantSet::select(&full, tau);
            let pairs = |set: &InvariantSet| -> Vec<usize> {
                set.entries().iter().map(|e| e.pair).collect()
            };
            let values = |set: &InvariantSet| -> Vec<f64> {
                set.entries().iter().map(|e| e.value).collect()
            };
            prop_assert_eq!(pairs(&got), pairs(&want), "{} workers", threads);
            prop_assert_eq!(bits(&values(&got)), bits(&values(&want)), "{} workers", threads);
            prop_assert_eq!(got.tau().to_bits(), want.tau().to_bits());
            for (k, window) in abnormal.iter().enumerate() {
                let problem = format!("fault-{k}");
                engine.record_signature(&ctx, &problem, window).expect("signature");
                let recorded = engine.with_signature_database(|db| {
                    db.records().last().expect("a signature").tuple.clone()
                });
                let full = engine.association_matrix(window).expect("full sweep");
                let want = ViolationTuple::build(&want, &full, epsilon);
                prop_assert_eq!(
                    bits(recorded.graded()),
                    bits(want.graded()),
                    "window {}, {} workers",
                    k,
                    threads
                );
            }
        }
    }
}
