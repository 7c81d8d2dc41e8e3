//! Wall-clock timing of the 26-metric pairwise association sweep, printed
//! as JSON (redirect to `BENCH_sweep.json`).
//!
//! Unlike the criterion benches this is a plain binary so the numbers can
//! be regenerated and diffed across commits without the criterion harness:
//!
//! ```bash
//! cargo run --release -p ix-bench --bin sweep_bench > BENCH_sweep.json
//! ```
//!
//! `sweep_bench --quick` runs only the incremental-vs-from-scratch
//! correctness check (no timing, no timing gate) — the CI smoke mode.

use std::sync::Arc;
use std::time::Instant;

use ix_core::{
    pair_count, AdvanceOutcome, AssociationMatrix, AssociationMeasure, IncrementalSweep,
    InvariantSet, MicMeasure, PassScope, PearsonMeasure, SweepPool, ViolationTuple,
};
use ix_metrics::{MetricFrame, METRIC_COUNT};
use ix_mic::MicParams;

/// `total` ticks of the latent-coupled stream the sweep windows slide
/// over. The LCG advances a fixed number of draws per tick, so a window
/// at any offset is bit-identical to the same rows generated in one go —
/// the overlap property the incremental slide detector requires.
fn stream_rows(total: usize) -> Vec<Vec<f64>> {
    let mut state = 42u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    (0..total)
        .map(|t| {
            let latent = (t as f64 * 0.23).sin() * 5.0 + 10.0 + 0.2 * next();
            (0..METRIC_COUNT)
                .map(|k| latent * (k + 1) as f64 + 0.1 * next())
                .collect()
        })
        .collect()
}

/// A latent-coupled frame, the shape the online window actually has
/// (the stream's prefix).
fn frame(ticks: usize) -> MetricFrame {
    window_frame(&stream_rows(ticks), 0, ticks)
}

/// The stream's window `[offset, offset + ticks)` as a batch frame.
fn window_frame(rows: &[Vec<f64>], offset: usize, ticks: usize) -> MetricFrame {
    let mut f = MetricFrame::new();
    for row in &rows[offset..offset + ticks] {
        f.push_tick(row).expect("full-width row");
    }
    f
}

/// The same window series-major, the shape [`IncrementalSweep`] consumes.
fn window_series(rows: &[Vec<f64>], offset: usize, ticks: usize) -> Vec<Vec<f64>> {
    (0..METRIC_COUNT)
        .map(|k| rows[offset..offset + ticks].iter().map(|r| r[k]).collect())
        .collect()
}

/// Median wall-clock milliseconds of `iters` runs of `run`.
fn time_ms(iters: usize, mut run: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// MIC without a sweep plan: per-pair re-sort/re-partition, the
/// pre-profile-cache path, kept for before/after comparison.
struct UnplannedMic(MicMeasure);

impl AssociationMeasure for UnplannedMic {
    fn score(&self, x: &[f64], y: &[f64]) -> f64 {
        self.0.score(x, y)
    }

    fn name(&self) -> &'static str {
        "MIC(unplanned)"
    }
}

/// Drives one [`IncrementalSweep`] through `steps` slide-by-one windows,
/// asserting after every advance that the violation tuple — and every
/// invariant-pair score outside the provably-safe screened band — is
/// bit-identical to a full from-scratch sweep. Returns per-step timings
/// (advance + rescore only) and the accumulated screen counters.
fn steady_state(
    rows: &[Vec<f64>],
    ticks: usize,
    steps: usize,
    epsilon: f64,
) -> (Vec<f64>, ix_core::ScreenOutcome) {
    let mic = MicMeasure::new(MicParams::fast());
    let measure: Arc<dyn AssociationMeasure> = Arc::new(MicMeasure::new(MicParams::fast()));
    let pool = SweepPool::new(1);
    let base = window_frame(rows, 0, ticks);
    let matrix = AssociationMatrix::compute(&base, &mic, 1);
    let invariants = InvariantSet::select(std::slice::from_ref(&matrix), 0.2);
    let scope = PassScope::detached();
    let mut inc = IncrementalSweep::cold(
        &measure,
        window_series(rows, 0, ticks),
        vec![0.0; pair_count()],
        &invariants,
        &pool,
        &scope,
    )
    .expect("an unbounded pass completes");
    let mut timings = Vec::with_capacity(steps);
    let mut totals = ix_core::ScreenOutcome::default();
    for step in 1..=steps {
        let series = window_series(rows, step, ticks);
        let t = Instant::now();
        let outcome = inc.advance(&series);
        let screen = inc
            .rescore(&invariants, epsilon, &pool, &scope)
            .expect("a cold record has a plan");
        timings.push(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(outcome, AdvanceOutcome::Advanced { shift: 1 });
        totals.reused += screen.reused;
        totals.screened += screen.screened;
        totals.confirmed += screen.confirmed;
        let fresh = AssociationMatrix::compute(&window_frame(rows, step, ticks), &mic, 1);
        assert_eq!(
            ViolationTuple::build(&invariants, &inc.matrix(), epsilon),
            ViolationTuple::build(&invariants, &fresh, epsilon),
            "step {step}: incremental violation tuple diverged from from-scratch"
        );
        for e in invariants.entries() {
            let got = inc.matrix().at(e.pair);
            let want = fresh.at(e.pair);
            let both_zero_grade =
                (e.value - got).abs() < epsilon && (e.value - want).abs() < epsilon;
            assert!(
                got.to_bits() == want.to_bits() || both_zero_grade,
                "step {step} pair {}: incremental {got} vs from-scratch {want}",
                e.pair
            );
        }
    }
    (timings, totals)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ticks = 120;

    if quick {
        // CI smoke: correctness only, smaller window, no timing gate.
        let (q_ticks, q_steps) = (60, 8);
        let rows = stream_rows(q_ticks + q_steps);
        let (_, totals) = steady_state(&rows, q_ticks, q_steps, 0.2);
        println!(
            "sweep_bench --quick: incremental == from-scratch over {q_steps} slides \
             ({} reused / {} screened / {} confirmed) OK",
            totals.reused, totals.screened, totals.confirmed
        );
        return;
    }

    let window = frame(ticks);
    let mic = MicMeasure::new(MicParams::fast());
    let mic_dyn: Arc<dyn AssociationMeasure> = Arc::new(MicMeasure::new(MicParams::fast()));
    let pearson_dyn: Arc<dyn AssociationMeasure> = Arc::new(PearsonMeasure);

    // Warm up (page in, spin up allocator arenas).
    let reference = AssociationMatrix::compute(&window, &mic, 1);

    let single = time_ms(7, || {
        let m = AssociationMatrix::compute(&window, &mic, 1);
        assert_eq!(m, reference);
    });

    // The same sweep with profile sharing disabled (per-pair score calls),
    // to isolate what the per-series profile cache buys.
    let unplanned_mic = UnplannedMic(MicMeasure::new(MicParams::fast()));
    let unplanned = time_ms(7, || {
        let m = AssociationMatrix::compute(&window, &unplanned_mic, 1);
        assert_eq!(m, reference);
    });

    let mut pool_lines = Vec::new();
    for threads in [1usize, 4, 8] {
        let pool = SweepPool::new(threads);
        let ms = time_ms(7, || {
            let m = pool.sweep(&window, &mic_dyn);
            assert_eq!(m, reference);
        });
        pool_lines.push(format!("    \"mic_pool{threads}_ms\": {ms:.3}"));
    }

    let pearson_pool = SweepPool::new(4);
    let pearson = time_ms(21, || {
        pearson_pool.sweep(&window, &pearson_dyn);
    });

    // Steady state: one sweep kept alive across slide-by-one windows —
    // advance + screen-then-confirm per tick, correctness asserted against
    // a from-scratch sweep at every step.
    let steps = 64;
    let rows = stream_rows(ticks + steps);
    let (mut timings, totals) = steady_state(&rows, ticks, steps, 0.2);
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let incremental = timings[timings.len() / 2];
    let per_step = (totals.reused + totals.screened + totals.confirmed) / steps;
    let stale_invariant = totals.screened + totals.confirmed;
    let hit_rate = if stale_invariant > 0 {
        totals.screened as f64 / stale_invariant as f64
    } else {
        0.0
    };

    println!("{{");
    println!("  \"bench\": \"assoc_sweep_26x{ticks}\",");
    println!("  \"pairs\": {},", ix_core::pair_count());
    println!("  \"mic_params\": \"fast (alpha=0.55, c=5)\",");
    println!("  \"results\": {{");
    println!("    \"mic_single_thread_ms\": {single:.3},");
    println!("    \"mic_unplanned_single_thread_ms\": {unplanned:.3},");
    println!("{},", pool_lines.join(",\n"));
    println!("    \"pearson_pool4_ms\": {pearson:.3},");
    println!("    \"steady_state_incremental_ms\": {incremental:.3},");
    println!("    \"screen_hit_rate\": {hit_rate:.3},");
    println!(
        "    \"incremental_pairs_per_tick\": {{ \"total\": {per_step}, \"reused\": {}, \"screened\": {}, \"confirmed\": {} }}",
        totals.reused / steps,
        totals.screened / steps,
        totals.confirmed / steps
    );
    println!("  }}");
    println!("}}");
}
