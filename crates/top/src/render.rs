//! Pure frame rendering: a [`TopSnapshot`] (plus the previous frame's
//! snapshot, for drift) in, one plain-text frame out.
//!
//! The renderer touches no terminal and no clock — the same snapshot pair
//! always yields the same bytes, which is what makes the console's golden
//! tests and headless CI smoke runs possible. Escape sequences are the
//! `Screen`'s business, not the frame's.

use ix_core::HistogramSnapshot;

use crate::console::TopSnapshot;

/// Characters of rising ink for the drift sparklines; plain ASCII so
/// frames survive any locale.
const SPARK: &[u8] = b" .:-=+*#@";

/// Sparkline width in characters (histogram buckets are folded in pairs).
const SPARK_WIDTH: usize = 16;

/// Renders one console frame. `prev` is the snapshot of the previous
/// frame, used to show *drift* — where the per-tick cost histograms
/// gained mass since the last repaint — rather than all-time totals;
/// `None` renders the all-time distribution. Lines are clipped to
/// `width` columns.
pub fn render_frame(snap: &TopSnapshot, prev: Option<&TopSnapshot>, width: usize) -> String {
    let width = width.max(40);
    let mut out = String::new();
    let mut line = |text: String| {
        // Clip by characters, not bytes — labels and the header contain
        // multi-byte glyphs, and `String::truncate` panics mid-char.
        if text.chars().count() > width {
            out.extend(text.chars().take(width));
        } else {
            out.push_str(&text);
        }
        out.push('\n');
    };

    // Header: where the stream is and how the engine feels about it.
    let replay = match &snap.replay {
        Some(p) => format!("  replay {}/{} x{:.1}", p.position, p.total, p.speed),
        None => String::new(),
    };
    line(format!(
        "ix-top — InvarNet-X operator console  tick {:>6}  health {}{}",
        snap.latest_tick, snap.health, replay
    ));
    line(format!(
        "queue {} {}  shed {}  degraded sweeps {}",
        queue_bar(snap.queue_depth, snap.queue_capacity),
        match snap.queue_capacity {
            0 => format!("{}/?", snap.queue_depth),
            cap => format!("{}/{}", snap.queue_depth, cap),
        },
        snap.shed_ticks,
        snap.degraded_sweeps
    ));
    let total = &snap.telemetry.total;
    line(format!(
        "recorder {} rows / {} segments  append p50 {} ns  p99 {} ns",
        total.history_rows_recorded,
        total.history_segments,
        total.recorder_append_nanos.quantile(0.5),
        total.recorder_append_nanos.quantile(0.99)
    ));
    line(format!(
        "sweeps {}  pairs reused {} / screened {} / confirmed {}",
        total.sweeps,
        total.sweep_pairs_reused,
        total.sweep_pairs_screened,
        total.sweep_pairs_confirmed
    ));
    line(String::new());

    // Per-context table with an ingest-cost drift sparkline per row.
    line(format!(
        "{:<28} {:>7} {:>7} {:>7} {:>6} {:>6} {:>9}  {}",
        "context", "ticks", "exceed", "detect", "diag", "match", "p50ing us", "cost drift"
    ));
    for scope in &snap.telemetry.contexts {
        if scope.is_empty() {
            continue;
        }
        let prev_scope = prev.and_then(|p| {
            p.telemetry
                .contexts
                .iter()
                .find(|s| s.context == scope.context)
        });
        line(format!(
            "{:<28} {:>7} {:>7} {:>7} {:>6} {:>6} {:>9}  {}",
            clip(&scope.context, 28),
            scope.ticks,
            scope.threshold_exceedances,
            scope.detections,
            scope.diagnoses,
            scope.matches_confident,
            scope.ingest_micros.quantile(0.5),
            drift_sparkline(&scope.ingest_micros, prev_scope.map(|s| &s.ingest_micros))
        ));
    }
    line(String::new());

    // Scrolling tail of notable events, oldest first.
    line("events".to_string());
    if snap.tail.is_empty() {
        line("  (none yet)".to_string());
    }
    for entry in &snap.tail {
        line(format!("  {entry}"));
    }
    out
}

/// A fixed-width `[####....]` gauge; all-dots when capacity is unknown.
fn queue_bar(depth: u64, capacity: u64) -> String {
    const CELLS: usize = 10;
    let filled = if capacity == 0 {
        0
    } else {
        // Ceiling keeps a non-empty queue visible even at 1% occupancy.
        (((depth.min(capacity) as f64) / capacity as f64) * CELLS as f64).ceil() as usize
    };
    let mut bar = String::with_capacity(CELLS + 2);
    bar.push('[');
    for i in 0..CELLS {
        bar.push(if i < filled { '#' } else { '.' });
    }
    bar.push(']');
    bar
}

/// Folds a histogram's buckets into a [`SPARK_WIDTH`]-character
/// sparkline. With a previous snapshot, the line shows the *delta* mass
/// per bucket since that snapshot (what moved), otherwise the all-time
/// distribution (what is).
fn drift_sparkline(curr: &HistogramSnapshot, prev: Option<&HistogramSnapshot>) -> String {
    let folded = fold_buckets(curr, prev);
    let peak = folded.iter().copied().max().unwrap_or(0);
    folded
        .iter()
        .map(|&v| {
            if peak == 0 {
                ' '
            } else {
                let idx = ((v as f64 / peak as f64) * (SPARK.len() - 1) as f64).round() as usize;
                SPARK[idx.min(SPARK.len() - 1)] as char
            }
        })
        .collect()
}

/// Per-bucket delta (or absolute count) folded down to [`SPARK_WIDTH`]
/// cells.
fn fold_buckets(curr: &HistogramSnapshot, prev: Option<&HistogramSnapshot>) -> Vec<u64> {
    let deltas: Vec<u64> = curr
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let before = prev.and_then(|p| p.buckets.get(i)).copied().unwrap_or(0);
            c.saturating_sub(before)
        })
        .collect();
    let fold = deltas.len().div_ceil(SPARK_WIDTH).max(1);
    deltas.chunks(fold).map(|c| c.iter().sum()).collect()
}

/// Clips a label to `max` characters, marking the cut with an ellipsis.
fn clip(text: &str, max: usize) -> String {
    if text.len() <= max {
        return text.to_string();
    }
    let mut clipped: String = text.chars().take(max.saturating_sub(1)).collect();
    clipped.push('…');
    clipped
}
