//! Exporters: serializable snapshots, Prometheus text exposition, and the
//! human-readable report behind `diagnose --telemetry`.
//!
//! Everything renders from a [`TelemetrySnapshot`] — a plain-data copy of
//! the registry — so a snapshot deserialized from JSON renders exactly the
//! same text as the live registry it was taken from.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

use super::histogram::{bucket_upper_edge, HistogramSnapshot};
use super::registry::ScopeSnapshot;

/// One closed span as exported (labels resolved to strings).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Monotone sequence number.
    pub seq: u64,
    /// Phase name (see [`super::EnginePhase::name`]).
    pub phase: String,
    /// Context label.
    pub context: String,
    /// Duration in microseconds.
    pub micros: u64,
}

/// Aggregate latency distribution of one engine phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSnapshot {
    /// Phase name.
    pub phase: String,
    /// Span durations of the phase (µs).
    pub micros: HistogramSnapshot,
}

/// A complete, serializable copy of the engine's telemetry at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Per-context scopes (plus the unattributed scope when non-empty).
    pub contexts: Vec<ScopeSnapshot>,
    /// Everything merged, labeled `"(all)"`.
    pub total: ScopeSnapshot,
    /// Per-phase span-duration distributions.
    pub phases: Vec<PhaseSnapshot>,
    /// The most recently closed spans, oldest first.
    pub spans: Vec<SpanSnapshot>,
}

impl TelemetrySnapshot {
    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (practically unreachable for this
    /// plain-data tree).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a snapshot back from [`TelemetrySnapshot::to_json`] output.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a shape mismatch.
    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Prometheus text exposition of every counter, gauge and histogram,
    /// one time series per context.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counters: [SeriesSpec<u64>; 17] = [
            ("invarnet_ticks_ingested_total", "Ticks ingested.", |s| {
                s.ticks
            }),
            (
                "invarnet_threshold_exceedances_total",
                "Ticks whose detector residual exceeded the threshold.",
                |s| s.threshold_exceedances,
            ),
            (
                "invarnet_detections_fired_total",
                "Anomaly onsets reported by the detection layer.",
                |s| s.detections,
            ),
            (
                "invarnet_detections_cleared_total",
                "Anomalous-to-normal edges.",
                |s| s.clears,
            ),
            ("invarnet_diagnoses_total", "Cause-inference passes.", |s| {
                s.diagnoses
            }),
            (
                "invarnet_sweeps_total",
                "Pairwise association sweeps.",
                |s| s.sweeps,
            ),
            (
                "invarnet_pairs_scored_total",
                "Metric pairs scored across all sweeps.",
                |s| s.pairs_scored,
            ),
            (
                "invarnet_signature_matches_total",
                "Diagnoses whose best match was confident.",
                |s| s.matches_confident,
            ),
            (
                "invarnet_signature_unknowns_total",
                "Diagnoses below the confidence bar.",
                |s| s.matches_unknown,
            ),
            (
                "invarnet_sweep_pairs_reused_total",
                "Pair scores served verbatim from the incremental sweep state.",
                |s| s.sweep_pairs_reused,
            ),
            (
                "invarnet_sweep_pairs_screened_total",
                "Invariant pairs whose score pass stopped early: a kernel lower bound proved them held.",
                |s| s.sweep_pairs_screened,
            ),
            (
                "invarnet_sweep_pairs_confirmed_total",
                "Invariant pairs scored exactly by the full association measure.",
                |s| s.sweep_pairs_confirmed,
            ),
            (
                "invarnet_sweep_degraded_total",
                "Diagnosis passes cut short by their budget (declared degraded).",
                |s| s.sweeps_degraded,
            ),
            (
                "invarnet_ticks_shed_total",
                "Ticks shed by the ingest queue's overload policy.",
                |s| s.ticks_shed,
            ),
            (
                "invarnet_store_retries_total",
                "Model-store save/load attempts that were retried.",
                |s| s.store_retries,
            ),
            (
                "invarnet_health_transitions_total",
                "Engine health state machine transitions.",
                |s| s.health_transitions,
            ),
            (
                "invarnet_history_rows_recorded_total",
                "Tick rows appended to the attached history recorder.",
                |s| s.history_rows_recorded,
            ),
        ];
        for (name, help, get) in counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for scope in &self.contexts {
                let _ = writeln!(
                    out,
                    "{name}{{context=\"{}\"}} {}",
                    escape_label(&scope.context),
                    get(scope)
                );
            }
        }
        let gauges: [SeriesSpec<f64>; 6] = [
            (
                "invarnet_last_residual",
                "Most recent detector residual.",
                |s| s.last_residual,
            ),
            (
                "invarnet_max_residual",
                "Largest detector residual seen.",
                |s| s.max_residual,
            ),
            (
                "invarnet_last_similarity",
                "Similarity of the most recent best signature match.",
                |s| s.last_similarity,
            ),
            (
                "invarnet_queue_depth",
                "Ingest-queue shard depth after the most recent enqueue.",
                |s| s.queue_depth_last as f64,
            ),
            (
                "invarnet_queue_depth_max",
                "Deepest ingest-queue shard depth seen.",
                |s| s.queue_depth_max as f64,
            ),
            (
                "invarnet_history_segments",
                "Storage segments the attached history recorder holds.",
                |s| s.history_segments as f64,
            ),
        ];
        for (name, help, get) in gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for scope in &self.contexts {
                let _ = writeln!(
                    out,
                    "{name}{{context=\"{}\"}} {}",
                    escape_label(&scope.context),
                    get(scope)
                );
            }
        }
        let histograms: [HistogramSpec; 5] = [
            (
                "invarnet_ingest_micros",
                "Per-tick ingest latency in microseconds.",
                |s| &s.ingest_micros,
            ),
            (
                "invarnet_sweep_micros",
                "Association sweep latency in microseconds.",
                |s| &s.sweep_micros,
            ),
            (
                "invarnet_diagnosis_micros",
                "Cause-inference latency in microseconds.",
                |s| &s.diagnosis_micros,
            ),
            (
                "invarnet_pair_score_nanos",
                "Association-measure cost in nanoseconds per metric pair.",
                |s| &s.pair_score_nanos,
            ),
            (
                "invarnet_recorder_append_nanos",
                "History recorder append cost in nanoseconds per recorded tick.",
                |s| &s.recorder_append_nanos,
            ),
        ];
        for (name, help, get) in histograms {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            for scope in &self.contexts {
                render_histogram(&mut out, name, &scope.context, get(scope));
            }
        }
        out
    }

    /// The human-readable report printed by `diagnose --telemetry`:
    /// per-context activity with sweep latency quantiles, phase timings,
    /// and the recent-span tail.
    pub fn render_report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "telemetry report");
        let _ = writeln!(out, "================");
        let _ = writeln!(
            out,
            "{:<34} {:>8} {:>7} {:>6} {:>6} {:>5} {:>6} {:>6} {:>8} {:>8}",
            "context",
            "ticks",
            "exceed",
            "fired",
            "clear",
            "diag",
            "sweep",
            "match",
            "swp_p50",
            "swp_p99"
        );
        let mut rows: Vec<&ScopeSnapshot> = self.contexts.iter().collect();
        rows.push(&self.total);
        for scope in rows {
            let _ = writeln!(
                out,
                "{:<34} {:>8} {:>7} {:>6} {:>6} {:>5} {:>6} {:>6} {:>7}µ {:>7}µ",
                scope.context,
                scope.ticks,
                scope.threshold_exceedances,
                scope.detections,
                scope.clears,
                scope.diagnoses,
                scope.sweeps,
                scope.matches_confident,
                scope.sweep_micros.quantile(0.5),
                scope.sweep_micros.quantile(0.99),
            );
        }
        if self.total.sweeps_degraded > 0
            || self.total.ticks_shed > 0
            || self.total.store_retries > 0
            || self.total.health_transitions > 0
        {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "resilience: {} degraded sweep(s), {} shed tick(s), {} store retry(ies), \
                 {} health transition(s), max queue depth {}",
                self.total.sweeps_degraded,
                self.total.ticks_shed,
                self.total.store_retries,
                self.total.health_transitions,
                self.total.queue_depth_max,
            );
        }
        if self.total.sweep_pairs_reused > 0
            || self.total.sweep_pairs_screened > 0
            || self.total.sweep_pairs_confirmed > 0
        {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "incremental sweeps: {} pair score(s) reused, {} screened, {} confirmed",
                self.total.sweep_pairs_reused,
                self.total.sweep_pairs_screened,
                self.total.sweep_pairs_confirmed,
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "latency", "count", "p50", "p90", "p99", "max"
        );
        let latency_rows: [(&str, &HistogramSnapshot); 5] = [
            ("ingest (µs/tick)", &self.total.ingest_micros),
            ("sweep (µs)", &self.total.sweep_micros),
            ("diagnosis (µs)", &self.total.diagnosis_micros),
            ("pair score (ns)", &self.total.pair_score_nanos),
            ("rec append (ns)", &self.total.recorder_append_nanos),
        ];
        for (label, hist) in latency_rows {
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>9} {:>9} {:>9} {:>9}",
                label,
                hist.count,
                hist.quantile(0.5),
                hist.quantile(0.9),
                hist.quantile(0.99),
                hist.max,
            );
        }
        let timed: Vec<&PhaseSnapshot> =
            self.phases.iter().filter(|p| p.micros.count > 0).collect();
        if !timed.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>9} {:>9} {:>9}",
                "phase (µs)", "spans", "p50", "p99", "max"
            );
            for phase in timed {
                let _ = writeln!(
                    out,
                    "{:<20} {:>8} {:>9} {:>9} {:>9}",
                    phase.phase,
                    phase.micros.count,
                    phase.micros.quantile(0.5),
                    phase.micros.quantile(0.99),
                    phase.micros.max,
                );
            }
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "recent spans (newest last):");
            for span in &self.spans {
                let _ = writeln!(
                    out,
                    "  #{:<6} {:<16} {:<34} {:>8} µs",
                    span.seq, span.phase, span.context, span.micros
                );
            }
        }
        out
    }
}

/// A named, documented series extractor: `(metric_name, help_text, getter)`.
type SeriesSpec<T> = (&'static str, &'static str, fn(&ScopeSnapshot) -> T);

/// Like [`SeriesSpec`], returning a borrowed histogram.
type HistogramSpec = (
    &'static str,
    &'static str,
    fn(&ScopeSnapshot) -> &HistogramSnapshot,
);

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_histogram(out: &mut String, name: &str, context: &str, hist: &HistogramSnapshot) {
    let context = escape_label(context);
    let mut cumulative = 0u64;
    for (i, &n) in hist.buckets.iter().enumerate() {
        cumulative += n;
        // Skip interior empty prefixes? No — exposition needs every edge to
        // be monotone-complete, but identical consecutive cumulative counts
        // carry no information; keep only buckets up to the last non-empty
        // edge plus +Inf to bound output size.
        if n == 0 && cumulative == 0 {
            continue;
        }
        let edge = bucket_upper_edge(i);
        if edge == u64::MAX {
            continue; // folded into +Inf below
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{context=\"{context}\",le=\"{edge}\"}} {cumulative}"
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{context=\"{context}\",le=\"+Inf\"}} {}",
        hist.count
    );
    let _ = writeln!(out, "{name}_sum{{context=\"{context}\"}} {}", hist.sum);
    let _ = writeln!(out, "{name}_count{{context=\"{context}\"}} {}", hist.count);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut a = ScopeSnapshot::empty("W@n1".into());
        a.ticks = 120;
        a.detections = 2;
        a.diagnoses = 1;
        a.sweeps = 3;
        a.pairs_scored = 975;
        a.last_residual = 0.25;
        a.max_residual = 1.5;
        a.sweep_micros.buckets[11] = 3;
        a.sweep_micros.count = 3;
        a.sweep_micros.sum = 4200;
        a.sweep_micros.max = 1500;
        let mut total = ScopeSnapshot::empty("(all)".into());
        total.merge(&a);
        TelemetrySnapshot {
            contexts: vec![a],
            total,
            phases: vec![PhaseSnapshot {
                phase: "sweep".into(),
                micros: HistogramSnapshot {
                    buckets: {
                        let mut b = vec![0u64; 32];
                        b[11] = 3;
                        b
                    },
                    count: 3,
                    sum: 4200,
                    max: 1500,
                },
            }],
            spans: vec![SpanSnapshot {
                seq: 1,
                phase: "sweep".into(),
                context: "W@n1".into(),
                micros: 1500,
            }],
        }
    }

    #[test]
    fn json_roundtrips_bit_identically() {
        let snap = sample_snapshot();
        let json = snap.to_json().unwrap();
        let back = TelemetrySnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        // And the rendered outputs agree between original and round-trip.
        assert_eq!(back.render_prometheus(), snap.render_prometheus());
        assert_eq!(back.render_report(), snap.render_report());
    }

    #[test]
    fn prometheus_text_has_expected_series() {
        let text = sample_snapshot().render_prometheus();
        assert!(text.contains("invarnet_ticks_ingested_total{context=\"W@n1\"} 120"));
        assert!(text.contains("invarnet_sweeps_total{context=\"W@n1\"} 3"));
        assert!(text.contains("invarnet_sweep_micros_bucket{context=\"W@n1\",le=\"+Inf\"} 3"));
        assert!(text.contains("invarnet_sweep_micros_sum{context=\"W@n1\"} 4200"));
        assert!(text.contains("invarnet_last_residual{context=\"W@n1\"} 0.25"));
    }

    #[test]
    fn report_prints_context_and_quantiles() {
        let report = sample_snapshot().render_report();
        assert!(report.contains("W@n1"));
        assert!(report.contains("(all)"));
        assert!(report.contains("sweep"));
    }

    #[test]
    fn history_recording_series_are_exported() {
        let mut snap = sample_snapshot();
        snap.contexts[0].history_rows_recorded = 600;
        snap.contexts[0].history_segments = 2;
        snap.contexts[0].recorder_append_nanos.buckets = vec![0u64; 32];
        snap.contexts[0].recorder_append_nanos.buckets[7] = 600;
        snap.contexts[0].recorder_append_nanos.count = 600;
        snap.contexts[0].recorder_append_nanos.sum = 72_000;
        snap.contexts[0].recorder_append_nanos.max = 380;
        snap.total = ScopeSnapshot::empty("(all)".into());
        let scope = snap.contexts[0].clone();
        snap.total.merge(&scope);
        let text = snap.render_prometheus();
        assert!(text.contains("invarnet_history_rows_recorded_total{context=\"W@n1\"} 600"));
        assert!(text.contains("invarnet_history_segments{context=\"W@n1\"} 2"));
        assert!(text.contains("invarnet_recorder_append_nanos_count{context=\"W@n1\"} 600"));
        assert!(text.contains("invarnet_recorder_append_nanos_sum{context=\"W@n1\"} 72000"));
        let report = snap.render_report();
        assert!(report.contains("rec append (ns)"));
        // The JSON round-trip carries the new fields bit-exactly.
        let back = TelemetrySnapshot::from_json(&snap.to_json().unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn labels_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn resilience_series_and_report_line() {
        let mut snap = sample_snapshot();
        snap.contexts[0].sweeps_degraded = 2;
        snap.contexts[0].ticks_shed = 5;
        snap.contexts[0].queue_depth_max = 7;
        snap.total = ScopeSnapshot::empty("(all)".into());
        let scope = snap.contexts[0].clone();
        snap.total.merge(&scope);
        let text = snap.render_prometheus();
        assert!(text.contains("invarnet_sweep_degraded_total{context=\"W@n1\"} 2"));
        assert!(text.contains("invarnet_ticks_shed_total{context=\"W@n1\"} 5"));
        assert!(text.contains("invarnet_queue_depth_max{context=\"W@n1\"} 7"));
        assert!(text.contains("invarnet_store_retries_total{context=\"W@n1\"} 0"));
        let report = snap.render_report();
        assert!(report.contains("resilience: 2 degraded sweep(s), 5 shed tick(s)"));
        assert!(report.contains("max queue depth 7"));
        // Quiet engines don't print the resilience line at all.
        assert!(!sample_snapshot().render_report().contains("resilience:"));
    }
}
