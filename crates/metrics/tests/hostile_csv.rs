//! Hostile input for `MetricFrame::from_csv`, the parser behind the
//! `diagnose` CLI's `--window` files: every truncation and every
//! single-byte ASCII substitution of a small frame's CSV must give a typed
//! `CsvError`, or a frame whose own CSV parses back to it bit for bit —
//! never a panic.

use ix_metrics::{CsvError, MetricFrame, METRIC_COUNT};

const INTERVAL: f64 = 10.0;

/// Two ticks of distinct values with long mantissas, small and large
/// exponents and a negative zero, so a flipped byte can land on a digit,
/// a sign, an exponent or a separator.
fn small_frame_csv() -> String {
    let mut frame = MetricFrame::with_interval(INTERVAL);
    for t in 0..2 {
        let row: Vec<f64> = (0..METRIC_COUNT)
            .map(|m| match (t + m) % 4 {
                0 => (m as f64 + 1.0) / 3.0,
                1 => 1.0e-7 * (m as f64 + 0.5),
                2 => 4.0e5 + m as f64,
                _ => -0.0,
            })
            .collect();
        frame.push_tick(&row).expect("finite row");
    }
    frame.to_csv()
}

/// Parses `text` and, when it is accepted, checks that the frame's own
/// CSV parses back to the same ticks, bit for bit.
fn check(text: &str, what: &str) {
    let frame = match MetricFrame::from_csv(text, INTERVAL) {
        Ok(frame) => frame,
        Err(
            CsvError::BadHeader
            | CsvError::WrongFieldCount { .. }
            | CsvError::BadNumber { .. }
            | CsvError::Frame(_),
        ) => return,
    };
    let csv = frame.to_csv();
    let again = MetricFrame::from_csv(&csv, INTERVAL)
        .unwrap_or_else(|e| panic!("{what}: the accepted frame's own CSV is refused: {e}"));
    assert_eq!(again.ticks(), frame.ticks(), "{what}");
    for t in 0..frame.ticks() {
        let bits = |f: &MetricFrame| f.tick(t).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again), bits(&frame), "{what}: tick {t}");
    }
    assert_eq!(again.to_csv(), csv, "{what}");
}

#[test]
fn intact_csv_round_trips() {
    let csv = small_frame_csv();
    let frame = MetricFrame::from_csv(&csv, INTERVAL).expect("intact");
    assert_eq!(frame.ticks(), 2);
    assert_eq!(frame.to_csv(), csv);
}

#[test]
fn every_truncation_is_refused_or_round_trips() {
    let csv = small_frame_csv();
    assert!(csv.is_ascii());
    for len in 0..csv.len() {
        check(&csv[..len], &format!("truncated to {len} bytes"));
    }
}

#[test]
fn every_single_byte_substitution_is_refused_or_round_trips() {
    let csv = small_frame_csv();
    let mut bytes = csv.clone().into_bytes();
    for at in 0..bytes.len() {
        let original = bytes[at];
        for b in (0u8..128).filter(|&b| b != original) {
            bytes[at] = b;
            let text = std::str::from_utf8(&bytes).expect("ASCII stays UTF-8");
            check(text, &format!("byte {at} set to {b:#04x}"));
        }
        bytes[at] = original;
    }
}
