use std::collections::VecDeque;

use crate::frame::{FrameError, MetricFrame};
use crate::METRIC_COUNT;

/// A bounded, ring-buffered window over the most recent metric ticks of one
/// node — the storage behind tick-at-a-time streaming ingestion.
///
/// Where [`MetricFrame`] accumulates a whole job run, `SlidingFrame` keeps
/// only the last `capacity` ticks: pushing tick `capacity + 1` evicts the
/// oldest. Samples are validated exactly like [`MetricFrame::push_tick`]
/// (width and finiteness), so a window materialized with
/// [`SlidingFrame::to_frame`] is always a valid frame equal to the suffix
/// of an equivalently-fed batch frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingFrame {
    interval_secs: f64,
    capacity: usize,
    // Ring of rows; each stored row is exactly METRIC_COUNT values.
    rows: VecDeque<f64>,
    total_pushed: u64,
}

impl SlidingFrame {
    /// An empty window holding up to `capacity` ticks at the paper's 10 s
    /// cadence.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        Self::with_interval(capacity, 10.0)
    }

    /// An empty window with an explicit sampling interval.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn with_interval(capacity: usize, interval_secs: f64) -> Self {
        assert!(capacity > 0, "sliding frame needs a non-zero capacity");
        SlidingFrame {
            interval_secs,
            capacity,
            rows: VecDeque::with_capacity((capacity + 1) * METRIC_COUNT),
            total_pushed: 0,
        }
    }

    /// Sampling interval in seconds.
    pub fn interval_secs(&self) -> f64 {
        self.interval_secs
    }

    /// Maximum ticks retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Ticks currently held (`<= capacity`).
    pub fn ticks(&self) -> usize {
        self.rows.len() / METRIC_COUNT
    }

    /// Whether the window holds no ticks.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether the window has reached its capacity.
    pub fn is_full(&self) -> bool {
        self.ticks() == self.capacity
    }

    /// Ticks pushed over the window's lifetime, including evicted ones.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Appends one tick ordered per [`crate::MetricId::ALL`], evicting the
    /// oldest tick when full.
    ///
    /// # Errors
    ///
    /// [`FrameError::WrongWidth`] or [`FrameError::NonFinite`]; the window
    /// is unchanged on error.
    pub fn push_tick(&mut self, samples: &[f64]) -> Result<(), FrameError> {
        if samples.len() != METRIC_COUNT {
            return Err(FrameError::WrongWidth { got: samples.len() });
        }
        for (i, &v) in samples.iter().enumerate() {
            if !v.is_finite() {
                return Err(FrameError::NonFinite {
                    metric: crate::MetricId::ALL[i],
                });
            }
        }
        if self.is_full() {
            self.rows.drain(..METRIC_COUNT);
        }
        self.rows.extend(samples.iter().copied());
        self.total_pushed += 1;
        Ok(())
    }

    /// The value of `metric` at window-relative `tick` (0 = oldest held).
    ///
    /// # Panics
    ///
    /// Panics when `tick >= ticks()`.
    pub fn get(&self, tick: usize, metric: crate::MetricId) -> f64 {
        assert!(tick < self.ticks(), "tick {tick} out of range");
        self.rows[tick * METRIC_COUNT + metric.index()]
    }

    /// The held values, oldest tick first, each tick's
    /// [`METRIC_COUNT`] values ordered per [`crate::MetricId::ALL`]: the
    /// rows [`SlidingFrame::push_tick`] took, flat.
    pub fn values(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.rows.iter().copied()
    }

    /// [`SlidingFrame::values`] as the two halves of the window's ring, in
    /// order; the second is empty when the ring does not wrap.
    pub fn as_slices(&self) -> (&[f64], &[f64]) {
        self.rows.as_slices()
    }

    /// Materializes the current window as a batch [`MetricFrame`], oldest
    /// held tick first.
    pub fn to_frame(&self) -> MetricFrame {
        let mut frame = MetricFrame::with_interval(self.interval_secs);
        let mut row = vec![0.0; METRIC_COUNT];
        for t in 0..self.ticks() {
            for (i, slot) in row.iter_mut().enumerate() {
                *slot = self.rows[t * METRIC_COUNT + i];
            }
            frame
                .push_tick(&row)
                .expect("ring rows were validated on push");
        }
        frame
    }

    /// Drops all held ticks (lifetime counter is preserved).
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricId;

    fn tick_of(v: f64) -> Vec<f64> {
        vec![v; METRIC_COUNT]
    }

    #[test]
    fn fills_then_evicts_oldest() {
        let mut w = SlidingFrame::new(3);
        for i in 0..5 {
            w.push_tick(&tick_of(i as f64)).unwrap();
        }
        assert_eq!(w.ticks(), 3);
        assert!(w.is_full());
        assert_eq!(w.total_pushed(), 5);
        assert_eq!(w.get(0, MetricId::CpuUser), 2.0);
        assert_eq!(w.get(2, MetricId::CpuUser), 4.0);
    }

    #[test]
    fn to_frame_equals_batch_suffix() {
        let mut w = SlidingFrame::new(4);
        let mut batch = MetricFrame::new();
        for i in 0..9 {
            let t = tick_of(i as f64 * 1.5);
            w.push_tick(&t).unwrap();
            batch.push_tick(&t).unwrap();
        }
        assert_eq!(w.to_frame(), batch.window(5..9));
    }

    #[test]
    fn slices_are_the_values_in_order() {
        let mut w = SlidingFrame::new(3);
        for t in 0..7 {
            w.push_tick(&tick_of(t as f64)).unwrap();
            let (a, b) = w.as_slices();
            let joined: Vec<f64> = a.iter().chain(b).copied().collect();
            assert_eq!(joined, w.values().collect::<Vec<_>>(), "after {t} pushes");
        }
    }

    #[test]
    fn rejects_invalid_rows_unchanged() {
        let mut w = SlidingFrame::new(2);
        w.push_tick(&tick_of(1.0)).unwrap();
        assert_eq!(
            w.push_tick(&[1.0; 3]).unwrap_err(),
            FrameError::WrongWidth { got: 3 }
        );
        let mut bad = tick_of(0.0);
        bad[MetricId::DiskReadKBps.index()] = f64::INFINITY;
        assert_eq!(
            w.push_tick(&bad).unwrap_err(),
            FrameError::NonFinite {
                metric: MetricId::DiskReadKBps
            }
        );
        assert_eq!(w.ticks(), 1);
        assert_eq!(w.total_pushed(), 1);
    }

    #[test]
    fn clear_keeps_lifetime_counter() {
        let mut w = SlidingFrame::new(2);
        w.push_tick(&tick_of(1.0)).unwrap();
        w.push_tick(&tick_of(2.0)).unwrap();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.total_pushed(), 2);
        assert_eq!(w.to_frame().ticks(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_is_rejected() {
        let _ = SlidingFrame::new(0);
    }
}
