//! The fault injectors: wrappers that make a healthy engine's dependencies
//! slow, jittery, hostile or broken — without changing any answer they
//! return. Each injector has an `armed` latch so offline training runs at
//! full speed and the fault fires only during the measured window.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ix_core::{AssociationMeasure, Detector, DetectorRun, MicMeasure, RunState, TickDecision};

/// An [`AssociationMeasure`] whose every score call stalls for a fixed
/// delay once armed — a CPU-starved or page-faulting MIC kernel. Scores
/// are delegated to the real MIC, so any completed sweep is still correct.
pub struct SlowMeasure {
    inner: MicMeasure,
    delay: Duration,
    armed: AtomicBool,
}

impl SlowMeasure {
    /// A slow MIC: `delay` per pair once [`SlowMeasure::arm`] is called.
    pub fn new(inner: MicMeasure, delay: Duration) -> Self {
        SlowMeasure {
            inner,
            delay,
            armed: AtomicBool::new(false),
        }
    }

    /// Starts injecting latency.
    pub fn arm(&self) {
        // ordering: Relaxed — the latch is a coarse on/off flag; sweep
        // workers observing it one call late only shift the fault onset.
        self.armed.store(true, Ordering::Relaxed);
    }
}

impl AssociationMeasure for SlowMeasure {
    fn score(&self, x: &[f64], y: &[f64]) -> f64 {
        // ordering: Relaxed — see SlowMeasure::arm.
        if self.armed.load(Ordering::Relaxed) {
            std::thread::sleep(self.delay);
        }
        self.inner.score(x, y)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
    // No `prepare` override: the wrapper deliberately forces the plain
    // per-pair path so the injected latency hits every score call.
}

/// An [`AssociationMeasure`] with bimodal latency once armed: most calls
/// are instant, every `slow_every`-th call stalls — scheduling jitter or
/// clock skew as seen from inside a sweep.
pub struct JitterMeasure {
    inner: MicMeasure,
    delay: Duration,
    slow_every: usize,
    calls: AtomicUsize,
    armed: AtomicBool,
}

impl JitterMeasure {
    /// Jittery MIC: every `slow_every`-th score call sleeps `delay`.
    pub fn new(inner: MicMeasure, delay: Duration, slow_every: usize) -> Self {
        JitterMeasure {
            inner,
            delay,
            slow_every: slow_every.max(1),
            calls: AtomicUsize::new(0),
            armed: AtomicBool::new(false),
        }
    }

    /// Starts injecting jitter.
    pub fn arm(&self) {
        // ordering: Relaxed — coarse on/off latch, same as SlowMeasure.
        self.armed.store(true, Ordering::Relaxed);
    }
}

impl AssociationMeasure for JitterMeasure {
    fn score(&self, x: &[f64], y: &[f64]) -> f64 {
        // ordering: Relaxed — the counter only spreads stalls roughly
        // evenly across calls; exact interleaving is irrelevant.
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.armed.load(Ordering::Relaxed) && n % self.slow_every == self.slow_every - 1 {
            std::thread::sleep(self.delay);
        }
        self.inner.score(x, y)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A streaming [`Detector`] that panics on its `panic_at`-th sample —
/// mid-`ingest`, while the engine holds the context's shard lock. The
/// engine's poison-recovery idiom must absorb the poisoned lock and keep
/// serving the context.
pub struct PanickingDetector {
    panic_at: usize,
}

impl PanickingDetector {
    /// Panics on the `panic_at`-th stepped sample (1-based).
    pub fn new(panic_at: usize) -> Self {
        PanickingDetector {
            panic_at: panic_at.max(1),
        }
    }
}

struct PanickingRun {
    seen: usize,
    panic_at: usize,
}

impl DetectorRun for PanickingRun {
    fn step(&mut self, _x: f64) -> TickDecision {
        self.seen += 1;
        assert!(
            self.seen != self.panic_at,
            "injected detector panic at sample {}",
            self.seen
        );
        TickDecision {
            residual: 0.0,
            exceeded: false,
            anomalous: false,
        }
    }

    /// Counters: the samples seen.
    fn capture(&self) -> RunState {
        RunState {
            registers: Vec::new(),
            counters: vec![self.seen as u64],
        }
    }

    fn install(&mut self, state: &RunState, ticks: usize) -> Result<(), String> {
        match (&state.registers[..], &state.counters[..]) {
            ([], &[seen]) if seen == ticks as u64 => {
                self.seen = ticks;
                Ok(())
            }
            _ => Err(format!(
                "a panicking run {ticks} ticks long counts them, not {state:?}"
            )),
        }
    }
}

impl Detector for PanickingDetector {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn threshold(&self) -> f64 {
        f64::INFINITY
    }

    fn begin_run(&self) -> Box<dyn DetectorRun> {
        Box::new(PanickingRun {
            seen: 0,
            panic_at: self.panic_at,
        })
    }
}

/// Background allocator churn: worker threads that allocate, touch and
/// drop buffers in a tight loop until the handle is dropped — memory
/// pressure competing with the engine's sweeps.
#[must_use]
pub struct AllocChurn {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<u64>>,
}

impl AllocChurn {
    /// Spawns `threads` churn workers.
    pub fn start(threads: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..threads.max(1))
            .map(|k| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut checksum = 0u64;
                    // ordering: Relaxed — the stop flag needs no ordering
                    // with the churn work; a late observation just churns
                    // one extra iteration.
                    while !stop.load(Ordering::Relaxed) {
                        let buf: Vec<u64> = (0..4096).map(|i| i as u64 ^ k as u64).collect();
                        checksum = checksum.wrapping_add(buf.iter().sum::<u64>());
                    }
                    checksum
                })
            })
            .collect();
        AllocChurn { stop, handles }
    }
}

impl Drop for AllocChurn {
    fn drop(&mut self) {
        // ordering: Relaxed — see the worker loop.
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn slow_measure_is_fast_until_armed() {
        let m = SlowMeasure::new(MicMeasure::default(), Duration::from_millis(20));
        let x: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..32).map(|i| (i * 2) as f64).collect();
        let fast = Instant::now();
        let a = m.score(&x, &y);
        assert!(fast.elapsed() < Duration::from_millis(15), "unarmed = fast");
        m.arm();
        let slow = Instant::now();
        let b = m.score(&x, &y);
        assert!(slow.elapsed() >= Duration::from_millis(20), "armed = slow");
        assert_eq!(a, b, "latency must not change the score");
    }

    #[test]
    fn jitter_measure_stalls_periodically() {
        let m = JitterMeasure::new(MicMeasure::default(), Duration::from_millis(5), 3);
        m.arm();
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let started = Instant::now();
        for _ in 0..6 {
            m.score(&x, &x);
        }
        assert!(
            started.elapsed() >= Duration::from_millis(10),
            "2 of 6 stall"
        );
    }

    #[test]
    fn panicking_detector_panics_exactly_once() {
        let d = PanickingDetector::new(2);
        let mut run = d.begin_run();
        run.step(1.0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.step(1.0)));
        assert!(caught.is_err(), "second sample panics");
    }

    #[test]
    fn alloc_churn_stops_on_drop() {
        let churn = AllocChurn::start(2);
        std::thread::sleep(Duration::from_millis(5));
        drop(churn); // joins without hanging
    }
}
