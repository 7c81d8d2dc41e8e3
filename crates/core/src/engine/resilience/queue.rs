//! The bounded ingest queue: per-shard FIFOs with a pluggable overload
//! policy.
//!
//! [`crate::Engine::submit`] enqueues ticks instead of processing them
//! inline; [`crate::Engine::drain`] pops and runs them through the normal
//! ingest path. Shards are keyed by context hash (mirroring the state
//! map), so a flood on one context cannot starve another shard's queue.
//!
//! Shedding keeps *contiguous* runs: `ShedOldest` retains a suffix of each
//! context's submissions and `ShedNewest` a prefix, so as long as the
//! per-shard capacity is at least the detector's consecutive-exceedance
//! window (3 in the paper, §3.1), a confirmed anomaly can never be broken
//! up by overload shedding.

use std::collections::VecDeque;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use crate::context::OperationContext;
use crate::engine::ingest::TickOutcome;
use crate::engine::{Engine, EngineEvent, EventSink};
use crate::error::CoreError;

/// What a full ingest queue does with the next tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OverloadPolicy {
    /// Block the submitting thread until a slot frees up (lossless).
    #[default]
    Block,
    /// Drop the oldest queued tick to make room (keeps a contiguous
    /// suffix per context).
    ShedOldest,
    /// Reject the incoming tick (keeps a contiguous prefix per context).
    ShedNewest,
}

impl OverloadPolicy {
    /// Stable kebab-case name (telemetry labels, reports).
    pub fn name(&self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::ShedOldest => "shed-oldest",
            OverloadPolicy::ShedNewest => "shed-newest",
        }
    }
}

/// What [`crate::Engine::submit`] did with a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The tick was queued; `depth` is the shard's depth afterwards.
    Enqueued {
        /// Queue depth of the tick's shard after the enqueue.
        depth: usize,
    },
    /// The tick was queued after shedding the shard's oldest tick.
    EnqueuedAfterShed {
        /// Queue depth of the tick's shard after the enqueue.
        depth: usize,
    },
    /// The tick itself was shed (`ShedNewest` on a full shard).
    Rejected,
}

/// One queued tick, exactly the arguments of [`crate::Engine::ingest`]:
/// nothing is checked at submit, so the CPI and row are what the caller
/// sent.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedTick {
    /// The tick's context.
    pub context: OperationContext,
    /// The CPI sample.
    pub cpi: f64,
    /// The metric row.
    pub row: Vec<f64>,
}

/// A copy of an engine's ingest queue (see [`crate::Engine::capture_queue`]):
/// what [`crate::Engine::install_queue`] puts back so that the next drains
/// pop the same ticks in the same order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueuedTicks {
    /// The shard the next pop starts its round-robin scan at.
    pub cursor: usize,
    /// The queued ticks, shard by shard, each shard's in submission order.
    pub ticks: Vec<QueuedTick>,
}

/// Internal push result, before event emission.
pub(crate) enum QueuePush {
    Enqueued {
        depth: usize,
    },
    SheddedOldest {
        depth: usize,
        dropped: OperationContext,
    },
    RejectedNewest,
}

struct QueueShard {
    pending: Mutex<VecDeque<QueuedTick>>,
    /// Signalled whenever a slot frees up (pop or shed).
    space: Condvar,
}

/// The bounded, sharded ingest queue.
pub(crate) struct IngestQueue {
    shards: Vec<QueueShard>,
    /// Per-shard tick capacity.
    capacity: usize,
    policy: OverloadPolicy,
    /// Round-robin pop cursor, for fairness across shards.
    cursor: AtomicUsize,
}

impl IngestQueue {
    /// `capacity` is clamped up to `floor` (the detector's
    /// consecutive-exceedance window) so shedding can never retain fewer
    /// contiguous ticks than anomaly confirmation needs.
    pub(crate) fn new(
        shards: usize,
        capacity: usize,
        floor: usize,
        policy: OverloadPolicy,
    ) -> Self {
        IngestQueue {
            shards: (0..shards.max(1))
                .map(|_| QueueShard {
                    pending: Mutex::new(VecDeque::new()),
                    space: Condvar::new(),
                })
                .collect(),
            capacity: capacity.max(floor).max(1),
            policy,
            cursor: AtomicUsize::new(0),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    #[cfg(test)]
    pub(crate) fn policy(&self) -> OverloadPolicy {
        self.policy
    }

    fn shard_index(&self, context: &OperationContext) -> usize {
        let mut hasher = DefaultHasher::new();
        context.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    fn shard_of(&self, context: &OperationContext) -> &QueueShard {
        &self.shards[self.shard_index(context)]
    }

    pub(crate) fn push(&self, tick: QueuedTick) -> QueuePush {
        let shard = self.shard_of(&tick.context);
        let mut pending = shard.pending.lock().unwrap_or_else(PoisonError::into_inner);
        if pending.len() >= self.capacity {
            match self.policy {
                OverloadPolicy::Block => {
                    while pending.len() >= self.capacity {
                        pending = shard
                            .space
                            .wait(pending)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
                OverloadPolicy::ShedOldest => {
                    // Capacity ≥ 1, so the pop cannot fail here.
                    let dropped = pending.pop_front().map(|t| t.context);
                    pending.push_back(tick);
                    let depth = pending.len();
                    return match dropped {
                        Some(dropped) => QueuePush::SheddedOldest { depth, dropped },
                        None => QueuePush::Enqueued { depth },
                    };
                }
                OverloadPolicy::ShedNewest => return QueuePush::RejectedNewest,
            }
        }
        pending.push_back(tick);
        QueuePush::Enqueued {
            depth: pending.len(),
        }
    }

    /// Pops one tick, scanning shards round-robin from a rotating cursor.
    pub(crate) fn pop(&self) -> Option<QueuedTick> {
        let n = self.shards.len();
        // ordering: Relaxed — the cursor only spreads pop load across
        // shards; any interleaving is correct.
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for off in 0..n {
            let shard = &self.shards[(start + off) % n];
            let tick = shard
                .pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front();
            if let Some(tick) = tick {
                shard.space.notify_one();
                return Some(tick);
            }
        }
        None
    }

    /// A copy of every queued tick, shard by shard, and the pop cursor.
    pub(crate) fn capture(&self) -> QueuedTicks {
        let mut ticks = Vec::new();
        for shard in &self.shards {
            let pending = shard.pending.lock().unwrap_or_else(PoisonError::into_inner);
            ticks.extend(pending.iter().cloned());
        }
        QueuedTicks {
            // ordering: Relaxed — the cursor only spreads pop load; a
            // capture is taken while nothing pops.
            cursor: self.cursor.load(Ordering::Relaxed) % self.shards.len(),
            ticks,
        }
    }

    /// Puts a captured queue back into this empty one, with no overload
    /// policy in the way: every tick was admitted once already.
    fn install(&self, queue: &QueuedTicks) -> Result<(), CoreError> {
        let invalid = |reason: String| Err(CoreError::InvalidRunState { reason });
        if queue.cursor >= self.shards.len() {
            return invalid(format!(
                "queue cursor {} names no shard of {}",
                queue.cursor,
                self.shards.len()
            ));
        }
        let shards: Vec<usize> = queue
            .ticks
            .iter()
            .map(|t| self.shard_index(&t.context))
            .collect();
        for (i, shard) in self.shards.iter().enumerate() {
            let queued = shards.iter().filter(|&&s| s == i).count();
            let held = shard
                .pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len();
            if held > 0 {
                return invalid(format!("queue shard {i} already holds {held} ticks"));
            }
            if queued > self.capacity {
                return invalid(format!(
                    "{queued} ticks for queue shard {i}, whose capacity is {}",
                    self.capacity
                ));
            }
        }
        for (tick, i) in queue.ticks.iter().zip(shards) {
            self.shards[i]
                .pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(tick.clone());
        }
        // ordering: Relaxed — see `capture`.
        self.cursor.store(queue.cursor, Ordering::Relaxed);
        Ok(())
    }

    /// Total queued ticks across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.pending
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len()
            })
            .sum()
    }
}

impl Engine {
    /// Submits one tick to the bounded ingest queue instead of processing
    /// it inline. What happens when the tick's shard is full is governed
    /// by the configured [`OverloadPolicy`]; every enqueue reports its
    /// shard depth as [`EngineEvent::TickEnqueued`], and every shed tick
    /// is reported as [`EngineEvent::TickShed`] — overload is never
    /// silent.
    ///
    /// Pair with [`Engine::drain`] on a consumer thread. Under
    /// [`OverloadPolicy::Block`] this call parks until a slot frees up.
    pub fn submit(
        &self,
        context: &OperationContext,
        cpi_sample: f64,
        metric_row: &[f64],
    ) -> SubmitOutcome {
        let context_id = self.intern_context(context);
        let push = self.ingest_queue().push(QueuedTick {
            context: context.clone(),
            cpi: cpi_sample,
            row: metric_row.to_vec(),
        });
        match push {
            QueuePush::Enqueued { depth } => {
                self.observers().record(&EngineEvent::TickEnqueued {
                    context: context_id,
                    depth,
                });
                SubmitOutcome::Enqueued { depth }
            }
            QueuePush::SheddedOldest { depth, dropped } => {
                let dropped_id = self.intern_context(&dropped);
                self.observers().record(&EngineEvent::TickShed {
                    context: dropped_id,
                    policy: OverloadPolicy::ShedOldest,
                });
                self.observers().record(&EngineEvent::TickEnqueued {
                    context: context_id,
                    depth,
                });
                SubmitOutcome::EnqueuedAfterShed { depth }
            }
            QueuePush::RejectedNewest => {
                self.observers().record(&EngineEvent::TickShed {
                    context: context_id,
                    policy: OverloadPolicy::ShedNewest,
                });
                SubmitOutcome::Rejected
            }
        }
    }

    /// Pops up to `max_ticks` queued ticks and runs each through
    /// [`Engine::ingest`]. Ticks are popped round-robin across shards;
    /// the queue lock is never held while a tick is being ingested, so a
    /// slow diagnosis cannot stall concurrent [`Engine::submit`] calls.
    pub fn drain(
        &self,
        max_ticks: usize,
    ) -> Vec<(OperationContext, Result<TickOutcome, CoreError>)> {
        let mut out = Vec::new();
        while out.len() < max_ticks {
            let Some(tick) = self.ingest_queue().pop() else {
                break;
            };
            let result = self.ingest(&tick.context, tick.cpi, &tick.row);
            out.push((tick.context, result));
        }
        out
    }

    /// A copy of the ingest queue: every waiting tick, shard by shard in
    /// submission order, and the shard the next drain starts at. Taken
    /// one shard lock at a time, so it is exact only while nothing submits
    /// or drains.
    pub fn capture_queue(&self) -> QueuedTicks {
        self.ingest_queue().capture()
    }

    /// Re-queues a copy [`Engine::capture_queue`] took from an engine under
    /// the same configuration into this engine's empty queue, so that its
    /// drains pop exactly what the captured engine's would have. It emits
    /// no events and applies no overload policy: the ticks were counted
    /// when they were submitted.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidRunState`] when this queue is not empty, the
    /// cursor names no shard, or more ticks land in one shard than
    /// [`Engine::ingest_queue_capacity`]; nothing is queued then.
    pub fn install_queue(&self, queue: &QueuedTicks) -> Result<(), CoreError> {
        self.ingest_queue().install(queue)
    }

    /// Ticks currently waiting in the ingest queue across all shards.
    pub fn queued_ticks(&self) -> usize {
        self.ingest_queue().len()
    }

    /// Effective per-shard capacity of the bounded ingest queue — the
    /// configured [`crate::InvarNetConfig::ingest_queue_ticks`], clamped
    /// up to the detector's consecutive-exceedance window so shedding can
    /// never starve anomaly confirmation.
    pub fn ingest_queue_capacity(&self) -> usize {
        self.ingest_queue().capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(node: &str, cpi: f64) -> QueuedTick {
        QueuedTick {
            context: OperationContext::new(node, "W"),
            cpi,
            row: vec![cpi; 3],
        }
    }

    #[test]
    fn fifo_within_capacity() {
        let q = IngestQueue::new(1, 4, 3, OverloadPolicy::ShedOldest);
        for i in 0..3 {
            match q.push(tick("n", i as f64)) {
                QueuePush::Enqueued { depth } => assert_eq!(depth, i + 1),
                _ => panic!("unexpected shed below capacity"),
            }
        }
        assert_eq!(q.len(), 3);
        let popped: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|t| t.cpi).collect();
        assert_eq!(popped, vec![0.0, 1.0, 2.0]);
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn shed_oldest_keeps_the_newest_suffix() {
        let q = IngestQueue::new(1, 3, 3, OverloadPolicy::ShedOldest);
        for i in 0..6 {
            q.push(tick("n", i as f64));
        }
        assert_eq!(q.len(), 3);
        let kept: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|t| t.cpi).collect();
        assert_eq!(kept, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn shed_newest_keeps_the_oldest_prefix() {
        let q = IngestQueue::new(1, 3, 3, OverloadPolicy::ShedNewest);
        for i in 0..6 {
            let push = q.push(tick("n", i as f64));
            if i >= 3 {
                assert!(matches!(push, QueuePush::RejectedNewest));
            }
        }
        let kept: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|t| t.cpi).collect();
        assert_eq!(kept, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn capacity_clamps_to_the_confirmation_floor() {
        let q = IngestQueue::new(2, 1, 3, OverloadPolicy::ShedOldest);
        assert_eq!(q.capacity(), 3);
        assert_eq!(q.policy(), OverloadPolicy::ShedOldest);
    }

    #[test]
    fn block_policy_waits_for_a_slot() {
        use std::sync::Arc;
        let q = Arc::new(IngestQueue::new(1, 3, 3, OverloadPolicy::Block));
        for i in 0..3 {
            q.push(tick("n", i as f64));
        }
        let q2 = Arc::clone(&q);
        let submitter = std::thread::spawn(move || {
            // Blocks until the main thread pops.
            q2.push(tick("n", 99.0));
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.len(), 3, "submitter should still be parked");
        assert_eq!(q.pop().map(|t| t.cpi), Some(0.0));
        submitter.join().unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn a_captured_queue_installs_into_an_empty_one_and_pops_the_same() {
        let q = IngestQueue::new(4, 8, 3, OverloadPolicy::Block);
        for i in 0..6 {
            q.push(tick(&format!("node-{}", i % 3), i as f64));
        }
        q.pop(); // moves the cursor
        let captured = q.capture();
        assert_eq!(captured.ticks.len(), 5);
        let copy = IngestQueue::new(4, 8, 3, OverloadPolicy::Block);
        copy.install(&captured).expect("install");
        assert_eq!(copy.capture(), captured);
        let popped = |q: &IngestQueue| std::iter::from_fn(|| q.pop().map(|t| t.cpi)).collect();
        let (a, b): (Vec<f64>, Vec<f64>) = (popped(&q), popped(&copy));
        assert_eq!(a, b, "the same ticks in the same order");

        // A second install, a cursor past the shards and a shard over its
        // capacity are refused, and leave the queue as it was.
        let refused = |queue: &IngestQueue, ticks: &QueuedTicks| {
            matches!(queue.install(ticks), Err(CoreError::InvalidRunState { .. }))
        };
        let full = IngestQueue::new(4, 8, 3, OverloadPolicy::Block);
        full.install(&captured).expect("install");
        assert!(refused(&full, &captured), "not empty");
        let empty = IngestQueue::new(4, 8, 3, OverloadPolicy::Block);
        let past = QueuedTicks {
            cursor: 4,
            ..captured.clone()
        };
        assert!(refused(&empty, &past));
        let flood = QueuedTicks {
            cursor: 0,
            ticks: (0..9).map(|i| tick("n", i as f64)).collect(),
        };
        assert!(refused(&empty, &flood), "9 ticks for one 8-tick shard");
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn pop_round_robins_across_shards() {
        let q = IngestQueue::new(4, 8, 3, OverloadPolicy::Block);
        // Two contexts landing (statistically) in different shards.
        for i in 0..4 {
            q.push(tick("node-a", i as f64));
            q.push(tick("node-b", 10.0 + i as f64));
        }
        let mut seen = Vec::new();
        while let Some(t) = q.pop() {
            seen.push(t.context.node.clone());
        }
        assert_eq!(seen.len(), 8);
        assert!(seen.iter().any(|n| n == "node-a"));
        assert!(seen.iter().any(|n| n == "node-b"));
    }
}
