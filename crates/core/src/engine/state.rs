//! The state layer: per-context engine state sharded across locks.
//!
//! Streaming ingestion is naturally parallel across contexts (node ×
//! workload), so the engine shards its context map over `N` independent
//! `RwLock`s keyed by the context hash — concurrent ingests contend only
//! when their contexts land in the same shard. Within a shard the map is
//! a `BTreeMap` so every iteration (context listing, coverage counts) is
//! deterministically ordered — a requirement of the replay/verify and
//! history guarantees, enforced by the `determinism` lint.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, PoisonError, RwLock};

use ix_metrics::SlidingFrame;

use crate::anomaly::PerformanceModel;
use crate::context::OperationContext;
use crate::invariants::InvariantSet;

use super::detector::{Detector, DetectorRun};

/// Everything the engine knows about one operation context.
pub(crate) struct ContextState {
    /// The trained performance model, if any.
    pub perf_model: Option<Arc<PerformanceModel>>,
    /// The streaming detector built from the model (or installed directly).
    pub detector: Option<Arc<dyn Detector>>,
    /// The invariant set of Algorithm 1, if built.
    pub invariants: Option<Arc<InvariantSet>>,
    /// Sliding window of the most recent metric rows.
    pub window: SlidingFrame,
    /// The in-flight detector run (`None` until the first ingest after a
    /// train or reset).
    pub run: Option<Box<dyn DetectorRun>>,
    /// Whether the previous tick was anomalous (for edge-triggering).
    pub prev_anomalous: bool,
    /// Ticks ingested into the current run.
    pub run_ticks: usize,
}

impl ContextState {
    pub(crate) fn new(window_ticks: usize) -> Self {
        ContextState {
            perf_model: None,
            detector: None,
            invariants: None,
            window: SlidingFrame::new(window_ticks.max(1)),
            run: None,
            prev_anomalous: false,
            run_ticks: 0,
        }
    }

    /// Discards the in-flight run and window (start of a new job run).
    pub(crate) fn reset_run(&mut self) {
        self.run = None;
        self.prev_anomalous = false;
        self.run_ticks = 0;
        self.window.clear();
    }
}

/// The sharded context map.
pub(crate) struct ShardedStateMap {
    shards: Vec<RwLock<BTreeMap<OperationContext, ContextState>>>,
}

impl ShardedStateMap {
    pub(crate) fn new(shards: usize) -> Self {
        ShardedStateMap {
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(BTreeMap::new()))
                .collect(),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(
        &self,
        context: &OperationContext,
    ) -> &RwLock<BTreeMap<OperationContext, ContextState>> {
        let mut hasher = DefaultHasher::new();
        context.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Read access to a context's state, if present.
    pub(crate) fn with<R>(
        &self,
        context: &OperationContext,
        f: impl FnOnce(&ContextState) -> R,
    ) -> Option<R> {
        // Shard state stays usable even if a panic poisoned the lock: the
        // per-context values are either immutable Arcs or per-run scratch
        // that the next reset_run discards.
        let shard = self
            .shard_of(context)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        shard.get(context).map(f)
    }

    /// Write access to a context's state, creating it when absent.
    pub(crate) fn with_mut<R>(
        &self,
        context: &OperationContext,
        window_ticks: usize,
        f: impl FnOnce(&mut ContextState) -> R,
    ) -> R {
        let mut shard = self
            .shard_of(context)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let state = shard
            .entry(context.clone())
            .or_insert_with(|| ContextState::new(window_ticks));
        f(state)
    }

    /// Write access to a context's state only if it already exists.
    pub(crate) fn with_existing_mut<R>(
        &self,
        context: &OperationContext,
        f: impl FnOnce(&mut ContextState) -> R,
    ) -> Option<R> {
        let mut shard = self
            .shard_of(context)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        shard.get_mut(context).map(f)
    }

    /// Whether no shard holds a context.
    pub(crate) fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.read().unwrap_or_else(PoisonError::into_inner).is_empty())
    }

    /// Moves every shard's contexts out, one shard lock at a time, and
    /// leaves the map empty.
    pub(crate) fn take_shards(&self) -> Vec<BTreeMap<OperationContext, ContextState>> {
        self.shards
            .iter()
            .map(|s| std::mem::take(&mut *s.write().unwrap_or_else(PoisonError::into_inner)))
            .collect()
    }

    /// Moves `taken`, the shards of a map with as many shards, into this
    /// one, each replacing what its shard held.
    pub(crate) fn put_shards(&self, taken: Vec<BTreeMap<OperationContext, ContextState>>) {
        for (shard, contexts) in self.shards.iter().zip(taken) {
            *shard.write().unwrap_or_else(PoisonError::into_inner) = contexts;
        }
    }

    /// The map's shards, consumed.
    pub(crate) fn into_shards(self) -> Vec<BTreeMap<OperationContext, ContextState>> {
        (self.shards.into_iter())
            .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }

    /// All known contexts, sorted.
    pub(crate) fn contexts(&self) -> Vec<OperationContext> {
        let mut out: Vec<OperationContext> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort();
        out
    }

    /// Visits every context's state, one shard at a time, in no
    /// particular order.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&OperationContext, &ContextState)) {
        for shard in &self.shards {
            let shard = shard.read().unwrap_or_else(PoisonError::into_inner);
            for (context, state) in shard.iter() {
                f(context, state);
            }
        }
    }

    /// Number of contexts holding a trained performance model.
    pub(crate) fn modeled_contexts(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .filter(|c| c.perf_model.is_some())
                    .count()
            })
            .sum()
    }

    /// Number of contexts holding an invariant set.
    pub(crate) fn invariant_contexts(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .values()
                    .filter(|c| c.invariants.is_some())
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_states_are_isolated() {
        let map = ShardedStateMap::new(4);
        assert_eq!(map.shard_count(), 4);
        let a = OperationContext::new("n1", "W");
        let b = OperationContext::new("n2", "W");
        map.with_mut(&a, 10, |s| s.run_ticks = 5);
        map.with_mut(&b, 10, |s| s.run_ticks = 9);
        assert_eq!(map.with(&a, |s| s.run_ticks), Some(5));
        assert_eq!(map.with(&b, |s| s.run_ticks), Some(9));
        assert_eq!(map.contexts(), vec![a, b]);
    }

    #[test]
    fn missing_context_reads_as_none() {
        let map = ShardedStateMap::new(2);
        let c = OperationContext::new("nowhere", "W");
        assert_eq!(map.with(&c, |_| ()), None);
        assert_eq!(map.with_existing_mut(&c, |_| ()), None);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let map = ShardedStateMap::new(0);
        assert_eq!(map.shard_count(), 1);
    }

    #[test]
    fn poisoned_shard_stays_usable() {
        let map = ShardedStateMap::new(1);
        let c = OperationContext::new("n", "W");
        map.with_mut(&c, 10, |s| s.run_ticks = 3);
        // Poison the single shard's lock by panicking while holding it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map.with_mut(&c, 10, |_| panic!("injected"));
        }));
        assert!(result.is_err());
        // Reads and writes recover the poisoned lock instead of panicking.
        assert_eq!(map.with(&c, |s| s.run_ticks), Some(3));
        map.with_mut(&c, 10, |s| s.run_ticks = 7);
        assert_eq!(map.with(&c, |s| s.run_ticks), Some(7));
        assert_eq!(map.contexts().len(), 1);
    }
}
