//! Context interning: cheap `u32` handles for [`OperationContext`]s.
//!
//! Events flow on the per-tick ingestion path, so they cannot afford to
//! clone an [`OperationContext`] (two heap strings) per event. Instead the
//! engine interns each context once in a [`ContextRegistry`] and stamps
//! events with the resulting [`ContextId`] — a `Copy` `u32` that exporters
//! resolve back to a human-readable label when rendering.

use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

use crate::context::OperationContext;

/// An interned handle to an [`OperationContext`], issued by a
/// [`ContextRegistry`]. Ids are dense (0, 1, 2, ...) in interning order, so
/// registries and exporters can use them as vector indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(u32);

impl ContextId {
    /// The sentinel id stamped on events that cannot be attributed to a
    /// context (e.g. a sweep over a caller-supplied frame).
    pub const UNATTRIBUTED: ContextId = ContextId(u32::MAX);

    /// The dense index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id at a dense index (inverse of [`ContextId::index`], used when
    /// walking slot tables).
    pub fn from_index(index: usize) -> ContextId {
        ContextId(index as u32)
    }

    /// Whether this is the [`ContextId::UNATTRIBUTED`] sentinel.
    pub fn is_unattributed(self) -> bool {
        self == ContextId::UNATTRIBUTED
    }
}

/// Interns [`OperationContext`]s to dense [`ContextId`]s and resolves them
/// back to display labels.
///
/// Interning an already-known context is a read-locked hash lookup — the
/// per-tick cost on the ingest path. New contexts (a write-locked insert)
/// appear only when a context is first trained or ingested.
#[derive(Debug, Default)]
pub struct ContextRegistry {
    ids: RwLock<HashMap<OperationContext, ContextId>>,
    labels: RwLock<Vec<String>>,
}

impl ContextRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ContextRegistry::default()
    }

    /// The id of `context`, interning it on first sight.
    pub fn intern(&self, context: &OperationContext) -> ContextId {
        if let Some(&id) = self
            .ids
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(context)
        {
            return id;
        }
        let mut ids = self.ids.write().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have won the race between our read and write.
        if let Some(&id) = ids.get(context) {
            return id;
        }
        let mut labels = self.labels.write().unwrap_or_else(PoisonError::into_inner);
        let id = ContextId(labels.len() as u32);
        labels.push(context.to_string());
        ids.insert(context.clone(), id);
        id
    }

    /// The id of `context` if it has been interned.
    pub fn lookup(&self, context: &OperationContext) -> Option<ContextId> {
        self.ids
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(context)
            .copied()
    }

    /// The display label of an id; `"(unattributed)"` for the sentinel and
    /// `"(unknown)"` for ids this registry never issued.
    pub fn label(&self, id: ContextId) -> String {
        if id.is_unattributed() {
            return "(unattributed)".to_string();
        }
        self.labels
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| "(unknown)".to_string())
    }

    /// Labels of every interned context, in id order.
    pub fn labels(&self) -> Vec<String> {
        self.labels
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of interned contexts.
    pub fn len(&self) -> usize {
        self.labels
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no context has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_dense() {
        let reg = ContextRegistry::new();
        let a = OperationContext::new("n1", "W");
        let b = OperationContext::new("n2", "W");
        let ia = reg.intern(&a);
        let ib = reg.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(reg.intern(&a), ia);
        assert_eq!(ia.index(), 0);
        assert_eq!(ib.index(), 1);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.label(ia), a.to_string());
        assert_eq!(reg.lookup(&b), Some(ib));
        assert_eq!(reg.lookup(&OperationContext::new("n3", "W")), None);
    }

    #[test]
    fn sentinel_and_unknown_labels() {
        let reg = ContextRegistry::new();
        assert!(ContextId::UNATTRIBUTED.is_unattributed());
        assert_eq!(reg.label(ContextId::UNATTRIBUTED), "(unattributed)");
        assert_eq!(reg.label(ContextId(5)), "(unknown)");
        assert!(reg.is_empty());
    }

    #[test]
    fn concurrent_interning_agrees() {
        let reg = std::sync::Arc::new(ContextRegistry::new());
        let ctx = OperationContext::new("n", "W");
        let ids: Vec<ContextId> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let reg = std::sync::Arc::clone(&reg);
                    let ctx = ctx.clone();
                    s.spawn(move || reg.intern(&ctx))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(reg.len(), 1);
    }
}
