//! Persistence of trained state.
//!
//! The paper archives each artifact in XML: performance models as the
//! five-tuple `(p, d, q, ip, type)`, invariants as `(I, ip, type)` and
//! signatures as `(binary tuple, problem name, ip, workload type)`. A
//! [`ModelStore`] holds the same artifacts as the engine's live values,
//! shared by `Arc`: a store captured from an engine, loaded into another,
//! kept as a cold tenant's image or cloned costs refcount bumps, never a
//! copy of trained state. Its one encoding is the binary store rows of
//! `ix_history::codec`, which validates each model as it decodes it; a
//! model-store file is an `IXHIST01` image with one section of those
//! rows, written and read by `ix-history` through
//! [`crate::Engine::store_op`].

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::anomaly::PerformanceModel;
use crate::context::OperationContext;
use crate::invariants::InvariantSet;
use crate::signature::SignatureDatabase;

/// The complete trained state of an InvarNet-X deployment, shared with
/// the engines it was captured from or loaded into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelStore {
    /// Performance models per context key.
    pub performance_models: BTreeMap<String, Arc<PerformanceModel>>,
    /// Invariant sets per context key.
    pub invariants: BTreeMap<String, Arc<InvariantSet>>,
    /// The signature database.
    pub signatures: Arc<SignatureDatabase>,
}

impl ModelStore {
    /// An empty store.
    pub fn new() -> Self {
        ModelStore::default()
    }

    /// Context key used in the maps (`workload@node`). It parses back to
    /// the same context exactly when the workload holds no `@`, which the
    /// engine requires of every context it trains.
    pub fn context_key(context: &OperationContext) -> String {
        let (workload, node) = (&context.workload, &context.node);
        let mut key = String::with_capacity(workload.len() + 1 + node.len());
        key.push_str(workload);
        key.push('@');
        key.push_str(node);
        key
    }
}
