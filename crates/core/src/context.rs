use std::fmt;

/// The *operation context* of the paper: every model, invariant set and
/// signature is keyed by **workload type × node**, because "it's hard to
/// find out such a model suitable to all kinds of workloads" and nodes are
/// heterogeneous.
///
/// The no-operation-context ablation of Sect. 4.3 uses
/// [`OperationContext::global`], collapsing all keys into one.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperationContext {
    /// Node identity (IP address in the paper's stores).
    pub node: String,
    /// Workload type name (e.g. "Wordcount", "TPC-DS").
    pub workload: String,
}

impl OperationContext {
    /// A context for `workload` running on `node`.
    pub fn new(node: impl Into<String>, workload: impl Into<String>) -> Self {
        OperationContext {
            node: node.into(),
            workload: workload.into(),
        }
    }

    /// The single collapsed context used by the no-operation-context
    /// ablation: one model and one signature base for everything.
    pub fn global() -> Self {
        OperationContext {
            node: "*".to_string(),
            workload: "*".to_string(),
        }
    }

    /// Whether this is the collapsed global context.
    pub fn is_global(&self) -> bool {
        self.node == "*" && self.workload == "*"
    }
}

impl fmt::Display for OperationContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.workload, self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_contexts_are_distinct_keys() {
        let a = OperationContext::new("192.168.1.101", "Wordcount");
        let b = OperationContext::new("192.168.1.101", "Sort");
        let c = OperationContext::new("192.168.1.102", "Wordcount");
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut set = std::collections::HashSet::new();
        set.insert(a.clone());
        set.insert(b);
        set.insert(c);
        assert_eq!(set.len(), 3);
        assert!(set.contains(&a));
    }

    #[test]
    fn global_context() {
        let g = OperationContext::global();
        assert!(g.is_global());
        assert!(!OperationContext::new("n", "w").is_global());
    }

    #[test]
    fn display_format() {
        let ctx = OperationContext::new("192.168.1.101", "Sort");
        assert_eq!(ctx.to_string(), "Sort@192.168.1.101");
    }
}
