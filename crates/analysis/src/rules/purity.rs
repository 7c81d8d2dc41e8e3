//! Rule `scoring-path-purity`: the per-pair scoring path must stay
//! allocation-free and clock-free.
//!
//! The sweep optimization PR got its speedup by making the inner loop
//! reuse caller-held scratch: one pair's score costs zero allocations once
//! the buffers are warm, and never reads a clock (timing is attributed at
//! batch granularity by the pool, not per pair). [`HOT_FUNCTIONS`] lists
//! the functions at the top of that path; the rule closes over their
//! *confident* callees in the workspace call graph (same-file helpers,
//! qualified calls, `self` methods — dyn-dispatch fan-out is excluded,
//! trait contracts take over at that boundary) and bans clock reads
//! (`Instant`, `SystemTime`) and the common allocating constructs (`vec!`,
//! `Vec::new`, `with_capacity`, `to_vec`, `Box::new`, `format!`,
//! `String::new`, `collect`) in every reachable body. A violation in a
//! helper three calls down reports the full hot-fn→helper chain. An entry
//! that names no function fails the rule too, reported against this file,
//! so deleting a hot function without its entry cannot quietly shrink the
//! rule's coverage.

use super::{graph_for, Rule, Violation};
use crate::callgraph::EdgeFilter;
use crate::workspace::{SourceFile, Workspace};

/// `(workspace-relative file, fn name)` pairs on the per-pair scoring path.
pub const HOT_FUNCTIONS: &[(&str, &str)] = &[
    ("crates/mic/src/mine.rs", "mic_with_profiles_scratch"),
    ("crates/mic/src/mine.rs", "mic_floor_scratch"),
    // Reached from the kernel's unit only through method calls on other
    // values (`clumps.rebuild`, `clumps.push_column_costs`), which are not
    // confident edges, so each is a root of its own.
    ("crates/mic/src/grid.rs", "rebuild"),
    ("crates/mic/src/grid.rs", "push_column_costs"),
    ("crates/mic/src/optimize.rs", "optimize_axis_into"),
    ("crates/mic/src/profile.rs", "slide"),
    ("crates/core/src/measure.rs", "score_pair"),
    ("crates/core/src/measure.rs", "score_floored"),
    ("crates/core/src/assoc.rs", "score_one"),
    ("crates/core/src/assoc.rs", "claim_batch"),
    ("crates/core/src/incremental.rs", "rescore"),
];

/// Idents banned inside hot-function bodies, with why.
const BANNED: &[(&str, &str)] = &[
    ("Instant", "clock read in the per-pair path"),
    ("SystemTime", "clock read in the per-pair path"),
    ("vec", "allocates per call"),
    ("with_capacity", "allocates per call"),
    ("to_vec", "allocates per call"),
    ("format", "allocates per call"),
    ("collect", "allocates per call"),
];

/// See module docs.
pub struct ScoringPathPurity;

impl Rule for ScoringPathPurity {
    fn id(&self) -> &'static str {
        "scoring-path-purity"
    }

    fn description(&self) -> &'static str {
        "no clocks or allocation in the per-pair scoring path (HOT_FUNCTIONS)"
    }

    fn check(&self, file: &SourceFile, ws: &Workspace, out: &mut Vec<Violation>) {
        let graph = graph_for(file, ws);
        // A stale entry would silently shrink the rule's coverage, so it
        // fails loudly — reported once, against this rule's own source.
        if file.rel == "crates/analysis/src/rules/purity.rs" {
            for &(f, name) in HOT_FUNCTIONS {
                if !graph.nodes.iter().any(|n| n.file == f && n.name == name) {
                    out.push(Violation::new(
                        self.id(),
                        file.rel.clone(),
                        1,
                        format!(
                            "hot function `{f}::{name}` matches no function in the workspace \
                             — HOT_FUNCTIONS has drifted from the scoring path"
                        ),
                    ));
                }
            }
        }
        let roots: Vec<usize> = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| {
                HOT_FUNCTIONS
                    .iter()
                    .any(|&(f, name)| n.file == f && n.name == name)
            })
            .map(|(i, _)| i)
            .collect();
        if roots.is_empty() {
            return;
        }
        // Close over confident callees only: dyn-dispatch fan-out would
        // pull every same-named trait impl (e.g. the allocating non-scratch
        // `score` path) into the hot set.
        let parents = graph.reach(&roots, EdgeFilter::Confident);
        let toks = &file.lex.tokens;
        for (&node_idx, _) in parents
            .iter()
            .filter(|(&i, _)| graph.nodes[i].file == file.rel)
        {
            let node = &graph.nodes[node_idx];
            let (start, end) = node.body;
            let end = end.min(toks.len().saturating_sub(1));
            // Tokens owned by nested nodes are scanned when (and only
            // when) the nested node is itself reachable.
            let nested: Vec<(usize, usize)> = graph
                .nodes
                .iter()
                .enumerate()
                .filter(|&(i, n)| {
                    i != node_idx && n.file == node.file && n.body.0 > start && n.body.1 <= end
                })
                .map(|(_, n)| n.body)
                .collect();
            let mut i = start;
            while i <= end {
                if let Some(&(_, nest_end)) = nested.iter().find(|&&(s, e)| i >= s && i <= e) {
                    i = nest_end + 1;
                    continue;
                }
                let t = &toks[i];
                // `Vec::new` / `String::new` / `Box::new`.
                let alloc_new = t.is_ident("new")
                    && i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && (toks[i - 3].is_ident("Vec")
                        || toks[i - 3].is_ident("String")
                        || toks[i - 3].is_ident("Box"));
                let banned = BANNED.iter().find(|(name, _)| {
                    t.is_ident(name)
                        // `vec` and `format` only as macros.
                        && (!matches!(*name, "vec" | "format")
                            || toks.get(i + 1).is_some_and(|x| x.is_punct('!')))
                });
                let why = if alloc_new {
                    Some("allocates per call")
                } else {
                    banned.map(|(_, why)| *why)
                };
                let Some(why) = why else {
                    i += 1;
                    continue;
                };
                let chain = graph.chain(&parents, node_idx);
                let root = chain
                    .first()
                    .map(|h| h.function.clone())
                    .unwrap_or_default();
                out.push(Violation {
                    rule: self.id(),
                    path: file.rel.clone(),
                    line: t.line,
                    message: format!(
                        "`{}` in `{}` on the hot path from `{root}` — {why}; hoist into \
                         scratch/plan state",
                        if alloc_new {
                            format!("{}::new", toks[i - 3].text)
                        } else {
                            t.text.clone()
                        },
                        node.qualified_name(),
                    ),
                    chain,
                });
                i += 1;
            }
        }
    }
}
