//! Whole-workspace call graph over the lexed sources.
//!
//! Nodes are every `fn` item (free functions, impl methods, trait
//! signatures) plus closures bound to names. Edges are resolved from call
//! sites by a *conservative name + receiver heuristic*:
//!
//! - `Qual::name(..)` and `Qual::name` references resolve to methods of
//!   the type `Qual` (with `Self` mapped to the enclosing impl), falling
//!   back to free functions of that name (module-qualified calls);
//! - bare `name(..)` resolves to same-file closures and free functions
//!   first, then to free functions anywhere in the workspace;
//! - `.name(..)` method calls resolve to *every* workspace method of that
//!   name (trait dispatch is approximated by fan-out to all impls), unless
//!   the receiver is literally `self` and the enclosing impl defines the
//!   method, in which case the edge is exact. Method names that collide
//!   with ubiquitous `std` methods ([`STD_METHODS`]) are never resolved —
//!   they would connect everything to everything.
//! - a closure bound to a name gets a *definition edge* from its enclosing
//!   function (creation is treated as potential invocation), plus call
//!   edges from `name(..)` sites in scope.
//!
//! Edges carry a `confident` flag: qualified calls, bare calls,
//! `self.`-method calls and closure definition edges are high-confidence;
//! general method calls (dynamic dispatch fan-out) are not. Reachability
//! can close over either set — the determinism taint pass uses all edges
//! (over-approximate, sound-leaning), the purity pass only confident ones
//! (dyn-dispatch boundaries are contract-checked separately).
//!
//! Cycles are handled by plain BFS bookkeeping; the graph is a DAG plus
//! back-edges and reachability never loops.

mod extract;

use std::collections::BTreeMap;

use crate::lexer::Token;
use crate::workspace::SourceFile;
use extract::{call_sites, closure_spans, impl_spans};

/// Index of the `}` matching the `{` at `open_idx` (brace-aware scan).
pub(crate) fn matching_braces(toks: &[Token], open_idx: usize) -> Option<usize> {
    extract::matching(toks, open_idx, '{', '}')
}

/// Ubiquitous `std`/`core` method names that are never resolved to
/// workspace methods of the same name: the fan-out would connect
/// everything to everything and drown real paths.
pub const STD_METHODS: &[&str] = &[
    "abs",
    "and_then",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "clamp",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "default",
    "entry",
    "eq",
    "expect",
    "extend",
    "filter",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "or_else",
    "partial_cmp",
    "pop",
    "push",
    "read",
    "recv",
    "remove",
    "rev",
    "send",
    "sort",
    "sort_by",
    "sort_unstable",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "try_into",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "write",
    "zip",
];

/// What kind of node a [`FnNode`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnKind {
    /// A `fn` item (free function, method, or trait signature).
    Item,
    /// A closure bound to a name with `let`.
    Closure,
}

/// One call-graph node.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// The function or closure-binding name.
    pub name: String,
    /// Impl type the method belongs to (`None` for free fns/closures).
    pub owner: Option<String>,
    /// Trait name for methods inside `impl Trait for Type` blocks.
    pub trait_name: Option<String>,
    /// Whether the parameter list starts with a `self` receiver.
    pub has_self: bool,
    /// Item or closure.
    pub kind: FnKind,
    /// 1-based line of the definition.
    pub line: u32,
    /// Token index of the `fn` keyword / closure binding ident.
    pub def_tok: usize,
    /// Inclusive token range of the body.
    pub body: (usize, usize),
}

impl FnNode {
    /// `Owner::name` or bare `name`, for display.
    pub fn qualified_name(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One resolved edge: caller → `callee`, created at `line` in the caller.
#[derive(Debug, Clone, Copy)]
pub struct CallEdge {
    /// Index of the callee node.
    pub callee: usize,
    /// 1-based line of the call site (in the caller's file).
    pub line: u32,
    /// High-confidence edge (qualified / bare / `self.` / closure-def)
    /// versus dyn-dispatch fan-out.
    pub confident: bool,
}

/// Which edges a reachability query closes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeFilter {
    /// Every edge, including dyn-dispatch fan-out (over-approximate).
    All,
    /// Only high-confidence edges.
    Confident,
}

/// One hop of a root→sink chain, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainHop {
    /// Qualified function name (`Engine::ingest`).
    pub function: String,
    /// Workspace-relative path of the function's definition.
    pub path: String,
    /// 1-based line of the function's definition.
    pub line: u32,
    /// Call-site line *in the previous hop's file* (0 for the root hop).
    pub via_line: u32,
}

/// The workspace call graph.
#[derive(Debug, Default, Clone)]
pub struct CallGraph {
    /// All nodes, grouped by file in scan order.
    pub nodes: Vec<FnNode>,
    /// Adjacency: `edges[i]` are the calls made by node `i`.
    pub edges: Vec<Vec<CallEdge>>,
}

impl CallGraph {
    /// Builds the graph over `files`. Test items (`#[cfg(test)]` ranges)
    /// contribute neither nodes nor edges.
    pub fn build<'a>(files: impl IntoIterator<Item = &'a SourceFile>) -> CallGraph {
        let files: Vec<&SourceFile> = files.into_iter().collect();
        let mut nodes: Vec<FnNode> = Vec::new();
        // Per file: indices of this file's nodes, for same-file resolution.
        let mut file_nodes: Vec<Vec<usize>> = Vec::with_capacity(files.len());

        for file in &files {
            let impls = impl_spans(file);
            let mut here = Vec::new();
            for f in &file.fns {
                if file.in_test(f.fn_tok) {
                    continue;
                }
                let imp = impls
                    .iter()
                    .filter(|s| f.fn_tok >= s.body.0 && f.fn_tok <= s.body.1)
                    .min_by_key(|s| s.body.1 - s.body.0);
                here.push(nodes.len());
                nodes.push(FnNode {
                    file: file.rel.clone(),
                    name: f.name.clone(),
                    owner: imp.map(|s| s.owner.clone()),
                    trait_name: imp.and_then(|s| s.trait_name.clone()),
                    has_self: fn_has_self(file, f.fn_tok),
                    kind: FnKind::Item,
                    line: f.line,
                    def_tok: f.fn_tok,
                    body: (f.body_open, f.body_close),
                });
            }
            for c in closure_spans(file) {
                if file.in_test(c.name_tok) {
                    continue;
                }
                here.push(nodes.len());
                nodes.push(FnNode {
                    file: file.rel.clone(),
                    name: c.name.clone(),
                    owner: None,
                    trait_name: None,
                    has_self: false,
                    kind: FnKind::Closure,
                    line: c.line,
                    def_tok: c.name_tok,
                    body: c.body,
                });
            }
            file_nodes.push(here);
        }

        // Name indexes for resolution.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            by_name.entry(&n.name).or_default().push(i);
            if n.owner.is_none() && n.kind == FnKind::Item {
                free_by_name.entry(&n.name).or_default().push(i);
            }
            if n.has_self {
                methods_by_name.entry(&n.name).or_default().push(i);
            }
        }

        let mut edges: Vec<Vec<CallEdge>> = vec![Vec::new(); nodes.len()];
        let push_edge = |edges: &mut Vec<Vec<CallEdge>>, from: usize, edge: CallEdge| {
            let list = &mut edges[from];
            if !list
                .iter()
                .any(|e| e.callee == edge.callee && e.line == edge.line)
            {
                list.push(edge);
            }
        };

        for (fi, file) in files.iter().enumerate() {
            let here = &file_nodes[fi];
            // Closure definition edges: enclosing fn → closure.
            for &ci in here {
                if nodes[ci].kind != FnKind::Closure {
                    continue;
                }
                let def = nodes[ci].def_tok;
                if let Some(&parent) = innermost_containing(&nodes, here, def, ci) {
                    push_edge(
                        &mut edges,
                        parent,
                        CallEdge {
                            callee: ci,
                            line: nodes[ci].line,
                            confident: true,
                        },
                    );
                }
            }
            for call in call_sites(file) {
                if file.in_test(call.tok) {
                    continue;
                }
                let Some(&caller) = innermost_containing(&nodes, here, call.tok, usize::MAX) else {
                    continue;
                };
                let caller_owner = nodes[caller].owner.clone();
                let name = call.name.as_str();
                let mut targets: Vec<(usize, bool)> = Vec::new();
                if call.is_method {
                    if STD_METHODS.contains(&name) {
                        continue;
                    }
                    let self_recv = call.receiver.first().is_some_and(|r| r == "self")
                        && call.receiver.len() == 1;
                    let own = caller_owner.as_deref().and_then(|o| {
                        let hits: Vec<usize> = methods_by_name
                            .get(name)
                            .map(|v| {
                                v.iter()
                                    .copied()
                                    .filter(|&i| nodes[i].owner.as_deref() == Some(o))
                                    .collect()
                            })
                            .unwrap_or_default();
                        (!hits.is_empty()).then_some(hits)
                    });
                    match (self_recv, own) {
                        (true, Some(hits)) => {
                            targets.extend(hits.into_iter().map(|i| (i, true)));
                        }
                        _ => {
                            if let Some(hits) = methods_by_name.get(name) {
                                targets.extend(hits.iter().map(|&i| (i, false)));
                            }
                        }
                    }
                } else if let Some(q) = &call.qualifier {
                    let q = if q == "Self" {
                        caller_owner.clone().unwrap_or_else(|| q.clone())
                    } else {
                        q.clone()
                    };
                    let owned: Vec<usize> = by_name
                        .get(name)
                        .map(|v| {
                            v.iter()
                                .copied()
                                .filter(|&i| {
                                    nodes[i].owner.as_deref() == Some(q.as_str())
                                        || nodes[i].trait_name.as_deref() == Some(q.as_str())
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    if !owned.is_empty() {
                        targets.extend(owned.into_iter().map(|i| (i, true)));
                    } else if let Some(free) = free_by_name.get(name) {
                        // Module-qualified call (`normalize::strip(..)`).
                        targets.extend(free.iter().map(|&i| (i, true)));
                    }
                } else {
                    // Bare call: same-file fns and closures first.
                    let same_file: Vec<usize> = by_name
                        .get(name)
                        .map(|v| {
                            v.iter()
                                .copied()
                                .filter(|&i| {
                                    nodes[i].file == file.rel
                                        && (nodes[i].kind == FnKind::Closure
                                            || nodes[i].owner.is_none())
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    if !same_file.is_empty() {
                        targets.extend(same_file.into_iter().map(|i| (i, true)));
                    } else if let Some(free) = free_by_name.get(name) {
                        targets.extend(free.iter().map(|&i| (i, true)));
                    }
                }
                for (callee, confident) in targets {
                    if callee == caller {
                        continue; // self-recursion adds nothing to reach
                    }
                    push_edge(
                        &mut edges,
                        caller,
                        CallEdge {
                            callee,
                            line: call.line,
                            confident,
                        },
                    );
                }
            }
        }

        CallGraph { nodes, edges }
    }

    /// Nodes matching `(owner, name)`; `owner` `None` matches free fns.
    pub fn find(&self, owner: Option<&str>, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name == name && n.owner.as_deref() == owner)
            .map(|(i, _)| i)
            .collect()
    }

    /// The innermost node of `file` whose body contains token `tok`.
    pub fn node_at(&self, file: &str, tok: usize) -> Option<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.file == file && tok >= n.def_tok && tok <= n.body.1)
            .min_by_key(|(_, n)| n.body.1 - n.def_tok)
            .map(|(i, _)| i)
    }

    /// BFS over `filter`ed edges from `roots`. Returns, for every
    /// reachable node, the index of the edge-parent it was first reached
    /// through (`usize::MAX` for roots) plus the call-site line used.
    /// Cycles terminate because each node is visited once.
    pub fn reach(&self, roots: &[usize], filter: EdgeFilter) -> BTreeMap<usize, (usize, u32)> {
        let mut parent: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(slot) = parent.entry(r) {
                slot.insert((usize::MAX, 0));
                queue.push_back(r);
            }
        }
        while let Some(n) = queue.pop_front() {
            for e in &self.edges[n] {
                if filter == EdgeFilter::Confident && !e.confident {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(slot) = parent.entry(e.callee) {
                    slot.insert((n, e.line));
                    queue.push_back(e.callee);
                }
            }
        }
        parent
    }

    /// The shortest root→`node` chain from a [`CallGraph::reach`] result.
    pub fn chain(&self, parents: &BTreeMap<usize, (usize, u32)>, node: usize) -> Vec<ChainHop> {
        let mut hops = Vec::new();
        let mut cur = node;
        let mut via = 0u32;
        loop {
            let n = &self.nodes[cur];
            hops.push(ChainHop {
                function: n.qualified_name(),
                path: n.file.clone(),
                line: n.line,
                via_line: via,
            });
            match parents.get(&cur) {
                Some(&(p, call_line)) if p != usize::MAX => {
                    via = call_line;
                    cur = p;
                }
                _ => break,
            }
            if hops.len() > self.nodes.len() {
                break; // defensive: malformed parent map
            }
        }
        // Built sink-first; flip to root-first and move each via_line onto
        // the hop it leads *to*.
        hops.reverse();
        let mut carried = 0u32;
        for hop in &mut hops {
            std::mem::swap(&mut hop.via_line, &mut carried);
        }
        hops
    }
}

/// Whether the `fn` at `fn_tok` takes a `self` receiver.
fn fn_has_self(file: &SourceFile, fn_tok: usize) -> bool {
    let toks = &file.lex.tokens;
    let mut j = fn_tok;
    while let Some(t) = toks.get(j) {
        if t.is_punct('<') {
            // Generic params may contain `Fn(..)` bounds; skip the whole
            // group so the parameter-list paren is found, not a bound's.
            j = extract::skip_angles_at(toks, j);
            continue;
        }
        if t.is_punct('(') {
            // First few tokens decide: `self`, `&self`, `&mut self`,
            // `mut self`, `&'a self`, `self: Arc<Self>`.
            for t in toks.iter().take((j + 5).min(toks.len())).skip(j + 1) {
                if t.is_ident("self") {
                    return true;
                }
                if !(t.is_punct('&')
                    || t.is_ident("mut")
                    || t.kind == crate::lexer::TokKind::Lifetime)
                {
                    return false;
                }
            }
            return false;
        }
        if t.is_punct('{') || t.is_punct(';') {
            return false;
        }
        j += 1;
    }
    false
}

/// The innermost node among `candidates` whose body contains `tok`,
/// excluding `skip` (used to find a closure's enclosing function).
fn innermost_containing<'a>(
    nodes: &[FnNode],
    candidates: &'a [usize],
    tok: usize,
    skip: usize,
) -> Option<&'a usize> {
    candidates
        .iter()
        .filter(|&&i| i != skip && tok >= nodes[i].body.0 && tok <= nodes[i].body.1)
        .min_by_key(|&&i| nodes[i].body.1 - nodes[i].body.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::build_file;
    use std::path::Path;

    fn file(rel: &str, src: &str) -> SourceFile {
        build_file(Path::new("/ws"), &Path::new("/ws").join(rel), src)
    }

    fn graph(sources: &[(&str, &str)]) -> (CallGraph, Vec<SourceFile>) {
        let files: Vec<SourceFile> = sources.iter().map(|&(r, s)| file(r, s)).collect();
        let g = CallGraph::build(files.iter());
        (g, files)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("no node {name}"))
    }

    #[test]
    fn cycles_terminate_and_stay_reachable() {
        let (g, _) = graph(&[(
            "crates/x/src/lib.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() { a(); sink(); }\nfn sink() {}\n",
        )]);
        let roots = vec![idx(&g, "a")];
        let reach = g.reach(&roots, EdgeFilter::All);
        for name in ["a", "b", "c", "sink"] {
            assert!(reach.contains_key(&idx(&g, name)), "{name} reachable");
        }
        let chain = g.chain(&reach, idx(&g, "sink"));
        let names: Vec<&str> = chain.iter().map(|h| h.function.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c", "sink"]);
        // via_line of each non-root hop is the call line in its caller.
        assert_eq!(chain[0].via_line, 0);
        assert_eq!(chain[1].via_line, 1); // b is called on line 1 (in a)
        assert_eq!(chain[3].via_line, 3); // sink is called on line 3 (in c)
    }

    #[test]
    fn impl_methods_get_owners_and_self_calls_resolve_exactly() {
        let (g, _) = graph(&[(
            "crates/x/src/lib.rs",
            "struct Engine;\nimpl Engine {\n    pub fn ingest(&self) { self.step(); }\n    fn step(&self) {}\n}\nstruct Other;\nimpl Other {\n    fn step(&self) {}\n}\n",
        )]);
        let ingest = idx(&g, "ingest");
        assert_eq!(g.nodes[ingest].owner.as_deref(), Some("Engine"));
        let reach = g.reach(&[ingest], EdgeFilter::Confident);
        // Exactly Engine::step, not Other::step.
        let reached: Vec<&FnNode> = reach.keys().map(|&i| &g.nodes[i]).collect();
        assert!(reached
            .iter()
            .any(|n| n.name == "step" && n.owner.as_deref() == Some("Engine")));
        assert!(!reached
            .iter()
            .any(|n| n.name == "step" && n.owner.as_deref() == Some("Other")));
    }

    #[test]
    fn turbofish_calls_are_confident_edges() {
        let (g, _) = graph(&[(
            "crates/x/src/lib.rs",
            "struct V;\nimpl V {\n    fn run(&self) { self.col::<2>(); fill::<Vec<u8>>(); }\n    fn col<const N: usize>(&self) {}\n}\nfn fill<T>() {}\nfn path() -> usize { usize::MAX }\n",
        )]);
        let reach = g.reach(&[idx(&g, "run")], EdgeFilter::Confident);
        for name in ["col", "fill"] {
            assert!(reach.contains_key(&idx(&g, name)), "{name} reached");
        }
        // A plain path segment is still a qualifier, not a call.
        assert!(!reach.contains_key(&idx(&g, "path")));
    }

    #[test]
    fn trait_method_dispatch_fans_out_to_all_impls() {
        let (g, _) = graph(&[(
            "crates/x/src/lib.rs",
            "trait Sink { fn record(&self); }\nstruct A;\nimpl Sink for A { fn record(&self) { tick(); } }\nstruct B;\nimpl Sink for B { fn record(&self) { tock(); } }\nfn tick() {}\nfn tock() {}\nfn drive(s: &dyn Sink) { s.record(); }\n",
        )]);
        let drive = idx(&g, "drive");
        let reach = g.reach(&[drive], EdgeFilter::All);
        assert!(reach.contains_key(&idx(&g, "tick")), "A::record reached");
        assert!(reach.contains_key(&idx(&g, "tock")), "B::record reached");
        // Dyn fan-out edges are not confident.
        let confident = g.reach(&[drive], EdgeFilter::Confident);
        assert!(!confident.contains_key(&idx(&g, "tick")));
    }

    #[test]
    fn named_closures_are_nodes_with_definition_edges() {
        let (g, _) = graph(&[(
            "crates/x/src/lib.rs",
            "fn outer() {\n    let work = move |x: usize| helper(x);\n    dispatch(work);\n}\nfn helper(_x: usize) {}\nfn dispatch<F: Fn(usize)>(_f: F) {}\n",
        )]);
        let outer = idx(&g, "outer");
        let work = idx(&g, "work");
        assert_eq!(g.nodes[work].kind, FnKind::Closure);
        let reach = g.reach(&[outer], EdgeFilter::All);
        assert!(reach.contains_key(&work), "definition edge reaches closure");
        assert!(
            reach.contains_key(&idx(&g, "helper")),
            "capture body reached through the closure"
        );
    }

    #[test]
    fn qualified_references_without_parens_resolve() {
        let (g, _) = graph(&[(
            "crates/x/src/lib.rs",
            "struct P;\nimpl P {\n    fn into_inner(self) {}\n}\nfn f() { g().unwrap_or_else(P::into_inner); }\nfn g() {}\n",
        )]);
        let reach = g.reach(&[idx(&g, "f")], EdgeFilter::All);
        assert!(reach.contains_key(&idx(&g, "into_inner")));
    }

    #[test]
    fn std_method_names_do_not_fan_out() {
        let (g, _) = graph(&[(
            "crates/x/src/lib.rs",
            "struct S;\nimpl S {\n    fn len(&self) { boom(); }\n}\nfn boom() {}\nfn f(v: &[u8]) { let _ = v.len(); }\n",
        )]);
        let reach = g.reach(&[idx(&g, "f")], EdgeFilter::All);
        assert!(
            !reach.contains_key(&idx(&g, "boom")),
            "`.len()` must not resolve to S::len"
        );
    }

    #[test]
    fn test_items_contribute_no_nodes() {
        let (g, _) = graph(&[(
            "crates/x/src/lib.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        )]);
        assert!(g.nodes.iter().any(|n| n.name == "live"));
        assert!(!g.nodes.iter().any(|n| n.name == "helper"));
    }
}
