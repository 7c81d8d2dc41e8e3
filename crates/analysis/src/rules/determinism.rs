//! Rule `determinism`: no nondeterminism source may be reachable from a
//! determinism root.
//!
//! Every headline guarantee of this reproduction — replay `verify()`
//! byte-exactness, the golden-sweep fixture, query-vs-live bit-identity,
//! incremental-vs-rebuild equivalence — rests on the engine being a pure
//! function of its inputs. This pass proves the property *statically*: it
//! declares the functions those guarantees enter through
//! ([`ROOT_FUNCTIONS`]), closes over the workspace call graph
//! (over-approximate [`EdgeFilter::All`] — dyn dispatch fans out to every
//! impl), and reports any reachable function whose body contains a member
//! of the nondeterminism-sink taxonomy ([`SinkClass`]) as a full
//! root→…→sink call chain with `file:line` per hop.
//!
//! Sinks that are *deliberate* (wall-clock telemetry attribution that
//! replay normalizes away, deadline checks whose effect is a *declared*
//! degradation) are escaped with `// lint: allow(determinism, <reason>)`
//! at the sink line; the reason is mandatory by convention and the escape
//! is audited in review like any other.

use super::{graph_for, Rule, Violation};
use crate::callgraph::{CallGraph, EdgeFilter, FnNode};
use crate::lexer::{TokKind, Token};
use crate::workspace::{SourceFile, Workspace};

/// The determinism roots: `(impl type, method)` pairs every reproduction
/// guarantee enters the engine through. Specs that stop matching any
/// function fail the pass loudly (root drift) instead of silently
/// shrinking coverage.
pub const ROOT_FUNCTIONS: &[(&str, &str)] = &[
    // Streaming ingest and the bounded-queue path.
    ("Engine", "ingest"),
    ("Engine", "submit"),
    ("Engine", "drain"),
    ("Engine", "diagnose"),
    // The association sweep paths (full, pooled, incremental).
    ("AssociationMatrix", "compute"),
    ("SweepPool", "sweep"),
    ("IncrementalSweep", "rescore"),
    // Replay byte-exactness.
    ("Replayer", "verify"),
    // IXHIST01 persistence round-trip.
    ("HistoryStore", "save"),
    ("HistoryStore", "load"),
    ("HistoryStore", "load_with_warnings"),
    // Query execution (must reproduce live results bit-exactly).
    ("Explanations", "rank"),
    ("Cooccurrence", "compute"),
    ("Counterfactual", "compute"),
    // Fleet serving: the evict→snapshot→warm twin guarantee enters
    // through the tenant-routed tick paths and the snapshot round-trip.
    ("Fleet", "ingest"),
    ("Fleet", "drain"),
    ("Fleet", "diagnose"),
    ("Fleet", "snapshot_bytes"),
    ("TenantSnapshot", "to_bytes"),
    ("TenantSnapshot", "from_bytes"),
];

/// One class of nondeterminism sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkClass {
    /// `HashMap`/`HashSet` iteration (`RandomState` order varies per run).
    HashIteration,
    /// Explicit `RandomState` construction.
    RandomState,
    /// `Instant::now` / `SystemTime::now` wall-clock reads.
    WallClock,
    /// `thread::current()` identity (`.id()`, `.name()`).
    ThreadId,
    /// Pointer-to-integer casts (address-dependent keys/sort inputs).
    PtrAsInt,
    /// `env::var` reads (host-dependent behavior).
    EnvRead,
    /// Float accumulation in a thread-spawning function (unordered
    /// parallel reduction — float addition does not commute in rounding).
    ParallelFloatReduction,
}

impl SinkClass {
    /// Short description for messages.
    pub fn describe(self) -> &'static str {
        match self {
            SinkClass::HashIteration => "HashMap/HashSet iteration order varies per process",
            SinkClass::RandomState => "RandomState is seeded per process",
            SinkClass::WallClock => "wall-clock read",
            SinkClass::ThreadId => "thread identity varies per run",
            SinkClass::PtrAsInt => "pointer-to-integer cast is address-dependent",
            SinkClass::EnvRead => "environment read is host-dependent",
            SinkClass::ParallelFloatReduction => {
                "float accumulation in a spawning function — unordered parallel \
                 reduction rounds differently per schedule"
            }
        }
    }
}

/// A sink found in a function body.
struct SinkSite {
    class: SinkClass,
    token: String,
    line: u32,
}

/// See module docs.
pub struct DeterminismTaint;

impl Rule for DeterminismTaint {
    fn id(&self) -> &'static str {
        "determinism"
    }

    fn description(&self) -> &'static str {
        "no nondeterminism sink (hash iteration, clocks, thread ids, ptr casts, env, \
         unordered float reduction) reachable from a determinism root"
    }

    fn check(&self, file: &SourceFile, ws: &Workspace, out: &mut Vec<Violation>) {
        let graph = graph_for(file, ws);
        // Root drift fails loudly — reported once, against the file that
        // declares the root list (this rule's own source).
        if file.rel == "crates/analysis/src/rules/determinism.rs" {
            for (owner, name) in ROOT_FUNCTIONS {
                if graph.find(Some(owner), name).is_empty() {
                    out.push(Violation::new(
                        self.id(),
                        file.rel.clone(),
                        1,
                        format!(
                            "determinism root `{owner}::{name}` matches no function in the \
                             workspace — ROOT_FUNCTIONS has drifted from the engine API"
                        ),
                    ));
                }
            }
        }

        let mut roots = Vec::new();
        for (owner, name) in ROOT_FUNCTIONS {
            roots.extend(graph.find(Some(owner), name));
        }
        if roots.is_empty() {
            return;
        }
        let parents = graph.reach(&roots, EdgeFilter::All);
        let hash_names = hash_typed_names(file);

        for &node_idx in parents.keys() {
            let node = &graph.nodes[node_idx];
            if node.file != file.rel {
                continue;
            }
            for sink in sinks_in(file, &graph, node_idx, node, &hash_names) {
                let chain = graph.chain(&parents, node_idx);
                let root = chain
                    .first()
                    .map(|h| h.function.clone())
                    .unwrap_or_default();
                out.push(Violation {
                    rule: self.id(),
                    path: file.rel.clone(),
                    line: sink.line,
                    message: format!(
                        "`{}` in `{}` — {}; reachable from determinism root `{}` \
                         ({} hop{}). Fix it or escape with \
                         `// lint: allow(determinism, <reason>)`",
                        sink.token,
                        node.qualified_name(),
                        sink.class.describe(),
                        root,
                        chain.len() - 1,
                        if chain.len() == 2 { "" } else { "s" },
                    ),
                    chain,
                });
            }
        }
    }
}

/// Identifiers in `file` whose declaration (let binding, struct field, or
/// parameter) mentions `HashMap`/`HashSet` — the receivers whose iteration
/// is order-nondeterministic.
fn hash_typed_names(file: &SourceFile) -> Vec<String> {
    let toks = &file.lex.tokens;
    let mut out: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("HashMap") || toks[i].is_ident("HashSet")) {
            continue;
        }
        // Walk back to the nearest `:` (type ascription — field, param,
        // or typed let) or `=` (inferred let), then take the ident before
        // it. `use std::collections::HashMap` never matches: the walk
        // stops at `;`/`{`/`(` first... it stops at `::`'s second colon —
        // guarded by requiring an ident immediately before the `:`.
        let mut j = i;
        let mut found = None;
        while j > 0 && i - j < 40 {
            j -= 1;
            let t = &toks[j];
            if t.is_punct(';')
                || t.is_punct('{')
                || t.is_punct('}')
                || t.is_punct('(')
                || t.is_punct(')')
            {
                // Statement/item boundary — and crucially the param-list
                // `)` before a `-> ... HashMap<...>` return type, which
                // must not tag the last parameter as hash-typed.
                break;
            }
            if (t.is_punct(':') || t.is_punct('='))
                && j >= 1
                && toks[j - 1].kind == TokKind::Ident
                && !(t.is_punct(':') && j >= 2 && toks[j - 2].is_punct(':'))
                && !toks[j - 1].is_ident("use")
            {
                found = Some(toks[j - 1].text.clone());
                break;
            }
        }
        if let Some(name) = found {
            if !out.contains(&name) {
                out.push(name);
            }
        }
    }
    out
}

/// Iteration methods that are nondeterministic on hash collections.
const HASH_ITER_METHODS: &[&str] = &[
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "iter",
    "iter_mut",
    "keys",
    "retain",
    "values",
    "values_mut",
];

/// Scans the body of `node` for nondeterminism sinks. Tokens belonging to
/// *other* (nested) nodes are skipped — a helper fn defined inside a
/// reachable fn reports its own sinks only if it is itself reachable.
fn sinks_in(
    file: &SourceFile,
    graph: &CallGraph,
    node_idx: usize,
    node: &FnNode,
    hash_names: &[String],
) -> Vec<SinkSite> {
    let toks = &file.lex.tokens;
    let (start, end) = node.body;
    let end = end.min(toks.len().saturating_sub(1));
    let nested: Vec<(usize, usize)> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, n)| {
            i != node_idx && n.file == node.file && n.body.0 > start && n.body.1 <= end
        })
        .map(|(_, n)| n.body)
        .collect();
    let has_spawn = (start..=end).any(|i| toks[i].is_ident("spawn") || toks[i].is_ident("scope"));

    let mut out = Vec::new();
    let mut i = start;
    while i <= end {
        if let Some(&(_, nest_end)) = nested.iter().find(|&&(s, e)| i >= s && i <= e) {
            i = nest_end + 1;
            continue;
        }
        let t = &toks[i];
        // Wall clock: `Instant::now`, `SystemTime::now`.
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && toks.get(i + 3).is_some_and(|x| x.is_ident("now"))
        {
            out.push(SinkSite {
                class: SinkClass::WallClock,
                token: format!("{}::now", t.text),
                line: t.line,
            });
        }
        // RandomState.
        if t.is_ident("RandomState") {
            out.push(SinkSite {
                class: SinkClass::RandomState,
                token: "RandomState".into(),
                line: t.line,
            });
        }
        // Thread identity: `thread::current()`.
        if t.is_ident("thread")
            && toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && toks.get(i + 3).is_some_and(|x| x.is_ident("current"))
        {
            out.push(SinkSite {
                class: SinkClass::ThreadId,
                token: "thread::current".into(),
                line: t.line,
            });
        }
        // Environment reads: `env::var`, `env::var_os`, `env::vars`.
        if t.is_ident("env")
            && toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && toks
                .get(i + 3)
                .is_some_and(|x| x.is_ident("var") || x.is_ident("var_os") || x.is_ident("vars"))
        {
            out.push(SinkSite {
                class: SinkClass::EnvRead,
                token: format!("env::{}", toks[i + 3].text),
                line: t.line,
            });
        }
        // Pointer-to-integer casts: `.as_ptr() as usize` and
        // `as *const T as usize` forms.
        if t.is_ident("as_ptr") || t.is_ident("as_mut_ptr") {
            if let Some(cast_line) = ptr_cast_ahead(toks, i, end) {
                out.push(SinkSite {
                    class: SinkClass::PtrAsInt,
                    token: format!("{} as <int>", t.text),
                    line: cast_line,
                });
            }
        }
        if t.is_ident("as")
            && toks.get(i + 1).is_some_and(|x| x.is_punct('*'))
            && toks
                .get(i + 2)
                .is_some_and(|x| x.is_ident("const") || x.is_ident("mut"))
        {
            if let Some(cast_line) = ptr_cast_ahead(toks, i + 2, end) {
                out.push(SinkSite {
                    class: SinkClass::PtrAsInt,
                    token: "as *_ as <int>".into(),
                    line: cast_line,
                });
            }
        }
        // Hash iteration: `recv.<iter-method>(` where the receiver chain
        // names a hash-typed binding/field, or a `for` loop over one.
        if i >= 1
            && toks[i - 1].is_punct('.')
            && t.kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
        {
            let chain = non_call_receiver_idents(toks, i - 1);
            if chain.iter().any(|r| hash_names.iter().any(|h| h == r)) {
                out.push(SinkSite {
                    class: SinkClass::HashIteration,
                    token: format!(".{}()", t.text),
                    line: t.line,
                });
            }
        }
        if t.is_ident("for") {
            if let Some(line) = for_over_hash(toks, i, end, hash_names) {
                out.push(SinkSite {
                    class: SinkClass::HashIteration,
                    token: "for over HashMap/HashSet".into(),
                    line,
                });
            }
        }
        // Unordered parallel float reduction: `+=` on a float (or an
        // f64 `.sum()`) in a body that also spawns.
        if has_spawn
            && t.is_punct('+')
            && toks.get(i + 1).is_some_and(|x| x.is_punct('='))
            && float_context(toks, start, end)
        {
            out.push(SinkSite {
                class: SinkClass::ParallelFloatReduction,
                token: "+=".into(),
                line: t.line,
            });
        }
        i += 1;
    }
    // `for (_, v) in m.iter()` trips both the method-call and for-loop
    // detectors — keep one finding per (class, line).
    out.sort_by_key(|s| (s.line, s.class as u8));
    out.dedup_by_key(|s| (s.line, s.class as u8));
    out
}

/// Field/variable identifiers in the receiver chain ending at the `.` at
/// `dot_idx` — method names are *excluded* (a call returns a fresh value,
/// so `store.contexts().iter()` must not hash-match a field named
/// `contexts`; only `self.contexts.iter()` should).
fn non_call_receiver_idents(toks: &[Token], dot_idx: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = dot_idx;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(')') || t.is_punct(']') {
            // Skip the group; the ident before its opener (if any) is a
            // call/index name — skip that too.
            let close = if t.is_punct(')') { '(' } else { '[' };
            let mut depth = 1i32;
            while j > 0 && depth > 0 {
                j -= 1;
                if toks[j].is_punct(if close == '(' { ')' } else { ']' }) {
                    depth += 1;
                } else if toks[j].is_punct(close) {
                    depth -= 1;
                }
            }
            if j > 0 && toks[j - 1].kind == TokKind::Ident {
                j -= 1; // the call name — excluded from the chain
            }
        } else if t.kind == TokKind::Ident {
            out.push(t.text.clone());
        } else if t.is_punct('?') {
            continue;
        } else if !t.is_punct('.') {
            break;
        }
    }
    out
}

/// After a pointer-producing token at `i`, is there an `as <int-type>`
/// cast within the next few tokens?
fn ptr_cast_ahead(toks: &[Token], i: usize, end: usize) -> Option<u32> {
    const INT_TYPES: &[&str] = &["usize", "isize", "u64", "i64", "u32", "i32", "u128"];
    for j in i + 1..(i + 10).min(end + 1) {
        if toks[j].is_ident("as")
            && toks
                .get(j + 1)
                .is_some_and(|x| INT_TYPES.contains(&x.text.as_str()))
        {
            return Some(toks[j].line);
        }
    }
    None
}

/// For a `for` at `i`: does the iterated expression (tokens between `in`
/// and the loop body `{`) name a hash-typed ident?
fn for_over_hash(toks: &[Token], i: usize, end: usize, hash_names: &[String]) -> Option<u32> {
    let mut j = i + 1;
    // Find the `in` at pattern depth 0.
    let mut depth = 0isize;
    while j <= end {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("in") {
            break;
        } else if t.is_punct('{') {
            return None; // `for` in a comment-free oddity; bail
        }
        j += 1;
    }
    let expr_start = j + 1;
    let mut k = expr_start;
    let mut depth = 0isize;
    while k <= end {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('{') {
            break;
        }
        k += 1;
    }
    let stop = k.min(end + 1);
    toks[expr_start..stop]
        .iter()
        .enumerate()
        .find(|(off, t)| {
            t.kind == TokKind::Ident
                && hash_names.iter().any(|h| h == &t.text)
                // A call name is not a hash receiver — its return value is
                // fresh (`for c in store.contexts()` is fine).
                && !toks
                    .get(expr_start + off + 1)
                    .is_some_and(|n| n.is_punct('('))
        })
        .map(|(_, t)| t.line)
}

/// Whether the body declares or sums 32/64-bit floats — the accumulator
/// check for the parallel-reduction sink.
fn float_context(toks: &[Token], start: usize, end: usize) -> bool {
    (start..=end).any(|i| toks[i].is_ident("f64") || toks[i].is_ident("f32"))
}
