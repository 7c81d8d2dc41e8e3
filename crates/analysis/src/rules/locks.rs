//! Lock discipline rules.
//!
//! `lock-order`: the engine holds more than one lock only in a handful of
//! carefully-ordered places (shard map → sweep records → signature store
//! → telemetry). [`LOCK_ORDER`] declares the global acquisition order by
//! field name; acquiring a lower-ranked lock while a higher-ranked guard
//! is live is a deadlock-shaped bug even when today's call graph happens
//! not to interleave the two call sites.
//!
//! `poison-recovery`: the engine's policy is that a panicking writer must
//! not take the whole diagnosis pipeline down with it, so every guard
//! acquisition recovers from poisoning with
//! `unwrap_or_else(PoisonError::into_inner)` instead of `.unwrap()`.

use super::{Rule, Violation};
use crate::lexer::{TokKind, Token};
use crate::workspace::{SourceFile, Workspace};

/// One declared lock, identified by the field it is stored in.
#[derive(Debug, Clone, Copy)]
pub struct LockClass {
    /// Field name holding the lock (`self.<field>` / `<field>[i]`).
    pub field: &'static str,
    /// Acquisition rank: locks must be acquired in non-decreasing rank.
    pub rank: u8,
    /// The type that owns the field.
    pub holder: &'static str,
    /// `Mutex` or `RwLock`.
    pub kind: &'static str,
    /// Why the lock sits at this rank.
    pub why: &'static str,
}

/// The workspace's global lock-acquisition order, outermost first.
///
/// Rationale: ingest touches the sharded state map first and may then
/// consult the per-context sweep records and signature store; telemetry sinks (scope
/// table, span ring) are leaves that never acquire anything else; the
/// sweep pool's job queue is drained only on worker threads that hold no
/// other lock.
pub const LOCK_ORDER: &[LockClass] = &[
    LockClass {
        field: "shards",
        rank: 0,
        holder: "ShardedStateMap",
        kind: "RwLock",
        why: "per-metric state is touched first on every tick",
    },
    LockClass {
        field: "sweep_records",
        rank: 1,
        holder: "Engine",
        kind: "Mutex",
        why: "record take/put happens inside a sweep, after state reads",
    },
    LockClass {
        field: "signatures",
        rank: 2,
        holder: "Engine",
        kind: "RwLock",
        why: "signature matching runs after the association matrix is ready",
    },
    LockClass {
        field: "scopes",
        rank: 3,
        holder: "MetricsRegistry",
        kind: "RwLock",
        why: "telemetry scope lookup is a leaf on the metrics path",
    },
    LockClass {
        field: "ring",
        rank: 4,
        holder: "SpanRing",
        kind: "Mutex",
        why: "span capture is a leaf on the tracing path",
    },
    LockClass {
        field: "job_rx",
        rank: 5,
        holder: "SweepPool",
        kind: "Mutex",
        why: "drained only by workers that hold nothing else",
    },
];

fn class_of(field: &str) -> Option<&'static LockClass> {
    LOCK_ORDER.iter().find(|c| c.field == field)
}

/// A live guard tracked during the scan.
struct Held {
    class: &'static LockClass,
    /// Binding name for `let g = ...` guards (`drop(g)` releases them).
    name: Option<String>,
    /// Brace depth at acquisition; leaving the block releases the guard.
    depth: usize,
    line: u32,
}

/// See module docs (`lock-order`).
pub struct LockOrder;

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "declared locks must be acquired in LOCK_ORDER rank order"
    }

    fn check(&self, file: &SourceFile, _ws: &Workspace, out: &mut Vec<Violation>) {
        let toks = &file.lex.tokens;
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0usize;
        // Index of the first token of the current statement, for spotting
        // `let <name> =` bindings.
        let mut stmt_start = 0usize;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.is_punct('{') {
                depth += 1;
                stmt_start = i + 1;
                continue;
            }
            if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                // Guards bound inside the block die with it; statement
                // temporaries acquired at deeper depth are long gone too.
                held.retain(|h| h.depth <= depth);
                stmt_start = i + 1;
                continue;
            }
            if t.is_punct(';') {
                // Statement temporaries (guards never bound to a name)
                // drop at the end of their statement.
                held.retain(|h| h.name.is_some() || h.depth != depth);
                stmt_start = i + 1;
                continue;
            }
            // Explicit `drop(name)` releases a bound guard early.
            if t.is_ident("drop")
                && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
                && toks.get(i + 3).is_some_and(|x| x.is_punct(')'))
            {
                if let Some(name) = toks.get(i + 2) {
                    held.retain(|h| h.name.as_deref() != Some(name.text.as_str()));
                }
                continue;
            }
            // Acquisition: `<recv>.lock()` / `.read()` / `.write()`.
            let is_acquire = (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
                && i >= 1
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
                && toks.get(i + 2).is_some_and(|x| x.is_punct(')'));
            if !is_acquire || file.in_test(i) {
                continue;
            }
            let Some(class) = receiver_class(toks, i - 1) else {
                continue; // not a declared lock
            };
            for h in &held {
                if h.class.rank > class.rank {
                    out.push(Violation {
                        rule: self.id(),
                        path: file.rel.clone(),
                        line: t.line,
                        message: format!(
                            "acquires `{}` (rank {}) while `{}` (rank {}, line {}) is held \
                             — declared order is {}",
                            class.field,
                            class.rank,
                            h.class.field,
                            h.class.rank,
                            h.line,
                            order_summary(),
                        ),
                        chain: Vec::new(),
                    });
                }
            }
            held.push(Held {
                class,
                name: let_binding(toks, stmt_start, i),
                depth,
                line: t.line,
            });
        }
    }
}

/// Walks back from the `.` before the acquiring method to find which
/// declared lock field is being locked, skipping index groups
/// (`shards[idx].read()`) and path segments.
fn receiver_class(toks: &[Token], dot_idx: usize) -> Option<&'static LockClass> {
    let mut j = dot_idx; // points at the `.`
    let mut hops = 0;
    while j > 0 && hops < 12 {
        j -= 1;
        hops += 1;
        let t = &toks[j];
        if t.is_punct(']') {
            // Skip the whole `[...]` group.
            let mut d = 1usize;
            while j > 0 && d > 0 {
                j -= 1;
                if toks[j].is_punct(']') {
                    d += 1;
                } else if toks[j].is_punct('[') {
                    d -= 1;
                }
            }
            continue;
        }
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') || t.is_punct('=') {
            break;
        }
        if t.kind == TokKind::Ident {
            if let Some(c) = class_of(&t.text) {
                return Some(c);
            }
            if t.text == "self" {
                break; // reached the receiver root without a match
            }
        }
    }
    None
}

/// If the statement starting at `stmt_start` is `let <name> = ...` and the
/// acquisition at `site` belongs to it, the guard is (conservatively)
/// treated as bound to `<name>` for the rest of the block.
fn let_binding(toks: &[Token], stmt_start: usize, site: usize) -> Option<String> {
    let t = toks.get(stmt_start)?;
    if !t.is_ident("let") || stmt_start + 2 > site {
        return None;
    }
    let name = toks.get(stmt_start + 1)?;
    let mut idx = stmt_start + 1;
    if name.is_ident("mut") {
        idx += 1;
    }
    let name = toks.get(idx)?;
    (name.kind == TokKind::Ident).then(|| name.text.clone())
}

fn order_summary() -> String {
    LOCK_ORDER
        .iter()
        .map(|c| c.field)
        .collect::<Vec<_>>()
        .join(" < ")
}

/// See module docs (`poison-recovery`).
pub struct PoisonRecovery;

impl Rule for PoisonRecovery {
    fn id(&self) -> &'static str {
        "poison-recovery"
    }

    fn description(&self) -> &'static str {
        "guard acquisitions must recover from poisoning, not .unwrap()/.expect()"
    }

    fn check(&self, file: &SourceFile, _ws: &Workspace, out: &mut Vec<Violation>) {
        let toks = &file.lex.tokens;
        for i in 0..toks.len() {
            let is_acquire =
                (toks[i].is_ident("lock") || toks[i].is_ident("read") || toks[i].is_ident("write"))
                    && i >= 1
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
                    && toks.get(i + 2).is_some_and(|x| x.is_punct(')'));
            if !is_acquire || file.in_test(i) {
                continue;
            }
            // Only police declared locks; `.read()` on a reader type etc.
            // is out of scope.
            if receiver_class(toks, i - 1).is_none() {
                continue;
            }
            let Some(next) = toks.get(i + 4) else {
                continue;
            };
            if toks[i + 3].is_punct('.') && (next.is_ident("unwrap") || next.is_ident("expect")) {
                out.push(Violation {
                    rule: self.id(),
                    path: file.rel.clone(),
                    line: toks[i].line,
                    message: format!(
                        ".{}() panics on a poisoned `{}` guard — use \
                         `.unwrap_or_else(std::sync::PoisonError::into_inner)`",
                        next.text,
                        // receiver_class returned Some above.
                        receiver_class(toks, i - 1).map_or("?", |c| c.field),
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
}
