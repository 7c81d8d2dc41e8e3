//! Rule `wire-coverage`: every `EngineEvent` variant must be exercised by
//! the record codec's tests.
//!
//! The binary event records of `crates/history/src/codec.rs` are the
//! compatibility surface between the engine, recorded traces and the
//! history store. Its test module pins each variant's bytes and
//! round-trips them; a variant added to `EngineEvent` without a matching
//! codec test silently ships an unpinned encoding. This rule fires on the
//! file that declares the enum and demands each variant identifier appear
//! inside `codec.rs`'s `#[cfg(test)]` ranges.

use super::{Rule, Violation};
use crate::lexer::TokKind;
use crate::workspace::{SourceFile, Workspace};

/// The file that declares the event enum.
const EVENTS_RS: &str = "crates/core/src/engine/events.rs";
/// The file whose test module must cover every variant.
const WIRE_RS: &str = "crates/history/src/codec.rs";

/// See module docs.
pub struct WireCoverage;

impl Rule for WireCoverage {
    fn id(&self) -> &'static str {
        "wire-coverage"
    }

    fn description(&self) -> &'static str {
        "every EngineEvent variant appears in the record codec's pinned-byte tests"
    }

    fn check(&self, file: &SourceFile, ws: &Workspace, out: &mut Vec<Violation>) {
        if file.rel != EVENTS_RS {
            return;
        }
        let Some(wire) = ws.file(WIRE_RS) else {
            out.push(Violation::new(
                self.id(),
                file.rel.clone(),
                1,
                format!("`{WIRE_RS}` is missing — the wire-coverage rule has drifted"),
            ));
            return;
        };
        let tested = |variant: &str| {
            wire.lex
                .tokens
                .iter()
                .enumerate()
                .any(|(i, t)| t.is_ident(variant) && wire.in_test(i))
        };
        for (variant, line) in variants_with_lines(file, "EngineEvent") {
            if !tested(&variant) {
                out.push(Violation::new(
                    self.id(),
                    file.rel.clone(),
                    line,
                    format!(
                        "`EngineEvent::{variant}` has no codec test — pin its record \
                         bytes in the tests of `{WIRE_RS}`"
                    ),
                ));
            }
        }
    }
}

/// Variant `(name, line)` pairs of the enum `name` declared in `file` —
/// like [`crate::workspace::enum_variants`] but keeping the source line so
/// findings anchor to the offending variant.
fn variants_with_lines(file: &SourceFile, name: &str) -> Vec<(String, u32)> {
    let toks = &file.lex.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident(name))) {
            continue;
        }
        // Find the brace after the name (skipping generics), then walk
        // depth-0 idents that open a variant (followed by `,`, `{`, or
        // `(`) — mirrors `workspace::enum_variants`.
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            j += 1;
        }
        let Some(close) = crate::callgraph::matching_braces(toks, j) else {
            break;
        };
        let mut depth = 0isize;
        let mut k = j + 1;
        while k < close {
            let t = &toks[k];
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0
                && t.kind == TokKind::Ident
                && !t.is_ident("pub")
                && toks
                    .get(k + 1)
                    .is_some_and(|n| n.is_punct(',') || n.is_punct('{') || n.is_punct('('))
            {
                out.push((t.text.clone(), t.line));
            }
            k += 1;
        }
        break;
    }
    out
}
