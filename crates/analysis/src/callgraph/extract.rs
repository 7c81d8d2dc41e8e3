//! Token-level extraction for the call graph: `impl` block ownership,
//! named closures, and call sites, all from one lexed [`SourceFile`].
//!
//! Everything here is a *heuristic* over the hand-rolled lexer's token
//! stream — the same trade the lint rules make. The extraction is tuned to
//! this repository's style (see `DESIGN.md` §9 for the known
//! over/under-approximations).

use crate::lexer::Token;
use crate::workspace::SourceFile;

/// One `impl` block: the type it targets, the trait (for `impl T for U`),
/// and the token range of its body.
#[derive(Debug)]
pub(crate) struct ImplSpan {
    /// Last path segment of the implemented type (`Engine`, `SweepPool`).
    pub owner: String,
    /// Last path segment of the trait, for `impl Trait for Type`.
    pub trait_name: Option<String>,
    /// Inclusive token range of the block body (the braces).
    pub body: (usize, usize),
}

/// A closure bound to a name: `let work = move |x| ...;`.
#[derive(Debug)]
pub(crate) struct ClosureSpan {
    /// The binding's name.
    pub name: String,
    /// 1-based line of the `let`.
    pub line: u32,
    /// Token index of the binding ident.
    pub name_tok: usize,
    /// Inclusive token range of the closure body.
    pub body: (usize, usize),
}

/// One call site, pre-resolution.
#[derive(Debug)]
pub(crate) struct CallSite {
    /// The called name (`ingest`, `score_pair`, ...).
    pub name: String,
    /// Qualifier for `Path::name(...)` forms (`Engine`, `Self`, a module).
    pub qualifier: Option<String>,
    /// Whether this is a `.name(...)` method call.
    pub is_method: bool,
    /// Receiver-chain idents for method calls (`self.pool.run()` →
    /// `["self", "pool"]`), innermost-last.
    pub receiver: Vec<String>,
    /// Token index of the called name.
    pub tok: usize,
    /// 1-based line of the call.
    pub line: u32,
}

/// Index of the closer matching the opener at `open_idx`.
pub(crate) fn matching(toks: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Skips a generic-argument group starting at the `<` at `i`; returns the
/// index one past the matching `>`. Understands `->` so function-trait
/// bounds (`impl<F: Fn(usize) -> f64>`) do not unbalance the count.
pub(crate) fn skip_angles_at(toks: &[Token], i: usize) -> usize {
    skip_angles(toks, i)
}

fn skip_angles(toks: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && (j == 0 || !toks[j - 1].is_punct('-')) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        } else if t.is_punct('{') || t.is_punct(';') {
            return j; // malformed header; bail without consuming the body
        }
        j += 1;
    }
    j
}

/// Every `impl` block in the file, with its owner type resolved to the
/// last path segment.
pub(crate) fn impl_spans(file: &SourceFile) -> Vec<ImplSpan> {
    let toks = &file.lex.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(toks, j);
        }
        // Read up to two paths separated by `for`, stopping at the body.
        let mut first_path_last: Option<String> = None;
        let mut second_path_last: Option<String> = None;
        let mut after_for = false;
        let mut body_open = None;
        while let Some(t) = toks.get(j) {
            if t.is_punct('{') {
                body_open = Some(j);
                break;
            }
            if t.is_punct(';') {
                break;
            }
            if t.is_ident("for") {
                after_for = true;
            } else if t.is_ident("where") {
                // The body follows the where clause; keep scanning for `{`.
            } else if t.is_punct('<') {
                j = skip_angles(toks, j);
                continue;
            } else if t.kind == crate::lexer::TokKind::Ident
                && !t.is_ident("dyn")
                && !t.is_ident("mut")
                && !t.is_ident("const")
            {
                if after_for {
                    second_path_last = Some(t.text.clone());
                } else {
                    first_path_last = Some(t.text.clone());
                }
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i = j + 1;
            continue;
        };
        let close = matching(toks, open, '{', '}').unwrap_or(toks.len() - 1);
        let (owner, trait_name) = if after_for {
            (second_path_last, first_path_last)
        } else {
            (first_path_last, None)
        };
        if let Some(owner) = owner {
            out.push(ImplSpan {
                owner,
                trait_name,
                body: (open, close),
            });
        }
        i = open + 1; // impls nest (fns inside), so don't skip the body
    }
    out
}

/// Closures bound to names with `let name = [move] |args| body`.
pub(crate) fn closure_spans(file: &SourceFile) -> Vec<ClosureSpan> {
    let toks = &file.lex.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = toks.get(j) else {
            continue;
        };
        if name_tok.kind != crate::lexer::TokKind::Ident {
            continue;
        }
        let name_idx = j;
        j += 1;
        // Optional `: Type` ascription before the `=`.
        if toks.get(j).is_some_and(|t| t.is_punct(':')) {
            while let Some(t) = toks.get(j) {
                if t.is_punct('=') || t.is_punct(';') {
                    break;
                }
                if t.is_punct('<') {
                    j = skip_angles(toks, j);
                    continue;
                }
                j += 1;
            }
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('=')) {
            continue;
        }
        j += 1;
        if toks.get(j).is_some_and(|t| t.is_ident("move")) {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('|')) {
            continue;
        }
        // Find the params-closing `|`: `||` is an empty parameter list.
        let params_open = j;
        let params_close = if toks.get(j + 1).is_some_and(|t| t.is_punct('|')) {
            j + 1
        } else {
            let mut k = j + 1;
            let mut found = None;
            while let Some(t) = toks.get(k) {
                if t.is_punct('(') || t.is_punct('[') {
                    let close = if t.is_punct('(') { ')' } else { ']' };
                    let open = if t.is_punct('(') { '(' } else { '[' };
                    match matching(toks, k, open, close) {
                        Some(e) => k = e + 1,
                        None => break,
                    }
                    continue;
                }
                if t.is_punct('|') {
                    found = Some(k);
                    break;
                }
                if t.is_punct(';') {
                    break;
                }
                k += 1;
            }
            match found {
                Some(k) => k,
                None => continue,
            }
        };
        // Body: skip an optional `-> Type`, then a block or an expression
        // running to the statement's `;` at depth 0.
        let mut b = params_close + 1;
        if toks.get(b).is_some_and(|t| t.is_punct('-'))
            && toks.get(b + 1).is_some_and(|t| t.is_punct('>'))
        {
            b += 2;
            while let Some(t) = toks.get(b) {
                if t.is_punct('{') || t.is_punct(';') {
                    break;
                }
                if t.is_punct('<') {
                    b = skip_angles(toks, b);
                    continue;
                }
                b += 1;
            }
        }
        let body = if toks.get(b).is_some_and(|t| t.is_punct('{')) {
            let Some(close) = matching(toks, b, '{', '}') else {
                continue;
            };
            (b, close)
        } else {
            let mut k = b;
            let mut depth = 0isize;
            let mut end = None;
            while let Some(t) = toks.get(k) {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    if depth == 0 {
                        end = Some(k.saturating_sub(1));
                        break;
                    }
                    depth -= 1;
                } else if t.is_punct(';') && depth == 0 {
                    end = Some(k.saturating_sub(1));
                    break;
                }
                k += 1;
            }
            match end {
                Some(e) if e >= b => (b, e),
                _ => continue,
            }
        };
        let _ = params_open;
        out.push(ClosureSpan {
            name: name_tok.text.clone(),
            line: toks[i].line,
            name_tok: name_idx,
            body,
        });
    }
    out
}

/// Rust keywords and control forms that look like calls (`if (..)`) or are
/// ubiquitous non-workspace constructors (`Some(..)`).
const NON_CALLS: &[&str] = &[
    "if",
    "while",
    "for",
    "match",
    "loop",
    "return",
    "fn",
    "let",
    "move",
    "in",
    "as",
    "else",
    "Some",
    "None",
    "Ok",
    "Err",
    "Box",
    "Vec",
    "String",
    "assert",
    "debug_assert",
];

/// Every call site in the file: bare calls, qualified calls, method calls,
/// and qualified function references (`map(Self::helper)`).
pub(crate) fn call_sites(file: &SourceFile) -> Vec<CallSite> {
    let toks = &file.lex.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != crate::lexer::TokKind::Ident {
            continue;
        }
        // A turbofish (`name::<N>(`) sits between a called name and its
        // argument list.
        let turbofish_end = skip_turbofish(toks, i + 1);
        let args_at = turbofish_end.unwrap_or(i + 1);
        // Method call: `.name(`.
        if i >= 1 && toks[i - 1].is_punct('.') {
            if toks.get(args_at).is_some_and(|x| x.is_punct('(')) {
                out.push(CallSite {
                    name: t.text.clone(),
                    qualifier: None,
                    is_method: true,
                    receiver: receiver_chain(toks, i - 1),
                    tok: i,
                    line: t.line,
                });
            }
            continue;
        }
        // Part of a path: `a::name` — only the *last* segment is the call.
        let qualified = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
        let followed_by_path = turbofish_end.is_none()
            && toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && toks.get(i + 2).is_some_and(|x| x.is_punct(':'));
        if followed_by_path {
            continue; // a qualifier segment, not the called name
        }
        let is_call = toks.get(args_at).is_some_and(|x| x.is_punct('('));
        if qualified {
            // `Qual::name(...)` call, or `Qual::name` function reference
            // (passed to combinators like `unwrap_or_else`). Both create
            // an edge; macro paths (`::name!`) are skipped below.
            if toks.get(i + 1).is_some_and(|x| x.is_punct('!')) {
                continue;
            }
            let qualifier = (i >= 3 && toks[i - 3].kind == crate::lexer::TokKind::Ident)
                .then(|| toks[i - 3].text.clone());
            if NON_CALLS.contains(&t.text.as_str()) {
                continue;
            }
            out.push(CallSite {
                name: t.text.clone(),
                qualifier,
                is_method: false,
                receiver: Vec::new(),
                tok: i,
                line: t.line,
            });
            continue;
        }
        if !is_call {
            continue;
        }
        // Bare call `name(` — not a definition, macro, or keyword form.
        if NON_CALLS.contains(&t.text.as_str()) {
            continue;
        }
        if i >= 1 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct('#')) {
            continue;
        }
        out.push(CallSite {
            name: t.text.clone(),
            qualifier: None,
            is_method: false,
            receiver: Vec::new(),
            tok: i,
            line: t.line,
        });
    }
    out
}

/// The index just past a turbofish `::<...>` starting at `i`, or `None`
/// when none starts there. Nested angle brackets are balanced; the `>` of
/// an `->` inside (`Fn() -> T`) does not close one.
fn skip_turbofish(toks: &[Token], i: usize) -> Option<usize> {
    let opens = toks.get(i).is_some_and(|x| x.is_punct(':'))
        && toks.get(i + 1).is_some_and(|x| x.is_punct(':'))
        && toks.get(i + 2).is_some_and(|x| x.is_punct('<'));
    if !opens {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(i + 2) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !toks[j - 1].is_punct('-') {
            depth -= 1;
            if depth == 0 {
                return Some(j + 1);
            }
        }
    }
    None
}

/// Walks backwards from the `.` of a method call, collecting the chain of
/// receiver idents (`self.state.shards.iter()` → `["self", "state",
/// "shards"]`). Skips over closed `(...)`/`[...]` groups and `?`.
pub(crate) fn receiver_chain(toks: &[Token], dot_idx: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut k = dot_idx;
    loop {
        // k is at a `.`; the element before it is an ident, a closed
        // group, or the end of the chain.
        if k == 0 {
            break;
        }
        let mut j = k - 1;
        // Skip `?` and closed groups backwards.
        loop {
            if toks[j].is_punct('?') && j > 0 {
                j -= 1;
                continue;
            }
            if toks[j].is_punct(')') || toks[j].is_punct(']') {
                let (open, close) = if toks[j].is_punct(')') {
                    ('(', ')')
                } else {
                    ('[', ']')
                };
                let mut depth = 0isize;
                let mut m = j;
                loop {
                    if toks[m].is_punct(close) {
                        depth += 1;
                    } else if toks[m].is_punct(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if m == 0 {
                        return chain;
                    }
                    m -= 1;
                }
                if m == 0 {
                    return chain;
                }
                j = m - 1;
                continue;
            }
            break;
        }
        if toks[j].kind == crate::lexer::TokKind::Ident {
            chain.push(toks[j].text.clone());
            if j >= 1 && toks[j - 1].is_punct('.') {
                k = j - 1;
                continue;
            }
        }
        break;
    }
    chain.reverse();
    chain
}
