//! Workspace discovery and per-file lexing context for the lint pass.
//!
//! The pass scans the *product* crates of the workspace (engine, kernels,
//! data layers, simulator) plus the facade crate's `src/`. The in-repo
//! compat crates (`rand`, `serde`, `proptest`, ...) mirror external
//! libraries and follow their upstream idioms, so they are excluded, as
//! are `tests/`, `benches/` and `examples/` trees (test idiom — `unwrap`,
//! prints — is fine there; `#[cfg(test)]` modules inside scanned files are
//! skipped per rule instead).

use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::lexer::{lex, LexedFile, TokKind};

/// In-repo compatibility crates that mirror external libraries and follow
/// their upstream idioms — excluded from the lint pass. Every name listed
/// here must exist as a workspace member: a stale entry fails the scan
/// loudly instead of silently shrinking coverage.
pub const EXCLUDED_CRATES: &[&str] = &[
    "proptest",
    "rand",
    "rand_chacha",
    "serde",
    "serde_derive",
    "serde_json",
];

/// Discovers the product crates to lint from the workspace `Cargo.toml`
/// members list (globs expanded against `crates/`), minus
/// [`EXCLUDED_CRATES`]. New crates are picked up automatically — PRs 6–8
/// each had to remember to append to a hand-maintained array.
///
/// # Errors
///
/// Fails loudly on drift: an excluded crate that is no longer a member
/// (stale exclude list), an unreadable/parseless manifest, or an empty
/// discovery result.
pub fn product_crates(root: &Path) -> Result<Vec<String>, String> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = fs::read_to_string(&manifest_path)
        .map_err(|e| format!("read {}: {e}", manifest_path.display()))?;
    let members = workspace_members(&manifest)
        .ok_or_else(|| format!("no [workspace] members list in {}", manifest_path.display()))?;

    let mut names: Vec<String> = Vec::new();
    for member in &members {
        if let Some(prefix) = member
            .strip_suffix("/*")
            .or_else(|| member.strip_suffix("/*/"))
        {
            let dir = root.join(prefix);
            let entries = fs::read_dir(&dir).map_err(|e| {
                format!(
                    "expand member glob {member}: read_dir {}: {e}",
                    dir.display()
                )
            })?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
                let path = entry.path();
                if path.is_dir() && path.join("Cargo.toml").is_file() {
                    names.push(entry.file_name().to_string_lossy().into_owned());
                }
            }
        } else if let Some(name) = member.strip_prefix("crates/") {
            names.push(name.to_string());
        }
    }
    names.sort();
    names.dedup();

    for excluded in EXCLUDED_CRATES {
        if !names.iter().any(|n| n == excluded) {
            return Err(format!(
                "excluded crate `{excluded}` is not a workspace member — \
                 EXCLUDED_CRATES has drifted from {}",
                manifest_path.display()
            ));
        }
    }
    names.retain(|n| !EXCLUDED_CRATES.contains(&n.as_str()));
    if names.is_empty() {
        return Err(format!(
            "workspace member discovery found no product crates in {}",
            manifest_path.display()
        ));
    }
    Ok(names)
}

/// The string entries of the `members = [ ... ]` array under
/// `[workspace]`. A deliberately small TOML subset: this repository's own
/// manifest, not arbitrary input.
fn workspace_members(manifest: &str) -> Option<Vec<String>> {
    let ws = manifest.find("[workspace]")?;
    let after = &manifest[ws..];
    let members = after.find("members")?;
    let open = after[members..].find('[')? + members;
    let close = after[open..].find(']')? + open;
    let body = &after[open + 1..close];
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let tail = &rest[q + 1..];
        let end = tail.find('"')?;
        out.push(tail[..end].to_string());
        rest = &tail[end + 1..];
    }
    Some(out)
}

/// The span of one `fn` item (or method) in a file.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token index of the body's opening `{` (body-less signatures get the
    /// index of the terminating `;`).
    pub body_open: usize,
    /// Token index of the body's closing `}` (or the `;`).
    pub body_close: usize,
}

/// One scanned source file with everything rules need.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// The lexed token/comment streams.
    pub lex: LexedFile,
    /// Token-index ranges `[start, end]` covered by `#[cfg(test)]` /
    /// `#[test]` items (inclusive).
    pub test_ranges: Vec<(usize, usize)>,
    /// Every `fn` item span, in source order (nested fns/closures give
    /// nested spans; resolve sites with [`SourceFile::enclosing_fn`]).
    pub fns: Vec<FnSpan>,
    /// Whether the file is a binary root (`src/main.rs`, `src/bin/**`).
    pub is_bin: bool,
}

impl SourceFile {
    /// Whether the token at `idx` falls inside a test item.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| idx >= s && idx <= e)
    }

    /// The innermost `fn` whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| idx >= f.fn_tok && idx <= f.body_close)
            .min_by_key(|f| f.body_close - f.fn_tok)
    }

    /// Whether any comment intersecting lines `[from, to]` contains
    /// `needle` (case-sensitive).
    pub fn comment_contains(&self, from: u32, to: u32, needle: &str) -> bool {
        self.lex
            .comments_in(from, to)
            .any(|c| c.text.contains(needle))
    }

    /// Whether a `// lint: allow(<rule>)` or `// lint: allow(<rule>,
    /// <reason>)` escape covers `line` (same line or up to two lines
    /// above).
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        let bare = format!("lint: allow({rule})");
        let with_reason = format!("lint: allow({rule},");
        self.lex
            .comments_in(line.saturating_sub(2), line)
            .any(|c| c.text.contains(&bare) || c.text.contains(&with_reason))
    }
}

/// The scanned workspace: all lintable files plus cross-file facts.
#[derive(Debug)]
pub struct Workspace {
    /// The workspace root directory.
    pub root: PathBuf,
    /// Product crate names the scan covered (auto-discovered).
    pub crates: Vec<String>,
    /// All scanned files, sorted by path.
    pub files: Vec<SourceFile>,
    /// Variant names of `ix_core::EngineEvent`, parsed from its source.
    pub engine_event_variants: Vec<String>,
    /// Type names with an `impl Drop` anywhere in the scanned files.
    pub drop_types: Vec<String>,
    /// The whole-workspace call graph over the scanned files.
    pub graph: CallGraph,
}

impl Workspace {
    /// Scans the workspace rooted at `root`, discovering the product
    /// crates from the workspace manifest (see [`product_crates`]).
    ///
    /// # Errors
    ///
    /// Returns an error when crate discovery drifts or a crate source
    /// directory cannot be read.
    pub fn scan(root: &Path) -> Result<Workspace, String> {
        let crates = product_crates(root)?;
        let mut paths: Vec<PathBuf> = Vec::new();
        for krate in &crates {
            let src = root.join("crates").join(krate).join("src");
            if src.is_dir() {
                collect_rs(&src, &mut paths)?;
            }
        }
        collect_rs(&root.join("src"), &mut paths)?;
        paths.sort();

        let mut files = Vec::with_capacity(paths.len());
        for path in &paths {
            let source =
                fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
            files.push(build_file(root, path, &source));
        }
        let engine_event_variants = files
            .iter()
            .find(|f| f.rel == "crates/core/src/engine/events.rs")
            .map(|f| enum_variants(f, "EngineEvent"))
            .unwrap_or_default();
        let drop_types = files.iter().flat_map(drop_impl_targets).collect();
        let graph = CallGraph::build(files.iter());
        Ok(Workspace {
            root: root.to_path_buf(),
            crates,
            files,
            engine_event_variants,
            drop_types,
            graph,
        })
    }

    /// Finds the workspace root by walking up from `start` looking for a
    /// `Cargo.toml` declaring `[workspace]`.
    pub fn find_root(start: &Path) -> Option<PathBuf> {
        let mut dir = Some(start.to_path_buf());
        while let Some(d) = dir {
            let manifest = d.join("Cargo.toml");
            if manifest.is_file() {
                if let Ok(text) = fs::read_to_string(&manifest) {
                    if text.contains("[workspace]") {
                        return Some(d);
                    }
                }
            }
            dir = d.parent().map(Path::to_path_buf);
        }
        None
    }

    /// The file whose workspace-relative path is `rel`, if scanned.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Builds the [`SourceFile`] for one path: lex, then derive test-item
/// spans and `fn` spans from the token stream.
pub fn build_file(root: &Path, path: &Path, source: &str) -> SourceFile {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let lexed = lex(source);
    let test_ranges = test_item_ranges(&lexed);
    let fns = fn_spans(&lexed);
    let is_bin = rel.ends_with("src/main.rs") || rel.contains("/src/bin/");
    SourceFile {
        rel,
        lex: lexed,
        test_ranges,
        fns,
        is_bin,
    }
}

/// Token ranges of items annotated `#[cfg(test)]` / `#[test]` /
/// `#[bench]`.
fn test_item_ranges(lexed: &LexedFile) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let attr_start = i;
            let Some(attr_end) = matching(toks, i + 1, '[', ']') else {
                break;
            };
            let body: Vec<&str> = toks[attr_start..=attr_end]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            let is_test_attr = body.first() == Some(&"test")
                || body.first() == Some(&"bench")
                || (body.first() == Some(&"cfg") && body.contains(&"test"));
            if is_test_attr {
                if let Some(end) = item_end(toks, attr_end + 1) {
                    out.push((attr_start, end));
                    i = end + 1;
                    continue;
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// The end (inclusive) of the item starting at `i`: skips further
/// attributes, then runs to the matching `}` of the first brace block, or
/// to the first `;` if one appears before any `{`.
fn item_end(toks: &[crate::lexer::Token], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            i = matching(toks, i + 1, '[', ']')? + 1;
            continue;
        }
        if toks[i].is_punct(';') {
            return Some(i);
        }
        if toks[i].is_punct('{') {
            return matching(toks, i, '{', '}');
        }
        i += 1;
    }
    None
}

/// Index of the closer matching the opener at `open_idx`.
fn matching(
    toks: &[crate::lexer::Token],
    open_idx: usize,
    open: char,
    close: char,
) -> Option<usize> {
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

/// Every `fn` item/method span in the file.
fn fn_spans(lexed: &LexedFile) -> Vec<FnSpan> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue; // `fn(` type position, e.g. `Fn(usize)`.
        }
        // Find the body opener: first `{` before a `;` (trait signatures
        // end at `;`), skipping over parenthesized/bracketed groups and
        // where-clause braces don't exist before the body.
        let mut j = i + 2;
        let mut body = None;
        while let Some(t) = toks.get(j) {
            if t.is_punct('(') || t.is_punct('[') {
                let close = if t.is_punct('(') { ')' } else { ']' };
                let open = if t.is_punct('(') { '(' } else { '[' };
                match matching(toks, j, open, close) {
                    Some(e) => j = e + 1,
                    None => break,
                }
                continue;
            }
            if t.is_punct(';') {
                body = Some((j, j));
                break;
            }
            if t.is_punct('{') {
                let end = matching(toks, j, '{', '}').unwrap_or(toks.len() - 1);
                body = Some((j, end));
                break;
            }
            j += 1;
        }
        if let Some((open, close)) = body {
            out.push(FnSpan {
                name: name_tok.text.clone(),
                line: toks[i].line,
                fn_tok: i,
                body_open: open,
                body_close: close,
            });
        }
    }
    out
}

/// Variant names of `enum <name>` as declared in `file`.
pub fn enum_variants(file: &SourceFile, name: &str) -> Vec<String> {
    let toks = &file.lex.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !(toks[i].is_ident("enum") && toks.get(i + 1).is_some_and(|t| t.is_ident(name))) {
            continue;
        }
        // Skip generics to the body opener.
        let mut j = i + 2;
        while let Some(t) = toks.get(j) {
            if t.is_punct('{') {
                break;
            }
            j += 1;
        }
        let Some(end) = matching(toks, j, '{', '}') else {
            continue;
        };
        // Variants are the depth-1 identifiers that start a variant arm:
        // after `{`, `,` or a closed variant body.
        let mut depth = 0usize;
        let mut expect_variant = true;
        for t in &toks[j..=end] {
            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
                if depth > 1 {
                    expect_variant = false;
                }
                continue;
            }
            if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
                continue;
            }
            if depth == 1 {
                if t.is_punct(',') {
                    expect_variant = true;
                } else if expect_variant && t.kind == TokKind::Ident {
                    out.push(t.text.clone());
                    expect_variant = false;
                }
            }
        }
        break;
    }
    out
}

/// Names `X` of every `impl Drop for X` in `file`.
fn drop_impl_targets(file: &SourceFile) -> Vec<String> {
    let toks = &file.lex.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("impl")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("Drop"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("for"))
        {
            if let Some(t) = toks.get(i + 3) {
                if t.kind == TokKind::Ident {
                    out.push(t.text.clone());
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn file_from(src: &str) -> SourceFile {
        build_file(Path::new("/ws"), Path::new("/ws/crates/x/src/lib.rs"), src)
    }

    #[test]
    fn test_items_are_spanned() {
        let f = file_from(
            "fn live() { x.unwrap(); }\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { y.unwrap(); }\n}\n",
        );
        let unwraps: Vec<bool> = f
            .lex
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| f.in_test(i))
            .collect();
        assert_eq!(unwraps, vec![false, true]);
    }

    #[test]
    fn fn_spans_nest_and_resolve_innermost() {
        let f = file_from("fn outer() {\n    fn inner() { body(); }\n}\n");
        assert_eq!(f.fns.len(), 2);
        let body_idx = f
            .lex
            .tokens
            .iter()
            .position(|t| t.is_ident("body"))
            .unwrap();
        assert_eq!(f.enclosing_fn(body_idx).unwrap().name, "inner");
    }

    #[test]
    fn enum_variants_are_parsed() {
        let f = file_from(
            "pub enum EngineEvent {\n  A { x: u64 },\n  B,\n  C { y: f64, z: bool },\n}\n",
        );
        assert_eq!(enum_variants(&f, "EngineEvent"), vec!["A", "B", "C"]);
    }

    #[test]
    fn drop_targets_are_collected() {
        let f = file_from("impl Drop for Guarded { fn drop(&mut self) {} }");
        assert_eq!(drop_impl_targets(&f), vec!["Guarded"]);
    }

    #[test]
    fn allow_escape_covers_nearby_lines() {
        let f = file_from("// lint: allow(some-rule) reason\nlet x = 1;\n");
        assert!(f.allowed("some-rule", 2));
        assert!(!f.allowed("other-rule", 2));
    }
}
