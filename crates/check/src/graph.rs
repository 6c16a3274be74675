//! Whole-workspace function/method call-graph extraction.
//!
//! This is the deep layer's front end: a lightweight, dependency-free
//! item parser built on the string/comment-aware line classifier of
//! [`crate::lint`] (no `syn` — the workspace builds offline). One pass
//! over each source file produces a [`FnNode`] per function or method
//! with:
//!
//! * its **identity** — file, module path derived from the file's place
//!   in the crate tree, the surrounding `impl`/`trait` type, and name;
//! * its **call sites** — plain calls (`helper(x)`), qualified calls
//!   (`WorkerPool::new(…)`, `sort::depth_key_bits(…)`), and method
//!   calls (`.bin_splats(…)`), each with the source line;
//! * its **effect events** — heap allocation, locking, I/O, determinism
//!   taint sources, panic constructs, slice-indexing sites, and
//!   *uninstrumented unsafe writes* (raw-pointer/shared-memory stores
//!   inside an `unsafe` block that no `race_region!` covers), matched
//!   token-wise against the comment-stripped, literal-blanked code, with
//!   `// gaurast-check: allow(…): reason` escape hatches honored per
//!   line (suppressed events are kept separately so reports can count
//!   them).
//!
//! The parser is deliberately *approximate but conservative*: it tracks
//! brace depth, `mod`/`impl`/`trait` scopes, and nested `fn` items, and
//! attributes every call and event to the innermost enclosing function.
//! Closure bodies therefore belong to the function that defines them —
//! exactly the attribution a transitive analysis wants. Constructs it
//! cannot see (function pointers, trait objects called through
//! `std` combinators) surface as *unresolved calls* in
//! [`crate::resolve`], which the report counts rather than silently
//! drops.
//!
//! `#[cfg(test)]` regions are skipped entirely (the workspace convention
//! puts them last in the file), and only library sources are parsed —
//! `src/` trees, not `tests/`, `examples/`, or `benches/` — so the graph
//! models the shipped pipeline, not its harnesses.

use crate::lint::{
    self, annotated, classify, Line, ALLOW_ALLOC, ALLOW_NONDET, ALLOW_PANIC, ALLOW_RACE, HOT_MARKER,
};
use std::path::Path;

/// Extra allocation tokens the deep layer matches beyond the line lint's
/// [`lint::ALLOC_TOKENS`]: capacity-carrying constructors and thread
/// spawns (a scoped spawn heap-allocates its stack bookkeeping — the
/// per-frame cost ROADMAP item 1 exists to remove).
pub const DEEP_ALLOC_TOKENS: &[&str] = &[
    "Vec::with_capacity",
    "String::with_capacity",
    "HashMap::with_capacity",
    "Arc::new",
    "Rc::new",
    "thread::scope",
    ".spawn(",
];

/// Lock-interaction tokens (the hot path must be lock-free).
pub const LOCK_TOKENS: &[&str] = &[".lock(", "Mutex::new", "RwLock", "Condvar"];

/// I/O tokens (the hot path must not touch files or the console).
pub const IO_TOKENS: &[&str] = &[
    "std::fs",
    "File::",
    "println!",
    "eprintln!",
    "print!(",
    "eprint!(",
    "stdout",
    "stderr",
    "stdin",
];

/// Determinism taint sources beyond the line lint's
/// [`lint::NONDET_TOKENS`]: the default hasher's ambient randomness and
/// thread-count queries (same binary, different machine, different
/// answer).
pub const DEEP_NONDET_TOKENS: &[&str] = &[
    "RandomState",
    "DefaultHasher",
    "HashMap::new",
    "HashSet::new",
    "available_parallelism",
];

/// Panic-construct tokens for the serving panic-freedom rule. Plain
/// `assert!` is deliberately absent: asserts are message-bearing input
/// guards (their hot-loop cost is policed by the line lint's
/// `hot-assert` rule), while these tokens abort on *data* the service
/// cannot validate up front.
pub const PANIC_TOKENS: &[&str] = &[
    ".unwrap(",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Raw-write tokens the unsafe-instrumentation-coverage rule matches
/// inside `unsafe` blocks, beyond plain deref assignments (`*p = v`,
/// `*p += v`, …): mutable-view constructors and the `ptr` write family.
/// A matching line inside an `unsafe` block that no `race_region!`
/// covers becomes an [`EventKind::UnsafeWrite`] event.
pub const RAW_WRITE_TOKENS: &[&str] = &[
    "from_raw_parts_mut",
    "&mut *",
    "ptr::write",
    "write_volatile",
    "write_unaligned",
    "copy_nonoverlapping",
    "copy_from",
    "copy_to",
    "write_bytes",
];

/// What kind of effect an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Heap allocation ([`lint::ALLOC_TOKENS`] + [`DEEP_ALLOC_TOKENS`]).
    Alloc,
    /// Lock interaction ([`LOCK_TOKENS`]).
    Lock,
    /// File/console I/O ([`IO_TOKENS`]).
    Io,
    /// Determinism taint source ([`lint::NONDET_TOKENS`] +
    /// [`DEEP_NONDET_TOKENS`]).
    Nondet,
    /// Panic construct ([`PANIC_TOKENS`]).
    Panic,
    /// Slice/array indexing (`xs[i]`) — panics when out of bounds.
    Index,
    /// A raw-pointer/shared-memory write inside an `unsafe` block that no
    /// `race_region!` lexically covers ([`RAW_WRITE_TOKENS`] + deref
    /// assignments). Covered writes produce no event — the shadow race
    /// detector sees their registered ranges instead.
    UnsafeWrite,
}

impl EventKind {
    /// Stable lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Alloc => "alloc",
            EventKind::Lock => "lock",
            EventKind::Io => "io",
            EventKind::Nondet => "nondet",
            EventKind::Panic => "panic",
            EventKind::Index => "index",
            EventKind::UnsafeWrite => "unsafe-write",
        }
    }
}

/// One effect occurrence inside a function body.
#[derive(Clone, Debug)]
pub struct Event {
    /// Effect class.
    pub kind: EventKind,
    /// The matched token (`Vec::new`, `Instant::now`, `.expect(`, …);
    /// `[…]` for indexing sites.
    pub token: String,
    /// 1-based source line.
    pub line: usize,
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(…)` — a free function in scope.
    Plain,
    /// `Qualifier::name(…)` — the last path segment before the name.
    Qualified(String),
    /// `.name(…)` — a method on an inferred receiver.
    Method,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Resolution shape of the site.
    pub kind: CallKind,
    /// Callee name as written.
    pub name: String,
    /// 1-based source line.
    pub line: usize,
}

/// One function or method in the workspace call graph.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// Crate key — the directory name under `crates/` (`render`, `core`,
    /// …) or `"."` for the workspace-root facade crate.
    pub krate: String,
    /// Module path derived from the file path (`render::tile`).
    pub module: String,
    /// Surrounding `impl`/`trait` type, when the item is a method.
    pub owner: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` signature.
    pub line: usize,
    /// `true` when `// gaurast-check: hot-path` sits directly above the
    /// signature — the hot-purity analysis roots.
    pub hot_marker: bool,
    /// Names callable locally without naming a workspace function: the
    /// function's own parameters (callback invocations like `f(i)`),
    /// `let`-bound names (calling one is a value call through a closure
    /// or fn pointer), and the parameters of `let`-bound closure
    /// literals. The resolver treats a plain call to one of these as
    /// local — a closure's body events are already attributed to the
    /// node that defines it.
    pub locals: Vec<String>,
    /// Call sites in the body, innermost-function attribution.
    pub calls: Vec<Call>,
    /// Effect events in the body (escape-hatched lines excluded).
    pub events: Vec<Event>,
    /// Events suppressed by an adjacent `allow(…)` annotation — counted
    /// in reports so escapes stay visible.
    pub suppressed: Vec<Event>,
}

impl FnNode {
    /// Human-readable node id: `module::Type::name` / `module::name`.
    pub fn id(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{}::{}::{}", self.module, owner, self.name),
            None => format!("{}::{}", self.module, self.name),
        }
    }
}

/// The whole-workspace call graph: every function of every `src/` tree
/// (the checker's own crate excluded — it is host tooling, not pipeline
/// code, and `gaurast-render` depends on it only for the model-check
/// shadow primitives).
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Every parsed function, in file order.
    pub nodes: Vec<FnNode>,
    /// Number of files parsed.
    pub files: usize,
}

impl CallGraph {
    /// Builds the graph from every library source under `root` in one
    /// pass, using the same tree walk as the lint layer.
    ///
    /// # Errors
    /// Propagates I/O errors from the tree walk; parse irregularities are
    /// not errors (they surface as unresolved calls downstream).
    pub fn build(root: &Path) -> std::io::Result<Self> {
        let sources = lint::workspace_sources(root)?;
        let mut graph = CallGraph::default();
        for (rel, content) in &sources {
            if !in_graph(rel) {
                continue;
            }
            graph.files += 1;
            parse_file(rel, content, &mut graph.nodes);
        }
        Ok(graph)
    }

    /// Indices of the nodes carrying the hot-path marker.
    pub fn hot_roots(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].hot_marker)
            .collect()
    }
}

/// `true` for files the graph models: `src/` trees of workspace crates
/// plus the root facade, excluding the checker itself.
fn in_graph(rel: &str) -> bool {
    if rel.starts_with("crates/check/") {
        return false;
    }
    rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))
}

/// Crate key and module path for a repo-relative file path.
fn module_of(rel: &str) -> (String, String) {
    let (krate, tail) = match rel.strip_prefix("crates/") {
        Some(rest) => {
            let (krate, tail) = rest.split_once('/').unwrap_or((rest, ""));
            (krate.to_string(), tail.strip_prefix("src/").unwrap_or(tail))
        }
        None => (".".to_string(), rel.strip_prefix("src/").unwrap_or(rel)),
    };
    let mut segments: Vec<&str> = vec![&krate];
    for seg in tail.split('/') {
        let seg = seg.strip_suffix(".rs").unwrap_or(seg);
        if !seg.is_empty() && seg != "lib" && seg != "mod" && seg != "main" {
            segments.push(seg);
        }
    }
    (krate.clone(), segments.join("::"))
}

/// A source token: an identifier or a single punctuation character.
#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
}

/// Tokenizes classified code lines into `(token, 0-based line)` pairs.
fn tokenize(lines: &[Line]) -> Vec<(Tok, usize)> {
    let mut toks = Vec::new();
    for (ln, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push((Tok::Ident(chars[start..i].iter().collect()), ln));
            } else {
                if !c.is_whitespace() {
                    toks.push((Tok::Punct(c), ln));
                }
                i += 1;
            }
        }
    }
    toks
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "fn", "where", "impl",
    "let", "else", "unsafe", "dyn", "ref", "mut", "box", "await", "static", "Some", "None", "Ok",
    "Err",
];

/// Keywords that precede `[` without forming an indexing site.
const INDEX_KEYWORD_PREV: &[&str] = &["mut", "dyn", "in", "as", "return", "else"];

/// Parses one file's functions into `out`. Crate-visible so the resolver
/// and the deep rules can build graphs over fixture sources in tests.
pub(crate) fn parse_file(rel: &str, content: &str, out: &mut Vec<FnNode>) {
    let all_lines = classify(content);
    let end = lint::test_region_start(&all_lines);
    let lines = &all_lines[..end];
    let (krate, module) = module_of(rel);
    let toks = tokenize(lines);

    // Scope tracking: each entry is (brace depth *after* opening, kind).
    #[derive(Clone, Copy, Debug)]
    enum Scope {
        Mod,
        Owner,
        Fn { node: usize },
        Other,
    }
    let mut scopes: Vec<Scope> = Vec::new();
    let mut mods: Vec<String> = Vec::new();
    let mut owners: Vec<String> = Vec::new();
    let mut fn_stack: Vec<usize> = Vec::new();
    // Body line ranges, parallel to the nodes appended by this file, used
    // for innermost-function event attribution below.
    let mut ranges: Vec<(usize, usize, usize)> = Vec::new(); // (node, start, end)
                                                             // Lexical block spans (0-based inclusive line ranges) for the
                                                             // unsafe-write scan: `unsafe { … }` blocks, and the brace bodies of
                                                             // `race_region!(…, { … })` invocations. Open entries carry the scope
                                                             // depth at which their `{` pushed, so the matching `}` closes them.
    let mut pending_region = false;
    let mut unsafe_open: Vec<(usize, usize)> = Vec::new(); // (depth, open line)
    let mut region_open: Vec<(usize, usize)> = Vec::new();
    let mut unsafe_spans: Vec<(usize, usize)> = Vec::new();
    let mut region_spans: Vec<(usize, usize)> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        match &toks[i].0 {
            Tok::Ident(kw) if kw == "macro_rules" => {
                // Macro bodies are token soup, not items: parsing them
                // would mint phantom nodes (`impl Index for $name` →
                // owner "name"). Skip to the matching close brace.
                let mut j = i + 1;
                while j < toks.len() && toks[j].0 != Tok::Punct('{') {
                    j += 1;
                }
                let mut depth = 0i32;
                while j < toks.len() {
                    match toks[j].0 {
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
            }
            Tok::Ident(kw) if kw == "mod" => {
                // `mod name {` opens an inline module; `mod name;` is a
                // file module (its items are parsed from their own file).
                if let Some((Tok::Ident(name), _)) = toks.get(i + 1).map(|t| (&t.0, t.1)) {
                    if matches!(toks.get(i + 2).map(|t| &t.0), Some(Tok::Punct('{'))) {
                        scopes.push(Scope::Mod);
                        mods.push(name.clone());
                        i += 3;
                        continue;
                    }
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                // Scan to the opening brace (or `;` for a bare
                // `trait X;`-like form), capturing the implemented-on type:
                // the last angle-depth-0 identifier before the brace, with
                // `for` resetting the capture and `where` ending it.
                let mut j = i + 1;
                let mut angle = 0i32;
                let mut ty: Option<String> = None;
                let mut capture = true;
                while j < toks.len() {
                    match &toks[j].0 {
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>') => angle -= 1,
                        Tok::Punct('{') if angle <= 0 => break,
                        Tok::Punct(';') if angle <= 0 => break,
                        Tok::Ident(w) if angle <= 0 => {
                            if w == "where" {
                                capture = false;
                            } else if w == "for" {
                                ty = None;
                            } else if capture && w != "dyn" && w != "mut" && w != "const" {
                                ty = Some(w.clone());
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j < toks.len() && toks[j].0 == Tok::Punct('{') {
                    scopes.push(Scope::Owner);
                    owners.push(ty.unwrap_or_default());
                }
                i = j + 1;
            }
            Tok::Ident(kw) if kw == "fn" => {
                let Some((Tok::Ident(name), sig_line)) = toks.get(i + 1).map(|t| (&t.0, t.1))
                else {
                    i += 1;
                    continue;
                };
                let name = name.clone();
                // Scan past the signature (parameters, return type, where
                // clause) to the body brace or a `;` declaration, capturing
                // parameter names (ident directly before `:` at the
                // top parameter depth) for callback-call resolution.
                let mut j = i + 2;
                let mut paren = 0i32;
                let mut bracket = 0i32;
                let mut params: Vec<String> = Vec::new();
                while j < toks.len() {
                    match &toks[j].0 {
                        Tok::Punct('(') => paren += 1,
                        Tok::Punct(')') => paren -= 1,
                        // Array types in the signature (`-> [f64; 7]`)
                        // carry a `;` that must not read as a
                        // declaration's end.
                        Tok::Punct('[') => bracket += 1,
                        Tok::Punct(']') => bracket -= 1,
                        Tok::Punct('{') if paren == 0 => break,
                        Tok::Punct(';') if paren == 0 && bracket == 0 => break,
                        // `name :` introduces a parameter; `a::b` path
                        // segments inside types are skipped (`:` on either
                        // side).
                        Tok::Ident(w)
                            if paren == 1
                                && w != "self"
                                && matches!(
                                    toks.get(j + 1).map(|t| &t.0),
                                    Some(Tok::Punct(':'))
                                )
                                && !matches!(
                                    toks.get(j + 2).map(|t| &t.0),
                                    Some(Tok::Punct(':'))
                                )
                                && !matches!(
                                    j.checked_sub(1).map(|p| &toks[p].0),
                                    Some(Tok::Punct(':'))
                                ) =>
                        {
                            params.push(w.clone());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j < toks.len() && toks[j].0 == Tok::Punct('{') {
                    let owner = owners.last().cloned().filter(|o| !o.is_empty());
                    let module = if mods.is_empty() {
                        module.clone()
                    } else {
                        format!("{module}::{}", mods.join("::"))
                    };
                    let node = out.len();
                    out.push(FnNode {
                        file: rel.to_string(),
                        krate: krate.clone(),
                        module,
                        owner,
                        name,
                        line: sig_line + 1,
                        hot_marker: annotated(lines, sig_line, HOT_MARKER),
                        locals: params,
                        calls: Vec::new(),
                        events: Vec::new(),
                        suppressed: Vec::new(),
                    });
                    scopes.push(Scope::Fn { node });
                    fn_stack.push(node);
                    ranges.push((node, toks[j].1, toks[j].1));
                    i = j + 1;
                } else {
                    i = j + 1;
                }
            }
            Tok::Ident(kw) if kw == "race_region" => {
                // `race_region!(label, { … })` — the next brace opens the
                // instrumented body (the label is a blanked string
                // literal, so no `{` intervenes).
                if matches!(toks.get(i + 1).map(|t| &t.0), Some(Tok::Punct('!'))) {
                    pending_region = true;
                }
                i += 1;
            }
            Tok::Punct('{') => {
                scopes.push(Scope::Other);
                let depth = scopes.len();
                if matches!(
                    i.checked_sub(1).map(|p| &toks[p].0),
                    Some(Tok::Ident(w)) if w == "unsafe"
                ) {
                    unsafe_open.push((depth, toks[i].1));
                }
                if pending_region {
                    region_open.push((depth, toks[i].1));
                    pending_region = false;
                }
                i += 1;
            }
            Tok::Punct('}') => {
                let depth = scopes.len();
                if unsafe_open.last().is_some_and(|&(d, _)| d == depth) {
                    let (_, start) = unsafe_open.pop().unwrap();
                    unsafe_spans.push((start, toks[i].1));
                }
                if region_open.last().is_some_and(|&(d, _)| d == depth) {
                    let (_, start) = region_open.pop().unwrap();
                    region_spans.push((start, toks[i].1));
                }
                match scopes.pop() {
                    Some(Scope::Mod) => {
                        mods.pop();
                    }
                    Some(Scope::Owner) => {
                        owners.pop();
                    }
                    Some(Scope::Fn { node }) => {
                        fn_stack.pop();
                        if let Some(r) = ranges.iter_mut().find(|r| r.0 == node) {
                            r.2 = toks[i].1;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            Tok::Punct('[') => {
                // Indexing site: `xs[…]`, `f(x)[…]`, `a[i][j]` — but not
                // attributes (`#[…]`), types (`&mut [T]`), array literals,
                // or macro brackets (`vec![…]`).
                if let Some(node) = fn_stack.last().copied() {
                    let is_ident_prev = matches!(
                        i.checked_sub(1).map(|p| &toks[p].0),
                        Some(Tok::Ident(w)) if !INDEX_KEYWORD_PREV.contains(&w.as_str())
                    );
                    let is_postfix_prev = matches!(
                        i.checked_sub(1).map(|p| &toks[p].0),
                        Some(Tok::Punct(')') | Tok::Punct(']'))
                    );
                    let macro_or_attr = i >= 2
                        && matches!(&toks[i - 1].0, Tok::Ident(_))
                        && matches!(toks[i - 2].0, Tok::Punct('#') | Tok::Punct('!'));
                    if (is_ident_prev && !macro_or_attr) || is_postfix_prev {
                        let ln = toks[i].1;
                        let ev = Event {
                            kind: EventKind::Index,
                            token: "[…]".to_string(),
                            line: ln + 1,
                        };
                        if annotated(lines, ln, ALLOW_PANIC) {
                            out[node].suppressed.push(ev);
                        } else {
                            out[node].events.push(ev);
                        }
                    }
                }
                i += 1;
            }
            Tok::Punct('(') => {
                // A call site: the token before `(` is an identifier that
                // is not a keyword, not a macro name (`name!(`), and not a
                // function definition (handled above).
                if let (Some(node), Some(prev)) = (fn_stack.last().copied(), i.checked_sub(1)) {
                    if let Tok::Ident(name) = &toks[prev].0 {
                        let is_macro = i >= 2 && toks[prev - 1].0 == Tok::Punct('!');
                        let is_def = i >= 2 && toks[prev - 1].0 == Tok::Ident("fn".to_string());
                        // `#[cfg(…)]` / `#![allow(…)]` heads are
                        // attributes, not calls.
                        let is_attr = prev >= 2
                            && toks[prev - 1].0 == Tok::Punct('[')
                            && (toks[prev - 2].0 == Tok::Punct('#')
                                || (prev >= 3
                                    && toks[prev - 2].0 == Tok::Punct('!')
                                    && toks[prev - 3].0 == Tok::Punct('#')));
                        if !CALL_KEYWORDS.contains(&name.as_str())
                            && !is_macro
                            && !is_def
                            && !is_attr
                        {
                            let kind = call_kind(&toks, prev);
                            out[node].calls.push(Call {
                                kind,
                                name: name.clone(),
                                line: toks[prev].1 + 1,
                            });
                        }
                    }
                }
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }

    // A parse irregularity that leaves an `unsafe` block open reads as
    // unsafe-to-EOF (conservative: more lines scanned, never fewer); an
    // unclosed region grants no coverage.
    for (_, start) in unsafe_open {
        unsafe_spans.push((start, lines.len().saturating_sub(1)));
    }

    // Effect events, attributed to the innermost function whose body
    // range contains the line (closures included; nested fns excluded
    // from their parent).
    for ln in 0..lines.len() {
        let Some(&(node, _, _)) = ranges
            .iter()
            .filter(|&&(_, s, e)| s <= ln && ln <= e)
            .min_by_key(|&&(_, s, e)| e - s)
        else {
            continue;
        };
        scan_line_events(lines, ln, node, out);
        let_bindings(&lines[ln].code, &mut out[node].locals);
        let in_unsafe = unsafe_spans.iter().any(|&(s, e)| s <= ln && ln <= e);
        let in_region = region_spans.iter().any(|&(s, e)| s <= ln && ln <= e);
        if in_unsafe && !in_region {
            if let Some(token) = raw_write_token(&lines[ln].code) {
                let ev = Event {
                    kind: EventKind::UnsafeWrite,
                    token: token.to_string(),
                    line: ln + 1,
                };
                if annotated(lines, ln, ALLOW_RACE) {
                    out[node].suppressed.push(ev);
                } else {
                    out[node].events.push(ev);
                }
            }
        }
    }
}

/// Collects locally-bound names from a `let` statement into `locals`:
/// every identifier on the pattern side (simple bindings and tuple
/// destructurings alike — a call through any of them is a value call, not
/// a workspace-function call), and, when the bound value is a closure
/// literal, the closure's own parameter names (its body's call sites
/// belong to the enclosing function, so `f(i)` inside it must resolve
/// locally too).
fn let_bindings(code: &str, locals: &mut Vec<String>) {
    let Some(at) = find_word(code, "let") else {
        return;
    };
    let rest = &code[at + 3..];
    // Pattern side: up to the `=` (assignment) or `:` (type ascription),
    // whichever comes first.
    let pat_end = rest.find(['=', ':']).unwrap_or(rest.len());
    push_idents(&rest[..pat_end], locals);
    // Closure value: `= |…|` or `= move |…|` — the first pipe pair holds
    // the parameter list (rustfmt keeps the head on one line).
    let Some(eq) = rest.find('=') else {
        return;
    };
    let value = rest[eq + 1..].trim_start();
    let value = value
        .strip_prefix("move")
        .map(str::trim_start)
        .unwrap_or(value);
    if let Some(head) = value.strip_prefix('|') {
        if let Some(close) = head.find('|') {
            // Only parameter-position identifiers: followed by `:`, `,`,
            // or the closing pipe — not type names inside annotations.
            let params = &head[..close];
            for (word, next) in words_with_next(params) {
                if matches!(next, Some(':' | ',') | None) {
                    locals.push(word.to_string());
                }
            }
        }
    }
}

/// Start of `word` in `code` with identifier boundaries on both sides.
fn find_word(code: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let at = from + rel;
        let ok_left = !code[..at]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let ok_right = !code[at + word.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if ok_left && ok_right {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

/// Identifiers in `s` (keywords and `_` excluded), each paired with the
/// first non-whitespace character following it.
fn words_with_next(s: &str) -> Vec<(&str, Option<char>)> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < bytes.len() && ((bytes[i] as char).is_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &s[start..i];
            let next = s[i..].chars().find(|c| !c.is_whitespace());
            if word != "_" && word != "mut" && word != "ref" {
                out.push((word, next));
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Pushes each identifier in `pattern` (skipping `mut`/`ref`/`_`) onto
/// `locals`.
fn push_idents(pattern: &str, locals: &mut Vec<String>) {
    for (word, _) in words_with_next(pattern) {
        locals.push(word.to_string());
    }
}

/// Matches one classified code line against the raw-write vocabulary:
/// [`RAW_WRITE_TOKENS`], or a statement-leading deref assignment
/// (`*p = v` and the compound forms — rustfmt puts one statement per
/// line, so the leading `*` identifies the store).
fn raw_write_token(code: &str) -> Option<&'static str> {
    for &t in RAW_WRITE_TOKENS {
        if code.contains(t) {
            return Some(t);
        }
    }
    let trimmed = code.trim_start();
    let trimmed = trimmed
        .strip_prefix("unsafe {")
        .map(str::trim_start)
        .unwrap_or(trimmed);
    if trimmed.starts_with('*') {
        for op in [" = ", " += ", " -= ", " |= ", " &= ", " ^= "] {
            if trimmed.contains(op) {
                return Some("*… = …");
            }
        }
    }
    None
}

/// Classifies the call at token index `at` (the callee identifier).
fn call_kind(toks: &[(Tok, usize)], at: usize) -> CallKind {
    if at >= 1 {
        if toks[at - 1].0 == Tok::Punct('.') {
            return CallKind::Method;
        }
        if at >= 3 && toks[at - 1].0 == Tok::Punct(':') && toks[at - 2].0 == Tok::Punct(':') {
            if let Tok::Ident(q) = &toks[at - 3].0 {
                return CallKind::Qualified(q.clone());
            }
        }
    }
    CallKind::Plain
}

/// Matches one line's code against every effect-token table and pushes
/// the events (or suppressed events, per the line's annotations) onto
/// node `node`.
fn scan_line_events(lines: &[Line], ln: usize, node: usize, out: &mut [FnNode]) {
    let code = &lines[ln].code;
    let push = |kind: EventKind, token: &str, allow: &str, out: &mut [FnNode]| {
        let ev = Event {
            kind,
            token: token.to_string(),
            line: ln + 1,
        };
        if annotated(lines, ln, allow) {
            out[node].suppressed.push(ev);
        } else {
            out[node].events.push(ev);
        }
    };
    for &t in lint::ALLOC_TOKENS.iter().chain(DEEP_ALLOC_TOKENS) {
        if code.contains(t) {
            push(EventKind::Alloc, t, ALLOW_ALLOC, out);
        }
    }
    for &t in LOCK_TOKENS {
        if code.contains(t) {
            push(EventKind::Lock, t, ALLOW_ALLOC, out);
        }
    }
    for &t in IO_TOKENS {
        if code.contains(t) {
            push(EventKind::Io, t, ALLOW_ALLOC, out);
        }
    }
    for &t in lint::NONDET_TOKENS.iter().chain(DEEP_NONDET_TOKENS) {
        if code.contains(t) {
            push(EventKind::Nondet, t, ALLOW_NONDET, out);
        }
    }
    for &t in PANIC_TOKENS {
        if has_panic_token(code, t) {
            push(EventKind::Panic, t, ALLOW_PANIC, out);
        }
    }
}

/// `true` when `code` contains panic token `t`, with `debug_assert!`
/// variants of the bang macros excluded by the token list itself (none of
/// the tokens is a substring of a `debug_…` form).
fn has_panic_token(code: &str, t: &str) -> bool {
    if let Some(bare) = t.strip_suffix('!') {
        // Bang macros must not match a prefixed identifier
        // (`my_unreachable!`).
        let mut from = 0;
        while let Some(rel) = code[from..].find(t) {
            let at = from + rel;
            let prefixed = code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if !prefixed {
                return true;
            }
            from = at + bare.len();
        }
        false
    } else {
        code.contains(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<FnNode> {
        let mut out = Vec::new();
        parse_file("crates/render/src/tile.rs", src, &mut out);
        out
    }

    #[test]
    fn functions_methods_and_modules_are_identified() {
        let src = "\
pub fn free() {}
impl Widget {
    pub fn method(&self) {}
}
impl Display for Gauge {
    fn fmt(&self, f: &mut Formatter<'_>) -> Result {}
}
mod inner {
    fn nested_mod_fn() {}
}
";
        let nodes = parse(src);
        let ids: Vec<String> = nodes.iter().map(FnNode::id).collect();
        assert_eq!(
            ids,
            [
                "render::tile::free",
                "render::tile::Widget::method",
                "render::tile::Gauge::fmt",
                "render::tile::inner::nested_mod_fn",
            ]
        );
        assert_eq!(nodes[0].krate, "render");
    }

    #[test]
    fn calls_are_classified_and_attributed() {
        let src = "\
fn caller() {
    helper(1);
    sort::depth_key_bits(d);
    WorkerPool::new();
    pool.run(3, |i| inner_in_closure(i));
}
fn helper(_x: u32) {}
";
        let nodes = parse(src);
        let calls = &nodes[0].calls;
        let shapes: Vec<(String, CallKind)> = calls
            .iter()
            .map(|c| (c.name.clone(), c.kind.clone()))
            .collect();
        assert!(shapes.contains(&("helper".into(), CallKind::Plain)));
        assert!(shapes.contains(&("depth_key_bits".into(), CallKind::Qualified("sort".into()))));
        assert!(shapes.contains(&("new".into(), CallKind::Qualified("WorkerPool".into()))));
        assert!(shapes.contains(&("run".into(), CallKind::Method)));
        // The closure body's call belongs to `caller`, not a phantom node.
        assert!(shapes.contains(&("inner_in_closure".into(), CallKind::Plain)));
        assert!(nodes[1].calls.is_empty());
    }

    #[test]
    fn events_are_detected_and_escape_hatched() {
        let src = "\
fn noisy() {
    let v = Vec::new();
    let t = Instant::now();
    let g = m.lock();
    x.unwrap();
    // gaurast-check: allow(alloc): fixture reason
    let w = Vec::new();
}
";
        let nodes = parse(src);
        let kinds: Vec<EventKind> = nodes[0].events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Alloc));
        assert!(kinds.contains(&EventKind::Nondet));
        assert!(kinds.contains(&EventKind::Lock));
        assert!(kinds.contains(&EventKind::Panic));
        assert_eq!(
            nodes[0]
                .suppressed
                .iter()
                .filter(|e| e.kind == EventKind::Alloc)
                .count(),
            1
        );
    }

    #[test]
    fn indexing_sites_are_events_but_attributes_are_not() {
        let src = "\
#[derive(Debug)]
fn f(xs: &[u32], i: usize) -> u32 {
    let a: &mut [u32] = other;
    let v = vec![0; 4];
    xs[i]
}
";
        let nodes = parse(src);
        let idx: Vec<&Event> = nodes[0]
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Index)
            .collect();
        assert_eq!(idx.len(), 1, "{:?}", nodes[0].events);
        assert_eq!(idx[0].line, 5);
    }

    #[test]
    fn nested_fn_events_do_not_leak_to_parent() {
        let src = "\
fn outer() {
    fn inner() {
        let v = Vec::new();
    }
    inner();
}
";
        let nodes = parse(src);
        let outer = nodes.iter().find(|n| n.name == "outer").unwrap();
        let inner = nodes.iter().find(|n| n.name == "inner").unwrap();
        assert!(outer.events.iter().all(|e| e.kind != EventKind::Alloc));
        assert!(inner.events.iter().any(|e| e.kind == EventKind::Alloc));
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn hot_marker_is_read_from_the_comment_block() {
        let src = "\
// gaurast-check: hot-path
pub fn hot() {}
pub fn cold() {}
";
        let nodes = parse(src);
        assert!(nodes[0].hot_marker);
        assert!(!nodes[1].hot_marker);
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    fn t() { Vec::new(); }
}
";
        let nodes = parse(src);
        assert_eq!(nodes.len(), 1);
        assert_eq!(nodes[0].name, "prod");
    }

    #[test]
    fn uncovered_unsafe_writes_are_events() {
        let src = "\
fn scatter(out: *mut u32, i: usize, v: u32) {
    unsafe {
        *out.add(i) = v;
    }
}
";
        let nodes = parse(src);
        let ev: Vec<&Event> = nodes[0]
            .events
            .iter()
            .filter(|e| e.kind == EventKind::UnsafeWrite)
            .collect();
        assert_eq!(ev.len(), 1, "{:?}", nodes[0].events);
        assert_eq!(ev[0].line, 3);
        assert_eq!(ev[0].token, "*… = …");
    }

    #[test]
    fn race_region_covers_unsafe_writes() {
        let src = "\
fn scatter(out: *mut u32, i: usize, v: u32) {
    crate::race_region!(\"slot\", {
        crate::race_write!(out.wrapping_add(i), 1);
        unsafe {
            *out.add(i) = v;
        }
    });
}
";
        let nodes = parse(src);
        assert!(
            nodes[0]
                .events
                .iter()
                .all(|e| e.kind != EventKind::UnsafeWrite),
            "{:?}",
            nodes[0].events
        );
    }

    #[test]
    fn allow_race_suppresses_but_is_counted() {
        let src = "\
fn handout(&self, i: usize) -> &mut u32 {
    // gaurast-check: allow(race): range registered at every call site
    unsafe { &mut *self.slots[i].get() }
}
";
        let nodes = parse(src);
        assert!(
            nodes[0]
                .events
                .iter()
                .all(|e| e.kind != EventKind::UnsafeWrite),
            "{:?}",
            nodes[0].events
        );
        assert_eq!(
            nodes[0]
                .suppressed
                .iter()
                .filter(|e| e.kind == EventKind::UnsafeWrite)
                .count(),
            1
        );
    }

    #[test]
    fn mutable_view_constructors_match_inside_unsafe() {
        let src = "\
fn rows(out: *mut u32, n: usize) {
    unsafe {
        let s = std::slice::from_raw_parts_mut(out, n);
        s.fill(0);
    }
}
";
        let nodes = parse(src);
        let ev: Vec<&Event> = nodes[0]
            .events
            .iter()
            .filter(|e| e.kind == EventKind::UnsafeWrite)
            .collect();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].token, "from_raw_parts_mut");
    }

    #[test]
    fn safe_code_and_unsafe_reads_are_not_write_events() {
        let src = "\
fn safe_assign(x: &mut u32, v: u32) {
    *x = v;
}
fn unsafe_read(p: *const u32) -> u32 {
    unsafe { *p }
}
";
        let nodes = parse(src);
        for n in &nodes {
            assert!(
                n.events.iter().all(|e| e.kind != EventKind::UnsafeWrite),
                "{}: {:?}",
                n.name,
                n.events
            );
        }
    }

    #[test]
    fn single_line_unsafe_deref_write_matches() {
        let src = "\
fn store(&self, c: usize, n: usize) {
    *unsafe { self.counts.slot(c) } = n;
}
";
        let nodes = parse(src);
        assert_eq!(
            nodes[0]
                .events
                .iter()
                .filter(|e| e.kind == EventKind::UnsafeWrite)
                .count(),
            1
        );
    }

    #[test]
    fn module_paths_from_file_layout() {
        assert_eq!(
            module_of("crates/render/src/tile.rs"),
            ("render".into(), "render::tile".into())
        );
        assert_eq!(
            module_of("crates/core/src/service/mod.rs"),
            ("core".into(), "core::service".into())
        );
        assert_eq!(module_of("src/lib.rs"), (".".into(), ".".into()));
    }
}
