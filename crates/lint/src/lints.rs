//! The lint catalog and the per-file lint driver.
//!
//! Every lint is a heuristic over the token stream of one file — no type
//! information, no crates.io parser. The heuristics are tuned to the
//! workspace's own idioms (see ARCHITECTURE.md "Static analysis"): they
//! track which local names are *hash-bound* (declared or initialized as
//! `HashMap`/`HashSet`) and which are *float-bound*, and they scope
//! path-dependent lints by the crate a file belongs to. A finding that is
//! genuinely fine is opted out in place with a justified
//! `// rtlint: allow(<ID>) -- <why>` (see [`crate::directives`]).

use crate::directives::{collect_directives, fixture_path, Directive};
use crate::lexer::{tokenize, TokKind, Token};

/// How bad a finding is. Errors always fail the run; warnings fail it under
/// `--deny-warnings` (which CI passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails only under `--deny-warnings`.
    Warning,
    /// Always fails the run.
    Error,
}

impl Severity {
    /// Lowercase label used in diagnostics and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One catalog entry — what `rt-lint --list` prints.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Stable ID (`D001` … `U001`).
    pub id: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// Where the lint applies.
    pub scope: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Crates whose results feed the bit-identity contract; D001/D002/D004
/// apply here.
pub const DETERMINISM_CRATES: &[&str] = &["core", "relation", "constraints", "graph", "engine"];

/// The full lint catalog, in ID order.
pub const CATALOG: &[LintInfo] = &[
    LintInfo {
        id: "D001",
        severity: Severity::Error,
        scope: "crates: core, relation, constraints, graph, engine",
        summary: "unordered iteration over a HashMap/HashSet (hash order is not deterministic)",
    },
    LintInfo {
        id: "D002",
        severity: Severity::Error,
        scope: "crates: core, relation, constraints, graph, engine",
        summary:
            "float accumulation over a hash-ordered iterator (f64 addition is not associative)",
    },
    LintInfo {
        id: "D003",
        severity: Severity::Error,
        scope: "everywhere except crates/bench, shims/, crates/lint",
        summary: "wall-clock reads (Instant::now/SystemTime) outside the bench/shim layers",
    },
    LintInfo {
        id: "D004",
        severity: Severity::Warning,
        scope: "crates: core, relation, constraints, graph, engine",
        summary: "direct DefaultHasher/RandomState use bypassing the rt-relation::work counters",
    },
    LintInfo {
        id: "D005",
        severity: Severity::Warning,
        scope: "everywhere",
        summary: "call to a removed pre-engine free function",
    },
    LintInfo {
        id: "D006",
        severity: Severity::Warning,
        scope: "crates/engine (the typed-EngineError boundary)",
        summary: "unwrap()/expect() in rt-engine non-test code",
    },
    LintInfo {
        id: "D007",
        severity: Severity::Warning,
        scope: "crates/server (the durability path)",
        summary: "direct fs::rename/File::create outside the atomic-rotation helper",
    },
    LintInfo {
        id: "A001",
        severity: Severity::Error,
        scope: "everywhere",
        summary: "malformed rtlint directive",
    },
    LintInfo {
        id: "A002",
        severity: Severity::Error,
        scope: "everywhere",
        summary: "rtlint allow without a `-- justification`",
    },
    LintInfo {
        id: "U001",
        severity: Severity::Warning,
        scope: "everywhere",
        summary: "rtlint allow that suppressed nothing",
    },
];

/// Looks up a catalog entry by ID.
pub fn lint_info(id: &str) -> Option<&'static LintInfo> {
    CATALOG.iter().find(|l| l.id == id)
}

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Lint ID.
    pub id: &'static str,
    /// Severity (from the catalog).
    pub severity: Severity,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// What is wrong.
    pub message: String,
    /// How to fix (or how to justify).
    pub hint: String,
}

/// Methods whose result order is the hash map's internal order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// The removed pre-engine free functions (deprecated in PR 2, deleted with
/// the service layer); D005 flags any call, keeping the surface from
/// creeping back.
const DEPRECATED_FNS: &[&str] = &[
    "repair_data_fds",
    "repair_data_fds_relative",
    "find_repairs_range",
    "find_repairs_sampling",
    "modify_fds_astar",
    "modify_fds_best_first",
];

/// Which workspace crate a repo-relative path belongs to, for lint scoping.
fn crate_of(path: &str) -> &str {
    let path = path.strip_prefix("./").unwrap_or(path);
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("")
    } else if path.starts_with("shims/") {
        "shims"
    } else if path.starts_with("src/") {
        "root"
    } else if path.starts_with("tests/") {
        "tests"
    } else if path.starts_with("examples/") {
        "examples"
    } else {
        ""
    }
}

/// Lints one file. `path` is the repo-relative path used both for
/// diagnostics and (unless the file carries a `rtlint-fixture:` header
/// naming a virtual path) for lint scoping.
pub fn lint_file(path: &str, src: &str) -> Vec<Finding> {
    let tokens = tokenize(src);
    let mut directives = collect_directives(&tokens);
    let scope_path = fixture_path(&tokens).unwrap_or_else(|| path.to_string());
    let lines: Vec<&str> = src.lines().collect();

    // Comments out of the way: every code lint works on this stream.
    let code: Vec<Token> = tokens.into_iter().filter(|t| !t.is_comment()).collect();
    let ctx = Ctx {
        file: path,
        krate: crate_of(&scope_path).to_string(),
        lines,
        test_regions: test_regions(&code),
        hash_bindings: hash_bindings(&code),
        float_names: float_bound_names(&code),
    };

    let mut findings = Vec::new();
    lint_hash_iteration(&ctx, &code, &mut findings);
    lint_wall_clock(&ctx, &code, &mut findings);
    lint_hasher(&ctx, &code, &mut findings);
    lint_deprecated_calls(&ctx, &code, &mut findings);
    lint_engine_unwrap(&ctx, &code, &mut findings);
    lint_durability_fs(&ctx, &code, &mut findings);

    // Apply the allow directives, then lint the directives themselves.
    findings.retain(|f| {
        let suppressed = directives.iter_mut().any(|d| {
            let hit = !d.malformed && d.covers.contains(&f.line) && d.ids.iter().any(|i| i == f.id);
            if hit {
                d.used = true;
            }
            hit
        });
        !suppressed
    });
    lint_directives(&ctx, &directives, &mut findings);

    findings.sort_by(|a, b| (a.line, a.col, a.id).cmp(&(b.line, b.col, b.id)));
    findings
}

struct Ctx<'a> {
    file: &'a str,
    krate: String,
    lines: Vec<&'a str>,
    /// Token-index ranges of `#[cfg(test)] mod`s and `#[test] fn`s.
    test_regions: Vec<(usize, usize)>,
    /// Name bindings (let/field/param), position-aware so a `let` that
    /// rebinds a name to a non-hash type shadows the earlier binding.
    hash_bindings: Vec<Binding>,
    /// Names bound to f64/f32 (accumulator candidates).
    float_names: Vec<String>,
}

/// One `name` bound at token index `idx`; `hash` when the outermost type
/// constructor (or the initializer) is a `HashMap`/`HashSet`.
struct Binding {
    name: String,
    idx: usize,
    hash: bool,
}

impl Ctx<'_> {
    fn in_test(&self, idx: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| a <= idx && idx < b)
    }

    /// Whether `name`, as used at token index `use_idx`, refers to a
    /// hash-bound value: the nearest binding at or before the use wins
    /// (linear shadowing); a binding later in the file (e.g. a struct
    /// field declared below an impl) applies only if nothing shadows it.
    fn is_hash(&self, name: &str, use_idx: usize) -> bool {
        let mut best: Option<&Binding> = None;
        let mut fallback: Option<&Binding> = None;
        for b in self.hash_bindings.iter().filter(|b| b.name == name) {
            if b.idx <= use_idx {
                if best.is_none_or(|prev| b.idx >= prev.idx) {
                    best = Some(b);
                }
            } else if fallback.is_none_or(|prev| b.idx < prev.idx) {
                fallback = Some(b);
            }
        }
        best.or(fallback).is_some_and(|b| b.hash)
    }

    fn is_float(&self, name: &str) -> bool {
        self.float_names.iter().any(|n| n == name)
    }

    fn finding(&self, id: &'static str, tok: &Token, message: String, hint: &str) -> Finding {
        let snippet = self
            .lines
            .get(tok.line as usize - 1)
            .map(|l| l.trim())
            .unwrap_or("");
        let snippet = if snippet.len() > 120 {
            let mut end = 117;
            while !snippet.is_char_boundary(end) {
                end -= 1;
            }
            format!("{}...", &snippet[..end])
        } else {
            snippet.to_string()
        };
        Finding {
            id,
            severity: lint_info(id)
                .expect("catalog covers every emitted id")
                .severity,
            file: self.file.to_string(),
            line: tok.line,
            col: tok.col,
            snippet,
            message,
            hint: hint.to_string(),
        }
    }
}

/// Finds `#[cfg(test)] mod … { … }` bodies and `#[test] fn … { … }`
/// bodies as token-index ranges. Lints D001–D006 skip these: test
/// assertions already pin behavior, and the bit-identity gates run over
/// production paths.
fn test_regions(code: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct("#") && i + 1 < code.len() && code[i + 1].is_punct("[") {
            let attr_end = match matching(code, i + 1, "[", "]") {
                Some(e) => e,
                None => break,
            };
            let body: Vec<&str> = code[i + 2..attr_end]
                .iter()
                .map(|t| t.text.as_str())
                .collect();
            let is_test_attr = body == ["test"]
                || (body.len() >= 4 && body[0] == "cfg" && body[1] == "(" && body[2] == "test");
            if is_test_attr {
                // Skip further attributes, then expect an item with a body.
                let mut j = attr_end + 1;
                while j + 1 < code.len() && code[j].is_punct("#") && code[j + 1].is_punct("[") {
                    match matching(code, j + 1, "[", "]") {
                        Some(e) => j = e + 1,
                        None => return out,
                    }
                }
                // Find the opening `{` of the item (stop at `;` — e.g. a
                // cfg(test)-gated `use`).
                let mut k = j;
                while k < code.len() && !code[k].is_punct("{") && !code[k].is_punct(";") {
                    k += 1;
                }
                if k < code.len() && code[k].is_punct("{") {
                    if let Some(close) = matching(code, k, "{", "}") {
                        out.push((i, close + 1));
                        i = close + 1;
                        continue;
                    }
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Index of the token matching the opener at `open_idx`.
fn matching(code: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, tok) in code.iter().enumerate().skip(open_idx) {
        if tok.is_punct(open) {
            depth += 1;
        } else if tok.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// End (exclusive) of the statement containing token `start`: the next `;`
/// at bracket depth 0, an opening `{` at depth 0 (a block starts — loop
/// header, match arm), or a closer that leaves the expression.
fn statement_end(code: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    for (k, tok) in code.iter().enumerate().skip(start).take(300) {
        match tok.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            ";" if depth <= 0 => return k,
            "{" if depth <= 0 => return k,
            "}" if depth <= 0 => return k,
            _ => {}
        }
    }
    (start + 300).min(code.len())
}

/// `true` if the statement slice contains an explicit reordering: a
/// `sort*`/`sorted` call or a collect into an ordered BTree collection.
fn has_sort_in(code: &[Token]) -> bool {
    code.iter().any(|t| {
        t.kind == TokKind::Ident
            && (t.text.starts_with("sort") || t.text == "sorted" || t.text.starts_with("BTree"))
    })
}

/// `true` when a type region's *outermost* constructor is a hash
/// collection: skips references, lifetimes and `mut`, then checks the
/// first type ident — so `HashMap<A, B>` binds but `Vec<HashMap<A, B>>`
/// does not (iterating the `Vec` is ordered).
fn type_is_hash(tokens: &[Token]) -> bool {
    tokens
        .iter()
        .find(|t| !(t.is_punct("&") || t.kind == TokKind::Lifetime || t.is_ident("mut")))
        .is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
}

/// `true` when an initializer expression produces a hash collection: it
/// starts with a `HashMap`/`HashSet` path (`::new`, `::with_capacity`,
/// `::from`, ...) or collects with a hash turbofish.
fn init_is_hash(tokens: &[Token]) -> bool {
    if tokens
        .iter()
        .find(|t| t.kind == TokKind::Ident)
        .is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
    {
        return true;
    }
    tokens.windows(4).any(|w| {
        w[0].is_ident("collect")
            && w[1].is_punct("::")
            && w[2].is_punct("<")
            && (w[3].is_ident("HashMap") || w[3].is_ident("HashSet"))
    })
}

/// Collects hash-collection [`Binding`]s from `let` statements, struct
/// fields and fn parameters. `let` bindings are recorded with their
/// statement's *end* as the position (the initializer still sees the
/// previous binding of a shadowed name) and record non-hash rebindings
/// too, so `let v: Vec<_> = map.into_iter().collect();` shadows `map`
/// correctly. Field/param bindings record hash hits only.
fn hash_bindings(code: &[Token]) -> Vec<Binding> {
    let mut out = Vec::new();
    for i in 0..code.len() {
        // `let [mut] name [: Type] [= init];`
        if code[i].is_ident("let") {
            let mut j = i + 1;
            if j < code.len() && code[j].is_ident("mut") {
                j += 1;
            }
            if j < code.len() && code[j].kind == TokKind::Ident {
                let end = statement_end(code, j + 1);
                let eq = top_level_eq(code, j + 1, end);
                let hash = if j + 1 < code.len() && code[j + 1].is_punct(":") {
                    type_is_hash(&code[j + 2..eq.unwrap_or(end)])
                } else {
                    eq.is_some_and(|e| init_is_hash(&code[e + 1..end]))
                };
                out.push(Binding {
                    name: code[j].text.clone(),
                    idx: end,
                    hash,
                });
            }
            continue;
        }
        // `name: HashMap<...>` (field or parameter) — outermost type only.
        if code[i].kind == TokKind::Ident
            && i + 1 < code.len()
            && code[i + 1].is_punct(":")
            && (i == 0 || !code[i - 1].is_punct(":"))
        {
            let take = 8.min(code.len() - i - 2);
            if type_is_hash(&code[i + 2..i + 2 + take]) {
                out.push(Binding {
                    name: code[i].text.clone(),
                    idx: i,
                    hash: true,
                });
            }
        }
    }
    out
}

/// Index of the first `=` at bracket depth 0 in `code[start..end]`.
fn top_level_eq(code: &[Token], start: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, tok) in code.iter().enumerate().take(end).skip(start) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "=" if depth <= 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// Collects names plausibly holding a float accumulator: `let` with an
/// `f64`/`f32` annotation, or initialized from a bare float literal.
fn float_bound_names(code: &[Token]) -> Vec<String> {
    let mut names = Vec::new();
    let floaty = |t: &Token| {
        (t.kind == TokKind::Ident && (t.text == "f64" || t.text == "f32"))
            || (t.kind == TokKind::Num
                && (t.text.contains('.') || t.text.ends_with("f64") || t.text.ends_with("f32")))
    };
    for i in 0..code.len() {
        if !code[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if j < code.len() && code[j].is_ident("mut") {
            j += 1;
        }
        if j < code.len() && code[j].kind == TokKind::Ident {
            let end = statement_end(code, j + 1);
            if code[j + 1..end].iter().any(floaty) {
                names.push(code[j].text.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// The receiver identifier of a method call: at `code[dot]` == `.`, the
/// ident just before it (`map.iter()`, `self.map.iter()` → `map`). `None`
/// for chained receivers (`f().iter()`) the heuristic cannot resolve.
fn receiver_name(code: &[Token], dot: usize) -> Option<&str> {
    if dot == 0 {
        return None;
    }
    let prev = &code[dot - 1];
    (prev.kind == TokKind::Ident && prev.text != "self").then_some(prev.text.as_str())
}

/// D001 + D002 (chain form): unordered hash iteration and float reduction
/// over a hash-ordered chain; D002 (loop form): float `+=` inside a `for`
/// over a hash source.
fn lint_hash_iteration(ctx: &Ctx, code: &[Token], out: &mut Vec<Finding>) {
    if !DETERMINISM_CRATES.contains(&ctx.krate.as_str()) {
        return;
    }
    for i in 0..code.len() {
        if ctx.in_test(i) {
            continue;
        }
        // Method-call trigger: `name.iter()` etc. on a hash-bound name.
        if code[i].is_punct(".")
            && i + 2 < code.len()
            && code[i + 1].kind == TokKind::Ident
            && ITER_METHODS.contains(&code[i + 1].text.as_str())
            && code[i + 2].is_punct("(")
        {
            let Some(name) = receiver_name(code, i) else {
                continue;
            };
            if !ctx.is_hash(name, i) {
                continue;
            }
            let end = statement_end(code, i);
            let stmt = &code[i..end];
            // Collect-then-sort across adjacent statements: a statement
            // that `collect`s into an owned container and is immediately
            // followed by a statement that sorts it is the workspace's
            // canonical determinism idiom (the `column_entropy` fix).
            let sorted_next = stmt.iter().any(|t| t.is_ident("collect"))
                && code.get(end).is_some_and(|t| t.is_punct(";"))
                && has_sort_in(&code[end + 1..statement_end(code, end + 1)]);
            if !has_sort_in(stmt) && !sorted_next {
                out.push(ctx.finding(
                    "D001",
                    &code[i + 1],
                    format!(
                        "unordered iteration over hash collection `{name}` via `.{}()`",
                        code[i + 1].text
                    ),
                    "iterate in a sorted order (collect-then-sort, or keys sorted via the \
                     cmp_codes pattern), switch to a BTree collection, or justify with \
                     `// rtlint: allow(D001) -- <why order cannot matter>`",
                ));
            }
            lint_float_reduction_in(ctx, stmt, name, out);
        }
        // `for pat in <iterable> {` trigger where the iterable names a
        // hash-bound variable without calling an iter method (that case is
        // caught above).
        if code[i].is_ident("for") {
            let Some((in_idx, body_open)) = for_loop_shape(code, i) else {
                continue;
            };
            let iterable = &code[in_idx + 1..body_open];
            // Range loops (`for i in 0..n`) walk indices in order even when
            // a hash collection's `len()` bounds them.
            if iterable
                .iter()
                .any(|t| t.is_punct("..") || t.is_punct("..="))
            {
                continue;
            }
            let hash_name = (in_idx + 1..body_open)
                .find(|&k| code[k].kind == TokKind::Ident && ctx.is_hash(&code[k].text, k))
                .map(|k| code[k].text.clone());
            let Some(name) = hash_name else { continue };
            let calls_iter_method = iterable
                .iter()
                .any(|t| t.kind == TokKind::Ident && ITER_METHODS.contains(&t.text.as_str()));
            if !calls_iter_method && !has_sort_in(iterable) {
                out.push(ctx.finding(
                    "D001",
                    &code[i],
                    format!("`for` loop over hash collection `{name}` in hash order"),
                    "iterate in a sorted order (collect-then-sort, or keys sorted via the \
                     cmp_codes pattern), switch to a BTree collection, or justify with \
                     `// rtlint: allow(D001) -- <why order cannot matter>`",
                ));
            }
            // D002 loop form: float accumulation inside the body.
            if has_sort_in(iterable) {
                continue;
            }
            if let Some(body_close) = matching(code, body_open, "{", "}") {
                for k in body_open..body_close {
                    if code[k].is_punct("+=")
                        && k > 0
                        && code[k - 1].kind == TokKind::Ident
                        && ctx.is_float(&code[k - 1].text)
                    {
                        out.push(ctx.finding(
                            "D002",
                            &code[k],
                            format!(
                                "float accumulation into `{}` inside a loop over hash \
                                 collection `{name}` — f64 addition is order-sensitive",
                                code[k - 1].text
                            ),
                            "accumulate over a sorted iteration (the column_entropy fix), sum \
                             integers instead, or justify with `// rtlint: allow(D002) -- <why>`",
                        ));
                    }
                }
            }
        }
    }
}

/// D002 chain form inside one statement that starts a hash iteration:
/// `.sum::<f64>()`, `.product::<f64>()`, or `.fold(0.0, …)`.
fn lint_float_reduction_in(ctx: &Ctx, stmt: &[Token], hash_name: &str, out: &mut Vec<Finding>) {
    if has_sort_in(stmt) {
        return;
    }
    for k in 0..stmt.len() {
        let t = &stmt[k];
        let is_reducer =
            t.kind == TokKind::Ident && (t.text == "sum" || t.text == "product") && k >= 1;
        if is_reducer
            && stmt.get(k + 1).is_some_and(|t| t.is_punct("::"))
            && stmt.get(k + 2).is_some_and(|t| t.is_punct("<"))
            && stmt
                .get(k + 3)
                .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"))
        {
            out.push(ctx.finding(
                "D002",
                t,
                format!(
                    "float `.{}()` over the hash-ordered iteration of `{hash_name}`",
                    t.text
                ),
                "sum in a sorted order (collect, sort by decoded value, then reduce — the \
                 column_entropy fix), or justify with `// rtlint: allow(D002) -- <why>`",
            ));
        }
        if t.is_ident("fold")
            && stmt.get(k + 1).is_some_and(|t| t.is_punct("("))
            && stmt.get(k + 2).is_some_and(|t| {
                t.kind == TokKind::Num && (t.text.contains('.') || t.text.ends_with("f64"))
            })
        {
            out.push(ctx.finding(
                "D002",
                t,
                format!("float fold over the hash-ordered iteration of `{hash_name}`"),
                "fold in a sorted order, or justify with `// rtlint: allow(D002) -- <why>`",
            ));
        }
    }
}

/// Shape of a `for` loop starting at `for_idx`: the index of its `in` and
/// of the body's `{`. `None` when this `for` is not a loop (e.g. `impl X
/// for Y`).
fn for_loop_shape(code: &[Token], for_idx: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut in_idx = None;
    for (k, tok) in code.iter().enumerate().skip(for_idx + 1).take(120) {
        match tok.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => {
                return in_idx.map(|i| (i, k));
            }
            "in" if depth == 0 && tok.kind == TokKind::Ident && in_idx.is_none() => {
                in_idx = Some(k);
            }
            ";" if depth <= 0 => return None,
            _ => {}
        }
    }
    None
}

/// D003: wall-clock reads outside the layers that are allowed to time.
fn lint_wall_clock(ctx: &Ctx, code: &[Token], out: &mut Vec<Finding>) {
    if matches!(ctx.krate.as_str(), "bench" | "shims" | "lint") {
        return;
    }
    for i in 0..code.len() {
        if ctx.in_test(i) {
            continue;
        }
        if code[i].is_ident("Instant")
            && code.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && code.get(i + 2).is_some_and(|t| t.is_ident("now"))
        {
            out.push(ctx.finding(
                "D003",
                &code[i],
                "wall-clock read (`Instant::now`) outside crates/bench and shims/".to_string(),
                "count work instead, move the timing into crates/bench, or justify with \
                 `// rtlint: allow(D003) -- <why no counter can depend on it>`",
            ));
        }
        if code[i].is_ident("SystemTime") {
            out.push(ctx.finding(
                "D003",
                &code[i],
                "wall-clock source (`SystemTime`) outside crates/bench and shims/".to_string(),
                "derive timestamps from inputs or move the read into crates/bench; justify \
                 with `// rtlint: allow(D003) -- <why>` if it truly cannot affect results",
            ));
        }
    }
}

/// D004: ad-hoc hashing in the equality hot-path crates.
fn lint_hasher(ctx: &Ctx, code: &[Token], out: &mut Vec<Finding>) {
    if !DETERMINISM_CRATES.contains(&ctx.krate.as_str()) {
        return;
    }
    for (i, tok) in code.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        if tok.is_ident("DefaultHasher") || tok.is_ident("RandomState") {
            out.push(ctx.finding(
                "D004",
                tok,
                format!(
                    "direct `{}` use in a hot-path crate bypasses the rt-relation::work \
                     counter discipline",
                    tok.text
                ),
                "hash through the dictionary code layer (AttrDict/CodeKey) so the work \
                 counters see it, or justify with `// rtlint: allow(D004) -- <why this path \
                 is cold and deterministic>`",
            ));
        }
    }
}

/// D005: calls to the removed pre-engine free functions.
fn lint_deprecated_calls(ctx: &Ctx, code: &[Token], out: &mut Vec<Finding>) {
    for i in 0..code.len() {
        if code[i].kind == TokKind::Ident
            && DEPRECATED_FNS.contains(&code[i].text.as_str())
            && code.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            out.push(ctx.finding(
                "D005",
                &code[i],
                format!("call to removed free function `{}`", code[i].text),
                "build a session with rt_engine::RepairEngine (or use run_search / \
                 repair_data_fds_with / RangeSearch directly)",
            ));
        }
    }
}

/// D006: panicking combinators behind the typed-EngineError boundary.
fn lint_engine_unwrap(ctx: &Ctx, code: &[Token], out: &mut Vec<Finding>) {
    if ctx.krate != "engine" {
        return;
    }
    for i in 0..code.len() {
        if ctx.in_test(i) {
            continue;
        }
        if code[i].is_punct(".")
            && code
                .get(i + 1)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            && code.get(i + 2).is_some_and(|t| t.is_punct("("))
        {
            out.push(ctx.finding(
                "D006",
                &code[i + 1],
                format!(
                    "`.{}()` in rt-engine — public API paths promise typed EngineError, \
                     not panics",
                    code[i + 1].text
                ),
                "return an EngineError (ok_or_else / map_err), or justify with \
                 `// rtlint: allow(D006) -- <why this cannot fail or must panic>`",
            ));
        }
    }
}

/// D007: snapshot-file mutation in rt-server that skips the
/// write-temp-then-rename contract. Crash-safety hinges on every durable
/// file appearing atomically; the only place allowed to create or rename
/// snapshot files is the store's atomic-rotation helper (which carries the
/// justified allows).
fn lint_durability_fs(ctx: &Ctx, code: &[Token], out: &mut Vec<Finding>) {
    if ctx.krate != "server" {
        return;
    }
    let pair = |i: usize, a: &str, b: &str| {
        code[i].is_ident(a)
            && code.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && code.get(i + 2).is_some_and(|t| t.is_ident(b))
    };
    for (i, tok) in code.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        let call = if pair(i, "fs", "rename") {
            Some("fs::rename")
        } else if pair(i, "File", "create") {
            Some("File::create")
        } else {
            None
        };
        if let Some(call) = call {
            out.push(ctx.finding(
                "D007",
                tok,
                format!(
                    "direct `{call}` in rt-server — durable files must appear via the \
                     write-temp-fsync-rename rotation"
                ),
                "route the write through the SessionStore atomic-rotation helper, or justify \
                 with `// rtlint: allow(D007) -- <why this site upholds atomicity>`",
            ));
        }
    }
}

/// A001/A002/U001: the directives themselves.
fn lint_directives(ctx: &Ctx, directives: &[Directive], out: &mut Vec<Finding>) {
    for d in directives {
        let at = Token {
            kind: TokKind::LineComment,
            text: String::new(),
            line: d.line,
            col: d.col,
        };
        if d.malformed {
            out.push(ctx.finding(
                "A001",
                &at,
                "malformed rtlint directive".to_string(),
                "the grammar is `// rtlint: allow(D001[, D002…]) -- <justification>`",
            ));
        } else if d.justification.is_none() {
            out.push(ctx.finding(
                "A002",
                &at,
                format!("rtlint allow({}) has no justification", d.ids.join(", ")),
                "append ` -- <why this site is exempt>`; a bare allow is not reviewable",
            ));
        } else if !d.used {
            out.push(ctx.finding(
                "U001",
                &at,
                format!(
                    "rtlint allow({}) suppressed nothing on the lines it covers",
                    d.ids.join(", ")
                ),
                "delete the stale allow (or move it next to the finding it excuses)",
            ));
        }
    }
}
