//! The lint rules and the token-walking engine behind `fsoi-lint check`.
//!
//! Every rule is a named, documented invariant of this repository (see
//! DESIGN.md § "Determinism policy"):
//!
//! * **D1** — no `std::collections::HashMap`/`HashSet` in simulation
//!   library code; use `fsoi_sim::det::{DetMap, DetSet}`. The default
//!   `RandomState` hasher is seeded from OS entropy, so iteration order
//!   differs per process and can leak into statistics and exports.
//! * **D2** — no wall-clock or OS-entropy sources in simulation library
//!   code (`Instant`, `SystemTime`, `thread_rng`, …), and no environment
//!   reads outside the documented `FSOI_*` knob list. Simulated time is
//!   [`fsoi_sim::Cycle`]; randomness comes from the seeded in-repo RNGs.
//!   `fsoi_sim::telemetry` — the explicitly nondeterministic wall-clock
//!   observability plane, excluded from every byte-identity gate — is
//!   the one sanctioned home for clock reads; the env-read discipline
//!   still applies there.
//! * **D3** — no direct threading or lock primitives (`thread::spawn`,
//!   `Mutex`, `RwLock`, …) in simulation library code outside
//!   `fsoi_sim::par`: ad-hoc threads make completion order — and thus
//!   any order-sensitive reduction — scheduler-dependent. Parallel
//!   sweeps go through `fsoi_sim::par::sweep`, whose reduction is keyed
//!   on cell index.
//! * **T1** — trace emissions in simulation library code must use
//!   `trace::emit_with` (lazy closure), never eager `trace::emit`:
//!   everything in a simulation crate is reachable from some `tick()`,
//!   and eager event construction allocates even when tracing is off.
//! * **P1** — no `unwrap`/`expect`/`panic!` in library code unless the
//!   site carries a `// lint: allow(P1) <reason>` annotation; the tool
//!   counts the allows so the escape hatch stays visible.
//! * **A1** — (meta) every `// lint: allow(...)` annotation must name
//!   known rules and carry a non-empty reason.
//! * **A2** — (meta) every well-formed allow must actually suppress a
//!   violation: a stale `// lint: allow(RULE)` — left behind after the
//!   code it justified was fixed or moved — is itself a violation, so
//!   the escape-hatch inventory can never rot. Allows inside
//!   `#[cfg(test)]` items are exempt (their sites are rule-exempt, so
//!   they can never be "used").
//!
//! Test/bench/bin/example code is exempt: the engine skips files under
//! `tests/`, `benches/`, `examples/` and `src/bin/`, and skips items
//! annotated `#[cfg(test)]` or `#[test]` inside library files.

use crate::lexer::{lex, Tok, TokKind};

/// Crates whose library code is "simulation code" for D1/D2/T1.
pub const SIM_CRATES: &[&str] = &["sim", "optics", "core", "mesh", "coherence", "cmp", "ring"];

/// Extra crates whose library code is covered by D2 (environment-read
/// discipline) and P1: the property-test harness is library code that
/// simulations execute under, so its env reads stay on documented knobs.
pub const HARNESS_CRATES: &[&str] = &["check"];

/// The documented `FSOI_*` environment knobs (README "Verification" and
/// "Observability"; DESIGN.md "Determinism policy"). D2 doubles as the
/// audit that no undocumented knob exists: an env read of any name not
/// in this list is a violation until the knob is documented and added.
pub const ALLOWED_ENV_KNOBS: &[&str] = &[
    "FSOI_CHECK_SEED",
    "FSOI_CHECK_CASES",
    "FSOI_CHECK_REPLAY",
    "FSOI_THREADS",
    "FSOI_CACHE",
    "FSOI_TELEMETRY",
    "FSOI_TRACE",
    "FSOI_TRACE_BUF",
    "FSOI_TRACE_DUMP",
];

/// Files exempt from D3: the deterministic sweep executor is the
/// sanctioned home for threads in simulation library code.
pub const D3_EXEMPT_PATHS: &[&str] = &["crates/sim/src/par.rs"];

/// Files exempt from D2's wall-clock/OS-entropy ident ban: the telemetry
/// module is the explicitly nondeterministic observability plane, kept
/// out of every byte-identity gate, so `Instant` is legitimate there.
/// The exemption covers only the banned idents — environment reads in
/// this file still answer to the documented-knob audit.
pub const D2_EXEMPT_PATHS: &[&str] = &["crates/sim/src/telemetry.rs"];

/// Identifiers that are shared-state synchronization primitives (D3).
/// (`Barrier` is deliberately absent: `fsoi_coherence::sync::Barrier` is a
/// *simulated* barrier, not a std synchronization primitive.)
const D3_BANNED_IDENTS: &[&str] = &["Mutex", "RwLock", "Condvar", "OnceLock"];

/// `thread::<fn>` calls that create threads (D3).
const D3_THREAD_FNS: &[&str] = &["spawn", "scope", "Builder"];

/// Identifiers that are wall-clock / OS-entropy sources (D2).
const D2_BANNED_IDENTS: &[(&str, &str)] = &[
    (
        "Instant",
        "wall-clock time; simulated time is fsoi_sim::Cycle",
    ),
    (
        "SystemTime",
        "wall-clock time; simulated time is fsoi_sim::Cycle",
    ),
    (
        "thread_rng",
        "OS-entropy RNG; use the seeded fsoi_sim::rng generators",
    ),
    (
        "from_entropy",
        "OS-entropy seeding; derive seeds from the run seed",
    ),
    (
        "OsRng",
        "OS-entropy RNG; use the seeded fsoi_sim::rng generators",
    ),
];

/// `std::env` functions that read process state. `var`/`var_os` with a
/// documented knob literal are fine; everything else needs an allow.
const D2_ENV_READS: &[&str] = &[
    "var",
    "var_os",
    "vars",
    "vars_os",
    "args",
    "args_os",
    "temp_dir",
    "current_dir",
    "home_dir",
];

/// The rule identifiers, in report order.
pub const RULES: &[&str] = &["D1", "D2", "D3", "T1", "P1", "A1", "A2"];

/// One-line description per rule (for `fsoi-lint rules` and reports).
pub fn rule_summary(rule: &str) -> &'static str {
    match rule {
        "D1" => "no HashMap/HashSet in sim library code; use fsoi_sim::det::{DetMap, DetSet}",
        "D2" => "no wall-clock/OS-entropy/undocumented-env reads in sim library code outside fsoi_sim::telemetry",
        "D3" => "no thread::spawn/Mutex/RwLock in sim library code outside fsoi_sim::par",
        "T1" => "trace emissions must be lazy (trace::emit_with, never trace::emit)",
        "P1" => "no unwrap/expect/panic! in library code without `// lint: allow(P1) reason`",
        "A1" => "lint allow-annotations must name known rules and carry a reason",
        "A2" => "every allow-annotation must suppress something; stale allows fail the lint",
        _ => "unknown rule",
    }
}

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source: all rules whose crate scope matches apply.
    Library,
    /// Tests, benches, examples, binaries: exempt from every rule.
    Exempt,
}

/// Classifies a workspace-relative path (`crates/<name>/src/...`).
pub fn classify_path(rel: &str) -> FileClass {
    let exempt_dirs = ["/tests/", "/benches/", "/examples/", "/src/bin/"];
    if exempt_dirs.iter().any(|d| rel.contains(d)) || rel.ends_with("build.rs") {
        FileClass::Exempt
    } else {
        FileClass::Library
    }
}

/// The crate name component of `crates/<name>/...`, if any.
pub fn crate_of_path(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule identifier (`D1`, …).
    pub rule: &'static str,
    /// Human-readable explanation of this occurrence.
    pub msg: String,
}

/// A parsed `// lint: allow(RULE[,RULE...]) reason` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rules this annotation suppresses.
    pub rules: Vec<String>,
    /// The justification text after the closing parenthesis.
    pub reason: String,
    /// Lines the annotation covers: its own plus the next code line.
    pub lines: (u32, u32),
    /// Index of the annotation's comment token, so A2 can tell whether
    /// the allow sits inside a `#[cfg(test)]` item (exempt from A2).
    pub tok: usize,
}

/// Everything the engine extracted from one file.
#[derive(Debug, Default)]
pub struct FileFindings {
    /// Violations, already allow-filtered.
    pub violations: Vec<Violation>,
    /// `(rule, line)` of every allow actually present (used + counted).
    pub allows: Vec<(String, u32)>,
}

/// Lints one file's source text. `rel` is the workspace-relative path
/// used both for reporting and for crate/scope classification.
pub fn lint_source(rel: &str, src: &str) -> FileFindings {
    let mut out = FileFindings::default();
    if classify_path(rel) == FileClass::Exempt {
        return out;
    }
    let krate = crate_of_path(rel).unwrap_or("");
    let sim_scope = SIM_CRATES.contains(&krate);
    let p1_scope = sim_scope || HARNESS_CRATES.contains(&krate);
    let d2_scope = p1_scope;
    // The ident ban (clocks/entropy) has a sanctioned home; the env-read
    // audit below deliberately does not use this and applies everywhere.
    let d2_ident_scope = d2_scope && !D2_EXEMPT_PATHS.contains(&rel);
    let d3_scope = sim_scope && !D3_EXEMPT_PATHS.contains(&rel);
    if !sim_scope && !p1_scope {
        return out;
    }

    let toks = lex(src);
    let suppressed = cfg_test_spans(&toks);
    let (allows, mut bad_allows) = collect_allows(&toks, rel);
    out.violations.append(&mut bad_allows);
    for a in &allows {
        for r in &a.rules {
            out.allows.push((r.clone(), a.lines.0));
        }
    }

    let code: Vec<(usize, &Tok)> = toks
        .iter()
        .enumerate()
        .filter(|(i, t)| t.kind != TokKind::Comment && !suppressed.iter().any(|s| s.contains(i)))
        .collect();

    // A2 bookkeeping: per-(allow, rule) usage, marked whenever an allow
    // actually suppresses a violation below.
    let mut used: Vec<Vec<bool>> = allows.iter().map(|a| vec![false; a.rules.len()]).collect();
    let mut push = |rule: &'static str, line: u32, msg: String| {
        let mut allowed = false;
        for (ai, a) in allows.iter().enumerate() {
            if a.lines.0 != line && a.lines.1 != line {
                continue;
            }
            for (ri, r) in a.rules.iter().enumerate() {
                if r == rule {
                    used[ai][ri] = true;
                    allowed = true;
                }
            }
        }
        if !allowed {
            out.violations.push(Violation {
                path: rel.to_string(),
                line,
                rule,
                msg,
            });
        }
    };

    for (k, &(_, t)) in code.iter().enumerate() {
        let next = |off: usize| code.get(k + off).map(|&(_, t)| t);
        // D1: raw default-hasher collections in sim code.
        if sim_scope && t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            let det = if t.text == "HashMap" {
                "DetMap"
            } else {
                "DetSet"
            };
            push(
                "D1",
                t.line,
                format!(
                    "`{}` iterates in hasher order (per-process random); use fsoi_sim::det::{det} or a BTree collection",
                    t.text
                ),
            );
        }
        // D3: synchronization primitives outside fsoi_sim::par.
        if d3_scope && t.kind == TokKind::Ident && D3_BANNED_IDENTS.contains(&t.text.as_str()) {
            push(
                "D3",
                t.line,
                format!(
                    "`{}` shares mutable state across threads in simulation code; parallelism lives behind fsoi_sim::par::sweep (deterministic index-keyed reduction)",
                    t.text
                ),
            );
        }
        // D3: thread creation — `thread :: spawn` / `thread :: scope`.
        if d3_scope
            && t.is_ident("thread")
            && next(1).is_some_and(|a| a.is_punct(":"))
            && next(2).is_some_and(|a| a.is_punct(":"))
            && next(3).is_some_and(|a| {
                a.kind == TokKind::Ident && D3_THREAD_FNS.contains(&a.text.as_str())
            })
        {
            let f = next(3).map(|a| a.text.clone()).unwrap_or_default();
            push(
                "D3",
                t.line,
                format!(
                    "`thread::{f}` creates threads in simulation code; run sweep cells through fsoi_sim::par::sweep so thread count stays unobservable"
                ),
            );
        }
        // D2: wall-clock / OS-entropy identifiers.
        if d2_ident_scope && t.kind == TokKind::Ident {
            if let Some((_, why)) = D2_BANNED_IDENTS.iter().find(|(id, _)| *id == t.text) {
                push("D2", t.line, format!("`{}`: {}", t.text, why));
            }
        }
        // D2: environment reads — `env :: <read>` with literal-knob check.
        if d2_scope
            && t.is_ident("env")
            && next(1).is_some_and(|a| a.is_punct(":"))
            && next(2).is_some_and(|a| a.is_punct(":"))
        {
            if let Some(f) = next(3) {
                if f.kind == TokKind::Ident && D2_ENV_READS.contains(&f.text.as_str()) {
                    let is_var_read = f.text == "var" || f.text == "var_os";
                    let knob = next(4)
                        .filter(|p| p.is_punct("("))
                        .and_then(|_| next(5))
                        .and_then(|s| s.plain_str_content());
                    let documented =
                        is_var_read && matches!(knob, Some(k) if ALLOWED_ENV_KNOBS.contains(&k));
                    if !documented {
                        let what = match (is_var_read, knob) {
                            (true, Some(k)) => {
                                format!("env::{}(\"{}\") reads an undocumented knob (documented: {:?})", f.text, k, ALLOWED_ENV_KNOBS)
                            }
                            (true, None) => format!(
                                "env::{} with a non-literal argument cannot be audited against the documented FSOI_* knob list",
                                f.text
                            ),
                            (false, _) => {
                                format!("env::{} reads process/OS state in simulation code", f.text)
                            }
                        };
                        push("D2", f.line, what);
                    }
                }
            }
        }
        // T1: eager trace emission.
        if sim_scope
            && t.is_ident("trace")
            && next(1).is_some_and(|a| a.is_punct(":"))
            && next(2).is_some_and(|a| a.is_punct(":"))
            && next(3).is_some_and(|a| a.is_ident("emit"))
            && next(4).is_some_and(|a| a.is_punct("("))
        {
            push(
                "T1",
                t.line,
                "eager `trace::emit` constructs the event even when tracing is off; use `trace::emit_with` with a closure".to_string(),
            );
        }
        // P1: panicking calls in library code.
        if p1_scope {
            if t.is_punct(".")
                && next(1).is_some_and(|a| {
                    (a.is_ident("unwrap") || a.is_ident("expect")) && a.line == t.line
                    // a float like `x.` never precedes these
                })
                && next(2).is_some_and(|a| a.is_punct("("))
            {
                let name = next(1).map(|a| a.text.clone()).unwrap_or_default();
                push(
                    "P1",
                    next(1).map(|a| a.line).unwrap_or(t.line),
                    format!("`.{name}()` can panic in library code; return an error, or justify with `// lint: allow(P1) <reason>`"),
                );
            }
            if t.is_ident("panic") && next(1).is_some_and(|a| a.is_punct("!")) {
                push(
                    "P1",
                    t.line,
                    "`panic!` in library code; return an error, or justify with `// lint: allow(P1) <reason>`".to_string(),
                );
            }
        }
    }
    // A2: a well-formed allow that suppressed nothing is itself a
    // violation (A2 is deliberately not allow-suppressible). Allows
    // inside `#[cfg(test)]` items are exempt: their sites never reach
    // the rule checks, so they can never register as used.
    for (ai, a) in allows.iter().enumerate() {
        if suppressed.iter().any(|s| s.contains(&a.tok)) {
            continue;
        }
        for (ri, r) in a.rules.iter().enumerate() {
            if !used[ai][ri] {
                out.violations.push(Violation {
                    path: rel.to_string(),
                    line: a.lines.0,
                    rule: "A2",
                    msg: format!(
                        "stale allow: nothing on the covered lines violates {r}; remove the annotation (or fix its rule name)"
                    ),
                });
            }
        }
    }
    out.violations.sort();
    out
}

/// Token-index spans of `#[cfg(test)]` / `#[test]` items (the attribute
/// through the end of the item's `{…}` block or terminating `;`).
fn cfg_test_spans(toks: &[Tok]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let at = |ci: usize| -> Option<&Tok> { code.get(ci).map(|&i| &toks[i]) };
    let mut ci = 0usize;
    while ci < code.len() {
        if !(at(ci).is_some_and(|t| t.is_punct("#")) && at(ci + 1).is_some_and(|t| t.is_punct("[")))
        {
            ci += 1;
            continue;
        }
        // Find the attribute's closing `]` and whether it is test-flavoured.
        let mut depth = 0usize;
        let mut j = ci + 1;
        let mut attr_idents: Vec<&str> = Vec::new();
        while let Some(t) = at(j) {
            if t.is_punct("[") || t.is_punct("(") {
                depth += 1;
            } else if t.is_punct("]") || t.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident {
                attr_idents.push(t.text.as_str());
            }
            j += 1;
        }
        let attr_end = j; // index of `]`
                          // `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` suppress the
                          // item; `#[cfg(not(test))]` and `#[cfg_attr(test, …)]` do not.
        let is_test_attr = match attr_idents.first() {
            Some(&"test") => true,
            Some(&"cfg") => attr_idents.contains(&"test") && !attr_idents.contains(&"not"),
            _ => false,
        };
        if !is_test_attr {
            ci = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then consume the item.
        let mut k = attr_end + 1;
        while at(k).is_some_and(|t| t.is_punct("#")) && at(k + 1).is_some_and(|t| t.is_punct("[")) {
            let mut d = 0usize;
            let mut m = k + 1;
            while let Some(t) = at(m) {
                if t.is_punct("[") {
                    d += 1;
                } else if t.is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                m += 1;
            }
            k = m + 1;
        }
        // The item runs to its first `{…}` block at nesting depth 0 (fn,
        // mod, impl) or to a `;` (use, type, const) — whichever first.
        let mut d = 0usize;
        let mut end = k;
        while let Some(t) = at(end) {
            if d == 0 && t.is_punct(";") {
                break;
            }
            if t.is_punct("{") {
                d += 1;
            } else if t.is_punct("}") {
                d = d.saturating_sub(1);
                if d == 0 {
                    break;
                }
            }
            end += 1;
        }
        let start_tok = code[ci];
        let end_tok = code
            .get(end)
            .copied()
            .unwrap_or(toks.len().saturating_sub(1));
        spans.push(start_tok..end_tok + 1);
        ci = end + 1;
    }
    spans
}

/// Extracts `// lint: allow(...)` annotations from comment tokens, and
/// reports malformed ones as A1 violations.
fn collect_allows(toks: &[Tok], rel: &str) -> (Vec<Allow>, Vec<Violation>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Comment {
            continue;
        }
        let Some(pos) = t.text.find("lint:") else {
            continue;
        };
        let rest = t.text[pos + "lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            bad.push(Violation {
                path: rel.to_string(),
                line: t.line,
                rule: "A1",
                msg: format!(
                    "unrecognized lint directive {:?}; only `lint: allow(RULE) reason` exists",
                    t.text.trim()
                ),
            });
            continue;
        };
        let rest = rest.trim_start();
        let Some((inside, reason)) = rest.strip_prefix('(').and_then(|r| r.split_once(')')) else {
            bad.push(Violation {
                path: rel.to_string(),
                line: t.line,
                rule: "A1",
                msg: "malformed allow: expected `lint: allow(RULE[,RULE]) reason`".to_string(),
            });
            continue;
        };
        let rules: Vec<String> = inside.split(',').map(|r| r.trim().to_string()).collect();
        let unknown: Vec<&String> = rules
            .iter()
            .filter(|r| !RULES.contains(&r.as_str()))
            .collect();
        if rules.is_empty() || !unknown.is_empty() {
            bad.push(Violation {
                path: rel.to_string(),
                line: t.line,
                rule: "A1",
                msg: format!("allow names unknown rule(s) {unknown:?}; known rules are {RULES:?}"),
            });
            continue;
        }
        let reason = reason.trim();
        if reason.is_empty() {
            bad.push(Violation {
                path: rel.to_string(),
                line: t.line,
                rule: "A1",
                msg: "allow without a reason; write `lint: allow(RULE) <why this site is sound>`"
                    .to_string(),
            });
            continue;
        }
        // Covered lines: the annotation's own line (trailing form) and
        // the next non-comment token's line (preceding-line form).
        let next_code_line = toks[i + 1..]
            .iter()
            .find(|n| n.kind != TokKind::Comment)
            .map(|n| n.line)
            .unwrap_or(t.line);
        allows.push(Allow {
            rules,
            reason: reason.to_string(),
            lines: (t.line, next_code_line),
            tok: i,
        });
    }
    (allows, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_as(path: &str, src: &str) -> Vec<Violation> {
        lint_source(path, src).violations
    }

    #[test]
    fn d1_flags_hash_collections_in_sim_crates_only() {
        let src =
            "use std::collections::HashMap;\nfn f() { let s: HashSet<u8> = HashSet::new(); }\n";
        let v = lint_as("crates/core/src/network.rs", src);
        assert!(v.iter().filter(|v| v.rule == "D1").count() >= 3);
        assert!(
            lint_as("crates/lint/src/engine.rs", src).is_empty(),
            "tool crates are out of scope"
        );
        assert!(
            lint_as("crates/core/tests/props.rs", src).is_empty(),
            "test code is exempt"
        );
    }

    #[test]
    fn d2_flags_clocks_and_undocumented_env() {
        let src = "fn f() { let t = Instant::now(); let v = std::env::var(\"FSOI_SECRET\"); }\n";
        let v = lint_as("crates/sim/src/x.rs", src);
        assert!(v
            .iter()
            .any(|v| v.rule == "D2" && v.msg.contains("Instant")));
        assert!(v
            .iter()
            .any(|v| v.rule == "D2" && v.msg.contains("FSOI_SECRET")));
    }

    #[test]
    fn d2_accepts_documented_knobs() {
        let src = "fn f() { let v = std::env::var(\"FSOI_TRACE\"); }\n";
        assert!(lint_as("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn d2_exempts_the_telemetry_module_from_the_ident_ban_only() {
        // The wall-clock plane may read the clock…
        let clock = "fn f() { let t = Instant::now(); let _ = t; }\n";
        assert!(
            lint_as("crates/sim/src/telemetry.rs", clock).is_empty(),
            "fsoi_sim::telemetry is the sanctioned home for wall-clock reads"
        );
        // …but any other sim file still may not…
        assert!(lint_as("crates/sim/src/x.rs", clock)
            .iter()
            .any(|v| v.rule == "D2"));
        // …and the env-read audit still applies inside telemetry.
        let env = "fn f() { let v = std::env::var(\"FSOI_SECRET\"); let _ = v; }\n";
        assert!(
            lint_as("crates/sim/src/telemetry.rs", env)
                .iter()
                .any(|v| v.rule == "D2" && v.msg.contains("FSOI_SECRET")),
            "the ident exemption must not waive the documented-knob audit"
        );
        let knob = "fn f() { let v = std::env::var(\"FSOI_TELEMETRY\"); let _ = v; }\n";
        assert!(
            lint_as("crates/sim/src/telemetry.rs", knob).is_empty(),
            "FSOI_TELEMETRY is a documented knob"
        );
    }

    #[test]
    fn d3_flags_threads_and_locks_outside_par() {
        let src = "use std::sync::Mutex;\nfn f() { let h = std::thread::spawn(|| 1); let _ = h; }\nfn g() { std::thread::scope(|s| { let _ = s; }); }\n";
        let v = lint_as("crates/cmp/src/x.rs", src);
        assert!(v.iter().any(|v| v.rule == "D3" && v.msg.contains("Mutex")));
        assert!(v
            .iter()
            .any(|v| v.rule == "D3" && v.msg.contains("thread::spawn")));
        assert!(v
            .iter()
            .any(|v| v.rule == "D3" && v.msg.contains("thread::scope")));
    }

    #[test]
    fn d3_exempts_the_executor_and_non_sim_code() {
        let src = "use std::sync::Mutex;\nfn f() { std::thread::scope(|s| { let _ = s; }); }\n";
        assert!(
            lint_as("crates/sim/src/par.rs", src).is_empty(),
            "fsoi_sim::par is the sanctioned home for threads"
        );
        assert!(
            lint_as("crates/bench/src/runner.rs", src).is_empty(),
            "bench crates are out of D3 scope"
        );
        assert!(
            lint_as("crates/cmp/tests/props.rs", src).is_empty(),
            "test code is exempt"
        );
    }

    #[test]
    fn d3_honours_allow_annotations() {
        let src = "fn f() {\n    // lint: allow(D3) bounded init-only lock, never held across cells\n    let m = std::sync::Mutex::new(0);\n    let _ = m;\n}\n";
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d3_leaves_available_parallelism_alone() {
        let src = "fn f() -> usize { std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }\n";
        let v = lint_as("crates/sim/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != "D3"));
    }

    #[test]
    fn a2_flags_stale_allows() {
        let src = "// lint: allow(D3) justification that outlived its code\nfn f() {\n    let x = 1;\n    let _ = x;\n}\n";
        let v = lint_as("crates/sim/src/x.rs", src);
        assert!(
            v.iter().any(|v| v.rule == "A2" && v.line == 1),
            "an allow suppressing nothing must fail: {v:?}"
        );
    }

    #[test]
    fn a2_accepts_used_allows() {
        let src =
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(P1) invariant: x is Some\n";
        assert!(lint_as("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn a2_flags_only_the_stale_rule_of_a_multi_rule_allow() {
        let src = "// lint: allow(P1,D3) the unwrap is checked\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let v = lint_as("crates/sim/src/x.rs", src);
        assert!(
            v.iter()
                .any(|v| v.rule == "A2" && v.msg.contains("violates D3")),
            "the unused D3 half is stale: {v:?}"
        );
        assert!(
            !v.iter().any(|v| v.msg.contains("violates P1")),
            "the used P1 half is fine: {v:?}"
        );
    }

    #[test]
    fn a2_exempts_allows_inside_test_items() {
        let src = "#[cfg(test)]\nmod tests {\n    // lint: allow(P1) test-only noise\n    fn t(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        assert!(lint_as("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn t1_flags_eager_emit_not_emit_with() {
        let eager = "fn f() { trace::emit(c, ev); }\n";
        let lazy = "fn f() { trace::emit_with(c, || ev()); }\n";
        assert_eq!(lint_as("crates/core/src/x.rs", eager).len(), 1);
        assert!(lint_as("crates/core/src/x.rs", lazy).is_empty());
    }

    #[test]
    fn p1_flags_panics_unless_allowed() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(lint_as("crates/optics/src/x.rs", src).len(), 1);
        let annotated =
            "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint: allow(P1) checked by caller\n}\n";
        assert!(lint_as("crates/optics/src/x.rs", annotated).is_empty());
        let preceding = "fn f(x: Option<u8>) -> u8 {\n    // lint: allow(P1) checked by caller\n    x.unwrap()\n}\n";
        assert!(lint_as("crates/optics/src/x.rs", preceding).is_empty());
    }

    #[test]
    fn a1_flags_malformed_allows() {
        let unknown = "// lint: allow(Z9) whatever\nfn f() {}\n";
        let v = lint_as("crates/sim/src/x.rs", unknown);
        assert!(v.iter().any(|v| v.rule == "A1"));
        let unreasoned = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(P1)\n";
        let v = lint_as("crates/sim/src/x.rs", unreasoned);
        assert!(
            v.iter().any(|v| v.rule == "A1"),
            "missing reason is malformed"
        );
        assert!(
            v.iter().any(|v| v.rule == "P1"),
            "a malformed allow suppresses nothing"
        );
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _ = Instant::now(); panic!(); }\n}\n";
        assert!(lint_as("crates/cmp/src/x.rs", src).is_empty());
    }

    #[test]
    fn code_after_cfg_test_block_is_linted() {
        let src = "#[cfg(test)]\nmod tests { }\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(lint_as("crates/cmp/src/x.rs", src).len(), 1);
    }

    #[test]
    fn comments_and_strings_never_trip_rules() {
        let src = "// HashMap in prose\n/* Instant::now */\nfn f() { let s = \"trace::emit( HashSet \"; let _ = s; }\n";
        assert!(lint_as("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn allows_are_counted() {
        let src =
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(P1) invariant: x is Some\n";
        let f = lint_source("crates/sim/src/x.rs", src);
        assert!(f.violations.is_empty());
        assert_eq!(f.allows, vec![("P1".to_string(), 1)]);
    }

    #[test]
    fn expect_and_panic_macros_flagged() {
        let src = "fn f(x: Option<u8>) -> u8 { if x.is_none() { panic!(\"no\"); } x.expect(\"checked\") }\n";
        let v = lint_as("crates/ring/src/x.rs", src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "P1"));
    }
}
