//! The determinism rule set.
//!
//! Each rule encodes one hazard class that has actually bitten (or nearly
//! bitten) this repository's bit-identity contract — see the
//! "Determinism contract" section of DESIGN.md for the narrative version.
//! Rules operate on the token stream of [`crate::lexer`], so occurrences
//! inside strings, char literals, and comments never fire.

use crate::lexer::{lex, Token, TokenKind};

/// The rule identifiers, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet`: iteration order varies run to run.
    NondetIteration,
    /// `read_dir`: filesystem order varies by machine; needs a
    /// `// DETERMINISM:` comment explaining how order is neutralised.
    NondetFsWalk,
    /// `Instant`/`SystemTime`: wall-clock reads in deterministic code.
    WallClock,
    /// `mul_add`/`fma`, or a `#[target_feature(enable = …)]` naming any
    /// set but the two kernel tiers' ([`KERNEL_TIER_FEATURES`]): fused
    /// multiply-add (or a tier with its own codegen) breaks scalar/SIMD
    /// bit-identity.
    FmaContraction,
    /// `.get(…)…unwrap_or(…)`: silently papers over a missing map entry.
    SilentFallback,
    /// `unsafe` without a nearby `// SAFETY:`/`# Safety` comment.
    UndocumentedUnsafe,
    /// `#[allow(…)]` without a justification comment.
    UnjustifiedAllow,
}

/// Every rule, in the order reports and `--list-rules` use.
pub const ALL_RULES: [Rule; 7] = [
    Rule::NondetIteration,
    Rule::NondetFsWalk,
    Rule::WallClock,
    Rule::FmaContraction,
    Rule::SilentFallback,
    Rule::UndocumentedUnsafe,
    Rule::UnjustifiedAllow,
];

impl Rule {
    /// The stable kebab-case id used in reports and `lint.toml`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::NondetIteration => "nondet-iteration",
            Rule::NondetFsWalk => "nondet-fs-walk",
            Rule::WallClock => "wall-clock",
            Rule::FmaContraction => "fma-contraction",
            Rule::SilentFallback => "silent-fallback",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::UnjustifiedAllow => "unjustified-allow",
        }
    }

    /// Parses a rule id (for `lint.toml` validation).
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::NondetIteration => {
                "HashMap/HashSet have nondeterministic iteration order; \
                 use BTreeMap/BTreeSet or a sorted Vec"
            }
            Rule::NondetFsWalk => {
                "read_dir yields entries in filesystem order, which varies \
                 by machine; sort (or prove order-independence) and say how \
                 in a `// DETERMINISM:` comment within 3 lines above"
            }
            Rule::WallClock => {
                "Instant/SystemTime read the wall clock; simulated time \
                 must come from the event queue (shims/criterion exempt)"
            }
            Rule::FmaContraction => {
                "mul_add/fma fuse the intermediate rounding, so scalar and \
                 SIMD kernels diverge bitwise (DESIGN.md no-FMA rule); \
                 #[target_feature] may enable avx2 alone, or exactly \
                 avx2,avx512f,avx512dq,avx512vl"
            }
            Rule::SilentFallback => {
                "a map lookup chained into unwrap_or/unwrap_or_default \
                 hides missing entries; match explicitly and count the miss \
                 (protocol crates only)"
            }
            Rule::UndocumentedUnsafe => {
                "unsafe without a `// SAFETY:` comment (or `# Safety` doc \
                 section) in the 5 lines above"
            }
            Rule::UnjustifiedAllow => {
                "#[allow(...)] needs a trailing `// why` comment or a plain \
                 `//` comment on the line directly above"
            }
        }
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable detail (mentions the offending token).
    pub message: String,
}

impl Violation {
    /// The canonical one-line rendering: `path:line: [rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Crates whose map lookups guard protocol state — the PR 7 regression
/// class (`.unwrap_or(0)` on a sequence-number lookup) lived in testbed.
const PROTOCOL_CRATE_PREFIXES: [&str; 7] = [
    "crates/core/",
    "crates/lasthop/",
    "crates/mac/",
    "crates/obs/",
    "crates/routing/",
    "crates/sim/",
    "crates/testbed/",
];

/// The one path subtree exempt from [`Rule::WallClock`]: the criterion
/// shim IS the stopwatch.
const WALL_CLOCK_EXEMPT_PREFIX: &str = "shims/criterion/";

/// How many lines above an `unsafe` token a safety comment may sit
/// (accommodates `# Safety` doc sections followed by cfg/target_feature
/// attributes).
const SAFETY_COMMENT_REACH: u32 = 5;

/// How many lines above a `read_dir` call its `// DETERMINISM:` comment
/// may sit (the comment is usually the line directly above, sometimes
/// wrapped onto two).
const DETERMINISM_COMMENT_REACH: u32 = 3;

/// The feature sets a `#[target_feature(enable = …)]` may name, one per
/// compiled kernel tier: AVX2, and AVX-512 (AVX2 with AVX-512F/DQ/VL). Each
/// brings its own bit-identity argument (DESIGN.md, "The SIMD layer and
/// kernel tiers"); any other set is a new tier and needs one of its own.
pub const KERNEL_TIER_FEATURES: [&[&str]; 2] =
    [&["avx2"], &["avx2", "avx512f", "avx512dq", "avx512vl"]];

/// The features named by the string literals of a `target_feature(…)`
/// argument list, `tokens` starting just inside its `(`: each literal
/// split at commas, trimmed, and stripped of a leading `+`.
fn enabled_features(tokens: &[&Token]) -> Vec<String> {
    let mut depth = 1usize;
    let mut features = Vec::new();
    for t in tokens {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Str {
            let body = t
                .text
                .trim_start_matches(['b', 'r', '#'])
                .trim_end_matches('#')
                .trim_matches('"');
            features.extend(
                body.split(',')
                    .map(|f| f.trim().trim_start_matches('+').to_string()),
            );
        }
    }
    features
}

/// Lints one source file. `rel_path` must be workspace-relative with
/// forward slashes — rule scoping (protocol crates, the criterion
/// exemption) keys off it.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let tokens = lex(src);
    let mut out = Vec::new();
    let viol = |rule: Rule, line: u32, message: String| Violation {
        path: rel_path.to_string(),
        line,
        rule,
        message,
    };

    // Comment positions for the comment-proximity rules.
    let comments: Vec<&Token> = tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::Comment { .. }))
        .collect();
    let safety_comment_near = |line: u32| {
        comments.iter().any(|c| {
            c.line <= line
                && c.line + SAFETY_COMMENT_REACH >= line
                && c.text.to_ascii_lowercase().contains("safety")
        })
    };
    let determinism_comment_near = |line: u32| {
        comments.iter().any(|c| {
            c.line <= line
                && c.line + DETERMINISM_COMMENT_REACH >= line
                && c.text.contains("DETERMINISM")
        })
    };
    let plain_comment_on = |line: u32| {
        comments
            .iter()
            .any(|c| c.line == line && matches!(c.kind, TokenKind::Comment { doc: false }))
    };

    // Code view: everything the compiler executes (comments stripped).
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment { .. }))
        .collect();

    // Single-identifier rules.
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "target_feature" if code.get(i + 1).is_some_and(|n| n.is_punct('(')) => {
                let mut features = enabled_features(&code[i + 2..]);
                features.sort();
                features.dedup();
                let allowed = KERNEL_TIER_FEATURES.iter().any(|set| {
                    let mut set = set.to_vec();
                    set.sort_unstable();
                    set == features
                });
                if !allowed {
                    out.push(viol(
                        Rule::FmaContraction,
                        t.line,
                        format!(
                            "`#[target_feature]` enables `{}`; a kernel tier may enable \
                             only `avx2` or exactly `avx2,avx512f,avx512dq,avx512vl` \
                             (any other set is a new tier with its own bit-identity \
                             questions)",
                            features.join(",")
                        ),
                    ));
                }
            }
            "HashMap" | "HashSet" => out.push(viol(
                Rule::NondetIteration,
                t.line,
                format!(
                    "`{}` iterates in nondeterministic order; use a BTree \
                     collection or a sorted Vec",
                    t.text
                ),
            )),
            "Instant" | "SystemTime" if !rel_path.starts_with(WALL_CLOCK_EXEMPT_PREFIX) => out
                .push(viol(
                    Rule::WallClock,
                    t.line,
                    format!(
                        "`{}` reads the wall clock; deterministic code must \
                         take time from the event queue",
                        t.text
                    ),
                )),
            "read_dir" if !determinism_comment_near(t.line) => out.push(viol(
                Rule::NondetFsWalk,
                t.line,
                "`read_dir` yields filesystem order; sort the entries (or \
                 prove order can't be observed) and say how in a \
                 `// DETERMINISM:` comment in the 3 lines above"
                    .to_string(),
            )),
            "mul_add" | "fma" => out.push(viol(
                Rule::FmaContraction,
                t.line,
                format!(
                    "`{}` fuses the multiply-add rounding step, breaking \
                     scalar/SIMD bit-identity",
                    t.text
                ),
            )),
            _ => {}
        }
    }

    // silent-fallback: a `.get(` earlier in the same statement as a
    // `.unwrap_or(` / `.unwrap_or_default(`. Statement boundaries are
    // approximated by `;`, `{`, `}` — good enough for method chains, and
    // anything cleverer belongs in the allowlist with a reason.
    if PROTOCOL_CRATE_PREFIXES
        .iter()
        .any(|p| rel_path.starts_with(p))
    {
        let mut get_pending = false;
        for w in code.windows(3) {
            if w[0].is_punct(';') || w[0].is_punct('{') || w[0].is_punct('}') {
                get_pending = false;
            }
            if w[0].is_punct('.') && w[1].is_ident("get") && w[2].is_punct('(') {
                get_pending = true;
            }
            if get_pending
                && w[0].is_punct('.')
                && (w[1].is_ident("unwrap_or") || w[1].is_ident("unwrap_or_default"))
                && w[2].is_punct('(')
            {
                out.push(viol(
                    Rule::SilentFallback,
                    w[1].line,
                    format!(
                        "map lookup falls back through `{}`; a missing entry \
                         should be an explicit match (and counted)",
                        w[1].text
                    ),
                ));
                get_pending = false;
            }
        }
    }

    // undocumented-unsafe.
    for t in &code {
        if t.is_ident("unsafe") && !safety_comment_near(t.line) {
            out.push(viol(
                Rule::UndocumentedUnsafe,
                t.line,
                "`unsafe` without a `// SAFETY:` comment (or `# Safety` doc \
                 section) in the preceding 5 lines"
                    .to_string(),
            ));
        }
    }

    // unjustified-allow: `#[allow(...)]` / `#![allow(...)]` must carry a
    // trailing comment on the attribute's closing line or a plain `//`
    // comment on the line directly above the `#`. Doc comments don't
    // count: they document the item, not the waiver.
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct('#') {
            let mut j = i + 1;
            if j < code.len() && code[j].is_punct('!') {
                j += 1;
            }
            if j + 1 < code.len() && code[j].is_punct('[') && code[j + 1].is_ident("allow") {
                // Find the attribute's closing bracket.
                let mut depth = 0usize;
                let mut k = j;
                let mut close_line = code[j].line;
                while k < code.len() {
                    if code[k].is_punct('[') {
                        depth += 1;
                    } else if code[k].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            close_line = code[k].line;
                            break;
                        }
                    }
                    k += 1;
                }
                let trailing = comments.iter().any(|c| c.line == close_line);
                let above = code[i].line > 1 && plain_comment_on(code[i].line - 1);
                if !trailing && !above {
                    out.push(viol(
                        Rule::UnjustifiedAllow,
                        code[i].line,
                        "#[allow(...)] without a justification comment \
                         (trailing `// why` or a `//` line directly above)"
                            .to_string(),
                    ));
                }
                i = k;
            }
        }
        i += 1;
    }

    // Deterministic, diff-stable order regardless of rule scan order.
    out.sort_by(|a, b| {
        (a.line, a.rule, a.message.as_str()).cmp(&(b.line, b.rule, b.message.as_str()))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        lint_source(path, src)
            .into_iter()
            .map(|v| v.rule.id())
            .collect()
    }

    const CODE_PATH: &str = "crates/core/src/demo.rs";

    // ---- nondet-iteration -------------------------------------------------

    #[test]
    fn nondet_iteration_fires_on_hash_collections() {
        let src =
            "use std::collections::HashMap;\nfn f() { let s: HashSet<u8> = HashSet::new(); }\n";
        let v = lint_source(CODE_PATH, src);
        assert_eq!(
            v.iter().filter(|v| v.rule == Rule::NondetIteration).count(),
            3
        );
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn nondet_iteration_ignores_btree_and_opaque_contexts() {
        let src = concat!(
            "use std::collections::BTreeMap;\n",
            "/// Once used a HashMap, now a BTreeMap.\n",
            "// HashMap was a bug here\n",
            "fn f() { let s = \"HashMap\"; let r = r#\"HashSet\"#; }\n",
        );
        assert!(rules_fired(CODE_PATH, src).is_empty());
    }

    // ---- nondet-fs-walk ---------------------------------------------------

    #[test]
    fn fs_walk_fires_on_bare_read_dir() {
        let src = "fn f() -> std::io::Result<()> { for e in std::fs::read_dir(\".\")? { drop(e); } Ok(()) }";
        assert_eq!(rules_fired(CODE_PATH, src), ["nondet-fs-walk"]);
    }

    #[test]
    fn determinism_comment_satisfies_read_dir() {
        let src = concat!(
            "fn f(d: &std::path::Path) -> std::io::Result<()> {\n",
            "    // DETERMINISM: entries are collected and sorted before\n",
            "    // anything observable happens.\n",
            "    for e in std::fs::read_dir(d)? {\n",
            "        drop(e);\n",
            "    }\n",
            "    Ok(())\n",
            "}\n",
        );
        assert!(rules_fired(CODE_PATH, src).is_empty());
    }

    #[test]
    fn determinism_comment_out_of_reach_does_not_satisfy() {
        let src = concat!(
            "// DETERMINISM: too far away to be about the call below.\n",
            "\n",
            "\n",
            "\n",
            "fn f() -> std::io::Result<()> { for e in std::fs::read_dir(\".\")? { drop(e); } Ok(()) }\n",
        );
        assert_eq!(rules_fired(CODE_PATH, src), ["nondet-fs-walk"]);
    }

    #[test]
    fn determinism_word_in_string_does_not_satisfy_read_dir() {
        let src = "fn f() -> std::io::Result<()> { let _s = \"DETERMINISM\"; for e in std::fs::read_dir(\".\")? { drop(e); } Ok(()) }";
        assert_eq!(rules_fired(CODE_PATH, src), ["nondet-fs-walk"]);
    }

    #[test]
    fn read_dir_in_comment_or_string_is_quiet() {
        let src = "fn f() { let _s = \"read_dir\"; } // read_dir was a bug here\n";
        assert!(rules_fired(CODE_PATH, src).is_empty());
    }

    // ---- wall-clock -------------------------------------------------------

    #[test]
    fn wall_clock_fires_outside_criterion_shim() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(rules_fired(CODE_PATH, src), ["wall-clock"]);
        let src2 = "use std::time::SystemTime;";
        assert_eq!(rules_fired("crates/exp/src/x.rs", src2), ["wall-clock"]);
    }

    #[test]
    fn wall_clock_exempts_criterion_shim() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert!(rules_fired("shims/criterion/src/lib.rs", src).is_empty());
    }

    // ---- fma-contraction --------------------------------------------------

    #[test]
    fn fma_fires_on_mul_add() {
        let src = "fn f(a: f64, b: f64, c: f64) -> f64 { a.mul_add(b, c) }";
        assert_eq!(rules_fired(CODE_PATH, src), ["fma-contraction"]);
    }

    #[test]
    fn fma_quiet_on_separate_mul_and_add() {
        let src = "fn f(a: f64, b: f64, c: f64) -> f64 { a * b + c }";
        assert!(rules_fired(CODE_PATH, src).is_empty());
    }

    #[test]
    fn target_feature_may_enable_only_the_two_tier_sets() {
        for ok in [
            "avx2",
            "+avx2",
            "avx2,avx512f,avx512dq,avx512vl",
            "avx512vl, avx2, +avx512dq, avx512f",
        ] {
            let src = format!("#[target_feature(enable = \"{ok}\")]\nfn f() {{}}\n");
            assert!(rules_fired(CODE_PATH, &src).is_empty(), "{ok}");
        }
        for bad in [
            "fma",
            "avx2,fma",
            "avx512f",
            "+avx2, avx512vl",
            "sse4.1",
            "avx2,avx512f",
            "avx512f,avx512dq,avx512vl",
            "avx2,avx512f,avx512dq,avx512vl,fma",
            "avx2,avx512f,avx512dq,avx512vl,avx512bw",
        ] {
            let src = format!("#[target_feature(enable = \"{bad}\")]\nfn f() {{}}\n");
            let v = lint_source(CODE_PATH, &src);
            assert_eq!(v.len(), 1, "{bad}");
            assert!(v[0].rule == Rule::FmaContraction && v[0].line == 1, "{bad}");
        }
        let raw = "#[target_feature(enable = r#\"avx2,fma\"#)]\nfn f() {}\n";
        assert_eq!(rules_fired(CODE_PATH, raw), ["fma-contraction"]);
        // Only the attribute that enables features is checked: a cfg
        // predicate, a string or a comment naming one is not.
        let quiet = concat!(
            "#[cfg(target_feature = \"fma\")]\n",
            "fn f() { let _s = \"target_feature(enable = fma)\"; }\n",
            "// #[target_feature(enable = \"avx512f\")]\n",
        );
        assert!(rules_fired(CODE_PATH, quiet).is_empty());
    }

    // ---- silent-fallback --------------------------------------------------

    #[test]
    fn silent_fallback_fires_on_multiline_lookup_chain() {
        let src = concat!(
            "fn f(m: &std::collections::BTreeMap<u32, u64>) -> u64 {\n",
            "    m.get(&7)\n",
            "        .copied()\n",
            "        .unwrap_or(0)\n",
            "}\n",
        );
        let v = lint_source(CODE_PATH, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::SilentFallback);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn silent_fallback_fires_on_unwrap_or_default() {
        let src = "fn f(m: &std::collections::BTreeMap<u32, u64>) -> u64 { m.get(&1).copied().unwrap_or_default() }";
        assert_eq!(rules_fired(CODE_PATH, src), ["silent-fallback"]);
    }

    #[test]
    fn silent_fallback_quiet_without_get() {
        let src = "fn f(o: Option<u64>) -> u64 { o.unwrap_or(3) }";
        assert!(rules_fired(CODE_PATH, src).is_empty());
    }

    #[test]
    fn silent_fallback_quiet_across_statements() {
        let src = concat!(
            "fn f(m: &std::collections::BTreeMap<u32, u64>, o: Option<u64>) -> u64 {\n",
            "    let _present = m.get(&7).is_some();\n",
            "    o.unwrap_or(3)\n",
            "}\n",
        );
        assert!(rules_fired(CODE_PATH, src).is_empty());
    }

    #[test]
    fn silent_fallback_scoped_to_protocol_crates() {
        let src = "fn f(m: &std::collections::BTreeMap<u32, u64>) -> u64 { m.get(&1).copied().unwrap_or(0) }";
        assert!(rules_fired("crates/dsp/src/x.rs", src).is_empty());
        assert_eq!(
            rules_fired("crates/testbed/src/x.rs", src),
            ["silent-fallback"]
        );
    }

    // ---- undocumented-unsafe ----------------------------------------------

    #[test]
    fn undocumented_unsafe_fires_without_comment() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        assert_eq!(rules_fired(CODE_PATH, src), ["undocumented-unsafe"]);
    }

    #[test]
    fn safety_comment_satisfies_unsafe_block() {
        let src = concat!(
            "fn f(p: *const u8) -> u8 {\n",
            "    // SAFETY: caller guarantees p is valid.\n",
            "    unsafe { *p }\n",
            "}\n",
        );
        assert!(rules_fired(CODE_PATH, src).is_empty());
    }

    #[test]
    fn safety_doc_section_satisfies_unsafe_fn() {
        let src = concat!(
            "/// Does a thing.\n",
            "///\n",
            "/// # Safety\n",
            "/// The host CPU must support AVX2.\n",
            "#[cfg(target_arch = \"x86_64\")]\n",
            "#[target_feature(enable = \"avx2\")]\n",
            "unsafe fn fast() {}\n",
        );
        assert!(rules_fired(CODE_PATH, src).is_empty());
    }

    #[test]
    fn safety_word_in_string_does_not_satisfy() {
        let src = "fn f(p: *const u8) -> u8 { let _s = \"SAFETY: nope\"; unsafe { *p } }";
        assert_eq!(rules_fired(CODE_PATH, src), ["undocumented-unsafe"]);
    }

    // ---- unjustified-allow ------------------------------------------------

    #[test]
    fn allow_without_comment_fires() {
        let src = "#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(rules_fired(CODE_PATH, src), ["unjustified-allow"]);
    }

    #[test]
    fn allow_with_trailing_comment_passes() {
        let src = "#[allow(clippy::too_many_arguments)] // historical signature\nfn f() {}\n";
        assert!(rules_fired(CODE_PATH, src).is_empty());
    }

    #[test]
    fn allow_with_comment_line_above_passes() {
        let src = "// the kernels chain these in method position\n#[allow(clippy::should_implement_trait)]\nimpl Foo {}\n";
        assert!(rules_fired(CODE_PATH, src).is_empty());
    }

    #[test]
    fn doc_comment_above_allow_does_not_count() {
        let src = "/// Documents the fn, not the waiver.\n#[allow(dead_code)]\nfn f() {}\n";
        assert_eq!(rules_fired(CODE_PATH, src), ["unjustified-allow"]);
    }

    #[test]
    fn inner_allow_checked_and_forbid_ignored() {
        let src = "#![allow(dead_code)]\n#![forbid(unsafe_code)]\nfn f() {}\n";
        assert_eq!(rules_fired(CODE_PATH, src), ["unjustified-allow"]);
    }

    #[test]
    fn other_attributes_do_not_fire() {
        let src = "#[derive(Debug, Clone)]\n#[inline]\nfn f() {}\n";
        assert!(rules_fired(CODE_PATH, src).is_empty());
    }

    // ---- report ordering --------------------------------------------------

    #[test]
    fn violations_sorted_by_line_then_rule() {
        let src = concat!(
            "fn f() { let t = std::time::Instant::now(); }\n",
            "use std::collections::HashMap;\n",
        );
        let v = lint_source(CODE_PATH, src);
        assert_eq!(v.len(), 2);
        assert!(v[0].line < v[1].line);
        assert!(v[0]
            .render()
            .starts_with("crates/core/src/demo.rs:1: [wall-clock]"));
    }
}
