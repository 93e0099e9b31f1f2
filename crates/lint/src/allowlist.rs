//! The `lint.toml` allowlist.
//!
//! Violations the team has *decided* to live with are not silenced at the
//! source site (that would scatter waivers nobody reviews) — they are
//! centralised in `lint.toml` at the workspace root, one entry per
//! `(rule, file)`, and **every entry must carry a written `reason`**.
//! Two extra teeth keep the list honest:
//!
//! * an entry with a missing/empty `reason` is a lint failure, and
//! * an entry that matches no current violation is *stale* and is also a
//!   lint failure — fixed code must shed its waiver in the same change.
//!
//! The file is parsed by a deliberately tiny TOML-subset reader (no
//! crates.io access, and the subset keeps the format too simple to grow
//! clever): `#` comments, `[[allow]]` table headers, and
//! `key = "string"` pairs with the keys `rule`, `path`, `reason`.

use crate::rules::{Rule, Violation};

/// One allowlist entry: suppress `rule` in `path`, for the given reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// The rule being waived.
    pub rule: Rule,
    /// Workspace-relative path (forward slashes) the waiver applies to.
    pub path: String,
    /// The mandatory human justification.
    pub reason: String,
    /// Line of the `[[allow]]` header in `lint.toml` (for messages).
    pub line: u32,
}

impl AllowEntry {
    /// Whether this entry suppresses the given violation.
    pub fn matches(&self, v: &Violation) -> bool {
        self.rule == v.rule && self.path == v.path
    }
}

/// The parsed allowlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

/// Parses `lint.toml` content. On failure returns every problem found
/// (deterministically ordered by line), not just the first.
pub fn parse(src: &str) -> Result<Allowlist, Vec<String>> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    // Fields being accumulated for the current [[allow]] entry.
    #[derive(Default)]
    struct Partial {
        rule: Option<String>,
        path: Option<String>,
        reason: Option<String>,
        line: u32,
    }
    let mut current: Option<Partial> = None;

    let finish =
        |cur: &mut Option<Partial>, entries: &mut Vec<AllowEntry>, errors: &mut Vec<String>| {
            let Some(Partial {
                rule,
                path,
                reason,
                line,
            }) = cur.take()
            else {
                return;
            };
            let mut entry_errs = Vec::new();
            let rule = match rule {
                None => {
                    entry_errs.push(format!("lint.toml:{line}: entry is missing `rule`"));
                    None
                }
                Some(id) => match Rule::from_id(&id) {
                    Some(r) => Some(r),
                    None => {
                        entry_errs.push(format!("lint.toml:{line}: unknown rule id `{id}`"));
                        None
                    }
                },
            };
            let path = match path {
                None => {
                    entry_errs.push(format!("lint.toml:{line}: entry is missing `path`"));
                    None
                }
                Some(p) if p.starts_with('/') || p.contains('\\') => {
                    entry_errs.push(format!(
                        "lint.toml:{line}: `path` must be workspace-relative with \
                         forward slashes (got `{p}`)"
                    ));
                    None
                }
                Some(p) => Some(p),
            };
            match &reason {
                Some(r) if !r.trim().is_empty() => {}
                _ => entry_errs.push(format!(
                    "lint.toml:{line}: entry has no written `reason` — every \
                     waiver must say why it is sound"
                )),
            }
            if entry_errs.is_empty() {
                entries.push(AllowEntry {
                    rule: rule.expect("validated above"),
                    path: path.expect("validated above"),
                    reason: reason.expect("validated above"),
                    line,
                });
            } else {
                errors.extend(entry_errs);
            }
        };

    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            finish(&mut current, &mut entries, &mut errors);
            current = Some(Partial {
                line: line_no,
                ..Partial::default()
            });
            continue;
        }
        if line.starts_with('[') {
            errors.push(format!(
                "lint.toml:{line_no}: unsupported table `{line}` (only [[allow]])"
            ));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            errors.push(format!("lint.toml:{line_no}: expected `key = \"value\"`"));
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            errors.push(format!(
                "lint.toml:{line_no}: value for `{key}` must be a double-quoted string"
            ));
            continue;
        };
        let Some(cur) = current.as_mut() else {
            errors.push(format!(
                "lint.toml:{line_no}: `{key}` outside any [[allow]] entry"
            ));
            continue;
        };
        let slot = match key {
            "rule" => &mut cur.rule,
            "path" => &mut cur.path,
            "reason" => &mut cur.reason,
            other => {
                errors.push(format!(
                    "lint.toml:{line_no}: unknown key `{other}` \
                     (expected rule/path/reason)"
                ));
                continue;
            }
        };
        if slot.is_some() {
            errors.push(format!("lint.toml:{line_no}: duplicate key `{key}`"));
        } else {
            *slot = Some(value.to_string());
        }
    }
    finish(&mut current, &mut entries, &mut errors);

    if errors.is_empty() {
        Ok(Allowlist { entries })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_justified_entry() {
        let toml = concat!(
            "# comment\n",
            "\n",
            "[[allow]]\n",
            "rule = \"nondet-iteration\"\n",
            "path = \"crates/exp/src/seed.rs\"\n",
            "reason = \"test-only dedup; iteration order never observed\"\n",
        );
        let list = parse(toml).expect("parses");
        assert_eq!(list.entries.len(), 1);
        assert_eq!(list.entries[0].rule, Rule::NondetIteration);
        assert_eq!(list.entries[0].path, "crates/exp/src/seed.rs");
        assert_eq!(list.entries[0].line, 3);
    }

    #[test]
    fn missing_reason_is_an_error() {
        let toml = "[[allow]]\nrule = \"wall-clock\"\npath = \"a/b.rs\"\n";
        let errs = parse(toml).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("no written `reason`"), "{}", errs[0]);
    }

    #[test]
    fn empty_reason_is_an_error() {
        let toml = "[[allow]]\nrule = \"wall-clock\"\npath = \"a/b.rs\"\nreason = \"  \"\n";
        assert!(parse(toml).is_err());
    }

    #[test]
    fn unknown_rule_and_key_are_errors() {
        let toml = concat!(
            "[[allow]]\n",
            "rule = \"no-such-rule\"\n",
            "path = \"a/b.rs\"\n",
            "reason = \"x\"\n",
            "color = \"blue\"\n",
        );
        let errs = parse(toml).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("unknown rule id")));
        assert!(errs.iter().any(|e| e.contains("unknown key `color`")));
    }

    #[test]
    fn absolute_or_backslash_paths_rejected() {
        let toml = "[[allow]]\nrule = \"wall-clock\"\npath = \"/abs/b.rs\"\nreason = \"x\"\n";
        assert!(parse(toml).is_err());
        let toml2 = "[[allow]]\nrule = \"wall-clock\"\npath = \"a\\\\b.rs\"\nreason = \"x\"\n";
        assert!(parse(toml2).is_err());
    }

    #[test]
    fn keys_outside_entry_rejected() {
        let errs = parse("rule = \"wall-clock\"\n").unwrap_err();
        assert!(errs[0].contains("outside any [[allow]] entry"));
    }

    #[test]
    fn empty_file_is_an_empty_allowlist() {
        assert_eq!(parse("").unwrap().entries.len(), 0);
        assert_eq!(parse("# nothing here\n").unwrap().entries.len(), 0);
    }

    /// SplitMix64: a seeded generator for the robustness test below (this
    /// crate takes no dependencies, not even the workspace's rand shim).
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Parses `src` and checks that every error is located as
    /// `lint.toml:<line>:` with a line that exists in `src`.
    fn assert_errors_are_located(src: &str) {
        let n_lines = src.lines().count();
        let Err(errs) = parse(src) else {
            return;
        };
        for e in errs {
            let line = e
                .strip_prefix("lint.toml:")
                .and_then(|rest| rest.split_once(':'))
                .and_then(|(line, _)| line.parse::<usize>().ok());
            assert!(
                line.is_some_and(|l| (1..=n_lines).contains(&l)),
                "error not located in a line of {n_lines}: {e:?}"
            );
        }
    }

    #[test]
    fn parse_never_panics_on_mutated_or_arbitrary_input() {
        let committed = include_str!("../../../lint.toml");
        assert!(parse(committed).is_ok(), "the committed lint.toml parses");
        let mut rng = SplitMix(0x11A7_0F11E);
        // Byte-level mutations of the committed file; invalid UTF-8 is
        // replaced, as a lossy read of a corrupted file would.
        for _ in 0..3000 {
            let mut bytes = committed.as_bytes().to_vec();
            for _ in 0..1 + rng.below(8) {
                let at = rng.below(bytes.len() + 1);
                match rng.below(5) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
                    1 => bytes.insert(at, rng.next() as u8),
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    3 => bytes.insert(at, b"[]=\"#\n\\ "[rng.below(8)]),
                    _ => bytes.truncate(at),
                }
            }
            assert_errors_are_located(&String::from_utf8_lossy(&bytes));
        }
        // Arbitrary UTF-8 lines, biased toward the reader's own syntax.
        const PIECES: [&str; 12] = [
            "[[allow]]",
            "[",
            "]",
            "=",
            "\"",
            "#",
            " ",
            "rule",
            "path",
            "reason",
            "wall-clock",
            "é☃\u{10FFFF}",
        ];
        for _ in 0..2000 {
            let mut src = String::new();
            for _ in 0..rng.below(12) {
                for _ in 0..rng.below(10) {
                    if rng.below(3) == 0 {
                        let c = char::from_u32(rng.below(0x11_0000) as u32);
                        src.push(c.unwrap_or(char::REPLACEMENT_CHARACTER));
                    } else {
                        src.push_str(PIECES[rng.below(PIECES.len())]);
                    }
                }
                src.push_str(if rng.below(4) == 0 { "\r\n" } else { "\n" });
            }
            assert_errors_are_located(&src);
        }
    }
}
