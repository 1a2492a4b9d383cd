//! `detlint.toml`: per-crate severity overrides and baseline ceilings.
//!
//! The parser is a deliberate TOML subset (the workspace has no registry
//! access, so no `toml` crate): `[section]` headers, `key = value` pairs
//! where the value is a bare integer or a double-quoted string, `#`
//! comments, and blank lines. Three section families are recognized:
//!
//! ```toml
//! [rules]              # default severity per rule code
//! DET001 = "error"
//!
//! [crate.sweep]        # per-crate severity overrides
//! DET002 = "warn"      # report its telemetry clock reads, never fail on them
//!
//! [baseline.core]      # per-crate ratchet ceilings (count <= ceiling)
//! PAN001 = 6
//! ```
//!
//! Baselines only ratchet **down**: lowering a ceiling is routine as call
//! sites are cleaned up; raising one is a review event. A ceiling of zero
//! is the pinned state and equals not listing the crate at all.

use crate::rules::{Rule, Severity};
use std::collections::BTreeMap;

/// Parsed `detlint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Default severity per rule (missing rules use the built-in default).
    pub rule_severity: BTreeMap<Rule, Severity>,
    /// Per-crate severity overrides, keyed by crate name.
    pub crate_severity: BTreeMap<String, BTreeMap<Rule, Severity>>,
    /// Per-crate baseline ceilings, keyed by crate name.
    pub baselines: BTreeMap<String, BTreeMap<Rule, usize>>,
}

impl Config {
    /// The severity of `rule` in `krate` after all overrides.
    pub fn severity(&self, krate: &str, rule: Rule) -> Severity {
        if let Some(per) = self.crate_severity.get(krate) {
            if let Some(&s) = per.get(&rule) {
                return s;
            }
        }
        self.rule_severity
            .get(&rule)
            .copied()
            .unwrap_or_else(|| rule.default_severity())
    }

    /// The baseline ceiling for `(krate, rule)`; absent means zero.
    pub fn baseline(&self, krate: &str, rule: Rule) -> Option<usize> {
        self.baselines
            .get(krate)
            .and_then(|m| m.get(&rule))
            .copied()
    }

    /// Parse the `detlint.toml` text. Errors carry the 1-based line.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = SectionKind::None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = match name {
                    "rules" => SectionKind::Rules,
                    _ => match name.split_once('.') {
                        Some(("crate", krate)) if !krate.is_empty() => {
                            SectionKind::Crate(krate.to_string())
                        }
                        Some(("baseline", krate)) if !krate.is_empty() => {
                            SectionKind::Baseline(krate.to_string())
                        }
                        _ => {
                            return Err(format!(
                                "detlint.toml:{lineno}: unknown section [{name}] \
                                 (expected [rules], [crate.X], or [baseline.X])"
                            ))
                        }
                    },
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("detlint.toml:{lineno}: expected `key = value`"));
            };
            let key = key.trim();
            let value = value.trim();
            let Some(rule) = Rule::from_code(key) else {
                return Err(format!("detlint.toml:{lineno}: unknown rule code `{key}`"));
            };
            match &section {
                SectionKind::None => {
                    return Err(format!(
                        "detlint.toml:{lineno}: `{key}` outside any [section]"
                    ))
                }
                SectionKind::Rules => {
                    let sev = parse_severity(value).ok_or_else(|| bad_severity(lineno, value))?;
                    cfg.rule_severity.insert(rule, sev);
                }
                SectionKind::Crate(krate) => {
                    let sev = parse_severity(value).ok_or_else(|| bad_severity(lineno, value))?;
                    cfg.crate_severity
                        .entry(krate.clone())
                        .or_default()
                        .insert(rule, sev);
                }
                SectionKind::Baseline(krate) => {
                    let n: usize = value.parse().map_err(|_| {
                        format!(
                            "detlint.toml:{lineno}: baseline value `{value}` is not \
                             a non-negative integer"
                        )
                    })?;
                    cfg.baselines
                        .entry(krate.clone())
                        .or_default()
                        .insert(rule, n);
                }
            }
        }
        Ok(cfg)
    }
}

#[derive(Debug, Clone)]
enum SectionKind {
    None,
    Rules,
    Crate(String),
    Baseline(String),
}

/// Drop a trailing `# …` comment (quotes in our value grammar never
/// contain `#`, so a simple scan outside quotes suffices).
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return line.get(..i).unwrap_or(line),
            _ => {}
        }
    }
    line
}

fn parse_severity(value: &str) -> Option<Severity> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .and_then(Severity::parse)
}

fn bad_severity(lineno: usize, value: &str) -> String {
    format!(
        "detlint.toml:{lineno}: severity `{value}` must be \"allow\", \
         \"warn\", or \"error\""
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_section_kinds() {
        let cfg = Config::parse(
            "# header comment\n\
             [rules]\n\
             DET001 = \"error\"\n\
             DET002 = \"warn\"  # trailing comment\n\
             \n\
             [crate.sweep]\n\
             DET002 = \"allow\"\n\
             \n\
             [baseline.core]\n\
             PAN001 = 6\n\
             PAN003 = 120\n",
        )
        .expect("parses");
        assert_eq!(cfg.severity("route", Rule::Det001), Severity::Error);
        assert_eq!(cfg.severity("route", Rule::Det002), Severity::Warn);
        assert_eq!(cfg.severity("sweep", Rule::Det002), Severity::Allow);
        assert_eq!(cfg.baseline("core", Rule::Pan001), Some(6));
        assert_eq!(cfg.baseline("core", Rule::Pan003), Some(120));
        assert_eq!(cfg.baseline("route", Rule::Pan001), None);
    }

    #[test]
    fn built_in_default_when_unlisted() {
        let cfg = Config::parse("").expect("empty is fine");
        assert_eq!(cfg.severity("anything", Rule::Uns001), Severity::Error);
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (text, needle) in [
            ("[bogus]\n", "unknown section"),
            ("[rules]\nNOPE = \"error\"\n", "unknown rule code"),
            ("[rules]\nDET001 = \"loud\"\n", "must be"),
            ("DET001 = \"error\"\n", "outside any"),
            ("[baseline.core]\nPAN001 = many\n", "non-negative integer"),
            ("[rules]\njust words\n", "key = value"),
        ] {
            let err = Config::parse(text).expect_err(text);
            assert!(err.contains(needle), "{text} -> {err}");
            assert!(err.contains("detlint.toml:"), "{err}");
        }
    }
}
