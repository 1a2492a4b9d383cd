//! The rule catalog and the token-level matchers.
//!
//! Rules match short token sequences, never substrings, so occurrences
//! inside strings, comments, and raw identifiers are invisible to them.
//! Each rule has a stable code (the same convention as `crates/verify`),
//! a one-line summary for the catalog, and a fix hint.

use crate::lexer::{Token, TokenKind};
use std::fmt;

/// Stable identifier of one lint rule.
///
/// The numbering groups rules by failure class:
///
/// * `DET0xx` — determinism (iteration order, wall clocks, RNG, float keys)
/// * `PAN0xx` — panic-capable call sites (the old unwrap ratchet, widened)
/// * `CONC0xx` — unsanctioned concurrency
/// * `UNS001` — `unsafe` usage / missing `#![forbid(unsafe_code)]`
/// * `SUP001` — malformed or stale suppression comments
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in non-test code: iteration order is seeded per
    /// instance, the exact bug class behind the PR 3 `Round::link_loads`
    /// fingerprint fix.
    Det001,
    /// `std::time::Instant`/`SystemTime` in sim/control code (sim-time
    /// only; wall clocks may not influence simulated state).
    Det002,
    /// Unseeded randomness (`thread_rng`, `rand::random`, `RandomState`,
    /// `OsRng`, `from_entropy`) outside the seed-partitioned streams.
    Det003,
    /// Raw `f64` ordering via `.partial_cmp(..)` — NaN breaks totality;
    /// key on `desim::ord::OrdF64` or `f64::to_bits` instead.
    Det004,
    /// `.unwrap()` / `.expect(..)` / `panic!(..)` call sites.
    Pan001,
    /// `unreachable!` / `todo!` / `unimplemented!` sites.
    Pan002,
    /// Index expressions (`x[i]`, `&s[a..b]`) — panic-capable bounds.
    Pan003,
    /// Bare `std::thread::{spawn, scope, Builder}` outside `desim::par`,
    /// the workspace's one worker pool.
    Conc001,
    /// `unsafe` keyword anywhere, or a crate entry point missing
    /// `#![forbid(unsafe_code)]`.
    Uns001,
    /// A `// detlint: allow(...)` comment that is malformed, lacks its
    /// mandatory reason, names an unknown rule, or suppresses nothing.
    Sup001,
}

impl Rule {
    /// Every rule, in catalog order.
    pub const ALL: [Rule; 10] = [
        Rule::Det001,
        Rule::Det002,
        Rule::Det003,
        Rule::Det004,
        Rule::Pan001,
        Rule::Pan002,
        Rule::Pan003,
        Rule::Conc001,
        Rule::Uns001,
        Rule::Sup001,
    ];

    /// The stable code printed in diagnostics, e.g. `DET001`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::Det001 => "DET001",
            Rule::Det002 => "DET002",
            Rule::Det003 => "DET003",
            Rule::Det004 => "DET004",
            Rule::Pan001 => "PAN001",
            Rule::Pan002 => "PAN002",
            Rule::Pan003 => "PAN003",
            Rule::Conc001 => "CONC001",
            Rule::Uns001 => "UNS001",
            Rule::Sup001 => "SUP001",
        }
    }

    /// Parse a code back into a rule (for config and suppression parsing).
    pub fn from_code(code: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.code() == code)
    }

    /// One-line summary shown by the catalog.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::Det001 => "HashMap/HashSet on a determinism path (seeded iteration order)",
            Rule::Det002 => "wall-clock time (Instant/SystemTime) in sim/control code",
            Rule::Det003 => "unseeded randomness outside the seed-partitioned streams",
            Rule::Det004 => "raw f64 ordering via partial_cmp (use OrdF64 / to_bits)",
            Rule::Pan001 => "unwrap/expect/panic! call site in non-test code",
            Rule::Pan002 => "unreachable!/todo!/unimplemented! site in non-test code",
            Rule::Pan003 => "index expression (panic-capable bounds) in non-test code",
            Rule::Conc001 => "bare std::thread spawn/scope outside desim::par's worker pool",
            Rule::Uns001 => "unsafe usage or missing #![forbid(unsafe_code)]",
            Rule::Sup001 => "malformed, unknown, reasonless, or stale suppression",
        }
    }

    /// How to fix a finding, when a standard remedy exists.
    pub fn hint(self) -> &'static str {
        match self {
            Rule::Det001 => {
                "use BTreeMap/BTreeSet, or sort before iterating and suppress \
                             with a reason explaining why order cannot be observed"
            }
            Rule::Det002 => {
                "use desim::SimTime; wall clocks are only for reporting \
                             wall-side throughput, never simulated state"
            }
            Rule::Det003 => {
                "derive the seed from the scenario's SplitMix64 stream \
                             (desim::fnv::derive_seed) instead"
            }
            Rule::Det004 => "wrap the key in desim::ord::OrdF64, or compare f64::to_bits",
            Rule::Pan001 => "return a typed lightpath::fault::FabricError instead",
            Rule::Pan002 => {
                "model the case as a typed error; unreachable states are \
                             outcomes, not panics"
            }
            Rule::Pan003 => {
                "prefer .get()/.get_mut() with typed errors on hot control \
                             paths; ratchet the per-crate ceiling down as sites are fixed"
            }
            Rule::Conc001 => {
                "route parallel work through desim::par::map_pulled, the pull-queue \
                              worker pool, so fingerprints stay worker-count invariant"
            }
            Rule::Uns001 => {
                "add #![forbid(unsafe_code)] to the crate entry point and \
                             remove the unsafe block"
            }
            Rule::Sup001 => {
                "write `// detlint: allow(CODE) — reason` with a non-empty \
                             reason, and delete suppressions that no longer fire"
            }
        }
    }

    /// Whether the rule also applies inside `#[cfg(test)]` regions and
    /// `tests/`/`benches/` files. Only the unsafe audit does: tests may
    /// unwrap and index freely, but never go unsafe.
    pub fn applies_in_tests(self) -> bool {
        matches!(self, Rule::Uns001)
    }

    /// Built-in severity when `detlint.toml` does not override it.
    pub fn default_severity(self) -> Severity {
        Severity::Error
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Per-rule, per-crate severity, resolved from `detlint.toml`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The rule is off for this crate (`DET002 = "allow"` under
    /// `[crate.sweep]` would, say, stop reporting its telemetry clock
    /// reads).
    Allow,
    /// Reported in output and the JSON artifact, but never fails the build.
    Warn,
    /// Fails the build unless suppressed or under a baseline ceiling.
    Error,
}

impl Severity {
    /// Parse a `detlint.toml` severity value.
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "allow" => Some(Severity::Allow),
            "warn" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warning",
            Severity::Error => "error",
        })
    }
}

/// A raw rule hit before severity/suppression/baseline resolution.
#[derive(Debug, Clone)]
pub struct Hit {
    /// Which rule matched.
    pub rule: Rule,
    /// Byte offset of the decisive token (for test-region classification).
    pub offset: usize,
    /// 1-based line of the decisive token.
    pub line: u32,
    /// 1-based byte column of the decisive token.
    pub col: u32,
    /// Evidence message with the offending lexeme.
    pub message: String,
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [a, b]`, `match x`, …). `self` is deliberately
/// absent: `self[i]` through an `Index` impl is a real panic site.
const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "do", "dyn", "else",
    "enum", "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "trait", "type", "union", "unsafe", "use",
    "where", "while", "yield",
];

/// Identifiers whose bare appearance is an unseeded-randomness source.
const RNG_IDENTS: &[&str] = &["thread_rng", "RandomState", "OsRng", "from_entropy"];

/// Scan a token stream for rule hits. `src` is the file text the tokens
/// were lexed from. Comment tokens are skipped; suppression handling and
/// test-region filtering happen in the engine, not here.
pub fn scan(tokens: &[Token], src: &str) -> Vec<Hit> {
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut hits = Vec::new();
    let text = |i: usize| -> &str { sig.get(i).map_or("", |t| t.text(src)) };
    let ident = |i: usize| -> &str {
        match sig.get(i) {
            Some(t) if t.kind == TokenKind::Ident => t.text(src),
            _ => "",
        }
    };
    let punct = |i: usize, b: u8| -> bool {
        matches!(sig.get(i), Some(t) if t.kind == TokenKind::Punct(b))
    };
    let mut push = |rule: Rule, i: usize, message: String| {
        if let Some(t) = sig.get(i) {
            hits.push(Hit {
                rule,
                offset: t.start,
                line: t.line,
                col: t.col,
                message,
            });
        }
    };

    for i in 0..sig.len() {
        let word = ident(i);

        // DET001: the hash-ordered collection types by name.
        if word == "HashMap" || word == "HashSet" {
            push(
                Rule::Det001,
                i,
                format!("`{word}` has per-instance seeded iteration order"),
            );
        }

        // DET002: wall clocks by name.
        if word == "Instant" || word == "SystemTime" {
            push(
                Rule::Det002,
                i,
                format!("`{word}` reads the wall clock, not sim-time"),
            );
        }

        // DET003: unseeded randomness, by name or as `rand::random`.
        if RNG_IDENTS.contains(&word) {
            push(
                Rule::Det003,
                i,
                format!("`{word}` is seeded from the OS, not the scenario stream"),
            );
        }
        if word == "rand" && punct(i + 1, b':') && punct(i + 2, b':') && ident(i + 3) == "random" {
            push(
                Rule::Det003,
                i,
                "`rand::random` is seeded from the OS, not the scenario stream".into(),
            );
        }

        // DET004: `.partial_cmp(` — method position only, so implementing
        // the PartialOrd trait (`fn partial_cmp`) does not match.
        if punct(i, b'.') && ident(i + 1) == "partial_cmp" {
            push(
                Rule::Det004,
                i + 1,
                "`.partial_cmp(..)` orders raw floats; NaN breaks totality".into(),
            );
        }

        // PAN001: `.unwrap()`, `.expect(`, `panic!(`.
        if punct(i, b'.') && ident(i + 1) == "unwrap" && punct(i + 2, b'(') && punct(i + 3, b')') {
            push(Rule::Pan001, i + 1, "`.unwrap()` call site".into());
        }
        if punct(i, b'.') && ident(i + 1) == "expect" && punct(i + 2, b'(') {
            push(Rule::Pan001, i + 1, "`.expect(..)` call site".into());
        }
        if word == "panic" && punct(i + 1, b'!') {
            push(Rule::Pan001, i, "`panic!` site".into());
        }

        // PAN002: the todo-family macros.
        if matches!(word, "unreachable" | "todo" | "unimplemented") && punct(i + 1, b'!') {
            push(Rule::Pan002, i, format!("`{word}!` site"));
        }

        // PAN003: an index expression — `[` whose preceding token can end
        // an expression (identifier, literal, `)`, `]`). Attribute (`#[`),
        // macro-bracket (`vec![`), and type/pattern brackets are excluded
        // by construction because their preceding token cannot end an
        // expression.
        if punct(i, b'[') && i > 0 {
            let indexable = match sig.get(i - 1) {
                Some(prev) => match prev.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text(src)),
                    TokenKind::Number | TokenKind::Literal => true,
                    TokenKind::Punct(b')') | TokenKind::Punct(b']') => true,
                    _ => false,
                },
                None => false,
            };
            if indexable {
                push(
                    Rule::Pan003,
                    i,
                    format!("index expression after `{}`", text(i - 1)),
                );
            }
        }

        // CONC001: bare std::thread spawn/scope/Builder.
        if word == "thread"
            && punct(i + 1, b':')
            && punct(i + 2, b':')
            && matches!(ident(i + 3), "spawn" | "scope" | "Builder")
        {
            push(
                Rule::Conc001,
                i,
                format!("`thread::{}` outside desim::par", ident(i + 3)),
            );
        }

        // UNS001: the unsafe keyword (raw identifier `r#unsafe` is a
        // different token kind and does not match).
        if word == "unsafe" {
            push(Rule::Uns001, i, "`unsafe` keyword".into());
        }
    }
    hits
}

/// Byte offset of the first `#[cfg(test)]` attribute, if any: everything
/// at or after it is the file's inline test region.
pub fn cfg_test_offset(tokens: &[Token], src: &str) -> Option<usize> {
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    for i in 0..sig.len() {
        let at = |k: usize| sig.get(i + k).copied();
        let is = |k: usize, b: u8| matches!(at(k), Some(t) if t.kind == TokenKind::Punct(b));
        let id = |k: usize, w: &str| matches!(at(k), Some(t) if t.kind == TokenKind::Ident && t.text(src) == w);
        if is(0, b'#')
            && is(1, b'[')
            && id(2, "cfg")
            && is(3, b'(')
            && id(4, "test")
            && is(5, b')')
            && is(6, b']')
        {
            return at(0).map(|t| t.start);
        }
    }
    None
}

/// True when the token stream contains `#![forbid(unsafe_code)]` — the
/// crate-entry attribute the unsafe audit requires.
pub fn has_forbid_unsafe(tokens: &[Token], src: &str) -> bool {
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    for i in 0..sig.len() {
        let is =
            |k: usize, b: u8| matches!(sig.get(i + k), Some(t) if t.kind == TokenKind::Punct(b));
        let id = |k: usize, w: &str| matches!(sig.get(i + k), Some(t) if t.kind == TokenKind::Ident && t.text(src) == w);
        if is(0, b'#')
            && is(1, b'!')
            && is(2, b'[')
            && id(3, "forbid")
            && is(4, b'(')
            && id(5, "unsafe_code")
            && is(6, b')')
            && is(7, b']')
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_hit(src: &str) -> Vec<Rule> {
        let toks = lex(src);
        scan(&toks, src).iter().map(|h| h.rule).collect()
    }

    #[test]
    fn catalog_codes_are_unique_and_stable() {
        let codes: Vec<_> = Rule::ALL.iter().map(|r| r.code()).collect();
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
        assert_eq!(Rule::Det001.code(), "DET001");
        assert_eq!(Rule::from_code("CONC001"), Some(Rule::Conc001));
        assert_eq!(Rule::from_code("NOPE"), None);
    }

    #[test]
    fn trait_impl_position_does_not_trip_det004() {
        let src = "impl PartialOrd for X { fn partial_cmp(&self, o: &Self) -> O { None } }";
        assert!(!rules_hit(src).contains(&Rule::Det004));
        assert!(rules_hit("a.partial_cmp(&b)").contains(&Rule::Det004));
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        assert!(!rules_hit("x.unwrap_or(0)").contains(&Rule::Pan001));
        assert!(!rules_hit("x.unwrap_or_else(f)").contains(&Rule::Pan001));
        assert!(rules_hit("x.unwrap()").contains(&Rule::Pan001));
        assert!(rules_hit("x.expect(\"m\")").contains(&Rule::Pan001));
        assert!(rules_hit("panic!(\"m\")").contains(&Rule::Pan001));
        // `std::panic::catch_unwind` names the module, not the macro.
        assert!(!rules_hit("std::panic::catch_unwind(f)").contains(&Rule::Pan001));
    }

    #[test]
    fn index_expressions_vs_types_attrs_and_macros() {
        assert!(rules_hit("x[i]").contains(&Rule::Pan003));
        assert!(rules_hit("f()[0]").contains(&Rule::Pan003));
        assert!(rules_hit("m[k][j]").contains(&Rule::Pan003));
        assert!(rules_hit("&src[a..b]").contains(&Rule::Pan003));
        assert!(rules_hit("t.0[i]").contains(&Rule::Pan003));
        assert!(!rules_hit("#[cfg(test)]").contains(&Rule::Pan003));
        assert!(!rules_hit("vec![1, 2]").contains(&Rule::Pan003));
        assert!(!rules_hit("let x: [u8; 4] = [0; 4];").contains(&Rule::Pan003));
        assert!(!rules_hit("return [a, b];").contains(&Rule::Pan003));
        assert!(!rules_hit("match [a, b] { _ => () }").contains(&Rule::Pan003));
    }

    #[test]
    fn forbid_attr_and_cfg_test_are_found() {
        let src = "#![forbid(unsafe_code)]\nfn f() {}\n#[cfg(test)]\nmod tests {}";
        let toks = lex(src);
        assert!(has_forbid_unsafe(&toks, src));
        let off = cfg_test_offset(&toks, src);
        assert!(off.is_some_and(|o| o > 0 && o < src.len()));
        assert!(!has_forbid_unsafe(&lex("fn f() {}"), "fn f() {}"));
    }

    #[test]
    fn thread_scope_and_spawn_trip_conc001() {
        assert!(rules_hit("std::thread::spawn(f)").contains(&Rule::Conc001));
        assert!(rules_hit("thread::scope(|s| ())").contains(&Rule::Conc001));
        assert!(!rules_hit("thread::available_parallelism()").contains(&Rule::Conc001));
    }
}
