//! Workspace automation: `cargo xtask lint`.
//!
//! A static-analysis driver that needs no network and no extra tooling
//! beyond the toolchain already in the container. It runs only what no
//! test can: the verify rule catalog's audits of the paper's schedules,
//! circuits, repairs and journals live in the verify, fabricd and pod
//! test suites under `cargo test --workspace`.
//!
//! 1. **detlint** — the token-level determinism & panic-freedom analyzer
//!    in [`detlint`] walks every workspace crate: `HashMap` iteration on
//!    fingerprint paths, wall clocks in simulation crates, unseeded
//!    randomness, raw `f64` ordering, unwrap/expect/panic/indexing in
//!    non-test code, bare thread spawns, and `unsafe` anywhere. Inline
//!    suppressions require a reason; `detlint.toml` baselines only
//!    ratchet down. A planted-violation negative control proves the
//!    analyzer has teeth on every run.
//! 2. **perf baselines** — walks [`BENCH_GATES`]: each row re-runs one
//!    committed `BENCH_*.json` workload through a release `spsim`
//!    (sweep, routebench, pod smoke, ctrl campaign, stitch placement) and
//!    gates the fresh report with [`fabricd::report::compare`] over the
//!    report's own field table: `Exact` rows (fingerprints, journal
//!    hashes, counts) must match, `Floor` rates and the `Ceiling` latency
//!    hold [`fabricd::report::MIN_PERF_RATIO`], `Info` rows only need to
//!    be present. Two rows add a same-run check: route's stamped speedup
//!    and placement's stitched job.
//! 3. **fmt** — `cargo fmt --check` (skipped gracefully when rustfmt is
//!    not installed).
//! 4. **clippy** — `cargo clippy --workspace --all-targets` with
//!    `-D warnings` and a curated allow-list (skipped gracefully when
//!    clippy is not installed).
//!
//! `cargo xtask catalog` prints both rule catalogs (verify + detlint).
//! `cargo xtask detlint [--json] [--check-file <path>] [paths…]` runs the
//! analyzer standalone.

#![forbid(unsafe_code)]

use fabricd::report::{compare, json_f64, json_raw, BenchFields, Field, Gate, MIN_PERF_RATIO};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use verify::RuleId;

/// Clippy lints allowed on top of `-D warnings` (style calls this
/// workspace makes deliberately; everything else stays denied).
const CLIPPY_ALLOW: &[&str] = &[
    "clippy::too_many_arguments",
    "clippy::type_complexity",
    "clippy::new_without_default",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("lint");
    let rest = args.get(1..).unwrap_or_default();
    match cmd {
        "lint" => lint(rest),
        "detlint" => detlint_cmd(rest),
        "catalog" => {
            catalog();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!(
                "unknown xtask `{other}`; available: lint [--skip-fmt --skip-clippy \
                 --skip-bench], detlint [--json] [paths…], catalog"
            );
            ExitCode::FAILURE
        }
    }
}

fn catalog() {
    println!("verify rule catalog:");
    for rule in RuleId::ALL {
        println!("  {:<7} {}", rule.code(), rule.summary());
    }
    println!();
    println!("detlint rule catalog:");
    for rule in detlint::Rule::ALL {
        println!("  {:<8} {}", rule.code(), rule.summary());
    }
}

fn lint(flags: &[String]) -> ExitCode {
    let skip_fmt = flags.iter().any(|f| f == "--skip-fmt");
    let skip_clippy = flags.iter().any(|f| f == "--skip-clippy");
    let skip_bench = flags.iter().any(|f| f == "--skip-bench");
    let root = workspace_root();
    let mut failures: Vec<String> = Vec::new();

    section("detlint: determinism & panic-freedom");
    failures.extend(detlint_run(&root, false, &[]));

    for gate in BENCH_GATES {
        section(&format!("perf baseline: {}", gate.baseline));
        if skip_bench {
            println!("  skipped (--skip-bench)");
        } else {
            failures.extend(run_bench_gate(&root, gate));
        }
    }

    section("cargo fmt --check");
    if skip_fmt {
        println!("  skipped (--skip-fmt)");
    } else {
        failures.extend(run_fmt(&root));
    }

    section("cargo clippy -D warnings");
    if skip_clippy {
        println!("  skipped (--skip-clippy)");
    } else {
        failures.extend(run_clippy(&root));
    }

    println!();
    if failures.is_empty() {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("xtask lint: {} failure(s)", failures.len());
        for f in &failures {
            println!("  ✗ {f}");
        }
        ExitCode::FAILURE
    }
}

fn section(title: &str) {
    println!("== {title} ==");
}

// --------------------------------------------------------- perf baseline --

/// One committed perf-baseline artifact, as data: the report table that
/// gates it and the `spsim` run that reproduces it. `lint` walks
/// [`BENCH_GATES`] in order through [`run_bench_gate`].
struct BenchGate {
    /// The committed artifact at the workspace root (also the section
    /// title `lint` prints).
    baseline: &'static str,
    /// The report's `(key, gate)` rows.
    fields: &'static [Field],
    /// The `spsim` subcommand and its fixed flags.
    command: &'static [&'static str],
    /// Keys whose baseline values are passed as `--key value`.
    keyed: &'static [&'static str],
    /// A same-run check beyond the per-field rows.
    check: Option<fn(&str) -> Result<(), String>>,
    /// The command that rewrites the baseline, printed once on failure.
    regen: &'static str,
}

/// Every perf gate `cargo xtask lint` enforces, in run order.
const BENCH_GATES: &[BenchGate] = &[
    BenchGate {
        baseline: "BENCH_sweep.json",
        fields: sweep::BenchReport::FIELDS,
        command: &["sweep"],
        keyed: &["grid", "workers"],
        check: None,
        regen: "spsim sweep --grid smoke --workers 2 --write-baseline BENCH_sweep.json",
    },
    BenchGate {
        baseline: "BENCH_route.json",
        fields: sweep::RouteBenchReport::FIELDS,
        command: &["routebench"],
        keyed: &["searches", "batches"],
        check: Some(sweep::check_stamped_speedup),
        regen: "spsim routebench --write-baseline BENCH_route.json",
    },
    BenchGate {
        baseline: "BENCH_pod.json",
        fields: pod::PodBenchReport::FIELDS,
        command: &["pod", "--smoke"],
        keyed: &[],
        check: None,
        regen: "spsim pod --smoke --write-baseline BENCH_pod.json",
    },
    BenchGate {
        baseline: "BENCH_ctrl.json",
        fields: fabricd::CtrlBenchReport::FIELDS,
        command: &["ctrl", "--campaign"],
        keyed: &[],
        check: None,
        regen: "spsim ctrl --campaign --write-baseline BENCH_ctrl.json",
    },
    BenchGate {
        baseline: "BENCH_placement.json",
        fields: pod::PodBenchReport::FIELDS,
        command: &["pod", "--failures", "2"],
        keyed: &["chips", "jobs", "policy"],
        check: Some(pod::check_stitched),
        regen: "spsim pod --chips 512 --jobs 96 --failures 2 --policy stitch \
                --write-baseline BENCH_placement.json",
    },
];

/// Run one gate: read the committed baseline, re-run its workload through
/// `spsim` (release, so rates are comparable to the committed numbers)
/// into a scratch artifact under `target/`, compare every row, run the
/// same-run check, and report.
fn run_bench_gate(root: &Path, gate: &BenchGate) -> Vec<String> {
    let baseline_path = root.join(gate.baseline);
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            println!("  FAIL cannot read {}: {e}", baseline_path.display());
            return vec![format!(
                "missing perf baseline {} — generate with `{}`",
                baseline_path.display(),
                gate.regen
            )];
        }
    };
    let mut args: Vec<String> = gate.command.iter().map(|a| a.to_string()).collect();
    for key in gate.keyed {
        match json_raw(&baseline, key) {
            Ok(value) => args.extend([format!("--{key}"), value.trim_matches('"').to_string()]),
            Err(e) => {
                println!("  FAIL baseline: {e}");
                println!("       regenerate with `{}`", gate.regen);
                return vec![format!("{}: baseline: {e}", gate.baseline)];
            }
        }
    }
    let subcommand = gate.command.first().copied().unwrap_or_default();
    let stem = gate.baseline.strip_suffix(".json").unwrap_or(gate.baseline);
    let current_path = root.join("target").join(format!("{stem}.current.json"));
    let status = cargo()
        .current_dir(root)
        .args(["run", "--release", "--quiet", "--bin", "spsim", "--"])
        .args(&args)
        .arg("--write-baseline")
        .arg(&current_path)
        .stdout(std::process::Stdio::null())
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(_) => {
            println!("  FAIL spsim {subcommand} exited non-zero");
            return vec![format!(
                "spsim {subcommand} failed (determinism violation or bad workload)"
            )];
        }
        Err(e) => {
            println!("  FAIL could not spawn cargo run ({e})");
            return vec![format!("could not run spsim {subcommand}: {e}")];
        }
    }
    let current = match std::fs::read_to_string(&current_path) {
        Ok(t) => t,
        Err(e) => {
            println!("  FAIL unreadable {subcommand} output: {e}");
            return vec![format!("unreadable {}: {e}", current_path.display())];
        }
    };
    let mut failures: Vec<String> = compare(gate.fields, &current, &baseline)
        .into_iter()
        .map(|(_, message)| message)
        .collect();
    failures.extend(gate.check.and_then(|check| check(&current).err()));
    if failures.is_empty() {
        println!("  ok   {}", ok_line(gate.fields, &current, &baseline));
    } else {
        for f in &failures {
            println!("  FAIL {f}");
        }
        println!(
            "       if the change is intended, regenerate with `{}`",
            gate.regen
        );
    }
    failures
        .into_iter()
        .map(|f| format!("{}: {f}", gate.baseline))
        .collect()
}

/// The success summary: how many exact rows reproduced, then each rate
/// with its baseline and bound.
fn ok_line(fields: &[Field], current: &str, baseline: &str) -> String {
    let exact = fields.iter().filter(|(_, g)| *g == Gate::Exact).count();
    let mut line = format!("{exact} exact fields reproduced");
    for (key, gate) in fields {
        let cur = json_f64(current, key).unwrap_or(f64::NAN);
        let base = json_f64(baseline, key).unwrap_or(f64::NAN);
        let bound = match gate {
            Gate::Floor => format!("floor {:.3}", base * MIN_PERF_RATIO),
            Gate::Ceiling => format!("ceiling {:.3}", base / MIN_PERF_RATIO),
            Gate::Exact | Gate::Info => continue,
        };
        line.push_str(&format!("; {key} {cur:.3} (baseline {base:.3}, {bound})"));
    }
    line
}

// --------------------------------------------------------- source audits --

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/crates/xtask.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// A snippet that must trip DET001 and PAN001: linted on every run as a
/// negative control proving the analyzer still has teeth. Assembled from
/// a planted source string, never from the tree.
const PLANTED_VIOLATION: &str = "fn planted() -> u32 {\n    let m = \
    std::collections::HashMap::new();\n    m.get(&1).copied().unwrap()\n}\n";

/// Run detlint over the workspace (or a path-filtered subset), print the
/// report, optionally emit the JSON artifact, and return failure lines.
fn detlint_run(root: &Path, json: bool, filters: &[String]) -> Vec<String> {
    let cfg = match detlint::load_config(root) {
        Ok(c) => c,
        Err(e) => {
            println!("  FAIL {e}");
            return vec![format!("detlint config: {e}")];
        }
    };
    let report = detlint::lint_workspace(root, &cfg, filters);

    // Negative control: a planted HashMap + unwrap must fire. If it does
    // not, the lexer or matcher has silently broken.
    let planted = detlint::lint_source("planted", "planted.rs", PLANTED_VIOLATION, &cfg, false);
    let mut failures = report.failures.clone();
    for rule in [detlint::Rule::Det001, detlint::Rule::Pan001] {
        if !planted.iter().any(|f| f.rule == rule) {
            failures.push(format!(
                "negative control: planted violation did not trip {}",
                rule.code()
            ));
        }
    }

    let suppressed = report
        .findings
        .iter()
        .filter(|f| matches!(f.status, detlint::Status::Suppressed { .. }))
        .count();
    let baselined = report
        .findings
        .iter()
        .filter(|f| f.status == detlint::Status::Baselined)
        .count();
    for b in &report.baselines {
        let note = if b.count < b.ceiling {
            " (ceiling can be tightened)"
        } else {
            ""
        };
        println!(
            "  ok   {}: {} {} site(s), ceiling {}{note}",
            b.krate,
            b.count,
            b.rule.code(),
            b.ceiling
        );
    }
    if failures.is_empty() {
        println!(
            "  ok   {} crates, {} files: 0 active findings ({suppressed} suppressed, \
             {baselined} baselined); negative control fired",
            report.crates, report.files
        );
    } else {
        for f in &failures {
            println!("  FAIL {f}");
        }
    }
    if json {
        println!("{}", report.to_json());
    } else {
        let artifact = root.join("target").join("detlint.json");
        if let Err(e) = std::fs::create_dir_all(root.join("target"))
            .and_then(|()| std::fs::write(&artifact, report.to_json()))
        {
            println!("  warn could not write {}: {e}", artifact.display());
        }
    }
    failures
}

/// `cargo xtask detlint [--json] [--check-file <path>] [paths…]` — run the
/// analyzer standalone. Bare arguments are substring path filters
/// (`crates/route`, `rwa.rs`). `--check-file` lints one file as
/// production code and prints every finding, for editor integration.
fn detlint_cmd(flags: &[String]) -> ExitCode {
    let root = workspace_root();
    let json = flags.iter().any(|f| f == "--json");
    if let Some(i) = flags.iter().position(|f| f == "--check-file") {
        let Some(path) = flags.get(i + 1) else {
            eprintln!("--check-file needs a path");
            return ExitCode::FAILURE;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let cfg = detlint::load_config(&root).unwrap_or_default();
        let findings = detlint::lint_source("adhoc", path, &text, &cfg, false);
        for f in &findings {
            println!("{f}");
        }
        return if findings.iter().any(|f| f.status == detlint::Status::Active) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let filters: Vec<String> = flags
        .iter()
        .filter(|f| !f.starts_with("--"))
        .cloned()
        .collect();
    if !json {
        section("detlint: determinism & panic-freedom");
    }
    let failures = detlint_run(&root, json, &filters);
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ------------------------------------------------------- external tools --

fn cargo() -> Command {
    Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
}

fn tool_available(subcommand: &str) -> bool {
    cargo()
        .args([subcommand, "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

fn run_fmt(root: &Path) -> Vec<String> {
    if !tool_available("fmt") {
        println!("  skipped: rustfmt is not installed in this toolchain");
        return Vec::new();
    }
    let status = cargo().current_dir(root).args(["fmt", "--check"]).status();
    match status {
        Ok(s) if s.success() => {
            println!("  ok   formatting is canonical");
            Vec::new()
        }
        Ok(_) => {
            println!("  FAIL run `cargo fmt` to fix");
            vec!["cargo fmt --check found drift".into()]
        }
        Err(e) => {
            println!("  skipped: could not spawn cargo fmt ({e})");
            Vec::new()
        }
    }
}

fn run_clippy(root: &Path) -> Vec<String> {
    if !tool_available("clippy") {
        println!("  skipped: clippy is not installed in this toolchain");
        return Vec::new();
    }
    let mut cmd = cargo();
    cmd.current_dir(root).args([
        "clippy",
        "--workspace",
        "--all-targets",
        "--quiet",
        "--",
        "-D",
        "warnings",
    ]);
    for allow in CLIPPY_ALLOW {
        cmd.args(["-A", allow]);
    }
    match cmd.status() {
        Ok(s) if s.success() => {
            println!(
                "  ok   no clippy findings (allow-list: {})",
                CLIPPY_ALLOW.join(", ")
            );
            Vec::new()
        }
        Ok(_) => {
            println!("  FAIL clippy found denied warnings");
            vec!["cargo clippy -D warnings failed".into()]
        }
        Err(e) => {
            println!("  skipped: could not spawn cargo clippy ({e})");
            Vec::new()
        }
    }
}
