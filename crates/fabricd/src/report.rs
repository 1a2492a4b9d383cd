//! The committed `BENCH_*.json` baselines: one codec and one gate for all
//! five, plus the control-plane bench that writes `BENCH_ctrl.json`.
//!
//! The workspace has no serde (offline build). Each bench report instead
//! implements [`BenchFields`]: a static table of `(key, gate)` rows in JSON
//! order, and its values in the same order. From that one declaration:
//!
//! * [`BenchFields::to_json`] writes the report as a flat JSON object;
//! * [`compare`] reads a fresh text and a committed one through
//!   [`json_raw`] and applies each row's [`Gate`];
//! * `cargo xtask lint` re-runs each workload through `spsim` and gates
//!   it with [`compare`], and the tier-1 pins check the
//!   [`Exact`](Gate::Exact) rows (debug builds on any host cannot compare
//!   rates).
//!
//! `BENCH_ctrl.json` ([`CtrlBenchReport`]) gates the control plane: the
//! state fingerprint, journal hash, record, snapshot and admission counts,
//! and the records a delta replay folds (the O(tail) claim, asserted at
//! bench time by [`run_ctrl_bench`]) match exactly; admissions/sec has a
//! floor and tail-replay latency a ceiling.

use crate::ctrl::{run_campaign, CampaignOptions, CtrlConfig};
use crate::state::{replay, replay_from};
use desim::SimDuration;
use std::fmt;
use Gate::{Ceiling, Exact, Floor, Info};
use Value::{Str, F64, U64};

/// A rate may not drop below this fraction of its baseline, and a latency
/// may not exceed its baseline divided by it: loose enough that host noise
/// does not flake, tight enough that an order-of-magnitude slowdown fails.
pub const MIN_PERF_RATIO: f64 = 0.1;

/// How [`compare`] checks one field of a fresh report against its
/// committed baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Deterministic output: the JSON tokens must be identical.
    Exact,
    /// A rate: fails below [`MIN_PERF_RATIO`] × baseline.
    Floor,
    /// A latency: fails above baseline / [`MIN_PERF_RATIO`]; skipped when
    /// the baseline is 0.
    Ceiling,
    /// Recorded for context: must be present, never compared.
    Info,
}

/// One row of a bench report's table: its JSON key and its gate.
pub type Field = (&'static str, Gate);

/// One field value, written as its JSON token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// A count.
    U64(u64),
    /// A measurement, in Rust's shortest round-trip form.
    F64(f64),
    /// A name or a hex digest, quoted (never escaped: no value needs it).
    Str(&'a str),
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            U64(v) => write!(f, "{v}"),
            F64(v) => write!(f, "{v}"),
            Str(s) => write!(f, "\"{s}\""),
        }
    }
}

/// A bench report's format and gates, declared once.
pub trait BenchFields {
    /// Every field in JSON order, with its gate.
    const FIELDS: &'static [Field];

    /// The field values, in [`FIELDS`](Self::FIELDS) order.
    fn values(&self) -> Vec<Value<'_>>;

    /// The committed JSON form: one `"key": value` line per field, in
    /// table order.
    fn to_json(&self) -> String {
        let lines: Vec<String> = Self::FIELDS
            .iter()
            .zip(self.values())
            .map(|((key, _), value)| format!("  \"{key}\": {value}"))
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }
}

/// Compare a fresh report's text against its committed baseline, row by
/// row. Returns one message per violated row, tagged with the row's gate
/// and naming its key; empty means the baseline holds. A key missing from
/// either text violates its row whatever the gate.
pub fn compare(fields: &[Field], current: &str, baseline: &str) -> Vec<(Gate, String)> {
    let mut failures = Vec::new();
    for &(key, gate) in fields {
        let violation = match (json_raw(current, key), json_raw(baseline, key)) {
            (Err(e), _) => Some(format!("current report: {e}")),
            (_, Err(e)) => Some(format!("baseline: {e}")),
            (Ok(cur), Ok(base)) => check_row(key, gate, cur, base),
        };
        failures.extend(violation.map(|message| (gate, message)));
    }
    failures
}

/// One row's verdict on two present JSON tokens.
fn check_row(key: &str, gate: Gate, cur: &str, base: &str) -> Option<String> {
    if gate == Info || (gate == Exact && cur == base) {
        return None;
    }
    if gate == Exact {
        return Some(format!("{key} {cur} != baseline {base}"));
    }
    let (Ok(c), Ok(b)) = (cur.parse::<f64>(), base.parse::<f64>()) else {
        return Some(format!("{key} is not a number: {cur} (baseline {base})"));
    };
    if gate == Floor && c < b * MIN_PERF_RATIO {
        return Some(format!(
            "{key} {c:.3} is below {:.3} ({MIN_PERF_RATIO}x of baseline {b:.3})",
            b * MIN_PERF_RATIO
        ));
    }
    if gate == Ceiling && b > 0.0 && c > b / MIN_PERF_RATIO {
        return Some(format!(
            "{key} {c:.3} exceeds {:.3} (baseline {b:.3} / {MIN_PERF_RATIO})",
            b / MIN_PERF_RATIO
        ));
    }
    None
}

/// The committed-baseline bench configuration. `cargo xtask lint` and
/// `spsim ctrl --campaign --write-baseline` must drive the *same*
/// campaign bit for bit, so both call this instead of hand-rolling a
/// config.
pub fn bench_config() -> (CtrlConfig, SimDuration) {
    (
        CtrlConfig {
            jobs: 48,
            seed: 7,
            failures: 2,
            ..CtrlConfig::default()
        },
        SimDuration::from_secs(600),
    )
}

/// The control-plane benchmark summary that is serialized, committed,
/// and gated on.
#[derive(Debug, Clone, PartialEq)]
pub struct CtrlBenchReport {
    /// Jobs in the campaign's arrival trace.
    pub jobs: u64,
    /// Snapshot cadence in simulated seconds.
    pub snapshot_every_s: u64,
    /// Snapshots captured over the campaign.
    pub snapshots: u64,
    /// Final state fingerprint, hex with 0x prefix.
    pub fingerprint: String,
    /// Journal hash, hex with 0x prefix.
    pub journal_hash: String,
    /// Logical journal records (compaction-invariant).
    pub journal_records: u64,
    /// Jobs admitted over the campaign.
    pub admissions: u64,
    /// Wall-clock seconds of the campaign (informational).
    pub wall_s: f64,
    /// Admissions per wall-clock second — the gated throughput.
    pub admissions_per_sec: f64,
    /// Records a from-scratch replay folds (the whole journal).
    pub replay_full_records: u64,
    /// Records a delta replay folds from the bench snapshot (the tail).
    pub replay_tail_records: u64,
    /// Wall-clock milliseconds of the from-scratch replay (informational).
    pub replay_full_ms: f64,
    /// Wall-clock milliseconds of the delta replay — the gated latency.
    pub replay_tail_ms: f64,
}

impl BenchFields for CtrlBenchReport {
    const FIELDS: &'static [Field] = &[
        ("jobs", Exact),
        ("snapshot_every_s", Exact),
        ("snapshots", Exact),
        ("fingerprint", Exact),
        ("journal_hash", Exact),
        ("journal_records", Exact),
        ("admissions", Exact),
        ("wall_s", Info),
        ("admissions_per_sec", Floor),
        ("replay_full_records", Exact),
        ("replay_tail_records", Exact),
        ("replay_full_ms", Info),
        ("replay_tail_ms", Ceiling),
    ];

    fn values(&self) -> Vec<Value<'_>> {
        vec![
            U64(self.jobs),
            U64(self.snapshot_every_s),
            U64(self.snapshots),
            Str(&self.fingerprint),
            Str(&self.journal_hash),
            U64(self.journal_records),
            U64(self.admissions),
            F64(self.wall_s),
            F64(self.admissions_per_sec),
            U64(self.replay_full_records),
            U64(self.replay_tail_records),
            F64(self.replay_full_ms),
            F64(self.replay_tail_ms),
        ]
    }
}

/// Run the ctrl benchmark: drive a snapshotted campaign, then time a
/// from-scratch replay against a delta replay from a mid-stream snapshot,
/// verifying both reproduce the live state's fingerprint.
pub fn run_ctrl_bench(
    cfg: &CtrlConfig,
    snapshot_every: SimDuration,
) -> Result<CtrlBenchReport, String> {
    // detlint: allow(DET002) — wall-clock feeds throughput/latency
    // telemetry only; every simulated output is a pure function of the
    // config.
    let started = std::time::Instant::now();
    let out = run_campaign(
        cfg,
        &CampaignOptions {
            snapshot_every: Some(snapshot_every),
            ..CampaignOptions::default()
        },
    )?;
    let wall_s = started.elapsed().as_secs_f64();

    let journal = out.state.journal();
    let live_fp = out.state.fingerprint();
    // A quiesced campaign's *final* snapshot trails its last journaled
    // decision, so delta replay from it would fold nothing. Bench from the
    // three-quarter-point snapshot instead: that is the shape of a real
    // crash-restart — a snapshot mid-stream plus a genuine journal tail.
    let snap = out
        .snapshots
        .get(out.snapshots.len().saturating_sub(1) * 3 / 4)
        .ok_or_else(|| "campaign captured no snapshots; raise jobs or lower cadence".to_string())?;

    let full_started = std::time::Instant::now(); // detlint: allow(DET002) wall-clock bench timing
    let full = replay(journal).map_err(|e| format!("full replay failed: {e}"))?;
    let replay_full_ms = full_started.elapsed().as_secs_f64() * 1e3;
    if full.fingerprint() != live_fp {
        return Err("full replay diverged from the live state".to_string());
    }

    let tail_started = std::time::Instant::now(); // detlint: allow(DET002) wall-clock bench timing
    let tail =
        replay_from(&snap.fabric, journal).map_err(|e| format!("delta replay failed: {e}"))?;
    let replay_tail_ms = tail_started.elapsed().as_secs_f64() * 1e3;
    if tail.fingerprint() != live_fp {
        return Err("delta replay diverged from the live state".to_string());
    }

    let replay_full_records = journal.len() as u64;
    let replay_tail_records = replay_full_records.saturating_sub(snap.fabric.seq + 1);
    if replay_tail_records >= replay_full_records {
        return Err(format!(
            "delta replay folded {replay_tail_records} of {replay_full_records} records — \
             not O(tail)"
        ));
    }

    let admissions = out.metrics.counter("jobs.admitted");
    let admissions_per_sec = if wall_s > 0.0 {
        admissions as f64 / wall_s
    } else {
        0.0
    };

    Ok(CtrlBenchReport {
        jobs: cfg.jobs as u64,
        snapshot_every_s: snapshot_every.as_ps() / desim::PS_PER_S,
        snapshots: out.snapshots.len() as u64,
        fingerprint: format!("{live_fp:#018x}"),
        journal_hash: format!("{:#018x}", journal.hash()),
        journal_records: replay_full_records,
        admissions,
        wall_s,
        admissions_per_sec,
        replay_full_records,
        replay_tail_records,
        replay_full_ms,
        replay_tail_ms,
    })
}

// ------------------------------------------------- tiny JSON extraction --
// The workspace's one reader for the flat `BENCH_*.json` reports: every
// baseline is compared through it. Index-free (slice-by-get): fabricd and
// pod are pinned at zero detlint findings.

/// The raw text after `"key":`, up to the value's end (`,`, `}` or EOL).
pub fn json_raw<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
    let needle = format!("\"{key}\"");
    let at = text
        .find(&needle)
        .ok_or_else(|| format!("missing key \"{key}\""))?;
    let rest = text.get(at + needle.len()..).unwrap_or_default();
    let rest = rest
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("no ':' after \"{key}\""))?
        .trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Ok(rest.get(..end).unwrap_or(rest).trim())
}

/// The string value of `"key"` (quotes stripped, no unescaping).
pub fn json_str(text: &str, key: &str) -> Result<String, String> {
    let raw = json_raw(text, key)?;
    raw.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("\"{key}\" is not a string: {raw}"))
}

/// The `u64` value of `"key"`.
pub fn json_u64(text: &str, key: &str) -> Result<u64, String> {
    let raw = json_raw(text, key)?;
    raw.parse()
        .map_err(|_| format!("\"{key}\" is not a u64: {raw}"))
}

/// The `f64` value of `"key"`.
pub fn json_f64(text: &str, key: &str) -> Result<f64, String> {
    let raw = json_raw(text, key)?;
    raw.parse()
        .map_err(|_| format!("\"{key}\" is not an f64: {raw}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CtrlBenchReport {
        CtrlBenchReport {
            jobs: 48,
            snapshot_every_s: 600,
            snapshots: 9,
            fingerprint: "0x00000000deadbeef".into(),
            journal_hash: "0x00000000cafef00d".into(),
            journal_records: 321,
            admissions: 44,
            wall_s: 0.25,
            admissions_per_sec: 176.0,
            replay_full_records: 321,
            replay_tail_records: 17,
            replay_full_ms: 4.0,
            replay_tail_ms: 0.5,
        }
    }

    fn failures(current: &CtrlBenchReport, baseline: &CtrlBenchReport) -> Vec<(Gate, String)> {
        compare(
            CtrlBenchReport::FIELDS,
            &current.to_json(),
            &baseline.to_json(),
        )
    }

    #[test]
    fn every_row_keeps_its_gate() {
        let rows = |gate| {
            CtrlBenchReport::FIELDS
                .iter()
                .filter(move |(_, g)| *g == gate)
                .map(|(key, _)| *key)
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(Gate::Exact).len(), 9);
        assert_eq!(rows(Gate::Floor), ["admissions_per_sec"]);
        assert_eq!(rows(Gate::Ceiling), ["replay_tail_ms"]);
        assert_eq!(rows(Gate::Info), ["wall_s", "replay_full_ms"]);
    }

    #[test]
    fn to_json_writes_the_committed_layout() {
        assert_eq!(
            report().to_json(),
            "{\n  \"jobs\": 48,\n  \"snapshot_every_s\": 600,\n  \"snapshots\": 9,\n  \
             \"fingerprint\": \"0x00000000deadbeef\",\n  \"journal_hash\": \"0x00000000cafef00d\",\n  \
             \"journal_records\": 321,\n  \"admissions\": 44,\n  \"wall_s\": 0.25,\n  \
             \"admissions_per_sec\": 176,\n  \"replay_full_records\": 321,\n  \
             \"replay_tail_records\": 17,\n  \"replay_full_ms\": 4,\n  \
             \"replay_tail_ms\": 0.5\n}\n"
        );
    }

    #[test]
    fn every_key_is_read_and_a_missing_one_is_named() {
        let text = report().to_json();
        assert!(compare(CtrlBenchReport::FIELDS, &text, &text).is_empty());
        for &(key, gate) in CtrlBenchReport::FIELDS {
            let needle = format!("\"{key}\"");
            let without: String = text
                .lines()
                .filter(|l| !l.trim_start().starts_with(&needle))
                .collect::<Vec<_>>()
                .join("\n");
            for (cur, base, side) in [(&without, &text, "current"), (&text, &without, "baseline")] {
                let found = compare(CtrlBenchReport::FIELDS, cur, base);
                assert_eq!(found.len(), 1, "{key} missing from {side}: {found:?}");
                assert_eq!(found[0].0, gate);
                assert!(found[0].1.contains(&needle), "{found:?} names {key}");
            }
        }
    }

    #[test]
    fn exact_rows_compare_tokens_and_info_rows_are_never_compared() {
        let fields = [("a", Exact), ("b", Info)];
        let base = "{\n  \"a\": \"x\",\n  \"b\": 1\n}\n";
        assert!(compare(&fields, "{\"a\": \"x\", \"b\": 99}", base).is_empty());
        let found = compare(&fields, "{\"a\": \"y\", \"b\": 1}", base);
        assert_eq!(
            found,
            vec![(Exact, "a \"y\" != baseline \"x\"".to_string())]
        );
        // 1.0 and 1 are the same number but not the same token.
        assert_eq!(compare(&[("b", Exact)], "{\"b\": 1.0}", base).len(), 1);
    }

    #[test]
    fn rate_rows_hold_their_ratio_and_a_zero_ceiling_is_skipped() {
        let fields = [("rate", Floor), ("lat", Ceiling)];
        let base = "{\"rate\": 100, \"lat\": 2}";
        assert!(compare(&fields, "{\"rate\": 11, \"lat\": 19}", base).is_empty());
        let found = compare(&fields, "{\"rate\": 9.9, \"lat\": 20.1}", base);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!((found[0].0, found[1].0), (Floor, Ceiling));
        assert!(found[0].1.starts_with("rate ") && found[1].1.starts_with("lat "));
        assert!(compare(
            &fields,
            "{\"rate\": 100, \"lat\": 5}",
            "{\"rate\": 100, \"lat\": 0}"
        )
        .is_empty());
        let bad = compare(&fields, "{\"rate\": fast, \"lat\": 2}", base);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].1.contains("not a number"), "{bad:?}");
    }

    #[test]
    fn determinism_drift_fails_the_gate() {
        let baseline = report();
        let mut current = report();
        current.fingerprint = "0x0000000000000001".into();
        current.journal_hash = "0x0000000000000002".into();
        current.replay_tail_records = 18;
        let found = failures(&current, &baseline);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(found.iter().all(|(gate, _)| *gate == Exact));
    }

    #[test]
    fn slowdown_fails_but_noise_passes() {
        let baseline = report();
        let mut slow = report();
        slow.admissions_per_sec = baseline.admissions_per_sec * 0.05;
        slow.replay_tail_ms = baseline.replay_tail_ms * 20.0;
        assert_eq!(failures(&slow, &baseline).len(), 2);
        let mut noisy = report();
        noisy.admissions_per_sec = baseline.admissions_per_sec * 0.5;
        noisy.replay_tail_ms = baseline.replay_tail_ms * 2.0;
        noisy.wall_s = baseline.wall_s * 3.0;
        noisy.replay_full_ms = baseline.replay_full_ms * 30.0;
        assert!(failures(&noisy, &baseline).is_empty());
    }

    #[test]
    fn bench_runs_and_its_report_matches_itself() {
        let cfg = CtrlConfig {
            jobs: 12,
            ..CtrlConfig::default()
        };
        let r = match run_ctrl_bench(&cfg, SimDuration::from_secs(600)) {
            Ok(r) => r,
            Err(e) => panic!("bench failed: {e}"),
        };
        assert!(r.snapshots > 0);
        assert!(r.replay_tail_records < r.replay_full_records, "O(tail)");
        assert!(failures(&r, &r).is_empty());
    }
}
