//! `BENCH_ctrl.json`: the committed control-plane benchmark baseline.
//!
//! Same contract as `BENCH_pod.json`: no serde in the workspace, so the
//! report is a flat hand-rolled JSON object plus a tolerant extractor
//! that reads back exactly what [`CtrlBenchReport::to_json`] writes.
//! `cargo xtask lint` re-runs the ctrl smoke campaign and gates on it:
//!
//! * **determinism, exact** — state fingerprint, journal hash, logical
//!   record count, snapshot count, and the tail-replay record count all
//!   match the baseline bit for bit;
//! * **delta replay is O(tail)** — the records folded by
//!   [`replay_from`](crate::replay_from) are structurally fewer than a
//!   full replay's (asserted at bench time, pinned in the baseline);
//! * **throughput floor** — admissions/sec may not regress below
//!   [`MIN_CTRL_PERF_RATIO`] × baseline, and tail-replay latency may not
//!   exceed baseline / [`MIN_CTRL_PERF_RATIO`].

use crate::ctrl::{run_campaign, CampaignOptions, CtrlConfig};
use crate::state::{replay, replay_from};
use desim::SimDuration;

/// Throughput may not drop below this fraction of the baseline (and
/// tail-replay latency may not exceed `baseline / ratio`).
pub const MIN_CTRL_PERF_RATIO: f64 = 0.1;

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

impl CtrlBenchReport {
    /// Serialize to the committed JSON form (stable key order). Floats use
    /// Rust's shortest round-trip form so `parse(to_json(r)) == r`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"jobs\": {},\n  \"snapshot_every_s\": {},\n  \"snapshots\": {},\n  \
             \"fingerprint\": \"{}\",\n  \"journal_hash\": \"{}\",\n  \
             \"journal_records\": {},\n  \"admissions\": {},\n  \"wall_s\": {},\n  \
             \"admissions_per_sec\": {},\n  \"replay_full_records\": {},\n  \
             \"replay_tail_records\": {},\n  \"replay_full_ms\": {},\n  \
             \"replay_tail_ms\": {}\n}}\n",
            self.jobs,
            self.snapshot_every_s,
            self.snapshots,
            self.fingerprint,
            self.journal_hash,
            self.journal_records,
            self.admissions,
            self.wall_s,
            self.admissions_per_sec,
            self.replay_full_records,
            self.replay_tail_records,
            self.replay_full_ms,
            self.replay_tail_ms,
        )
    }

    /// Parse the JSON form produced by [`to_json`](Self::to_json).
    pub fn parse(text: &str) -> Result<CtrlBenchReport, String> {
        Ok(CtrlBenchReport {
            jobs: json_u64(text, "jobs")?,
            snapshot_every_s: json_u64(text, "snapshot_every_s")?,
            snapshots: json_u64(text, "snapshots")?,
            fingerprint: json_str(text, "fingerprint")?,
            journal_hash: json_str(text, "journal_hash")?,
            journal_records: json_u64(text, "journal_records")?,
            admissions: json_u64(text, "admissions")?,
            wall_s: json_f64(text, "wall_s")?,
            admissions_per_sec: json_f64(text, "admissions_per_sec")?,
            replay_full_records: json_u64(text, "replay_full_records")?,
            replay_tail_records: json_u64(text, "replay_tail_records")?,
            replay_full_ms: json_f64(text, "replay_full_ms")?,
            replay_tail_ms: json_f64(text, "replay_tail_ms")?,
        })
    }
}

/// Compare a fresh run against the committed baseline. Returns one
/// message per violated gate; empty means the baseline holds. `wall_s`
/// and the replay wall-clock figures of the *baseline run* are recorded
/// for context; latency is gated with the same headroom ratio as
/// throughput.
pub fn compare_ctrl_baseline(current: &CtrlBenchReport, baseline: &CtrlBenchReport) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, cur, base) in [
        ("jobs", current.jobs, baseline.jobs),
        (
            "snapshot_every_s",
            current.snapshot_every_s,
            baseline.snapshot_every_s,
        ),
        ("snapshots", current.snapshots, baseline.snapshots),
        (
            "journal_records",
            current.journal_records,
            baseline.journal_records,
        ),
        ("admissions", current.admissions, baseline.admissions),
        (
            "replay_full_records",
            current.replay_full_records,
            baseline.replay_full_records,
        ),
        (
            "replay_tail_records",
            current.replay_tail_records,
            baseline.replay_tail_records,
        ),
    ] {
        if cur != base {
            failures.push(format!("{name} {cur} != baseline {base}"));
        }
    }
    if current.fingerprint != baseline.fingerprint {
        failures.push(format!(
            "fingerprint {} != baseline {} — a control-plane output changed; if intended, \
             regenerate with `spsim ctrl --campaign --write-baseline BENCH_ctrl.json`",
            current.fingerprint, baseline.fingerprint
        ));
    }
    if current.journal_hash != baseline.journal_hash {
        failures.push(format!(
            "journal hash {} != baseline {}",
            current.journal_hash, baseline.journal_hash
        ));
    }
    let floor = baseline.admissions_per_sec * MIN_CTRL_PERF_RATIO;
    if current.admissions_per_sec < floor {
        failures.push(format!(
            "throughput {:.0} admissions/s is below {:.0} ({}x of baseline {:.0})",
            current.admissions_per_sec, floor, MIN_CTRL_PERF_RATIO, baseline.admissions_per_sec
        ));
    }
    if baseline.replay_tail_ms > 0.0 {
        let ceiling = baseline.replay_tail_ms / MIN_CTRL_PERF_RATIO;
        if current.replay_tail_ms > ceiling {
            failures.push(format!(
                "delta-replay latency {:.3} ms exceeds {:.3} ms (baseline {:.3} ms / {})",
                current.replay_tail_ms, ceiling, baseline.replay_tail_ms, MIN_CTRL_PERF_RATIO
            ));
        }
    }
    failures
}

// ------------------------------------------------- tiny JSON extraction --
// The workspace's one reader for the flat `BENCH_*.json` reports (fabricd,
// pod and sweep all parse through it). Index-free (slice-by-get): fabricd
// and pod are pinned at zero detlint findings.

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

    #[test]
    fn json_round_trips() {
        let r = report();
        let parsed = match CtrlBenchReport::parse(&r.to_json()) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {e}"),
        };
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_missing_keys() {
        assert!(CtrlBenchReport::parse("{}").is_err());
        assert!(CtrlBenchReport::parse("{\"jobs\": 48}").is_err());
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = report();
        assert!(compare_ctrl_baseline(&r, &r).is_empty());
    }

    #[test]
    fn determinism_drift_fails_the_gate() {
        let baseline = report();
        let mut current = report();
        current.fingerprint = "0x0000000000000001".into();
        current.journal_hash = "0x0000000000000002".into();
        current.replay_tail_records = 18;
        let failures = compare_ctrl_baseline(&current, &baseline);
        assert_eq!(failures.len(), 3, "{failures:?}");
    }

    #[test]
    fn slowdown_fails_but_noise_passes() {
        let baseline = report();
        let mut slow = report();
        slow.admissions_per_sec = baseline.admissions_per_sec * 0.05;
        slow.replay_tail_ms = baseline.replay_tail_ms * 20.0;
        assert_eq!(compare_ctrl_baseline(&slow, &baseline).len(), 2);
        let mut noisy = report();
        noisy.admissions_per_sec = baseline.admissions_per_sec * 0.5;
        noisy.replay_tail_ms = baseline.replay_tail_ms * 2.0;
        noisy.wall_s = baseline.wall_s * 3.0;
        assert!(compare_ctrl_baseline(&noisy, &baseline).is_empty());
    }

    #[test]
    fn bench_runs_and_its_report_round_trips() {
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
        let parsed = match CtrlBenchReport::parse(&r.to_json()) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {e}"),
        };
        assert_eq!(parsed, r);
    }
}
