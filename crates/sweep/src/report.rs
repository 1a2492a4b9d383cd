//! JSON reports and the committed perf baseline.
//!
//! The workspace has no serde (offline build), so the report format is a
//! flat, hand-rolled JSON object read back through fabricd's field reader
//! ([`fabricd::report::json_str`] and friends). `BENCH_sweep.json` at the
//! repository root is the committed baseline; `cargo xtask lint` re-runs
//! the smoke grid and gates on it: **fingerprint, scenario count, and event
//! count match exactly** (determinism), and **events/sec may not regress
//! below `MIN_PERF_RATIO` × baseline** (a loose tolerance so CI noise
//! doesn't flake, but an order-of-magnitude slowdown fails).

use crate::run::SweepOutcome;
use fabricd::report::{json_f64, json_str, json_u64};

/// Throughput may not drop below this fraction of the baseline.
pub const MIN_PERF_RATIO: f64 = 0.1;

/// The benchmark summary that is serialized, committed, and gated on.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Grid name ("smoke", "full").
    pub grid: String,
    /// Scenarios in the grid.
    pub scenarios: u64,
    /// Worker threads of the parallel run.
    pub workers: u64,
    /// Sweep fingerprint, hex with 0x prefix (worker-count invariant).
    pub fingerprint: String,
    /// Total events across scenarios.
    pub events: u64,
    /// Wall-clock seconds of the parallel run.
    pub wall_s: f64,
    /// Events per wall-clock second of the parallel run.
    pub events_per_sec: f64,
    /// Parallel speedup vs the 1-worker run of the same grid.
    pub speedup_vs_1: f64,
}

impl BenchReport {
    /// Summarize a parallel outcome against its sequential reference.
    pub fn from_runs(parallel: &SweepOutcome, sequential_wall_s: f64) -> BenchReport {
        let wall_s = parallel.wall.as_secs_f64();
        BenchReport {
            grid: parallel.grid.clone(),
            scenarios: parallel.results.len() as u64,
            workers: parallel.workers as u64,
            fingerprint: format!("{:#018x}", parallel.fingerprint),
            events: parallel.events,
            wall_s,
            events_per_sec: parallel.events_per_sec(),
            speedup_vs_1: if wall_s > 0.0 {
                sequential_wall_s / wall_s
            } else {
                1.0
            },
        }
    }

    /// Serialize to the committed JSON form (stable key order).
    pub fn to_json(&self) -> String {
        // Floats use Rust's shortest round-trip Display form so that
        // parse(to_json(r)) == r exactly.
        format!(
            "{{\n  \"grid\": \"{}\",\n  \"scenarios\": {},\n  \"workers\": {},\n  \
             \"fingerprint\": \"{}\",\n  \"events\": {},\n  \"wall_s\": {},\n  \
             \"events_per_sec\": {},\n  \"speedup_vs_1\": {}\n}}\n",
            self.grid,
            self.scenarios,
            self.workers,
            self.fingerprint,
            self.events,
            self.wall_s,
            self.events_per_sec,
            self.speedup_vs_1,
        )
    }

    /// Parse the JSON form produced by [`to_json`](Self::to_json).
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        Ok(BenchReport {
            grid: json_str(text, "grid")?,
            scenarios: json_u64(text, "scenarios")?,
            workers: json_u64(text, "workers")?,
            fingerprint: json_str(text, "fingerprint")?,
            events: json_u64(text, "events")?,
            wall_s: json_f64(text, "wall_s")?,
            events_per_sec: json_f64(text, "events_per_sec")?,
            speedup_vs_1: json_f64(text, "speedup_vs_1")?,
        })
    }
}

/// Compare a fresh run against the committed baseline. Returns one message
/// per violated gate; empty means the baseline holds.
pub fn compare_baseline(current: &BenchReport, baseline: &BenchReport) -> Vec<String> {
    let mut failures = Vec::new();
    if current.grid != baseline.grid {
        failures.push(format!(
            "grid mismatch: ran '{}', baseline is '{}'",
            current.grid, baseline.grid
        ));
    }
    if current.scenarios != baseline.scenarios {
        failures.push(format!(
            "scenario count {} != baseline {}",
            current.scenarios, baseline.scenarios
        ));
    }
    if current.fingerprint != baseline.fingerprint {
        failures.push(format!(
            "fingerprint {} != baseline {} — a simulation output changed; if intended, \
             regenerate with `spsim sweep --grid {} --write-baseline BENCH_sweep.json`",
            current.fingerprint, baseline.fingerprint, baseline.grid
        ));
    }
    if current.events != baseline.events {
        failures.push(format!(
            "event count {} != baseline {}",
            current.events, baseline.events
        ));
    }
    let floor = baseline.events_per_sec * MIN_PERF_RATIO;
    if current.events_per_sec < floor {
        failures.push(format!(
            "throughput {:.0} events/s is below {:.0} ({}x of baseline {:.0})",
            current.events_per_sec, floor, MIN_PERF_RATIO, baseline.events_per_sec
        ));
    }
    failures
}

/// Serialize the full per-scenario report (for `--json` artifacts).
pub fn outcome_to_json(out: &SweepOutcome, sequential_wall_s: f64) -> String {
    let bench = BenchReport::from_runs(out, sequential_wall_s);
    let mut s = String::from("{\n  \"bench\": ");
    // Indent the nested object to keep the artifact readable.
    let nested = bench.to_json();
    s.push_str(&nested.trim_end().replace('\n', "\n  "));
    s.push_str(",\n  \"merged\": {\n");
    s.push_str(&format!(
        "    \"stitch_loss_samples\": {},\n    \"stitch_loss_mean_db\": {:.6},\n",
        out.merged.stitch_loss_db.count(),
        out.merged.stitch_loss_db.stats().mean()
    ));
    s.push_str(&format!(
        "    \"admission_wait_samples\": {},\n    \"collective_runs\": {},\n",
        out.merged.admission_wait_s.count(),
        out.merged.collective_us.count()
    ));
    s.push_str(&format!(
        "    \"collective_mean_us\": {:.3},\n    \"churn_probes\": {},\n    \
         \"churn_mean_hops\": {:.3}\n  }},\n",
        out.merged.collective_us.mean(),
        out.merged.churn_hops.count(),
        out.merged.churn_hops.mean()
    ));
    s.push_str("  \"scenarios\": [\n");
    for (i, r) in out.results.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"index\": {}, \"label\": \"{}\", \"fingerprint\": \"{:#018x}\", \
             \"events\": {} }}{}\n",
            r.index,
            r.label,
            r.fingerprint,
            r.events,
            if i + 1 < out.results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            grid: "smoke".into(),
            scenarios: 8,
            workers: 2,
            fingerprint: "0x00000000deadbeef".into(),
            events: 12345,
            wall_s: 0.25,
            events_per_sec: 49380.0,
            speedup_vs_1: 1.8,
        }
    }

    #[test]
    fn json_round_trips() {
        let r = report();
        let parsed = match BenchReport::parse(&r.to_json()) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {e}"),
        };
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_missing_keys() {
        assert!(BenchReport::parse("{}").is_err());
        assert!(BenchReport::parse("{\"grid\": \"smoke\"}").is_err());
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = report();
        assert!(compare_baseline(&r, &r).is_empty());
    }

    #[test]
    fn fingerprint_drift_fails_the_gate() {
        let baseline = report();
        let mut current = report();
        current.fingerprint = "0x0000000000000001".into();
        let failures = compare_baseline(&current, &baseline);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("fingerprint"));
    }

    #[test]
    fn order_of_magnitude_slowdown_fails_but_noise_passes() {
        let baseline = report();
        let mut slow = report();
        slow.events_per_sec = baseline.events_per_sec * 0.05;
        assert_eq!(compare_baseline(&slow, &baseline).len(), 1);
        let mut noisy = report();
        noisy.events_per_sec = baseline.events_per_sec * 0.5;
        noisy.wall_s = baseline.wall_s * 2.0;
        noisy.speedup_vs_1 = 1.1;
        assert!(compare_baseline(&noisy, &baseline).is_empty());
    }
}
