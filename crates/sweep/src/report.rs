//! JSON reports and the committed perf baseline.
//!
//! `BENCH_sweep.json` at the repository root is the committed baseline.
//! Its table below declares every field once, with its gate, and
//! [`fabricd::report`] writes and compares it. `cargo xtask lint` re-runs
//! the smoke grid and gates on it: **grid, fingerprint, scenario count,
//! and event count match exactly** (determinism), and **events/sec may not
//! regress below [`MIN_PERF_RATIO`](fabricd::report::MIN_PERF_RATIO) ×
//! baseline** (a loose tolerance so CI noise doesn't flake, but an
//! order-of-magnitude slowdown fails).

use crate::run::SweepOutcome;
use fabricd::report::Gate::{Exact, Floor, Info};
use fabricd::report::Value::{self, Str, F64, U64};
use fabricd::report::{BenchFields, Field};

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
}

impl BenchFields for BenchReport {
    const FIELDS: &'static [Field] = &[
        ("grid", Exact),
        ("scenarios", Exact),
        ("workers", Info),
        ("fingerprint", Exact),
        ("events", Exact),
        ("wall_s", Info),
        ("events_per_sec", Floor),
        ("speedup_vs_1", Info),
    ];

    fn values(&self) -> Vec<Value<'_>> {
        vec![
            Str(&self.grid),
            U64(self.scenarios),
            U64(self.workers),
            Str(&self.fingerprint),
            U64(self.events),
            F64(self.wall_s),
            F64(self.events_per_sec),
            F64(self.speedup_vs_1),
        ]
    }
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
    use fabricd::report::{compare, Gate};

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

    fn failures(current: &BenchReport, baseline: &BenchReport) -> Vec<(Gate, String)> {
        compare(BenchReport::FIELDS, &current.to_json(), &baseline.to_json())
    }

    #[test]
    fn every_row_keeps_its_gate() {
        let rows = |gate| {
            BenchReport::FIELDS
                .iter()
                .filter(move |(_, g)| *g == gate)
                .map(|(key, _)| *key)
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(Gate::Exact).len(), 4);
        assert_eq!(rows(Gate::Floor), ["events_per_sec"]);
        assert!(rows(Gate::Ceiling).is_empty());
        assert_eq!(rows(Gate::Info), ["workers", "wall_s", "speedup_vs_1"]);
    }

    #[test]
    fn to_json_writes_the_committed_layout() {
        assert_eq!(
            report().to_json(),
            "{\n  \"grid\": \"smoke\",\n  \"scenarios\": 8,\n  \"workers\": 2,\n  \
             \"fingerprint\": \"0x00000000deadbeef\",\n  \"events\": 12345,\n  \
             \"wall_s\": 0.25,\n  \"events_per_sec\": 49380,\n  \"speedup_vs_1\": 1.8\n}\n"
        );
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = report();
        assert!(failures(&r, &r).is_empty());
    }

    #[test]
    fn fingerprint_drift_fails_the_gate() {
        let baseline = report();
        let mut current = report();
        current.fingerprint = "0x0000000000000001".into();
        let found = failures(&current, &baseline);
        assert_eq!(found.len(), 1);
        assert!(found[0].1.starts_with("fingerprint "), "{found:?}");
    }

    #[test]
    fn order_of_magnitude_slowdown_fails_but_noise_passes() {
        let baseline = report();
        let mut slow = report();
        slow.events_per_sec = baseline.events_per_sec * 0.05;
        assert_eq!(failures(&slow, &baseline).len(), 1);
        let mut noisy = report();
        noisy.events_per_sec = baseline.events_per_sec * 0.5;
        noisy.wall_s = baseline.wall_s * 2.0;
        noisy.speedup_vs_1 = 1.1;
        noisy.workers = 1;
        assert!(failures(&noisy, &baseline).is_empty());
    }
}
