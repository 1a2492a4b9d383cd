//! `BENCH_pod.json` and `BENCH_placement.json`: the committed pod
//! benchmark baselines, one format for both.
//!
//! The table below declares every field once, with its gate, and
//! [`fabricd::report`] writes and compares it. `cargo xtask lint` re-runs
//! the pod smoke and the stitch placement scenario and gates on them: the
//! fingerprint, journal hash, policy and every count match exactly
//! (determinism), and events/sec may not regress below
//! [`MIN_PERF_RATIO`](fabricd::report::MIN_PERF_RATIO) × baseline. The
//! placement gate adds [`check_stitched`].

use crate::ctrl::PodOutcome;
use fabricd::report::Gate::{Exact, Floor, Info};
use fabricd::report::Value::{self, Str, F64, U64};
use fabricd::report::{json_u64, BenchFields, Field};

/// The pod benchmark summary that is serialized, committed, and gated on.
#[derive(Debug, Clone, PartialEq)]
pub struct PodBenchReport {
    /// Total chips simulated.
    pub chips: u64,
    /// Shard domains in the partition.
    pub groups: u64,
    /// Worker threads of the recorded run (informational).
    pub shards: u64,
    /// Epoch windows executed.
    pub epochs: u64,
    /// Jobs in the arrival trace.
    pub jobs: u64,
    /// Run fingerprint, hex with 0x prefix (worker-count invariant).
    pub fingerprint: String,
    /// Pod journal hash, hex with 0x prefix.
    pub journal_hash: String,
    /// Pod journal records.
    pub journal_records: u64,
    /// Local events executed across all domains.
    pub events: u64,
    /// Wall-clock seconds of the recorded run.
    pub wall_s: f64,
    /// Events per wall-clock second — the gated throughput.
    pub events_per_sec: f64,
    /// Plan-library stamps across all domains (deterministic, gated).
    pub plan_hits: u64,
    /// Plan-library fresh captures across all domains.
    pub plan_misses: u64,
    /// Plan-library occupancy-guard fallbacks to fresh routing.
    pub plan_fallbacks: u64,
    /// Plan-library FIFO evictions.
    pub plan_evictions: u64,
    /// Circuits programmed via stamping (no search, no re-budgeting).
    pub plan_stamped_circuits: u64,
    /// Cross-plan cache stamps across all domains.
    pub cross_hits: u64,
    /// Cross-plan fresh captures across all domains.
    pub cross_misses: u64,
    /// Cross-plan witness-guard fallbacks to fresh routing.
    pub cross_fallbacks: u64,
    /// Placement policy of the recorded run (`greedy` / `frag` / `stitch`).
    pub policy: String,
    /// Cross-group stitched jobs admitted (deterministic, gated).
    pub stitch_admits: u64,
    /// Per-group legs admitted across all stitches (incl. rolled back).
    pub stitch_legs: u64,
    /// Legs evicted by failed all-or-nothing stitch admissions.
    pub stitch_rollbacks: u64,
}

impl PodBenchReport {
    /// Summarize a finished run.
    pub fn from_outcome(out: &PodOutcome, jobs: usize) -> PodBenchReport {
        PodBenchReport {
            chips: out.journal.header().shape.volume() as u64,
            groups: out.groups as u64,
            shards: out.shards as u64,
            epochs: out.epochs,
            jobs: jobs as u64,
            fingerprint: format!("{:#018x}", out.fingerprint),
            journal_hash: format!("{:#018x}", out.journal.hash()),
            journal_records: out.journal.len() as u64,
            events: out.events,
            wall_s: out.wall_s,
            events_per_sec: out.events_per_sec,
            plan_hits: out.route.plan.hits,
            plan_misses: out.route.plan.misses,
            plan_fallbacks: out.route.plan.fallbacks,
            plan_evictions: out.route.plan.evictions,
            plan_stamped_circuits: out.route.plan.stamped_circuits,
            cross_hits: out.route.cross.hits,
            cross_misses: out.route.cross.misses,
            cross_fallbacks: out.route.cross.fallbacks,
            policy: out.policy.name().to_string(),
            stitch_admits: out.metrics.counter("jobs.stitched"),
            stitch_legs: out.metrics.counter("stitch.legs"),
            stitch_rollbacks: out.metrics.counter("stitch.rollbacks"),
        }
    }
}

impl BenchFields for PodBenchReport {
    const FIELDS: &'static [Field] = &[
        ("chips", Exact),
        ("groups", Exact),
        ("shards", Info),
        ("epochs", Exact),
        ("jobs", Exact),
        ("fingerprint", Exact),
        ("journal_hash", Exact),
        ("journal_records", Exact),
        ("events", Exact),
        ("wall_s", Info),
        ("events_per_sec", Floor),
        ("plan_hits", Exact),
        ("plan_misses", Exact),
        ("plan_fallbacks", Exact),
        ("plan_evictions", Exact),
        ("plan_stamped_circuits", Exact),
        ("cross_hits", Exact),
        ("cross_misses", Exact),
        ("cross_fallbacks", Exact),
        ("policy", Exact),
        ("stitch_admits", Exact),
        ("stitch_legs", Exact),
        ("stitch_rollbacks", Exact),
    ];

    fn values(&self) -> Vec<Value<'_>> {
        vec![
            U64(self.chips),
            U64(self.groups),
            U64(self.shards),
            U64(self.epochs),
            U64(self.jobs),
            Str(&self.fingerprint),
            Str(&self.journal_hash),
            U64(self.journal_records),
            U64(self.events),
            F64(self.wall_s),
            F64(self.events_per_sec),
            U64(self.plan_hits),
            U64(self.plan_misses),
            U64(self.plan_fallbacks),
            U64(self.plan_evictions),
            U64(self.plan_stamped_circuits),
            U64(self.cross_hits),
            U64(self.cross_misses),
            U64(self.cross_fallbacks),
            Str(&self.policy),
            U64(self.stitch_admits),
            U64(self.stitch_legs),
            U64(self.stitch_rollbacks),
        ]
    }
}

/// The placement gate's structural claim, beyond its per-field rows: the
/// stitch policy admitted at least one cross-group job. A stitch policy
/// that silently stops stitching fails even if it stays deterministic.
pub fn check_stitched(current: &str) -> Result<(), String> {
    if json_u64(current, "stitch_admits")? == 0 {
        return Err("the stitch policy admitted no cross-group job".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricd::report::{compare, Gate};

    fn report() -> PodBenchReport {
        PodBenchReport {
            chips: 4096,
            groups: 16,
            shards: 4,
            epochs: 2,
            jobs: 256,
            fingerprint: "0x00000000deadbeef".into(),
            journal_hash: "0x00000000cafef00d".into(),
            journal_records: 321,
            events: 12345,
            wall_s: 0.25,
            events_per_sec: 49380.0,
            plan_hits: 40,
            plan_misses: 12,
            plan_fallbacks: 3,
            plan_evictions: 0,
            plan_stamped_circuits: 120,
            cross_hits: 18,
            cross_misses: 6,
            cross_fallbacks: 1,
            policy: "greedy".into(),
            stitch_admits: 0,
            stitch_legs: 0,
            stitch_rollbacks: 0,
        }
    }

    fn failures(current: &PodBenchReport, baseline: &PodBenchReport) -> Vec<(Gate, String)> {
        compare(
            PodBenchReport::FIELDS,
            &current.to_json(),
            &baseline.to_json(),
        )
    }

    #[test]
    fn every_row_keeps_its_gate() {
        let rows = |gate| {
            PodBenchReport::FIELDS
                .iter()
                .filter(move |(_, g)| *g == gate)
                .map(|(key, _)| *key)
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(Gate::Exact).len(), 20);
        assert_eq!(rows(Gate::Floor), ["events_per_sec"]);
        assert!(rows(Gate::Ceiling).is_empty());
        assert_eq!(rows(Gate::Info), ["shards", "wall_s"]);
    }

    #[test]
    fn to_json_writes_the_committed_layout() {
        assert_eq!(
            report().to_json(),
            "{\n  \"chips\": 4096,\n  \"groups\": 16,\n  \"shards\": 4,\n  \"epochs\": 2,\n  \
             \"jobs\": 256,\n  \"fingerprint\": \"0x00000000deadbeef\",\n  \
             \"journal_hash\": \"0x00000000cafef00d\",\n  \"journal_records\": 321,\n  \
             \"events\": 12345,\n  \"wall_s\": 0.25,\n  \"events_per_sec\": 49380,\n  \
             \"plan_hits\": 40,\n  \"plan_misses\": 12,\n  \"plan_fallbacks\": 3,\n  \
             \"plan_evictions\": 0,\n  \"plan_stamped_circuits\": 120,\n  \
             \"cross_hits\": 18,\n  \"cross_misses\": 6,\n  \"cross_fallbacks\": 1,\n  \
             \"policy\": \"greedy\",\n  \"stitch_admits\": 0,\n  \"stitch_legs\": 0,\n  \
             \"stitch_rollbacks\": 0\n}\n"
        );
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = report();
        assert!(failures(&r, &r).is_empty());
    }

    #[test]
    fn fingerprint_and_journal_drift_fail_the_gate() {
        let baseline = report();
        let mut current = report();
        current.fingerprint = "0x0000000000000001".into();
        current.journal_hash = "0x0000000000000002".into();
        assert_eq!(failures(&current, &baseline).len(), 2);
    }

    #[test]
    fn plan_counter_drift_fails_the_gate() {
        let baseline = report();
        let mut current = report();
        current.plan_hits += 1;
        current.cross_fallbacks += 1;
        assert_eq!(failures(&current, &baseline).len(), 2);
    }

    #[test]
    fn policy_and_stitch_drift_fail_the_gate() {
        let baseline = report();
        let mut current = report();
        current.policy = "stitch".into();
        current.stitch_admits = 3;
        current.stitch_legs = 7;
        assert_eq!(failures(&current, &baseline).len(), 3);
    }

    #[test]
    fn slowdown_fails_but_noise_and_shard_count_pass() {
        let baseline = report();
        let mut slow = report();
        slow.events_per_sec = baseline.events_per_sec * 0.05;
        assert_eq!(failures(&slow, &baseline).len(), 1);
        let mut noisy = report();
        noisy.events_per_sec = baseline.events_per_sec * 0.5;
        noisy.shards = 1;
        noisy.wall_s = baseline.wall_s * 2.0;
        assert!(failures(&noisy, &baseline).is_empty());
    }

    #[test]
    fn the_placement_gate_needs_a_stitched_job() {
        let mut r = report();
        assert!(check_stitched(&r.to_json()).is_err());
        r.stitch_admits = 1;
        assert_eq!(check_stitched(&r.to_json()), Ok(()));
        assert!(check_stitched("{}").is_err());
    }
}
