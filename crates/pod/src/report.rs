//! `BENCH_pod.json`: the committed pod benchmark baseline.
//!
//! Same contract as the sweep baseline: the workspace has no serde, so
//! the report is a flat hand-rolled JSON object read back through
//! fabricd's field reader ([`fabricd::report::json_str`] and friends).
//! `cargo xtask lint` re-runs the pod smoke configuration and gates on
//! it — **fingerprint, journal hash, and every count match exactly**
//! (determinism), and **events/sec may not regress below
//! [`MIN_PERF_RATIO`] × baseline**.

use crate::ctrl::PodOutcome;
use fabricd::report::{json_f64, json_str, json_u64};

/// Throughput may not drop below this fraction of the baseline.
pub const MIN_PERF_RATIO: f64 = 0.1;

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

    /// Serialize to the committed JSON form (stable key order). Floats use
    /// Rust's shortest round-trip form so `parse(to_json(r)) == r`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"chips\": {},\n  \"groups\": {},\n  \"shards\": {},\n  \
             \"epochs\": {},\n  \"jobs\": {},\n  \"fingerprint\": \"{}\",\n  \
             \"journal_hash\": \"{}\",\n  \"journal_records\": {},\n  \
             \"events\": {},\n  \"wall_s\": {},\n  \"events_per_sec\": {},\n  \
             \"plan_hits\": {},\n  \"plan_misses\": {},\n  \"plan_fallbacks\": {},\n  \
             \"plan_evictions\": {},\n  \"plan_stamped_circuits\": {},\n  \
             \"cross_hits\": {},\n  \"cross_misses\": {},\n  \"cross_fallbacks\": {},\n  \
             \"policy\": \"{}\",\n  \"stitch_admits\": {},\n  \"stitch_legs\": {},\n  \
             \"stitch_rollbacks\": {}\n}}\n",
            self.chips,
            self.groups,
            self.shards,
            self.epochs,
            self.jobs,
            self.fingerprint,
            self.journal_hash,
            self.journal_records,
            self.events,
            self.wall_s,
            self.events_per_sec,
            self.plan_hits,
            self.plan_misses,
            self.plan_fallbacks,
            self.plan_evictions,
            self.plan_stamped_circuits,
            self.cross_hits,
            self.cross_misses,
            self.cross_fallbacks,
            self.policy,
            self.stitch_admits,
            self.stitch_legs,
            self.stitch_rollbacks,
        )
    }

    /// Parse the JSON form produced by [`to_json`](Self::to_json).
    pub fn parse(text: &str) -> Result<PodBenchReport, String> {
        Ok(PodBenchReport {
            chips: json_u64(text, "chips")?,
            groups: json_u64(text, "groups")?,
            shards: json_u64(text, "shards")?,
            epochs: json_u64(text, "epochs")?,
            jobs: json_u64(text, "jobs")?,
            fingerprint: json_str(text, "fingerprint")?,
            journal_hash: json_str(text, "journal_hash")?,
            journal_records: json_u64(text, "journal_records")?,
            events: json_u64(text, "events")?,
            wall_s: json_f64(text, "wall_s")?,
            events_per_sec: json_f64(text, "events_per_sec")?,
            plan_hits: json_u64(text, "plan_hits")?,
            plan_misses: json_u64(text, "plan_misses")?,
            plan_fallbacks: json_u64(text, "plan_fallbacks")?,
            plan_evictions: json_u64(text, "plan_evictions")?,
            plan_stamped_circuits: json_u64(text, "plan_stamped_circuits")?,
            cross_hits: json_u64(text, "cross_hits")?,
            cross_misses: json_u64(text, "cross_misses")?,
            cross_fallbacks: json_u64(text, "cross_fallbacks")?,
            policy: json_str(text, "policy")?,
            stitch_admits: json_u64(text, "stitch_admits")?,
            stitch_legs: json_u64(text, "stitch_legs")?,
            stitch_rollbacks: json_u64(text, "stitch_rollbacks")?,
        })
    }
}

/// Compare a fresh run against the committed baseline. Returns one
/// message per violated gate; empty means the baseline holds. `shards`
/// and `wall_s` are informational and not compared.
pub fn compare_baseline(current: &PodBenchReport, baseline: &PodBenchReport) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, cur, base) in [
        ("chips", current.chips, baseline.chips),
        ("groups", current.groups, baseline.groups),
        ("epochs", current.epochs, baseline.epochs),
        ("jobs", current.jobs, baseline.jobs),
        (
            "journal_records",
            current.journal_records,
            baseline.journal_records,
        ),
        ("events", current.events, baseline.events),
        ("plan_hits", current.plan_hits, baseline.plan_hits),
        ("plan_misses", current.plan_misses, baseline.plan_misses),
        (
            "plan_fallbacks",
            current.plan_fallbacks,
            baseline.plan_fallbacks,
        ),
        (
            "plan_evictions",
            current.plan_evictions,
            baseline.plan_evictions,
        ),
        (
            "plan_stamped_circuits",
            current.plan_stamped_circuits,
            baseline.plan_stamped_circuits,
        ),
        ("cross_hits", current.cross_hits, baseline.cross_hits),
        ("cross_misses", current.cross_misses, baseline.cross_misses),
        (
            "cross_fallbacks",
            current.cross_fallbacks,
            baseline.cross_fallbacks,
        ),
        (
            "stitch_admits",
            current.stitch_admits,
            baseline.stitch_admits,
        ),
        ("stitch_legs", current.stitch_legs, baseline.stitch_legs),
        (
            "stitch_rollbacks",
            current.stitch_rollbacks,
            baseline.stitch_rollbacks,
        ),
    ] {
        if cur != base {
            failures.push(format!("{name} {cur} != baseline {base}"));
        }
    }
    if current.policy != baseline.policy {
        failures.push(format!(
            "policy {:?} != baseline {:?}",
            current.policy, baseline.policy
        ));
    }
    if current.fingerprint != baseline.fingerprint {
        failures.push(format!(
            "fingerprint {} != baseline {} — a pod simulation output changed; if intended, \
             regenerate with `spsim pod --smoke --write-baseline BENCH_pod.json`",
            current.fingerprint, baseline.fingerprint
        ));
    }
    if current.journal_hash != baseline.journal_hash {
        failures.push(format!(
            "journal hash {} != baseline {}",
            current.journal_hash, baseline.journal_hash
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn json_round_trips() {
        let r = report();
        let parsed = match PodBenchReport::parse(&r.to_json()) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {e}"),
        };
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_missing_keys() {
        assert!(PodBenchReport::parse("{}").is_err());
        assert!(PodBenchReport::parse("{\"chips\": 4096}").is_err());
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = report();
        assert!(compare_baseline(&r, &r).is_empty());
    }

    #[test]
    fn fingerprint_and_journal_drift_fail_the_gate() {
        let baseline = report();
        let mut current = report();
        current.fingerprint = "0x0000000000000001".into();
        current.journal_hash = "0x0000000000000002".into();
        let failures = compare_baseline(&current, &baseline);
        assert_eq!(failures.len(), 2);
    }

    #[test]
    fn plan_counter_drift_fails_the_gate() {
        let baseline = report();
        let mut current = report();
        current.plan_hits += 1;
        current.cross_fallbacks += 1;
        assert_eq!(compare_baseline(&current, &baseline).len(), 2);
    }

    #[test]
    fn policy_and_stitch_drift_fail_the_gate() {
        let baseline = report();
        let mut current = report();
        current.policy = "stitch".into();
        current.stitch_admits = 3;
        current.stitch_legs = 7;
        assert_eq!(compare_baseline(&current, &baseline).len(), 3);
    }

    #[test]
    fn slowdown_fails_but_noise_and_shard_count_pass() {
        let baseline = report();
        let mut slow = report();
        slow.events_per_sec = baseline.events_per_sec * 0.05;
        assert_eq!(compare_baseline(&slow, &baseline).len(), 1);
        let mut noisy = report();
        noisy.events_per_sec = baseline.events_per_sec * 0.5;
        noisy.shards = 1;
        noisy.wall_s = baseline.wall_s * 2.0;
        assert!(compare_baseline(&noisy, &baseline).is_empty());
    }
}
