//! Control-plane observability: named counters, an admission-wait
//! histogram, and gauge time-series sampled from [`FabricState`] on a
//! fixed tick.
//!
//! Everything builds on [`desim::stats`] so the numbers carry the same
//! deterministic semantics as the simulation itself: same seed, same
//! metrics, bit for bit.
//!
//! [`FabricState`]: crate::state::FabricState

use crate::plan::CrossPlanStats;
use crate::state::{FabricState, Utilization};
use desim::stats::{Histogram, OnlineStats, TimeSeries};
use desim::{SimTime, SnapReader, SnapWriter};
use route::PlanStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counter names bumped by the control plane, in render order.
pub const COUNTERS: &[&str] = &[
    "jobs.arrived",
    "jobs.admitted",
    "jobs.queued",
    "jobs.denied.timeout",
    "jobs.denied.program",
    "jobs.departed",
    "circuits.programmed",
    "failures.injected",
    "circuits.spliced",
    "repairs.ok",
    "repairs.failed",
];

/// Counter names bumped outside the render-order list (fault-campaign and
/// retry-path counters created on first bump). Snapshot restore resolves
/// serialized names back to `'static` strings through this registry and
/// [`COUNTERS`]; a name in neither is a corrupt snapshot.
pub const EXTRA_COUNTERS: &[&str] = &[
    "jobs.rejected.infeasible",
    "jobs.rejected.program",
    "jobs.retried",
    "jobs.stitched",
    "stitch.legs",
    "stitch.legs.departed",
    "stitch.rollbacks",
];

/// Resolve a snapshot-serialized counter name to its `'static` identity.
fn static_counter(name: &str) -> Result<&'static str, String> {
    COUNTERS
        .iter()
        .chain(EXTRA_COUNTERS)
        .find(|&&n| n == name)
        .copied()
        .ok_or_else(|| format!("metrics restore: unknown counter {name:?}"))
}

/// Resolve a snapshot-serialized fault code against the workspace fault
/// registry (`lightpath::fault::CODES`, the same registry verify CTL403
/// audits journals against).
fn static_code(code: &str) -> Result<&'static str, String> {
    lightpath::fault::CODES
        .iter()
        .find(|&&c| c == code)
        .copied()
        .ok_or_else(|| format!("metrics restore: unknown fault code {code:?}"))
}

/// Routing-cache telemetry in one place: the plan library and the
/// cross-plan cache. Telemetry only — read from the live engine at report
/// time, never journaled, snapshotted, or folded into fingerprints (a cold
/// cache must replay bit-identically to a warm one).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouteTelemetry {
    /// Intra-wafer plan-library counters.
    pub plan: PlanStats,
    /// Plan-library instances resident at report time.
    pub plan_resident: usize,
    /// Cross-wafer plan cache counters.
    pub cross: CrossPlanStats,
    /// Cross plans resident at report time.
    pub cross_resident: usize,
}

impl RouteTelemetry {
    /// Snapshot the counters of a state's plan engine.
    pub fn of(state: &FabricState) -> RouteTelemetry {
        let engine = state.plan_engine();
        RouteTelemetry {
            plan: engine.plan_stats(),
            plan_resident: engine.resident_instances(),
            cross: engine.cross_stats(),
            cross_resident: engine.resident_cross_plans(),
        }
    }

    /// Fold another telemetry snapshot into this one (pod aggregation).
    /// Counters add.
    pub fn merge(&mut self, other: &RouteTelemetry) {
        self.plan.hits += other.plan.hits;
        self.plan.misses += other.plan.misses;
        self.plan.evictions += other.plan.evictions;
        self.plan.fallbacks += other.plan.fallbacks;
        self.plan.stamped_circuits += other.plan.stamped_circuits;
        self.plan_resident += other.plan_resident;
        self.cross.hits += other.cross.hits;
        self.cross.misses += other.cross.misses;
        self.cross.fallbacks += other.cross.fallbacks;
        self.cross.evictions += other.cross.evictions;
        self.cross_resident += other.cross_resident;
    }

    /// Fixed-key-order JSON object (no trailing newline). Key order is
    /// hand-rolled and byte-stable: same counters, same bytes, regardless
    /// of shard count or merge order.
    pub fn json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        let mut out = String::from("{\n");
        let _ = writeln!(
            out,
            "{inner}\"plan_library\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"fallbacks\": {}, \"stamped_circuits\": {}, \"resident\": {} }},",
            self.plan.hits,
            self.plan.misses,
            self.plan.evictions,
            self.plan.fallbacks,
            self.plan.stamped_circuits,
            self.plan_resident,
        );
        let _ = write!(
            out,
            "{inner}\"cross_plans\": {{ \"hits\": {}, \"misses\": {}, \"fallbacks\": {}, \
             \"evictions\": {}, \"resident\": {} }}",
            self.cross.hits,
            self.cross.misses,
            self.cross.fallbacks,
            self.cross.evictions,
            self.cross_resident,
        );
        let _ = write!(out, "\n{pad}}}");
        out
    }

    /// Human-readable lines for the CLI report.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan library:  hits={} misses={} fallbacks={} evictions={} stamped={} resident={}",
            self.plan.hits,
            self.plan.misses,
            self.plan.fallbacks,
            self.plan.evictions,
            self.plan.stamped_circuits,
            self.plan_resident,
        );
        let _ = writeln!(
            out,
            "cross plans:   hits={} misses={} fallbacks={} evictions={} resident={}",
            self.cross.hits,
            self.cross.misses,
            self.cross.fallbacks,
            self.cross.evictions,
            self.cross_resident,
        );
        out
    }
}

/// The control plane's metrics registry.
#[derive(Debug)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    /// Rejections and denials by machine-readable fault code (the
    /// [`lightpath::FabricError::root_code`] of the failing plan commit).
    rejections: BTreeMap<&'static str, u64>,
    /// Time a job spent between arrival and admission, in seconds.
    admission_wait: Histogram,
    occupancy: TimeSeries,
    live_circuits: TimeSeries,
    reconfigs: TimeSeries,
    aggregate_gbps: TimeSeries,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// An empty registry. The wait histogram spans 0 s – 1 h in 64 bins,
    /// wide enough for any queue-timeout policy the CLI exposes.
    pub fn new() -> Self {
        Metrics {
            counters: COUNTERS.iter().map(|&n| (n, 0)).collect(),
            rejections: BTreeMap::new(),
            admission_wait: Histogram::new(0.0, 3600.0, 64),
            occupancy: TimeSeries::new(),
            live_circuits: TimeSeries::new(),
            reconfigs: TimeSeries::new(),
            aggregate_gbps: TimeSeries::new(),
        }
    }

    /// Increment `name` by one. Unknown names are created on first bump.
    pub fn bump(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increment `name` by `n`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current value of a counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Count one rejection/denial under its machine-readable fault code.
    pub fn bump_rejection(&mut self, code: &'static str) {
        *self.rejections.entry(code).or_insert(0) += 1;
    }

    /// Rejection counts by fault code, in code order.
    pub fn rejections(&self) -> &BTreeMap<&'static str, u64> {
        &self.rejections
    }

    /// The per-reason rejection report as a small JSON object — the CI
    /// fault-smoke artifact. Keys are fault codes, values are counts;
    /// `total` sums them.
    pub fn rejection_report_json(&self) -> String {
        let mut out = String::from("{\n  \"rejections\": {");
        for (i, (code, n)) in self.rejections.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{code}\": {n}");
        }
        if !self.rejections.is_empty() {
            out.push_str("\n  ");
        }
        let total: u64 = self.rejections.values().sum();
        let _ = write!(out, "}},\n  \"total\": {total}\n}}\n");
        out
    }

    /// Fold another registry into this one — the pod-level aggregation
    /// path. Counters and per-reason rejection counts merge through their
    /// `BTreeMap`s (so [`Metrics::rejection_report_json`] on the merged
    /// registry is byte-stable no matter how many shards or worker
    /// threads produced the inputs), the admission-wait histograms merge
    /// bin-wise, and gauge series merge in time order.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (code, n) in &other.rejections {
            *self.rejections.entry(code).or_insert(0) += n;
        }
        self.admission_wait.merge(&other.admission_wait);
        self.occupancy.merge_by_time(&other.occupancy);
        self.live_circuits.merge_by_time(&other.live_circuits);
        self.reconfigs.merge_by_time(&other.reconfigs);
        self.aggregate_gbps.merge_by_time(&other.aggregate_gbps);
    }

    /// Record how long a job waited from arrival to admission.
    pub fn record_wait(&mut self, seconds: f64) {
        self.admission_wait.record(seconds);
    }

    /// The admission-wait histogram.
    pub fn admission_wait(&self) -> &Histogram {
        &self.admission_wait
    }

    /// Sample the fabric's gauges at `now` into the time-series.
    pub fn sample(&mut self, now: SimTime, state: &FabricState) {
        let t = now.since_origin().as_secs_f64();
        let u: Utilization = state.utilization();
        self.occupancy.push(t, u.occupancy);
        self.live_circuits.push(t, u.circuits as f64);
        self.reconfigs.push(t, u.reconfigs as f64);
        self.aggregate_gbps.push(t, u.aggregate_gbps);
    }

    /// The sampled gauge series, for plotting or assertions:
    /// `(occupancy, live_circuits, reconfigs, aggregate_gbps)`.
    pub fn series(&self) -> (&TimeSeries, &TimeSeries, &TimeSeries, &TimeSeries) {
        (
            &self.occupancy,
            &self.live_circuits,
            &self.reconfigs,
            &self.aggregate_gbps,
        )
    }

    /// Canonical snapshot encoding of the whole registry. Floats travel as
    /// exact bit patterns, so [`read_snap`](Self::read_snap) is
    /// bit-identical — a resumed campaign's metrics keep accumulating from
    /// exactly where the crashed run's left off.
    pub fn write_snap(&self, w: &mut SnapWriter) {
        w.section("metrics");
        w.u64("counters", self.counters.len() as u64);
        for (name, v) in &self.counters {
            w.str("name", name);
            w.u64("value", *v);
        }
        w.u64("rejections", self.rejections.len() as u64);
        for (code, n) in &self.rejections {
            w.str("code", code);
            w.u64("count", *n);
        }
        w.f64("wait_lo", self.admission_wait.lo());
        w.f64("wait_hi", self.admission_wait.hi());
        w.u64("wait_bins", self.admission_wait.counts().len() as u64);
        for &c in self.admission_wait.counts() {
            w.u64("bin", c);
        }
        w.u64("wait_under", self.admission_wait.underflow());
        w.u64("wait_over", self.admission_wait.overflow());
        let (n, mean, m2, min, max) = self.admission_wait.stats().to_raw();
        w.u64("wait_n", n);
        w.f64("wait_mean", mean);
        w.f64("wait_m2", m2);
        w.f64("wait_min", min);
        w.f64("wait_max", max);
        for (key, series) in [
            ("occupancy", &self.occupancy),
            ("live_circuits", &self.live_circuits),
            ("reconfigs", &self.reconfigs),
            ("aggregate_gbps", &self.aggregate_gbps),
        ] {
            w.u64(key, series.len() as u64);
            for &(t, v) in series.points() {
                w.f64("t", t);
                w.f64("v", v);
            }
        }
    }

    /// Decode a [`write_snap`](Self::write_snap) section. Counter names and
    /// fault codes are resolved against their compile-time registries;
    /// anything unknown is a corrupt snapshot, reported as `Err`.
    pub fn read_snap(r: &mut SnapReader<'_>) -> Result<Metrics, String> {
        r.section("metrics")?;
        let mut counters = BTreeMap::new();
        for _ in 0..r.u64("counters")? {
            let name = static_counter(&r.str("name")?)?;
            counters.insert(name, r.u64("value")?);
        }
        let mut rejections = BTreeMap::new();
        for _ in 0..r.u64("rejections")? {
            let code = static_code(&r.str("code")?)?;
            rejections.insert(code, r.u64("count")?);
        }
        let lo = r.f64("wait_lo")?;
        let hi = r.f64("wait_hi")?;
        let nbins = r.u64("wait_bins")? as usize;
        let mut bins = Vec::new();
        for _ in 0..nbins {
            bins.push(r.u64("bin")?);
        }
        let underflow = r.u64("wait_under")?;
        let overflow = r.u64("wait_over")?;
        let stats = OnlineStats::from_raw(
            r.u64("wait_n")?,
            r.f64("wait_mean")?,
            r.f64("wait_m2")?,
            r.f64("wait_min")?,
            r.f64("wait_max")?,
        );
        let admission_wait = Histogram::from_raw(lo, hi, bins, underflow, overflow, stats)?;
        let mut read_series = |key: &str| -> Result<TimeSeries, String> {
            let n = r.u64(key)? as usize;
            let mut points = Vec::new();
            for _ in 0..n {
                points.push((r.f64("t")?, r.f64("v")?));
            }
            TimeSeries::from_points(points)
        };
        let occupancy = read_series("occupancy")?;
        let live_circuits = read_series("live_circuits")?;
        let reconfigs = read_series("reconfigs")?;
        let aggregate_gbps = read_series("aggregate_gbps")?;
        Ok(Metrics {
            counters,
            rejections,
            admission_wait,
            occupancy,
            live_circuits,
            reconfigs,
            aggregate_gbps,
        })
    }

    /// Render a human-readable summary block for the CLI.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "counters:");
        for name in COUNTERS {
            let _ = writeln!(out, "  {:<22} {}", name, self.counter(name));
        }
        for (name, v) in &self.counters {
            if !COUNTERS.contains(name) {
                let _ = writeln!(out, "  {name:<22} {v}");
            }
        }
        if !self.rejections.is_empty() {
            let _ = writeln!(out, "rejections by reason:");
            for (code, n) in &self.rejections {
                let _ = writeln!(out, "  {code:<38} {n}");
            }
        }
        if self.admission_wait.count() > 0 {
            let s = self.admission_wait.stats();
            let _ = writeln!(
                out,
                "admission wait: n={} mean={:.3}s p50={:.3}s p99={:.3}s max={:.3}s",
                self.admission_wait.count(),
                s.mean(),
                self.admission_wait.quantile(0.5).unwrap_or(0.0),
                self.admission_wait.quantile(0.99).unwrap_or(0.0),
                s.max().unwrap_or(0.0),
            );
        } else {
            let _ = writeln!(out, "admission wait: no queued admissions");
        }
        for (label, series, unit) in [
            ("occupancy", &self.occupancy, ""),
            ("live circuits", &self.live_circuits, ""),
            ("reconfigs", &self.reconfigs, ""),
            ("aggregate bw", &self.aggregate_gbps, " Gb/s"),
        ] {
            if series.is_empty() {
                continue;
            }
            let mut peak = f64::MIN;
            let mut last = 0.0;
            for &(_, v) in series.points() {
                if v > peak {
                    peak = v;
                }
                last = v;
            }
            let _ = writeln!(
                out,
                "{label:<14} samples={} peak={peak:.2}{unit} final={last:.2}{unit}",
                series.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_accumulate() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("jobs.admitted"), 0);
        m.bump("jobs.admitted");
        m.add("jobs.admitted", 2);
        assert_eq!(m.counter("jobs.admitted"), 3);
        assert_eq!(m.counter("no.such.counter"), 0);
    }

    #[test]
    fn summary_mentions_every_counter() {
        let m = Metrics::new();
        let text = m.summary();
        for name in COUNTERS {
            assert!(text.contains(name), "summary missing {name}");
        }
    }

    #[test]
    fn merging_an_empty_rejection_map_is_identity() {
        let mut m = Metrics::new();
        m.bump_rejection("route/no-disjoint-path");
        m.bump_rejection("route/no-disjoint-path");
        m.bump_rejection("circuit/insufficient-tx-lanes");
        let before = m.rejection_report_json();
        m.merge(&Metrics::new());
        assert_eq!(
            m.rejection_report_json(),
            before,
            "a shard that rejected nothing must not perturb the map"
        );
        assert_eq!(m.rejections().get("route/no-disjoint-path"), Some(&2));
        // The other direction too: empty absorbs the populated map whole.
        let mut empty = Metrics::new();
        empty.merge(&m);
        assert_eq!(empty.rejection_report_json(), before);
    }

    #[test]
    fn merging_disjoint_rejection_keys_unions_the_maps() {
        let mut a = Metrics::new();
        a.bump_rejection("route/no-disjoint-path");
        let mut b = Metrics::new();
        b.bump_rejection("circuit/insufficient-tx-lanes");
        b.bump_rejection("topo/degenerate-layout");
        a.merge(&b);
        assert_eq!(a.rejections().len(), 3, "disjoint keys union, none lost");
        assert_eq!(a.rejections().get("route/no-disjoint-path"), Some(&1));
        assert_eq!(
            a.rejections().get("circuit/insufficient-tx-lanes"),
            Some(&1)
        );
        assert_eq!(a.rejections().get("topo/degenerate-layout"), Some(&1));
    }

    #[test]
    fn merging_overlapping_rejection_keys_sums_counts() {
        let mut a = Metrics::new();
        for _ in 0..3 {
            a.bump_rejection("route/no-disjoint-path");
        }
        let mut b = Metrics::new();
        for _ in 0..5 {
            b.bump_rejection("route/no-disjoint-path");
        }
        b.bump_rejection("circuit/insufficient-tx-lanes");
        a.merge(&b);
        assert_eq!(
            a.rejections().get("route/no-disjoint-path"),
            Some(&8),
            "overlapping keys sum, they do not overwrite"
        );
        assert_eq!(
            a.rejections().get("circuit/insufficient-tx-lanes"),
            Some(&1)
        );
        let total: u64 = a.rejections().values().sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn merged_rejection_report_is_byte_stable_across_merge_order() {
        let shard = |codes: &[&'static str], waits: &[f64]| {
            let mut m = Metrics::new();
            for c in codes {
                m.bump_rejection(c);
                m.bump("jobs.rejected.program");
            }
            for &w in waits {
                m.record_wait(w);
            }
            m
        };
        let a = shard(&["route/no-disjoint-path"], &[1.5]);
        let b = shard(
            &["circuit/insufficient-tx-lanes", "route/no-disjoint-path"],
            &[7.25, 0.5],
        );
        let c = shard(&["topo/out-of-bounds"], &[]);
        let mut fwd = Metrics::new();
        for m in [&a, &b, &c] {
            fwd.merge(m);
        }
        let mut rev = Metrics::new();
        for m in [&c, &b, &a] {
            rev.merge(m);
        }
        assert_eq!(
            fwd.rejection_report_json(),
            rev.rejection_report_json(),
            "per-shard counter aggregation must be merge-order invariant"
        );
        assert_eq!(fwd.counter("jobs.rejected.program"), 4);
        assert_eq!(fwd.rejections().get("route/no-disjoint-path"), Some(&2));
        assert_eq!(fwd.admission_wait().count(), 3);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        use topo::Shape3;
        let mut st = FabricState::new(1, 2, 0);
        let mut m = Metrics::new();
        m.sample(SimTime::ZERO, &st);
        st.admit(SimTime::ZERO, 0, Shape3::new(2, 2, 1));
        m.sample(SimTime::from_ps(1_000), &st);
        m.bump("jobs.admitted");
        m.bump("jobs.retried");
        m.bump_rejection("route/no-disjoint-path");
        m.record_wait(12.5);
        m.record_wait(0.125);

        let mut w = SnapWriter::new();
        m.write_snap(&mut w);
        let text = w.finish();
        let mut r = SnapReader::new(&text);
        let back = Metrics::read_snap(&mut r).expect("read_snap");
        r.done().expect("consumed");

        let mut w2 = SnapWriter::new();
        back.write_snap(&mut w2);
        assert_eq!(w2.finish(), text, "round trip must be byte-identical");
        assert_eq!(back.counter("jobs.retried"), 1);
        assert_eq!(back.admission_wait().count(), 2);

        // A counter name outside the registries is corrupt, not creatable.
        let forged = text.replacen("jobs.retried", "jobs.invented", 1);
        let mut r = SnapReader::new(&forged);
        assert!(Metrics::read_snap(&mut r).is_err());
    }

    #[test]
    fn sampling_tracks_fabric_gauges() {
        use topo::Shape3;
        let mut st = FabricState::new(1, 2, 0);
        let mut m = Metrics::new();
        m.sample(SimTime::ZERO, &st);
        st.admit(SimTime::ZERO, 0, Shape3::new(2, 2, 1));
        m.sample(SimTime::from_ps(1_000), &st);
        let (occ, circuits, _, _) = m.series();
        assert_eq!(occ.len(), 2);
        let pts = circuits.points();
        assert_eq!(pts[0].1, 0.0);
        assert!(pts[1].1 > 0.0);
    }
}
