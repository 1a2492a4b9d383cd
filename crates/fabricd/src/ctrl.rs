//! The control-plane campaign: Poisson job arrivals from [`workloads`],
//! failure injections, and periodic metric sampling, seeded as events into
//! one [`Admitter`] — the admission engine that owns FIFO admission, the
//! queue timeout, retries, and the `(time, seq)` event order.
//!
//! This module keeps what is specific to a campaign: its config, the
//! event seeding, the snapshot-cadence / compaction / crash loop around
//! the engine's drain loop, and the [`CtrlSnapshot`] artifact framing.
//! Because every pending event is data, the whole campaign is a value: it
//! can be captured mid-flight, written to disk, and resumed after a crash
//! with bit-identical decisions, journal hashes, and metrics.
//!
//! Two entry points:
//! - [`run_campaign`]: the drain loop, with periodic state snapshots
//!   every [`CampaignOptions::snapshot_every`], optional journal
//!   compaction at each snapshot watermark, and an optional simulated
//!   crash; with [`CampaignOptions::default`] it is the plain run, and the
//!   same config gives the same journal hash, byte for byte.
//! - [`resume_campaign`]: restore a [`CtrlSnapshot`] and drive the rest of
//!   the campaign; the finished run is indistinguishable from one that
//!   never crashed.

use crate::admit::{Admitter, AdmitterSnapshot, Event, Queued};
use crate::metrics::Metrics;
use crate::state::FabricState;
use desim::{SimDuration, SimTime, SnapReader, SnapWriter};
use topo::Shape3;
use workloads::{generate, ArrivalParams, JobRequest};

/// Scenario parameters for a control-plane run.
#[derive(Debug, Clone, Copy)]
pub struct CtrlConfig {
    /// TPUv4 racks in the fabric.
    pub racks: usize,
    /// Wavelength lanes per ring circuit.
    pub lanes: usize,
    /// Jobs drawn from the arrival process.
    pub jobs: usize,
    /// RNG seed for the arrival process (and the journal header).
    pub seed: u64,
    /// Arrival process parameters.
    pub arrivals: ArrivalParams,
    /// How long a job may queue before it is denied.
    pub queue_timeout: SimDuration,
    /// Chip failures to inject, 30 s apart, starting mid-trace.
    pub failures: usize,
    /// Extra programming attempts after a rejected plan (0 preserves the
    /// legacy deny-on-first-failure behavior and journal byte-for-byte).
    pub program_retries: u32,
    /// Base backoff before a rejected plan is retried; attempt `k` waits
    /// `retry_backoff × 2^min(k, 6)`.
    pub retry_backoff: SimDuration,
    /// Every Nth arrival requests an infeasible slice shape (wider than
    /// the torus itself) to exercise graceful rejection; 0 disables.
    pub infeasible_every: usize,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig {
            racks: 1,
            lanes: 2,
            jobs: 12,
            seed: 7,
            arrivals: ArrivalParams::default(),
            queue_timeout: SimDuration::from_secs(1_800),
            failures: 1,
            program_retries: 0,
            retry_backoff: SimDuration::from_ms(100),
            infeasible_every: 0,
        }
    }
}

/// Gauge samples spread evenly across a campaign's estimated horizon.
const SAMPLES: u64 = 64;

/// Snapshot / crash-restart knobs for [`run_campaign`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignOptions {
    /// Capture a [`CtrlSnapshot`] every this much simulated time (`None`
    /// or zero disables). Each capture journals a `Snapshot` record, so
    /// runs with different cadences have different (but individually
    /// deterministic) journal hashes.
    pub snapshot_every: Option<SimDuration>,
    /// Compact the journal down to each snapshot's watermark as it is
    /// captured. The journal hash and logical length are invariant under
    /// compaction (audited by verify CTL407).
    pub compact: bool,
    /// Simulate a crash: stop dead after this many events of this run
    /// segment have executed, without draining the campaign. The outcome
    /// has [`CampaignOutcome::crashed`] set; restart from the last
    /// captured snapshot via [`resume_campaign`].
    pub crash_after_events: Option<u64>,
}

/// What [`run_campaign`] / [`resume_campaign`] hand back.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Final control-plane state, including the journal.
    pub state: FabricState,
    /// The metrics registry after the run.
    pub metrics: Metrics,
    /// Simulated instant the last event executed at.
    pub horizon: SimTime,
    /// Snapshots captured along the way, in capture order.
    pub snapshots: Vec<CtrlSnapshot>,
    /// True when the run stopped at `crash_after_events` with work left.
    pub crashed: bool,
    /// Events executed by this run segment.
    pub events_executed: u64,
}

/// Build the fabric and an engine over it, then seed arrivals, failures,
/// and gauge samples — in that insertion order, so event keys, and
/// therefore journal hashes, never move.
fn fresh(cfg: &CtrlConfig) -> Admitter {
    let mut engine = Admitter::new(
        FabricState::new(cfg.racks, cfg.lanes, cfg.seed),
        cfg.queue_timeout,
        cfg.program_retries,
        cfg.retry_backoff,
    );
    let trace: Vec<JobRequest> = generate(cfg.jobs, &cfg.arrivals, cfg.seed);
    // An infeasible probe shape: one chip wider than the torus itself in X,
    // so placement is structurally impossible (typed NoSpace, never a
    // panic). Used by the fault campaign (`infeasible_every > 0`).
    let [tx, ty, tz] = engine.state().rack().cluster.occupancy().shape().dims;
    let infeasible = Shape3::new(tx + 1, ty, tz);

    for (i, req) in trace.iter().enumerate() {
        let shape = if cfg.infeasible_every > 0 && (i + 1) % cfg.infeasible_every == 0 {
            infeasible
        } else {
            req.shape
        };
        let q = Queued {
            job: i as u32,
            shape,
            duration: req.duration,
            arrival: req.arrival,
            attempt: 0,
        };
        engine.schedule(req.arrival, Event::Arrive(q));
    }

    // Failures anchor at the median arrival so tenants are live, 30 s
    // apart.
    let anchor = trace
        .get(trace.len() / 2)
        .map(|r| r.arrival)
        .unwrap_or(SimTime::ZERO);
    for k in 0..cfg.failures {
        let at = anchor + SimDuration::from_secs(30) * (k as u64 + 1);
        engine.schedule(at, Event::Fail);
    }

    // Gauge samples across the estimated horizon.
    let est = trace
        .iter()
        .map(|r| r.arrival + r.duration)
        .max()
        .unwrap_or(SimTime::ZERO)
        + cfg.queue_timeout;
    let step = est.since_origin() / SAMPLES;
    for s in 1..=SAMPLES {
        engine.schedule(SimTime::ZERO + step * s, Event::Sample);
    }
    engine
}

/// The campaign loop: snapshots on cadence, optional compaction, optional
/// simulated crash. `start` is the resume instant (`ZERO` for a fresh
/// run); snapshot boundaries land at `start + k×every`, so a resumed run
/// captures at exactly the instants the uninterrupted run would have.
fn drive_campaign(
    mut engine: Admitter,
    start: SimTime,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, String> {
    let every = opts.snapshot_every.filter(|d| d.as_ps() > 0);
    let mut next_snap = every.map(|d| start + d);
    let limit = opts.crash_after_events;
    let mut snapshots = Vec::new();
    let mut executed = 0u64;
    let mut crashed = false;
    loop {
        let budget = limit.map_or(u64::MAX, |l| l.saturating_sub(executed));
        executed += engine.run_until(next_snap, budget);
        let Some(t) = engine.next_event_at() else {
            break;
        };
        // Snapshot boundaries due at or before the next event fire first,
        // so the capture sees every record below it and none above — the
        // watermark invariant CTL406/CTL407 audit.
        if let (Some(d), Some(ns)) = (every, next_snap.as_mut()) {
            while *ns <= t {
                let snap = engine.capture(*ns);
                if opts.compact {
                    engine.state_mut().compact_journal(snap.fabric.seq)?;
                }
                snapshots.push(snap);
                *ns += d;
            }
        }
        if limit.is_some_and(|l| executed >= l) {
            crashed = true;
            break;
        }
    }
    let horizon = engine.now();
    let (state, metrics) = engine.into_parts();
    Ok(CampaignOutcome {
        state,
        metrics,
        horizon,
        snapshots,
        crashed,
        events_executed: executed,
    })
}

/// Run a campaign with periodic snapshots, optional journal compaction,
/// and an optional simulated crash (see [`CampaignOptions`]).
pub fn run_campaign(cfg: &CtrlConfig, opts: &CampaignOptions) -> Result<CampaignOutcome, String> {
    drive_campaign(fresh(cfg), SimTime::ZERO, opts)
}

/// Restore a mid-campaign snapshot and drive the rest of the campaign.
///
/// The resumed run re-executes exactly the decisions the uninterrupted run
/// would have taken from the snapshot instant on: final state fingerprint,
/// journal hash, logical journal length, metrics, and horizon all match
/// bit for bit (pinned by `tests/restart.rs`). A campaign captures only at
/// whole multiples of its cadence, counted from instant 0, so with
/// [`CampaignOptions::snapshot_every`] set a capture whose instant is not a
/// positive multiple of it is refused: the resumed run would capture off
/// the uninterrupted run's instants.
pub fn resume_campaign(
    snap: &CtrlSnapshot,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, String> {
    let at = snap.fabric.at.as_ps();
    if let Some(every) = opts.snapshot_every.map(|d| d.as_ps()).filter(|&d| d > 0) {
        if at == 0 || !at.is_multiple_of(every) {
            return Err(format!(
                "ctrl snapshot: capture instant {at} ps is not a positive multiple of the \
                 snapshot cadence {every} ps"
            ));
        }
    }
    drive_campaign(Admitter::restore(snap)?, snap.fabric.at, opts)
}

/// Artifact format tag; bump on any incompatible layout change.
const CTRL_MAGIC: &str = "spsim-ctrl-snapshot v2";

/// A whole campaign captured mid-flight. Arrivals, failures and samples
/// are all pre-seeded events, so the campaign is exactly its admission
/// engine: fabric snapshot (state + journal resume point), retry policy,
/// admission queue, pending events, and metrics. [`resume_campaign`]
/// turns it back into a running loop; this module adds only the
/// `[campaign]` artifact framing.
pub type CtrlSnapshot = AdmitterSnapshot;

impl CtrlSnapshot {
    /// Serialize as a self-describing text artifact, sealed by
    /// [`desim::snap::seal`] under the format tag.
    pub fn to_text(&self) -> String {
        let mut w = SnapWriter::new();
        w.section("campaign");
        self.write_snap(&mut w);
        desim::snap::seal(CTRL_MAGIC, &w.finish())
    }

    /// Parse a [`to_text`](Self::to_text) artifact, verifying the header,
    /// the body fingerprint and every structural field.
    pub fn parse(text: &str) -> Result<CtrlSnapshot, String> {
        let body = desim::snap::open(CTRL_MAGIC, text)?;
        let mut r = SnapReader::new(body);
        r.section("campaign")?;
        let snap = AdmitterSnapshot::read_snap(&mut r)?;
        r.done()?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A campaign run to quiescence, with no snapshots.
    fn run(cfg: &CtrlConfig) -> CampaignOutcome {
        run_campaign(cfg, &CampaignOptions::default()).expect("campaign runs")
    }

    #[test]
    fn scenario_runs_to_quiescence_and_journals() {
        let cfg = CtrlConfig {
            jobs: 6,
            ..CtrlConfig::default()
        };
        let out = run(&cfg);
        assert_eq!(out.metrics.counter("jobs.arrived"), 6);
        let resolved = out.metrics.counter("jobs.admitted")
            + out.metrics.counter("jobs.denied.timeout")
            + out.metrics.counter("jobs.denied.program");
        assert_eq!(resolved, 6, "every arrival resolves");
        assert_eq!(
            out.metrics.counter("jobs.departed"),
            out.metrics.counter("jobs.admitted"),
            "every admitted job departs"
        );
        if out.metrics.counter("jobs.admitted") > 0 {
            assert!(out.metrics.counter("circuits.programmed") > 0);
        }
        assert_eq!(out.state.live_jobs(), 0, "fabric drains");
        assert!(!out.state.journal().is_empty());
        assert!(out.horizon > SimTime::ZERO);
    }

    #[test]
    fn same_seed_same_journal_hash() {
        let cfg = CtrlConfig::default();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.state.journal().hash(), b.state.journal().hash());
        let other = CtrlConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        let c = run(&other);
        assert_ne!(
            a.state.journal().hash(),
            c.state.journal().hash(),
            "different seed should produce a different trace"
        );
    }

    #[test]
    fn injected_failure_is_repaired_with_blast_radius_one() {
        let cfg = CtrlConfig {
            jobs: 8,
            failures: 1,
            ..CtrlConfig::default()
        };
        let out = run(&cfg);
        assert_eq!(out.metrics.counter("failures.injected"), 1);
        let repaired: Vec<_> = out
            .state
            .incidents()
            .iter()
            .filter_map(|i| i.repair)
            .collect();
        assert!(
            !repaired.is_empty(),
            "mid-trace tenants exist, repair must happen"
        );
        for rep in repaired {
            assert_eq!(rep.blast_servers, 1);
        }
    }

    #[test]
    fn crash_restart_resumes_bit_identically() {
        let cfg = CtrlConfig {
            jobs: 10,
            program_retries: 1,
            ..CtrlConfig::default()
        };
        let opts = CampaignOptions {
            snapshot_every: Some(SimDuration::from_secs(300)),
            ..CampaignOptions::default()
        };
        let full = run_campaign(&cfg, &opts).expect("uninterrupted");
        assert!(!full.crashed);
        assert!(
            full.snapshots.len() >= 2,
            "cadence must produce snapshots: {}",
            full.snapshots.len()
        );

        // Crash two-thirds of the way in, restart from the last snapshot.
        let crash_at = full.events_executed * 2 / 3;
        let crashed = run_campaign(
            &cfg,
            &CampaignOptions {
                crash_after_events: Some(crash_at),
                ..opts
            },
        )
        .expect("crashed run");
        assert!(crashed.crashed);
        let last = crashed.snapshots.last().expect("snapshot before crash");
        let resumed = resume_campaign(last, &opts).expect("resume");
        assert!(!resumed.crashed);

        assert_eq!(resumed.state.journal().hash(), full.state.journal().hash());
        assert_eq!(resumed.state.journal().len(), full.state.journal().len());
        assert_eq!(resumed.state.fingerprint(), full.state.fingerprint());
        assert_eq!(resumed.horizon, full.horizon);
        let render = |m: &Metrics| {
            let mut w = SnapWriter::new();
            m.write_snap(&mut w);
            w.finish()
        };
        assert_eq!(
            render(&resumed.metrics),
            render(&full.metrics),
            "resumed metrics must be bit-identical"
        );
    }

    #[test]
    fn compaction_is_invisible_to_the_hash_chain() {
        let cfg = CtrlConfig {
            jobs: 10,
            ..CtrlConfig::default()
        };
        let opts = CampaignOptions {
            snapshot_every: Some(SimDuration::from_secs(300)),
            ..CampaignOptions::default()
        };
        let keep = run_campaign(&cfg, &opts).expect("uncompacted");
        let drop = run_campaign(
            &cfg,
            &CampaignOptions {
                compact: true,
                ..opts
            },
        )
        .expect("compacted");
        assert!(drop.state.journal().base_seq() > 0, "compaction happened");
        assert_eq!(keep.state.journal().base_seq(), 0);
        assert_eq!(drop.state.journal().hash(), keep.state.journal().hash());
        assert_eq!(drop.state.journal().len(), keep.state.journal().len());
        assert_eq!(drop.state.fingerprint(), keep.state.fingerprint());
        assert!(
            drop.state.journal().records().len() < keep.state.journal().records().len(),
            "compaction must actually shed records"
        );
    }

    #[test]
    fn ctrl_snapshot_artifact_round_trips() {
        let cfg = CtrlConfig {
            jobs: 10,
            ..CtrlConfig::default()
        };
        let opts = CampaignOptions {
            snapshot_every: Some(SimDuration::from_secs(600)),
            ..CampaignOptions::default()
        };
        let out = run_campaign(&cfg, &opts).expect("campaign");
        let snap = out.snapshots.first().expect("at least one snapshot");
        let text = snap.to_text();
        let back = CtrlSnapshot::parse(&text).expect("parse");
        assert_eq!(&back, snap);

        // A flipped body byte is rejected by the header fingerprint.
        let tampered = text.replacen("kind=4", "kind=5", 1);
        if tampered != text {
            assert!(CtrlSnapshot::parse(&tampered).is_err());
        }
        assert!(CtrlSnapshot::parse(&text[..text.len() - 1]).is_err());
    }
}
