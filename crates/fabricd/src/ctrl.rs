//! The control plane's event loop: Poisson job arrivals from
//! [`workloads`], FIFO admission with a queue timeout, departures, failure
//! injections, and periodic metric sampling.
//!
//! The loop is *data-driven*: every pending event lives in an ordered
//! `BTreeMap` keyed by `(time, insertion seq)` — exactly the pop order of
//! [`desim::Engine`], FIFO among same-instant ties — rather than in opaque
//! scheduled closures. That makes the whole campaign a value: it can be
//! captured mid-flight into a [`CtrlSnapshot`] (fabric state, admission
//! queue, pending events, metrics), written to disk, and resumed after a
//! crash with bit-identical decisions, journal hashes, and metrics.
//!
//! Three entry points:
//! - [`run_scenario`]: the classic snapshot-free run; same config ⇒ same
//!   journal hash, byte for byte (unchanged from the closure-based loop).
//! - [`run_campaign`]: the same loop with periodic state snapshots every
//!   [`CampaignOptions::snapshot_every`], optional journal compaction at
//!   each snapshot watermark, and an optional simulated crash.
//! - [`resume_campaign`]: restore a [`CtrlSnapshot`] and drive the rest of
//!   the campaign; the finished run is indistinguishable from one that
//!   never crashed.

use crate::metrics::Metrics;
use crate::snapshot::FabricSnapshot;
use crate::state::{Admission, FabricState};
use desim::{SimDuration, SimTime, SnapReader, SnapWriter};
use std::collections::{BTreeMap, VecDeque};
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
    /// Gauge samples to spread across the horizon.
    pub samples: usize,
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
            samples: 64,
            program_retries: 0,
            retry_backoff: SimDuration::from_ms(100),
            infeasible_every: 0,
        }
    }
}

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

/// What `run_scenario` hands back.
#[derive(Debug)]
pub struct CtrlOutcome {
    /// Final control-plane state, including the journal.
    pub state: FabricState,
    /// The metrics registry after the run.
    pub metrics: Metrics,
    /// Simulated instant the last event executed at.
    pub horizon: SimTime,
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

/// A job waiting for capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Queued {
    job: u32,
    shape: Shape3,
    duration: SimDuration,
    arrival: SimTime,
    /// Zero-based programming attempt; bumped on each `Reject`.
    attempt: u32,
}

/// One pending control-plane event. The payload carries everything the
/// handler needs, so the whole future of the campaign is serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CtrlEvent {
    /// A job arrives from the workload trace.
    Arrive(Queued),
    /// A rejected job's backoff expired.
    Retry(Queued),
    /// A queued job's admission deadline passed.
    Timeout(u32),
    /// An admitted job's duration elapsed.
    Depart(u32),
    /// Inject one chip failure.
    Fail,
    /// Sample the fabric gauges into the metrics time-series.
    Sample,
}

/// The event-loop model: state + metrics + the admission queue + every
/// pending event. Pure data — no closures — so a campaign can stop and
/// resume anywhere.
struct ControlPlane {
    st: FabricState,
    metrics: Metrics,
    queue: VecDeque<Queued>,
    timeout: SimDuration,
    /// Extra programming attempts after a rejection.
    retries: u32,
    /// Base retry backoff (doubles per attempt, capped at 2⁶×).
    backoff: SimDuration,
    /// Pending events in execution order: `(instant, insertion seq)` keys
    /// reproduce [`desim::Engine`]'s pop order exactly (earliest first,
    /// FIFO among same-instant ties).
    events: BTreeMap<(SimTime, u64), CtrlEvent>,
    /// Monotonic insertion counter for the event-key tie-break.
    next_event_seq: u64,
}

impl ControlPlane {
    /// A fresh campaign: build the fabric and seed arrivals, failures, and
    /// gauge samples in the same insertion order the closure-based loop
    /// used, so event keys — and therefore journal hashes — are unchanged.
    fn fresh(cfg: &CtrlConfig) -> Self {
        let mut model = ControlPlane {
            st: FabricState::new(cfg.racks, cfg.lanes, cfg.seed),
            metrics: Metrics::new(),
            queue: VecDeque::new(),
            timeout: cfg.queue_timeout,
            retries: cfg.program_retries,
            backoff: cfg.retry_backoff,
            events: BTreeMap::new(),
            next_event_seq: 0,
        };
        model.seed_events(cfg);
        model
    }

    /// Rebuild the mid-campaign model a [`CtrlSnapshot`] captured.
    fn from_snapshot(snap: &CtrlSnapshot) -> Result<Self, String> {
        let st = snap.fabric.restore().map_err(|e| e.to_string())?;
        let mut r = SnapReader::new(&snap.metrics);
        let metrics = Metrics::read_snap(&mut r)?;
        r.done()?;
        let mut events = BTreeMap::new();
        for (t, s, ev) in &snap.events {
            if *s >= snap.next_event_seq {
                return Err(format!(
                    "ctrl snapshot: event seq {s} is not below the insertion counter {}",
                    snap.next_event_seq
                ));
            }
            if events.insert((*t, *s), ev.clone()).is_some() {
                return Err(format!(
                    "ctrl snapshot: duplicate event key ({}, {s})",
                    t.as_ps()
                ));
            }
        }
        Ok(ControlPlane {
            st,
            metrics,
            queue: snap.queue.iter().copied().collect(),
            timeout: snap.timeout,
            retries: snap.retries,
            backoff: snap.backoff,
            events,
            next_event_seq: snap.next_event_seq,
        })
    }

    /// Schedule `ev` at `at`; FIFO among same-instant events.
    fn schedule(&mut self, at: SimTime, ev: CtrlEvent) {
        let seq = self.next_event_seq;
        self.next_event_seq += 1;
        self.events.insert((at, seq), ev);
    }

    /// Seed the workload trace, failure injections, and gauge samples.
    fn seed_events(&mut self, cfg: &CtrlConfig) {
        let trace: Vec<JobRequest> = generate(cfg.jobs, &cfg.arrivals, cfg.seed);
        // An infeasible probe shape: one chip wider than the torus itself
        // in X, so placement is structurally impossible (typed NoSpace,
        // never a panic). Used by the fault campaign (`infeasible_every >
        // 0`).
        let [tx, ty, tz] = self.st.rack().cluster.occupancy().shape().dims;
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
            self.schedule(req.arrival, CtrlEvent::Arrive(q));
        }

        // Failures anchor at the median arrival so tenants are live, 30 s
        // apart.
        let anchor = trace
            .get(trace.len() / 2)
            .map(|r| r.arrival)
            .unwrap_or(SimTime::ZERO);
        for k in 0..cfg.failures {
            let at = anchor + SimDuration::from_secs(30) * (k as u64 + 1);
            self.schedule(at, CtrlEvent::Fail);
        }

        // Gauge samples across the estimated horizon.
        let est = trace
            .iter()
            .map(|r| r.arrival + r.duration)
            .max()
            .unwrap_or(SimTime::ZERO)
            + cfg.queue_timeout;
        if cfg.samples > 0 {
            let step = est.since_origin() / cfg.samples as u64;
            for s in 1..=cfg.samples {
                self.schedule(SimTime::ZERO + step * s as u64, CtrlEvent::Sample);
            }
        }
    }

    /// Execute one event at its scheduled instant.
    fn execute(&mut self, now: SimTime, ev: CtrlEvent) {
        match ev {
            CtrlEvent::Arrive(q) => self.on_arrival(now, q),
            CtrlEvent::Retry(q) => self.on_retry(now, q),
            CtrlEvent::Timeout(job) => self.on_timeout(now, job),
            CtrlEvent::Depart(job) => self.on_depart(now, job),
            CtrlEvent::Fail => self.on_failure(now),
            CtrlEvent::Sample => self.metrics.sample(now, &self.st),
        }
    }

    /// Drain every event; returns the instant the last one executed at.
    fn drive_to_quiescence(&mut self) -> SimTime {
        let mut horizon = SimTime::ZERO;
        while let Some(((t, _), ev)) = self.events.pop_first() {
            horizon = t;
            self.execute(t, ev);
        }
        horizon
    }

    /// Capture the whole campaign — fabric (which journals a `Snapshot`
    /// record), admission queue, pending events, metrics — at instant
    /// `at`.
    fn capture(&mut self, at: SimTime) -> CtrlSnapshot {
        let fabric = self.st.capture_snapshot(at);
        let mut w = SnapWriter::new();
        self.metrics.write_snap(&mut w);
        CtrlSnapshot {
            fabric,
            timeout: self.timeout,
            retries: self.retries,
            backoff: self.backoff,
            next_event_seq: self.next_event_seq,
            queue: self.queue.iter().copied().collect(),
            events: self
                .events
                .iter()
                .map(|(&(t, s), ev)| (t, s, ev.clone()))
                .collect(),
            metrics: w.finish(),
        }
    }

    /// The campaign loop: snapshots on cadence, optional compaction,
    /// optional simulated crash. `start` is the resume instant (`ZERO` for
    /// a fresh run); snapshot boundaries land at `start + k×every`, so a
    /// resumed run captures at exactly the instants the uninterrupted run
    /// would have.
    fn drive_campaign(
        mut self,
        start: SimTime,
        opts: &CampaignOptions,
    ) -> Result<CampaignOutcome, String> {
        let every = opts.snapshot_every.filter(|d| d.as_ps() > 0);
        let mut next_snap = every.map(|d| start + d);
        let mut snapshots = Vec::new();
        let mut horizon = start;
        let mut executed = 0u64;
        let mut crashed = false;
        while let Some((&key, _)) = self.events.iter().next() {
            let (t, _) = key;
            // Snapshot boundaries due at or before the next event fire
            // first, so the capture sees every record below it and none
            // above — the watermark invariant CTL406/CTL407 audit.
            if let (Some(d), Some(mut ns)) = (every, next_snap) {
                while ns <= t {
                    let snap = self.capture(ns);
                    if opts.compact {
                        self.st.compact_journal(snap.fabric.seq)?;
                    }
                    snapshots.push(snap);
                    ns += d;
                }
                next_snap = Some(ns);
            }
            if let Some(limit) = opts.crash_after_events {
                if executed >= limit {
                    crashed = true;
                    break;
                }
            }
            let Some(ev) = self.events.remove(&key) else {
                break;
            };
            horizon = t;
            self.execute(t, ev);
            executed += 1;
        }
        Ok(CampaignOutcome {
            state: self.st,
            metrics: self.metrics,
            horizon,
            snapshots,
            crashed,
            events_executed: executed,
        })
    }

    /// Admit now if a slice fits and programs; true when the job started
    /// (or was consumed by a programming denial or a scheduled retry,
    /// which also resolve it from the queue's point of view).
    fn try_start(&mut self, now: SimTime, q: Queued) -> bool {
        let last = q.attempt >= self.retries;
        match self
            .st
            .admit_retryable(now, q.job, q.shape, q.attempt, last)
        {
            Admission::Admitted { setup, circuits } => {
                self.metrics.bump("jobs.admitted");
                self.metrics
                    .record_wait(now.saturating_since(q.arrival).as_secs_f64());
                self.metrics.add("circuits.programmed", circuits as u64);
                self.schedule(now + setup + q.duration, CtrlEvent::Depart(q.job));
                true
            }
            Admission::NoSpace => false,
            Admission::ProgramDenied { error } => {
                self.metrics.bump("jobs.denied.program");
                self.metrics.bump_rejection(error.root_code());
                true
            }
            Admission::Infeasible { error } => {
                // The shape can never fit: journaled as an immediate
                // Reject + zero-circuit Rollback, never queued or retried.
                self.metrics.bump("jobs.rejected.infeasible");
                self.metrics.bump_rejection(error.root_code());
                true
            }
            Admission::ProgramRejected { error } => {
                // The slice was rolled back and a Reject + Rollback pair
                // journaled; re-attempt after bounded exponential backoff.
                self.metrics.bump("jobs.rejected.program");
                self.metrics.bump_rejection(error.root_code());
                let delay = self.backoff * (1u64 << q.attempt.min(6));
                let retry = Queued {
                    attempt: q.attempt + 1,
                    ..q
                };
                self.schedule(now + delay, CtrlEvent::Retry(retry));
                true
            }
        }
    }

    /// A rejected job's backoff expired: try again, or queue (with a fresh
    /// timeout) if the fabric has no space now.
    fn on_retry(&mut self, now: SimTime, q: Queued) {
        self.metrics.bump("jobs.retried");
        if !self.try_start(now, q) {
            self.metrics.bump("jobs.queued");
            self.queue.push_back(q);
            self.schedule(now + self.timeout, CtrlEvent::Timeout(q.job));
        }
    }

    fn on_arrival(&mut self, now: SimTime, q: Queued) {
        self.metrics.bump("jobs.arrived");
        if !self.try_start(now, q) {
            self.metrics.bump("jobs.queued");
            self.queue.push_back(q);
            self.schedule(now + self.timeout, CtrlEvent::Timeout(q.job));
        }
    }

    fn on_timeout(&mut self, now: SimTime, job: u32) {
        if let Some(pos) = self.queue.iter().position(|q| q.job == job) {
            if let Some(q) = self.queue.remove(pos) {
                self.st.deny_timeout(now, q.job, q.shape);
                self.metrics.bump("jobs.denied.timeout");
            }
        }
    }

    fn on_depart(&mut self, now: SimTime, job: u32) {
        self.st.evict(now, job);
        self.metrics.bump("jobs.departed");
        // Freed capacity: retry queued jobs FIFO until one fails to fit.
        while let Some(&head) = self.queue.front() {
            if self.try_start(now, head) {
                self.queue.pop_front();
            } else {
                break;
            }
        }
    }

    fn on_failure(&mut self, now: SimTime) {
        self.metrics.bump("failures.injected");
        let (spliced, ok, failed) = match self.st.inject_failure(now) {
            Some(rec) => (
                rec.spliced as u64,
                rec.repair.is_some() as u64,
                rec.repair_error.is_some() as u64,
            ),
            None => (0, 0, 0),
        };
        self.metrics.add("circuits.spliced", spliced);
        self.metrics.add("repairs.ok", ok);
        self.metrics.add("repairs.failed", failed);
    }
}

/// Run a full control-plane scenario to quiescence.
pub fn run_scenario(cfg: &CtrlConfig) -> CtrlOutcome {
    let mut model = ControlPlane::fresh(cfg);
    let horizon = model.drive_to_quiescence();
    CtrlOutcome {
        state: model.st,
        metrics: model.metrics,
        horizon,
    }
}

/// Run a campaign with periodic snapshots, optional journal compaction,
/// and an optional simulated crash (see [`CampaignOptions`]).
pub fn run_campaign(cfg: &CtrlConfig, opts: &CampaignOptions) -> Result<CampaignOutcome, String> {
    ControlPlane::fresh(cfg).drive_campaign(SimTime::ZERO, opts)
}

/// Restore a mid-campaign snapshot and drive the rest of the campaign.
///
/// The resumed run re-executes exactly the decisions the uninterrupted run
/// would have taken from the snapshot instant on: final state fingerprint,
/// journal hash, logical journal length, metrics, and horizon all match
/// bit for bit (pinned by `tests/restart.rs`).
pub fn resume_campaign(
    snap: &CtrlSnapshot,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, String> {
    let model = ControlPlane::from_snapshot(snap)?;
    model.drive_campaign(snap.fabric.at, opts)
}

/// Artifact format tag; bump on any incompatible layout change.
const CTRL_MAGIC: &str = "spsim-ctrl-snapshot v1";

/// A whole campaign captured mid-flight: the fabric snapshot (state +
/// journal resume point), retry policy, admission queue, pending events,
/// and metrics. [`resume_campaign`] turns it back into a running loop.
#[derive(Debug, Clone, PartialEq)]
pub struct CtrlSnapshot {
    /// The fabric-state snapshot, including the journal resume point.
    pub fabric: FabricSnapshot,
    /// Admission-queue timeout policy at capture.
    pub timeout: SimDuration,
    /// Extra programming attempts after a rejection.
    pub retries: u32,
    /// Base retry backoff.
    pub backoff: SimDuration,
    /// The event-key insertion counter at capture.
    pub next_event_seq: u64,
    queue: Vec<Queued>,
    events: Vec<(SimTime, u64, CtrlEvent)>,
    metrics: String,
}

/// Encode a queue entry's fields.
fn write_queued(w: &mut SnapWriter, q: &Queued) {
    w.u64("job", q.job as u64);
    let [qx, qy, qz] = q.shape.dims;
    w.u64("qx", qx as u64);
    w.u64("qy", qy as u64);
    w.u64("qz", qz as u64);
    w.u64("duration_ps", q.duration.as_ps());
    w.u64("arrival_ps", q.arrival.as_ps());
    w.u64("attempt", q.attempt as u64);
}

/// Decode a queue entry's fields.
fn read_queued(r: &mut SnapReader<'_>) -> Result<Queued, String> {
    let job = u32::try_from(r.u64("job")?)
        .map_err(|_| "ctrl snapshot: job id exceeds u32".to_string())?;
    let qx = r.u64("qx")? as usize;
    let qy = r.u64("qy")? as usize;
    let qz = r.u64("qz")? as usize;
    let duration = SimDuration::from_ps(r.u64("duration_ps")?);
    let arrival = SimTime::from_ps(r.u64("arrival_ps")?);
    let attempt = u32::try_from(r.u64("attempt")?)
        .map_err(|_| "ctrl snapshot: attempt exceeds u32".to_string())?;
    Ok(Queued {
        job,
        shape: Shape3::new(qx, qy, qz),
        duration,
        arrival,
        attempt,
    })
}

impl CtrlSnapshot {
    /// Serialize as a self-describing text artifact. The first line names
    /// the format and carries an FNV-1a fingerprint of the body, so
    /// truncation or tampering is detected before any state is rebuilt.
    pub fn to_text(&self) -> String {
        let mut w = SnapWriter::new();
        w.section("campaign");
        w.u64("timeout_ps", self.timeout.as_ps());
        w.u64("retries", self.retries as u64);
        w.u64("backoff_ps", self.backoff.as_ps());
        w.u64("event_seq", self.next_event_seq);
        w.u64("queue", self.queue.len() as u64);
        for q in &self.queue {
            write_queued(&mut w, q);
        }
        w.u64("events", self.events.len() as u64);
        for (t, s, ev) in &self.events {
            w.u64("at", t.as_ps());
            w.u64("seq", *s);
            match ev {
                CtrlEvent::Arrive(q) => {
                    w.u64("kind", 0);
                    write_queued(&mut w, q);
                }
                CtrlEvent::Retry(q) => {
                    w.u64("kind", 1);
                    write_queued(&mut w, q);
                }
                CtrlEvent::Timeout(job) => {
                    w.u64("kind", 2);
                    w.u64("job", *job as u64);
                }
                CtrlEvent::Depart(job) => {
                    w.u64("kind", 3);
                    w.u64("job", *job as u64);
                }
                CtrlEvent::Fail => w.u64("kind", 4),
                CtrlEvent::Sample => w.u64("kind", 5),
            }
        }
        w.str("metrics", &self.metrics);
        w.str("fabric", &self.fabric.to_text());
        let body = w.finish();
        let fnv = desim::snap::fingerprint(&body);
        format!("{CTRL_MAGIC} fnv={fnv:016x}\n{body}")
    }

    /// Parse a [`to_text`](Self::to_text) artifact, verifying the body
    /// fingerprint and every structural field.
    pub fn parse(text: &str) -> Result<CtrlSnapshot, String> {
        let (first, body) = text
            .split_once('\n')
            .ok_or_else(|| "ctrl snapshot: empty artifact".to_string())?;
        let fnv_hex = first
            .strip_prefix(CTRL_MAGIC)
            .and_then(|rest| rest.trim().strip_prefix("fnv="))
            .ok_or_else(|| format!("ctrl snapshot: bad magic line {first:?}"))?;
        let fnv = u64::from_str_radix(fnv_hex, 16)
            .map_err(|_| format!("ctrl snapshot: bad fnv field {fnv_hex:?}"))?;
        let got = desim::snap::fingerprint(body);
        if got != fnv {
            return Err(format!(
                "ctrl snapshot: body fingerprint {got:016x} does not match the \
                 header's {fnv:016x}"
            ));
        }
        let mut r = SnapReader::new(body);
        r.section("campaign")?;
        let timeout = SimDuration::from_ps(r.u64("timeout_ps")?);
        let retries = u32::try_from(r.u64("retries")?)
            .map_err(|_| "ctrl snapshot: retries exceeds u32".to_string())?;
        let backoff = SimDuration::from_ps(r.u64("backoff_ps")?);
        let next_event_seq = r.u64("event_seq")?;
        let nq = r.u64("queue")? as usize;
        let mut queue = Vec::with_capacity(nq);
        for _ in 0..nq {
            queue.push(read_queued(&mut r)?);
        }
        let ne = r.u64("events")? as usize;
        let mut events = Vec::with_capacity(ne);
        for _ in 0..ne {
            let at = SimTime::from_ps(r.u64("at")?);
            let seq = r.u64("seq")?;
            let job = |r: &mut SnapReader<'_>| -> Result<u32, String> {
                u32::try_from(r.u64("job")?)
                    .map_err(|_| "ctrl snapshot: job id exceeds u32".to_string())
            };
            let ev = match r.u64("kind")? {
                0 => CtrlEvent::Arrive(read_queued(&mut r)?),
                1 => CtrlEvent::Retry(read_queued(&mut r)?),
                2 => CtrlEvent::Timeout(job(&mut r)?),
                3 => CtrlEvent::Depart(job(&mut r)?),
                4 => CtrlEvent::Fail,
                5 => CtrlEvent::Sample,
                k => return Err(format!("ctrl snapshot: unknown event kind {k}")),
            };
            events.push((at, seq, ev));
        }
        let metrics = r.str("metrics")?;
        let fabric = FabricSnapshot::parse(&r.str("fabric")?)?;
        r.done()?;
        Ok(CtrlSnapshot {
            fabric,
            timeout,
            retries,
            backoff,
            next_event_seq,
            queue,
            events,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_runs_to_quiescence_and_journals() {
        let cfg = CtrlConfig {
            jobs: 6,
            ..CtrlConfig::default()
        };
        let out = run_scenario(&cfg);
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
        let a = run_scenario(&cfg);
        let b = run_scenario(&cfg);
        assert_eq!(a.state.journal().hash(), b.state.journal().hash());
        let other = CtrlConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        let c = run_scenario(&other);
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
        let out = run_scenario(&cfg);
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
    fn campaign_without_snapshots_matches_scenario() {
        let cfg = CtrlConfig::default();
        let plain = run_scenario(&cfg);
        let camp = run_campaign(&cfg, &CampaignOptions::default()).expect("campaign");
        assert!(!camp.crashed);
        assert!(camp.snapshots.is_empty());
        assert_eq!(camp.state.journal().hash(), plain.state.journal().hash());
        assert_eq!(camp.state.fingerprint(), plain.state.fingerprint());
        assert_eq!(camp.horizon, plain.horizon);
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
