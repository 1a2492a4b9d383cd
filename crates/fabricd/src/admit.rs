//! The admission engine: the one FIFO admission state machine that the
//! control-plane campaign and every pod shard run.
//!
//! Carving a slice and programming its circuits when a job arrives, and
//! splicing a spare chip into a broken ring when one fails, both go
//! through [`Admitter`]. It owns the fabric state and metrics, the FIFO
//! queue of jobs waiting for capacity, the queue timeout, the
//! retry/backoff policy, and every pending event. The decisions it makes:
//!
//! - **FIFO head-of-line admission.** An arrival that fits starts at once;
//!   one that does not joins the queue. A departure retries the queue from
//!   its head and stops at the first job that still does not fit.
//! - **Queue timeout.** A queued job is denied once it has waited
//!   [`Admitter::new`]'s `timeout`.
//! - **Retry with backoff.** A rejected plan is retried up to `retries`
//!   times, attempt `k` after `backoff × 2^min(k, 6)`.
//! - **`(time, seq)` order.** Pending events live in one ordered map keyed
//!   by `(instant, insertion seq)` — exactly the pop order of
//!   [`desim::Engine`], FIFO among same-instant ties — rather than in
//!   opaque scheduled closures, so the whole future of a run is a value:
//!   [`Admitter::capture`] writes it down and [`Admitter::restore`] resumes
//!   it with bit-identical decisions.
//!
//! Two callers use it. [`crate::ctrl`] seeds one engine with a whole
//! campaign and drains it between snapshot boundaries. Each `pod` shard
//! domain owns one engine, fed at epoch barriers and drained window by
//! window.

use crate::journal::LEG_ID_BIT;
use crate::metrics::Metrics;
use crate::snapshot::FabricSnapshot;
use crate::state::{Admission, FabricState};
use desim::{SimDuration, SimTime, SnapReader, SnapWriter};
use std::collections::{BTreeMap, VecDeque};
use topo::Shape3;

/// A job waiting for capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Queued {
    /// Job id (a trace index, or a [`LEG_ID_BIT`] leg id).
    pub job: u32,
    /// Requested slice shape.
    pub shape: Shape3,
    /// How long the job holds its slice once admitted.
    pub duration: SimDuration,
    /// Instant the job arrived (its admission wait runs from here).
    pub arrival: SimTime,
    /// Zero-based programming attempt; bumped on each `Reject`.
    pub attempt: u32,
}

/// One pending event. The payload carries everything the handler needs,
/// so the whole future of a run is serializable. The snapshot kind codes
/// are the declaration order, Arrive 0 through Sample 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A job arrives.
    Arrive(Queued),
    /// A rejected job's backoff expired.
    Retry(Queued),
    /// A queued job's admission deadline passed.
    Timeout(u32),
    /// An admitted job's (or leg's) duration elapsed.
    Depart(u32),
    /// Inject one chip failure.
    Fail,
    /// Sample the fabric gauges into the metrics time-series.
    Sample,
}

/// The admission engine: fabric state, metrics, the FIFO queue, and every
/// pending event. Pure data — no closures — so a run can stop and resume
/// anywhere.
#[derive(Debug)]
pub struct Admitter {
    st: FabricState,
    metrics: Metrics,
    queue: VecDeque<Queued>,
    timeout: SimDuration,
    /// Extra programming attempts after a rejection.
    retries: u32,
    /// Base retry backoff (doubles per attempt, capped at 2⁶×).
    backoff: SimDuration,
    /// Pending events in execution order. BTreeMap — never a hash map —
    /// per the workspace determinism rule (DET001).
    events: BTreeMap<(SimTime, u64), Event>,
    /// Monotonic insertion counter for the event-key tie-break.
    next_seq: u64,
    /// Instant the last event executed at (or the start instant).
    now: SimTime,
}

impl Admitter {
    /// An idle engine over `st`: empty queue, no pending events.
    /// `retries = 0` denies on the first rejected plan.
    pub fn new(st: FabricState, timeout: SimDuration, retries: u32, backoff: SimDuration) -> Self {
        Admitter {
            st,
            metrics: Metrics::new(),
            queue: VecDeque::new(),
            timeout,
            retries,
            backoff,
            events: BTreeMap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedule `ev` at `at`; FIFO among same-instant events.
    pub fn schedule(&mut self, at: SimTime, ev: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.insert((at, seq), ev);
    }

    /// The drain loop: execute pending events in `(time, seq)` order while
    /// the next one is due before `deadline` (`None`: no deadline) and
    /// fewer than `budget` have run. Returns how many ran.
    pub fn run_until(&mut self, deadline: Option<SimTime>, budget: u64) -> u64 {
        let mut ran = 0;
        while ran < budget {
            let Some((&(at, _), _)) = self.events.first_key_value() else {
                break;
            };
            if deadline.is_some_and(|d| at >= d) {
                break;
            }
            let Some((_, ev)) = self.events.pop_first() else {
                break;
            };
            self.now = at;
            self.execute(at, ev);
            ran += 1;
        }
        ran
    }

    /// Instant of the next pending event, if any.
    pub(crate) fn next_event_at(&self) -> Option<SimTime> {
        self.events.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Instant the last event executed at; the start instant before any.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Pending work: scheduled events plus jobs queued for capacity.
    pub fn pending(&self) -> usize {
        self.events.len() + self.queue.len()
    }

    /// The fabric state.
    pub fn state(&self) -> &FabricState {
        &self.st
    }

    /// The fabric state, for work outside the event loop (stitch legs,
    /// journal compaction).
    pub fn state_mut(&mut self) -> &mut FabricState {
        &mut self.st
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The metrics registry, for counters kept outside the event loop.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Give up the engine: final state and metrics.
    pub(crate) fn into_parts(self) -> (FabricState, Metrics) {
        (self.st, self.metrics)
    }

    /// Sample the fabric gauges into the metrics time-series.
    pub fn sample(&mut self, now: SimTime) {
        self.metrics.sample(now, &self.st);
    }

    /// Capture the engine — fabric (which journals a `Snapshot` record),
    /// queue, pending events, metrics — at instant `at`.
    pub fn capture(&mut self, at: SimTime) -> AdmitterSnapshot {
        let fabric = self.st.capture_snapshot(at);
        let mut w = SnapWriter::new();
        self.metrics.write_snap(&mut w);
        AdmitterSnapshot {
            fabric,
            timeout: self.timeout,
            retries: self.retries,
            backoff: self.backoff,
            next_event_seq: self.next_seq,
            queue: self.queue.iter().copied().collect(),
            events: self
                .events
                .iter()
                .map(|(&(t, s), ev)| (t, s, ev.clone()))
                .collect(),
            metrics: w.finish(),
        }
    }

    /// Rebuild the engine an [`AdmitterSnapshot`] captured. The fabric is
    /// re-fingerprinted, and every pending event must carry a seq below
    /// the insertion counter under a unique `(time, seq)` key.
    pub fn restore(snap: &AdmitterSnapshot) -> Result<Admitter, String> {
        let st = snap.fabric.restore().map_err(|e| e.to_string())?;
        let mut r = SnapReader::new(&snap.metrics);
        let metrics = Metrics::read_snap(&mut r)?;
        r.done()?;
        let mut events = BTreeMap::new();
        for (t, s, ev) in &snap.events {
            if *s >= snap.next_event_seq {
                return Err(format!(
                    "admission snapshot: event seq {s} is not below the insertion counter {}",
                    snap.next_event_seq
                ));
            }
            if events.insert((*t, *s), ev.clone()).is_some() {
                return Err(format!(
                    "admission snapshot: duplicate event key ({}, {s})",
                    t.as_ps()
                ));
            }
        }
        Ok(Admitter {
            st,
            metrics,
            queue: snap.queue.iter().copied().collect(),
            timeout: snap.timeout,
            retries: snap.retries,
            backoff: snap.backoff,
            events,
            next_seq: snap.next_event_seq,
            now: snap.fabric.at,
        })
    }

    /// Execute one event at its scheduled instant.
    fn execute(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Arrive(q) => {
                self.metrics.bump("jobs.arrived");
                self.start_or_queue(now, q);
            }
            Event::Retry(q) => {
                self.metrics.bump("jobs.retried");
                self.start_or_queue(now, q);
            }
            Event::Timeout(job) => self.on_timeout(now, job),
            Event::Depart(job) => self.on_depart(now, job),
            Event::Fail => self.on_failure(now),
            Event::Sample => self.sample(now),
        }
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
            Admission::Admitted {
                setup, circuits, ..
            } => {
                self.metrics.bump("jobs.admitted");
                self.metrics
                    .record_wait(now.saturating_since(q.arrival).as_secs_f64());
                self.metrics.add("circuits.programmed", circuits as u64);
                self.schedule(now + setup + q.duration, Event::Depart(q.job));
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
                self.schedule(now + delay, Event::Retry(retry));
                true
            }
        }
    }

    /// Start `q` now, or queue it with a fresh timeout if the fabric has
    /// no space.
    fn start_or_queue(&mut self, now: SimTime, q: Queued) {
        if !self.try_start(now, q) {
            self.metrics.bump("jobs.queued");
            self.queue.push_back(q);
            self.schedule(now + self.timeout, Event::Timeout(q.job));
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
        if job & LEG_ID_BIT != 0 {
            self.metrics.bump("stitch.legs.departed");
        } else {
            self.metrics.bump("jobs.departed");
        }
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

/// An [`Admitter`] captured mid-run: the fabric snapshot (state + journal
/// resume point), the timeout and retry policy, the queue, every pending
/// event, and the metrics. [`Admitter::restore`] turns it back into a
/// running engine.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmitterSnapshot {
    /// The fabric-state snapshot, including the journal resume point.
    pub fabric: FabricSnapshot,
    /// Queue timeout at capture.
    pub timeout: SimDuration,
    /// Extra programming attempts after a rejection.
    pub retries: u32,
    /// Base retry backoff.
    pub backoff: SimDuration,
    /// The event-key insertion counter at capture.
    pub next_event_seq: u64,
    queue: Vec<Queued>,
    events: Vec<(SimTime, u64, Event)>,
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

/// Decode a `job=` field.
fn read_job(r: &mut SnapReader<'_>) -> Result<u32, String> {
    u32::try_from(r.u64("job")?).map_err(|_| "admission snapshot: job id exceeds u32".to_string())
}

/// Decode a queue entry's fields.
fn read_queued(r: &mut SnapReader<'_>) -> Result<Queued, String> {
    let job = read_job(r)?;
    let qx = r.u64("qx")? as usize;
    let qy = r.u64("qy")? as usize;
    let qz = r.u64("qz")? as usize;
    let duration = SimDuration::from_ps(r.u64("duration_ps")?);
    let arrival = SimTime::from_ps(r.u64("arrival_ps")?);
    let attempt = u32::try_from(r.u64("attempt")?)
        .map_err(|_| "admission snapshot: attempt exceeds u32".to_string())?;
    Ok(Queued {
        job,
        shape: Shape3::new(qx, qy, qz),
        duration,
        arrival,
        attempt,
    })
}

impl AdmitterSnapshot {
    /// Encode into a section stream: `timeout_ps, retries, backoff_ps,
    /// event_seq`, the queue, the pending events, the metrics text, then
    /// the fabric capture's `[fabric]` section. The caller writes the
    /// section header.
    pub fn write_snap(&self, w: &mut SnapWriter) {
        w.u64("timeout_ps", self.timeout.as_ps());
        w.u64("retries", self.retries as u64);
        w.u64("backoff_ps", self.backoff.as_ps());
        w.u64("event_seq", self.next_event_seq);
        w.u64("queue", self.queue.len() as u64);
        for q in &self.queue {
            write_queued(w, q);
        }
        w.u64("events", self.events.len() as u64);
        for (t, s, ev) in &self.events {
            w.u64("at", t.as_ps());
            w.u64("seq", *s);
            match ev {
                Event::Arrive(q) => {
                    w.u64("kind", 0);
                    write_queued(w, q);
                }
                Event::Retry(q) => {
                    w.u64("kind", 1);
                    write_queued(w, q);
                }
                Event::Timeout(job) => {
                    w.u64("kind", 2);
                    w.u64("job", *job as u64);
                }
                Event::Depart(job) => {
                    w.u64("kind", 3);
                    w.u64("job", *job as u64);
                }
                Event::Fail => w.u64("kind", 4),
                Event::Sample => w.u64("kind", 5),
            }
        }
        w.str("metrics", &self.metrics);
        self.fabric.write_snap(w);
    }

    /// Decode one [`write_snap`](Self::write_snap) block. Counts are not
    /// trusted for allocation: a count larger than the entries that follow
    /// fails on the first missing entry.
    pub fn read_snap(r: &mut SnapReader<'_>) -> Result<AdmitterSnapshot, String> {
        let timeout = SimDuration::from_ps(r.u64("timeout_ps")?);
        let retries = u32::try_from(r.u64("retries")?)
            .map_err(|_| "admission snapshot: retries exceeds u32".to_string())?;
        let backoff = SimDuration::from_ps(r.u64("backoff_ps")?);
        let next_event_seq = r.u64("event_seq")?;
        let nq = r.u64("queue")?;
        let mut queue = Vec::new();
        for _ in 0..nq {
            queue.push(read_queued(r)?);
        }
        let ne = r.u64("events")?;
        let mut events = Vec::new();
        for _ in 0..ne {
            let at = SimTime::from_ps(r.u64("at")?);
            let seq = r.u64("seq")?;
            let ev = match r.u64("kind")? {
                0 => Event::Arrive(read_queued(r)?),
                1 => Event::Retry(read_queued(r)?),
                2 => Event::Timeout(read_job(r)?),
                3 => Event::Depart(read_job(r)?),
                4 => Event::Fail,
                5 => Event::Sample,
                k => return Err(format!("admission snapshot: unknown event kind {k}")),
            };
            events.push((at, seq, ev));
        }
        let metrics = r.str("metrics")?;
        let fabric = FabricSnapshot::read_snap(r)?;
        Ok(AdmitterSnapshot {
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
