//! One shard domain: a rack group's fabricd instance driven by a
//! deterministic local event queue in epoch windows.
//!
//! A domain is sequential and self-contained — the only way work enters
//! it is [`ShardDomain::deliver`], called single-threaded at the epoch
//! barrier by the pod control plane. Inside a window the domain runs its
//! local events strictly in `(time, seq)` order, exactly like a private
//! [`desim::Engine`], so which OS thread executes the window cannot be
//! observed. Everything the rest of the pod learns about a domain —
//! journal deltas, free capacity, metrics, its fingerprint — is a pure
//! function of the delivered commands.

use crate::policy::LEG_ID_BIT;
use desim::fnv::Fnv;
use desim::{SimDuration, SimTime, SnapReader, SnapWriter};
use fabricd::{Admission, FabricSnapshot, FabricState, Journal, JournalEntry, Metrics, Record};
use std::collections::{BTreeMap, VecDeque};
use topo::{Coord3, Shape3};

/// A command the pod control plane delegates across the shard boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PodEvent {
    /// Admit (or queue) a job on this domain's fabric.
    Arrival {
        /// Pod-global job id.
        job: u32,
        /// Requested slice shape.
        shape: Shape3,
        /// How long the job holds the slice once admitted.
        duration: SimDuration,
    },
    /// Inject one chip failure on this domain's fabric.
    InjectFailure,
}

/// A job waiting for capacity on this domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Queued {
    job: u32,
    shape: Shape3,
    duration: SimDuration,
    arrival: SimTime,
}

/// A future local event, keyed in the queue by `(time, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LocalEvent {
    Arrive(Queued),
    Timeout(u32),
    Depart(u32),
    Fail,
}

/// A shard domain captured at an epoch barrier: the fabric snapshot (with
/// its journal resume point), the admission queue, every pending local
/// event, and the domain's metrics. Content is a pure function of the
/// delegated command stream, so snapshots are worker-count invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// The domain's fabric-state snapshot.
    pub fabric: FabricSnapshot,
    /// The domain's group index.
    pub group: u32,
    /// Local events executed before the capture.
    pub events_executed: u64,
    /// The local event-key insertion counter at capture.
    pub next_seq: u64,
    /// The domain's queue-timeout policy.
    pub queue_timeout: SimDuration,
    queue: Vec<Queued>,
    events: Vec<(SimTime, u64, LocalEvent)>,
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
}

/// Decode a queue entry's fields.
fn read_queued(r: &mut SnapReader<'_>) -> Result<Queued, String> {
    let job = u32::try_from(r.u64("job")?)
        .map_err(|_| "shard snapshot: job id exceeds u32".to_string())?;
    let qx = r.u64("qx")? as usize;
    let qy = r.u64("qy")? as usize;
    let qz = r.u64("qz")? as usize;
    let duration = SimDuration::from_ps(r.u64("duration_ps")?);
    let arrival = SimTime::from_ps(r.u64("arrival_ps")?);
    Ok(Queued {
        job,
        shape: Shape3::new(qx, qy, qz),
        duration,
        arrival,
    })
}

impl ShardSnapshot {
    /// Encode into a pod-snapshot section stream.
    pub fn write_snap(&self, w: &mut SnapWriter) {
        w.section("shard");
        w.u64("group", self.group as u64);
        w.u64("events_executed", self.events_executed);
        w.u64("event_seq", self.next_seq);
        w.u64("timeout_ps", self.queue_timeout.as_ps());
        w.u64("queue", self.queue.len() as u64);
        for q in &self.queue {
            write_queued(w, q);
        }
        w.u64("events", self.events.len() as u64);
        for (t, s, ev) in &self.events {
            w.u64("at", t.as_ps());
            w.u64("seq", *s);
            match ev {
                LocalEvent::Arrive(q) => {
                    w.u64("kind", 0);
                    write_queued(w, q);
                }
                LocalEvent::Timeout(job) => {
                    w.u64("kind", 1);
                    w.u64("job", *job as u64);
                }
                LocalEvent::Depart(job) => {
                    w.u64("kind", 2);
                    w.u64("job", *job as u64);
                }
                LocalEvent::Fail => w.u64("kind", 3),
            }
        }
        w.str("metrics", &self.metrics);
        w.str("fabric", &self.fabric.to_text());
    }

    /// Decode one [`write_snap`](Self::write_snap) section.
    pub fn read_snap(r: &mut SnapReader<'_>) -> Result<ShardSnapshot, String> {
        r.section("shard")?;
        let group = u32::try_from(r.u64("group")?)
            .map_err(|_| "shard snapshot: group exceeds u32".to_string())?;
        let events_executed = r.u64("events_executed")?;
        let next_seq = r.u64("event_seq")?;
        let queue_timeout = SimDuration::from_ps(r.u64("timeout_ps")?);
        let nq = r.u64("queue")? as usize;
        let mut queue = Vec::with_capacity(nq);
        for _ in 0..nq {
            queue.push(read_queued(r)?);
        }
        let ne = r.u64("events")? as usize;
        let mut events = Vec::with_capacity(ne);
        for _ in 0..ne {
            let at = SimTime::from_ps(r.u64("at")?);
            let seq = r.u64("seq")?;
            let job = |r: &mut SnapReader<'_>| -> Result<u32, String> {
                u32::try_from(r.u64("job")?)
                    .map_err(|_| "shard snapshot: job id exceeds u32".to_string())
            };
            let ev = match r.u64("kind")? {
                0 => LocalEvent::Arrive(read_queued(r)?),
                1 => LocalEvent::Timeout(job(r)?),
                2 => LocalEvent::Depart(job(r)?),
                3 => LocalEvent::Fail,
                k => return Err(format!("shard snapshot: unknown event kind {k}")),
            };
            events.push((at, seq, ev));
        }
        let metrics = r.str("metrics")?;
        let fabric = FabricSnapshot::parse(&r.str("fabric")?)?;
        Ok(ShardSnapshot {
            fabric,
            group,
            events_executed,
            next_seq,
            queue_timeout,
            queue,
            events,
            metrics,
        })
    }
}

/// One rack group's control domain.
#[derive(Debug)]
pub struct ShardDomain {
    group: u32,
    st: FabricState,
    metrics: Metrics,
    /// FIFO of jobs waiting for capacity.
    queue: VecDeque<Queued>,
    /// Pending local events in canonical `(time, seq)` order. BTreeMap —
    /// never a hash map — per the workspace determinism rule (DET001).
    events: BTreeMap<(SimTime, u64), LocalEvent>,
    next_seq: u64,
    queue_timeout: SimDuration,
    /// Journal records already handed to the pod at a previous barrier.
    folded: usize,
    events_executed: u64,
}

impl ShardDomain {
    /// A fresh domain of `group_racks` racks. `seed` must already be
    /// partitioned per group (`derive_seed(pod_seed, group)`).
    pub fn new(
        group: u32,
        group_racks: usize,
        lanes: usize,
        seed: u64,
        timeout: SimDuration,
    ) -> Self {
        ShardDomain {
            group,
            st: FabricState::new(group_racks, lanes, seed),
            metrics: Metrics::new(),
            queue: VecDeque::new(),
            events: BTreeMap::new(),
            next_seq: 0,
            queue_timeout: timeout,
            folded: 0,
            events_executed: 0,
        }
    }

    /// This domain's group index.
    pub fn group(&self) -> u32 {
        self.group
    }

    /// Accept a delegated command, to execute at simulated instant `at`.
    /// Called single-threaded at the epoch barrier; delivery order is the
    /// control plane's canonical delegation order, so the `(time, seq)`
    /// keys — and therefore the whole run — are worker-count invariant.
    pub fn deliver(&mut self, at: SimTime, ev: PodEvent) {
        let local = match ev {
            PodEvent::Arrival {
                job,
                shape,
                duration,
            } => LocalEvent::Arrive(Queued {
                job,
                shape,
                duration,
                arrival: at,
            }),
            PodEvent::InjectFailure => LocalEvent::Fail,
        };
        self.schedule(at, local);
    }

    /// Run every pending local event with `time < deadline`, in
    /// `(time, seq)` order.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((&(at, seq), _)) = self.events.first_key_value() {
            if at >= deadline {
                break;
            }
            let Some(ev) = self.events.remove(&(at, seq)) else {
                break;
            };
            self.events_executed += 1;
            match ev {
                LocalEvent::Arrive(q) => self.on_arrival(at, q),
                LocalEvent::Timeout(job) => self.on_timeout(at, job),
                LocalEvent::Depart(job) => self.on_depart(at, job),
                LocalEvent::Fail => self.on_failure(at),
            }
        }
    }

    /// Sample the fabric gauges into this domain's metrics (the barrier
    /// tick: every domain samples at the same simulated instant).
    pub fn sample(&mut self, now: SimTime) {
        self.metrics.sample(now, &self.st);
    }

    /// Journal records appended since the last barrier, handed to the pod
    /// control plane for the cross-shard exchange.
    pub fn take_delta(&mut self) -> Vec<Record> {
        let recs = self.st.journal().records();
        let delta = recs.get(self.folded..).unwrap_or_default().to_vec();
        self.folded = recs.len();
        delta
    }

    /// Healthy, unowned chips — the capacity this domain reports at the
    /// barrier for the next window's delegation decisions.
    pub fn free_chips(&self) -> usize {
        self.st
            .rack()
            .cluster
            .occupancy()
            .healthy_free_chips()
            .len()
    }

    /// Local events still pending (scheduled or queued for capacity).
    pub fn pending(&self) -> usize {
        self.events.len() + self.queue.len()
    }

    /// Local events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// The domain's journal (group-local coordinates).
    pub fn journal(&self) -> &Journal {
        self.st.journal()
    }

    /// The domain's metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The domain's fabricd state.
    pub fn state(&self) -> &FabricState {
        &self.st
    }

    /// Reduce everything observable about this domain to one digest:
    /// journal hash and length, events executed, live jobs, and the
    /// utilization gauges by exact bit pattern. Two domains with equal
    /// fingerprints took identical decision sequences.
    pub fn fingerprint(&self) -> u64 {
        let u = self.st.utilization();
        let mut h = Fnv::new();
        h.write_u64(self.group as u64);
        h.write_u64(self.st.journal().hash());
        h.write_u64(self.st.journal().len() as u64);
        h.write_u64(self.events_executed);
        h.write_u64(self.st.live_jobs() as u64);
        h.write_f64(u.occupancy);
        h.write_u64(u.circuits as u64);
        h.write_u64(u.reconfigs);
        h.write_f64(u.aggregate_gbps);
        h.finish()
    }

    /// Capture this domain at an epoch barrier (after
    /// [`take_delta`](Self::take_delta)). Journals a `Snapshot` record in
    /// the domain journal; the caller folds it to the pod level with a
    /// follow-up `take_delta` so the pod journal commits to the capture.
    pub fn capture(&mut self, at: SimTime) -> ShardSnapshot {
        let fabric = self.st.capture_snapshot(at);
        let mut w = SnapWriter::new();
        self.metrics.write_snap(&mut w);
        ShardSnapshot {
            fabric,
            group: self.group,
            events_executed: self.events_executed,
            next_seq: self.next_seq,
            queue_timeout: self.queue_timeout,
            queue: self.queue.iter().copied().collect(),
            events: self
                .events
                .iter()
                .map(|(&(t, s), ev)| (t, s, ev.clone()))
                .collect(),
            metrics: w.finish(),
        }
    }

    /// Rebuild the domain a [`ShardSnapshot`] captured. The restored
    /// journal resumes mid-chain (hash and logical length unchanged), and
    /// its single retained `Snapshot` record counts as already folded —
    /// the pod journal committed to it at the capture barrier.
    pub fn restore(snap: &ShardSnapshot) -> Result<ShardDomain, String> {
        let st = snap.fabric.restore().map_err(|e| e.to_string())?;
        let mut r = SnapReader::new(&snap.metrics);
        let metrics = Metrics::read_snap(&mut r)?;
        r.done()?;
        let mut events = BTreeMap::new();
        for (t, s, ev) in &snap.events {
            if *s >= snap.next_seq {
                return Err(format!(
                    "shard snapshot: event seq {s} is not below the insertion counter {}",
                    snap.next_seq
                ));
            }
            if events.insert((*t, *s), ev.clone()).is_some() {
                return Err(format!(
                    "shard snapshot: duplicate event key ({}, {s})",
                    t.as_ps()
                ));
            }
        }
        let folded = st.journal().records().len();
        Ok(ShardDomain {
            group: snap.group,
            st,
            metrics,
            queue: snap.queue.iter().copied().collect(),
            events,
            next_seq: snap.next_seq,
            queue_timeout: snap.queue_timeout,
            folded,
            events_executed: snap.events_executed,
        })
    }

    /// Compact the domain journal to a snapshot watermark. Only legal at a
    /// barrier with every record already folded to the pod level — the pod
    /// journal is the system of record for the truncated prefix.
    pub fn compact(&mut self, watermark: u64) -> Result<usize, String> {
        let before = self.st.journal().records().len();
        if self.folded != before {
            return Err(format!(
                "shard compaction before barrier fold: {} of {before} records folded",
                self.folded
            ));
        }
        let dropped = self.st.compact_journal(watermark)?;
        self.folded = self.st.journal().records().len();
        Ok(dropped)
    }

    // -------------------------------------------- cross-group stitching ----

    /// Admit one leg of a cross-group stitched slice directly at the
    /// epoch barrier, against this domain's *true* occupancy (not the
    /// control plane's estimate). Returns the leg's domain-local origin
    /// on success; on any denial nothing is held and the caller rolls
    /// the whole stitch back. Called single-threaded by the pod control
    /// plane, so the journal append order stays worker-count invariant.
    pub fn admit_leg(&mut self, at: SimTime, leg: u32, shape: Shape3) -> Option<Coord3> {
        match self.st.admit(at, leg, shape) {
            Admission::Admitted { circuits, .. } => {
                self.metrics.bump("stitch.legs");
                self.metrics.add("circuits.programmed", circuits as u64);
                self.st
                    .journal()
                    .records()
                    .iter()
                    .rev()
                    .find_map(|r| match &r.entry {
                        JournalEntry::Admit { job, origin, .. } if *job == leg => Some(*origin),
                        _ => None,
                    })
            }
            _ => None,
        }
    }

    /// Roll back one admitted leg at the barrier: an honest journaled
    /// `Evict`, exactly like a departure, so CTL401 stays clean.
    pub fn evict_leg(&mut self, at: SimTime, leg: u32) {
        self.st.evict(at, leg);
    }

    /// Schedule the atomic teardown of one admitted leg. Every leg of a
    /// stitched job departs at the same instant; the event runs through
    /// the normal departure path (evict + FIFO retry of queued jobs).
    pub fn schedule_leg_depart(&mut self, at: SimTime, leg: u32) {
        self.schedule(at, LocalEvent::Depart(leg));
    }

    /// Bump a named counter in this domain's metrics. The pod control
    /// plane accounts each stitched job on its first leg's domain.
    pub fn bump(&mut self, name: &'static str) {
        self.metrics.bump(name);
    }

    // ------------------------------------------------------ event loop ----

    fn schedule(&mut self, at: SimTime, ev: LocalEvent) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.insert((at, seq), ev);
    }

    /// Try to admit now; true when the job is resolved from the queue's
    /// point of view (started, denied, or rejected as infeasible).
    fn try_start(&mut self, now: SimTime, q: Queued) -> bool {
        match self.st.admit(now, q.job, q.shape) {
            Admission::Admitted { setup, circuits } => {
                self.metrics.bump("jobs.admitted");
                self.metrics
                    .record_wait(now.saturating_since(q.arrival).as_secs_f64());
                self.metrics.add("circuits.programmed", circuits as u64);
                self.schedule(now + setup + q.duration, LocalEvent::Depart(q.job));
                true
            }
            Admission::NoSpace => false,
            Admission::ProgramDenied { error } | Admission::ProgramRejected { error } => {
                // With single-attempt admission `ProgramRejected` cannot
                // occur, but both outcomes resolve the job the same way:
                // journaled denial, counted by reason.
                self.metrics.bump("jobs.denied.program");
                self.metrics.bump_rejection(error.root_code());
                true
            }
            Admission::Infeasible { error } => {
                self.metrics.bump("jobs.rejected.infeasible");
                self.metrics.bump_rejection(error.root_code());
                true
            }
        }
    }

    fn on_arrival(&mut self, now: SimTime, q: Queued) {
        self.metrics.bump("jobs.arrived");
        if !self.try_start(now, q) {
            self.metrics.bump("jobs.queued");
            self.queue.push_back(q);
            self.schedule(now + self.queue_timeout, LocalEvent::Timeout(q.job));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivered_arrival_admits_and_departs() {
        let mut d = ShardDomain::new(0, 1, 2, 7, SimDuration::from_secs(1_800));
        d.deliver(
            SimTime::ZERO,
            PodEvent::Arrival {
                job: 3,
                shape: Shape3::new(2, 2, 1),
                duration: SimDuration::from_secs(10),
            },
        );
        d.run_until(SimTime::from_ps(1));
        assert_eq!(d.metrics().counter("jobs.admitted"), 1);
        assert_eq!(d.state().live_jobs(), 1);
        assert_eq!(d.pending(), 1, "departure scheduled");
        d.run_until(SimTime::MAX);
        assert_eq!(d.metrics().counter("jobs.departed"), 1);
        assert_eq!(d.state().live_jobs(), 0);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn epoch_deadline_is_respected_and_replay_safe() {
        let mk = || {
            let mut d = ShardDomain::new(1, 1, 2, 9, SimDuration::from_secs(100));
            for (i, at) in [0u64, 5, 50].iter().enumerate() {
                d.deliver(
                    SimTime::from_ps(*at * desim::PS_PER_S),
                    PodEvent::Arrival {
                        job: i as u32,
                        shape: Shape3::new(2, 2, 1),
                        duration: SimDuration::from_secs(1),
                    },
                );
            }
            d
        };
        // Running in one window or two windows is bit-identical.
        let mut one = mk();
        one.run_until(SimTime::from_ps(u64::MAX));
        let mut two = mk();
        two.run_until(SimTime::from_ps(10 * desim::PS_PER_S));
        two.run_until(SimTime::from_ps(u64::MAX));
        assert_eq!(one.fingerprint(), two.fingerprint());
        assert_eq!(one.journal().hash(), two.journal().hash());
    }

    #[test]
    fn take_delta_is_incremental_and_complete() {
        let mut d = ShardDomain::new(0, 1, 2, 7, SimDuration::from_secs(1_800));
        d.deliver(
            SimTime::ZERO,
            PodEvent::Arrival {
                job: 0,
                shape: Shape3::new(2, 2, 1),
                duration: SimDuration::from_secs(5),
            },
        );
        d.run_until(SimTime::from_ps(desim::PS_PER_S));
        let first = d.take_delta();
        assert!(!first.is_empty());
        assert!(d.take_delta().is_empty(), "delta consumed");
        d.run_until(SimTime::MAX);
        let second = d.take_delta();
        let total = first.len() + second.len();
        assert_eq!(total, d.journal().len(), "deltas cover the journal");
    }

    #[test]
    fn failure_injection_updates_counters() {
        let mut d = ShardDomain::new(0, 1, 2, 7, SimDuration::from_secs(1_800));
        d.deliver(
            SimTime::ZERO,
            PodEvent::Arrival {
                job: 0,
                shape: Shape3::new(4, 2, 1),
                duration: SimDuration::from_secs(100),
            },
        );
        d.deliver(SimTime::from_ps(desim::PS_PER_S), PodEvent::InjectFailure);
        d.run_until(SimTime::from_ps(2 * desim::PS_PER_S));
        assert_eq!(d.metrics().counter("failures.injected"), 1);
        assert_eq!(d.metrics().counter("repairs.ok"), 1);
    }
}
