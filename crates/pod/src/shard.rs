//! One shard domain: a rack group's fabricd admission engine driven in
//! epoch windows.
//!
//! A domain is sequential and self-contained — the only way work enters
//! it is [`ShardDomain::deliver`], called single-threaded at the epoch
//! barrier by the pod control plane. Inside a window the domain drains
//! its [`fabricd::Admitter`] — the same FIFO admission engine, queue
//! timeout and `(time, seq)` event order the ctrl campaign runs, here
//! with no programming retries — so which OS thread executes the window
//! cannot be observed. Everything the rest of the pod learns about a
//! domain — journal deltas, free capacity, metrics, its fingerprint — is a
//! pure function of the delivered commands.
//!
//! What stays here is what only a pod shard has: its group index and
//! journal delta cursor, its executed-event count, stitched-leg admission
//! at the barrier, and compaction behind the barrier fold.

use desim::fnv::Fnv;
use desim::{SimDuration, SimTime, SnapReader, SnapWriter};
use fabricd::admit::{Event, Queued};
use fabricd::{Admission, Admitter, AdmitterSnapshot, FabricState, Journal, Metrics, Record};
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

/// A shard domain captured at an epoch barrier: its executed-event count,
/// then its admission engine (fabric snapshot with its journal resume
/// point, queue, pending events, metrics). Its group index is its position
/// in the pod snapshot. Content is a pure function of the delegated
/// command stream, so snapshots are worker-count invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Local events executed before the capture.
    pub events_executed: u64,
    /// The domain's admission engine.
    pub engine: AdmitterSnapshot,
}

impl ShardSnapshot {
    /// Encode into a pod-snapshot section stream: `[shard]
    /// events_executed`, then the engine block.
    pub fn write_snap(&self, w: &mut SnapWriter) {
        w.section("shard");
        w.u64("events_executed", self.events_executed);
        self.engine.write_snap(w);
    }

    /// Decode one [`write_snap`](Self::write_snap) section.
    pub fn read_snap(r: &mut SnapReader<'_>) -> Result<ShardSnapshot, String> {
        r.section("shard")?;
        let events_executed = r.u64("events_executed")?;
        let engine = AdmitterSnapshot::read_snap(r)?;
        Ok(ShardSnapshot {
            events_executed,
            engine,
        })
    }
}

/// One rack group's control domain.
#[derive(Debug)]
pub struct ShardDomain {
    group: u32,
    engine: Admitter,
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
        // One programming attempt per job (no retries, so no backoff): a
        // rejected plan is denied, and `ProgramRejected` cannot occur.
        ShardDomain {
            group,
            engine: Admitter::new(
                FabricState::new(group_racks, lanes, seed),
                timeout,
                0,
                SimDuration::ZERO,
            ),
            folded: 0,
            events_executed: 0,
        }
    }

    /// Accept a delegated command, to execute at simulated instant `at`.
    /// Called single-threaded at the epoch barrier; delivery order is the
    /// control plane's canonical delegation order, so the `(time, seq)`
    /// keys — and therefore the whole run — are worker-count invariant.
    pub fn deliver(&mut self, at: SimTime, ev: PodEvent) {
        let ev = match ev {
            PodEvent::Arrival {
                job,
                shape,
                duration,
            } => Event::Arrive(Queued {
                job,
                shape,
                duration,
                arrival: at,
                attempt: 0,
            }),
            PodEvent::InjectFailure => Event::Fail,
        };
        self.engine.schedule(at, ev);
    }

    /// Run every pending local event with `time < deadline`, in
    /// `(time, seq)` order.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.events_executed += self.engine.run_until(Some(deadline), u64::MAX);
    }

    /// Sample the fabric gauges into this domain's metrics (the barrier
    /// tick: every domain samples at the same simulated instant).
    pub fn sample(&mut self, now: SimTime) {
        self.engine.sample(now);
    }

    /// Journal records appended since the last barrier, handed to the pod
    /// control plane for the cross-shard exchange.
    pub fn take_delta(&mut self) -> Vec<Record> {
        let recs = self.engine.state().journal().records();
        let delta = recs.get(self.folded..).unwrap_or_default().to_vec();
        self.folded = recs.len();
        delta
    }

    /// Healthy, unowned chips — the capacity this domain reports at the
    /// barrier for the next window's delegation decisions.
    pub fn free_chips(&self) -> usize {
        self.engine
            .state()
            .rack()
            .cluster
            .occupancy()
            .healthy_free_count()
    }

    /// Local events still pending (scheduled or queued for capacity).
    pub fn pending(&self) -> usize {
        self.engine.pending()
    }

    /// Local events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// The domain's journal (group-local coordinates).
    pub fn journal(&self) -> &Journal {
        self.engine.state().journal()
    }

    /// The domain's metrics registry.
    pub fn metrics(&self) -> &Metrics {
        self.engine.metrics()
    }

    /// The domain's fabricd state.
    pub fn state(&self) -> &FabricState {
        self.engine.state()
    }

    /// Reduce everything observable about this domain to one digest:
    /// journal hash and length, events executed, live jobs, and the
    /// utilization gauges by exact bit pattern. Two domains with equal
    /// fingerprints took identical decision sequences.
    pub fn fingerprint(&self) -> u64 {
        let st = self.engine.state();
        let u = st.utilization();
        let mut h = Fnv::new();
        h.write_u64(self.group as u64);
        h.write_u64(st.journal().hash());
        h.write_u64(st.journal().len() as u64);
        h.write_u64(self.events_executed);
        h.write_u64(st.live_jobs() as u64);
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
        ShardSnapshot {
            events_executed: self.events_executed,
            engine: self.engine.capture(at),
        }
    }

    /// Rebuild domain `group` from the [`ShardSnapshot`] captured at that
    /// position. The restored journal resumes mid-chain (hash and logical
    /// length unchanged), and its single retained `Snapshot` record counts
    /// as already folded — the pod journal committed to it at the capture
    /// barrier.
    pub fn restore(snap: &ShardSnapshot, group: u32) -> Result<ShardDomain, String> {
        let engine = Admitter::restore(&snap.engine)?;
        let folded = engine.state().journal().records().len();
        Ok(ShardDomain {
            group,
            engine,
            folded,
            events_executed: snap.events_executed,
        })
    }

    /// Compact the domain journal to a snapshot watermark. Only legal at a
    /// barrier with every record already folded to the pod level — the pod
    /// journal is the system of record for the truncated prefix.
    pub fn compact(&mut self, watermark: u64) -> Result<usize, String> {
        let before = self.engine.state().journal().records().len();
        if self.folded != before {
            return Err(format!(
                "shard compaction before barrier fold: {} of {before} records folded",
                self.folded
            ));
        }
        let st = self.engine.state_mut();
        let dropped = st.compact_journal(watermark)?;
        self.folded = st.journal().records().len();
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
        match self.engine.state_mut().admit(at, leg, shape) {
            Admission::Admitted {
                circuits, origin, ..
            } => {
                let m = self.engine.metrics_mut();
                m.bump("stitch.legs");
                m.add("circuits.programmed", circuits as u64);
                Some(origin)
            }
            _ => None,
        }
    }

    /// Roll back one admitted leg at the barrier: an honest journaled
    /// `Evict`, exactly like a departure, so CTL401 stays clean.
    pub fn evict_leg(&mut self, at: SimTime, leg: u32) {
        self.engine.state_mut().evict(at, leg);
    }

    /// Schedule the atomic teardown of one admitted leg. Every leg of a
    /// stitched job departs at the same instant; the event runs through
    /// the engine's departure path (evict + FIFO retry of queued jobs).
    pub fn schedule_leg_depart(&mut self, at: SimTime, leg: u32) {
        self.engine.schedule(at, Event::Depart(leg));
    }

    /// Bump a named counter in this domain's metrics. The pod control
    /// plane accounts each stitched job on its first leg's domain.
    pub fn bump(&mut self, name: &'static str) {
        self.engine.metrics_mut().bump(name);
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
