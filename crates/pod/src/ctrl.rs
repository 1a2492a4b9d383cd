//! `PodCtrl`: the pod-level control plane.
//!
//! One run admits a deterministic job trace against the whole 4096-chip
//! torus, delegates every admission to exactly one rack-group shard
//! domain, executes the domains in sim-time epoch windows on the
//! [`desim::par`] pull-queue pool, and folds the per-shard journals into one
//! pod-level append-only FNV journal through the canonical
//! `(time, shard, seq)` exchange of [`desim::epoch`]. Everything the run
//! reports — fingerprint, journal hash, merged metrics — is a pure
//! function of `(PodConfig, seed)`; the worker-thread count (`shards`)
//! only changes which OS thread executes which domain window.
//!
//! The worker-count-invariance argument, end to end:
//!
//! 1. the shard *partition* is fixed geometry ([`PodLayout`]);
//! 2. delegation runs single-threaded at the epoch barrier, against the
//!    capacity view of the previous barrier, in trace order;
//! 3. each domain's window is sequential and self-contained
//!    ([`ShardDomain`]);
//! 4. the pool returns barrier reports in group order, and barrier
//!    folding sorts deltas by `(time, shard, seq)` — a pure function of
//!    the deltas, not of completion order;
//! 5. metrics and fingerprints fold in group-index order.
//!
//! **Snapshots & crash restart.** With [`PodOptions::snapshot_every`] set,
//! the run captures a [`PodSnapshot`] at every N-th epoch barrier: each
//! domain journals a `Snapshot` record (folded to the pod journal like any
//! other record, so the hash chain commits to the capture), and the pod
//! level records its delegation cursors, digest state, and journal
//! watermark. What restore can derive is not stored: the capture instant
//! (the end of the last window), the journal header (from the config),
//! the capacity view (each restored domain's free chips, which the
//! barrier copied in just before the capture), and the delegation count.
//! [`resume_pod`] rebuilds the run from a snapshot and drives it to
//! completion; the resumed outcome is bit-identical to the uninterrupted
//! run's — same fingerprint, journal hash, logical length, and metrics —
//! because every fingerprint input is restored. With
//! [`PodOptions::compact`], shard and pod journals are truncated below
//! each snapshot watermark; [`Journal::compact_to`] folds the dropped
//! records into the base hash, so compaction is invisible to the chain.

use crate::layout::{PodLayout, POD_CHIPS};
use crate::policy::{pick_group, CapacityView, PlacementDecision, PolicyKind, StitchLeg};
use crate::shard::{PodEvent, ShardDomain, ShardSnapshot};
use desim::epoch::{exchange, EpochConfig, Stamped};
use desim::fnv::{combine, derive_seed, Fnv};
use desim::{SimDuration, SimTime, SnapReader, SnapWriter};
use fabricd::{Journal, JournalEntry, JournalHeader, Metrics, RouteTelemetry, StitchLegRecord};
use topo::{band, RackGroupPartition};
use workloads::{generate, ArrivalParams, JobRequest};

/// Parameters of one pod run. Worker count is deliberately *not* here —
/// it is a property of the execution, not of the simulated system, and
/// must not affect any output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodConfig {
    /// Total chips (positive multiple of one 64-chip rack).
    pub chips: usize,
    /// Wavelength lanes per tenant ring circuit.
    pub lanes: usize,
    /// Pod seed; per-domain streams derive as `derive_seed(seed, group)`.
    pub seed: u64,
    /// Jobs in the arrival trace.
    pub jobs: usize,
    /// Chip failures to inject, round-robin across domains.
    pub failures: usize,
    /// Epoch window length (barrier cadence).
    pub epoch: SimDuration,
    /// Stop after this many epochs; 0 = run to quiescence.
    pub max_epochs: u64,
    /// How long a job may wait in a domain's admission queue.
    pub queue_timeout: SimDuration,
    /// Arrival process parameters.
    pub arrivals: ArrivalParams,
    /// Placement policy the control plane delegates with. The default
    /// ([`PolicyKind::Greedy`]) reproduces PR 7's delegation bit-for-bit.
    pub policy: PolicyKind,
}

impl Default for PodConfig {
    fn default() -> Self {
        PodConfig {
            chips: POD_CHIPS,
            lanes: 2,
            seed: 7,
            jobs: 256,
            failures: 8,
            epoch: SimDuration::from_secs(600),
            max_epochs: 0,
            queue_timeout: SimDuration::from_secs(1_800),
            arrivals: ArrivalParams::default(),
            policy: PolicyKind::Greedy,
        }
    }
}

/// Execution options orthogonal to the simulated system. Snapshot cadence
/// is part of the decision record (captures journal `Snapshot` records),
/// so two runs compare bit-for-bit only under the same `snapshot_every`;
/// `compact` and `crash_after_epochs` never change any output hash.
#[derive(Debug, Clone, Copy, Default)]
pub struct PodOptions {
    /// Capture a [`PodSnapshot`] every N epoch barriers (0 = never).
    pub snapshot_every: u64,
    /// Truncate shard and pod journals below each snapshot watermark.
    pub compact: bool,
    /// Simulate a crash: abandon the run after this many epochs. The
    /// outcome reports `crashed = true` and carries the snapshots taken
    /// so far, from which [`resume_pod`] can restart.
    pub crash_after_epochs: Option<u64>,
}

/// Everything a finished pod run reports.
#[derive(Debug)]
pub struct PodOutcome {
    /// The run fingerprint: per-domain fingerprints (group order), the
    /// pod journal hash, the delegation digest, and the event count,
    /// folded through FNV-1a. Equal fingerprints ⇔ identical runs.
    pub fingerprint: u64,
    /// The pod-level journal: every domain's records, coordinates
    /// remapped into the pod torus, in canonical exchange order.
    pub journal: Journal,
    /// All domains' metrics, folded in group-index order.
    pub metrics: Metrics,
    /// Plan-library / cross-plan cache counters, summed over all domains
    /// in group-index order. Telemetry only — never part of the
    /// fingerprint (a cold cache must replay bit-identically to a warm
    /// one), but deterministic and shard-count invariant, so
    /// `BENCH_pod.json` gates the counts exactly.
    pub route: RouteTelemetry,
    /// Local events executed across all domains.
    pub events: u64,
    /// Epoch windows executed.
    pub epochs: u64,
    /// Worker threads used (echo of the request, clamped to the domain
    /// count; does not affect any other field).
    pub shards: usize,
    /// Shard domains in the partition.
    pub groups: usize,
    /// Commands delegated across the shard boundary: one per job and one
    /// per failure.
    pub delegations: u64,
    /// Simulated horizon reached (end of the last epoch window).
    pub horizon: SimTime,
    /// Wall-clock seconds (telemetry only; never part of the fingerprint).
    pub wall_s: f64,
    /// Events per wall-clock second — the `BENCH_pod.json` throughput.
    pub events_per_sec: f64,
    /// Snapshots captured, oldest first (empty unless
    /// [`PodOptions::snapshot_every`] is set).
    pub snapshots: Vec<PodSnapshot>,
    /// True when the run stopped at [`PodOptions::crash_after_epochs`]
    /// instead of quiescing.
    pub crashed: bool,
    /// Placement policy the run delegated with (echo of the config).
    pub policy: PolicyKind,
    /// Mean capacity fragmentation over all epoch barriers:
    /// `1 - largest_group_free / total_free`, sampled from the canonical
    /// barrier capacity view. 0 when every free chip sits in one group;
    /// telemetry only — never part of the fingerprint.
    pub frag_mean: f64,
    /// Mean pod occupancy over all epoch barriers:
    /// `1 - total_free / total_chips`, sampled from the canonical barrier
    /// capacity view. Telemetry only — never part of the fingerprint.
    pub occ_mean: f64,
}

/// What one domain reports at an epoch barrier.
struct BarrierReport {
    delta: Vec<fabricd::Record>,
    free: usize,
    pending: usize,
}

/// Remap a domain-local journal entry into pod coordinates: slice
/// origins and chip coordinates shift by the group's Z offset, incident
/// ids are namespaced by group so they stay unique pod-wide.
fn remap_entry(p: &RackGroupPartition, group: usize, entry: JournalEntry) -> JournalEntry {
    let incident_id = |local: u64| ((group as u64) << 32) | (local & 0xffff_ffff);
    match entry {
        JournalEntry::Admit {
            job,
            origin,
            extent,
        } => JournalEntry::Admit {
            job,
            origin: p.to_pod(group, origin),
            extent,
        },
        JournalEntry::Fail {
            incident,
            chip,
            victim,
            spliced,
        } => JournalEntry::Fail {
            incident: incident_id(incident),
            chip: p.to_pod(group, chip),
            victim,
            spliced,
        },
        JournalEntry::Repair {
            incident,
            replacement,
            circuits,
            servers_touched,
            blast_servers,
        } => JournalEntry::Repair {
            incident: incident_id(incident),
            replacement: p.to_pod(group, replacement),
            circuits,
            servers_touched,
            blast_servers,
        },
        JournalEntry::RepairFailed {
            incident,
            replacement,
            error,
        } => JournalEntry::RepairFailed {
            incident: incident_id(incident),
            replacement: p.to_pod(group, replacement),
            error,
        },
        other => other,
    }
}

/// The live pod run: domains plus the pod-level control state that a
/// [`PodSnapshot`] must capture to make crash restart exact.
struct PodRun {
    cfg: PodConfig,
    layout: PodLayout,
    domains: Vec<ShardDomain>,
    trace: Vec<JobRequest>,
    failures: Vec<(SimTime, usize)>,
    journal: Journal,
    free_est: Vec<usize>,
    deleg: Fnv,
    next_job: usize,
    next_fail: usize,
    epoch: u64,
    /// Pod-level `MultiGroupAdmit` records staged at this barrier; merged
    /// into the canonical exchange at part 2, so they land time-sorted.
    /// Always empty between barriers — never snapshotted.
    staged: Vec<Stamped<JournalEntry>>,
    /// Fragmentation accumulator: Σ (1 - largest_free/total_free) over
    /// epoch barriers, from the canonical capacity view.
    frag_sum: f64,
    /// Barriers that contributed to `frag_sum`.
    frag_samples: u64,
    /// Occupancy accumulator: Σ (1 - total_free/total_chips) over epoch
    /// barriers, from the canonical capacity view.
    occ_sum: f64,
    /// Barriers that contributed to `occ_sum`.
    occ_samples: u64,
}

impl PodRun {
    /// A fresh run at epoch 0: pristine domains, empty journal, trace and
    /// failure schedule regenerated from the config (both are pure
    /// functions of it, so a snapshot need not carry them).
    fn fresh(cfg: &PodConfig) -> Result<PodRun, String> {
        let layout = PodLayout::new(cfg.chips).map_err(|e| e.to_string())?;
        let groups = layout.groups();
        let domains: Vec<ShardDomain> = (0..groups)
            .map(|g| {
                ShardDomain::new(
                    g as u32,
                    layout.group_racks(),
                    cfg.lanes,
                    derive_seed(cfg.seed, g as u64),
                    cfg.queue_timeout,
                )
            })
            .collect();
        let (trace, failures) = demand(cfg, groups);
        let journal = Journal::new(header(&layout, cfg));
        let free_est = vec![layout.group_chips(); groups];
        Ok(PodRun {
            cfg: *cfg,
            layout,
            domains,
            trace,
            failures,
            journal,
            free_est,
            deleg: Fnv::new(),
            next_job: 0,
            next_fail: 0,
            epoch: 0,
            staged: Vec::new(),
            frag_sum: 0.0,
            frag_samples: 0,
            occ_sum: 0.0,
            occ_samples: 0,
        })
    }

    /// Rebuild the run a [`PodSnapshot`] captured: restored domains, a
    /// pod journal resuming mid-chain at the recorded watermark, and the
    /// delegation cursors/digest exactly where the capture left them. The
    /// capture instant, journal header and capacity view are derived.
    fn from_snapshot(snap: &PodSnapshot) -> Result<PodRun, String> {
        let cfg = snap.config;
        let layout = PodLayout::new(cfg.chips).map_err(|e| e.to_string())?;
        let groups = layout.groups();
        // A capture is taken at the barrier that closes an epoch window:
        // after `epoch ≥ 1` windows, at the end of the last one, with
        // every domain captured at that same instant.
        let epochs = EpochConfig::new(cfg.epoch)
            .ok_or_else(|| "pod snapshot: epoch length must be positive".to_string())?;
        let at = snap
            .epoch
            .checked_sub(1)
            .map(|last| epochs.end_of(last))
            .ok_or_else(|| "pod snapshot: no epoch completed before the capture".to_string())?;
        if snap.domains.len() != groups {
            return Err(format!(
                "pod snapshot: {} domain captures for a {groups}-group layout",
                snap.domains.len()
            ));
        }
        let mut domains = Vec::with_capacity(groups);
        for (g, ds) in snap.domains.iter().enumerate() {
            if ds.engine.fabric.at != at {
                return Err(format!(
                    "pod snapshot: domain capture {g} taken at {} ps, not at the barrier \
                     {} ps after {} epochs",
                    ds.engine.fabric.at.as_ps(),
                    at.as_ps(),
                    snap.epoch
                ));
            }
            domains.push(ShardDomain::restore(ds, g as u32)?);
        }
        let (trace, failures) = demand(&cfg, groups);
        if snap.next_job > trace.len() || snap.next_fail > failures.len() {
            return Err("pod snapshot: delegation cursor beyond the demand schedule".to_string());
        }
        // Barrier part 2 copied every domain's free chips into the view
        // just before the capture.
        let free_est = domains.iter().map(ShardDomain::free_chips).collect();
        Ok(PodRun {
            cfg,
            journal: Journal::with_base(
                header(&layout, &cfg),
                snap.journal_next_seq,
                snap.journal_fnv,
            ),
            layout,
            domains,
            trace,
            failures,
            free_est,
            deleg: Fnv::from_state(snap.deleg_state),
            next_job: snap.next_job,
            next_fail: snap.next_fail,
            epoch: snap.epoch,
            staged: Vec::new(),
            frag_sum: snap.frag_sum,
            frag_samples: snap.frag_samples,
            occ_sum: snap.occ_sum,
            occ_samples: snap.occ_samples,
        })
    }

    /// Capture the run at an epoch barrier (every delta already folded).
    /// Each domain journals a `Snapshot` record; folding those records to
    /// the pod journal *before* recording the watermark makes the pod
    /// hash chain commit to the capture. With `compact`, both journal
    /// levels are then truncated below their watermarks.
    fn capture(&mut self, at: SimTime, compact: bool) -> Result<PodSnapshot, String> {
        let partition = *self.layout.partition();
        let groups = self.domains.len();
        let mut doms = Vec::with_capacity(groups);
        for (g, dom) in self.domains.iter_mut().enumerate() {
            let ds = dom.capture(at);
            for rec in dom.take_delta() {
                self.journal
                    .push(rec.at, remap_entry(&partition, g, rec.entry));
            }
            if compact {
                dom.compact(ds.engine.fabric.seq)?;
            }
            doms.push(ds);
        }
        let snap = PodSnapshot {
            epoch: self.epoch,
            config: self.cfg,
            journal_next_seq: self.journal.next_seq(),
            journal_fnv: self.journal.seal(),
            deleg_state: self.deleg.state(),
            next_job: self.next_job,
            next_fail: self.next_fail,
            frag_sum: self.frag_sum,
            frag_samples: self.frag_samples,
            occ_sum: self.occ_sum,
            occ_samples: self.occ_samples,
            domains: doms,
        };
        if compact {
            // The last `groups` records are the per-domain Snapshot
            // records in group order; group 0's is the legal watermark.
            let watermark = self.journal.next_seq() - groups as u64;
            self.journal.compact_to(watermark)?;
        }
        Ok(snap)
    }

    /// Drive the run to quiescence (or a configured stop) with `shards`
    /// worker threads, capturing snapshots on the configured cadence.
    fn drive(mut self, shards: usize, opts: &PodOptions) -> Result<PodOutcome, String> {
        let cfg = self.cfg;
        let groups = self.layout.groups();
        let partition = *self.layout.partition();
        let workers = shards.clamp(1, groups);
        let epochs_cfg = EpochConfig::new(cfg.epoch)
            .ok_or_else(|| "epoch length must be positive".to_string())?;

        let mut snapshots: Vec<PodSnapshot> = Vec::new();
        let mut crashed = false;

        // detlint: allow(DET002) — wall-clock feeds events/sec telemetry
        // only; every simulated output is a pure function of (config, seed).
        let started = std::time::Instant::now();

        let horizon = loop {
            let end = epochs_cfg.end_of(self.epoch);

            // --- barrier, part 1 (single-threaded): delegate this window's
            // demand in trace order against the previous barrier's view.
            // The policy decides; a stitch decision admits its legs here,
            // atomically, and falls back to single-group delegation when
            // the estimate was stale.
            while let Some(&job) = self.trace.get(self.next_job) {
                if job.arrival >= end {
                    break;
                }
                let need = job.shape.volume();
                let decision = {
                    let view = CapacityView {
                        free: &self.free_est,
                        group_chips: self.layout.group_chips(),
                        group_z: partition.group_z(),
                    };
                    cfg.policy.policy().place(&view, job.shape)
                };
                let single = match decision {
                    PlacementDecision::SingleGroup(g) => Some(g),
                    PlacementDecision::Stitch(legs) => {
                        if self.admit_stitch(&job, &legs)? {
                            None
                        } else {
                            Some(pick_group(&self.free_est, need))
                        }
                    }
                };
                if let Some(g) = single {
                    if let Some(f) = self.free_est.get_mut(g) {
                        *f = f.saturating_sub(need);
                    }
                    self.deleg.write_u64(self.next_job as u64);
                    self.deleg.write_u64(g as u64);
                    let ev = PodEvent::Arrival {
                        job: self.next_job as u32,
                        shape: job.shape,
                        duration: job.duration,
                    };
                    let arrival = job.arrival;
                    deliver(&mut self.domains, g, arrival, ev)?;
                }
                self.next_job += 1;
            }
            while let Some(&(at, g)) = self.failures.get(self.next_fail) {
                if at >= end {
                    break;
                }
                self.deleg.write_u64(u64::MAX);
                self.deleg.write_u64(g as u64);
                deliver(&mut self.domains, g, at, PodEvent::InjectFailure)?;
                self.next_fail += 1;
            }

            // --- window (parallel): every domain runs to the deadline on
            // the pull-queue pool. Which thread runs which domain is
            // unobservable: domains are sequential and self-contained, and
            // the reports come back in group order.
            let reports = desim::par::map_pulled(&mut self.domains, workers, |dom| {
                dom.run_until(end);
                dom.sample(end);
                BarrierReport {
                    delta: dom.take_delta(),
                    free: dom.free_chips(),
                    pending: dom.pending(),
                }
            });

            // --- barrier, part 2 (single-threaded): canonical fold.
            let mut pending_total = 0usize;
            let mut outboxes: Vec<Vec<Stamped<JournalEntry>>> = Vec::with_capacity(groups + 1);
            for (g, rep) in reports.into_iter().enumerate() {
                pending_total += rep.pending;
                if let Some(f) = self.free_est.get_mut(g) {
                    *f = rep.free;
                }
                outboxes.push(
                    rep.delta
                        .into_iter()
                        .map(|rec| Stamped {
                            at: rec.at,
                            shard: g as u32,
                            seq: rec.seq,
                            payload: remap_entry(&partition, g, rec.entry),
                        })
                        .collect(),
                );
            }
            // Pod-level MultiGroupAdmit records staged at part 1 join the
            // same canonical exchange; their shard stamp (`groups`) sorts
            // them after every domain record at the same instant.
            if !self.staged.is_empty() {
                outboxes.push(std::mem::take(&mut self.staged));
            }
            for m in exchange(outboxes) {
                self.journal.push(m.at, m.payload);
            }

            // Fragmentation sample from the refreshed canonical view:
            // how much of the pod's free capacity sits outside its
            // largest free group. Telemetry only, worker-count invariant.
            let total_free: usize = self.free_est.iter().sum();
            let largest_free = self.free_est.iter().copied().max().unwrap_or(0);
            if total_free > 0 {
                self.frag_sum += 1.0 - (largest_free as f64) / (total_free as f64);
                self.frag_samples += 1;
            }
            if self.layout.chips() > 0 {
                self.occ_sum += 1.0 - (total_free as f64) / (self.layout.chips() as f64);
                self.occ_samples += 1;
            }

            self.epoch += 1;

            // Snapshot cadence is a pure function of the epoch counter, so
            // interrupted and uninterrupted runs capture (and journal the
            // Snapshot records) at identical instants.
            if opts.snapshot_every > 0 && self.epoch.is_multiple_of(opts.snapshot_every) {
                snapshots.push(self.capture(end, opts.compact)?);
            }

            let drained = self.next_job == self.trace.len()
                && self.next_fail == self.failures.len()
                && pending_total == 0;
            if drained || (cfg.max_epochs > 0 && self.epoch >= cfg.max_epochs) {
                break end;
            }
            if let Some(limit) = opts.crash_after_epochs {
                if self.epoch >= limit {
                    crashed = true;
                    break end;
                }
            }
            if self.epoch >= 1_000_000 {
                return Err(format!(
                    "pod run did not quiesce within {} epochs (pending={pending_total})",
                    self.epoch
                ));
            }
        };

        // Final fold, in group-index order: metrics, fingerprints, events,
        // and the plan-library telemetry (summed, never fingerprinted).
        let mut metrics = Metrics::new();
        let mut route = RouteTelemetry::default();
        let mut fps: Vec<u64> = Vec::with_capacity(groups);
        let mut events: u64 = 0;
        for dom in &self.domains {
            metrics.merge(dom.metrics());
            route.merge(&RouteTelemetry::of(dom.state()));
            fps.push(dom.fingerprint());
            events += dom.events_executed();
        }

        let mut h = Fnv::new();
        h.write_u64(combine(&fps));
        h.write_u64(self.journal.hash());
        h.write_u64(self.deleg.finish());
        h.write_u64(events);
        h.write_u64(self.epoch);
        let fingerprint = h.finish();

        let wall_s = started.elapsed().as_secs_f64();
        let events_per_sec = if wall_s > 0.0 {
            events as f64 / wall_s
        } else {
            0.0
        };

        Ok(PodOutcome {
            fingerprint,
            journal: self.journal,
            metrics,
            route,
            events,
            epochs: self.epoch,
            shards: workers,
            groups,
            delegations: (self.next_job + self.next_fail) as u64,
            horizon,
            wall_s,
            events_per_sec,
            snapshots,
            crashed,
            policy: cfg.policy,
            frag_mean: if self.frag_samples > 0 {
                self.frag_sum / self.frag_samples as f64
            } else {
                0.0
            },
            occ_mean: if self.occ_samples > 0 {
                self.occ_sum / self.occ_samples as f64
            } else {
                0.0
            },
        })
    }

    /// Admit a cross-group stitched job, all-or-nothing, at the
    /// single-threaded barrier. Each leg is admitted against its
    /// domain's *true* occupancy; on success every leg departs at the
    /// same instant (`arrival + duration`) and one [`MultiGroupAdmit`]
    /// record — legs in pod coordinates plus the stitch-port assignment
    /// on every crossed rack face — is staged for the canonical journal
    /// exchange. On any leg failure all already-admitted legs are
    /// evicted (honest journal records) and the caller falls back to
    /// single-group delegation. Returns whether the stitch landed.
    ///
    /// [`MultiGroupAdmit`]: JournalEntry::MultiGroupAdmit
    fn admit_stitch(&mut self, job: &JobRequest, legs: &[StitchLeg]) -> Result<bool, String> {
        let partition = *self.layout.partition();
        let job_idx = self.next_job;
        // Leg slice ids live in a high-bit namespace so they can never
        // collide with trace job ids: LEG_ID_BIT | job << 4 | leg.
        if job_idx >= (1 << 27) || legs.len() > 15 || legs.is_empty() {
            return Ok(false);
        }
        let face = band::face_ports(partition.group_shape());
        let unit = job.shape.volume() / job.shape.extent(topo::Dim::Z).max(1);
        let Some(ports_per_face) = band::stitch_ports(face, unit) else {
            return Ok(false);
        };
        let leg_id = |i: usize| fabricd::LEG_ID_BIT | ((job_idx as u32) << 4) | (i as u32);

        let mut admitted: Vec<StitchLegRecord> = Vec::with_capacity(legs.len());
        for (i, leg) in legs.iter().enumerate() {
            let origin = self
                .domains
                .get_mut(leg.group)
                .ok_or_else(|| format!("stitch delegation to unknown group {}", leg.group))?
                .admit_leg(job.arrival, leg_id(i), leg.extent);
            let Some(origin) = origin else {
                // Roll back every already-admitted leg, newest first.
                for rec in admitted.iter().rev() {
                    let dom = self
                        .domains
                        .get_mut(rec.group as usize)
                        .ok_or_else(|| format!("stitch rollback to unknown group {}", rec.group))?;
                    dom.evict_leg(job.arrival, rec.leg);
                    dom.bump("stitch.rollbacks");
                }
                return Ok(false);
            };
            admitted.push(StitchLegRecord {
                leg: leg_id(i),
                group: leg.group as u64,
                origin: partition.to_pod(leg.group, origin),
                extent: leg.extent,
            });
        }

        // Every leg landed: schedule the atomic teardown, charge the
        // capacity view, and stamp the delegation digest.
        let depart = job.arrival + job.duration;
        for rec in &admitted {
            let dom = self
                .domains
                .get_mut(rec.group as usize)
                .ok_or_else(|| format!("stitch delegation to unknown group {}", rec.group))?;
            dom.schedule_leg_depart(depart, rec.leg);
            if let Some(f) = self.free_est.get_mut(rec.group as usize) {
                *f = f.saturating_sub(rec.extent.volume());
            }
        }
        if let Some(first) = admitted.first() {
            self.domains
                .get_mut(first.group as usize)
                .ok_or_else(|| format!("stitch delegation to unknown group {}", first.group))?
                .bump("jobs.stitched");
        }
        self.deleg.write_u64(job_idx as u64);
        self.deleg.write_u64(u64::MAX - 1); // stitch marker
        for rec in &admitted {
            self.deleg.write_u64(rec.group);
            self.deleg.write_u64(rec.extent.volume() as u64);
        }

        // Boundary-major stitch-port assignment: the same deterministic
        // port set on every crossed rack face.
        let mut ports: Vec<u32> = Vec::with_capacity(ports_per_face.len() * (admitted.len() - 1));
        for _ in 1..admitted.len() {
            ports.extend_from_slice(&ports_per_face);
        }
        let entry = JournalEntry::MultiGroupAdmit {
            job: job_idx as u32,
            extent: job.shape,
            legs: admitted,
            ports,
        };
        self.staged.push(Stamped {
            at: job.arrival,
            shard: self.layout.groups() as u32,
            seq: self.staged.len() as u64,
            payload: entry,
        });
        Ok(true)
    }
}

/// The deterministic demand: a pod-wide arrival trace (job id = trace
/// index) and a failure schedule anchored at the median arrival.
fn demand(cfg: &PodConfig, groups: usize) -> (Vec<JobRequest>, Vec<(SimTime, usize)>) {
    let trace: Vec<JobRequest> = generate(cfg.jobs, &cfg.arrivals, cfg.seed);
    let anchor = trace
        .get(trace.len() / 2)
        .map_or(SimTime::ZERO, |j| j.arrival);
    let failures: Vec<(SimTime, usize)> = (0..cfg.failures)
        .map(|f| {
            (
                anchor + SimDuration::from_secs(30) * (f as u64),
                f % groups.max(1),
            )
        })
        .collect();
    (trace, failures)
}

/// Run one pod simulation with `shards` worker threads.
///
/// The returned [`PodOutcome`] is bit-identical for every `shards` value:
/// `spsim pod` asserts this at runtime and `cargo xtask lint` pins the
/// fingerprint in `BENCH_pod.json`.
pub fn run_pod(cfg: &PodConfig, shards: usize) -> Result<PodOutcome, String> {
    run_pod_with(cfg, shards, &PodOptions::default())
}

/// Run one pod simulation with explicit [`PodOptions`] (snapshot cadence,
/// compaction, simulated crash).
pub fn run_pod_with(
    cfg: &PodConfig,
    shards: usize,
    opts: &PodOptions,
) -> Result<PodOutcome, String> {
    PodRun::fresh(cfg)?.drive(shards, opts)
}

/// Resume a pod run from a [`PodSnapshot`] and drive it to completion.
///
/// Under the same [`PodOptions::snapshot_every`] cadence as the original
/// run, the resumed outcome is bit-identical to the uninterrupted one:
/// fingerprint, journal hash, logical journal length, event count, and
/// metrics all match, and the worker count remains unobservable.
pub fn resume_pod(
    snap: &PodSnapshot,
    shards: usize,
    opts: &PodOptions,
) -> Result<PodOutcome, String> {
    PodRun::from_snapshot(snap)?.drive(shards, opts)
}

/// The pod journal header: a pure function of the config.
fn header(layout: &PodLayout, cfg: &PodConfig) -> JournalHeader {
    JournalHeader {
        racks: layout.racks(),
        lanes: cfg.lanes,
        seed: cfg.seed,
        shape: layout.pod_shape(),
    }
}

/// First line of the pod snapshot artifact.
const POD_SNAP_MAGIC: &str = "spsim-pod-snapshot v3";

/// A consistent capture of a whole pod run at an epoch barrier: one
/// [`ShardSnapshot`] per rack-group domain, in group order, plus the
/// pod-level control state (delegation cursors and digest, journal
/// watermark, telemetry accumulators). Serializable with
/// [`to_text`](Self::to_text) / [`parse`](Self::parse); the artifact is
/// integrity-checked by an FNV fingerprint on its first line. The capture
/// instant, journal header, capacity view and delegation count are
/// derived on restore, not stored.
#[derive(Debug, Clone, PartialEq)]
pub struct PodSnapshot {
    /// Epochs completed when the capture was taken; the capture instant
    /// is the end of window `epoch − 1`.
    pub epoch: u64,
    /// The run's configuration; demand schedules and the journal header
    /// are rebuilt from it on restore (they are pure functions of it).
    pub config: PodConfig,
    /// Pod journal watermark: sequence the next record will take.
    pub journal_next_seq: u64,
    /// Pod journal hash at the watermark (resumes the chain).
    pub journal_fnv: u64,
    /// Delegation digest state at the capture.
    pub deleg_state: u64,
    /// Next trace index to delegate.
    pub next_job: usize,
    /// Next failure-schedule index to delegate.
    pub next_fail: usize,
    /// Fragmentation accumulator at the capture (see
    /// [`PodOutcome::frag_mean`]).
    pub frag_sum: f64,
    /// Barriers that contributed to `frag_sum` before the capture.
    pub frag_samples: u64,
    /// Occupancy accumulator at the capture (see
    /// [`PodOutcome::occ_mean`]).
    pub occ_sum: f64,
    /// Barriers that contributed to `occ_sum` before the capture.
    pub occ_samples: u64,
    /// Per-domain captures, in group-index order.
    pub domains: Vec<ShardSnapshot>,
}

impl PodSnapshot {
    fn body(&self) -> String {
        let mut w = SnapWriter::new();
        w.section("pod");
        w.u64("epoch", self.epoch);
        w.u64("journal_next_seq", self.journal_next_seq);
        w.u64("journal_fnv", self.journal_fnv);
        w.u64("deleg_state", self.deleg_state);
        w.u64("next_job", self.next_job as u64);
        w.u64("next_fail", self.next_fail as u64);
        w.u64("groups", self.domains.len() as u64);
        w.f64("frag_sum", self.frag_sum);
        w.u64("frag_samples", self.frag_samples);
        w.f64("occ_sum", self.occ_sum);
        w.u64("occ_samples", self.occ_samples);
        w.section("config");
        w.u64("chips", self.config.chips as u64);
        w.u64("lanes", self.config.lanes as u64);
        w.u64("seed", self.config.seed);
        w.u64("jobs", self.config.jobs as u64);
        w.u64("failures", self.config.failures as u64);
        w.u64("epoch_ps", self.config.epoch.as_ps());
        w.u64("max_epochs", self.config.max_epochs);
        w.u64("queue_timeout_ps", self.config.queue_timeout.as_ps());
        w.u64(
            "mean_interarrival_ps",
            self.config.arrivals.mean_interarrival.as_ps(),
        );
        w.u64(
            "mean_duration_ps",
            self.config.arrivals.mean_duration.as_ps(),
        );
        w.f64("small_job_skew", self.config.arrivals.small_job_skew);
        w.u64("policy", self.config.policy.tag());
        for d in &self.domains {
            d.write_snap(&mut w);
        }
        w.finish()
    }

    /// Serialize to the integrity-checked artifact format, sealed by
    /// [`desim::snap::seal`] under the format tag.
    pub fn to_text(&self) -> String {
        desim::snap::seal(POD_SNAP_MAGIC, &self.body())
    }

    /// Parse a [`to_text`](Self::to_text) artifact, verifying the header,
    /// the FNV fingerprint and every structural invariant.
    pub fn parse(text: &str) -> Result<PodSnapshot, String> {
        let body = desim::snap::open(POD_SNAP_MAGIC, text)?;
        let mut r = SnapReader::new(body);
        r.section("pod")?;
        let epoch = r.u64("epoch")?;
        let journal_next_seq = r.u64("journal_next_seq")?;
        let journal_fnv = r.u64("journal_fnv")?;
        let deleg_state = r.u64("deleg_state")?;
        let next_job = r.u64("next_job")? as usize;
        let next_fail = r.u64("next_fail")? as usize;
        let groups = r.u64("groups")?;
        let frag_sum = r.f64("frag_sum")?;
        let frag_samples = r.u64("frag_samples")?;
        let occ_sum = r.f64("occ_sum")?;
        let occ_samples = r.u64("occ_samples")?;
        r.section("config")?;
        let config = PodConfig {
            chips: r.u64("chips")? as usize,
            lanes: r.u64("lanes")? as usize,
            seed: r.u64("seed")?,
            jobs: r.u64("jobs")? as usize,
            failures: r.u64("failures")? as usize,
            epoch: SimDuration::from_ps(r.u64("epoch_ps")?),
            max_epochs: r.u64("max_epochs")?,
            queue_timeout: SimDuration::from_ps(r.u64("queue_timeout_ps")?),
            arrivals: ArrivalParams {
                mean_interarrival: SimDuration::from_ps(r.u64("mean_interarrival_ps")?),
                mean_duration: SimDuration::from_ps(r.u64("mean_duration_ps")?),
                small_job_skew: r.f64("small_job_skew")?,
            },
            policy: {
                let tag = r.u64("policy")?;
                PolicyKind::from_tag(tag)
                    .ok_or_else(|| format!("pod snapshot: unknown policy tag {tag}"))?
            },
        };
        let mut domains = Vec::new();
        for g in 0..groups {
            let d = ShardSnapshot::read_snap(&mut r)
                .map_err(|e| format!("pod snapshot: shard {g} of {groups}: {e}"))?;
            domains.push(d);
        }
        r.done()?;
        Ok(PodSnapshot {
            epoch,
            config,
            journal_next_seq,
            journal_fnv,
            deleg_state,
            next_job,
            next_fail,
            frag_sum,
            frag_samples,
            occ_sum,
            occ_samples,
            domains,
        })
    }
}

/// Deliver one command to a domain at the single-threaded barrier.
fn deliver(
    domains: &mut [ShardDomain],
    group: usize,
    at: SimTime,
    ev: PodEvent,
) -> Result<(), String> {
    domains
        .get_mut(group)
        .ok_or_else(|| format!("delegation to unknown group {group}"))?
        .deliver(at, ev);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PodConfig {
        PodConfig {
            chips: 256,
            jobs: 40,
            failures: 3,
            ..PodConfig::default()
        }
    }

    #[test]
    fn worker_count_cannot_be_observed() {
        let cfg = small();
        let one = run_pod(&cfg, 1).expect("1 worker");
        let four = run_pod(&cfg, 4).expect("4 workers");
        assert_eq!(one.fingerprint, four.fingerprint);
        assert_eq!(one.journal.hash(), four.journal.hash());
        assert_eq!(one.events, four.events);
        assert_eq!(
            one.metrics.rejection_report_json(),
            four.metrics.rejection_report_json()
        );
        assert_eq!(one.route, four.route, "plan telemetry is shard-invariant");
    }

    #[test]
    fn run_guiesces_and_journals_all_demand() {
        let cfg = small();
        let out = run_pod(&cfg, 2).expect("runs");
        assert_eq!(out.delegations, (cfg.jobs + cfg.failures) as u64);
        assert_eq!(out.metrics.counter("jobs.arrived"), cfg.jobs as u64);
        assert_eq!(
            out.metrics.counter("failures.injected"),
            cfg.failures as u64
        );
        // Every arrival resolves: admitted+departed, denied, or rejected.
        let resolved = out.metrics.counter("jobs.admitted")
            + out.metrics.counter("jobs.denied.timeout")
            + out.metrics.counter("jobs.denied.program")
            + out.metrics.counter("jobs.rejected.infeasible");
        assert_eq!(resolved, cfg.jobs as u64, "all jobs resolved");
        assert_eq!(
            out.metrics.counter("jobs.admitted"),
            out.metrics.counter("jobs.departed"),
            "quiescence: every admitted job departed"
        );
        assert!(!out.journal.is_empty());
        assert!(out.snapshots.is_empty(), "no snapshots unless requested");
        assert!(!out.crashed);
    }

    #[test]
    fn bounded_epochs_stop_early() {
        let mut cfg = small();
        cfg.max_epochs = 2;
        let out = run_pod(&cfg, 2).expect("runs");
        assert_eq!(out.epochs, 2);
        assert_eq!(out.horizon, SimTime::from_ps(2 * 600 * desim::PS_PER_S));
    }

    #[test]
    fn journal_coordinates_are_pod_global() {
        let cfg = small();
        let out = run_pod(&cfg, 2).expect("runs");
        let layout = PodLayout::new(cfg.chips).expect("layout");
        let pod_z = layout.pod_shape().extent(topo::Dim::Z);
        let group_z = layout.partition().group_z();
        let mut beyond_first_group = 0usize;
        for r in out.journal.records() {
            if let JournalEntry::Admit { origin, .. } = &r.entry {
                assert!(origin.p[2] < pod_z, "origin within the pod torus");
                if origin.p[2] >= group_z {
                    beyond_first_group += 1;
                }
            }
        }
        assert!(
            beyond_first_group > 0,
            "delegation spreads admissions beyond group 0"
        );
    }

    #[test]
    fn pod_journal_times_are_globally_ordered() {
        let out = run_pod(&small(), 3).expect("runs");
        let recs = out.journal.records();
        for w in recs.windows(2) {
            if let [a, b] = w {
                assert!(a.at <= b.at, "exchange order is globally time-sorted");
            }
        }
    }

    #[test]
    fn snapshots_are_worker_count_invariant() {
        let cfg = small();
        let opts = PodOptions {
            snapshot_every: 2,
            ..PodOptions::default()
        };
        let one = run_pod_with(&cfg, 1, &opts).expect("1 worker");
        let four = run_pod_with(&cfg, 4, &opts).expect("4 workers");
        assert!(!one.snapshots.is_empty(), "cadence produced snapshots");
        assert_eq!(one.snapshots, four.snapshots);
        assert_eq!(one.fingerprint, four.fingerprint);
        let two = run_pod_with(&cfg, 2, &opts).expect("2 workers");
        assert_eq!(one.snapshots, two.snapshots);
    }

    #[test]
    fn crash_restart_resumes_bit_identically() {
        let cfg = small();
        let opts = PodOptions {
            snapshot_every: 1,
            ..PodOptions::default()
        };
        let full = run_pod_with(&cfg, 2, &opts).expect("uninterrupted");
        assert!(full.epochs >= 4, "need room to crash mid-run");
        assert!(!full.crashed);

        // Crash mid-run — with compaction on, so the restart also proves
        // truncated journals lose nothing. Epoch 2 falls inside the
        // arrival trace, so that resumed run delegates against the
        // capacity view restore derives from its domains.
        for crash in [2, full.epochs / 2] {
            let crashed = run_pod_with(
                &cfg,
                2,
                &PodOptions {
                    snapshot_every: 1,
                    compact: true,
                    crash_after_epochs: Some(crash),
                },
            )
            .expect("crashed run");
            assert!(crashed.crashed);
            assert!(crashed.epochs < full.epochs);

            let snap = crashed.snapshots.last().expect("snapshot before crash");
            if crash == 2 {
                assert!(snap.next_job < cfg.jobs, "arrivals remain to delegate");
            }
            let resumed = resume_pod(
                snap,
                3,
                &PodOptions {
                    snapshot_every: 1,
                    compact: true,
                    crash_after_epochs: None,
                },
            )
            .expect("resumed run");
            assert!(!resumed.crashed);
            assert_eq!(resumed.epochs, full.epochs, "crash {crash}");
            assert_eq!(resumed.fingerprint, full.fingerprint, "crash {crash}");
            assert_eq!(resumed.journal.hash(), full.journal.hash(), "crash {crash}");
            assert_eq!(resumed.journal.len(), full.journal.len(), "crash {crash}");
            assert_eq!(resumed.events, full.events);
            assert_eq!(resumed.delegations, full.delegations);
            assert_eq!(resumed.horizon, full.horizon);
            assert_eq!(
                resumed.metrics.rejection_report_json(),
                full.metrics.rejection_report_json()
            );
        }
    }

    #[test]
    fn compaction_is_invisible_to_the_pod_hash_chain() {
        let cfg = small();
        let plain = run_pod_with(
            &cfg,
            2,
            &PodOptions {
                snapshot_every: 2,
                ..PodOptions::default()
            },
        )
        .expect("plain");
        let compacted = run_pod_with(
            &cfg,
            2,
            &PodOptions {
                snapshot_every: 2,
                compact: true,
                ..PodOptions::default()
            },
        )
        .expect("compacted");
        assert!(compacted.journal.base_seq() > 0, "compaction happened");
        assert!(
            compacted.journal.records().len() < plain.journal.records().len(),
            "compaction retained fewer records"
        );
        assert_eq!(plain.journal.hash(), compacted.journal.hash());
        assert_eq!(plain.journal.len(), compacted.journal.len());
        assert_eq!(plain.fingerprint, compacted.fingerprint);
        assert_eq!(plain.snapshots, compacted.snapshots);
    }

    /// A pod small and saturated enough that single groups run out of
    /// contiguous capacity: 8 single-rack groups of 64 chips, so the
    /// trace's 4×4×4 jobs must stitch once every group is broken.
    fn stitchy() -> PodConfig {
        PodConfig {
            chips: 512,
            jobs: 96,
            failures: 2,
            policy: PolicyKind::Stitch,
            ..PodConfig::default()
        }
    }

    #[test]
    fn every_policy_is_worker_count_invariant() {
        for k in PolicyKind::ALL {
            let cfg = PodConfig {
                policy: k,
                ..stitchy()
            };
            let one = run_pod(&cfg, 1).expect("1 worker");
            let four = run_pod(&cfg, 4).expect("4 workers");
            assert_eq!(one.fingerprint, four.fingerprint, "policy {}", k.name());
            assert_eq!(
                one.journal.hash(),
                four.journal.hash(),
                "policy {}",
                k.name()
            );
            assert_eq!(one.events, four.events, "policy {}", k.name());
            assert_eq!(
                one.frag_mean.to_bits(),
                four.frag_mean.to_bits(),
                "frag telemetry is shard-invariant under {}",
                k.name()
            );
            assert_eq!(
                one.occ_mean.to_bits(),
                four.occ_mean.to_bits(),
                "occupancy telemetry is shard-invariant under {}",
                k.name()
            );
        }
    }

    #[test]
    fn stitch_policy_admits_cross_group_slices_atomically() {
        let cfg = stitchy();
        let out = run_pod(&cfg, 4).expect("runs");
        let stitched = out.metrics.counter("jobs.stitched");
        assert!(stitched >= 1, "at least one stitch landed");
        let legs = out.metrics.counter("stitch.legs");
        let rollbacks = out.metrics.counter("stitch.rollbacks");
        assert!(
            legs >= 2 * stitched + rollbacks,
            "every landed stitch carries at least two legs \
             (legs={legs} stitched={stitched} rollbacks={rollbacks})"
        );
        assert_eq!(
            out.metrics.counter("stitch.legs.departed"),
            legs - rollbacks,
            "quiescence: every landed leg departed"
        );

        // The journal carries one well-formed MultiGroupAdmit per stitch.
        let mut multi = 0u64;
        for r in out.journal.records() {
            if let JournalEntry::MultiGroupAdmit { extent, legs, .. } = &r.entry {
                multi += 1;
                assert!(legs.len() >= 2, "a stitch spans at least two groups");
                let z_sum: usize = legs.iter().map(|l| l.extent.extent(topo::Dim::Z)).sum();
                assert_eq!(z_sum, extent.extent(topo::Dim::Z), "legs partition Z");
            }
        }
        assert_eq!(multi, stitched, "one record per landed stitch");

        // The CTL408 audit accepts the production journal.
        let layout = PodLayout::new(cfg.chips).expect("layout");
        let group_z = layout.partition().group_z();
        let face = band::face_ports(layout.partition().group_shape());
        let mut report = verify::Report::new();
        verify::check_multi_group_admission(&out.journal, group_z, face, &mut report);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn pod_snapshot_artifact_round_trips() {
        let cfg = small();
        let out = run_pod_with(
            &cfg,
            2,
            &PodOptions {
                snapshot_every: 2,
                ..PodOptions::default()
            },
        )
        .expect("runs");
        let snap = out.snapshots.first().expect("snapshot");
        let text = snap.to_text();
        let back = PodSnapshot::parse(&text).expect("parses");
        assert_eq!(&back, snap);

        let tampered = text.replacen("next_job", "next_jxb", 1);
        assert!(PodSnapshot::parse(&tampered).is_err(), "tamper detected");
        let truncated = &text[..text.len() - 2];
        assert!(
            PodSnapshot::parse(truncated).is_err(),
            "truncation detected"
        );
    }
}
