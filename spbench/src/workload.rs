//! The four workloads. Each is a closed loop: one process runs a fixed,
//! seeded trace to quiescence as fast as it can. Arrivals are Poisson in
//! *simulated* time, so there is no host schedule to fall behind.

use crate::trace::Tracer;
use desim::fnv::{combine, derive_seed};
use desim::SimDuration;
use fabricd::{
    replay, replay_from, resume_campaign, run_campaign, CampaignOptions, CampaignOutcome,
    CtrlConfig, CtrlSnapshot, FabricState, Journal, Metrics, RouteTelemetry,
};
use pod::{PodConfig, PodLayout, PodOptions, PodOutcome, PolicyKind, ShardDomain};
use std::hint::black_box;
use std::time::Instant;
use workloads::generate;

/// Racks in every ctrl workload's fabric (and in one pod rack group).
pub const RACKS: usize = 4;
/// Pod worker threads: the core count of the 2-core machine the
/// benchmark was calibrated on, fixed so runs compare across hosts.
const POD_WORKERS: usize = 2;
/// Snapshot cadence of `ctrl-snapshot`, in simulated time.
const SNAPSHOT_EVERY: SimDuration = SimDuration::from_secs(600);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One long warm campaign plus a replay of its journal.
    CtrlSteady,
    /// Many short campaigns, each from an empty plan engine.
    CtrlCold,
    /// A campaign with snapshots, then replay, restart and resume.
    CtrlSnapshot,
    /// The sharded 4096-chip pod at two worker threads.
    Pod4096,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CtrlSteady,
        Workload::CtrlCold,
        Workload::CtrlSnapshot,
        Workload::Pod4096,
    ];

    /// The stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CtrlSteady => "ctrl-steady",
            Workload::CtrlCold => "ctrl-cold",
            Workload::CtrlSnapshot => "ctrl-snapshot",
            Workload::Pod4096 => "pod-4096",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`FULL`] is the benchmark; [`SMOKE`] keeps tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Jobs in the `ctrl-steady` trace.
    pub steady_jobs: usize,
    /// Independent campaigns in one `ctrl-cold` rep.
    pub cold_campaigns: u64,
    /// Jobs in the `ctrl-snapshot` trace.
    pub snapshot_jobs: usize,
    /// Jobs in the `pod-4096` trace.
    pub pod_jobs: usize,
}

/// The benchmark's sizes.
pub const FULL: Scale = Scale {
    steady_jobs: 60_000,
    cold_campaigns: 300,
    snapshot_jobs: 5_000,
    pod_jobs: 60_000,
};

/// Sizes for the in-package tests.
pub const SMOKE: Scale = Scale {
    steady_jobs: 300,
    cold_campaigns: 3,
    snapshot_jobs: 300,
    pod_jobs: 300,
};

/// Jobs in each `ctrl-cold` campaign.
const COLD_JOBS: usize = 50;

/// The campaigns a ctrl workload runs, in order.
pub fn ctrl_configs(w: Workload, seed: u64, scale: &Scale) -> Vec<CtrlConfig> {
    let base = CtrlConfig {
        racks: RACKS,
        ..CtrlConfig::default()
    };
    match w {
        Workload::CtrlSteady => vec![CtrlConfig {
            jobs: scale.steady_jobs,
            failures: 4,
            seed,
            ..base
        }],
        Workload::CtrlCold => (0..scale.cold_campaigns)
            .map(|k| CtrlConfig {
                jobs: COLD_JOBS,
                seed: derive_seed(seed, k),
                ..base
            })
            .collect(),
        Workload::CtrlSnapshot => vec![CtrlConfig {
            jobs: scale.snapshot_jobs,
            failures: 4,
            seed,
            ..base
        }],
        Workload::Pod4096 => Vec::new(),
    }
}

/// Campaign options of a ctrl workload.
pub fn campaign_options(w: Workload) -> CampaignOptions {
    CampaignOptions {
        snapshot_every: (w == Workload::CtrlSnapshot).then_some(SNAPSHOT_EVERY),
        ..CampaignOptions::default()
    }
}

/// The pod configuration of `pod-4096`.
pub fn pod_config(seed: u64, scale: &Scale) -> PodConfig {
    let mut cfg = PodConfig {
        chips: pod::POD_CHIPS,
        jobs: scale.pod_jobs,
        seed,
        policy: PolicyKind::Greedy,
        ..PodConfig::default()
    };
    cfg.arrivals.mean_interarrival = SimDuration::from_secs(10);
    cfg
}

/// What identifies a run's outputs: equal identities mean equal runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Identity {
    /// Final state fingerprint (`ctrl-cold`: `combine` over campaigns).
    pub fingerprint: u64,
    /// Journal hash (`ctrl-cold`: `combine` over campaigns).
    pub journal_hash: u64,
    /// Snapshots captured.
    pub snapshots: usize,
}

impl std::fmt::Display for Identity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fingerprint 0x{:016x} journal_hash 0x{:016x} snapshots {}",
            self.fingerprint, self.journal_hash, self.snapshots
        )
    }
}

/// The raw outputs of one rep, kept for the probes of the traced run.
#[derive(Debug)]
pub enum Outputs {
    /// Every campaign's outcome, in order.
    Ctrl(Vec<CampaignOutcome>),
    /// The pod run's outcome.
    Pod(Box<PodOutcome>),
}

impl Outputs {
    /// Metrics merged across campaigns (the pod merges across shards).
    pub fn metrics(&self) -> Metrics {
        match self {
            Outputs::Ctrl(outs) => {
                let mut m = Metrics::new();
                for o in outs {
                    m.merge(&o.metrics);
                }
                m
            }
            Outputs::Pod(out) => {
                let mut m = Metrics::new();
                m.merge(&out.metrics);
                m
            }
        }
    }

    /// Plan-cache counters summed across campaigns (or shards).
    pub fn route(&self) -> RouteTelemetry {
        match self {
            Outputs::Ctrl(outs) => {
                let mut r = RouteTelemetry::default();
                for o in outs {
                    r.merge(&RouteTelemetry::of(&o.state));
                }
                r
            }
            Outputs::Pod(out) => out.route,
        }
    }

    /// Every journal the rep produced.
    pub fn journals(&self) -> Vec<&Journal> {
        match self {
            Outputs::Ctrl(outs) => outs.iter().map(|o| o.state.journal()).collect(),
            Outputs::Pod(out) => vec![&out.journal],
        }
    }
}

/// One rep: timings, identity, verification findings and raw outputs.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds of the main call(s): the campaign(s) or the pod run.
    pub wall_s: f64,
    /// Simulated events executed by the main call(s).
    pub events: u64,
    /// Host seconds of `fabricd::replay` over every journal (ctrl only).
    pub replay_s: Option<f64>,
    /// Host seconds of snapshot parse plus delta replay (`ctrl-snapshot`).
    pub restart_s: Option<f64>,
    /// What the outputs hash to.
    pub id: Identity,
    /// Verification failures; empty when the rep is correct.
    pub errors: Vec<String>,
    /// The outputs themselves.
    pub out: Outputs,
}

/// Host seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Build what a run of `w` starts from — its arrival traces and empty
/// fabrics — through the same public constructors the run calls, and
/// return the host seconds it took.
pub fn setup(w: Workload, seed: u64, scale: &Scale, tr: &mut Tracer) -> Result<f64, String> {
    let t = Instant::now();
    tr.span("setup", |tr| -> Result<(), String> {
        if w == Workload::Pod4096 {
            let cfg = pod_config(seed, scale);
            black_box(tr.span("workloads::generate", |_| {
                generate(cfg.jobs, &cfg.arrivals, cfg.seed)
            }));
            let layout = tr
                .span("pod::PodLayout::new", |_| PodLayout::new(cfg.chips))
                .map_err(|e| e.to_string())?;
            for g in 0..layout.groups() {
                black_box(tr.span("pod::ShardDomain::new", |_| {
                    ShardDomain::new(
                        g as u32,
                        layout.group_racks(),
                        cfg.lanes,
                        derive_seed(cfg.seed, g as u64),
                        cfg.queue_timeout,
                    )
                }));
            }
        } else {
            for cfg in ctrl_configs(w, seed, scale) {
                black_box(tr.span("workloads::generate", |_| {
                    generate(cfg.jobs, &cfg.arrivals, cfg.seed)
                }));
                black_box(tr.span("fabricd::FabricState::new", |_| {
                    FabricState::new(cfg.racks, cfg.lanes, cfg.seed)
                }));
            }
        }
        Ok(())
    })?;
    Ok(t.elapsed().as_secs_f64())
}

/// Run one rep of `w` and verify it. `Err` means the main call failed.
/// Every rep runs the calls whose time it reports (`replay_s`,
/// `restart_s`) and checks their results; a `full` rep also runs the
/// checks nothing times: `ctrl-cold`'s replays and `resume_campaign`.
pub fn rep(
    w: Workload,
    seed: u64,
    scale: &Scale,
    full: bool,
    tr: &mut Tracer,
) -> Result<Rep, String> {
    tr.span("rep", |tr| match w {
        Workload::Pod4096 => pod_rep(seed, scale, tr),
        _ => ctrl_rep(w, seed, scale, full, tr),
    })
}

fn ctrl_rep(
    w: Workload,
    seed: u64,
    scale: &Scale,
    full: bool,
    tr: &mut Tracer,
) -> Result<Rep, String> {
    let opts = campaign_options(w);
    let cfgs = ctrl_configs(w, seed, scale);
    let (outs, wall_s) = timed(|| {
        cfgs.iter()
            .map(|cfg| tr.span("fabricd::run_campaign", |_| run_campaign(cfg, &opts)))
            .collect::<Result<Vec<_>, String>>()
    });
    let outs = outs?;
    let mut errors = Vec::new();

    // replay ≡ live, for every campaign. `ctrl-cold` reports no replay
    // time, so only its full reps replay.
    let mut replay_s = None;
    if full || w != Workload::CtrlCold {
        let mut total = 0.0;
        for (k, o) in outs.iter().enumerate() {
            let (r, s) = timed(|| tr.span("fabricd::replay", |_| replay(o.state.journal())));
            total += s;
            match r {
                Ok(st) if st.fingerprint() == o.state.fingerprint() => {}
                Ok(_) => errors.push(format!(
                    "campaign {k}: replay fingerprint differs from live"
                )),
                Err(e) => errors.push(format!("campaign {k}: replay failed: {e}")),
            }
        }
        replay_s = Some(total);
    }

    let restart_s = match (w, outs.first()) {
        (Workload::CtrlSnapshot, Some(o)) => Some(check_restart(o, &opts, full, tr, &mut errors)),
        _ => None,
    };

    // One campaign is identified by its own hashes, several by their fold.
    let fold = |xs: Vec<u64>| match xs.as_slice() {
        [x] => *x,
        _ => combine(&xs),
    };
    let id = Identity {
        fingerprint: fold(outs.iter().map(|o| o.state.fingerprint()).collect()),
        journal_hash: fold(outs.iter().map(|o| o.state.journal().hash()).collect()),
        snapshots: outs.iter().map(|o| o.snapshots.len()).sum(),
    };
    Ok(Rep {
        wall_s,
        events: outs.iter().map(|o| o.events_executed).sum(),
        replay_s,
        restart_s,
        id,
        errors,
        out: Outputs::Ctrl(outs),
    })
}

/// The ¾-point snapshot of a campaign, if it captured any.
pub fn three_quarter_snapshot(o: &CampaignOutcome) -> Option<&CtrlSnapshot> {
    o.snapshots.get(o.snapshots.len() * 3 / 4)
}

/// Crash-restart checks on the ¾-point snapshot: the text form round
/// trips, delta replay and (when `full`) a resumed campaign both land on
/// the live run. Returns the restart latency: parse plus delta replay.
fn check_restart(
    o: &CampaignOutcome,
    opts: &CampaignOptions,
    full: bool,
    tr: &mut Tracer,
    errors: &mut Vec<String>,
) -> f64 {
    let Some(snap) = three_quarter_snapshot(o) else {
        errors.push("no snapshot was captured".to_string());
        return 0.0;
    };
    let text = tr.span("fabricd::CtrlSnapshot::to_text", |_| snap.to_text());
    let (parsed, parse_s) = timed(|| {
        tr.span("fabricd::CtrlSnapshot::parse", |_| {
            CtrlSnapshot::parse(&text)
        })
    });
    let parsed = match parsed {
        Ok(p) if p == *snap => p,
        Ok(_) => {
            errors.push("parse(to_text(s)) != s".to_string());
            return parse_s;
        }
        Err(e) => {
            errors.push(format!("snapshot parse failed: {e}"));
            return parse_s;
        }
    };
    let (tail, tail_s) = timed(|| {
        tr.span("fabricd::replay_from", |_| {
            replay_from(&parsed.fabric, o.state.journal())
        })
    });
    match tail {
        Ok(st) if st.fingerprint() == o.state.fingerprint() => {}
        Ok(_) => errors.push("replay_from fingerprint differs from live".to_string()),
        Err(e) => errors.push(format!("replay_from failed: {e}")),
    }
    if !full {
        return parse_s + tail_s;
    }
    match tr.span("fabricd::resume_campaign", |_| {
        resume_campaign(&parsed, opts)
    }) {
        Ok(r)
            if r.state.fingerprint() == o.state.fingerprint()
                && r.state.journal().hash() == o.state.journal().hash() => {}
        Ok(_) => errors.push("resume_campaign differs from live".to_string()),
        Err(e) => errors.push(format!("resume_campaign failed: {e}")),
    }
    parse_s + tail_s
}

/// Run the pod with `workers` threads.
pub fn run_pod(seed: u64, scale: &Scale, workers: usize) -> Result<PodOutcome, String> {
    pod::run_pod_with(&pod_config(seed, scale), workers, &PodOptions::default())
}

fn pod_rep(seed: u64, scale: &Scale, tr: &mut Tracer) -> Result<Rep, String> {
    let (out, wall_s) =
        timed(|| tr.span("pod::run_pod_with", |_| run_pod(seed, scale, POD_WORKERS)));
    let out = out?;
    Ok(Rep {
        wall_s,
        events: out.events,
        replay_s: None,
        restart_s: None,
        id: Identity {
            fingerprint: out.fingerprint,
            journal_hash: out.journal.hash(),
            snapshots: out.snapshots.len(),
        },
        errors: Vec::new(),
        out: Outputs::Pod(Box::new(out)),
    })
}
