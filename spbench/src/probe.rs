//! Per-layer metrics of the traced run. Counts come from the outputs the
//! layers already report; host times come from spans around public calls
//! and from probes, which call one layer's public function on inputs taken
//! from the workload's own outputs and time every call.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    self, campaign_options, ctrl_configs, three_quarter_snapshot, timed, Outputs, Rep, Scale,
    Workload, RACKS,
};
use crate::{Metric, PER_LAYER};
use fabricd::{
    program_planned, program_with, replay, ring_plan, run_campaign, CampaignOptions, FabricState,
    Journal, JournalEntry, PlanEngine,
};
use lightpath::{Fabric, FabricCircuit, Path, TileCoord, WaferId};
use pod::{CapacityView, PodLayout, PolicyKind};
use resilience::PhotonicRack;
use route::{SearchOptions, Searcher};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;
use topo::{Shape3, Slice, SliceId};
use workloads::{generate, ArrivalParams};

/// Trace shapes the placement probes place, and slices the plan probes
/// program: enough that every probe takes at least 1 000 samples.
const PROBE_JOBS: usize = 2_000;
/// Endpoint pairs of the search probe, and how often each is searched.
const SEARCH_PAIRS: usize = 64;
const SEARCH_ROUNDS: usize = 100;
/// Samples of the state-fingerprint probe.
const FINGERPRINT_SAMPLES: usize = 1_000;
/// Hashes of the whole journal set in the journal-hash probe.
const HASH_SAMPLES: usize = 21;

/// Named values, checked against [`PER_LAYER`] as they are set.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, v);
    }

    /// `<base>.p50`, `<base>.p99` and `<base>.n` of `samples`.
    fn dist(&mut self, names: [&'static str; 3], samples: &[f64]) {
        self.set(names[0], percentile(samples, 0.50));
        self.set(names[1], percentile(samples, 0.99));
        self.set(names[2], samples.len() as f64);
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Seconds spent in calls named `name` inside the traced rep (the only
/// rep a recording tracer sees).
fn in_traced_rep(tr: &Tracer, name: &str) -> f64 {
    tr.sums_within("rep", name).last().copied().unwrap_or(0.0)
}

/// Nanoseconds since `t`.
fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Admitted fraction and p99 admission wait (simulated seconds) of a run.
pub fn sim_stats(out: &Outputs) -> (f64, f64) {
    let m = out.metrics();
    let accept = ratio(
        m.counter("jobs.admitted") as f64,
        m.counter("jobs.arrived") as f64,
    );
    (accept, m.admission_wait().quantile(0.99).unwrap_or(0.0))
}

/// Compute every per-layer metric of a traced run. `tr` holds the spans
/// of the traced setup calls and of `rep`, the traced rep; the probes add
/// their own. `untraced_wall_s` is the median of the untraced reps.
/// Returns the metrics in [`PER_LAYER`] order and any verification
/// failures the probes met.
pub fn per_layer(
    w: Workload,
    seed: u64,
    scale: &Scale,
    rep: &Rep,
    untraced_wall_s: f64,
    tr: &mut Tracer,
) -> (Vec<Metric>, Vec<String>) {
    let mut v = Values::default();
    let mut errors = Vec::new();

    let (accept, wait_p99) = sim_stats(&rep.out);
    v.set("sim.accept_ratio", accept);
    v.set("sim.wait_p99_s", wait_p99);
    v.set(
        "workloads.generate_s",
        median(&tr.sums_within("setup", "workloads::generate")),
    );
    let fabric_new = match w {
        Workload::Pod4096 => "pod::ShardDomain::new",
        _ => "fabricd::FabricState::new",
    };
    v.set(
        "fabricd.state_new_us",
        median(&tr.sums_within("setup", fabric_new)) * 1e6,
    );
    v.set("trace.overhead_ratio", ratio(rep.wall_s, untraced_wall_s));

    let route = rep.out.route();
    let (hits, misses) = (route.plan.hits as f64, route.plan.misses as f64);
    v.set("route.plan_hit_ratio", ratio(hits, hits + misses));
    v.set("route.plan_misses", misses);
    v.set("route.plan_fallbacks", route.plan.fallbacks as f64);
    v.set("route.stamped_circuits", route.plan.stamped_circuits as f64);
    let (hits, misses) = (route.cross.hits as f64, route.cross.misses as f64);
    v.set("route.cross_hit_ratio", ratio(hits, hits + misses));
    v.set("route.cross_misses", misses);
    v.set("route.cross_fallbacks", route.cross.fallbacks as f64);

    // Every workload draws shapes with the default skew; the shape sequence
    // of a seed does not depend on the inter-arrival time.
    let shapes: Vec<Shape3> = generate(PROBE_JOBS, &ArrivalParams::default(), seed)
        .iter()
        .map(|j| j.shape)
        .collect();
    let place = tr.span("probe:topo.place", |_| place_probe(&shapes));
    v.dist(
        ["topo.place_ns.p50", "topo.place_ns.p99", "topo.place_ns.n"],
        &place,
    );

    let journals = rep.out.journals();
    let layout = PodLayout::new(pod::POD_CHIPS).map_err(|e| e.to_string());
    let slices = match (&rep.out, &layout) {
        (Outputs::Pod(_), Ok(layout)) => {
            admitted_slices(&journals, |c| layout.partition().to_local(c).1)
        }
        (Outputs::Pod(_), Err(e)) => {
            errors.push(format!("pod layout: {e}"));
            Vec::new()
        }
        (Outputs::Ctrl(_), _) => admitted_slices(&journals, |c| c),
    };
    match tr.span("probe:route.stamp", |_| program_probe(&slices, true)) {
        Ok(s) => v.dist(
            [
                "route.stamp_us.p50",
                "route.stamp_us.p99",
                "route.stamp_us.n",
            ],
            &s,
        ),
        Err(e) => errors.push(format!("stamp probe: {e}")),
    }
    match tr.span("probe:route.scratch", |_| program_probe(&slices, false)) {
        Ok(s) => v.dist(
            [
                "route.scratch_us.p50",
                "route.scratch_us.p99",
                "route.scratch_us.n",
            ],
            &s,
        ),
        Err(e) => errors.push(format!("scratch probe: {e}")),
    }

    let records: usize = journals.iter().map(|j| j.len()).sum();
    let hash_s = tr.span("probe:fabricd.journal_hash", |_| {
        let mut samples = Vec::with_capacity(HASH_SAMPLES);
        for _ in 0..HASH_SAMPLES {
            let t = Instant::now();
            for j in &journals {
                black_box(j.hash());
            }
            samples.push(ns(t));
        }
        median(&samples)
    });
    v.set(
        "fabricd.journal_hash_ns_per_record",
        ratio(hash_s, records as f64),
    );

    match &rep.out {
        Outputs::Ctrl(outs) => {
            let m = rep.out.metrics();
            v.set("fabricd.events", rep.events as f64);
            v.set("fabricd.journal_records", records as f64);
            v.set(
                "fabricd.records_per_event",
                ratio(records as f64, rep.events as f64),
            );
            v.set("fabricd.admitted", m.counter("jobs.admitted") as f64);
            v.set("fabricd.queued", m.counter("jobs.queued") as f64);
            v.set(
                "fabricd.denied",
                (m.counter("jobs.denied.timeout") + m.counter("jobs.denied.program")) as f64,
            );
            let campaign_s = in_traced_rep(tr, "fabricd::run_campaign");
            v.set("fabricd.campaign_s", campaign_s);
            v.set(
                "fabricd.replay_ns_per_record",
                ratio(in_traced_rep(tr, "fabricd::replay") * 1e9, records as f64),
            );

            // Mid-run state: the first campaign's journal, cut in half
            // just before an admission, replayed.
            match outs.first().map(|o| mid_run_state(o.state.journal())) {
                Some(Ok(st)) => {
                    let (search, paths) = tr.span("probe:route.search", |_| search_probe(&st));
                    v.dist(
                        [
                            "route.search_ns.p50",
                            "route.search_ns.p99",
                            "route.search_ns.n",
                        ],
                        &search,
                    );
                    let budget = tr.span("probe:phy.link_budget", |_| budget_probe(&st, &paths));
                    v.dist(
                        [
                            "phy.link_budget_ns.p50",
                            "phy.link_budget_ns.p99",
                            "phy.link_budget_ns.n",
                        ],
                        &budget,
                    );
                    let fp = tr.span("probe:fabricd.fingerprint", |_| {
                        (0..FINGERPRINT_SAMPLES)
                            .map(|_| {
                                let t = Instant::now();
                                black_box(st.fingerprint());
                                ns(t) / 1e3
                            })
                            .collect::<Vec<f64>>()
                    });
                    v.set("fabricd.fingerprint_us", median(&fp));
                }
                Some(Err(e)) => errors.push(format!("mid-run replay: {e}")),
                None => errors.push("no campaign to probe".to_string()),
            }

            if w == Workload::CtrlSnapshot {
                snapshot_metrics(&mut v, outs, campaign_s, seed, scale, tr, &mut errors);
            }
        }
        Outputs::Pod(out) => {
            v.set("pod.run_s", rep.wall_s);
            let (one, run_1w_s) = timed(|| {
                tr.span("pod::run_pod_with(1 worker)", |_| {
                    workload::run_pod(seed, scale, 1)
                })
            });
            match one {
                Ok(one)
                    if one.fingerprint == out.fingerprint
                        && one.journal.hash() == out.journal.hash() => {}
                Ok(_) => errors.push("pod run at 1 worker differs from 2 workers".to_string()),
                Err(e) => errors.push(format!("pod run at 1 worker failed: {e}")),
            }
            v.set("pod.run_1w_s", run_1w_s);
            v.set("pod.parallel_speedup", ratio(run_1w_s, rep.wall_s));
            v.set("pod.events", out.events as f64);
            v.set("pod.epochs", out.epochs as f64);
            v.set(
                "pod.events_per_epoch",
                ratio(out.events as f64, out.epochs as f64),
            );
            v.set("pod.delegations", out.delegations as f64);
            v.set("pod.journal_records", out.journal.len() as f64);
            v.set("pod.occ_mean", out.occ_mean);
            v.set("pod.frag_mean", out.frag_mean);
            if let Ok(layout) = &layout {
                let placed = tr.span("probe:pod.place", |_| pod_place_probe(layout, &shapes));
                v.dist(
                    ["pod.place_ns.p50", "pod.place_ns.p99", "pod.place_ns.n"],
                    &placed,
                );
            }
        }
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: v.0.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect();
    (metrics, errors)
}

/// Snapshot-layer metrics of `ctrl-snapshot`, read from the traced rep's
/// spans, plus the capture overhead: the traced campaign minus a traced
/// re-run of the same campaign without snapshots.
fn snapshot_metrics(
    v: &mut Values,
    outs: &[fabricd::CampaignOutcome],
    campaign_s: f64,
    seed: u64,
    scale: &Scale,
    tr: &mut Tracer,
    errors: &mut Vec<String>,
) {
    v.set(
        "fabricd.snapshot_text_s",
        in_traced_rep(tr, "fabricd::CtrlSnapshot::to_text"),
    );
    v.set(
        "fabricd.snapshot_parse_s",
        in_traced_rep(tr, "fabricd::CtrlSnapshot::parse"),
    );
    v.set(
        "fabricd.replay_tail_s",
        in_traced_rep(tr, "fabricd::replay_from"),
    );
    let Some(o) = outs.first() else {
        return;
    };
    v.set("fabricd.snapshots", o.snapshots.len() as f64);
    if let Some(snap) = three_quarter_snapshot(o) {
        v.set("fabricd.snapshot_bytes", snap.to_text().len() as f64);
        let tail = (o.state.journal().len() as u64).saturating_sub(snap.fabric.seq + 1);
        v.set("fabricd.replay_tail_records", tail as f64);
    }
    let plain = CampaignOptions {
        snapshot_every: None,
        ..campaign_options(Workload::CtrlSnapshot)
    };
    let cfgs = ctrl_configs(Workload::CtrlSnapshot, seed, scale);
    let (res, plain_s) = timed(|| {
        tr.span("fabricd::run_campaign(no snapshots)", |_| {
            cfgs.iter()
                .try_for_each(|cfg| run_campaign(cfg, &plain).map(|_| ()))
        })
    });
    match res {
        Ok(()) => v.set("fabricd.snapshot_overhead_s", campaign_s - plain_s),
        Err(e) => errors.push(format!("campaign without snapshots failed: {e}")),
    }
}

/// Nanoseconds of every `place_best_fit` call that places the trace's
/// shapes on an empty rack, evicting the oldest slice when none fits.
fn place_probe(shapes: &[Shape3]) -> Vec<f64> {
    let mut rack = PhotonicRack::new(RACKS);
    let occ = rack.cluster.occupancy_mut();
    let mut live: VecDeque<u32> = VecDeque::new();
    let mut samples = Vec::with_capacity(shapes.len() * 2);
    for (id, &shape) in (0u32..).zip(shapes) {
        loop {
            let t = Instant::now();
            let placed = occ.place_best_fit(id, shape);
            samples.push(ns(t));
            if placed.is_ok() {
                live.push_back(id);
                break;
            }
            match live.pop_front() {
                Some(old) => {
                    occ.remove(SliceId(old));
                }
                None => break,
            }
        }
    }
    samples
}

/// The slices of the first [`PROBE_JOBS`] `Admit` records, origins mapped
/// into one rack group's coordinates by `local`.
fn admitted_slices(
    journals: &[&Journal],
    local: impl Fn(topo::Coord3) -> topo::Coord3,
) -> Vec<Slice> {
    journals
        .iter()
        .flat_map(|j| j.records())
        .filter_map(|r| match r.entry {
            JournalEntry::Admit {
                job,
                origin,
                extent,
            } => Some(Slice::new(job, local(origin), extent)),
            _ => None,
        })
        .take(PROBE_JOBS)
        .collect()
}

/// Tear down what one plan established, newest first.
fn teardown(fabric: &mut Fabric, handles: Vec<FabricCircuit>) -> Result<(), String> {
    for h in handles.into_iter().rev() {
        fabric.teardown_handle(h).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Microseconds of planning and programming each slice's ring on an empty
/// rack, then tearing it down (not timed). `stamped` programs through one
/// [`PlanEngine`] warmed by a first untimed pass over the same slices;
/// otherwise through [`program_with`] and one scratch [`Searcher`].
fn program_probe(slices: &[Slice], stamped: bool) -> Result<Vec<f64>, String> {
    let mut rack = PhotonicRack::new(RACKS);
    let mut engine = PlanEngine::new();
    let mut searcher = Searcher::new();
    let mut samples = Vec::with_capacity(slices.len());
    for pass in 0..=usize::from(stamped) {
        samples.clear();
        for s in slices {
            let t = Instant::now();
            let plan = ring_plan(&rack.cluster, s, fabricd::CtrlConfig::default().lanes);
            let handles = if stamped {
                program_planned(&mut rack.fabric, &plan, &mut engine).map_err(|f| f.error)
            } else {
                program_with(&mut rack.fabric, &plan, &mut searcher)
            }
            .map_err(|e| format!("pass {pass}, slice {}: {e}", s.id.0))?;
            samples.push(ns(t) / 1e3);
            teardown(&mut rack.fabric, handles)?;
        }
    }
    Ok(samples)
}

/// Replay the first half of `journal`, cut just before an `Admit`.
fn mid_run_state(journal: &Journal) -> Result<FabricState, String> {
    let recs = journal.records();
    let cut = (recs.len() / 2..recs.len())
        .find(|&i| matches!(recs[i].entry, JournalEntry::Admit { .. }))
        .unwrap_or(recs.len());
    let mut half = Journal::new(*journal.header());
    for r in &recs[..cut] {
        half.push(r.at, r.entry.clone());
    }
    replay(&half).map_err(|e| e.to_string())
}

/// The probe's endpoint pairs: wafer `k mod wafers`, and the `k mod 12`th
/// ordered pair of distinct tiles of its 2×2 grid.
fn search_pairs(wafers: usize) -> Vec<(WaferId, TileCoord, TileCoord)> {
    let tiles = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(r, c)| TileCoord::new(r, c));
    let ordered: Vec<(TileCoord, TileCoord)> = tiles
        .iter()
        .flat_map(|&a| tiles.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
        .collect();
    (0..SEARCH_PAIRS)
        .map(|k| {
            let (a, b) = ordered[k % ordered.len()];
            (WaferId(k % wafers.max(1)), a, b)
        })
        .collect()
}

/// Nanoseconds of each `Searcher::find` over the endpoint pairs on the
/// state's wafers, and every path found.
fn search_probe(st: &FabricState) -> (Vec<f64>, Vec<(WaferId, Path)>) {
    let fabric = &st.rack().fabric;
    let pairs = search_pairs(fabric.wafer_count());
    let opts = SearchOptions::default();
    let mut searcher = Searcher::new();
    let mut samples = Vec::with_capacity(SEARCH_PAIRS * SEARCH_ROUNDS);
    let mut paths = Vec::with_capacity(SEARCH_PAIRS * SEARCH_ROUNDS);
    for _ in 0..SEARCH_ROUNDS {
        for &(w, a, b) in &pairs {
            let wafer = fabric.wafer(w);
            let t = Instant::now();
            let found = searcher.find(wafer, a, b, &opts);
            samples.push(ns(t));
            if let Some(p) = found {
                paths.push((w, p));
            }
        }
    }
    (samples, paths)
}

/// Nanoseconds of `Wafer::link_budget` on each path.
fn budget_probe(st: &FabricState, paths: &[(WaferId, Path)]) -> Vec<f64> {
    let fabric = &st.rack().fabric;
    paths
        .iter()
        .map(|(w, p)| {
            let wafer = fabric.wafer(*w);
            let t = Instant::now();
            black_box(wafer.link_budget(p));
            ns(t)
        })
        .collect()
}

/// Nanoseconds of the greedy policy's decision for each shape, against a
/// capacity view with every rack group half free.
fn pod_place_probe(layout: &PodLayout, shapes: &[Shape3]) -> Vec<f64> {
    let free = vec![layout.group_chips() / 2; layout.groups()];
    let view = CapacityView {
        free: &free,
        group_chips: layout.group_chips(),
        group_z: layout.partition().group_z(),
    };
    let policy = PolicyKind::Greedy.policy();
    shapes
        .iter()
        .map(|&shape| {
            let t = Instant::now();
            black_box(policy.place(&view, shape));
            ns(t)
        })
        .collect()
}
