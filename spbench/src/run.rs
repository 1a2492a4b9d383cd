//! One benchmark run: set-up timing, an untimed warm-up rep, timed reps,
//! optionally a traced rep with its probes, verification of every rep,
//! and the report the command line prints.

use crate::json::quote;
use crate::probe::{per_layer, sim_stats};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{rep, setup, Identity, Rep, Scale, Workload};
use crate::{Metric, END_TO_END};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Timed reps run until both this many have run and `seconds` have passed.
pub const MIN_REPS: usize = 3;
/// Set-up calls whose median is `setup_s`.
pub const SETUP_CALLS: usize = 21;

/// An expected output: a run of `workload` at `seed` must hash to `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the pin holds for.
    pub seed: u64,
    /// The pinned identity.
    pub id: Identity,
}

/// The outputs of every workload at seed 7, full scale. Any change to a
/// simulated decision changes a hash here, so simulated statistics are
/// held exactly, not within a bound.
pub const PINS: &[Pin] = &[
    pin(
        "ctrl-steady",
        0x0825_00e1_bd68_a96a,
        0x903a_b1ea_5239_f98c,
        0,
    ),
    pin("ctrl-cold", 0xe5d5_cd6e_35c6_43f1, 0xc707_39ac_06e0_b8d9, 0),
    pin(
        "ctrl-snapshot",
        0x19fc_ebfd_f268_ad45,
        0xb907_745c_6b98_9a36,
        531,
    ),
    pin("pod-4096", 0x2b64_2945_5bf5_20c1, 0x0534_9613_8dca_7458, 0),
];

const fn pin(workload: &'static str, fingerprint: u64, journal_hash: u64, snapshots: usize) -> Pin {
    Pin {
        workload,
        seed: 7,
        id: Identity {
            fingerprint,
            journal_hash,
            snapshots,
        },
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options<'a> {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Timed reps continue until this many host seconds have passed.
    pub seconds: f64,
    /// Record a traced rep, run the probes, and write the spans here.
    pub trace: Option<PathBuf>,
    /// Input sizes.
    pub scale: &'a Scale,
    /// Expected outputs; those matching the workload and seed are checked.
    pub pins: &'a [Pin],
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Reps run, each with its verification: warm-up, timed, traced.
    pub attempted: u64,
    /// Reps whose verification failed (or whose main call did).
    pub failed: u64,
    /// What failed, one line each.
    pub errors: Vec<String>,
    /// What the result line carries: the end-to-end metrics of an untraced
    /// run, or the per-layer metrics of a traced one.
    pub metrics: Vec<Metric>,
    /// Printed beside them, not carried: workload-specific timings,
    /// simulated statistics, the failure ratio and the rep count.
    pub extra: Vec<Metric>,
    /// The warm-up rep's output identity.
    pub id: Option<Identity>,
}

impl Report {
    /// Process exit code: non-zero when any rep failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed > 0 || self.attempted == 0)
    }

    /// `name value unit` lines, then the result as one JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(id) = self.id {
            let _ = writeln!(out, "# {id}");
        }
        for e in &self.errors {
            let _ = writeln!(out, "# FAILED {e}");
        }
        for m in self.extra.iter().chain(&self.metrics) {
            let _ = writeln!(out, "{} {} {}", m.name, m.value, m.unit);
        }
        out.push_str(&self.result_json());
        out.push('\n');
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    m.value,
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.exit_code() == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Tallies reps and their verification.
struct Tally<'a> {
    reference: Option<Identity>,
    pin: Option<&'a Pin>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally<'_> {
    /// Count one rep and verify it: its own checks, the pin, and equality
    /// with the warm-up rep (the first one counted).
    fn count(&mut self, label: &str, r: &Result<Rep, String>, extra: Vec<String>) {
        self.attempted += 1;
        let mut errs = extra;
        match r {
            Ok(r) => {
                errs.extend(r.errors.iter().cloned());
                if let Some(pin) = self.pin.filter(|p| p.id != r.id) {
                    errs.push(format!(
                        "outputs ({}) differ from pinned ({})",
                        r.id, pin.id
                    ));
                }
                match self.reference {
                    Some(id) if id != r.id => {
                        errs.push(format!("outputs ({}) differ from warm-up ({id})", r.id))
                    }
                    Some(_) => {}
                    None => self.reference = Some(r.id),
                }
            }
            Err(e) => errs.push(e.clone()),
        }
        if !errs.is_empty() {
            self.failed += 1;
            self.errors
                .extend(errs.into_iter().map(|e| format!("{label}: {e}")));
        }
    }
}

/// Run the benchmark once.
pub fn run(opts: &Options) -> Report {
    let w = opts.workload;
    let mut tr = match opts.trace {
        Some(_) => Tracer::on(w.name()),
        None => Tracer::off(),
    };
    let mut tally = Tally {
        reference: None,
        pin: opts
            .pins
            .iter()
            .find(|p| p.workload == w.name() && p.seed == opts.seed),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };

    let mut setups = Vec::with_capacity(SETUP_CALLS);
    for i in 0..SETUP_CALLS {
        tr.rep = format!("setup-{i}");
        match setup(w, opts.seed, opts.scale, &mut tr) {
            Ok(s) => setups.push(s),
            Err(e) => {
                tally.count("setup", &Err(e), Vec::new());
                break;
            }
        }
    }

    let mut off = Tracer::off();
    let warm = rep(w, opts.seed, opts.scale, true, &mut off);
    // Memory is read here, after set-up and one rep in a fresh process:
    // later reps of the threaded pod grow the allocator's per-thread arenas
    // by a different amount each run, which is noise, not a cost of a run.
    let rss = peak_rss_mb();
    let rss_error = rss.is_none().then(|| "VmHWM unavailable".to_string());
    tally.count("warm-up", &warm, rss_error.into_iter().collect());
    let (events, sim) = match &warm {
        Ok(r) => (r.events, Some(sim_stats(&r.out))),
        Err(_) => (0, None),
    };
    drop(warm);

    let (mut walls, mut replays, mut restarts) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < opts.seconds {
        let r = rep(w, opts.seed, opts.scale, false, &mut off);
        tally.count(&format!("rep {}", walls.len()), &r, Vec::new());
        match r {
            Ok(r) => {
                walls.push(r.wall_s);
                replays.extend(r.replay_s);
                restarts.extend(r.restart_s);
            }
            // Without a main call there is nothing to time; stop.
            Err(_) => break,
        }
    }
    let wall_s = median(&walls);

    let mut per_layer_metrics = None;
    if let Some(path) = &opts.trace {
        tr.rep = "traced".to_string();
        let r = rep(w, opts.seed, opts.scale, true, &mut tr);
        let mut probe_errors = Vec::new();
        if let Ok(r) = &r {
            tr.rep = "probe".to_string();
            let (m, errs) = per_layer(w, opts.seed, opts.scale, r, wall_s, &mut tr);
            per_layer_metrics = Some(m);
            probe_errors = errs;
        }
        if let Err(e) = std::fs::write(path, tr.to_json(opts.seed)) {
            probe_errors.push(format!("writing {}: {e}", path.display()));
        }
        tally.count("traced", &r, probe_errors);
    }

    let end_to_end = [
        wall_s,
        if wall_s > 0.0 {
            events as f64 / wall_s
        } else {
            0.0
        },
        median(&setups),
        rss.unwrap_or(0.0),
    ];
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .zip(end_to_end)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();

    let mut extra = vec![Metric {
        name: "reps",
        value: walls.len() as f64,
        unit: "count",
    }];
    if !replays.is_empty() {
        extra.push(Metric {
            name: "replay_s",
            value: median(&replays),
            unit: "s",
        });
    }
    if !restarts.is_empty() {
        extra.push(Metric {
            name: "restart_s",
            value: median(&restarts),
            unit: "s",
        });
    }
    if let Some((accept, wait)) = sim {
        extra.push(Metric {
            name: "sim.accept_ratio",
            value: accept,
            unit: "ratio",
        });
        extra.push(Metric {
            name: "sim.wait_p99_s",
            value: wait,
            unit: "s",
        });
    }
    extra.push(Metric {
        name: "fail_ratio",
        value: tally.failed as f64 / tally.attempted.max(1) as f64,
        unit: "ratio",
    });
    extra.push(Metric {
        name: "nproc",
        value: std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
        unit: "count",
    });

    let metrics = match per_layer_metrics {
        Some(m) => {
            extra.extend(end_to_end);
            m
        }
        None => end_to_end,
    };
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics,
        extra,
        id: tally.reference,
    }
}
