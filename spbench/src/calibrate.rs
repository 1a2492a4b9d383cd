//! Noise calibration: two sets of ten untraced invocations of `spbench
//! run`, each pair on its own seed, alternating which set goes first. For
//! each end-to-end metric it prints each set's median and quartiles, the
//! quartile spread as a share of the median, and how far set B's median
//! sits from set A's in the worse direction — the two numbers the
//! benchmark's bounds are judged by.

use crate::json::Json;
use crate::stats::{median, quartiles};
use crate::workload::Workload;
use crate::BENCHMARK_JSON;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Invocations per set.
pub const RUNS: u64 = 10;

/// `(bound, lower_is_better)` of each end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let doc = Json::parse(BENCHMARK_JSON)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            let better = m.get("better").and_then(Json::as_str);
            match (name, bound, better) {
                (Some(n), Some(b), Some(better)) => Ok((n.to_string(), (b, better == "lower"))),
                _ => Err(format!("BENCHMARK.json: malformed metric {m:?}")),
            }
        })
        .collect()
}

/// Metric values of one invocation's result line.
fn invoke(exe: &Path, w: Workload, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let out = Command::new(exe)
        .args(["run", "--workload", w.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(last).map_err(|e| format!("seed {seed}: {e} in {last:?}"))?;
    if !out.status.success() || doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("seed {seed}: run failed:\n{stdout}"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("seed {seed}: no metrics"))?;
    metrics
        .iter()
        .map(|(name, m)| match m.get("value").and_then(Json::as_f64) {
            Some(v) => Ok((name.clone(), v)),
            None => Err(format!("seed {seed}: {name} has no value")),
        })
        .collect()
}

/// Run both sets for `w` on seeds `first_seed ..` and render the table.
pub fn calibrate(exe: &Path, w: Workload, first_seed: u64, seconds: f64) -> Result<String, String> {
    let bounds = bounds()?;
    let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
    for i in 0..RUNS {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for (name, v) in invoke(exe, w, first_seed + i, seconds)? {
                sets[set].entry(name).or_default().push(v);
            }
        }
    }
    let mut out = format!(
        "{} seeds {first_seed}..{} seconds {seconds}\n\
         {:<14} {:>3} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8}\n",
        w.name(),
        first_seed + RUNS - 1,
        "metric",
        "set",
        "median",
        "q1",
        "q3",
        "spread",
        "bound",
        "B_worse"
    );
    for (name, (bound, lower)) in &bounds {
        let stats: Vec<(f64, f64, f64)> = sets
            .iter()
            .map(|s| {
                let xs = s.get(name).map_or(&[][..], Vec::as_slice);
                let (q1, q3) = quartiles(xs).unwrap_or((0.0, 0.0));
                (median(xs), q1, q3)
            })
            .collect();
        let (ma, mb) = (stats[0].0, stats[1].0);
        let worse = if *lower { mb / ma - 1.0 } else { 1.0 - mb / ma };
        for (set, (m, q1, q3)) in ["A", "B"].iter().zip(&stats) {
            let _ = writeln!(
                out,
                "{name:<14} {set:>3} {m:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}% {:>7.1}% {:>7.2}%",
                (q3 - q1) / m * 100.0,
                bound * 100.0,
                worse * 100.0
            );
        }
    }
    Ok(out)
}
