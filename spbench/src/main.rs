//! `spbench run --workload <name> --seed <n> [--seconds <s>] [--trace <0|1|file>]`
//! `spbench calibrate --workload <name> [--seed <first>] [--seconds <s>]`
//!
//! `run` prints every metric as `name value unit` and, as its last line,
//! one JSON object; it exits non-zero when any output fails verification.
//! `--trace 1` writes the spans to `spbench-trace-<workload>.json` in the
//! working directory, `--trace <file>` to that file.

use spbench::calibrate::calibrate;
use spbench::run::{run, Options, PINS};
use spbench::workload::{Workload, FULL};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: spbench run --workload <name> --seed <n> [--seconds <s>] \
                     [--trace <0|1|file>]\n       spbench calibrate --workload <name> \
                     [--seed <first>] [--seconds <s>]\nworkloads: ctrl-steady ctrl-cold \
                     ctrl-snapshot pod-4096";

/// Parsed `--key value` flags.
struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 0.0;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => trace = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace = match trace.as_deref() {
        None | Some("0") => None,
        Some("1") => Some(PathBuf::from(format!(
            "spbench-trace-{}.json",
            workload.name()
        ))),
        Some(path) => Some(PathBuf::from(path)),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cmd.as_str() {
        "run" => {
            let Some(seed) = args.seed else {
                eprintln!("spbench: --seed is required\n{USAGE}");
                return ExitCode::from(2);
            };
            let report = run(&Options {
                workload: args.workload,
                seed,
                seconds: args.seconds,
                trace: args.trace,
                scale: &FULL,
                pins: PINS,
            });
            print!("{}", report.render());
            for e in &report.errors {
                eprintln!("spbench: FAILED {e}");
            }
            ExitCode::from(report.exit_code() as u8)
        }
        "calibrate" => {
            let exe = match std::env::current_exe() {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("spbench: cannot locate own executable: {e}");
                    return ExitCode::from(2);
                }
            };
            match calibrate(&exe, args.workload, args.seed.unwrap_or(1), args.seconds) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("spbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
