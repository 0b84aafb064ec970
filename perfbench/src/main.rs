//! `perfbench` — run one workload (or all of them) and print the result.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is the result object (`correct`,
//! `attempted`, `failed`, `metrics`); the line before it stamps the host
//! and the run's set-up. With `--workload all` every workload runs in
//! turn and a table of every metric follows. The exit code is 1 when any
//! correctness gate fails and 2 on bad arguments or a failed set-up.

use ldp_perfbench::report::{result_line, setup_line, HostStamp};
use ldp_perfbench::{run, Options, Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <lba-grr-taxi-durable|lba-grr-taxi-2sess|all> \
--seed <u64> --seconds <s> --trace <0|1> [--out <dir>]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?]
                });
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let host = HostStamp::capture();
    let mut all_correct = true;
    let mut results: Vec<(Workload, Outcome)> = Vec::new();
    for &workload in &args.workloads {
        let opts = Options::new(
            workload,
            args.seed,
            args.seconds,
            args.trace,
            args.out.clone(),
        );
        let outcome = match run(&opts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        };
        for m in &outcome.mismatches {
            eprintln!("gate: {}: {m}", workload.name());
        }
        all_correct &= outcome.correct;
        println!(
            "{}",
            setup_line(
                &host,
                workload,
                args.seed,
                args.seconds,
                args.trace,
                &outcome
            )
        );
        results.push((workload, outcome));
    }
    if results.len() > 1 {
        for (workload, outcome) in &results {
            println!(
                "# {} correct={} attempted={} failed={}",
                workload.name(),
                outcome.correct,
                outcome.attempted,
                outcome.failed
            );
            for m in &outcome.metrics {
                println!("#   {:<32} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
    }
    for (_, outcome) in &results {
        println!("{}", result_line(outcome));
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
