//! `perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//!            [--comfortd PATH] [--work-dir DIR] [--rustc VERSION] [--commit ID]`
//!
//! Runs one workload and prints its metrics; the last line of standard
//! output is the JSON result. Exits 1 if any report fails its check and 2
//! on a usage error. `run.sh` in this directory builds the program and
//! `comfortd` from source and passes the build-side arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::metrics::result_line;
use perfbench::workload::{Workload, DEFAULT_SEED};
use perfbench::Options;

const USAGE: &str = "usage: perfbench --workload oneshot|steady|service-threads|service-fleet \
                     [--seed N] [--seconds N] [--trace 0|1] [--comfortd PATH] [--work-dir DIR] \
                     [--rustc VERSION] [--commit ID]";

struct Args {
    opts: Options,
    rustc: String,
    commit: String,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::Oneshot,
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(12),
        trace: false,
        comfortd: PathBuf::from(".bench_build/release/comfortd"),
        work_dir: PathBuf::from(".bench_work"),
    };
    let (mut rustc, mut commit) = ("unknown".to_string(), "unknown".to_string());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = Duration::from_secs(number()?.max(1)),
            "--trace" => opts.trace = number()? != 0,
            "--comfortd" => opts.comfortd = PathBuf::from(value),
            "--work-dir" => opts.work_dir = PathBuf::from(value),
            "--rustc" => rustc = value.clone(),
            "--commit" => commit = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(Args { opts, rustc, commit })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { opts, rustc, commit } = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match perfbench::run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# workload {} seed {} seconds {} trace {} | nproc {} width {} | {rustc} | commit {commit}",
        opts.workload.name(),
        opts.seed,
        opts.seconds.as_secs(),
        u8::from(opts.trace),
        outcome.width,
        outcome.width,
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    let attempted = outcome.attempted.max(1);
    let failed = (outcome.failures.len() as u64).min(attempted);
    println!(
        "# failed_frac {} ({failed} of {attempted} campaigns)",
        failed as f64 / attempted as f64
    );
    for m in &outcome.metrics {
        println!("# {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for failure in &outcome.failures {
        println!("# FAILED {failure}");
        eprintln!("perfbench: {failure}");
    }
    println!("{}", result_line(outcome.failures.is_empty(), attempted, failed, &outcome.metrics));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
