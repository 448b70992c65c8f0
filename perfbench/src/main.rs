//! bgkanon's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_durable --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `serve_durable`, `batch_1m`, `fleet_budget` (see
//! `BENCHMARK.json` and `perfbench/METRICS.md`). `--trace 0` measures the
//! end-to-end metrics; `--trace 1` replays a fixed script with every layer
//! call timed as a span and reports the per-layer metrics. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it is the full report. A
//! correctness mismatch exits with code 1, bad arguments with code 2.

mod batch;
mod common;
mod fleet;
mod layers;
mod report;
mod serve;
#[cfg(test)]
mod tests;
mod trace;

use common::{Outcome, RunArgs};

const USAGE: &str = "usage: perfbench --workload serve_durable|batch_1m|fleet_budget \
                     --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => run.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, run))
}

fn dispatch(workload: &str, args: &RunArgs) -> Option<Outcome> {
    Some(match (workload, args.trace) {
        ("serve_durable", false) => serve::run(args),
        ("serve_durable", true) => serve::run_traced(args),
        ("batch_1m", false) => batch::run(args),
        ("batch_1m", true) => batch::run_traced(args),
        ("fleet_budget", false) => fleet::run(args),
        ("fleet_budget", true) => fleet::run_traced(args),
        _ => return None,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(outcome) = dispatch(&workload, &args) else {
        eprintln!("error: unknown workload `{workload}`\n{USAGE}");
        std::process::exit(2);
    };
    print!("{}", outcome.report.text());
    println!(
        "{{\"workload\": \"{workload}\", \"trace\": {}, \"report\": {}}}",
        args.trace,
        outcome.report.json()
    );
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if !outcome.correct {
        eprintln!("error: {workload} produced output that differs from its reference");
        std::process::exit(1);
    }
}
