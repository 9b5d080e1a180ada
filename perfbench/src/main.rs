//! wfbb benchmark: times calls into the workspace's public library
//! functions for one workload and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|campaign|plan|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Traced runs also write their spans to `perfbench/out/`. See
//! `perfbench/README.md` for the workloads and the metrics.

mod campaign;
mod harness;
mod paper;
mod seed;
mod serve;
mod trace;

use harness::Args;

const USAGE: &str =
    "usage: wfbb-perfbench --workload <paper|campaign|plan|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper" => paper::run(&args),
        "campaign" => campaign::run(&args, campaign::Kind::Campaign),
        "plan" => campaign::run(&args, campaign::Kind::Plan),
        "serve" => serve::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for (name, value) in &outcome.metrics {
        eprintln!("{name:>34} = {value}");
    }
    eprintln!(
        "correct={} attempted={} failed={}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    println!("{}", harness::result_json(&outcome, args.trace));
}
