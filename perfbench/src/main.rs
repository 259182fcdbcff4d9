//! Runs one benchmark workload and prints its metrics.
//!
//! Usage: `perfbench --workload <scale|swarm|coded|exact> [--seed <u64>]
//! [--seconds <n>] [--trace <0|1>]`
//!
//! Prints a host fingerprint, every metric with its unit, the ops
//! attempted and failed, and, as the last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Failed checks are listed on standard error.

use perfbench::coded::Coded;
use perfbench::exact::Exact;
use perfbench::host::Host;
use perfbench::metrics::PER_LAYER;
use perfbench::run::{result_json, run, Options, Report};
use perfbench::scale::Scale;
use perfbench::swarm::Swarm;
use perfbench::{Size, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <scale|swarm|coded|exact> [--seed <u64>] \
                     [--seconds <n>] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("invalid seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("invalid trace `{other}` (expected 0 or 1)")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn print_report(workload: &str, report: &Report) {
    for (name, value, unit) in &report.metrics {
        let target = PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .map(|m| format!("  [{} -> {}]", m.workload, m.moves))
            .unwrap_or_default();
        println!("  {name:<26} {value:>16.6} {unit:<9}{target}");
    }
    let tally = &report.tally;
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "  {:<26} {failed_ratio:>16.6} ratio     ({} of {} ops failed)",
        "failed_ratio", tally.failed, tally.attempted
    );
    if let Some((total, attributed)) = &report.attribution {
        let parts: Vec<String> = attributed
            .iter()
            .map(|(name, secs)| format!("{name} {secs:.4}"))
            .collect();
        println!(
            "{workload}: traced total {total:.4} s = {} + unattributed_s",
            parts.join(" + ")
        );
    }
    for failure in &tally.failures {
        eprintln!("FAILED {failure}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: Size::Full,
        calibration_s: host.calibration_s,
    };
    let report = match args.workload.as_str() {
        "scale" => run::<Scale>(&opts),
        "swarm" => run::<Swarm>(&opts),
        "coded" => run::<Coded>(&opts),
        "exact" => run::<Exact>(&opts),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    let passes: Vec<String> = report.passes.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} untraced passes (s): {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        passes.join(" ")
    );
    println!("host {}", host.to_json());
    print_report(&args.workload, &report);
    println!("{}", result_json(&report));
}
