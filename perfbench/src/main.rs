//! Command line: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints the machine block and a table of every metric with its unit and
//! sample count, then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Exits 2 on bad arguments and 1 if the run could not complete.

use perfbench::{run, Config, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <green500|store-query|serve> --seed <u64> \
                     --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: Sizes::FULL,
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::from(1);
        }
    };
    println!("machine {}", report.machine.to_json());
    println!(
        "host.calib_us {:.3} (fixed loop; moves with the host, not the code)",
        report.calib_us
    );
    println!("{:<34} {:>14} {:<6} {:>9}", "metric", "value", "unit", "samples");
    for m in &report.metrics {
        println!("{:<34} {:>14.6} {:<6} {:>9}", m.name, m.value, m.unit, m.samples);
    }
    for failure in &report.tally.failures {
        println!("FAILED: {failure}");
    }
    if let Some(path) = &report.chrome_trace {
        println!("chrome trace: {}", path.display());
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, json_number(m.value), m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

/// JSON has no NaN or infinity; a metric with no samples prints `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
