//! Command-line entry point: runs one workload and prints every metric by
//! name with its unit, then one JSON result object as the last line.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload paper_tcp --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics and writes the run's spans to
//! `e2ebench/traces/<workload>-seed<seed>.jsonl`. A correctness
//! violation or bad argument exits non-zero without a result line.

use std::path::PathBuf;
use std::process::ExitCode;

use datc_e2ebench::{run, workload, workloads, Metric};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
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
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        eprintln!(
            "e2ebench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let trace_path = args.trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", w.name, args.seed))
    });
    let outcome = match run(
        w,
        args.seed,
        args.seconds,
        args.trace,
        trace_path.as_deref(),
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {}: correctness check failed: {e}", w.name);
            return ExitCode::from(1);
        }
    };
    let metrics: &[Metric] = match &outcome.per_layer {
        Some(layers) => layers,
        None => &outcome.end_to_end,
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("e2ebench: {}: metric {} is {}", w.name, m.name, m.value);
        return ExitCode::from(1);
    }
    println!(
        "{} seed {}: {} sessions attempted, {} failed",
        w.name, args.seed, outcome.attempted, outcome.failed
    );
    for m in metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &trace_path {
        println!("  spans written to {}", path.display());
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
