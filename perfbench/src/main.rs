//! Benchmark command line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <net_bursty|cp_churn|fleet_tenants> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints provenance, every metric with its unit, the simulated-output
//! fingerprint and any failure as readable lines, then the result as
//! one JSON object on the last line.

use std::path::Path;
use std::process::ExitCode;

use taichi_perfbench::{
    expected_fingerprint, fleet, provenance, result_json, run, Plan, Scale, Workload, DEFAULT_SEED,
    END_TO_END, PER_LAYER,
};

const USAGE: &str = "usage: perfbench --workload <net_bursty|cp_churn|fleet_tenants> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Plan, String> {
    let mut workload = None;
    let mut plan = Plan {
        workload: Workload::NetBursty,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => plan.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                plan.seconds = value.parse().map_err(|_| bad())?;
                if !(plan.seconds.is_finite() && plan.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                plan.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    plan.workload = workload.ok_or("--workload is required")?;
    Ok(plan)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let overrides = provenance::taichi_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "refusing to report timings: {} override the default program; unset them",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }

    let (cores, model) = provenance::cpu();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    println!(
        "workload {} | seed {} | trace {} | {} s | workers {} | cores {cores} | cpu {model} | commit {} | TAICHI_* none",
        plan.workload.name(),
        plan.seed,
        u8::from(plan.trace),
        plan.seconds,
        fleet::workers(),
        provenance::commit(&root),
    );

    let outcome = run(&plan);
    let catalog = if plan.trace { PER_LAYER } else { END_TO_END };
    for def in catalog {
        if let Some(v) = outcome.metrics.get(def.name) {
            println!("{:<40} {v:>20.6} {}", def.name, def.unit);
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "ops attempted {} failed {} | ops_failed_share {:.4}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let fp = outcome.fingerprint.unwrap_or(0);
    match expected_fingerprint(&plan) {
        Some(want) if want == fp => println!("fingerprint {fp:#018x} matches the recorded one"),
        Some(want) => println!("fingerprint {fp:#018x} DIFFERS from the recorded {want:#018x}"),
        None => println!("fingerprint {fp:#018x} (no recorded value for this seed)"),
    }

    match result_json(&outcome, plan.trace) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("no result: {e}");
            ExitCode::FAILURE
        }
    }
}
