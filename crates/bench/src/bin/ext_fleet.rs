//! Fleet-scale rack sweep: hundreds of machines advanced in
//! conservative time epochs with east-west traffic, diurnal/bursty
//! load, placement churn, and an optional rack-wide VM startup storm.
//!
//! Emits the rack-level per-epoch CSV (aggregate p50/p99, per-epoch
//! throughput) plus a one-row summary with the storm recovery time.
//! Everything is streamed: machines are drained and folded at every
//! epoch boundary, so peak memory is bounded by the worker count, not
//! the fleet size.
//!
//! Deterministic: same seed + same knobs produce a byte-identical CSV
//! for any `TAICHI_WORKERS` count and either fleet driver (see the
//! `fleet_identity` test).
//!
//! Knobs: `--machines N`, `--epochs N`, `--churn F`, `--storm E|off`,
//! `--sequential`, `--quick` (the CI smoke size: 64 machines x 8
//! epochs); the `TAICHI_FLEET_*` environment variables cover the same
//! settings (flags win).
//!
//! The emitted summary CSV carries memory diagnostics on top of the
//! identity-compared summary columns: slab/ring high-water marks,
//! resident bytes per machine, and the process peak RSS. Only the
//! per-epoch `ext_fleet.csv` is byte-compared across drivers/workers
//! in CI — RSS varies run to run by design.

use taichi_bench::{emit, peak_rss_kb, seed};
use taichi_fleet::{run, FleetConfig, FleetDriver};
use taichi_sim::par::default_workers;

fn usage() -> ! {
    eprintln!(
        "usage: ext_fleet [--machines N] [--epochs N] [--churn F] \
         [--storm E|off] [--sequential] [--quick]"
    );
    std::process::exit(2);
}

fn main() {
    taichi_bench::init_policy();
    let mut cfg = FleetConfig {
        machines: 64,
        epochs: 12,
        seed: seed(),
        churn_per_epoch: 2.0,
        storm_epoch: Some(4),
        storm_vms_per_machine: 2,
        ..FleetConfig::default()
    };
    cfg.apply_env();

    let mut driver = FleetDriver::EpochParallel {
        workers: default_workers(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| usage_for(flag));
        match flag.as_str() {
            "--machines" => match taichi_fleet::parse_machines(&value("--machines")) {
                Ok(v) => cfg.machines = v,
                Err(e) => die(&e),
            },
            "--epochs" => match taichi_fleet::parse_epochs(&value("--epochs")) {
                Ok(v) => cfg.epochs = v,
                Err(e) => die(&e),
            },
            "--churn" => match taichi_fleet::parse_churn(&value("--churn")) {
                Ok(v) => cfg.churn_per_epoch = v,
                Err(e) => die(&e),
            },
            "--storm" => match taichi_fleet::parse_storm(&value("--storm")) {
                Ok(v) => cfg.storm_epoch = v,
                Err(e) => die(&e),
            },
            "--sequential" => driver = FleetDriver::Sequential,
            // CI smoke size: small enough for a PR gate, large enough
            // to exercise churn, the storm, and post-storm compaction.
            "--quick" => {
                cfg.machines = 64;
                cfg.epochs = 8;
                cfg.churn_per_epoch = 2.0;
                cfg.storm_epoch = Some(4);
            }
            _ => usage(),
        }
    }

    println!(
        "fleet: {} machines x {} epochs of {} us ({:?}, churn {}, storm {:?})",
        cfg.machines,
        cfg.epochs,
        cfg.epoch_len.as_nanos() / 1_000,
        driver,
        cfg.churn_per_epoch,
        cfg.storm_epoch,
    );
    let start = std::time::Instant::now();
    let result = run(&cfg, driver);
    let wall = start.elapsed();

    emit("ext_fleet", &result.epoch_table());
    let rss_kb = peak_rss_kb();
    emit("ext_fleet_summary", &result.summary_table_with_mem(rss_kb));

    let machine_epochs = (cfg.machines * cfg.epochs) as f64;
    println!(
        "wall {:.2} s, {:.0} machine-epochs/s; resident {} B/machine \
         (slab hwm {} slots, ring hwm {} pkts{})",
        wall.as_secs_f64(),
        machine_epochs / wall.as_secs_f64().max(1e-9),
        result.resident_bytes / cfg.machines.max(1) as u64,
        result.slab_high_watermark,
        result.ring_high_watermark,
        rss_kb
            .map(|kb| format!(
                ", peak rss {} kB = {} kB/machine",
                kb,
                kb / cfg.machines.max(1) as u64
            ))
            .unwrap_or_default(),
    );

    if let (Some(s), Some(rec)) = (result.storm_epoch, result.recovery_epochs) {
        println!(
            "storm at epoch {s}: rack throughput back to 90% of the \
             pre-storm mean after {rec} epoch(s)"
        );
    } else if result.storm_epoch.is_some() {
        println!("storm fired but rack throughput never recovered in-horizon");
    }

    for v in &result.violations {
        eprintln!("invariant violated: {v}");
    }
    if result.violation_count > 0 {
        eprintln!(
            "{} invariant violation(s) across the fleet",
            result.violation_count
        );
        std::process::exit(1);
    }
    println!(
        "all scheduler invariants held on every machine at every epoch \
         boundary ({} machine-epochs)",
        result.util_permille.count()
    );
}

fn usage_for(flag: &str) -> String {
    eprintln!("error: {flag} needs a value");
    usage()
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
