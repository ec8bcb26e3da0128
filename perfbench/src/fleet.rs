//! The `fleet_tenants` workload: `taichi_fleet::run` over a
//! two-tenant rack with churn and a startup storm, under the
//! epoch-parallel driver on every available core.

use std::time::Instant;

use taichi_fleet::{FleetConfig, FleetDriver, FleetResult};
use taichi_sim::alloc;
use taichi_sim::SimDuration;

use crate::machine::{self, Shape, EPOCH_MS};
use crate::{guarded, latency_us, median, peak_rss_mb, timed, Fnv, Outcome, Plan, Scale};

/// Repetitions an untraced run makes even when `--seconds` is shorter.
const MIN_REPS: usize = 3;

/// Zero-epoch set-up runs per repetition.
const SETUP_RUNS: usize = 10;

/// The rack of the workload.
pub fn config(seed: u64, scale: Scale) -> FleetConfig {
    let (machines, epochs, storm) = match scale {
        Scale::Full => (128, 8, 4),
        Scale::Tiny => (4, 3, 1),
    };
    FleetConfig {
        machines,
        epochs,
        epoch_len: SimDuration::from_millis(EPOCH_MS),
        seed,
        churn_per_epoch: 2.0,
        storm_epoch: Some(storm),
        tenants: Shape::fleet_tenants(),
        ..FleetConfig::default()
    }
}

/// Worker threads of the epoch-parallel driver: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn fingerprint(r: &FleetResult) -> u64 {
    let mut h = Fnv::default();
    for w in r.fingerprint() {
        h.word(w);
    }
    h.finish()
}

/// One fleet run: its result and host seconds, or the panic message.
fn fleet_run(cfg: &FleetConfig, workers: usize) -> Result<(FleetResult, f64), String> {
    guarded(|| timed(|| taichi_fleet::run(cfg, FleetDriver::EpochParallel { workers })))
}

/// Checks one run's audits and fingerprint.
fn check(out: &mut Outcome, r: &FleetResult, expected: Option<u64>, ops: u64, what: &str) {
    if r.violation_count > 0 {
        out.fail(
            ops,
            format!(
                "{what}: {} invariant violations: {:?}",
                r.violation_count, r.violations
            ),
        );
    } else {
        out.check_fingerprint(fingerprint(r), expected, ops, what);
    }
}

/// Runs the fleet workload.
pub fn run(plan: &Plan) -> Outcome {
    let cfg = config(plan.seed, plan.scale);
    let ops = (cfg.machines * cfg.epochs) as u64;
    let expected = crate::expected_fingerprint(plan);
    let mut out = Outcome::default();
    if plan.trace {
        layers(plan, &cfg, ops, expected, &mut out);
        return out;
    }

    // Machine construction happens inside `taichi_fleet::run`, so the
    // set-up visible from outside is a run of the same rack with zero
    // epochs: building, spawning the workers and tearing down.
    let setup_cfg = FleetConfig {
        epochs: 0,
        ..cfg.clone()
    };
    let sim_ms = ops as f64 * EPOCH_MS as f64;
    let start = Instant::now();
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < plan.seconds {
        reps += 1;
        out.attempted += ops;
        let what = format!("repetition {reps}");
        let setup: Result<Vec<f64>, String> = (0..SETUP_RUNS)
            .map(|_| fleet_run(&setup_cfg, workers()).map(|(_, s)| s))
            .collect();
        let full = fleet_run(&cfg, workers());
        let (setup, (r, wall)) = match (setup, full) {
            (Ok(s), Ok(full)) => (s, full),
            (Err(e), _) | (_, Err(e)) => {
                out.fail(ops, format!("{what} panicked: {e}"));
                continue;
            }
        };
        check(&mut out, &r, expected, ops, &what);
        rates.push(sim_ms / wall);
        setups.extend(setup);
        if !out.metrics.contains_key("dp_p50_us") {
            let rack = r.rack.total_latency();
            out.set("dp_p50_us", latency_us(rack, 0.5));
            out.set("dp_p999_us", latency_us(rack, 0.999));
            let low = r
                .tenant_rack
                .get(1)
                .map_or(f64::NAN, |t| latency_us(t.total_latency(), 0.99));
            out.set("tenant1_p99_us", low);
        }
    }
    out.set("sim_ms_per_s", median(&rates));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "{reps} repetitions of {} machines x {} epochs on {} workers",
        cfg.machines,
        cfg.epochs,
        workers()
    ));
    out
}

/// The traced run: rack runs alternating between one worker and every
/// core for the `fleet.*` metrics, then the fleet-shaped probe machine
/// for every other layer (the fleet has no hook to observe its
/// machines from outside).
fn layers(plan: &Plan, cfg: &FleetConfig, ops: u64, expected: Option<u64>, out: &mut Outcome) {
    let n = workers();
    let start = Instant::now();
    let fleet_seconds = plan.seconds * 0.6;
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut alloc_events = None;
    let mut pairs = 0;
    while pairs < 1 || start.elapsed().as_secs_f64() < fleet_seconds {
        pairs += 1;
        for w in [1, n] {
            out.attempted += ops;
            let what = format!("pair {pairs}, {w} workers");
            let before = alloc::snapshot();
            match fleet_run(cfg, w) {
                Err(e) => out.fail(ops, format!("{what} panicked: {e}")),
                Ok((r, wall)) => {
                    let allocs = alloc::snapshot().since(before).allocation_events();
                    check(out, &r, expected, ops, &what);
                    if w == n {
                        many.push(wall);
                        alloc_events.get_or_insert(allocs);
                        last = Some(r);
                    } else {
                        one.push(wall);
                    }
                }
            }
        }
    }

    if let Some(r) = &last {
        let sum =
            |f: fn(&taichi_fleet::EpochRow) -> u64| r.epochs.iter().map(f).sum::<u64>() as f64;
        let machines = r.machines as f64;
        out.set("fleet.machine_epoch_ms", median(&many) * 1e3 / ops as f64);
        out.set("fleet.scaling_nw", median(&one) / median(&many));
        out.set(
            "fleet.resident_kb_per_machine",
            r.resident_bytes as f64 / machines / 1024.0,
        );
        out.set("fleet.slab_high_watermark", r.slab_high_watermark as f64);
        out.set("fleet.ring_high_watermark", r.ring_high_watermark as f64);
        out.set(
            "fleet.alloc_events_per_machine_epoch",
            alloc_events.unwrap_or(0) as f64 / ops as f64,
        );
        out.set("fleet.events", sum(|e| e.events));
        out.set("fleet.packets", sum(|e| e.packets));
        out.set("fleet.injected", sum(|e| e.injected));
        out.set("fleet.dropped", sum(|e| e.dropped));
        out.set("fleet.vm_creates", sum(|e| e.vm_creates));
        out.set(
            "fleet.recovery_epochs",
            r.recovery_epochs.unwrap_or(0) as f64,
        );
        out.set("fleet.violations", r.violation_count as f64);
    }

    // The probe machine's fingerprint is its own: checked for trace
    // neutrality across its repetitions, not against the rack's.
    let mut probe = Outcome::default();
    let remaining = (plan.seconds - start.elapsed().as_secs_f64()).max(0.0);
    machine::layer_pass(plan, Shape::FleetMachine, remaining, None, &mut probe).report(&mut probe);
    out.attempted += probe.attempted;
    out.failed += probe.failed;
    out.notes.append(&mut probe.notes);
    out.metrics.append(&mut probe.metrics);
    out.notes.push(format!(
        "{pairs} pairs of rack runs ({} machines x {} epochs) on 1 and {n} workers",
        cfg.machines, cfg.epochs
    ));
}
