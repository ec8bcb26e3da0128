//! The repository benchmark for the Tai Chi simulator.
//!
//! One command runs one named workload against the public API of the
//! default program (`Mode::TaiChi`, default configuration, no
//! `TAICHI_*` overrides) and prints its metrics:
//!
//! - with `--trace 0`, the end-to-end metrics ([`END_TO_END`]): host
//!   speed and memory of the simulator plus the simulated SLOs it
//!   produces;
//! - with `--trace 1`, the per-layer metrics ([`PER_LAYER`]), each
//!   measured from outside the program by timing the benchmark's own
//!   calls into a layer's public functions, or read from the public
//!   counters.
//!
//! Every run checks its simulated outputs: each repetition's
//! fingerprint must equal the first one (and, at [`DEFAULT_SEED`], the
//! recorded one), every machine must pass `check_invariants`, and a
//! traced repetition must fingerprint like an untraced one. A run that
//! fails any check counts its operations as failed.

pub mod fleet;
pub mod machine;
pub mod probes;
pub mod provenance;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Allocation counts for `sim.alloc_*` and `fleet.alloc_*` come from
/// this counting wrapper around the system allocator.
#[global_allocator]
static ALLOC: taichi_sim::alloc::CountingAlloc = taichi_sim::alloc::CountingAlloc;

/// Seed used when `--seed` is not given; [`expected_fingerprint`]
/// holds each workload's simulated-output fingerprint at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// One metric of the catalog: name, unit, and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("sim_ms_per_s", "ms/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("dp_p50_us", "us", "lower"),
    m("dp_p999_us", "us", "lower"),
    m("tenant1_p99_us", "us", "lower"),
];

/// Per-layer metrics, reported by every traced run. Which end-to-end
/// metric each one is expected to move, and on which workload, is
/// listed in the benchmark's README.
pub const PER_LAYER: &[MetricDef] = &[
    m("core.run_chunk_us_p50", "us", "lower"),
    m("core.run_chunk_us_p99", "us", "lower"),
    m("core.run_chunks", "count", "higher"),
    m("core.events", "count", "lower"),
    m("core.dispatched", "count", "lower"),
    m("core.skipped", "count", "lower"),
    m("core.dispatched_per_packet", "ratio", "lower"),
    m("core.host_ns_per_dispatched", "ns", "lower"),
    m("core.audit_us", "us", "lower"),
    m("core.yield_grants", "count", "higher"),
    m("core.yield_vetoes", "count", "lower"),
    m("core.yield_no_runnable", "count", "lower"),
    m("core.yield_useful_ratio", "ratio", "higher"),
    m("core.lock_reschedules", "count", "higher"),
    m("core.slice_adapts", "count", "lower"),
    m("core.threshold_adapts", "count", "lower"),
    m("core.ipi_direct", "count", "lower"),
    m("core.ipi_posted", "count", "higher"),
    m("core.ipi_woken", "count", "lower"),
    m("core.ipi_reissued", "count", "lower"),
    m("core.residual_share", "ratio", "lower"),
    m("sim.queue_ns_per_op", "ns", "lower"),
    m("sim.queue_share", "ratio", "lower"),
    m("sim.slab_high_watermark", "slots", "lower"),
    m("sim.alloc_events_per_sim_ms", "count", "lower"),
    m("sim.alloc_bytes_per_sim_ms", "B", "lower"),
    m("sim.trace_overhead_ratio", "ratio", "lower"),
    m("dp.gen_ns_per_packet", "ns", "lower"),
    m("dp.burst_ns_per_packet", "ns", "lower"),
    m("dp.record_ns_per_packet", "ns", "lower"),
    m("dp.packet_path_share", "ratio", "lower"),
    m("dp.packets", "count", "higher"),
    m("dp.lost", "count", "lower"),
    m("dp.delivered_ratio", "ratio", "higher"),
    m("dp.fast_forwarded_polls", "count", "higher"),
    m("hw.accel_ns_per_packet", "ns", "lower"),
    m("hw.accel_issue_ns_per_packet", "ns", "lower"),
    m("hw.packets_ingested", "count", "higher"),
    m("hw.staged_dropped", "count", "lower"),
    m("hw.probe_irqs", "count", "lower"),
    m("hw.probe_rechecks", "count", "lower"),
    m("os.decide_ns", "ns", "lower"),
    m("os.softirqs", "count", "lower"),
    m("os.preempts", "count", "lower"),
    m("os.nonpreemptible_sections", "count", "lower"),
    m("os.threads_finished", "count", "higher"),
    m("virt.vm_enters", "count", "lower"),
    m("virt.vm_exits", "count", "lower"),
    m("cp.vm_creates", "count", "higher"),
    m("cp.schedule_us", "us", "lower"),
    m("cp.vm_started", "count", "higher"),
    m("fleet.machine_epoch_ms", "ms", "lower"),
    m("fleet.scaling_nw", "ratio", "higher"),
    m("fleet.resident_kb_per_machine", "kB", "lower"),
    m("fleet.slab_high_watermark", "slots", "lower"),
    m("fleet.ring_high_watermark", "packets", "lower"),
    m("fleet.alloc_events_per_machine_epoch", "count", "lower"),
    m("fleet.events", "count", "lower"),
    m("fleet.packets", "count", "higher"),
    m("fleet.injected", "count", "higher"),
    m("fleet.dropped", "count", "lower"),
    m("fleet.vm_creates", "count", "higher"),
    m("fleet.recovery_epochs", "count", "lower"),
    m("fleet.violations", "count", "lower"),
];

/// The benchmark's workloads. Why each exists is in the README and in
/// `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `bench_engine` machine over a long horizon: bursty 512 B
    /// traffic on 8 DP CPUs plus one 8-task CP batch.
    NetBursty,
    /// A steady VM re-provisioning stream over light open-loop traffic.
    CpChurn,
    /// A multi-tenant rack under the epoch-parallel fleet driver.
    FleetTenants,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::NetBursty,
        Workload::CpChurn,
        Workload::FleetTenants,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NetBursty => "net_bursty",
            Workload::CpChurn => "cp_churn",
            Workload::FleetTenants => "fleet_tenants",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much simulated work one repetition does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's own sizes.
    Full,
    /// Tiny horizons for the self-tests.
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Host seconds to keep repeating the workload (at least the
    /// minimum repetition count always runs).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    pub scale: Scale,
}

/// What one invocation measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Metric values by catalog name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted: timed `run_until` chunks, or fleet
    /// machine-epochs.
    pub attempted: u64,
    /// Operations of repetitions that failed a check or panicked.
    pub failed: u64,
    /// Fingerprint of the simulated outputs (identical in every
    /// repetition of a correct run).
    pub fingerprint: Option<u64>,
    /// Human-readable lines: simulated outputs that are not catalog
    /// metrics, and the reason for every failure.
    pub notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed repetition of `ops` operations, reporting it
    /// on standard error at once.
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        let line = format!("FAILED: {why}");
        eprintln!("{line}");
        self.notes.push(line);
    }

    /// Checks a repetition's fingerprint against `expected` when the
    /// seed has a recorded one, otherwise against the run's first
    /// repetition.
    fn check_fingerprint(&mut self, fp: u64, expected: Option<u64>, ops: u64, what: &str) {
        let first = *self.fingerprint.get_or_insert(fp);
        let (want, against) = match expected {
            Some(want) => (want, "recorded"),
            None => (first, "first repetition"),
        };
        if fp != want {
            self.fail(
                ops,
                format!("{what}: fingerprint {fp:#018x} != {against} {want:#018x}"),
            );
        }
    }
}

/// The recorded fingerprint of a workload's simulated outputs at
/// [`DEFAULT_SEED`] and full scale. Update it only together with a
/// change that is meant to alter the simulation.
pub fn expected_fingerprint(plan: &Plan) -> Option<u64> {
    if plan.seed != DEFAULT_SEED || plan.scale != Scale::Full {
        return None;
    }
    Some(match plan.workload {
        Workload::NetBursty => 0x3d7e_0ee0_5a09_47ee,
        Workload::CpChurn => 0xf14a_d01e_28ca_c7e1,
        Workload::FleetTenants => 0xd72e_aee7_9d1a_0568,
    })
}

/// Runs one benchmark invocation.
pub fn run(plan: &Plan) -> Outcome {
    match plan.workload {
        Workload::NetBursty | Workload::CpChurn => machine::run(plan),
        Workload::FleetTenants => fleet::run(plan),
    }
}

/// The result object: every catalog metric of the run's kind with its
/// unit. Errors name the first metric that is missing or not finite.
pub fn result_json(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, def) in catalog.iter().enumerate() {
        let value = *outcome
            .metrics
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", def.name));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    ))
}

/// FNV-1a over 64-bit words: the fingerprint of a run's simulated
/// outputs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub(crate) fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Median of `xs` (NaN when empty).
pub(crate) fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (NaN when
/// empty).
pub(crate) fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Quantile `q` in `(0, 1)` of a latency histogram, in microseconds,
/// interpolated linearly inside the bucket that holds it (the
/// histogram's own `quantile` returns bucket midpoints, which hide
/// small shifts).
pub(crate) fn latency_us(h: &taichi_sim::Histogram, q: f64) -> f64 {
    let mut lo = (h.min(), 0.0);
    for (hi, cum) in h.cdf() {
        if cum >= q {
            let frac = (q - lo.1) / (cum - lo.1);
            let ns = lo.0 as f64 + (hi.min(h.max()) as f64 - lo.0 as f64) * frac;
            return ns / 1e3;
        }
        lo = (hi, cum);
    }
    h.max() as f64 / 1e3
}

/// Peak resident set size of this process (VmHWM), in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `f`, returning its value and the host seconds it took.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `f`, turning a panic into an error message.
pub(crate) fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}
