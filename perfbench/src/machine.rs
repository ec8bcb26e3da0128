//! Single-machine workloads (`net_bursty`, `cp_churn`) and the
//! fleet-shaped probe machine that stands in for one rack machine when
//! the fleet workload's machine layers are measured.
//!
//! One repetition builds the machine (timed as set-up), advances it in
//! timed 1 ms `run_until` chunks, audits it with `check_invariants`
//! and fingerprints its simulated outputs.

use std::time::Instant;

use taichi_core::machine::{Machine, Mode};
use taichi_core::{check_invariants, MachineConfig, TenantConfig};
use taichi_cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, LatencyRecorder, TrafficGen};
use taichi_hw::{CpuId, IoKind, TenantId};
use taichi_sim::alloc::{self, AllocCounters};
use taichi_sim::{Dist, FootprintProfile, Rng, SimDuration, SimTime, TraceConfig};

use crate::{
    guarded, latency_us, median, peak_rss_mb, probes, quantile, timed, Fnv, Outcome, Plan, Scale,
};

/// Simulated length of one epoch of the fleet workload; single-machine
/// workloads report their `fleet.*` metrics as a rack of one machine
/// with epochs this long.
pub(crate) const EPOCH_MS: u64 = 2;

/// Repetitions an untraced run makes even when `--seconds` is shorter.
const MIN_REPS: usize = 3;

/// Which machine a repetition builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Shape {
    NetBursty,
    CpChurn,
    /// One fleet_tenants rack machine: two tenants weighted 3:1, fleet
    /// footprint, one on/off generator per tenant, and the rack's
    /// per-machine startup storm — without east-west injection.
    FleetMachine,
}

impl Shape {
    /// Simulated milliseconds one repetition covers.
    pub(crate) fn horizon_ms(self, scale: Scale) -> u64 {
        match (self, scale) {
            (Shape::NetBursty, Scale::Full) => 2_000,
            (Shape::CpChurn, Scale::Full) => 20_000,
            (Shape::FleetMachine, Scale::Full) => 200,
            (Shape::CpChurn, Scale::Tiny) => 100,
            (_, Scale::Tiny) => 10,
        }
    }

    /// Times each repetition builds its machine (the last build runs).
    /// The first builds after a run are slower while caches refill, so
    /// cheap set-ups build often enough for the median to be a warm one.
    fn setup_builds(self) -> usize {
        match self {
            Shape::CpChurn => 5,
            Shape::NetBursty | Shape::FleetMachine => 15,
        }
    }

    /// The arrival process of each traffic generator: `net_bursty`
    /// uses the `bench_engine` one (200 us bursts of back-to-back
    /// packets, exponential 400 us gaps); a rack machine splits the
    /// same on/off shape across its two tenants.
    pub(crate) fn arrivals(self) -> ArrivalPattern {
        let on_off = |burst_gap_us| ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(burst_gap_us),
        };
        match self {
            Shape::NetBursty => on_off(0.21),
            Shape::CpChurn => ArrivalPattern::OpenLoop {
                gap_us: Dist::exponential(100.0),
            },
            // taichi_fleet: 2.5 us x tenants / DP CPUs.
            Shape::FleetMachine => on_off(2.5 * 2.0 / 8.0),
        }
    }

    /// The two-tenant 3:1 configuration shared by every rack machine.
    pub(crate) fn fleet_tenants() -> TenantConfig {
        TenantConfig {
            count: 2,
            weights: vec![3, 1],
            ..TenantConfig::default()
        }
    }
}

/// The DP CPUs of the default SmartNIC.
pub(crate) fn dp_cpus() -> Vec<CpuId> {
    (0..8).map(CpuId).collect()
}

/// A freshly built machine plus what its set-up scheduled.
pub(crate) struct Built {
    pub machine: Machine,
    /// Host seconds spent generating and queuing control-plane work.
    pub cp_schedule_s: f64,
    pub vm_creates: u64,
}

/// Builds the machine for `shape` with every input of the run
/// scheduled.
pub(crate) fn build(shape: Shape, seed: u64, horizon_ms: u64, trace: bool) -> Built {
    let mut cfg = MachineConfig {
        seed,
        trace: TraceConfig {
            enabled: trace,
            ..TraceConfig::default()
        },
        ..MachineConfig::default()
    };
    if shape == Shape::FleetMachine {
        cfg.tenants = Shape::fleet_tenants();
        cfg.footprint = FootprintProfile::Fleet;
    }
    // One generator per tenant; a rack machine's two tenants share the
    // same arrival shape.
    let tenants = cfg.tenants.count;
    let mut m = Machine::new(cfg, Mode::TaiChi);
    for t in 0..tenants {
        m.add_traffic(
            TrafficGen::new(
                shape.arrivals(),
                Dist::constant(512.0),
                IoKind::Network,
                dp_cpus(),
            )
            .with_tenant(TenantId(t)),
        );
    }
    let factory = TaskFactory::default();
    let mut vm_creates = 0;
    let ((), cp_schedule_s) = timed(|| match shape {
        Shape::NetBursty => {
            let mut rng = Rng::stream(seed, 0xC0DE);
            m.schedule_cp_batch(SynthCp::default().workload(8, &mut rng), SimTime::ZERO);
        }
        Shape::CpChurn => {
            for i in 0..horizon_ms / 10 {
                let mut req = VmCreateRequest::at_density(i, 4, SimTime::from_millis(i * 10));
                req.qemu_boot = SimDuration::from_millis(10);
                m.schedule_vm_create(req, &factory);
                vm_creates += 1;
            }
        }
        Shape::FleetMachine => {
            // The rack storm's two density-2 VMs at epoch 4.
            let storm = SimTime::from_millis((4 * EPOCH_MS).min(horizon_ms / 2));
            for i in 0..2 {
                m.schedule_vm_create(VmCreateRequest::at_density(i, 2, storm), &factory);
                vm_creates += 1;
            }
        }
    });
    Built {
        machine: m,
        cp_schedule_s,
        vm_creates,
    }
}

/// One completed repetition.
pub(crate) struct Rep {
    /// Host seconds of each build (see [`Shape::setup_builds`]).
    pub setup_s: Vec<f64>,
    pub cp_schedule_s: f64,
    pub vm_creates: u64,
    /// Host seconds of each 1 ms `run_until` chunk.
    pub chunk_s: Vec<f64>,
    pub wall_s: f64,
    /// Allocator traffic during the timed chunks.
    pub alloc: AllocCounters,
    pub violations: Vec<String>,
    pub fingerprint: u64,
    pub machine: Machine,
}

/// Builds and runs one repetition; a panic becomes an error.
pub(crate) fn rep(shape: Shape, seed: u64, horizon_ms: u64, trace: bool) -> Result<Rep, String> {
    guarded(|| {
        let mut setup_s = Vec::with_capacity(shape.setup_builds());
        let mut last = None;
        for _ in 0..shape.setup_builds() {
            let (built, s) = timed(|| build(shape, seed, horizon_ms, trace));
            setup_s.push(s);
            last = Some(built);
        }
        let built = last.expect("at least one build");
        let mut m = built.machine;
        let mut chunk_s = Vec::with_capacity(horizon_ms as usize);
        let before = alloc::snapshot();
        for k in 1..=horizon_ms {
            let t = Instant::now();
            m.run_until(SimTime::from_millis(k));
            chunk_s.push(t.elapsed().as_secs_f64());
        }
        let alloc = alloc::snapshot().since(before);
        let wall_s = chunk_s.iter().sum();
        Rep {
            setup_s,
            cp_schedule_s: built.cp_schedule_s,
            vm_creates: built.vm_creates,
            chunk_s,
            wall_s,
            alloc,
            violations: check_invariants(&m).violations,
            fingerprint: fingerprint(&m),
            machine: m,
        }
    })
}

/// Runs one repetition and checks it: a panic, an audit violation or
/// a fingerprint mismatch fails its operations. Returns the repetition
/// when it completed, so its timings count even if a check failed.
fn checked_rep(
    out: &mut Outcome,
    plan: &Plan,
    shape: Shape,
    trace: bool,
    expected: Option<u64>,
    what: &str,
) -> Option<Rep> {
    let horizon = shape.horizon_ms(plan.scale);
    out.attempted += horizon;
    match rep(shape, plan.seed, horizon, trace) {
        Err(e) => {
            out.fail(horizon, format!("{what} panicked: {e}"));
            None
        }
        Ok(r) => {
            if r.violations.is_empty() {
                out.check_fingerprint(r.fingerprint, expected, horizon, what);
            } else {
                out.fail(horizon, format!("{what}: {:?}", r.violations));
            }
            Some(r)
        }
    }
}

/// Every DP service's latency records merged into one recorder.
fn dp_latency(m: &Machine) -> LatencyRecorder {
    let mut all = LatencyRecorder::new();
    for s in m.services() {
        all.merge(s.recorder());
    }
    all
}

/// Per-tenant latency records merged across services (empty on a
/// single-tenant machine).
fn tenant_latency(m: &Machine) -> Vec<LatencyRecorder> {
    let mut out: Vec<LatencyRecorder> = Vec::new();
    for s in m.services() {
        for (i, r) in s.tenant_recorders().iter().enumerate() {
            if out.len() <= i {
                out.resize_with(i + 1, LatencyRecorder::new);
            }
            out[i].merge(r);
        }
    }
    out
}

/// Fingerprint of a machine's simulated outputs: logical event counts,
/// the DP latency histograms, per-service packet outcomes, and every
/// VM startup time.
pub(crate) fn fingerprint(m: &Machine) -> u64 {
    let mut h = Fnv::default();
    h.word(m.events_processed());
    h.word(m.events_fast_forwarded());
    h.word(m.kernel().finished_count() as u64);
    let mut recorders = vec![dp_latency(m)];
    recorders.extend(tenant_latency(m));
    for rec in &recorders {
        h.word(rec.packets());
        h.word(rec.bytes());
        for (v, f) in rec.total_latency().cdf() {
            h.word(v);
            h.word(f.to_bits());
        }
    }
    for s in m.services() {
        h.word(s.processed());
        h.word(s.lost());
    }
    for d in m.vm_startup_times() {
        h.word(d.as_nanos());
    }
    h.finish()
}

/// The end-to-end simulated SLOs of a machine run.
fn simulated_slos(m: &Machine, out: &mut Outcome) {
    let lat = dp_latency(m);
    let total = lat.total_latency();
    out.set("dp_p50_us", latency_us(total, 0.5));
    out.set("dp_p999_us", latency_us(total, 0.999));
    // The lowest-weight tenant is tenant 1 on a multi-tenant machine;
    // a single-tenant machine's only tenant is its whole data path.
    let low = tenant_latency(m)
        .get(1)
        .map_or(latency_us(total, 0.99), |r| {
            latency_us(r.total_latency(), 0.99)
        });
    out.set("tenant1_p99_us", low);
    let vm: Vec<f64> = m
        .vm_startup_times()
        .iter()
        .map(|d| d.as_millis_f64())
        .collect();
    if !vm.is_empty() {
        let p99 = quantile(&vm, 0.99);
        let beyond = vm.iter().filter(|&&v| v > p99).count();
        out.notes.push(format!(
            "vm_startup_p50_ms {:.4} ms | vm_startup_p99_ms {p99:.4} ms | {} VMs started, {beyond} beyond p99",
            median(&vm),
            vm.len(),
        ));
    }
}

/// Runs a single-machine workload.
pub fn run(plan: &Plan) -> Outcome {
    let shape = match plan.workload {
        crate::Workload::NetBursty => Shape::NetBursty,
        crate::Workload::CpChurn => Shape::CpChurn,
        crate::Workload::FleetTenants => unreachable!("fleet_tenants runs in the fleet module"),
    };
    let mut out = Outcome::default();
    let expected = crate::expected_fingerprint(plan);
    if plan.trace {
        let layers = layer_pass(plan, shape, plan.seconds, expected, &mut out);
        layers.report(&mut out);
        layers.report_as_rack(&mut out);
    } else {
        end_to_end(plan, shape, expected, &mut out);
    }
    out
}

/// Untraced repetitions until `--seconds` have passed: host speed,
/// set-up time, memory and the simulated SLOs.
fn end_to_end(plan: &Plan, shape: Shape, expected: Option<u64>, out: &mut Outcome) {
    let horizon = shape.horizon_ms(plan.scale);
    let start = Instant::now();
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < plan.seconds {
        reps += 1;
        let what = format!("repetition {reps}");
        let Some(r) = checked_rep(out, plan, shape, false, expected, &what) else {
            continue;
        };
        rates.push(horizon as f64 / r.wall_s);
        setups.extend_from_slice(&r.setup_s);
        if !out.metrics.contains_key("dp_p50_us") {
            simulated_slos(&r.machine, out);
        }
    }
    out.set("sim_ms_per_s", median(&rates));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak_rss_mb());
}

/// What a traced pass measured on one machine shape.
pub(crate) struct MachineLayers {
    shape: Shape,
    horizon_ms: u64,
    chunk_s: Vec<f64>,
    untraced_wall_s: Vec<f64>,
    traced_wall_s: Vec<f64>,
    alloc: AllocCounters,
    cp_schedule_s: f64,
    vm_creates: u64,
    audit_ns: f64,
    /// The last traced repetition: the source of every count.
    machine: Machine,
    probes: probes::Probes,
}

/// Alternates untraced and traced repetitions of `shape` for about
/// `seconds` (at least one pair), checking that tracing leaves the
/// fingerprint unchanged, then runs the layer probes.
pub(crate) fn layer_pass(
    plan: &Plan,
    shape: Shape,
    seconds: f64,
    expected: Option<u64>,
    out: &mut Outcome,
) -> MachineLayers {
    let horizon = shape.horizon_ms(plan.scale);
    let start = Instant::now();
    let mut chunk_s = Vec::new();
    let (mut untraced_wall_s, mut traced_wall_s) = (Vec::new(), Vec::new());
    let mut alloc = None;
    let mut cp_schedule_s = Vec::new();
    let mut last = None;
    let mut pairs = 0;
    while pairs < 1 || start.elapsed().as_secs_f64() < seconds {
        pairs += 1;
        for trace in [false, true] {
            let what = format!("pair {pairs} {}", if trace { "traced" } else { "untraced" });
            let Some(r) = checked_rep(out, plan, shape, trace, expected, &what) else {
                continue;
            };
            cp_schedule_s.push(r.cp_schedule_s);
            if trace {
                traced_wall_s.push(r.wall_s);
                last = Some(r);
            } else {
                untraced_wall_s.push(r.wall_s);
                chunk_s.extend_from_slice(&r.chunk_s);
                alloc.get_or_insert(r.alloc);
            }
        }
    }
    // Counts need a traced machine; without one there is no result.
    let last = last.expect("no traced repetition completed (see the FAILED lines)");
    let audit_ns = probes::per_op(200, |_| {
        std::hint::black_box(check_invariants(std::hint::black_box(&last.machine)));
    });
    let (slab_hwm, _) = last.machine.memory_high_watermarks();
    let cancel_ratio =
        last.machine.events_skipped() as f64 / last.machine.events_processed().max(1) as f64;
    MachineLayers {
        shape,
        horizon_ms: horizon,
        chunk_s,
        untraced_wall_s,
        traced_wall_s,
        alloc: alloc.unwrap_or(last.alloc),
        cp_schedule_s: median(&cp_schedule_s),
        vm_creates: last.vm_creates,
        audit_ns,
        probes: probes::Probes::measure(shape, plan.seed, slab_hwm, cancel_ratio, plan.scale),
        machine: last.machine,
    }
}

impl MachineLayers {
    fn wall_s(&self) -> f64 {
        median(&self.untraced_wall_s)
    }

    /// Reports every per-layer metric outside the `fleet.*` family.
    pub(crate) fn report(&self, out: &mut Outcome) {
        let m = &self.machine;
        let tr = m
            .tracer()
            .expect("the last repetition of a layer pass is traced");
        let count = |name: &str| tr.counter(name) as f64;
        let wall = self.wall_s();
        let p = &self.probes;

        let ingested = m.accel().packets_ingested() as f64;
        let processed: u64 = m.services().iter().map(|s| s.processed()).sum();
        let lost: u64 = m.services().iter().map(|s| s.lost()).sum();
        let dispatched = m.events_dispatched() as f64;
        let queued = (m.events_dispatched() + m.events_skipped()) as f64;

        let us: Vec<f64> = self.chunk_s.iter().map(|s| s * 1e6).collect();
        out.set("core.run_chunk_us_p50", median(&us));
        out.set("core.run_chunk_us_p99", quantile(&us, 0.99));
        out.set("core.run_chunks", us.len() as f64);
        out.set("core.events", m.events_processed() as f64);
        out.set("core.dispatched", dispatched);
        out.set("core.skipped", m.events_skipped() as f64);
        out.set("core.dispatched_per_packet", dispatched / ingested.max(1.0));
        out.set(
            "core.host_ns_per_dispatched",
            wall * 1e9 / dispatched.max(1.0),
        );
        out.set("core.audit_us", self.audit_ns / 1e3);
        let grants = count("yield_grant");
        let no_runnable = count("yield_no_runnable");
        out.set("core.yield_grants", grants);
        out.set("core.yield_vetoes", count("yield_veto"));
        out.set("core.yield_no_runnable", no_runnable);
        out.set(
            "core.yield_useful_ratio",
            if grants + no_runnable > 0.0 {
                grants / (grants + no_runnable)
            } else {
                0.0
            },
        );
        out.set("core.lock_reschedules", count("lock_reschedule"));
        out.set("core.slice_adapts", count("slice_adapt"));
        out.set("core.threshold_adapts", count("threshold_adapt"));
        let o = m.orchestrator();
        out.set("core.ipi_direct", o.direct_count() as f64);
        out.set("core.ipi_posted", o.posted_count() as f64);
        out.set("core.ipi_woken", o.woken_count() as f64);
        out.set("core.ipi_reissued", o.reissued_count() as f64);

        let queue_share = p.queue_ns_per_op * queued / (wall * 1e9);
        let path_ns = p.gen_ns + p.accel_ns + p.burst_ns;
        let path_share = path_ns * ingested / (wall * 1e9);
        out.set("core.residual_share", 1.0 - queue_share - path_share);
        out.set("sim.queue_ns_per_op", p.queue_ns_per_op);
        out.set("sim.queue_share", queue_share);
        out.set(
            "sim.slab_high_watermark",
            m.memory_high_watermarks().0 as f64,
        );
        let sim_ms = self.horizon_ms as f64;
        out.set(
            "sim.alloc_events_per_sim_ms",
            self.alloc.allocation_events() as f64 / sim_ms,
        );
        out.set(
            "sim.alloc_bytes_per_sim_ms",
            self.alloc.bytes as f64 / sim_ms,
        );
        out.set(
            "sim.trace_overhead_ratio",
            median(&self.traced_wall_s) / wall,
        );

        out.set("dp.gen_ns_per_packet", p.gen_ns);
        out.set("dp.burst_ns_per_packet", p.burst_ns);
        out.set("dp.record_ns_per_packet", p.record_ns);
        out.set("dp.packet_path_share", path_share);
        out.set("dp.packets", ingested);
        out.set("dp.lost", lost as f64);
        out.set("dp.delivered_ratio", processed as f64 / ingested.max(1.0));
        out.set("dp.fast_forwarded_polls", m.events_fast_forwarded() as f64);

        out.set("hw.accel_ns_per_packet", p.accel_ns);
        out.set("hw.accel_issue_ns_per_packet", p.accel_issue_ns);
        out.set("hw.packets_ingested", ingested);
        out.set("hw.staged_dropped", m.accel().staged_dropped() as f64);
        out.set("hw.probe_irqs", m.hw_probe().irqs_raised() as f64);
        out.set("hw.probe_rechecks", count("probe_recheck"));

        out.set("os.decide_ns", p.decide_ns);
        out.set("os.softirqs", count("softirq_dispatch"));
        out.set("os.preempts", count("preempt"));
        out.set("os.nonpreemptible_sections", count("nonpreemptible_enter"));
        out.set("os.threads_finished", m.kernel().finished_count() as f64);

        out.set("virt.vm_enters", count("vm_enter"));
        out.set("virt.vm_exits", count("vm_exit"));

        out.set("cp.vm_creates", self.vm_creates as f64);
        out.set("cp.schedule_us", self.cp_schedule_s * 1e6);
        out.set("cp.vm_started", m.vm_startup_times().len() as f64);

        out.notes.push(format!(
            "{:?}: {} untraced + {} traced repetitions of {} simulated ms",
            self.shape,
            self.untraced_wall_s.len(),
            self.traced_wall_s.len(),
            self.horizon_ms
        ));
    }

    /// Reports the `fleet.*` metrics of a single-machine workload as a
    /// rack of one machine advancing in [`EPOCH_MS`] epochs on one
    /// worker.
    fn report_as_rack(&self, out: &mut Outcome) {
        let m = &self.machine;
        let epochs = (self.horizon_ms / EPOCH_MS) as f64;
        let (slab, ring) = m.memory_high_watermarks();
        let processed: u64 = m.services().iter().map(|s| s.processed()).sum();
        let lost: u64 = m.services().iter().map(|s| s.lost()).sum();
        out.set("fleet.machine_epoch_ms", self.wall_s() * 1e3 / epochs);
        out.set("fleet.scaling_nw", 1.0);
        out.set(
            "fleet.resident_kb_per_machine",
            m.resident_bytes() as f64 / 1024.0,
        );
        out.set("fleet.slab_high_watermark", slab as f64);
        out.set("fleet.ring_high_watermark", ring as f64);
        out.set(
            "fleet.alloc_events_per_machine_epoch",
            self.alloc.allocation_events() as f64 / epochs,
        );
        out.set("fleet.events", m.events_processed() as f64);
        out.set("fleet.packets", processed as f64);
        out.set("fleet.injected", m.injected_rx() as f64);
        out.set("fleet.dropped", lost as f64);
        out.set("fleet.vm_creates", self.vm_creates as f64);
        out.set("fleet.recovery_epochs", 0.0);
        out.set(
            "fleet.violations",
            check_invariants(m).violations.len() as f64,
        );
    }
}
