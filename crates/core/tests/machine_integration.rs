//! End-to-end machine tests: every mode, both scheduling paths, the
//! adaptive controllers, and the safety properties.

use taichi_core::machine::{Machine, Mode};
use taichi_core::metrics::RunReport;
use taichi_core::MachineConfig;
use taichi_cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::IoKind;
use taichi_sim::{Dist, Rng, SimDuration, SimTime};

/// Open-loop Poisson traffic at roughly the requested per-CPU DP
/// utilization (packet cost ≈ 1.5 µs at the default service config).
fn traffic(dp_cpus: u32, util: f64) -> TrafficGen {
    // util = rate_per_cpu * 1.5 µs  =>  gap = 1.5/util µs per CPU, so
    // the aggregate gap across `dp_cpus` CPUs divides by the count.
    let per_cpu_gap_us = 1.5 / util.max(0.01);
    let gap = per_cpu_gap_us / dp_cpus as f64;
    TrafficGen::new(
        ArrivalPattern::OpenLoop {
            gap_us: Dist::exponential(gap),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..dp_cpus).map(taichi_hw::CpuId).collect(),
    )
}

/// Bursty on/off traffic averaging ~30 % DP utilization: dense bursts
/// (≈90 % within-burst utilization) alternating with idle stretches —
/// the production pattern behind Fig. 3's over-provisioning.
fn bursty_traffic(dp_cpus: u32) -> TrafficGen {
    bursty_traffic_duty(dp_cpus, 0.33)
}

/// Bursty traffic with a configurable duty cycle (mean utilization is
/// ~0.9 x duty).
fn bursty_traffic_duty(dp_cpus: u32, duty: f64) -> TrafficGen {
    let off = 200.0 * (1.0 - duty) / duty.max(0.01);
    TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(off),
            // Within-burst aggregate gap: 1.5 µs per-packet cost /
            // 0.9 util / 8 CPUs ≈ 0.21 µs.
            burst_gap_us: Dist::exponential(1.5 / 0.9 / dp_cpus as f64),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..dp_cpus).map(taichi_hw::CpuId).collect(),
    )
}

fn machine(mode: Mode) -> Machine {
    Machine::new(MachineConfig::default(), mode)
}

#[test]
fn baseline_processes_traffic() {
    let mut m = machine(Mode::Baseline);
    m.add_traffic(traffic(8, 0.3));
    m.run_until(SimTime::from_millis(200));
    let r = RunReport::collect(&m);
    assert!(r.dp.packets() > 10_000, "packets {}", r.dp.packets());
    assert_eq!(r.dp_dropped, 0);
    assert_eq!(r.yields, 0, "baseline must not yield");
    // Utilization near 30%.
    let u = r.mean_dp_utilization();
    assert!((0.2..0.45).contains(&u), "utilization {u}");
    // End-to-end latency ≈ 3.2 µs hardware + ~1.5 µs software.
    let p50 = r.dp.total_latency().percentile(50.0);
    assert!((4_000..8_000).contains(&p50), "p50 {p50} ns");
}

#[test]
fn taichi_runs_cp_on_idle_dp_cycles() {
    let mut m = machine(Mode::TaiChi);
    m.add_traffic(bursty_traffic(8));
    let synth = SynthCp::default();
    let mut rng = Rng::new(7);
    let progs = synth.workload(16, &mut rng);
    let batch = m.schedule_cp_batch(progs, SimTime::ZERO);
    m.run_until(SimTime::from_secs(1));
    let r = RunReport::collect(&m);
    assert!(r.yields > 0, "expected DP→CP yields");
    assert_eq!(m.batch_threads(batch).len(), 16);
    assert_eq!(r.cp_finished, 16, "all synth tasks finish");
    assert!(r.hw_probe_exits > 0, "hw probe should preempt vCPUs");
}

#[test]
fn taichi_speeds_up_cp_vs_baseline() {
    let mut turnarounds = Vec::new();
    for mode in [Mode::Baseline, Mode::TaiChi] {
        let mut m = machine(mode);
        m.add_traffic(bursty_traffic(8));
        let synth = SynthCp::default();
        let mut rng = Rng::new(7);
        let progs = synth.workload(32, &mut rng);
        m.schedule_cp_batch(progs, SimTime::ZERO);
        m.run_until(SimTime::from_secs(3));
        let r = RunReport::collect(&m);
        assert_eq!(r.cp_finished, 32, "{mode}: all tasks finish");
        turnarounds.push(r.mean_cp_turnaround_ms());
    }
    let speedup = turnarounds[0] / turnarounds[1];
    assert!(
        speedup > 1.8,
        "Tai Chi CP speedup {speedup:.2}x (baseline {:.1} ms, taichi {:.1} ms)",
        turnarounds[0],
        turnarounds[1]
    );
}

#[test]
fn taichi_dp_latency_close_to_baseline() {
    let mut p999s = Vec::new();
    let mut means = Vec::new();
    for mode in [Mode::Baseline, Mode::TaiChi] {
        let mut m = machine(mode);
        m.add_traffic(traffic(8, 0.3));
        let synth = SynthCp::default();
        let mut rng = Rng::new(7);
        m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_secs(1));
        let r = RunReport::collect(&m);
        p999s.push(r.dp.total_latency().percentile(99.9) as f64);
        means.push(r.dp.total_latency().mean());
    }
    // Mean within a few percent; p999 within ~6 µs (a partially hidden
    // switch plus the cache-pollution surcharge) — versus the tens of
    // microseconds the no-probe ablation shows.
    let mean_overhead = (means[1] - means[0]) / means[0];
    assert!(
        mean_overhead < 0.05,
        "mean DP overhead {:.2}% too high",
        mean_overhead * 100.0
    );
    assert!(
        p999s[1] < p999s[0] + 8_000.0,
        "p999 spike: baseline {} vs taichi {}",
        p999s[0],
        p999s[1]
    );
}

#[test]
fn no_hw_probe_causes_latency_spikes() {
    let mut maxes = Vec::new();
    for mode in [Mode::TaiChi, Mode::TaiChiNoHwProbe] {
        let mut m = machine(mode);
        m.add_traffic(bursty_traffic(8));
        let synth = SynthCp::default();
        let mut rng = Rng::new(7);
        m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_secs(1));
        let r = RunReport::collect(&m);
        maxes.push(r.dp.total_latency().max());
    }
    // Without the probe, packets wait out vCPU slices: max latency far
    // above the probed configuration.
    assert!(
        maxes[1] > maxes[0] + 30_000,
        "expected spikes without probe: with {} vs without {}",
        maxes[0],
        maxes[1]
    );
}

#[test]
fn vdp_mode_taxes_dp_processing() {
    let mut means = Vec::new();
    for mode in [Mode::Baseline, Mode::TaiChiVdp] {
        let mut m = machine(mode);
        m.add_traffic(traffic(8, 0.3));
        m.run_until(SimTime::from_millis(300));
        let r = RunReport::collect(&m);
        means.push(r.dp.software_latency().mean());
    }
    let overhead = (means[1] - means[0]) / means[0];
    assert!(
        overhead > 0.04,
        "vDP software overhead {:.2}% too low",
        overhead * 100.0
    );
}

/// The mode alone decides the two regime facts: Tai Chi modes build
/// the vCPU pool, and only full Tai Chi and Tai Chi-vDP arm the
/// hardware probe (Table 5 ablates it).
#[test]
fn mode_selects_vcpu_pool_and_hw_probe() {
    for mode in Mode::all() {
        let m = machine(mode);
        let probe = match mode {
            Mode::TaiChi | Mode::TaiChiVdp => true,
            Mode::Baseline | Mode::TaiChiNoHwProbe | Mode::Type2 => false,
        };
        assert_eq!(m.vsched().is_empty(), !mode.has_taichi(), "{mode}");
        assert_eq!(m.hw_probe().is_enabled(), probe, "{mode}");
    }
}

#[test]
fn type2_loses_a_dp_cpu() {
    let m = machine(Mode::Type2);
    assert_eq!(m.services().len(), 7);
    let m2 = machine(Mode::Baseline);
    assert_eq!(m2.services().len(), 8);
}

#[test]
fn vm_creation_completes_with_startup_time() {
    let mut m = machine(Mode::TaiChi);
    m.add_traffic(traffic(8, 0.3));
    let factory = TaskFactory::default();
    for i in 0..4 {
        let req = VmCreateRequest::at_density(i, 1, SimTime::from_millis(i * 5));
        m.schedule_vm_create(req, &factory);
    }
    m.run_until(SimTime::from_secs(5));
    let times = m.vm_startup_times();
    assert_eq!(times.len(), 4, "all VMs started");
    for t in times {
        // ≥ the 120 ms QEMU boot floor, well under the horizon.
        assert!(*t >= SimDuration::from_millis(120));
        assert!(*t < SimDuration::from_secs(4), "startup {t}");
    }
}

#[test]
fn locked_cp_tasks_always_complete_under_taichi() {
    // Heavy lock contention: every device task hits the same driver
    // lock; vCPU preemption mid-critical-section must not wedge them.
    let mut m = machine(Mode::TaiChi);
    m.add_traffic(traffic(8, 0.3));
    let factory = TaskFactory::default();
    let mut rng = Rng::new(11);
    let progs: Vec<_> = (0..24)
        .map(|_| factory.device_init(taichi_cp::task::locks::NIC_DRIVER, 3, &mut rng))
        .collect();
    m.schedule_cp_batch(progs, SimTime::ZERO);
    m.run_until(SimTime::from_secs(5));
    let r = RunReport::collect(&m);
    assert_eq!(r.cp_finished, 24, "forward progress under contention");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut m = machine(Mode::TaiChi);
        m.add_traffic(traffic(8, 0.3));
        let synth = SynthCp::default();
        let mut rng = Rng::new(3);
        m.schedule_cp_batch(synth.workload(8, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_millis(500));
        let r = RunReport::collect(&m);
        (
            r.dp.packets(),
            r.dp.total_latency().mean().to_bits(),
            r.yields,
            r.cp_finished,
            r.cp_turnaround.mean().to_bits(),
        )
    };
    assert_eq!(run(), run(), "identical seeds must give identical runs");
}

#[test]
fn adaptive_yield_reacts_to_traffic() {
    let mut m = machine(Mode::TaiChi);
    m.add_traffic(bursty_traffic(8));
    let synth = SynthCp::default();
    let mut rng = Rng::new(5);
    m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
    m.run_until(SimTime::from_secs(1));
    // Both adjustment directions exercised under mixed idle/busy.
    assert!(m.yield_ctl().increases() > 0, "false-positive feedback");
    assert!(m.yield_ctl().decreases() > 0, "sustained-idle feedback");
}

#[test]
fn util_sampling_produces_windows() {
    let mut m = machine(Mode::Baseline);
    m.add_traffic(traffic(8, 0.3));
    m.enable_util_sampling(SimDuration::from_millis(10));
    m.run_until(SimTime::from_millis(205));
    // 20 sampling points × 8 services.
    assert_eq!(m.util_samples().len(), 20 * 8);
    let mean: f64 = m.util_samples().iter().sum::<f64>() / m.util_samples().len() as f64;
    assert!((0.15..0.5).contains(&mean), "sampled mean {mean}");
}

#[test]
fn cp_work_reaches_vcpus_via_affinity_only() {
    // Transparency check at the system level: CP programs know nothing
    // about Tai Chi, yet under load they execute on vCPUs (total CP
    // throughput exceeds what 4 CP pCPUs could deliver).
    let mut m = machine(Mode::TaiChi);
    m.add_traffic(bursty_traffic_duty(8, 0.10)); // mostly-idle DP
    let synth = SynthCp {
        task_cpu_time: SimDuration::from_millis(50),
        ..SynthCp::default()
    };
    let mut rng = Rng::new(13);
    m.schedule_cp_batch(synth.workload(64, &mut rng), SimTime::ZERO);
    let horizon = SimTime::from_millis(500);
    m.run_until(horizon);
    let r = RunReport::collect(&m);
    // 64 × 50 ms = 3.2 s of CP work. In 0.5 s, 4 CP pCPUs alone supply
    // at most 2.0 s; exceeding 2.6 s requires genuine DP-idle harvest.
    let cp_seconds = r.cp_cpu_time_ns as f64 / 1e9;
    assert!(
        cp_seconds > 2.6,
        "CP consumed only {cp_seconds:.2} s — vCPU stealing broken"
    );
    assert!(r.yields > 0);
}

#[test]
fn pipeline_aware_yield_vetoes_false_positives() {
    use taichi_core::TaiChiConfig;
    let run = |flag: bool| {
        let cfg = MachineConfig {
            seed: 0x9E,
            taichi: TaiChiConfig {
                pipeline_aware_yield: flag,
                ..TaiChiConfig::default()
            },
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, Mode::TaiChi);
        m.add_traffic(bursty_traffic(8));
        let synth = SynthCp::default();
        let mut rng = Rng::new(1);
        m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_millis(400));
        let r = RunReport::collect(&m);
        (m.yield_vetoes(), r.yields, r.hw_probe_exits)
    };
    let (v_off, y_off, _) = run(false);
    let (v_on, y_on, probe_on) = run(true);
    assert_eq!(v_off, 0, "stock config never vetoes");
    assert!(v_on > 0, "pipeline signal should veto some yields");
    assert!(y_off > 0 && y_on > 0, "both configs still harvest");
    // Vetoing in-flight yields cannot create more probe evictions than
    // there are yields.
    assert!(probe_on <= y_on);
}

#[test]
fn cache_isolation_removes_pollution_surcharge() {
    use taichi_core::TaiChiConfig;
    let run = |flag: bool| {
        let cfg = MachineConfig {
            seed: 0xCA,
            taichi: TaiChiConfig {
                cache_isolation: flag,
                ..TaiChiConfig::default()
            },
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, Mode::TaiChi);
        m.add_traffic(bursty_traffic(8));
        let synth = SynthCp::default();
        let mut rng = Rng::new(2);
        m.schedule_cp_batch(synth.workload(16, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_millis(400));
        let r = RunReport::collect(&m);
        r.dp.software_latency().mean()
    };
    let polluted = run(false);
    let isolated = run(true);
    assert!(
        isolated <= polluted,
        "isolation must not add latency: {isolated} vs {polluted}"
    );
}
