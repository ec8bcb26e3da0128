//! Tenant-identity contract (DESIGN.md §3.11): a machine configured
//! with `tenants.count == 1` must be **byte-identical** to the default
//! (pre-tenant) engine — no arbiter, no per-tenant recorders, zero
//! extra RNG draws — no matter what the other tenant knobs say, for
//! every exportable artifact: the scheduler trace TSV, the run-report
//! stats fingerprint, and an `ext_*`-style experiment CSV (which must
//! also be invariant to the sweep worker count, 1 vs. 4). The default
//! run's artifacts are pinned to hashes recorded while the heap queue
//! backend and the skip-off driver still existed and matched them.
//!
//! A second test pins the DRR fairness property at machine level:
//! equal weights + equal demand ⇒ equal service, within one quantum.

use taichi_bench::sweep_with;
use taichi_core::machine::{Machine, Mode};
use taichi_core::metrics::RunReport;
use taichi_core::{MachineConfig, TenantConfig};
use taichi_cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind, TenantId};
use taichi_sim::report::Table;
use taichi_sim::{Dist, Rng, SimTime};

const SEED: u64 = 0x7E4A;

/// Single-tenant config under test: `count == 1`, but every other
/// tenant knob deliberately off-default — none of them may matter.
fn single_tenant_cfg() -> TenantConfig {
    TenantConfig {
        count: 1,
        weights: vec![7, 3, 1],
        quantum: 9_000,
        ring_capacity: 8,
    }
}

fn add_bench_traffic(m: &mut Machine) {
    let dp = m.services().len() as u32;
    m.add_traffic(TrafficGen::new(
        ArrivalPattern::OnOff {
            on_us: Dist::constant(200.0),
            off_us: Dist::exponential(400.0),
            burst_gap_us: Dist::exponential(1.5 / 0.9 / dp as f64),
        },
        Dist::constant(512.0),
        IoKind::Network,
        (0..dp).map(CpuId).collect(),
    ));
}

/// One full-featured run (traffic + CP batch + VM create), with or
/// without the explicit single-tenant config, returning the stats
/// fingerprint and trace TSV — the same observables the engine golden
/// anchors are stated in.
fn run_machine(tenant_cfg: bool, trace: bool) -> (Vec<u64>, Option<String>) {
    let mut cfg = MachineConfig {
        seed: SEED,
        ..MachineConfig::default()
    };
    if tenant_cfg {
        cfg.tenants = single_tenant_cfg();
    }
    cfg.trace.enabled = trace;
    let mut m = Machine::new(cfg, Mode::TaiChi);
    assert_eq!(m.tenant_count(), 1);
    add_bench_traffic(&mut m);
    let synth = SynthCp::default();
    let mut rng = Rng::new(SEED ^ 0x51);
    m.schedule_cp_batch(synth.workload(10, &mut rng), SimTime::ZERO);
    let factory = TaskFactory::default();
    m.schedule_vm_create(
        VmCreateRequest::at_density(0, 2, SimTime::from_millis(10)),
        &factory,
    );
    m.run_until(SimTime::from_millis(60));
    // Single-tenant machines expose no tenant artifacts at all.
    assert!(m.tenant_totals().is_empty());
    assert!(m.drain_tenant_recorders().is_empty());
    let r = RunReport::collect(&m);
    let fp = vec![
        m.events_processed(),
        m.events_fast_forwarded(),
        r.dp.packets(),
        r.dp.total_latency().mean().to_bits(),
        r.dp.total_latency().percentile(99.9),
        r.cp_finished,
        r.cp_turnaround.mean().to_bits(),
        r.cp_spin_time_ns,
        r.yields,
        r.hw_probe_exits,
        r.slice_exits,
        r.lock_reschedules,
        r.vm_startups.first().map(|d| d.as_nanos()).unwrap_or(0),
        m.orchestrator().woken_count(),
        m.posted_interrupts(),
    ];
    (fp, m.trace_tsv())
}

/// An `ext_*`-style sweep rendered to CSV, fanned over `workers`
/// threads, with the explicit single-tenant config applied or not.
fn ext_style_csv(tenant_cfg: bool, workers: usize) -> String {
    let cases = vec![(Mode::Baseline, 0u64), (Mode::TaiChi, 1)];
    let results = sweep_with(workers, cases.clone(), |(mode, salt)| {
        let mut cfg = MachineConfig {
            seed: SEED ^ salt,
            ..MachineConfig::default()
        };
        if tenant_cfg {
            cfg.tenants = single_tenant_cfg();
        }
        let mut m = Machine::new(cfg, mode);
        add_bench_traffic(&mut m);
        let mut rng = Rng::new(SEED ^ 0xFA);
        m.schedule_cp_batch(SynthCp::default().workload(12, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_millis(20));
        let r = RunReport::collect(&m);
        (
            m.events_processed(),
            r.dp_pps(),
            r.dp.total_latency().percentile(99.0),
        )
    });
    let mut table = Table::new(
        "tenant identity matrix",
        &["mode", "events", "pps", "dp p99 (ns)"],
    );
    for ((mode, _), (events, pps, p99)) in cases.iter().zip(&results) {
        table.row(&[
            mode.to_string(),
            events.to_string(),
            format!("{pps:.3}"),
            p99.to_string(),
        ]);
    }
    table.to_csv()
}

struct Artifacts {
    stats: Vec<u64>,
    trace: String,
    csv_serial: String,
    csv_parallel: String,
}

fn collect(tenant_cfg: bool) -> Artifacts {
    let (stats, _) = run_machine(tenant_cfg, false);
    let (traced_stats, trace) = run_machine(tenant_cfg, true);
    assert_eq!(
        stats, traced_stats,
        "tenant_cfg={tenant_cfg}: tracing must not perturb the run"
    );
    Artifacts {
        stats,
        trace: trace.expect("trace was enabled"),
        csv_serial: ext_style_csv(tenant_cfg, 1),
        csv_parallel: ext_style_csv(tenant_cfg, 4),
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn single_tenant_config_is_byte_identical_to_default() {
    // Canonical: default config, no tenant knobs touched.
    let canonical = collect(false);
    assert!(
        canonical.trace.lines().count() > 100,
        "trace suspiciously short — workload drifted?"
    );
    assert!(canonical.csv_serial.lines().count() > 2);
    let stats_text: String = canonical.stats.iter().map(|v| format!("{v}\t")).collect();
    let got = (
        fnv64(canonical.trace.as_bytes()),
        fnv64(stats_text.as_bytes()),
        fnv64(canonical.csv_serial.as_bytes()),
    );
    assert_eq!(
        got,
        (
            0xc67b_e012_666b_2c5a,
            0x6380_1964_6e1c_e38b,
            0xa57f_6754_93e3_37ab
        ),
        "(trace, fingerprint, csv) hashes moved — got ({:#018x}, {:#018x}, {:#018x})",
        got.0,
        got.1,
        got.2
    );

    let tenants = collect(true);
    assert_eq!(
        canonical.trace, tenants.trace,
        "trace TSV differs: default vs tenants=1"
    );
    assert_eq!(
        canonical.stats, tenants.stats,
        "stats fingerprint differs: default vs tenants=1"
    );
    for a in [&canonical, &tenants] {
        assert_eq!(
            a.csv_serial, a.csv_parallel,
            "CSV must be worker-count invariant"
        );
    }
    assert_eq!(
        canonical.csv_serial, tenants.csv_serial,
        "experiment CSV differs: default vs tenants=1"
    );
}

/// Machine-level DRR fairness: two tenants with equal weights and
/// equal (saturating) demand on disjoint DP CPUs split the shared
/// ingest port evenly — issued byte totals match within one quantum's
/// worth of bytes.
#[test]
fn equal_weight_tenants_split_the_port_within_one_quantum() {
    let quantum = 1_500u64;
    let mut cfg = MachineConfig {
        seed: SEED,
        tenants: TenantConfig {
            count: 2,
            weights: vec![1, 1],
            quantum,
            ring_capacity: 1_024,
        },
        ..MachineConfig::default()
    };
    // Narrow the port so it saturates: 512 B ≈ 717 ns of port time per
    // packet while each tenant offers one packet per ~350 ns.
    cfg.accel.ns_per_byte = 1.4;
    let mut m = Machine::new(cfg, Mode::TaiChi);
    let dp = m.services().len() as u32;
    let half = (dp / 2).max(1);
    for (t, cpus) in [
        (0u32, (0..half).map(CpuId).collect::<Vec<_>>()),
        (1u32, (half..dp).map(CpuId).collect::<Vec<_>>()),
    ] {
        m.add_traffic(
            TrafficGen::new(
                ArrivalPattern::OpenLoop {
                    gap_us: Dist::constant(0.35),
                },
                Dist::constant(512.0),
                IoKind::Network,
                cpus,
            )
            .with_tenant(TenantId(t)),
        );
    }
    m.run_until(SimTime::from_millis(10));
    taichi_core::audit::assert_invariants(&m, "equal_weight_split");
    let stats = m.accel().tenant_ingress_stats();
    assert_eq!(stats.len(), 2);
    let (b0, b1) = (stats[0].1, stats[1].1);
    assert!(b0 > 0 && b1 > 0, "both tenants must be served");
    assert!(
        b0.abs_diff(b1) <= quantum,
        "equal-weight equal-demand tenants diverged by more than one \
         quantum: {b0} vs {b1} bytes"
    );
}
