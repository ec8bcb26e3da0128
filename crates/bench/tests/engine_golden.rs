//! Engine golden anchors: seeded full-featured machine runs whose
//! exports — the scheduler trace TSV, the run-report fingerprint and
//! an `ext_*`-style experiment CSV — must hash to recorded constants.
//!
//! The constants were recorded while the binary-heap queue backend and
//! the dispatch-everything (skip-off) driver still existed and matched
//! these runs byte for byte, so they pin the dispatch order and the
//! logical event ledger (`dispatched + skipped`) those oracles defined.
//!
//! Two runs:
//! - the default machine (traffic + CP batch + VM create), whose trace
//!   must not move when tracing is toggled and whose CSV must not move
//!   with the sweep worker count;
//! - the same shape under every fault class with a large timer jitter,
//!   which drives the skip layer through the jitter path (a cancelled
//!   timer must not consume a draw its dispatched twin would not).
//!
//! Both runs advance in 1 ms `run_until` chunks and pin the logical
//! event count read after every chunk (the ledger). Timers superseded
//! at the very instant a chunk ends must already count at that read,
//! so an off-by-one in when the skip layer settles a cancelled
//! deadline moves the ledger hash even when the end-of-run totals
//! agree.

use taichi_bench::sweep_with;
use taichi_core::machine::{Machine, Mode};
use taichi_core::metrics::RunReport;
use taichi_core::MachineConfig;
use taichi_cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::report::Table;
use taichi_sim::{Dist, FaultPlan, Rng, SimTime};

const SEED: u64 = 0x0E77;
const FAULT_SEED: u64 = 0x5C1F;

/// Every fault class active, with a deliberately large timer jitter so
/// virtually every kernel rearm takes a perturbed deadline.
const FAULT_SPEC: &str = "all=0.05, jitter_ns=1500, storm_us=4000, storm_tasks=4";

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs `m` to `horizon_ms` in 1 ms chunks, returning the logical
/// event count read after each chunk.
fn run_chunked(m: &mut Machine, horizon_ms: u64) -> Vec<u64> {
    (1..=horizon_ms)
        .map(|ms| {
            m.run_until(SimTime::from_millis(ms));
            m.events_processed()
        })
        .collect()
}

fn fp_hash(fp: &[u64]) -> u64 {
    let text: String = fp.iter().map(|v| format!("{v}\t")).collect();
    fnv64(text.as_bytes())
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

/// One default-config run, optionally traced: the report fingerprint
/// (led by the logical event count and the fast-forwarded poll ledger),
/// the per-chunk event ledger and the trace TSV.
fn run_default(trace: bool) -> (Vec<u64>, Vec<u64>, Option<String>) {
    let mut cfg = MachineConfig {
        seed: SEED,
        ..MachineConfig::default()
    };
    cfg.trace.enabled = trace;
    let mut m = Machine::new(cfg, Mode::TaiChi);
    add_bench_traffic(&mut m);
    let mut rng = Rng::new(SEED ^ 0x51);
    m.schedule_cp_batch(SynthCp::default().workload(10, &mut rng), SimTime::ZERO);
    m.schedule_vm_create(
        VmCreateRequest::at_density(0, 2, SimTime::from_millis(10)),
        &TaskFactory::default(),
    );
    let ledger = run_chunked(&mut m, 60);
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
    (fp, ledger, m.trace_tsv())
}

/// A reduced `ext_faults`-style matrix rendered to CSV exactly as the
/// experiment binary would, fanned out over `workers` threads.
fn ext_style_csv(workers: usize) -> String {
    let cases = vec![(Mode::Baseline, 0.0f64), (Mode::TaiChi, 0.05)];
    let results = sweep_with(workers, cases.clone(), |(mode, rate)| {
        let cfg = MachineConfig {
            seed: SEED,
            faults: FaultPlan::uniform(rate),
            ..MachineConfig::default()
        };
        let mut m = Machine::new(cfg, mode);
        add_bench_traffic(&mut m);
        let mut rng = Rng::new(SEED ^ 0xFA);
        m.schedule_cp_batch(SynthCp::default().workload(12, &mut rng), SimTime::ZERO);
        m.run_until(SimTime::from_millis(20));
        let r = RunReport::collect(&m);
        let h = m.fault_health();
        (
            m.events_processed(),
            r.dp_pps(),
            r.dp.total_latency().percentile(99.0),
            h.ipi_resends + h.wakeup_rearms + h.softirq_rearms + h.yield_clamps,
        )
    });
    let mut table = Table::new(
        "engine golden matrix",
        &["mode", "rate", "events", "pps", "dp p99 (ns)", "recoveries"],
    );
    for ((mode, rate), (events, pps, p99, recoveries)) in cases.iter().zip(&results) {
        table.row(&[
            mode.to_string(),
            format!("{rate:.2}"),
            events.to_string(),
            format!("{pps:.3}"),
            p99.to_string(),
            recoveries.to_string(),
        ]);
    }
    table.to_csv()
}

/// The traced fault-plan run: `(events skipped, fingerprint, ledger,
/// trace)`.
fn run_faulted() -> (u64, Vec<u64>, Vec<u64>, String) {
    let mut cfg = MachineConfig {
        seed: FAULT_SEED,
        faults: FaultPlan::default()
            .apply_spec(FAULT_SPEC)
            .expect("valid fault spec"),
        ..MachineConfig::default()
    };
    cfg.trace.enabled = true;
    let mut m = Machine::new(cfg, Mode::TaiChi);
    add_bench_traffic(&mut m);
    let mut rng = Rng::new(FAULT_SEED ^ 0x17);
    m.schedule_cp_batch(SynthCp::default().workload(12, &mut rng), SimTime::ZERO);
    m.schedule_vm_create(
        VmCreateRequest::at_density(0, 2, SimTime::from_millis(8)),
        &TaskFactory::default(),
    );
    let ledger = run_chunked(&mut m, 50);

    // The skip ledger balances within the run: the logical event count
    // is every dispatched handler plus every cancelled timer whose
    // deadline the clock passed.
    assert_eq!(
        m.events_processed(),
        m.events_dispatched() + m.events_skipped(),
        "skip ledger out of balance"
    );
    let r = RunReport::collect(&m);
    let h = m.fault_health();
    let faults = m.fault().expect("fault layer active");
    let fp = vec![
        m.events_processed(),
        m.events_fast_forwarded(),
        faults.stats().timer_jitters,
        faults.stats().total(),
        h.ipi_resends,
        h.wakeup_rearms,
        h.softirq_rearms,
        h.yield_clamps,
        r.dp.packets(),
        r.dp.total_latency().mean().to_bits(),
        r.dp.total_latency().percentile(99.9),
        r.cp_finished,
        r.cp_turnaround.mean().to_bits(),
        m.posted_interrupts(),
    ];
    (
        m.events_skipped(),
        fp,
        ledger,
        m.trace_tsv().expect("trace enabled"),
    )
}

#[test]
fn default_run_matches_golden_anchors() {
    let (stats, ledger, _) = run_default(false);
    let (traced_stats, traced_ledger, trace) = run_default(true);
    let trace = trace.expect("trace was enabled");
    assert_eq!(stats, traced_stats, "tracing must not perturb the run");
    assert_eq!(ledger, traced_ledger, "tracing must not perturb the ledger");
    assert!(
        trace.lines().count() > 100,
        "trace suspiciously short — workload drifted?"
    );
    let csv_serial = ext_style_csv(1);
    assert!(csv_serial.lines().count() > 2);
    assert_eq!(
        csv_serial,
        ext_style_csv(4),
        "experiment CSV must be worker-count invariant"
    );
    let got = (
        fnv64(trace.as_bytes()),
        fp_hash(&stats),
        fp_hash(&ledger),
        fnv64(csv_serial.as_bytes()),
    );
    assert_eq!(
        got,
        (
            0x0066_7a82_4d24_a24c,
            0x2f66_f9c3_5949_a52d,
            0x1b0b_ef77_e85f_26fc,
            0x8faf_5917_1102_154a
        ),
        "(trace, fingerprint, ledger, csv) hashes moved — got \
         ({:#018x}, {:#018x}, {:#018x}, {:#018x})",
        got.0,
        got.1,
        got.2,
        got.3
    );
}

#[test]
fn fault_plan_run_matches_golden_anchors() {
    let (skipped, fp, ledger, trace) = run_faulted();
    assert!(fp[2] > 0, "timer jitter must actually fire in this run");
    assert!(skipped > 0, "the skip layer must cancel some timers");
    let got = (fnv64(trace.as_bytes()), fp_hash(&fp), fp_hash(&ledger));
    assert_eq!(
        got,
        (
            0xacf5_0620_24da_49f5,
            0x8287_8521_8308_d5c5,
            0x3f31_f1bd_2464_5e0e
        ),
        "(trace, fingerprint, ledger) hashes moved — got ({:#018x}, {:#018x}, {:#018x})",
        got.0,
        got.1,
        got.2
    );
}
