//! Byte-identity harness for the pluggable scheduler-policy migration.
//!
//! The `trait Scheduler` refactor must be provably behavior-preserving:
//! for every existing [`Mode`], a trait-dispatched run has to produce
//! the same trace TSV, the same stats fingerprint, and the same
//! experiment CSV as the hardwired pre-refactor code, and the CSV must
//! not depend on the sweep worker count (1 vs 4).
//!
//! The harness renders one fingerprint line per mode into
//! `target/experiments/policy_fingerprints.tsv` (uploaded as a CI
//! artifact by the `policy-smoke` job) and, when `TAICHI_GOLDEN_OUT`
//! is set, to that path as well. The hash of those lines is pinned to
//! a constant recorded while the heap queue backend still existed and
//! matched the wheel byte for byte.
//!
//! Kept as a single `#[test]` on purpose: the policy-selection check
//! sets `TAICHI_POLICY`, a process-global environment variable.

use taichi_bench::sweep_with;
use taichi_core::machine::{Machine, Mode};
use taichi_core::metrics::RunReport;
use taichi_core::{MachineConfig, PolicyKind};
use taichi_cp::{SynthCp, TaskFactory, VmCreateRequest};
use taichi_dp::{ArrivalPattern, TrafficGen};
use taichi_hw::{CpuId, IoKind};
use taichi_sim::report::Table;
use taichi_sim::{Dist, FaultPlan, Rng, SimTime};

const SEED: u64 = 0x0E77;

/// FNV-1a over a byte string: cheap, stable content fingerprint for
/// the multi-megabyte trace TSVs (the full text never needs keeping).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
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

/// One traced full-featured run (traffic + CP batch + VM create) of a
/// pre-built machine; returns the stats fingerprint and the trace-TSV
/// content hash. The fingerprint mirrors `engine_golden.rs` so any
/// divergence shows up in the observables the reproduction contract is
/// stated in.
fn run_built(mut m: Machine) -> (Vec<u64>, u64) {
    add_bench_traffic(&mut m);
    let synth = SynthCp::default();
    let mut rng = Rng::new(SEED ^ 0x51);
    m.schedule_cp_batch(synth.workload(10, &mut rng), SimTime::ZERO);
    let factory = TaskFactory::default();
    m.schedule_vm_create(
        VmCreateRequest::at_density(0, 2, SimTime::from_millis(10)),
        &factory,
    );
    m.run_until(SimTime::from_millis(30));
    let r = RunReport::collect(&m);
    let fp = vec![
        m.events_processed(),
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
    let trace = m.trace_tsv().expect("trace was enabled");
    assert!(
        trace.lines().count() > 100,
        "trace suspiciously short — workload drifted?"
    );
    (fp, fnv64(trace.as_bytes()))
}

fn traced_config() -> MachineConfig {
    let mut cfg = MachineConfig {
        seed: SEED,
        ..MachineConfig::default()
    };
    cfg.trace.enabled = true;
    cfg
}

/// A hardwired `Mode`-selected run — the pre-refactor construction
/// path, byte-compared against the policy-selected runs.
fn run_mode(mode: Mode) -> (Vec<u64>, u64) {
    run_built(Machine::new(traced_config(), mode))
}

/// A reduced `ext_faults`-style matrix rendered to CSV exactly as the
/// experiment binaries would, fanned out over `workers` threads.
fn ext_style_csv(workers: usize) -> String {
    let cases = vec![
        (Mode::Baseline, 0.0f64),
        (Mode::TaiChi, 0.05),
        (Mode::Type2, 0.05),
    ];
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
        "policy identity matrix",
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

fn fingerprint_line(label: &str, fp: &[u64], trace_fnv: u64) -> String {
    let cells: Vec<String> = fp.iter().map(|v| v.to_string()).collect();
    format!("{label}\t{}\ttrace_fnv={trace_fnv:016x}", cells.join("\t"))
}

#[test]
fn policy_dispatch_is_byte_identical_to_hardwired_modes() {
    let mut lines: Vec<String> = Vec::new();

    // Every existing mode, trace + stats fingerprinted.
    for mode in Mode::all() {
        let (fp, trace_fnv) = run_mode(mode);
        lines.push(fingerprint_line(&mode.to_string(), &fp, trace_fnv));
    }

    // Experiment CSV: identical across worker counts.
    let csv_serial = ext_style_csv(1);
    let csv_parallel = ext_style_csv(4);
    assert!(csv_serial.lines().count() > 2);
    assert_eq!(
        csv_serial, csv_parallel,
        "experiment CSV must be worker-count invariant"
    );
    lines.push(format!(
        "ext-csv\tcsv_fnv={:016x}",
        fnv64(csv_serial.as_bytes())
    ));

    let modes_tsv = lines.join("\n") + "\n";
    let got = fnv64(modes_tsv.as_bytes());
    assert_eq!(
        got, 0x4179_659f_adab_0d91,
        "per-mode fingerprint lines moved — got {got:#018x}:\n{modes_tsv}"
    );

    // ----------------------------------------------------------------
    // Policy selection equality. Selecting a policy — through
    // `MachineConfig::policy` or `TAICHI_POLICY` — must reproduce the
    // canonical mode's run byte-for-byte, from any starting mode.
    // ----------------------------------------------------------------
    assert!(
        std::env::var_os("TAICHI_POLICY").is_none(),
        "harness owns TAICHI_POLICY"
    );
    for kind in PolicyKind::all() {
        let reference = run_mode(kind.canonical_mode());

        // Explicit config selection: from the canonical mode (kept
        // as-is) and from every mode whose own policy disagrees (all
        // re-resolve to the selected policy's canonical mode). Modes
        // whose policy already matches keep their richer shape — the
        // vdp check below pins that case.
        let froms = Mode::all()
            .into_iter()
            .filter(|&m| m == kind.canonical_mode() || PolicyKind::for_mode(m) != kind);
        for from in froms {
            let cfg = MachineConfig {
                policy: Some(kind),
                ..traced_config()
            };
            assert_eq!(
                run_built(Machine::new(cfg, from)),
                reference,
                "cfg.policy={kind} from mode {from} must match {}",
                kind.canonical_mode()
            );
        }

        // Environment selection with the config left at `None`.
        std::env::set_var("TAICHI_POLICY", kind.to_string());
        let via_env = run_built(Machine::new(traced_config(), Mode::Baseline));
        std::env::remove_var("TAICHI_POLICY");
        assert_eq!(
            via_env,
            reference,
            "TAICHI_POLICY={kind} must match mode {}",
            kind.canonical_mode()
        );
    }

    // Selecting a policy that already matches the mode's own keeps the
    // richer mode: `--policy taichi` on a vDP run stays taichi-vdp.
    let vdp_ref = run_mode(Mode::TaiChiVdp);
    let cfg = MachineConfig {
        policy: Some(PolicyKind::TaiChi),
        ..traced_config()
    };
    assert_eq!(
        run_built(Machine::new(cfg, Mode::TaiChiVdp)),
        vdp_ref,
        "matching policy selection must not flatten taichi-vdp"
    );
    lines.push("policy-selection\tok".to_string());

    // Persist the fingerprints for the CI artifact and for manual
    // before/after diffs across refactors.
    let body = lines.join("\n") + "\n";
    let out = taichi_bench::results_dir().join("policy_fingerprints.tsv");
    std::fs::write(&out, &body).expect("write fingerprint artifact");
    if let Ok(extra) = std::env::var("TAICHI_GOLDEN_OUT") {
        std::fs::write(&extra, &body).expect("write golden copy");
    }
}
