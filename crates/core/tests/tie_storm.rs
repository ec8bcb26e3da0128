//! Tie-storm golden identity: configurations that force many events
//! onto the same nanosecond, so the engine's global `(time, seq)` tie
//! order is exercised across every event source at once — packet
//! arrivals from several generators, accelerator deliveries, DP burst
//! completions, and queue timers (vCPU entries/exits, slice expiries,
//! kernel decisions, idle notifications).
//!
//! Everything runs on an integer-microsecond grid: constant-gap
//! generators, a zero-serialization accelerator (`issue_gap = 0`,
//! `ns_per_byte = 0`) with a 3 µs window, constant 1 µs per-packet
//! processing, 1 µs empty polls, and a 1 µs softirq + VM-enter path.
//! Cells cover one and two tenants (the DRR arbiter path), with and
//! without an accelerator-stall fault plan.
//!
//! The expected hashes were recorded from the engine that dispatched
//! every packet-path step through the global event queue. Any change
//! to dispatch order — including the order of same-time ties — moves
//! the trace hash; any change to the ledger of dispatched vs. skipped
//! events moves the fingerprint hash.

use taichi_core::machine::{Machine, Mode};
use taichi_core::metrics::RunReport;
use taichi_core::{MachineConfig, TenantConfig};
use taichi_cp::SynthCp;
use taichi_dp::{ArrivalPattern, Spray, TrafficGen};
use taichi_hw::{CpuId, IoKind, TenantId};
use taichi_sim::{Dist, FaultPlan, Rng, SimDuration, SimTime};

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn tie_cfg(tenants: u32, stall: bool) -> MachineConfig {
    let mut cfg = MachineConfig {
        seed: 0x71E5,
        ..MachineConfig::default()
    };
    cfg.trace.enabled = true;
    cfg.trace.capacity = 1 << 20;
    cfg.accel.issue_gap = SimDuration::ZERO;
    cfg.accel.ns_per_byte = 0.0;
    cfg.accel.preprocess = SimDuration::from_micros(2);
    cfg.accel.transfer = SimDuration::from_micros(1);
    cfg.dp.proc_cost_ns = Dist::constant(1_000.0);
    cfg.dp.poll_iteration = SimDuration::from_micros(1);
    cfg.dp.pollution_tax = 1.0;
    cfg.taichi.initial_yield_threshold = 4;
    cfg.taichi.min_yield_threshold = 2;
    cfg.taichi.max_yield_threshold = 64;
    cfg.taichi.softirq_latency = SimDuration::from_nanos(200);
    if tenants > 1 {
        cfg.tenants = TenantConfig {
            count: tenants,
            weights: vec![2, 1],
            quantum: 1_024,
            ring_capacity: 16,
        };
    }
    if stall {
        cfg.faults = FaultPlan {
            accel_stall_rate: 0.2,
            accel_stall: SimDuration::from_micros(2),
            ..FaultPlan::default()
        };
    }
    cfg
}

fn constant_gen(gap_us: f64, targets: &[u32], tenant: u32) -> TrafficGen {
    TrafficGen::new(
        ArrivalPattern::OpenLoop {
            gap_us: Dist::constant(gap_us),
        },
        Dist::constant(512.0),
        IoKind::Network,
        targets.iter().copied().map(CpuId).collect(),
    )
    .with_spray(Spray::RoundRobin)
    .with_tenant(TenantId(tenant))
}

/// One traced run: returns `(trace TSV hash, fingerprint hash)`.
fn run(tenants: u32, stall: bool) -> (u64, u64) {
    let mut m = Machine::new(tie_cfg(tenants, stall), Mode::TaiChi);
    // Three generators on one grid: the 1 µs and 2 µs streams land on
    // the same instants every 2 µs, and the 3 µs on/off stream joins
    // every 6 µs — same-time arrivals, and (3 µs window, 1 µs service)
    // same-time deliveries and burst completions.
    m.add_traffic(constant_gen(2.0, &[0, 1, 2, 3], 0));
    m.add_traffic(constant_gen(1.0, &[0, 2, 4, 6], tenants - 1));
    m.add_traffic(
        TrafficGen::new(
            ArrivalPattern::OnOff {
                on_us: Dist::constant(30.0),
                off_us: Dist::constant(60.0),
                burst_gap_us: Dist::constant(3.0),
            },
            Dist::constant(256.0),
            IoKind::Network,
            (0..8).map(CpuId).collect(),
        )
        .with_spray(Spray::RoundRobin),
    );
    let mut rng = Rng::new(0x71E5);
    m.schedule_cp_batch(SynthCp::default().workload(6, &mut rng), SimTime::ZERO);
    m.run_until(SimTime::from_millis(10));

    let tsv = m.trace_tsv().expect("tracing is on");
    let r = RunReport::collect(&m);
    let mut fp = vec![
        m.events_processed(),
        m.events_dispatched(),
        m.events_skipped(),
        m.events_fast_forwarded(),
        m.accel().packets_ingested(),
        m.dp_inflight_total(),
        r.dp.packets(),
        r.dp_dropped,
        r.dp.total_latency().mean().to_bits(),
        r.dp.total_latency().percentile(99.9),
        r.cp_finished,
        r.cp_turnaround.mean().to_bits(),
        r.yields,
        r.hw_probe_exits,
        r.slice_exits,
        r.halt_exits,
        m.yield_vetoes(),
        m.posted_interrupts(),
    ];
    for (issued, bytes, lost, processed, drops) in m.tenant_totals() {
        fp.extend([issued, bytes, lost, processed, drops]);
    }
    let fp_text: String = fp.iter().map(|v| format!("{v}\t")).collect();
    (fnv64(tsv.as_bytes()), fnv64(fp_text.as_bytes()))
}

fn check(tenants: u32, stall: bool, expected: (u64, u64)) {
    let got = run(tenants, stall);
    assert_eq!(
        got, expected,
        "tenants={tenants} stall={stall}: (trace hash, fingerprint hash) \
         moved — got ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn single_tenant_tie_storm() {
    check(1, false, (0x65a1_3344_052e_9c5e, 0x1bd3_2ca9_1517_b875));
}

#[test]
fn single_tenant_tie_storm_with_accel_stalls() {
    check(1, true, (0x1bc3_8db4_616c_0f9d, 0x5b05_8ccf_dfdc_f43e));
}

#[test]
fn two_tenant_tie_storm() {
    check(2, false, (0x84c0_5ca4_22c2_900c, 0x717b_2084_5ead_3769));
}

#[test]
fn two_tenant_tie_storm_with_accel_stalls() {
    check(2, true, (0x1513_745a_b809_a1db, 0x8ae6_77d9_8be6_4d81));
}
