//! Micro-benchmarks of the Tai Chi scheduler hot paths.
//!
//! These are the operations on the per-packet / per-yield fast paths;
//! the paper's "negligible scheduling overhead" claim rests on all of
//! them being nanosecond-scale. Uses the in-repo timing loop
//! ([`taichi_bench::bench`]) so the workspace builds offline.

use std::hint::black_box;

use taichi_bench::bench;
use taichi_core::orchestrator::IpiOrchestrator;
use taichi_core::probe_sw::AdaptiveYield;
use taichi_core::slice::AdaptiveSlice;
use taichi_core::vcpu_sched::VcpuScheduler;
use taichi_hw::{CpuId, HwWorkloadProbe, IpiMessage, IrqVector};
use taichi_os::{Kernel, KernelConfig, SoftirqKind};
use taichi_sim::{EventQueue, Histogram, Rng, SimDuration, SimTime};
use taichi_virt::VmExitReason;

fn main() {
    let mut probe = HwWorkloadProbe::new(12);
    probe.set_state(CpuId(3), taichi_hw::CpuExecState::VState);
    bench("hw_probe_check_on_packet", || {
        probe.check_on_packet(black_box(CpuId(3)))
    });

    let mut y = AdaptiveYield::new(12, 200, 25, 6400);
    bench("adaptive_yield_update", || {
        y.on_vm_exit(black_box(CpuId(2)), VmExitReason::SliceExpired);
        y.on_vm_exit(black_box(CpuId(2)), VmExitReason::HwProbe);
    });

    let mut s = AdaptiveSlice::new(
        12,
        SimDuration::from_micros(50),
        SimDuration::from_micros(1600),
    );
    bench("adaptive_slice_update", || {
        s.on_vm_exit(black_box(CpuId(2)), VmExitReason::SliceExpired);
        s.on_vm_exit(black_box(CpuId(2)), VmExitReason::HwProbe);
    });

    let cp: Vec<CpuId> = (8..12).map(CpuId).collect();
    let mut kernel = Kernel::new(KernelConfig::default(), &cp);
    let mut orch = IpiOrchestrator::new(12);
    orch.register_vcpus(&mut kernel, 8, SimTime::ZERO);
    let msg = IpiMessage {
        src: CpuId(8),
        dst: CpuId(14),
        vector: IrqVector::RESCHEDULE,
    };
    bench("ipi_route", || orch.route(black_box(msg), |i| i % 2 == 0));

    // The vCPU pick, end to end: the round-robin scan reading real
    // kernel state (descheduled check + pending softirq work on the
    // back half of the pool).
    let mut pick_kernel = Kernel::new(KernelConfig::default(), &cp);
    let mut pick_orch = IpiOrchestrator::new(12);
    let vcpu_ids = pick_orch.register_vcpus(&mut pick_kernel, 8, SimTime::ZERO);
    for &v in &vcpu_ids[4..] {
        pick_kernel.softirqs().raise(v, SoftirqKind::TaiChiVcpu);
    }
    let mut vsched = VcpuScheduler::new(&vcpu_ids, 12);
    bench("vcpu_pick", || vsched.pick_vcpu(black_box(&pick_kernel)));

    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = 0u64;
    bench("event_queue_push_pop", || {
        t += 100;
        q.schedule(SimTime::from_nanos(t), t);
        black_box(q.pop())
    });

    let mut h = Histogram::new();
    let mut rng = Rng::new(1);
    bench("histogram_record", || {
        h.record(black_box(rng.next_below(1_000_000)))
    });

    let mut rng = Rng::new(42);
    bench("rng_next_u64", || black_box(rng.next_u64()));
}
