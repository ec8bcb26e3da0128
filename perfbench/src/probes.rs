//! Layer probes: the benchmark replays one layer's public operation in
//! a tight loop, shaped like the workload, and times it. Each probe
//! reports the median of several timed batches in host nanoseconds per
//! operation.

use std::hint::black_box;
use std::time::Instant;

use taichi_dp::{DpService, DpServiceConfig, LatencyRecorder, TrafficGen};
use taichi_hw::{
    Accelerator, AcceleratorConfig, CpuId, HwWorkloadProbe, IoKind, Packet, PacketId, TenantId,
};
use taichi_os::{ActionBuf, CpuSet, Kernel, KernelConfig, Program};
use taichi_sim::{Dist, EventQueue, EventToken, Rng, SimDuration, SimTime};

use crate::machine::{dp_cpus, Shape};
use crate::{median, Scale};

/// Timed batches per probe; the probe reports their median.
const BATCHES: usize = 7;

/// Host nanoseconds per operation of each layer probe.
#[derive(Clone, Debug)]
pub(crate) struct Probes {
    /// One event lifecycle in `EventQueue` (schedule, then pop or
    /// cancel) at the workload's slab depth and cancel ratio.
    pub queue_ns_per_op: f64,
    /// `TrafficGen::next_packet` with the workload's arrival process.
    pub gen_ns: f64,
    /// `DpService::enqueue` plus its share of `process_burst`
    /// (which records each packet's latency).
    pub burst_ns: f64,
    /// `LatencyRecorder::record` alone.
    pub record_ns: f64,
    /// `Accelerator::ingest`.
    pub accel_ns: f64,
    /// `Accelerator::stage` plus `issue_next` through the two-tenant
    /// 3:1 DRR arbiter of the fleet workload.
    pub accel_issue_ns: f64,
    /// `Kernel::decide` rotating two compute threads on one CPU.
    pub decide_ns: f64,
}

/// Runs `op` `n` times per batch and returns the median ns per call.
pub(crate) fn per_op(n: u64, mut op: impl FnMut(u64)) -> f64 {
    for i in 0..n / 4 {
        op(i);
    }
    let mut ns = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..n {
            op(i);
            i += 1;
        }
        ns.push(t.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&ns)
}

impl Probes {
    pub(crate) fn measure(
        shape: Shape,
        seed: u64,
        slab_depth: usize,
        cancel_ratio: f64,
        scale: Scale,
    ) -> Probes {
        let n = match scale {
            Scale::Full => 100_000,
            Scale::Tiny => 1_000,
        };
        Probes {
            queue_ns_per_op: queue(seed, slab_depth, cancel_ratio, n),
            gen_ns: generator(shape, seed, n),
            burst_ns: burst(seed, n),
            record_ns: record(n),
            accel_ns: accel(n),
            accel_issue_ns: accel_issue(n),
            decide_ns: decide(n),
        }
    }
}

fn queue(seed: u64, depth: usize, cancel_ratio: f64, n: u64) -> f64 {
    // Deadlines up to 100 us ahead: the span where the machine's
    // packet and timer events land.
    const SPAN_NS: u64 = 100_000;
    let mut rng = Rng::stream(seed, 0x0051);
    let plan: Vec<(u64, bool)> = (0..4096)
        .map(|_| (1 + rng.next_below(SPAN_NS), rng.chance(cancel_ratio)))
        .collect();
    let mut q: EventQueue<u64> = EventQueue::new();
    q.prewarm();
    for i in 0..depth.max(1) as u64 {
        q.schedule(SimTime::from_nanos(plan[i as usize % plan.len()].0), i);
    }
    let mut now = 0;
    let mut victim: Option<EventToken> = None;
    per_op(n, |i| {
        let (offset, cancel) = plan[i as usize % plan.len()];
        if cancel {
            // A timer superseded before it fires: schedule, then
            // cancel the previous such timer.
            let tok = q.schedule(SimTime::from_nanos(now + offset), i);
            if let Some(old) = victim.replace(tok) {
                black_box(q.cancel(old));
            }
        } else {
            let (t, _) = q.pop().expect("the queue is kept at depth");
            now = t.as_nanos();
            q.schedule(SimTime::from_nanos(now + offset), i);
        }
    })
}

fn generator(shape: Shape, seed: u64, n: u64) -> f64 {
    let mut gen = TrafficGen::new(
        shape.arrivals(),
        Dist::constant(512.0),
        IoKind::Network,
        dp_cpus(),
    );
    let mut rng = Rng::stream(seed, 0x6E);
    per_op(n, |_| {
        black_box(gen.next_packet(&mut rng));
    })
}

/// A packet that has crossed the accelerator at `t`.
fn delivered(id: u64, t: SimTime) -> Packet {
    let mut p = Packet::new(PacketId(id), IoKind::Network, 512, CpuId(0), 0, t);
    p.preprocessed_at = Some(t);
    p.delivered_at = Some(t);
    p
}

fn burst(seed: u64, n: u64) -> f64 {
    let cfg = DpServiceConfig::default();
    let burst = cfg.burst.max(1) as u64;
    let mut svc = DpService::new(CpuId(0), cfg);
    let mut rng = Rng::stream(seed, 0xB5);
    let mut t = SimTime::ZERO;
    // One operation delivers a whole burst and processes it, so the
    // per-packet cost is the batch time over `burst` packets.
    per_op(n / burst, |i| {
        for k in 0..burst {
            svc.enqueue(delivered(i * burst + k, t), t);
        }
        t = svc
            .process_burst(t, &mut rng)
            .expect("a burst was just enqueued");
    }) / burst as f64
}

fn record(n: u64) -> f64 {
    let mut rec = LatencyRecorder::new();
    let mut p = delivered(0, SimTime::ZERO);
    per_op(n, |i| {
        // Latencies spread over the histogram's buckets.
        p.completed_at = Some(SimTime::from_nanos(500 + (i * 7919) % 100_000));
        rec.record(&p);
    })
}

fn accel(n: u64) -> f64 {
    let mut a = Accelerator::new(AcceleratorConfig::default());
    let mut probe = HwWorkloadProbe::new(16);
    let mut t = 0;
    per_op(n, |i| {
        t += 50;
        let mut p = Packet::new(
            PacketId(i),
            IoKind::Network,
            512,
            CpuId((i % 8) as u32),
            0,
            SimTime::from_nanos(t),
        );
        black_box(a.ingest(&mut p, SimTime::from_nanos(t), &mut probe));
    })
}

fn accel_issue(n: u64) -> f64 {
    let tenants = Shape::fleet_tenants();
    let mut a = Accelerator::new(AcceleratorConfig::default());
    a.enable_tenants(
        &tenants.effective_weights(),
        tenants.quantum,
        tenants.ring_capacity,
    );
    let mut probe = HwWorkloadProbe::new(16);
    // One operation stages a packet for each tenant and issues both
    // in DRR order at the port's pace.
    per_op(n / 2, |i| {
        for t in 0..2 {
            let id = 2 * i + t;
            let p = Packet::new(
                PacketId(id),
                IoKind::Network,
                512,
                CpuId((id % 8) as u32),
                0,
                a.port_free(),
            )
            .with_tenant(TenantId(t as u32));
            a.stage(p);
        }
        while let Some(x) = a.issue_next(a.port_free(), &mut probe) {
            black_box(x);
        }
    }) / 2.0
}

fn decide(n: u64) -> f64 {
    let cpus: Vec<CpuId> = (0..4).map(CpuId).collect();
    let mut kernel = Kernel::new(KernelConfig::default(), &cpus);
    let mut buf = ActionBuf::new();
    for _ in 0..2 {
        let prog = Program::new().compute(SimDuration::from_secs(10_000_000));
        buf.clear();
        kernel.spawn(prog, CpuSet::single(CpuId(0)), SimTime::ZERO, &mut buf);
    }
    let mut now = SimTime::ZERO;
    per_op(n, |_| {
        buf.clear();
        if let Some(t) = kernel.next_decision_time(CpuId(0), now) {
            now = t;
        }
        kernel.decide(CpuId(0), now, &mut buf);
        black_box(buf.len());
    })
}
