//! The pluggable scheduling-policy layer (ROADMAP item 2).
//!
//! Every scheduling *decision* the machine makes — when a data-plane
//! CPU should yield, which vCPU to grant it to, how long the grant
//! runs, how the adaptive feedback reacts to a VM-exit, and where a
//! lock-holding vCPU is re-placed — goes through one [`Scheduler`]
//! trait object. The machine keeps the *mechanism* (event plumbing,
//! occupancy bookkeeping, softirq raising, VM-enter/exit timing,
//! counters) and hands the policy a read-only [`KernelCtx`] view of
//! kernel state at each decision point, following the scx model where
//! policy callbacks receive a context exposing a subset of kernel
//! resources.
//!
//! Three policies ship today, selected per-run via
//! `MachineConfig::policy`, the `TAICHI_POLICY` environment variable,
//! or `--policy` on the experiment binaries:
//!
//! | [`PolicyKind`] | vCPU harvest | HW probe | Decision behaviour |
//! |----------------|--------------|----------|--------------------|
//! | `taichi`   | yes | per-config | adaptive yield/slice, RR vCPU pick, §4.1 lock reschedule |
//! | `baseline` | no  | no | native CFS-like kernel scheduling only |
//! | `type2`    | no  | no | as baseline; the type-2 taxes are structural ([`Mode::Type2`]) |
//!
//! The split is deliberately honest about what differs between the
//! paper's regimes: the CFS-like baseline and the type-2 hypervisor
//! never harvest DP idle cycles, so their policies opt out of the
//! vCPU layer entirely ([`Scheduler::uses_vcpus`]) and the kernel's
//! native least-loaded placement / work stealing / preemption rotation
//! (taichi-os) serves them unchanged. Ablation modes map onto the
//! TaiChi policy with different knobs ([`Mode::TaiChiNoHwProbe`]
//! disables the hardware probe).
//!
//! # Byte-identity contract
//!
//! The trait extraction is behavior-preserving by construction: for
//! every pre-existing [`Mode`], the policy methods reproduce the
//! formerly hardwired logic exactly — same RR cursor behaviour, same
//! adaptation arithmetic, same counter increments — which the
//! `policy_identity` harness in `taichi-bench` pins down (trace TSV,
//! stats fingerprint, and experiment CSV equality across queue
//! backends and sweep worker counts).
//!
//! # Adding a policy
//!
//! 1. Implement [`Scheduler`]. State lives in your struct; everything
//!    you may read lives in [`KernelCtx`].
//! 2. Extend [`PolicyKind`] (parse + display + canonical mode) and
//!    [`make_scheduler`].
//! 3. Run the `policy_identity` harness (existing policies must stay
//!    byte-identical) and the per-policy invariant sweep
//!    (`policy_invariants`), which runs your policy across the fault
//!    matrix and asserts no stranded sleepers or leaked grants.

use crate::config::MachineConfig;
use crate::machine::{FaultHealth, Mode};
use crate::orchestrator::IpiOrchestrator;
use crate::probe_sw::AdaptiveYield;
use crate::slice::AdaptiveSlice;
use crate::vcpu_sched::VcpuScheduler;

use taichi_hw::{CpuId, HwWorkloadProbe};
use taichi_os::Kernel;
use taichi_sim::{SimDuration, SimTime};
use taichi_virt::VmExitReason;

/// Which of the three shipped policies to run. Distinct from [`Mode`]:
/// a mode is the full structural regime (CPU counts, taxes, program
/// transformations), a policy is the scheduling decision logic. Every
/// mode maps onto a policy ([`PolicyKind::for_mode`]); selecting a
/// policy explicitly re-derives the canonical mode for it
/// ([`PolicyKind::canonical_mode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Full Tai Chi: adaptive DP→CP yield + CP→DP preempt.
    TaiChi,
    /// Static partitioning over the CFS-like kernel scheduler.
    Baseline,
    /// Type-2 hypervisor regime (scheduling-wise identical to the
    /// baseline; the guest taxes are structural to [`Mode::Type2`]).
    Type2,
}

impl PolicyKind {
    /// All selectable policies, in evaluation order.
    pub fn all() -> [PolicyKind; 3] {
        [PolicyKind::Baseline, PolicyKind::TaiChi, PolicyKind::Type2]
    }

    /// The mode this policy canonically runs as.
    pub fn canonical_mode(self) -> Mode {
        match self {
            PolicyKind::TaiChi => Mode::TaiChi,
            PolicyKind::Baseline => Mode::Baseline,
            PolicyKind::Type2 => Mode::Type2,
        }
    }

    /// The policy behind a mode (ablation modes run the TaiChi policy
    /// with different knobs).
    pub fn for_mode(mode: Mode) -> PolicyKind {
        match mode {
            Mode::Baseline => PolicyKind::Baseline,
            Mode::TaiChi | Mode::TaiChiNoHwProbe | Mode::TaiChiVdp => PolicyKind::TaiChi,
            Mode::Type2 => PolicyKind::Type2,
        }
    }

    /// Resolves the `TAICHI_POLICY` environment override. An
    /// unrecognized value warns to stderr once per process and is
    /// ignored (the mode-derived policy applies), following the
    /// `TAICHI_SEED` convention.
    pub fn from_env() -> Option<PolicyKind> {
        taichi_sim::env::env_parse_or_warn("TAICHI_POLICY", |s| {
            s.trim().parse().map_err(|_| {
                format!(
                    "warning: TAICHI_POLICY={s:?} is not a known scheduler policy \
                     (expected \"taichi\", \"baseline\", or \"type2\"); \
                     keeping the mode-derived policy"
                )
            })
        })
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "taichi" => Ok(PolicyKind::TaiChi),
            "baseline" => Ok(PolicyKind::Baseline),
            "type2" => Ok(PolicyKind::Type2),
            other => Err(format!("unknown policy {other:?}")),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PolicyKind::TaiChi => "taichi",
            PolicyKind::Baseline => "baseline",
            PolicyKind::Type2 => "type2",
        })
    }
}

/// Read-only view of kernel state handed to every [`Scheduler`]
/// decision point: runqueues, pending softirqs, probe state, vCPU
/// occupancy, IPI routing topology, and the fault-health counters.
///
/// The view is rebuilt (cheaply — it is all borrows) at each decision
/// point, so policies can never hold stale kernel state across events,
/// and the borrow checker guarantees a policy cannot mutate the
/// mechanism it is deciding for.
pub struct KernelCtx<'a> {
    /// The OS layer: runqueues ([`Kernel::runqueue_depth`],
    /// [`Kernel::cpu_load`]), work queries ([`Kernel::cpu_has_work`]),
    /// lock contexts, and pending softirqs via
    /// [`Kernel::softirq_state`].
    pub kernel: &'a Kernel,
    /// vCPU pool state and host occupancy (read-only).
    pub vsched: &'a VcpuScheduler,
    /// CPU-class topology and vCPU ↔ kernel-CPU mapping.
    pub orchestrator: &'a IpiOrchestrator,
    /// The hardware workload probe's per-CPU execution-state table.
    pub probe: &'a HwWorkloadProbe,
    /// Degradation counters from the fault layer (a policy may read
    /// these to get more conservative under sustained faults).
    pub health: &'a FaultHealth,
    /// Current simulated time.
    pub now: SimTime,
}

impl KernelCtx<'_> {
    /// Number of vCPUs in the pool.
    pub fn num_vcpus(&self) -> usize {
        self.vsched.len()
    }

    /// True when vCPU `idx` could usefully be granted a core:
    /// descheduled, with pending work on its kernel CPU (queued
    /// threads or a pending softirq).
    pub fn vcpu_runnable(&self, idx: usize) -> bool {
        self.vsched.vcpu(idx).is_descheduled()
            && self.kernel.cpu_has_work(self.orchestrator.vcpu_cpu_id(idx))
    }

    /// True when no vCPU currently occupies `host`.
    pub fn host_free(&self, host: CpuId) -> bool {
        self.vsched.host_free(host)
    }

    /// Pending-softirq view for `cpu` (part of the runqueue picture:
    /// a pending softirq is schedulable work).
    pub fn pending_softirqs(&self, cpu: CpuId) -> bool {
        self.kernel.softirq_state().any_pending(cpu)
    }

    /// Queued-thread depth on `cpu`, excluding the running thread.
    pub fn runqueue_depth(&self, cpu: CpuId) -> usize {
        self.kernel.runqueue_depth(cpu)
    }
}

/// Where a lock-context reschedule decided to re-place the vCPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReschedulePick {
    /// Chosen host CPU.
    pub host: CpuId,
    /// True when the pick fell back to a CP pCPU because no idle DP
    /// host was free (the machine counts these separately).
    pub fallback: bool,
}

/// A scheduling policy: the decision half of the Tai Chi scheduler.
///
/// The machine calls these hooks at its decision points and applies
/// the results through its own mechanism (placement bookkeeping,
/// softirq raising, VM-enter/exit events, statistics). Policies own
/// whatever state their decisions need — adaptive controllers, RR
/// cursors — and read everything else from the [`KernelCtx`].
pub trait Scheduler: Send {
    /// Stable lowercase policy name (matches [`PolicyKind`] parsing).
    fn name(&self) -> &'static str;

    /// True when this policy harvests DP idle cycles through vCPUs.
    /// `false` turns off the entire vCPU layer: no pool, no idle
    /// probes, no grants — the kernel's native scheduling runs alone.
    fn uses_vcpus(&self) -> bool;

    /// True when the hardware workload probe should be armed (the
    /// CP→DP preempt path of Fig. 7b).
    fn hw_probe_enabled(&self) -> bool;

    /// Empty-poll count after which `host` is declared idle.
    fn yield_threshold(&self, ctx: &KernelCtx<'_>, host: CpuId) -> u32;

    /// Grant duration for the next vCPU entered on `host`.
    fn grant_slice(&self, ctx: &KernelCtx<'_>, host: CpuId) -> SimDuration;

    /// Picks the vCPU to grant an idle `host` to, or `None` to leave
    /// the host armed for a later kick.
    fn pick_vcpu(&mut self, ctx: &KernelCtx<'_>) -> Option<usize>;

    /// Feedback: a grant on `host` ended with `reason` (after the
    /// machine's false-positive upgrade — a slice expiry that found
    /// packets waiting arrives here as [`VmExitReason::HwProbe`]).
    fn on_vm_exit(&mut self, ctx: &KernelCtx<'_>, host: CpuId, reason: VmExitReason);

    /// Chooses where to immediately re-place a vCPU preempted inside a
    /// lock context (§4.1): `idle_dp` then `cp_hosts` are the
    /// machine-built candidate lists. `None` only when nothing is
    /// placeable.
    fn pick_reschedule_host(
        &mut self,
        ctx: &KernelCtx<'_>,
        idle_dp: &[CpuId],
        cp_hosts: &[CpuId],
    ) -> Option<ReschedulePick>;

    /// Storm-starvation degradation: jump `host`'s yield threshold to
    /// its maximum in one step. Returns whether anything changed.
    fn clamp_yield_to_max(&mut self, host: CpuId) -> bool;

    /// Diagnostic view of the per-CPU yield thresholds (every policy
    /// keeps the table; non-harvesting policies just never adapt it).
    fn yield_view(&self) -> &AdaptiveYield;
}

/// Full Tai Chi: round-robin vCPU harvest with adaptive yield
/// thresholds and slices, plus §4.1 safe lock-context rescheduling.
pub struct TaiChiPolicy {
    yield_ctl: AdaptiveYield,
    slice_ctl: AdaptiveSlice,
    rr_next: usize,
    cp_rr: usize,
    hw_probe: bool,
}

impl TaiChiPolicy {
    /// Builds the policy from the machine config; `hw_probe` arms the
    /// CP→DP preempt path (disabled for the Table 5 ablation).
    pub fn new(cfg: &MachineConfig, hw_probe: bool) -> Self {
        TaiChiPolicy {
            yield_ctl: AdaptiveYield::new(
                cfg.spec.num_cpus,
                cfg.taichi.initial_yield_threshold,
                cfg.taichi.min_yield_threshold,
                cfg.taichi.max_yield_threshold,
            ),
            slice_ctl: AdaptiveSlice::new(
                cfg.spec.num_cpus,
                cfg.taichi.initial_slice,
                cfg.taichi.max_slice,
            ),
            rr_next: 0,
            cp_rr: 0,
            hw_probe,
        }
    }
}

impl Scheduler for TaiChiPolicy {
    #[inline]
    fn name(&self) -> &'static str {
        "taichi"
    }

    #[inline]
    fn uses_vcpus(&self) -> bool {
        true
    }

    #[inline]
    fn hw_probe_enabled(&self) -> bool {
        self.hw_probe
    }

    #[inline]
    fn yield_threshold(&self, _ctx: &KernelCtx<'_>, host: CpuId) -> u32 {
        self.yield_ctl.threshold(host)
    }

    #[inline]
    fn grant_slice(&self, _ctx: &KernelCtx<'_>, host: CpuId) -> SimDuration {
        self.slice_ctl.slice(host)
    }

    #[inline]
    fn pick_vcpu(&mut self, ctx: &KernelCtx<'_>) -> Option<usize> {
        let n = ctx.num_vcpus();
        if n == 0 {
            return None;
        }
        for step in 0..n {
            let idx = (self.rr_next + step) % n;
            if ctx.vcpu_runnable(idx) {
                self.rr_next = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    fn on_vm_exit(&mut self, _ctx: &KernelCtx<'_>, host: CpuId, reason: VmExitReason) {
        self.slice_ctl.on_vm_exit(host, reason);
        self.yield_ctl.on_vm_exit(host, reason);
    }

    fn pick_reschedule_host(
        &mut self,
        ctx: &KernelCtx<'_>,
        idle_dp: &[CpuId],
        cp_hosts: &[CpuId],
    ) -> Option<ReschedulePick> {
        if let Some(&h) = idle_dp.iter().find(|h| ctx.host_free(**h)) {
            return Some(ReschedulePick {
                host: h,
                fallback: false,
            });
        }
        if cp_hosts.is_empty() {
            return None;
        }
        let pick = cp_hosts[self.cp_rr % cp_hosts.len()];
        self.cp_rr += 1;
        Some(ReschedulePick {
            host: pick,
            fallback: true,
        })
    }

    #[inline]
    fn clamp_yield_to_max(&mut self, host: CpuId) -> bool {
        self.yield_ctl.clamp_to_max(host)
    }

    #[inline]
    fn yield_view(&self) -> &AdaptiveYield {
        &self.yield_ctl
    }
}

/// Static partitioning: no vCPU layer at all; the kernel's native
/// CFS-like scheduling (least-loaded placement, work stealing,
/// preemption rotation) is the whole policy.
pub struct BaselinePolicy {
    /// Kept (untouched) so diagnostics see the same threshold table a
    /// machine has always carried in every mode.
    yield_ctl: AdaptiveYield,
    slice_ctl: AdaptiveSlice,
}

impl BaselinePolicy {
    /// Builds the policy from the machine config.
    pub fn new(cfg: &MachineConfig) -> Self {
        BaselinePolicy {
            yield_ctl: AdaptiveYield::new(
                cfg.spec.num_cpus,
                cfg.taichi.initial_yield_threshold,
                cfg.taichi.min_yield_threshold,
                cfg.taichi.max_yield_threshold,
            ),
            slice_ctl: AdaptiveSlice::new(
                cfg.spec.num_cpus,
                cfg.taichi.initial_slice,
                cfg.taichi.max_slice,
            ),
        }
    }
}

impl Scheduler for BaselinePolicy {
    #[inline]
    fn name(&self) -> &'static str {
        "baseline"
    }

    #[inline]
    fn uses_vcpus(&self) -> bool {
        false
    }

    #[inline]
    fn hw_probe_enabled(&self) -> bool {
        false
    }

    #[inline]
    fn yield_threshold(&self, _ctx: &KernelCtx<'_>, host: CpuId) -> u32 {
        self.yield_ctl.threshold(host)
    }

    #[inline]
    fn grant_slice(&self, _ctx: &KernelCtx<'_>, host: CpuId) -> SimDuration {
        self.slice_ctl.slice(host)
    }

    #[inline]
    fn pick_vcpu(&mut self, _ctx: &KernelCtx<'_>) -> Option<usize> {
        None
    }

    fn on_vm_exit(&mut self, _ctx: &KernelCtx<'_>, _host: CpuId, _reason: VmExitReason) {}

    fn pick_reschedule_host(
        &mut self,
        _ctx: &KernelCtx<'_>,
        _idle_dp: &[CpuId],
        _cp_hosts: &[CpuId],
    ) -> Option<ReschedulePick> {
        None
    }

    #[inline]
    fn clamp_yield_to_max(&mut self, _host: CpuId) -> bool {
        false
    }

    #[inline]
    fn yield_view(&self) -> &AdaptiveYield {
        &self.yield_ctl
    }
}

/// Type-2 hypervisor regime: scheduling decisions are the baseline's
/// (no harvest; native kernel scheduling); what makes type-2 slow —
/// guest execution taxes, IPC→RPC inflation, the pCPU lost to
/// emulation — is structural and modeled by [`Mode::Type2`]'s machine
/// construction and program transformation.
pub struct Type2Policy {
    inner: BaselinePolicy,
}

impl Type2Policy {
    /// Builds the policy from the machine config.
    pub fn new(cfg: &MachineConfig) -> Self {
        Type2Policy {
            inner: BaselinePolicy::new(cfg),
        }
    }
}

impl Scheduler for Type2Policy {
    #[inline]
    fn name(&self) -> &'static str {
        "type2"
    }

    #[inline]
    fn uses_vcpus(&self) -> bool {
        false
    }

    #[inline]
    fn hw_probe_enabled(&self) -> bool {
        false
    }

    #[inline]
    fn yield_threshold(&self, ctx: &KernelCtx<'_>, host: CpuId) -> u32 {
        self.inner.yield_threshold(ctx, host)
    }

    #[inline]
    fn grant_slice(&self, ctx: &KernelCtx<'_>, host: CpuId) -> SimDuration {
        self.inner.grant_slice(ctx, host)
    }

    #[inline]
    fn pick_vcpu(&mut self, ctx: &KernelCtx<'_>) -> Option<usize> {
        self.inner.pick_vcpu(ctx)
    }

    fn on_vm_exit(&mut self, ctx: &KernelCtx<'_>, host: CpuId, reason: VmExitReason) {
        self.inner.on_vm_exit(ctx, host, reason);
    }

    fn pick_reschedule_host(
        &mut self,
        ctx: &KernelCtx<'_>,
        idle_dp: &[CpuId],
        cp_hosts: &[CpuId],
    ) -> Option<ReschedulePick> {
        self.inner.pick_reschedule_host(ctx, idle_dp, cp_hosts)
    }

    #[inline]
    fn clamp_yield_to_max(&mut self, host: CpuId) -> bool {
        self.inner.clamp_yield_to_max(host)
    }

    #[inline]
    fn yield_view(&self) -> &AdaptiveYield {
        self.inner.yield_view()
    }
}

/// Builds the scheduler for a mode: ablation modes share the TaiChi
/// policy with different knobs, everything else maps 1:1.
pub fn make_scheduler(mode: Mode, cfg: &MachineConfig) -> Box<dyn Scheduler> {
    match mode {
        Mode::Baseline => Box::new(BaselinePolicy::new(cfg)),
        Mode::TaiChi | Mode::TaiChiVdp => Box::new(TaiChiPolicy::new(cfg, true)),
        Mode::TaiChiNoHwProbe => Box::new(TaiChiPolicy::new(cfg, false)),
        Mode::Type2 => Box::new(Type2Policy::new(cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taichi_os::{KernelConfig, SoftirqKind};
    use taichi_sim::SimTime;

    /// Owns the subsystems a [`KernelCtx`] borrows, with `n` vCPUs
    /// registered and initially descheduled and workless.
    struct Rig {
        kernel: Kernel,
        vsched: VcpuScheduler,
        orch: IpiOrchestrator,
        probe: HwWorkloadProbe,
        health: FaultHealth,
        vcpu_ids: Vec<CpuId>,
    }

    impl Rig {
        fn new(n: u32) -> Self {
            let num_cpus = 12;
            let mut kernel = Kernel::new(KernelConfig::default(), &[]);
            let mut orch = IpiOrchestrator::new(num_cpus);
            let vcpu_ids = orch.register_vcpus(&mut kernel, n, SimTime::ZERO);
            let vsched = VcpuScheduler::new(&vcpu_ids, num_cpus);
            Rig {
                kernel,
                vsched,
                orch,
                probe: HwWorkloadProbe::new(num_cpus),
                health: FaultHealth::default(),
                vcpu_ids,
            }
        }

        fn ctx(&self) -> KernelCtx<'_> {
            KernelCtx {
                kernel: &self.kernel,
                vsched: &self.vsched,
                orchestrator: &self.orch,
                probe: &self.probe,
                health: &self.health,
                now: SimTime::ZERO,
            }
        }

        /// Gives vCPU `idx` pending kernel work (a raised softirq).
        fn give_work(&mut self, idx: usize) {
            let cpu = self.vcpu_ids[idx];
            assert!(self.kernel.softirqs().raise(cpu, SoftirqKind::TaiChiVcpu));
        }
    }

    fn taichi() -> TaiChiPolicy {
        TaiChiPolicy::new(&MachineConfig::default(), true)
    }

    #[test]
    fn round_robin_cycles_fairly() {
        let mut rig = Rig::new(3);
        for i in 0..3 {
            rig.give_work(i);
        }
        let mut p = taichi();
        let picks: Vec<usize> = (0..6).map(|_| p.pick_vcpu(&rig.ctx()).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn skips_vcpus_without_work() {
        let mut rig = Rig::new(3);
        rig.give_work(2);
        let mut p = taichi();
        assert_eq!(p.pick_vcpu(&rig.ctx()), Some(2));
        // RR cursor advanced past 2 and wraps back to it.
        assert_eq!(p.pick_vcpu(&rig.ctx()), Some(2));
    }

    #[test]
    fn none_when_no_work_or_no_vcpus() {
        let rig = Rig::new(4);
        let mut p = taichi();
        assert_eq!(p.pick_vcpu(&rig.ctx()), None);
        let empty = Rig::new(0);
        assert_eq!(p.pick_vcpu(&empty.ctx()), None);
    }

    #[test]
    fn placed_vcpu_not_runnable() {
        let mut rig = Rig::new(2);
        rig.give_work(0);
        rig.give_work(1);
        let mut p = taichi();
        let i = p.pick_vcpu(&rig.ctx()).unwrap();
        rig.vsched.vcpu_mut(i).place(CpuId(0), SimTime::ZERO);
        rig.vsched.record_placement(i, CpuId(0));
        let j = p.pick_vcpu(&rig.ctx()).unwrap();
        assert_ne!(i, j);
    }

    #[test]
    fn lock_reschedule_prefers_idle_dp() {
        let rig = Rig::new(2);
        let mut p = taichi();
        let idle = [CpuId(2), CpuId(5)];
        let cp = [CpuId(8), CpuId(9)];
        let pick = p.pick_reschedule_host(&rig.ctx(), &idle, &cp).unwrap();
        assert_eq!(pick.host, CpuId(2));
        assert!(!pick.fallback);
    }

    #[test]
    fn lock_reschedule_skips_occupied_dp() {
        let mut rig = Rig::new(2);
        rig.vsched.record_placement(0, CpuId(2));
        let mut p = taichi();
        let idle = [CpuId(2), CpuId(5)];
        let pick = p
            .pick_reschedule_host(&rig.ctx(), &idle, &[CpuId(8)])
            .unwrap();
        assert_eq!(pick.host, CpuId(5));
    }

    #[test]
    fn lock_reschedule_falls_back_round_robin() {
        let rig = Rig::new(2);
        let mut p = taichi();
        let cp = [CpuId(8), CpuId(9), CpuId(10)];
        let picks: Vec<ReschedulePick> = (0..4)
            .map(|_| p.pick_reschedule_host(&rig.ctx(), &[], &cp).unwrap())
            .collect();
        assert!(picks.iter().all(|k| k.fallback));
        let hosts: Vec<CpuId> = picks.iter().map(|k| k.host).collect();
        assert_eq!(hosts, vec![CpuId(8), CpuId(9), CpuId(10), CpuId(8)]);
    }

    #[test]
    fn empty_everything_returns_none() {
        let rig = Rig::new(1);
        let mut p = taichi();
        assert_eq!(p.pick_reschedule_host(&rig.ctx(), &[], &[]), None);
    }

    #[test]
    fn baseline_declines_everything() {
        let mut rig = Rig::new(2);
        rig.give_work(0);
        let cfg = MachineConfig::default();
        let mut p = BaselinePolicy::new(&cfg);
        assert!(!p.uses_vcpus());
        assert!(!p.hw_probe_enabled());
        assert_eq!(p.pick_vcpu(&rig.ctx()), None);
        assert_eq!(
            p.pick_reschedule_host(&rig.ctx(), &[CpuId(2)], &[CpuId(8)]),
            None
        );
        assert!(!p.clamp_yield_to_max(CpuId(0)));
    }

    #[test]
    fn policy_kind_round_trips() {
        for k in PolicyKind::all() {
            assert_eq!(k.to_string().parse::<PolicyKind>(), Ok(k));
            assert_eq!(PolicyKind::for_mode(k.canonical_mode()), k);
        }
        assert!("cfs".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn ablation_modes_map_to_taichi_policy() {
        assert_eq!(
            PolicyKind::for_mode(Mode::TaiChiNoHwProbe),
            PolicyKind::TaiChi
        );
        assert_eq!(PolicyKind::for_mode(Mode::TaiChiVdp), PolicyKind::TaiChi);
        let cfg = MachineConfig::default();
        assert!(!make_scheduler(Mode::TaiChiNoHwProbe, &cfg).hw_probe_enabled());
        assert!(make_scheduler(Mode::TaiChiVdp, &cfg).hw_probe_enabled());
        assert!(make_scheduler(Mode::TaiChi, &cfg).hw_probe_enabled());
    }

    #[test]
    fn make_scheduler_names_match_modes() {
        let cfg = MachineConfig::default();
        for mode in Mode::all() {
            let s = make_scheduler(mode, &cfg);
            assert_eq!(s.name(), PolicyKind::for_mode(mode).to_string());
            assert_eq!(s.uses_vcpus(), mode.has_taichi());
        }
    }
}
