//! The §4.1 vCPU scheduler.
//!
//! Owns the vCPU pool, the host-CPU occupancy map, the scheduling
//! counters, and the two round-robin cursors behind Tai Chi's
//! placement decisions: [`VcpuScheduler::pick_vcpu`] chooses which
//! runnable vCPU an idle DP CPU is granted to, and
//! [`VcpuScheduler::pick_reschedule_host`] chooses where a vCPU
//! preempted inside a lock context is re-placed. The event-driven
//! plumbing (softirq raising, VM-enter/exit timing) lives in
//! [`crate::machine`], which also holds the adaptive yield and slice
//! controllers. This module keeps the pure state so it stays
//! unit-testable.

use taichi_hw::CpuId;
use taichi_os::Kernel;
use taichi_sim::Counter;
use taichi_virt::Vcpu;

/// vCPU pool and placement state.
#[derive(Clone, Debug)]
pub struct VcpuScheduler {
    vcpus: Vec<Vcpu>,
    /// Occupancy per physical CPU index.
    occupancy: Vec<Option<usize>>,
    /// Round-robin cursor of [`VcpuScheduler::pick_vcpu`].
    rr_next: usize,
    /// Round-robin cursor over the CP-pCPU lock-reschedule fallback.
    cp_rr: usize,
    yields: Counter,
    lock_reschedules: Counter,
    lock_fallbacks: Counter,
}

impl VcpuScheduler {
    /// Creates a scheduler for `vcpu_ids` (kernel CPU IDs of the
    /// vCPUs) over `num_physical` physical CPUs.
    pub fn new(vcpu_ids: &[CpuId], num_physical: u32) -> Self {
        VcpuScheduler {
            vcpus: vcpu_ids.iter().map(|&id| Vcpu::new(id)).collect(),
            occupancy: vec![None; num_physical as usize],
            rr_next: 0,
            cp_rr: 0,
            yields: Counter::new(),
            lock_reschedules: Counter::new(),
            lock_fallbacks: Counter::new(),
        }
    }

    /// Number of vCPUs in the pool.
    pub fn len(&self) -> usize {
        self.vcpus.len()
    }

    /// True when the pool is empty (baseline modes).
    pub fn is_empty(&self) -> bool {
        self.vcpus.is_empty()
    }

    /// Immutable access to vCPU `idx`.
    pub fn vcpu(&self, idx: usize) -> &Vcpu {
        &self.vcpus[idx]
    }

    /// Mutable access to vCPU `idx`.
    pub fn vcpu_mut(&mut self, idx: usize) -> &mut Vcpu {
        &mut self.vcpus[idx]
    }

    /// Iterates all vCPUs.
    pub fn vcpus(&self) -> &[Vcpu] {
        &self.vcpus
    }

    /// The vCPU currently occupying physical CPU `host`, if any.
    pub fn occupant(&self, host: CpuId) -> Option<usize> {
        self.occupancy.get(host.index()).copied().flatten()
    }

    /// True when `host` has no vCPU on it.
    pub fn host_free(&self, host: CpuId) -> bool {
        self.occupant(host).is_none()
    }

    /// Records a placement of vCPU `idx` on `host` (a DP→CP yield).
    ///
    /// # Panics
    ///
    /// Panics when the host is already occupied — one vCPU per core.
    pub fn record_placement(&mut self, idx: usize, host: CpuId) {
        let slot = self
            .occupancy
            .get_mut(host.index())
            .unwrap_or_else(|| panic!("placement on unknown {host}"));
        assert!(slot.is_none(), "{host} already hosts vCPU {slot:?}");
        *slot = Some(idx);
        self.yields.inc();
    }

    /// Clears the occupancy of `host` (after VM-exit completes).
    pub fn clear_placement(&mut self, host: CpuId) -> Option<usize> {
        self.occupancy.get_mut(host.index()).and_then(|s| s.take())
    }

    /// Picks the vCPU to grant an idle host to, round-robin over the
    /// runnable ones: descheduled, with pending work on its kernel CPU
    /// (queued threads or a pending softirq). `None` leaves the host
    /// armed for a later kick.
    #[inline]
    pub fn pick_vcpu(&mut self, kernel: &Kernel) -> Option<usize> {
        let n = self.vcpus.len();
        if n == 0 {
            return None;
        }
        for step in 0..n {
            let idx = (self.rr_next + step) % n;
            let v = &self.vcpus[idx];
            if v.is_descheduled() && kernel.cpu_has_work(v.id) {
                self.rr_next = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    /// Chooses where to re-place a vCPU preempted inside a lock context
    /// (§4.1): the first free host in `idle_dp`, else the next of
    /// `cp_hosts` round-robin. Every call counts as a lock-context
    /// reschedule attempt, and a CP pick also counts as a fallback.
    /// `None` only when both lists are empty.
    pub fn pick_reschedule_host(&mut self, idle_dp: &[CpuId], cp_hosts: &[CpuId]) -> Option<CpuId> {
        self.lock_reschedules.inc();
        if let Some(&h) = idle_dp.iter().find(|h| self.host_free(**h)) {
            return Some(h);
        }
        if cp_hosts.is_empty() {
            return None;
        }
        let pick = cp_hosts[self.cp_rr % cp_hosts.len()];
        self.cp_rr += 1;
        self.lock_fallbacks.inc();
        Some(pick)
    }

    /// Total DP→CP yields (placements).
    pub fn total_yields(&self) -> u64 {
        self.yields.get()
    }

    /// Total safe lock-context reschedules.
    pub fn total_lock_reschedules(&self) -> u64 {
        self.lock_reschedules.get()
    }

    /// Lock-context reschedules that had to fall back to a CP pCPU.
    pub fn total_lock_fallbacks(&self) -> u64 {
        self.lock_fallbacks.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrator::IpiOrchestrator;
    use taichi_os::{KernelConfig, SoftirqKind};
    use taichi_sim::SimTime;

    fn sched(n: usize) -> VcpuScheduler {
        let ids: Vec<CpuId> = (12..12 + n as u32).map(CpuId).collect();
        VcpuScheduler::new(&ids, 12)
    }

    /// A kernel with `n` vCPUs registered, and a scheduler over them,
    /// all initially descheduled and workless.
    struct Rig {
        kernel: Kernel,
        vsched: VcpuScheduler,
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
                vcpu_ids,
            }
        }

        /// Gives vCPU `idx` pending kernel work (a raised softirq).
        fn give_work(&mut self, idx: usize) {
            let cpu = self.vcpu_ids[idx];
            assert!(self.kernel.softirqs().raise(cpu, SoftirqKind::TaiChiVcpu));
        }

        fn pick(&mut self) -> Option<usize> {
            self.vsched.pick_vcpu(&self.kernel)
        }
    }

    #[test]
    #[should_panic(expected = "already hosts")]
    fn double_occupancy_panics() {
        let mut s = sched(2);
        s.record_placement(0, CpuId(1));
        s.record_placement(1, CpuId(1));
    }

    #[test]
    fn clear_placement_roundtrip() {
        let mut s = sched(1);
        s.record_placement(0, CpuId(5));
        assert_eq!(s.occupant(CpuId(5)), Some(0));
        assert!(!s.host_free(CpuId(5)));
        assert_eq!(s.clear_placement(CpuId(5)), Some(0));
        assert!(s.host_free(CpuId(5)));
        assert_eq!(s.clear_placement(CpuId(5)), None);
        assert_eq!(s.total_yields(), 1);
    }

    #[test]
    fn round_robin_cycles_fairly() {
        let mut rig = Rig::new(3);
        for i in 0..3 {
            rig.give_work(i);
        }
        let picks: Vec<usize> = (0..6).map(|_| rig.pick().unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn skips_vcpus_without_work() {
        let mut rig = Rig::new(3);
        rig.give_work(2);
        assert_eq!(rig.pick(), Some(2));
        // RR cursor advanced past 2 and wraps back to it.
        assert_eq!(rig.pick(), Some(2));
    }

    #[test]
    fn none_when_no_work_or_no_vcpus() {
        let mut rig = Rig::new(4);
        assert_eq!(rig.pick(), None);
        let mut empty = Rig::new(0);
        assert_eq!(empty.pick(), None);
    }

    #[test]
    fn placed_vcpu_not_runnable() {
        let mut rig = Rig::new(2);
        rig.give_work(0);
        rig.give_work(1);
        let i = rig.pick().unwrap();
        rig.vsched.vcpu_mut(i).place(CpuId(0), SimTime::ZERO);
        rig.vsched.record_placement(i, CpuId(0));
        let j = rig.pick().unwrap();
        assert_ne!(i, j);
    }

    #[test]
    fn lock_reschedule_prefers_idle_dp() {
        let mut s = sched(2);
        let idle = [CpuId(2), CpuId(5)];
        let cp = [CpuId(8), CpuId(9)];
        assert_eq!(s.pick_reschedule_host(&idle, &cp), Some(CpuId(2)));
        assert_eq!(s.total_lock_reschedules(), 1);
        assert_eq!(s.total_lock_fallbacks(), 0);
    }

    #[test]
    fn lock_reschedule_skips_occupied_dp() {
        let mut s = sched(2);
        s.record_placement(0, CpuId(2));
        let idle = [CpuId(2), CpuId(5)];
        assert_eq!(s.pick_reschedule_host(&idle, &[CpuId(8)]), Some(CpuId(5)));
    }

    #[test]
    fn lock_reschedule_falls_back_round_robin() {
        let mut s = sched(2);
        let cp = [CpuId(8), CpuId(9), CpuId(10)];
        let hosts: Vec<CpuId> = (0..4)
            .map(|_| s.pick_reschedule_host(&[], &cp).unwrap())
            .collect();
        assert_eq!(hosts, vec![CpuId(8), CpuId(9), CpuId(10), CpuId(8)]);
        assert_eq!(s.total_lock_reschedules(), 4);
        assert_eq!(s.total_lock_fallbacks(), 4);
    }

    #[test]
    fn empty_everything_returns_none() {
        let mut s = sched(1);
        assert_eq!(s.pick_reschedule_host(&[], &[]), None);
        // The attempt still counts; nothing fell back.
        assert_eq!(s.total_lock_reschedules(), 1);
        assert_eq!(s.total_lock_fallbacks(), 0);
    }
}
