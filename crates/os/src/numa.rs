//! NUMA placement policies.
//!
//! The GH200 exposes its two memories as NUMA nodes, so standard Linux
//! placement tooling applies: `numa_alloc_onnode`, `numactl --membind`,
//! `set_mempolicy`. The paper's Table 1 lists `numa_alloc_onnode()` as
//! one of the CPU-side allocation interfaces; the Grace tuning guide the
//! paper follows (its reference 21) discusses binding allocations to the GPU node so
//! CPU-side initialization lands directly in HBM — an alternative to
//! first-touch that this module makes expressible.

use gh_mem::clock::Ns;
use gh_mem::params::CostParams;
use gh_mem::phys::{Node, PhysMem};
use gh_units::{Bytes, Vpn};

use crate::os::Os;
use crate::vma::{VaRange, VmaKind};

/// Placement policy applied at first touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NumaPolicy {
    /// First-touch: the faulting processor's node (Linux default).
    #[default]
    FirstTouch,
    /// Bind: always place on the given node; fail hard when full.
    Bind(Node),
    /// Preferred: place on the given node, fall back to the other.
    Preferred(Node),
    /// Interleave pages across both nodes round-robin.
    Interleave,
}

impl NumaPolicy {
    /// Picks the target node for `vpn` given the toucher's node.
    /// Returns `(primary, allow_fallback)`.
    pub fn place(&self, toucher: Node, vpn: Vpn) -> (Node, bool) {
        match self {
            NumaPolicy::FirstTouch => (toucher, true),
            NumaPolicy::Bind(n) => (*n, false),
            NumaPolicy::Preferred(n) => (*n, true),
            NumaPolicy::Interleave => {
                let n = if vpn.get().is_multiple_of(2) {
                    Node::Cpu
                } else {
                    Node::Gpu
                };
                (n, true)
            }
        }
    }
}

impl Os {
    /// `numa_alloc_onnode`: allocates a system VMA bound to `node` and
    /// pre-populates it there (the libnuma call touches eagerly).
    /// Returns the range and the total cost.
    pub fn numa_alloc_onnode(
        &mut self,
        bytes: Bytes,
        node: Node,
        tag: &str,
        phys: &mut PhysMem,
    ) -> (VaRange, Ns) {
        let (range, mut cost) =
            self.mmap_with_policy(bytes, VmaKind::System, NumaPolicy::Bind(node), tag);
        let page = self.system_pt.page();
        let mut pages = gh_units::Pages::ZERO;
        for vpn in self.system_pt.vpn_range(range.addr, range.len) {
            #[expect(
                clippy::expect_used,
                reason = "bound-node exhaustion fails hard, matching libnuma"
            )]
            let frame = phys
                .alloc(node, page.bytes())
                .expect("numa_alloc_onnode: bound node exhausted");
            self.system_pt.populate(vpn, node, frame);
            pages += gh_units::Pages::new(1);
        }
        let bw = match node {
            Node::Cpu => self.params().lpddr_bw,
            Node::Gpu => self.params().c2c_h2d_bw, // zero-fill crosses the link
        };
        cost = cost.saturating_add(
            pages
                .get()
                .saturating_mul(self.params().host_register_per_page)
                .saturating_add(CostParams::transfer_ns(pages * page, bw)),
        );
        (range, cost)
    }

    /// `mmap` with an explicit placement policy (`set_mempolicy` +
    /// `mmap`). Pages stay lazy; the policy applies at first touch.
    pub fn mmap_with_policy(
        &mut self,
        bytes: Bytes,
        kind: VmaKind,
        policy: NumaPolicy,
        tag: &str,
    ) -> (VaRange, Ns) {
        let (range, cost) = self.mmap(bytes.get(), kind, tag);
        self.set_policy(range, policy);
        (range, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::os::OsConfig;
    use gh_mem::params::MIB;

    fn setup() -> (Os, PhysMem) {
        let params = CostParams::default();
        let phys = PhysMem::new(
            Bytes::new(params.cpu_mem_bytes),
            Bytes::new(params.gpu_mem_bytes),
            Bytes::ZERO,
        );
        (Os::new(params, OsConfig::default()), phys)
    }

    #[test]
    fn policy_place_semantics() {
        assert_eq!(
            NumaPolicy::FirstTouch.place(Node::Gpu, Vpn::new(0)),
            (Node::Gpu, true)
        );
        assert_eq!(
            NumaPolicy::Bind(Node::Cpu).place(Node::Gpu, Vpn::new(0)),
            (Node::Cpu, false)
        );
        assert_eq!(
            NumaPolicy::Preferred(Node::Gpu).place(Node::Cpu, Vpn::new(0)),
            (Node::Gpu, true)
        );
        assert_eq!(
            NumaPolicy::Interleave.place(Node::Cpu, Vpn::new(0)).0,
            Node::Cpu
        );
        assert_eq!(
            NumaPolicy::Interleave.place(Node::Cpu, Vpn::new(1)).0,
            Node::Gpu
        );
    }

    #[test]
    fn numa_alloc_onnode_populates_eagerly() {
        let (mut os, mut phys) = setup();
        let (r, cost) = os.numa_alloc_onnode(Bytes::new(2 * MIB), Node::Gpu, "g", &mut phys);
        assert!(cost > 0);
        assert_eq!(phys.used(Node::Gpu), Bytes::new(2 * MIB));
        let vpns = os.system_pt.vpn_range(r.addr, r.len);
        assert_eq!(
            os.system_pt.count_resident_in(vpns, Node::Gpu),
            gh_units::Pages::new(2 * MIB / os.params().system_page_size)
        );
        // RSS counts only CPU-resident pages.
        assert_eq!(os.rss(), 0);
    }

    #[test]
    fn bound_vma_places_cpu_touches_on_gpu() {
        let (mut os, mut phys) = setup();
        let (r, _) = os.mmap_with_policy(
            Bytes::new(MIB),
            VmaKind::System,
            NumaPolicy::Bind(Node::Gpu),
            "bound",
        );
        let vpn = os.system_pt.vpn(r.addr);
        let o = os.touch_cpu(vpn, &mut phys);
        assert_eq!(o.placed, Node::Gpu, "bind overrides first-touch");
    }

    #[test]
    fn interleave_alternates_nodes() {
        let (mut os, mut phys) = setup();
        let (r, _) = os.mmap_with_policy(
            Bytes::new(MIB),
            VmaKind::System,
            NumaPolicy::Interleave,
            "il",
        );
        let (_, faults) = os.touch_cpu_range(r, &mut phys);
        assert!(faults > 0);
        let vpns = os.system_pt.vpn_range(r.addr, r.len);
        let total = vpns.count();
        let on_cpu = os.system_pt.count_resident_in(vpns, Node::Cpu);
        assert!(
            on_cpu > gh_units::Pages::ZERO && on_cpu < total,
            "{on_cpu}/{total}"
        );
    }

    #[test]
    fn bound_vma_places_gpu_touches_on_cpu() {
        // The inverse binding: an ATS (GPU) first touch on a CPU-bound
        // VMA lands in LPDDR — what `numactl --membind=0` guarantees.
        let (mut os, mut phys) = setup();
        let (r, _) = os.mmap_with_policy(
            Bytes::new(MIB),
            VmaKind::System,
            NumaPolicy::Bind(Node::Cpu),
            "bound_cpu",
        );
        let vpn = os.system_pt.vpn(r.addr);
        let o = os.ats_fault(vpn, &mut phys);
        assert_eq!(o.placed, Node::Cpu);
        assert_eq!(phys.used(Node::Gpu), Bytes::ZERO);
    }

    #[test]
    fn preferred_falls_back_when_full() {
        let params = CostParams::default();
        let mut phys = PhysMem::new(
            Bytes::new(params.cpu_mem_bytes),
            Bytes::new(64 * 1024),
            Bytes::ZERO,
        );
        let mut os = Os::new(params, OsConfig::default());
        let (r, _) = os.mmap_with_policy(
            Bytes::new(2 * MIB),
            VmaKind::System,
            NumaPolicy::Preferred(Node::Gpu),
            "pref",
        );
        os.touch_cpu_range(r, &mut phys);
        let vpns = os.system_pt.vpn_range(r.addr, r.len);
        assert_eq!(
            os.system_pt.count_resident_in(vpns, Node::Gpu),
            gh_units::Pages::new(1)
        );
        assert!(os.system_pt.count_resident_in(vpns, Node::Cpu) > gh_units::Pages::ZERO);
    }
}
