//! Physical memory tiers.
//!
//! The GH200 exposes its two physical memories as NUMA nodes. The model
//! tracks capacity and usage per node at byte granularity and hands out
//! opaque frame numbers for page-table entries. Exhaustion is an explicit
//! error so callers (the UVM driver, the OS) can trigger eviction.

use gh_units::{Bytes, PageSize, Pages};

/// A NUMA node of the superchip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// Grace CPU, LPDDR5X.
    Cpu,
    /// Hopper GPU, HBM3.
    Gpu,
}

impl Node {
    /// The other node.
    pub fn peer(self) -> Node {
        match self {
            Node::Cpu => Node::Gpu,
            Node::Gpu => Node::Cpu,
        }
    }

    fn idx(self) -> usize {
        match self {
            Node::Cpu => 0,
            Node::Gpu => 1,
        }
    }
}

/// Returned when a node cannot satisfy an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Node that was exhausted.
    pub node: Node,
    /// Bytes requested.
    pub requested: Bytes,
    /// Bytes that were still free.
    pub free: Bytes,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory on {:?}: requested {}, {} free",
            self.node, self.requested, self.free
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Byte-granular physical memory accounting for both nodes.
#[derive(Debug, Clone)]
pub struct PhysMem {
    capacity: [Bytes; 2],
    used: [Bytes; 2],
    next_frame: u64,
    unified: bool,
}

impl PhysMem {
    /// Creates the two tiers with the given capacities. `gpu_reserved` is
    /// carved out of the GPU immediately (driver baseline).
    pub fn new(cpu_capacity: Bytes, gpu_capacity: Bytes, gpu_reserved: Bytes) -> Self {
        assert!(
            gpu_reserved <= gpu_capacity,
            "driver baseline exceeds GPU capacity"
        );
        Self {
            capacity: [cpu_capacity, gpu_capacity],
            used: [Bytes::ZERO, gpu_reserved],
            next_frame: 1,
            unified: false,
        }
    }

    /// Creates a single physical pool of `total` bytes shared by both
    /// nodes (the MI300A model). `reserved` is the driver carve-out,
    /// attributed to the GPU. Nodes become attribution labels only:
    /// per-node `used` still tracks who allocated what, but capacity and
    /// `free` are pool-wide.
    pub fn new_unified(total: Bytes, reserved: Bytes) -> Self {
        assert!(reserved <= total, "driver baseline exceeds GPU capacity");
        Self {
            capacity: [total, total],
            used: [Bytes::ZERO, reserved],
            next_frame: 1,
            unified: true,
        }
    }

    /// Whether both nodes draw from one shared physical pool.
    pub fn is_unified(&self) -> bool {
        self.unified
    }

    /// Total capacity of `node` (the pool size when unified).
    pub fn capacity(&self, node: Node) -> Bytes {
        self.capacity[node.idx()]
    }

    /// Bytes currently allocated on `node` (for the GPU this includes the
    /// driver baseline, matching what `nvidia-smi` reports). In a unified
    /// pool this is per-node *attribution* within the shared pool.
    pub fn used(&self, node: Node) -> Bytes {
        self.used[node.idx()]
    }

    /// Bytes still free on `node`. In a unified pool both nodes report the
    /// same value: whatever is left of the shared pool.
    pub fn free(&self, node: Node) -> Bytes {
        if self.unified {
            self.capacity[0] - self.used[0] - self.used[1]
        } else {
            self.capacity[node.idx()] - self.used[node.idx()]
        }
    }

    /// Reserves `bytes` on `node`, returning an opaque frame id for the
    /// reservation. Frame ids are unique across the machine's lifetime.
    #[inline]
    pub fn alloc(&mut self, node: Node, bytes: Bytes) -> Result<u64, OutOfMemory> {
        self.reserve(node, bytes, 1)
    }

    /// Reserves `n` pages of `page` bytes on `node` at once, returning
    /// the first of `n` consecutive frame ids: the ids `n` one-page
    /// [`PhysMem::alloc`] calls would return. All or nothing: if the node
    /// cannot hold every page, nothing is reserved and the error reports
    /// the whole request.
    pub fn alloc_frames(&mut self, node: Node, page: PageSize, n: u64) -> Result<u64, OutOfMemory> {
        self.reserve(node, Pages::new(n) * page, n)
    }

    #[inline]
    fn reserve(&mut self, node: Node, bytes: Bytes, frames: u64) -> Result<u64, OutOfMemory> {
        if self.free(node) < bytes {
            return Err(OutOfMemory {
                node,
                requested: bytes,
                free: self.free(node),
            });
        }
        self.used[node.idx()] += bytes;
        let first = self.next_frame;
        self.next_frame += frames;
        Ok(first)
    }

    /// Releases `bytes` previously reserved on `node`.
    pub fn release(&mut self, node: Node, bytes: Bytes) {
        debug_assert!(
            self.used[node.idx()] >= bytes,
            "releasing more than allocated on {node:?}"
        );
        self.used[node.idx()] -= bytes;
    }

    /// Moves a `bytes`-sized reservation from one node to the other,
    /// returning the new frame id. Fails if the destination is full.
    pub fn migrate(&mut self, from: Node, bytes: Bytes) -> Result<u64, OutOfMemory> {
        let frame = self.alloc(from.peer(), bytes)?;
        self.release(from, bytes);
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> Bytes {
        Bytes::new(n)
    }

    fn mem() -> PhysMem {
        PhysMem::new(b(1000), b(500), b(100))
    }

    #[test]
    fn reports_capacity_and_baseline() {
        let m = mem();
        assert_eq!(m.capacity(Node::Cpu), b(1000));
        assert_eq!(m.capacity(Node::Gpu), b(500));
        assert_eq!(m.used(Node::Gpu), b(100));
        assert_eq!(m.free(Node::Gpu), b(400));
        assert_eq!(m.used(Node::Cpu), b(0));
    }

    #[test]
    fn alloc_and_release_roundtrip() {
        let mut m = mem();
        let f = m.alloc(Node::Cpu, b(300)).unwrap();
        assert!(f > 0);
        assert_eq!(m.used(Node::Cpu), b(300));
        m.release(Node::Cpu, b(300));
        assert_eq!(m.used(Node::Cpu), b(0));
    }

    #[test]
    fn frame_ids_are_unique() {
        let mut m = mem();
        let a = m.alloc(Node::Cpu, b(1)).unwrap();
        let bf = m.alloc(Node::Gpu, b(1)).unwrap();
        let c = m.alloc(Node::Cpu, b(1)).unwrap();
        assert_ne!(a, bf);
        assert_ne!(bf, c);
        assert_ne!(a, c);
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut m = mem();
        let err = m.alloc(Node::Gpu, b(401)).unwrap_err();
        assert_eq!(err.node, Node::Gpu);
        assert_eq!(err.requested, b(401));
        assert_eq!(err.free, b(400));
        // Nothing was reserved.
        assert_eq!(m.used(Node::Gpu), b(100));
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut m = mem();
        m.alloc(Node::Gpu, b(400)).unwrap();
        assert_eq!(m.free(Node::Gpu), b(0));
        assert!(m.alloc(Node::Gpu, b(1)).is_err());
    }

    #[test]
    fn migrate_moves_reservation() {
        let mut m = mem();
        m.alloc(Node::Cpu, b(200)).unwrap();
        let f = m.migrate(Node::Cpu, b(200)).unwrap();
        assert!(f > 0);
        assert_eq!(m.used(Node::Cpu), b(0));
        assert_eq!(m.used(Node::Gpu), b(300));
    }

    #[test]
    fn migrate_fails_when_peer_full() {
        let mut m = mem();
        m.alloc(Node::Gpu, b(400)).unwrap();
        m.alloc(Node::Cpu, b(50)).unwrap();
        assert!(m.migrate(Node::Cpu, b(50)).is_err());
        // Source reservation untouched on failure.
        assert_eq!(m.used(Node::Cpu), b(50));
    }

    #[test]
    fn peer_is_involutive() {
        assert_eq!(Node::Cpu.peer(), Node::Gpu);
        assert_eq!(Node::Gpu.peer().peer(), Node::Gpu);
    }

    #[test]
    #[should_panic(expected = "driver baseline")]
    fn reserved_over_capacity_panics() {
        PhysMem::new(b(10), b(10), b(11));
    }

    #[test]
    fn unified_pool_shares_capacity_between_nodes() {
        let mut m = PhysMem::new_unified(b(1000), b(100));
        assert!(m.is_unified());
        assert_eq!(m.capacity(Node::Cpu), b(1000));
        assert_eq!(m.capacity(Node::Gpu), b(1000));
        assert_eq!(m.free(Node::Cpu), b(900));
        assert_eq!(m.free(Node::Gpu), b(900));
        // A CPU allocation shrinks the GPU's view of free memory too.
        m.alloc(Node::Cpu, b(300)).unwrap();
        assert_eq!(m.free(Node::Gpu), b(600));
        assert_eq!(m.free(Node::Cpu), b(600));
        // Per-node attribution is preserved.
        assert_eq!(m.used(Node::Cpu), b(300));
        assert_eq!(m.used(Node::Gpu), b(100));
    }

    #[test]
    fn unified_pool_exhausts_jointly() {
        let mut m = PhysMem::new_unified(b(1000), b(0));
        m.alloc(Node::Cpu, b(600)).unwrap();
        m.alloc(Node::Gpu, b(400)).unwrap();
        let err = m.alloc(Node::Gpu, b(1)).unwrap_err();
        assert_eq!(err.free, b(0));
        assert!(m.alloc(Node::Cpu, b(1)).is_err());
    }

    #[test]
    fn unified_pool_release_restores_shared_free() {
        let mut m = PhysMem::new_unified(b(1000), b(100));
        m.alloc(Node::Gpu, b(500)).unwrap();
        assert_eq!(m.free(Node::Cpu), b(400));
        m.release(Node::Gpu, b(500));
        assert_eq!(m.free(Node::Cpu), b(900));
        assert_eq!(m.used(Node::Gpu), b(100));
    }

    #[test]
    fn unified_pool_reserved_over_total_panics() {
        let r = std::panic::catch_unwind(|| PhysMem::new_unified(b(10), b(11)));
        assert!(r.is_err());
    }
}
