//! Buffer handles.

use gh_os::VaRange;

/// Which allocator produced a buffer — the paper's memory-management
/// categories (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufKind {
    /// `malloc`: system-allocated, system page table, either node,
    /// first-touch placement, access-counter migration.
    System,
    /// `cudaMallocManaged`: unified, on-demand block migration.
    Managed,
    /// `cudaMalloc`: GPU-only, explicit copies.
    Device,
    /// `cudaMallocHost`: pinned CPU memory.
    Pinned,
}

/// A handle to a simulated allocation. Cheap to copy; the [`crate::Runtime`]
/// owns all metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Buffer {
    pub(crate) id: u32,
    /// The buffer's virtual address range.
    pub range: VaRange,
    /// Allocator category.
    pub kind: BufKind,
}

impl Buffer {
    /// Opaque id (unique per runtime).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Length in bytes (rounded up to a page multiple at allocation).
    pub fn len(&self) -> u64 {
        self.range.len
    }

    /// Whether the buffer has zero length (never true for live buffers).
    pub fn is_empty(&self) -> bool {
        self.range.len == 0
    }

    /// Whether `[off, off + len)` lies inside the buffer. A range whose
    /// end overflows `u64` is outside, not wrapped back in.
    pub fn in_bounds(&self, off: u64, len: u64) -> bool {
        off.checked_add(len).is_some_and(|end| end <= self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_is_copy_and_reports_len() {
        let b = Buffer {
            id: 3,
            range: VaRange {
                addr: 0x1000,
                len: 4096,
            },
            kind: BufKind::System,
        };
        let c = b;
        assert_eq!(b, c);
        assert_eq!(c.len(), 4096);
        assert_eq!(c.id(), 3);
        assert!(!c.is_empty());
        assert!(c.in_bounds(0, 4096) && c.in_bounds(4096, 0));
        assert!(!c.in_bounds(1, 4096));
        assert!(!c.in_bounds(u64::MAX, 2), "a wrapped end is out of bounds");
    }
}
