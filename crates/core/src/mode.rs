//! Memory-management modes: the paper's three application variants.

/// Which memory-management strategy an application variant uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemMode {
    /// The original version: `cudaMalloc` + explicit `cudaMemcpy`.
    Explicit,
    /// System-allocated unified memory (`malloc`) — the paper's new path.
    System,
    /// CUDA managed memory (`cudaMallocManaged`).
    Managed,
}

impl MemMode {
    /// All modes, in the paper's presentation order.
    pub const ALL: [MemMode; 3] = [MemMode::Explicit, MemMode::System, MemMode::Managed];

    /// The two unified-memory modes (no explicit copies).
    pub const UNIFIED: [MemMode; 2] = [MemMode::System, MemMode::Managed];

    /// Short lowercase label for CSV output.
    pub fn label(self) -> &'static str {
        match self {
            MemMode::Explicit => "explicit",
            MemMode::System => "system",
            MemMode::Managed => "managed",
        }
    }
}

impl std::fmt::Display for MemMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(MemMode::Explicit.label(), "explicit");
        assert_eq!(MemMode::System.to_string(), "system");
        assert_eq!(MemMode::ALL.len(), 3);
        assert_eq!(MemMode::UNIFIED.len(), 2);
    }
}
