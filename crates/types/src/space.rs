//! The programmable memory spaces of a GPU heterogeneous memory system.
//!
//! The paper's data-placement problem is over the four *programmable*
//! memories of a Kepler GPU — global, texture, constant and shared — with
//! texture further split into its 1-D and 2-D binding modes (the paper's
//! Table IV distinguishes `T` and `2T` placements). Global, texture and
//! constant are off-chip GDDR5 behind different cache paths; shared memory
//! is on-chip SRAM scoped to a thread block.

use std::fmt;

/// One of the programmable memory spaces a data array can be placed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemorySpace {
    /// Off-chip global memory (`LD.E`/`ST.E`), cached in L2 only on Kepler.
    Global,
    /// Off-chip memory bound to a 1-D texture reference (`TEX`), read-only,
    /// cached in the per-SM texture cache and L2.
    Texture1D,
    /// Off-chip memory bound to a 2-D texture reference, read-only, cached
    /// with 2-D block locality in the per-SM texture cache and L2.
    Texture2D,
    /// Off-chip constant memory (`LDC`), read-only, 64 KiB, cached in the
    /// per-SM constant cache (broadcast access) and L2.
    Constant,
    /// On-chip shared memory (`LDS`/`STS`), scoped to a thread block,
    /// organized as 32 four-byte banks.
    Shared,
}

impl MemorySpace {
    /// All placement candidates, in the order used throughout the harness
    /// (matches the paper's `G, T, 2T, C, S` notation order, with `T`
    /// before `2T`).
    pub const ALL: [MemorySpace; 5] = [
        MemorySpace::Global,
        MemorySpace::Texture1D,
        MemorySpace::Texture2D,
        MemorySpace::Constant,
        MemorySpace::Shared,
    ];

    /// Whether the space lives in off-chip GDDR5 DRAM (and therefore
    /// participates in L2 caching, row-buffer behaviour and the queuing
    /// model of the paper's Section III-C).
    #[inline]
    pub fn is_off_chip(self) -> bool {
        !matches!(self, MemorySpace::Shared)
    }

    /// Whether a kernel may write to data placed in this space.
    ///
    /// Texture and constant memories are read-only from device code; the
    /// placement search uses this to prune illegal placements.
    #[inline]
    pub fn is_writable(self) -> bool {
        matches!(self, MemorySpace::Global | MemorySpace::Shared)
    }

    /// Short label used in placement-test notation, mirroring the paper's
    /// Table IV ("G, T, C, S and 2T stand for global, 1Dtexture, constant,
    /// shared, and 2Dtexture memories").
    pub fn short(self) -> &'static str {
        match self {
            MemorySpace::Global => "G",
            MemorySpace::Texture1D => "T",
            MemorySpace::Texture2D => "2T",
            MemorySpace::Constant => "C",
            MemorySpace::Shared => "S",
        }
    }

    /// Parse the paper's short notation back into a space.
    pub fn from_short(s: &str) -> Option<Self> {
        Some(match s {
            "G" => MemorySpace::Global,
            "T" => MemorySpace::Texture1D,
            "2T" => MemorySpace::Texture2D,
            "C" => MemorySpace::Constant,
            "S" => MemorySpace::Shared,
            _ => return None,
        })
    }
}

impl fmt::Display for MemorySpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MemorySpace::Global => "global",
            MemorySpace::Texture1D => "texture1d",
            MemorySpace::Texture2D => "texture2d",
            MemorySpace::Constant => "constant",
            MemorySpace::Shared => "shared",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_chip_classification() {
        assert!(MemorySpace::Global.is_off_chip());
        assert!(MemorySpace::Texture1D.is_off_chip());
        assert!(MemorySpace::Texture2D.is_off_chip());
        assert!(MemorySpace::Constant.is_off_chip());
        assert!(!MemorySpace::Shared.is_off_chip());
    }

    #[test]
    fn writability() {
        assert!(MemorySpace::Global.is_writable());
        assert!(MemorySpace::Shared.is_writable());
        assert!(!MemorySpace::Texture1D.is_writable());
        assert!(!MemorySpace::Texture2D.is_writable());
        assert!(!MemorySpace::Constant.is_writable());
    }

    #[test]
    fn short_roundtrip() {
        for s in MemorySpace::ALL {
            assert_eq!(MemorySpace::from_short(s.short()), Some(s));
        }
        assert_eq!(MemorySpace::from_short("X"), None);
    }

    #[test]
    fn all_contains_every_variant_once() {
        let mut sorted = MemorySpace::ALL.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn display_names() {
        assert_eq!(MemorySpace::Global.to_string(), "global");
        assert_eq!(MemorySpace::Texture2D.to_string(), "texture2d");
    }
}
