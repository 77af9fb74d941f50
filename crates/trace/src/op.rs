//! Symbolic kernel traces.
//!
//! Kernel generators describe each warp's execution as a stream of
//! [`SymOp`]s that reference arrays by element index. The stream is
//! *placement-independent*: where an element lives, what load instruction
//! fetches it, and how many instructions compute its address are resolved
//! when the trace is materialized under a concrete [`PlacementMap`]
//! (see [`crate::concrete`]).

use hms_types::{ArrayDef, ArrayId, Geometry, PlacementMap};

/// Index of one array element referenced by one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemIdx {
    /// Linear element index (1-D arrays, or a linearized 2-D index).
    Lin(u64),
    /// Cartesian index into a 2-D array.
    XY(u64, u64),
}

impl ElemIdx {
    /// Linearize against a row-major array of width `width`.
    #[inline]
    pub fn linear(self, width: u64) -> u64 {
        match self {
            ElemIdx::Lin(i) => i,
            ElemIdx::XY(x, y) => y * width + x,
        }
    }

    /// Cartesian coordinates against a row-major array of width `width`.
    #[inline]
    pub fn xy(self, width: u64) -> (u64, u64) {
        match self {
            ElemIdx::Lin(i) => (i % width, i / width),
            ElemIdx::XY(x, y) => (x, y),
        }
    }
}

/// One warp memory reference: per-lane element indices into an array
/// (`None` = lane inactive / predicated off).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRef {
    pub array: ArrayId,
    pub is_store: bool,
    pub idx: Vec<Option<ElemIdx>>,
}

impl MemRef {
    pub fn load(array: ArrayId, idx: Vec<Option<ElemIdx>>) -> Self {
        MemRef {
            array,
            is_store: false,
            idx,
        }
    }

    pub fn store(array: ArrayId, idx: Vec<Option<ElemIdx>>) -> Self {
        MemRef {
            array,
            is_store: true,
            idx,
        }
    }

    /// A fully-active load with linear indices.
    pub fn load_lin(array: ArrayId, idx: impl IntoIterator<Item = u64>) -> Self {
        MemRef::load(
            array,
            idx.into_iter().map(|i| Some(ElemIdx::Lin(i))).collect(),
        )
    }

    /// A fully-active store with linear indices.
    pub fn store_lin(array: ArrayId, idx: impl IntoIterator<Item = u64>) -> Self {
        MemRef::store(
            array,
            idx.into_iter().map(|i| Some(ElemIdx::Lin(i))).collect(),
        )
    }

    /// Number of active lanes.
    pub fn active_lanes(&self) -> u32 {
        self.idx.iter().filter(|i| i.is_some()).count() as u32
    }
}

/// One symbolic warp operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymOp {
    /// `count` integer ALU instructions (index math, comparisons, hashes).
    IntAlu(u16),
    /// `count` single-precision floating-point instructions.
    FpAlu(u16),
    /// `count` double-precision instructions; these "issue over 2 cycles"
    /// — instruction-replay cause (5) in the paper.
    Fp64(u16),
    /// `count` special-function-unit instructions (transcendentals).
    Sfu(u16),
    /// Effective-address computation for `count` upcoming references to
    /// `array`. Expands to a placement-dependent number of integer
    /// instructions (the addressing-mode difference of Section III-B).
    AddrCalc { array: ArrayId, count: u16 },
    /// A warp memory access.
    Access(MemRef),
    /// A local-memory access (register spill / stack data): per-lane
    /// 32-bit slot indices into the thread's private local space.
    /// Placement-independent — local memory always lives in global DRAM
    /// behind the per-SM L1 (paper replay causes (7) and (9)).
    Local { is_store: bool, slots: Vec<u32> },
    /// Consume all outstanding loads of this warp: the warp stalls until
    /// they return (expresses the dependence structure, hence MLP).
    WaitLoads,
    /// Block-wide barrier (`__syncthreads()`).
    SyncThreads,
}

/// The symbolic trace of one warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpTrace {
    /// Block index within the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp: u32,
    pub ops: Vec<SymOp>,
}

/// The full symbolic trace of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    pub name: String,
    pub arrays: Vec<ArrayDef>,
    pub geometry: Geometry,
    pub warps: Vec<WarpTrace>,
}

impl KernelTrace {
    /// Default all-global placement for this kernel's arrays.
    pub fn default_placement(&self) -> PlacementMap {
        PlacementMap::all_global(self.arrays.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hms_types::DType;

    #[test]
    fn elem_idx_linearization() {
        assert_eq!(ElemIdx::Lin(42).linear(10), 42);
        assert_eq!(ElemIdx::XY(3, 2).linear(10), 23);
        assert_eq!(ElemIdx::Lin(23).xy(10), (3, 2));
        assert_eq!(ElemIdx::XY(3, 2).xy(10), (3, 2));
    }

    #[test]
    fn memref_constructors() {
        let m = MemRef::load_lin(ArrayId(0), 0..32);
        assert_eq!(m.active_lanes(), 32);
        assert!(!m.is_store);
        let mut idx: Vec<Option<ElemIdx>> = vec![Some(ElemIdx::Lin(0)); 16];
        idx.extend(vec![None; 16]);
        let s = MemRef::store(ArrayId(1), idx);
        assert_eq!(s.active_lanes(), 16);
        assert!(s.is_store);
    }

    #[test]
    fn kernel_trace_defaults() {
        let kt = KernelTrace {
            name: "t".into(),
            arrays: vec![ArrayDef::new_1d(0, "a", DType::F32, 8, false)],
            geometry: Geometry::new(1, 32),
            warps: vec![WarpTrace {
                block: 0,
                warp: 0,
                ops: vec![SymOp::FpAlu(1)],
            }],
        };
        assert_eq!(kt.default_placement().len(), 1);
    }
}
