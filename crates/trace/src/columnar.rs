//! Columnar (struct-of-arrays) view of a [`ConcreteTrace`].
//!
//! The analysis walk visits every instruction of every warp exactly
//! once, but the per-op [`CInstr`] representation makes each visit pay
//! for pointer-chasing and allocation: a `Mem` op owns a
//! `Vec<Option<u64>>` that the walk clones and re-collects into a dense
//! lane-address vector per access. The columnar form decomposes the
//! trace once into parallel flat buffers — an op-kind byte column, an
//! argument column, compact side tables for memory/addressing/local
//! ops, and shared arenas holding every active lane address and local
//! slot back to back — so the walk streams over contiguous slices with
//! zero per-op allocation.
//!
//! The per-op API stays available as a thin view: [`ColumnarTrace::op`]
//! decodes any op back into a borrowed [`OpView`], and
//! [`ColumnarTrace::to_concrete`] reconstructs the exact
//! [`ConcreteTrace`] (the round-trip is bit-exact and property-tested),
//! so existing `rewrite`/`coalesce` call sites migrate incrementally.
//!
//! Arena lifetimes: a `ColumnarTrace` borrows the source trace (for its
//! metadata — arrays, geometry, placement, allocator) and owns its
//! column buffers. Extra op sequences (the shared-memory staging
//! prologue/epilogue the analysis synthesizes per warp) are appended
//! into the *same* arenas via [`ColumnarTrace::push_ops`], which
//! returns an [`OpRange`] handle; ranges stay valid for the life of the
//! value because the arenas only grow.

use hms_types::{ArrayId, MemorySpace};

use crate::concrete::{AluKind, CInstr, CMemRef, ConcreteTrace, ConcreteWarp};

/// Op-kind codes of the `kind` column.
const K_INT: u8 = 0;
const K_FP32: u8 = 1;
const K_FP64: u8 = 2;
const K_SFU: u8 = 3;
const K_ADDR_CALC: u8 = 4;
const K_MEM: u8 = 5;
const K_LOCAL: u8 = 6;
const K_WAIT: u8 = 7;
const K_SYNC: u8 = 8;

/// A contiguous run of ops in the columnar buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRange {
    pub start: u32,
    pub len: u32,
}

impl OpRange {
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One warp's identity plus its body ops in the columnar buffers.
#[derive(Debug, Clone, Copy)]
pub struct ColWarp {
    pub block: u32,
    pub warp: u32,
    pub ops: OpRange,
}

/// Side-table record for one memory access (fixed-size; the variable
/// parts live in the shared address/lane arenas).
#[derive(Debug, Clone, Copy)]
struct MemRec {
    array: ArrayId,
    space: MemorySpace,
    is_store: bool,
    elem_bytes: u8,
    /// Total lane count including inactive lanes (reconstructs the
    /// `Vec<Option<u64>>` width on the way back out).
    width: u32,
    addr_start: u32,
    addr_len: u32,
}

/// Side-table record for one local-memory access.
#[derive(Debug, Clone, Copy)]
struct LocalRec {
    is_store: bool,
    slot_start: u32,
    slot_len: u32,
}

/// A borrowed, decoded view of one op — the thin per-op API over the
/// columnar buffers. All variants are `Copy`-cheap; slice fields point
/// into the arenas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpView<'c> {
    Alu {
        kind: AluKind,
        count: u16,
    },
    AddrCalc {
        array: ArrayId,
        count: u16,
    },
    Mem {
        array: ArrayId,
        space: MemorySpace,
        is_store: bool,
        elem_bytes: u8,
        /// Dense active-lane byte addresses, in lane order.
        addrs: &'c [u64],
        /// Lane index of each active address (parallel to `addrs`).
        lanes: &'c [u32],
        /// Total lanes including inactive ones.
        width: u32,
    },
    Local {
        is_store: bool,
        slots: &'c [u32],
    },
    WaitLoads,
    SyncThreads,
}

/// Struct-of-arrays decomposition of a [`ConcreteTrace`] body (plus any
/// appended staging sequences). See the module docs for the layout.
#[derive(Debug)]
pub struct ColumnarTrace<'t> {
    src: &'t ConcreteTrace,
    /// Per-op kind code (`K_*`).
    kind: Vec<u8>,
    /// Per-op argument: ALU/`count` for ALU kinds, a side-table index
    /// for `AddrCalc`/`Mem`/`Local`, 0 otherwise.
    arg0: Vec<u32>,
    mem: Vec<MemRec>,
    addr_calc: Vec<(ArrayId, u16)>,
    local: Vec<LocalRec>,
    /// Arena of dense active-lane addresses for every mem op.
    mem_addrs: Vec<u64>,
    /// Arena of active lane indices, parallel to `mem_addrs`.
    mem_lanes: Vec<u32>,
    /// Arena of local-access slots.
    local_slots: Vec<u32>,
    warps: Vec<ColWarp>,
}

impl<'t> ColumnarTrace<'t> {
    /// Decompose `trace` into columnar form. One pass, `O(ops)`.
    pub fn from_concrete(trace: &'t ConcreteTrace) -> Self {
        let n_ops: usize = trace.warps.iter().map(|w| w.instrs.len()).sum();
        let mut col = ColumnarTrace {
            src: trace,
            kind: Vec::with_capacity(n_ops),
            arg0: Vec::with_capacity(n_ops),
            mem: Vec::new(),
            addr_calc: Vec::new(),
            local: Vec::new(),
            mem_addrs: Vec::new(),
            mem_lanes: Vec::new(),
            local_slots: Vec::new(),
            warps: Vec::with_capacity(trace.warps.len()),
        };
        for w in &trace.warps {
            let ops = col.push_ops(&w.instrs);
            col.warps.push(ColWarp {
                block: w.block,
                warp: w.warp,
                ops,
            });
        }
        col
    }

    /// The source trace this view was built over (metadata access:
    /// arrays, geometry, placement, allocator).
    #[inline]
    pub fn source(&self) -> &'t ConcreteTrace {
        self.src
    }

    /// Warps in source order.
    #[inline]
    pub fn warps(&self) -> &[ColWarp] {
        &self.warps
    }

    /// Append an extra op sequence (e.g. a synthesized staging
    /// prologue/epilogue) into the shared arenas; the returned range is
    /// decodable with [`Self::op`] exactly like body ops.
    pub fn push_ops(&mut self, instrs: &[CInstr]) -> OpRange {
        let start = self.kind.len() as u32;
        for i in instrs {
            self.push_instr(i);
        }
        OpRange {
            start,
            len: instrs.len() as u32,
        }
    }

    fn push_instr(&mut self, i: &CInstr) {
        match i {
            CInstr::Alu { kind, count } => {
                let code = match kind {
                    AluKind::Int => K_INT,
                    AluKind::Fp32 => K_FP32,
                    AluKind::Fp64 => K_FP64,
                    AluKind::Sfu => K_SFU,
                };
                self.kind.push(code);
                self.arg0.push(u32::from(*count));
            }
            CInstr::AddrCalc { array, count } => {
                self.kind.push(K_ADDR_CALC);
                self.arg0.push(self.addr_calc.len() as u32);
                self.addr_calc.push((*array, *count));
            }
            CInstr::Mem(m) => {
                let addr_start = self.mem_addrs.len() as u32;
                for (lane, a) in m.addrs.iter().enumerate() {
                    if let Some(a) = a {
                        self.mem_addrs.push(*a);
                        self.mem_lanes.push(lane as u32);
                    }
                }
                let rec = MemRec {
                    array: m.array,
                    space: m.space,
                    is_store: m.is_store,
                    elem_bytes: m.elem_bytes,
                    width: m.addrs.len() as u32,
                    addr_start,
                    addr_len: self.mem_addrs.len() as u32 - addr_start,
                };
                self.kind.push(K_MEM);
                self.arg0.push(self.mem.len() as u32);
                self.mem.push(rec);
            }
            CInstr::Local { is_store, slots } => {
                let slot_start = self.local_slots.len() as u32;
                self.local_slots.extend_from_slice(slots);
                self.kind.push(K_LOCAL);
                self.arg0.push(self.local.len() as u32);
                self.local.push(LocalRec {
                    is_store: *is_store,
                    slot_start,
                    slot_len: slots.len() as u32,
                });
            }
            CInstr::WaitLoads => {
                self.kind.push(K_WAIT);
                self.arg0.push(0);
            }
            CInstr::SyncThreads => {
                self.kind.push(K_SYNC);
                self.arg0.push(0);
            }
        }
    }

    /// Decode op `i` into its borrowed per-op view.
    #[inline]
    pub fn op(&self, i: u32) -> OpView<'_> {
        let i = i as usize;
        match self.kind[i] {
            K_INT => OpView::Alu {
                kind: AluKind::Int,
                count: self.arg0[i] as u16,
            },
            K_FP32 => OpView::Alu {
                kind: AluKind::Fp32,
                count: self.arg0[i] as u16,
            },
            K_FP64 => OpView::Alu {
                kind: AluKind::Fp64,
                count: self.arg0[i] as u16,
            },
            K_SFU => OpView::Alu {
                kind: AluKind::Sfu,
                count: self.arg0[i] as u16,
            },
            K_ADDR_CALC => {
                let (array, count) = self.addr_calc[self.arg0[i] as usize];
                OpView::AddrCalc { array, count }
            }
            K_MEM => {
                let m = &self.mem[self.arg0[i] as usize];
                let s = m.addr_start as usize;
                let e = s + m.addr_len as usize;
                OpView::Mem {
                    array: m.array,
                    space: m.space,
                    is_store: m.is_store,
                    elem_bytes: m.elem_bytes,
                    addrs: &self.mem_addrs[s..e],
                    lanes: &self.mem_lanes[s..e],
                    width: m.width,
                }
            }
            K_LOCAL => {
                let l = &self.local[self.arg0[i] as usize];
                let s = l.slot_start as usize;
                OpView::Local {
                    is_store: l.is_store,
                    slots: &self.local_slots[s..s + l.slot_len as usize],
                }
            }
            K_WAIT => OpView::WaitLoads,
            K_SYNC => OpView::SyncThreads,
            k => unreachable!("invalid op kind code {k}"),
        }
    }

    /// Re-encode one op as a [`CInstr`] (the inverse of
    /// [`Self::push_instr`]; exact, including inactive-lane positions).
    pub fn op_to_instr(&self, i: u32) -> CInstr {
        match self.op(i) {
            OpView::Alu { kind, count } => CInstr::Alu { kind, count },
            OpView::AddrCalc { array, count } => CInstr::AddrCalc { array, count },
            OpView::Mem {
                array,
                space,
                is_store,
                elem_bytes,
                addrs,
                lanes,
                width,
            } => {
                let mut full = vec![None; width as usize];
                for (a, l) in addrs.iter().zip(lanes) {
                    full[*l as usize] = Some(*a);
                }
                CInstr::Mem(CMemRef {
                    array,
                    space,
                    is_store,
                    elem_bytes,
                    addrs: full,
                })
            }
            OpView::Local { is_store, slots } => CInstr::Local {
                is_store,
                slots: slots.to_vec(),
            },
            OpView::WaitLoads => CInstr::WaitLoads,
            OpView::SyncThreads => CInstr::SyncThreads,
        }
    }

    /// Reconstruct the exact [`ConcreteTrace`] this view was built from
    /// (metadata cloned from the source, warps re-encoded op by op).
    pub fn to_concrete(&self) -> ConcreteTrace {
        let warps = self
            .warps
            .iter()
            .map(|w| ConcreteWarp {
                block: w.block,
                warp: w.warp,
                instrs: (w.ops.start..w.ops.start + w.ops.len)
                    .map(|i| self.op_to_instr(i))
                    .collect(),
            })
            .collect();
        ConcreteTrace {
            name: self.src.name.clone(),
            arrays: self.src.arrays.clone(),
            geometry: self.src.geometry,
            placement: self.src.placement.clone(),
            alloc: self.src.alloc.clone(),
            warps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concrete::materialize;
    use crate::op::{ElemIdx, KernelTrace, MemRef, SymOp, WarpTrace};
    use hms_types::{ArrayDef, DType, Geometry, GpuConfig};

    fn kernel() -> KernelTrace {
        let mut idx: Vec<Option<ElemIdx>> = (0..16).map(|i| Some(ElemIdx::Lin(i))).collect();
        idx.extend(vec![None; 16]);
        KernelTrace {
            name: "col".into(),
            arrays: vec![
                ArrayDef::new_1d(0, "a", DType::F32, 64, false),
                ArrayDef::new_1d(1, "out", DType::F64, 64, true),
            ],
            geometry: Geometry::new(2, 64),
            warps: (0..2)
                .flat_map(|b| {
                    let idx = idx.clone();
                    (0..2).map(move |w| WarpTrace {
                        block: b,
                        warp: w,
                        ops: vec![
                            SymOp::IntAlu(3),
                            SymOp::AddrCalc {
                                array: hms_types::ArrayId(0),
                                count: 2,
                            },
                            SymOp::Access(MemRef::load(hms_types::ArrayId(0), idx.clone())),
                            SymOp::Local {
                                is_store: false,
                                slots: vec![0, 1, 2],
                            },
                            SymOp::WaitLoads,
                            SymOp::Fp64(1),
                            SymOp::Access(MemRef::store_lin(hms_types::ArrayId(1), 0..32)),
                            SymOp::SyncThreads,
                        ],
                    })
                })
                .collect(),
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let kt = kernel();
        let cfg = GpuConfig::test_small();
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let col = ColumnarTrace::from_concrete(&ct);
        assert_eq!(col.to_concrete(), ct);
    }

    #[test]
    fn mem_view_exposes_dense_active_addrs() {
        let kt = kernel();
        let cfg = GpuConfig::test_small();
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let col = ColumnarTrace::from_concrete(&ct);
        let w0 = col.warps()[0];
        let OpView::Mem {
            addrs,
            lanes,
            width,
            ..
        } = col.op(w0.ops.start + 2)
        else {
            panic!("expected mem op");
        };
        // 16 active of 32 lanes, addresses in lane order.
        assert_eq!(width, 32);
        assert_eq!(addrs.len(), 16);
        assert_eq!(lanes, (0..16).collect::<Vec<u32>>());
        let CInstr::Mem(m) = &ct.warps[0].instrs[2] else {
            panic!()
        };
        let want: Vec<u64> = m.active_addrs().collect();
        assert_eq!(addrs, want);
    }

    #[test]
    fn appended_ops_decode_like_body_ops() {
        let kt = kernel();
        let cfg = GpuConfig::test_small();
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let mut col = ColumnarTrace::from_concrete(&ct);
        let extra = vec![
            CInstr::SyncThreads,
            ct.warps[0].instrs[2].clone(),
            CInstr::Alu {
                kind: AluKind::Sfu,
                count: 7,
            },
        ];
        let r = col.push_ops(&extra);
        assert_eq!(r.len, 3);
        for (k, i) in (r.start..r.start + r.len).enumerate() {
            assert_eq!(col.op_to_instr(i), extra[k]);
        }
    }
}
