//! Trace analysis for a target placement (paper Section IV).
//!
//! "Our cache models take the processed memory trace as input, and then
//! output a new memory trace filtered by our cache models. The memory
//! requests in the new memory trace include the dynamic instruction IDs
//! that issue memory requests. The new memory trace is fed into the
//! T_mem model to count inter-arrival times and row buffer misses/hits
//! ... Our cache models also count disruptive memory events (e.g., the
//! cache miss and memory bank conflict). The statistics of those memory
//! events is fed into the T_comp model to estimate instruction replays
//! and into the T_overlap model."
//!
//! The analysis walks the (rewritten) target trace in the same
//! block-to-SM assignment and round-robin warp order the hardware
//! scheduler uses — but with **no timing**: only cache state, event
//! counters, and per-SM instruction positions. DRAM requests come out
//! stamped with their issuing SM's instruction index, the paper's proxy
//! for arrival time.
//!
//! Two implementations of the same walk live here:
//!
//! * [`analyze`] (and the observed variant the incremental engine
//!   records through) streams over a [`ColumnarTrace`] — the
//!   struct-of-arrays decomposition of the trace — so each op decode is
//!   a couple of column loads and each access hands the cache models a
//!   contiguous `&[u64]` address slice with zero per-op allocation;
//! * [`analyze_reference`] is the original per-op walk over
//!   [`CInstr`] structs, kept as the independent oracle the
//!   property/fuzz equivalence net compares against bit for bit.

use hms_cache::{shared_conflict_passes, ConstantCache, L2Cache, L2Source, TextureCache};
use hms_sim::copy::{shared_init_prologue, shared_writeback_epilogue};
use hms_trace::{coalesce, CInstr, ColumnarTrace, ConcreteTrace, OpRange, OpView};
use hms_types::{GpuConfig, MemorySpace};

/// One predicted DRAM request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramRequest {
    /// Transaction-aligned byte address.
    pub addr: u64,
    /// Arrival proxy: the issuing SM's instruction position at issue,
    /// scaled to cycles by the caller (Section III-C3's
    /// instructions-between-requests approximation).
    pub position: u64,
    /// Issuing SM.
    pub sm: u32,
}

/// The filtered post-L2 request stream, stored struct-of-arrays so the
/// DRAM models ([`crate::tmem`], `hms-dram`) stream over contiguous
/// address/position columns instead of an array of structs.
///
/// Order is analysis order — the arrival proxy the T_mem model depends
/// on — and `PartialEq` is exact, like the rest of [`TraceAnalysis`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DramStream {
    addrs: Vec<u64>,
    positions: Vec<u64>,
    sms: Vec<u32>,
}

impl DramStream {
    #[inline]
    pub fn push(&mut self, r: DramRequest) {
        self.addrs.push(r.addr);
        self.positions.push(r.position);
        self.sms.push(r.sm);
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Requests in analysis order, decoded on the fly.
    pub fn iter(&self) -> impl Iterator<Item = DramRequest> + '_ {
        self.addrs
            .iter()
            .zip(&self.positions)
            .zip(&self.sms)
            .map(|((&addr, &position), &sm)| DramRequest { addr, position, sm })
    }

    pub fn clear(&mut self) {
        self.addrs.clear();
        self.positions.clear();
        self.sms.clear();
    }

    /// Transaction-aligned byte addresses, contiguous.
    #[inline]
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// Arrival-proxy positions, contiguous and parallel to `addrs`.
    #[inline]
    pub fn positions(&self) -> &[u64] {
        &self.positions
    }

    /// Issuing SMs, contiguous and parallel to `addrs`.
    #[inline]
    pub fn sms(&self) -> &[u32] {
        &self.sms
    }
}

/// Event statistics and the filtered DRAM stream for one target trace.
///
/// `PartialEq` is exact (bit-level on the float fields): the incremental
/// search engine's self-check compares a composed analysis against the
/// direct `rewrite`+`analyze` result field for field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAnalysis {
    /// Executed instructions (replays excluded), addressing-mode
    /// expansion included, staging copies included.
    pub executed: u64,
    /// Warp-level memory instructions.
    pub mem_instrs: u64,
    /// Estimated replays by placement-dependent cause (1)–(4).
    pub replay_global_divergence: u64,
    pub replay_const_miss: u64,
    pub replay_const_divergence: u64,
    pub replay_shared_conflict: u64,
    /// Double-width issue slots (cause (5)); placement-invariant but
    /// counted for completeness.
    pub replay_double_width: u64,

    /// Per-space warp-level requests.
    pub global_requests: u64,
    pub global_transactions: u64,
    pub tex_requests: u64,
    pub tex_transactions: u64,
    pub tex_misses: u64,
    pub const_requests: u64,
    pub const_transactions: u64,
    pub const_misses: u64,
    pub shared_requests: u64,
    pub local_requests: u64,
    pub l1_local_misses: u64,
    /// (7) L1 misses on local accesses + (9) local address divergence —
    /// placement-invariant, counted for event completeness.
    pub replay_local: u64,

    pub l2_transactions: u64,
    pub l2_misses: u64,
    /// Dirty L2 write-backs (store traffic returning to DRAM).
    pub l2_writebacks: u64,

    pub sync_count: u64,

    /// The filtered post-L2 request stream, in analysis order.
    pub dram: DramStream,

    /// Loads issued per `WaitLoads` barrier, averaged — the MLP estimate
    /// of Eq. 18.
    pub mlp: f64,
    /// Dependence-wait events (a `WaitLoads` with loads outstanding),
    /// totalled over all warps: the number of memory stalls each warp
    /// chain serializes on.
    pub wait_events: u64,

    /// Resident warps per SM under this kernel's occupancy.
    pub warps_per_sm: f64,
    /// SMs with at least one block.
    pub active_sms: u32,
    /// Total warps launched.
    pub total_warps: u64,
    /// Sequential waves of concurrent blocks needed to drain the grid
    /// (`ceil(blocks / (active_sms x blocks_per_sm))`).
    pub waves: u32,
}

impl TraceAnalysis {
    /// Placement-dependent replays, causes (1)–(4) (Eq. 3's
    /// `inst_replay_target_1-4`).
    pub fn replays_1_to_4(&self) -> u64 {
        self.replay_global_divergence
            + self.replay_const_miss
            + self.replay_const_divergence
            + self.replay_shared_conflict
    }

    /// Memory-dependence stalls per warp — the length of the serialized
    /// wait chain each warp runs through.
    pub fn waits_per_warp(&self) -> f64 {
        self.wait_events as f64 / self.total_warps.max(1) as f64
    }
}

/// Analysis options.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisOptions {
    /// Include the shared-memory staging prologue/epilogue copies
    /// (Section III-B's initialization phase). The full model includes
    /// them; the PORPLE-style baseline does not — that omission is one
    /// of its Figure 6 blind spots.
    pub include_staging: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            include_staging: true,
        }
    }
}

/// A walk event, emitted in exact walk order to a [`WalkObserver`].
///
/// The incremental search engine ([`crate::engine`]) records these while
/// analyzing one canonical placement per shared-memory set and replays
/// them to compose other candidates' analyses without re-walking the
/// trace. The event split mirrors what is placement-dependent:
/// `Advance` covers every issue slot whose count cannot change between
/// candidates sharing the walk (ALU runs, syncs, local and staging
/// instructions), `AddrCalc` and `Access` cover the parts that can.
#[derive(Debug)]
pub(crate) enum WalkEvent<'a> {
    /// `n` placement-invariant issue slots retired on `sm`.
    Advance { sm: usize, n: u64 },
    /// Addressing-mode expansion site for `array` (`count` references).
    AddrCalc {
        sm: usize,
        array: hms_types::ArrayId,
        count: u16,
    },
    /// A warp memory access, decoded from the columnar trace. `addrs`
    /// is the dense active-lane address slice; `body_idx` is the
    /// instruction's index in the warp's body stream, or `None` for
    /// staging prologue/epilogue copies. Emitted *before* the access's
    /// cache probes.
    Access {
        sm: usize,
        block: u32,
        warp: u32,
        body_idx: Option<usize>,
        array: hms_types::ArrayId,
        space: MemorySpace,
        is_store: bool,
        elem_bytes: u8,
        addrs: &'a [u64],
    },
    /// An L1-missed local transaction continuing to L2 (the L1 outcome
    /// is walk-internal state the observer cannot recompute).
    LocalFill {
        sm: usize,
        addr: u64,
        is_store: bool,
    },
}

/// Observer of the analysis walk; see [`WalkEvent`].
pub(crate) trait WalkObserver {
    fn event(&mut self, ev: WalkEvent<'_>);
}

/// The default no-op observer; monomorphizes away entirely.
pub(crate) struct NoObserver;

impl WalkObserver for NoObserver {
    #[inline(always)]
    fn event(&mut self, _ev: WalkEvent<'_>) {}
}

/// Analyze `trace` (already materialized/rewritten for the target
/// placement) through the cache models.
pub fn analyze(trace: &ConcreteTrace, cfg: &GpuConfig) -> TraceAnalysis {
    analyze_with(trace, cfg, AnalysisOptions::default())
}

/// [`analyze`] with explicit options.
pub fn analyze_with(
    trace: &ConcreteTrace,
    cfg: &GpuConfig,
    opts: AnalysisOptions,
) -> TraceAnalysis {
    analyze_observed(trace, cfg, opts, &mut NoObserver)
}

/// Shared occupancy/wave math of both walk implementations.
struct WalkShape {
    num_sms: usize,
    blocks: usize,
    blocks_per_sm: usize,
    wave_span: usize,
    waves: usize,
}

fn walk_shape(trace: &ConcreteTrace, cfg: &GpuConfig, out: &mut TraceAnalysis) -> WalkShape {
    let num_sms = cfg.num_sms as usize;
    let blocks = trace.geometry.grid_blocks as usize;

    // Occupancy mirrors the simulator's limits.
    let wpb = trace.geometry.warps_per_block().max(1);
    let by_warps = (cfg.max_warps_per_sm / wpb).max(1) as usize;
    let by_blocks = cfg.max_blocks_per_sm as usize;
    let shared_per_block = trace.alloc.shared_bytes_per_block();
    let by_shared = cfg
        .shared_mem_bytes_per_sm
        .checked_div(shared_per_block)
        .map_or(usize::MAX, |b| (b as usize).max(1));
    let blocks_per_sm = by_warps.min(by_blocks).min(by_shared);
    out.active_sms = num_sms.min(blocks).max(1) as u32;
    out.warps_per_sm =
        f64::from(wpb) * (blocks_per_sm.min(blocks.div_ceil(out.active_sms as usize))) as f64;
    out.total_warps = trace.geometry.total_warps();

    // Waves of concurrent blocks: wave w puts block (w*SMs*K + sm*K + k)
    // on SM `sm` — the same greedy fill the simulator starts with.
    let wave_span = num_sms * blocks_per_sm;
    let waves = blocks.div_ceil(wave_span.max(1));
    out.waves = waves.max(1) as u32;
    WalkShape {
        num_sms,
        blocks,
        blocks_per_sm,
        wave_span,
        waves,
    }
}

/// Per-warp cursor over the columnar op buffers: `pro` is the appended
/// staging prologue+epilogue range, `body` the warp's own ops.
struct ColCursor {
    pro: OpRange,
    body: OpRange,
    pc: u32,
    total: u32,
    outstanding: u32,
    loads_since_wait: u32,
    block: u32,
    warp: u32,
}

impl ColCursor {
    #[inline]
    fn op_index(&self, pc: u32) -> u32 {
        if pc < self.pro.len {
            self.pro.start + pc
        } else {
            self.body.start + (pc - self.pro.len)
        }
    }
}

/// [`analyze_with`] that also streams [`WalkEvent`]s to `obs` in exact
/// walk order — the recording entry point of the incremental engine.
///
/// This is the columnar walk: the trace is decomposed once into a
/// [`ColumnarTrace`] (staging copies appended into the same arenas) and
/// the round-robin scheduler loop then decodes ops from flat columns,
/// handing the cache models contiguous address slices.
pub(crate) fn analyze_observed(
    trace: &ConcreteTrace,
    cfg: &GpuConfig,
    opts: AnalysisOptions,
    obs: &mut impl WalkObserver,
) -> TraceAnalysis {
    let mut out = TraceAnalysis::default();
    let shape = walk_shape(trace, cfg, &mut out);
    let num_sms = shape.num_sms;

    let mut col = ColumnarTrace::from_concrete(trace);

    // Group warps (by index into `col.warps()`) per block.
    let mut block_warps: Vec<Vec<usize>> = vec![Vec::new(); shape.blocks];
    for (i, w) in trace.warps.iter().enumerate() {
        block_warps[w.block as usize].push(i);
    }

    // Shared device structures.
    let mut l2 = L2Cache::new(cfg.l2_cache);
    // Per-SM structures.
    let mut const_caches: Vec<ConstantCache> = (0..num_sms)
        .map(|_| ConstantCache::new(cfg.const_cache))
        .collect();
    let mut tex_caches: Vec<TextureCache> = (0..num_sms)
        .map(|_| TextureCache::new(cfg.tex_cache))
        .collect();
    let mut l1_caches: Vec<hms_cache::SetAssocCache> = (0..num_sms)
        .map(|_| hms_cache::SetAssocCache::new(cfg.l1_cache))
        .collect();
    let mut sm_pos = vec![0u64; num_sms];

    let mut wait_count: u64 = 0;
    let mut loads_total: u64 = 0;
    // Reused local-address scratch: cleared per local op, never freed.
    let mut local_scratch: Vec<u64> = Vec::new();

    for wave in 0..shape.waves {
        // Collect this wave's warp cursors per SM, appending each
        // warp's staging copies into the columnar arenas first.
        let mut per_sm: Vec<Vec<ColCursor>> = (0..num_sms).map(|_| Vec::new()).collect();
        for k in 0..shape.blocks_per_sm {
            for sm in 0..num_sms {
                let b = wave * shape.wave_span + k * num_sms + sm;
                if b >= shape.blocks {
                    continue;
                }
                for &wi in &block_warps[b] {
                    let w = col.warps()[wi];
                    let pro = if opts.include_staging {
                        let mut v = shared_init_prologue(trace, w.block, w.warp, cfg);
                        v.extend(shared_writeback_epilogue(trace, w.block, w.warp, cfg));
                        // The prologue runs before the body; the
                        // epilogue order relative to the body does not
                        // affect counting, so the concatenation keeps
                        // the walk simple.
                        col.push_ops(&v)
                    } else {
                        OpRange { start: 0, len: 0 }
                    };
                    let body = col.warps()[wi].ops;
                    per_sm[sm].push(ColCursor {
                        pro,
                        body,
                        pc: 0,
                        total: pro.len + body.len,
                        outstanding: 0,
                        loads_since_wait: 0,
                        block: w.block,
                        warp: w.warp,
                    });
                }
            }
        }
        // Round-robin walk: one instruction per live warp per round,
        // SMs interleaved — approximating the scheduler's order without
        // timing.
        let mut live = per_sm
            .iter()
            .flat_map(|v| v.iter())
            .filter(|c| c.total > 0)
            .count();
        while live > 0 {
            for sm in 0..num_sms {
                for wi in 0..per_sm[sm].len() {
                    let cur = &mut per_sm[sm][wi];
                    if cur.pc >= cur.total {
                        continue;
                    }
                    let pc0 = cur.pc;
                    let op = col.op(cur.op_index(pc0));
                    cur.pc += 1;
                    if cur.pc == cur.total {
                        live -= 1;
                    }
                    match op {
                        OpView::WaitLoads => {
                            if cur.outstanding > 0 {
                                wait_count += 1;
                                loads_total += u64::from(cur.loads_since_wait);
                                cur.outstanding = 0;
                                cur.loads_since_wait = 0;
                            }
                        }
                        OpView::SyncThreads => {
                            out.sync_count += 1;
                            out.executed += 1;
                            sm_pos[sm] += 1;
                            obs.event(WalkEvent::Advance { sm, n: 1 });
                        }
                        OpView::Alu { kind, count } => {
                            let n = u64::from(count);
                            out.executed += n;
                            sm_pos[sm] += n;
                            if matches!(kind, hms_trace::concrete::AluKind::Fp64) {
                                out.replay_double_width += n;
                            }
                            obs.event(WalkEvent::Advance { sm, n });
                        }
                        OpView::AddrCalc { array, count } => {
                            let n = trace.addr_calc_expansion(array, count);
                            out.executed += n;
                            sm_pos[sm] += n;
                            obs.event(WalkEvent::AddrCalc { sm, array, count });
                        }
                        OpView::Local { is_store, slots } => {
                            out.executed += 1;
                            out.mem_instrs += 1;
                            out.local_requests += 1;
                            sm_pos[sm] += 1;
                            obs.event(WalkEvent::Advance { sm, n: 1 });
                            if !is_store {
                                cur.outstanding += 1;
                                cur.loads_since_wait += 1;
                            }
                            let g = &trace.geometry;
                            let total_threads = g.total_threads();
                            let (cb, cw) = (cur.block, cur.warp);
                            local_scratch.clear();
                            local_scratch.extend(slots.iter().enumerate().filter_map(
                                |(lane, &slot)| {
                                    g.thread_id(cb, cw, lane as u32).map(|tid| {
                                        hms_trace::concrete::local_addr(slot, tid, total_threads)
                                    })
                                },
                            ));
                            if local_scratch.is_empty() {
                                continue;
                            }
                            let co =
                                coalesce(local_scratch.iter().copied(), 4, cfg.transaction_bytes);
                            out.replay_local += u64::from(co.replays);
                            for t in &co.transactions {
                                if !l1_caches[sm].access_rw(*t, is_store).is_hit() {
                                    out.l1_local_misses += 1;
                                    out.replay_local += 1;
                                    obs.event(WalkEvent::LocalFill {
                                        sm,
                                        addr: *t,
                                        is_store,
                                    });
                                    l2_fill(
                                        &mut l2,
                                        &mut out,
                                        *t,
                                        L2Source::Global,
                                        sm_pos[sm],
                                        sm as u32,
                                        is_store,
                                    );
                                }
                            }
                        }
                        OpView::Mem {
                            array,
                            space,
                            is_store,
                            elem_bytes,
                            addrs,
                            ..
                        } => {
                            out.executed += 1;
                            out.mem_instrs += 1;
                            sm_pos[sm] += 1;
                            obs.event(WalkEvent::Access {
                                sm,
                                block: cur.block,
                                warp: cur.warp,
                                body_idx: pc0.checked_sub(cur.pro.len).map(|i| i as usize),
                                array,
                                space,
                                is_store,
                                elem_bytes,
                                addrs,
                            });
                            if !is_store {
                                cur.outstanding += 1;
                                cur.loads_since_wait += 1;
                            }
                            if addrs.is_empty() {
                                continue;
                            }
                            match space {
                                MemorySpace::Shared => {
                                    out.shared_requests += 1;
                                    let passes = shared_conflict_passes(addrs, cfg.shared_banks);
                                    out.replay_shared_conflict += u64::from(passes - 1);
                                }
                                MemorySpace::Constant => {
                                    let r = const_caches[sm].access_warp(addrs);
                                    out.const_requests += 1;
                                    out.const_transactions += u64::from(r.transactions);
                                    out.const_misses += u64::from(r.misses);
                                    out.replay_const_divergence += u64::from(r.transactions - 1);
                                    out.replay_const_miss += u64::from(r.misses);
                                    for line in &r.missed_lines {
                                        l2_fill(
                                            &mut l2,
                                            &mut out,
                                            *line,
                                            L2Source::Constant,
                                            sm_pos[sm],
                                            sm as u32,
                                            false,
                                        );
                                    }
                                }
                                MemorySpace::Texture1D | MemorySpace::Texture2D => {
                                    let r = tex_caches[sm].access_warp(addrs);
                                    out.tex_requests += 1;
                                    out.tex_transactions += u64::from(r.transactions);
                                    out.tex_misses += u64::from(r.misses);
                                    for line in &r.missed_lines {
                                        l2_fill(
                                            &mut l2,
                                            &mut out,
                                            *line,
                                            L2Source::Texture,
                                            sm_pos[sm],
                                            sm as u32,
                                            false,
                                        );
                                    }
                                }
                                MemorySpace::Global => {
                                    let co = coalesce(
                                        addrs.iter().copied(),
                                        u64::from(elem_bytes),
                                        cfg.transaction_bytes,
                                    );
                                    out.global_requests += 1;
                                    out.global_transactions += co.transactions.len() as u64;
                                    out.replay_global_divergence += u64::from(co.replays);
                                    for t in &co.transactions {
                                        l2_fill(
                                            &mut l2,
                                            &mut out,
                                            *t,
                                            L2Source::Global,
                                            sm_pos[sm],
                                            sm as u32,
                                            is_store,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out.l2_transactions = l2.transactions();
    out.l2_misses = l2.misses();
    out.l2_writebacks = l2.writebacks();
    out.wait_events = wait_count;
    out.mlp = if wait_count == 0 {
        1.0
    } else {
        (loads_total as f64 / wait_count as f64).max(1.0)
    };
    out
}

/// Per-warp cursor state during the reference (per-op) analysis walk.
struct Cursor<'t> {
    instrs: Vec<CInstr>,
    body: &'t [CInstr],
    pc: usize,
    outstanding: u32,
    loads_since_wait: u32,
    block: u32,
    warp: u32,
}

impl<'t> Cursor<'t> {
    fn get(&self, pc: usize) -> Option<&CInstr> {
        let p = self.instrs.len();
        if pc < p {
            self.instrs.get(pc)
        } else {
            self.body.get(pc - p)
        }
    }
}

/// [`analyze`] via the original per-op (`CInstr`-chasing) walk.
///
/// Kept as the independent oracle of the equivalence net: the columnar
/// walk must reproduce this result bit for bit on every trace
/// (`tests/trace_properties.rs` fuzzes the pair; `trace_analysis` unit
/// tests pin it on the registry kernels).
pub fn analyze_reference(trace: &ConcreteTrace, cfg: &GpuConfig) -> TraceAnalysis {
    analyze_reference_with(trace, cfg, AnalysisOptions::default())
}

/// [`analyze_reference`] with explicit options.
pub fn analyze_reference_with(
    trace: &ConcreteTrace,
    cfg: &GpuConfig,
    opts: AnalysisOptions,
) -> TraceAnalysis {
    let mut out = TraceAnalysis::default();
    let shape = walk_shape(trace, cfg, &mut out);
    let num_sms = shape.num_sms;

    // Group warps by block.
    let mut block_warps: Vec<Vec<&hms_trace::ConcreteWarp>> = vec![Vec::new(); shape.blocks];
    for w in &trace.warps {
        block_warps[w.block as usize].push(w);
    }

    // Shared device structures.
    let mut l2 = L2Cache::new(cfg.l2_cache);
    // Per-SM structures.
    let mut const_caches: Vec<ConstantCache> = (0..num_sms)
        .map(|_| ConstantCache::new(cfg.const_cache))
        .collect();
    let mut tex_caches: Vec<TextureCache> = (0..num_sms)
        .map(|_| TextureCache::new(cfg.tex_cache))
        .collect();
    let mut l1_caches: Vec<hms_cache::SetAssocCache> = (0..num_sms)
        .map(|_| hms_cache::SetAssocCache::new(cfg.l1_cache))
        .collect();
    let mut sm_pos = vec![0u64; num_sms];

    let mut wait_count: u64 = 0;
    let mut loads_total: u64 = 0;

    for wave in 0..shape.waves {
        // Collect this wave's warp cursors per SM.
        let mut per_sm: Vec<Vec<Cursor>> = (0..num_sms).map(|_| Vec::new()).collect();
        for k in 0..shape.blocks_per_sm {
            for sm in 0..num_sms {
                let b = wave * shape.wave_span + k * num_sms + sm;
                if b >= shape.blocks {
                    continue;
                }
                for w in &block_warps[b] {
                    let instrs = if opts.include_staging {
                        let mut v = shared_init_prologue(trace, w.block, w.warp, cfg);
                        v.extend(shared_writeback_epilogue(trace, w.block, w.warp, cfg));
                        v
                    } else {
                        Vec::new()
                    };
                    // Prologue runs before the body; the epilogue order
                    // relative to the body does not affect counting, so
                    // the concatenation keeps the walk simple.
                    per_sm[sm].push(Cursor {
                        instrs,
                        body: &w.instrs,
                        pc: 0,
                        outstanding: 0,
                        loads_since_wait: 0,
                        block: w.block,
                        warp: w.warp,
                    });
                }
            }
        }
        // Round-robin walk: one instruction per live warp per round,
        // SMs interleaved — approximating the scheduler's order without
        // timing.
        let mut live = per_sm
            .iter()
            .flat_map(|v| v.iter())
            .filter(|c| c.get(0).is_some())
            .count();
        while live > 0 {
            for sm in 0..num_sms {
                for wi in 0..per_sm[sm].len() {
                    let cur = &mut per_sm[sm][wi];
                    let Some(instr) = cur.get(cur.pc) else {
                        continue;
                    };
                    let instr = instr.clone();
                    cur.pc += 1;
                    if cur.get(cur.pc).is_none() {
                        live -= 1;
                    }
                    match &instr {
                        CInstr::WaitLoads => {
                            if cur.outstanding > 0 {
                                wait_count += 1;
                                loads_total += u64::from(cur.loads_since_wait);
                                cur.outstanding = 0;
                                cur.loads_since_wait = 0;
                            }
                        }
                        CInstr::SyncThreads => {
                            out.sync_count += 1;
                            out.executed += 1;
                            sm_pos[sm] += 1;
                        }
                        CInstr::Alu { kind, count } => {
                            let n = u64::from(*count);
                            out.executed += n;
                            sm_pos[sm] += n;
                            if matches!(kind, hms_trace::concrete::AluKind::Fp64) {
                                out.replay_double_width += n;
                            }
                        }
                        CInstr::AddrCalc { array, count } => {
                            let n = trace.addr_calc_expansion(*array, *count);
                            out.executed += n;
                            sm_pos[sm] += n;
                        }
                        CInstr::Local { is_store, slots } => {
                            out.executed += 1;
                            out.mem_instrs += 1;
                            out.local_requests += 1;
                            sm_pos[sm] += 1;
                            if !is_store {
                                cur.outstanding += 1;
                                cur.loads_since_wait += 1;
                            }
                            let g = &trace.geometry;
                            let total_threads = g.total_threads();
                            let (cb, cw) = (cur.block, cur.warp);
                            let addrs: Vec<u64> = slots
                                .iter()
                                .enumerate()
                                .filter_map(|(lane, &slot)| {
                                    g.thread_id(cb, cw, lane as u32).map(|tid| {
                                        hms_trace::concrete::local_addr(slot, tid, total_threads)
                                    })
                                })
                                .collect();
                            if addrs.is_empty() {
                                continue;
                            }
                            let co = coalesce(addrs.iter().copied(), 4, cfg.transaction_bytes);
                            out.replay_local += u64::from(co.replays);
                            for t in &co.transactions {
                                if !l1_caches[sm].access_rw(*t, *is_store).is_hit() {
                                    out.l1_local_misses += 1;
                                    out.replay_local += 1;
                                    l2_fill(
                                        &mut l2,
                                        &mut out,
                                        *t,
                                        L2Source::Global,
                                        sm_pos[sm],
                                        sm as u32,
                                        *is_store,
                                    );
                                }
                            }
                        }
                        CInstr::Mem(m) => {
                            out.executed += 1;
                            out.mem_instrs += 1;
                            sm_pos[sm] += 1;
                            if !m.is_store {
                                cur.outstanding += 1;
                                cur.loads_since_wait += 1;
                            }
                            let lane_addrs: Vec<u64> = m.active_addrs().collect();
                            if lane_addrs.is_empty() {
                                continue;
                            }
                            match m.space {
                                MemorySpace::Shared => {
                                    out.shared_requests += 1;
                                    let passes =
                                        shared_conflict_passes(&lane_addrs, cfg.shared_banks);
                                    out.replay_shared_conflict += u64::from(passes - 1);
                                }
                                MemorySpace::Constant => {
                                    let r = const_caches[sm].access_warp(&lane_addrs);
                                    out.const_requests += 1;
                                    out.const_transactions += u64::from(r.transactions);
                                    out.const_misses += u64::from(r.misses);
                                    out.replay_const_divergence += u64::from(r.transactions - 1);
                                    out.replay_const_miss += u64::from(r.misses);
                                    for line in &r.missed_lines {
                                        l2_fill(
                                            &mut l2,
                                            &mut out,
                                            *line,
                                            L2Source::Constant,
                                            sm_pos[sm],
                                            sm as u32,
                                            false,
                                        );
                                    }
                                }
                                MemorySpace::Texture1D | MemorySpace::Texture2D => {
                                    let r = tex_caches[sm].access_warp(&lane_addrs);
                                    out.tex_requests += 1;
                                    out.tex_transactions += u64::from(r.transactions);
                                    out.tex_misses += u64::from(r.misses);
                                    for line in &r.missed_lines {
                                        l2_fill(
                                            &mut l2,
                                            &mut out,
                                            *line,
                                            L2Source::Texture,
                                            sm_pos[sm],
                                            sm as u32,
                                            false,
                                        );
                                    }
                                }
                                MemorySpace::Global => {
                                    let co = coalesce(
                                        lane_addrs.iter().copied(),
                                        u64::from(m.elem_bytes),
                                        cfg.transaction_bytes,
                                    );
                                    out.global_requests += 1;
                                    out.global_transactions += co.transactions.len() as u64;
                                    out.replay_global_divergence += u64::from(co.replays);
                                    for t in &co.transactions {
                                        l2_fill(
                                            &mut l2,
                                            &mut out,
                                            *t,
                                            L2Source::Global,
                                            sm_pos[sm],
                                            sm as u32,
                                            m.is_store,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    out.l2_transactions = l2.transactions();
    out.l2_misses = l2.misses();
    out.l2_writebacks = l2.writebacks();
    out.wait_events = wait_count;
    out.mlp = if wait_count == 0 {
        1.0
    } else {
        (loads_total as f64 / wait_count as f64).max(1.0)
    };
    out
}

/// Probe L2 and record a DRAM request on miss — shared by the walk and
/// the incremental engine's replay so both paths fill `out.dram`
/// identically.
#[allow(clippy::too_many_arguments)]
pub(crate) fn l2_fill(
    l2: &mut L2Cache,
    out: &mut TraceAnalysis,
    addr: u64,
    source: L2Source,
    position: u64,
    sm: u32,
    write: bool,
) {
    if !l2.access_rw(addr, source, write).is_hit() {
        out.dram.push(DramRequest { addr, position, sm });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hms_kernels::{convolution, registry, vecadd, Scale};
    use hms_trace::materialize;
    use hms_types::{ArrayId, PlacementMap};

    fn cfg() -> GpuConfig {
        GpuConfig::test_small()
    }

    #[test]
    fn analysis_counts_match_simulator_for_vecadd() {
        // The analysis reuses the simulator's cache models and walk
        // order, so its counts should be very close to the simulated
        // events (identical for this regular kernel).
        let cfg = cfg();
        let kt = vecadd::build(Scale::Test);
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let a = analyze(&ct, &cfg);
        let s = hms_sim::simulate_default(&ct, &cfg).unwrap();
        assert_eq!(a.executed, s.events.inst_executed);
        assert_eq!(a.global_transactions, s.events.global_transactions);
        assert_eq!(a.replays_1_to_4(), s.events.replays_1_to_4());
        assert_eq!(a.l2_transactions, s.events.l2_transactions);
        assert_eq!(a.mem_instrs, s.events.ldst_executed);
    }

    #[test]
    fn columnar_walk_matches_reference_walk_registry_wide() {
        // The bit-identity contract between the two implementations,
        // pinned on every registry kernel under several placements
        // (the fuzz net in tests/trace_properties.rs covers random
        // kernels).
        let cfg = cfg();
        for spec in registry() {
            let kt = (spec.build)(Scale::Test);
            let base = kt.default_placement();
            let spaces = [
                base.clone(),
                base.with(ArrayId(0), hms_types::MemorySpace::Shared),
            ];
            for pm in &spaces {
                if pm.validate(&kt.arrays, &cfg).is_err() {
                    continue;
                }
                let ct = materialize(&kt, pm, &cfg).unwrap();
                for opts in [
                    AnalysisOptions {
                        include_staging: true,
                    },
                    AnalysisOptions {
                        include_staging: false,
                    },
                ] {
                    let fast = analyze_with(&ct, &cfg, opts);
                    let slow = analyze_reference_with(&ct, &cfg, opts);
                    assert_eq!(fast, slow, "{}: columnar walk diverged", spec.name);
                }
            }
        }
    }

    #[test]
    fn constant_placement_changes_replay_estimate() {
        let cfg = cfg();
        let kt = convolution::build_rows(Scale::Test);
        let g = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let c = materialize(
            &kt,
            &kt.default_placement()
                .with(ArrayId(1), hms_types::MemorySpace::Constant),
            &cfg,
        )
        .unwrap();
        let ag = analyze(&g, &cfg);
        let ac = analyze(&c, &cfg);
        assert_eq!(ag.const_requests, 0);
        assert!(ac.const_requests > 0);
        // Uniform coefficient reads: no divergence replays in constant.
        assert_eq!(ac.replay_const_divergence, 0);
        // Global requests drop when the kernel array moves out.
        assert!(ac.global_requests < ag.global_requests);
    }

    #[test]
    fn dram_positions_are_monotone_per_sm() {
        let cfg = cfg();
        let kt = vecadd::build(Scale::Test);
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let a = analyze(&ct, &cfg);
        assert!(!a.dram.is_empty());
        let mut last = vec![0u64; cfg.num_sms as usize];
        for r in a.dram.iter() {
            assert!(r.position >= last[r.sm as usize]);
            last[r.sm as usize] = r.position;
        }
    }

    #[test]
    fn dram_stream_columns_stay_parallel() {
        let cfg = cfg();
        let kt = vecadd::build(Scale::Test);
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let a = analyze(&ct, &cfg);
        assert_eq!(a.dram.addrs().len(), a.dram.len());
        assert_eq!(a.dram.positions().len(), a.dram.len());
        assert_eq!(a.dram.sms().len(), a.dram.len());
        for (i, r) in a.dram.iter().enumerate() {
            assert_eq!(r.addr, a.dram.addrs()[i]);
            assert_eq!(r.position, a.dram.positions()[i]);
            assert_eq!(r.sm, a.dram.sms()[i]);
        }
    }

    #[test]
    fn mlp_reflects_load_batching() {
        let cfg = cfg();
        // vecadd issues 2 loads before each wait.
        let kt = vecadd::build(Scale::Test);
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let a = analyze(&ct, &cfg);
        assert!((a.mlp - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shared_placement_adds_staging_traffic() {
        let cfg = cfg();
        let kt = vecadd::build(Scale::Test);
        let pm: PlacementMap = kt
            .default_placement()
            .with(ArrayId(0), hms_types::MemorySpace::Shared);
        let g = analyze(
            &materialize(&kt, &kt.default_placement(), &cfg).unwrap(),
            &cfg,
        );
        let s = analyze(&materialize(&kt, &pm, &cfg).unwrap(), &cfg);
        assert!(s.shared_requests > 0);
        assert!(s.sync_count > g.sync_count);
        assert!(s.executed > g.executed, "staging copies add instructions");
    }
}
