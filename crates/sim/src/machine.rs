//! The cycle-level GPU machine: SMs, warp scheduler, memory pipeline.
//!
//! This is the workspace's stand-in for the paper's Tesla K80 +
//! `nvprof`: it executes a concrete trace and reports "measured" time and
//! hardware events. The fidelity target is the set of effects the paper's
//! models reason about — issue slots including instruction replays,
//! addressing-mode instruction expansion, per-space cache behaviour,
//! shared L2 interference, and a GDDR5 back end with row buffers and
//! per-bank queues — not a full GPU microarchitecture.
//!
//! Execution model, per SM and cycle:
//!
//! * up to `issue_width` instructions issue per cycle, picked from ready
//!   resident warps in loose round-robin order;
//! * a memory instruction with `r` replays occupies `1 + r` issue slots;
//!   double-width arithmetic occupies two slots per instruction;
//! * `AddrCalc` ops expand to their placement-dependent integer
//!   instruction count (Section III-B's addressing-mode difference);
//! * a warp issuing a load tracks its completion cycle; `WaitLoads`
//!   blocks the warp until every outstanding load returned; at most
//!   `max_pending_per_warp` loads may be in flight;
//! * `SyncThreads` blocks the warp until every live warp of its block
//!   arrived;
//! * loads traverse space-specific paths: shared (bank conflicts),
//!   constant (per-SM cache, broadcast), texture (per-SM cache), global
//!   (coalescing) — off-chip paths continue through the shared L2 into
//!   the GDDR5 controller, whose queuing and row-buffer state produce
//!   the latency variation the paper's `T_mem` model captures.
//!
//! The main loop is event-driven: each SM carries a wake-up cycle, and
//! simulated time jumps to the earliest wake-up, so fully-stalled phases
//! cost no host time.

use hms_cache::{
    shared_conflict_passes, ConstantCache, L2Cache, L2Source, SetAssocCache, TextureCache,
};
use hms_dram::{AddressMapping, MemoryController};
use hms_trace::{coalesce, CInstr, CMemRef, ConcreteTrace, ConcreteWarp};
use hms_types::{GpuConfig, HmsError, MemorySpace};

use crate::copy::{shared_init_prologue, shared_writeback_epilogue};
use crate::events::EventSet;

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Record per-bank DRAM arrival streams (Figure 4 analysis).
    pub record_dram_arrivals: bool,
    /// Abort if the kernel has not finished after this many cycles.
    pub max_cycles: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            record_dram_arrivals: false,
            max_cycles: 1 << 34,
        }
    }
}

/// Result of simulating one kernel launch.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Elapsed cycles — the "measured execution time" every model
    /// prediction is compared against.
    pub cycles: u64,
    /// Elapsed wall time in nanoseconds at the configured core clock.
    pub time_ns: f64,
    pub events: EventSet,
    /// DRAM statistics (per-bank mix, arrival streams when recorded).
    pub dram: hms_dram::DramStats,
}

/// Simulate `trace` on the machine described by `cfg`.
pub fn simulate(
    trace: &ConcreteTrace,
    cfg: &GpuConfig,
    opts: &SimOptions,
) -> Result<SimResult, HmsError> {
    Machine::new(trace, cfg, opts).run()
}

/// Convenience: simulate with default options.
pub fn simulate_default(trace: &ConcreteTrace, cfg: &GpuConfig) -> Result<SimResult, HmsError> {
    simulate(trace, cfg, &SimOptions::default())
}

// ---------------------------------------------------------------------
// internal state
// ---------------------------------------------------------------------

struct WarpCtx<'t> {
    prologue: Vec<CInstr>,
    body: &'t [CInstr],
    epilogue: Vec<CInstr>,
    /// Virtual pc over prologue ++ body ++ epilogue.
    pc: usize,
    /// Progress inside the current instruction: ALU instructions already
    /// issued from a run, or replay slots already consumed by a memory
    /// instruction.
    sub: u32,
    /// Extra issue slots the current memory instruction still owes
    /// (replays), set when `sub == 0`.
    replays_left: u32,
    /// Completion cycles of outstanding loads.
    pending: Vec<u64>,
    /// Waiting at a block barrier.
    at_barrier: bool,
    /// Earliest cycle the warp may issue again.
    next_ready: u64,
    done: bool,
    block_slot: usize,
    /// Grid coordinates, needed to resolve local-memory addresses.
    block: u32,
    warp: u32,
}

impl<'t> WarpCtx<'t> {
    fn at(&self, pc: usize) -> Option<&CInstr> {
        let p = self.prologue.len();
        let b = self.body.len();
        if pc < p {
            Some(&self.prologue[pc])
        } else if pc < p + b {
            Some(&self.body[pc - p])
        } else {
            self.epilogue.get(pc - p - b)
        }
    }

    fn prune_pending(&mut self, now: u64) {
        self.pending.retain(|&c| c > now);
    }
}

struct BlockCtx {
    alive: u32,
    arrived: u32,
}

struct Sm<'t> {
    warps: Vec<WarpCtx<'t>>,
    blocks: Vec<BlockCtx>,
    const_cache: ConstantCache,
    tex_cache: TextureCache,
    l1: SetAssocCache,
    /// Round-robin scan start.
    rr: usize,
    wake: u64,
    /// Warps not yet finished.
    live: usize,
}

struct Machine<'t> {
    trace: &'t ConcreteTrace,
    cfg: &'t GpuConfig,
    opts: &'t SimOptions,
    sms: Vec<Sm<'t>>,
    l2: L2Cache,
    dram: MemoryController,
    events: EventSet,
    /// Blocks grouped from the trace, indexed by block id.
    block_warps: Vec<Vec<&'t ConcreteWarp>>,
    next_block: usize,
    max_blocks_per_sm: usize,
}

impl<'t> Machine<'t> {
    fn new(trace: &'t ConcreteTrace, cfg: &'t GpuConfig, opts: &'t SimOptions) -> Self {
        let nblocks = trace.geometry.grid_blocks as usize;
        let mut block_warps: Vec<Vec<&ConcreteWarp>> = vec![Vec::new(); nblocks];
        for w in &trace.warps {
            block_warps[w.block as usize].push(w);
        }
        // Occupancy: warp count, block count and shared-memory limits.
        let wpb = trace.geometry.warps_per_block().max(1);
        let by_warps = (cfg.max_warps_per_sm / wpb).max(1) as usize;
        let by_blocks = cfg.max_blocks_per_sm as usize;
        let shared_per_block = trace.alloc.shared_bytes_per_block();
        let by_shared = cfg
            .shared_mem_bytes_per_sm
            .checked_div(shared_per_block)
            .map_or(usize::MAX, |b| (b as usize).max(1));
        let max_blocks_per_sm = by_warps.min(by_blocks).min(by_shared);

        let sms = (0..cfg.num_sms)
            .map(|_| Sm {
                warps: Vec::new(),
                blocks: Vec::new(),
                const_cache: ConstantCache::new(cfg.const_cache),
                tex_cache: TextureCache::new(cfg.tex_cache),
                l1: SetAssocCache::new(cfg.l1_cache),
                rr: 0,
                wake: 0,
                live: 0,
            })
            .collect();
        let dram = MemoryController::new(
            AddressMapping::k80_like(cfg.dram.total_banks()),
            cfg.dram,
            opts.record_dram_arrivals,
        );
        Machine {
            trace,
            cfg,
            opts,
            sms,
            l2: L2Cache::new(cfg.l2_cache),
            dram,
            events: EventSet::default(),
            block_warps,
            next_block: 0,
            max_blocks_per_sm,
        }
    }

    fn assign_block(&mut self, sm_id: usize, now: u64) -> bool {
        if self.next_block >= self.block_warps.len() {
            return false;
        }
        let block_id = self.next_block;
        self.next_block += 1;
        let warps = &self.block_warps[block_id];
        let sm = &mut self.sms[sm_id];
        let slot = sm.blocks.len();
        sm.blocks.push(BlockCtx {
            alive: warps.len() as u32,
            arrived: 0,
        });
        for w in warps {
            let prologue = shared_init_prologue(self.trace, w.block, w.warp, self.cfg);
            let epilogue = shared_writeback_epilogue(self.trace, w.block, w.warp, self.cfg);
            sm.warps.push(WarpCtx {
                prologue,
                body: &w.instrs,
                epilogue,
                pc: 0,
                sub: 0,
                replays_left: 0,
                pending: Vec::new(),
                at_barrier: false,
                next_ready: now,
                done: false,
                block_slot: slot,
                block: w.block,
                warp: w.warp,
            });
            sm.live += 1;
        }
        self.events.blocks_launched += 1;
        self.events.warps_launched += warps.len() as u64;
        true
    }

    fn run(mut self) -> Result<SimResult, HmsError> {
        // Initial block distribution: fill each SM to its occupancy limit
        // round-robin, mirroring the hardware's greedy block scheduler.
        'outer: for _round in 0..self.max_blocks_per_sm {
            for sm_id in 0..self.sms.len() {
                if !self.assign_block(sm_id, 0) {
                    break 'outer;
                }
            }
        }

        let mut finish: u64 = 0;
        loop {
            let Some(now) = self.sms.iter().filter(|s| s.live > 0).map(|s| s.wake).min() else {
                break;
            };
            if now > self.opts.max_cycles {
                return Err(HmsError::InvalidInput(format!(
                    "simulation exceeded {} cycles (deadlock or runaway kernel?)",
                    self.opts.max_cycles
                )));
            }
            for sm_id in 0..self.sms.len() {
                if self.sms[sm_id].live > 0 && self.sms[sm_id].wake <= now {
                    self.step_sm(sm_id, now);
                    finish = finish.max(now);
                }
            }
        }

        // Elapsed time: the last cycle any SM made progress. Fire-and-
        // forget stores still draining in DRAM are excluded, matching how
        // a kernel's reported time ends at its last retired instruction.
        let cycles = finish + 1;
        self.events.elapsed_cycles = cycles;

        // Fold DRAM statistics into the event set.
        let d = self.dram.stats();
        let (h, m, c) = d.row_buffer_totals();
        self.events.dram_requests = d.total_requests();
        self.events.row_buffer_hits = h;
        self.events.row_buffer_misses = m;
        self.events.row_buffer_conflicts = c;
        self.events.dram_total_latency = d.banks.iter().map(|b| b.total_latency).sum();
        self.events.dram_total_queuing = d.banks.iter().map(|b| b.total_queuing).sum();
        self.events.l2_transactions = self.l2.transactions();
        self.events.l2_misses = self.l2.misses();
        self.events.l2_from_global = self.l2.transactions_from(L2Source::Global);
        self.events.l2_from_tex = self.l2.transactions_from(L2Source::Texture);
        self.events.l2_from_const = self.l2.transactions_from(L2Source::Constant);
        self.events.l2_writebacks = self.l2.writebacks();

        Ok(SimResult {
            cycles,
            time_ns: cycles as f64 / self.cfg.core_clock_ghz,
            events: self.events,
            dram: self.dram.stats().clone(),
        })
    }

    /// Issue up to `issue_width` slots on one SM at cycle `now`.
    fn step_sm(&mut self, sm_id: usize, now: u64) {
        let mut issued_any = false;
        let width = self.cfg.issue_width;
        let mut slots = 0u32;
        while slots < width {
            match self.issue_one(sm_id, now) {
                IssueOutcome::Issued { double_width } => {
                    issued_any = true;
                    slots += if double_width { 2 } else { 1 };
                }
                IssueOutcome::Nothing => break,
            }
        }
        let sm = &mut self.sms[sm_id];
        if sm.live == 0 {
            sm.wake = u64::MAX;
            return;
        }
        if issued_any {
            sm.wake = now + 1;
        } else {
            // Fully stalled: jump to the earliest event that can unblock
            // a warp.
            let mut wake = u64::MAX;
            for w in &sm.warps {
                if w.done || w.at_barrier {
                    continue;
                }
                // A warp that could not issue is blocked either by its
                // pipeline gap (`next_ready`) or by outstanding loads
                // (WaitLoads / full load queue) — wake at whichever
                // event applies.
                let cand = if w.next_ready > now {
                    w.next_ready
                } else if let Some(&min_pending) = w.pending.iter().min() {
                    min_pending
                } else {
                    now + 1
                };
                wake = wake.min(cand.max(now + 1));
            }
            debug_assert!(wake > now, "stalled SM must make progress");
            if wake != u64::MAX {
                self.events.stall_cycles += wake - now;
            }
            sm.wake = wake;
        }
    }

    /// Try to issue one instruction (or replay slot) from some ready warp.
    fn issue_one(&mut self, sm_id: usize, now: u64) -> IssueOutcome {
        let n = self.sms[sm_id].warps.len();
        for scan in 0..n {
            let wi = (self.sms[sm_id].rr + scan) % n;
            let outcome = self.try_issue_warp(sm_id, wi, now);
            if let IssueOutcome::Issued { .. } = outcome {
                self.sms[sm_id].rr = (wi + 1) % n;
                return outcome;
            }
        }
        IssueOutcome::Nothing
    }

    fn try_issue_warp(&mut self, sm_id: usize, wi: usize, now: u64) -> IssueOutcome {
        // Fast readiness checks.
        {
            let w = &mut self.sms[sm_id].warps[wi];
            if w.done || w.at_barrier || w.next_ready > now {
                return IssueOutcome::Nothing;
            }
            w.prune_pending(now);
        }
        loop {
            let w = &self.sms[sm_id].warps[wi];
            let Some(instr) = w.at(w.pc) else {
                self.finish_warp(sm_id, wi, now);
                return IssueOutcome::Nothing;
            };
            match instr {
                CInstr::WaitLoads => {
                    let w = &mut self.sms[sm_id].warps[wi];
                    if w.pending.is_empty() {
                        w.pc += 1;
                        continue; // free: no issue slot for a wait
                    }
                    return IssueOutcome::Nothing;
                }
                CInstr::Alu { kind, count } => {
                    let count = u32::from(*count);
                    if count == 0 {
                        self.sms[sm_id].warps[wi].pc += 1;
                        continue;
                    }
                    let kind = *kind;
                    return self.issue_alu(sm_id, wi, now, kind, count);
                }
                CInstr::AddrCalc { array, count } => {
                    let expanded = self.trace.addr_calc_expansion(*array, *count) as u32;
                    if expanded == 0 {
                        self.sms[sm_id].warps[wi].pc += 1;
                        continue;
                    }
                    return self.issue_addr_calc(sm_id, wi, now, expanded);
                }
                CInstr::SyncThreads => {
                    return self.issue_sync(sm_id, wi, now);
                }
                CInstr::Mem(_) | CInstr::Local { .. } => {
                    return self.issue_mem(sm_id, wi, now);
                }
            }
        }
    }

    fn issue_alu(
        &mut self,
        sm_id: usize,
        wi: usize,
        now: u64,
        kind: hms_trace::concrete::AluKind,
        count: u32,
    ) -> IssueOutcome {
        use hms_trace::concrete::AluKind;
        let double = matches!(kind, AluKind::Fp64);
        {
            let e = &mut self.events;
            e.inst_issued += 1;
            e.issue_slots += if double { 2 } else { 1 };
            e.inst_executed += 1;
            match kind {
                AluKind::Int => e.inst_integer += 1,
                AluKind::Fp32 => e.inst_fp32 += 1,
                AluKind::Fp64 => {
                    e.inst_fp64 += 1;
                    e.replay_double_width += 1;
                }
                AluKind::Sfu => e.inst_sfu += 1,
            }
        }
        let gap = self.alu_gap();
        let w = &mut self.sms[sm_id].warps[wi];
        w.sub += 1;
        if w.sub >= count {
            w.pc += 1;
            w.sub = 0;
        }
        w.next_ready = now + gap;
        IssueOutcome::Issued {
            double_width: double,
        }
    }

    fn issue_addr_calc(
        &mut self,
        sm_id: usize,
        wi: usize,
        now: u64,
        expanded: u32,
    ) -> IssueOutcome {
        self.events.inst_issued += 1;
        self.events.issue_slots += 1;
        self.events.inst_executed += 1;
        self.events.inst_integer += 1;
        let gap = self.alu_gap();
        let w = &mut self.sms[sm_id].warps[wi];
        w.sub += 1;
        if w.sub >= expanded {
            w.pc += 1;
            w.sub = 0;
        }
        w.next_ready = now + gap;
        IssueOutcome::Issued {
            double_width: false,
        }
    }

    fn issue_sync(&mut self, sm_id: usize, wi: usize, now: u64) -> IssueOutcome {
        self.events.inst_issued += 1;
        self.events.issue_slots += 1;
        self.events.inst_executed += 1;
        self.events.sync_count += 1;
        let slot = self.sms[sm_id].warps[wi].block_slot;
        {
            let w = &mut self.sms[sm_id].warps[wi];
            w.pc += 1;
            w.at_barrier = true;
            w.next_ready = now + 1;
        }
        let sm = &mut self.sms[sm_id];
        sm.blocks[slot].arrived += 1;
        if sm.blocks[slot].arrived >= sm.blocks[slot].alive {
            sm.blocks[slot].arrived = 0;
            for w in &mut sm.warps {
                if w.block_slot == slot {
                    w.at_barrier = false;
                }
            }
        }
        IssueOutcome::Issued {
            double_width: false,
        }
    }

    /// Per-warp issue gap after an arithmetic instruction: the pipeline
    /// latency divided by the warp's assumed ILP (paper Eq. 13–15 use the
    /// same two quantities).
    fn alu_gap(&self) -> u64 {
        ((self.cfg.avg_inst_lat as f64 / self.cfg.warp_ilp).ceil() as u64).max(1)
    }

    fn issue_mem(&mut self, sm_id: usize, wi: usize, now: u64) -> IssueOutcome {
        // Replay continuation: the op already executed, it just owes
        // issue slots.
        {
            let w = &mut self.sms[sm_id].warps[wi];
            if w.sub > 0 {
                self.events.inst_issued += 1;
                self.events.issue_slots += 1;
                self.events.ldst_issued += 1;
                w.sub += 1;
                if w.sub > w.replays_left {
                    w.pc += 1;
                    w.sub = 0;
                    w.replays_left = 0;
                }
                w.next_ready = now + 1;
                return IssueOutcome::Issued {
                    double_width: false,
                };
            }
        }
        // First slot: perform the access. Clone the lane addresses out to
        // appease the borrow checker (32 words, cheap).
        let instr = {
            let w = &self.sms[sm_id].warps[wi];
            w.at(w.pc)
                .expect("pc points at a memory instruction")
                .clone()
        };
        let (replays_and_completion, is_load) = match &instr {
            CInstr::Mem(m) => (None, !m.is_store),
            CInstr::Local { is_store, .. } => (Some(()), !is_store),
            _ => unreachable!("issue_mem on non-memory instruction"),
        };
        let _ = replays_and_completion;
        // LSU capacity: a full load queue stalls the warp.
        if is_load
            && self.sms[sm_id].warps[wi].pending.len() >= self.cfg.max_pending_per_warp as usize
        {
            return IssueOutcome::Nothing;
        }

        let (replays, completion) = match &instr {
            CInstr::Mem(m) => self.perform_access(sm_id, m, now),
            CInstr::Local { is_store, slots } => {
                let (block, warp) = {
                    let w = &self.sms[sm_id].warps[wi];
                    (w.block, w.warp)
                };
                self.perform_local(sm_id, block, warp, *is_store, slots, now)
            }
            _ => unreachable!(),
        };

        self.events.inst_issued += 1;
        self.events.issue_slots += 1;
        self.events.inst_executed += 1;
        self.events.ldst_issued += 1;
        self.events.ldst_executed += 1;

        let w = &mut self.sms[sm_id].warps[wi];
        if is_load {
            w.pending.push(completion);
        }
        if replays > 0 {
            w.replays_left = replays;
            w.sub = 1;
        } else {
            w.pc += 1;
        }
        w.next_ready = now + 1;
        IssueOutcome::Issued {
            double_width: false,
        }
    }

    /// Execute the memory semantics of one warp access; returns
    /// `(replays, completion_cycle)`.
    fn perform_access(&mut self, sm_id: usize, m: &CMemRef, now: u64) -> (u32, u64) {
        let lane_addrs: Vec<u64> = m.active_addrs().collect();
        if lane_addrs.is_empty() {
            return (0, now);
        }
        match m.space {
            MemorySpace::Shared => {
                let replays = shared_conflict_passes(&lane_addrs, self.cfg.shared_banks) - 1;
                if m.is_store {
                    self.events.shared_st_requests += 1;
                } else {
                    self.events.shared_ld_requests += 1;
                }
                self.events.replay_shared_conflict += u64::from(replays);
                (replays, now + self.cfg.shared_lat + u64::from(replays))
            }
            MemorySpace::Constant => {
                let r = self.sms[sm_id].const_cache.access_warp(&lane_addrs);
                self.events.const_requests += 1;
                self.events.const_transactions += u64::from(r.transactions);
                self.events.const_cache_misses += u64::from(r.misses);
                self.events.replay_const_divergence += u64::from(r.transactions - 1);
                self.events.replay_const_miss += u64::from(r.misses);
                let mut completion = now + self.cfg.const_hit_lat;
                for line in &r.missed_lines {
                    completion =
                        completion.max(self.offchip_fill(*line, L2Source::Constant, now, false));
                }
                (r.replays, completion)
            }
            MemorySpace::Texture1D | MemorySpace::Texture2D => {
                let r = self.sms[sm_id].tex_cache.access_warp(&lane_addrs);
                self.events.tex_requests += 1;
                self.events.tex_transactions += u64::from(r.transactions);
                self.events.tex_cache_misses += u64::from(r.misses);
                let mut completion = now + self.cfg.tex_hit_lat;
                for line in &r.missed_lines {
                    completion = completion.max(
                        self.offchip_fill(*line, L2Source::Texture, now, false)
                            + self.cfg.tex_hit_lat
                            - self.cfg.l2_hit_lat.min(self.cfg.tex_hit_lat),
                    );
                }
                // Texture fetches do not replay (the texture unit handles
                // divergence internally) — consistent with the paper's
                // replay causes (1)-(4), which exclude texture.
                (0, completion)
            }
            MemorySpace::Global => {
                let co = coalesce(
                    lane_addrs.iter().copied(),
                    u64::from(m.elem_bytes),
                    self.cfg.transaction_bytes,
                );
                if m.is_store {
                    self.events.global_st_requests += 1;
                } else {
                    self.events.global_ld_requests += 1;
                }
                self.events.global_transactions += co.transactions.len() as u64;
                self.events.replay_global_divergence += u64::from(co.replays);
                let mut completion = now;
                for t in &co.transactions {
                    completion =
                        completion.max(self.offchip_fill(*t, L2Source::Global, now, m.is_store));
                }
                (co.replays, completion)
            }
        }
    }

    /// Execute one local-memory access: per-lane slots resolve to the
    /// interleaved local address space, coalesce, and go through the
    /// per-SM L1 (then L2/DRAM on a miss). Replays: address divergence
    /// (cause (9)) and L1 misses (cause (7)).
    fn perform_local(
        &mut self,
        sm_id: usize,
        block: u32,
        warp: u32,
        is_store: bool,
        slots: &[u32],
        now: u64,
    ) -> (u32, u64) {
        use hms_trace::concrete::local_addr;
        let g = &self.trace.geometry;
        let total_threads = g.total_threads();
        let addrs: Vec<u64> = slots
            .iter()
            .enumerate()
            .filter_map(|(lane, &slot)| {
                g.thread_id(block, warp, lane as u32)
                    .map(|tid| local_addr(slot, tid, total_threads))
            })
            .collect();
        if is_store {
            self.events.local_st_requests += 1;
        } else {
            self.events.local_ld_requests += 1;
        }
        if addrs.is_empty() {
            return (0, now);
        }
        let co = coalesce(addrs.iter().copied(), 4, self.cfg.transaction_bytes);
        let divergence = co.replays;
        self.events.replay_local_divergence += u64::from(divergence);
        let mut misses = 0u32;
        let mut completion = now + self.cfg.l1_hit_lat;
        for t in &co.transactions {
            if !self.sms[sm_id].l1.access_rw(*t, is_store).is_hit() {
                misses += 1;
                completion = completion.max(self.offchip_fill(*t, L2Source::Global, now, is_store));
            }
        }
        self.events.l1_local_hits += co.transactions.len() as u64 - u64::from(misses);
        self.events.l1_local_misses += u64::from(misses);
        self.events.replay_local_l1_miss += u64::from(misses);
        (divergence + misses, completion)
    }

    /// Send one transaction through L2 (and DRAM on a miss); returns the
    /// completion cycle. Writes dirty the L2 line; the resulting
    /// write-back traffic is counted (`l2_writebacks`) but not timed —
    /// write drains happen off the kernel's critical path.
    fn offchip_fill(&mut self, addr: u64, source: L2Source, now: u64, write: bool) -> u64 {
        let out = self.l2.access_rw(addr, source, write);
        if out.is_hit() {
            now + self.cfg.l2_hit_lat
        } else {
            let r = self.dram.access(now, addr);
            r.complete_at + self.cfg.l2_hit_lat
        }
    }

    fn finish_warp(&mut self, sm_id: usize, wi: usize, now: u64) {
        let slot = self.sms[sm_id].warps[wi].block_slot;
        {
            let w = &mut self.sms[sm_id].warps[wi];
            if w.done {
                return;
            }
            w.done = true;
        }
        let sm = &mut self.sms[sm_id];
        sm.live -= 1;
        sm.blocks[slot].alive -= 1;
        // A finished warp can be the last arrival a barrier was waiting
        // for.
        if sm.blocks[slot].alive > 0 && sm.blocks[slot].arrived >= sm.blocks[slot].alive {
            sm.blocks[slot].arrived = 0;
            for w in &mut sm.warps {
                if w.block_slot == slot && w.at_barrier {
                    w.at_barrier = false;
                }
            }
        }
        if sm.blocks[slot].alive == 0 {
            // Block retired: pull the next one onto this SM.
            self.assign_block(sm_id, now + 1);
        }
    }
}

enum IssueOutcome {
    Issued { double_width: bool },
    Nothing,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hms_trace::{materialize, ElemIdx, KernelTrace, MemRef, SymOp, WarpTrace};
    use hms_types::{ArrayDef, ArrayId, DType, Geometry, PlacementMap};

    fn cfg() -> GpuConfig {
        GpuConfig::test_small()
    }

    fn vecadd(blocks: u32) -> KernelTrace {
        let n = u64::from(blocks) * 32;
        KernelTrace {
            name: "vecadd".into(),
            arrays: vec![
                ArrayDef::new_1d(0, "a", DType::F32, n, false),
                ArrayDef::new_1d(1, "b", DType::F32, n, false),
                ArrayDef::new_1d(2, "v", DType::F32, n, true),
            ],
            geometry: Geometry::new(blocks, 32),
            warps: (0..blocks)
                .map(|b| WarpTrace {
                    block: b,
                    warp: 0,
                    ops: vec![
                        SymOp::IntAlu(2), // thread-id computation
                        SymOp::AddrCalc {
                            array: ArrayId(0),
                            count: 1,
                        },
                        SymOp::Access(MemRef::load_lin(
                            ArrayId(0),
                            (0..32).map(|l| u64::from(b) * 32 + l),
                        )),
                        SymOp::AddrCalc {
                            array: ArrayId(1),
                            count: 1,
                        },
                        SymOp::Access(MemRef::load_lin(
                            ArrayId(1),
                            (0..32).map(|l| u64::from(b) * 32 + l),
                        )),
                        SymOp::WaitLoads,
                        SymOp::FpAlu(1),
                        SymOp::AddrCalc {
                            array: ArrayId(2),
                            count: 1,
                        },
                        SymOp::Access(MemRef::store_lin(
                            ArrayId(2),
                            (0..32).map(|l| u64::from(b) * 32 + l),
                        )),
                    ],
                })
                .collect(),
        }
    }

    fn run(kt: &KernelTrace, pm: &PlacementMap) -> SimResult {
        let cfg = cfg();
        let ct = materialize(kt, pm, &cfg).unwrap();
        simulate_default(&ct, &cfg).unwrap()
    }

    #[test]
    fn vecadd_completes_and_counts_instructions() {
        let kt = vecadd(8);
        let r = run(&kt, &kt.default_placement());
        assert!(r.cycles > 0);
        // Per warp: 2 int + 2 addr-calc ops x2 instrs + 2 loads + 1 fp +
        // 1 addr-calc x2 + 1 store = executed 2+2+2+1+2+1+1+1 = well,
        // count precisely: IntAlu(2)=2, AddrCalc->2, load=1, AddrCalc->2,
        // load=1, fp=1, AddrCalc->2, store=1 => 12 per warp, 8 warps.
        assert_eq!(r.events.inst_executed, 12 * 8);
        assert_eq!(r.events.global_ld_requests, 16);
        assert_eq!(r.events.global_st_requests, 8);
        // Coalesced: one 128-byte transaction per access.
        assert_eq!(r.events.global_transactions, 24);
        assert_eq!(r.events.replay_global_divergence, 0);
        assert_eq!(r.events.inst_issued, r.events.inst_executed);
        assert_eq!(r.events.dram_requests, r.events.l2_misses);
        assert!(r.time_ns > 0.0);
    }

    #[test]
    fn texture_placement_drops_addressing_instructions() {
        let kt = vecadd(8);
        let g = run(&kt, &kt.default_placement());
        let t = run(
            &kt,
            &kt.default_placement()
                .with(ArrayId(0), MemorySpace::Texture1D)
                .with(ArrayId(1), MemorySpace::Texture1D),
        );
        // Each input access loses its 2 addressing instructions.
        assert_eq!(g.events.inst_executed - t.events.inst_executed, 4 * 8);
        assert_eq!(g.events.inst_integer - t.events.inst_integer, 4 * 8);
        assert!(t.events.tex_requests > 0);
        assert_eq!(t.events.global_ld_requests, 0);
    }

    #[test]
    fn divergent_global_access_replays() {
        let mut kt = vecadd(4);
        // Make array `a` accesses strided so each lane owns a transaction.
        for (b, w) in kt.warps.iter_mut().enumerate() {
            w.ops[2] = SymOp::Access(MemRef::load_lin(
                ArrayId(0),
                (0..32).map(move |l| (b as u64 * 32 + l) * 37 % 128),
            ));
        }
        kt.arrays[0] = ArrayDef::new_1d(0, "a", DType::F32, 128 * 37, false);
        let r = run(&kt, &kt.default_placement());
        assert!(r.events.replay_global_divergence > 0);
        assert!(r.events.inst_issued > r.events.inst_executed);
    }

    #[test]
    fn constant_placement_of_uniform_data_is_cheap() {
        // All lanes of all warps read the same kernel coefficient table
        // element-by-element uniformly: constant memory's broadcast hits.
        let kt = KernelTrace {
            name: "uniform".into(),
            arrays: vec![ArrayDef::new_1d(0, "coef", DType::F32, 64, false)],
            geometry: Geometry::new(4, 32),
            warps: (0..4)
                .map(|b| WarpTrace {
                    block: b,
                    warp: 0,
                    ops: (0..16)
                        .flat_map(|i| {
                            vec![
                                SymOp::AddrCalc {
                                    array: ArrayId(0),
                                    count: 1,
                                },
                                SymOp::Access(MemRef::load(
                                    ArrayId(0),
                                    vec![Some(ElemIdx::Lin(i)); 32],
                                )),
                                SymOp::WaitLoads,
                                SymOp::FpAlu(1),
                            ]
                        })
                        .collect(),
                })
                .collect(),
        };
        let g = run(&kt, &kt.default_placement());
        let c = run(
            &kt,
            &kt.default_placement()
                .with(ArrayId(0), MemorySpace::Constant),
        );
        assert!(c.events.const_requests > 0);
        assert_eq!(c.events.replay_const_divergence, 0);
        // Uniform broadcast reads should finish no slower from constant
        // memory than from global.
        assert!(c.cycles <= g.cycles);
    }

    #[test]
    fn shared_placement_pays_staging_but_serves_fast() {
        // Repeatedly re-read a small table; shared placement stages it
        // once per block then serves at SRAM latency.
        let kt = KernelTrace {
            name: "reread".into(),
            arrays: vec![ArrayDef::new_1d(0, "table", DType::F32, 1024, false)],
            geometry: Geometry::new(2, 64),
            warps: (0..4)
                .map(|i| WarpTrace {
                    block: i / 2,
                    warp: i % 2,
                    ops: (0..32)
                        .flat_map(|r| {
                            let base = (r * 64 + (i % 2) as u64 * 32) % 992;
                            vec![
                                SymOp::AddrCalc {
                                    array: ArrayId(0),
                                    count: 1,
                                },
                                SymOp::Access(MemRef::load_lin(ArrayId(0), base..base + 32)),
                                SymOp::WaitLoads,
                                SymOp::FpAlu(2),
                            ]
                        })
                        .collect(),
                })
                .collect(),
        };
        let s = run(
            &kt,
            &kt.default_placement().with(ArrayId(0), MemorySpace::Shared),
        );
        assert!(s.events.shared_ld_requests > 0);
        // Staging happened: global loads + shared stores + a barrier.
        assert!(s.events.global_ld_requests > 0);
        assert!(s.events.shared_st_requests > 0);
        assert!(s.events.sync_count > 0);
    }

    #[test]
    fn sync_threads_barrier_is_not_a_deadlock() {
        let kt = KernelTrace {
            name: "sync".into(),
            arrays: vec![ArrayDef::new_1d(0, "x", DType::F32, 128, true)],
            geometry: Geometry::new(1, 128),
            warps: (0..4)
                .map(|w| WarpTrace {
                    block: 0,
                    warp: w,
                    ops: vec![
                        SymOp::IntAlu((w + 1) as u16 * 4), // skewed arrival
                        SymOp::SyncThreads,
                        SymOp::FpAlu(1),
                        SymOp::SyncThreads,
                        SymOp::IntAlu(1),
                    ],
                })
                .collect(),
        };
        let r = run(&kt, &kt.default_placement());
        assert_eq!(r.events.sync_count, 8);
    }

    #[test]
    fn more_blocks_take_longer() {
        let small = vecadd(4);
        let large = vecadd(64);
        let rs = run(&small, &small.default_placement());
        let rl = run(&large, &large.default_placement());
        assert!(rl.cycles > rs.cycles);
        assert_eq!(rl.events.blocks_launched, 64);
    }

    #[test]
    fn fp64_consumes_two_issue_slots() {
        let kt = KernelTrace {
            name: "dp".into(),
            arrays: vec![ArrayDef::new_1d(0, "x", DType::F64, 32, false)],
            geometry: Geometry::new(1, 32),
            warps: vec![WarpTrace {
                block: 0,
                warp: 0,
                ops: vec![SymOp::Fp64(10)],
            }],
        };
        let r = run(&kt, &kt.default_placement());
        assert_eq!(r.events.inst_fp64, 10);
        assert_eq!(r.events.replay_double_width, 10);
        assert_eq!(r.events.issue_slots, r.events.inst_issued + 10);
    }

    #[test]
    fn row_buffer_events_reach_event_set() {
        let kt = vecadd(32);
        let r = run(&kt, &kt.default_placement());
        assert!(r.events.dram_requests > 0);
        assert_eq!(
            r.events.dram_requests,
            r.events.row_buffer_hits + r.events.row_buffer_misses + r.events.row_buffer_conflicts
        );
    }
}
