//! Incremental placement-search engine: delta evaluation, memoization,
//! and the lower bound behind the anytime strategies' gap bounds.
//!
//! The naive search pipeline re-runs `rewrite` + `analyze` for every
//! candidate placement, even though most of the work is identical
//! between candidates. Two structural facts make incremental evaluation
//! possible:
//!
//! 1. **The walk skeleton depends only on the shared-memory set.** The
//!    analysis walk's block-to-SM assignment, occupancy, staging
//!    prologue/epilogue, warp interleaving, and every placement-invariant
//!    counter (`mem_instrs`, waits, MLP, syncs, shared/local traffic)
//!    are functions of *which arrays sit in shared memory* — never of
//!    the global/texture/constant choice for the rest. The engine
//!    therefore performs **one** exact `rewrite` + recorded `analyze`
//!    per distinct shared set (a [`Skeleton`]) and replays the recorded
//!    event stream for every other candidate sharing it.
//!
//! 2. **Per-access outcomes are stateless per `(array, space, base)`.**
//!    Coalescing, constant-word dedup, and texture-line dedup depend
//!    only on the lane element indices (recovered once from the sample
//!    trace via [`hms_trace::recover_elem_indices`]), the target space's
//!    layout, and the allocator base — not on cache state. The engine
//!    memoizes them per `(array, space, base, stride)` and composes a
//!    candidate's [`TraceAnalysis`] by re-running only the *stateful*
//!    models (texture/constant caches, L2, DRAM stream) over the
//!    composed access sequence.
//!
//! The composition is **bit-identical** to the direct path by
//! construction: the stateful caches expose the same entry points the
//! walk uses ([`hms_cache::TextureCache::access_lines`],
//! [`hms_cache::ConstantCache::access_words`]), and every skeleton
//! self-checks by replaying its own canonical placement and comparing
//! the full `TraceAnalysis` (exact `PartialEq`) against the direct
//! result. A skeleton that fails the self-check is *poisoned* and its
//! candidates silently take the exact `rewrite`+`analyze` fallback, so
//! correctness never depends on the delta machinery.
//!
//! For the anytime strategies the engine also precomputes a **monotone
//! lower bound** on the predicted time of any completion of a partial
//! assignment (see [`Engine::lower_bound`]): a `T_comp` floor from
//! placement-invariant issue slots plus per-space stateless-replay and
//! addressing floors, and a `T_mem` floor from per-space hit-latency
//! floors — combined through the overlap model's
//! [`ToverlapModel::max_ratio`](crate::toverlap::ToverlapModel::max_ratio)
//! ceiling. Every quantity in the bound can only grow when staging or
//! cache misses are added, so every gap bound built from it is sound.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use hms_cache::{ConstantCache, L2Cache, L2Source, TextureCache};
use hms_trace::{
    addr_calc_instrs, coalesce, element_offset, recover_elem_indices, rewrite, CInstr, ElemIdx,
};
use hms_types::{ArrayId, DType, GpuConfig, HmsError, MemorySpace, PlacementMap};

use crate::analysis::{
    analyze_observed, l2_fill, AnalysisOptions, TraceAnalysis, WalkEvent, WalkObserver,
};
use crate::predictor::{Prediction, Predictor};
use crate::profile::Profile;
use crate::search::{RankedPlacement, SearchStrategy};
use crate::tcomp::effective_throughput;

/// Search observability counters, exposed through
/// [`SearchOutcome`](crate::search::SearchOutcome) and `hms search
/// --stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Distinct walk skeletons built (one exact rewrite + recorded
    /// analysis each).
    pub skeletons_built: u64,
    /// Whole-trace `rewrite` + `analyze` runs: skeleton builds plus
    /// exact fallbacks. The headline economy metric — compare against
    /// `candidates_evaluated`.
    pub full_rewrites: u64,
    /// Candidate evaluations composed from memoized deltas instead of a
    /// full rewrite.
    pub delta_cache_hits: u64,
    /// Candidates that fell back to the exact path (poisoned skeleton).
    pub exact_fallbacks: u64,
    /// `(array, space, base)` delta-memo tables built.
    pub memo_tables_built: u64,
    /// Skeletons loaded from the persistent on-disk cache (each one a
    /// full rewrite + recorded analysis *not* paid).
    pub skeleton_disk_hits: u64,
    /// Disk-cache lookups that missed (absent, stale, or corrupt file —
    /// all trigger a silent rebuild).
    pub skeleton_disk_misses: u64,
    /// Skeletons persisted to the on-disk cache.
    pub skeleton_disk_writes: u64,
    /// Stranded `*.tmp` files swept when the disk cache was opened
    /// (leftovers of writers that died mid-store — see the
    /// [`skelcache`](crate::skelcache) temp-file hygiene notes).
    pub skeleton_disk_tmp_swept: u64,
    /// Legal candidates produced by enumeration.
    pub candidates_enumerated: u64,
    /// Candidates actually evaluated by the model.
    pub candidates_evaluated: u64,
    /// Always 0: no strategy prunes. Kept for the v1 wire member
    /// `stats.candidates_pruned` and for the advisor benchmark's
    /// per-strategy rows.
    pub candidates_pruned: u64,
    /// Always 0, kept beside `candidates_pruned` for the same readers.
    pub subtrees_pruned: u64,
    /// Wall time preparing skeletons and delta memos.
    pub prepare_nanos: u64,
    /// Wall time enumerating candidates.
    pub enumerate_nanos: u64,
    /// Wall time evaluating candidates (model math + ranking).
    pub evaluate_nanos: u64,
    /// Candidates *considered* by an anytime strategy — prefixes scored
    /// by the lower bound, arms advanced by successive halving, genomes
    /// proposed by local search — whether or not they reached the model.
    /// Exact strategies leave this 0.
    pub candidates_visited: u64,
    /// Sound upper bound on the relative optimality gap of the best
    /// returned placement: `best <= optimum * (1 + gap_upper_bound)`.
    /// 0 for exact strategies that ran to completion; see
    /// [`strategies`](crate::strategies) for how each strategy derives
    /// its bound.
    pub gap_upper_bound: f64,
    /// Always 0: every replay serves one candidate, so the count would
    /// equal `delta_cache_hits`. Kept, like `candidates_pruned`, for the
    /// advisor benchmark's per-layer rows.
    pub batched_replays: u64,
    /// Always 0: the replay width is a constant 1. Kept beside
    /// `batched_replays` for the same reader.
    pub lane_width: u64,
    /// Skeleton events decoded across all replays, the self-check
    /// replay of each skeleton build included. Independent of the
    /// worker count.
    pub events_streamed: u64,
    /// Wire name of the strategy that produced this snapshot (see
    /// [`SearchStrategy::name`]); empty for snapshots taken outside a
    /// search.
    pub strategy: &'static str,
}

impl EngineStats {
    /// Candidates evaluated per full trace rewrite — the factor the
    /// incremental engine saves over the naive search (≥ 5x on a
    /// 3-array search is the working target).
    pub fn rewrite_reduction(&self) -> f64 {
        self.candidates_evaluated as f64 / self.full_rewrites.max(1) as f64
    }

    /// Whether `strategy` names one of the anytime approximate
    /// strategies ([`SearchStrategy::is_anytime`]) — the ones whose
    /// `candidates_visited` / `gap_upper_bound` carry meaning (and
    /// appear on the wire).
    pub fn anytime(&self) -> bool {
        SearchStrategy::parse(self.strategy, None, None).is_ok_and(SearchStrategy::is_anytime)
    }

    /// Fold another stats snapshot into this one, field by field — how
    /// the advisory server's `/metrics` keeps cumulative engine totals
    /// across searches. Counters add up. `candidates_visited` and
    /// `gap_upper_bound` only carry meaning for
    /// [anytime](Self::anytime) snapshots, so only those feed them: the
    /// visits add up, and the gap is a gauge of the most recent anytime
    /// search. The strategy name is per-search; the accumulator's own
    /// label stays.
    pub fn accumulate(&mut self, other: &EngineStats) {
        self.skeletons_built += other.skeletons_built;
        self.full_rewrites += other.full_rewrites;
        self.delta_cache_hits += other.delta_cache_hits;
        self.exact_fallbacks += other.exact_fallbacks;
        self.memo_tables_built += other.memo_tables_built;
        self.skeleton_disk_hits += other.skeleton_disk_hits;
        self.skeleton_disk_misses += other.skeleton_disk_misses;
        self.skeleton_disk_writes += other.skeleton_disk_writes;
        self.skeleton_disk_tmp_swept += other.skeleton_disk_tmp_swept;
        self.candidates_enumerated += other.candidates_enumerated;
        self.candidates_evaluated += other.candidates_evaluated;
        self.prepare_nanos += other.prepare_nanos;
        self.enumerate_nanos += other.enumerate_nanos;
        self.evaluate_nanos += other.evaluate_nanos;
        self.events_streamed += other.events_streamed;
        if other.anytime() {
            self.candidates_visited += other.candidates_visited;
            self.gap_upper_bound = other.gap_upper_bound;
        }
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "search engine stats:")?;
        if !self.strategy.is_empty() {
            writeln!(f, "  strategy                {:>10}", self.strategy)?;
        }
        if self.anytime() {
            writeln!(
                f,
                "  candidates visited      {:>10}",
                self.candidates_visited
            )?;
            writeln!(
                f,
                "  gap upper bound         {:>12.2}%",
                self.gap_upper_bound * 100.0
            )?;
        }
        writeln!(
            f,
            "  candidates enumerated   {:>10}",
            self.candidates_enumerated
        )?;
        writeln!(
            f,
            "  candidates evaluated    {:>10}",
            self.candidates_evaluated
        )?;
        writeln!(f, "  skeletons built         {:>10}", self.skeletons_built)?;
        writeln!(f, "  full trace rewrites     {:>10}", self.full_rewrites)?;
        writeln!(f, "  delta-composed evals    {:>10}", self.delta_cache_hits)?;
        writeln!(f, "  exact fallbacks         {:>10}", self.exact_fallbacks)?;
        writeln!(
            f,
            "  delta memo tables       {:>10}",
            self.memo_tables_built
        )?;
        writeln!(
            f,
            "  skeleton disk hits      {:>10}",
            self.skeleton_disk_hits
        )?;
        writeln!(
            f,
            "  skeleton disk misses    {:>10}",
            self.skeleton_disk_misses
        )?;
        if self.skeleton_disk_tmp_swept > 0 {
            writeln!(
                f,
                "  skeleton temps swept    {:>10}",
                self.skeleton_disk_tmp_swept
            )?;
        }
        if self.events_streamed > 0 {
            writeln!(f, "  events streamed         {:>10}", self.events_streamed)?;
        }
        writeln!(
            f,
            "  rewrite reduction       {:>13.2}x",
            self.rewrite_reduction()
        )?;
        writeln!(
            f,
            "  prepare / enumerate / evaluate  {:.2} ms / {:.2} ms / {:.2} ms",
            self.prepare_nanos as f64 / 1e6,
            self.enumerate_nanos as f64 / 1e6,
            self.evaluate_nanos as f64 / 1e6,
        )
    }
}

/// Event-kind codes of the skeleton's recorded stream.
pub(crate) const EV_ADVANCE: u8 = 0;
pub(crate) const EV_ADDR_CALC: u8 = 1;
pub(crate) const EV_BODY: u8 = 2;
pub(crate) const EV_STAGING_GLOBAL: u8 = 3;
pub(crate) const EV_L2_PROBE: u8 = 4;

/// One recorded walk event as a fixed-size record; the replay loop
/// streams over a flat `Vec<EventRec>` (plus the shared transaction
/// arena) instead of chasing per-event heap payloads.
///
/// Field use per kind:
///
/// | kind             | `flag`     | `arr`  | `x`        | `tx..tx+tx_len` |
/// |------------------|------------|--------|------------|-----------------|
/// | `EV_ADVANCE`     | –          | –      | slot count | –               |
/// | `EV_ADDR_CALC`   | –          | array  | ref count  | –               |
/// | `EV_BODY`        | –          | array  | ordinal    | –               |
/// | `EV_STAGING_GLOBAL` | is_store | –     | replays    | transactions    |
/// | `EV_L2_PROBE`    | is_store   | –      | address    | –               |
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventRec {
    pub kind: u8,
    pub flag: u8,
    pub sm: u16,
    pub arr: u32,
    pub x: u64,
    pub tx: u32,
    pub tx_len: u32,
}

/// The recorded walk of one shared-memory set.
#[derive(Debug)]
pub(crate) struct Skeleton {
    /// Placement-invariant counters copied from the canonical analysis;
    /// placement-dependent fields zeroed (recomputed at replay).
    pub(crate) consts: TraceAnalysis,
    pub(crate) events: Vec<EventRec>,
    /// Arena of staging-copy transaction addresses, referenced by
    /// `EV_STAGING_GLOBAL` records.
    pub(crate) tx_arena: Vec<u64>,
    /// Per-array `(offchip_base, block_stride)` under this skeleton's
    /// allocator (meaningless for arrays inside the shared set, which
    /// never appear as `Body` events).
    pub(crate) bases: Vec<(u64, u64)>,
    /// Self-check failed (or recording hit an inconsistency): all
    /// candidates of this shared set take the exact path.
    pub(crate) poisoned: bool,
}

/// Per-thread replay state for one candidate: the stateful cache
/// models, per-SM positions, and the output accumulator. The cache
/// models dominate the allocation cost (~hundreds of KiB when built
/// fresh); keeping them thread-local and generation-resetting them
/// ([`SetAssocCache::reset`](hms_cache::SetAssocCache)) makes a warm
/// replay allocation-free.
struct ReplayScratch {
    l2: L2Cache,
    const_caches: Vec<ConstantCache>,
    tex_caches: Vec<TextureCache>,
    sm_pos: Vec<u64>,
    /// The accumulating `TraceAnalysis`; reused across replays so the
    /// DRAM stream keeps its capacity (no per-replay allocation).
    out: TraceAnalysis,
    /// Per-array addressing expansion per `AddrCalc` count unit under
    /// the candidate's placement.
    addr_n: Vec<u64>,
    /// Scratch for the texture/constant caches' missed-line output
    /// (cleared by [`TextureCache::access_lines_into`] /
    /// [`ConstantCache::access_words_into`] on every call) — keeps the
    /// per-body-event miss list off the heap.
    missed: Vec<u64>,
    /// Per-array memo row under the candidate's space, resolved on the
    /// array's first body event.
    memo_slots: Vec<Option<Arc<MemoRow>>>,
}

impl ReplayScratch {
    fn new(cfg: &GpuConfig) -> Self {
        let num_sms = cfg.num_sms as usize;
        ReplayScratch {
            l2: L2Cache::new(cfg.l2_cache),
            const_caches: (0..num_sms)
                .map(|_| ConstantCache::new(cfg.const_cache))
                .collect(),
            tex_caches: (0..num_sms)
                .map(|_| TextureCache::new(cfg.tex_cache))
                .collect(),
            sm_pos: vec![0; num_sms],
            out: TraceAnalysis::default(),
            addr_n: Vec::new(),
            missed: Vec::new(),
            memo_slots: Vec::new(),
        }
    }

    /// Was this scratch built for an identical machine shape? A thread
    /// may serve engines with different configs over its lifetime.
    fn matches(&self, cfg: &GpuConfig) -> bool {
        self.sm_pos.len() == cfg.num_sms as usize
            && *self.l2.geometry() == cfg.l2_cache
            && self
                .const_caches
                .first()
                .is_none_or(|c| *c.geometry() == cfg.const_cache)
            && self
                .tex_caches
                .first()
                .is_none_or(|c| *c.geometry() == cfg.tex_cache)
    }

    /// Return the model state to just-constructed, load the skeleton's
    /// placement-invariant constants and `target`'s per-array
    /// addressing, all without touching the heap: the caches
    /// generation-reset and the output's DRAM stream keeps its buffers
    /// (the skeleton's `consts.dram` is empty by construction, so the
    /// clone below allocates nothing).
    fn reset(&mut self, consts: &TraceAnalysis, target: &PlacementMap, dtypes: &[DType]) {
        self.l2.reset();
        for c in &mut self.const_caches {
            c.reset();
        }
        for c in &mut self.tex_caches {
            c.reset();
        }
        self.sm_pos.fill(0);
        let mut dram = std::mem::take(&mut self.out.dram);
        dram.clear();
        self.out = consts.clone();
        self.out.dram = dram;
        self.addr_n.clear();
        self.addr_n
            .extend(dtypes.iter().enumerate().map(|(i, &dtype)| {
                u64::from(addr_calc_instrs(target.space(ArrayId(i as u32)), dtype))
            }));
        self.memo_slots.clear();
        self.memo_slots.resize(dtypes.len(), None);
    }
}

thread_local! {
    static REPLAY_SCRATCH: RefCell<Option<ReplayScratch>> = const { RefCell::new(None) };
}

/// Per-access shape recovered once from the sample trace.
#[derive(Debug)]
struct AccessShape {
    block: u32,
    is_store: bool,
    elem_bytes: u8,
    idx: Vec<Option<ElemIdx>>,
}

/// Which memory system one memoized access drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoKind {
    /// No active lanes: the access advances the position but touches no
    /// memory system.
    Empty,
    Global,
    Tex,
    Const,
}

/// Memoized stateless outcome of one access under one `(space, base)`:
/// the kind plus a span into the row's shared address arena. `Copy`, so
/// the base-shift that concretizes a cached base-0 row into a
/// `(base, stride)` row is two flat buffer copies — no per-access heap
/// allocation (the old per-outcome `Vec`s made that a deep clone).
#[derive(Debug, Clone, Copy)]
struct MemoItem {
    kind: MemoKind,
    /// Global only: is this a store (dirties L2 lines).
    is_store: bool,
    /// Global only: stateless divergence replays.
    replays: u32,
    /// Span of this access's addresses in [`MemoRow::addrs`]:
    /// coalesced transactions (global), sorted deduplicated lines
    /// (texture), or sorted deduplicated words (constant).
    start: u32,
    len: u32,
}

/// One `(array, space, base, stride)` memo: per-access items over one
/// concatenated address arena.
#[derive(Debug, Clone)]
struct MemoRow {
    items: Vec<MemoItem>,
    addrs: Vec<u64>,
}

impl MemoRow {
    /// The address span of item `ord`.
    #[inline]
    fn span(&self, item: &MemoItem) -> &[u64] {
        &self.addrs[item.start as usize..(item.start + item.len) as usize]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    array: ArrayId,
    space: MemorySpace,
    base: u64,
    stride: u64,
}

/// Index of `space` in [`MemorySpace::ALL`] order.
fn space_idx(space: MemorySpace) -> usize {
    match space {
        MemorySpace::Global => 0,
        MemorySpace::Texture1D => 1,
        MemorySpace::Texture2D => 2,
        MemorySpace::Constant => 3,
        MemorySpace::Shared => 4,
    }
}

/// Everything an [`Engine`] derives purely from `(sample trace, GPU
/// config, model options)` — no placement enters any of it. Computed on
/// the first `Engine::new` for a given `(profile, predictor shape)` and
/// cached *inside the [`Profile`]* (see [`StaticsCache`]), so repeated
/// engine construction over the same profile — the serving advisor, the
/// warm benchmark pass, every search request — skips the whole sample
/// scan, the sample analysis, and the kernel fingerprint.
///
/// Placement-*derived* state (skeletons, per-base memo tables) stays
/// per-engine / on disk: caching it here would let one engine's search
/// warm another's measurements.
pub(crate) struct EngineStatics {
    dtypes: Vec<DType>,
    /// Per array, its body accesses in sample-trace order.
    access_info: Vec<Vec<AccessShape>>,
    /// `(block, warp)` → per-body-instruction `(array, ordinal)`.
    warp_body_map: HashMap<(u32, u32), Vec<Option<(ArrayId, u32)>>>,
    lb: LbStatics,
    /// Sample-trace analysis, shared across predictions by the
    /// non-detailed model variants (computed once instead of per call).
    sample_analysis: Option<TraceAnalysis>,
    /// [`crate::skelcache::kernel_hash`] of `(trace, cfg)` — the disk
    /// cache's fingerprint, precomputed so `with_disk_cache_fs` does not
    /// re-serialize the trace on every engine construction.
    kernel_fingerprint: u64,
    /// Base-0 delta-memo rows keyed `(array, space, block_stride)`.
    /// Every allocator base is `OFFCHIP_ALIGN`-aligned, which the
    /// transaction size, texture line, and constant word all divide —
    /// so a concrete `(base, stride)` row is the base-0 row with `base`
    /// added to every address, bit-exactly (see `Engine::build_memo`).
    base_rows: Mutex<HashMap<(ArrayId, u8, u64), Arc<MemoRow>>>,
}

/// Key identifying one statics entry: the machine + model shape the
/// statics were derived under. The overlap model enters only through
/// `max_ratio` (the lower bound's `rmax`), so its clamp ceiling is the
/// whole key contribution.
#[derive(Debug, Clone, PartialEq)]
struct StaticsKey {
    cfg: GpuConfig,
    options: crate::predictor::ModelOptions,
    rmax_bits: u64,
}

/// Interior-mutable statics cache carried by [`Profile`]. A handful of
/// `(config, options)` shapes per profile at most, so a linear scan
/// beats hashing the whole `GpuConfig`.
#[derive(Default)]
pub struct StaticsCache(Mutex<Vec<(StaticsKey, Arc<EngineStatics>)>>);

impl StaticsCache {
    fn get_or_build(
        &self,
        key: StaticsKey,
        build: impl FnOnce() -> EngineStatics,
    ) -> Arc<EngineStatics> {
        let mut slot = lock(&self.0);
        if let Some((_, st)) = slot.iter().find(|(k, _)| *k == key) {
            return st.clone();
        }
        let st = Arc::new(build());
        slot.push((key, st.clone()));
        st
    }
}

impl Clone for StaticsCache {
    /// A clone starts empty: the statics are pure functions of the
    /// profile's trace, and a cloned profile may be about to mutate its
    /// trace (the validation tests do exactly that). Rebuilding costs
    /// one sample scan; inheriting stale statics could cost correctness.
    fn clone(&self) -> Self {
        StaticsCache::default()
    }
}

impl std::fmt::Debug for StaticsCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = lock(&self.0).len();
        write!(f, "StaticsCache({n} entries)")
    }
}

/// Placement-invariant quantities behind the engine's lower bound.
/// Every term either equals or under-approximates its counterpart in
/// the real model for *any* completion of a partial assignment.
#[derive(Debug)]
struct LbStatics {
    detailed: bool,
    /// Body issue slots excluding addressing expansion (ALU + syncs +
    /// memory + local); staging only adds to this.
    body_fixed_executed: u64,
    body_mem_instrs: u64,
    body_wait_events: u64,
    /// Per array: addressing expansion per space (already scaled by the
    /// trace's AddrCalc counts).
    expansion: Vec<[u64; 5]>,
    /// Per array: exact stateless replays per space (global divergence,
    /// constant divergence, shared conflicts; texture 0). Stateful
    /// replay causes (cache misses) only add to these.
    stateless_replays: Vec<[u64; 5]>,
    /// Per array: non-empty body accesses.
    body_requests: Vec<u64>,
    /// Per array: minima over that array's standalone-legal spaces.
    free_expansion: Vec<u64>,
    free_replays: Vec<u64>,
    free_floor: Vec<f64>,
    /// Standalone-legal spaces per array (a superset of jointly-legal).
    legal_spaces: Vec<Vec<MemorySpace>>,
    /// Per-space AMAT hit-latency floor.
    floor_lat: [f64; 5],
    /// Floor for any staging access the completion might add.
    c_min: f64,
    /// Throughput at the maximum (shared-free) occupancy: the fastest
    /// any completion can issue.
    thr_min: f64,
    active_sms: f64,
    total_warps: f64,
    waves_min: f64,
    w_serial_lb: f64,
    other_replays: u64,
    inst_executed_sample: u64,
    rmax: f64,
}

/// The incremental evaluation engine. Create once per `(predictor,
/// profile)` pair; skeletons and delta memos accumulate across calls.
pub struct Engine<'a> {
    predictor: &'a Predictor,
    profile: &'a Profile,
    /// Shared placement-invariant derivations of the sample trace —
    /// cached inside the profile, so re-constructing an engine over the
    /// same `(profile, config, options)` costs one cache probe.
    st: Arc<EngineStatics>,
    skeletons: Mutex<HashMap<Vec<bool>, Arc<Skeleton>>>,
    memos: Mutex<HashMap<MemoKey, Arc<MemoRow>>>,
    /// Observability counts: the one record `stats` copies out, bumped
    /// through [`Engine::count`].
    stats: Mutex<EngineStats>,
    /// Fault-injection hook: when set, every skeleton built afterwards
    /// is poisoned, forcing the exact-fallback path. Exercised by the
    /// chaos suite to prove degradation is invisible in the output.
    inject_poison: AtomicBool,
    /// Optional persistent skeleton cache (see [`crate::skelcache`]).
    disk: Option<crate::skelcache::DiskCache>,
}

/// Lock one of the engine's caches or its counts, recovering from a
/// poisoned mutex: a panicking worker can only have left a cache
/// mid-insert of an `Arc` value, which the `HashMap` either holds or
/// doesn't, or the counts between two additions — every such state is
/// valid, so the data is safe to keep using.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl EngineStatics {
    /// Scan the sample trace once: recover per-access element indices,
    /// assign per-array ordinals, and precompute the lower-bound
    /// statics, the sample analysis, and the disk-cache fingerprint.
    fn build(predictor: &Predictor, profile: &Profile) -> Self {
        let cfg = &predictor.cfg;
        let trace = &profile.trace;
        let n = trace.arrays.len();

        let mut access_info: Vec<Vec<AccessShape>> = (0..n).map(|_| Vec::new()).collect();
        let mut warp_body_map = HashMap::new();
        let mut body_fixed_executed = 0u64;
        let mut body_syncs = 0u64;
        let mut body_mem_instrs = 0u64;
        let mut body_wait_events = 0u64;
        let mut addrcalc_total = vec![0u64; n];
        for w in &trace.warps {
            let mut per_instr = Vec::with_capacity(w.instrs.len());
            let mut outstanding = 0u32;
            for instr in &w.instrs {
                let mut slot = None;
                match instr {
                    CInstr::Alu { count, .. } => body_fixed_executed += u64::from(*count),
                    CInstr::SyncThreads => {
                        body_fixed_executed += 1;
                        body_syncs += 1;
                    }
                    CInstr::WaitLoads => {
                        if outstanding > 0 {
                            body_wait_events += 1;
                            outstanding = 0;
                        }
                    }
                    CInstr::AddrCalc { array, count } => {
                        addrcalc_total[array.index()] += u64::from(*count);
                    }
                    CInstr::Local { is_store, .. } => {
                        body_fixed_executed += 1;
                        body_mem_instrs += 1;
                        if !is_store {
                            outstanding += 1;
                        }
                    }
                    CInstr::Mem(m) => {
                        body_fixed_executed += 1;
                        body_mem_instrs += 1;
                        if !m.is_store {
                            outstanding += 1;
                        }
                        let ai = m.array.index();
                        slot = Some((m.array, access_info[ai].len() as u32));
                        access_info[ai].push(AccessShape {
                            block: w.block,
                            is_store: m.is_store,
                            elem_bytes: m.elem_bytes,
                            idx: recover_elem_indices(trace, w.block, m, cfg),
                        });
                    }
                }
                per_instr.push(slot);
            }
            warp_body_map.insert((w.block, w.warp), per_instr);
        }

        // Per-array, per-space stateless floors. Offsets are computed at
        // base 0: coalescing, word counts, and bank patterns are all
        // invariant under the allocator's aligned base shifts.
        let mut expansion = vec![[0u64; 5]; n];
        let mut stateless_replays = vec![[0u64; 5]; n];
        let mut body_requests = vec![0u64; n];
        let mut legal_spaces: Vec<Vec<MemorySpace>> = vec![Vec::new(); n];
        let all_global = PlacementMap::all_global(n);
        for (i, arr) in trace.arrays.iter().enumerate() {
            for space in MemorySpace::ALL {
                expansion[i][space_idx(space)] =
                    u64::from(addr_calc_instrs(space, arr.dtype)) * addrcalc_total[i];
                if all_global
                    .with(ArrayId(i as u32), space)
                    .validate(&trace.arrays, cfg)
                    .is_ok()
                {
                    legal_spaces[i].push(space);
                }
            }
            for acc in &access_info[i] {
                let offs: Vec<u64> = acc
                    .idx
                    .iter()
                    .flatten()
                    .map(|&ix| element_offset(arr, MemorySpace::Global, ix, cfg))
                    .collect();
                if offs.is_empty() {
                    continue;
                }
                body_requests[i] += 1;
                let co = coalesce(
                    offs.iter().copied(),
                    u64::from(acc.elem_bytes),
                    cfg.transaction_bytes,
                );
                stateless_replays[i][space_idx(MemorySpace::Global)] += u64::from(co.replays);
                let mut words: Vec<u64> = offs.iter().map(|a| a / 4 * 4).collect();
                words.sort_unstable();
                words.dedup();
                stateless_replays[i][space_idx(MemorySpace::Constant)] += words.len() as u64 - 1;
                stateless_replays[i][space_idx(MemorySpace::Shared)] += u64::from(
                    hms_cache::shared_conflict_passes(&offs, cfg.shared_banks).saturating_sub(1),
                );
            }
        }
        let floor_lat = [
            cfg.l2_hit_lat as f64,
            cfg.tex_hit_lat as f64,
            cfg.tex_hit_lat as f64,
            cfg.const_hit_lat as f64,
            cfg.shared_lat as f64,
        ];
        let mins = |f: &dyn Fn(MemorySpace) -> f64, legal: &[MemorySpace]| -> f64 {
            legal.iter().map(|&s| f(s)).fold(f64::INFINITY, f64::min)
        };
        let mut free_expansion = vec![0u64; n];
        let mut free_replays = vec![0u64; n];
        let mut free_floor = vec![0.0f64; n];
        for i in 0..n {
            let legal = &legal_spaces[i];
            if legal.is_empty() {
                continue;
            }
            free_expansion[i] = legal
                .iter()
                .map(|&s| expansion[i][space_idx(s)])
                .min()
                .unwrap_or(0);
            free_replays[i] = legal
                .iter()
                .map(|&s| stateless_replays[i][space_idx(s)])
                .min()
                .unwrap_or(0);
            free_floor[i] = mins(&|s| floor_lat[space_idx(s)], legal);
        }

        // Occupancy extremes: with zero shared usage the SM packs the
        // most blocks, issuing fastest and draining the grid in the
        // fewest waves — both floors for any completion.
        let g = &trace.geometry;
        let blocks = g.grid_blocks as usize;
        let wpb = g.warps_per_block().max(1);
        let by_warps = (cfg.max_warps_per_sm / wpb).max(1) as usize;
        let bps_max = by_warps.min(cfg.max_blocks_per_sm as usize);
        let active_sms = (cfg.num_sms as usize).min(blocks).max(1);
        let wps_max = f64::from(wpb) * (bps_max.min(blocks.div_ceil(active_sms))) as f64;
        let thr_min = effective_throughput(cfg, wps_max.max(1.0));
        let waves_min = blocks
            .div_ceil((cfg.num_sms as usize * bps_max).max(1))
            .max(1) as f64;
        let active_sms_f = active_sms as f64;
        let total_warps = g.total_warps().max(1) as f64;

        let lb = LbStatics {
            detailed: predictor.options.detailed_instr,
            body_fixed_executed,
            body_mem_instrs,
            body_wait_events,
            expansion,
            stateless_replays,
            body_requests,
            free_expansion,
            free_replays,
            free_floor,
            legal_spaces,
            floor_lat,
            c_min: (cfg.l2_hit_lat as f64).min(cfg.shared_lat as f64),
            thr_min,
            active_sms: active_sms_f,
            total_warps,
            waves_min,
            w_serial_lb: body_syncs as f64 / active_sms_f * cfg.avg_inst_lat as f64,
            other_replays: profile.other_replays(),
            inst_executed_sample: profile.events.inst_executed,
            rmax: predictor.overlap.max_ratio(),
        };

        let sample_analysis = if predictor.options.detailed_instr {
            None
        } else {
            Some(crate::analysis::analyze(&profile.trace, cfg))
        };

        EngineStatics {
            dtypes: trace.arrays.iter().map(|a| a.dtype).collect(),
            access_info,
            warp_body_map,
            lb,
            sample_analysis,
            kernel_fingerprint: crate::skelcache::kernel_hash(trace, cfg),
            base_rows: Mutex::new(HashMap::new()),
        }
    }
}

impl<'a> Engine<'a> {
    /// Create an engine over `(predictor, profile)`. The sample-trace
    /// scan behind it is cached in the profile (see [`EngineStatics`]),
    /// so repeated construction over the same profile is cheap.
    pub fn new(predictor: &'a Predictor, profile: &'a Profile) -> Self {
        let key = StaticsKey {
            cfg: predictor.cfg.clone(),
            options: predictor.options,
            rmax_bits: predictor.overlap.max_ratio().to_bits(),
        };
        let st = profile
            .statics
            .get_or_build(key, || EngineStatics::build(predictor, profile));
        Engine {
            predictor,
            profile,
            st,
            skeletons: Mutex::new(HashMap::new()),
            memos: Mutex::new(HashMap::new()),
            stats: Mutex::new(EngineStats::default()),
            inject_poison: AtomicBool::new(false),
            disk: None,
        }
    }

    /// Attach a persistent on-disk skeleton cache rooted at `dir`, with
    /// every file operation going through `fs` (`RealFs`, or the chaos
    /// suite's fault injector: ENOSPC, torn writes, bit-rot, rename
    /// failure). See the [`skelcache`](crate::skelcache) module docs for
    /// the file format and invalidation rules. Every load is gated by
    /// the format version, a kernel fingerprint, a payload checksum, and
    /// structural validation; any failure silently rebuilds — a stale
    /// or corrupt cache can cost a rewrite, never a wrong prediction.
    /// Opening sweeps stranded temp files; the count lands in
    /// [`EngineStats::skeleton_disk_tmp_swept`].
    pub fn with_disk_cache_fs(
        mut self,
        dir: &Path,
        fs: Arc<dyn crate::skelcache::CacheFs>,
    ) -> Self {
        // The kernel fingerprint was computed (and cached) with the
        // statics — attaching a disk cache costs no trace serialization.
        let cache = crate::skelcache::DiskCache::with_fs(dir, self.st.kernel_fingerprint, fs);
        self.count(|s| s.skeleton_disk_tmp_swept += cache.swept());
        self.disk = Some(cache);
        self
    }

    /// The predictor this engine evaluates with.
    pub fn predictor(&self) -> &Predictor {
        self.predictor
    }

    /// Force every skeleton built from now on to be poisoned, so each
    /// candidate takes the exact `rewrite`+`analyze` fallback. Set it
    /// **before** the first evaluation — already-cached healthy
    /// skeletons keep serving. A deterministic stand-in for the real
    /// poisoning trigger (a failed self-check), used by the chaos suite
    /// to assert the fallback is bit-identical to the delta path.
    pub fn inject_poison(&self, on: bool) {
        self.inject_poison.store(on, Ordering::Relaxed);
    }

    /// The profiled sample this engine searches from.
    pub fn profile(&self) -> &Profile {
        self.profile
    }

    /// A copy of the engine's observability counts.
    pub fn stats(&self) -> EngineStats {
        *lock(&self.stats)
    }

    /// Update the engine's counts under their one lock. Callers fold
    /// everything one step counts into a single call.
    pub(crate) fn count(&self, f: impl FnOnce(&mut EngineStats)) {
        f(&mut lock(&self.stats));
    }

    /// Which arrays `pm` places in shared memory: the key candidates
    /// share one walk skeleton under.
    pub(crate) fn shared_key(&self, pm: &PlacementMap) -> Vec<bool> {
        (0..self.st.dtypes.len())
            .map(|i| pm.space(ArrayId(i as u32)) == MemorySpace::Shared)
            .collect()
    }

    /// Fetch (or build) the delta memo for `(array, space)` under the
    /// given allocator bases.
    fn get_memo(&self, array: ArrayId, space: MemorySpace, bases: (u64, u64)) -> Arc<MemoRow> {
        let key = MemoKey {
            array,
            space,
            base: bases.0,
            stride: bases.1,
        };
        if let Some(m) = lock(&self.memos).get(&key) {
            return m.clone();
        }
        let built = Arc::new(self.build_memo(array, space, bases));
        // Count only winning inserts: losing a build race must not make
        // the observability counters depend on the worker count.
        match lock(&self.memos).entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
            std::collections::hash_map::Entry::Vacant(v) => {
                self.count(|s| s.memo_tables_built += 1);
                v.insert(built).clone()
            }
        }
    }

    /// Build the memo row for `(array, space)` under concrete allocator
    /// `bases = (b0, stride)`. When `b0` is a multiple of every granule
    /// the stateless math rounds to (transaction, texture line,
    /// constant word), the row equals the shared base-0 row with `b0`
    /// added to every address — bit-exactly: `floor((a + b0)/g)*g =
    /// floor(a/g)*g + b0` whenever `g | b0`, a uniform shift preserves
    /// sort order and dedup structure, and coalescing groups by
    /// address-over-transaction quotients which all shift together. The
    /// allocator's `OFFCHIP_ALIGN` guarantees the alignment in
    /// practice; the guard keeps any other allocator on the direct
    /// path.
    fn build_memo(&self, array: ArrayId, space: MemorySpace, bases: (u64, u64)) -> MemoRow {
        let cfg = &self.predictor.cfg;
        let b0 = bases.0;
        let aligned =
            b0 % cfg.transaction_bytes == 0 && b0 % cfg.tex_cache.line_bytes == 0 && b0 % 4 == 0;
        if !aligned {
            return self.build_memo_at(array, space, bases);
        }
        let row0 = self.base_row(array, space, bases.1);
        if b0 == 0 {
            return (*row0).clone();
        }
        MemoRow {
            items: row0.items.clone(),
            addrs: row0.addrs.iter().map(|a| a + b0).collect(),
        }
    }

    /// Fetch (or build) the shared base-0 row for `(array, space,
    /// stride)` from the profile-level statics cache. The row is a pure
    /// function of the sample trace and the config — every skeleton
    /// whose allocator lands the array at the same block stride reuses
    /// it, whatever the base.
    fn base_row(&self, array: ArrayId, space: MemorySpace, stride: u64) -> Arc<MemoRow> {
        let key = (array, space_idx(space) as u8, stride);
        if let Some(r) = lock(&self.st.base_rows).get(&key) {
            return r.clone();
        }
        let built = Arc::new(self.build_memo_at(array, space, (0, stride)));
        lock(&self.st.base_rows).entry(key).or_insert(built).clone()
    }

    fn build_memo_at(&self, array: ArrayId, space: MemorySpace, bases: (u64, u64)) -> MemoRow {
        let cfg = &self.predictor.cfg;
        let arr = &self.profile.trace.arrays[array.index()];
        let tex_line = cfg.tex_cache.line_bytes;
        let accesses = &self.st.access_info[array.index()];
        let mut row = MemoRow {
            items: Vec::with_capacity(accesses.len()),
            addrs: Vec::new(),
        };
        let empty = MemoItem {
            kind: MemoKind::Empty,
            is_store: false,
            replays: 0,
            start: 0,
            len: 0,
        };
        for acc in accesses {
            let base = bases.0 + bases.1 * u64::from(acc.block);
            let addrs: Vec<u64> = acc
                .idx
                .iter()
                .flatten()
                .map(|&ix| base + element_offset(arr, space, ix, cfg))
                .collect();
            if addrs.is_empty() {
                row.items.push(empty);
                continue;
            }
            let start = row.addrs.len() as u32;
            let item = match space {
                MemorySpace::Global => {
                    let co = coalesce(
                        addrs.iter().copied(),
                        u64::from(acc.elem_bytes),
                        cfg.transaction_bytes,
                    );
                    row.addrs.extend_from_slice(&co.transactions);
                    MemoItem {
                        kind: MemoKind::Global,
                        is_store: acc.is_store,
                        replays: co.replays,
                        start,
                        len: co.transactions.len() as u32,
                    }
                }
                MemorySpace::Texture1D | MemorySpace::Texture2D => {
                    let mut lines: Vec<u64> =
                        addrs.iter().map(|a| a / tex_line * tex_line).collect();
                    lines.sort_unstable();
                    lines.dedup();
                    row.addrs.extend_from_slice(&lines);
                    MemoItem {
                        kind: MemoKind::Tex,
                        is_store: false,
                        replays: 0,
                        start,
                        len: lines.len() as u32,
                    }
                }
                MemorySpace::Constant => {
                    let mut words: Vec<u64> = addrs.iter().map(|a| a / 4 * 4).collect();
                    words.sort_unstable();
                    words.dedup();
                    row.addrs.extend_from_slice(&words);
                    MemoItem {
                        kind: MemoKind::Const,
                        is_store: false,
                        replays: 0,
                        start,
                        len: words.len() as u32,
                    }
                }
                // Shared-placed arrays never appear as Body events;
                // an empty outcome keeps the replay total-safe.
                MemorySpace::Shared => empty,
            };
            row.items.push(item);
        }
        row
    }

    /// Probe the persistent cache (when configured), falling back to a
    /// full build; healthy fresh builds are written back. Does not
    /// touch the in-memory skeleton map.
    fn load_or_build(&self, canonical: &PlacementMap, key: &[bool]) -> Arc<Skeleton> {
        let Some(disk) = &self.disk else {
            return Arc::new(self.build_skeleton(canonical));
        };
        if let Some(skel) = disk.load(key) {
            if self.skeleton_is_plausible(&skel) {
                self.count(|s| s.skeleton_disk_hits += 1);
                return Arc::new(skel);
            }
        }
        self.count(|s| s.skeleton_disk_misses += 1);
        let built = Arc::new(self.build_skeleton(canonical));
        if !built.poisoned && disk.store(key, &built) {
            self.count(|s| s.skeleton_disk_writes += 1);
        }
        built
    }

    /// Structural validation of a deserialized skeleton against this
    /// engine's trace: every record must decode to in-bounds indices.
    /// Defense in depth behind the checksum — a file that passes the
    /// header checks but indexes out of range is treated as a miss
    /// rather than a panic source.
    fn skeleton_is_plausible(&self, skel: &Skeleton) -> bool {
        let n = self.st.dtypes.len();
        let num_sms = u64::from(self.predictor.cfg.num_sms);
        if skel.bases.len() != n || skel.poisoned {
            return false;
        }
        skel.events.iter().all(|ev| {
            if ev.kind > EV_L2_PROBE || u64::from(ev.sm) >= num_sms {
                return false;
            }
            match ev.kind {
                EV_ADDR_CALC => (ev.arr as usize) < n,
                EV_BODY => {
                    (ev.arr as usize) < n
                        && (ev.x as usize) < self.st.access_info[ev.arr as usize].len()
                }
                EV_STAGING_GLOBAL => {
                    u64::from(ev.tx) + u64::from(ev.tx_len) <= skel.tx_arena.len() as u64
                }
                _ => true,
            }
        })
    }

    /// Resolve one skeleton per group (building the missing ones in
    /// parallel) and warm every `(array, space, base)` memo the group
    /// members will need — sequentially, so the parallel evaluation
    /// pass only reads. Returns skeletons aligned with `groups`.
    fn prepare_groups(
        &self,
        candidates: &[PlacementMap],
        groups: &[(Vec<bool>, Vec<usize>)],
        threads: usize,
    ) -> Vec<Arc<Skeleton>> {
        let t0 = Instant::now();
        let missing: Vec<(&Vec<bool>, &PlacementMap)> = {
            let cache = lock(&self.skeletons);
            groups
                .iter()
                .filter(|(key, _)| !cache.contains_key(key))
                .map(|(key, members)| (key, &candidates[members[0]]))
                .collect()
        };
        let built = hms_stats::par::par_map_threads(threads, &missing, |(key, pm)| {
            self.load_or_build(pm, key)
        });
        {
            let mut cache = lock(&self.skeletons);
            for ((key, _), skel) in missing.iter().zip(built) {
                cache.entry((*key).clone()).or_insert(skel);
            }
        }
        let skels: Vec<Arc<Skeleton>> = {
            let cache = lock(&self.skeletons);
            groups
                .iter()
                .map(|(key, _)| cache.get(key).expect("group prepared").clone())
                .collect()
        };
        for ((_, members), skel) in groups.iter().zip(&skels) {
            if skel.poisoned {
                continue;
            }
            for i in 0..self.st.dtypes.len() {
                if self.st.access_info[i].is_empty() {
                    continue;
                }
                // Distinct spaces across the group's members, as a
                // 5-bit set — one memo fetch per (array, space).
                let mut seen = 0u8;
                for &ci in members {
                    let space = candidates[ci].space(ArrayId(i as u32));
                    if space == MemorySpace::Shared {
                        continue;
                    }
                    let bit = 1u8 << space_idx(space);
                    if seen & bit == 0 {
                        seen |= bit;
                        self.get_memo(ArrayId(i as u32), space, skel.bases[i]);
                    }
                }
            }
        }
        self.count(|s| s.prepare_nanos += t0.elapsed().as_nanos() as u64);
        skels
    }

    fn build_skeleton(&self, canonical: &PlacementMap) -> Skeleton {
        let cfg = &self.predictor.cfg;
        self.count(|s| {
            s.skeletons_built += 1;
            s.full_rewrites += 1;
        });
        let n = self.st.dtypes.len();
        let poisoned_skeleton = || Skeleton {
            consts: TraceAnalysis::default(),
            events: Vec::new(),
            tx_arena: Vec::new(),
            bases: vec![(0, 0); n],
            poisoned: true,
        };
        if self.inject_poison.load(Ordering::Relaxed) {
            return poisoned_skeleton();
        }
        let Ok(rewritten) = rewrite(&self.profile.trace, canonical, cfg) else {
            return poisoned_skeleton();
        };
        let mut rec = Recorder {
            cfg,
            map: &self.st.warp_body_map,
            events: Vec::new(),
            tx_arena: Vec::new(),
            last_advance: vec![None; cfg.num_sms as usize],
            ok: true,
        };
        let canonical_analysis =
            analyze_observed(&rewritten, cfg, AnalysisOptions::default(), &mut rec);
        if !rec.ok {
            return poisoned_skeleton();
        }
        let bases: Vec<(u64, u64)> = (0..n)
            .map(|i| {
                let id = ArrayId(i as u32);
                if canonical.space(id) == MemorySpace::Shared {
                    (0, 0)
                } else {
                    let b0 = rewritten.alloc.base(id, 0, canonical);
                    let stride = if rewritten.geometry.grid_blocks > 1 {
                        rewritten.alloc.base(id, 1, canonical) - b0
                    } else {
                        0
                    };
                    (b0, stride)
                }
            })
            .collect();
        let mut consts = canonical_analysis.clone();
        consts.executed = 0;
        consts.replay_global_divergence = 0;
        consts.replay_const_miss = 0;
        consts.replay_const_divergence = 0;
        consts.global_requests = 0;
        consts.global_transactions = 0;
        consts.tex_requests = 0;
        consts.tex_transactions = 0;
        consts.tex_misses = 0;
        consts.const_requests = 0;
        consts.const_transactions = 0;
        consts.const_misses = 0;
        consts.l2_transactions = 0;
        consts.l2_misses = 0;
        consts.l2_writebacks = 0;
        consts.dram.clear();
        let skel = Skeleton {
            consts,
            events: rec.events,
            tx_arena: rec.tx_arena,
            bases,
            poisoned: false,
        };
        // Self-check: replaying the canonical placement must reproduce
        // the direct analysis bit for bit. A mismatch poisons the
        // skeleton — its candidates silently use the exact path.
        if self.replay(&skel, canonical, std::mem::take) != canonical_analysis {
            return Skeleton {
                poisoned: true,
                ..skel
            };
        }
        skel
    }

    /// Replay `target` over the skeleton's recorded event stream and
    /// hand the composed analysis to `f`, borrowed from this thread's
    /// [`ReplayScratch`] (`std::mem::take` moves it out). Events that do
    /// not depend on the placement (`EV_ADVANCE`, `EV_STAGING_GLOBAL` and
    /// its transactions, `EV_L2_PROBE`) apply as recorded;
    /// `EV_ADDR_CALC` scales by the target space's addressing expansion
    /// and `EV_BODY` applies the memoized stateless outcome of the
    /// access under the target space, driving the stateful caches in
    /// walk order — the same operations the direct walk performs.
    fn replay<R>(
        &self,
        skel: &Skeleton,
        target: &PlacementMap,
        f: impl FnOnce(&mut TraceAnalysis) -> R,
    ) -> R {
        let cfg = &self.predictor.cfg;
        self.count(|s| s.events_streamed += skel.events.len() as u64);
        REPLAY_SCRATCH.with(|cell| {
            let mut slot = cell.borrow_mut();
            let scratch = match slot.take() {
                Some(s) if s.matches(cfg) => slot.insert(s),
                _ => slot.insert(ReplayScratch::new(cfg)),
            };
            scratch.reset(&skel.consts, target, &self.st.dtypes);
            let ReplayScratch {
                l2,
                const_caches,
                tex_caches,
                sm_pos,
                out,
                addr_n,
                missed,
                memo_slots,
            } = scratch;
            for ev in &skel.events {
                let sm = ev.sm as usize;
                match ev.kind {
                    EV_ADVANCE => {
                        out.executed += ev.x;
                        sm_pos[sm] += ev.x;
                    }
                    EV_ADDR_CALC => {
                        let n = addr_n[ev.arr as usize] * ev.x;
                        out.executed += n;
                        sm_pos[sm] += n;
                    }
                    EV_STAGING_GLOBAL => {
                        out.executed += 1;
                        sm_pos[sm] += 1;
                        out.global_requests += 1;
                        out.global_transactions += u64::from(ev.tx_len);
                        out.replay_global_divergence += ev.x;
                        let txs = &skel.tx_arena[ev.tx as usize..(ev.tx + ev.tx_len) as usize];
                        for &t in txs {
                            l2_fill(
                                l2,
                                out,
                                t,
                                L2Source::Global,
                                sm_pos[sm],
                                ev.sm as u32,
                                ev.flag != 0,
                            );
                        }
                    }
                    EV_L2_PROBE => l2_fill(
                        l2,
                        out,
                        ev.x,
                        L2Source::Global,
                        sm_pos[sm],
                        ev.sm as u32,
                        ev.flag != 0,
                    ),
                    _ => {
                        // EV_BODY
                        let ai = ev.arr as usize;
                        out.executed += 1;
                        sm_pos[sm] += 1;
                        let pos = sm_pos[sm];
                        let memo = memo_slots[ai].get_or_insert_with(|| {
                            let id = ArrayId(ev.arr);
                            self.get_memo(id, target.space(id), skel.bases[ai])
                        });
                        let item = memo.items[ev.x as usize];
                        match item.kind {
                            MemoKind::Empty => {}
                            MemoKind::Global => {
                                out.global_requests += 1;
                                out.global_transactions += u64::from(item.len);
                                out.replay_global_divergence += u64::from(item.replays);
                                for &t in memo.span(&item) {
                                    l2_fill(
                                        l2,
                                        out,
                                        t,
                                        L2Source::Global,
                                        pos,
                                        ev.sm as u32,
                                        item.is_store,
                                    );
                                }
                            }
                            MemoKind::Tex => {
                                let (transactions, misses) =
                                    tex_caches[sm].access_lines_into(memo.span(&item), missed);
                                out.tex_requests += 1;
                                out.tex_transactions += u64::from(transactions);
                                out.tex_misses += u64::from(misses);
                                for &line in missed.iter() {
                                    l2_fill(
                                        l2,
                                        out,
                                        line,
                                        L2Source::Texture,
                                        pos,
                                        ev.sm as u32,
                                        false,
                                    );
                                }
                            }
                            MemoKind::Const => {
                                let (transactions, misses) =
                                    const_caches[sm].access_words_into(memo.span(&item), missed);
                                out.const_requests += 1;
                                out.const_transactions += u64::from(transactions);
                                out.const_misses += u64::from(misses);
                                out.replay_const_divergence += u64::from(transactions - 1);
                                out.replay_const_miss += u64::from(misses);
                                for &line in missed.iter() {
                                    l2_fill(
                                        l2,
                                        out,
                                        line,
                                        L2Source::Constant,
                                        pos,
                                        ev.sm as u32,
                                        false,
                                    );
                                }
                            }
                        }
                    }
                }
            }
            out.l2_transactions = l2.transactions();
            out.l2_misses = l2.misses();
            out.l2_writebacks = l2.writebacks();
            f(out)
        })
    }

    /// Predict `target`'s execution time through the incremental path
    /// (exact fallback when the shared set's skeleton is poisoned).
    /// Bit-identical to [`Predictor::predict`].
    pub fn predict(&self, target: &PlacementMap) -> Result<Prediction, HmsError> {
        target.validate(&self.profile.trace.arrays, &self.predictor.cfg)?;
        let group = [(self.shared_key(target), vec![0])];
        let skel = &self.prepare_groups(std::slice::from_ref(target), &group, 1)[0];
        if skel.poisoned {
            return self.exact(target);
        }
        self.count(|s| s.delta_cache_hits += 1);
        let analysis = self.replay(skel, target, std::mem::take);
        self.predictor
            .predict_prepared(self.profile, analysis, self.st.sample_analysis.as_ref())
    }

    /// The exact path behind a poisoned skeleton: one full rewrite and
    /// walk through [`Predictor::predict`], counted as a fallback.
    fn exact(&self, target: &PlacementMap) -> Result<Prediction, HmsError> {
        self.count(|s| {
            s.exact_fallbacks += 1;
            s.full_rewrites += 1;
        });
        self.predictor.predict(self.profile, target)
    }

    /// Evaluate and rank `candidates` (ascending predicted time, stable
    /// on ties). Bit-identical to the naive
    /// [`rank_placements_naive`](crate::search::rank_placements_naive)
    /// for every worker count.
    pub fn rank(
        &self,
        candidates: &[PlacementMap],
        threads: usize,
    ) -> Result<Vec<RankedPlacement>, HmsError> {
        let mut ranked = self.evaluate_batch(candidates, threads)?;
        ranked.sort_by(|a, b| a.predicted_cycles.total_cmp(&b.predicted_cycles));
        Ok(ranked)
    }

    /// Evaluate `candidates` in input order (no sort): group them by
    /// shared-memory set, prepare each group's skeleton and memos, then
    /// hand the candidates, group by group, to `threads` workers, one
    /// replay each. Results reassemble by input index, so the output
    /// and every count (candidates, skeletons, rewrites, memo tables,
    /// delta hits, events streamed) are the same for any worker count.
    pub(crate) fn evaluate_batch(
        &self,
        candidates: &[PlacementMap],
        threads: usize,
    ) -> Result<Vec<RankedPlacement>, HmsError> {
        let mut groups: Vec<(Vec<bool>, Vec<usize>)> = Vec::new();
        {
            let mut group_of: HashMap<Vec<bool>, usize> = HashMap::new();
            for (i, pm) in candidates.iter().enumerate() {
                let key = self.shared_key(pm);
                if let Some(&g) = group_of.get(&key) {
                    groups[g].1.push(i);
                } else {
                    group_of.insert(key.clone(), groups.len());
                    groups.push((key, vec![i]));
                }
            }
        }
        let skels = self.prepare_groups(candidates, &groups, threads);
        let t0 = Instant::now();
        let jobs: Vec<(usize, &Skeleton)> = groups
            .iter()
            .zip(&skels)
            .flat_map(|((_, members), skel)| members.iter().map(move |&ci| (ci, &**skel)))
            .collect();
        let results = hms_stats::par::par_map_threads(threads, &jobs, |&(ci, skel)| {
            self.evaluate_one(skel, &candidates[ci])
        });
        let mut slots: Vec<Option<Result<f64, HmsError>>> = Vec::new();
        slots.resize_with(candidates.len(), || None);
        for (&(ci, _), r) in jobs.iter().zip(results) {
            slots[ci] = Some(r);
        }
        let mut ranked = Vec::with_capacity(candidates.len());
        for (i, slot) in slots.into_iter().enumerate() {
            let cycles = slot.expect("every candidate evaluated")?;
            ranked.push(RankedPlacement {
                placement: candidates[i].clone(),
                predicted_cycles: cycles,
            });
        }
        self.count(|s| {
            s.candidates_evaluated += candidates.len() as u64;
            s.evaluate_nanos += t0.elapsed().as_nanos() as u64;
        });
        Ok(ranked)
    }

    /// Predicted cycles of one candidate: validate it (the same check
    /// [`predict`](Self::predict) runs), then replay it over its
    /// skeleton and predict from the borrowed analysis without cloning
    /// it, or take the exact path if the skeleton is poisoned.
    fn evaluate_one(&self, skel: &Skeleton, pm: &PlacementMap) -> Result<f64, HmsError> {
        pm.validate(&self.profile.trace.arrays, &self.predictor.cfg)?;
        if skel.poisoned {
            return self.exact(pm).map(|p| p.cycles);
        }
        self.count(|s| s.delta_cache_hits += 1);
        self.replay(skel, pm, |analysis| {
            self.predictor
                .predict_parts(self.profile, analysis, self.st.sample_analysis.as_ref())
                .map(|(cycles, ..)| cycles)
        })
    }

    /// Standalone-legal spaces for each array (superset of the jointly
    /// legal spaces): beam search's prefix alphabet and local search's
    /// gene alphabet.
    pub(crate) fn legal_spaces(&self, array: ArrayId) -> &[MemorySpace] {
        &self.st.lb.legal_spaces[array.index()]
    }

    /// Monotone lower bound on the predicted cycles of **any** legal
    /// completion of a partial assignment (`None` = free array; fixed
    /// arrays carry `Some(space)`).
    ///
    /// `T >= T_comp + (1 - max_ratio) x T_mem`, with `T_comp` floored by
    /// the body's placement-invariant issue slots, per-space stateless
    /// replays and addressing expansion (free arrays take their minimum
    /// over standalone-legal spaces) at maximum-occupancy throughput,
    /// and `T_mem` floored by the body wait chain at minimum waves times
    /// an AMAT floor built from per-space hit latencies (staging can
    /// only pull AMAT toward `c_min`, never below `min(A/B, c_min)`).
    /// A `1 - 1e-9` discount absorbs float-rounding asymmetry between
    /// the bound's and the model's operation order.
    pub(crate) fn lower_bound(&self, spaces: &[Option<MemorySpace>]) -> f64 {
        let lb = &self.st.lb;
        let mut amat_num = 0.0f64;
        let mut issued = lb.body_fixed_executed + lb.other_replays;
        for (i, s) in spaces.iter().enumerate() {
            match s {
                Some(sp) => {
                    let k = space_idx(*sp);
                    issued += lb.expansion[i][k] + lb.stateless_replays[i][k];
                    amat_num += lb.body_requests[i] as f64 * lb.floor_lat[k];
                }
                None => {
                    issued += lb.free_expansion[i] + lb.free_replays[i];
                    amat_num += lb.body_requests[i] as f64 * lb.free_floor[i];
                }
            }
        }
        let inst_per_warp = if lb.detailed {
            issued as f64 / lb.total_warps
        } else {
            lb.inst_executed_sample as f64 / lb.total_warps
        };
        let tc = inst_per_warp * lb.total_warps / lb.active_sms * lb.thr_min + lb.w_serial_lb;
        let amat = if lb.body_mem_instrs == 0 {
            0.0
        } else {
            (amat_num / lb.body_mem_instrs as f64).min(lb.c_min)
        };
        let tm = lb.body_wait_events as f64 / lb.total_warps * lb.waves_min * amat;
        (tc + (1.0 - lb.rmax) * tm).max(1.0) * (1.0 - 1e-9)
    }
}

/// Records [`WalkEvent`]s into the skeleton's replayable stream,
/// accumulating staging coalescing and merging adjacent same-SM
/// advances.
struct Recorder<'e> {
    cfg: &'e GpuConfig,
    map: &'e HashMap<(u32, u32), Vec<Option<(ArrayId, u32)>>>,
    events: Vec<EventRec>,
    tx_arena: Vec<u64>,
    /// Index of the last `Advance` per SM, merge target for runs.
    last_advance: Vec<Option<usize>>,
    ok: bool,
}

impl Recorder<'_> {
    fn advance(&mut self, sm: usize, n: u64) {
        if let Some(i) = self.last_advance[sm] {
            let e = &mut self.events[i];
            if e.kind == EV_ADVANCE {
                e.x += n;
                return;
            }
        }
        self.last_advance[sm] = Some(self.events.len());
        self.events.push(EventRec {
            kind: EV_ADVANCE,
            flag: 0,
            sm: sm as u16,
            arr: 0,
            x: n,
            tx: 0,
            tx_len: 0,
        });
    }
}

impl WalkObserver for Recorder<'_> {
    fn event(&mut self, ev: WalkEvent<'_>) {
        match ev {
            WalkEvent::Advance { sm, n } => self.advance(sm, n),
            WalkEvent::AddrCalc { sm, array, count } => {
                self.last_advance[sm] = None;
                self.events.push(EventRec {
                    kind: EV_ADDR_CALC,
                    flag: 0,
                    sm: sm as u16,
                    arr: array.0,
                    x: u64::from(count),
                    tx: 0,
                    tx_len: 0,
                });
            }
            WalkEvent::LocalFill { sm, addr, is_store } => {
                self.last_advance[sm] = None;
                self.events.push(EventRec {
                    kind: EV_L2_PROBE,
                    flag: u8::from(is_store),
                    sm: sm as u16,
                    arr: 0,
                    x: addr,
                    tx: 0,
                    tx_len: 0,
                });
            }
            WalkEvent::Access {
                sm,
                block,
                warp,
                body_idx,
                array: ev_array,
                space,
                is_store,
                elem_bytes,
                addrs,
            } => match body_idx {
                Some(i) => {
                    match self
                        .map
                        .get(&(block, warp))
                        .and_then(|v| v.get(i))
                        .copied()
                        .flatten()
                    {
                        Some((array, ordinal)) => {
                            debug_assert_eq!(array, ev_array);
                            self.last_advance[sm] = None;
                            self.events.push(EventRec {
                                kind: EV_BODY,
                                flag: 0,
                                sm: sm as u16,
                                arr: array.0,
                                x: u64::from(ordinal),
                                tx: 0,
                                tx_len: 0,
                            });
                        }
                        None => self.ok = false,
                    }
                }
                None => {
                    // Staging copies touch only global and shared
                    // memory; shared staging counters are skeleton
                    // constants, so only the position advance replays.
                    if addrs.is_empty() || space == MemorySpace::Shared {
                        self.advance(sm, 1);
                    } else if space == MemorySpace::Global {
                        let co = coalesce(
                            addrs.iter().copied(),
                            u64::from(elem_bytes),
                            self.cfg.transaction_bytes,
                        );
                        self.last_advance[sm] = None;
                        let tx = self.tx_arena.len() as u32;
                        self.tx_arena.extend_from_slice(&co.transactions);
                        self.events.push(EventRec {
                            kind: EV_STAGING_GLOBAL,
                            flag: u8::from(is_store),
                            sm: sm as u16,
                            arr: 0,
                            x: u64::from(co.replays),
                            tx,
                            tx_len: co.transactions.len() as u32,
                        });
                    } else {
                        self.ok = false;
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_sample;
    use crate::search::enumerate_placements;
    use hms_kernels::Scale;

    fn setup(name: &str) -> (Predictor, Profile, Vec<hms_types::ArrayDef>) {
        let cfg = GpuConfig::test_small();
        let kt = hms_kernels::by_name(name, Scale::Test).expect("kernel exists");
        let profile = profile_sample(&kt, &kt.default_placement(), &cfg).unwrap();
        (Predictor::new(cfg), profile, kt.arrays)
    }

    #[test]
    fn engine_matches_naive_predictor_bitwise() {
        let (predictor, profile, arrays) = setup("vecadd");
        let base = profile.trace.placement.clone();
        let ids: Vec<ArrayId> = arrays.iter().map(|a| a.id).collect();
        let cands = enumerate_placements(&arrays, &base, &ids, &predictor.cfg, 4096);
        let engine = Engine::new(&predictor, &profile);
        for pm in &cands {
            let fast = engine.predict(pm).unwrap();
            let slow = predictor.predict(&profile, pm).unwrap();
            assert_eq!(
                fast.cycles.to_bits(),
                slow.cycles.to_bits(),
                "divergence for {pm:?}"
            );
            assert_eq!(fast.analysis, slow.analysis, "analysis drift for {pm:?}");
        }
        let stats = engine.stats();
        assert_eq!(stats.exact_fallbacks, 0, "no skeleton may fail self-check");
        assert!(stats.skeletons_built < cands.len() as u64);
    }

    #[test]
    fn skeletons_are_shared_per_shared_set() {
        let (predictor, profile, arrays) = setup("vecadd");
        let base = profile.trace.placement.clone();
        // a and b are read-only: 4 spaces each; one skeleton per shared
        // subset of {a, b} = 4 skeletons for 16 candidates.
        let cands = enumerate_placements(
            &arrays,
            &base,
            &[ArrayId(0), ArrayId(1)],
            &predictor.cfg,
            4096,
        );
        assert_eq!(cands.len(), 16);
        let engine = Engine::new(&predictor, &profile);
        let ranked = engine.rank(&cands, 1).unwrap();
        assert_eq!(ranked.len(), 16);
        let stats = engine.stats();
        assert_eq!(stats.skeletons_built, 4);
        assert_eq!(stats.full_rewrites, 4);
        assert_eq!(stats.delta_cache_hits, 16); // self-check replays bypass predict()
        assert!(stats.rewrite_reduction() >= 4.0);
    }

    #[test]
    fn injected_poison_degrades_to_exact_path_bit_identically() {
        let (predictor, profile, arrays) = setup("vecadd");
        let base = profile.trace.placement.clone();
        let ids: Vec<ArrayId> = arrays.iter().map(|a| a.id).collect();
        let cands = enumerate_placements(&arrays, &base, &ids, &predictor.cfg, 4096);

        let healthy = Engine::new(&predictor, &profile);
        let ranked = healthy.rank(&cands, 1).unwrap();

        let faulted = Engine::new(&predictor, &profile);
        faulted.inject_poison(true);
        let ranked_faulted = faulted.rank(&cands, 1).unwrap();

        assert_eq!(ranked.len(), ranked_faulted.len());
        for (a, b) in ranked.iter().zip(&ranked_faulted) {
            assert_eq!(a.placement, b.placement);
            assert_eq!(
                a.predicted_cycles.to_bits(),
                b.predicted_cycles.to_bits(),
                "poisoned fallback diverged for {:?}",
                a.placement
            );
        }
        let stats = faulted.stats();
        assert_eq!(stats.exact_fallbacks, cands.len() as u64);
        assert_eq!(stats.delta_cache_hits, 0);

        // Recovery: toggling injection off lets fresh skeletons build,
        // but the poisoned ones already cached keep falling back.
        faulted.inject_poison(false);
        let again = faulted.rank(&cands, 1).unwrap();
        assert_eq!(again.len(), ranked.len());
    }

    #[test]
    fn lower_bound_never_exceeds_true_prediction() {
        for name in ["vecadd", "spmv", "stencil2d"] {
            let (predictor, profile, arrays) = setup(name);
            let base = profile.trace.placement.clone();
            let ids: Vec<ArrayId> = arrays.iter().map(|a| a.id).collect();
            let cands = enumerate_placements(&arrays, &base, &ids, &predictor.cfg, 256);
            let engine = Engine::new(&predictor, &profile);
            let free = vec![None; arrays.len()];
            let lb_all_free = engine.lower_bound(&free);
            for pm in &cands {
                let pred = engine.predict(pm).unwrap();
                let assigned: Vec<Option<MemorySpace>> = (0..arrays.len())
                    .map(|i| Some(pm.space(ArrayId(i as u32))))
                    .collect();
                let lb = engine.lower_bound(&assigned);
                assert!(
                    lb <= pred.cycles,
                    "{name}: bound {lb} exceeds prediction {} for {pm:?}",
                    pred.cycles
                );
                assert!(
                    lb_all_free <= lb + 1e-9,
                    "{name}: freeing arrays must not raise the bound"
                );
            }
        }
    }
}
