//! Integration coverage for the extension features: shared write-back
//! epilogues, local-memory spills, trace serialization through the
//! simulator, and event mining.

use gpu_hms::prelude::*;
use hms_types::ArrayId;

fn cfg() -> GpuConfig {
    GpuConfig::test_small()
}

/// A written, non-scratch array placed in shared memory must be staged
/// in *and* written back; both copies show up in the event counts.
#[test]
fn shared_writeback_epilogue_runs_end_to_end() {
    use gpu_hms::trace::{MemRef, SymOp, WarpTrace};
    let cfg = cfg();
    let kt = KernelTrace {
        name: "accum".into(),
        arrays: vec![hms_types::ArrayDef::new_1d(0, "acc", DType::F32, 64, true)],
        geometry: Geometry::new(2, 64),
        warps: (0..4)
            .map(|i| WarpTrace {
                block: i / 2,
                warp: i % 2,
                ops: vec![
                    SymOp::IntAlu(2),
                    SymOp::Access(MemRef::load_lin(ArrayId(0), 0..32)),
                    SymOp::WaitLoads,
                    SymOp::FpAlu(1),
                    SymOp::Access(MemRef::store_lin(ArrayId(0), 0..32)),
                ],
            })
            .collect(),
    };
    let global = {
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        simulate_default(&ct, &cfg).unwrap()
    };
    let shared = {
        let pm = kt.default_placement().with(ArrayId(0), MemorySpace::Shared);
        let ct = materialize(&kt, &pm, &cfg).unwrap();
        simulate_default(&ct, &cfg).unwrap()
    };
    // Staging in: global loads; writing back: global stores — both exist
    // even though the kernel body never touches global memory.
    assert!(shared.events.global_ld_requests > 0, "no staging loads");
    assert!(shared.events.global_st_requests > 0, "no write-back stores");
    assert!(shared.events.shared_ld_requests > 0);
    assert!(shared.events.shared_st_requests > 0);
    // The global placement runs the body directly.
    assert_eq!(global.events.shared_ld_requests, 0);
}

/// md5hash's register spills reach DRAM-side structures through the L1
/// and are counted as the paper's replay causes (7)/(9).
#[test]
fn local_memory_spills_are_observable() {
    let cfg = cfg();
    // Full scale: the Test preset has too few MD5 rounds to trigger the
    // every-16-rounds reload.
    let kt = by_name("md5hash", Scale::Full).unwrap();
    let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
    let r = simulate_default(&ct, &cfg).unwrap();
    assert!(r.events.local_st_requests > 0);
    assert!(r.events.local_ld_requests > 0);
    assert!(r.events.l1_local_hits + r.events.l1_local_misses > 0);
    // Cause (7) replays only exist if some local access missed L1.
    assert_eq!(
        r.events.replay_local_l1_miss, r.events.l1_local_misses,
        "one replay per local L1 miss"
    );
    // Causes (5)-(10) are placement-invariant: moving foundKey to shared
    // must not change the local-memory replay counts.
    let pm = kt.default_placement().with(ArrayId(0), MemorySpace::Shared);
    let ct2 = materialize(&kt, &pm, &cfg).unwrap();
    let r2 = simulate_default(&ct2, &cfg).unwrap();
    assert_eq!(
        r.events.replay_local_divergence,
        r2.events.replay_local_divergence
    );
}

/// Serialized traces simulate to identical results after a round trip.
#[test]
fn serialized_trace_simulates_identically() {
    let cfg = cfg();
    for name in ["vecadd", "md5hash", "spmv"] {
        let kt = by_name(name, Scale::Test).unwrap();
        let ct = materialize(&kt, &kt.default_placement(), &cfg).unwrap();
        let text = gpu_hms::trace::dump(&ct);
        let back = gpu_hms::trace::load(&text, &cfg).unwrap();
        let a = simulate_default(&ct, &cfg).unwrap();
        let b = simulate_default(&back, &cfg).unwrap();
        assert_eq!(
            a.cycles, b.cycles,
            "{name}: cycles diverged after round trip"
        );
        assert_eq!(
            a.events, b.events,
            "{name}: events diverged after round trip"
        );
    }
}

/// Event mining over real simulator runs selects time-tracking events.
#[test]
fn event_mining_on_real_runs() {
    use hms_bench::{mine_events, PlacementStudy};
    let cfg = cfg();
    let mut studies = Vec::new();
    for name in ["vecadd", "convolutionRows", "triad"] {
        let kt = by_name(name, Scale::Test).unwrap();
        let mut runs = Vec::new();
        for (id, _) in kt.default_placement().iter() {
            for space in [
                MemorySpace::Global,
                MemorySpace::Texture1D,
                MemorySpace::Constant,
            ] {
                let pm = kt.default_placement().with(id, space);
                if pm.validate(&kt.arrays, &cfg).is_err() {
                    continue;
                }
                let ct = materialize(&kt, &pm, &cfg).unwrap();
                let r = simulate_default(&ct, &cfg).unwrap();
                runs.push((r.cycles, r.events));
            }
        }
        studies.push(PlacementStudy::from_runs(name, &runs));
    }
    let mined = mine_events(&studies, 0.94, 3);
    assert!(!mined.is_empty(), "no events qualified across all kernels");
    // Everything mined must genuinely clear the threshold everywhere it
    // claims to.
    for m in &mined {
        assert!(m.mean_similarity >= 0.94);
        assert!(m.qualified_in.len() >= 3);
    }
}
