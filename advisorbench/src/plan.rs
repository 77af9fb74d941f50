//! Seeded operation plans. Every workload's op sequence is a pure
//! function of `--seed` (and, for the serve workload, the pass number
//! and the sizes of the two miss pools), so the same seed always
//! replays the same inputs.

use hms_stats::rng::{splitmix64, Rng};

/// The search kernels, in equal shares on both search workloads.
pub const SEARCH_KERNELS: [&str; 5] = ["spmv", "wide8", "neuralnet", "sort", "s3d"];

/// Held-out kernels for `regret_pct`: spmv is left out because its
/// placements are part of the `T_overlap` training suite.
pub const HELD_OUT: [&str; 4] = ["wide8", "neuralnet", "sort", "s3d"];

/// Enumeration cap per search kernel: wide8's legal space is ~32k
/// read-only placements, so it is capped; every other kernel's whole
/// space fits under the default.
pub fn search_limit(kernel: &str) -> usize {
    if kernel == "wide8" {
        512
    } else {
        4096
    }
}

/// Derive an independent generator for one `(seed, tags...)` stream.
fn stream(seed: u64, tags: &[u64]) -> Rng {
    let mut state = seed;
    let mut mixed = splitmix64(&mut state);
    for &t in tags {
        let mut s = mixed ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        mixed = splitmix64(&mut s);
    }
    Rng::seed_from_u64(mixed)
}

/// One round of a search workload: every search kernel once, in a
/// seeded order. Rounds are the unit of work, so each kernel always
/// holds exactly a fifth of the ops.
pub fn search_round(seed: u64, round: u64) -> [usize; 5] {
    let mut order = [0, 1, 2, 3, 4];
    stream(seed, &[1, round]).shuffle(&mut order);
    order
}

/// The two kernels whose never-seen placements make up the serve misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKernel {
    Spmv,
    Wide8,
}

impl MissKernel {
    pub const ALL: [MissKernel; 2] = [MissKernel::Spmv, MissKernel::Wide8];

    pub fn name(self) -> &'static str {
        match self {
            MissKernel::Spmv => "spmv",
            MissKernel::Wide8 => "wide8",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// Misses of this kernel per pass.
    pub fn per_pass(self) -> usize {
        match self {
            MissKernel::Spmv => SPMV_MISSES_PER_BLOCK * BLOCKS_PER_PASS,
            MissKernel::Wide8 => WIDE8_MISSES_PER_BLOCK * BLOCKS_PER_PASS,
        }
    }
}

/// Serve cost classes, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Byte-identical repeat: the raw-request memo answers.
    Repeat,
    /// Same question, new bytes: `pred_cache` or `rank_cache` answers.
    Respelled,
    /// Never-seen placement: the naive predict path runs.
    Miss,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Repeat, Class::Respelled, Class::Miss];

    pub fn name(self) -> &'static str {
        match self {
            Class::Repeat => "repeat",
            Class::Respelled => "respelled",
            Class::Miss => "miss",
        }
    }
}

/// One block of serve traffic: 12 repeats, 3 respelled (two predicts,
/// one search) and 5 misses (two spmv, three wide8) — 60/15/25 exactly.
pub const BLOCK_LEN: usize = 20;
const REPEATS_PER_BLOCK: usize = 12;
const RESPELLED_PREDICTS_PER_BLOCK: usize = 2;
const RESPELLED_SEARCHES_PER_BLOCK: usize = 1;
const SPMV_MISSES_PER_BLOCK: usize = 2;
const WIDE8_MISSES_PER_BLOCK: usize = 3;

/// Blocks per pass: 1100 requests, so p99 has eleven samples beyond it
/// in every pass, and 110 spmv misses, a quarter of spmv's space.
pub const BLOCKS_PER_PASS: usize = 55;

/// Predict bodies the set-up warm-up sends before a pass: the sample
/// placement of spmv (body and placement 0) and of wide8 (1). They are
/// the first repeat targets and are never drawn as misses.
pub const WARMUP_PREDICTS: usize = 2;

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A never-seen placement: `index` into the kernel's miss pool.
    Miss { kernel: MissKernel, index: usize },
    /// Resend the `body`-th predict body of this pass, byte for byte.
    Repeat { body: usize },
    /// Respell the `placement`-th answered predict placement of this
    /// pass (warm-up placements first, then misses in order).
    RespellPredict { placement: usize, variant: u32 },
    /// Respell the warm-up search of `kernel` with its fields reordered.
    RespellSearch { kernel: MissKernel, variant: u32 },
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Miss { .. } => Class::Miss,
            Op::Repeat { .. } => Class::Repeat,
            Op::RespellPredict { .. } | Op::RespellSearch { .. } => Class::Respelled,
        }
    }
}

/// Passes a run can make without drawing a miss twice: pass `p` takes
/// element `p` of each stratum, so the smallest stratum bounds it.
pub fn max_passes(pools: [usize; 2]) -> usize {
    MissKernel::ALL
        .iter()
        .map(|k| pools[k.index()] / k.per_pass())
        .min()
        .unwrap_or(0)
}

/// The misses of one kernel in one pass. The pool (the kernel's legal
/// placements in enumeration order, minus the sample) is cut into
/// `per_pass` contiguous strata; each stratum is permuted once per
/// run, and pass `p` draws element `p` of it. Neighbouring placements
/// share most of their spaces, so every pass sees the same spread of
/// costs, and no placement is drawn twice in a run.
fn pass_misses(seed: u64, pass: usize, kernel: MissKernel, pool: usize) -> Vec<usize> {
    let per_pass = kernel.per_pass();
    let mut strata: Vec<usize> = (0..per_pass).collect();
    stream(seed, &[2, kernel.index() as u64, pass as u64]).shuffle(&mut strata);
    strata
        .into_iter()
        .map(|i| {
            let (lo, hi) = (i * pool / per_pass, (i + 1) * pool / per_pass);
            assert!(pass < hi - lo, "pass {pass} exhausts stratum {i}");
            let mut members: Vec<usize> = (lo..hi).collect();
            stream(seed, &[3, kernel.index() as u64, i as u64]).shuffle(&mut members);
            members[pass]
        })
        .collect()
}

/// The full request sequence of pass `pass`, given the sizes of the
/// spmv and wide8 miss pools. Every repeat names a body, and every
/// respelling a placement, whose answer arrived earlier in the pass.
pub fn plan_pass(seed: u64, pass: usize, pools: [usize; 2]) -> Vec<Op> {
    let mut misses: Vec<std::vec::IntoIter<usize>> = MissKernel::ALL
        .iter()
        .map(|&k| pass_misses(seed, pass, k, pools[k.index()]).into_iter())
        .collect();
    let mut rng = stream(seed, &[4, pass as u64]);
    let mut bodies = WARMUP_PREDICTS;
    let mut answered = WARMUP_PREDICTS;
    let mut predict_variants = vec![0u32; answered];
    let mut search_variants = [0u32; 2];

    #[derive(Clone, Copy)]
    enum Slot {
        Repeat,
        RespellPredict,
        RespellSearch,
        Miss(MissKernel),
    }
    let block: Vec<Slot> = std::iter::repeat_n(Slot::Repeat, REPEATS_PER_BLOCK)
        .chain(std::iter::repeat_n(
            Slot::RespellPredict,
            RESPELLED_PREDICTS_PER_BLOCK,
        ))
        .chain(std::iter::repeat_n(
            Slot::RespellSearch,
            RESPELLED_SEARCHES_PER_BLOCK,
        ))
        .chain(std::iter::repeat_n(
            Slot::Miss(MissKernel::Spmv),
            SPMV_MISSES_PER_BLOCK,
        ))
        .chain(std::iter::repeat_n(
            Slot::Miss(MissKernel::Wide8),
            WIDE8_MISSES_PER_BLOCK,
        ))
        .collect();
    debug_assert_eq!(block.len(), BLOCK_LEN);

    let mut ops = Vec::with_capacity(BLOCK_LEN * BLOCKS_PER_PASS);
    for _ in 0..BLOCKS_PER_PASS {
        let mut slots = block.clone();
        rng.shuffle(&mut slots);
        for slot in slots {
            let op = match slot {
                Slot::Miss(kernel) => {
                    let index = misses[kernel.index()].next().expect("pool sized per pass");
                    bodies += 1;
                    answered += 1;
                    predict_variants.push(0);
                    Op::Miss { kernel, index }
                }
                Slot::Repeat => Op::Repeat {
                    body: rng.gen_range(0..bodies),
                },
                Slot::RespellPredict => {
                    let placement = rng.gen_range(0..answered);
                    predict_variants[placement] += 1;
                    bodies += 1;
                    Op::RespellPredict {
                        placement,
                        variant: predict_variants[placement],
                    }
                }
                Slot::RespellSearch => {
                    let kernel = MissKernel::ALL[rng.gen_range(0..2usize)];
                    search_variants[kernel.index()] += 1;
                    Op::RespellSearch {
                        kernel,
                        variant: search_variants[kernel.index()],
                    }
                }
            };
            ops.push(op);
        }
    }
    ops
}

/// A `/v1/predict` body naming every array of `kernel`. Variant 0 is
/// the canonical `moves` spelling; each later variant alternates
/// between the `placement` object and a rotated `moves` list and is
/// padded with `variant` spaces, so no two variants share bytes.
pub fn predict_body(kernel: &str, names: &[&str], spaces: &[&str], variant: u32) -> String {
    let n = names.len();
    let rot = variant as usize % n.max(1);
    let order = (0..n).map(|i| (i + rot) % n);
    if variant.is_multiple_of(2) {
        let moves: Vec<String> = order
            .map(|i| format!(r#"{{"array":"{}","space":"{}"}}"#, names[i], spaces[i]))
            .collect();
        format!(
            r#"{{{}"kernel":"{kernel}","scale":"full","moves":[{}]}}"#,
            " ".repeat(variant as usize),
            moves.join(",")
        )
    } else {
        let members: Vec<String> = order
            .map(|i| format!(r#""{}":"{}""#, names[i], spaces[i]))
            .collect();
        format!(
            r#"{{{}"placement":{{{}}},"scale":"full","kernel":"{kernel}"}}"#,
            " ".repeat(variant as usize),
            members.join(",")
        )
    }
}

/// A `/v1/search` body for `kernel` (beam width 8, top 5). Variant 0 is
/// the warm-up spelling; later variants rotate the field order and are
/// padded with `variant` spaces.
pub fn search_body(kernel: &str, variant: u32) -> String {
    let kernel_field = format!(r#""kernel":"{kernel}""#);
    let fields = [
        kernel_field.as_str(),
        r#""scale":"full""#,
        r#""top":5"#,
        r#""strategy":"beam""#,
        r#""beam":8"#,
    ];
    let rot = variant as usize % fields.len();
    let ordered: Vec<&str> = (0..fields.len())
        .map(|i| fields[(i + rot) % fields.len()])
        .collect();
    format!("{{{}{}}}", " ".repeat(variant as usize), ordered.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{boundary_margin, class_boundaries};
    use std::collections::HashSet;

    /// The real pool sizes: spmv's 448 legal placements and wide8's
    /// 63993, each minus the sample.
    const POOLS: [usize; 2] = [447, 63_992];

    #[test]
    fn same_seed_same_ops() {
        assert_eq!(plan_pass(7, 0, POOLS), plan_pass(7, 0, POOLS));
        assert_eq!(plan_pass(7, 2, POOLS), plan_pass(7, 2, POOLS));
        assert_ne!(plan_pass(7, 0, POOLS), plan_pass(8, 0, POOLS));
        assert_ne!(plan_pass(7, 0, POOLS), plan_pass(7, 1, POOLS));
        assert_eq!(search_round(3, 5), search_round(3, 5));
        let differ = (0..20).any(|r| search_round(3, r) != search_round(4, r));
        assert!(differ);
    }

    #[test]
    fn search_rounds_hold_each_kernel_once() {
        for r in 0..50 {
            let mut order = search_round(99, r);
            order.sort();
            assert_eq!(order, [0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn class_shares_are_exact() {
        for seed in 0..5 {
            let ops = plan_pass(seed, 0, POOLS);
            assert_eq!(ops.len(), BLOCK_LEN * BLOCKS_PER_PASS);
            // Exact in every block, not only over the pass.
            for block in ops.chunks(BLOCK_LEN) {
                let count = |c: Class| block.iter().filter(|o| o.class() == c).count();
                assert_eq!(count(Class::Repeat), 12);
                assert_eq!(count(Class::Respelled), 3);
                assert_eq!(count(Class::Miss), 5);
                let spmv = block
                    .iter()
                    .filter(|o| {
                        matches!(
                            o,
                            Op::Miss {
                                kernel: MissKernel::Spmv,
                                ..
                            }
                        )
                    })
                    .count();
                assert_eq!(spmv, 2);
            }
        }
    }

    #[test]
    fn misses_never_repeat_within_a_run() {
        let passes = max_passes(POOLS);
        assert_eq!(passes, 4);
        for seed in [0, 1, 12345] {
            let mut seen = HashSet::new();
            for pass in 0..passes {
                for op in plan_pass(seed, pass, POOLS) {
                    if let Op::Miss { kernel, index } = op {
                        assert!(index < POOLS[kernel.index()]);
                        assert!(seen.insert((kernel, index)), "miss drawn twice");
                    }
                }
            }
            assert_eq!(seen.len(), passes * (110 + 165));
        }
    }

    #[test]
    fn repeats_only_name_answered_requests() {
        let ops = plan_pass(5, 1, POOLS);
        let mut bodies = WARMUP_PREDICTS;
        let mut answered = WARMUP_PREDICTS;
        for op in ops {
            match op {
                Op::Miss { .. } => {
                    bodies += 1;
                    answered += 1;
                }
                Op::Repeat { body } => assert!(body < bodies),
                Op::RespellPredict { placement, variant } => {
                    assert!(placement < answered);
                    assert!(variant >= 1);
                    bodies += 1;
                }
                Op::RespellSearch { variant, .. } => assert!(variant >= 1),
            }
        }
    }

    #[test]
    fn respellings_never_reuse_bytes() {
        let names = ["val", "cols", "rowDelimiters", "d_vec", "out"];
        let spaces = ["G", "T", "C", "G", "S"];
        let mut seen = HashSet::new();
        for v in 0..40 {
            assert!(seen.insert(predict_body("spmv", &names, &spaces, v)));
            assert!(seen.insert(search_body("spmv", v)));
        }
    }

    #[test]
    fn no_percentile_near_a_class_boundary() {
        let reported = [50.0, 90.0, 99.0];
        // Serve: repeats, respelled, misses, cheapest first.
        let serve = class_boundaries(&[60.0, 15.0, 25.0]);
        assert!(boundary_margin(&reported, &serve) >= 5.0);
        // Searches: five kernels in equal shares, in any cost order.
        let search = class_boundaries(&[20.0; 5]);
        assert!(boundary_margin(&reported, &search) >= 5.0);
        // The shares the plan actually produces.
        let ops = plan_pass(3, 0, POOLS);
        let share = |c: Class| {
            100.0 * ops.iter().filter(|o| o.class() == c).count() as f64 / ops.len() as f64
        };
        let measured: Vec<f64> = Class::ALL.iter().map(|&c| share(c)).collect();
        assert_eq!(measured, vec![60.0, 15.0, 25.0]);
    }
}
