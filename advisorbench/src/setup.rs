//! Set-up shared by every workload (kernel builds, sample profiles,
//! `T_overlap` training) and the model-quality metrics computed after
//! the timed phase.

use hms_bench::runner::{mean_error, predictor_with, run_suite, training_profiles};
use hms_bench::{evaluation_suite, Harness};
use hms_core::{
    profile_sample, ModelOptions, Predictor, Profile, RankedPlacement, SearchRequest,
    SearchStrategy,
};
use hms_kernels::Scale;
use hms_trace::KernelTrace;
use hms_types::{GpuConfig, PlacementMap};

use crate::plan::{search_limit, HELD_OUT, SEARCH_KERNELS};
use crate::spans::Tracer;

/// The five strategies of the search-warm workload, in op order.
pub const STRATEGIES: [SearchStrategy; 5] = [
    SearchStrategy::Exhaustive,
    SearchStrategy::BranchAndBound,
    SearchStrategy::Beam { width: 8 },
    SearchStrategy::SuccessiveHalving,
    SearchStrategy::LocalSearch { seed: 42 },
];

/// Worker threads: never more than the machine has cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The machine every workload models (the paper's K80).
pub fn cfg() -> GpuConfig {
    Harness::paper().cfg
}

/// The paper's full model with `T_overlap` trained on the Table IV
/// training suite — the two halves of `hms_bench::trained_predictor`
/// (and of `hms serve --train`), called one by one so each gets a span.
pub fn trained_predictor(tr: &mut Tracer) -> Predictor {
    let h = Harness::paper();
    let profiles = tr.time("profile.simulate", 0, || training_profiles(&h));
    tr.time("toverlap.train", 0, || {
        predictor_with(&h, ModelOptions::full(), &profiles)
    })
}

/// One kernel at Full scale with its profiled sample placement.
pub struct Kernel {
    pub name: &'static str,
    pub kt: KernelTrace,
    pub sample: PlacementMap,
    pub profile: Profile,
}

impl Kernel {
    pub fn load(name: &'static str, tr: &mut Tracer) -> Kernel {
        let kt = tr.time("kernels.build", 0, || {
            hms_kernels::by_name(name, Scale::Full).expect("search kernel is registered")
        });
        let sample = kt.default_placement();
        let profile = tr.time("profile.simulate", 0, || {
            profile_sample(&kt, &sample, &cfg()).expect("sample placement profiles")
        });
        Kernel {
            name,
            kt,
            sample,
            profile,
        }
    }

    /// The `hms search` request: read-only arrays, Full scale.
    pub fn request(&self, strategy: SearchStrategy, threads: usize) -> SearchRequest<'_> {
        SearchRequest::new(&self.kt.arrays, &self.sample)
            .read_only_candidates()
            .limit(search_limit(self.name))
            .threads(threads)
            .strategy(strategy)
    }
}

/// Bit-identical rankings: same placements, same predicted-cycle bits.
pub fn same_ranking(a: &[RankedPlacement], b: &[RankedPlacement]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.placement == y.placement
                && x.predicted_cycles.to_bits() == y.predicted_cycles.to_bits()
        })
}

/// Model quality: deterministic functions of the trained model, so they
/// must repeat bit for bit across runs and workloads.
pub struct Quality {
    /// Mean |pred − sim| / sim over the Figure 5 evaluation suite, %.
    pub model_err_pct: f64,
    /// sim(top-ranked) / min sim − 1 over the held-out kernels, mean, %.
    pub regret_pct: f64,
    /// Mean reported `gap_upper_bound` of the anytime strategies over
    /// the five search kernels.
    pub gap_bound: f64,
}

pub fn quality(predictor: &Predictor) -> Quality {
    let h = Harness::paper();
    let mut off = Tracer::new(false);
    let kernels: Vec<Kernel> = SEARCH_KERNELS
        .iter()
        .map(|name| Kernel::load(name, &mut off))
        .collect();
    let model_err_pct = 100.0 * mean_error(&run_suite(&h, predictor, &evaluation_suite()));

    let mut regrets = Vec::new();
    for name in HELD_OUT {
        let k = kernels
            .iter()
            .find(|k| k.name == name)
            .expect("held-out kernel loaded");
        let ranked = k
            .request(SearchStrategy::Exhaustive, nproc())
            .run(predictor, &k.profile)
            .expect("held-out search")
            .ranked;
        let sims: Vec<u64> = hms_stats::par::par_map(&ranked, |r| {
            let ct = hms_trace::materialize(&k.kt, &r.placement, &h.cfg).expect("legal placement");
            hms_sim::simulate(&ct, &h.cfg, &hms_sim::SimOptions::default())
                .expect("simulation completes")
                .cycles
        });
        let best = *sims.iter().min().expect("non-empty ranking") as f64;
        regrets.push(sims[0] as f64 / best - 1.0);
    }

    let mut gaps = Vec::new();
    for name in SEARCH_KERNELS {
        let k = kernels
            .iter()
            .find(|k| k.name == name)
            .expect("search kernel loaded");
        for s in STRATEGIES.iter().filter(|s| s.is_anytime()) {
            let out = k
                .request(*s, nproc())
                .run(predictor, &k.profile)
                .expect("anytime search");
            gaps.push(out.stats.gap_upper_bound);
        }
    }
    Quality {
        model_err_pct,
        regret_pct: 100.0 * crate::stats::mean(&regrets),
        gap_bound: crate::stats::mean(&gaps),
    }
}
