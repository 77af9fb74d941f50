//! The overlap model `T_overlap` (paper Eq. 11–12).
//!
//! ```text
//! T_overlap_ratio = sum_i g_i e_i + sum_j c_j e_j + sum_m t_m e_m +
//!                   sum_n s_n e_n + sum_k r_k e_k + w #warps + c    (11)
//! T_overlap = T_overlap_ratio x T_mem                              (12)
//! ```
//!
//! The feature groups follow the paper: global events (L2 misses +
//! global requests), constant events (constant-cache misses + requests),
//! texture events (texture-cache misses + requests), shared events (bank
//! conflicts + requests), row-buffer miss/conflict events, and warps per
//! SM. Event features enter as *ratios* (normalized per warp-level
//! memory instruction), which "makes models independent of applications
//! and results in better modeling accuracy".
//!
//! Coefficients come from ordinary least squares over a training set of
//! placements whose true overlap is extracted from simulator runs:
//! `ratio = (T_comp + T_mem - T_measured) / T_mem`.

use hms_stats::LinearModel;
use hms_types::{GpuConfig, HmsError};

use crate::analysis::TraceAnalysis;

/// Number of features in Eq. 11's vector.
pub const FEATURES: usize = 11;

/// Indices of the features eligible for selection during `fit` (see the
/// candidate-prior note there): memory intensity (6), MLP (7), and the
/// `T_comp`/`T_mem` regime balance (8).
pub const STABLE_FEATURES: [usize; 3] = [8, 7, 6];

/// Build Eq. 11's feature vector from a trace analysis plus the two
/// model terms whose balance determines how much overlap is possible.
///
/// The final two features go beyond the paper's printed event list:
/// `min(T_comp/T_mem, 1)` and `min(T_mem/T_comp, 1)` encode which side
/// dominates — overlap can hide at most the smaller of the two costs, a
/// regime indicator a purely event-based linear model cannot express.
pub fn features(
    analysis: &TraceAnalysis,
    cfg: &GpuConfig,
    t_comp: f64,
    t_mem: f64,
) -> [f64; FEATURES] {
    let m = analysis.mem_instrs.max(1) as f64;
    [
        // Global: L2 misses + global requests.
        (analysis.l2_misses + analysis.global_requests) as f64 / m,
        // Constant: cache misses + requests.
        (analysis.const_misses + analysis.const_requests) as f64 / m,
        // Texture: cache misses + requests.
        (analysis.tex_misses + analysis.tex_requests) as f64 / m,
        // Shared: bank conflicts + requests.
        (analysis.replay_shared_conflict + analysis.shared_requests) as f64 / m,
        // Row-buffer "miss and conflict events": DRAM requests stand in,
        // since every request is classified by the bank walk.
        analysis.dram.len() as f64 / m,
        // Warps per SM: availability of threads to cover stalls.
        analysis.warps_per_sm / f64::from(cfg.max_warps_per_sm),
        // Memory intensity: memory instructions per executed instruction.
        m / analysis.executed.max(1) as f64,
        // MLP: loads in flight per dependence barrier.
        analysis.mlp,
        // Regime balance: which of the two costs dominates.
        if t_mem > 0.0 {
            (t_comp / t_mem).min(1.0)
        } else {
            1.0
        },
        if t_comp > 0.0 {
            (t_mem / t_comp).min(1.0)
        } else {
            1.0
        },
        // Per-wait DRAM fan-out: a wait batch completes at the *max* of
        // its parallel requests; the wider the fan-out, the more the
        // mean-based AMAT underestimates. (cfd/spmv-style divergent
        // gathers have large fan-out; md's serialized gathers do not.)
        {
            let offchip =
                (analysis.global_requests + analysis.tex_requests + analysis.const_requests) as f64;
            if offchip > 0.0 {
                let txs_per_access = analysis.l2_transactions as f64 / offchip;
                let p_dram = (analysis.dram.len() as f64 / offchip).min(1.0);
                (1.0 + analysis.mlp * txs_per_access * p_dram).ln()
            } else {
                0.0
            }
        },
    ]
}

/// One training observation.
#[derive(Debug, Clone)]
pub struct TrainingPoint {
    pub features: [f64; FEATURES],
    /// True overlap ratio `(T_comp + T_mem - T_measured) / T_mem`.
    pub ratio: f64,
    /// Cross-validation group (kernel identity): placements of the same
    /// kernel are held out together during feature selection.
    pub group: u64,
}

/// The trainable overlap model.
#[derive(Debug, Clone)]
pub struct ToverlapModel {
    model: Option<LinearModel>,
    /// Observed range of training ratios; predictions clamp to it — the
    /// model interpolates overlap regimes, it must not extrapolate past
    /// anything it has seen.
    ratio_range: (f64, f64),
    /// Training diagnostics (R^2), available after `fit`.
    pub r_squared: Option<f64>,
}

impl ToverlapModel {
    /// An untrained model; predictions fall back to a neutral default
    /// ratio, so an untrained predictor still produces usable output.
    pub fn untrained() -> Self {
        ToverlapModel {
            model: None,
            ratio_range: (0.0, 1.0),
            r_squared: None,
        }
    }

    /// Fit Eq. 11's coefficients from training observations.
    ///
    /// Coefficients come from forward-stepwise OLS with leave-one-out
    /// cross-validation: with tens of training placements and ten
    /// candidate features, plain least squares extrapolates wildly on
    /// unseen kernels; stepwise selection keeps only features that
    /// demonstrably generalize.
    pub fn fit(points: &[TrainingPoint]) -> Result<Self, HmsError> {
        if points.len() < FEATURES + 1 {
            return Err(HmsError::InvalidInput(format!(
                "need more than {FEATURES} training placements, got {}",
                points.len()
            )));
        }
        let rows: Vec<Vec<f64>> = points.iter().map(|p| p.features.to_vec()).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.ratio).collect();
        let groups: Vec<u64> = points.iter().map(|p| p.group).collect();
        // The regime-balance feature min(T_comp/T_mem, 1) is seeded in a
        // priori: overlap can hide at most the smaller of the two costs,
        // so its relationship to the ratio is structural. The MLP and
        // memory-intensity candidates then compete under leave-one-
        // kernel-out cross-validation; the per-space event ratios remain
        // in the vector for analysis and ablation, but a ~10-kernel
        // training set cannot identify their coefficients in a way that
        // transfers (leave-one-kernel-out experiments bear this out).
        let fit = hms_stats::regression::stepwise_fit_seeded(
            &rows,
            &ys,
            &groups,
            1e-9,
            &[STABLE_FEATURES[0]],
            &[STABLE_FEATURES[1], STABLE_FEATURES[2]],
            3,
        )?;
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Ok(ToverlapModel {
            model: Some(fit.model),
            ratio_range: (lo, hi),
            r_squared: Some(fit.r_squared),
        })
    }

    /// Whether `fit` has been run.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// Predict the overlap ratio for a target analysis.
    ///
    /// Positive overlap hides part of `T_mem` under computation (at most
    /// all of it); a *negative* ratio lets the trained model act as a
    /// bias correction when the analytic `T_comp + T_mem` underestimates
    /// a regime (e.g. queue-bound gather kernels) — the same role the
    /// paper assigns Eq. 11's empirical coefficients. Predictions clamp
    /// to the training ratio range intersected with `[-1, 1]`.
    pub fn ratio(&self, analysis: &TraceAnalysis, cfg: &GpuConfig, t_comp: f64, t_mem: f64) -> f64 {
        match &self.model {
            Some(m) => {
                let raw = m.predict(&features(analysis, cfg, t_comp, t_mem));
                let lo = self.ratio_range.0.clamp(-1.0, 1.0);
                let hi = self.ratio_range.1.clamp(lo, 1.0);
                raw.clamp(lo, hi)
            }
            // Untrained default: moderate overlap. Chosen so that the
            // ablation baseline still subtracts *something*, as Eq. 12
            // always applies.
            None => 0.5,
        }
    }

    /// The largest ratio [`Self::ratio`] can return for *any* analysis —
    /// the trained clamp ceiling, or the untrained default. The search
    /// engine's lower bound (behind the anytime strategies' gap bounds)
    /// relies on this:
    /// `T >= T_comp + (1 - max_ratio) x T_mem` for every candidate.
    pub fn max_ratio(&self) -> f64 {
        match &self.model {
            Some(_) => {
                let lo = self.ratio_range.0.clamp(-1.0, 1.0);
                self.ratio_range.1.clamp(lo, 1.0)
            }
            None => 0.5,
        }
    }

    /// Eq. 12: `T_overlap = ratio x T_mem`.
    pub fn t_overlap(
        &self,
        analysis: &TraceAnalysis,
        cfg: &GpuConfig,
        t_comp: f64,
        t_mem: f64,
    ) -> f64 {
        self.ratio(analysis, cfg, t_comp, t_mem) * t_mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use hms_kernels::{vecadd, Scale};
    use hms_trace::materialize;
    use hms_types::GpuConfig;

    fn an() -> (TraceAnalysis, GpuConfig) {
        let cfg = GpuConfig::test_small();
        let kt = vecadd::build(Scale::Test);
        let a = analyze(
            &materialize(&kt, &kt.default_placement(), &cfg).unwrap(),
            &cfg,
        );
        (a, cfg)
    }

    const TC: f64 = 100.0;
    const TM: f64 = 400.0;

    #[test]
    fn untrained_model_is_neutral() {
        let (a, cfg) = an();
        let m = ToverlapModel::untrained();
        assert!(!m.is_trained());
        assert_eq!(m.ratio(&a, &cfg, TC, TM), 0.5);
        assert_eq!(m.t_overlap(&a, &cfg, TC, 1000.0), 500.0);
    }

    #[test]
    fn regime_features_encode_balance() {
        let (a, cfg) = an();
        let f = features(&a, &cfg, 100.0, 400.0);
        assert!((f[8] - 0.25).abs() < 1e-12); // tc/tm
        assert!((f[9] - 1.0).abs() < 1e-12); // tm/tc clamped
        let g = features(&a, &cfg, 400.0, 100.0);
        assert!((g[8] - 1.0).abs() < 1e-12);
        assert!((g[9] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fit_recovers_planted_linear_ratio() {
        let (a, cfg) = an();
        // Plant a relation over the *selectable* features (see
        // STABLE_FEATURES): ratio = 0.2 + 0.3 f8 - 0.05 f7, varied by
        // sweeping the tc/tm balance and the analysis MLP.
        let mut points = Vec::new();
        for i in 0..40u64 {
            let tc = 50.0 + 10.0 * i as f64;
            let tm = 500.0;
            let mut a2 = a.clone();
            a2.mlp = 1.0 + (i % 5) as f64;
            let f = features(&a2, &cfg, tc, tm);
            let ratio = 0.2 + 0.3 * f[8] - 0.05 * f[7];
            points.push(TrainingPoint {
                features: f,
                ratio,
                group: i,
            });
        }
        let m = ToverlapModel::fit(&points).unwrap();
        assert!(m.is_trained());
        assert!(m.r_squared.unwrap() > 0.999, "r2 = {:?}", m.r_squared);
        // Probe at unseen tc/tm and MLP values inside the seen range.
        let mut a2 = a.clone();
        a2.mlp = 2.5;
        let tc = 123.0;
        let tm = 500.0;
        let f = features(&a2, &cfg, tc, tm);
        let want = 0.2 + 0.3 * f[8] - 0.05 * f[7];
        let got = m.ratio(&a2, &cfg, tc, tm);
        assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
    }

    #[test]
    fn prediction_is_clamped() {
        let (a, cfg) = an();
        let points: Vec<TrainingPoint> = (0..20)
            .map(|i| {
                let mut f = features(&a, &cfg, TC, TM);
                f[0] += i as f64;
                TrainingPoint {
                    features: f,
                    ratio: 50.0 + i as f64,
                    group: i as u64,
                } // absurd ratios
            })
            .collect();
        let m = ToverlapModel::fit(&points).unwrap();
        let r = m.ratio(&a, &cfg, TC, TM);
        assert!((0.0..=1.0).contains(&r));
    }

    #[test]
    fn too_few_points_is_an_error() {
        assert!(ToverlapModel::fit(&[]).is_err());
    }
}
