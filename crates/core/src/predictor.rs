//! The full predictor (paper Eq. 1) and the ablation presets of
//! Figures 7–9.
//!
//! Pipeline for one target placement:
//!
//! 1. rewrite the sample's concrete trace to the target placement
//!    (`hms-trace::rewrite` — the SASSI-style transformation);
//! 2. run the cache-model trace analysis (`analysis`);
//! 3. `T_comp` (Eq. 2/3), `T_mem` (Eq. 4–10), `T_overlap` (Eq. 11–12);
//! 4. `T = T_comp + T_mem − T_overlap`.

use hms_trace::rewrite;
use hms_types::{GpuConfig, HmsError, PlacementMap};

use crate::analysis::{analyze, TraceAnalysis};
use crate::profile::Profile;
use crate::tcomp::tcomp;
use crate::tmem::tmem;
pub use crate::tmem::QueuingMode;
use crate::toverlap::{features, ToverlapModel, TrainingPoint};

/// Model-configuration knobs — the axes of the paper's ablation study.
/// `Hash` so the serving layer can key prediction caches on the exact
/// model configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelOptions {
    /// Detailed issued-instruction counting: addressing-mode expansion +
    /// replay causes (1)–(4) (Figure 7's "instr replay & addr mode
    /// diff").
    pub detailed_instr: bool,
    /// DRAM latency estimation mode (Figures 8–9).
    pub queuing: QueuingMode,
}

impl ModelOptions {
    /// The full model ("Our Model" in the figures).
    pub fn full() -> Self {
        ModelOptions {
            detailed_instr: true,
            queuing: QueuingMode::Mapped,
        }
    }

    /// The ablation baseline: no detailed instruction counting, constant
    /// DRAM latency, even request distribution.
    pub fn baseline() -> Self {
        ModelOptions {
            detailed_instr: false,
            queuing: QueuingMode::ConstantLatency,
        }
    }

    /// Baseline + detailed instruction counting (Figure 7's second bar).
    pub fn baseline_plus_instr() -> Self {
        ModelOptions {
            detailed_instr: true,
            queuing: QueuingMode::ConstantLatency,
        }
    }

    /// Detailed counting + queuing with even request distribution
    /// (Figure 8's third bar).
    pub fn instr_plus_queuing_even() -> Self {
        ModelOptions {
            detailed_instr: true,
            queuing: QueuingMode::EvenDistribution,
        }
    }

    /// Queuing alone, no detailed instruction counting (Figure 9).
    pub fn queuing_only() -> Self {
        ModelOptions {
            detailed_instr: false,
            queuing: QueuingMode::Mapped,
        }
    }
}

/// A predicted execution time with its decomposition.
#[derive(Debug, Clone)]
pub struct Prediction {
    pub cycles: f64,
    pub t_comp: f64,
    pub t_mem: f64,
    pub t_overlap: f64,
    /// The target-trace analysis behind the prediction.
    pub analysis: TraceAnalysis,
}

/// The paper's performance-model framework.
#[derive(Debug, Clone)]
pub struct Predictor {
    pub cfg: GpuConfig,
    pub options: ModelOptions,
    pub overlap: ToverlapModel,
}

impl Predictor {
    /// A full-model predictor with an untrained overlap model.
    pub fn new(cfg: GpuConfig) -> Self {
        Predictor {
            cfg,
            options: ModelOptions::full(),
            overlap: ToverlapModel::untrained(),
        }
    }

    pub fn with_options(cfg: GpuConfig, options: ModelOptions) -> Self {
        Predictor {
            cfg,
            options,
            overlap: ToverlapModel::untrained(),
        }
    }

    /// Predict the execution time of `target` given the sample
    /// `profile`: one full rewrite plus one analysis walk.
    ///
    /// A model that produces a NaN or infinite time surfaces as
    /// [`HmsError::NonFinitePrediction`] rather than a poisoned float, so
    /// downstream ranking can use [`f64::total_cmp`] on trusted keys.
    pub fn predict(
        &self,
        profile: &Profile,
        target: &PlacementMap,
    ) -> Result<Prediction, HmsError> {
        let target_trace = rewrite(&profile.trace, target, &self.cfg)?;
        self.predict_prepared(profile, analyze(&target_trace, &self.cfg), None)
    }

    /// Predict from a pre-computed target analysis plus an optional
    /// pre-computed *sample* analysis. The non-detailed ablation variants
    /// feed Eq. 11 the sample placement's events (see below), which
    /// normally means re-analyzing the sample trace on every call; the
    /// incremental search engine computes that analysis once and passes
    /// it here. Float operations are identical either way, so results
    /// are bit-for-bit the same.
    pub fn predict_prepared(
        &self,
        profile: &Profile,
        analysis: TraceAnalysis,
        sample_analysis: Option<&TraceAnalysis>,
    ) -> Result<Prediction, HmsError> {
        let (cycles, t_comp, t_mem, t_overlap) =
            self.predict_parts(profile, &analysis, sample_analysis)?;
        Ok(Prediction {
            cycles,
            t_comp,
            t_mem,
            t_overlap,
            analysis,
        })
    }

    /// [`predict_prepared`](Self::predict_prepared) without taking
    /// ownership of the analysis: returns `(cycles, t_comp, t_mem,
    /// t_overlap)`. The lane-batched search path predicts straight from
    /// a borrowed per-lane accumulator, skipping the per-candidate
    /// `TraceAnalysis` clone a full [`Prediction`] would need. Every
    /// prediction passes through here, so this is the one place a
    /// non-finite time becomes [`HmsError::NonFinitePrediction`].
    pub fn predict_parts(
        &self,
        profile: &Profile,
        analysis: &TraceAnalysis,
        sample_analysis: Option<&TraceAnalysis>,
    ) -> Result<(f64, f64, f64, f64), HmsError> {
        let tc = tcomp(profile, analysis, &self.cfg, self.options.detailed_instr);
        let tm = tmem(profile, analysis, &self.cfg, self.options.queuing);
        // Without the detailed counting framework a model cannot know
        // the *target's* memory events — only the sample run's. The
        // paper's ablation baseline "incorrectly calculates the numbers
        // of those memory events needed by Equation 11" for exactly this
        // reason, so the degraded variants feed Eq. 11 the sample
        // placement's events.
        let to = match (self.options.detailed_instr, sample_analysis) {
            (true, _) => self
                .overlap
                .t_overlap(analysis, &self.cfg, tc.cycles, tm.cycles),
            (false, Some(sa)) => self.overlap.t_overlap(sa, &self.cfg, tc.cycles, tm.cycles),
            (false, None) => {
                let sa = analyze(&profile.trace, &self.cfg);
                self.overlap.t_overlap(&sa, &self.cfg, tc.cycles, tm.cycles)
            }
        };
        let cycles = (tc.cycles + tm.cycles - to).max(1.0);
        if !cycles.is_finite() {
            return Err(HmsError::NonFinitePrediction {
                cycles,
                t_comp: tc.cycles,
                t_mem: tm.cycles,
                t_overlap: to,
            });
        }
        Ok((cycles, tc.cycles, tm.cycles, to))
    }

    /// Build one `T_overlap` training observation from a profiled
    /// placement: the residual overlap the simulator actually exhibited
    /// under this model configuration.
    pub fn training_point(&self, profile: &Profile) -> TrainingPoint {
        let analysis = analyze(&profile.trace, &self.cfg);
        let tc = tcomp(profile, &analysis, &self.cfg, self.options.detailed_instr);
        let tm = tmem(profile, &analysis, &self.cfg, self.options.queuing);
        let ratio = if tm.cycles > 0.0 {
            ((tc.cycles + tm.cycles - profile.measured_cycles as f64) / tm.cycles).clamp(-1.0, 1.0)
        } else {
            0.0
        };
        // Group by kernel identity so cross-validation holds out whole
        // kernels (placements of one kernel are near-duplicates).
        let group = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            profile.trace.name.hash(&mut h);
            h.finish()
        };
        TrainingPoint {
            features: features(&analysis, &self.cfg, tc.cycles, tm.cycles),
            ratio,
            group,
        }
    }

    /// Fit the overlap model from profiled training placements, in
    /// place. Training and evaluation sets are disjoint in the harness,
    /// as in the paper (Table IV's lower half trains, upper half
    /// evaluates).
    pub fn train(&mut self, training: &[Profile]) -> Result<(), HmsError> {
        let points: Vec<TrainingPoint> = training.iter().map(|p| self.training_point(p)).collect();
        self.overlap = ToverlapModel::fit(&points)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_sample;
    use hms_kernels::{convolution, vecadd, Scale};
    use hms_types::{ArrayId, MemorySpace};

    fn cfg() -> GpuConfig {
        GpuConfig::test_small()
    }

    #[test]
    fn predicts_identity_placement_within_factor_two() {
        let cfg = cfg();
        let kt = vecadd::build(Scale::Test);
        let pm = kt.default_placement();
        let profile = profile_sample(&kt, &pm, &cfg).unwrap();
        let pred = Predictor::new(cfg.clone()).predict(&profile, &pm).unwrap();
        let measured = profile.measured_cycles as f64;
        assert!(
            pred.cycles > measured * 0.3 && pred.cycles < measured * 3.0,
            "pred {} vs measured {measured}",
            pred.cycles
        );
        assert!(pred.t_comp > 0.0 && pred.t_mem > 0.0);
        assert!(pred.t_overlap <= pred.t_mem);
    }

    #[test]
    fn prediction_ranks_significant_moves_correctly() {
        // For placement moves whose measured effect is clear (> 12%),
        // even the untrained predictor must point the right way — that
        // is the tool's advertised use. Small measured differences are
        // within model noise and are not ranked here.
        // Full scale on the K80 machine: placement effects at test
        // scale are within noise, which is exactly why the paper
        // evaluates at benchmark scale.
        let cfg = GpuConfig::tesla_k80();
        let kt = hms_kernels::neuralnet::build(Scale::Full);
        let sample = kt.default_placement();
        let profile = profile_sample(&kt, &sample, &cfg).unwrap();
        let predictor = Predictor::new(cfg.clone());
        let pred_sample = predictor.predict(&profile, &sample).unwrap();
        let meas_sample = profile.measured_cycles as f64;

        let mut significant = 0;
        // Shared moves are excluded: at test scale the dominant cost of
        // a shared placement is barrier skew from the staging sync,
        // which the analytic model intentionally approximates (Eq. 16
        // treats serialization as placement-invariant).
        for (id, space) in [
            (ArrayId(0), MemorySpace::Texture2D),
            (ArrayId(0), MemorySpace::Texture1D),
            (ArrayId(0), MemorySpace::Constant),
            (ArrayId(1), MemorySpace::Constant),
        ] {
            let target = sample.with(id, space);
            if target.validate(&kt.arrays, &cfg).is_err() {
                continue;
            }
            let meas_target = profile_sample(&kt, &target, &cfg).unwrap().measured_cycles as f64;
            let rel = (meas_target - meas_sample).abs() / meas_sample;
            if rel < 0.12 {
                continue;
            }
            significant += 1;
            let pred_target = predictor.predict(&profile, &target).unwrap();
            assert_eq!(
                pred_target.cycles < pred_sample.cycles,
                meas_target < meas_sample,
                "misranked {}({})",
                id.0,
                space
            );
        }
        // The probe set must exercise at least one significant move.
        assert!(significant >= 1, "no significant moves in probe set");
    }

    #[test]
    fn ablation_options_change_predictions() {
        let cfg = cfg();
        let kt = hms_kernels::md::build(Scale::Test);
        let sample = kt.default_placement();
        let profile = profile_sample(&kt, &sample, &cfg).unwrap();
        let target = sample.with(ArrayId(0), MemorySpace::Texture1D);

        let full = Predictor::with_options(cfg.clone(), ModelOptions::full())
            .predict(&profile, &target)
            .unwrap();
        let base = Predictor::with_options(cfg.clone(), ModelOptions::baseline())
            .predict(&profile, &target)
            .unwrap();
        assert!(full.cycles != base.cycles);
    }

    #[test]
    fn training_improves_identity_prediction() {
        let cfg = cfg();
        let kernels = [
            vecadd::build(Scale::Test),
            convolution::build_rows(Scale::Test),
            hms_kernels::triad::build(Scale::Test),
            hms_kernels::spmv::build(Scale::Test),
            hms_kernels::md::build(Scale::Test),
        ];
        // Train on several placements of each kernel.
        let mut profiles = Vec::new();
        for kt in &kernels {
            let g = kt.default_placement();
            profiles.push(profile_sample(kt, &g, &cfg).unwrap());
            for (id, _) in g.iter() {
                for space in [MemorySpace::Texture1D, MemorySpace::Constant] {
                    let pm = g.with(id, space);
                    if pm.validate(&kt.arrays, &cfg).is_ok() {
                        if let Ok(p) = profile_sample(kt, &pm, &cfg) {
                            profiles.push(p);
                        }
                    }
                }
            }
        }
        let mut predictor = Predictor::new(cfg.clone());
        predictor.train(&profiles).unwrap();
        assert!(predictor.overlap.is_trained());

        // Evaluate on a held-out kernel.
        let kt = hms_kernels::stencil2d::build(Scale::Test);
        let pm = kt.default_placement();
        let profile = profile_sample(&kt, &pm, &cfg).unwrap();
        let trained_pred = predictor.predict(&profile, &pm).unwrap();
        let untrained_pred = Predictor::new(cfg.clone()).predict(&profile, &pm).unwrap();
        let measured = profile.measured_cycles as f64;
        let err = |x: f64| (x - measured).abs() / measured;
        // Trained should not be (much) worse than the untrained default.
        assert!(
            err(trained_pred.cycles) <= err(untrained_pred.cycles) + 0.35,
            "trained {} untrained {} measured {}",
            trained_pred.cycles,
            untrained_pred.cycles,
            measured
        );
    }
}
