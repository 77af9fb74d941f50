//! # hms-core
//!
//! The paper's contribution: performance models that, given one profiled
//! *sample* data placement of a GPU kernel, predict the execution time of
//! any *target* placement over the heterogeneous memory system — without
//! implementing or running the target.
//!
//! The prediction (Eq. 1) decomposes into
//!
//! ```text
//! T = T_comp + T_mem − T_overlap
//! ```
//!
//! * [`profile`] — profiling a sample placement (trace + events + time);
//! * [`analysis`] — cache-model-driven trace analysis of a rewritten
//!   target trace (paper Section IV): executed-instruction counts with
//!   addressing-mode expansion, replay causes (1)–(4), per-space memory
//!   events, and the stamped DRAM request stream;
//! * [`tcomp`] — Eq. 2/3 and Appendix Eq. 13–16;
//! * [`tmem`] — Eq. 4–10 and Appendix Eq. 17–19, including the per-bank
//!   G/G/1 queuing model with Kingman's approximation and the address-
//!   mapping-aware request distribution;
//! * [`toverlap`] — the trainable linear model of Eq. 11–12;
//! * [`predictor`] — the full pipeline plus the ablation presets used in
//!   Figures 7–9;
//! * [`baselines`] — the comparison models: a Sim-et-al.-style [7]
//!   MWP/CWP model with constant DRAM latency and executed-instruction
//!   counts, and a PORPLE-style latency-oriented ranking model;
//! * [`search`] — legal-placement enumeration and model-driven ranking;
//! * [`strategies`] — anytime approximate search (beam, successive
//!   halving, seeded local search) with sound reported optimality gaps.

pub mod analysis;
pub mod baselines;
pub mod engine;
pub mod predictor;
pub mod profile;
pub mod search;
pub mod skelcache;
pub mod strategies;
pub mod tcomp;
pub mod tmem;
pub mod toverlap;

pub use analysis::{analyze, TraceAnalysis};
pub use baselines::{PorpleModel, SimKimModel};
pub use engine::{Engine, EngineStats};
pub use predictor::{ModelOptions, Prediction, Predictor, QueuingMode};
pub use profile::{profile_sample, Profile};
pub use search::{
    enumerate_placements, rank_placements_naive, RankedPlacement, SearchOutcome, SearchRequest,
    SearchStrategy,
};
pub use skelcache::{CacheFs, RealFs};
pub use toverlap::ToverlapModel;
