//! Baseline throughput predictors for the PMEvo evaluation (paper §5.3).
//!
//! The paper compares PMEvo's inferred mappings against four tools; each
//! has an analog here:
//!
//! * [`oracle`] — the **uops.info**-style predictor: the machine's
//!   ground-truth port mapping evaluated under the optimal-scheduler
//!   bottleneck model. On real hardware uops.info is obtained through
//!   per-port performance counters; on a simulator the ground truth is
//!   simply known.
//! * [`IacaLike`] — the **IACA**-style predictor: ground-truth port
//!   usage *plus* a pipeline model (it runs the cycle-level simulator
//!   without noise), so it also captures non-optimal scheduling and
//!   front-end effects.
//! * [`mca_like`] — the **llvm-mca**-style predictor: a hand-maintained,
//!   systematically imperfect port-mapping model — decent for the
//!   SKL-like machine, coarse for ZEN/A72 (LLVM's scheduling models for
//!   those chips were immature, paper §5.3.2).
//! * [`IthemalLike`] — the **Ithemal**-style predictor: a regression
//!   model trained on dependency-heavy basic blocks, which therefore
//!   mispredicts dependency-free port-bound code (paper §5.3.1).

//!
//! Next to the *predictors*, the crate hosts the baseline *inference
//! algorithms* of the session API ([`CountingAlgorithm`],
//! [`RandomAlgorithm`], [`LpAlgorithm`]) — cheap
//! [`pmevo_core::InferenceAlgorithm`]s that PMEvo's evolutionary search
//! is compared against under identical backends and bookkeeping.

mod algorithms;
mod ithemal;
mod mca;

pub use algorithms::{CountingAlgorithm, LpAlgorithm, RandomAlgorithm};
pub use ithemal::{IthemalConfig, IthemalLike};
pub use mca::mca_like;

use pmevo_core::{Experiment, MappingPredictor, ThroughputPredictor};
use pmevo_isa::LoopBuilder;
use pmevo_machine::{simulate_kernel, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The uops.info-style oracle: the platform's ground-truth mapping under
/// the bottleneck model.
///
/// # Example
///
/// ```
/// use pmevo_baselines::oracle;
/// use pmevo_core::{Experiment, InstId, ThroughputPredictor};
/// use pmevo_machine::platforms;
///
/// let skl = platforms::skl();
/// let o = oracle(&skl);
/// assert!(o.predict(&Experiment::singleton(InstId(0))) > 0.0);
/// assert_eq!(o.name(), "uops.info");
/// ```
pub fn oracle(platform: &Platform) -> MappingPredictor {
    MappingPredictor::new("uops.info", platform.ground_truth().clone())
}

/// The oracle with `num_bugs` seeded decomposition errors — the paper
/// found (and fixed) two bugs in the published uops.info Skylake mapping
/// (§5.2); this knob reproduces the "before fixing" state for
/// sensitivity studies.
pub fn oracle_with_bugs(platform: &Platform, num_bugs: usize, seed: u64) -> MappingPredictor {
    let mut mapping = platform.ground_truth().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let n = mapping.num_insts();
    for _ in 0..num_bugs {
        let inst = pmevo_core::InstId(rng.gen_range(0..n as u32));
        let mut entries = mapping.decomposition(inst).to_vec();
        if let Some(first) = entries.first_mut() {
            // A typical documentation bug: one µop too many.
            first.count += 1;
        }
        mapping.set_decomposition(inst, entries);
    }
    MappingPredictor::new("uops.info(buggy)", mapping)
}

/// The IACA-style predictor: ground truth + pipeline model.
///
/// Prediction runs the noise-free cycle-level simulator on the unrolled
/// measurement loop, so scheduling imperfections and front-end limits are
/// part of the prediction — like IACA's pipeline simulation, and unlike
/// the pure LP model (this is why IACA tracks long experiments better in
/// paper Figure 6).
#[derive(Debug)]
pub struct IacaLike<'a> {
    platform: &'a Platform,
    body_len: usize,
}

impl<'a> IacaLike<'a> {
    /// Creates the predictor for `platform`.
    pub fn new(platform: &'a Platform) -> Self {
        IacaLike {
            platform,
            body_len: 50,
        }
    }
}

impl ThroughputPredictor for IacaLike<'_> {
    fn predict(&self, e: &Experiment) -> f64 {
        let kernel = LoopBuilder::new(self.platform.isa())
            .body_len(self.body_len)
            .build(e);
        simulate_kernel(self.platform, &kernel, 10, 50).cycles_per_instance
    }

    fn name(&self) -> &str {
        "IACA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmevo_core::InstId;
    use pmevo_machine::platforms;

    #[test]
    fn oracle_matches_ground_truth_model() {
        let p = platforms::skl();
        let o = oracle(&p);
        let e = Experiment::pair(InstId(0), 1, InstId(100), 1);
        assert_eq!(o.predict(&e), p.ground_truth().throughput(&e));
    }

    #[test]
    fn buggy_oracle_differs_but_not_everywhere() {
        let p = platforms::skl();
        let clean = oracle(&p);
        let buggy = oracle_with_bugs(&p, 2, 42);
        let mut diffs = 0;
        for i in 0..p.isa().len() as u32 {
            let e = Experiment::singleton(InstId(i));
            if (clean.predict(&e) - buggy.predict(&e)).abs() > 1e-12 {
                diffs += 1;
            }
        }
        assert!((1..=4).contains(&diffs), "{diffs} singleton diffs");
    }

    #[test]
    fn iaca_like_is_close_to_oracle_on_simple_experiments() {
        let p = platforms::skl();
        let o = oracle(&p);
        let iaca = IacaLike::new(&p);
        let mul = p.isa().find("imul_r64_r64").unwrap();
        let e = Experiment::singleton(mul);
        let a = o.predict(&e);
        let b = iaca.predict(&e);
        assert!((a - b).abs() / a < 0.15, "oracle {a} vs iaca {b}");
        assert_eq!(iaca.name(), "IACA");
    }
}
