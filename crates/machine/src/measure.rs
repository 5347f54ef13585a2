//! The throughput-measurement harness (paper §4.2).
//!
//! Wraps the simulator the way the paper wraps `gettimeofday()`-based
//! wall-clock measurement: experiments are unrolled into ~50-instruction
//! loop bodies, run to a steady state, perturbed by a measurement-noise
//! model (standing in for clock-frequency jitter), and the median over
//! several repetitions is reported.

use crate::platform::Platform;
use crate::sim::simulate_kernel;
use pmevo_core::Experiment;
use pmevo_isa::LoopBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the measurement harness.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureConfig {
    /// Target loop-body length in instructions (paper: 50).
    pub body_len: usize,
    /// Warm-up iterations excluded from the steady-state measurement.
    pub warmup_iters: u32,
    /// Measured iterations after warm-up (at least 2: the throughput is
    /// the span between the ends of the first and the last of them).
    pub measure_iters: u32,
    /// Relative standard deviation of the multiplicative measurement
    /// noise (0 disables noise).
    pub noise_sigma: f64,
    /// Number of noisy repetitions; the median is reported (paper §4.2).
    pub repetitions: u32,
    /// RNG seed for the noise model.
    pub seed: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            body_len: 50,
            warmup_iters: 15,
            measure_iters: 75,
            noise_sigma: 0.01,
            repetitions: 5,
            seed: 0xC0FFEE,
        }
    }
}

impl MeasureConfig {
    /// A noise-free configuration, for tests and model validation.
    pub fn exact() -> Self {
        MeasureConfig {
            noise_sigma: 0.0,
            repetitions: 1,
            ..Self::default()
        }
    }
}

/// Measures experiment throughputs on a [`Platform`].
///
/// # Example
///
/// ```
/// use pmevo_machine::{platforms, MeasureConfig, Measurer};
/// use pmevo_core::{Experiment, InstId};
///
/// let skl = platforms::skl();
/// let measurer = Measurer::new(&skl, MeasureConfig::exact());
/// let tp = measurer.measure(&Experiment::singleton(InstId(0)));
/// assert!(tp > 0.0);
/// ```
#[derive(Debug)]
pub struct Measurer<'a> {
    platform: &'a Platform,
    config: MeasureConfig,
}

impl<'a> Measurer<'a> {
    /// Creates a measurer over `platform`.
    ///
    /// # Panics
    ///
    /// Panics if `config.measure_iters < 2`: the steady state is measured
    /// between the ends of the first and the last measured iteration, so
    /// a single one spans nothing.
    pub fn new(platform: &'a Platform, config: MeasureConfig) -> Self {
        assert!(
            config.measure_iters >= 2,
            "MeasureConfig::measure_iters must be at least 2, got {}: the throughput \
             is measured between the ends of the first and the last measured iteration",
            config.measure_iters
        );
        Measurer { platform, config }
    }

    /// The platform under measurement.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// The measurement configuration.
    pub fn config(&self) -> &MeasureConfig {
        &self.config
    }

    /// Measures the steady-state throughput of `e` in cycles per
    /// experiment instance: the median of noisy repetitions.
    ///
    /// # Panics
    ///
    /// Panics if `e` is empty or references unknown instructions.
    pub fn measure(&self, e: &Experiment) -> f64 {
        self.with_noise(self.exact(e), e)
    }

    /// The noise-free throughput of `e`: its loop built and simulated.
    pub(crate) fn exact(&self, e: &Experiment) -> f64 {
        let kernel = LoopBuilder::new(self.platform.isa())
            .body_len(self.config.body_len)
            .build(e);
        simulate_kernel(
            self.platform,
            &kernel,
            self.config.warmup_iters,
            self.config.warmup_iters + self.config.measure_iters,
        )
        .cycles_per_instance
    }

    /// The median of the noisy repetitions of `e` around its noise-free
    /// throughput `exact`.
    pub(crate) fn with_noise(&self, exact: f64, e: &Experiment) -> f64 {
        if self.config.noise_sigma == 0.0 || self.config.repetitions <= 1 {
            return exact;
        }
        // Derive a per-experiment noise stream so measurement order does
        // not matter (and parallel measurement stays deterministic).
        let mut hash = self.config.seed;
        for (i, n) in e.iter() {
            hash = hash
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(i.0) << 32 | u64::from(n));
        }
        let mut rng = StdRng::seed_from_u64(hash);
        let mut samples: Vec<f64> = (0..self.config.repetitions)
            .map(|_| {
                let z = standard_normal(&mut rng);
                (exact * (1.0 + self.config.noise_sigma * z)).max(1e-9)
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("noise samples are finite"));
        samples[samples.len() / 2]
    }
}

/// Samples a standard normal deviate via Box–Muller (the `rand_distr`
/// crate is not on the allowed dependency list).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;
    use pmevo_core::InstId;

    #[test]
    fn exact_measurement_is_deterministic() {
        let p = platforms::skl();
        let m = Measurer::new(&p, MeasureConfig::exact());
        let e = Experiment::pair(InstId(0), 1, InstId(50), 2);
        assert_eq!(m.measure(&e), m.measure(&e));
    }

    #[test]
    fn noisy_median_is_close_to_exact() {
        let p = platforms::skl();
        let exact = Measurer::new(&p, MeasureConfig::exact());
        let noisy = Measurer::new(
            &p,
            MeasureConfig {
                noise_sigma: 0.02,
                repetitions: 9,
                ..MeasureConfig::default()
            },
        );
        let e = Experiment::singleton(InstId(40));
        let a = exact.measure(&e);
        let b = noisy.measure(&e);
        assert!((a - b).abs() / a < 0.05, "exact {a} vs noisy median {b}");
    }

    #[test]
    fn noise_is_order_independent() {
        let p = platforms::skl();
        let m = Measurer::new(&p, MeasureConfig::default());
        let e1 = Experiment::singleton(InstId(3));
        let e2 = Experiment::singleton(InstId(4));
        let a1 = m.measure(&e1);
        // Interleave another measurement; e1's result must not change.
        let _ = m.measure(&e2);
        assert_eq!(a1, m.measure(&e1));
    }

    #[test]
    #[should_panic(expected = "measure_iters must be at least 2, got 1")]
    fn one_measured_iteration_is_rejected() {
        // One measured iteration spans zero cycles: there is no
        // throughput to report, and the noise clamp would hide a NaN.
        let p = platforms::tiny();
        Measurer::new(
            &p,
            MeasureConfig {
                measure_iters: 1,
                ..MeasureConfig::default()
            },
        );
    }

    #[test]
    fn two_measured_iterations_give_a_real_throughput() {
        let p = platforms::tiny();
        let m = Measurer::new(
            &p,
            MeasureConfig {
                measure_iters: 2,
                ..MeasureConfig::default()
            },
        );
        let tp = m.measure(&Experiment::singleton(InstId(0)));
        assert!(tp.is_finite() && tp > 0.1, "throughput {tp}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
