//! Harness-side measurement adapters: the seeded, class-stratified
//! universe subset, the backend that measures a subset universe on the
//! full platform, and the span-recording backend decorator. The
//! self-test at the bottom proves that stacking them changes no bit of
//! an inferred mapping.

use crate::trace::Tracer;
use pmevo::machine::{MeasureConfig, Platform, SimBackend};
use pmevo::Session;
use pmevo_core::{BackendStats, Experiment, InstId, MeasuredExperiment, MeasurementBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Picks `count` forms of `platform`'s ISA, stratified by operation class:
/// every class gets a quota proportional to its size (largest remainder),
/// the class's forms (in ISA order) are cut into that many contiguous
/// strata, and one form is drawn per stratum. The class mix is therefore
/// the same for every seed; only the forms within each stratum vary.
/// Returns platform ids in ascending order.
pub fn stratified_subset(platform: &Platform, count: usize, seed: u64) -> Vec<InstId> {
    let isa = platform.isa();
    let total = isa.len();
    assert!(
        count > 0 && count <= total,
        "subset of {count} out of {total} forms"
    );
    let mut classes: Vec<(pmevo_isa::OpClass, Vec<InstId>)> = Vec::new();
    for (id, form) in isa.iter() {
        match classes.iter_mut().find(|(c, _)| *c == form.class) {
            Some((_, ids)) => ids.push(id),
            None => classes.push((form.class, vec![id])),
        }
    }
    let mut quotas: Vec<usize> = classes
        .iter()
        .map(|(_, ids)| count * ids.len() / total)
        .collect();
    let mut by_remainder: Vec<usize> = (0..classes.len()).collect();
    // Stable sort: ties go to the class that appears first in the ISA.
    by_remainder.sort_by_key(|&c| std::cmp::Reverse(count * classes[c].1.len() % total));
    let assigned: usize = quotas.iter().sum();
    for &c in by_remainder.iter().take(count - assigned) {
        quotas[c] += 1;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5B5E_7A11);
    let mut picked = Vec::with_capacity(count);
    for ((_, ids), &quota) in classes.iter().zip(&quotas) {
        for j in 0..quota {
            let lo = j * ids.len() / quota;
            let hi = (j + 1) * ids.len() / quota;
            picked.push(ids[rng.gen_range(lo..hi)]);
        }
    }
    picked.sort_unstable();
    picked
}

/// Measures a session universe `0..forms.len()` on the full platform:
/// session instruction `i` is platform form `forms[i]`.
pub struct SubsetBackend<B> {
    inner: B,
    forms: Vec<InstId>,
    name: String,
}

impl<B: MeasurementBackend> SubsetBackend<B> {
    pub fn new(inner: B, forms: Vec<InstId>) -> Self {
        let name = format!("subset{}({})", forms.len(), inner.name());
        SubsetBackend { inner, forms, name }
    }
}

impl<B: MeasurementBackend> MeasurementBackend for SubsetBackend<B> {
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        let mapped: Vec<Experiment> = experiments
            .iter()
            .map(|e| e.map_insts(|i| self.forms[i.index()]))
            .collect();
        self.inner.measure_batch(&mapped)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

/// Records a `machine` span around every batch the wrapped backend
/// measures and, when given a log, every experiment with its result.
pub struct SpanBackend<B> {
    inner: B,
    tracer: Tracer,
    log: Option<Arc<Mutex<Vec<MeasuredExperiment>>>>,
    name: String,
}

impl<B: MeasurementBackend> SpanBackend<B> {
    pub fn new(inner: B, tracer: Tracer, log: Option<Arc<Mutex<Vec<MeasuredExperiment>>>>) -> Self {
        let name = format!("spans({})", inner.name());
        SpanBackend {
            inner,
            tracer,
            log,
            name,
        }
    }
}

impl<B: MeasurementBackend> MeasurementBackend for SpanBackend<B> {
    fn measure_batch(&mut self, experiments: &[Experiment]) -> Vec<f64> {
        let out = {
            let _span = self.tracer.enter("machine.measure_batch");
            self.inner.measure_batch(experiments)
        };
        if let Some(log) = &self.log {
            let mut log = log.lock().expect("measurement log poisoned");
            log.extend(
                experiments
                    .iter()
                    .zip(&out)
                    .map(|(e, &t)| MeasuredExperiment::new(e.clone(), t)),
            );
        }
        out
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn stats(&self) -> BackendStats {
        self.inner.stats()
    }
}

/// The full adapter stack the workloads measure through:
/// `SubsetBackend` over `SpanBackend` over the platform's simulator.
pub fn adapted_backend(
    platform: &Platform,
    forms: Vec<InstId>,
    config: MeasureConfig,
    tracer: Tracer,
    log: Option<Arc<Mutex<Vec<MeasuredExperiment>>>>,
) -> SubsetBackend<SpanBackend<SimBackend>> {
    SubsetBackend::new(
        SpanBackend::new(SimBackend::new(platform.clone(), config), tracer, log),
        forms,
    )
}

/// Runs a small TINY session twice — once on the platform's own backend,
/// once through the identity subset and a recording span decorator — and
/// reports whether the two inferred mappings are bit-identical.
pub fn self_test() -> Result<(), String> {
    let platform = pmevo::machine::platforms::tiny();
    let session = |builder: pmevo::SessionBuilder| {
        builder
            .seed(11)
            .population(30)
            .max_generations(4)
            .accuracy_benchmarks(0)
            .build()
    };
    let plain = session(Session::builder().platform(platform.clone()))
        .map_err(|e| e.to_string())?
        .run();
    let identity: Vec<InstId> = (0..platform.isa().len() as u32).map(InstId).collect();
    let log = Arc::new(Mutex::new(Vec::new()));
    let backend = adapted_backend(
        &platform,
        identity,
        MeasureConfig::default(),
        Tracer::new(true),
        Some(log.clone()),
    );
    let adapted = session(
        Session::builder()
            .universe(platform.isa().len(), platform.num_ports())
            .backend(backend),
    )
    .map_err(|e| e.to_string())?
    .run();
    if adapted.mapping != plain.mapping
        || adapted.measurements_performed != plain.measurements_performed
    {
        return Err("the adapter stack changed the inferred TINY mapping".into());
    }
    if log.lock().expect("measurement log poisoned").len() as u64 != plain.measurements_performed {
        return Err("the span decorator did not log every measurement".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapters_change_no_bit() {
        self_test().unwrap();
    }

    #[test]
    fn subset_keeps_the_class_mix_for_every_seed() {
        let a72 = pmevo::machine::platforms::a72();
        let class_mix = |ids: &[InstId]| {
            let mut mix: Vec<String> = ids
                .iter()
                .map(|&i| format!("{:?}", a72.isa().form(i).class))
                .collect();
            mix.sort();
            mix
        };
        let first = stratified_subset(&a72, 80, 1);
        assert_eq!(first.len(), 80);
        assert!(first.windows(2).all(|w| w[0] < w[1]));
        for seed in 2..6 {
            let other = stratified_subset(&a72, 80, seed);
            assert_eq!(class_mix(&first), class_mix(&other));
        }
        assert_ne!(first, stratified_subset(&a72, 80, 2));
        assert_eq!(
            stratified_subset(&a72, 80, 3),
            stratified_subset(&a72, 80, 3)
        );
    }
}
