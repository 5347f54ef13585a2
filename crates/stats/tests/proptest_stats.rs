//! Property tests for the accuracy metrics and heat maps.

use pmevo_stats::{mape, pearson, spearman, Heatmap};
use proptest::prelude::*;

fn sample_pairs() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (2usize..40).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.1..100.0f64, n),
            proptest::collection::vec(0.1..100.0f64, n),
        )
    })
}

proptest! {
    // Case budget: capped so the whole workspace suite stays well under
    // a minute; override downward with PROPTEST_CASES=<n> (see vendored
    // proptest). Cases are drawn from a per-test deterministic seed.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mape_is_nonnegative_and_zero_only_for_exact((p, m) in sample_pairs()) {
        let e = mape(&p, &m);
        prop_assert!(e >= 0.0);
        prop_assert_eq!(mape(&m, &m), 0.0);
    }

    #[test]
    fn correlations_are_bounded((p, m) in sample_pairs()) {
        for c in [pearson(&p, &m), spearman(&p, &m)] {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c), "correlation {c}");
        }
    }

    #[test]
    fn correlation_is_symmetric((p, m) in sample_pairs()) {
        prop_assert!((pearson(&p, &m) - pearson(&m, &p)).abs() < 1e-9);
        prop_assert!((spearman(&p, &m) - spearman(&m, &p)).abs() < 1e-9);
    }

    /// Spearman is invariant under strictly monotone transforms of
    /// either argument — the property that makes it a *rank* metric.
    #[test]
    fn spearman_is_invariant_under_monotone_transform((p, m) in sample_pairs()) {
        let transformed: Vec<f64> = p.iter().map(|x| (x * 0.3).exp() + 5.0).collect();
        let a = spearman(&p, &m);
        let b = spearman(&transformed, &m);
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    /// Pearson is invariant under positive affine transforms.
    #[test]
    fn pearson_is_affine_invariant((p, m) in sample_pairs(), scale in 0.1..10.0f64, shift in -50.0..50.0f64) {
        let t: Vec<f64> = p.iter().map(|x| scale * x + shift).collect();
        let a = pearson(&p, &m);
        let b = pearson(&t, &m);
        prop_assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }

    /// Every recorded point lands in exactly one heat-map cell.
    #[test]
    fn heatmap_conserves_mass(
        points in proptest::collection::vec((0.0..50.0f64, 0.0..50.0f64), 1..100),
        bins in 1usize..40,
    ) {
        let mut h = Heatmap::new(bins, 35.0);
        for &(m, p) in &points {
            h.record(m, p);
        }
        prop_assert_eq!(h.total(), points.len() as u64);
        let cells: u64 = (0..bins)
            .flat_map(|x| (0..bins).map(move |y| (x, y)))
            .map(|(x, y)| h.count(x, y))
            .sum();
        prop_assert_eq!(cells, points.len() as u64);
    }

    /// Perfect predictions always sit on the diagonal.
    #[test]
    fn heatmap_diagonal_for_perfect_predictions(
        points in proptest::collection::vec(0.0..35.0f64, 1..50),
    ) {
        let mut h = Heatmap::new(35, 35.0);
        for &v in &points {
            h.record(v, v);
        }
        prop_assert_eq!(h.diagonal_fraction(0), 1.0);
        prop_assert_eq!(h.over_estimation_bias(), 0.0);
    }
}
