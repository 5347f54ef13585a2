//! Property tests for the simplex solver.
//!
//! Strategy: we cannot brute-force general LP optima, but we can check the
//! two halves of optimality separately:
//!
//! * every returned solution must be *feasible* (satisfy all constraints
//!   and non-negativity), and
//! * the returned objective must not be beaten by any feasible point we can
//!   construct independently (here: scaled unit vectors and the origin).

use pmevo_lp::{LpError, Problem, Relation};
use proptest::prelude::*;

const TOL: f64 = 1e-6;

fn relation_strategy() -> impl Strategy<Value = Relation> {
    prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)]
}

/// A random problem together with its raw constraint data for re-checking.
fn problem_strategy() -> impl Strategy<Value = Problem> {
    let coeff = -5.0..5.0f64;
    let n_vars = 1..5usize;
    n_vars.prop_flat_map(move |n| {
        let cons = (
            proptest::collection::vec((0..n, -5.0..5.0f64), 1..=n),
            relation_strategy(),
            -4.0..4.0f64,
        );
        (
            proptest::collection::vec(coeff.clone(), n),
            proptest::collection::vec(cons, 1..6),
        )
            .prop_map(move |(obj, constraints)| {
                let mut p = Problem::minimize(n);
                for (i, c) in obj.iter().enumerate() {
                    p.set_objective_coeff(i, *c);
                }
                for (terms, rel, rhs) in constraints {
                    p.add_constraint(&terms, rel, rhs);
                }
                p
            })
    })
}

fn is_feasible(p: &Problem, x: &[f64]) -> bool {
    if x.iter().any(|&v| v < -TOL) {
        return false;
    }
    p.constraints().iter().all(|c| {
        let lhs: f64 = c.terms().iter().map(|&(v, co)| co * x[v]).sum();
        match c.relation() {
            Relation::Le => lhs <= c.rhs() + TOL,
            Relation::Ge => lhs >= c.rhs() - TOL,
            Relation::Eq => (lhs - c.rhs()).abs() <= TOL,
        }
    })
}

fn objective_of(p: &Problem, x: &[f64]) -> f64 {
    p.objective().iter().zip(x).map(|(c, v)| c * v).sum()
}

proptest! {
    // Case budget: capped so the whole workspace suite stays well under
    // a minute; override downward with PROPTEST_CASES=<n> (see vendored
    // proptest). Cases are drawn from a per-test deterministic seed.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn solutions_are_feasible_and_not_dominated(p in problem_strategy()) {
        match p.solve() {
            Ok(sol) => {
                prop_assert!(is_feasible(&p, sol.values()),
                    "solver returned infeasible point {:?}", sol.values());
                prop_assert!((objective_of(&p, sol.values()) - sol.objective()).abs() < 1e-6);
                // Candidate feasible points must not beat the optimum.
                let n = p.num_vars();
                let mut candidates: Vec<Vec<f64>> = vec![vec![0.0; n]];
                for i in 0..n {
                    for scale in [0.5, 1.0, 2.0, 5.0] {
                        let mut v = vec![0.0; n];
                        v[i] = scale;
                        candidates.push(v);
                    }
                }
                for cand in candidates {
                    if is_feasible(&p, &cand) {
                        prop_assert!(objective_of(&p, &cand) >= sol.objective() - 1e-6,
                            "feasible point {cand:?} beats reported optimum");
                    }
                }
            }
            Err(LpError::Infeasible) => {
                // The origin must indeed be infeasible (it is feasible for
                // problems with only Le constraints with rhs >= 0, etc.).
                let origin = vec![0.0; p.num_vars()];
                prop_assert!(!is_feasible(&p, &origin),
                    "solver claimed infeasible but origin is feasible");
            }
            Err(LpError::Unbounded) => {
                // Nothing cheap to check; acceptable outcome.
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }
}
