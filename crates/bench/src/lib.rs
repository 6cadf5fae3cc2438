//! Shared harness for the benchmark package, the tests and the examples of the FETI
//! dual-operator reproduction: the decomposed problems the paper's sweeps run on
//! ([`build_problem`]), one measured run of an approach ([`measure_approach`]), and the
//! dependency-free JSON writer/parser and Chrome trace exporter the machine-readable
//! artifacts go through ([`json`], [`chrome`]).
//!
//! Timing semantics: CPU work is measured with wall-clock timers, GPU work is the
//! simulated device's cost model, and both are combined by the scheduler in
//! `feti-core::schedule` exactly as described in `DESIGN.md`.  Per-subdomain values are
//! phase totals divided by the number of subdomains, matching the "time per subdomain"
//! axes of the paper's figures.  The paper's figure and table findings themselves are
//! asserted on the cost model alone, in the repository's `tests/amortization.rs`.

#![warn(missing_docs)]

pub mod chrome;
pub mod json;

use feti_core::{build_dual_operator, DualOperatorApproach, ExplicitAssemblyParams, TimeBreakdown};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};

/// Builds a decomposed benchmark problem.
#[must_use]
pub fn build_problem(
    dim: Dim,
    physics: Physics,
    order: ElementOrder,
    elements_per_subdomain_side: usize,
) -> DecomposedProblem {
    let subdomains_per_side = match dim {
        Dim::Two => 2,
        Dim::Three => 2,
    };
    let spec = DecompositionSpec {
        dim,
        physics,
        order,
        subdomains_per_side,
        elements_per_subdomain_side,
        subdomains_per_cluster: subdomains_per_side.pow(dim.as_usize() as u32),
    };
    DecomposedProblem::build(&spec)
}

/// One measurement of a dual-operator approach on one problem.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// The approach measured.
    pub approach: DualOperatorApproach,
    /// Degrees of freedom per subdomain.
    pub dofs_per_subdomain: usize,
    /// Number of subdomains in the problem.
    pub num_subdomains: usize,
    /// FETI preprocessing (factorization and, for explicit approaches, assembly).
    pub preprocessing: TimeBreakdown,
    /// One application of the dual operator: the median of the applications timed.
    pub apply: TimeBreakdown,
}

impl Measurement {
    /// Total dual-operator time per subdomain (preprocessing + `iterations`
    /// applications) in milliseconds — the quantity plotted in Fig. 6.
    #[must_use]
    pub fn total_ms_per_subdomain(&self, iterations: usize) -> f64 {
        let seconds =
            self.preprocessing.total_seconds + iterations as f64 * self.apply.total_seconds;
        seconds * 1e3 / self.num_subdomains as f64
    }
}

/// Applications timed per measurement; [`Measurement::apply`] is their median.
const APPLIES: usize = 31;

/// Measures one approach on one problem: preprocessing once, then the median of 31
/// applications of the same operator (by total time), so that a gate multiplying the
/// apply by an iteration count does not multiply the noise of a single µs-scale run.
///
/// # Panics
/// Panics if the approach cannot be constructed or preprocessed (benchmark problems are
/// sized to fit the simulated device).
#[must_use]
pub fn measure_approach(
    problem: &DecomposedProblem,
    approach: DualOperatorApproach,
    params: Option<ExplicitAssemblyParams>,
) -> Measurement {
    let mut op = build_dual_operator(approach, problem, params).expect("operator construction");
    let preprocessing = op.preprocess().expect("preprocessing");
    let nl = problem.num_lambdas;
    let p: Vec<f64> = (0..nl).map(|i| ((i % 17) as f64) * 0.1 - 0.8).collect();
    let mut q = vec![0.0; nl];
    let mut applies: Vec<TimeBreakdown> = (0..APPLIES).map(|_| op.apply(&p, &mut q)).collect();
    applies.sort_by(|a, b| a.total_seconds.total_cmp(&b.total_seconds));
    let apply = applies[APPLIES / 2];
    Measurement {
        approach,
        dofs_per_subdomain: problem.spec.dofs_per_subdomain(),
        num_subdomains: problem.subdomains.len(),
        preprocessing,
        apply,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_totals_accumulate_iterations() {
        let problem = build_problem(Dim::Two, Physics::HeatTransfer, ElementOrder::Linear, 3);
        let m = measure_approach(&problem, DualOperatorApproach::ImplicitCholmod, None);
        let t1 = m.total_ms_per_subdomain(1);
        let t100 = m.total_ms_per_subdomain(100);
        assert!(t100 > t1);
        assert!(m.preprocessing.total_seconds >= 0.0 && m.apply.total_seconds >= 0.0);
    }
}
