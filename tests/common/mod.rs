//! Canonical conformance problems shared by the cross-approach suite
//! (`tests/conformance.rs`) and the parallel-vs-sequential suite
//! (`tests/parallel_conformance.rs`): heat transfer in 2D and 3D and linear
//! elasticity in 2D.  Keeping the specs in one place guarantees both suites always
//! test the same problems.

use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};

/// The small 2D heat-transfer conformance problem.
pub fn heat_2d() -> DecompositionSpec {
    DecompositionSpec::small_heat_2d()
}

/// The small 3D heat-transfer conformance problem (quadratic elements).
pub fn heat_3d() -> DecompositionSpec {
    DecompositionSpec {
        dim: Dim::Three,
        physics: Physics::HeatTransfer,
        order: ElementOrder::Quadratic,
        subdomains_per_side: 2,
        elements_per_subdomain_side: 2,
        subdomains_per_cluster: 8,
    }
}

/// The small 2D linear-elasticity conformance problem.
pub fn elasticity_2d() -> DecompositionSpec {
    DecompositionSpec {
        dim: Dim::Two,
        physics: Physics::LinearElasticity,
        order: ElementOrder::Linear,
        subdomains_per_side: 2,
        elements_per_subdomain_side: 3,
        subdomains_per_cluster: 4,
    }
}

/// A copy of `problem` in which `K_reg` of every subdomain in `broken` is no longer
/// positive definite: its first diagonal entry is negated.
#[allow(dead_code)]
pub fn with_non_spd_subdomains(problem: &DecomposedProblem, broken: &[usize]) -> DecomposedProblem {
    let mut problem = problem.clone();
    for &s in broken {
        let k = &mut problem.subdomains[s].k_reg;
        let diagonal = k.row_cols(0).iter().position(|&c| c == 0).expect("stored diagonal");
        k.values_mut()[diagonal] *= -1.0;
    }
    problem
}

/// All three conformance problems with their display names.  Not every suite uses
/// every helper; the module is compiled once per test binary.
#[allow(dead_code)]
pub fn problems() -> Vec<(&'static str, DecompositionSpec)> {
    vec![("heat/2D", heat_2d()), ("heat/3D", heat_3d()), ("elasticity/2D", elasticity_2d())]
}
