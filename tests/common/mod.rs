//! Canonical conformance problems shared by the cross-approach suite
//! (`tests/conformance.rs`) and the parallel-vs-sequential suite
//! (`tests/parallel_conformance.rs`): heat transfer in 2D and 3D and linear
//! elasticity in 2D.  Keeping the specs in one place guarantees both suites always
//! test the same problems.

#[allow(dead_code)]
pub mod device_reference;

use feti_core::dualop::ApproachOperator;
use feti_core::{DualOperatorApproach, ExplicitAssemblyParams, Planner};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_gpu::GpuSpec;
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_solver::SolverOptions;

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

/// The three families the device-assembled `F̃ᵢ` are pinned on, larger than the
/// conformance problems where a debug build can afford it, so that every factor has
/// fill, several supernodes and multipliers in more than one forward-solve panel:
/// elasticity 2D (3×3 subdomains of 10×10 elements), heat 2D (3×3 of 12×12) and heat
/// 3D quadratic (2×2×2 of 2×2×2).
#[allow(dead_code)]
pub fn pinned_families() -> [(&'static str, DecompositionSpec); 3] {
    let spec = |dim, physics, order, subdomains_per_side: usize, elements_per_subdomain_side| {
        let subdomains_per_cluster = subdomains_per_side.pow(if dim == Dim::Two { 2 } else { 3 });
        DecompositionSpec {
            dim,
            physics,
            order,
            subdomains_per_side,
            elements_per_subdomain_side,
            subdomains_per_cluster,
        }
    };
    [
        ("elasticity/2D", spec(Dim::Two, Physics::LinearElasticity, ElementOrder::Linear, 3, 10)),
        ("heat/2D", spec(Dim::Two, Physics::HeatTransfer, ElementOrder::Linear, 3, 12)),
        ("heat/3D", spec(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2, 2)),
    ]
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

/// The operator of `approach` with `params` on `problem`, built as the pinned doors
/// build it — from a plan of the one approach on an A100-like device — but kept as the
/// concrete [`ApproachOperator`], whose assembled `F̃ᵢ` the suites read.
#[allow(dead_code)]
pub fn planned_operator(
    approach: DualOperatorApproach,
    problem: &DecomposedProblem,
    params: ExplicitAssemblyParams,
) -> ApproachOperator {
    let plan = Planner::new(problem, GpuSpec::a100_40gb()).plan_pinned(approach);
    plan.build(problem, approach, params, SolverOptions::default()).unwrap()
}
