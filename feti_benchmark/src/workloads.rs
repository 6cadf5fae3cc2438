//! The four workloads.  Each is a set of decompositions plus how the dual operator
//! is chosen; `README.md` records why each exists.

use feti_core::{
    build_dual_operator_with_options, DualOperator, DualOperatorApproach, ExplicitAssemblyParams,
    PcpgOptions, Planner, TotalFetiSolver,
};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_gpu::GpuSpec;
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_solver::{FactorizationKind, SolverOptions};
use std::sync::Arc;

/// Amortization horizon handed to the planner: `ServiceConfig::default()`'s
/// `default_expected_iterations`, so the direct passes over the service pool resolve
/// to the same configurations the service does.
pub const PLANNER_ITERATIONS: usize = 200;

pub struct Workload {
    pub name: &'static str,
    /// One decomposition for the direct workloads, the geometry pool for the service.
    pub specs: Vec<DecompositionSpec>,
    /// `None`: the planner chooses per geometry, as `JobSpec::new` does.
    pub approach: Option<DualOperatorApproach>,
    /// Whether `setup_s`, `solve_s` and `iterate_s` are taken through `FetiService`.
    pub service: bool,
}

fn spec(
    dim: Dim,
    physics: Physics,
    order: ElementOrder,
    side: usize,
    eps: usize,
) -> DecompositionSpec {
    DecompositionSpec {
        dim,
        physics,
        order,
        subdomains_per_side: side,
        elements_per_subdomain_side: eps,
        subdomains_per_cluster: side.pow(dim.as_usize() as u32),
    }
}

pub fn all() -> Vec<Workload> {
    use DualOperatorApproach::{ExplicitCholmod, ExplicitGpuModern, ImplicitCholmod};
    let heat3d = spec(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2, 6);
    let heat2d = |eps| spec(Dim::Two, Physics::HeatTransfer, ElementOrder::Linear, 2, eps);
    vec![
        Workload {
            name: "heat3d_implicit",
            specs: vec![heat3d],
            approach: Some(ImplicitCholmod),
            service: false,
        },
        Workload {
            name: "heat3d_explicit",
            specs: vec![heat3d],
            approach: Some(ExplicitCholmod),
            service: false,
        },
        Workload {
            name: "elast2d_gpu_many",
            specs: vec![spec(Dim::Two, Physics::LinearElasticity, ElementOrder::Linear, 8, 24)],
            approach: Some(ExplicitGpuModern),
            service: false,
        },
        Workload {
            name: "service_mixed",
            // In Zipf rank order: the most requested geometry first.
            specs: vec![
                heat2d(8),
                heat2d(12),
                heat2d(16),
                spec(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2, 2),
                spec(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2, 3),
                spec(Dim::Two, Physics::LinearElasticity, ElementOrder::Linear, 2, 8),
            ],
            approach: None,
            service: true,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// A fully resolved operator configuration for one problem.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub approach: DualOperatorApproach,
    /// `None` = the Table-II auto-configuration (what `TotalFetiSolver::new` uses).
    pub params: Option<ExplicitAssemblyParams>,
    pub factorization: FactorizationKind,
}

impl Config {
    /// Pinned approach, or the planner's `plan_auto` winner exactly as
    /// `FetiService::submit` resolves a `JobSpec::new` job.
    pub fn resolve(approach: Option<DualOperatorApproach>, problem: &DecomposedProblem) -> Self {
        match approach {
            Some(approach) => {
                Config { approach, params: None, factorization: FactorizationKind::default_kind() }
            }
            None => {
                let plan =
                    Planner::new(problem, GpuSpec::a100_40gb()).plan_auto(PLANNER_ITERATIONS);
                let best = plan.best();
                Config {
                    approach: best.approach,
                    params: Some(best.params),
                    factorization: best.factorization,
                }
            }
        }
    }

    fn solver_options(&self) -> SolverOptions {
        SolverOptions { factorization: self.factorization, ..SolverOptions::default() }
    }

    /// A constructed, un-preprocessed solver (symbolic analysis, recovery factors,
    /// coarse problem) — the same constructor a cold service job runs.
    pub fn solver(&self, problem: &Arc<DecomposedProblem>) -> feti_core::Result<TotalFetiSolver> {
        TotalFetiSolver::new_with_solver_options(
            Arc::clone(problem),
            self.approach,
            self.params,
            self.solver_options(),
            PcpgOptions::default(),
        )
    }

    /// The bare dual operator, symbolic phase only.
    pub fn operator(
        &self,
        problem: &DecomposedProblem,
    ) -> feti_core::Result<Box<dyn DualOperator>> {
        build_dual_operator_with_options(self.approach, problem, self.params, self.solver_options())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_core::PlanCacheKey;
    use std::collections::BTreeSet;

    #[test]
    fn heat3d_pair_shares_one_paper_scale_problem() {
        let w = all();
        assert_eq!(w[0].specs[0].dofs_per_subdomain(), 2197);
        assert_eq!(w[0].specs[0].num_subdomains(), 8);
        assert_eq!(format!("{:?}", w[0].specs), format!("{:?}", w[1].specs));
        assert_eq!(w[2].specs[0].dofs_per_subdomain(), 1250);
        assert_eq!(w[2].specs[0].num_subdomains(), 64);
    }

    #[test]
    fn service_pool_has_six_distinct_structure_fingerprints() {
        let pool = by_name("service_mixed").unwrap();
        let prints: BTreeSet<u64> = pool
            .specs
            .iter()
            .map(|s| PlanCacheKey::structure_fingerprint(&DecomposedProblem::build(s)))
            .collect();
        assert_eq!(prints.len(), 6);
    }
}
