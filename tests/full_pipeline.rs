//! End-to-end integration tests spanning every crate: mesh generation → assembly →
//! decomposition → sparse solvers → (simulated) GPU kernels → dual operators → PCPG,
//! verified against an independently computed global FEM solution.

use feti_core::{DualOperatorApproach, PcpgOptions, TotalFetiSolver};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{
    assemble_subdomain, generate::generate, Dim, ElementOrder, Physics, SubdomainSpec,
};
use feti_solver::{CholeskyFactor, SolverOptions};
use feti_sparse::{blas, ops, Transpose};

/// Solves the same physical problem on a single global mesh, applying the Dirichlet
/// condition by penalty, and returns (global lattice -> value) pairs for comparison.
fn reference_solution(spec: &DecompositionSpec) -> std::collections::HashMap<[i64; 3], f64> {
    assert_eq!(spec.physics, Physics::HeatTransfer, "reference is scalar-only");
    let total_elements = spec.subdomains_per_side * spec.elements_per_subdomain_side;
    let mesh = generate(&SubdomainSpec {
        dim: spec.dim,
        order: spec.order,
        elements_per_side: total_elements,
        origin_elements: [0, 0, 0],
        cell_size: 1.0 / total_elements as f64,
    });
    let assembled = assemble_subdomain(&mesh, spec.physics);
    let mut k = assembled.stiffness.clone();
    let mut f = assembled.load.clone();
    // Dirichlet on the x = 0 face by penalty.
    let penalty = 1e10;
    let dirichlet = mesh.nodes_on_lattice_plane(0, 0);
    {
        let row_ptr = k.row_ptr().to_vec();
        let col_idx = k.col_idx().to_vec();
        let values = k.values_mut();
        for &node in &dirichlet {
            for p in row_ptr[node]..row_ptr[node + 1] {
                if col_idx[p] == node {
                    values[p] += penalty;
                }
            }
            f[node] = 0.0;
        }
    }
    let factor = CholeskyFactor::new(&k, &SolverOptions::default()).unwrap();
    let u = factor.solve(&f);
    mesh.lattice.iter().enumerate().map(|(i, &lat)| (lat, u[i])).collect()
}

fn feti_solution(
    spec: &DecompositionSpec,
    approach: DualOperatorApproach,
) -> (std::sync::Arc<DecomposedProblem>, Vec<Vec<f64>>) {
    // Hand the solver a clone of the shared handle, not a deep copy of the problem.
    let problem = std::sync::Arc::new(DecomposedProblem::build(spec));
    let mut solver = TotalFetiSolver::new(
        std::sync::Arc::clone(&problem),
        approach,
        None,
        PcpgOptions { max_iterations: 2000, tolerance: 1e-10, use_preconditioner: true },
    )
    .unwrap();
    let solution = solver.solve().unwrap();
    (problem, solution.subdomain_solutions)
}

#[test]
fn feti_matches_global_fem_solution_for_every_approach() {
    let spec = DecompositionSpec {
        dim: Dim::Two,
        physics: Physics::HeatTransfer,
        order: ElementOrder::Linear,
        subdomains_per_side: 2,
        elements_per_subdomain_side: 4,
        subdomains_per_cluster: 4,
    };
    let reference = reference_solution(&spec);
    for approach in DualOperatorApproach::all() {
        let (problem, per_subdomain) = feti_solution(&spec, approach);
        let mut max_err = 0.0f64;
        let mut max_ref = 0.0f64;
        for sd in &problem.subdomains {
            for (node, lat) in sd.mesh.lattice.iter().enumerate() {
                let r = reference[lat];
                max_ref = max_ref.max(r.abs());
                max_err = max_err.max((per_subdomain[sd.index][node] - r).abs());
            }
        }
        assert!(
            max_err < 1e-4 * max_ref.max(1e-3),
            "{approach:?}: FETI deviates from the global FEM solution by {max_err}"
        );
    }
}

#[test]
fn feti_matches_global_fem_solution_in_3d() {
    let spec = DecompositionSpec {
        dim: Dim::Three,
        physics: Physics::HeatTransfer,
        order: ElementOrder::Linear,
        subdomains_per_side: 2,
        elements_per_subdomain_side: 2,
        subdomains_per_cluster: 8,
    };
    let reference = reference_solution(&spec);
    let (problem, per_subdomain) = feti_solution(&spec, DualOperatorApproach::ExplicitGpuLegacy);
    for sd in &problem.subdomains {
        for (node, lat) in sd.mesh.lattice.iter().enumerate() {
            let r = reference[lat];
            assert!(
                (per_subdomain[sd.index][node] - r).abs() < 1e-5,
                "node {lat:?}: {} vs {}",
                per_subdomain[sd.index][node],
                r
            );
        }
    }
}

#[test]
fn dual_operator_is_symmetric_positive_semidefinite() {
    // F = B K+ B^T must be symmetric PSD on the dual space: check with random probes.
    let spec = DecompositionSpec::small_heat_2d();
    let problem = DecomposedProblem::build(&spec);
    let mut op =
        feti_core::build_dual_operator(DualOperatorApproach::ExplicitGpuModern, &problem, None)
            .unwrap();
    op.preprocess().unwrap();
    let nl = problem.num_lambdas;
    let probes: Vec<Vec<f64>> = (0..4)
        .map(|s| (0..nl).map(|i| (((i * 31 + s * 17) % 13) as f64) - 6.0).collect())
        .collect();
    let mut images = Vec::new();
    for p in &probes {
        let mut q = vec![0.0; nl];
        op.apply(p, &mut q);
        assert!(blas::dot(p, &q) >= -1e-9, "F must be positive semidefinite");
        images.push(q);
    }
    // Symmetry: p_i^T F p_j == p_j^T F p_i.
    for i in 0..probes.len() {
        for j in 0..probes.len() {
            let a = blas::dot(&probes[i], &images[j]);
            let b = blas::dot(&probes[j], &images[i]);
            assert!((a - b).abs() < 1e-6 * a.abs().max(1.0), "F must be symmetric");
        }
    }
}

#[test]
fn constraint_residual_vanishes_at_the_solution() {
    // B u = c must hold at the converged solution (gluing rows equal across
    // subdomains, Dirichlet rows equal to the prescribed value).
    let spec = DecompositionSpec {
        dim: Dim::Two,
        physics: Physics::LinearElasticity,
        order: ElementOrder::Linear,
        subdomains_per_side: 2,
        elements_per_subdomain_side: 3,
        subdomains_per_cluster: 4,
    };
    let problem = DecomposedProblem::build(&spec);
    let mut solver = TotalFetiSolver::new(
        &problem,
        DualOperatorApproach::ExplicitCholmod,
        None,
        PcpgOptions { max_iterations: 3000, tolerance: 1e-11, use_preconditioner: true },
    )
    .unwrap();
    let solution = solver.solve().unwrap();
    let mut bu = vec![0.0; problem.num_lambdas];
    for sd in &problem.subdomains {
        let mut local = vec![0.0; sd.gluing.nrows()];
        ops::spmv_csr(
            1.0,
            &sd.gluing,
            Transpose::No,
            &solution.subdomain_solutions[sd.index],
            0.0,
            &mut local,
        );
        for (l, &g) in sd.lambda_map.iter().enumerate() {
            bu[g] += local[l];
        }
    }
    for (lhs, rhs) in bu.iter().zip(&problem.constraint_rhs) {
        assert!((lhs - rhs).abs() < 1e-6, "constraint violated: {lhs} vs {rhs}");
    }
}
