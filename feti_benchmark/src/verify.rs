//! Verification built into the benchmark: every timed solve is checked from public
//! data, and the heat workloads are additionally compared with an independent global
//! FEM solve.  Tolerances were confirmed at the commit that added the benchmark and
//! are frozen: loosening one to make a change pass is a change to the benchmark.

use feti_core::{FetiSolution, LoadCase};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{assemble_subdomain, generate::generate, Physics, SubdomainSpec};
use feti_order::OrderingKind;
use feti_solver::{CholeskyFactor, SolverOptions};
use feti_sparse::{blas, ops, Transpose};
use std::collections::HashMap;

/// `PcpgOptions::default().tolerance`: the relative projected residual PCPG must reach.
pub const RESIDUAL_TOL: f64 = 1e-9;
/// Largest jump of the primal solution across any interface DOF.
pub const JUMP_TOL: f64 = 1e-6;
/// Largest entry of `B u − c` (gluing rows and Dirichlet rows alike).
pub const CONSTRAINT_TOL: f64 = 1e-6;
/// `‖Kᵢuᵢ + B̃ᵢᵀλ̃ᵢ − fᵢ‖ ≤ tol · ‖fᵢ‖` with the singular assembled `Kᵢ`.
pub const EQUILIBRIUM_TOL: f64 = 1e-6;
/// Relative agreement with the global FEM solve on the un-torn mesh.
pub const REFERENCE_TOL: f64 = 1e-6;
/// Relative agreement between two approaches on the same problem and load.
pub const CROSS_APPROACH_TOL: f64 = 1e-7;

/// `value <= tolerance`, false for a NaN: a solve that reports NaN fails every check.
fn within(value: f64, tolerance: f64) -> bool {
    value <= tolerance
}

/// Checks one solve against the saddle-point system it claims to solve:
/// convergence, continuity, `B u = c`, and per-subdomain equilibrium.
pub fn check_solution(
    problem: &DecomposedProblem,
    load: &LoadCase,
    sol: &FetiSolution,
) -> Result<(), String> {
    if !within(sol.final_residual, RESIDUAL_TOL) {
        return Err(format!("final residual {:e} > {RESIDUAL_TOL:e}", sol.final_residual));
    }
    let jump = problem.interface_jump(&sol.subdomain_solutions);
    if !within(jump, JUMP_TOL) {
        return Err(format!("interface jump {jump:e} > {JUMP_TOL:e}"));
    }
    let mut bu = vec![0.0; problem.num_lambdas];
    for (sd, u) in problem.subdomains.iter().zip(&sol.subdomain_solutions) {
        let mut local = vec![0.0; sd.gluing.nrows()];
        ops::spmv_csr(1.0, &sd.gluing, Transpose::No, u, 0.0, &mut local);
        for (l, &g) in sd.lambda_map.iter().enumerate() {
            bu[g] += local[l];
        }
    }
    let violation =
        bu.iter().zip(&problem.constraint_rhs).map(|(a, c)| (a - c).abs()).fold(0.0, f64::max);
    if !within(violation, CONSTRAINT_TOL) {
        return Err(format!("constraint violation |Bu - c| = {violation:e} > {CONSTRAINT_TOL:e}"));
    }
    for ((sd, u), f) in problem.subdomains.iter().zip(&sol.subdomain_solutions).zip(load) {
        let mut r: Vec<f64> = f.iter().map(|v| -v).collect();
        ops::spmv_csr(1.0, &sd.assembled.stiffness, Transpose::No, u, 1.0, &mut r);
        let lambda_local: Vec<f64> = sd.lambda_map.iter().map(|&g| sol.lambda[g]).collect();
        ops::spmv_csr(1.0, &sd.gluing, Transpose::Yes, &lambda_local, 1.0, &mut r);
        let (rn, fn_) = (blas::norm2(&r), blas::norm2(f));
        if !within(rn, EQUILIBRIUM_TOL * fn_) {
            return Err(format!(
                "subdomain {}: equilibrium residual {rn:e} > {EQUILIBRIUM_TOL:e} * |f| = {:e}",
                sd.index,
                EQUILIBRIUM_TOL * fn_
            ));
        }
    }
    Ok(())
}

/// The same physical problem on one un-torn global mesh, Dirichlet by penalty,
/// solved with a plain sparse Cholesky: shares no FETI code with the solve it checks.
/// Keyed by global lattice coordinate.
pub fn reference_solution(spec: &DecompositionSpec) -> HashMap<[i64; 3], f64> {
    assert_eq!(spec.physics, Physics::HeatTransfer, "the reference is scalar-only");
    let total_elements = spec.subdomains_per_side * spec.elements_per_subdomain_side;
    let mesh = generate(&SubdomainSpec {
        dim: spec.dim,
        order: spec.order,
        elements_per_side: total_elements,
        origin_elements: [0, 0, 0],
        cell_size: 1.0 / total_elements as f64,
    });
    let assembled = assemble_subdomain(&mesh, spec.physics);
    let mut k = assembled.stiffness;
    let mut f = assembled.load;
    let row_ptr = k.row_ptr().to_vec();
    let col_idx = k.col_idx().to_vec();
    let values = k.values_mut();
    for node in mesh.nodes_on_lattice_plane(0, 0) {
        for p in row_ptr[node]..row_ptr[node + 1] {
            if col_idx[p] == node {
                values[p] += 1e10;
            }
        }
        f[node] = 0.0;
    }
    // Reverse Cuthill-McKee rather than the stack's default nested dissection: half the
    // factorization time on this mesh, and one more thing the reference does not share
    // with the solve it checks.
    let options =
        SolverOptions { ordering: OrderingKind::ReverseCuthillMcKee, ..SolverOptions::default() };
    let factor =
        CholeskyFactor::new(&k, &options).expect("the penalised global stiffness matrix is SPD");
    let u = factor.solve(&f);
    mesh.lattice.iter().copied().zip(u).collect()
}

/// Compares a baseline-load FETI solution with [`reference_solution`].
pub fn check_against_reference(
    problem: &DecomposedProblem,
    sol: &FetiSolution,
    reference: &HashMap<[i64; 3], f64>,
) -> Result<(), String> {
    let (mut max_err, mut max_ref) = (0.0f64, 0.0f64);
    for (sd, u) in problem.subdomains.iter().zip(&sol.subdomain_solutions) {
        for (node, lat) in sd.mesh.lattice.iter().enumerate() {
            let r = *reference.get(lat).ok_or_else(|| format!("node {lat:?} not in reference"))?;
            max_ref = max_ref.max(r.abs());
            max_err = max_err.max((u[node] - r).abs());
        }
    }
    if !within(max_err, REFERENCE_TOL * max_ref) {
        return Err(format!(
            "deviates from the global FEM solution by {max_err:e} (max |u| = {max_ref:e})"
        ));
    }
    Ok(())
}

/// Two approaches on the same problem and load must produce the same primal solution.
pub fn check_agreement(a: &FetiSolution, b: &FetiSolution) -> Result<(), String> {
    let scale = a.global_solution.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = a
        .global_solution
        .iter()
        .zip(&b.global_solution)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max);
    if a.global_solution.len() != b.global_solution.len()
        || !within(diff, CROSS_APPROACH_TOL * scale)
    {
        return Err(format!("approaches disagree by {diff:e} (max |u| = {scale:e})"));
    }
    Ok(())
}

/// Operations attempted and failed: the `attempted` / `failed` of the result line.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    /// Counts one operation; a failure is reported on stderr and remembered.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            eprintln!("VERIFICATION FAILED: {what}: {message}");
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::baseline_load;
    use feti_core::{DualOperatorApproach, PcpgOptions, TotalFetiSolver};
    use feti_mesh::{Dim, ElementOrder};
    use std::sync::Arc;

    fn solved() -> (Arc<DecomposedProblem>, LoadCase, FetiSolution) {
        let spec = DecompositionSpec {
            dim: Dim::Three,
            physics: Physics::HeatTransfer,
            order: ElementOrder::Quadratic,
            subdomains_per_side: 2,
            elements_per_subdomain_side: 2,
            subdomains_per_cluster: 8,
        };
        let problem = Arc::new(DecomposedProblem::build(&spec));
        let load = baseline_load(&problem);
        let mut solver = TotalFetiSolver::new(
            Arc::clone(&problem),
            DualOperatorApproach::ExplicitCholmod,
            None,
            PcpgOptions::default(),
        )
        .unwrap();
        let sol = solver.solve_many(std::slice::from_ref(&load)).unwrap().pop().unwrap();
        (problem, load, sol)
    }

    #[test]
    fn a_correct_solution_passes_every_check() {
        let (problem, load, sol) = solved();
        check_solution(&problem, &load, &sol).unwrap();
        check_against_reference(&problem, &sol, &reference_solution(&problem.spec)).unwrap();
        check_agreement(&sol, &sol).unwrap();
    }

    #[test]
    fn perturbed_solutions_are_rejected() {
        let (problem, load, sol) = solved();
        let reference = reference_solution(&problem.spec);

        // One interior value nudged: equilibrium breaks, the reference disagrees.
        let mut nudged = sol.clone();
        let interior = problem.subdomains[3].num_dofs() / 2;
        nudged.subdomain_solutions[3][interior] += 1e-4;
        nudged.global_solution = problem.gather_solution(&nudged.subdomain_solutions);
        assert!(check_solution(&problem, &load, &nudged).is_err());
        assert!(check_against_reference(&problem, &nudged, &reference).is_err());
        assert!(check_agreement(&sol, &nudged).is_err());

        // A rigid shift of one floating subdomain keeps its equilibrium (constants are
        // in the kernel of K) but tears the interface.
        let mut shifted = sol.clone();
        shifted.subdomain_solutions[7].iter_mut().for_each(|v| *v += 1e-3);
        let err = check_solution(&problem, &load, &shifted).unwrap_err();
        assert!(err.contains("jump") || err.contains("constraint"), "{err}");

        // Wrong multipliers with the right primal field: equilibrium breaks.
        let mut wrong_lambda = sol.clone();
        wrong_lambda.lambda.iter_mut().for_each(|v| *v *= 1.001);
        assert!(check_solution(&problem, &load, &wrong_lambda)
            .unwrap_err()
            .contains("equilibrium"));

        // A solve that did not converge, or reports NaN, is a failure.
        let mut unconverged = sol.clone();
        unconverged.final_residual = 1e-6;
        assert!(check_solution(&problem, &load, &unconverged).is_err());
        unconverged.final_residual = f64::NAN;
        assert!(check_solution(&problem, &load, &unconverged).is_err());

        // The solution of a different load does not satisfy this load's equilibrium.
        let doubled: LoadCase = load.iter().map(|f| f.iter().map(|v| 2.0 * v).collect()).collect();
        assert!(check_solution(&problem, &doubled, &sol).is_err());
    }

    #[test]
    fn tally_counts_failures() {
        let mut tally = Tally::default();
        tally.record("ok", Ok(()));
        tally.record("bad", Err("expected by this test".into()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }
}
