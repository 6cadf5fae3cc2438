//! Quickstart: decompose a small 2D heat-transfer problem, solve it with Total FETI
//! using the GPU-assembled explicit dual operator, and print what happened.
//!
//! Run with `cargo run --release --example quickstart`.

use feti_core::{DualOperatorApproach, PcpgOptions, TotalFetiSolver};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};

fn main() {
    // 1. Describe the problem: a unit square, heat transfer, torn into 2x2 subdomains
    //    of 8x8 elements each (Total FETI: Dirichlet conditions live in B).
    let spec = DecompositionSpec {
        dim: Dim::Two,
        physics: Physics::HeatTransfer,
        order: ElementOrder::Linear,
        subdomains_per_side: 2,
        elements_per_subdomain_side: 8,
        subdomains_per_cluster: 4,
    };
    let problem = DecomposedProblem::build(&spec);
    println!(
        "decomposed the unit square into {} subdomains, {} DOFs each, {} Lagrange multipliers",
        problem.subdomains.len(),
        spec.dofs_per_subdomain(),
        problem.num_lambdas
    );

    // 2. Build the FETI solver with the paper's contribution: explicit assembly of the
    //    local dual operators on the (simulated) GPU, legacy CUDA generation.
    let mut solver = TotalFetiSolver::new(
        &problem,
        DualOperatorApproach::ExplicitGpuLegacy,
        None, // use the Table-II auto-configuration
        PcpgOptions::default(),
    )
    .expect("solver construction");

    // 3. Solve: FETI preprocessing (factorization + F̃ assembly) followed by PCPG.
    let solution = solver.solve().expect("FETI solve");
    println!(
        "PCPG converged in {} iterations (relative projected residual {:.2e})",
        solution.iterations, solution.final_residual
    );
    println!(
        "preprocessing: {:.3} ms CPU + {:.3} ms GPU (overlapped wall time {:.3} ms)",
        solution.preprocessing_time.cpu_seconds * 1e3,
        solution.preprocessing_time.gpu_seconds * 1e3,
        solution.preprocessing_time.total_seconds * 1e3
    );
    println!(
        "dual operator applications: {:.3} ms total",
        solution.dual_apply_time.total_seconds * 1e3
    );

    // 4. Look at the primal solution: temperature is zero on the Dirichlet face and
    //    rises towards the opposite side.
    let max_t = solution.global_solution.iter().cloned().fold(f64::MIN, f64::max);
    let jump = problem.interface_jump(&solution.subdomain_solutions);
    println!("maximum temperature {max_t:.4}, interface jump {jump:.2e}");
}
