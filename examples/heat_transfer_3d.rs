//! 3D heat transfer with quadratic tetrahedra: compares the traditional implicit CPU
//! dual operator against the paper's explicit GPU-assembled operator and estimates the
//! amortization point (the iteration count where the GPU approach starts to win).
//!
//! Run with `cargo run --release --example heat_transfer_3d`.

use feti_core::{build_dual_operator, DualOperatorApproach, PcpgOptions, TotalFetiSolver};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};

fn main() {
    let spec = DecompositionSpec {
        dim: Dim::Three,
        physics: Physics::HeatTransfer,
        order: ElementOrder::Quadratic,
        subdomains_per_side: 2,
        elements_per_subdomain_side: 3,
        subdomains_per_cluster: 8,
    };
    let problem = DecomposedProblem::build(&spec);
    println!(
        "3D heat transfer: {} subdomains x {} DOFs (quadratic tetrahedra), {} multipliers",
        problem.subdomains.len(),
        spec.dofs_per_subdomain(),
        problem.num_lambdas
    );

    // Measure preprocessing + one application for both approaches.
    let mut report = Vec::new();
    let approaches =
        [DualOperatorApproach::ImplicitCholmod, DualOperatorApproach::ExplicitGpuLegacy];
    for approach in approaches {
        let mut op = build_dual_operator(approach, &problem, None).unwrap();
        let prep = op.preprocess().unwrap();
        let p = vec![1.0; problem.num_lambdas];
        let mut q = vec![0.0; problem.num_lambdas];
        let apply = op.apply(&p, &mut q);
        println!(
            "{:<12} preprocessing {:8.3} ms, application {:8.4} ms (per whole cluster)",
            approach.label(),
            prep.total_seconds * 1e3,
            apply.total_seconds * 1e3
        );
        report.push((approach, prep.total_seconds, apply.total_seconds));
    }
    let (_, prep_impl, apply_impl) = report[0];
    let (_, prep_expl, apply_expl) = report[1];
    if apply_expl < apply_impl {
        let amortization = ((prep_expl - prep_impl) / (apply_impl - apply_expl)).ceil().max(0.0);
        println!(
            "amortization point: the explicit GPU approach wins after ~{amortization:.0} PCPG iterations"
        );
    }

    // Solve the actual system with the explicit GPU operator.
    let mut solver = TotalFetiSolver::new(
        &problem,
        DualOperatorApproach::ExplicitGpuLegacy,
        None,
        PcpgOptions { max_iterations: 1000, tolerance: 1e-8, use_preconditioner: true },
    )
    .unwrap();
    let solution = solver.solve().unwrap();
    println!(
        "PCPG: {} iterations, residual {:.2e}, max temperature {:.4}",
        solution.iterations,
        solution.final_residual,
        solution.global_solution.iter().cloned().fold(f64::MIN, f64::max)
    );
}
