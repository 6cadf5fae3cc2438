//! 2D linear elasticity (plane strain) solved with Total FETI and the hybrid dual
//! operator (CPU assembly through the Schur complement, GPU application) — the
//! configuration the paper's earlier acceleration attempts used.
//!
//! Run with `cargo run --release --example elasticity_2d`.

use feti_core::{DualOperatorApproach, PcpgOptions, TotalFetiSolver};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};

fn main() {
    let spec = DecompositionSpec {
        dim: Dim::Two,
        physics: Physics::LinearElasticity,
        order: ElementOrder::Linear,
        subdomains_per_side: 3,
        elements_per_subdomain_side: 5,
        subdomains_per_cluster: 9,
    };
    let problem = DecomposedProblem::build(&spec);
    println!(
        "2D elasticity: {} subdomains x {} DOFs, {} multipliers (clamped on x = 0, gravity load)",
        problem.subdomains.len(),
        spec.dofs_per_subdomain(),
        problem.num_lambdas
    );

    let mut solver = TotalFetiSolver::new(
        &problem,
        DualOperatorApproach::ExplicitHybrid,
        None,
        PcpgOptions { max_iterations: 2000, tolerance: 1e-9, use_preconditioner: true },
    )
    .unwrap();
    let solution = solver.solve().unwrap();

    // Extract the vertical displacement field and report the sag of the free end.
    let mut min_uy = f64::MAX;
    let mut tip_uy = 0.0;
    let mut tip_x = f64::MIN;
    for sd in &problem.subdomains {
        let u = &solution.subdomain_solutions[sd.index];
        for (node, coords) in sd.mesh.coords.iter().enumerate() {
            let uy = u[node * 2 + 1];
            min_uy = min_uy.min(uy);
            if coords[0] > tip_x {
                tip_x = coords[0];
                tip_uy = uy;
            }
        }
    }
    println!("PCPG: {} iterations, residual {:.2e}", solution.iterations, solution.final_residual);
    println!("largest downward displacement {min_uy:.4}, displacement at the free end {tip_uy:.4}");
    println!(
        "interface jump across subdomains: {:.2e}",
        problem.interface_jump(&solution.subdomain_solutions)
    );
    assert!(min_uy < 0.0, "a gravity load must push the clamped plate downwards");
}
