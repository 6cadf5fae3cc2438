//! Repeated solves of one unchanged problem — the loop of Algorithm 2 of the paper
//! without its changing values: the solver is prepared once (symbolic analyses and
//! persistent device structures at construction, numeric factorization and assembly
//! on the first solve) and every later step reuses all of it, so only the first step
//! reports preprocessing time.  A real time step would change the values of `Kᵢ` and
//! repeat the numeric preprocessing; that is not implemented yet.
//!
//! Run with `cargo run --release --example multistep_simulation`.

use feti_core::{DualOperatorApproach, PcpgOptions, TotalFetiSolver};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};

fn main() {
    let spec = DecompositionSpec {
        dim: Dim::Two,
        physics: Physics::HeatTransfer,
        order: ElementOrder::Quadratic,
        subdomains_per_side: 2,
        elements_per_subdomain_side: 4,
        subdomains_per_cluster: 4,
    };
    let problem = DecomposedProblem::build(&spec);

    // Preparation phase: symbolic factorizations + persistent device structures are
    // created once, inside the solver constructor.
    let mut solver = TotalFetiSolver::new(
        &problem,
        DualOperatorApproach::ExplicitGpuLegacy,
        None,
        PcpgOptions::default(),
    )
    .unwrap();

    let steps = 5;
    let mut total_prep = 0.0;
    let mut total_apply = 0.0;
    for step in 0..steps {
        // The first step runs FETI preprocessing (numeric factorization + assembly of
        // the explicit dual operators); every step runs the PCPG iteration.
        let solution = solver.solve().expect("step must converge");
        total_prep += solution.preprocessing_time.total_seconds;
        total_apply += solution.dual_apply_time.total_seconds;
        println!(
            "step {step}: {} PCPG iterations, residual {:.2e}, preprocessing {:.3} ms, dual applications {:.3} ms",
            solution.iterations,
            solution.final_residual,
            solution.preprocessing_time.total_seconds * 1e3,
            solution.dual_apply_time.total_seconds * 1e3
        );
    }
    println!(
        "over {steps} steps: preprocessing {:.3} ms, dual operator applications {:.3} ms",
        total_prep * 1e3,
        total_apply * 1e3
    );
}
