//! Sparse-assembly conformance suite: the sparsity-aware explicit family
//! (`expl sparse legacy/modern`, the boundary-restricted assembly of
//! arXiv 2509.21037) against the dense explicit GPU family it specialises.
//!
//! The sparse-RHS kernels skip only work that provably touches exact zeros, so the
//! contract is the strongest one available: with the assembly parameters pinned to
//! the configuration both families share (SYRK path over a dense forward factor),
//! the assembled local operators `F̃ᵢ`, the operator action `F·p`, the PCPG
//! solutions and the iteration counts must be **bit-for-bit** identical — not merely
//! close in norm — for heat transfer in 2D and 3D and linear elasticity in 2D.
//! CI runs this suite under both `FETI_THREADS=1` and `FETI_THREADS=4`.

mod common;

use common::problems;
use feti_core::dualop::{ApproachOperator, SubdomainBlock};
use feti_core::{
    DualOperator, DualOperatorApproach, ExplicitAssemblyParams, FactorStorage, Path, PcpgOptions,
    TotalFetiSolver,
};
use feti_decompose::DecomposedProblem;
use feti_solver::SolverOptions;

/// The assembly configuration the sparse family always executes (its boundary
/// structure lives in the right-hand side, so only the forward solve changes);
/// pinning the dense family to the same configuration makes the comparison exact.
fn pinned_params() -> ExplicitAssemblyParams {
    ExplicitAssemblyParams {
        path: Path::Syrk,
        forward_factor_storage: FactorStorage::Dense,
        ..Default::default()
    }
}

/// Each sparse-family member with the dense explicit approach it must reproduce.
const PAIRS: [(DualOperatorApproach, DualOperatorApproach); 2] = [
    (DualOperatorApproach::ExplicitSparseGpuLegacy, DualOperatorApproach::ExplicitGpuLegacy),
    (DualOperatorApproach::ExplicitSparseGpuModern, DualOperatorApproach::ExplicitGpuModern),
];

fn assert_bits_eq(
    name: &str,
    pair: (DualOperatorApproach, DualOperatorApproach),
    what: &str,
    a: &[f64],
    b: &[f64],
) {
    assert_eq!(a.len(), b.len(), "{name} {pair:?}: {what} length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{name} {pair:?}: {what}[{i}] differs between sparse and dense assembly ({x:e} vs {y:e})"
        );
    }
}

fn built_operator(approach: DualOperatorApproach, problem: &DecomposedProblem) -> ApproachOperator {
    let mut op = ApproachOperator::new(
        approach,
        SubdomainBlock::from_problem(problem),
        problem.num_lambdas,
        pinned_params(),
        SolverOptions::default(),
    )
    .unwrap();
    op.preprocess().unwrap();
    op
}

/// Every assembled local operator `F̃ᵢ` must be bit-for-bit identical between the
/// boundary-restricted and the dense assembly path.
#[test]
fn assembled_local_operators_are_bit_identical() {
    for (name, spec) in problems() {
        let problem = DecomposedProblem::build(&spec);
        for pair in PAIRS {
            let s = built_operator(pair.0, &problem);
            let d = built_operator(pair.1, &problem);
            for i in 0..problem.subdomains.len() {
                let fs = s.local_operator(i).expect("sparse F̃ᵢ assembled");
                let fd = d.local_operator(i).expect("dense F̃ᵢ assembled");
                assert_eq!(fs.nrows(), fd.nrows(), "{name} {pair:?}: F̃_{i} shape");
                assert_eq!(fs.ncols(), fd.ncols(), "{name} {pair:?}: F̃_{i} shape");
                for r in 0..fs.nrows() {
                    for c in 0..fs.ncols() {
                        assert_eq!(
                            fs.get(r, c).to_bits(),
                            fd.get(r, c).to_bits(),
                            "{name} {pair:?}: F̃_{i}[{r},{c}] differs ({:e} vs {:e})",
                            fs.get(r, c),
                            fd.get(r, c)
                        );
                    }
                }
            }
        }
    }
}

/// The operator action `F·p` must be bit-for-bit identical between the families.
#[test]
fn operator_action_is_bit_identical() {
    for (name, spec) in problems() {
        let problem = DecomposedProblem::build(&spec);
        let nl = problem.num_lambdas;
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.43).sin() + 0.2).collect();
        for pair in PAIRS {
            let apply = |approach| {
                let mut op = built_operator(approach, &problem);
                let mut q = vec![0.0; nl];
                op.apply(&p, &mut q);
                q
            };
            let qs = apply(pair.0);
            let qd = apply(pair.1);
            assert_bits_eq(name, pair, "F·p", &qs, &qd);
        }
    }
}

/// The PCPG solution — multipliers, primal solution, residual and the iteration
/// count — must be bit-for-bit identical between the families.
#[test]
fn solutions_and_iteration_counts_are_bit_identical() {
    for (name, spec) in problems() {
        // One shared handle for the whole pair sweep: solver construction clones the
        // Arc, not the decomposed problem.
        let problem = std::sync::Arc::new(DecomposedProblem::build(&spec));
        for pair in PAIRS {
            let solve = |approach| {
                let mut solver = TotalFetiSolver::new(
                    std::sync::Arc::clone(&problem),
                    approach,
                    Some(pinned_params()),
                    PcpgOptions::default(),
                )
                .unwrap();
                solver.solve().unwrap()
            };
            let ss = solve(pair.0);
            let sd = solve(pair.1);
            assert_eq!(
                ss.iterations, sd.iterations,
                "{name} {pair:?}: iteration counts must match"
            );
            assert_bits_eq(name, pair, "lambda", &ss.lambda, &sd.lambda);
            assert_bits_eq(name, pair, "alpha", &ss.alpha, &sd.alpha);
            assert_bits_eq(name, pair, "global solution", &ss.global_solution, &sd.global_solution);
            assert_eq!(
                ss.final_residual.to_bits(),
                sd.final_residual.to_bits(),
                "{name} {pair:?}: final residual"
            );
        }
    }
}

/// The modelled GPU time of the sparse family never exceeds the dense family's on
/// the same problem: skipping provably-zero work can only remove modelled seconds.
#[test]
fn sparse_assembly_never_costs_more_gpu_seconds() {
    for (name, spec) in problems() {
        let problem = DecomposedProblem::build(&spec);
        for pair in PAIRS {
            let gpu_seconds = |approach| {
                let mut op = ApproachOperator::new(
                    approach,
                    SubdomainBlock::from_problem(&problem),
                    problem.num_lambdas,
                    pinned_params(),
                    SolverOptions::default(),
                )
                .unwrap();
                op.preprocess().unwrap().gpu_seconds
            };
            let s = gpu_seconds(pair.0);
            let d = gpu_seconds(pair.1);
            assert!(
                s <= d + 1e-15,
                "{name} {pair:?}: sparse preprocessing modelled {s:.9}s exceeds dense {d:.9}s"
            );
        }
    }
}
