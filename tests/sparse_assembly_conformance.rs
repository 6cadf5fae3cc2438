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
//!
//! Both families compute their `F̃ᵢ` through the one host assembly body while their
//! device programs are walked for memory and prices, so the suite also holds that body
//! to the programs: the `F̃ᵢ` of all four device-assembled approaches are pinned, under
//! every Table-I combination, to `expl cholmod`'s hashes recorded while the programs
//! were still executed kernel by kernel, and the SYRK-path programs are compared with
//! the literal execution kept in `common::device_reference`.
//! CI runs this suite under both `FETI_THREADS=1` and `FETI_THREADS=4`.

mod common;

use common::device_reference::literal_local_operators;
use common::problems;
use feti_core::dualop::{ApproachOperator, SubdomainBlock};
use feti_core::program::auto_params;
use feti_core::{
    DualOperator, DualOperatorApproach, ExplicitAssemblyParams, FactorStorage, Path, PcpgOptions,
    ScatterGather, TotalFetiSolver,
};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_solver::SolverOptions;
use feti_sparse::MemoryOrder;

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

/// The four approaches whose `F̃ᵢ` a device program assembles.
const DEVICE_ASSEMBLED: [DualOperatorApproach; 4] = [
    DualOperatorApproach::ExplicitGpuLegacy,
    DualOperatorApproach::ExplicitGpuModern,
    DualOperatorApproach::ExplicitSparseGpuLegacy,
    DualOperatorApproach::ExplicitSparseGpuModern,
];

/// Every assembled `F̃ᵢ` of `problem` under `approach` × `params`, row-major.
fn local_operators(
    approach: DualOperatorApproach,
    problem: &DecomposedProblem,
    params: ExplicitAssemblyParams,
) -> Vec<Vec<u64>> {
    let blocks = SubdomainBlock::from_problem(problem);
    let opts = SolverOptions::default();
    let mut op =
        ApproachOperator::new(approach, blocks, problem.num_lambdas, params, opts).unwrap();
    op.preprocess().unwrap();
    (0..problem.subdomains.len())
        .map(|i| {
            let f = op.local_operator(i).expect("F̃ᵢ assembled");
            assert_eq!(f.order(), MemoryOrder::RowMajor);
            f.as_slice().iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

/// FNV-1a over the bits of every `F̃ᵢ`, subdomains in index order.
fn fnv1a(operators: &[Vec<u64>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in operators.iter().flatten().flat_map(|bits| bits.to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a hashes of `expl cholmod`'s `F̃ᵢ` on [`common::pinned_families`], recorded on
/// the commit before the device-assembled approaches moved onto the host assembly body
/// (when `run_assembly` still executed every kernel of the program literally), where
/// they were also the SYRK path's.
const PINNED_HASHES: [u64; 3] =
    [0x4cc2_532f_d321_8448, 0x43c4_617b_6365_d6b9, 0xc162_fa12_80c6_8f0a];

/// Whatever kernels a device program names, its `F̃ᵢ` is `expl cholmod`'s: under every
/// Table-I combination with device-side scatter/gather (64 of the 128; the other
/// parameter is read by no assembly program), every device-assembled approach — the
/// TRSM path of `expl legacy/modern` included — assembles, bit for bit, the operator
/// whose hash is pinned.
#[test]
fn device_assembled_local_operators_are_pinned_to_the_bit() {
    let check = |name: &str, spec: &DecompositionSpec, hash: u64| {
        let problem = DecomposedProblem::build(spec);
        let cholmod =
            local_operators(DualOperatorApproach::ExplicitCholmod, &problem, Default::default());
        assert_eq!(fnv1a(&cholmod), hash, "{name} expl cholmod");
        for approach in DEVICE_ASSEMBLED {
            for params in ExplicitAssemblyParams::all_combinations() {
                if params.scatter_gather == ScatterGather::Gpu {
                    let got = local_operators(approach, &problem, params);
                    assert!(got == cholmod, "{name} {approach:?} {params:?}: not expl cholmod's");
                }
            }
        }
    };
    // One thread per family: the sweep is 3 × 4 × 64 preprocessings.
    std::thread::scope(|scope| {
        for ((name, spec), hash) in common::pinned_families().into_iter().zip(PINNED_HASHES) {
            scope.spawn(move || check(name, &spec, hash));
        }
    });
}

/// The cross-kernel contract: what production computes through the one host body is,
/// bit for bit, what the literal op-by-op execution of the same program computes with
/// the kernels the ops name ([`common::device_reference`]) — on the Table-II
/// auto-configuration of the four device-assembled approaches and on every distinct
/// SYRK-path program of `expl legacy/modern` (forward storage × forward order × RHS
/// order), so every forward kernel a program can name is checked.
#[test]
fn device_assembled_local_operators_equal_the_literal_execution_of_their_program() {
    use DualOperatorApproach as A;
    let syrk_path =
        |forward_factor_storage, forward_factor_order, rhs_order| ExplicitAssemblyParams {
            path: Path::Syrk,
            forward_factor_storage,
            forward_factor_order,
            rhs_order,
            ..Default::default()
        };
    let (storages, orders) = (
        [FactorStorage::Sparse, FactorStorage::Dense],
        [MemoryOrder::RowMajor, MemoryOrder::ColMajor],
    );
    for (name, spec) in common::pinned_families() {
        let problem = DecomposedProblem::build(&spec);
        let mut cases: Vec<_> = DEVICE_ASSEMBLED
            .into_iter()
            .map(|approach| (approach, auto_params(approach, &problem)))
            .collect();
        for approach in [A::ExplicitGpuLegacy, A::ExplicitGpuModern] {
            for storage in storages {
                for factor_order in orders {
                    for rhs_order in orders {
                        cases.push((approach, syrk_path(storage, factor_order, rhs_order)));
                    }
                }
            }
        }
        for (approach, params) in cases {
            let production = local_operators(approach, &problem, params);
            let literal = literal_local_operators(approach, &problem, params);
            for (i, (got, want)) in production.iter().zip(&literal).enumerate() {
                assert_eq!(want.order(), MemoryOrder::RowMajor);
                let want: Vec<u64> = want.as_slice().iter().map(|v| v.to_bits()).collect();
                assert!(*got == want, "{name} {approach:?} {params:?}: F̃_{i}");
            }
        }
    }
}
