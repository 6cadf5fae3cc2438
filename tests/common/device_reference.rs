//! The literal interpreter of an explicit assembly program — the reference the
//! device-assembled approaches are compared against.
//!
//! Production walks a subdomain's device program for its allocations and prices and
//! computes `F̃ᵢ` through the one host assembly body; this interpreter instead executes
//! every op with the host twin of the kernel the op names, on operands stored as the
//! Table-I parameters say: `B̃ᵢ` is permuted, transposed and densified, the factor is
//! densified or converted to CSR, the forward solve is a dense, sparse or sparse-RHS
//! TRSM.  That the two agree to the bit is the cross-kernel contract of the
//! substitution rule (DESIGN.md): the cheap host body buys the program's bits.

use feti_core::program::{ApproachProgram, SubdomainShape};
use feti_core::{DualOperatorApproach, ExplicitAssemblyParams};
use feti_decompose::DecomposedProblem;
use feti_gpu::{DeviceOp, GpuSpec, PricedOp};
use feti_solver::cholmod::CholmodLike;
use feti_solver::SolverOptions;
use feti_sparse::{
    blas, ops, CscMatrix, CsrMatrix, DenseMatrix, DiagKind, MemoryOrder, Permutation, Transpose,
    Triangle,
};

/// `F̃ᵢ` of every subdomain of `problem`, row-major, as the literal execution of the
/// assembly program of `approach` × `params`.
pub fn literal_local_operators(
    approach: DualOperatorApproach,
    problem: &DecomposedProblem,
    params: ExplicitAssemblyParams,
) -> Vec<DenseMatrix> {
    let factors: Vec<(CscMatrix, Permutation)> = problem
        .subdomains
        .iter()
        .map(|sd| {
            let symbolic = CholmodLike::analyze(&sd.k_reg, SolverOptions::default());
            symbolic.factorize(&sd.k_reg).expect("K_reg is SPD").extract_factor()
        })
        .collect();
    let shapes = problem
        .subdomains
        .iter()
        .zip(&factors)
        .map(|(sd, (l, _))| SubdomainShape::new(&sd.gluing, l.nnz()))
        .collect();
    let spec = GpuSpec::a100_40gb();
    let program =
        ApproachProgram::new(&spec, approach, params, problem.num_lambdas, shapes).preprocess();
    problem
        .subdomains
        .iter()
        .zip(&factors)
        .enumerate()
        .map(|(i, (sd, (l, perm)))| interpret(program.subdomain(i), &params, &sd.gluing, l, perm))
        .collect()
}

/// Executes one subdomain's program op by op.  The ops carry their own roles: the
/// first densification produces the right-hand side `P B̃ᵀ`, any later one the factor
/// of the solve that follows it; the first triangular solve is the forward one, a
/// second the backward one.
fn interpret(
    program: &[PricedOp],
    params: &ExplicitAssemblyParams,
    b: &CsrMatrix,
    l_csc: &CscMatrix,
    perm: &Permutation,
) -> DenseMatrix {
    let (lower, upper, nonunit) = (Triangle::Lower, Triangle::Upper, DiagKind::NonUnit);
    let bp = perm.permute_cols(b);
    let l_csr = l_csc.to_csr();
    let mut x = DenseMatrix::zeros(0, 0, params.rhs_order);
    let mut l_dense = DenseMatrix::zeros(0, 0, params.forward_factor_order);
    let mut solves = 0;
    let mut f = DenseMatrix::zeros(b.nrows(), b.nrows(), MemoryOrder::RowMajor);
    for step in program {
        let (trans, factor_order) = match solves {
            0 => (Transpose::No, params.forward_factor_order),
            _ => (Transpose::Yes, params.backward_factor_order),
        };
        match step.op {
            DeviceOp::Transfer { .. } => {}
            DeviceOp::SparseToDense { .. } if x.is_empty() => {
                x = bp.transposed().to_dense(params.rhs_order);
            }
            DeviceOp::SparseToDense { .. } => l_dense = l_csr.to_dense(factor_order),
            DeviceOp::DenseTrsm { .. } => {
                solves += 1;
                blas::trsm(lower, trans, nonunit, 1.0, &l_dense, &mut x).unwrap();
            }
            DeviceOp::SparseTrsm { .. } => {
                solves += 1;
                match factor_order {
                    MemoryOrder::RowMajor => {
                        ops::sptrsm_csr(lower, trans, nonunit, 1.0, &l_csr, &mut x)
                    }
                    MemoryOrder::ColMajor => {
                        ops::sptrsm_csc(lower, trans, nonunit, 1.0, l_csc, &mut x)
                    }
                }
                .unwrap();
            }
            DeviceOp::SparseRhsTrsm { .. } => {
                solves += 1;
                blas::sparse_rhs_trsm(lower, trans, nonunit, 1.0, &l_dense, &mut x).unwrap();
            }
            DeviceOp::Syrk { .. } => {
                blas::syrk(upper, Transpose::Yes, 1.0, &x, 0.0, &mut f);
                f.symmetrize_from(upper);
            }
            DeviceOp::BoundarySyrk { .. } => {
                blas::boundary_syrk(upper, Transpose::Yes, 1.0, &x, 0.0, &mut f);
                f.symmetrize_from(upper);
            }
            DeviceOp::Spmm { .. } => {
                ops::spmm_csr_dense(1.0, &bp, Transpose::No, &x, 0.0, &mut f);
            }
            op => unreachable!("{} is not an assembly op", op.name()),
        }
    }
    f
}
