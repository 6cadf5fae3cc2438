//! The device side of the dual operator: the kernels of `impl legacy/modern`, `expl
//! legacy/modern` (the paper's contribution), the sparsity-aware `expl sparse
//! legacy/modern` family (the sequel's boundary-restricted assembly, arXiv 2509.21037)
//! and the hybrid approach's application.
//!
//! All device work executes through `feti-gpu`: the numerics run on the host (exact
//! results), the reported times come from the device cost model, and per-stream
//! timelines model the asynchronous submission and CPU/GPU overlap of §IV-B.
//!
//! What is submitted — and what is allocated persistently — is not written here: the
//! operator interprets the [`crate::program::ApproachProgram`] of its approach, the
//! same program the planner folds.

use super::{DeviceSide, SubdomainBlock};
use crate::params::ExplicitAssemblyParams;
use feti_gpu::sparse::{self as gsparse, SparseFactor};
use feti_gpu::{blas as gblas, DeviceOp, GpuSpec, PricedOp};
use feti_sparse::{
    CscMatrix, DenseMatrix, DiagKind, MemoryOrder, Permutation, Transpose, Triangle,
};

/// Factors stored "on the device" for the implicit GPU approach.
pub(crate) struct DeviceFactor {
    pub(crate) factor: SparseFactor,
    pub(crate) perm: Permutation,
}

impl DeviceFactor {
    /// The implicit local action `q̃ = B̃ (K⁺ (B̃ᵀ p̃))` through the permuted factor,
    /// executed with the device kernels: SpMV, two sparse triangular solves, SpMV.
    /// The kernels' own cost reports are dropped — the application program already
    /// carries the (batched) costs.
    pub(crate) fn apply(
        &self,
        side: &DeviceSide,
        block: &SubdomainBlock,
        p_local: &[f64],
        q_local: &mut [f64],
    ) {
        let (spec, generation) = (side.device.spec(), side.program.generation());
        // t = B̃ᵀ p (device SpMV)
        let mut t = vec![0.0; block.num_dofs()];
        let _ = gsparse::spmv(spec, 1.0, &block.b, Transpose::Yes, p_local, 0.0, &mut t);
        // x = K⁺ t through the permuted factor: L Lᵀ (P x) = P t
        let mut z = self.perm.apply(&t);
        for trans in [Transpose::No, Transpose::Yes] {
            let (uplo, diag) = (Triangle::Lower, DiagKind::NonUnit);
            gsparse::sparse_trsv(spec, generation, uplo, trans, diag, &self.factor, &mut z)
                .expect("factor is nonsingular");
        }
        let x = self.perm.apply_inverse(&z);
        // q̃ = B̃ x (device SpMV)
        let _ = gsparse::spmv(spec, 1.0, &block.b, Transpose::No, &x, 0.0, q_local);
    }
}

/// The explicit device application shared by `expl legacy/modern`, the sparse family
/// and `expl hybrid`: `q̃ᵢ = F̃ᵢ p̃ᵢ` through the device SYMV.  A batch runs the exact
/// column-by-column SYMV (which is what the SYMM-shaped device kernel computes), so
/// only the modelled time is batched.
pub(crate) fn symv(spec: &GpuSpec, f: &DenseMatrix, p_local: &[f64], q_local: &mut [f64]) {
    let _ = gblas::symv(spec, Triangle::Upper, 1.0, f, p_local, 0.0, q_local);
}

/// Interprets one subdomain's assembly program on the simulated device and returns
/// the dense local dual operator `F̃ᵢ`.
///
/// The program is the kernel sequence of §IV-B/IV-C (or the sequel's
/// boundary-restricted variant), so the ops carry their own roles: the first
/// densification produces the right-hand side `P B̃ᵀ`, any later one the factor of the
/// solve that follows it; the first triangular solve is the forward one (`L X = …`,
/// the `forward_*` parameters), a second the backward one (`Lᵀ`, the `backward_*`
/// parameters).  Every arm runs the `feti-gpu` kernel wrapper of its op, whose
/// shape-derived cost report must equal what the program charges.
pub(crate) fn run_assembly(
    side: &DeviceSide,
    params: &ExplicitAssemblyParams,
    program: &[PricedOp],
    block: &SubdomainBlock,
    l_csc: &CscMatrix,
    perm: &Permutation,
) -> crate::Result<DenseMatrix> {
    let (device, generation) = (&side.device, side.program.generation());
    let spec = device.spec();
    let (n, nl) = (block.num_dofs(), block.num_local_lambdas());
    let (lower, upper, nonunit) = (Triangle::Lower, Triangle::Upper, DiagKind::NonUnit);
    let bp = perm.permute_cols(&block.b);
    let l_csr = l_csc.to_csr();
    // Empty until the program's densifications fill them.
    let mut x = DenseMatrix::zeros(0, 0, params.rhs_order);
    let mut l_dense = DenseMatrix::zeros(0, 0, params.forward_factor_order);
    let mut solves = 0;
    let mut f = DenseMatrix::zeros(nl, nl, MemoryOrder::RowMajor);
    // Temporary device buffers live until the subdomain's last kernel: workers race
    // them against the shared pool exactly as §IV-A describes, a request that does
    // not fit blocking until another worker's guards drop.
    let mut guards = Vec::new();
    for step in program {
        let (trans, factor_order) = match solves {
            0 => (Transpose::No, params.forward_factor_order),
            _ => (Transpose::Yes, params.backward_factor_order),
        };
        let charged = match step.op {
            // Uploads move what the host already holds: nothing to compute.
            DeviceOp::Transfer { .. } => step.cost,
            DeviceOp::SparseToDense { .. } if x.is_empty() => {
                guards.push(device.alloc_temporary(n * nl * 8)?);
                let (dense, cost) =
                    gsparse::sparse_to_dense(spec, &bp.transposed(), params.rhs_order);
                x = dense;
                cost
            }
            DeviceOp::SparseToDense { .. } => {
                guards.push(device.alloc_temporary(n * n * 8)?);
                let (dense, cost) = gsparse::sparse_to_dense(spec, &l_csr, factor_order);
                l_dense = dense;
                cost
            }
            DeviceOp::DenseTrsm { .. } => {
                solves += 1;
                gblas::trsm(spec, lower, trans, nonunit, 1.0, &l_dense, &mut x)
                    .expect("factor is nonsingular")
            }
            DeviceOp::SparseTrsm { .. } => {
                solves += 1;
                let sf = match factor_order {
                    MemoryOrder::RowMajor => SparseFactor::Csr(l_csr.clone()),
                    MemoryOrder::ColMajor => SparseFactor::Csc(l_csc.clone()),
                };
                let ws = gsparse::sparse_trsm_workspace(generation, &sf, n, nl, params.rhs_order);
                guards.push(device.alloc_temporary(ws.temporary_bytes)?);
                gsparse::sparse_trsm(spec, generation, lower, trans, nonunit, 1.0, &sf, &mut x)
                    .expect("factor is nonsingular")
            }
            DeviceOp::SparseRhsTrsm { boundary_rows: nb, .. } => {
                solves += 1;
                let (l, x) = (&l_dense, &mut x);
                gblas::sparse_rhs_trsm(spec, generation, lower, trans, nonunit, 1.0, l, x, nb)
                    .expect("factor is nonsingular")
            }
            DeviceOp::Syrk { .. } => {
                let cost = gblas::syrk(spec, upper, Transpose::Yes, 1.0, &x, 0.0, &mut f);
                f.symmetrize_from(upper);
                cost
            }
            DeviceOp::BoundarySyrk { boundary_rows: nb, .. } => {
                let t = Transpose::Yes;
                let cost =
                    gblas::boundary_syrk(spec, generation, upper, t, 1.0, &x, 0.0, &mut f, nb);
                f.symmetrize_from(upper);
                cost
            }
            DeviceOp::Spmm { .. } => gsparse::spmm(spec, 1.0, &bp, Transpose::No, &x, 0.0, &mut f),
            op => unreachable!("{} is not an assembly op", op.name()),
        };
        debug_assert_eq!(charged, step.cost, "{:?} executed with another shape", step.op);
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualop::{ApproachOperator, DualOperator};
    use crate::params::DualOperatorApproach;
    use crate::params::{FactorStorage, Path, ScatterGather};
    use feti_decompose::{DecomposedProblem, DecompositionSpec};
    use feti_solver::SolverOptions;

    fn operator(
        approach: DualOperatorApproach,
        blocks: Vec<SubdomainBlock>,
        nl: usize,
        params: ExplicitAssemblyParams,
    ) -> ApproachOperator {
        ApproachOperator::new(approach, blocks, nl, params, SolverOptions::default()).unwrap()
    }

    fn blocks() -> (Vec<SubdomainBlock>, usize) {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        (SubdomainBlock::from_problem(&problem), problem.num_lambdas)
    }

    fn reference(blocks: &[SubdomainBlock], nl: usize, p: &[f64]) -> Vec<f64> {
        let mut op = operator(
            DualOperatorApproach::ImplicitCholmod,
            blocks.to_vec(),
            nl,
            ExplicitAssemblyParams::default(),
        );
        op.preprocess().unwrap();
        let mut q = vec![0.0; nl];
        op.apply(p, &mut q);
        q
    }

    #[test]
    fn implicit_gpu_matches_cpu_reference() {
        let (blocks, nl) = blocks();
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.7).cos()).collect();
        let q_ref = reference(&blocks, nl, &p);
        for approach in
            [DualOperatorApproach::ImplicitGpuLegacy, DualOperatorApproach::ImplicitGpuModern]
        {
            let mut op = operator(approach, blocks.clone(), nl, ExplicitAssemblyParams::default());
            let t = op.preprocess().unwrap();
            assert!(t.gpu_seconds > 0.0, "factor transfer must be accounted");
            let mut q = vec![0.0; nl];
            let ta = op.apply(&p, &mut q);
            assert!(ta.gpu_seconds > 0.0);
            for (a, b) in q.iter().zip(&q_ref) {
                assert!((a - b).abs() < 1e-8, "{approach:?}");
            }
        }
    }

    #[test]
    fn explicit_gpu_matches_cpu_reference_for_all_paths_and_storages() {
        let (blocks, nl) = blocks();
        let p: Vec<f64> = (0..nl).map(|i| ((i % 5) as f64) - 2.0).collect();
        let q_ref = reference(&blocks, nl, &p);
        for path in [Path::Syrk, Path::Trsm] {
            for storage in [FactorStorage::Sparse, FactorStorage::Dense] {
                for rhs_order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
                    let params = ExplicitAssemblyParams {
                        path,
                        forward_factor_storage: storage,
                        backward_factor_storage: storage,
                        forward_factor_order: MemoryOrder::RowMajor,
                        backward_factor_order: MemoryOrder::ColMajor,
                        rhs_order,
                        scatter_gather: ScatterGather::Gpu,
                    };
                    let mut op = operator(
                        DualOperatorApproach::ExplicitGpuLegacy,
                        blocks.clone(),
                        nl,
                        params,
                    );
                    op.preprocess().unwrap();
                    let mut q = vec![0.0; nl];
                    op.apply(&p, &mut q);
                    for (a, b) in q.iter().zip(&q_ref) {
                        assert!(
                            (a - b).abs() < 1e-7,
                            "path {path:?} storage {storage:?} rhs {rhs_order:?}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_explicit_gpu_is_bit_identical_to_dense_explicit() {
        let (blocks, nl) = blocks();
        // Pin the op sequence both families execute: SYRK path over a dense factor.
        let params = ExplicitAssemblyParams {
            path: Path::Syrk,
            forward_factor_storage: FactorStorage::Dense,
            ..Default::default()
        };
        for (sparse_approach, dense_approach) in [
            (
                DualOperatorApproach::ExplicitSparseGpuLegacy,
                DualOperatorApproach::ExplicitGpuLegacy,
            ),
            (
                DualOperatorApproach::ExplicitSparseGpuModern,
                DualOperatorApproach::ExplicitGpuModern,
            ),
        ] {
            let mut dense = operator(dense_approach, blocks.clone(), nl, params);
            let mut sparse = operator(sparse_approach, blocks.clone(), nl, params);
            let td = dense.preprocess().unwrap();
            let ts = sparse.preprocess().unwrap();
            for i in 0..blocks.len() {
                let fd = dense.local_operator(i).unwrap();
                let fs = sparse.local_operator(i).unwrap();
                for r in 0..fd.nrows() {
                    for c in 0..fd.ncols() {
                        assert_eq!(
                            fd.get(r, c).to_bits(),
                            fs.get(r, c).to_bits(),
                            "{sparse_approach:?} F̃[{i}]({r},{c}) must match bit-for-bit"
                        );
                    }
                }
            }
            // The modelled assembly must not be slower than the dense explicit one
            // (gpu_seconds is the deterministic sum of modelled op costs).
            assert!(
                ts.gpu_seconds <= td.gpu_seconds + 1e-15,
                "{sparse_approach:?}: sparse assembly {} vs dense {}",
                ts.gpu_seconds,
                td.gpu_seconds
            );
            let p: Vec<f64> = (0..nl).map(|i| ((i % 7) as f64) * 0.23 - 0.6).collect();
            let mut qd = vec![0.0; nl];
            let mut qs = vec![0.0; nl];
            dense.apply(&p, &mut qd);
            sparse.apply(&p, &mut qs);
            for (a, b) in qd.iter().zip(&qs) {
                assert_eq!(a.to_bits(), b.to_bits(), "{sparse_approach:?} F·p must match");
            }
        }
    }

    #[test]
    fn hybrid_matches_cpu_reference() {
        let (blocks, nl) = blocks();
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.11).sin()).collect();
        let q_ref = reference(&blocks, nl, &p);
        let mut op = operator(
            DualOperatorApproach::ExplicitHybrid,
            blocks,
            nl,
            ExplicitAssemblyParams::default(),
        );
        let t = op.preprocess().unwrap();
        assert!(t.cpu_seconds > 0.0);
        let mut q = vec![0.0; nl];
        op.apply(&p, &mut q);
        for (a, b) in q.iter().zip(&q_ref) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn batched_apply_matches_columnwise_and_never_costs_more() {
        let (blocks, nl) = blocks();
        let k = 4;
        let mut p = DenseMatrix::zeros(nl, k, MemoryOrder::ColMajor);
        for j in 0..k {
            for i in 0..nl {
                p.set(i, j, ((i * 5 + j * 11) % 13) as f64 * 0.31 - 1.7);
            }
        }
        let mut operators: Vec<(Box<dyn DualOperator>, Box<dyn DualOperator>)> = vec![
            (
                Box::new(operator(
                    DualOperatorApproach::ImplicitGpuLegacy,
                    blocks.clone(),
                    nl,
                    ExplicitAssemblyParams::default(),
                )),
                Box::new(operator(
                    DualOperatorApproach::ImplicitGpuLegacy,
                    blocks.clone(),
                    nl,
                    ExplicitAssemblyParams::default(),
                )),
            ),
            (
                Box::new(operator(
                    DualOperatorApproach::ExplicitGpuModern,
                    blocks.clone(),
                    nl,
                    ExplicitAssemblyParams::default(),
                )),
                Box::new(operator(
                    DualOperatorApproach::ExplicitGpuModern,
                    blocks.clone(),
                    nl,
                    ExplicitAssemblyParams::default(),
                )),
            ),
            (
                Box::new(operator(
                    DualOperatorApproach::ExplicitHybrid,
                    blocks.clone(),
                    nl,
                    ExplicitAssemblyParams::default(),
                )),
                Box::new(operator(
                    DualOperatorApproach::ExplicitHybrid,
                    blocks.clone(),
                    nl,
                    ExplicitAssemblyParams::default(),
                )),
            ),
        ];
        for (single, batched) in &mut operators {
            let approach = single.approach();
            single.preprocess().unwrap();
            batched.preprocess().unwrap();
            let mut q_batched = DenseMatrix::zeros(nl, k, MemoryOrder::ColMajor);
            let batched_time = batched.apply_many(&p, &mut q_batched);
            let mut singles_gpu = 0.0;
            for j in 0..k {
                let mut q = vec![0.0; nl];
                let t = single.apply(&p.col(j), &mut q);
                singles_gpu += t.gpu_seconds;
                for (i, v) in q.iter().enumerate() {
                    assert_eq!(
                        *v,
                        q_batched.get(i, j),
                        "{approach:?} column {j} row {i} must match bit-for-bit"
                    );
                }
            }
            assert!(
                batched_time.gpu_seconds <= singles_gpu + 1e-15,
                "{approach:?}: batched modelled GPU time {} must not exceed {k} singles {}",
                batched_time.gpu_seconds,
                singles_gpu
            );
            assert_eq!(batched.stats().apply_count, k, "{approach:?} counts columns");
        }
    }

    #[test]
    fn scatter_gather_variants_produce_identical_results() {
        let (blocks, nl) = blocks();
        let p: Vec<f64> = (0..nl).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut results = Vec::new();
        for sg in [ScatterGather::Cpu, ScatterGather::Gpu] {
            let params = ExplicitAssemblyParams { scatter_gather: sg, ..Default::default() };
            let mut op =
                operator(DualOperatorApproach::ExplicitGpuModern, blocks.clone(), nl, params);
            op.preprocess().unwrap();
            let mut q = vec![0.0; nl];
            op.apply(&p, &mut q);
            results.push(q);
        }
        for (a, b) in results[0].iter().zip(&results[1]) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
