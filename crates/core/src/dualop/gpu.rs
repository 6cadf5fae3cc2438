//! The device side of the dual operator: the kernels of `impl legacy/modern`, `expl
//! legacy/modern` (the paper's contribution), the sparsity-aware `expl sparse
//! legacy/modern` family (the sequel's boundary-restricted assembly, arXiv 2509.21037)
//! and the hybrid approach's application.
//!
//! All device work goes through `feti-gpu`: the reported times come from the device
//! cost model, per-stream timelines model the asynchronous submission and CPU/GPU
//! overlap of §IV-B, and the numerics run on the host — producing the bits the
//! program's kernels produce, through the cheapest host kernel that does.
//!
//! What is submitted — and what is allocated persistently — is not written here: the
//! operator interprets the [`crate::program::ApproachProgram`] of its approach, the
//! same program the planner folds.

use super::{cpu, DeviceSide, SubdomainBlock};
use crate::params::ExplicitAssemblyParams;
use feti_gpu::sparse::{self as gsparse, SparseFactor};
use feti_gpu::{blas as gblas, DeviceOp, GpuSpec, PricedOp};
use feti_sparse::{
    CsrMatrix, DenseMatrix, DiagKind, MemoryOrder, Permutation, Transpose, Triangle,
};

/// The extracted factor as every GPU approach uploads it: the implicit ones apply
/// through it, the explicit ones assemble from it.
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

    /// The factor row-major, for the kernels that read it by rows.
    fn to_csr(&self) -> CsrMatrix {
        match &self.factor {
            SparseFactor::Csr(l) => l.clone(),
            SparseFactor::Csc(l) => l.to_csr(),
        }
    }
}

/// The explicit device application shared by `expl legacy/modern`, the sparse family
/// and `expl hybrid`: `q̃ᵢ = F̃ᵢ p̃ᵢ` through the device SYMV.  A batch runs the exact
/// column-by-column SYMV (which is what the SYMM-shaped device kernel computes), so
/// only the modelled time is batched.
pub(crate) fn symv(spec: &GpuSpec, f: &DenseMatrix, p_local: &[f64], q_local: &mut [f64]) {
    let _ = gblas::symv(spec, Triangle::Upper, 1.0, f, p_local, 0.0, q_local);
}

/// Walks one subdomain's assembly program on the simulated device and returns the
/// dense local dual operator `F̃ᵢ`.
///
/// The program is the kernel sequence of §IV-B/IV-C (or the sequel's
/// boundary-restricted variant), so the ops carry their own roles: the first
/// densification produces the right-hand side `P B̃ᵀ`, any later one the factor of the
/// solve that follows it; the first triangular solve is the forward one (`L X = …`,
/// the `forward_*` parameters), a second the backward one (`Lᵀ`, the `backward_*`
/// parameters).  Every op is checked against the shape of the data it runs on and
/// requests the temporary device memory its kernel needs; its modelled cost is the
/// one the program carries.
///
/// The host computes what the kernels compute, not how.  Every forward-solve kernel
/// — dense, sparse CSR/CSC, sparse-RHS, any memory order — applies each column's
/// subtractions in ascending row order and skips only terms that are `v·(+0.0)`, so
/// all of them give the bits of [`cpu::Factor::forward_solve`] on `factor`, where it
/// lies, and every SYRK gives the bits of its panel-pair Gram — together
/// [`cpu::Factor::assemble`], under the same `forward[sd=i]` and `gram[sd=i]` spans;
/// nothing is densified, converted or permuted for them.  The backward solve's order
/// of operations does depend on the storage of its factor, so the TRSM path spells
/// `Y` out and runs the backward solve and SpMM the program names, on the `uploaded`
/// factor in that storage.
pub(crate) fn run_assembly(
    side: &DeviceSide,
    params: &ExplicitAssemblyParams,
    program: &[PricedOp],
    i: usize,
    block: &SubdomainBlock,
    factor: &cpu::Factor,
    uploaded: &DeviceFactor,
) -> crate::Result<DenseMatrix> {
    let (device, generation) = (&side.device, side.program.generation());
    let spec = device.spec();
    let (n, nl) = (block.num_dofs(), block.num_local_lambdas());
    let (lower, nonunit) = (Triangle::Lower, DiagKind::NonUnit);
    // Which densification and which solve the walk has reached.
    let (mut rhs_is_dense, mut forward) = (false, true);
    // Empty until the op that produces them: the forward solve's panels, `Y` spelt
    // out for the backward solve, its densified factor.
    let mut panels = None;
    let mut x = DenseMatrix::zeros(0, 0, MemoryOrder::ColMajor);
    let mut l_dense = DenseMatrix::zeros(0, 0, params.backward_factor_order);
    let mut f = DenseMatrix::zeros(0, 0, MemoryOrder::RowMajor);
    // Temporary device buffers live until the subdomain's last kernel: workers race
    // them against the shared pool exactly as §IV-A describes, a request that does
    // not fit blocking until another worker's guards drop.
    let mut guards = Vec::new();
    for step in program {
        let expect = |shape: &[usize], data: &[usize]| {
            assert_eq!(shape, data, "{:?} was emitted for another shape", step.op);
        };
        let factor_order =
            if forward { params.forward_factor_order } else { params.backward_factor_order };
        match step.op {
            // Uploads move what the host already holds: nothing to compute.
            DeviceOp::Transfer { .. } => {}
            DeviceOp::SparseToDense { nnz, rows, cols } if !rhs_is_dense => {
                expect(&[nnz, rows, cols], &[block.b.nnz(), n, nl]);
                guards.push(device.alloc_temporary(n * nl * 8)?);
                rhs_is_dense = true;
            }
            DeviceOp::SparseToDense { nnz, rows, cols } => {
                expect(&[nnz, rows, cols], &[uploaded.factor.nnz(), n, n]);
                guards.push(device.alloc_temporary(n * n * 8)?);
                if !forward {
                    l_dense = gsparse::sparse_to_dense(spec, &uploaded.to_csr(), factor_order).0;
                }
            }
            DeviceOp::DenseTrsm { n: dim, nrhs } | DeviceOp::SparseRhsTrsm { n: dim, nrhs, .. } => {
                expect(&[dim, nrhs], &[n, nl]);
                if forward {
                    panels = Some(factor.forward_solve(i, block));
                } else {
                    let y = panels.take().expect("the forward solve precedes the backward one");
                    x = y.to_dense();
                    let t = Transpose::Yes;
                    let _ = gblas::trsm(spec, lower, t, nonunit, 1.0, &l_dense, &mut x)
                        .expect("factor is nonsingular");
                }
                forward = false;
            }
            DeviceOp::SparseTrsm { nnz, n: dim, nrhs, .. } => {
                expect(&[nnz, dim, nrhs], &[uploaded.factor.nnz(), n, nl]);
                let ws = gsparse::sparse_trsm_workspace_from_shape(
                    generation,
                    uploaded.factor.bytes(),
                    n,
                    factor_order,
                    n,
                    nl,
                    params.rhs_order,
                );
                guards.push(device.alloc_temporary(ws.temporary_bytes)?);
                if forward {
                    panels = Some(factor.forward_solve(i, block));
                } else {
                    let y = panels.take().expect("the forward solve precedes the backward one");
                    x = y.to_dense();
                    let by_rows;
                    let l = match factor_order {
                        MemoryOrder::ColMajor => &uploaded.factor,
                        MemoryOrder::RowMajor => {
                            by_rows = SparseFactor::Csr(uploaded.to_csr());
                            &by_rows
                        }
                    };
                    let (g, t) = (generation, Transpose::Yes);
                    let _ = gsparse::sparse_trsm(spec, g, lower, t, nonunit, 1.0, l, &mut x)
                        .expect("factor is nonsingular");
                }
                forward = false;
            }
            DeviceOp::Syrk { n: dim, k } | DeviceOp::BoundarySyrk { n: dim, k, .. } => {
                expect(&[dim, k], &[nl, n]);
                let y = panels.as_ref().expect("the forward solve precedes the SYRK");
                let _span = feti_trace::span(|| format!("gram[sd={i}]"));
                f = y.gram();
            }
            DeviceOp::Spmm { nnz, nrows, nrhs } => {
                expect(&[nnz, nrows, nrhs], &[block.b.nnz(), nl, nl]);
                let bp = uploaded.perm.permute_cols(&block.b);
                f = DenseMatrix::zeros(nl, nl, MemoryOrder::RowMajor);
                let _ = gsparse::spmm(spec, 1.0, &bp, Transpose::No, &x, 0.0, &mut f);
            }
            op => unreachable!("{} is not an assembly op", op.name()),
        }
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

    /// The sparse and the dense explicit family assemble the same `F̃ᵢ` and never
    /// model the sparse one slower.  Both families' SYRK path now runs the one host
    /// assembly body, so the bit identity here no longer compares kernels: that is
    /// `device_assembled_local_operators_equal_the_literal_execution_of_their_program`
    /// in `tests/sparse_assembly_conformance.rs`.
    #[test]
    fn sparse_explicit_gpu_is_bit_identical_to_dense_explicit() {
        let (blocks, nl) = blocks();
        // Pin the op sequence both families submit: SYRK path over a dense factor.
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

    /// The walk of a device program requests and prices what it always did, whatever
    /// the host computes: after a one-thread preprocessing of the Table-II
    /// auto-configuration of the four device-assembled approaches, one sparse-CSR and
    /// one dense TRSM-path combination, the device's memory ledger and the modelled
    /// device seconds are the ones recorded — on the families of
    /// `tests/common::pinned_families` — before the approaches moved onto the host
    /// assembly body.
    #[test]
    fn device_ledger_of_a_one_thread_preprocessing_is_pinned() {
        use feti_mesh::{Dim, ElementOrder, Physics};
        use DualOperatorApproach as A;
        // (persistent bytes, temporary peak bytes, bits of the modelled seconds)
        const RECORDED: [[(usize, usize, u64); 6]; 3] = [
            [
                (921_768, 168_432, 0x3f3c_d30d_4247_5cc3),
                (4_490_056, 635_008, 0x3f40_6a24_88c0_942a),
                (921_768, 635_008, 0x3f40_4f8f_beeb_e2da),
                (4_490_056, 635_008, 0x3f40_56d4_3948_d1b5),
                (921_768, 170_368, 0x3f41_579b_190e_4465),
                (921_768, 1_103_520, 0x3f45_58d6_e848_0ff7),
            ],
            [
                (331_372, 70_304, 0x3f3a_e06c_778a_a4ff),
                (1_673_708, 297_440, 0x3f3f_6d8b_343b_47ed),
                (331_372, 297_440, 0x3f3f_5946_f285_5413),
                (1_673_708, 297_440, 0x3f3f_5ee8_2137_dee9),
                (331_372, 71_656, 0x3f3f_f1bc_e73a_c5bd),
                (331_372, 525_928, 0x3f44_85fd_304e_05c8),
            ],
            [
                (694_544, 220_000, 0x3f3c_81a3_2c8d_7569),
                (2_833_552, 220_000, 0x3f3c_81a3_2c8d_7569),
                (694_544, 220_000, 0x3f3c_74ad_ca4b_94d4),
                (2_833_552, 220_000, 0x3f3c_7838_c533_d204),
                (694_544, 97_000, 0x3f3d_ecfb_7763_f5a4),
                (694_544, 345_000, 0x3f42_8421_e292_e635),
            ],
        ];
        let spec = |dim, physics, order, subdomains_per_side: usize, elements: usize| {
            let subdomains_per_cluster =
                subdomains_per_side.pow(if dim == Dim::Two { 2 } else { 3 });
            DecompositionSpec {
                dim,
                physics,
                order,
                subdomains_per_side,
                elements_per_subdomain_side: elements,
                subdomains_per_cluster,
            }
        };
        let families = [
            spec(Dim::Two, Physics::LinearElasticity, ElementOrder::Linear, 3, 10),
            spec(Dim::Two, Physics::HeatTransfer, ElementOrder::Linear, 3, 12),
            spec(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2, 2),
        ];
        let trsm_path = |storage, order| ExplicitAssemblyParams {
            path: Path::Trsm,
            forward_factor_storage: storage,
            backward_factor_storage: storage,
            forward_factor_order: order,
            backward_factor_order: order,
            ..Default::default()
        };
        let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        for (spec, recorded) in families.iter().zip(RECORDED) {
            let problem = DecomposedProblem::build(spec);
            let auto = |approach| (approach, crate::program::auto_params(approach, &problem));
            let cases = [
                auto(A::ExplicitGpuLegacy),
                auto(A::ExplicitGpuModern),
                auto(A::ExplicitSparseGpuLegacy),
                auto(A::ExplicitSparseGpuModern),
                (A::ExplicitGpuLegacy, trsm_path(FactorStorage::Sparse, MemoryOrder::RowMajor)),
                (A::ExplicitGpuLegacy, trsm_path(FactorStorage::Dense, MemoryOrder::ColMajor)),
            ];
            for ((approach, params), recorded) in cases.into_iter().zip(recorded) {
                let blocks = SubdomainBlock::from_problem(&problem);
                let mut op = operator(approach, blocks, problem.num_lambdas, params);
                let t = one_thread.install(|| op.preprocess()).unwrap();
                let stats = op.device_side().device.memory_stats();
                assert_eq!(stats.temporary_in_use_bytes, 0, "{spec:?} {approach:?} {params:?}");
                assert_eq!(
                    (stats.persistent_bytes, stats.temporary_peak_bytes, t.gpu_seconds.to_bits()),
                    recorded,
                    "{spec:?} {approach:?} {params:?}"
                );
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
