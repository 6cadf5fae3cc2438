//! The device side of the dual operator: the assembly walk of `expl legacy/modern`
//! (the paper's contribution) and of the sparsity-aware `expl sparse legacy/modern`
//! family (the sequel's boundary-restricted assembly, arXiv 2509.21037).
//!
//! The device is a cost model.  What a GPU approach submits — and what it allocates,
//! persistently and per kernel — is the [`crate::program::ApproachProgram`] of its
//! approach, the same program the planner folds; `feti-gpu` prices each op and books
//! its memory, and per-stream timelines model the asynchronous submission and CPU/GPU
//! overlap of §IV-B.  The numbers are the host's, computed through the one factor each
//! subdomain keeps: `impl legacy/modern` apply through it exactly as `impl cholmod`
//! does, every explicit device approach assembles its `F̃ᵢ` through the host body of
//! `expl cholmod` ([`cpu`]) and applies it through the host SYMV.

use super::{cpu, SubdomainBlock};
use feti_gpu::{GpuDevice, PricedOp};
use feti_sparse::DenseMatrix;

/// Books one subdomain's assembly program on the simulated device and returns the
/// dense local dual operator `F̃ᵢ`.
///
/// The program lists the temporary device memory each kernel of §IV-B/IV-C (or of the
/// sequel's boundary-restricted variant) holds; the walk requests every nonzero one in
/// program order and holds the guards until `F̃ᵢ` exists, so workers race them against
/// the shared pool exactly as §IV-A describes — a request that does not fit blocks
/// until another worker's guards drop, one larger than the pool is an error.  The
/// ops' prices are charged by the phase scheduler.  Under the guards the host computes
/// `F̃ᵢ` through [`cpu::Factor::assemble`], the body of `expl cholmod`, whatever
/// kernels the program names: a real device would round them its own way, and their
/// host twins would only reproduce rounding no GPU matches bit for bit.
pub(crate) fn run_assembly(
    device: &GpuDevice,
    program: &[PricedOp],
    i: usize,
    block: &SubdomainBlock,
    factor: &cpu::Factor,
) -> crate::Result<DenseMatrix> {
    let _guards = program
        .iter()
        .filter(|step| step.temporary_bytes > 0)
        .map(|step| device.alloc_temporary(step.temporary_bytes))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(factor.assemble(i, block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualop::{ApproachOperator, DualOperator};
    use crate::params::{
        DualOperatorApproach, ExplicitAssemblyParams, FactorStorage, Path, ScatterGather,
    };
    use feti_decompose::{DecomposedProblem, DecompositionSpec};
    use feti_solver::SolverOptions;
    use feti_sparse::MemoryOrder;

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
        // The device approaches solve through the very factor `impl cholmod` applies:
        // the same bits, only the price differs.
        let (blocks, nl) = blocks();
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.7).cos()).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
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
            assert_eq!(bits(&q), bits(&q_ref), "{approach:?}");
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

    /// A temporary request larger than the whole pool is a typed error, never a hang:
    /// on a device with room for the persistent allocations and one byte less than the
    /// largest densified factor, every preprocessing of `expl legacy` over a dense
    /// forward factor fails with `FetiError::DeviceMemory` and leaves no temporary
    /// memory booked, so a second attempt fails the same way.
    #[test]
    fn temporary_pool_exhaustion_is_a_typed_error() {
        use crate::program::{ApproachProgram, SubdomainShape};
        let (blocks, nl) = blocks();
        let approach = DualOperatorApproach::ExplicitGpuLegacy;
        let params = ExplicitAssemblyParams {
            forward_factor_storage: FactorStorage::Dense,
            ..Default::default()
        };
        let symbolic =
            cpu::analyze_by_pattern(blocks.iter().map(|b| &b.k_reg), approach.ordering());
        let shapes = blocks
            .iter()
            .zip(&symbolic)
            .map(|(block, symbolic)| SubdomainShape::new(&block.b, symbolic.factor_nnz()))
            .collect();
        let a100 = feti_gpu::GpuSpec::a100_40gb();
        let persistent =
            ApproachProgram::new(&a100, approach, params, nl, shapes).persistent_bytes();
        let n_max = blocks.iter().map(SubdomainBlock::num_dofs).max().unwrap();
        let spec =
            feti_gpu::GpuSpec { memory_capacity_bytes: persistent + n_max * n_max * 8 - 1, ..a100 };
        let opts = SolverOptions::default();
        let mut op =
            ApproachOperator::with_analyses(approach, blocks, nl, params, opts, symbolic, &spec)
                .unwrap();
        for attempt in 0..2 {
            let err = op.preprocess().unwrap_err();
            assert!(matches!(err, crate::FetiError::DeviceMemory(_)), "attempt {attempt}: {err}");
            let stats = op.device_side().device.memory_stats();
            assert_eq!(stats.temporary_in_use_bytes, 0, "attempt {attempt}");
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
