//! The device side of the dual operator: the assembly walk of `expl legacy/modern`
//! (the paper's contribution) and of the sparsity-aware `expl sparse legacy/modern`
//! family (the sequel's boundary-restricted assembly, arXiv 2509.21037).
//!
//! The device is a cost model.  What a GPU approach submits — and what it allocates,
//! persistently and per kernel — is the [`crate::program::ApproachProgram`] of its
//! approach, the same program the planner folds; `feti-gpu` prices each op and books
//! its memory — the persistent footprint when the operator's pool is made, a
//! subdomain's kernel temporaries in one pool request when the operator preprocesses
//! it — and the phase scheduler's
//! per-worker streams model the asynchronous submission and CPU/GPU overlap of §IV-B.
//! The numbers are the host's, computed
//! through the one factor each subdomain keeps: `impl legacy/modern` apply through it
//! exactly as `impl cholmod` does, every explicit device approach assembles its `F̃ᵢ`
//! through the host body of `expl cholmod` ([`cpu`](super::cpu)) and applies it
//! through the host SYMV.

#[cfg(test)]
mod tests {
    use crate::dualop::{pinned_operator, ApproachOperator, DualOperator};
    use crate::params::{
        DualOperatorApproach, ExplicitAssemblyParams, FactorStorage, Path, ScatterGather,
    };
    use crate::planner::Planner;
    use feti_decompose::{DecomposedProblem, DecompositionSpec};
    use feti_solver::SolverOptions;
    use feti_sparse::{DenseMatrix, MemoryOrder};

    fn operator(
        approach: DualOperatorApproach,
        problem: &DecomposedProblem,
        params: ExplicitAssemblyParams,
    ) -> ApproachOperator {
        pinned_operator(approach, problem, Some(params), SolverOptions::default()).unwrap()
    }

    fn problem() -> (DecomposedProblem, usize) {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let nl = problem.num_lambdas;
        (problem, nl)
    }

    fn reference(problem: &DecomposedProblem, p: &[f64]) -> Vec<f64> {
        let approach = DualOperatorApproach::ImplicitCholmod;
        let mut op = operator(approach, problem, ExplicitAssemblyParams::default());
        op.preprocess().unwrap();
        let mut q = vec![0.0; p.len()];
        op.apply(p, &mut q);
        q
    }

    #[test]
    fn implicit_gpu_matches_cpu_reference() {
        // The device approaches solve through the very factor `impl cholmod` applies:
        // the same bits, only the price differs.
        let (problem, nl) = problem();
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.7).cos()).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let q_ref = reference(&problem, &p);
        for approach in
            [DualOperatorApproach::ImplicitGpuLegacy, DualOperatorApproach::ImplicitGpuModern]
        {
            let mut op = operator(approach, &problem, ExplicitAssemblyParams::default());
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
        let (problem, nl) = problem();
        let p: Vec<f64> = (0..nl).map(|i| ((i % 5) as f64) - 2.0).collect();
        let q_ref = reference(&problem, &p);
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
                    let mut op =
                        operator(DualOperatorApproach::ExplicitGpuLegacy, &problem, params);
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
        let (problem, nl) = problem();
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
            let mut dense = operator(dense_approach, &problem, params);
            let mut sparse = operator(sparse_approach, &problem, params);
            let td = dense.preprocess().unwrap();
            let ts = sparse.preprocess().unwrap();
            for i in 0..problem.subdomains.len() {
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
        let a100 = feti_gpu::GpuSpec::a100_40gb();
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
                let mut op = operator(approach, &problem, params);
                let t = one_thread.install(|| op.preprocess()).unwrap();
                let pool = op.pool.as_ref().expect("a GPU approach has a pool");
                assert_eq!(pool.in_use_bytes(), 0, "{spec:?} {approach:?} {params:?}");
                assert_eq!(
                    (
                        a100.memory_capacity_bytes - pool.capacity_bytes(),
                        pool.peak_bytes(),
                        t.gpu_seconds.to_bits()
                    ),
                    recorded,
                    "{spec:?} {approach:?} {params:?}"
                );
            }
        }
    }

    /// `expl legacy` over a dense forward factor on `small_heat_2d`: the nonzero
    /// kernel temporaries each subdomain's assembly program lists, and the operator
    /// on a device whose pool holds `pool(temporaries)` bytes beside the persistent
    /// allocations.
    fn dense_forward_legacy(
        pool: impl FnOnce(&[Vec<usize>]) -> usize,
    ) -> (Vec<Vec<usize>>, ApproachOperator) {
        let (problem, _) = problem();
        let approach = DualOperatorApproach::ExplicitGpuLegacy;
        let params = ExplicitAssemblyParams {
            forward_factor_storage: FactorStorage::Dense,
            ..Default::default()
        };
        let a100 = feti_gpu::GpuSpec::a100_40gb();
        let program = Planner::new(&problem, a100).program(approach, params);
        let preprocess = program.preprocess();
        let temporaries: Vec<Vec<usize>> = (0..problem.subdomains.len())
            .map(|i| {
                let ops = preprocess.subdomain(i).iter().map(|op| op.temporary_bytes);
                ops.filter(|&bytes| bytes > 0).collect()
            })
            .collect();
        let capacity = program.persistent_bytes() + pool(&temporaries);
        let spec = feti_gpu::GpuSpec { memory_capacity_bytes: capacity, ..a100 };
        let plan = Planner::new(&problem, spec).plan_pinned(approach);
        let op = plan.build(&problem, approach, params, SolverOptions::default()).unwrap();
        (temporaries, op)
    }

    /// Runs `work` on a thread of its own and fails, instead of hanging the suite, if
    /// it has not finished within a minute; a panic in `work` is re-raised here.
    fn within_watchdog(work: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            work();
            let _ = done_tx.send(());
        });
        let finished = done_rx.recv_timeout(std::time::Duration::from_secs(60));
        assert!(finished != Err(std::sync::mpsc::RecvTimeoutError::Timeout), "preprocess hung");
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    }

    /// A subdomain's temporaries that do not fit the pool together are a typed error,
    /// never a hang: with a pool one byte short of the largest densified factor `n²·8`
    /// (no kernel fits), and with a pool of exactly `n²·8` (every kernel fits, no
    /// subdomain's sum does), every preprocessing of `expl legacy` over a dense
    /// forward factor fails with `FetiError::DeviceMemory` and leaves nothing booked,
    /// so a second attempt fails the same way.
    #[test]
    fn temporary_pool_exhaustion_is_a_typed_error() {
        let n_max = problem().0.subdomains.iter().map(|sd| sd.num_dofs()).max().unwrap();
        for pool in [n_max * n_max * 8 - 1, n_max * n_max * 8] {
            let (temporaries, mut op) = dense_forward_legacy(|_| pool);
            let largest_kernel = temporaries.iter().flatten().max().unwrap();
            let smallest_sum = temporaries.iter().map(|t| t.iter().sum::<usize>()).min().unwrap();
            assert!(pool < smallest_sum, "pool {pool}: some subdomain would fit");
            assert_eq!(*largest_kernel <= pool, pool == n_max * n_max * 8, "pool {pool}");
            let ledger = std::sync::Arc::clone(op.pool.as_ref().unwrap());
            within_watchdog(move || {
                for attempt in 0..2 {
                    let err = op.preprocess().unwrap_err();
                    let msg = format!("pool {pool}, attempt {attempt}: {err}");
                    assert!(matches!(err, crate::FetiError::DeviceMemory(_)), "{msg}");
                    assert_eq!(ledger.in_use_bytes(), 0, "{msg}");
                }
            });
        }
    }

    /// A device one byte short of an approach's persistent allocations refuses the
    /// operator by the bytes it asked for; one that holds them exactly builds it but
    /// leaves no pool for the assembly kernels' temporaries, so its preprocessing is a
    /// typed error, not a panic or a hang.  A CPU approach builds on either device.
    #[test]
    fn a_device_one_byte_short_of_the_persistent_allocations_refuses_the_operator() {
        let (problem, _) = problem();
        let (approach, cpu) =
            (DualOperatorApproach::ExplicitGpuLegacy, DualOperatorApproach::ExplicitCholmod);
        let a100 = feti_gpu::GpuSpec::a100_40gb();
        let generation = approach.generation().unwrap();
        let persistent = Planner::new(&problem, a100).persistent_device_bytes(approach, generation);
        let auto = |approach| crate::program::auto_params(approach, &problem);
        let opts = SolverOptions::default();
        for capacity in [persistent - 1, persistent] {
            let spec = feti_gpu::GpuSpec { memory_capacity_bytes: capacity, ..a100 };
            let plan = Planner::new(&problem, spec).plan_pinned(approach);
            assert!(plan.build(&problem, cpu, auto(cpu), opts).is_ok(), "capacity {capacity}");
            match plan.build(&problem, approach, auto(approach), opts) {
                Err(crate::FetiError::DeviceMemory(message)) => {
                    assert_eq!(capacity, persistent - 1, "{message}");
                    assert!(
                        message.contains(&format!("{persistent} persistent bytes")),
                        "{message}"
                    );
                }
                Ok(mut op) => {
                    assert_eq!(capacity, persistent, "built on a device too small");
                    within_watchdog(move || {
                        let err = op.preprocess().unwrap_err();
                        assert!(matches!(err, crate::FetiError::DeviceMemory(_)), "{err}");
                    });
                }
                Err(other) => panic!("capacity {capacity}: {other}"),
            }
        }
    }

    /// Two workers share a pool one byte larger than the largest subdomain's
    /// temporaries: each subdomain books its temporaries in one request, so no worker
    /// waits while it holds pool memory, and preprocessings in a row all finish with
    /// the `F̃ᵢ` an A100 assembles and never more than the pool booked.  Were each
    /// kernel's buffer booked on its own while the earlier ones are held, two workers
    /// that each hold a right-hand-side buffer would wait for each other forever; that
    /// needs one worker's first request to land between two back-to-back requests of
    /// the other, so the run is long enough (3000 preprocessings, about 2 s in a
    /// debug build) to hit that window.
    #[test]
    fn two_workers_on_a_pool_one_byte_above_the_largest_subdomain_finish() {
        let pool = |temporaries: &[Vec<usize>]| {
            temporaries.iter().map(|t| t.iter().sum::<usize>()).max().unwrap() + 1
        };
        let (temporaries, mut op) = dense_forward_legacy(pool);
        assert!(temporaries.iter().all(|t| t.len() > 1), "every subdomain books several kernels");
        let local_bits = |op: &ApproachOperator| -> Vec<Vec<u64>> {
            let f = (0..).map_while(|i| op.local_operator(i));
            f.map(|f| f.as_slice().iter().map(|x| x.to_bits()).collect()).collect()
        };
        let (problem, _) = problem();
        let subdomains = problem.subdomains.len();
        let mut a100 = operator(DualOperatorApproach::ExplicitGpuLegacy, &problem, *op.params());
        a100.preprocess().unwrap();
        let expected = local_bits(&a100);
        assert_eq!(expected.len(), subdomains);
        let ledger = std::sync::Arc::clone(op.pool.as_ref().unwrap());
        within_watchdog(move || {
            let two_workers = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
            for run in 0..3000 {
                two_workers.install(|| op.preprocess()).unwrap();
                assert_eq!(local_bits(&op), expected, "run {run}");
            }
        });
        assert_eq!(ledger.in_use_bytes(), 0);
        assert!(ledger.peak_bytes() <= ledger.capacity_bytes());
    }

    #[test]
    fn hybrid_matches_cpu_reference() {
        let (problem, nl) = problem();
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.11).sin()).collect();
        let q_ref = reference(&problem, &p);
        let mut op = operator(
            DualOperatorApproach::ExplicitHybrid,
            &problem,
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
        let (problem, nl) = problem();
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
                    &problem,
                    ExplicitAssemblyParams::default(),
                )),
                Box::new(operator(
                    DualOperatorApproach::ImplicitGpuLegacy,
                    &problem,
                    ExplicitAssemblyParams::default(),
                )),
            ),
            (
                Box::new(operator(
                    DualOperatorApproach::ExplicitGpuModern,
                    &problem,
                    ExplicitAssemblyParams::default(),
                )),
                Box::new(operator(
                    DualOperatorApproach::ExplicitGpuModern,
                    &problem,
                    ExplicitAssemblyParams::default(),
                )),
            ),
            (
                Box::new(operator(
                    DualOperatorApproach::ExplicitHybrid,
                    &problem,
                    ExplicitAssemblyParams::default(),
                )),
                Box::new(operator(
                    DualOperatorApproach::ExplicitHybrid,
                    &problem,
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
        }
    }

    #[test]
    fn scatter_gather_variants_produce_identical_results() {
        let (problem, nl) = problem();
        let p: Vec<f64> = (0..nl).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut results = Vec::new();
        for sg in [ScatterGather::Cpu, ScatterGather::Gpu] {
            let params = ExplicitAssemblyParams { scatter_gather: sg, ..Default::default() };
            let mut op = operator(DualOperatorApproach::ExplicitGpuModern, &problem, params);
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
