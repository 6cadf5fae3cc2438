//! Parallel-vs-sequential conformance suite.
//!
//! The host runtime now really executes the subdomain loops on several threads
//! (`shims/rayon` is a genuine persistent thread pool), and the backends promise that
//! every cross-subdomain reduction happens in deterministic subdomain-index order.
//! This suite pins that promise at the strongest possible level: for heat transfer in
//! 2D and 3D, linear elasticity in 2D, and **all nine** dual-operator approaches
//! (those of Table III that compute differently, plus the sparsity-aware explicit
//! family), the operator action `F·p`, the PCPG solution, and the iteration counts
//! produced with 4 worker threads must be **bit-for-bit** identical to a 1-thread run —
//! not merely close in norm.  It also asserts the performance side of the tentpole: on
//! a machine with enough cores, the measured wall-clock `cpu_seconds` of a Fig. 5-size
//! preprocessing phase must actually shrink when threads are added.
//!
//! Thread counts are pinned with `rayon::ThreadPoolBuilder::install`, the same
//! mechanism the `FETI_THREADS` environment variable feeds (CI additionally runs the
//! whole workspace suite under `FETI_THREADS=1` and `FETI_THREADS=4`).

mod common;

use common::{planned_operator, problems};
use feti_core::{
    build_dual_operator, build_dual_operator_with_options, DualOperator, DualOperatorApproach,
    FetiError, PcpgOptions, TimeBreakdown, TotalFetiSolver,
};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_solver::{CholeskyFactor, FactorizationKind, SolverOptions, SymbolicCholesky};
use feti_sparse::{blas, DenseMatrix, DiagKind, MemoryOrder, Transpose, Triangle};
use proptest::prelude::*;

/// Runs `f` with every parallel region pinned to `threads` worker threads.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
}

fn assert_bits_eq(name: &str, approach: DualOperatorApproach, what: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{name} {approach:?}: {what} length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{name} {approach:?}: {what}[{i}] differs between 1 and 4 threads ({x:e} vs {y:e})"
        );
    }
}

/// `F·p` of every approach must be bit-for-bit identical with 1 and 4 worker threads.
#[test]
fn operator_action_is_bit_identical_across_thread_counts() {
    for (name, spec) in problems() {
        let problem = DecomposedProblem::build(&spec);
        let nl = problem.num_lambdas;
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
        for approach in DualOperatorApproach::all() {
            let run = |threads: usize| -> Vec<f64> {
                with_threads(threads, || {
                    let mut op = build_dual_operator(approach, &problem, None).unwrap();
                    op.preprocess().unwrap();
                    let mut q = vec![0.0; nl];
                    op.apply(&p, &mut q);
                    q
                })
            };
            let q1 = run(1);
            let q4 = run(4);
            assert_bits_eq(name, approach, "F·p", &q1, &q4);
        }
    }
}

/// The PCPG solution — multipliers, primal solution, and the iteration count — of
/// every approach must be bit-for-bit identical with 1 and 4 worker threads.
#[test]
fn solutions_and_iteration_counts_are_bit_identical_across_thread_counts() {
    for (name, spec) in problems() {
        // One shared handle for the whole sweep: solver construction clones the Arc,
        // not the decomposed problem.
        let problem = std::sync::Arc::new(DecomposedProblem::build(&spec));
        for approach in DualOperatorApproach::all() {
            let run = |threads: usize| {
                with_threads(threads, || {
                    let mut solver = TotalFetiSolver::new(
                        std::sync::Arc::clone(&problem),
                        approach,
                        None,
                        PcpgOptions::default(),
                    )
                    .unwrap();
                    solver.solve().unwrap()
                })
            };
            let s1 = run(1);
            let s4 = run(4);
            assert_eq!(
                s1.iterations, s4.iterations,
                "{name} {approach:?}: iteration counts must match"
            );
            assert_bits_eq(name, approach, "lambda", &s1.lambda, &s4.lambda);
            assert_bits_eq(name, approach, "alpha", &s1.alpha, &s4.alpha);
            assert_bits_eq(
                name,
                approach,
                "global solution",
                &s1.global_solution,
                &s4.global_solution,
            );
            assert_eq!(
                s1.final_residual.to_bits(),
                s4.final_residual.to_bits(),
                "{name} {approach:?}: final residual"
            );
        }
    }
}

/// The lumped preconditioner multiplies by `K_bb`, the boundary block of `Kᵢ`; its
/// result must equal, to the bit and at 1 and 4 worker threads, the three products
/// through the full `Kᵢ` written out here.  The 2×2(×2) decompositions have a cross
/// point — a DOF several multipliers touch — and Dirichlet rows.
#[test]
fn lumped_preconditioner_is_bit_identical_to_the_full_stiffness_product() {
    use feti_sparse::ops::spmv_csr;
    for (name, spec) in problems() {
        let problem = std::sync::Arc::new(DecomposedProblem::build(&spec));
        let approach = DualOperatorApproach::ImplicitCholmod;
        let w: Vec<f64> =
            (0..problem.num_lambdas).map(|i| (i as f64 * 0.53).cos() * (i % 5) as f64).collect();
        let mut reference = vec![0.0; w.len()];
        for sd in &problem.subdomains {
            let w_local: Vec<f64> = sd.lambda_map.iter().map(|&g| w[g]).collect();
            let mut t = vec![0.0; sd.num_dofs()];
            spmv_csr(1.0, &sd.gluing, Transpose::Yes, &w_local, 0.0, &mut t);
            let mut kt = vec![0.0; sd.num_dofs()];
            spmv_csr(1.0, &sd.assembled.stiffness, Transpose::No, &t, 0.0, &mut kt);
            let mut q_local = vec![0.0; w_local.len()];
            spmv_csr(1.0, &sd.gluing, Transpose::No, &kt, 0.0, &mut q_local);
            for (q, &g) in q_local.iter().zip(&sd.lambda_map) {
                reference[g] += q;
            }
        }
        assert!(blas::norm2(&reference) > 0.0, "{name}: the reference must be nontrivial");
        for threads in [1, 4] {
            let got = with_threads(threads, || {
                let problem = std::sync::Arc::clone(&problem);
                TotalFetiSolver::new(problem, approach, None, PcpgOptions::default())
                    .unwrap()
                    .precondition(&w)
            });
            assert_bits_eq(name, approach, "M·w", &reference, &got);
        }
    }
}

/// Construction factorizes no `Kᵢ`, so a subdomain that is not positive definite
/// fails at preprocessing: a typed error naming the lowest failing subdomain whatever
/// the thread count, from `ensure_preprocessed` and `solve` alike, after which the
/// same pool runs a healthy solve.
#[test]
fn a_non_spd_subdomain_fails_preprocessing_with_a_typed_error_naming_it() {
    let healthy = std::sync::Arc::new(DecomposedProblem::build(&common::heat_3d()));
    let broken = std::sync::Arc::new(common::with_non_spd_subdomains(&healthy, &[5, 2]));
    let options = PcpgOptions::default();
    for threads in [1, 4] {
        with_threads(threads, || {
            for approach in
                [DualOperatorApproach::ImplicitCholmod, DualOperatorApproach::ExplicitGpuModern]
            {
                let mut solver = TotalFetiSolver::new(broken.clone(), approach, None, options)
                    .expect("construction succeeds");
                let outcomes = [solver.ensure_preprocessed().map(drop), solver.solve().map(drop)];
                for outcome in outcomes {
                    match outcome {
                        Err(FetiError::Factorization(m)) => {
                            assert!(m.starts_with("subdomain 2:"), "{threads} threads: {m}");
                        }
                        other => panic!("{approach:?}, {threads} threads: {other:?}"),
                    }
                }
                assert!(!solver.is_preprocessed());
            }
            let approach = DualOperatorApproach::ImplicitCholmod;
            let mut solver =
                TotalFetiSolver::new(healthy.clone(), approach, None, options).unwrap();
            assert!(solver.solve().unwrap().final_residual < 1e-8);
        });
    }
}

/// With either factorization kernel forced on, the operator action of every approach
/// must be bit-for-bit identical between 1 and 4 worker threads — the kernels are
/// sequential per subdomain, hence thread-count-invariant by construction — and
/// between the two kernels.
#[test]
fn supernodal_operator_action_is_bit_identical_across_thread_counts() {
    for (name, spec) in problems() {
        let problem = DecomposedProblem::build(&spec);
        let nl = problem.num_lambdas;
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.53).cos() - 0.4).collect();
        for approach in DualOperatorApproach::all() {
            let run = |factorization, threads: usize| -> Vec<f64> {
                let options = SolverOptions { factorization, ..SolverOptions::default() };
                with_threads(threads, || {
                    let mut op =
                        build_dual_operator_with_options(approach, &problem, None, options)
                            .unwrap();
                    op.preprocess().unwrap();
                    let mut q = vec![0.0; nl];
                    op.apply(&p, &mut q);
                    q
                })
            };
            let q1 = run(FactorizationKind::Supernodal, 1);
            let q4 = run(FactorizationKind::Supernodal, 4);
            assert_bits_eq(name, approach, "supernodal F·p", &q1, &q4);
            for threads in [1, 4] {
                let q = run(FactorizationKind::Simplicial, threads);
                assert_bits_eq(name, approach, "simplicial vs supernodal F·p", &q, &q1);
            }
        }
    }
}

/// The sparsity-aware explicit family in particular: with the assembly parameters
/// pinned to the configuration both explicit families share (SYRK path over a dense
/// forward factor), the `F·p` of `expl sparse legacy/modern` must be bit-for-bit
/// identical between 1 and 4 worker threads on every conformance problem.
#[test]
fn sparse_rhs_assembly_is_bit_identical_across_thread_counts() {
    let params = feti_core::ExplicitAssemblyParams {
        path: feti_core::Path::Syrk,
        forward_factor_storage: feti_core::FactorStorage::Dense,
        ..Default::default()
    };
    for (name, spec) in problems() {
        let problem = DecomposedProblem::build(&spec);
        let nl = problem.num_lambdas;
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.71).sin() - 0.15).collect();
        for approach in [
            DualOperatorApproach::ExplicitSparseGpuLegacy,
            DualOperatorApproach::ExplicitSparseGpuModern,
        ] {
            let run = |threads: usize| -> Vec<f64> {
                with_threads(threads, || {
                    let mut op = build_dual_operator(approach, &problem, Some(params)).unwrap();
                    op.preprocess().unwrap();
                    let mut q = vec![0.0; nl];
                    op.apply(&p, &mut q);
                    q
                })
            };
            assert_bits_eq(name, approach, "sparse-RHS F·p", &run(1), &run(4));
        }
    }
}

/// The assembled `F̃ᵢ` themselves, on floating subdomains with a regularized `K`:
/// those of every explicit approach (default parameters) are bit-for-bit identical
/// between 1 and 4 worker threads.  So are those of the host assembly (`expl cholmod`)
/// and of a device-assembled approach on a `B̃` whose rows glue two DOFs each, where a
/// per-multiplier reach solve could order its subtractions otherwise.
#[test]
fn host_assembled_local_operators_agree_across_thread_counts() {
    use DualOperatorApproach as A;
    let assembled = |approach, problem: &DecomposedProblem, threads| -> Vec<DenseMatrix> {
        with_threads(threads, || {
            let mut op = planned_operator(approach, problem, Default::default());
            op.preprocess().unwrap();
            let local = |i| op.local_operator(i).expect("explicit approaches assemble F̃ᵢ");
            (0..problem.subdomains.len()).map(|i| local(i).clone()).collect()
        })
    };
    let across_threads = |name: &str, approach, what: &str, problem: &DecomposedProblem| {
        let [one, four] = [1, 4].map(|threads| assembled(approach, problem, threads));
        for (i, (fa, fb)) in one.iter().zip(&four).enumerate() {
            assert_bits_eq(name, approach, &format!("{what} F̃_{i}"), fa.as_slice(), fb.as_slice());
        }
    };
    for (name, spec) in problems() {
        let problem = DecomposedProblem::build(&spec);
        for approach in A::all().into_iter().filter(|a| a.is_explicit()) {
            across_threads(name, approach, "1 vs 4 threads", &problem);
        }

        // Every row of `B̃` gains a second DOF, the next one, with half the weight.
        let mut glued_twice = problem.clone();
        for sd in &mut glued_twice.subdomains {
            let (b, n) = (&sd.gluing, sd.num_dofs());
            let mut coo = feti_sparse::CooMatrix::new(b.nrows(), n);
            for (r, j, v) in b.iter() {
                coo.push(r, j, v);
                coo.push(r, (j + 1) % n, -0.5 * v);
            }
            sd.gluing = coo.to_csr();
        }
        for approach in [A::ExplicitCholmod, A::ExplicitGpuLegacy] {
            across_threads(name, approach, "two-entry rows: 1 vs 4 threads", &glued_twice);
        }
    }
}

/// The blocked BLAS kernels and the run-blocked factorization are sequential building
/// blocks: their results must not depend on the ambient worker pool at all.  This
/// pins SYRK, TRSM, SYMM, SYMV and a supernodal factor to identical bits under 1 and
/// 4 installed threads.
#[test]
fn blocked_kernels_and_supernodal_factor_are_thread_count_invariant() {
    let n = 64;
    let fill = |seed: usize, rows: usize, cols: usize, boost: f64| {
        let mut m = DenseMatrix::zeros(rows, cols, MemoryOrder::RowMajor);
        for i in 0..rows {
            for j in 0..cols {
                let v = (((i * 31 + j * 17 + seed) % 101) as f64) * 0.02 - 1.0;
                m.set(i, j, v + if i == j { boost } else { 0.0 });
            }
        }
        m
    };
    let run = |threads: usize| -> Vec<Vec<u64>> {
        with_threads(threads, || {
            let a = fill(1, n, n, 0.0);
            let tri = fill(2, n, n, n as f64);
            let mut c = fill(3, n, n, 0.0);
            blas::syrk(Triangle::Lower, Transpose::No, 1.1, &a, 0.3, &mut c);
            let mut b = fill(4, n, 8, 0.0);
            blas::trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &tri, &mut b)
                .unwrap();
            let mut s = fill(5, n, 8, 0.0);
            blas::symm(feti_sparse::Side::Left, Triangle::Upper, 0.7, &a, &b, 0.2, &mut s);
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            let mut y = vec![0.5; n];
            blas::symv(Triangle::Lower, 1.3, &a, &x, -0.6, &mut y);

            let spec = common::heat_2d();
            let problem = DecomposedProblem::build(&spec);
            let opts = SolverOptions {
                factorization: FactorizationKind::Supernodal,
                ..SolverOptions::default()
            };
            let k = &problem.subdomains[0].k_reg;
            let symbolic = std::sync::Arc::new(SymbolicCholesky::analyze(k, &opts));
            let factor = CholeskyFactor::factorize(&symbolic, k, &opts).unwrap();
            let l = factor.factor_csc();

            let bits = |m: &DenseMatrix| -> Vec<u64> {
                (0..m.nrows())
                    .flat_map(|i| (0..m.ncols()).map(move |j| (i, j)))
                    .map(|(i, j)| m.get(i, j).to_bits())
                    .collect()
            };
            vec![
                bits(&c),
                bits(&b),
                bits(&s),
                y.iter().map(|v| v.to_bits()).collect(),
                l.values().iter().map(|v| v.to_bits()).collect(),
            ]
        })
    };
    let r1 = run(1);
    let r4 = run(4);
    for (what, (a, b)) in
        ["syrk", "trsm", "symm", "symv", "supernodal factor"].iter().zip(r1.iter().zip(&r4))
    {
        assert_eq!(a, b, "{what}: bits differ between 1 and 4 installed threads");
    }
}

/// The tentpole's performance claim: on a machine with at least 4 cores, the measured
/// wall-clock `cpu_seconds` of a Fig. 5-size preprocessing phase (3D heat transfer,
/// quadratic elements — factorization-dominated host work) must speed up by more than
/// 1.5× going from 1 to 4 worker threads.
#[test]
fn preprocessing_wall_time_speeds_up_with_threads() {
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} hardware core(s) available");
        return;
    }
    let spec = DecompositionSpec {
        dim: Dim::Three,
        physics: Physics::HeatTransfer,
        order: ElementOrder::Quadratic,
        subdomains_per_side: 2,
        elements_per_subdomain_side: 3,
        subdomains_per_cluster: 8,
    };
    let problem = DecomposedProblem::build(&spec);
    let preprocess_wall = |threads: usize| -> f64 {
        with_threads(threads, || {
            // Best of three runs smooths out allocator and scheduler noise (shared
            // CI runners expose exactly 4 oversubscribed vCPUs).
            (0..3)
                .map(|_| {
                    let mut op =
                        build_dual_operator(DualOperatorApproach::ExplicitCholmod, &problem, None)
                            .unwrap();
                    let t: TimeBreakdown = op.preprocess().unwrap();
                    t.cpu_seconds
                })
                .fold(f64::INFINITY, f64::min)
        })
    };
    let serial = preprocess_wall(1);
    let parallel = preprocess_wall(4);
    let speedup = serial / parallel;
    assert!(
        speedup > 1.5,
        "preprocessing must speed up by more than 1.5x on {cores} cores: \
         1 thread {serial:.3}s vs 4 threads {parallel:.3}s (speedup {speedup:.2}x)"
    );
}

/// Nested `install` on persistent pools: an inner pool entered from inside an outer
/// pool's scope must take over the ambient configuration for its extent and restore
/// the outer one afterwards, and a solve computed under the nesting must be
/// bit-for-bit identical to the same solve on a plain 4-thread pool.
#[test]
fn nested_install_on_persistent_pools_is_bit_identical() {
    let problem =
        std::sync::Arc::new(DecomposedProblem::build(&DecompositionSpec::small_heat_2d()));
    let solve = || {
        let mut solver = TotalFetiSolver::new(
            std::sync::Arc::clone(&problem),
            DualOperatorApproach::ExplicitCholmod,
            None,
            PcpgOptions::default(),
        )
        .unwrap();
        solver.solve().unwrap()
    };
    let plain = with_threads(4, solve);
    let outer = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let inner = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let nested = outer.install(|| {
        assert_eq!(rayon::current_num_threads(), 2, "outer install must be ambient");
        let s = inner.install(|| {
            assert_eq!(rayon::current_num_threads(), 4, "inner install must override");
            solve()
        });
        assert_eq!(rayon::current_num_threads(), 2, "outer configuration must be restored");
        s
    });
    assert_eq!(plain.iterations, nested.iterations, "nested install: iteration counts");
    let approach = DualOperatorApproach::ExplicitCholmod;
    assert_bits_eq("small heat 2D", approach, "nested lambda", &plain.lambda, &nested.lambda);
    assert_bits_eq(
        "small heat 2D",
        approach,
        "nested global solution",
        &plain.global_solution,
        &nested.global_solution,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Batched application equals column-by-column application **exactly** for every
    // approach, over random batch widths and worker-thread counts.
    #[test]
    fn apply_many_equals_columnwise_apply_for_random_widths_and_threads(
        width in 1usize..6,
        threads in 1usize..5,
        approach_index in 0usize..DualOperatorApproach::all().len(),
    ) {
        let approach = DualOperatorApproach::all()[approach_index];
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let nl = problem.num_lambdas;
        let mut p = feti_sparse::DenseMatrix::zeros(nl, width, feti_sparse::MemoryOrder::ColMajor);
        for j in 0..width {
            for i in 0..nl {
                p.set(i, j, ((i * 7 + j * 13) % 23) as f64 * 0.17 - 1.9);
            }
        }
        with_threads(threads, || {
            let mut op = build_dual_operator(approach, &problem, None).unwrap();
            op.preprocess().unwrap();
            let mut q_many = feti_sparse::DenseMatrix::zeros(
                nl,
                width,
                feti_sparse::MemoryOrder::ColMajor,
            );
            op.apply_many(&p, &mut q_many);
            for j in 0..width {
                let mut q = vec![0.0; nl];
                op.apply(&p.col(j), &mut q);
                for (i, v) in q.iter().enumerate() {
                    assert_eq!(
                        v.to_bits(),
                        q_many.get(i, j).to_bits(),
                        "{approach:?} threads={threads} width={width} column {j} row {i}"
                    );
                }
            }
        });
    }
}
