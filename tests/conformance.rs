//! Cross-approach conformance suite: every dual-operator approach of Table III must
//! agree with the implicit CPU reference operator — on the raw operator action `F·p`,
//! and on the solution PCPG converges to — for heat transfer in 2D and 3D and linear
//! elasticity in 2D.  The suite also pins the planner's acceptance criterion: for the
//! Fig. 6 problem sizes the planned pick stays within 2x of the exhaustive modelled
//! optimum.

mod common;

use common::problems;
use feti_core::planner::Planner;
use feti_core::{
    build_dual_operator, DualOperatorApproach, ExplicitAssemblyParams, FetiError, PcpgOptions,
    TotalFetiSolver,
};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_gpu::GpuSpec;
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_solver::{CholeskyFactor, FactorizationKind, OrderingKind, SolverOptions};
use feti_sparse::{blas, ops, Transpose};

/// `F·p` of every approach must match the implicit CPU reference within 1e-9 relative
/// error.
#[test]
fn every_approach_applies_the_same_operator() {
    for (name, spec) in problems() {
        let problem = DecomposedProblem::build(&spec);
        let nl = problem.num_lambdas;
        let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
        let mut reference_op =
            build_dual_operator(DualOperatorApproach::ImplicitCholmod, &problem, None).unwrap();
        reference_op.preprocess().unwrap();
        let mut q_ref = vec![0.0; nl];
        reference_op.apply(&p, &mut q_ref);
        let ref_norm = blas::norm2(&q_ref);
        assert!(ref_norm > 0.0, "{name}: reference action must be nontrivial");
        for approach in DualOperatorApproach::all() {
            let mut op = build_dual_operator(approach, &problem, None).unwrap();
            op.preprocess().unwrap();
            let mut q = vec![0.0; nl];
            op.apply(&p, &mut q);
            let diff: Vec<f64> = q.iter().zip(&q_ref).map(|(a, b)| a - b).collect();
            let rel = blas::norm2(&diff) / ref_norm;
            assert!(rel < 1e-9, "{name} {approach:?}: relative F·p error {rel:e}");
        }
    }
}

/// PCPG must converge to the same primal solution through every approach.
#[test]
fn every_approach_converges_to_the_same_solution() {
    let mut reordered_factors_differ = false;
    for (name, spec) in problems() {
        // One shared handle for the whole approach sweep: solver construction clones
        // the Arc, not the decomposed problem.
        let problem = std::sync::Arc::new(DecomposedProblem::build(&spec));
        let mut reference_solver = TotalFetiSolver::new(
            std::sync::Arc::clone(&problem),
            DualOperatorApproach::ImplicitCholmod,
            None,
            PcpgOptions::default(),
        )
        .unwrap();
        let reference = reference_solver.solve().unwrap();
        let ref_norm = blas::norm2(&reference.global_solution).max(f64::MIN_POSITIVE);
        for approach in DualOperatorApproach::all() {
            let mut solver = TotalFetiSolver::new(
                std::sync::Arc::clone(&problem),
                approach,
                None,
                PcpgOptions::default(),
            )
            .unwrap();
            let sol = solver.solve().unwrap();
            assert!(sol.final_residual < 1e-8, "{name} {approach:?} must converge");
            let diff: Vec<f64> = sol
                .global_solution
                .iter()
                .zip(&reference.global_solution)
                .map(|(a, b)| a - b)
                .collect();
            let rel = blas::norm2(&diff) / ref_norm;
            assert!(rel < 1e-6, "{name} {approach:?}: relative solution error {rel:e}");
            assert!(
                problem.interface_jump(&sol.subdomain_solutions) < 1e-6,
                "{name} {approach:?}: interface continuity"
            );
        }
        // The caller's solver options reach the factor behind `d` and the recovery —
        // its kernel and pivot tolerance — but not its ordering: every `Kᵢ` is ordered
        // by the approach, so asking for another ordering changes no bit, and the
        // recovered `uᵢ = K⁺(fᵢ − B̃ᵢᵀλ̃ᵢ) + Rᵢαᵢ` is, to the bit, the solve of a factor
        // made under `approach.ordering()`.
        let caller = SolverOptions {
            ordering: OrderingKind::ReverseCuthillMcKee,
            factorization: FactorizationKind::Simplicial,
            ..SolverOptions::default()
        };
        for approach in
            [DualOperatorApproach::ImplicitCholmod, DualOperatorApproach::ExplicitCholmod]
        {
            let solve = |opts| {
                let problem = std::sync::Arc::clone(&problem);
                let options = PcpgOptions::default();
                TotalFetiSolver::new_with_solver_options(problem, approach, None, opts, options)
                    .unwrap()
                    .solve()
            };
            let by_default = solve(SolverOptions::default()).unwrap();
            let sol = solve(caller).unwrap();
            assert_eq!(sol.iterations, by_default.iterations, "{name} {approach:?}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&sol.lambda), bits(&by_default.lambda), "{name} {approach:?}");
            let own = SolverOptions { ordering: approach.ordering(), ..caller };
            let kernel_dim = sol.alpha.len() / problem.subdomains.len();
            for (s, sd) in problem.subdomains.iter().enumerate() {
                let lambda_local: Vec<f64> = sd.lambda_map.iter().map(|&g| sol.lambda[g]).collect();
                let mut rhs = sd.assembled.load.clone();
                ops::spmv_csr(-1.0, &sd.gluing, Transpose::Yes, &lambda_local, 1.0, &mut rhs);
                let mut u = CholeskyFactor::new(&sd.k_reg, &own).unwrap().solve(&rhs);
                let by_caller = CholeskyFactor::new(&sd.k_reg, &caller).unwrap();
                reordered_factors_differ |= by_caller.solve(&rhs) != u;
                for c in 0..kernel_dim {
                    blas::axpy(sol.alpha[s * kernel_dim + c], &sd.kernel.col(c), &mut u);
                }
                assert_eq!(u, sol.subdomain_solutions[s], "{name} {approach:?}: recovery of {s}");
            }
            // A pivot tolerance no pivot passes fails the factorization, typed.
            let refusing = SolverOptions { pivot_tolerance: f64::INFINITY, ..caller };
            let refused = solve(refusing).expect_err("no pivot passes an infinite tolerance");
            assert!(matches!(refused, FetiError::Factorization(_)), "{name} {approach:?}");
        }
    }
    assert!(
        reordered_factors_differ,
        "the caller's ordering must not be the approach's in disguise"
    );
}

/// FNV-1a over the bit patterns of `values`.
fn bits_hash(values: &[f64]) -> u64 {
    values.iter().flat_map(|v| v.to_bits().to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The PCPG trajectory to the bit: iteration count, final residual and the converged
/// multipliers of three approaches on the three families, recorded before the
/// boundary-restricted preconditioner and the four-row SYMV went in — the implicit rows
/// re-recorded once, when the implicit approaches moved to approximate minimum degree
/// (same iteration counts).  A kernel that reorders one floating-point sum moves these.
#[test]
fn pcpg_trajectories_are_pinned_to_the_bit() {
    use DualOperatorApproach::{ExplicitCholmod, ExplicitGpuModern, ImplicitCholmod};
    let pins: [(&str, DualOperatorApproach, usize, u64, u64); 9] = [
        ("heat/2D", ImplicitCholmod, 20, 0x3dfa3ff68720e67e, 0xc65d1d6bf4578fd6),
        ("heat/2D", ExplicitCholmod, 20, 0x3dfa3f247dc17ea6, 0xc081c6e4a69f7035),
        ("heat/2D", ExplicitGpuModern, 20, 0x3dfa3f247dc17ea6, 0xc081c6e4a69f7035),
        ("heat/3D", ImplicitCholmod, 83, 0x3e05e2affde684b5, 0x9e4e1ba723a6eb9a),
        ("heat/3D", ExplicitCholmod, 83, 0x3e058cb964830448, 0x66e698adad4eb10b),
        ("heat/3D", ExplicitGpuModern, 83, 0x3e058cb964830448, 0x66e698adad4eb10b),
        ("elasticity/2D", ImplicitCholmod, 28, 0x3df87841cbfd8564, 0x0f4bd8ede802ca15),
        ("elasticity/2D", ExplicitCholmod, 28, 0x3df27cea8d7c8c09, 0xc04274686a832271),
        ("elasticity/2D", ExplicitGpuModern, 28, 0x3df27cea8d7c8c09, 0xc04274686a832271),
    ];
    for (name, spec) in problems() {
        let problem = std::sync::Arc::new(DecomposedProblem::build(&spec));
        for approach in [ImplicitCholmod, ExplicitCholmod, ExplicitGpuModern] {
            let mut solver = TotalFetiSolver::new(
                std::sync::Arc::clone(&problem),
                approach,
                None,
                PcpgOptions::default(),
            )
            .unwrap();
            let sol = solver.solve().unwrap();
            let got = (sol.iterations, sol.final_residual.to_bits(), bits_hash(&sol.lambda));
            let pin = pins.iter().find(|p| p.0 == name && p.1 == approach).expect("a pin");
            assert_eq!(
                got,
                (pin.2, pin.3, pin.4),
                "{name} {approach:?}: got (\"{name}\", {approach:?}, {}, {:#018x}, {:#018x})",
                got.0,
                got.1,
                got.2
            );
        }
    }
}

/// Acceptance criterion of the planner: for the Fig. 6 problem sizes, the planned
/// pick's modelled amortized total stays within 2x of the exhaustive modelled optimum
/// over every approach × Table-I parameter combination — both for the full-sweep plan
/// and for the pruned auto-configured plan.
#[test]
fn planner_pick_is_within_2x_of_the_exhaustive_modelled_optimum() {
    let fig6_specs: Vec<DecompositionSpec> = [3usize, 6]
        .iter()
        .map(|&nel| DecompositionSpec {
            dim: Dim::Two,
            physics: Physics::HeatTransfer,
            order: ElementOrder::Linear,
            subdomains_per_side: 2,
            elements_per_subdomain_side: nel,
            subdomains_per_cluster: 4,
        })
        .chain([2usize, 3].iter().map(|&nel| DecompositionSpec {
            dim: Dim::Three,
            physics: Physics::HeatTransfer,
            order: ElementOrder::Quadratic,
            subdomains_per_side: 2,
            elements_per_subdomain_side: nel,
            subdomains_per_cluster: 8,
        }))
        .collect();
    for spec in fig6_specs {
        let problem = DecomposedProblem::build(&spec);
        let planner = Planner::new(&problem, GpuSpec::a100_40gb());
        for iterations in [1usize, 10, 100, 1000, 10_000] {
            // Exhaustive modelled optimum: every approach × every Table-I combination.
            let mut optimum = f64::INFINITY;
            for approach in DualOperatorApproach::all() {
                for params in ExplicitAssemblyParams::all_combinations() {
                    let c = planner.estimate(approach, params);
                    if c.fits_device_memory {
                        optimum = optimum.min(c.total_seconds(iterations));
                    }
                }
            }
            for (label, plan) in
                [("full", planner.plan(iterations)), ("auto", planner.plan_auto(iterations))]
            {
                let pick = plan.best().total_seconds(iterations);
                assert!(
                    pick <= 2.0 * optimum,
                    "{:?} {} dofs, {iterations} iterations, {label} plan: pick {pick:e} vs \
                     optimum {optimum:e}",
                    spec.dim,
                    spec.dofs_per_subdomain()
                );
            }
        }
    }
}
