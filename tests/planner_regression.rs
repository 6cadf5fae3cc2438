//! Regression pin for the heat-3D 125-dof mispick (a recorded violation of the measured
//! planned-vs-exhaustive gate): the planner used to price the host SYMV of the explicit
//! CPU approaches at streaming bandwidth even when the dense `F̃ᵢ` is cache resident,
//! overpricing the host apply ~6× for tiny subdomains and picking the device-apply
//! `expl legacy` instead — whose measured total at 1000 iterations was >3× the measured optimum.
//!
//! The fix is the two-level cache-aware dense roofline in `HostSpec::dense_seconds`.
//! This test pins the exact failing configuration: heat transfer, 3D, quadratic
//! elements, 2 elements per subdomain side (125 DOFs per subdomain), 1000 expected
//! iterations.

use feti_bench::{build_problem, measure_approach, Measurement};
use feti_core::planner::{HostSpec, Planner};
use feti_core::{DualOperatorApproach, ExplicitAssemblyParams};
use feti_gpu::GpuSpec;
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_solver::FactorizationKind;

const ITERATIONS: usize = 1000;

fn measure_robust(
    problem: &feti_decompose::DecomposedProblem,
    approach: DualOperatorApproach,
    params: Option<ExplicitAssemblyParams>,
) -> Measurement {
    let mut best = measure_approach(problem, approach, params);
    for _ in 0..2 {
        let m = measure_approach(problem, approach, params);
        if m.preprocessing.total_seconds < best.preprocessing.total_seconds {
            best.preprocessing = m.preprocessing;
        }
        if m.apply.total_seconds < best.apply.total_seconds {
            best.apply = m.apply;
        }
    }
    best
}

/// Model-level pin (deterministic, thread-count independent in its conclusion): at
/// 125 DOFs per subdomain the dense `F̃ᵢ` is 86×86 ≈ 59 KB — cache resident — so the
/// estimated host-apply cost of the explicit CPU approaches must undercut the
/// device-apply explicit family, and the amortized 1000-iteration pick must be a
/// host-apply explicit approach.
#[test]
fn heat_3d_125dof_1000iter_plans_a_host_apply_explicit_approach() {
    let problem = build_problem(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2);
    assert_eq!(problem.spec.dofs_per_subdomain(), 125, "this pin is about the 125-dof case");
    let planner = Planner::new(&problem, GpuSpec::a100_40gb());
    let plan = planner.plan(ITERATIONS);
    let pick = plan.best();
    assert!(
        pick.approach == DualOperatorApproach::ExplicitCholmod,
        "the 125-dof/1000-iter pick regressed to {:?} — the cache-aware dense roofline \
         must keep the host apply cheaper than shuttling 371-λ vectors through the device",
        pick.approach
    );
    // The inversion that caused the bug, pinned directly: the host-apply estimate of
    // the explicit CPU family must be below the device-apply estimate of the
    // explicit GPU family at this size.
    let host =
        planner.estimate(DualOperatorApproach::ExplicitCholmod, ExplicitAssemblyParams::default());
    let device = planner
        .estimate(DualOperatorApproach::ExplicitGpuLegacy, ExplicitAssemblyParams::default());
    assert!(
        host.apply.total_seconds < device.apply.total_seconds,
        "host apply estimated {} s vs device {} s — tiny dense applies must be cheap",
        host.apply.total_seconds,
        device.apply.total_seconds
    );
}

/// End-to-end pin of the acceptance gate on the exact failing row: the planned
/// pick's measured total at 1000 iterations stays within 2× of the measured optimum
/// over all nine approaches.
#[test]
fn heat_3d_125dof_1000iter_pick_is_within_2x_of_the_measured_optimum() {
    // Wall-clock gates only mean something in an optimized build (host kernels are
    // measured, device kernels are modelled — an unoptimized host loses by the
    // build profile, not the model) and when the worker pool is not oversubscribed:
    // with FETI_THREADS above the machine's parallelism every host-parallel apply
    // pays scheduler churn the cost model cannot (and should not) predict.  CI runs
    // this suite at FETI_THREADS=4 on small runners; the measured gate also runs at
    // the calibrated default in CI's release bit-identity step.
    if cfg!(debug_assertions) {
        eprintln!("skipping measured gate: unoptimized build");
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if feti_core::host_threads() > cores {
        eprintln!("skipping measured gate: {} threads on {cores} cores", feti_core::host_threads());
        return;
    }
    let problem = build_problem(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2);
    let planner = Planner::new(&problem, GpuSpec::a100_40gb());
    let pick = *planner.plan(ITERATIONS).best();
    let pick_measured = measure_robust(&problem, pick.approach, Some(pick.params));
    let best_ms = DualOperatorApproach::all()
        .into_iter()
        .map(|a| measure_robust(&problem, a, None).total_ms_per_subdomain(ITERATIONS))
        .fold(f64::INFINITY, f64::min);
    let pick_ms = pick_measured.total_ms_per_subdomain(ITERATIONS);
    assert!(
        pick_ms <= 2.0 * best_ms,
        "planned {:?} measured {pick_ms:.3} ms/sd vs optimum {best_ms:.3} ms/sd — \
         the heat-3D 125-dof/1000-iter row exceeds the 2x gate again",
        pick.approach
    );
}

/// Pin of the `plan_auto(200)` winners on the six `service_mixed` geometries of the
/// benchmark under the one-thread host model its two-core box runs at.  `host_schur`
/// prices the host assembly with one pass over `L` per multiplier, which its
/// reach-pruned forward solve + panel Gram no longer matches; the
/// term-by-term recalibration of `HostSpec` has to move these picks on purpose.  Every
/// pick names the run-blocked kernel, the one its operator runs.
#[test]
fn service_mixed_geometries_keep_their_plan_auto_winners() {
    use DualOperatorApproach::{ExplicitCholmod, ExplicitSparseGpuLegacy};
    let heat2d = |eps| (Dim::Two, Physics::HeatTransfer, ElementOrder::Linear, eps);
    let heat3d = |eps| (Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, eps);
    for ((dim, physics, order, eps), winner) in [
        (heat2d(8), ExplicitCholmod),
        (heat2d(12), ExplicitCholmod),
        (heat2d(16), ExplicitCholmod),
        (heat3d(2), ExplicitCholmod),
        (heat3d(3), ExplicitSparseGpuLegacy),
        ((Dim::Two, Physics::LinearElasticity, ElementOrder::Linear, 8), ExplicitCholmod),
    ] {
        let problem = build_problem(dim, physics, order, eps);
        let planner = Planner::new(&problem, GpuSpec::a100_40gb())
            .with_host_spec(HostSpec::calibrated_for_threads(1));
        let plan = planner.plan_auto(200);
        let at = format!("{dim:?} {physics:?} {order:?} {eps} elements per side");
        assert_eq!(plan.best().approach, winner, "{at}");
        assert_eq!(plan.best().factorization, FactorizationKind::Supernodal, "{at}");
    }
}
