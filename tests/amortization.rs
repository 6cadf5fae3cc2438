//! Integration tests of the paper's qualitative timing claims under the simulated
//! device model: explicit application is faster than implicit and the GPU explicit
//! approach amortizes after a finite number of iterations for 3D problems (Fig. 5–7,
//! measured runs), and the design findings of Fig. 2–4 and Table II, priced by the
//! planner over the paper's four problem families.
//!
//! The design findings are claims about device kernels, so they are asserted on
//! [`Planner::estimate`], whose device side is the program the operator executes: no
//! host wall time enters them and they are deterministic.  The sweep is the 2D
//! families at 3/6/12/20 and the 3D families at 2/3/4/6 elements per subdomain side,
//! with both CUDA generations: 32 cases.

use feti_bench::{build_problem, measure_approach};
use feti_core::planner::{HostSpec, Planner};
use feti_core::{DualOperatorApproach, ExplicitAssemblyParams, FactorStorage, Path, ScatterGather};
use feti_decompose::DecomposedProblem;
use feti_gpu::{CudaGeneration, GpuSpec};
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_sparse::MemoryOrder;
use std::sync::OnceLock;

#[test]
fn explicit_gpu_application_is_faster_than_implicit_cpu_application() {
    let problem = build_problem(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 3);
    let implicit = measure_approach(&problem, DualOperatorApproach::ImplicitCholmod, None);
    let explicit = measure_approach(&problem, DualOperatorApproach::ExplicitGpuLegacy, None);
    assert!(
        explicit.apply.total_seconds < implicit.apply.total_seconds,
        "explicit GPU apply ({:.3e}s) must beat implicit CPU apply ({:.3e}s)",
        explicit.apply.total_seconds,
        implicit.apply.total_seconds
    );
    // ... and its preprocessing carries the additional device-side assembly work that
    // creates the amortization point (the implicit approach submits no device kernels
    // during preprocessing).
    assert!(explicit.preprocessing.gpu_seconds > implicit.preprocessing.gpu_seconds);
    assert!(explicit.preprocessing.gpu_seconds > 0.0);
}

#[test]
fn amortization_point_is_finite_for_3d_problems() {
    let problem = build_problem(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 3);
    let implicit = measure_approach(&problem, DualOperatorApproach::ImplicitCholmod, None);
    let explicit = measure_approach(&problem, DualOperatorApproach::ExplicitGpuLegacy, None);
    let amortization = (1..100_000)
        .find(|&it| explicit.total_ms_per_subdomain(it) < implicit.total_ms_per_subdomain(it));
    assert!(
        amortization.is_some(),
        "the explicit GPU approach must eventually amortize its preprocessing"
    );
}

#[test]
fn hybrid_matches_the_paper_role_of_fast_apply_but_cpu_assembly() {
    let problem = build_problem(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 3);
    let hybrid = measure_approach(&problem, DualOperatorApproach::ExplicitHybrid, None);
    let expl_cholmod = measure_approach(&problem, DualOperatorApproach::ExplicitCholmod, None);
    // The hybrid approach applies on the GPU, so its application must not be slower
    // than the CPU explicit application; its assembly tracks the CPU Schur complement.
    assert!(hybrid.apply.total_seconds <= expl_cholmod.apply.total_seconds * 1.5);
    assert!(hybrid.preprocessing.cpu_seconds > 0.0);
}

/// One problem family of the sweep: a planner per problem, in increasing size.
struct Family {
    name: &'static str,
    dim: Dim,
    cases: Vec<Case>,
}

/// One problem of a family and the planner that prices it.
struct Case {
    dofs: usize,
    planner: Planner<'static>,
}

/// The four families of Fig. 2, built and analysed once and shared by the sweeps below
/// (each problem is leaked so that its planner can live in the shared static).
fn families() -> &'static [Family] {
    static FAMILIES: OnceLock<Vec<Family>> = OnceLock::new();
    FAMILIES.get_or_init(|| {
        [
            ("heat 2D", Dim::Two, Physics::HeatTransfer, ElementOrder::Linear, [3, 6, 12, 20]),
            (
                "elasticity 2D",
                Dim::Two,
                Physics::LinearElasticity,
                ElementOrder::Linear,
                [3, 6, 12, 20],
            ),
            ("heat 3D", Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, [2, 3, 4, 6]),
            (
                "elasticity 3D",
                Dim::Three,
                Physics::LinearElasticity,
                ElementOrder::Linear,
                [2, 3, 4, 6],
            ),
        ]
        .into_iter()
        .map(|(name, dim, physics, order, sides)| Family {
            name,
            dim,
            cases: sides
                .into_iter()
                .map(|nel| {
                    let problem = Box::leak(Box::new(build_problem(dim, physics, order, nel)));
                    Case { dofs: problem.spec.dofs_per_subdomain(), planner: planner(problem) }
                })
                .collect(),
        })
        .collect()
    })
}

/// The explicit device approach of each CUDA generation.
const GENERATIONS: [(CudaGeneration, DualOperatorApproach); 2] = [
    (CudaGeneration::Legacy, DualOperatorApproach::ExplicitGpuLegacy),
    (CudaGeneration::Modern, DualOperatorApproach::ExplicitGpuModern),
];

/// A planner on the A100 with two modelled host workers, one stream each.  The device
/// busy times the preprocessing findings compare do not depend on the worker count;
/// the scheduled apply of Fig. 4 does, and two streams keep every problem of the sweep
/// (4 or 8 subdomains) at several subdomains per stream, the regime of the paper's
/// clusters.  With one stream per subdomain, as `FETI_THREADS=4` gives the 2D
/// problems, the per-subdomain host scatter/gather overlaps across streams and wins.
fn planner(problem: &'static DecomposedProblem) -> Planner<'static> {
    Planner::new(problem, GpuSpec::a100_40gb()).with_host_spec(HostSpec::calibrated_for_threads(2))
}

/// The Table-II base of one case: `auto_configure` for its generation and size.
fn table_ii(generation: CudaGeneration, family: &Family, case: &Case) -> ExplicitAssemblyParams {
    ExplicitAssemblyParams::auto_configure(generation, family.dim, case.dofs)
}

/// Fig. 2: the SYRK path assembles faster on the device than the TRSM path, in every
/// case of the sweep (modelled ratio 1.18–1.39, mean 1.28; the paper averages 1.58).
#[test]
fn syrk_path_is_not_slower_than_trsm_path() {
    for family in families() {
        for case in &family.cases {
            let planner = &case.planner;
            for (generation, approach) in GENERATIONS {
                let base = table_ii(generation, family, case);
                let device = |path| {
                    let params = ExplicitAssemblyParams { path, ..base };
                    planner.estimate(approach, params).preprocessing.gpu_seconds
                };
                let (syrk, trsm) = (device(Path::Syrk), device(Path::Trsm));
                assert!(
                    trsm > syrk,
                    "{} {} dofs {generation:?}: TRSM path {trsm:e} s vs SYRK path {syrk:e} s",
                    family.name,
                    case.dofs
                );
            }
        }
    }
}

/// Fig. 3: with modern CUDA the sparse factor loses ground to the dense one as the
/// subdomain grows and loses outright at the largest size of every family; with legacy
/// CUDA sparse storage stays more competitive than with modern at every size.  The
/// heat 3D 343-DOF case, where the modern sparse TRSM is already the slow path, keeps
/// its own check.
#[test]
fn modern_sparse_trsm_is_slower_than_dense_trsm() {
    // Fig. 3's parameter sets: SYRK path, sparse factors row-major, dense column-major.
    let params = |storage| ExplicitAssemblyParams {
        path: Path::Syrk,
        forward_factor_storage: storage,
        backward_factor_storage: storage,
        forward_factor_order: match storage {
            FactorStorage::Sparse => MemoryOrder::RowMajor,
            FactorStorage::Dense => MemoryOrder::ColMajor,
        },
        backward_factor_order: MemoryOrder::ColMajor,
        rhs_order: MemoryOrder::RowMajor,
        scatter_gather: ScatterGather::Gpu,
    };
    for family in families() {
        let mut modern = Vec::new();
        for case in &family.cases {
            let planner = &case.planner;
            let [legacy_ratio, modern_ratio] = GENERATIONS.map(|(_, approach)| {
                let device =
                    |storage| planner.estimate(approach, params(storage)).preprocessing.gpu_seconds;
                device(FactorStorage::Sparse) / device(FactorStorage::Dense)
            });
            let dofs = case.dofs;
            assert!(
                legacy_ratio < modern_ratio,
                "{} {dofs} dofs: sparse/dense legacy {legacy_ratio} vs modern {modern_ratio}",
                family.name
            );
            if family.name == "heat 3D" && dofs == 343 {
                assert!(modern_ratio > 1.0, "heat 3D 343 dofs: modern sparse/dense {modern_ratio}");
            }
            modern.push(modern_ratio);
        }
        assert!(
            modern.windows(2).all(|w| w[0] < w[1]) && modern[modern.len() - 1] > 1.0,
            "{}: modern sparse/dense ratios {modern:?} must rise past 1",
            family.name
        );
    }
}

/// Fig. 4: scattering and gathering the cluster dual vector on the device applies
/// faster than doing it on the host, in every case, and the advantage never grows with
/// the subdomain (modelled host/device ratio ≈ 1.08 in 2D, 1.64 → 1.59 in 3D).
#[test]
fn device_scatter_gather_applies_faster_than_host_scatter_gather() {
    for family in families() {
        for (generation, approach) in GENERATIONS {
            let mut ratios = Vec::new();
            for case in &family.cases {
                let planner = &case.planner;
                let base = table_ii(generation, family, case);
                let apply = |scatter_gather| {
                    let params = ExplicitAssemblyParams { scatter_gather, ..base };
                    planner.estimate(approach, params).apply.total_seconds
                };
                let (host, device) = (apply(ScatterGather::Cpu), apply(ScatterGather::Gpu));
                assert!(
                    device < host,
                    "{} {} dofs {generation:?}: device scatter/gather {device:e} s vs host {host:e} s",
                    family.name,
                    case.dofs
                );
                ratios.push(host / device);
            }
            assert!(
                ratios.windows(2).all(|w| w[1] <= w[0]),
                "{} {generation:?}: host/device apply ratios {ratios:?} must not grow with size",
                family.name
            );
        }
    }
}

/// Table II: among the 64 parameter sets that scatter/gather on the device, the
/// modelled optimum of the device assembly takes the SYRK path in every case, and the
/// Table-II `auto_configure` is within 1.2× of it (worst modelled case 1.18).
#[test]
fn table_ii_optimum_takes_the_syrk_path_and_auto_configure_is_near_it() {
    let combinations: Vec<_> = ExplicitAssemblyParams::all_combinations()
        .into_iter()
        .filter(|p| p.scatter_gather == ScatterGather::Gpu)
        .collect();
    assert_eq!(combinations.len(), 64);
    for family in families() {
        for case in &family.cases {
            let planner = &case.planner;
            let dofs = case.dofs;
            for (generation, approach) in GENERATIONS {
                let device = |params| planner.estimate(approach, params).preprocessing.gpu_seconds;
                let best = |path| {
                    let on_path = combinations.iter().filter(|p| p.path == path);
                    on_path.map(|&p| device(p)).fold(f64::INFINITY, f64::min)
                };
                let (syrk, trsm) = (best(Path::Syrk), best(Path::Trsm));
                assert!(
                    syrk < trsm,
                    "{} {dofs} dofs {generation:?}: best SYRK {syrk:e} s vs best TRSM {trsm:e} s",
                    family.name
                );
                let auto = device(table_ii(generation, family, case));
                assert!(
                    auto <= 1.2 * syrk,
                    "{} {dofs} dofs {generation:?}: auto_configure {auto:e} s vs optimum {syrk:e} s",
                    family.name
                );
            }
        }
    }
}
