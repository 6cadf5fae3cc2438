//! The permutations of the benchmark's three kinds of subdomain graph, pinned by hash:
//! the ordering decides the fill, the elimination tree and with them every bit
//! downstream, so a change to `feti-order` that is meant to be a pure speed-up must
//! leave these permutations exactly as they were.  Nested dissection orders the
//! explicit approaches' factors, approximate minimum degree the implicit ones'.

use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_order::{compute_ordering, OrderingKind};
use feti_solver::{SolverOptions, SymbolicCholesky};

/// FNV-1a over the permutations (new-to-old) of every subdomain, in index order.
fn permutation_hash(problem: &DecomposedProblem, ordering: OrderingKind) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for sd in &problem.subdomains {
        let p = compute_ordering(&sd.k_reg, ordering);
        for byte in p.new_to_old().iter().flat_map(|&v| (v as u64).to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn spec(
    dim: Dim,
    physics: Physics,
    order: ElementOrder,
    subdomains_per_side: usize,
    elements_per_subdomain_side: usize,
) -> DecompositionSpec {
    let subdomains_per_cluster = subdomains_per_side.pow(if dim == Dim::Two { 2 } else { 3 });
    DecompositionSpec {
        dim,
        physics,
        order,
        subdomains_per_side,
        elements_per_subdomain_side,
        subdomains_per_cluster,
    }
}

/// `heat3d_*` (8 × 2197 vertices), `elast2d_gpu_many` (64 × 1250) and the largest 2D
/// heat geometry of `service_mixed` (4 × 289).
fn benchmark_graphs() -> [(&'static str, DecompositionSpec); 3] {
    [
        ("heat 3D", spec(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2, 6)),
        ("elasticity 2D", spec(Dim::Two, Physics::LinearElasticity, ElementOrder::Linear, 8, 24)),
        ("heat 2D", spec(Dim::Two, Physics::HeatTransfer, ElementOrder::Linear, 2, 16)),
    ]
}

#[test]
fn nested_dissection_of_the_benchmark_graphs_is_pinned() {
    // Recorded while `nd` still rebuilt every induced subgraph through a hash map.
    let pins = [0xfe34_55a6_2ec1_a195u64, 0x1337_ccd3_cf65_5725, 0x0bc5_732c_7698_c9a5];
    for ((name, spec), pinned) in benchmark_graphs().into_iter().zip(pins) {
        let problem = DecomposedProblem::build(&spec);
        assert_eq!(permutation_hash(&problem, OrderingKind::NestedDissection), pinned, "{name}");
    }
}

#[test]
fn approximate_minimum_degree_of_the_benchmark_graphs_is_pinned() {
    // Recorded when AMD replaced the exact minimum degree.
    let pins = [0x754c_e1c9_6482_ac01u64, 0xa32a_5c20_42a6_6f25, 0xf30e_ef9b_58e3_5065];
    let got = benchmark_graphs().map(|(_, spec)| {
        permutation_hash(&DecomposedProblem::build(&spec), OrderingKind::MinimumDegree)
    });
    assert_eq!(got, pins, "got {got:#018x?}");
}

/// Summed `nnz(L)` of every subdomain of `problem` analysed under `ordering`.
fn factor_nnz(problem: &DecomposedProblem, ordering: OrderingKind) -> usize {
    let opts = SolverOptions { ordering, ..SolverOptions::default() };
    let analyses = problem.subdomains.iter().map(|sd| SymbolicCholesky::analyze(&sd.k_reg, &opts));
    analyses.map(|s| s.factor_nnz()).sum()
}

#[test]
fn approximate_minimum_degree_fills_like_exact_minimum_degree_on_the_benchmark_graphs() {
    // The exact (clique-forming) minimum degree AMD replaced filled heat 3D with
    // 2 132 205 entries and elasticity 2D with 2 553 792; nested dissection fills heat
    // 3D with 3 237 394.
    let [(_, heat_3d), (_, elasticity_2d), _] = benchmark_graphs();
    let heat_3d = DecomposedProblem::build(&heat_3d);
    let amd = factor_nnz(&heat_3d, OrderingKind::MinimumDegree);
    assert!(amd as f64 <= 1.05 * 2_132_205.0, "heat 3D: {amd}");
    let nd = factor_nnz(&heat_3d, OrderingKind::NestedDissection);
    assert_eq!(nd, 3_237_394);
    assert!(amd < nd, "heat 3D: AMD {amd} vs nested dissection {nd}");
    let elasticity_2d = DecomposedProblem::build(&elasticity_2d);
    let amd = factor_nnz(&elasticity_2d, OrderingKind::MinimumDegree);
    assert!(amd as f64 <= 1.05 * 2_553_792.0, "elasticity 2D: {amd}");
}
