//! The nested-dissection permutations of the benchmark's three kinds of subdomain graph,
//! pinned by hash: the ordering decides the fill, the elimination tree and with them
//! every bit downstream, so a change to `feti-order::nd` that is meant to be a pure
//! speed-up must leave these permutations exactly as they were.

use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_order::{compute_ordering, OrderingKind};

/// FNV-1a over the permutations (new-to-old) of every subdomain, in index order.
fn permutation_hash(problem: &DecomposedProblem) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for sd in &problem.subdomains {
        let p = compute_ordering(&sd.k_reg, OrderingKind::NestedDissection);
        for byte in p.new_to_old().iter().flat_map(|&v| (v as u64).to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn nested_dissection_of_the_benchmark_graphs_is_pinned() {
    let spec = |dim, physics, order, subdomains_per_side: usize, elements_per_subdomain_side| {
        let subdomains_per_cluster = subdomains_per_side.pow(if dim == Dim::Two { 2 } else { 3 });
        DecompositionSpec {
            dim,
            physics,
            order,
            subdomains_per_side,
            elements_per_subdomain_side,
            subdomains_per_cluster,
        }
    };
    // `heat3d_*` (8 × 2197 vertices), `elast2d_gpu_many` (64 × 1250) and the largest 2D
    // heat geometry of `service_mixed` (4 × 289).
    // Recorded while `nd` still rebuilt every induced subgraph through a hash map.
    let heat_3d = spec(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2, 6);
    let elasticity_2d = spec(Dim::Two, Physics::LinearElasticity, ElementOrder::Linear, 8, 24);
    let heat_2d = spec(Dim::Two, Physics::HeatTransfer, ElementOrder::Linear, 2, 16);
    for (name, spec, pinned) in [
        ("heat 3D", heat_3d, 0xfe34_55a6_2ec1_a195u64),
        ("elasticity 2D", elasticity_2d, 0x1337_ccd3_cf65_5725),
        ("heat 2D", heat_2d, 0x0bc5_732c_7698_c9a5),
    ] {
        let problem = DecomposedProblem::build(&spec);
        assert_eq!(permutation_hash(&problem), pinned, "{name}");
    }
}
