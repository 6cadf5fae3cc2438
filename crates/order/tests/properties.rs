//! Property tests of the approximate-minimum-degree ordering on random symmetric
//! patterns: every result is a permutation, repeatable, and rows dense enough to be set
//! aside come last.

use feti_order::amd::approximate_minimum_degree;
use feti_order::graph::AdjGraph;
use feti_sparse::CooMatrix;
use proptest::prelude::*;

/// The symmetric pattern on `n` vertices with the given off-diagonal pairs (reduced
/// modulo `n`, self loops dropped) plus `dense` vertices adjacent to every other
/// vertex; isolated vertices and several components arise by chance.
fn pattern(n: usize, pairs: &[(usize, usize)], dense: usize) -> AdjGraph {
    let total = n + dense;
    let mut coo = CooMatrix::new(total, total);
    for v in 0..total {
        coo.push(v, v, 1.0);
    }
    for &(a, b) in pairs {
        coo.push(a % n, b % n, 1.0);
        coo.push(b % n, a % n, 1.0);
    }
    for d in n..total {
        for v in (0..total).filter(|&v| v != d) {
            coo.push(d, v, 1.0);
            coo.push(v, d, 1.0);
        }
    }
    AdjGraph::from_pattern(&coo.to_csr())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn amd_orders_every_vertex_of_a_random_pattern_once(
        n in 1usize..300,
        pairs in proptest::collection::vec((0usize..300, 0usize..300), 0..900),
        dense in 0usize..3,
    ) {
        let g = pattern(n, &pairs, dense);
        let total = g.num_vertices();
        let p = approximate_minimum_degree(&g);
        let mut seen = vec![false; total];
        for &v in p.new_to_old() {
            prop_assert!(!seen[v], "vertex {} ordered twice", v);
            seen[v] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(approximate_minimum_degree(&g).new_to_old(), p.new_to_old());
        // A row with more than max(16, 10 √n) entries is ordered after every other.
        let threshold = (10.0 * (total as f64).sqrt()).max(16.0);
        if dense > 0 && (total - 1) as f64 > threshold {
            let mut last: Vec<usize> = p.new_to_old()[total - dense..].to_vec();
            last.sort_unstable();
            prop_assert_eq!(last, (n..total).collect::<Vec<_>>());
        }
    }
}
