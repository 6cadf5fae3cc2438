//! Greedy minimum-degree ordering on the explicit elimination graph.
//!
//! This is the classical (exact-degree) variant: eliminate a vertex of minimum degree,
//! turn its neighbourhood into a clique, repeat — in hash sets, at a cost that grows
//! with the fill (≈ 0.5 s per 2197-vertex heat 3D subdomain graph).
//! [`OrderingKind::MinimumDegree`](crate::OrderingKind::MinimumDegree) is computed by
//! [`crate::amd`] instead; this variant orders only the leaves of nested dissection
//! (at most 64 vertices, where moving to AMD would change every dissection
//! permutation) and is the fill oracle AMD is tested against.

use crate::graph::AdjGraph;
use feti_sparse::Permutation;
use std::collections::{BinaryHeap, HashSet};

/// Computes a minimum-degree ordering of `g`.
///
/// The returned permutation maps new indices to old indices (elimination order).
#[must_use]
pub fn minimum_degree(g: &AdjGraph) -> Permutation {
    let n = g.num_vertices();
    let mut adj: Vec<HashSet<usize>> =
        (0..n).map(|v| g.neighbors(v).iter().copied().collect::<HashSet<usize>>()).collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);

    // Max-heap over Reverse(degree) => use (Reverse(degree), vertex) min-behaviour via
    // negated ordering: store (degree, vertex) and pop the smallest using Reverse.
    use std::cmp::Reverse;
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((adj[v].len(), v))).collect();

    while let Some(Reverse((deg, v))) = heap.pop() {
        if eliminated[v] || adj[v].len() != deg {
            // Stale heap entry (degree changed since it was pushed) — skip.
            if !eliminated[v] && adj[v].len() != deg {
                heap.push(Reverse((adj[v].len(), v)));
            }
            continue;
        }
        eliminated[v] = true;
        order.push(v);
        // Form the clique among the remaining neighbours of v.
        let nbrs: Vec<usize> = adj[v].iter().copied().filter(|&w| !eliminated[w]).collect();
        for &w in &nbrs {
            adj[w].remove(&v);
        }
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                let (a, b) = (nbrs[i], nbrs[j]);
                if adj[a].insert(b) {
                    adj[b].insert(a);
                }
            }
        }
        for &w in &nbrs {
            heap.push(Reverse((adj[w].len(), w)));
        }
        adj[v].clear();
    }
    Permutation::from_vec(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_sparse::{CooMatrix, CsrMatrix};

    fn star(n: usize) -> AdjGraph {
        // vertex 0 connected to all others
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
        }
        for i in 1..n {
            coo.push(0, i, 1.0);
            coo.push(i, 0, 1.0);
        }
        AdjGraph::from_pattern(&coo.to_csr())
    }

    fn grid2d(nx: usize, ny: usize) -> CsrMatrix {
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(nx * ny, nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                coo.push(idx(i, j), idx(i, j), 4.0);
                if i + 1 < nx {
                    coo.push(idx(i, j), idx(i + 1, j), -1.0);
                    coo.push(idx(i + 1, j), idx(i, j), -1.0);
                }
                if j + 1 < ny {
                    coo.push(idx(i, j), idx(i, j + 1), -1.0);
                    coo.push(idx(i, j + 1), idx(i, j), -1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn star_center_is_not_eliminated_first() {
        let g = star(8);
        let p = minimum_degree(&g);
        // The hub has degree 7, all leaves degree 1; a leaf must be eliminated first and
        // eliminating leaves never introduces fill on a star.
        assert_ne!(p.new_to_old()[0], 0);
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn produces_valid_permutation_on_grid() {
        let a = grid2d(7, 6);
        let g = AdjGraph::from_pattern(&a);
        let p = minimum_degree(&g);
        assert_eq!(p.len(), 42);
        let mut seen = [false; 42];
        for &v in p.new_to_old() {
            assert!(!seen[v]);
            seen[v] = true;
        }
    }

    #[test]
    fn reduces_fill_versus_natural_on_grid() {
        // Count fill produced by symbolic elimination under both orderings.
        fn fill(g: &AdjGraph, p: &Permutation) -> usize {
            let n = g.num_vertices();
            let old_to_new = p.old_to_new();
            let mut adj: Vec<HashSet<usize>> = (0..n)
                .map(|v| g.neighbors(v).iter().copied().collect::<HashSet<usize>>())
                .collect();
            let mut fill = 0usize;
            // eliminate in new order
            for &v in p.new_to_old() {
                let nbrs: Vec<usize> =
                    adj[v].iter().copied().filter(|&w| old_to_new[w] > old_to_new[v]).collect();
                for i in 0..nbrs.len() {
                    for j in (i + 1)..nbrs.len() {
                        let (a, b) = (nbrs[i], nbrs[j]);
                        if adj[a].insert(b) {
                            adj[b].insert(a);
                            fill += 1;
                        }
                    }
                }
            }
            fill
        }
        let a = grid2d(10, 10);
        let g = AdjGraph::from_pattern(&a);
        let nat = Permutation::identity(100);
        let md = minimum_degree(&g);
        assert!(fill(&g, &md) < fill(&g, &nat), "minimum degree should reduce fill");
    }
}
