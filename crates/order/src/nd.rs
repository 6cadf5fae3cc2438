//! Nested dissection ordering built from BFS vertex separators.
//!
//! This plays the role of METIS in the paper's software stack: it recursively splits
//! the graph with a small separator, orders the two halves first and the separator
//! last, which keeps fill-in low for both 2D and 3D mesh graphs.

use crate::graph::AdjGraph;
use crate::mindeg;
use feti_sparse::Permutation;

/// Below this size subgraphs are ordered with the exact minimum degree of [`mindeg`]
/// instead of recursing.
const LEAF_SIZE: usize = 64;

/// Computes a nested-dissection ordering of `g`.
///
/// The returned permutation maps new indices to old indices.
#[must_use]
pub fn nested_dissection(g: &AdjGraph) -> Permutation {
    let n = g.num_vertices();
    let vertices: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    dissect(g, &vertices, &mut vec![NOT_INDUCED; n], &mut order);
    Permutation::from_vec(order)
}

/// `local_of[v]` of a vertex outside the subgraph being induced.
const NOT_INDUCED: usize = usize::MAX;

/// The subgraph of `g` induced by `vertices`, vertex `vertices[l]` becoming `l` and
/// every adjacency list keeping the order it has in `g`.  `local_of` is scratch of
/// `g`'s size, all [`NOT_INDUCED`] on entry and again on return.
fn induced_subgraph(g: &AdjGraph, vertices: &[usize], local_of: &mut [usize]) -> AdjGraph {
    for (local, &v) in vertices.iter().enumerate() {
        local_of[v] = local;
    }
    let adj = vertices
        .iter()
        .map(|&v| {
            let induced = g.neighbors(v).iter().map(|&w| local_of[w]);
            induced.filter(|&l| l != NOT_INDUCED).collect()
        })
        .collect();
    for &v in vertices {
        local_of[v] = NOT_INDUCED;
    }
    AdjGraph::from_adjacency(adj)
}

/// Recursively orders the subgraph of `g` induced by `vertices`, appending old indices
/// to `order`.
fn dissect(g: &AdjGraph, vertices: &[usize], local_of: &mut [usize], order: &mut Vec<usize>) {
    if vertices.is_empty() {
        return;
    }
    let sub = induced_subgraph(g, vertices, local_of);
    let split = if vertices.len() <= LEAF_SIZE { None } else { bisect(&sub, vertices) };
    match split {
        // A degenerate separator (e.g. a clique-ish graph) is ordered as a leaf too.
        Some((left, right, sep)) if !left.is_empty() && !right.is_empty() => {
            dissect(g, &left, local_of, order);
            dissect(g, &right, local_of, order);
            order.extend_from_slice(&sep);
        }
        // A leaf: exact minimum degree on the induced subgraph.
        _ => {
            let p = mindeg::minimum_degree(&sub);
            order.extend(p.new_to_old().iter().map(|&local| vertices[local]));
        }
    }
}

/// Splits `sub`, the subgraph induced by `vertices`, into (left, right, separator) using
/// a BFS level-set bisection from a pseudo-peripheral vertex.  Returns `None` if no split
/// is possible.
fn bisect(sub: &AdjGraph, vertices: &[usize]) -> Option<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    // Work on the largest connected component; other components go entirely to "left".
    let comps = sub.connected_components();
    let (largest_idx, _) = comps.iter().enumerate().max_by_key(|(_, c)| c.len())?;
    let mut left: Vec<usize> = Vec::new();
    for (ci, comp) in comps.iter().enumerate() {
        if ci != largest_idx {
            left.extend(comp.iter().map(|&l| vertices[l]));
        }
    }
    let comp = &comps[largest_idx];
    if comp.len() < 3 {
        return None;
    }

    let root = sub.pseudo_peripheral(comp[0]);
    let (levels, ecc) = sub.bfs_levels(root);
    if ecc == 0 {
        return None;
    }
    // Choose the level whose removal best balances the halves.
    let mut level_count = vec![0usize; ecc + 1];
    for l in comp.iter().map(|&v| levels[v]) {
        if l != usize::MAX {
            level_count[l] += 1;
        }
    }
    let total: usize = level_count.iter().sum();
    let mut below = 0usize;
    let mut best_level = 1usize;
    let mut best_imbalance = usize::MAX;
    for (l, &cnt) in level_count.iter().enumerate().take(ecc) {
        if l == 0 {
            below += cnt;
            continue;
        }
        let above = total - below - cnt;
        let imbalance = below.abs_diff(above) + cnt * 2; // prefer small separators too
        if imbalance < best_imbalance && below > 0 && above > 0 {
            best_imbalance = imbalance;
            best_level = l;
        }
        below += cnt;
    }

    let mut right: Vec<usize> = Vec::new();
    let mut sep: Vec<usize> = Vec::new();
    for &lv in comp {
        let v = vertices[lv];
        let l = levels[lv];
        if l < best_level {
            left.push(v);
        } else if l == best_level {
            sep.push(v);
        } else {
            right.push(v);
        }
    }
    Some((left, right, sep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_sparse::{CooMatrix, CsrMatrix};

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
    fn produces_valid_permutation() {
        let a = grid2d(20, 20);
        let g = AdjGraph::from_pattern(&a);
        let p = nested_dissection(&g);
        assert_eq!(p.len(), 400);
        let mut seen = vec![false; 400];
        for &v in p.new_to_old() {
            assert!(!seen[v], "vertex {v} ordered twice");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn handles_small_and_disconnected_graphs() {
        let g = AdjGraph::from_adjacency(vec![vec![], vec![2], vec![1]]);
        let p = nested_dissection(&g);
        assert_eq!(p.len(), 3);
        let g0 = AdjGraph::from_adjacency(vec![]);
        assert_eq!(nested_dissection(&g0).len(), 0);
    }

    #[test]
    fn large_grid_orders_every_vertex_once() {
        let a = grid2d(37, 23);
        let g = AdjGraph::from_pattern(&a);
        let p = nested_dissection(&g);
        let mut sorted = p.new_to_old().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..37 * 23).collect::<Vec<_>>());
    }
}
