//! Fill-reducing orderings for sparse symmetric matrices.
//!
//! The paper relies on CHOLMOD and MKL PARDISO to reduce fill-in before factorizing
//! the regularized subdomain stiffness matrices; CHOLMOD orders with approximate
//! minimum degree (AMD) first and METIS as the fallback.  This crate is the substitute:
//! it provides reverse Cuthill–McKee, approximate minimum degree on a quotient graph
//! ([`amd`]) and a nested-dissection ordering built from BFS separators ([`nd`]), all
//! operating on the sparsity pattern of a [`CsrMatrix`].  The exact, clique-forming
//! minimum degree of the private `mindeg` module only orders the small leaves of nested
//! dissection and serves the tests as a fill oracle.
//!
//! Which ordering suits a factor depends on the sweep that reads it: AMD gives the
//! smallest `L` (two full triangular sweeps per application of the implicit FETI
//! approaches), nested dissection orders a subdomain's boundary late, which the
//! explicit assembly's reach-pruned forward solve exploits.  The quality target is not
//! "as good as METIS" but "good enough that factor density behaves like the paper
//! describes": 2D factors stay sparse, 3D factors densify with subdomain size, and the
//! sparse-vs-dense factor-storage trade-off has a crossover.

#![warn(missing_docs)]

pub mod amd;
pub mod graph;
mod mindeg;
pub mod nd;
pub mod rcm;

use feti_sparse::{CsrMatrix, Permutation};

/// The fill-reducing ordering algorithms available to the solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingKind {
    /// Keep the natural (mesh) ordering.
    Natural,
    /// Reverse Cuthill–McKee: bandwidth-reducing, cheap, decent for 2D problems.
    ReverseCuthillMcKee,
    /// Minimum degree, computed as approximate minimum degree ([`amd`]): greedy fill-in
    /// reduction on a quotient graph, the smallest factors of the orderings here on the
    /// subdomain graphs of this repository.
    MinimumDegree,
    /// Nested dissection by recursive BFS separators: best asymptotic fill for large
    /// 2D/3D meshes; this plays the role of METIS in the paper's software stack.
    NestedDissection,
}

/// Computes a fill-reducing [`Permutation`] for the symmetric pattern of `a`.
///
/// Only the sparsity pattern is used; the values are ignored.  The pattern is
/// symmetrized internally, so either a full symmetric matrix or a single triangle can
/// be passed.
///
/// # Panics
/// Panics if `a` is not square.
#[must_use]
pub fn compute_ordering(a: &CsrMatrix, kind: OrderingKind) -> Permutation {
    assert_eq!(a.nrows(), a.ncols(), "ordering requires a square matrix");
    match kind {
        OrderingKind::Natural => Permutation::identity(a.nrows()),
        OrderingKind::ReverseCuthillMcKee => {
            rcm::reverse_cuthill_mckee(&graph::AdjGraph::from_pattern(a))
        }
        OrderingKind::MinimumDegree => {
            amd::approximate_minimum_degree(&graph::AdjGraph::from_pattern(a))
        }
        OrderingKind::NestedDissection => nd::nested_dissection(&graph::AdjGraph::from_pattern(a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_sparse::CooMatrix;

    fn path_graph(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn all_orderings_are_valid_permutations() {
        let a = path_graph(17);
        for kind in [
            OrderingKind::Natural,
            OrderingKind::ReverseCuthillMcKee,
            OrderingKind::MinimumDegree,
            OrderingKind::NestedDissection,
        ] {
            let p = compute_ordering(&a, kind);
            assert_eq!(p.len(), 17);
            let mut seen = [false; 17];
            for &o in p.new_to_old() {
                assert!(!seen[o]);
                seen[o] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn natural_is_identity() {
        let a = path_graph(5);
        let p = compute_ordering(&a, OrderingKind::Natural);
        assert_eq!(p.new_to_old(), &[0, 1, 2, 3, 4]);
    }
}
