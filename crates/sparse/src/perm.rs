//! Permutations and symmetric permutation of sparse matrices.
//!
//! Fill-reducing orderings (feti-order) produce a [`Permutation`]; the solvers apply it
//! to the regularized stiffness matrix as `P A Pᵀ` before factorization, and to
//! right-hand sides / solutions around the triangular solves.

use crate::csr::CsrMatrix;
use crate::CooMatrix;

/// A permutation of `0..n` together with its inverse.
///
/// `perm[new] = old`: row `new` of the permuted matrix is row `perm[new]` of the
/// original matrix (the "new-to-old" convention used by most sparse direct solvers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<usize>,
    inv: Vec<usize>,
}

impl Permutation {
    /// Identity permutation of size `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let perm: Vec<usize> = (0..n).collect();
        Self { inv: perm.clone(), perm }
    }

    /// Builds a permutation from a new-to-old vector.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    #[must_use]
    pub fn from_vec(perm: Vec<usize>) -> Self {
        let n = perm.len();
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(old < n, "permutation entry {old} out of range");
            assert_eq!(inv[old], usize::MAX, "duplicate permutation entry {old}");
            inv[old] = new;
        }
        Self { perm, inv }
    }

    /// Length of the permutation.
    #[must_use]
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// `true` if the permutation is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// The new-to-old mapping.
    #[must_use]
    pub fn new_to_old(&self) -> &[usize] {
        &self.perm
    }

    /// The old-to-new mapping.
    #[must_use]
    pub fn old_to_new(&self) -> &[usize] {
        &self.inv
    }

    /// Applies the permutation to a vector: `out[new] = x[perm[new]]`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.len()`.
    #[must_use]
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        self.perm.iter().map(|&old| x[old]).collect()
    }

    /// Applies the inverse permutation to a vector: `out[old] = x[inv[old]]`, i.e.
    /// undoes [`Permutation::apply`].
    ///
    /// # Panics
    /// Panics if `x.len() != self.len()`.
    #[must_use]
    pub fn apply_inverse(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        self.inv.iter().map(|&new| x[new]).collect()
    }

    /// Symmetric permutation of a square CSR matrix: returns `P A Pᵀ`, where row `new`
    /// of the result is row `perm[new]` of `A` with columns relabelled accordingly.
    ///
    /// # Panics
    /// Panics if `a` is not square or sizes do not match.
    #[must_use]
    pub fn permute_symmetric(&self, a: &CsrMatrix) -> CsrMatrix {
        assert_eq!(a.nrows(), a.ncols(), "symmetric permutation requires a square matrix");
        assert_eq!(a.nrows(), self.len(), "permutation size does not match matrix");
        let mut coo = CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nnz());
        for (i, j, v) in a.iter() {
            coo.push(self.inv[i], self.inv[j], v);
        }
        coo.to_csr()
    }

    /// Permutes only the columns of a (possibly rectangular) CSR matrix:
    /// `out[:, new] = a[:, perm[new]]`, i.e. returns `A Pᵀ`.
    ///
    /// This is how the gluing matrix `B̃ᵢ` is aligned with the permuted factor.
    ///
    /// # Panics
    /// Panics if `a.ncols() != self.len()`.
    #[must_use]
    pub fn permute_cols(&self, a: &CsrMatrix) -> CsrMatrix {
        assert_eq!(a.ncols(), self.len(), "permutation size does not match column count");
        let mut coo = CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nnz());
        for (i, j, v) in a.iter() {
            coo.push(i, self.inv[j], v);
        }
        coo.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryOrder;

    #[test]
    fn identity_is_noop() {
        let p = Permutation::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(p.apply(&x), x);
        assert_eq!(p.apply_inverse(&x), x);
    }

    #[test]
    fn apply_and_inverse_roundtrip() {
        let p = Permutation::from_vec(vec![2, 0, 1]);
        let x = vec![10.0, 20.0, 30.0];
        let y = p.apply(&x);
        assert_eq!(y, vec![30.0, 10.0, 20.0]);
        assert_eq!(p.apply_inverse(&y), x);
    }

    #[test]
    fn symmetric_permutation_preserves_values() {
        // A = [1 2 0; 2 3 4; 0 4 5]
        let mut coo = CooMatrix::new(3, 3);
        for (i, j, v) in [
            (0, 0, 1.0),
            (0, 1, 2.0),
            (1, 0, 2.0),
            (1, 1, 3.0),
            (1, 2, 4.0),
            (2, 1, 4.0),
            (2, 2, 5.0),
        ] {
            coo.push(i, j, v);
        }
        let a = coo.to_csr();
        let p = Permutation::from_vec(vec![2, 0, 1]);
        let pa = p.permute_symmetric(&a);
        // entry (new_i, new_j) must equal (perm[new_i], perm[new_j]) of A
        for ni in 0..3 {
            for nj in 0..3 {
                assert_eq!(pa.get(ni, nj), a.get(p.new_to_old()[ni], p.new_to_old()[nj]));
            }
        }
    }

    #[test]
    fn column_permutation_matches_dense() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        let a = coo.to_csr();
        let p = Permutation::from_vec(vec![1, 2, 0]);
        let ap = p.permute_cols(&a);
        let ad = a.to_dense(MemoryOrder::RowMajor);
        for i in 0..2 {
            for nj in 0..3 {
                assert_eq!(ap.get(i, nj), ad.get(i, p.new_to_old()[nj]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn invalid_permutation_rejected() {
        let _ = Permutation::from_vec(vec![0, 0, 1]);
    }
}
