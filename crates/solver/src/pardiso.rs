//! PARDISO-like solver facade: sparse Cholesky without factor extraction, plus a
//! sparsity-exploiting Schur complement.
//!
//! The paper uses Intel MKL PARDISO in two roles: as the fastest implicit CPU solver,
//! and — through its augmented incomplete factorization — as the CPU baseline for the
//! explicit assembly of `F̃ᵢ` ("expl mkl").  PARDISO does not expose its factors, which
//! is why it cannot feed the GPU assembly; this facade reproduces both the capability
//! (a Schur complement of the bordered matrix `[K B̃ᵀ; B̃ 0]` that exploits the sparsity
//! of `B̃`) and the limitation (no `extract_factor`).

use crate::chol::{CholeskyFactor, SymbolicCholesky};
use crate::{panel, Result, SolverOptions};
use feti_sparse::{CsrMatrix, DenseMatrix};
use std::sync::Arc;

/// Symbolic handle of the PARDISO-like solver.
#[derive(Debug, Clone)]
pub struct PardisoLike {
    symbolic: Arc<SymbolicCholesky>,
    options: SolverOptions,
}

/// Numeric factorization produced by [`PardisoLike::factorize`].
///
/// Unlike [`crate::CholmodFactor`](crate::cholmod::CholmodFactor) the factor itself is
/// private: only solves and Schur complements are available, mirroring MKL PARDISO.
#[derive(Debug, Clone)]
pub struct PardisoFactor {
    factor: CholeskyFactor,
}

impl PardisoLike {
    /// Runs the symbolic analysis (ordering, elimination tree, factor pattern).
    #[must_use]
    pub fn analyze(a: &CsrMatrix, options: SolverOptions) -> Self {
        Self::from_symbolic(Arc::new(SymbolicCholesky::analyze(a, &options)), options)
    }

    /// A handle over an analysis made before — the very object a
    /// [`CholmodLike`](crate::CholmodLike) of the same sparsity pattern wraps.
    #[must_use]
    pub fn from_symbolic(symbolic: Arc<SymbolicCholesky>, options: SolverOptions) -> Self {
        Self { symbolic, options }
    }

    /// Matrix dimension this handle was analysed for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.symbolic.dim()
    }

    /// Predicted number of nonzeros of the (hidden) factor.
    #[must_use]
    pub fn factor_nnz(&self) -> usize {
        self.symbolic.factor_nnz()
    }

    /// Numeric factorization of a matrix with the analysed pattern, using the kernel
    /// selected by [`SolverOptions::factorization`].
    ///
    /// # Errors
    /// Propagates [`crate::SolverError`] from the numeric kernel.
    pub fn factorize(&self, a: &CsrMatrix) -> Result<PardisoFactor> {
        Ok(PardisoFactor { factor: CholeskyFactor::factorize(&self.symbolic, a, &self.options)? })
    }
}

impl PardisoFactor {
    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.factor.dim()
    }

    /// Number of nonzeros of the hidden factor (reported for statistics only).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.factor.nnz()
    }

    /// Solves `A x = b` in the original ordering.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.factor.solve(b)
    }

    /// Solves `A X = B` for a dense right-hand-side matrix.
    #[must_use]
    pub fn solve_matrix(&self, b: &DenseMatrix) -> DenseMatrix {
        self.factor.solve_matrix(b)
    }

    /// Computes the Schur-complement-style dense operator `S = B A⁻¹ Bᵀ`, where `B` is
    /// a (typically very sparse) `m x n` gluing matrix.
    ///
    /// This is the equivalent of MKL PARDISO's augmented incomplete factorization used
    /// by the paper's `expl mkl` approach, computed by the body of the CHOLMOD-like
    /// facade's explicit assembly on the hidden factor: the rows of `B` are
    /// forward-substituted 32 at a time, each panel visiting only the
    /// elimination-tree reach of its right-hand sides, and `S = YᵀY` contracts, for
    /// every pair of panels, only the rows both reached
    /// ([`CholmodFactor::forward_solve_sparse_rhs`](crate::CholmodFactor::forward_solve_sparse_rhs),
    /// [`ForwardPanels::gram`](crate::ForwardPanels::gram)) — the same bits.
    ///
    /// The result is symmetric; both triangles are filled.
    ///
    /// # Panics
    /// Panics if `b.ncols() != self.dim()`.
    #[must_use]
    pub fn schur_complement(&self, b: &CsrMatrix) -> DenseMatrix {
        panel::forward_solve_sparse_rhs(&self.factor, b).gram()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_sparse::{CooMatrix, MemoryOrder, Transpose};

    fn spd_matrix(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
            if i + 3 < n {
                coo.push(i, i + 3, -0.5);
                coo.push(i + 3, i, -0.5);
            }
        }
        coo.to_csr()
    }

    fn gluing(m: usize, n: usize) -> CsrMatrix {
        // +1/-1 rows touching a couple of columns each, like a FETI gluing matrix.
        let mut coo = CooMatrix::new(m, n);
        for r in 0..m {
            let a = (r * 3) % n;
            let b = (r * 3 + 7) % n;
            if a == b {
                coo.push(r, a, 1.0);
            } else {
                coo.push(r, a.min(b), 1.0);
                coo.push(r, a.max(b), -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn solve_has_small_residual() {
        let a = spd_matrix(40);
        let solver = PardisoLike::analyze(&a, SolverOptions::default());
        let f = solver.factorize(&a).unwrap();
        let b: Vec<f64> = (0..40).map(|i| (i as f64 * 0.3).cos()).collect();
        let x = f.solve(&b);
        let mut r = b.clone();
        feti_sparse::ops::spmv_csr(-1.0, &a, Transpose::No, &x, 1.0, &mut r);
        assert!(feti_sparse::blas::norm2(&r) < 1e-10);
    }

    #[test]
    fn schur_complement_matches_dense_computation() {
        let n = 30;
        let m = 8;
        let a = spd_matrix(n);
        let b = gluing(m, n);
        let solver = PardisoLike::analyze(&a, SolverOptions::default());
        let f = solver.factorize(&a).unwrap();
        let s = f.schur_complement(&b);

        // Reference: S = B * A^{-1} * B^T computed densely via solve_matrix.
        let bt_dense = b.transposed().to_dense(MemoryOrder::ColMajor);
        let ainv_bt = f.solve_matrix(&bt_dense);
        let mut s_ref = DenseMatrix::zeros(m, m, MemoryOrder::RowMajor);
        feti_sparse::ops::spmm_csr_dense(1.0, &b, Transpose::No, &ainv_bt, 0.0, &mut s_ref);

        assert!(s.max_abs_diff(&s_ref) < 1e-9, "diff = {}", s.max_abs_diff(&s_ref));
    }

    #[test]
    fn schur_complement_is_symmetric_positive_semidefinite() {
        let n = 25;
        let m = 6;
        let a = spd_matrix(n);
        let b = gluing(m, n);
        let f = PardisoLike::analyze(&a, SolverOptions::default()).factorize(&a).unwrap();
        let s = f.schur_complement(&b);
        for i in 0..m {
            for j in 0..m {
                assert!((s.get(i, j) - s.get(j, i)).abs() < 1e-12);
            }
            assert!(s.get(i, i) >= -1e-12, "diagonal must be nonnegative");
        }
    }

    #[test]
    fn statistics_are_reported() {
        let a = spd_matrix(15);
        let solver = PardisoLike::analyze(&a, SolverOptions::default());
        assert_eq!(solver.dim(), 15);
        assert!(solver.factor_nnz() >= 15);
        let f = solver.factorize(&a).unwrap();
        assert_eq!(f.dim(), 15);
        assert!(f.nnz() >= 15);
    }
}
