//! CHOLMOD-like solver facade: sparse Cholesky with factor extraction.
//!
//! In the paper, CHOLMOD is the only CPU solver that can hand its factors (and the
//! fill-reducing permutation) to the GPU, which makes it the entry point of every
//! GPU-accelerated dual-operator approach.  This facade exposes exactly that: the
//! symbolic/numeric split of §III plus [`CholmodFactor::extract_factor`] — and, for
//! the explicit assembly on the host, [`CholmodFactor::forward_solve_sparse_rhs`],
//! which works on the factor where it lies instead of extracting it.
//!
//! The structure of the factor lives in the shared [`SymbolicCholesky`]; a
//! [`CholmodFactor`] is that analysis plus values, whichever kernel
//! [`SolverOptions::factorization`] names made them — run-blocked by default,
//! column at a time as the oracle — and both give the same bits, so nothing
//! downstream (including the extracted CSC factor the GPU paths consume) can tell.

use crate::chol::{CholeskyFactor, SymbolicCholesky};
use crate::{panel, ForwardPanels, Result, SolverOptions};
use feti_sparse::{CscMatrix, CsrMatrix, DenseMatrix, Permutation};
use std::sync::Arc;

/// Symbolic handle of the CHOLMOD-like solver, created in the preparation phase: one
/// analysis per sparsity pattern, shared by every handle made
/// [from it](Self::from_symbolic) and by every factor they make.
#[derive(Debug, Clone)]
pub struct CholmodLike {
    symbolic: Arc<SymbolicCholesky>,
    options: SolverOptions,
}

/// Numeric factorization produced by [`CholmodLike::factorize`].
#[derive(Debug, Clone)]
pub struct CholmodFactor {
    factor: CholeskyFactor,
}

impl CholmodLike {
    /// Runs the symbolic analysis (ordering, elimination tree, factor pattern).
    #[must_use]
    pub fn analyze(a: &CsrMatrix, options: SolverOptions) -> Self {
        Self::from_symbolic(Arc::new(SymbolicCholesky::analyze(a, &options)), options)
    }

    /// A handle over an analysis made before — of this matrix or of any other with the
    /// same sparsity pattern; `options.ordering` was spent making it.
    #[must_use]
    pub fn from_symbolic(symbolic: Arc<SymbolicCholesky>, options: SolverOptions) -> Self {
        Self { symbolic, options }
    }

    /// Matrix dimension this handle was analysed for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.symbolic.dim()
    }

    /// Predicted number of nonzeros of the factor.
    #[must_use]
    pub fn factor_nnz(&self) -> usize {
        self.symbolic.factor_nnz()
    }

    /// The fill-reducing permutation selected during analysis.
    #[must_use]
    pub fn permutation(&self) -> &Permutation {
        self.symbolic.permutation()
    }

    /// Number of supernodes of the factor (runs of columns sharing one row list);
    /// feeds the planner's cost model.
    #[must_use]
    pub fn num_supernodes(&self) -> usize {
        self.symbolic.num_supernodes()
    }

    /// Numeric factorization of a matrix with the analysed pattern, using the kernel
    /// selected by [`SolverOptions::factorization`].
    ///
    /// # Errors
    /// Propagates [`crate::SolverError`] from the numeric kernel.
    pub fn factorize(&self, a: &CsrMatrix) -> Result<CholmodFactor> {
        Ok(CholmodFactor { factor: CholeskyFactor::factorize(&self.symbolic, a, &self.options)? })
    }
}

impl CholmodFactor {
    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.factor.dim()
    }

    /// Number of nonzeros of `L`.
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

    /// `Y = L⁻¹ P Bᵀ` for a sparse `m x n` matrix `B` (a gluing block): every row of
    /// `B`, permuted, forward-substituted through the factor — the operand whose Gram
    /// matrix [`ForwardPanels::gram`] `= YᵀY = B A⁻¹ Bᵀ` is the paper's SYRK assembly
    /// path (Fig. 2); [`ForwardPanels::to_dense`] spells `Y` out (`n x m`, rows in the
    /// permuted ordering).
    ///
    /// The rows of `B` are solved 32 at a time against the factor's own storage
    /// (nothing is extracted or densified), only the columns of `L` in the
    /// elimination-tree reach of each panel are visited, and only the rows they reach
    /// are kept.
    ///
    /// # Panics
    /// Panics if `b.ncols() != self.dim()`.
    #[must_use]
    pub fn forward_solve_sparse_rhs(&self, b: &CsrMatrix) -> ForwardPanels {
        panel::forward_solve_sparse_rhs(&self.factor, b)
    }

    /// Extracts the Cholesky factor `L` (CSC, lower triangular) and the fill-reducing
    /// permutation such that `P A Pᵀ = L Lᵀ`.
    ///
    /// This mirrors CHOLMOD's ability to expose its factor, which the paper relies on
    /// to feed the GPU assembly.
    #[must_use]
    pub fn extract_factor(&self) -> (CscMatrix, Permutation) {
        (self.factor.factor_csc(), self.factor.permutation().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FactorizationKind;
    use feti_sparse::{CooMatrix, MemoryOrder, Transpose};

    fn spd_matrix(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 3.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
            if i + 4 < n {
                coo.push(i, i + 4, -0.5);
                coo.push(i + 4, i, -0.5);
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
    fn analyze_factorize_solve_roundtrip() {
        let a = spd_matrix(30);
        let solver = CholmodLike::analyze(&a, SolverOptions::default());
        assert_eq!(solver.dim(), 30);
        assert!(solver.factor_nnz() >= 30);
        let f = solver.factorize(&a).unwrap();
        let b: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let x = f.solve(&b);
        let mut r = b.clone();
        feti_sparse::ops::spmv_csr(-1.0, &a, feti_sparse::Transpose::No, &x, 1.0, &mut r);
        assert!(feti_sparse::blas::norm2(&r) < 1e-10);
    }

    #[test]
    fn extracted_factor_reconstructs_permuted_matrix() {
        let a = spd_matrix(20);
        let solver = CholmodLike::analyze(&a, SolverOptions::default());
        let f = solver.factorize(&a).unwrap();
        let (l, p) = f.extract_factor();
        let lcsr = l.to_csr();
        let llt = feti_sparse::ops::spgemm_csr(&lcsr, &lcsr.transposed());
        let pap = p.permute_symmetric(&a);
        let diff = llt
            .to_dense(feti_sparse::MemoryOrder::RowMajor)
            .max_abs_diff(&pap.to_dense(feti_sparse::MemoryOrder::RowMajor));
        assert!(diff < 1e-10);
    }

    #[test]
    fn supernodal_facade_extracts_a_bitwise_identical_factor() {
        let a = spd_matrix(40);
        let simp = CholmodLike::analyze(
            &a,
            SolverOptions {
                factorization: FactorizationKind::Simplicial,
                ..SolverOptions::default()
            },
        );
        let sup = CholmodLike::analyze(
            &a,
            SolverOptions {
                factorization: FactorizationKind::Supernodal,
                ..SolverOptions::default()
            },
        );
        assert!(sup.num_supernodes() >= 1);
        assert!(sup.num_supernodes() <= sup.dim());
        let (l1, p1) = simp.factorize(&a).unwrap().extract_factor();
        let (l2, p2) = sup.factorize(&a).unwrap().extract_factor();
        assert_eq!(p1.new_to_old(), p2.new_to_old());
        assert_eq!(l1.col_ptr(), l2.col_ptr());
        assert_eq!(l1.row_idx(), l2.row_idx());
        let bits1: Vec<u64> = l1.values().iter().map(|v| v.to_bits()).collect();
        let bits2: Vec<u64> = l2.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits1, bits2);
    }

    #[test]
    fn factorize_can_be_repeated_with_new_values() {
        let a = spd_matrix(25);
        let solver = CholmodLike::analyze(&a, SolverOptions::default());
        let f1 = solver.factorize(&a).unwrap();
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 3.0;
        }
        let f2 = solver.factorize(&a2).unwrap();
        assert_eq!(f1.nnz(), f2.nnz());
    }

    #[test]
    fn schur_complement_matches_dense_computation() {
        let (n, m) = (30, 8);
        let a = spd_matrix(n);
        let b = gluing(m, n);
        let f = CholmodLike::analyze(&a, SolverOptions::default()).factorize(&a).unwrap();
        let s = f.forward_solve_sparse_rhs(&b).gram();

        // Reference: S = B * A^{-1} * B^T computed densely via solve_matrix.
        let bt_dense = b.transposed().to_dense(MemoryOrder::ColMajor);
        let ainv_bt = f.solve_matrix(&bt_dense);
        let mut s_ref = DenseMatrix::zeros(m, m, MemoryOrder::RowMajor);
        feti_sparse::ops::spmm_csr_dense(1.0, &b, Transpose::No, &ainv_bt, 0.0, &mut s_ref);

        assert!(s.max_abs_diff(&s_ref) < 1e-9, "diff = {}", s.max_abs_diff(&s_ref));
    }

    #[test]
    fn schur_complement_is_symmetric_positive_semidefinite() {
        let (n, m) = (25, 6);
        let a = spd_matrix(n);
        let b = gluing(m, n);
        let f = CholmodLike::analyze(&a, SolverOptions::default()).factorize(&a).unwrap();
        let s = f.forward_solve_sparse_rhs(&b).gram();
        for i in 0..m {
            for j in 0..m {
                assert!((s.get(i, j) - s.get(j, i)).abs() < 1e-12);
            }
            assert!(s.get(i, i) >= -1e-12, "diagonal must be nonnegative");
        }
    }
}
