//! Shared sparse Cholesky kernel: symbolic analysis and up-looking numeric
//! factorization (CSparse-style), plus the triangular solves used by every dual
//! operator approach.

use crate::etree;
use crate::{Result, SolverError, SolverOptions};
use feti_sparse::{CscMatrix, CsrMatrix, DenseMatrix, Permutation};

/// Result of the symbolic analysis phase: fill-reducing permutation, elimination tree
/// and the column pointer of the future factor.
///
/// The symbolic phase only depends on the sparsity pattern, so in a multi-step
/// simulation (Algorithm 2 of the paper) it runs once in the preparation phase and is
/// reused by every numeric refactorization.
#[derive(Debug, Clone)]
pub struct SymbolicCholesky {
    perm: Permutation,
    parent: Vec<usize>,
    col_ptr: Vec<usize>,
    /// First column of each supernode plus a final terminator `n` (see
    /// [`etree::fundamental_supernodes`]).
    sn_start: Vec<usize>,
    n: usize,
    /// Stored entries of the analysed matrix.
    pattern_nnz: usize,
}

impl SymbolicCholesky {
    /// Analyses the pattern of the symmetric matrix `a` (full symmetric storage).
    ///
    /// # Panics
    /// Panics if `a` is not square.
    #[must_use]
    pub fn analyze(a: &CsrMatrix, options: &SolverOptions) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "Cholesky requires a square matrix");
        let n = a.nrows();
        let perm = feti_order::compute_ordering(a, options.ordering);
        let permuted = perm.permute_symmetric(a);
        let parent = etree::elimination_tree(&permuted);
        let counts = etree::column_counts(&permuted, &parent);
        let sn_start = etree::fundamental_supernodes(&parent, &counts);
        let mut col_ptr = vec![0usize; n + 1];
        for (k, &c) in counts.iter().enumerate() {
            col_ptr[k + 1] = col_ptr[k] + c;
        }
        Self { perm, parent, col_ptr, sn_start, n, pattern_nnz: a.nnz() }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of nonzeros the factor will have.
    #[must_use]
    pub fn factor_nnz(&self) -> usize {
        *self.col_ptr.last().unwrap_or(&0)
    }

    /// The fill-reducing permutation chosen during analysis.
    #[must_use]
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Elimination tree parents of the permuted matrix.
    #[must_use]
    pub fn parents(&self) -> &[usize] {
        &self.parent
    }

    /// Supernode boundaries: the first column of each supernode plus a final
    /// terminator `n`, so supernode `s` spans columns
    /// `supernodes()[s]..supernodes()[s + 1]` of the permuted factor.
    #[must_use]
    pub fn supernodes(&self) -> &[usize] {
        &self.sn_start
    }

    /// Number of supernodes (column panels with identical structure) of the factor.
    #[must_use]
    pub fn num_supernodes(&self) -> usize {
        self.sn_start.len() - 1
    }

    /// Column pointers of the future factor (length `n + 1`).
    pub(crate) fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Refuses a matrix whose size or number of stored entries differs from the
    /// analysed one: the up-front half of the pattern check of both numeric kernels,
    /// which also refuse an entry that does not fit the column the analysis sized.
    pub(crate) fn check_shape(&self, a: &CsrMatrix) -> Result<()> {
        if a.nrows() != self.n || a.ncols() != self.n {
            return Err(SolverError::PatternMismatch(format!(
                "matrix is {}x{}, symbolic analysis was for {}",
                a.nrows(),
                a.ncols(),
                self.n
            )));
        }
        if a.nnz() != self.pattern_nnz {
            return Err(SolverError::PatternMismatch(format!(
                "matrix stores {} entries, the analysed pattern {}",
                a.nnz(),
                self.pattern_nnz
            )));
        }
        Ok(())
    }
}

/// The error of an entry of row `k` of `L` that has no slot in the analysed factor.
pub(crate) fn outside_analysed_pattern(k: usize, j: usize) -> SolverError {
    SolverError::PatternMismatch(format!("L({k}, {j}) is outside the analysed factor pattern"))
}

/// A numeric Cholesky factorization `P A Pᵀ = L Lᵀ` with `L` stored column-wise.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    perm: Permutation,
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CholeskyFactor {
    /// Performs the numeric factorization of `a` using a previously computed symbolic
    /// analysis.
    ///
    /// # Errors
    /// Returns [`SolverError::NotPositiveDefinite`] if a pivot is not strictly positive
    /// (beyond the configured tolerance) and [`SolverError::PatternMismatch`] if the
    /// matrix differs from the analysed one in size or number of stored entries, or
    /// produces an entry of `L` the analysed pattern has no slot for.
    pub fn factorize(
        symbolic: &SymbolicCholesky,
        a: &CsrMatrix,
        options: &SolverOptions,
    ) -> Result<Self> {
        symbolic.check_shape(a)?;
        let n = symbolic.n;
        let permuted = symbolic.perm.permute_symmetric(a);
        let col_ptr = symbolic.col_ptr.clone();
        let nnz = symbolic.factor_nnz();
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0f64; nnz];
        // `next[j]` is the next free slot in column j of L.
        let mut next = col_ptr.clone();
        let mut x = vec![0f64; n];
        let mut marker = vec![usize::MAX; n];
        let mut stack = vec![0usize; n];

        for k in 0..n {
            // Pattern of row k of L (columns j < k with L(k,j) != 0).
            let top = etree::ereach(&permuted, k, &symbolic.parent, &mut marker, &mut stack);
            // Scatter A(0..=k, k) of the permuted matrix (row k, cols <= k).
            let mut d = 0.0;
            for (&j, &v) in permuted.row_cols(k).iter().zip(permuted.row_values(k)) {
                if j < k {
                    x[j] = v;
                } else if j == k {
                    d = v;
                } else {
                    break;
                }
            }
            // Up-looking elimination along the pattern (topological order).
            for idx in top..n {
                let j = stack[idx];
                let ljj = values[col_ptr[j]];
                let lkj = x[j] / ljj;
                x[j] = 0.0;
                for p in (col_ptr[j] + 1)..next[j] {
                    x[row_idx[p]] -= values[p] * lkj;
                }
                d -= lkj * lkj;
                let p = next[j];
                if p == col_ptr[j + 1] {
                    return Err(outside_analysed_pattern(k, j));
                }
                row_idx[p] = k;
                values[p] = lkj;
                next[j] += 1;
            }
            if d <= options.pivot_tolerance {
                return Err(SolverError::NotPositiveDefinite { index: k, pivot: d });
            }
            // The diagonal is the first entry of its column: an earlier one was stored
            // from a row above `k`, which only a foreign pattern's `ereach` delivers.
            let p = next[k];
            if p != col_ptr[k] {
                return Err(outside_analysed_pattern(row_idx[col_ptr[k]], k));
            }
            row_idx[p] = k;
            values[p] = d.sqrt();
            next[k] += 1;
        }

        Ok(Self { perm: symbolic.perm.clone(), n, col_ptr, row_idx, values })
    }

    /// Convenience: analyse and factorize in one call.
    ///
    /// # Errors
    /// See [`CholeskyFactor::factorize`].
    pub fn new(a: &CsrMatrix, options: &SolverOptions) -> Result<Self> {
        let symbolic = SymbolicCholesky::analyze(a, options);
        Self::factorize(&symbolic, a, options)
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of nonzeros in `L`.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Density of the factor (`nnz / (n * (n + 1) / 2)`).
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.n as f64 * (self.n as f64 + 1.0) / 2.0)
    }

    /// The fill-reducing permutation (`P A Pᵀ = L Lᵀ`).
    #[must_use]
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Returns `L` as a CSC matrix (lower triangular, diagonal first in each column).
    #[must_use]
    pub fn factor_csc(&self) -> CscMatrix {
        // Row indices within a column are emitted in increasing order by construction.
        CscMatrix::from_raw_parts(
            self.n,
            self.n,
            self.col_ptr.clone(),
            self.row_idx.clone(),
            self.values.clone(),
        )
    }

    /// Returns `L` as a CSR matrix (lower triangular).
    #[must_use]
    pub fn factor_csr(&self) -> CsrMatrix {
        self.factor_csc().to_csr()
    }

    /// Row indices and values of column `j` of `L`, diagonal first, rows ascending.
    pub(crate) fn column(&self, j: usize) -> (&[usize], &[f64]) {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[range.clone()], &self.values[range])
    }

    /// Forward substitution: solves `L y = x` in place (in permuted ordering).
    pub fn forward_solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        for j in 0..self.n {
            let xj = x[j] / self.values[self.col_ptr[j]];
            x[j] = xj;
            for p in (self.col_ptr[j] + 1)..self.col_ptr[j + 1] {
                x[self.row_idx[p]] -= self.values[p] * xj;
            }
        }
    }

    /// Backward substitution: solves `Lᵀ x = y` in place (in permuted ordering).
    pub fn backward_solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        for j in (0..self.n).rev() {
            let mut acc = x[j];
            for p in (self.col_ptr[j] + 1)..self.col_ptr[j + 1] {
                acc -= self.values[p] * x[self.row_idx[p]];
            }
            x[j] = acc / self.values[self.col_ptr[j]];
        }
    }

    /// Solves `A x = b` (both in the original ordering).
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut z = self.perm.apply(b);
        self.forward_solve_in_place(&mut z);
        self.backward_solve_in_place(&mut z);
        self.perm.apply_inverse(&z)
    }

    /// Solves `A X = B` column by column for a dense right-hand-side matrix.
    #[must_use]
    pub fn solve_matrix(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(b.nrows(), self.n);
        let mut out = DenseMatrix::zeros(b.nrows(), b.ncols(), b.order());
        for j in 0..b.ncols() {
            let col: Vec<f64> = (0..b.nrows()).map(|i| b.get(i, j)).collect();
            let x = self.solve(&col);
            for i in 0..b.nrows() {
                out.set(i, j, x[i]);
            }
        }
        out
    }

    /// Computes the topological reach of a set of right-hand-side indices over the
    /// pattern of `L` (in permuted ordering): the set of rows that can become nonzero
    /// during a forward solve with that sparse right-hand side, in an order suitable
    /// for the solve.
    #[must_use]
    pub fn reach(&self, rhs_indices: &[usize]) -> Vec<usize> {
        let mut visited = vec![false; self.n];
        let mut order: Vec<usize> = Vec::new();
        // Iterative DFS over the directed graph j -> rows below the diagonal in col j.
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();
        for &start in rhs_indices {
            if visited[start] {
                continue;
            }
            dfs_stack.push((start, self.col_ptr[start] + 1));
            visited[start] = true;
            while let Some((j, mut p)) = dfs_stack.pop() {
                let end = self.col_ptr[j + 1];
                let mut descended = false;
                while p < end {
                    let child = self.row_idx[p];
                    p += 1;
                    if !visited[child] {
                        visited[child] = true;
                        dfs_stack.push((j, p));
                        dfs_stack.push((child, self.col_ptr[child] + 1));
                        descended = true;
                        break;
                    }
                }
                if !descended {
                    order.push(j);
                }
            }
        }
        // Post-order of the DFS gives reverse topological order; reverse it.
        order.reverse();
        order
    }

    /// Sparse-right-hand-side forward solve: solves `L y = b` where `b` is given as
    /// sparse `(index, value)` pairs in the permuted ordering.  The solution is written
    /// into `workspace` (dense, length `n`, assumed zero on entry for the reach
    /// entries) and the visited (possibly nonzero) indices are returned in topological
    /// order.
    ///
    /// This is the sparsity-exploiting kernel behind the PARDISO-like Schur complement
    /// (the `expl mkl` approach of the paper).
    pub fn forward_solve_sparse_rhs(
        &self,
        rhs: &[(usize, f64)],
        workspace: &mut [f64],
    ) -> Vec<usize> {
        assert_eq!(workspace.len(), self.n);
        let indices: Vec<usize> = rhs.iter().map(|&(i, _)| i).collect();
        let order = self.reach(&indices);
        for &(i, v) in rhs {
            workspace[i] += v;
        }
        for &j in &order {
            let xj = workspace[j] / self.values[self.col_ptr[j]];
            workspace[j] = xj;
            if xj != 0.0 {
                for p in (self.col_ptr[j] + 1)..self.col_ptr[j + 1] {
                    workspace[self.row_idx[p]] -= self.values[p] * xj;
                }
            }
        }
        order
    }

    /// Number of floating point operations of the factorization (sum over columns of
    /// `nnz(col)^2`), a useful cost metric for the benches.
    #[must_use]
    pub fn flops(&self) -> f64 {
        (0..self.n)
            .map(|j| {
                let c = (self.col_ptr[j + 1] - self.col_ptr[j]) as f64;
                c * c
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_order::OrderingKind;
    use feti_sparse::CooMatrix;

    /// 2D Laplacian on an `nx x ny` grid (SPD).
    fn laplacian2d(nx: usize, ny: usize) -> CsrMatrix {
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(nx * ny, nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                coo.push(idx(i, j), idx(i, j), 4.0 + 0.1);
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

    fn residual_norm(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        let mut r = b.to_vec();
        feti_sparse::ops::spmv_csr(-1.0, a, feti_sparse::Transpose::No, x, 1.0, &mut r);
        feti_sparse::blas::norm2(&r)
    }

    #[test]
    fn factorization_reconstructs_matrix() {
        let a = laplacian2d(4, 3);
        for ordering in [
            OrderingKind::Natural,
            OrderingKind::ReverseCuthillMcKee,
            OrderingKind::MinimumDegree,
            OrderingKind::NestedDissection,
        ] {
            let opts = SolverOptions { ordering, ..Default::default() };
            let f = CholeskyFactor::new(&a, &opts).unwrap();
            // P A P^T = L L^T  =>  reconstruct and compare.
            let l = f.factor_csr();
            let llt = feti_sparse::ops::spgemm_csr(&l, &l.transposed());
            let pap = f.permutation().permute_symmetric(&a);
            let d1 = llt.to_dense(feti_sparse::MemoryOrder::RowMajor);
            let d2 = pap.to_dense(feti_sparse::MemoryOrder::RowMajor);
            assert!(d1.max_abs_diff(&d2) < 1e-10, "ordering {ordering:?}");
        }
    }

    #[test]
    fn solve_matches_direct_residual() {
        let a = laplacian2d(7, 6);
        let n = a.nrows();
        let f = CholeskyFactor::new(&a, &SolverOptions::default()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let x = f.solve(&b);
        assert!(residual_norm(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = laplacian2d(5, 5);
        let n = a.nrows();
        let f = CholeskyFactor::new(&a, &SolverOptions::default()).unwrap();
        let mut b = DenseMatrix::zeros(n, 3, feti_sparse::MemoryOrder::ColMajor);
        for j in 0..3 {
            for i in 0..n {
                b.set(i, j, ((i + j) as f64 * 0.21).cos());
            }
        }
        let x = f.solve_matrix(&b);
        for j in 0..3 {
            let xcol = x.col(j);
            let bcol = b.col(j);
            assert!(residual_norm(&a, &xcol, &bcol) < 1e-10);
        }
    }

    #[test]
    fn not_positive_definite_detected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        let err = CholeskyFactor::new(&a, &SolverOptions::default()).unwrap_err();
        match err {
            SolverError::NotPositiveDefinite { .. } => {}
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn symbolic_reuse_across_numeric_factorizations() {
        let a = laplacian2d(6, 6);
        let opts = SolverOptions::default();
        let symbolic = SymbolicCholesky::analyze(&a, &opts);
        let f1 = CholeskyFactor::factorize(&symbolic, &a, &opts).unwrap();
        // Scale the values (same pattern) and refactorize with the same symbolic data.
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 2.0;
        }
        let f2 = CholeskyFactor::factorize(&symbolic, &a2, &opts).unwrap();
        assert_eq!(f1.nnz(), f2.nnz());
        let b: Vec<f64> = (0..a.nrows()).map(|i| i as f64).collect();
        let x1 = f1.solve(&b);
        let x2 = f2.solve(&b);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - 2.0 * v).abs() < 1e-9, "solution should halve when A doubles");
        }
    }

    #[test]
    fn sparse_rhs_forward_solve_matches_dense() {
        let a = laplacian2d(6, 5);
        let n = a.nrows();
        let f = CholeskyFactor::new(&a, &SolverOptions::default()).unwrap();
        // Sparse RHS with two entries (already in permuted ordering for this test).
        let rhs = vec![(3usize, 1.5f64), (17usize, -2.0f64)];
        let mut dense_rhs = vec![0.0; n];
        for &(i, v) in &rhs {
            dense_rhs[i] = v;
        }
        let mut ws = vec![0.0; n];
        let reach = f.forward_solve_sparse_rhs(&rhs, &mut ws);
        f.forward_solve_in_place(&mut dense_rhs);
        for i in 0..n {
            assert!((ws[i] - dense_rhs[i]).abs() < 1e-12, "row {i}");
        }
        // Every nonzero of the solution must be inside the reach.
        for i in 0..n {
            if dense_rhs[i].abs() > 0.0 {
                assert!(reach.contains(&i), "nonzero row {i} missing from reach");
            }
        }
    }

    #[test]
    fn pattern_mismatch_reported() {
        let a = laplacian2d(3, 3);
        let symbolic = SymbolicCholesky::analyze(&a, &SolverOptions::default());
        let b = laplacian2d(4, 4);
        let err = CholeskyFactor::factorize(&symbolic, &b, &SolverOptions::default()).unwrap_err();
        assert!(matches!(err, SolverError::PatternMismatch(_)));
    }

    #[test]
    fn fill_reducing_orderings_reduce_nnz_on_grid() {
        let a = laplacian2d(16, 16);
        let natural = CholeskyFactor::new(
            &a,
            &SolverOptions { ordering: OrderingKind::Natural, ..Default::default() },
        )
        .unwrap();
        let nd = CholeskyFactor::new(&a, &SolverOptions::default()).unwrap();
        assert!(
            nd.nnz() < natural.nnz(),
            "nested dissection ({}) should beat natural ({})",
            nd.nnz(),
            natural.nnz()
        );
        assert!(nd.fill_ratio() > 0.0 && nd.fill_ratio() < 1.0);
        assert!(nd.flops() > 0.0);
    }
}
