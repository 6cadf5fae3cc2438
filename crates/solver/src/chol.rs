//! Shared sparse Cholesky kernel: symbolic analysis — which owns the whole structure
//! of the factor — and up-looking numeric factorization (CSparse-style), column at a
//! time or in runs of supernode columns, plus the triangular solves used by every
//! dual operator approach.

use crate::etree;
use crate::{FactorizationKind, Result, SolverError, SolverOptions};
use feti_sparse::{CscMatrix, CsrMatrix, DenseMatrix, Permutation};
use std::sync::Arc;

/// Result of the symbolic analysis phase: fill-reducing permutation, elimination tree
/// and the structure of the future factor — where each column's values will lie and
/// which rows they belong to.
///
/// The symbolic phase only depends on the sparsity pattern, so in a multi-step
/// simulation (Algorithm 2 of the paper) it runs once in the preparation phase and is
/// reused by every numeric refactorization; a [`CholeskyFactor`] holds its analysis
/// and nothing but values of its own.
#[derive(Debug, Clone)]
pub struct SymbolicCholesky {
    perm: Permutation,
    parent: Vec<usize>,
    /// Offset of each column of `L` in a factor's values (length `n + 1`).
    col_ptr: Vec<usize>,
    /// First column of each supernode plus a final terminator `n` (see
    /// [`etree::fundamental_supernodes`]).
    sn_start: Vec<usize>,
    /// One row list per supernode, concatenated ([`etree::supernode_rows`]).
    rows: Vec<u32>,
    /// Offset in `rows` of the diagonal of each column: column `j` holds the rows
    /// `rows[col_rows[j]..][..col_ptr[j + 1] - col_ptr[j]]`, the tail of its
    /// supernode's list.
    col_rows: Vec<usize>,
    n: usize,
    /// Stored entries of the analysed matrix.
    pattern_nnz: usize,
}

impl SymbolicCholesky {
    /// Analyses the pattern of the symmetric matrix `a` (full symmetric storage).
    ///
    /// # Panics
    /// Panics if `a` is not square or has more than `u32::MAX` rows.
    #[must_use]
    pub fn analyze(a: &CsrMatrix, options: &SolverOptions) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "Cholesky requires a square matrix");
        let n = a.nrows();
        let perm = feti_order::compute_ordering(a, options.ordering);
        let permuted = perm.permute_symmetric(a);
        let parent = etree::elimination_tree(&permuted);
        let counts = etree::column_counts(&permuted, &parent);
        let sn_start = etree::fundamental_supernodes(&parent, &counts);
        let (rows_ptr, rows) = etree::supernode_rows(&permuted, &parent, &counts, &sn_start);
        let mut col_ptr = vec![0usize; n + 1];
        for (k, &c) in counts.iter().enumerate() {
            col_ptr[k + 1] = col_ptr[k] + c;
        }
        let mut col_rows = vec![0usize; n];
        for (s, columns) in sn_start.windows(2).enumerate() {
            for j in columns[0]..columns[1] {
                col_rows[j] = rows_ptr[s] + (j - columns[0]);
            }
        }
        Self { perm, parent, col_ptr, sn_start, rows, col_rows, n, pattern_nnz: a.nnz() }
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

    /// Number of supernodes (runs of columns with nested structure) of the factor.
    #[must_use]
    pub fn num_supernodes(&self) -> usize {
        self.sn_start.len() - 1
    }

    /// Row indices of column `j` of the factor, diagonal first, ascending.
    #[must_use]
    pub fn column_rows(&self, j: usize) -> &[u32] {
        &self.rows[self.col_rows[j]..][..self.col_ptr[j + 1] - self.col_ptr[j]]
    }

    /// Whether the rows of column `j + 1` are those of column `j` below its diagonal,
    /// in place — the two columns are neighbours in one supernode.
    fn extends(&self, j: usize) -> bool {
        let len = |j: usize| self.col_ptr[j + 1] - self.col_ptr[j];
        j + 1 < self.n && self.col_rows[j + 1] == self.col_rows[j] + 1 && len(j + 1) + 1 == len(j)
    }

    /// Refuses a matrix whose size or number of stored entries differs from the
    /// analysed one: the up-front half of the pattern check of both numeric kernels,
    /// which also refuse an entry whose slot the analysis recorded for another row.
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

    /// Applies the columns `ja..ja + G` — neighbours in one supernode — to `x`, as
    /// far as each is filled: `filled` entries of column `ja`, one fewer per column
    /// after it.  Returns the multipliers `l[i] = x[ja + i] / L(ja + i, ja + i)`, each
    /// taken after the columns before it were applied (zero beyond `G`), and leaves
    /// `x[ja..ja + G]` to the caller.
    ///
    /// The triangle among the `G` columns is applied eagerly and the rows below in
    /// one sweep over `G` value streams and one row list, so every target still
    /// receives its subtractions one at a time in ascending column order: the bits of
    /// `G` column-at-a-time updates.
    fn apply_columns<const G: usize>(
        &self,
        values: &[f64],
        ja: usize,
        filled: usize,
        x: &mut [f64],
    ) -> [f64; MAX_RUN] {
        let mut l = [0.0; MAX_RUN];
        for i in 0..G {
            let column = &values[self.col_ptr[ja + i]..];
            l[i] = x[ja + i] / column[0];
            for t in i + 1..G {
                x[ja + t] -= column[t - i] * l[i];
            }
        }
        let rows = &self.rows[self.col_rows[ja]..][G..filled];
        let below: [&[f64]; G] =
            std::array::from_fn(|i| &values[self.col_ptr[ja + i]..][G - i..filled - i]);
        for (p, &r) in rows.iter().enumerate() {
            let mut t = x[r as usize];
            for i in 0..G {
                t -= below[i][p] * l[i];
            }
            x[r as usize] = t;
        }
        l
    }

    /// [`Self::apply_columns`] for a run of `g` columns, `1..=MAX_RUN`.
    fn apply_run(
        &self,
        values: &[f64],
        ja: usize,
        g: usize,
        filled: usize,
        x: &mut [f64],
    ) -> [f64; MAX_RUN] {
        match g {
            1 => self.apply_columns::<1>(values, ja, filled, x),
            2 => self.apply_columns::<2>(values, ja, filled, x),
            3 => self.apply_columns::<3>(values, ja, filled, x),
            _ => self.apply_columns::<MAX_RUN>(values, ja, filled, x),
        }
    }
}

/// Columns of one supernode applied per sweep by the run-blocked kernel and the
/// forward solve.  A constant, not an option: four value streams and the row list fit
/// the load ports, and the numeric factorization of 8 x 2197-DOF heat 3D subdomains
/// took 0.40 s column at a time and 0.23 s in runs of four (DESIGN.md, § "Factor
/// storage and the run-blocked kernel").
const MAX_RUN: usize = 4;

/// The error of an entry of row `k` of `L` that has no slot in the analysed factor.
fn outside_analysed_pattern(k: usize, j: usize) -> SolverError {
    SolverError::PatternMismatch(format!("L({k}, {j}) is outside the analysed factor pattern"))
}

/// An up-looking factorization in progress: the rows of `L` above the current one.
struct Elimination<'a> {
    symbolic: &'a SymbolicCholesky,
    values: Vec<f64>,
    /// The next free slot of each column.
    next: Vec<usize>,
    /// The current row, scattered; zero between rows.
    x: Vec<f64>,
}

impl Elimination<'_> {
    /// The slot of `L(k, j)`: the next free one of column `j`, which must be the one
    /// the analysis recorded for row `k`.  A factor stores no row indices of its own,
    /// so an entry written anywhere else would be read back as another row's.
    fn slot(&self, k: usize, j: usize) -> Result<usize> {
        let s = self.symbolic;
        let p = self.next[j];
        if p == s.col_ptr[j + 1] || s.rows[s.col_rows[j] + (p - s.col_ptr[j])] as usize != k {
            return Err(outside_analysed_pattern(k, j));
        }
        Ok(p)
    }

    /// Row `k` of `L` from the scattered row and its `pattern` (topological order),
    /// one column at a time; returns what is left of the diagonal `d`.
    fn eliminate_by_column(&mut self, k: usize, pattern: &[usize], mut d: f64) -> Result<f64> {
        let s = self.symbolic;
        for &j in pattern {
            let p = self.slot(k, j)?;
            let start = s.col_ptr[j];
            let lkj = self.x[j] / self.values[start];
            self.x[j] = 0.0;
            let rows = &s.rows[s.col_rows[j] + 1..][..p - start - 1];
            for (&r, &v) in rows.iter().zip(&self.values[start + 1..p]) {
                self.x[r as usize] -= v * lkj;
            }
            d -= lkj * lkj;
            self.values[p] = lkj;
            self.next[j] = p + 1;
        }
        Ok(d)
    }

    /// [`Self::eliminate_by_column`] with consecutive pattern entries that are
    /// neighbours in one supernode eliminated up to [`MAX_RUN`] per sweep
    /// ([`SymbolicCholesky::apply_columns`]): the same subtractions in the same order
    /// per target, hence the same bits, pivots and errors.
    fn eliminate_by_runs(&mut self, k: usize, mut pattern: &[usize], mut d: f64) -> Result<f64> {
        let s = self.symbolic;
        while let Some(&ja) = pattern.first() {
            let mut g = 1;
            while g < MAX_RUN && pattern.get(g) == Some(&(ja + g)) && s.extends(ja + g - 1) {
                g += 1;
            }
            let mut slots = [0usize; MAX_RUN];
            for i in 0..g {
                slots[i] = self.slot(k, ja + i)?;
            }
            // Row `k` sits `filled` rows below the diagonal of column `ja`, and — the
            // list being ascending — one fewer below each column after it.
            let filled = slots[0] - s.col_ptr[ja];
            let l = s.apply_run(&self.values, ja, g, filled, &mut self.x);
            for i in 0..g {
                self.x[ja + i] = 0.0;
                d -= l[i] * l[i];
                self.values[slots[i]] = l[i];
                self.next[ja + i] = slots[i] + 1;
            }
            pattern = &pattern[g..];
        }
        Ok(d)
    }
}

/// A numeric Cholesky factorization `P A Pᵀ = L Lᵀ`: the values of `L` column by
/// column, over the structure its [`SymbolicCholesky`] holds.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    symbolic: Arc<SymbolicCholesky>,
    values: Vec<f64>,
}

impl CholeskyFactor {
    /// Performs the numeric factorization of `a` using a previously computed symbolic
    /// analysis, with the kernel [`SolverOptions::factorization`] names.
    ///
    /// # Errors
    /// Returns [`SolverError::NotPositiveDefinite`] if a pivot is not strictly positive
    /// (beyond the configured tolerance) and [`SolverError::PatternMismatch`] if the
    /// matrix differs from the analysed one in size or number of stored entries, or
    /// produces an entry of `L` the analysed pattern has no slot for — the same error
    /// from both kernels.
    pub fn factorize(
        symbolic: &Arc<SymbolicCholesky>,
        a: &CsrMatrix,
        options: &SolverOptions,
    ) -> Result<Self> {
        symbolic.check_shape(a)?;
        let n = symbolic.n;
        let permuted = symbolic.perm.permute_symmetric(a);
        let mut state = Elimination {
            symbolic,
            values: vec![0f64; symbolic.factor_nnz()],
            next: symbolic.col_ptr[..n].to_vec(),
            x: vec![0f64; n],
        };
        let mut marker = vec![usize::MAX; n];
        let mut stack = vec![0usize; n];

        for k in 0..n {
            // Pattern of row k of L (columns j < k with L(k,j) != 0).
            let top = etree::ereach(&permuted, k, &symbolic.parent, &mut marker, &mut stack);
            // Scatter A(0..=k, k) of the permuted matrix (row k, cols <= k).
            let mut d = 0.0;
            for (&j, &v) in permuted.row_cols(k).iter().zip(permuted.row_values(k)) {
                if j < k {
                    state.x[j] = v;
                } else if j == k {
                    d = v;
                } else {
                    break;
                }
            }
            // Up-looking elimination along the pattern (topological order).
            let pattern = &stack[top..n];
            let d = match options.factorization {
                FactorizationKind::Simplicial => state.eliminate_by_column(k, pattern, d)?,
                FactorizationKind::Supernodal => state.eliminate_by_runs(k, pattern, d)?,
            };
            if d <= options.pivot_tolerance {
                return Err(SolverError::NotPositiveDefinite { index: k, pivot: d });
            }
            // The diagonal opens its column: `slot` lets no row above `k` in.
            debug_assert_eq!(state.next[k], symbolic.col_ptr[k]);
            state.values[state.next[k]] = d.sqrt();
            state.next[k] += 1;
        }

        Ok(Self { symbolic: Arc::clone(symbolic), values: state.values })
    }

    /// Convenience: analyse and factorize in one call.
    ///
    /// # Errors
    /// See [`CholeskyFactor::factorize`].
    pub fn new(a: &CsrMatrix, options: &SolverOptions) -> Result<Self> {
        let symbolic = Arc::new(SymbolicCholesky::analyze(a, options));
        Self::factorize(&symbolic, a, options)
    }

    /// The analysis this factor was made over: its whole structure, shared with every
    /// other factor of the same pattern.
    #[must_use]
    pub fn symbolic(&self) -> &Arc<SymbolicCholesky> {
        &self.symbolic
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.symbolic.n
    }

    /// Number of nonzeros in `L`.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Density of the factor (`nnz / (n * (n + 1) / 2)`).
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        let n = self.dim() as f64;
        if n == 0.0 {
            return 0.0;
        }
        self.nnz() as f64 / (n * (n + 1.0) / 2.0)
    }

    /// The fill-reducing permutation (`P A Pᵀ = L Lᵀ`).
    #[must_use]
    pub fn permutation(&self) -> &Permutation {
        &self.symbolic.perm
    }

    /// Returns `L` as a CSC matrix (lower triangular, diagonal first in each column).
    #[must_use]
    pub fn factor_csc(&self) -> CscMatrix {
        let s = &*self.symbolic;
        let row_idx =
            (0..s.n).flat_map(|j| s.column_rows(j)).map(|&r| r as usize).collect::<Vec<_>>();
        CscMatrix::from_raw_parts(s.n, s.n, s.col_ptr.clone(), row_idx, self.values.clone())
    }

    /// Row indices and values of column `j` of `L`, diagonal first, rows ascending.
    pub(crate) fn column(&self, j: usize) -> (&[u32], &[f64]) {
        let s = &*self.symbolic;
        (s.column_rows(j), &self.values[s.col_ptr[j]..s.col_ptr[j + 1]])
    }

    /// Forward substitution: solves `L y = x` in place (in permuted ordering), a
    /// supernode at a time and up to four of its columns per sweep; the bits of the
    /// column-at-a-time substitution.
    pub fn forward_solve_in_place(&self, x: &mut [f64]) {
        let s = &*self.symbolic;
        assert_eq!(x.len(), s.n);
        for columns in s.sn_start.windows(2) {
            for ja in (columns[0]..columns[1]).step_by(MAX_RUN) {
                let g = MAX_RUN.min(columns[1] - ja);
                let l = s.apply_run(&self.values, ja, g, s.col_ptr[ja + 1] - s.col_ptr[ja], x);
                x[ja..ja + g].copy_from_slice(&l[..g]);
            }
        }
    }

    /// Backward substitution: solves `Lᵀ x = y` in place (in permuted ordering).
    pub fn backward_solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.dim());
        for j in (0..self.dim()).rev() {
            let (rows, values) = self.column(j);
            let mut acc = x[j];
            for (&r, &v) in rows[1..].iter().zip(&values[1..]) {
                acc -= v * x[r as usize];
            }
            x[j] = acc / values[0];
        }
    }

    /// Solves `A x = b` (both in the original ordering).
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut z = self.permutation().apply(b);
        self.forward_solve_in_place(&mut z);
        self.backward_solve_in_place(&mut z);
        self.permutation().apply_inverse(&z)
    }

    /// Solves `A X = B` column by column for a dense right-hand-side matrix.
    #[must_use]
    pub fn solve_matrix(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(b.nrows(), self.dim());
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

    /// Number of floating point operations of the factorization (sum over columns of
    /// `nnz(col)^2`), a useful cost metric for the benches.
    #[must_use]
    pub fn flops(&self) -> f64 {
        self.symbolic
            .col_ptr
            .windows(2)
            .map(|w| {
                let c = (w[1] - w[0]) as f64;
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
            let l = f.factor_csc().to_csr();
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
        let symbolic = Arc::new(SymbolicCholesky::analyze(&a, &opts));
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
        // One sparse right-hand side with two entries, given in the original ordering.
        let mut b = feti_sparse::CooMatrix::new(1, n);
        b.push(0, 3, 1.5);
        b.push(0, 17, -2.0);
        let mut dense_rhs = vec![0.0; n];
        dense_rhs[f.permutation().old_to_new()[3]] = 1.5;
        dense_rhs[f.permutation().old_to_new()[17]] = -2.0;
        let y = crate::panel::forward_solve_sparse_rhs(&f, &b.to_csr()).to_dense();
        f.forward_solve_in_place(&mut dense_rhs);
        for i in 0..n {
            assert_eq!(y.get(i, 0), dense_rhs[i], "row {i}");
        }
    }

    #[test]
    fn pattern_mismatch_reported() {
        let a = laplacian2d(3, 3);
        let symbolic = Arc::new(SymbolicCholesky::analyze(&a, &SolverOptions::default()));
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
