//! Supernodal (BLAS-3 style) sparse Cholesky: columns with identical factor
//! structure are merged into dense column-major trapezoidal panels
//! ([`etree::fundamental_supernodes`]) and factored panel-wise.
//!
//! # Bit-for-bit contract
//!
//! [`SupernodalFactor`] is constructed to produce **exactly** the numbers of the
//! simplicial [`CholeskyFactor`](crate::CholeskyFactor): the same elimination tree,
//! the same pivot order, and — crucially — the same floating-point operation order
//! for every stored entry of `L`, every solve output, and the pivot accumulator.  The
//! up-looking row elimination walks the same `ereach` stack; runs of consecutive
//! stack entries belonging to one supernode are processed as a block, but every
//! target memory location still receives its subtractions one at a time in ascending
//! elimination order (no dot products are formed and then subtracted, which would
//! reassociate).  The speedup comes purely from layout: dense panels replace
//! pointer-chasing through column lists, in-run updates touch a contiguous panel
//! column, and deferred updates run row-wise over the panel with unit stride per
//! column.  The conformance suite pins this contract bit-for-bit on the seed
//! problems.

use crate::chol::{outside_analysed_pattern, SymbolicCholesky};
use crate::etree;
use crate::{Result, SolverError, SolverOptions};
use feti_sparse::{CscMatrix, CsrMatrix, DenseMatrix, Permutation};

/// A numeric supernodal Cholesky factorization `P A Pᵀ = L Lᵀ` with `L` stored as
/// dense column-major panels, one per supernode.
#[derive(Debug, Clone)]
pub struct SupernodalFactor {
    perm: Permutation,
    n: usize,
    /// Factor column pointers (same as the simplicial factor's).
    col_ptr: Vec<usize>,
    /// Supernode boundaries (`sn_start[s]..sn_start[s + 1]` are the columns).
    sn_start: Vec<usize>,
    /// Offset of supernode `s`'s panel in `panels`.
    panel_ptr: Vec<usize>,
    /// Offset of supernode `s`'s row list in `rows`.
    rows_ptr: Vec<usize>,
    /// Concatenated per-supernode row lists: for supernode `s` of width `w` and
    /// height `h`, positions `0..w` are the panel's own columns and positions `w..h`
    /// the shared rows below the panel, globally ascending.
    rows: Vec<usize>,
    /// Concatenated column-major `h x w` panels; the upper trapezoid above the
    /// diagonal is structurally zero.
    panels: Vec<f64>,
}

impl SupernodalFactor {
    /// Performs the supernodal numeric factorization of `a` using a previously
    /// computed symbolic analysis.
    ///
    /// # Errors
    /// Returns [`SolverError::NotPositiveDefinite`] if a pivot is not strictly
    /// positive (beyond the configured tolerance) — at the same pivot index, with the
    /// bit-identical pivot value, as the simplicial kernel — and
    /// [`SolverError::PatternMismatch`] if the matrix differs from the analysed one in
    /// size or number of stored entries, or produces an entry of `L` the analysed
    /// pattern has no slot for.
    pub fn factorize(
        symbolic: &SymbolicCholesky,
        a: &CsrMatrix,
        options: &SolverOptions,
    ) -> Result<Self> {
        symbolic.check_shape(a)?;
        let n = symbolic.dim();
        let permuted = symbolic.permutation().permute_symmetric(a);
        let parent = symbolic.parents();
        let col_ptr = symbolic.col_ptr().to_vec();
        let sn_start = symbolic.supernodes().to_vec();
        let nsuper = sn_start.len() - 1;

        // Column -> supernode map and panel/row-list layout.
        let mut sn_id = vec![0usize; n];
        let mut panel_ptr = vec![0usize; nsuper + 1];
        let mut rows_ptr = vec![0usize; nsuper + 1];
        let mut max_width = 0usize;
        for s in 0..nsuper {
            let j0 = sn_start[s];
            let w = sn_start[s + 1] - j0;
            let h = col_ptr[j0 + 1] - col_ptr[j0];
            debug_assert!(h >= w, "panel height must cover its own columns");
            for j in j0..sn_start[s + 1] {
                sn_id[j] = s;
            }
            panel_ptr[s + 1] = panel_ptr[s] + h * w;
            rows_ptr[s + 1] = rows_ptr[s] + h;
            max_width = max_width.max(w);
        }
        let mut panels = vec![0f64; panel_ptr[nsuper]];
        let mut rows = vec![0usize; rows_ptr[nsuper]];
        // Shared rows are assigned panel positions in arrival (= ascending row)
        // order; `fill[s]` is the next free position, `last_row/last_pos` memoize the
        // position of the current row when one `ereach` delivers a supernode's
        // columns in several non-contiguous runs.
        let mut fill = vec![0usize; nsuper];
        let mut last_row = vec![usize::MAX; nsuper];
        let mut last_pos = vec![0usize; nsuper];
        for s in 0..nsuper {
            let j0 = sn_start[s];
            let w = sn_start[s + 1] - j0;
            for c in 0..w {
                rows[rows_ptr[s] + c] = j0 + c;
            }
            fill[s] = w;
        }

        let mut x = vec![0f64; n];
        let mut marker = vec![usize::MAX; n];
        let mut stack = vec![0usize; n];
        let mut lk = vec![0f64; max_width];

        for k in 0..n {
            // Pattern of row k of L, exactly as in the simplicial kernel.
            let top = etree::ereach(&permuted, k, parent, &mut marker, &mut stack);
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
            let s_k = sn_id[k];
            let mut idx = top;
            while idx < n {
                // Maximal run of consecutive stack entries inside one supernode.
                let ja = stack[idx];
                let s = sn_id[ja];
                let mut jb = ja;
                let mut idx_end = idx + 1;
                while idx_end < n && stack[idx_end] == jb + 1 && sn_id[stack[idx_end]] == s {
                    jb += 1;
                    idx_end += 1;
                }
                if jb > k {
                    // Only the `ereach` of a foreign pattern climbs past row `k`.
                    return Err(outside_analysed_pattern(k, jb));
                }
                let j0 = sn_start[s];
                let h = rows_ptr[s + 1] - rows_ptr[s];
                let panel = &mut panels[panel_ptr[s]..panel_ptr[s + 1]];
                let srows = &mut rows[rows_ptr[s]..rows_ptr[s + 1]];
                let (ca, cb) = (ja - j0, jb - j0);
                // Panel position of row k: its own column slot when k lives in this
                // supernode, otherwise the next shared-row slot.
                let pos_k = if s == s_k {
                    k - j0
                } else if last_row[s] == k {
                    last_pos[s]
                } else {
                    let p = fill[s];
                    if p == h {
                        return Err(outside_analysed_pattern(k, ja));
                    }
                    fill[s] += 1;
                    srows[p] = k;
                    last_row[s] = k;
                    last_pos[s] = p;
                    p
                };
                // Triangular phase: eliminate the run's columns in stack order, with
                // eager updates to the in-run targets (same per-target subtraction
                // order as the simplicial loop).
                for c in ca..=cb {
                    let j = j0 + c;
                    let col = &panel[c * h..(c + 1) * h];
                    let lkj = x[j] / col[c];
                    x[j] = 0.0;
                    lk[c] = lkj;
                    for c2 in (c + 1)..=cb {
                        x[j0 + c2] -= col[c2] * lkj;
                    }
                    d -= lkj * lkj;
                }
                // Deferred updates to the already-filled rows below the run,
                // row-wise over the panel.  The subtractions per target stay
                // individual and in ascending column order — a summed GEMV would
                // reassociate and break the bit-for-bit contract.
                for p in (cb + 1)..pos_k {
                    let r = srows[p];
                    let mut t = x[r];
                    for c in ca..=cb {
                        t -= panel[c * h + p] * lk[c];
                    }
                    x[r] = t;
                }
                // Store L(k, ja..=jb).
                for c in ca..=cb {
                    panel[c * h + pos_k] = lk[c];
                }
                idx = idx_end;
            }
            if d <= options.pivot_tolerance {
                return Err(SolverError::NotPositiveDefinite { index: k, pivot: d });
            }
            let h = rows_ptr[s_k + 1] - rows_ptr[s_k];
            let c = k - sn_start[s_k];
            panels[panel_ptr[s_k] + c * h + c] = d.sqrt();
        }

        Ok(Self {
            perm: symbolic.permutation().clone(),
            n,
            col_ptr,
            sn_start,
            panel_ptr,
            rows_ptr,
            rows,
            panels,
        })
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of nonzeros in `L` (identical to the simplicial factor's).
    #[must_use]
    pub fn nnz(&self) -> usize {
        *self.col_ptr.last().unwrap_or(&0)
    }

    /// Number of supernode panels.
    #[must_use]
    pub fn num_supernodes(&self) -> usize {
        self.sn_start.len() - 1
    }

    /// The fill-reducing permutation (`P A Pᵀ = L Lᵀ`).
    #[must_use]
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }

    /// Row indices and values of column `j` of `L`, diagonal first, rows ascending:
    /// the tail of the column's panel column, the same values in the same order as
    /// the simplicial factor's column.
    pub(crate) fn column(&self, j: usize) -> (&[usize], &[f64]) {
        let s = self.sn_start.partition_point(|&first| first <= j) - 1;
        let c = j - self.sn_start[s];
        let h = self.rows_ptr[s + 1] - self.rows_ptr[s];
        let column = self.panel_ptr[s] + c * h;
        (
            &self.rows[self.rows_ptr[s] + c..self.rows_ptr[s + 1]],
            &self.panels[column + c..column + h],
        )
    }

    /// Forward substitution: solves `L y = x` in place (in permuted ordering),
    /// bit-identical to the simplicial solve.
    pub fn forward_solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        for s in 0..self.num_supernodes() {
            let j0 = self.sn_start[s];
            let w = self.sn_start[s + 1] - j0;
            let h = self.rows_ptr[s + 1] - self.rows_ptr[s];
            let panel = &self.panels[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            let srows = &self.rows[self.rows_ptr[s]..self.rows_ptr[s + 1]];
            for c in 0..w {
                let col = &panel[c * h..(c + 1) * h];
                let xj = x[j0 + c] / col[c];
                x[j0 + c] = xj;
                for p in (c + 1)..h {
                    x[srows[p]] -= col[p] * xj;
                }
            }
        }
    }

    /// Backward substitution: solves `Lᵀ x = y` in place (in permuted ordering),
    /// bit-identical to the simplicial solve.
    pub fn backward_solve_in_place(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        for s in (0..self.num_supernodes()).rev() {
            let j0 = self.sn_start[s];
            let w = self.sn_start[s + 1] - j0;
            let h = self.rows_ptr[s + 1] - self.rows_ptr[s];
            let panel = &self.panels[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            let srows = &self.rows[self.rows_ptr[s]..self.rows_ptr[s + 1]];
            for c in (0..w).rev() {
                let col = &panel[c * h..(c + 1) * h];
                let mut acc = x[j0 + c];
                for p in (c + 1)..h {
                    acc -= col[p] * x[srows[p]];
                }
                x[j0 + c] = acc / col[c];
            }
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

    /// Returns `L` as a CSC matrix (lower triangular, diagonal first in each column),
    /// bit-identical to [`CholeskyFactor::factor_csc`](crate::CholeskyFactor::factor_csc).
    #[must_use]
    pub fn factor_csc(&self) -> CscMatrix {
        let nnz = self.nnz();
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0f64; nnz];
        for s in 0..self.num_supernodes() {
            let j0 = self.sn_start[s];
            let w = self.sn_start[s + 1] - j0;
            let h = self.rows_ptr[s + 1] - self.rows_ptr[s];
            let panel = &self.panels[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            let srows = &self.rows[self.rows_ptr[s]..self.rows_ptr[s + 1]];
            for c in 0..w {
                let dst = self.col_ptr[j0 + c];
                debug_assert_eq!(self.col_ptr[j0 + c + 1] - dst, h - c);
                // Panel positions c..h are this column's diagonal plus the rows
                // below it, already in ascending row order.
                for p in c..h {
                    row_idx[dst + p - c] = srows[p];
                    values[dst + p - c] = panel[c * h + p];
                }
            }
        }
        CscMatrix::from_raw_parts(self.n, self.n, self.col_ptr.clone(), row_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chol::CholeskyFactor;
    use feti_order::OrderingKind;
    use feti_sparse::{CooMatrix, MemoryOrder};

    /// 2D Laplacian on an `nx x ny` grid (SPD, produces wide supernodes under fill).
    fn laplacian2d(nx: usize, ny: usize) -> CsrMatrix {
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(nx * ny, nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                coo.push(idx(i, j), idx(i, j), 4.1);
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

    fn assert_factors_bit_identical(a: &CsrMatrix, opts: &SolverOptions) {
        let symbolic = SymbolicCholesky::analyze(a, opts);
        let simplicial = CholeskyFactor::factorize(&symbolic, a, opts).unwrap();
        let supernodal = SupernodalFactor::factorize(&symbolic, a, opts).unwrap();
        assert_eq!(simplicial.nnz(), supernodal.nnz());
        let l1 = simplicial.factor_csc();
        let l2 = supernodal.factor_csc();
        assert_eq!(l1.col_ptr(), l2.col_ptr());
        assert_eq!(l1.row_idx(), l2.row_idx());
        for (i, (v1, v2)) in l1.values().iter().zip(l2.values()).enumerate() {
            assert_eq!(v1.to_bits(), v2.to_bits(), "factor entry {i}: {v1:e} vs {v2:e}");
        }
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
        let x1 = simplicial.solve(&b);
        let x2 = supernodal.solve(&b);
        for (i, (v1, v2)) in x1.iter().zip(&x2).enumerate() {
            assert_eq!(v1.to_bits(), v2.to_bits(), "solution entry {i}");
        }
    }

    #[test]
    fn factor_and_solve_bit_identical_to_simplicial_across_orderings() {
        let a = laplacian2d(7, 6);
        for ordering in [
            OrderingKind::Natural,
            OrderingKind::ReverseCuthillMcKee,
            OrderingKind::MinimumDegree,
            OrderingKind::NestedDissection,
        ] {
            let opts = SolverOptions { ordering, ..Default::default() };
            assert_factors_bit_identical(&a, &opts);
        }
    }

    #[test]
    fn dense_matrix_becomes_a_single_panel() {
        let n = 6;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                coo.push(i, j, if i == j { 12.0 } else { -1.0 });
            }
        }
        let a = coo.to_csr();
        let opts = SolverOptions { ordering: OrderingKind::Natural, ..Default::default() };
        let symbolic = SymbolicCholesky::analyze(&a, &opts);
        assert_eq!(symbolic.num_supernodes(), 1);
        assert_factors_bit_identical(&a, &opts);
    }

    #[test]
    fn solve_matrix_matches_simplicial_bitwise() {
        let a = laplacian2d(5, 5);
        let n = a.nrows();
        let opts = SolverOptions::default();
        let symbolic = SymbolicCholesky::analyze(&a, &opts);
        let simplicial = CholeskyFactor::factorize(&symbolic, &a, &opts).unwrap();
        let supernodal = SupernodalFactor::factorize(&symbolic, &a, &opts).unwrap();
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            let mut b = DenseMatrix::zeros(n, 3, order);
            for j in 0..3 {
                for i in 0..n {
                    b.set(i, j, ((i + 7 * j) as f64 * 0.21).cos());
                }
            }
            let x1 = simplicial.solve_matrix(&b);
            let x2 = supernodal.solve_matrix(&b);
            for j in 0..3 {
                for i in 0..n {
                    assert_eq!(x1.get(i, j).to_bits(), x2.get(i, j).to_bits(), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn not_positive_definite_reported_at_the_same_pivot() {
        let mut coo = CooMatrix::new(3, 3);
        for (i, j, v) in [
            (0, 0, 4.0),
            (0, 1, 2.0),
            (1, 0, 2.0),
            (1, 1, 1.0),
            (2, 2, 1.0),
            (1, 2, 0.5),
            (2, 1, 0.5),
        ] {
            coo.push(i, j, v);
        }
        let a = coo.to_csr();
        let opts = SolverOptions { ordering: OrderingKind::Natural, ..Default::default() };
        let symbolic = SymbolicCholesky::analyze(&a, &opts);
        let e1 = CholeskyFactor::factorize(&symbolic, &a, &opts).unwrap_err();
        let e2 = SupernodalFactor::factorize(&symbolic, &a, &opts).unwrap_err();
        match (e1, e2) {
            (
                SolverError::NotPositiveDefinite { index: i1, pivot: p1 },
                SolverError::NotPositiveDefinite { index: i2, pivot: p2 },
            ) => {
                assert_eq!(i1, i2);
                assert_eq!(p1.to_bits(), p2.to_bits());
            }
            other => panic!("expected NotPositiveDefinite from both kernels, got {other:?}"),
        }
    }

    #[test]
    fn pattern_mismatch_reported() {
        let a = laplacian2d(3, 3);
        let symbolic = SymbolicCholesky::analyze(&a, &SolverOptions::default());
        let b = laplacian2d(4, 4);
        let err =
            SupernodalFactor::factorize(&symbolic, &b, &SolverOptions::default()).unwrap_err();
        assert!(matches!(err, SolverError::PatternMismatch(_)));
    }

    /// Diagonally dominant symmetric matrix with the given off-diagonal pairs.
    fn with_pairs(n: usize, pairs: &[(usize, usize)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 8.0);
        }
        for &(i, j) in pairs {
            coo.push(i, j, -1.0);
            coo.push(j, i, -1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn a_same_size_matrix_with_a_foreign_pattern_is_refused_by_both_kernels() {
        // Once an analysis is shared between subdomains, a matrix of the right size
        // and the wrong pattern must be a typed error, not an entry written into the
        // neighbouring column.
        let opts = SolverOptions { ordering: OrderingKind::Natural, ..Default::default() };
        let refused = |analysed: &[(usize, usize)], foreign: &[(usize, usize)], what: &str| {
            let analysed = with_pairs(6, analysed);
            let symbolic = SymbolicCholesky::analyze(&analysed, &opts);
            let foreign = with_pairs(6, foreign);
            let simplicial = CholeskyFactor::factorize(&symbolic, &foreign, &opts).unwrap_err();
            let supernodal = SupernodalFactor::factorize(&symbolic, &foreign, &opts).unwrap_err();
            for err in [simplicial, supernodal] {
                let SolverError::PatternMismatch(message) = err else {
                    panic!("expected PatternMismatch, got {err:?}");
                };
                assert!(message.contains(what), "{message}");
            }
            // The analysis is not spent: its own matrix factorizes, with either kernel.
            let f = CholeskyFactor::factorize(&symbolic, &analysed, &opts).unwrap();
            let g = SupernodalFactor::factorize(&symbolic, &analysed, &opts).unwrap();
            assert_eq!(f.nnz(), g.nnz());
        };
        let chain = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        // One extra off-diagonal pair: caught by the entry count, up front.
        refused(&chain, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)], "stores 18 entries");
        // As many entries, one pair moved: row 2 now reaches column 0, whose two slots
        // (the diagonal and row 1) are taken.
        refused(&chain, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)], "L(2, 0) is outside");
        // As many entries again, and an `ereach` that climbs past its row: in the
        // elimination tree of the arrow every column's parent is 5, so the walk from
        // column 0 in row 2 passes 2 and delivers column 5.
        let arrow = [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)];
        refused(&arrow, &[(0, 5), (1, 5), (0, 2), (3, 5), (4, 5)], "outside the analysed factor");
    }
}
