//! Conformance of the run-blocked kernel ([`FactorizationKind::Supernodal`]) and of
//! the blocked forward solve with the column-at-a-time loops they must equal to the
//! bit: values, failing pivots and refused patterns, over every run length the
//! blocking distinguishes.

#[cfg(test)]
mod tests {
    use crate::chol::{CholeskyFactor, SymbolicCholesky};
    use crate::{FactorizationKind, SolverError, SolverOptions};
    use feti_order::OrderingKind;
    use feti_sparse::{CooMatrix, CsrMatrix, DenseMatrix, MemoryOrder};
    use std::sync::Arc;

    const ORDERINGS: [OrderingKind; 4] = [
        OrderingKind::Natural,
        OrderingKind::ReverseCuthillMcKee,
        OrderingKind::MinimumDegree,
        OrderingKind::NestedDissection,
    ];

    fn with_kind(opts: &SolverOptions, factorization: FactorizationKind) -> SolverOptions {
        SolverOptions { factorization, ..*opts }
    }

    /// The result of each kernel over one analysis: column at a time, then run-blocked.
    fn both_kernels(
        symbolic: &Arc<SymbolicCholesky>,
        a: &CsrMatrix,
        opts: &SolverOptions,
    ) -> [crate::Result<CholeskyFactor>; 2] {
        [FactorizationKind::Simplicial, FactorizationKind::Supernodal]
            .map(|kind| CholeskyFactor::factorize(symbolic, a, &with_kind(opts, kind)))
    }

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

    /// Symmetric matrix with the given diagonal and off-diagonal pairs of varied value.
    fn with_pairs(diagonal: &[f64], pairs: &[(usize, usize)]) -> CsrMatrix {
        let n = diagonal.len();
        let mut coo = CooMatrix::new(n, n);
        for (i, &d) in diagonal.iter().enumerate() {
            coo.push(i, i, d);
        }
        for (p, &(i, j)) in pairs.iter().enumerate() {
            let v = -1.0 - 0.07 * (p % 5) as f64;
            coo.push(i, j, v);
            coo.push(j, i, v);
        }
        coo.to_csr()
    }

    /// `w` mutually coupled columns that all reach rows `w` and `w + 2`, then a
    /// three-row tail: under the natural ordering a supernode of exactly `w` columns
    /// (row `w + 1` gives column `w` a structure of its own), whose rows meet runs of
    /// every length up to `w`.
    fn supernode_of_width(w: usize, diagonal_of_row_w: f64) -> CsrMatrix {
        let mut pairs = vec![(w, w + 1), (w + 1, w + 2)];
        for i in 0..w {
            pairs.extend((i + 1..w).map(|j| (i, j)));
            pairs.extend([(i, w), (i, w + 2)]);
        }
        let mut diagonal = vec![3.0 * (w + 3) as f64; w + 3];
        diagonal[w] = diagonal_of_row_w;
        with_pairs(&diagonal, &pairs)
    }

    /// Column-at-a-time substitutions over the extracted factor: what the blocked
    /// solves must equal.
    fn reference_solve(f: &CholeskyFactor, b: &[f64]) -> Vec<f64> {
        let l = f.factor_csc();
        let mut x = f.permutation().apply(b);
        for j in 0..l.ncols() {
            let (rows, values) = (l.col_rows(j), l.col_values(j));
            x[j] /= values[0];
            for (&r, &v) in rows[1..].iter().zip(&values[1..]) {
                x[r] -= v * x[j];
            }
        }
        for j in (0..l.ncols()).rev() {
            let (rows, values) = (l.col_rows(j), l.col_values(j));
            let mut acc = x[j];
            for (&r, &v) in rows[1..].iter().zip(&values[1..]) {
                acc -= v * x[r];
            }
            x[j] = acc / values[0];
        }
        f.permutation().apply_inverse(&x)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn assert_factors_bit_identical(a: &CsrMatrix, opts: &SolverOptions) {
        let symbolic = Arc::new(SymbolicCholesky::analyze(a, opts));
        let [simplicial, blocked] = both_kernels(&symbolic, a, opts).map(Result::unwrap);
        let (l1, l2) = (simplicial.factor_csc(), blocked.factor_csc());
        assert_eq!(l1.col_ptr(), l2.col_ptr());
        assert_eq!(l1.row_idx(), l2.row_idx());
        assert_eq!(bits(l1.values()), bits(l2.values()), "factor values");
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
        assert_eq!(bits(&simplicial.solve(&b)), bits(&blocked.solve(&b)));
        assert_eq!(bits(&blocked.solve(&b)), bits(&reference_solve(&blocked, &b)), "solve");
    }

    #[test]
    fn factor_and_solve_bit_identical_to_simplicial_across_orderings() {
        let a = laplacian2d(7, 6);
        for ordering in ORDERINGS {
            assert_factors_bit_identical(&a, &SolverOptions { ordering, ..Default::default() });
        }
    }

    #[test]
    fn dense_matrix_becomes_a_single_panel() {
        // One supernode of `n` columns: row `k` meets one run of `k` columns.
        for n in 1..=9 {
            let pairs: Vec<_> = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))).collect();
            let a = with_pairs(&vec![2.0 * n as f64 + 3.0; n], &pairs);
            for ordering in ORDERINGS {
                let opts = SolverOptions { ordering, ..Default::default() };
                assert_eq!(SymbolicCholesky::analyze(&a, &opts).num_supernodes(), 1);
                assert_factors_bit_identical(&a, &opts);
            }
        }
    }

    #[test]
    fn runs_of_every_length_give_the_bits_and_the_failing_pivot_of_the_column_loop() {
        // Widths 1–9: runs of 1, 2, 3, 4, 4+1, … 4+4+1 columns.
        for w in 1..=9 {
            let a = supernode_of_width(w, 3.0 * (w + 3) as f64);
            let natural = SolverOptions { ordering: OrderingKind::Natural, ..Default::default() };
            let symbolic = SymbolicCholesky::analyze(&a, &natural);
            assert_eq!(&symbolic.supernodes()[..2], [0, w], "width {w}");
            for ordering in ORDERINGS {
                assert_factors_bit_identical(&a, &SolverOptions { ordering, ..Default::default() });
            }
            // Row `w` — the first below the supernode, reached by one run of all `w`
            // columns — loses its pivot.
            let indefinite = supernode_of_width(w, 0.05);
            let [e1, e2] = both_kernels(&Arc::new(symbolic), &indefinite, &natural)
                .map(|result| result.unwrap_err());
            let (
                SolverError::NotPositiveDefinite { index: i1, pivot: p1 },
                SolverError::NotPositiveDefinite { index: i2, pivot: p2 },
            ) = (e1, e2)
            else {
                panic!("width {w}: expected NotPositiveDefinite from both kernels");
            };
            assert_eq!((i1, p1.to_bits()), (w, p2.to_bits()), "width {w}");
            assert_eq!(i2, w);
        }
    }

    #[test]
    fn the_analysis_lists_the_rows_a_symbolic_elimination_fills() {
        // Dense boolean elimination of the permuted pattern, nothing shared with the
        // elimination-tree passes of the analysis.
        for a in [laplacian2d(7, 6), supernode_of_width(9, 40.0), supernode_of_width(2, 40.0)] {
            for ordering in ORDERINGS {
                let opts = SolverOptions { ordering, ..Default::default() };
                let symbolic = SymbolicCholesky::analyze(&a, &opts);
                let n = a.nrows();
                let permuted = symbolic.permutation().permute_symmetric(&a);
                let mut filled = vec![vec![false; n]; n];
                for i in 0..n {
                    for &j in permuted.row_cols(i) {
                        filled[i][j] = true;
                    }
                }
                for j in 0..n {
                    let below: Vec<usize> = (j + 1..n).filter(|&i| filled[i][j]).collect();
                    for (p, &i) in below.iter().enumerate() {
                        for &k in &below[p..] {
                            filled[k][i] = true;
                        }
                    }
                    let expected: Vec<u32> =
                        std::iter::once(j).chain(below).map(|i| i as u32).collect();
                    assert_eq!(symbolic.column_rows(j), expected, "{ordering:?}, column {j}");
                }
            }
        }
    }

    #[test]
    fn factors_of_one_analysis_share_its_structure() {
        let a = laplacian2d(5, 4);
        let opts = SolverOptions::default();
        let symbolic = Arc::new(SymbolicCholesky::analyze(&a, &opts));
        let [f, g] = both_kernels(&symbolic, &a, &opts).map(Result::unwrap);
        assert!(Arc::ptr_eq(f.symbolic(), &symbolic) && Arc::ptr_eq(g.symbolic(), &symbolic));
        assert_eq!(Arc::strong_count(&symbolic), 3);
    }

    #[test]
    fn solve_matrix_matches_simplicial_bitwise() {
        let a = laplacian2d(5, 5);
        let n = a.nrows();
        let opts = SolverOptions::default();
        let symbolic = Arc::new(SymbolicCholesky::analyze(&a, &opts));
        let [simplicial, blocked] = both_kernels(&symbolic, &a, &opts).map(Result::unwrap);
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            let mut b = DenseMatrix::zeros(n, 3, order);
            for j in 0..3 {
                for i in 0..n {
                    b.set(i, j, ((i + 7 * j) as f64 * 0.21).cos());
                }
            }
            let x1 = simplicial.solve_matrix(&b);
            let x2 = blocked.solve_matrix(&b);
            for j in 0..3 {
                assert_eq!(bits(&x1.col(j)), bits(&x2.col(j)), "column {j}");
                assert_eq!(bits(&x2.col(j)), bits(&reference_solve(&blocked, &b.col(j))));
            }
        }
    }

    #[test]
    fn not_positive_definite_reported_at_the_same_pivot() {
        let a = with_pairs(&[4.0, 0.2, 1.0], &[(0, 1), (1, 2)]);
        let opts = SolverOptions { ordering: OrderingKind::Natural, ..Default::default() };
        let symbolic = Arc::new(SymbolicCholesky::analyze(&a, &opts));
        let [e1, e2] = both_kernels(&symbolic, &a, &opts).map(|result| result.unwrap_err());
        match (e1, e2) {
            (
                SolverError::NotPositiveDefinite { index: i1, pivot: p1 },
                SolverError::NotPositiveDefinite { index: i2, pivot: p2 },
            ) => {
                assert_eq!((i1, i2), (1, 1));
                assert_eq!(p1.to_bits(), p2.to_bits());
            }
            other => panic!("expected NotPositiveDefinite from both kernels, got {other:?}"),
        }
    }

    #[test]
    fn pattern_mismatch_reported() {
        let opts = SolverOptions::default();
        let symbolic = Arc::new(SymbolicCholesky::analyze(&laplacian2d(3, 3), &opts));
        for result in both_kernels(&symbolic, &laplacian2d(4, 4), &opts) {
            assert!(matches!(result.unwrap_err(), SolverError::PatternMismatch(_)));
        }
    }

    #[test]
    fn a_same_size_matrix_with_a_foreign_pattern_is_refused_by_both_kernels() {
        // An analysis is shared between subdomains and a factor stores no rows of its
        // own, so a matrix of the right size and the wrong pattern must be a typed
        // error: not an entry written into the neighbouring column, and not an entry
        // the shared lists would hand back as another row's.
        let opts = SolverOptions { ordering: OrderingKind::Natural, ..Default::default() };
        let refused = |n: usize, analysed: &[(usize, usize)], foreign: &[(usize, usize)], what| {
            let analysed = with_pairs(&vec![8.0; n], analysed);
            let symbolic = Arc::new(SymbolicCholesky::analyze(&analysed, &opts));
            let foreign = with_pairs(&vec![8.0; n], foreign);
            let [e1, e2] = both_kernels(&symbolic, &foreign, &opts).map(|r| r.unwrap_err());
            assert_eq!(e1, e2, "both kernels refuse the same entry");
            let SolverError::PatternMismatch(message) = e1 else {
                panic!("expected PatternMismatch, got {e1:?}");
            };
            assert!(message.contains(what), "{message}");
            // The analysis is not spent: its own matrix factorizes, with either kernel.
            let [f, g] = both_kernels(&symbolic, &analysed, &opts).map(Result::unwrap);
            assert_eq!(bits(f.factor_csc().values()), bits(g.factor_csc().values()));
        };
        let chain = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)];
        // One extra off-diagonal pair: caught by the entry count, up front.
        refused(6, &chain, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)], "stores 18 entries");
        // As many entries, one pair moved: row 2 now reaches column 0, whose two slots
        // (the diagonal and row 1) are taken.
        refused(6, &chain, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)], "L(2, 0) is outside");
        // As many entries again, and an `ereach` that would climb past its row: in the
        // elimination tree of the arrow every column's parent is 5, so the walk from
        // column 0 in row 2 passes 2 and delivers column 5 — after column 0, whose free
        // slot is row 5's.  (A walk leaves a row's subtree only over a column that
        // does not hold the row, so it is always refused before it climbs.)
        let arrow = [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)];
        refused(6, &arrow, &[(0, 5), (1, 5), (0, 2), (3, 5), (4, 5)], "L(2, 0) is outside");
        // Same size, entry count and column counts `[2, 2, 1]`, and every walk inside
        // the analysed elimination tree — every slot exists, but column 0's second one
        // is row 1's: a factor carrying its own indices took this matrix.
        refused(3, &[(0, 1), (1, 2)], &[(0, 2), (1, 2)], "L(2, 0) is outside");
    }
}
