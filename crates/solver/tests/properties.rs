//! Property-based tests of the sparse direct solvers: for randomly generated
//! diagonally dominant SPD matrices, the factorization must reconstruct the matrix and
//! the solves must have small residuals, for every fill-reducing ordering.

use feti_order::OrderingKind;
use feti_solver::{
    CholeskyFactor, CholmodFactor, CholmodLike, FactorizationKind, SolverError, SolverOptions,
    SymbolicCholesky,
};
use feti_sparse::{blas, ops, CooMatrix, CsrMatrix, DenseMatrix, MemoryOrder, Transpose, Triangle};
use proptest::prelude::*;
use std::sync::Arc;

const ORDERINGS: [OrderingKind; 4] = [
    OrderingKind::Natural,
    OrderingKind::ReverseCuthillMcKee,
    OrderingKind::MinimumDegree,
    OrderingKind::NestedDissection,
];

/// Random sparse symmetric diagonally dominant (hence SPD) matrix.
fn spd_matrix() -> impl Strategy<Value = CsrMatrix> {
    (3usize..20, proptest::collection::vec((0usize..20, 0usize..20, 0.1f64..2.0), 5..40)).prop_map(
        |(n, edges)| {
            let mut coo = CooMatrix::new(n, n);
            let mut diag = vec![1.0f64; n];
            for (a, b, w) in edges {
                let (i, j) = (a % n, b % n);
                if i != j {
                    coo.push(i, j, -w);
                    coo.push(j, i, -w);
                    diag[i] += w;
                    diag[j] += w;
                }
            }
            for (i, d) in diag.iter().enumerate() {
                coo.push(i, i, *d);
            }
            coo.to_csr()
        },
    )
}

/// What each kernel makes of `a` over one analysis, reduced to what must agree: the
/// bits of the factor, or the error with the bits of its pivot.
fn outcomes(
    symbolic: &Arc<SymbolicCholesky>,
    a: &CsrMatrix,
    opts: &SolverOptions,
) -> [Result<Vec<u64>, (SolverError, u64)>; 2] {
    [FactorizationKind::Simplicial, FactorizationKind::Supernodal].map(|factorization| {
        match CholeskyFactor::factorize(symbolic, a, &SolverOptions { factorization, ..*opts }) {
            Ok(f) => Ok(f.factor_csc().values().iter().map(|v| v.to_bits()).collect()),
            Err(SolverError::NotPositiveDefinite { index, pivot }) => {
                Err((SolverError::NotPositiveDefinite { index, pivot: 0.0 }, pivot.to_bits()))
            }
            Err(other) => Err((other, 0)),
        }
    })
}

/// The explicit host assembly of `F̃ = B A⁻¹ Bᵀ`: the panel forward solve and its Gram.
fn assemble(factor: &CholmodFactor, b: &CsrMatrix) -> DenseMatrix {
    factor.forward_solve_sparse_rhs(b).gram()
}

/// The oracle of the panel Gram: `boundary_syrk` over the spelt-out `Y`, mirrored.
fn syrk_of_dense(y: &DenseMatrix) -> DenseMatrix {
    let mut f = DenseMatrix::zeros(y.ncols(), y.ncols(), MemoryOrder::RowMajor);
    blas::boundary_syrk(Triangle::Upper, Transpose::Yes, 1.0, y, 0.0, &mut f);
    f.symmetrize_from(Triangle::Upper);
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn factorization_solves_random_spd_systems(a in spd_matrix(), seed in 0u64..1000) {
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (((i as u64 * 37 + seed) % 23) as f64) * 0.1 - 1.0).collect();
        for ordering in [
            OrderingKind::Natural,
            OrderingKind::ReverseCuthillMcKee,
            OrderingKind::MinimumDegree,
            OrderingKind::NestedDissection,
        ] {
            let opts = SolverOptions { ordering, ..Default::default() };
            let f = CholeskyFactor::new(&a, &opts).unwrap();
            let x = f.solve(&b);
            let mut r = b.clone();
            ops::spmv_csr(-1.0, &a, Transpose::No, &x, 1.0, &mut r);
            prop_assert!(blas::norm2(&r) < 1e-8 * blas::norm2(&b).max(1.0));
        }
    }

    #[test]
    fn symbolic_nnz_prediction_matches_numeric(a in spd_matrix()) {
        let opts = SolverOptions::default();
        let symbolic = Arc::new(SymbolicCholesky::analyze(&a, &opts));
        let numeric = CholeskyFactor::factorize(&symbolic, &a, &opts).unwrap();
        prop_assert_eq!(symbolic.factor_nnz(), numeric.nnz());
    }

    // The structure a factor reads from its analysis is the one a symbolic elimination
    // of the permuted pattern fills — dense and boolean here, sharing nothing with
    // the elimination-tree passes.
    #[test]
    fn analysis_lists_the_rows_of_every_factor_column(a in spd_matrix()) {
        let n = a.nrows();
        for ordering in ORDERINGS {
            let opts = SolverOptions { ordering, ..Default::default() };
            let symbolic = SymbolicCholesky::analyze(&a, &opts);
            let permuted = symbolic.permutation().permute_symmetric(&a);
            let mut filled = vec![vec![false; n]; n];
            for (i, row) in filled.iter_mut().enumerate() {
                for &j in permuted.row_cols(i) {
                    row[j] = true;
                }
            }
            let mut nnz = 0;
            for j in 0..n {
                let below: Vec<usize> = (j + 1..n).filter(|&i| filled[i][j]).collect();
                for (p, &i) in below.iter().enumerate() {
                    for &k in &below[p..] {
                        filled[k][i] = true;
                    }
                }
                let expected: Vec<u32> =
                    std::iter::once(j).chain(below).map(|i| i as u32).collect();
                prop_assert_eq!(symbolic.column_rows(j), &expected[..]);
                nnz += expected.len();
            }
            prop_assert_eq!(symbolic.factor_nnz(), nnz);
            // The extracted factor spells the same lists out.
            let l = CholeskyFactor::factorize(&Arc::new(symbolic.clone()), &a, &opts)
                .unwrap()
                .factor_csc();
            for j in 0..n {
                let rows: Vec<u32> = l.col_rows(j).iter().map(|&r| r as u32).collect();
                prop_assert_eq!(symbolic.column_rows(j), &rows[..]);
            }
        }
    }

    // The run-blocked kernel and the blocked solves against the column-at-a-time
    // loops: the factor, a lost pivot (the diagonal of one row is shrunk until its
    // pivot goes) and a matrix of another pattern must come out the same to the bit.
    #[test]
    fn run_blocked_kernel_equals_the_column_loop_to_the_bit(
        a in spd_matrix(),
        other in spd_matrix(),
        weak_row in 0usize..20,
        seed in 0u64..1000,
    ) {
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (((i as u64 * 37 + seed) % 23) as f64) * 0.1 - 1.0).collect();
        for ordering in ORDERINGS {
            let opts = SolverOptions { ordering, ..Default::default() };
            let symbolic = Arc::new(SymbolicCholesky::analyze(&a, &opts));
            let [column_loop, run_blocked] = outcomes(&symbolic, &a, &opts);
            prop_assert!(column_loop.is_ok());
            prop_assert_eq!(&column_loop, &run_blocked);

            // Forward and backward substitution, one column at a time over the
            // extracted factor, against the solves that walk supernodes.
            let f = CholeskyFactor::factorize(&symbolic, &a, &opts).unwrap();
            let l = f.factor_csc();
            let mut x = f.permutation().apply(&b);
            let mut y = x.clone();
            for j in 0..n {
                x[j] /= l.col_values(j)[0];
                for (&r, &v) in l.col_rows(j)[1..].iter().zip(&l.col_values(j)[1..]) {
                    x[r] -= v * x[j];
                }
            }
            f.forward_solve_in_place(&mut y);
            prop_assert!(x.iter().zip(&y).all(|(u, v)| u.to_bits() == v.to_bits()));
            for j in (0..n).rev() {
                let mut acc = x[j];
                for (&r, &v) in l.col_rows(j)[1..].iter().zip(&l.col_values(j)[1..]) {
                    acc -= v * x[r];
                }
                x[j] = acc / l.col_values(j)[0];
            }
            f.backward_solve_in_place(&mut y);
            prop_assert!(x.iter().zip(&y).all(|(u, v)| u.to_bits() == v.to_bits()));

            let mut weak = CooMatrix::new(n, n);
            for i in 0..n {
                for (&j, &v) in a.row_cols(i).iter().zip(a.row_values(i)) {
                    weak.push(i, j, if i == j && i == weak_row % n { 1e-3 * v } else { v });
                }
            }
            let [column_loop, run_blocked] = outcomes(&symbolic, &weak.to_csr(), &opts);
            prop_assert_eq!(&column_loop, &run_blocked);

            if other.nrows() == n {
                let [column_loop, run_blocked] = outcomes(&symbolic, &other, &opts);
                prop_assert_eq!(&column_loop, &run_blocked);
            }
        }
    }

    // The symbolic analysis predicts the size of the factor the numeric phase fills, so
    // one analysis per subdomain tells a planner the factor size.
    #[test]
    fn cholmod_and_pardiso_facades_predict_the_same_factor_nnz(a in spd_matrix()) {
        for ordering in ORDERINGS {
            let cholmod = CholmodLike::analyze(&a, SolverOptions { ordering, ..Default::default() });
            prop_assert_eq!(cholmod.factor_nnz(), cholmod.factorize(&a).unwrap().nnz());
        }
    }

    #[test]
    fn schur_complement_is_symmetric_psd(a in spd_matrix(), rows in 1usize..6) {
        let n = a.nrows();
        let mut coo = CooMatrix::new(rows, n);
        for r in 0..rows {
            coo.push(r, (r * 3) % n, 1.0);
            if n > 1 {
                let j = (r * 5 + 1) % n;
                if j != (r * 3) % n {
                    coo.push(r, j, -1.0);
                }
            }
        }
        let b = coo.to_csr();
        let f = CholmodLike::analyze(&a, SolverOptions::default()).factorize(&a).unwrap();
        let s = f.forward_solve_sparse_rhs(&b).gram();
        for i in 0..rows {
            prop_assert!(s.get(i, i) >= -1e-10);
            for j in 0..rows {
                prop_assert!((s.get(i, j) - s.get(j, i)).abs() < 1e-10);
            }
        }
    }

    // The panel kernel behind the explicit host assembly, on gluing-like matrices
    // with 0 to 79 rows (none, fewer than one 32-wide panel, full panels plus a
    // remainder), one all-zero row and one row touching only the last permuted row.
    #[test]
    fn panel_assembly_matches_the_two_solve_reference(
        a in spd_matrix(),
        nl in 0usize..80,
        entries in proptest::collection::vec((0usize..20, -2.0f64..2.0), 0..240),
        shuffle in proptest::collection::vec(0usize..80, 80..81),
    ) {
        let n = a.nrows();
        let options = |factorization| SolverOptions { factorization, ..SolverOptions::default() };
        let simplicial = CholmodLike::analyze(&a, options(FactorizationKind::Simplicial));
        let last_permuted = simplicial.permutation().new_to_old()[n - 1];
        let (zero_row, last_row) = (nl / 2, nl / 3);
        let mut coo = CooMatrix::new(nl, n);
        if last_row != zero_row {
            coo.push(last_row, last_permuted, 1.0);
        }
        for (k, &(col, value)) in entries.iter().enumerate() {
            let row = k % nl.max(1);
            if nl > 0 && row != zero_row && row != last_row {
                coo.push(row, col % n, value);
            }
        }
        let b = coo.to_csr();
        let factor = simplicial.factorize(&a).unwrap();
        let f = assemble(&factor, &b);

        // Agreement with B (A⁻¹ Bᵀ) through the forward and backward solves.
        let x = factor.solve_matrix(&b.transposed().to_dense(MemoryOrder::ColMajor));
        let mut reference = DenseMatrix::zeros(nl, nl, MemoryOrder::RowMajor);
        ops::spmm_csr_dense(1.0, &b, Transpose::No, &x, 0.0, &mut reference);
        prop_assert!(f.max_abs_diff(&reference) <= 1e-12 * f.frobenius_norm());
        for i in 0..nl {
            prop_assert!(f.get(zero_row, i) == 0.0);
            for j in 0..nl {
                prop_assert_eq!(f.get(i, j).to_bits(), f.get(j, i).to_bits());
            }
        }

        // Any order of the multipliers gives the same values, permuted.
        let mut order: Vec<usize> = (0..nl).collect();
        for k in (1..nl).rev() {
            order.swap(k, shuffle[k] % (k + 1));
        }
        let mut coo = CooMatrix::new(nl, n);
        for (k, &r) in order.iter().enumerate() {
            for (&j, &v) in b.row_cols(r).iter().zip(b.row_values(r)) {
                coo.push(k, j, v);
            }
        }
        let permuted = assemble(&factor, &coo.to_csr());
        for (k, &r) in order.iter().enumerate() {
            for (l, &c) in order.iter().enumerate() {
                prop_assert!(permuted.get(k, l) == f.get(r, c));
            }
        }

        // The supernodal storage feeds the kernel the same values.
        let supernodal = CholmodLike::analyze(&a, options(FactorizationKind::Supernodal));
        let g = assemble(&supernodal.factorize(&a).unwrap(), &b);
        for (u, v) in f.as_slice().iter().zip(g.as_slice()) {
            prop_assert_eq!(u.to_bits(), v.to_bits());
        }
    }

    // The panel-pair Gram against `boundary_syrk` over the spelt-out forward solve, to
    // the bit: every ordering, multiplier counts around the panel width, one empty row
    // and rows of one to several entries (240 entries dealt out round-robin).
    #[test]
    fn panel_gram_is_the_boundary_syrk_of_the_dense_solve_to_the_bit(
        a in spd_matrix(),
        width in 0usize..7,
        entries in proptest::collection::vec((0usize..20, -2.0f64..2.0), 0..240),
    ) {
        let n = a.nrows();
        let nl: usize = [0, 1, 3, 31, 32, 33, 75][width];
        let empty = nl.div_ceil(2);
        let mut coo = CooMatrix::new(nl, n);
        for (k, &(col, value)) in entries.iter().enumerate() {
            let row = k % nl.max(1);
            if nl > 0 && row != empty {
                coo.push(row, col % n, value);
            }
        }
        let b = coo.to_csr();
        for ordering in ORDERINGS {
            let solver = CholmodLike::analyze(&a, SolverOptions { ordering, ..Default::default() });
            let panels = solver.factorize(&a).unwrap().forward_solve_sparse_rhs(&b);
            let (got, want) = (panels.gram(), syrk_of_dense(&panels.to_dense()));
            let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "{:?}, {} multipliers", ordering, nl);
        }
    }
}
