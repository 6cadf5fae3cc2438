//! Property-based tests of the sparse direct solvers: for randomly generated
//! diagonally dominant SPD matrices, the factorization must reconstruct the matrix and
//! the solves must have small residuals, for every fill-reducing ordering.

use feti_order::OrderingKind;
use feti_solver::{CholeskyFactor, CholmodLike, PardisoLike, SolverOptions, SymbolicCholesky};
use feti_sparse::{blas, ops, CooMatrix, CsrMatrix, Transpose};
use proptest::prelude::*;

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
        let symbolic = SymbolicCholesky::analyze(&a, &opts);
        let numeric = CholeskyFactor::factorize(&symbolic, &a, &opts).unwrap();
        prop_assert_eq!(symbolic.factor_nnz(), numeric.nnz());
    }

    // Both facades run the same ordering and symbolic analysis, so one analysis per
    // subdomain tells a planner the factor size of either.
    #[test]
    fn cholmod_and_pardiso_facades_predict_the_same_factor_nnz(a in spd_matrix()) {
        for ordering in [
            OrderingKind::Natural,
            OrderingKind::ReverseCuthillMcKee,
            OrderingKind::MinimumDegree,
            OrderingKind::NestedDissection,
        ] {
            let opts = SolverOptions { ordering, ..Default::default() };
            let cholmod = CholmodLike::analyze(&a, opts);
            prop_assert_eq!(cholmod.factor_nnz(), PardisoLike::analyze(&a, opts).factor_nnz());
            prop_assert_eq!(cholmod.factor_nnz(), cholmod.factorize(&a).unwrap().nnz());
        }
    }

    #[test]
    fn cholmod_and_pardiso_facades_agree(a in spd_matrix(), seed in 0u64..100) {
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (((i as u64 + seed) % 5) as f64) - 2.0).collect();
        let c = CholmodLike::analyze(&a, SolverOptions::default()).factorize(&a).unwrap();
        let p = PardisoLike::analyze(&a, SolverOptions::default()).factorize(&a).unwrap();
        let xc = c.solve(&b);
        let xp = p.solve(&b);
        for (u, v) in xc.iter().zip(&xp) {
            prop_assert!((u - v).abs() < 1e-8);
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
        let f = PardisoLike::analyze(&a, SolverOptions::default()).factorize(&a).unwrap();
        let s = f.schur_complement(&b);
        for i in 0..rows {
            prop_assert!(s.get(i, i) >= -1e-10);
            for j in 0..rows {
                prop_assert!((s.get(i, j) - s.get(j, i)).abs() < 1e-10);
            }
        }
    }
}
