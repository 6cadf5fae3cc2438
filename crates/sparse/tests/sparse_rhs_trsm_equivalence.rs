//! Sparse-RHS kernel-equivalence layer: the boundary-restricted TRSM/SYRK kernels of
//! the sparsity-aware assembly family (arXiv 2509.21037) against the dense blocked
//! kernels they specialise.
//!
//! The sparse-RHS kernels skip work that provably touches only exact zeros, so the
//! contract checked here is strong: on any operand — whatever its zero structure —
//! results agree with the dense blocked kernels to **at most 4 ulps** (in fact they
//! are bit-identical; the ulp bound is what this test layer guarantees and would
//! survive a reordering-free implementation change).  Boundary patterns sweep the
//! edge cases called out for the family: no boundary columns (an all-zero RHS),
//! exactly one, a scattered subset, and all columns nonzero (where the kernels
//! degenerate to the dense ones, checked bit-for-bit); shapes sweep the blocking
//! edges — empty, single element, one-below/at/one-above the configured block size.

use feti_sparse::{blas, DenseMatrix, DiagKind, MemoryOrder, SparseError, Transpose, Triangle};
use proptest::prelude::*;

/// Distance in units-in-the-last-place, treating equal bit patterns as 0 and any
/// sign change through zero via the monotone integer mapping.
fn ulp_distance(a: f64, b: f64) -> u64 {
    assert!(a.is_finite() && b.is_finite(), "kernels must not produce non-finite values");
    let to_ordered = |x: f64| {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    };
    to_ordered(a).abs_diff(to_ordered(b))
}

fn assert_ulps(a: f64, b: f64, context: &str) {
    assert!(ulp_distance(a, b) <= 4, "{context}: {a:e} vs {b:e} ({} ulps)", ulp_distance(a, b));
}

/// Deterministic dense matrix with values derived from a seed; `diag_boost`
/// conditions triangular solves.
fn filled(rows: usize, cols: usize, order: MemoryOrder, seed: u64, diag_boost: f64) -> DenseMatrix {
    let mut a = DenseMatrix::zeros(rows, cols, order);
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d;
    for i in 0..rows {
        for j in 0..cols {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let boost = if i == j { diag_boost } else { 0.0 };
            a.set(i, j, 2.0 * u - 1.0 + boost);
        }
    }
    a
}

/// Zeroes every row of `m` whose index is not in `active`, leaving the boundary
/// structure a gathered `Bᵀ` panel has: nonzero entries only on boundary-DOF rows.
fn keep_rows(m: &mut DenseMatrix, active: &[usize]) {
    for i in 0..m.nrows() {
        if !active.contains(&i) {
            for j in 0..m.ncols() {
                m.set(i, j, 0.0);
            }
        }
    }
}

/// Zeroes every column of `m` whose index is not in `active` (the `Trans::No`
/// orientation, where the contraction dimension runs along columns).
fn keep_cols(m: &mut DenseMatrix, active: &[usize]) {
    for j in 0..m.ncols() {
        if !active.contains(&j) {
            for i in 0..m.nrows() {
                m.set(i, j, 0.0);
            }
        }
    }
}

/// The boundary-DOF patterns exercised per size: none, one, scattered, trailing
/// half, and all (where the sparse kernels degenerate to the dense ones).
fn boundary_patterns(n: usize) -> Vec<Vec<usize>> {
    let mut pats = vec![Vec::new()];
    if n > 0 {
        pats.push(vec![n / 2]);
        pats.push((0..n).step_by(3).collect());
        pats.push((n / 2..n).collect());
        pats.push((0..n).collect());
    }
    pats
}

/// The blocking edge sizes: empty, single, below/at/above the live block size.
fn edge_sizes() -> Vec<usize> {
    let nb = blas::kernel_block_size();
    vec![0, 1, 2, nb - 1, nb, nb + 1]
}

const ORDERS: [MemoryOrder; 2] = [MemoryOrder::RowMajor, MemoryOrder::ColMajor];
const UPLOS: [Triangle; 2] = [Triangle::Upper, Triangle::Lower];
const TRANS: [Transpose; 2] = [Transpose::No, Transpose::Yes];
const DIAGS: [DiagKind; 2] = [DiagKind::NonUnit, DiagKind::Unit];

#[test]
fn sparse_rhs_trsm_matches_dense_blocked_on_boundary_patterns() {
    for n in edge_sizes() {
        for nrhs in [0usize, 1, 5] {
            for active in boundary_patterns(n) {
                for order in ORDERS {
                    for uplo in UPLOS {
                        for trans in TRANS {
                            for diag in DIAGS {
                                let a = filled(n, n, order, 19, 4.0 + n as f64);
                                let mut b0 = filled(n, nrhs, order, 23, 0.0);
                                keep_rows(&mut b0, &active);
                                let mut b_dense = b0.clone();
                                let mut b_sparse = b0;
                                blas::trsm(uplo, trans, diag, 1.5, &a, &mut b_dense).unwrap();
                                blas::sparse_rhs_trsm(uplo, trans, diag, 1.5, &a, &mut b_sparse)
                                    .unwrap();
                                for i in 0..n {
                                    for j in 0..nrhs {
                                        assert_ulps(
                                            b_sparse.get(i, j),
                                            b_dense.get(i, j),
                                            &format!(
                                                "sparse_rhs_trsm n={n} nrhs={nrhs} \
                                                 boundary={}/{n} {order:?} {uplo:?} {trans:?} \
                                                 {diag:?} ({i},{j})",
                                                active.len()
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn boundary_syrk_matches_dense_blocked_on_boundary_patterns() {
    for n in edge_sizes() {
        for k in [0usize, 1, 3, 17] {
            for active in boundary_patterns(k) {
                for order in ORDERS {
                    for uplo in UPLOS {
                        for trans in TRANS {
                            let (rows, cols) = match trans {
                                Transpose::No => (n, k),
                                Transpose::Yes => (k, n),
                            };
                            let mut a = filled(rows, cols, order, 7, 0.0);
                            match trans {
                                Transpose::No => keep_cols(&mut a, &active),
                                Transpose::Yes => keep_rows(&mut a, &active),
                            }
                            let mut c_dense = filled(n, n, order, 13, 0.0);
                            let mut c_sparse = c_dense.clone();
                            blas::syrk(uplo, trans, 0.8, &a, 0.4, &mut c_dense);
                            blas::boundary_syrk(uplo, trans, 0.8, &a, 0.4, &mut c_sparse);
                            for i in 0..n {
                                for j in 0..n {
                                    assert_ulps(
                                        c_sparse.get(i, j),
                                        c_dense.get(i, j),
                                        &format!(
                                            "boundary_syrk n={n} k={k} boundary={}/{k} \
                                             {order:?} {uplo:?} {trans:?} ({i},{j})",
                                            active.len()
                                        ),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// With every column of the gluing matrix nonzero the sparse-RHS kernels have no
/// zero structure to exploit and must reproduce the dense blocked kernels
/// bit-for-bit, not merely within the ulp bound.  Both entry points of each shape run
/// one shared loop nest, told apart only by the starts / active ranges they pass in;
/// this is the case where those must coincide.
#[test]
fn fully_dense_operands_degenerate_to_dense_kernels_bit_for_bit() {
    for n in edge_sizes() {
        for order in ORDERS {
            for uplo in UPLOS {
                for trans in TRANS {
                    let a = filled(n, n, order, 41, 4.0 + n as f64);
                    for diag in DIAGS {
                        let b0 = filled(n, 5, order, 43, 0.0);
                        assert!(b0.as_slice().iter().all(|&v| v != 0.0));
                        let mut b_dense = b0.clone();
                        let mut b_sparse = b0;
                        blas::trsm(uplo, trans, diag, 1.0, &a, &mut b_dense).unwrap();
                        blas::sparse_rhs_trsm(uplo, trans, diag, 1.0, &a, &mut b_sparse).unwrap();
                        for i in 0..n {
                            for j in 0..5 {
                                assert_eq!(
                                    b_sparse.get(i, j).to_bits(),
                                    b_dense.get(i, j).to_bits(),
                                    "trsm degenerate n={n} {order:?} {uplo:?} {trans:?} {diag:?} \
                                     ({i},{j})"
                                );
                            }
                        }
                    }

                    let g = filled(n, 7, order, 47, 0.0);
                    let ga = match trans {
                        Transpose::No => g.clone(),
                        Transpose::Yes => filled(7, n, order, 47, 0.0),
                    };
                    let mut c_dense = filled(n, n, order, 53, 0.0);
                    let mut c_sparse = c_dense.clone();
                    blas::syrk(uplo, trans, 1.0, &ga, 0.0, &mut c_dense);
                    blas::boundary_syrk(uplo, trans, 1.0, &ga, 0.0, &mut c_sparse);
                    for i in 0..n {
                        for j in 0..n {
                            assert_eq!(
                                c_sparse.get(i, j).to_bits(),
                                c_dense.get(i, j).to_bits(),
                                "syrk degenerate n={n} {order:?} {uplo:?} {trans:?} ({i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The singular-diagonal scan covers the rows the sparse-RHS kernel skips: with zero
/// pivots at both ends and a right-hand side active only in the middle, either sweep
/// direction skips one of them, and both entry points still report the pivot the
/// dense column-by-column solve meets first.
#[test]
fn singular_diagonal_in_a_skipped_region_reports_the_dense_index() {
    let n = 6;
    for order in ORDERS {
        for uplo in UPLOS {
            for trans in TRANS {
                let mut a = filled(n, n, order, 61, 4.0 + n as f64);
                a.set(0, 0, 0.0);
                a.set(n - 1, n - 1, 0.0);
                let mut b0 = filled(n, 3, order, 67, 0.0);
                keep_rows(&mut b0, &[2, 3]);
                let dense = blas::trsm(uplo, trans, DiagKind::NonUnit, 1.0, &a, &mut b0.clone())
                    .unwrap_err();
                let sparse =
                    blas::sparse_rhs_trsm(uplo, trans, DiagKind::NonUnit, 1.0, &a, &mut b0)
                        .unwrap_err();
                let forward = matches!(
                    (uplo, trans),
                    (Triangle::Lower, Transpose::No) | (Triangle::Upper, Transpose::Yes)
                );
                let first_met = if forward { 0 } else { n - 1 };
                assert_eq!(dense, SparseError::SingularDiagonal { index: first_met });
                assert_eq!(sparse, dense, "{order:?} {uplo:?} {trans:?}");
            }
        }
    }
}

/// Decodes a bitmask into the set of active (boundary) indices below `n`.
fn mask_rows(n: usize, mask: u64) -> Vec<usize> {
    (0..n).filter(|&i| mask >> (i % 64) & 1 == 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_rhs_trsm_stays_within_ulps_on_random_boundary_masks(
        n in 0usize..32,
        nrhs in 0usize..9,
        seed in 0u64..1000,
        mask in 0u64..u64::MAX,
        uplo_sel in 0usize..2,
        trans_sel in 0usize..2,
        diag_sel in 0usize..2,
    ) {
        let uplo = UPLOS[uplo_sel];
        let trans = TRANS[trans_sel];
        let diag = [DiagKind::NonUnit, DiagKind::Unit][diag_sel];
        let a = filled(n, n, MemoryOrder::ColMajor, seed, 3.0 + n as f64);
        let mut b0 = filled(n, nrhs, MemoryOrder::ColMajor, seed ^ 5, 0.0);
        keep_rows(&mut b0, &mask_rows(n, mask));
        let mut b_dense = b0.clone();
        let mut b_sparse = b0;
        blas::trsm(uplo, trans, diag, 0.7, &a, &mut b_dense).unwrap();
        blas::sparse_rhs_trsm(uplo, trans, diag, 0.7, &a, &mut b_sparse).unwrap();
        for i in 0..n {
            for j in 0..nrhs {
                prop_assert!(ulp_distance(b_sparse.get(i, j), b_dense.get(i, j)) <= 4);
            }
        }
    }

    #[test]
    fn boundary_syrk_stays_within_ulps_on_random_boundary_masks(
        n in 0usize..40,
        k in 0usize..40,
        seed in 0u64..1000,
        mask in 0u64..u64::MAX,
        uplo_sel in 0usize..2,
        trans_sel in 0usize..2,
    ) {
        let uplo = UPLOS[uplo_sel];
        let trans = TRANS[trans_sel];
        let (rows, cols) = match trans {
            Transpose::No => (n, k),
            Transpose::Yes => (k, n),
        };
        let mut a = filled(rows, cols, MemoryOrder::RowMajor, seed, 0.0);
        let active = mask_rows(k, mask);
        match trans {
            Transpose::No => keep_cols(&mut a, &active),
            Transpose::Yes => keep_rows(&mut a, &active),
        }
        let mut c_dense = filled(n, n, MemoryOrder::RowMajor, seed ^ 3, 0.0);
        let mut c_sparse = c_dense.clone();
        blas::syrk(uplo, trans, 1.0, &a, 0.5, &mut c_dense);
        blas::boundary_syrk(uplo, trans, 1.0, &a, 0.5, &mut c_sparse);
        for i in 0..n {
            for j in 0..n {
                prop_assert!(ulp_distance(c_sparse.get(i, j), c_dense.get(i, j)) <= 4);
            }
        }
    }
}
