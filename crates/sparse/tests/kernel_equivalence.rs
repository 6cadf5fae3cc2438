//! Kernel-equivalence layer: the blocked BLAS-3/BLAS-2 kernels against the retained
//! scalar reference kernels in [`blas::reference`].
//!
//! The blocked kernels are constructed to preserve each output element's
//! floating-point accumulation order, so the contract checked here is strong:
//! results agree to **at most 4 ulps** (in fact they are bit-identical; the ulp
//! bound is what the test layer guarantees and would survive a reordering-free
//! implementation change).  Shapes sweep the blocking edge cases — empty, single
//! element, one-below/at/one-above the configured block size — and all
//! uplo/side/transpose/diag variants.

use feti_sparse::{
    blas, DenseMatrix, DiagKind, MemoryOrder, PackedUpper, Side, Transpose, Triangle,
};
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

fn vector(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| (((i as u64).wrapping_mul(2654435761) ^ seed) % 1000) as f64 * 2e-3 - 1.0)
        .collect()
}

/// The blocking edge sizes: empty, single, below/at/above the live block size.
fn edge_sizes() -> Vec<usize> {
    let nb = blas::kernel_block_size();
    vec![0, 1, 2, nb - 1, nb, nb + 1]
}

const ORDERS: [MemoryOrder; 2] = [MemoryOrder::RowMajor, MemoryOrder::ColMajor];
const UPLOS: [Triangle; 2] = [Triangle::Upper, Triangle::Lower];
const TRANS: [Transpose; 2] = [Transpose::No, Transpose::Yes];

#[test]
fn symv_matches_reference_on_edge_sizes_and_variants() {
    // The one-right-hand-side walk takes four lines per sweep: besides the block
    // edges, every remainder of `n` by four on either side of one sweep.
    for n in edge_sizes().into_iter().chain(3..=8) {
        for order in ORDERS {
            for uplo in UPLOS {
                let a = filled(n, n, order, 11, 0.0);
                let x = vector(n, 3);
                let mut y_ref = vector(n, 5);
                let mut y_blk = y_ref.clone();
                blas::reference::symv(uplo, 1.25, &a, &x, -0.75, &mut y_ref);
                blas::symv(uplo, 1.25, &a, &x, -0.75, &mut y_blk);
                for i in 0..n {
                    assert_ulps(
                        y_blk[i],
                        y_ref[i],
                        &format!("symv n={n} {order:?} {uplo:?} i={i}"),
                    );
                }
            }
        }
    }
}

/// `len` values over sixty-one binades (`2⁻³⁰` to `2³⁰`), either sign, about a tenth
/// of them `+0.0` or `−0.0`.
fn spread(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let bits = state >> 11;
            let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
            if bits % 10 == 3 {
                return sign * 0.0;
            }
            let mantissa = 1.0 + (bits >> 12) as f64 / (1u64 << 41) as f64;
            sign * mantissa * 2f64.powi(((bits >> 1) % 61) as i32 - 30)
        })
        .collect()
}

#[test]
fn packed_symv_is_the_dense_upper_symv_and_the_reference_to_the_bit() {
    // Every remainder of the four-line sweep from `n = 0`, then sizes around and past
    // two 32-wide panels; `alpha` and `beta` with both zeros, one, and values far apart
    // in magnitude — the epilogue `alpha·tmp + beta·y` decides the sign of a zero.
    let alphas = [0.0, -0.0, 1.0, -1.0, 0.75, -3.5e-200, 2f64.powi(90), 5e-324];
    let betas = [0.0, -0.0, 1.0, -1.0, 0.3, -1e150];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (seed, n) in (0..=13).chain([31, 32, 33, 64, 70]).enumerate() {
        let seed = seed as u64;
        // The lower triangle of `a` is noise neither SYMV may read.
        let a = DenseMatrix::from_row_slice(n, n, &spread(n * n, seed), MemoryOrder::RowMajor);
        let mut packed = PackedUpper::zeros(n);
        for i in 0..n {
            for j in i..n {
                packed.set(i, j, a.get(i, j));
            }
        }
        assert_eq!(packed.len(), n * (n + 1) / 2, "n={n}");
        assert_eq!(packed.dim(), n);
        let mirrored = packed.to_dense();
        assert_eq!(mirrored.order(), MemoryOrder::RowMajor);
        for i in 0..n {
            for j in 0..n {
                let stored = a.get(i.min(j), i.max(j));
                assert_eq!(mirrored.get(i, j).to_bits(), stored.to_bits(), "n={n} ({i}, {j})");
            }
        }
        let x = spread(n, seed ^ 0xa5);
        let y0 = spread(n, seed ^ 0x5a);
        for alpha in alphas {
            for beta in betas {
                let run = |symv: &dyn Fn(&mut [f64])| {
                    let mut y = y0.clone();
                    symv(&mut y);
                    bits(&y)
                };
                let got = run(&|y| blas::symv_packed(alpha, &packed, &x, beta, y));
                let dense = run(&|y| blas::symv(Triangle::Upper, alpha, &a, &x, beta, y));
                let reference =
                    run(&|y| blas::reference::symv(Triangle::Upper, alpha, &mirrored, &x, beta, y));
                let at = format!("n={n} alpha={alpha:e} beta={beta:e}");
                assert_eq!(got, dense, "packed vs dense upper, {at}");
                assert_eq!(got, reference, "packed vs reference, {at}");
            }
        }
    }
}

#[test]
fn syrk_matches_reference_on_edge_sizes_and_variants() {
    for n in edge_sizes() {
        for k in [0usize, 1, 3, 17] {
            for order in ORDERS {
                for uplo in UPLOS {
                    for trans in TRANS {
                        let (rows, cols) = match trans {
                            Transpose::No => (n, k),
                            Transpose::Yes => (k, n),
                        };
                        let a = filled(rows, cols, order, 7, 0.0);
                        let mut c_ref = filled(n, n, order, 13, 0.0);
                        let mut c_blk = c_ref.clone();
                        blas::reference::syrk(uplo, trans, 0.8, &a, 0.4, &mut c_ref);
                        blas::syrk(uplo, trans, 0.8, &a, 0.4, &mut c_blk);
                        for i in 0..n {
                            for j in 0..n {
                                assert_ulps(
                                    c_blk.get(i, j),
                                    c_ref.get(i, j),
                                    &format!(
                                        "syrk n={n} k={k} {order:?} {uplo:?} {trans:?} ({i},{j})"
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

#[test]
fn trsm_matches_reference_on_edge_sizes_and_variants() {
    for n in edge_sizes() {
        for nrhs in [0usize, 1, 5] {
            for order in ORDERS {
                for uplo in UPLOS {
                    for trans in TRANS {
                        for diag in [DiagKind::NonUnit, DiagKind::Unit] {
                            let a = filled(n, n, order, 19, 4.0 + n as f64);
                            let b0 = filled(n, nrhs, order, 23, 0.0);
                            let mut b_ref = b0.clone();
                            let mut b_blk = b0.clone();
                            blas::reference::trsm(uplo, trans, diag, 1.5, &a, &mut b_ref).unwrap();
                            blas::trsm(uplo, trans, diag, 1.5, &a, &mut b_blk).unwrap();
                            for i in 0..n {
                                for j in 0..nrhs {
                                    assert_ulps(
                                        b_blk.get(i, j),
                                        b_ref.get(i, j),
                                        &format!(
                                            "trsm n={n} nrhs={nrhs} {order:?} {uplo:?} {trans:?} {diag:?} ({i},{j})"
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

#[test]
fn symm_matches_reference_on_edge_sizes_and_both_sides() {
    for n in edge_sizes() {
        for m in [0usize, 1, 4] {
            for order in ORDERS {
                for uplo in UPLOS {
                    for side in [Side::Left, Side::Right] {
                        let a = filled(n, n, order, 29, 0.0);
                        let (br, bc) = match side {
                            Side::Left => (n, m),
                            Side::Right => (m, n),
                        };
                        let b = filled(br, bc, order, 31, 0.0);
                        let mut c_ref = filled(br, bc, order, 37, 0.0);
                        let mut c_blk = c_ref.clone();
                        blas::reference::symm(side, uplo, 0.9, &a, &b, -0.3, &mut c_ref);
                        blas::symm(side, uplo, 0.9, &a, &b, -0.3, &mut c_blk);
                        for i in 0..c_ref.nrows() {
                            for j in 0..c_ref.ncols() {
                                assert_ulps(
                                    c_blk.get(i, j),
                                    c_ref.get(i, j),
                                    &format!(
                                        "symm n={n} m={m} {order:?} {uplo:?} {side:?} ({i},{j})"
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_symv_stays_within_ulps_on_random_shapes(
        n in 0usize..40,
        seed in 0u64..1000,
        uplo_sel in 0usize..2,
        order_sel in 0usize..2,
    ) {
        let uplo = UPLOS[uplo_sel];
        let order = ORDERS[order_sel];
        let a = filled(n, n, order, seed, 0.0);
        let x = vector(n, seed ^ 1);
        let mut y_ref = vector(n, seed ^ 2);
        let mut y_blk = y_ref.clone();
        blas::reference::symv(uplo, 1.1, &a, &x, 0.2, &mut y_ref);
        blas::symv(uplo, 1.1, &a, &x, 0.2, &mut y_blk);
        for i in 0..n {
            prop_assert!(ulp_distance(y_blk[i], y_ref[i]) <= 4);
        }
    }

    #[test]
    fn blocked_syrk_stays_within_ulps_on_random_shapes(
        n in 0usize..40,
        k in 0usize..40,
        seed in 0u64..1000,
        uplo_sel in 0usize..2,
        trans_sel in 0usize..2,
    ) {
        let uplo = UPLOS[uplo_sel];
        let trans = TRANS[trans_sel];
        let (rows, cols) = match trans {
            Transpose::No => (n, k),
            Transpose::Yes => (k, n),
        };
        let a = filled(rows, cols, MemoryOrder::RowMajor, seed, 0.0);
        let mut c_ref = filled(n, n, MemoryOrder::RowMajor, seed ^ 3, 0.0);
        let mut c_blk = c_ref.clone();
        blas::reference::syrk(uplo, trans, 1.0, &a, 0.5, &mut c_ref);
        blas::syrk(uplo, trans, 1.0, &a, 0.5, &mut c_blk);
        for i in 0..n {
            for j in 0..n {
                prop_assert!(ulp_distance(c_blk.get(i, j), c_ref.get(i, j)) <= 4);
            }
        }
    }

    #[test]
    fn blocked_trsm_stays_within_ulps_on_random_shapes(
        n in 0usize..32,
        nrhs in 0usize..9,
        seed in 0u64..1000,
        uplo_sel in 0usize..2,
        trans_sel in 0usize..2,
        diag_sel in 0usize..2,
    ) {
        let uplo = UPLOS[uplo_sel];
        let trans = TRANS[trans_sel];
        let diag = [DiagKind::NonUnit, DiagKind::Unit][diag_sel];
        let a = filled(n, n, MemoryOrder::ColMajor, seed, 3.0 + n as f64);
        let b0 = filled(n, nrhs, MemoryOrder::ColMajor, seed ^ 5, 0.0);
        let mut b_ref = b0.clone();
        let mut b_blk = b0;
        blas::reference::trsm(uplo, trans, diag, 0.7, &a, &mut b_ref).unwrap();
        blas::trsm(uplo, trans, diag, 0.7, &a, &mut b_blk).unwrap();
        for i in 0..n {
            for j in 0..nrhs {
                prop_assert!(ulp_distance(b_blk.get(i, j), b_ref.get(i, j)) <= 4);
            }
        }
    }
}
