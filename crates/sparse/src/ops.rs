//! Sparse kernels: SpMV, SpMM, and sparse triangular solves.
//!
//! These are the host-side equivalents of the cuSPARSE routines the paper relies on
//! (SpMV for the implicit operator, SpMM for the final multiplication of the TRSM
//! assembly path, and the sparse TRSV/TRSM used when factors stay in sparse storage).

use crate::csc::CscMatrix;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::{DiagKind, Result, SparseError, Transpose, Triangle};

/// Sparse matrix-vector product `y = alpha * op(A) * x + beta * y` with `A` in CSR.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn spmv_csr(alpha: f64, a: &CsrMatrix, trans: Transpose, x: &[f64], beta: f64, y: &mut [f64]) {
    match trans {
        Transpose::No => {
            assert_eq!(x.len(), a.ncols(), "spmv: x has wrong length");
            assert_eq!(y.len(), a.nrows(), "spmv: y has wrong length");
            for i in 0..a.nrows() {
                let mut acc = 0.0;
                for (&j, &v) in a.row_cols(i).iter().zip(a.row_values(i)) {
                    acc += v * x[j];
                }
                y[i] = alpha * acc + beta * y[i];
            }
        }
        Transpose::Yes => {
            assert_eq!(x.len(), a.nrows(), "spmv^T: x has wrong length");
            assert_eq!(y.len(), a.ncols(), "spmv^T: y has wrong length");
            for v in y.iter_mut() {
                *v *= beta;
            }
            for i in 0..a.nrows() {
                let xi = alpha * x[i];
                if xi == 0.0 {
                    continue;
                }
                for (&j, &v) in a.row_cols(i).iter().zip(a.row_values(i)) {
                    y[j] += v * xi;
                }
            }
        }
    }
}

/// Sparse-dense matrix product `C = alpha * op(A) * B + beta * C` with `A` in CSR and
/// `B`, `C` dense.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn spmm_csr_dense(
    alpha: f64,
    a: &CsrMatrix,
    trans: Transpose,
    b: &DenseMatrix,
    beta: f64,
    c: &mut DenseMatrix,
) {
    let (m, k) =
        if trans.is_transposed() { (a.ncols(), a.nrows()) } else { (a.nrows(), a.ncols()) };
    assert_eq!(b.nrows(), k, "spmm: B has wrong row count");
    assert_eq!(c.nrows(), m, "spmm: C has wrong row count");
    assert_eq!(c.ncols(), b.ncols(), "spmm: C has wrong column count");

    if beta != 1.0 {
        for v in c.as_mut_slice() {
            *v *= beta;
        }
    }
    match trans {
        Transpose::No => {
            for i in 0..a.nrows() {
                for (&p, &v) in a.row_cols(i).iter().zip(a.row_values(i)) {
                    let av = alpha * v;
                    for j in 0..b.ncols() {
                        c.add_assign_at(i, j, av * b.get(p, j));
                    }
                }
            }
        }
        Transpose::Yes => {
            for i in 0..a.nrows() {
                for (&p, &v) in a.row_cols(i).iter().zip(a.row_values(i)) {
                    let av = alpha * v;
                    for j in 0..b.ncols() {
                        c.add_assign_at(p, j, av * b.get(i, j));
                    }
                }
            }
        }
    }
}

/// Sparse triangular solve `op(A) x = b` with `A` in CSR; `b` is overwritten.
///
/// `uplo` describes the triangle of the *stored* matrix `A`; the effective system is
/// lower- or upper-triangular depending on the transpose flag exactly as in BLAS.
///
/// # Errors
/// Returns [`SparseError::SingularDiagonal`] on a missing/zero diagonal entry.
pub fn sptrsv_csr(
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    a: &CsrMatrix,
    b: &mut [f64],
) -> Result<()> {
    assert_eq!(a.ncols(), a.nrows(), "sptrsv: A must be square");
    sptrsv_compressed(uplo, trans, diag, a.row_ptr(), a.col_idx(), a.values(), b)
}

/// The sparse triangular solve behind [`sptrsv_csr`] and [`sptrsv_csc`], over the
/// borrowed arrays of a compressed-row matrix (`ptr.len() - 1` rows; row `i` holds
/// `idx[ptr[i]..ptr[i + 1]]`).  A CSC matrix is the compressed-row storage of its
/// transpose, so both formats run this one loop on their own arrays, uncopied.
fn sptrsv_compressed(
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    ptr: &[usize],
    idx: &[usize],
    values: &[f64],
    b: &mut [f64],
) -> Result<()> {
    let n = ptr.len() - 1;
    assert_eq!(b.len(), n, "sptrsv: b has wrong length");
    let row = |i: usize| idx[ptr[i]..ptr[i + 1]].iter().zip(&values[ptr[i]..ptr[i + 1]]);

    match trans {
        Transpose::No => {
            let forward = matches!(uplo, Triangle::Lower);
            let rows: Box<dyn Iterator<Item = usize>> =
                if forward { Box::new(0..n) } else { Box::new((0..n).rev()) };
            for i in rows {
                let mut acc = b[i];
                let mut diag_val = None;
                for (&j, &v) in row(i) {
                    if j == i {
                        diag_val = Some(v);
                    } else {
                        let in_triangle = if forward { j < i } else { j > i };
                        if in_triangle {
                            acc -= v * b[j];
                        }
                    }
                }
                b[i] = match diag {
                    DiagKind::Unit => acc,
                    DiagKind::NonUnit => {
                        let d = diag_val.unwrap_or(0.0);
                        if d == 0.0 {
                            return Err(SparseError::SingularDiagonal { index: i });
                        }
                        acc / d
                    }
                };
            }
        }
        Transpose::Yes => {
            // Solve A^T x = b using column-oriented updates over the rows of A.
            // If A is lower triangular, A^T is upper triangular -> backward sweep.
            let forward = matches!(uplo, Triangle::Upper);
            let rows: Box<dyn Iterator<Item = usize>> =
                if forward { Box::new(0..n) } else { Box::new((0..n).rev()) };
            for i in rows {
                // x[i] = (b[i]) / a[i][i]; then subtract a[i][j] * x[i] from b[j] for the
                // off-diagonal entries of row i (which are column entries of A^T).
                let mut diag_val = None;
                for (&j, &v) in row(i) {
                    if j == i {
                        diag_val = Some(v);
                    }
                }
                let xi = match diag {
                    DiagKind::Unit => b[i],
                    DiagKind::NonUnit => {
                        let d = diag_val.unwrap_or(0.0);
                        if d == 0.0 {
                            return Err(SparseError::SingularDiagonal { index: i });
                        }
                        b[i] / d
                    }
                };
                b[i] = xi;
                for (&j, &v) in row(i) {
                    if j != i {
                        let in_triangle = match uplo {
                            Triangle::Lower => j < i,
                            Triangle::Upper => j > i,
                        };
                        if in_triangle {
                            b[j] -= v * xi;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Sparse triangular solve with a dense multi-column right-hand side:
/// solves `op(A) X = alpha * B` with `A` in CSR; `B` is overwritten with `X`.
///
/// # Errors
/// Returns [`SparseError::SingularDiagonal`] on a missing/zero diagonal entry.
pub fn sptrsm_csr(
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    alpha: f64,
    a: &CsrMatrix,
    b: &mut DenseMatrix,
) -> Result<()> {
    let n = a.nrows();
    assert_eq!(b.nrows(), n, "sptrsm: B has wrong row count");
    if alpha != 1.0 {
        for v in b.as_mut_slice() {
            *v *= alpha;
        }
    }
    let mut col = vec![0.0; n];
    for j in 0..b.ncols() {
        for i in 0..n {
            col[i] = b.get(i, j);
        }
        sptrsv_csr(uplo, trans, diag, a, &mut col)?;
        for i in 0..n {
            b.set(i, j, col[i]);
        }
    }
    Ok(())
}

/// Sparse triangular solve `op(A) x = b` with `A` in CSC; `b` is overwritten.
///
/// # Errors
/// Returns [`SparseError::SingularDiagonal`] on a missing/zero diagonal entry.
pub fn sptrsv_csc(
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    a: &CscMatrix,
    b: &mut [f64],
) -> Result<()> {
    assert_eq!(a.ncols(), a.nrows(), "sptrsv: A must be square");
    // A CSC matrix is the CSR of its transpose with the triangle flipped.
    let flipped_trans = match trans {
        Transpose::No => Transpose::Yes,
        Transpose::Yes => Transpose::No,
    };
    sptrsv_compressed(uplo.flipped(), flipped_trans, diag, a.col_ptr(), a.row_idx(), a.values(), b)
}

/// Sparse triangular solve with a dense multi-column RHS and a CSC factor.
///
/// # Errors
/// Returns [`SparseError::SingularDiagonal`] on a missing/zero diagonal entry.
pub fn sptrsm_csc(
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    alpha: f64,
    a: &CscMatrix,
    b: &mut DenseMatrix,
) -> Result<()> {
    let n = a.nrows();
    assert_eq!(b.nrows(), n, "sptrsm: B has wrong row count");
    if alpha != 1.0 {
        for v in b.as_mut_slice() {
            *v *= alpha;
        }
    }
    let mut col = vec![0.0; n];
    for j in 0..b.ncols() {
        for i in 0..n {
            col[i] = b.get(i, j);
        }
        sptrsv_csc(uplo, trans, diag, a, &mut col)?;
        for i in 0..n {
            b.set(i, j, col[i]);
        }
    }
    Ok(())
}

/// Sparse-sparse product `C = A * B` with all operands in CSR.
///
/// Used to form coarse-space operators (`G = B R`, `G^T G`) where the result stays
/// sparse.
///
/// # Panics
/// Panics on dimension mismatch.
#[must_use]
pub fn spgemm_csr(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.ncols(), b.nrows(), "spgemm: inner dimensions do not match");
    let mut coo = crate::CooMatrix::new(a.nrows(), b.ncols());
    let mut acc: Vec<f64> = vec![0.0; b.ncols()];
    let mut marked: Vec<usize> = Vec::new();
    for i in 0..a.nrows() {
        marked.clear();
        for (&k, &va) in a.row_cols(i).iter().zip(a.row_values(i)) {
            for (&j, &vb) in b.row_cols(k).iter().zip(b.row_values(k)) {
                if acc[j] == 0.0 && !marked.contains(&j) {
                    marked.push(j);
                }
                acc[j] += va * vb;
            }
        }
        for &j in &marked {
            if acc[j] != 0.0 {
                coo.push(i, j, acc[j]);
            }
            acc[j] = 0.0;
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, MemoryOrder};

    fn lower_factor() -> CsrMatrix {
        // L = [ 2 0 0; 1 3 0; 0 2 4 ]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 1, 2.0);
        coo.push(2, 2, 4.0);
        coo.to_csr()
    }

    fn general() -> CsrMatrix {
        // A = [ 1 0 2; 0 3 0 ]
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.to_csr()
    }

    #[test]
    fn spmv_plain_and_transposed() {
        let a = general();
        let mut y = vec![0.0; 2];
        spmv_csr(1.0, &a, Transpose::No, &[1.0, 1.0, 1.0], 0.0, &mut y);
        assert_eq!(y, vec![3.0, 3.0]);
        let mut yt = vec![1.0; 3];
        spmv_csr(2.0, &a, Transpose::Yes, &[1.0, 1.0], 1.0, &mut yt);
        assert_eq!(yt, vec![3.0, 7.0, 5.0]);
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let a = general();
        let b = DenseMatrix::from_row_slice(
            3,
            2,
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            MemoryOrder::ColMajor,
        );
        let mut c = DenseMatrix::zeros(2, 2, MemoryOrder::RowMajor);
        spmm_csr_dense(1.0, &a, Transpose::No, &b, 0.0, &mut c);
        let ad = a.to_dense(MemoryOrder::RowMajor);
        let mut c_ref = DenseMatrix::zeros(2, 2, MemoryOrder::RowMajor);
        crate::blas::gemm(1.0, &ad, Transpose::No, &b, Transpose::No, 0.0, &mut c_ref);
        assert!(c.max_abs_diff(&c_ref) < 1e-14);

        // transposed: A^T (3x2) * C (2x2)
        let mut ct = DenseMatrix::zeros(3, 2, MemoryOrder::ColMajor);
        spmm_csr_dense(1.0, &a, Transpose::Yes, &c_ref, 0.0, &mut ct);
        let mut ct_ref = DenseMatrix::zeros(3, 2, MemoryOrder::RowMajor);
        crate::blas::gemm(1.0, &ad, Transpose::Yes, &c_ref, Transpose::No, 0.0, &mut ct_ref);
        assert!(ct.max_abs_diff(&ct_ref) < 1e-14);
    }

    #[test]
    fn sparse_trsv_matches_dense() {
        let l = lower_factor();
        let ld = l.to_dense(MemoryOrder::RowMajor);
        for trans in [Transpose::No, Transpose::Yes] {
            let rhs = vec![4.0, 10.0, 20.0];
            let mut x_sparse = rhs.clone();
            sptrsv_csr(Triangle::Lower, trans, DiagKind::NonUnit, &l, &mut x_sparse).unwrap();
            let mut x_dense = rhs;
            crate::blas::trsv(Triangle::Lower, trans, DiagKind::NonUnit, &ld, &mut x_dense)
                .unwrap();
            for (a, b) in x_sparse.iter().zip(&x_dense) {
                assert!((a - b).abs() < 1e-13, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn sparse_trsv_upper_matches_dense() {
        let u = lower_factor().transposed();
        let ud = u.to_dense(MemoryOrder::RowMajor);
        for trans in [Transpose::No, Transpose::Yes] {
            let rhs = vec![3.0, -1.0, 7.0];
            let mut x_sparse = rhs.clone();
            sptrsv_csr(Triangle::Upper, trans, DiagKind::NonUnit, &u, &mut x_sparse).unwrap();
            let mut x_dense = rhs;
            crate::blas::trsv(Triangle::Upper, trans, DiagKind::NonUnit, &ud, &mut x_dense)
                .unwrap();
            for (a, b) in x_sparse.iter().zip(&x_dense) {
                assert!((a - b).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn sparse_trsm_csr_and_csc_agree() {
        // Both formats run one loop over their own borrowed arrays; in a forward solve
        // every target entry receives its subtractions in ascending column order either
        // way, so the solutions agree to the bit.
        let l = lower_factor();
        let lcsc = l.to_csc();
        let b_vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut b1 = DenseMatrix::from_row_slice(3, 2, &b_vals, MemoryOrder::RowMajor);
        let mut b2 = DenseMatrix::from_row_slice(3, 2, &b_vals, MemoryOrder::ColMajor);
        sptrsm_csr(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &l, &mut b1).unwrap();
        sptrsm_csc(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &lcsc, &mut b2).unwrap();
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(b1.get(i, j).to_bits(), b2.get(i, j).to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn missing_diagonal_is_singular() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        let mut b = vec![1.0, 1.0];
        let err =
            sptrsv_csr(Triangle::Lower, Transpose::No, DiagKind::NonUnit, &a, &mut b).unwrap_err();
        assert_eq!(err, SparseError::SingularDiagonal { index: 0 });
    }

    #[test]
    fn spgemm_small() {
        let a = general(); // 2x3
        let b = lower_factor(); // 3x3
        let c = spgemm_csr(&a, &b);
        let cd = c.to_dense(MemoryOrder::RowMajor);
        let ad = a.to_dense(MemoryOrder::RowMajor);
        let bd = b.to_dense(MemoryOrder::RowMajor);
        let mut c_ref = DenseMatrix::zeros(2, 3, MemoryOrder::RowMajor);
        crate::blas::gemm(1.0, &ad, Transpose::No, &bd, Transpose::No, 0.0, &mut c_ref);
        assert!(cd.max_abs_diff(&c_ref) < 1e-14);
    }
}
