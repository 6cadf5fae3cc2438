//! cuBLAS-like dense kernels on the simulated device.
//!
//! Each routine really executes its host equivalent from `feti-sparse::blas` (so the
//! numbers are exact) and returns the device-time [`GpuCost`] predicted by the cost
//! model.  The memory order of the operands is honoured by the host kernels; following
//! the paper's observation, it has no first-order effect on the modelled time (it
//! mostly changes workspace sizes, which are handled in [`crate::sparse`]).
//!
//! Only the kernels some executor runs are wrapped: the dense TRSM (the backward
//! solve of the explicit assembly's TRSM path) and SYMV/SYMM (the explicit
//! application).  SYRK, its boundary-restricted variant and the sparse-RHS TRSM are
//! priced from shape alone ([`crate::DeviceOp::cost`]); the host produces their
//! results through the explicit host assembly body of `feti-core`.

use crate::cost::{self, GpuCost, GpuSpec};
use feti_sparse::blas as hostblas;
use feti_sparse::{DenseMatrix, DiagKind, Transpose, Triangle};

/// Dense triangular solve (TRSM): solves `op(A) X = alpha B`, overwriting `B`.
///
/// # Errors
/// Propagates singular-diagonal errors from the host kernel.
pub fn trsm(
    spec: &GpuSpec,
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    alpha: f64,
    a: &DenseMatrix,
    b: &mut DenseMatrix,
) -> feti_sparse::Result<GpuCost> {
    hostblas::trsm(uplo, trans, diag, alpha, a, b)?;
    Ok(cost::dense_trsm(spec, a.nrows(), b.ncols()))
}

/// Symmetric matrix-vector multiplication (SYMV) referencing one triangle only.
pub fn symv(
    spec: &GpuSpec,
    uplo: Triangle,
    alpha: f64,
    a: &DenseMatrix,
    x: &[f64],
    beta: f64,
    y: &mut [f64],
) -> GpuCost {
    hostblas::symv(uplo, alpha, a, x, beta, y);
    cost::symv(spec, a.nrows())
}

/// Symmetric matrix–multi-vector product (SYMM-shaped batched SYMV): `Y = alpha A X +
/// beta Y` where only one triangle of `A` is referenced and `X`/`Y` hold one
/// right-hand side per column.
///
/// Numerically this performs the exact column-by-column host SYMV (so batched results
/// are bit-for-bit identical to repeated [`symv`] calls); the modelled device time is a
/// single SYMM-shaped kernel that streams the stored triangle once for the whole
/// batch.
///
/// # Panics
/// Panics if the dimensions of `a`, `x` and `y` are inconsistent.
pub fn symm_multi(
    spec: &GpuSpec,
    uplo: Triangle,
    alpha: f64,
    a: &DenseMatrix,
    x: &DenseMatrix,
    beta: f64,
    y: &mut DenseMatrix,
) -> GpuCost {
    assert_eq!(a.nrows(), x.nrows(), "operand row mismatch");
    assert_eq!(x.nrows(), y.nrows(), "result row mismatch");
    assert_eq!(x.ncols(), y.ncols(), "result column mismatch");
    let mut y_col = vec![0.0; y.nrows()];
    for j in 0..x.ncols() {
        let x_col = x.col(j);
        for (i, v) in y_col.iter_mut().enumerate() {
            *v = y.get(i, j);
        }
        hostblas::symv(uplo, alpha, a, &x_col, beta, &mut y_col);
        for (i, v) in y_col.iter().enumerate() {
            y.set(i, j, *v);
        }
    }
    cost::symm(spec, a.nrows(), x.ncols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_sparse::MemoryOrder;

    fn spec() -> GpuSpec {
        GpuSpec::a100_40gb()
    }

    #[test]
    fn trsm_result_matches_host_and_reports_cost() {
        let a = DenseMatrix::from_row_slice(2, 2, &[2.0, 0.0, 1.0, 4.0], MemoryOrder::ColMajor);
        let mut b = DenseMatrix::from_row_slice(2, 1, &[2.0, 6.0], MemoryOrder::ColMajor);
        let c = trsm(&spec(), Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut b)
            .unwrap();
        assert!((b.get(0, 0) - 1.0).abs() < 1e-14);
        assert!((b.get(1, 0) - 1.25).abs() < 1e-14);
        assert!(c.seconds > 0.0);
    }

    #[test]
    fn symm_multi_is_bit_for_bit_column_symv() {
        let s = spec();
        let n = 5;
        let mut a = DenseMatrix::zeros(n, n, MemoryOrder::RowMajor);
        for i in 0..n {
            for j in i..n {
                a.set(i, j, ((i * 7 + j * 3) % 11) as f64 * 0.25 - 1.0);
            }
        }
        let k = 4;
        let mut x = DenseMatrix::zeros(n, k, MemoryOrder::ColMajor);
        for j in 0..k {
            for i in 0..n {
                x.set(i, j, (i + 1) as f64 * 0.3 - j as f64);
            }
        }
        let mut y_batched = DenseMatrix::zeros(n, k, MemoryOrder::ColMajor);
        let c = symm_multi(&s, Triangle::Upper, 1.5, &a, &x, 0.0, &mut y_batched);
        for j in 0..k {
            let mut y_col = vec![0.0; n];
            symv(&s, Triangle::Upper, 1.5, &a, &x.col(j), 0.0, &mut y_col);
            for (i, v) in y_col.iter().enumerate() {
                assert_eq!(y_batched.get(i, j), *v, "column {j} row {i}");
            }
        }
        // One SYMM-shaped kernel must not cost more than k SYMV kernels.
        let repeated = cost::symv(&s, n).seconds * k as f64;
        assert!(c.seconds <= repeated);
    }

    #[test]
    fn gemv_and_symv_match() {
        let s = spec();
        let mut full = DenseMatrix::zeros(3, 3, MemoryOrder::ColMajor);
        for i in 0..3 {
            for j in 0..3 {
                full.set(i, j, (1 + i.min(j) + 2 * i.max(j)) as f64);
            }
        }
        let x = [1.0, -2.0, 0.5];
        let mut y1 = vec![0.0; 3];
        hostblas::gemv(1.0, &full, Transpose::No, &x, 0.0, &mut y1);
        // keep only the upper triangle and use symv
        let mut upper = DenseMatrix::zeros(3, 3, MemoryOrder::ColMajor);
        for i in 0..3 {
            for j in i..3 {
                upper.set(i, j, full.get(i, j));
            }
        }
        let mut y2 = vec![0.0; 3];
        let c = symv(&s, Triangle::Upper, 1.0, &upper, &x, 0.0, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(c.seconds > 0.0);
    }
}
