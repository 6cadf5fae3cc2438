//! BLAS-like dense kernels operating on [`DenseMatrix`].
//!
//! These are the host-side equivalents of the cuBLAS routines used by the paper's
//! explicit assembly (GEMM, GEMV, SYMV, SYMM, SYRK, TRSM, TRSV).  The simulated GPU
//! device in `feti-gpu` executes exactly these kernels and charges device time for
//! them through its cost model.
//!
//! # Blocked kernels and the bit-for-bit contract
//!
//! The hot kernels — [`symv`] (and [`symv_packed`], its walk over a packed triangle),
//! [`symm`], [`syrk`] and [`trsm`] — are cache-blocked and register-tiled, but they
//! are constructed to be **bit-for-bit identical** to the scalar reference loops
//! retained in [`mod@reference`]: every output element is produced
//! by a single accumulator whose contraction index runs in the same (ascending) order
//! as the reference, so no floating-point operation is reassociated.  The speed comes
//! from streaming the stored triangle once, replacing per-element layout branches with
//! direct strided slice access, and amortizing loads over small register tiles — not
//! from changing the arithmetic.  As a consequence the results are also invariant
//! under the block size ([`kernel_block_size`]), which the tests check by iterating
//! explicit sizes.
//!
//! # Sparsity-aware variants
//!
//! [`sparse_rhs_trsm`] and [`boundary_syrk`] are boundary-restricted counterparts of
//! [`trsm`] and [`syrk`] for operands whose columns (respectively contraction rows)
//! carry long exact-zero prefixes — the shape of `B̃ᵀ` in the explicit FETI assembly,
//! where each multiplier touches only a handful of boundary DOFs.  They skip work that
//! provably multiplies by stored zeros and agree with the dense kernels to ≤ 4 ulps in
//! general (bit-for-bit when the inactive entries are `+0.0`, the case produced by
//! sparse-to-dense conversion).
//!
//! No assembly runs [`syrk`] or [`boundary_syrk`]: the explicit host assembly
//! contracts the panels its forward solve leaves (`feti_solver::ForwardPanels::gram`),
//! skipping every row two panels do not share.  They stay as its oracle — the panel
//! Gram must equal `boundary_syrk` over the spelt-out solve to the bit — and as the
//! kernels the benchmark's `sparse.syrk_s` / `sparse.boundary_syrk_s` rows probe.

use crate::dense::DenseMatrix;
use crate::packed::PackedUpper;
use crate::{DiagKind, MemoryOrder, Result, Side, SparseError, Transpose, Triangle};

#[inline]
fn op_dims(a: &DenseMatrix, trans: Transpose) -> (usize, usize) {
    if trans.is_transposed() {
        (a.ncols(), a.nrows())
    } else {
        (a.nrows(), a.ncols())
    }
}

#[inline]
fn op_get(a: &DenseMatrix, trans: Transpose, i: usize, j: usize) -> f64 {
    if trans.is_transposed() {
        a.get(j, i)
    } else {
        a.get(i, j)
    }
}

// ---------------------------------------------------------------------------------
// Block-size configuration.
// ---------------------------------------------------------------------------------

/// The cache-block size of the blocked SYRK loop nest behind [`syrk`] and
/// [`boundary_syrk`]: 32.
///
/// A constant, not a probe: the results are bit-identical for every block size, and
/// no production path runs these kernels any more (the explicit assembly contracts its
/// forward-solve panels itself, `feti_solver::ForwardPanels::gram`).  The per-process
/// timing race over `{16, 32, 64, 128}` that used to choose it picked 32 in one
/// benchmark run on an 8 × 2197-DOF heat 3D problem and 128 in two others on the same
/// machine.
pub fn kernel_block_size() -> usize {
    32
}

/// Copies `op(A)` into a contiguous row-major buffer (`m x k`, `r[i * k + p]`).
///
/// The copy moves values bitwise, so downstream arithmetic is unaffected.
fn materialize_op_rowmajor(a: &DenseMatrix, trans: Transpose) -> Vec<f64> {
    let (m, k) = op_dims(a, trans);
    let mut r = vec![0.0; m * k];
    match (a.order(), trans) {
        // op(A) already has row-major layout in A's storage: straight memcpy.
        (MemoryOrder::RowMajor, Transpose::No) | (MemoryOrder::ColMajor, Transpose::Yes) => {
            r.copy_from_slice(a.as_slice());
        }
        _ => {
            for i in 0..m {
                for p in 0..k {
                    r[i * k + p] = op_get(a, trans, i, p);
                }
            }
        }
    }
    r
}

// ---------------------------------------------------------------------------------
// GEMM / GEMV.
// ---------------------------------------------------------------------------------

/// General matrix-matrix multiplication: `C = alpha * op(A) * op(B) + beta * C`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm(
    alpha: f64,
    a: &DenseMatrix,
    transa: Transpose,
    b: &DenseMatrix,
    transb: Transpose,
    beta: f64,
    c: &mut DenseMatrix,
) {
    let (m, k) = op_dims(a, transa);
    let (kb, n) = op_dims(b, transb);
    assert_eq!(k, kb, "gemm: inner dimensions do not match");
    assert_eq!(c.nrows(), m, "gemm: C has wrong row count");
    assert_eq!(c.ncols(), n, "gemm: C has wrong column count");

    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += op_get(a, transa, i, p) * op_get(b, transb, p, j);
            }
            let old = c.get(i, j);
            c.set(i, j, alpha * acc + beta * old);
        }
    }
}

/// General matrix-vector multiplication: `y = alpha * op(A) * x + beta * y`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemv(alpha: f64, a: &DenseMatrix, trans: Transpose, x: &[f64], beta: f64, y: &mut [f64]) {
    let (m, k) = op_dims(a, trans);
    assert_eq!(x.len(), k, "gemv: x has wrong length");
    assert_eq!(y.len(), m, "gemv: y has wrong length");
    for i in 0..m {
        let mut acc = 0.0;
        for p in 0..k {
            acc += op_get(a, trans, i, p) * x[p];
        }
        y[i] = alpha * acc + beta * y[i];
    }
}

// ---------------------------------------------------------------------------------
// SYMV / SYMM: one-pass streaming over the stored triangle.
// ---------------------------------------------------------------------------------

/// Core of the blocked SYMV/SYMM: accumulates `A * x_c` into `tmp` column `c` for a
/// register panel of `W` right-hand sides, streaming the stored triangle of `A`
/// exactly once.
///
/// `tmp` is `W * n`, column `c` at `tmp[c * n..(c + 1) * n]`, zeroed on entry.  For
/// every output element the contributions arrive in ascending contraction-index order
/// (`j = 0..n`), i.e. in exactly the order of the scalar reference loop, so each
/// output's floating-point sequence is identical to [`reference::symv`] regardless of
/// the panel width.  The streaming direction follows the storage order, so the
/// triangle is read contiguously; that leaves two walks, because line `i` of a
/// row-major `Upper` and of a column-major `Lower` triangle is the same slice (from
/// the diagonal to the end of the line), and likewise row-major `Lower` and
/// column-major `Upper` (from the start of the line to the diagonal).  The first
/// pair runs [`symv_from_diagonal`], the walk [`symv_packed`] runs too; the second
/// has no caller at one right-hand side outside the tests and stays scalar.
fn symv_panel<const W: usize>(uplo: Triangle, a: &DenseMatrix, x: [&[f64]; W], tmp: &mut [f64]) {
    let n = a.nrows();
    let data = a.as_slice();
    debug_assert_eq!(tmp.len(), W * n);
    match (a.order(), uplo) {
        (MemoryOrder::RowMajor, Triangle::Lower) | (MemoryOrder::ColMajor, Triangle::Upper) => {
            for i in 0..n {
                let line = &data[i * n..i * n + i + 1];
                let mut acc = [0.0f64; W];
                for j in 0..i {
                    let v = line[j];
                    for c in 0..W {
                        acc[c] += v * x[c][j];
                        tmp[c * n + j] += v * x[c][i];
                    }
                }
                let d = line[i];
                for c in 0..W {
                    tmp[c * n + i] = acc[c] + d * x[c][i];
                }
            }
        }
        (MemoryOrder::RowMajor, Triangle::Upper) | (MemoryOrder::ColMajor, Triangle::Lower) => {
            symv_from_diagonal(|i| &data[i * n + i..(i + 1) * n], x, tmp);
        }
    }
}

/// The diagonal-to-end walk of [`symv_panel`] over any storage that hands out line `i`
/// of the symmetric matrix from its diagonal to its end (`line(i) = A(i, i..n)`): the
/// row-major `Upper` (column-major `Lower`) triangle of a [`DenseMatrix`] and a
/// [`PackedUpper`] alike.
///
/// With `W > 1` the `W` accumulators of a line are independent dependency chains.
/// With `W == 1` — every application of an explicit `F̃ᵢ` — a line is one chain
/// `acc += v * x[j]`, bound by the latency of the addition, so the walk takes four
/// lines per sweep ([`symv_four_lines`]).
fn symv_from_diagonal<'a, const W: usize>(
    line: impl Fn(usize) -> &'a [f64],
    x: [&[f64]; W],
    tmp: &mut [f64],
) {
    let n = tmp.len() / W;
    let first = if W == 1 { symv_four_lines(&line, x[0], tmp) } else { 0 };
    for i in first..n {
        let line = line(i);
        let d = line[0];
        let mut acc = [0.0f64; W];
        for c in 0..W {
            acc[c] = tmp[c * n + i] + d * x[c][i];
        }
        for j in (i + 1)..n {
            let v = line[j - i];
            for c in 0..W {
                acc[c] += v * x[c][j];
                tmp[c * n + j] += v * x[c][i];
            }
        }
        for c in 0..W {
            tmp[c * n + i] = acc[c];
        }
    }
}

/// [`symv_from_diagonal`] at one right-hand side, four lines `i..i + 4` per sweep;
/// returns the first line it left for the scalar walk (`n - n % 4`).
///
/// Output `i + r` first takes what the 4×4 diagonal block contributes, scalar and in
/// reference order: the entries lines `i..i + r` hold in column `i + r`, then its own
/// diagonal and the rest of the block.  Beyond the block the four outputs are four
/// independent chains over `j`, and `tmp[j]` takes its four contributions in one
/// expression in ascending line order — so every output still receives its terms in
/// ascending contraction index, one rounding each, and equals the scalar walk to the
/// bit.
fn symv_four_lines<'a>(line: &impl Fn(usize) -> &'a [f64], x: &[f64], tmp: &mut [f64]) -> usize {
    let n = x.len();
    let mut i = 0;
    while i + 4 <= n {
        // lines[r][k] = A(i + r, i + r + k).
        let lines: [&[f64]; 4] = std::array::from_fn(|r| line(i + r));
        let xi = [x[i], x[i + 1], x[i + 2], x[i + 3]];
        let mut acc = [0.0f64; 4];
        for r in 0..4 {
            acc[r] = tmp[i + r];
            for above in 0..r {
                acc[r] += lines[above][r - above] * xi[above];
            }
            for c in r..4 {
                acc[r] += lines[r][c - r] * xi[c];
            }
        }
        let [mut a0, mut a1, mut a2, mut a3] = acc;
        let tails =
            lines[0][4..].iter().zip(&lines[1][3..]).zip(&lines[2][2..]).zip(&lines[3][1..]);
        for ((((&v0, &v1), &v2), &v3), (&xj, tj)) in
            tails.zip(x[i + 4..].iter().zip(&mut tmp[i + 4..]))
        {
            a0 += v0 * xj;
            a1 += v1 * xj;
            a2 += v2 * xj;
            a3 += v3 * xj;
            *tj = (((*tj + v0 * xi[0]) + v1 * xi[1]) + v2 * xi[2]) + v3 * xi[3];
        }
        tmp[i..i + 4].copy_from_slice(&[a0, a1, a2, a3]);
        i += 4;
    }
    i
}

/// `y = alpha * tmp + beta * y`, the epilogue of both SYMV doors.
fn symv_epilogue(alpha: f64, tmp: &[f64], beta: f64, y: &mut [f64]) {
    for (y, &t) in y.iter_mut().zip(tmp) {
        *y = alpha * t + beta * *y;
    }
}

/// Symmetric matrix-vector multiplication: `y = alpha * A * x + beta * y`, where only
/// the `uplo` triangle of `A` is referenced.
///
/// Bit-for-bit identical to [`reference::symv`] (see the module docs); roughly halves
/// the memory traffic of the scalar loop by streaming the stored triangle once.
///
/// # Panics
/// Panics on dimension mismatch or if `A` is not square.
pub fn symv(uplo: Triangle, alpha: f64, a: &DenseMatrix, x: &[f64], beta: f64, y: &mut [f64]) {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "symv: A must be square");
    assert_eq!(x.len(), n, "symv: x has wrong length");
    assert_eq!(y.len(), n, "symv: y has wrong length");
    let mut tmp = vec![0.0; n];
    symv_panel::<1>(uplo, a, [x], &mut tmp);
    symv_epilogue(alpha, &tmp, beta, y);
}

/// [`symv`] over a symmetric matrix held as its packed upper triangle: the same walk
/// as `symv(Triangle::Upper, …)` on a row-major matrix with that upper triangle,
/// reading the same values in the same order, so the two — and [`reference::symv`] on
/// the mirrored matrix — agree to the bit.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn symv_packed(alpha: f64, a: &PackedUpper, x: &[f64], beta: f64, y: &mut [f64]) {
    let n = a.dim();
    assert_eq!(x.len(), n, "symv: x has wrong length");
    assert_eq!(y.len(), n, "symv: y has wrong length");
    let mut tmp = vec![0.0; n];
    symv_from_diagonal(|i| a.line(i), [x], &mut tmp);
    symv_epilogue(alpha, &tmp, beta, y);
}

/// Symmetric matrix-matrix multiplication:
/// `C = alpha * A * B + beta * C` ([`Side::Left`]) or
/// `C = alpha * B * A + beta * C` ([`Side::Right`]), with `A` symmetric and only its
/// `uplo` triangle referenced.
///
/// Every output column (left) / row (right) is bit-for-bit identical to a [`symv`]
/// with the corresponding column/row of `B`: the panel evaluation shares loads of `A`
/// across up to four right-hand sides but keeps one accumulator per output in the
/// reference contraction order.
///
/// # Panics
/// Panics on dimension mismatch or if `A` is not square.
pub fn symm(
    side: Side,
    uplo: Triangle,
    alpha: f64,
    a: &DenseMatrix,
    b: &DenseMatrix,
    beta: f64,
    c: &mut DenseMatrix,
) {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "symm: A must be square");
    // Number of independent symv right-hand sides.
    let m = match side {
        Side::Left => {
            assert_eq!(b.nrows(), n, "symm: B has wrong row count");
            assert_eq!(c.nrows(), n, "symm: C has wrong row count");
            assert_eq!(c.ncols(), b.ncols(), "symm: C has wrong column count");
            b.ncols()
        }
        Side::Right => {
            assert_eq!(b.ncols(), n, "symm: B has wrong column count");
            assert_eq!(c.ncols(), n, "symm: C has wrong column count");
            assert_eq!(c.nrows(), b.nrows(), "symm: C has wrong row count");
            b.nrows()
        }
    };
    // Gather the right-hand sides into contiguous length-n vectors: columns of B for
    // the left-side product, rows of B for the right-side one (B·A = (A·Bᵀ)ᵀ since A
    // is symmetric).
    let mut bx = vec![0.0; n * m];
    for r in 0..m {
        let dst = &mut bx[r * n..(r + 1) * n];
        match side {
            Side::Left => {
                for i in 0..n {
                    dst[i] = b.get(i, r);
                }
            }
            Side::Right => {
                for i in 0..n {
                    dst[i] = b.get(r, i);
                }
            }
        }
    }
    let mut tmp = vec![0.0; n * m];
    let mut r0 = 0;
    while r0 < m {
        let w = (m - r0).min(4);
        let seg = &mut tmp[r0 * n..(r0 + w) * n];
        let col = |c: usize| &bx[(r0 + c) * n..(r0 + c + 1) * n];
        match w {
            4 => symv_panel::<4>(uplo, a, [col(0), col(1), col(2), col(3)], seg),
            3 => symv_panel::<3>(uplo, a, [col(0), col(1), col(2)], seg),
            2 => symv_panel::<2>(uplo, a, [col(0), col(1)], seg),
            _ => symv_panel::<1>(uplo, a, [col(0)], seg),
        }
        r0 += w;
    }
    for r in 0..m {
        let src = &tmp[r * n..(r + 1) * n];
        for i in 0..n {
            let (ci, cj) = match side {
                Side::Left => (i, r),
                Side::Right => (r, i),
            };
            let old = c.get(ci, cj);
            c.set(ci, cj, alpha * src[i] + beta * old);
        }
    }
}

// ---------------------------------------------------------------------------------
// SYRK: cache-blocked panels with a 1x4 register micro-kernel.
// ---------------------------------------------------------------------------------

/// Symmetric rank-k update: `C = alpha * op(A) * op(A)^T + beta * C`, updating only the
/// `uplo` triangle of `C`.
///
/// With `trans == Transpose::No` this computes `A * A^T`; with `Transpose::Yes` it
/// computes `A^T * A`.  This is the second kernel of the paper's SYRK assembly path.
///
/// `op(A)` is first packed into a contiguous row-major buffer; the output triangle is
/// then walked in [`kernel_block_size`]-square cache blocks with a four-accumulator
/// register tile, each output element keeping the reference loop's single-accumulator
/// `p = 0..k` order (bit-for-bit identical to [`reference::syrk`]).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn syrk(
    uplo: Triangle,
    trans: Transpose,
    alpha: f64,
    a: &DenseMatrix,
    beta: f64,
    c: &mut DenseMatrix,
) {
    let (n, kdim) = op_dims(a, trans);
    assert_eq!(c.nrows(), n, "syrk: C has wrong row count");
    assert_eq!(c.ncols(), n, "syrk: C has wrong column count");
    let r = materialize_op_rowmajor(a, trans);
    syrk_blocked(uplo, alpha, &r, kdim, &vec![0; n], beta, c, kernel_block_size());
}

/// The blocked SYRK loop nest behind [`syrk`] and [`boundary_syrk`].
///
/// `r` is `op(A)` packed row-major (`starts.len() x kdim`) and `starts[i]` is the
/// contraction index before which row `i` is exactly zero: all zeros for the dense
/// kernel (which therefore never scans `A`), the first nonzero of each row for the
/// boundary kernel.  The inner product for `C(i, j)` starts at the later of the two
/// rows' starts; every skipped product multiplies a stored zero and each accumulator
/// starts at a literal `+0.0`, so the starts never change a bit of the result.
#[allow(clippy::too_many_arguments)]
fn syrk_blocked(
    uplo: Triangle,
    alpha: f64,
    r: &[f64],
    kdim: usize,
    starts: &[usize],
    beta: f64,
    c: &mut DenseMatrix,
    nb: usize,
) {
    let n = starts.len();
    let mut i0 = 0;
    while i0 < n {
        let i1 = (i0 + nb).min(n);
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + nb).min(n);
            for i in i0..i1 {
                // Clip the block's column range to the stored triangle of C.
                let (jlo, jhi) = match uplo {
                    Triangle::Upper => (j0.max(i), j1),
                    Triangle::Lower => (j0, j1.min(i + 1)),
                };
                if jlo >= jhi {
                    continue;
                }
                let ri = &r[i * kdim..(i + 1) * kdim];
                let si = starts[i];
                let mut j = jlo;
                while j + 4 <= jhi {
                    let rj0 = &r[j * kdim..(j + 1) * kdim];
                    let rj1 = &r[(j + 1) * kdim..(j + 2) * kdim];
                    let rj2 = &r[(j + 2) * kdim..(j + 3) * kdim];
                    let rj3 = &r[(j + 3) * kdim..(j + 4) * kdim];
                    // The shared start must cover all four columns of the tile; lanes
                    // whose own start is later just add exact zeros to a +0.0
                    // accumulator, which is still bit-identical.
                    let p0 =
                        si.max(starts[j].min(starts[j + 1]).min(starts[j + 2]).min(starts[j + 3]));
                    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
                    for p in p0..kdim {
                        let av = ri[p];
                        a0 += av * rj0[p];
                        a1 += av * rj1[p];
                        a2 += av * rj2[p];
                        a3 += av * rj3[p];
                    }
                    for (q, acc) in [a0, a1, a2, a3].into_iter().enumerate() {
                        let old = c.get(i, j + q);
                        c.set(i, j + q, alpha * acc + beta * old);
                    }
                    j += 4;
                }
                while j < jhi {
                    let rj = &r[j * kdim..(j + 1) * kdim];
                    let mut acc = 0.0;
                    for p in si.max(starts[j])..kdim {
                        acc += ri[p] * rj[p];
                    }
                    let old = c.get(i, j);
                    c.set(i, j, alpha * acc + beta * old);
                    j += 1;
                }
            }
            j0 = j1;
        }
        i0 = i1;
    }
}

// ---------------------------------------------------------------------------------
// TRSV / TRSM.
// ---------------------------------------------------------------------------------

/// Triangular solve with a single right-hand side: solves `op(A) * x = b` where `A` is
/// triangular.  `b` is overwritten with the solution.
///
/// # Errors
/// Returns [`SparseError::SingularDiagonal`] if a diagonal entry is zero (and
/// `diag == NonUnit`).
pub fn trsv(
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    a: &DenseMatrix,
    b: &mut [f64],
) -> Result<()> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "trsv: A must be square");
    assert_eq!(b.len(), n, "trsv: b has wrong length");

    // op(A) lower-triangular  <=>  forward substitution.
    let effective_lower = match (uplo, trans) {
        (Triangle::Lower, Transpose::No) | (Triangle::Upper, Transpose::Yes) => true,
        (Triangle::Upper, Transpose::No) | (Triangle::Lower, Transpose::Yes) => false,
    };
    let get = |i: usize, j: usize| op_get(a, trans, i, j);

    if effective_lower {
        for i in 0..n {
            let mut acc = b[i];
            for j in 0..i {
                acc -= get(i, j) * b[j];
            }
            b[i] = match diag {
                DiagKind::Unit => acc,
                DiagKind::NonUnit => {
                    let d = get(i, i);
                    if d == 0.0 {
                        return Err(SparseError::SingularDiagonal { index: i });
                    }
                    acc / d
                }
            };
        }
    } else {
        for i in (0..n).rev() {
            let mut acc = b[i];
            for j in (i + 1)..n {
                acc -= get(i, j) * b[j];
            }
            b[i] = match diag {
                DiagKind::Unit => acc,
                DiagKind::NonUnit => {
                    let d = get(i, i);
                    if d == 0.0 {
                        return Err(SparseError::SingularDiagonal { index: i });
                    }
                    acc / d
                }
            };
        }
    }
    Ok(())
}

/// Forward substitution over a register panel of `W` right-hand sides interleaved in
/// `x` (`x[i * W + c]`).  Per column the operation sequence is exactly that of [`trsv`]
/// on an effectively-lower `op(A)` (ascending subtraction order, one division per
/// element); the panel only shares the loads of the factor.
///
/// Only rows `start..n` are read or written.  With `start == 0` this is the dense
/// panel; a positive `start` is valid whenever every panel column is exactly zero
/// above `start`, in which case the skipped subtraction terms multiply stored zeros
/// and the result matches the dense solve (bit-for-bit when those zeros are `+0.0`).
fn trsm_panel_forward_from<const W: usize>(
    e: &[f64],
    n: usize,
    start: usize,
    diag: DiagKind,
    x: &mut [f64],
) {
    debug_assert_eq!(x.len(), n * W);
    for i in start..n {
        let row = &e[i * n..i * n + i + 1];
        let mut acc = [0.0f64; W];
        acc.copy_from_slice(&x[i * W..i * W + W]);
        // The interleaved layout (`x[j*W + c]`) makes this one contiguous stream per
        // operand; the zip elides bounds checks and the W accumulator chains are
        // independent, so the lanes vectorize without reassociating any single
        // column's subtraction order.
        for (&l, xs) in row[start..i].iter().zip(x[start * W..].chunks_exact(W)) {
            for c in 0..W {
                acc[c] -= l * xs[c];
            }
        }
        let out = &mut x[i * W..i * W + W];
        match diag {
            DiagKind::Unit => out.copy_from_slice(&acc),
            DiagKind::NonUnit => {
                let d = row[i];
                for c in 0..W {
                    out[c] = acc[c] / d;
                }
            }
        }
    }
}

/// Backward-substitution mirror of [`trsm_panel_forward_from`], restricted to rows
/// `0..end`: rows at or below `end` are neither read nor written (`end == n` is the
/// dense panel; a smaller `end` is valid whenever every panel column is exactly zero
/// from `end` downward).
fn trsm_panel_backward_to<const W: usize>(
    e: &[f64],
    n: usize,
    end: usize,
    diag: DiagKind,
    x: &mut [f64],
) {
    debug_assert_eq!(x.len(), n * W);
    for i in (0..end).rev() {
        let row = &e[i * n..i * n + end];
        let mut acc = [0.0f64; W];
        acc.copy_from_slice(&x[i * W..i * W + W]);
        for (&l, xs) in row[i + 1..].iter().zip(x[(i + 1) * W..end * W].chunks_exact(W)) {
            for c in 0..W {
                acc[c] -= l * xs[c];
            }
        }
        let out = &mut x[i * W..i * W + W];
        match diag {
            DiagKind::Unit => out.copy_from_slice(&acc),
            DiagKind::NonUnit => {
                let d = e[i * n + i];
                for c in 0..W {
                    out[c] = acc[c] / d;
                }
            }
        }
    }
}

/// Triangular solve with a dense right-hand-side matrix (left side):
/// solves `op(A) * X = alpha * B`, overwriting `B` with `X`.  On error the contents
/// of `B` are unspecified.
///
/// This is the dense TRSM used by the paper when factors are stored densely.  `op(A)`
/// is packed once into a contiguous row-major buffer and the right-hand sides are
/// solved in four-column register panels; each column's floating-point sequence is
/// exactly that of a [`trsv`] on that column (bit-for-bit identical to
/// [`reference::trsm`]).
///
/// # Errors
/// Returns [`SparseError::SingularDiagonal`] if a diagonal entry is zero (and
/// `diag == NonUnit`).
pub fn trsm(
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    alpha: f64,
    a: &DenseMatrix,
    b: &mut DenseMatrix,
) -> Result<()> {
    trsm_panels("trsm", uplo, trans, diag, alpha, a, b, |b| vec![(0, b.nrows()); b.ncols()])
}

/// The TRSM driver behind [`trsm`] and [`sparse_rhs_trsm`]: scale by `alpha`, pack
/// `op(A)`, scan the diagonal, then gather / solve / scatter four-column panels.
///
/// `active_ranges` maps the scaled `B` to one `(first, end)` row range per column
/// outside which that column is exactly zero.  Columns are grouped into panels in
/// order of their active bound and each panel is solved only over the rows its widest
/// member needs.  The dense kernel passes full ranges without looking at `B`: the
/// stable sort then leaves the columns in place and every panel spans all rows.
#[allow(clippy::too_many_arguments)]
fn trsm_panels(
    kernel: &str,
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    alpha: f64,
    a: &DenseMatrix,
    b: &mut DenseMatrix,
    active_ranges: fn(&DenseMatrix) -> Vec<(usize, usize)>,
) -> Result<()> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "{kernel}: A must be square");
    assert_eq!(b.nrows(), n, "{kernel}: B has wrong row count");
    let ncols = b.ncols();

    if alpha != 1.0 {
        for v in b.as_mut_slice() {
            *v *= alpha;
        }
    }
    if n == 0 || ncols == 0 {
        return Ok(());
    }

    let effective_lower = match (uplo, trans) {
        (Triangle::Lower, Transpose::No) | (Triangle::Upper, Transpose::Yes) => true,
        (Triangle::Upper, Transpose::No) | (Triangle::Lower, Transpose::Yes) => false,
    };
    let e = materialize_op_rowmajor(a, trans);
    // The singularity check is value-only, so it can run up front, in the same scan
    // order as the reference column-by-column solve (which fails at the first zero
    // diagonal element it meets) and over the full diagonal: a singular pivot is
    // reported even when it sits in rows every panel skips.
    if diag == DiagKind::NonUnit {
        let scan: Box<dyn Iterator<Item = usize>> =
            if effective_lower { Box::new(0..n) } else { Box::new((0..n).rev()) };
        for i in scan {
            if e[i * n + i] == 0.0 {
                return Err(SparseError::SingularDiagonal { index: i });
            }
        }
    }

    // Gather step: order the columns by their active bound so panels stay tight.
    let ranges = active_ranges(b);
    let mut order: Vec<usize> = (0..ncols).collect();
    if effective_lower {
        order.sort_by_key(|&j| ranges[j].0);
    } else {
        order.sort_by_key(|&j| std::cmp::Reverse(ranges[j].1));
    }

    let mut xbuf = vec![0.0; n * 4];
    let mut q0 = 0;
    while q0 < ncols {
        let w = (ncols - q0).min(4);
        let cols = &order[q0..q0 + w];
        // The panel's row range must cover every member column; the sort makes the
        // widest member come first.
        let (lo, hi) =
            if effective_lower { (ranges[cols[0]].0, n) } else { (0, ranges[cols[0]].1) };
        if lo >= hi {
            // Entirely zero columns: the solution is the (scaled) zero input.
            q0 += w;
            continue;
        }
        // Interleaved panel layout: xbuf[i*w + c] holds B(i, cols[c]), so the panel
        // kernels stream one contiguous buffer.
        for (c, &j) in cols.iter().enumerate() {
            for i in lo..hi {
                xbuf[i * w + c] = b.get(i, j);
            }
        }
        let seg = &mut xbuf[..w * n];
        match (effective_lower, w) {
            (true, 4) => trsm_panel_forward_from::<4>(&e, n, lo, diag, seg),
            (true, 3) => trsm_panel_forward_from::<3>(&e, n, lo, diag, seg),
            (true, 2) => trsm_panel_forward_from::<2>(&e, n, lo, diag, seg),
            (true, _) => trsm_panel_forward_from::<1>(&e, n, lo, diag, seg),
            (false, 4) => trsm_panel_backward_to::<4>(&e, n, hi, diag, seg),
            (false, 3) => trsm_panel_backward_to::<3>(&e, n, hi, diag, seg),
            (false, 2) => trsm_panel_backward_to::<2>(&e, n, hi, diag, seg),
            (false, _) => trsm_panel_backward_to::<1>(&e, n, hi, diag, seg),
        }
        // Scatter step: only the solved rows go back.
        for (c, &j) in cols.iter().enumerate() {
            for i in lo..hi {
                b.set(i, j, xbuf[i * w + c]);
            }
        }
        q0 += w;
    }
    Ok(())
}

// ---------------------------------------------------------------------------------
// Sparse-RHS TRSM / boundary SYRK: boundary-restricted assembly kernels.
// ---------------------------------------------------------------------------------

/// Per-column active row ranges of a dense right-hand side: for each column the index
/// of its first nonzero row and one past its last nonzero row (`(n, 0)` for an
/// all-zero column).
///
/// This is the gather/scatter layer's analysis step for the boundary-restricted
/// assembly: the columns of `B̃ᵀ` are the local multipliers, each touching only a few
/// boundary DOFs, so under a fill-reducing permutation the active range is a short
/// suffix (forward solves) or prefix (backward solves) of the column.
#[must_use]
pub fn column_active_ranges(b: &DenseMatrix) -> Vec<(usize, usize)> {
    let n = b.nrows();
    (0..b.ncols())
        .map(|j| {
            let start = (0..n).find(|&i| b.get(i, j) != 0.0).unwrap_or(n);
            let end = (0..n).rev().find(|&i| b.get(i, j) != 0.0).map_or(0, |i| i + 1);
            (start, end)
        })
        .collect()
}

/// Sparse-right-hand-side variant of [`trsm`]: solves `op(A) * X = alpha * B` exactly
/// like the dense kernel, but restricts each solve panel to the rows where its
/// columns can be nonzero.
///
/// The kernel scans `B` for per-column active ranges ([`column_active_ranges`]),
/// gathers the columns into four-wide interleaved panels in order of their active
/// bound (so columns with similar sparsity share a panel), solves only rows from the
/// panel's first possible nonzero onward (forward substitution; the mirror for
/// backward), and scatters the boundary rows back.  Rows outside a column's active
/// range hold an exactly-zero solution and are left untouched beyond the `alpha`
/// scaling.
///
/// Agreement with [`trsm`]: ≤ 4 ulps always (differences are confined to the sign of
/// exact zeros), and bit-for-bit when the inactive entries of `B` are `+0.0` and the
/// effective diagonal of `op(A)` is positive — the explicit-assembly case, where `B`
/// comes from a sparse-to-dense conversion and `A` is a Cholesky factor.
///
/// # Errors
/// Returns [`SparseError::SingularDiagonal`] for the same diagonal index as [`trsm`]
/// (the scan covers skipped rows too, so error behavior is identical).
pub fn sparse_rhs_trsm(
    uplo: Triangle,
    trans: Transpose,
    diag: DiagKind,
    alpha: f64,
    a: &DenseMatrix,
    b: &mut DenseMatrix,
) -> Result<()> {
    trsm_panels("sparse_rhs_trsm", uplo, trans, diag, alpha, a, b, column_active_ranges)
}

/// Boundary-restricted variant of [`syrk`]: `C = alpha * op(A) * op(A)^T + beta * C`
/// skipping the exact-zero prefix of every row of `op(A)` along the contraction
/// dimension.
///
/// After the forward solve of the explicit assembly the rows of `Xᵀ` (one per local
/// multiplier) are zero up to the multiplier's first boundary DOF, so the inner
/// product for `C(i, j)` can start at the later of the two rows' first nonzeros.
/// Every skipped product multiplies a stored zero, and each accumulator starts at a
/// literal `+0.0`, so the result is bit-for-bit identical to [`syrk`].
///
/// # Panics
/// Panics on dimension mismatch.
pub fn boundary_syrk(
    uplo: Triangle,
    trans: Transpose,
    alpha: f64,
    a: &DenseMatrix,
    beta: f64,
    c: &mut DenseMatrix,
) {
    let (n, kdim) = op_dims(a, trans);
    assert_eq!(c.nrows(), n, "boundary_syrk: C has wrong row count");
    assert_eq!(c.ncols(), n, "boundary_syrk: C has wrong column count");
    let r = materialize_op_rowmajor(a, trans);
    let starts = zero_prefix_lengths(&r, n, kdim);
    syrk_blocked(uplo, alpha, &r, kdim, &starts, beta, c, kernel_block_size());
}

/// First nonzero of every row of the packed `n x kdim` operand (`kdim` for an all-zero
/// row): the contraction starts [`boundary_syrk`] hands to the shared SYRK loop nest.
fn zero_prefix_lengths(r: &[f64], n: usize, kdim: usize) -> Vec<usize> {
    (0..n)
        .map(|i| r[i * kdim..(i + 1) * kdim].iter().position(|&v| v != 0.0).unwrap_or(kdim))
        .collect()
}

// ---------------------------------------------------------------------------------
// Vector helpers.
// ---------------------------------------------------------------------------------

/// `y += alpha * x`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Dot product of two vectors.
///
/// # Panics
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm of a vector.
#[must_use]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

// ---------------------------------------------------------------------------------
// Scalar reference kernels.
// ---------------------------------------------------------------------------------

/// The scalar reference kernels the blocked implementations are validated against.
///
/// These are the original row-walking loops, retained verbatim: the kernel-equivalence
/// test layer (`crates/sparse/tests/`) asserts that the blocked [`symv`], [`symm`],
/// [`syrk`] and [`trsm`] match them —
/// bit-for-bit by construction, and within 4 ulps as the stated public contract.  They
/// are a test oracle: no production path calls them.
pub mod reference {
    use super::{op_dims, op_get, trsv, DenseMatrix, Result, Side, Transpose, Triangle};
    use crate::DiagKind;

    /// Scalar reference SYMV (the original per-element triangle-branching loop).
    ///
    /// # Panics
    /// Panics on dimension mismatch or if `A` is not square.
    pub fn symv(uplo: Triangle, alpha: f64, a: &DenseMatrix, x: &[f64], beta: f64, y: &mut [f64]) {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "symv: A must be square");
        assert_eq!(x.len(), n, "symv: x has wrong length");
        assert_eq!(y.len(), n, "symv: y has wrong length");
        let mut tmp = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                let v = match uplo {
                    Triangle::Upper => {
                        if j >= i {
                            a.get(i, j)
                        } else {
                            a.get(j, i)
                        }
                    }
                    Triangle::Lower => {
                        if j <= i {
                            a.get(i, j)
                        } else {
                            a.get(j, i)
                        }
                    }
                };
                tmp[i] += v * x[j];
            }
            y[i] = alpha * tmp[i] + beta * y[i];
        }
    }

    /// Scalar reference SYMM: one reference [`symv`] per column (left) or row (right)
    /// of `B`.
    ///
    /// # Panics
    /// Panics on dimension mismatch or if `A` is not square.
    pub fn symm(
        side: Side,
        uplo: Triangle,
        alpha: f64,
        a: &DenseMatrix,
        b: &DenseMatrix,
        beta: f64,
        c: &mut DenseMatrix,
    ) {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "symm: A must be square");
        match side {
            Side::Left => {
                assert_eq!(b.nrows(), n, "symm: B has wrong row count");
                assert_eq!(c.nrows(), n, "symm: C has wrong row count");
                assert_eq!(c.ncols(), b.ncols(), "symm: C has wrong column count");
                for j in 0..b.ncols() {
                    let x = b.col(j);
                    let mut y: Vec<f64> = (0..n).map(|i| c.get(i, j)).collect();
                    symv(uplo, alpha, a, &x, beta, &mut y);
                    for (i, v) in y.iter().enumerate() {
                        c.set(i, j, *v);
                    }
                }
            }
            Side::Right => {
                assert_eq!(b.ncols(), n, "symm: B has wrong column count");
                assert_eq!(c.ncols(), n, "symm: C has wrong column count");
                assert_eq!(c.nrows(), b.nrows(), "symm: C has wrong row count");
                for r in 0..b.nrows() {
                    let x: Vec<f64> = (0..n).map(|j| b.get(r, j)).collect();
                    let mut y: Vec<f64> = (0..n).map(|j| c.get(r, j)).collect();
                    symv(uplo, alpha, a, &x, beta, &mut y);
                    for (j, v) in y.iter().enumerate() {
                        c.set(r, j, *v);
                    }
                }
            }
        }
    }

    /// Scalar reference SYRK (the original boxed-iterator triangle walk).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn syrk(
        uplo: Triangle,
        trans: Transpose,
        alpha: f64,
        a: &DenseMatrix,
        beta: f64,
        c: &mut DenseMatrix,
    ) {
        let (n, k) = op_dims(a, trans);
        assert_eq!(c.nrows(), n, "syrk: C has wrong row count");
        assert_eq!(c.ncols(), n, "syrk: C has wrong column count");
        for i in 0..n {
            let range: Box<dyn Iterator<Item = usize>> = match uplo {
                Triangle::Upper => Box::new(i..n),
                Triangle::Lower => Box::new(0..=i),
            };
            for j in range {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += op_get(a, trans, i, p) * op_get(a, trans, j, p);
                }
                let old = c.get(i, j);
                c.set(i, j, alpha * acc + beta * old);
            }
        }
    }

    /// Scalar reference TRSM: column-by-column [`trsv`].
    ///
    /// # Errors
    /// Returns [`SparseError::SingularDiagonal`](crate::SparseError::SingularDiagonal)
    /// if a diagonal entry is zero (and `diag == NonUnit`).
    pub fn trsm(
        uplo: Triangle,
        trans: Transpose,
        diag: DiagKind,
        alpha: f64,
        a: &DenseMatrix,
        b: &mut DenseMatrix,
    ) -> Result<()> {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "trsm: A must be square");
        assert_eq!(b.nrows(), n, "trsm: B has wrong row count");
        let ncols = b.ncols();

        if alpha != 1.0 {
            for v in b.as_mut_slice() {
                *v *= alpha;
            }
        }

        let mut col = vec![0.0; n];
        for j in 0..ncols {
            for i in 0..n {
                col[i] = b.get(i, j);
            }
            trsv(uplo, trans, diag, a, &mut col)?;
            for i in 0..n {
                b.set(i, j, col[i]);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryOrder;

    fn m(rows: usize, cols: usize, v: &[f64], order: MemoryOrder) -> DenseMatrix {
        DenseMatrix::from_row_slice(rows, cols, v, order)
    }

    /// Deterministic pseudo-random dense matrix for equivalence tests.
    fn filled(rows: usize, cols: usize, order: MemoryOrder, seed: usize) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(rows, cols, order);
        for i in 0..rows {
            for j in 0..cols {
                let t = (i * 31 + j * 17 + seed * 7) % 29;
                a.set(i, j, t as f64 * 0.37 - 4.9);
            }
        }
        a
    }

    #[test]
    fn gemm_small_known_result() {
        for oa in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for ob in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
                let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], oa);
                let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], ob);
                let mut c = DenseMatrix::zeros(2, 2, MemoryOrder::RowMajor);
                gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
                assert_eq!(c.get(0, 0), 58.0);
                assert_eq!(c.get(0, 1), 64.0);
                assert_eq!(c.get(1, 0), 139.0);
                assert_eq!(c.get(1, 1), 154.0);
            }
        }
    }

    #[test]
    fn gemm_transpose_flags() {
        let a = m(3, 2, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0], MemoryOrder::RowMajor); // = A^T of above
        let b = m(2, 3, &[7.0, 9.0, 11.0, 8.0, 10.0, 12.0], MemoryOrder::ColMajor);
        let mut c = DenseMatrix::zeros(2, 2, MemoryOrder::ColMajor);
        gemm(1.0, &a, Transpose::Yes, &b, Transpose::Yes, 0.0, &mut c);
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(1, 1), 154.0);
    }

    #[test]
    fn gemm_alpha_beta() {
        let a = m(1, 1, &[2.0], MemoryOrder::RowMajor);
        let b = m(1, 1, &[3.0], MemoryOrder::RowMajor);
        let mut c = m(1, 1, &[10.0], MemoryOrder::RowMajor);
        gemm(2.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);
        assert_eq!(c.get(0, 0), 2.0 * 6.0 + 0.5 * 10.0);
    }

    #[test]
    fn gemv_and_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], MemoryOrder::ColMajor);
        let x = [1.0, 1.0, 1.0];
        let mut y = vec![0.0; 2];
        gemv(1.0, &a, Transpose::No, &x, 0.0, &mut y);
        assert_eq!(y, vec![6.0, 15.0]);
        let xt = [1.0, 1.0];
        let mut yt = vec![0.0; 3];
        gemv(1.0, &a, Transpose::Yes, &xt, 0.0, &mut yt);
        assert_eq!(yt, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn symv_uses_single_triangle() {
        // Full symmetric matrix [[2,1],[1,3]] but only the upper triangle stored.
        let mut a = DenseMatrix::zeros(2, 2, MemoryOrder::RowMajor);
        a.set(0, 0, 2.0);
        a.set(0, 1, 1.0);
        a.set(1, 1, 3.0);
        let x = [1.0, 2.0];
        let mut y = vec![0.0; 2];
        symv(Triangle::Upper, 1.0, &a, &x, 0.0, &mut y);
        assert_eq!(y, vec![4.0, 7.0]);
    }

    #[test]
    fn blocked_symv_is_bit_identical_to_reference() {
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                // Below one four-line sweep, every remainder of `n` by four after one
                // sweep and after several.
                for n in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 17, 18, 19, 20] {
                    let a = filled(n, n, order, 3);
                    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).sin() + 0.4).collect();
                    let mut y1: Vec<f64> = (0..n).map(|i| i as f64 * 0.1 - 0.7).collect();
                    let mut y2 = y1.clone();
                    symv(uplo, 1.3, &a, &x, -0.6, &mut y1);
                    reference::symv(uplo, 1.3, &a, &x, -0.6, &mut y2);
                    for (v1, v2) in y1.iter().zip(&y2) {
                        assert_eq!(v1.to_bits(), v2.to_bits(), "{order:?} {uplo:?} n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_syrk_is_bit_identical_to_reference() {
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                for trans in [Transpose::No, Transpose::Yes] {
                    for (n, k) in [(0usize, 3usize), (1, 2), (5, 3), (9, 11)] {
                        let (rows, cols) = if trans.is_transposed() { (k, n) } else { (n, k) };
                        let a = filled(rows, cols, order, 5);
                        let mut c1 = filled(n, n, order.flipped(), 9);
                        let mut c2 = c1.clone();
                        syrk(uplo, trans, 0.9, &a, 0.3, &mut c1);
                        reference::syrk(uplo, trans, 0.9, &a, 0.3, &mut c2);
                        for i in 0..n {
                            for j in 0..n {
                                assert_eq!(
                                    c1.get(i, j).to_bits(),
                                    c2.get(i, j).to_bits(),
                                    "{order:?} {uplo:?} {trans:?} n={n} k={k} ({i},{j})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_trsm_is_bit_identical_to_reference() {
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                for trans in [Transpose::No, Transpose::Yes] {
                    for diag in [DiagKind::NonUnit, DiagKind::Unit] {
                        for (n, nrhs) in [(1usize, 1usize), (4, 5), (7, 3), (6, 9)] {
                            let mut a = filled(n, n, order, 2);
                            for i in 0..n {
                                a.set(i, i, 3.0 + i as f64);
                            }
                            let mut b1 = filled(n, nrhs, order.flipped(), 4);
                            let mut b2 = b1.clone();
                            trsm(uplo, trans, diag, 1.7, &a, &mut b1).unwrap();
                            reference::trsm(uplo, trans, diag, 1.7, &a, &mut b2).unwrap();
                            for i in 0..n {
                                for j in 0..nrhs {
                                    assert_eq!(
                                        b1.get(i, j).to_bits(),
                                        b2.get(i, j).to_bits(),
                                        "{order:?} {uplo:?} {trans:?} {diag:?} n={n} ({i},{j})"
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
    fn symm_matches_columnwise_symv_exactly() {
        for side in [Side::Left, Side::Right] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                let n = 6;
                let w = 5;
                let a = filled(n, n, MemoryOrder::RowMajor, 1);
                let (brows, bcols) = match side {
                    Side::Left => (n, w),
                    Side::Right => (w, n),
                };
                let b = filled(brows, bcols, MemoryOrder::ColMajor, 8);
                let mut c1 = filled(brows, bcols, MemoryOrder::ColMajor, 6);
                let c0 = c1.clone();
                symm(side, uplo, 1.1, &a, &b, 0.4, &mut c1);
                for r in 0..w {
                    let x: Vec<f64> = match side {
                        Side::Left => b.col(r),
                        Side::Right => (0..n).map(|j| b.get(r, j)).collect(),
                    };
                    let mut y: Vec<f64> = match side {
                        Side::Left => (0..n).map(|i| c0.get(i, r)).collect(),
                        Side::Right => (0..n).map(|j| c0.get(r, j)).collect(),
                    };
                    symv(uplo, 1.1, &a, &x, 0.4, &mut y);
                    for (i, v) in y.iter().enumerate() {
                        let got = match side {
                            Side::Left => c1.get(i, r),
                            Side::Right => c1.get(r, i),
                        };
                        assert_eq!(got.to_bits(), v.to_bits(), "{side:?} {uplo:?} rhs {r} row {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn symm_left_matches_gemm_on_symmetric_matrix() {
        let n = 5;
        let mut a = filled(n, n, MemoryOrder::RowMajor, 3);
        a.symmetrize_from(Triangle::Upper);
        let b = filled(n, 4, MemoryOrder::RowMajor, 7);
        let mut c_symm = DenseMatrix::zeros(n, 4, MemoryOrder::RowMajor);
        symm(Side::Left, Triangle::Upper, 1.0, &a, &b, 0.0, &mut c_symm);
        let mut c_gemm = DenseMatrix::zeros(n, 4, MemoryOrder::RowMajor);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c_gemm);
        assert!(c_symm.max_abs_diff(&c_gemm) < 1e-12);
    }

    #[test]
    fn syrk_matches_gemm() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], MemoryOrder::RowMajor);
        let mut c_syrk = DenseMatrix::zeros(2, 2, MemoryOrder::RowMajor);
        syrk(Triangle::Upper, Transpose::Yes, 1.0, &a, 0.0, &mut c_syrk);
        c_syrk.symmetrize_from(Triangle::Upper);
        let mut c_gemm = DenseMatrix::zeros(2, 2, MemoryOrder::RowMajor);
        gemm(1.0, &a, Transpose::Yes, &a, Transpose::No, 0.0, &mut c_gemm);
        assert!(c_syrk.max_abs_diff(&c_gemm) < 1e-12);
    }

    #[test]
    fn syrk_results_do_not_depend_on_the_block_size() {
        let a = filled(37, 23, MemoryOrder::RowMajor, 11);
        let mut expect = filled(37, 37, MemoryOrder::RowMajor, 13);
        reference::syrk(Triangle::Lower, Transpose::No, 1.0, &a, 0.5, &mut expect);
        for nb in [4usize, 16, 36, 37, 38, 128] {
            let mut c = filled(37, 37, MemoryOrder::RowMajor, 13);
            syrk_blocked(Triangle::Lower, 1.0, a.as_slice(), 23, &[0; 37], 0.5, &mut c, nb);
            for i in 0..37 {
                for j in 0..37 {
                    assert_eq!(c.get(i, j).to_bits(), expect.get(i, j).to_bits(), "nb={nb}");
                }
            }
        }
    }

    #[test]
    fn trsv_lower_and_upper() {
        // A = [[2,0],[1,3]] lower triangular, solve A x = [2, 7] -> x = [1, 2]
        let a = m(2, 2, &[2.0, 0.0, 1.0, 3.0], MemoryOrder::RowMajor);
        let mut b = vec![2.0, 7.0];
        trsv(Triangle::Lower, Transpose::No, DiagKind::NonUnit, &a, &mut b).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-14);
        assert!((b[1] - 2.0).abs() < 1e-14);

        // A^T x = b uses the upper triangle of A^T; check against direct computation.
        let mut b2 = vec![4.0, 6.0];
        trsv(Triangle::Lower, Transpose::Yes, DiagKind::NonUnit, &a, &mut b2).unwrap();
        // A^T = [[2,1],[0,3]]; backward substitution: x2 = 2, x1 = (4-2)/2 = 1
        assert!((b2[0] - 1.0).abs() < 1e-14);
        assert!((b2[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn trsv_singular_detected() {
        let a = m(2, 2, &[0.0, 0.0, 1.0, 3.0], MemoryOrder::RowMajor);
        let mut b = vec![1.0, 1.0];
        let err = trsv(Triangle::Lower, Transpose::No, DiagKind::NonUnit, &a, &mut b).unwrap_err();
        assert_eq!(err, SparseError::SingularDiagonal { index: 0 });
    }

    #[test]
    fn trsm_singular_detected_at_reference_index() {
        // Upper triangle, no transpose => backward scan meets index 2 first, then 0.
        let mut a = filled(3, 3, MemoryOrder::RowMajor, 1);
        a.set(0, 0, 0.0);
        a.set(2, 2, 0.0);
        let mut b = DenseMatrix::zeros(3, 2, MemoryOrder::RowMajor);
        let err =
            trsm(Triangle::Upper, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut b).unwrap_err();
        assert_eq!(err, SparseError::SingularDiagonal { index: 2 });
        let mut b = DenseMatrix::zeros(3, 2, MemoryOrder::RowMajor);
        let err =
            trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut b).unwrap_err();
        assert_eq!(err, SparseError::SingularDiagonal { index: 0 });
    }

    #[test]
    fn trsm_multi_rhs_matches_trsv() {
        let a = m(3, 3, &[4.0, 0.0, 0.0, 1.0, 5.0, 0.0, 2.0, 3.0, 6.0], MemoryOrder::ColMajor);
        let b_vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            let mut b = DenseMatrix::from_row_slice(3, 2, &b_vals, order);
            trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut b).unwrap();
            for j in 0..2 {
                let mut col: Vec<f64> = (0..3).map(|i| b_vals[i * 2 + j]).collect();
                trsv(Triangle::Lower, Transpose::No, DiagKind::NonUnit, &a, &mut col).unwrap();
                for i in 0..3 {
                    assert!((b.get(i, j) - col[i]).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn vector_helpers() {
        let mut y = vec![1.0, 2.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 10.0]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-14);
    }

    #[test]
    fn trsm_unit_diag_ignores_diagonal() {
        let a = m(2, 2, &[100.0, 0.0, 1.0, 100.0], MemoryOrder::RowMajor);
        let mut b = DenseMatrix::from_row_slice(2, 1, &[1.0, 3.0], MemoryOrder::ColMajor);
        trsm(Triangle::Lower, Transpose::No, DiagKind::Unit, 1.0, &a, &mut b).unwrap();
        assert_eq!(b.get(0, 0), 1.0);
        assert_eq!(b.get(1, 0), 2.0);
    }

    /// A right-hand side whose column `j` is exactly `+0.0` outside its active range
    /// (a rotating window), mimicking the dense image of a sparse `B̃ᵀ`.
    fn boundary_rhs(n: usize, ncols: usize, order: MemoryOrder, seed: usize) -> DenseMatrix {
        let mut b = DenseMatrix::zeros(n, ncols, order);
        if n == 0 {
            return b;
        }
        for j in 0..ncols {
            let start = (j * 5 + seed) % (n + 1);
            let width = 1 + (j * 3 + seed) % 4;
            for i in start..n.min(start + width) {
                let t = (i * 13 + j * 7 + seed) % 19;
                b.set(i, j, t as f64 * 0.41 - 3.3);
            }
        }
        b
    }

    #[test]
    fn column_active_ranges_finds_first_and_last_nonzeros() {
        let mut b = DenseMatrix::zeros(5, 3, MemoryOrder::RowMajor);
        b.set(2, 0, 1.0);
        b.set(4, 0, -2.0);
        b.set(0, 2, 3.0);
        assert_eq!(column_active_ranges(&b), vec![(2, 5), (5, 0), (0, 1)]);
    }

    #[test]
    fn sparse_rhs_trsm_is_bit_identical_to_trsm_on_boundary_rhs() {
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                for trans in [Transpose::No, Transpose::Yes] {
                    for diag in [DiagKind::NonUnit, DiagKind::Unit] {
                        for (n, nrhs) in [(1usize, 1usize), (6, 9), (9, 4), (11, 13)] {
                            // Positive diagonal: the bit-for-bit case of the contract.
                            let mut a = filled(n, n, order, 2);
                            for i in 0..n {
                                a.set(i, i, 3.0 + i as f64);
                            }
                            let mut b1 = boundary_rhs(n, nrhs, order.flipped(), 4);
                            let mut b2 = b1.clone();
                            sparse_rhs_trsm(uplo, trans, diag, 1.0, &a, &mut b1).unwrap();
                            trsm(uplo, trans, diag, 1.0, &a, &mut b2).unwrap();
                            for i in 0..n {
                                for j in 0..nrhs {
                                    assert_eq!(
                                        b1.get(i, j).to_bits(),
                                        b2.get(i, j).to_bits(),
                                        "{order:?} {uplo:?} {trans:?} {diag:?} n={n} ({i},{j})"
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
    fn sparse_rhs_trsm_detects_singularity_inside_a_skipped_region() {
        // Column active ranges start at row 2, but the zero pivot sits at row 0: the
        // sparse kernel must still report it, at the same index as the dense scan.
        let mut a = filled(4, 4, MemoryOrder::RowMajor, 1);
        for i in 0..4 {
            a.set(i, i, 2.0 + i as f64);
        }
        a.set(0, 0, 0.0);
        let mut b = DenseMatrix::zeros(4, 2, MemoryOrder::RowMajor);
        b.set(2, 0, 1.0);
        b.set(3, 1, 1.0);
        let err =
            sparse_rhs_trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &a, &mut b)
                .unwrap_err();
        assert_eq!(err, SparseError::SingularDiagonal { index: 0 });
    }

    #[test]
    fn boundary_syrk_is_bit_identical_to_syrk_on_boundary_rows() {
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            for uplo in [Triangle::Lower, Triangle::Upper] {
                for trans in [Transpose::No, Transpose::Yes] {
                    for (n, k) in [(0usize, 3usize), (1, 2), (7, 11), (13, 9)] {
                        // op(A) rows carry zero prefixes: build the sparse pattern on
                        // the operated shape, then store it under `trans`.
                        let rows_op = boundary_rhs(k, n, order, 6);
                        let a = match trans {
                            Transpose::Yes => rows_op,
                            Transpose::No => {
                                let mut t = DenseMatrix::zeros(n, k, order);
                                for i in 0..n {
                                    for p in 0..k {
                                        t.set(i, p, rows_op.get(p, i));
                                    }
                                }
                                t
                            }
                        };
                        let mut c1 = filled(n, n, order.flipped(), 9);
                        let mut c2 = c1.clone();
                        boundary_syrk(uplo, trans, 0.9, &a, 0.3, &mut c1);
                        syrk(uplo, trans, 0.9, &a, 0.3, &mut c2);
                        for i in 0..n {
                            for j in 0..n {
                                assert_eq!(
                                    c1.get(i, j).to_bits(),
                                    c2.get(i, j).to_bits(),
                                    "{order:?} {uplo:?} {trans:?} n={n} k={k} ({i},{j})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_syrk_results_do_not_depend_on_the_block_size() {
        let a = boundary_rhs(23, 37, MemoryOrder::RowMajor, 3);
        let mut expect = filled(37, 37, MemoryOrder::RowMajor, 13);
        reference::syrk(Triangle::Lower, Transpose::Yes, 1.0, &a, 0.5, &mut expect);
        let r = materialize_op_rowmajor(&a, Transpose::Yes);
        let starts = zero_prefix_lengths(&r, 37, 23);
        assert!(starts.iter().any(|&s| s > 0), "the operand must exercise the skipping");
        for nb in [4usize, 16, 36, 37, 38, 128] {
            let mut c = filled(37, 37, MemoryOrder::RowMajor, 13);
            syrk_blocked(Triangle::Lower, 1.0, &r, 23, &starts, 0.5, &mut c, nb);
            for i in 0..37 {
                for j in 0..37 {
                    assert_eq!(c.get(i, j).to_bits(), expect.get(i, j).to_bits(), "nb={nb}");
                }
            }
        }
    }
}
