//! Compressed sparse row matrices.

use crate::csc::CscMatrix;
use crate::dense::DenseMatrix;
use crate::{MemoryOrder, Triangle};

/// A sparse matrix in compressed sparse row (CSR) format with sorted column indices
/// within each row.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts.
    ///
    /// # Panics
    /// Panics if the structure is inconsistent (wrong pointer length, non-monotone row
    /// pointers, out-of-range or unsorted column indices).
    #[must_use]
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "row_ptr must have nrows + 1 entries");
        assert_eq!(col_idx.len(), values.len(), "col_idx and values must have equal length");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "row_ptr must end at nnz");
        for r in 0..nrows {
            assert!(row_ptr[r] <= row_ptr[r + 1], "row_ptr must be non-decreasing");
            let mut last = None;
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                assert!(c < ncols, "column index {c} out of bounds ({ncols})");
                if let Some(l) = last {
                    assert!(c > l, "column indices within a row must be strictly increasing");
                }
                last = Some(c);
            }
        }
        Self { nrows, ncols, row_ptr, col_idx, values }
    }

    /// Creates an empty (all-zero) matrix.
    #[must_use]
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, row_ptr: vec![0; nrows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Creates a sparse identity matrix of size `n`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[must_use]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of explicitly stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (length `nrows + 1`).
    #[must_use]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array (length `nnz`).
    #[must_use]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array (length `nnz`).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable value array; the sparsity pattern cannot be changed through it.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Column indices of row `i`.
    #[must_use]
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Values of row `i`.
    #[must_use]
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Returns entry `(i, j)` (zero if not stored).
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let cols = self.row_cols(i);
        match cols.binary_search(&j) {
            Ok(k) => self.row_values(i)[k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            self.row_cols(i).iter().zip(self.row_values(i)).map(move |(&j, &v)| (i, j, v))
        })
    }

    /// Converts to a dense matrix with the requested memory order.
    #[must_use]
    pub fn to_dense(&self, order: MemoryOrder) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols, order);
        for (i, j, v) in self.iter() {
            d.set(i, j, v);
        }
        d
    }

    /// Converts a dense matrix to CSR, dropping entries with absolute value `<= tol`.
    #[must_use]
    pub fn from_dense(d: &DenseMatrix, tol: f64) -> Self {
        let mut row_ptr = vec![0usize; d.nrows() + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..d.nrows() {
            for j in 0..d.ncols() {
                let v = d.get(i, j);
                if v.abs() > tol {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr[i + 1] = col_idx.len();
        }
        Self { nrows: d.nrows(), ncols: d.ncols(), row_ptr, col_idx, values }
    }

    /// Returns the transpose as a new CSR matrix.
    #[must_use]
    pub fn transposed(&self) -> Self {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut next = counts;
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0f64; self.nnz()];
        for (i, j, v) in self.iter() {
            let pos = next[j];
            col_idx[pos] = i;
            values[pos] = v;
            next[j] += 1;
        }
        Self { nrows: self.ncols, ncols: self.nrows, row_ptr, col_idx, values }
    }

    /// Reinterprets this CSR matrix as the CSC representation of the same matrix's
    /// transpose — a zero-copy view change mirroring the CSR/CSC duality used when the
    /// paper flips the "factor order" parameter.
    #[must_use]
    pub fn to_csc(&self) -> CscMatrix {
        // CSC of A == CSR of A^T with rows/cols swapped back.
        let t = self.transposed();
        CscMatrix::from_raw_parts(
            self.nrows,
            self.ncols,
            t.row_ptr.clone(),
            t.col_idx.clone(),
            t.values.clone(),
        )
    }

    /// Extracts the requested triangle (including the diagonal) as a new CSR matrix.
    #[must_use]
    pub fn triangle(&self, tri: Triangle) -> Self {
        let keep = |i: usize, j: usize| match tri {
            Triangle::Lower => j <= i,
            Triangle::Upper => j >= i,
        };
        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..self.nrows {
            for (&j, &v) in self.row_cols(i).iter().zip(self.row_values(i)) {
                if keep(i, j) {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr[i + 1] = col_idx.len();
        }
        Self { nrows: self.nrows, ncols: self.ncols, row_ptr, col_idx, values }
    }

    /// Returns the diagonal entries as a vector (missing entries are zero).
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols)).map(|i| self.get(i, i)).collect()
    }

    /// Adds `shift` to the stored diagonal entry `(i, i)`, in place: the sparsity
    /// pattern does not change.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the entry `(i, i)` is not stored.
    pub fn shift_diagonal(&mut self, i: usize, shift: f64) {
        let cols = &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]];
        match cols.binary_search(&i) {
            Ok(k) => self.values[self.row_ptr[i] + k] += shift,
            Err(_) => panic!("diagonal entry ({i},{i}) is not stored"),
        }
    }

    /// Approximate memory footprint in bytes (values + indices + pointers).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
            + self.col_idx.len() * std::mem::size_of::<usize>()
            + self.row_ptr.len() * std::mem::size_of::<usize>()
    }

    /// Fill ratio: stored entries divided by the dense entry count.
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// Number of distinct columns holding at least one stored entry.
    ///
    /// For a gluing matrix `B` this is the subdomain's boundary-DOF count: the
    /// number of nonzero columns of `Bᵀ` that the sparsity-aware assembly path
    /// actually has to solve for (arXiv 2509.21037).
    #[must_use]
    pub fn num_nonzero_cols(&self) -> usize {
        let mut seen = vec![false; self.ncols];
        let mut count = 0;
        for &j in &self.col_idx {
            if !seen[j] {
                seen[j] = true;
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 0, 4.0);
        coo.push(2, 2, 5.0);
        coo.to_csr()
    }

    #[test]
    fn basic_accessors() {
        let a = sample();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.diagonal(), vec![1.0, 3.0, 5.0]);
        assert!(a.bytes() > 0);
        assert!((a.density() - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn num_nonzero_cols_counts_distinct_columns() {
        let a = sample();
        assert_eq!(a.num_nonzero_cols(), 3);
        let mut coo = CooMatrix::new(3, 6);
        coo.push(0, 1, 1.0);
        coo.push(1, 4, -1.0);
        coo.push(2, 1, 1.0);
        assert_eq!(coo.to_csr().num_nonzero_cols(), 2);
        assert_eq!(CsrMatrix::zeros(4, 7).num_nonzero_cols(), 0);
    }

    #[test]
    fn identity_and_zeros() {
        let i = CsrMatrix::identity(4);
        assert_eq!(i.nnz(), 4);
        assert_eq!(i.get(2, 2), 1.0);
        let z = CsrMatrix::zeros(2, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.get(1, 4), 0.0);
    }

    #[test]
    fn dense_roundtrip() {
        let a = sample();
        for order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
            let d = a.to_dense(order);
            let back = CsrMatrix::from_dense(&d, 0.0);
            assert_eq!(a, back);
        }
    }

    #[test]
    fn transpose_is_involution() {
        let a = sample();
        let t = a.transposed();
        assert_eq!(t.get(0, 2), 4.0);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn csc_conversion_agrees_with_dense() {
        let a = sample();
        let c = a.to_csc();
        let d = a.to_dense(MemoryOrder::RowMajor);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.get(i, j), d.get(i, j));
            }
        }
    }

    #[test]
    fn triangles_and_symmetrize() {
        // symmetric matrix stored fully
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 3.0);
        let a = coo.to_csr();
        let lower = a.triangle(Triangle::Lower);
        assert_eq!(lower.nnz(), 3);
        assert_eq!(lower.get(0, 1), 0.0);
        // Symmetric: the upper triangle is the transposed lower one.
        assert_eq!(a.triangle(Triangle::Upper), lower.transposed());
    }

    #[test]
    fn shift_diagonal_adds() {
        let mut a = sample();
        a.shift_diagonal(1, 10.0);
        a.shift_diagonal(2, 0.5);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 13.0);
        assert_eq!(a.get(2, 2), 5.5);
        assert_eq!(a.nnz(), sample().nnz());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_columns_rejected() {
        let _ = CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
    }

    #[test]
    fn iter_yields_all_entries() {
        let a = sample();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(entries.len(), 5);
        assert!(entries.contains(&(2, 0, 4.0)));
    }
}
