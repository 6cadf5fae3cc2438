//! Symmetric matrices held as their packed upper triangle.
//!
//! An explicit FETI operator `F̃ᵢ` is symmetric, and the SYMV that applies it reads
//! one triangle, so it is held as that triangle alone ([`PackedUpper`]) and applied
//! by [`crate::blas::symv_packed`] — the same walk [`crate::blas::symv`] runs over a
//! row-major `Upper` [`DenseMatrix`], reading the same values in the same order.

use crate::dense::DenseMatrix;
use crate::MemoryOrder;

/// A symmetric `n x n` matrix held as its upper triangle, packed row by row: row `i`
/// runs from its diagonal to its end (`A(i, i..n)`), so the triangle is
/// `n(n + 1) / 2` values and row `i` starts at `i·n − i(i − 1)/2`.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedUpper {
    n: usize,
    data: Vec<f64>,
}

impl PackedUpper {
    /// The `n x n` zero matrix.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self { n, data: vec![0.0; n * (n + 1) / 2] }
    }

    /// Number of rows (and columns).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored values, `n(n + 1) / 2`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` for the `0 x 0` matrix.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Where row `i` starts: the rows above it hold `n, n − 1, …, n − i + 1` values.
    fn start(&self, i: usize) -> usize {
        i * (2 * self.n + 1 - i) / 2
    }

    /// Row `i` from its diagonal to its end, `A(i, i..n)`.
    #[must_use]
    pub fn line(&self, i: usize) -> &[f64] {
        let start = self.start(i);
        &self.data[start..start + self.n - i]
    }

    /// Sets `A(i, j)` and with it `A(j, i)`: the one stored entry, at
    /// `(min(i, j), max(i, j))`.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let (i, j) = (i.min(j), i.max(j));
        assert!(j < self.n, "index out of bounds");
        let at = self.start(i) + j - i;
        self.data[at] = v;
    }

    /// The full symmetric matrix, row-major, each stored value mirrored onto the lower
    /// triangle.
    #[must_use]
    pub fn to_dense(&self) -> DenseMatrix {
        let n = self.n;
        let mut a = DenseMatrix::zeros(n, n, MemoryOrder::RowMajor);
        let out = a.as_mut_slice();
        for i in 0..n {
            for (k, &v) in self.line(i).iter().enumerate() {
                out[i * n + i + k] = v;
                out[(i + k) * n + i] = v;
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_packed_from_the_diagonal() {
        let n = 4;
        let mut a = PackedUpper::zeros(n);
        assert_eq!(a.len(), 10);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, (10 * i.min(j) + i.max(j)) as f64);
            }
        }
        assert_eq!(a.data, [0.0, 1.0, 2.0, 3.0, 11.0, 12.0, 13.0, 22.0, 23.0, 33.0]);
        assert_eq!(a.line(2), [22.0, 23.0]);
        let dense = a.to_dense();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(dense.get(i, j), (10 * i.min(j) + i.max(j)) as f64);
            }
        }
        assert!(PackedUpper::zeros(0).is_empty());
    }
}
