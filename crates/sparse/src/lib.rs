//! Dense and sparse linear-algebra kernels used throughout the FETI dual-operator
//! reproduction.
//!
//! The crate intentionally mirrors the split found in vendor math libraries:
//!
//! * [`DenseMatrix`] (and [`PackedUpper`], a symmetric matrix held as its upper
//!   triangle) plus the BLAS-like kernels in [`blas`] play the role of a host BLAS
//!   (and of cuBLAS once wrapped by the simulated device in `feti-gpu`),
//! * [`CsrMatrix`] / [`CscMatrix`] / [`CooMatrix`] plus the kernels in [`ops`] play the
//!   role of a sparse BLAS (and of cuSPARSE once wrapped by the simulated device).
//!
//! All matrices store `f64` values and `usize` indices.  Dimension mismatches are
//! programming errors and panic; numerical failures (e.g. a singular triangular factor)
//! are reported through [`SparseError`].

#![warn(missing_docs)]
// Index-based loops are the natural notation for the dense/sparse kernels in this
// crate (they mirror the BLAS reference loops and keep row/column index arithmetic
// explicit), so the iterator-style rewrite clippy suggests would hurt readability.
#![allow(clippy::needless_range_loop)]

pub mod blas;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod ops;
pub mod packed;
pub mod perm;

pub use coo::{CooMatrix, CsrAssembly};
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use packed::PackedUpper;
pub use perm::Permutation;

/// Memory layout of a dense matrix.
///
/// The explicit-assembly parameter space of the paper (Table I) distinguishes
/// row-major from column-major factors and right-hand sides, so the layout is a
/// first-class runtime property rather than a compile-time choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryOrder {
    /// C-style layout: element `(i, j)` lives at `i * ncols + j`.
    RowMajor,
    /// Fortran-style layout: element `(i, j)` lives at `j * nrows + i`.
    ColMajor,
}

impl MemoryOrder {
    /// Returns the opposite layout.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            MemoryOrder::RowMajor => MemoryOrder::ColMajor,
            MemoryOrder::ColMajor => MemoryOrder::RowMajor,
        }
    }
}

/// Which triangle of a (square) matrix is referenced by a triangular or symmetric
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Triangle {
    /// The lower triangle (including the diagonal).
    Lower,
    /// The upper triangle (including the diagonal).
    Upper,
}

impl Triangle {
    /// Returns the opposite triangle.
    #[must_use]
    pub fn flipped(self) -> Self {
        match self {
            Triangle::Lower => Triangle::Upper,
            Triangle::Upper => Triangle::Lower,
        }
    }
}

/// Whether an operand of a BLAS-like kernel is used as stored or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Transpose {
    /// `true` if the operand is transposed.
    #[must_use]
    pub fn is_transposed(self) -> bool {
        matches!(self, Transpose::Yes)
    }
}

/// Which side a symmetric operand appears on in a matrix-matrix kernel (SYMM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The symmetric operand is on the left: `C = alpha * A * B + beta * C`.
    Left,
    /// The symmetric operand is on the right: `C = alpha * B * A + beta * C`.
    Right,
}

/// Whether a triangular factor has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagKind {
    /// The diagonal entries are stored and used.
    NonUnit,
    /// The diagonal is implicitly one; stored diagonal entries are ignored.
    Unit,
}

/// Errors reported by numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// A triangular solve hit a zero (or numerically negligible) diagonal entry.
    SingularDiagonal {
        /// Row/column index of the offending diagonal entry.
        index: usize,
    },
    /// A Cholesky-style operation encountered a non-positive pivot.
    NotPositiveDefinite {
        /// Row/column index of the offending pivot.
        index: usize,
        /// Value of the offending pivot.
        pivot: f64,
    },
    /// The matrix structure is invalid (e.g. unsorted or out-of-range indices).
    InvalidStructure(String),
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::SingularDiagonal { index } => {
                write!(f, "singular diagonal entry at index {index}")
            }
            SparseError::NotPositiveDefinite { index, pivot } => {
                write!(f, "non-positive pivot {pivot:e} at index {index}")
            }
            SparseError::InvalidStructure(msg) => write!(f, "invalid sparse structure: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, SparseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_order_flip_roundtrips() {
        assert_eq!(MemoryOrder::RowMajor.flipped(), MemoryOrder::ColMajor);
        assert_eq!(MemoryOrder::ColMajor.flipped(), MemoryOrder::RowMajor);
        assert_eq!(MemoryOrder::RowMajor.flipped().flipped(), MemoryOrder::RowMajor);
    }

    #[test]
    fn triangle_flip_roundtrips() {
        assert_eq!(Triangle::Lower.flipped(), Triangle::Upper);
        assert_eq!(Triangle::Upper.flipped().flipped(), Triangle::Upper);
    }

    #[test]
    fn transpose_flag() {
        assert!(Transpose::Yes.is_transposed());
        assert!(!Transpose::No.is_transposed());
    }

    #[test]
    fn error_display() {
        let e = SparseError::SingularDiagonal { index: 3 };
        assert!(e.to_string().contains('3'));
        let e = SparseError::NotPositiveDefinite { index: 1, pivot: -2.0 };
        assert!(e.to_string().contains("pivot"));
        let e = SparseError::InvalidStructure("bad".into());
        assert!(e.to_string().contains("bad"));
    }
}
