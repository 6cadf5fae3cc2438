//! Sparse direct Cholesky solver for the FETI reproduction.
//!
//! The paper uses two CPU sparse direct solvers, CHOLMOD (SuiteSparse) and Intel MKL
//! PARDISO, whose baselines (`impl mkl`, `expl mkl`) take PARDISO's augmented
//! incomplete factorization for the Schur complement `B̃ K⁻¹ B̃ᵀ`.  Both compute the
//! same factorization, so this crate reproduces them with one: [`CholmodLike`], built
//! from scratch on a symbolic analysis ([`etree`]), which owns the structure of the
//! factor, and an up-looking Cholesky kernel ([`chol`]), which fills in its values.
//! Its factor can be extracted (what CHOLMOD hands the GPU assembly) and forward
//! solved against a sparse right-hand side, whose Gram matrix is that Schur
//! complement ([`CholmodFactor::forward_solve_sparse_rhs`], [`ForwardPanels::gram`]).
//! The work splits into symbolic and numeric phases exactly as described in §III of
//! the paper, so a multi-step simulation can run the symbolic phase once and
//! refactorize per step.

#![warn(missing_docs)]
// As in `feti-sparse`: the factorization inner loops keep explicit index arithmetic
// (elimination-tree walks, runs of supernode columns), where clippy's iterator rewrite would
// obscure the indexing the comments reference.
#![allow(clippy::needless_range_loop)]

pub mod chol;
pub mod cholmod;
pub mod etree;
mod panel;
pub mod pattern;
#[cfg(test)]
mod supernodal;

pub use chol::{CholeskyFactor, SymbolicCholesky};
pub use cholmod::{CholmodFactor, CholmodLike};
pub use panel::ForwardPanels;
pub use pattern::{group_by_pattern, pattern_hash, PatternGroups};

/// The fill-reducing orderings of [`SolverOptions::ordering`], re-exported so that a
/// caller choosing one needs no dependency on `feti-order` of its own.
pub use feti_order::OrderingKind;

/// Numeric factorization kernel of [`CholeskyFactor::factorize`], hence of
/// [`CholmodLike::factorize`].
///
/// Both kinds fill the same storage — values in column order over the structure the
/// [`SymbolicCholesky`] holds — with **bit-for-bit identical** numbers (same
/// elimination tree, same pivot order, same floating-point operation order per
/// output), report the same failing pivot and refuse the same foreign pattern; they
/// differ only in how many columns one sweep of the up-looking loop eliminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FactorizationKind {
    /// Column-at-a-time up-looking factorization: the loop the run-blocked kernel must
    /// equal to the bit, kept as the oracle of the conformance suites.  Nothing else
    /// should ask for it.
    Simplicial,
    /// Run-blocked up-looking factorization, the default: consecutive columns of one
    /// supernode in a row's pattern are eliminated up to four per sweep over their
    /// shared row list.
    #[default]
    Supernodal,
}

impl FactorizationKind {
    /// The kind used where no [`SolverOptions::factorization`] is given:
    /// [`Self::Supernodal`], i.e. [`Self::default`].
    #[must_use]
    pub fn default_kind() -> Self {
        Self::default()
    }
}

/// Options of the symbolic analysis and the numeric factorization.
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Fill-reducing ordering of the symbolic analysis of a stand-alone factor
    /// ([`CholeskyFactor::new`], [`CholmodLike::analyze`], [`SymbolicCholesky::analyze`]);
    /// nested dissection by default.  A FETI dual operator does not read it: each
    /// approach orders its subdomains for the sweep that reads the factor.
    pub ordering: OrderingKind,
    /// Pivot tolerance: a pivot `<= tolerance` aborts the factorization as
    /// not positive definite.
    pub pivot_tolerance: f64,
    /// Numeric factorization kernel.
    pub factorization: FactorizationKind,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            ordering: OrderingKind::NestedDissection,
            pivot_tolerance: 0.0,
            factorization: FactorizationKind::default_kind(),
        }
    }
}

/// Errors reported by the direct solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// The matrix is not (numerically) positive definite.
    NotPositiveDefinite {
        /// Pivot index at which the failure occurred.
        index: usize,
        /// Offending pivot value.
        pivot: f64,
    },
    /// The numeric phase was called before the symbolic phase.
    SymbolicMissing,
    /// The input matrix does not match the analysed pattern.
    PatternMismatch(String),
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::NotPositiveDefinite { index, pivot } => {
                write!(f, "matrix is not positive definite at pivot {index} (value {pivot:e})")
            }
            SolverError::SymbolicMissing => {
                write!(f, "numeric factorization before symbolic analysis")
            }
            SolverError::PatternMismatch(msg) => write!(f, "pattern mismatch: {msg}"),
        }
    }
}

impl std::error::Error for SolverError {}

/// Convenience alias for solver results.
pub type Result<T> = std::result::Result<T, SolverError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_use_nested_dissection() {
        let o = SolverOptions::default();
        assert_eq!(o.ordering, OrderingKind::NestedDissection);
        assert_eq!(o.pivot_tolerance, 0.0);
    }

    #[test]
    fn error_display() {
        let e = SolverError::NotPositiveDefinite { index: 2, pivot: -1.0 };
        assert!(e.to_string().contains("positive definite"));
        assert!(SolverError::SymbolicMissing.to_string().contains("symbolic"));
        assert!(SolverError::PatternMismatch("x".into()).to_string().contains('x'));
    }
}
