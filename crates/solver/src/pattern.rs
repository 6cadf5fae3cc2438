//! What "the same sparsity pattern" means, said once.
//!
//! A symbolic analysis ([`crate::SymbolicCholesky`]) is a function of the pattern of
//! its matrix alone, so matrices with one pattern can share one analysis.  Two
//! matrices have the same pattern when their shapes and their `(row_ptr, col_idx)`
//! arrays are **equal**; [`pattern_hash`] only narrows the search (and fingerprints a
//! structure where a collision costs a cache miss, not a wrong factor), the slice
//! compare in [`group_by_pattern`] decides.

use feti_sparse::CsrMatrix;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Hash of the sparsity pattern of `a`: its shape and index arrays, no values.
#[must_use]
pub fn pattern_hash(a: &CsrMatrix) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (a.nrows(), a.ncols()).hash(&mut h);
    a.row_ptr().hash(&mut h);
    a.col_idx().hash(&mut h);
    h.finish()
}

fn same_pattern(a: &CsrMatrix, b: &CsrMatrix) -> bool {
    (a.nrows(), a.ncols()) == (b.nrows(), b.ncols())
        && a.row_ptr() == b.row_ptr()
        && a.col_idx() == b.col_idx()
}

/// A partition of a list of matrices into classes of equal sparsity pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternGroups {
    /// The group of every matrix; groups are numbered by first appearance.
    pub group_of: Vec<usize>,
    /// The first matrix of every group.
    pub representatives: Vec<usize>,
}

/// Groups `matrices` by exact equality of their sparsity patterns.
#[must_use]
pub fn group_by_pattern(matrices: &[&CsrMatrix]) -> PatternGroups {
    group_with(matrices, pattern_hash)
}

/// [`group_by_pattern`] over the buckets of `hash`, which may collide at will.
fn group_with(matrices: &[&CsrMatrix], hash: impl Fn(&CsrMatrix) -> u64) -> PatternGroups {
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut representatives: Vec<usize> = Vec::new();
    let group_of = matrices
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let bucket = buckets.entry(hash(a)).or_default();
            let known =
                bucket.iter().copied().find(|&g| same_pattern(matrices[representatives[g]], a));
            known.unwrap_or_else(|| {
                representatives.push(i);
                bucket.push(representatives.len() - 1);
                representatives.len() - 1
            })
        })
        .collect();
    PatternGroups { group_of, representatives }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(col_idx: Vec<usize>) -> CsrMatrix {
        // 3 x 3, two stored entries per row.
        CsrMatrix::from_raw_parts(3, 3, vec![0, 2, 4, 6], col_idx, vec![1.0; 6])
    }

    #[test]
    fn groups_are_numbered_by_first_appearance_and_ignore_values() {
        let a = pattern(vec![0, 1, 0, 1, 1, 2]);
        let mut a_scaled = a.clone();
        a_scaled.values_mut().iter_mut().for_each(|v| *v *= -3.5);
        let b = pattern(vec![0, 2, 0, 1, 1, 2]);
        let groups = group_by_pattern(&[&a, &b, &a_scaled, &b, &a]);
        assert_eq!(groups.group_of, [0, 1, 0, 1, 0]);
        assert_eq!(groups.representatives, [0, 1]);
        assert_eq!(group_by_pattern(&[]).representatives, Vec::<usize>::new());
    }

    #[test]
    fn one_moved_column_index_separates_two_matrices() {
        // Equal shape, nnz and row_ptr: only `col_idx` tells them apart.
        let a = pattern(vec![0, 1, 0, 1, 1, 2]);
        let b = pattern(vec![0, 1, 0, 1, 0, 2]);
        assert_eq!((a.nnz(), a.row_ptr()), (b.nnz(), b.row_ptr()));
        assert_eq!(group_by_pattern(&[&a, &b]).group_of, [0, 1]);
        assert_ne!(pattern_hash(&a), pattern_hash(&b));
        // A wider matrix over the same arrays is another pattern too.
        let wide = CsrMatrix::from_raw_parts(
            3,
            4,
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().to_vec(),
        );
        assert_eq!(group_by_pattern(&[&a, &wide]).group_of, [0, 1]);
    }

    #[test]
    fn the_compare_decides_inside_a_hash_bucket() {
        // With every matrix forced into one bucket the grouping is unchanged.
        let a = pattern(vec![0, 1, 0, 1, 1, 2]);
        let b = pattern(vec![0, 1, 0, 1, 0, 2]);
        let matrices = [&a, &b, &a, &b];
        assert_eq!(group_with(&matrices, |_| 0), group_by_pattern(&matrices));
        assert_eq!(group_with(&matrices, |_| 0).group_of, [0, 1, 0, 1]);
    }
}
