//! Elimination-tree utilities of the symbolic analysis.
//!
//! The elimination tree of a symmetric matrix drives both the symbolic factorization
//! (nonzero pattern / column counts of the Cholesky factor) and the sparse
//! right-hand-side solves used by the Schur-complement path.

use feti_sparse::CsrMatrix;

/// Sentinel for "no parent" in the elimination tree.
pub const NO_PARENT: usize = usize::MAX;

/// Computes the elimination tree of a symmetric matrix given its full (or upper
/// triangular) CSR pattern.
///
/// `parent[k]` is the parent of column `k`, or [`NO_PARENT`] for roots.
///
/// # Panics
/// Panics if `a` is not square.
#[must_use]
pub fn elimination_tree(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "elimination tree requires a square matrix");
    let mut parent = vec![NO_PARENT; n];
    let mut ancestor = vec![NO_PARENT; n];
    for k in 0..n {
        // Iterate the entries of row k with column index < k (lower triangle of the
        // symmetric pattern, equivalent to column k of the upper triangle).
        for &i0 in a.row_cols(k) {
            if i0 >= k {
                break;
            }
            let mut i = i0;
            while i != NO_PARENT && i < k {
                let next = ancestor[i];
                ancestor[i] = k;
                if next == NO_PARENT {
                    parent[i] = k;
                }
                i = next;
            }
        }
    }
    parent
}

/// Computes the pattern of row `k` of the Cholesky factor `L` using the elimination
/// tree (the "ereach" of CSparse).
///
/// `marker` must be a scratch vector of length `n` whose entries differ from `k`
/// before the call (use a monotonically growing stamp); `stack` must have length `n`.
/// Returns the pattern as indices `stack[top..n]` in topological order and the new top.
pub fn ereach(
    a: &CsrMatrix,
    k: usize,
    parent: &[usize],
    marker: &mut [usize],
    stack: &mut [usize],
) -> usize {
    let n = a.nrows();
    let mut top = n;
    marker[k] = k;
    for &i0 in a.row_cols(k) {
        if i0 >= k {
            break;
        }
        // Walk from i0 up the elimination tree until hitting a marked node.
        let mut len = 0usize;
        let mut i = i0;
        while marker[i] != k {
            stack[len] = i;
            len += 1;
            marker[i] = k;
            i = parent[i];
            if i == NO_PARENT {
                break;
            }
        }
        // Push the path (reversed) onto the output stack.
        while len > 0 {
            len -= 1;
            top -= 1;
            stack[top] = stack[len];
        }
    }
    top
}

/// Computes per-column nonzero counts of the Cholesky factor `L` (diagonal included)
/// by running a symbolic elimination with [`ereach`].
///
/// # Panics
/// Panics if `a` is not square.
#[must_use]
pub fn column_counts(a: &CsrMatrix, parent: &[usize]) -> Vec<usize> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    let mut counts = vec![1usize; n]; // diagonal
    let mut marker = vec![usize::MAX; n];
    let mut stack = vec![0usize; n];
    for k in 0..n {
        let top = ereach(a, k, parent, &mut marker, &mut stack);
        for &j in &stack[top..n] {
            counts[j] += 1;
        }
    }
    counts
}

/// Detects supernodes: maximal ranges of consecutive columns with identical factor
/// structure, suitable for dense-panel (BLAS-3) factorization.
///
/// Columns `j` and `j + 1` merge when `parent[j] == j + 1` and
/// `counts[j] == counts[j + 1] + 1`: the elimination-tree subset property
/// (`pattern(j) \ {j} ⊆ pattern(parent(j))`) then forces
/// `pattern(j) \ {j} == pattern(j + 1)` exactly, so the merged columns share one
/// dense trapezoidal panel.  Returns the first column of each supernode plus a final
/// terminator `n` (so supernode `s` spans `starts[s]..starts[s + 1]`).
#[must_use]
pub fn fundamental_supernodes(parent: &[usize], counts: &[usize]) -> Vec<usize> {
    let n = parent.len();
    assert_eq!(counts.len(), n, "counts length must match parent length");
    if n == 0 {
        return vec![0];
    }
    let mut starts = Vec::with_capacity(n / 2 + 2);
    starts.push(0);
    for j in 1..n {
        let merge = parent[j - 1] == j && counts[j - 1] == counts[j] + 1;
        if !merge {
            starts.push(j);
        }
    }
    starts.push(n);
    starts
}

/// The row structure of the factor, one list per supernode: `(ptr, rows)` with the
/// rows of supernode `s` in `rows[ptr[s]..ptr[s + 1]]`, its own columns first and the
/// rows below them after, all ascending.
///
/// The columns of a fundamental supernode have nested structures, so one list serves
/// them all: column `starts[s] + c` holds exactly the tail `rows[ptr[s] + c..ptr[s + 1]]`,
/// diagonal first.  Only the structure of a supernode's first column is ever formed —
/// its entries of `a` and, each without its own diagonal, the structures of its
/// children in the elimination tree, which are the lists of the supernodes those
/// children close — so the pass costs what the lists hold, not what the factor does.
///
/// # Panics
/// Panics if `a` is not square or has more than `u32::MAX` rows.
#[must_use]
pub fn supernode_rows(
    a: &CsrMatrix,
    parent: &[usize],
    counts: &[usize],
    starts: &[usize],
) -> (Vec<usize>, Vec<u32>) {
    let n = a.nrows();
    assert_eq!(a.ncols(), n);
    assert!(u32::try_from(n).is_ok(), "row indices of the factor are stored as u32");
    let nsuper = starts.len() - 1;
    let mut ptr = vec![0usize; nsuper + 1];
    for s in 0..nsuper {
        ptr[s + 1] = ptr[s] + counts[starts[s]];
    }
    let mut rows = vec![0u32; ptr[nsuper]];
    // The supernodes whose last column is a child of column `j`, chained: the children
    // whose structure `j` inherits (one inside `j`'s own supernode adds nothing).
    let mut first_child = vec![NO_PARENT; n];
    let mut next_sibling = vec![NO_PARENT; nsuper];
    let mut marker = vec![usize::MAX; n];
    for s in 0..nsuper {
        let (j0, j1) = (starts[s], starts[s + 1]);
        let (done, rest) = rows.split_at_mut(ptr[s]);
        let list = &mut rest[..ptr[s + 1] - ptr[s]];
        let mut len = 0;
        let mut push = |i: usize| {
            if marker[i] != s {
                marker[i] = s;
                list[len] = i as u32;
                len += 1;
            }
        };
        (j0..j1).for_each(&mut push);
        a.row_cols(j0).iter().filter(|&&i| i > j0).for_each(|&i| push(i));
        let mut child = first_child[j0];
        while child != NO_PARENT {
            let below = ptr[child] + (starts[child + 1] - starts[child]);
            done[below..ptr[child + 1]].iter().for_each(|&i| push(i as usize));
            child = next_sibling[child];
        }
        assert_eq!(len, list.len(), "column counts and elimination tree disagree");
        list[j1 - j0..].sort_unstable();
        if parent[j1 - 1] != NO_PARENT {
            next_sibling[s] = first_child[parent[j1 - 1]];
            first_child[parent[j1 - 1]] = s;
        }
    }
    (ptr, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_sparse::CooMatrix;

    /// Arrowhead matrix: dense last row/column, diagonal elsewhere.
    fn arrowhead(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
        }
        for i in 0..n - 1 {
            coo.push(i, n - 1, 1.0);
            coo.push(n - 1, i, 1.0);
        }
        coo.to_csr()
    }

    fn tridiag(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn etree_of_tridiagonal_is_a_path() {
        let a = tridiag(6);
        let parent = elimination_tree(&a);
        for k in 0..5 {
            assert_eq!(parent[k], k + 1);
        }
        assert_eq!(parent[5], NO_PARENT);
    }

    #[test]
    fn etree_of_arrowhead_points_to_last() {
        let a = arrowhead(5);
        let parent = elimination_tree(&a);
        for k in 0..4 {
            assert_eq!(parent[k], 4, "column {k}");
        }
        assert_eq!(parent[4], NO_PARENT);
    }

    #[test]
    fn column_counts_tridiagonal_no_fill() {
        let a = tridiag(6);
        let parent = elimination_tree(&a);
        let counts = column_counts(&a, &parent);
        // L of a tridiagonal matrix is bidiagonal: 2 entries per column except the last.
        assert_eq!(counts, vec![2, 2, 2, 2, 2, 1]);
    }

    #[test]
    fn column_counts_arrowhead_no_fill_when_dense_row_is_last() {
        let a = arrowhead(5);
        let parent = elimination_tree(&a);
        let counts = column_counts(&a, &parent);
        assert_eq!(counts, vec![2, 2, 2, 2, 1]);
    }

    #[test]
    fn supernodes_of_dense_matrix_merge_into_one_panel() {
        let n = 5;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                coo.push(i, j, if i == j { 10.0 } else { -1.0 });
            }
        }
        let a = coo.to_csr();
        let parent = elimination_tree(&a);
        let counts = column_counts(&a, &parent);
        assert_eq!(fundamental_supernodes(&parent, &counts), vec![0, n]);
    }

    #[test]
    fn supernodes_of_tridiagonal_merge_only_the_tail_pair() {
        // L of a tridiagonal matrix is bidiagonal: only the last two columns share
        // their structure (both reach no row beyond the next).
        let a = tridiag(6);
        let parent = elimination_tree(&a);
        let counts = column_counts(&a, &parent);
        assert_eq!(fundamental_supernodes(&parent, &counts), vec![0, 1, 2, 3, 4, 6]);
    }

    #[test]
    fn supernodes_empty_matrix() {
        assert_eq!(fundamental_supernodes(&[], &[]), vec![0]);
    }

    #[test]
    fn ereach_pattern_of_tridiagonal() {
        let a = tridiag(4);
        let parent = elimination_tree(&a);
        let mut marker = vec![usize::MAX; 4];
        let mut stack = vec![0usize; 4];
        let top = ereach(&a, 2, &parent, &mut marker, &mut stack);
        let pattern: Vec<usize> = stack[top..4].to_vec();
        assert_eq!(pattern, vec![1]);
    }
}
