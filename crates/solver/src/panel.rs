//! Reach-pruned multi-right-hand-side forward solve `Y = L⁻¹ P Bᵀ` with a sparse
//! factor and a sparse `B`: the first half of the paper's explicit host assembly
//! `F̃ = (L⁻¹PB̃ᵀ)ᵀ(L⁻¹PB̃ᵀ)` (Fig. 2), skipping the structural zeros of `PB̃ᵀ` as the
//! sequel (arXiv 2509.21037) does.
//!
//! The rows of `B` (the local multipliers) are solved [`PANEL_WIDTH`] at a time in a
//! row-major `n x PANEL_WIDTH` panel, so every stored `L(i, j)` is loaded once per
//! panel and applied to `PANEL_WIDTH` contiguous right-hand sides.  A panel starts at
//! its first nonzero row, and a row becomes *active* when an entry of `B` or an update
//! from an active row writes it: that is exactly the union of the elimination-tree
//! reaches of the panel's columns, found without a DFS, and the columns of `L` outside
//! it — whose solution rows are exactly zero — are skipped.  Sorting the multipliers
//! by the first permuted row they touch keeps the reaches of one panel close.
//!
//! Every column of `Y` receives the operations of a one-column forward substitution
//! in the same order whatever panel it shares, so the result does not depend on the
//! order of the multipliers (up to the sign of exact zeros).

use crate::CholeskyFactor;
use feti_sparse::{CsrMatrix, DenseMatrix, MemoryOrder};

/// Right-hand sides solved together.  A constant, not an option: the forward solves
/// of 8 x 2197-DOF heat 3D subdomains (~660 multipliers each, one thread, best of
/// five) took 0.121 s at 8, 0.121 at 16, 0.109 at 32, 0.109 at 64 and 0.157 at 128 —
/// wider panels amortize the loads of `L` over more columns but merge more reaches
/// and outgrow the cache, and nothing between 8 and 64 moves the assembly, whose
/// larger half is the SYRK.
const PANEL_WIDTH: usize = 32;

/// `Y = L⁻¹ P Bᵀ` (`n x b.nrows()`, column-major, rows in the permuted ordering) for
/// the factor `L` and its permutation `P`.
pub(crate) fn forward_solve_sparse_rhs(factor: &CholeskyFactor, b: &CsrMatrix) -> DenseMatrix {
    assert_eq!(b.ncols(), factor.dim(), "B must have as many columns as the factor has rows");
    let old_to_new = factor.permutation().old_to_new();
    let mut order: Vec<usize> = (0..b.nrows()).collect();
    order.sort_by_cached_key(|&r| b.row_cols(r).iter().map(|&j| old_to_new[j]).min());
    forward_solve_panels(factor, b, &order)
}

/// The panel loop of [`forward_solve_sparse_rhs`], gathering the rows of `b` into
/// panels in the given `order` (a permutation of `0..b.nrows()`; any order is
/// correct, a sorted one prunes best).
fn forward_solve_panels(factor: &CholeskyFactor, b: &CsrMatrix, order: &[usize]) -> DenseMatrix {
    const W: usize = PANEL_WIDTH;
    let n = factor.dim();
    let old_to_new = factor.permutation().old_to_new();
    let mut y = DenseMatrix::zeros(n, b.nrows(), MemoryOrder::ColMajor);
    let y_values = y.as_mut_slice();
    // Between panels every panel row is zero and no row is active.
    let mut panel = vec![[0.0f64; W]; n];
    let mut active = vec![false; n];
    for chunk in order.chunks(W) {
        let mut start = n;
        for (c, &r) in chunk.iter().enumerate() {
            for (&j, &v) in b.row_cols(r).iter().zip(b.row_values(r)) {
                let i = old_to_new[j];
                panel[i][c] += v;
                active[i] = true;
                start = start.min(i);
            }
        }
        for j in start..n {
            if !active[j] {
                continue;
            }
            let (rows, values) = factor.column(j);
            let (head, below) = panel.split_at_mut(j + 1);
            let xj = &mut head[j];
            for x in xj.iter_mut() {
                *x /= values[0];
            }
            let xj = *xj;
            for (&i, &l) in rows[1..].iter().zip(&values[1..]) {
                let i = i as usize;
                active[i] = true;
                for (t, x) in below[i - j - 1].iter_mut().zip(&xj) {
                    *t -= l * x;
                }
            }
        }
        for j in start..n {
            if active[j] {
                for (&r, &v) in chunk.iter().zip(&panel[j]) {
                    y_values[r * n + j] = v;
                }
                panel[j] = [0.0; W];
                active[j] = false;
            }
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CholeskyFactor, SolverOptions};
    use feti_sparse::CooMatrix;

    /// 2D Laplacian on an `nx x ny` grid (SPD).
    fn laplacian2d(nx: usize, ny: usize) -> CsrMatrix {
        let idx = |i: usize, j: usize| i * ny + j;
        let mut coo = CooMatrix::new(nx * ny, nx * ny);
        for i in 0..nx {
            for j in 0..ny {
                coo.push(idx(i, j), idx(i, j), 4.1);
                if i + 1 < nx {
                    coo.push(idx(i, j), idx(i + 1, j), -1.0);
                    coo.push(idx(i + 1, j), idx(i, j), -1.0);
                }
                if j + 1 < ny {
                    coo.push(idx(i, j), idx(i, j + 1), -1.0);
                    coo.push(idx(i, j + 1), idx(i, j), -1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn any_panel_order_gives_the_columns_of_a_one_column_forward_solve() {
        let a = laplacian2d(9, 8);
        let n = a.nrows();
        let f = CholeskyFactor::new(&a, &SolverOptions::default()).unwrap();
        let old_to_new = f.permutation().old_to_new();
        // 75 multipliers (two full panels and a partial one), one of them empty.
        let nl = 2 * PANEL_WIDTH + 11;
        let mut coo = CooMatrix::new(nl, n);
        for r in (0..nl).filter(|&r| r != 5) {
            coo.push(r, (r * 7) % n, 1.0);
            coo.push(r, (r * 13 + 3) % n, -0.5 - r as f64);
        }
        let b = coo.to_csr();
        let sorted = forward_solve_sparse_rhs(&f, &b);
        let natural: Vec<usize> = (0..nl).collect();
        let reversed: Vec<usize> = (0..nl).rev().collect();
        let strided: Vec<usize> = (0..nl).map(|r| (r * 31) % nl).collect();
        for order in [natural, reversed, strided] {
            let y = forward_solve_panels(&f, &b, &order);
            assert!(y == sorted, "the panel order must not change a value");
        }
        for r in 0..nl {
            let mut x = vec![0.0; n];
            for (&j, &v) in b.row_cols(r).iter().zip(b.row_values(r)) {
                x[old_to_new[j]] += v;
            }
            f.forward_solve_in_place(&mut x);
            assert!(sorted.col(r) == x, "column {r}");
        }
        assert!(sorted.col(5).iter().all(|&v| v == 0.0));
    }
}
