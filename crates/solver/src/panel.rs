//! Reach-pruned multi-right-hand-side forward solve `Y = L⁻¹ P Bᵀ` with a sparse
//! factor and a sparse `B`, and the Gram matrix `YᵀY = B A⁻¹ Bᵀ` of its result: the
//! paper's explicit host assembly `F̃ = (L⁻¹PB̃ᵀ)ᵀ(L⁻¹PB̃ᵀ)` (Fig. 2), skipping the
//! structural zeros of `PB̃ᵀ` and of `Y` as the sequel (arXiv 2509.21037) does.
//!
//! The rows of `B` (the local multipliers) are solved [`PANEL_WIDTH`] at a time in a
//! row-major `n x PANEL_WIDTH` workspace, so every stored `L(i, j)` is loaded once per
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
//!
//! The solved panels are kept as they are ([`ForwardPanels`]): each holds its
//! multipliers, the ascending list of its active rows and those rows' values — every
//! other entry of `Y` is an exact `+0.0`.  [`ForwardPanels::gram`] contracts, for
//! every pair of panels, only the rows both lists hold, into the packed upper
//! triangle of `YᵀY`; a skipped term multiplies an exact zero and every accumulator
//! starts at `+0.0`, so the result is the one of a SYRK over the dense `Y` to the bit.

use crate::CholeskyFactor;
use feti_sparse::{CsrMatrix, DenseMatrix, MemoryOrder, PackedUpper};
use std::cmp::Ordering;

/// Right-hand sides solved together.  A constant, not an option: the forward solves
/// of 8 x 2197-DOF heat 3D subdomains (~660 multipliers each, one thread, best of
/// five) took 0.121 s at 8, 0.121 at 16, 0.109 at 32, 0.109 at 64 and 0.157 at 128 —
/// wider panels amortize the loads of `L` over more columns but merge more reaches
/// and outgrow the cache, and nothing between 8 and 64 moves the assembly.
const PANEL_WIDTH: usize = 32;

/// The register tile of [`ForwardPanels::gram`]: `TILE_ROWS` lanes of one panel
/// against `TILE_COLS` lanes of the other, sixteen accumulators plus the ten values
/// of one shared row — what the sixteen vector registers of the baseline x86-64
/// target hold (4 x 4, 4 x 8, 1 x 8 and 2 x 4 measured slower, DESIGN.md § "Explicit
/// host assembly").  Both divide [`PANEL_WIDTH`].
const TILE_ROWS: usize = 2;
const TILE_COLS: usize = 8;

/// One panel of a solved `Y`: up to [`PANEL_WIDTH`] columns (lanes) and the rows of
/// `Y` its solve reached.
#[derive(Debug, Clone)]
struct Panel {
    /// The row of `B` (column of `Y`) of each lane.
    multipliers: Vec<usize>,
    /// The panel's active rows of `Y`, ascending.
    rows: Vec<u32>,
    /// `values[k][c] = Y(rows[k], multipliers[c])`; lanes past the last multiplier
    /// hold zeros.
    values: Vec<[f64; PANEL_WIDTH]>,
}

/// `Y = L⁻¹ P Bᵀ` as the panel forward solve leaves it: per panel of multipliers, the
/// rows the solve reached and their values, all other entries of `Y` being exact
/// zeros.  Made by [`crate::CholmodFactor::forward_solve_sparse_rhs`].
#[derive(Debug, Clone)]
pub struct ForwardPanels {
    n: usize,
    nl: usize,
    panels: Vec<Panel>,
}

/// The panels of `Y = L⁻¹ P Bᵀ` for the factor `L` and its permutation `P`.
pub(crate) fn forward_solve_sparse_rhs(factor: &CholeskyFactor, b: &CsrMatrix) -> ForwardPanels {
    assert_eq!(b.ncols(), factor.dim(), "B must have as many columns as the factor has rows");
    let old_to_new = factor.permutation().old_to_new();
    let mut order: Vec<usize> = (0..b.nrows()).collect();
    order.sort_by_cached_key(|&r| b.row_cols(r).iter().map(|&j| old_to_new[j]).min());
    forward_solve_panels(factor, b, &order)
}

/// The panel loop of [`forward_solve_sparse_rhs`], gathering the rows of `b` into
/// panels in the given `order` (a permutation of `0..b.nrows()`; any order is
/// correct, a sorted one prunes best).
fn forward_solve_panels(factor: &CholeskyFactor, b: &CsrMatrix, order: &[usize]) -> ForwardPanels {
    const W: usize = PANEL_WIDTH;
    let n = factor.dim();
    let old_to_new = factor.permutation().old_to_new();
    // Between panels every workspace row is zero and no row is active.
    let mut work = vec![[0.0f64; W]; n];
    let mut active = vec![false; n];
    let mut panels = Vec::with_capacity(order.len().div_ceil(W));
    for chunk in order.chunks(W) {
        let mut start = n;
        for (c, &r) in chunk.iter().enumerate() {
            for (&j, &v) in b.row_cols(r).iter().zip(b.row_values(r)) {
                let i = old_to_new[j];
                work[i][c] += v;
                active[i] = true;
                start = start.min(i);
            }
        }
        for j in start..n {
            if !active[j] {
                continue;
            }
            let (rows, values) = factor.column(j);
            let (head, below) = work.split_at_mut(j + 1);
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
        let mut panel = Panel { multipliers: chunk.to_vec(), rows: Vec::new(), values: Vec::new() };
        for j in start..n {
            if active[j] {
                panel.rows.push(j as u32);
                panel.values.push(work[j]);
                work[j] = [0.0; W];
                active[j] = false;
            }
        }
        panels.push(panel);
    }
    ForwardPanels { n, nl: b.nrows(), panels }
}

impl ForwardPanels {
    /// `F̃ = YᵀY` (`nl x nl`) as its packed upper triangle, the one the SYMV that
    /// applies it reads: for every pair of panels only the rows both reached are
    /// contracted, in a `TILE_ROWS x TILE_COLS` register tile whose every output is one
    /// accumulator starting at `+0.0` and taking its terms in ascending row order, and
    /// written once, at `(min(a, b), max(a, b))`.  Each skipped term multiplies an exact
    /// zero of `Y`, so the result's [`PackedUpper::to_dense`] is, to the bit,
    /// `boundary_syrk(Upper, Yes, 1, Y, 0)` mirrored into the lower triangle — and
    /// therefore `syrk`'s.
    #[must_use]
    pub fn gram(&self) -> PackedUpper {
        let mut f = PackedUpper::zeros(self.nl);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        let mut block = [[0.0f64; PANEL_WIDTH]; PANEL_WIDTH];
        for (a, p) in self.panels.iter().enumerate() {
            for (b, q) in self.panels.iter().enumerate().skip(a) {
                let diagonal = a == b;
                let (cp, cq) = (p.multipliers.len(), q.multipliers.len());
                if diagonal {
                    contract(&p.values, &p.values, cp, cq, true, &mut block);
                } else {
                    shared_rows(p, q, &mut xs, &mut ys);
                    contract(&xs, &ys, cp, cq, false, &mut block);
                }
                for (c, &mc) in p.multipliers.iter().enumerate() {
                    let first = if diagonal { c } else { 0 };
                    for (d, &md) in q.multipliers.iter().enumerate().skip(first) {
                        f.set(mc, md, block[c][d]);
                    }
                }
            }
        }
        f
    }

    /// `Y` itself (`n x nl`, column-major, rows in the permuted ordering): the
    /// operand of the backward solve and SpMM of the TRSM assembly path.
    #[must_use]
    pub fn to_dense(&self) -> DenseMatrix {
        let n = self.n;
        let mut y = DenseMatrix::zeros(n, self.nl, MemoryOrder::ColMajor);
        let y_values = y.as_mut_slice();
        for panel in &self.panels {
            for (&j, row) in panel.rows.iter().zip(&panel.values) {
                for (&r, &v) in panel.multipliers.iter().zip(row) {
                    y_values[r * n + j as usize] = v;
                }
            }
        }
        y
    }
}

/// The values of the rows both `p` and `q` reached, ascending, gathered into `xs`
/// (from `p`) and `ys` (from `q`) by a merge of the two row lists.
fn shared_rows(
    p: &Panel,
    q: &Panel,
    xs: &mut Vec<[f64; PANEL_WIDTH]>,
    ys: &mut Vec<[f64; PANEL_WIDTH]>,
) {
    xs.clear();
    ys.clear();
    let (mut k, mut l) = (0, 0);
    while k < p.rows.len() && l < q.rows.len() {
        match p.rows[k].cmp(&q.rows[l]) {
            Ordering::Less => k += 1,
            Ordering::Greater => l += 1,
            Ordering::Equal => {
                xs.push(p.values[k]);
                ys.push(q.values[l]);
                k += 1;
                l += 1;
            }
        }
    }
}

/// `block[c][d] = Σₖ xs[k][c] · ys[k][d]` for the first `cp` lanes of `xs` and `cq`
/// of `ys`, each sum one accumulator from `+0.0` taking `k` in order; on the
/// `diagonal` (`xs` is `ys`) the tiles wholly below it are skipped.
fn contract(
    xs: &[[f64; PANEL_WIDTH]],
    ys: &[[f64; PANEL_WIDTH]],
    cp: usize,
    cq: usize,
    diagonal: bool,
    block: &mut [[f64; PANEL_WIDTH]; PANEL_WIDTH],
) {
    for c0 in (0..cp).step_by(TILE_ROWS) {
        for d0 in (0..cq).step_by(TILE_COLS) {
            if diagonal && d0 + TILE_COLS <= c0 {
                continue;
            }
            let mut acc = [[0.0f64; TILE_COLS]; TILE_ROWS];
            for (x, y) in xs.iter().zip(ys) {
                let x: &[f64; TILE_ROWS] = x[c0..c0 + TILE_ROWS].try_into().expect("a tile");
                let y: &[f64; TILE_COLS] = y[d0..d0 + TILE_COLS].try_into().expect("a tile");
                for (acc, &xv) in acc.iter_mut().zip(x) {
                    for (s, &yv) in acc.iter_mut().zip(y) {
                        *s += xv * yv;
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                block[c0 + r][d0..d0 + TILE_COLS].copy_from_slice(acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CholeskyFactor, SolverOptions};
    use feti_order::OrderingKind;
    use feti_sparse::{blas, CooMatrix, Transpose, Triangle};

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

    /// `nl` gluing-like rows over `n` columns, two entries each except row `empty`,
    /// which has none.
    fn gluing(nl: usize, n: usize, empty: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(nl, n);
        for r in (0..nl).filter(|&r| r != empty) {
            coo.push(r, (r * 7) % n, 1.0);
            coo.push(r, (r * 13 + 3) % n, -0.5 - r as f64);
        }
        coo.to_csr()
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn any_panel_order_gives_the_columns_of_a_one_column_forward_solve() {
        let a = laplacian2d(9, 8);
        let n = a.nrows();
        let f = CholeskyFactor::new(&a, &SolverOptions::default()).unwrap();
        let old_to_new = f.permutation().old_to_new();
        // 75 multipliers (two full panels and a partial one), one of them empty.
        let nl = 2 * PANEL_WIDTH + 11;
        let b = gluing(nl, n, 5);
        let sorted = forward_solve_sparse_rhs(&f, &b).to_dense();
        let natural: Vec<usize> = (0..nl).collect();
        let reversed: Vec<usize> = (0..nl).rev().collect();
        let strided: Vec<usize> = (0..nl).map(|r| (r * 31) % nl).collect();
        for order in [natural, reversed, strided] {
            let y = forward_solve_panels(&f, &b, &order).to_dense();
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

    #[test]
    fn gram_is_the_boundary_syrk_of_the_dense_solve_to_the_bit() {
        let a = laplacian2d(9, 8);
        let n = a.nrows();
        for ordering in [
            OrderingKind::Natural,
            OrderingKind::ReverseCuthillMcKee,
            OrderingKind::MinimumDegree,
            OrderingKind::NestedDissection,
        ] {
            let f = CholeskyFactor::new(&a, &SolverOptions { ordering, ..Default::default() });
            let f = f.unwrap();
            for nl in [0, 1, 3, 31, 32, 33, 75] {
                let b = gluing(nl, n, nl / 2);
                let panels = forward_solve_sparse_rhs(&f, &b);
                let y = panels.to_dense();
                let mut want = DenseMatrix::zeros(nl, nl, MemoryOrder::RowMajor);
                blas::boundary_syrk(Triangle::Upper, Transpose::Yes, 1.0, &y, 0.0, &mut want);
                want.symmetrize_from(Triangle::Upper);
                let got = panels.gram().to_dense();
                assert_eq!(got.order(), MemoryOrder::RowMajor);
                assert_eq!(bits(&got), bits(&want), "{ordering:?}, {nl} multipliers");
            }
        }
    }
}
