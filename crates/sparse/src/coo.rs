//! Coordinate-format (triplet) sparse matrix used as an assembly staging area.

use crate::csr::CsrMatrix;

/// A sparse matrix in coordinate (triplet) format.
///
/// FEM assembly naturally produces unsorted triplets with duplicates (one contribution
/// per element per DOF pair); [`CooMatrix::to_csr`] sorts and sums them, and a
/// [`CsrAssembly`] replays that step on new values with the same indices.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    values: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows x ncols` triplet matrix.
    #[must_use]
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, rows: Vec::new(), cols: Vec::new(), values: Vec::new() }
    }

    /// Creates an empty triplet matrix with pre-reserved capacity for `nnz` entries.
    #[must_use]
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
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

    /// Number of stored triplets (duplicates counted separately).
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Appends the triplet `(i, j, v)`.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.nrows, "row index {i} out of bounds ({})", self.nrows);
        assert!(j < self.ncols, "col index {j} out of bounds ({})", self.ncols);
        self.rows.push(i);
        self.cols.push(j);
        self.values.push(v);
    }

    /// Converts to CSR, sorting entries and summing duplicates.
    ///
    /// This is [`CsrAssembly::new`] followed by [`CsrAssembly::apply`]: the order in
    /// which duplicates are summed is written down once, in the assembly map.
    ///
    /// # Panics
    /// Panics if the matrix holds more than `u32::MAX` triplets.
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix {
        CsrAssembly::new(self).apply(self)
    }
}

/// The COO → CSR conversion of one triplet index sequence, recorded once and replayed
/// on the values of any [`CooMatrix`] with that sequence.
///
/// Building the map buckets the triplets by row in push order and sorts each row's
/// `(col, position)` pairs with the same `sort_unstable_by_key` call, on the same
/// element type `(usize, f64)`, that sorted `(col, value)` pairs before the map
/// existed; the position rides in the `f64` as its bits.  The sort is not stable
/// (rows longer than 20 entries leave its insertion-sort path), so the order it puts
/// a slot's duplicates in is a function of the key sequence and of the element type,
/// and replaying it is what keeps every assembled value bit for bit.
/// [`CsrAssembly::apply`] sums each slot's terms in that order, the first assigned and
/// the rest added.
#[derive(Debug, Clone)]
pub struct CsrAssembly {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// Triplet positions, slot after slot, each slot's in the order they are summed
    /// (`u32`, like `slot_ptr`: a map kept for reuse should cost little memory).
    order: Vec<u32>,
    /// `order[slot_ptr[s]..slot_ptr[s + 1]]` are the triplets summed into slot `s`.
    slot_ptr: Vec<u32>,
}

impl CsrAssembly {
    /// Records the conversion of `coo`'s triplet index sequence (its values are not
    /// read).
    ///
    /// # Panics
    /// Panics if `coo` holds more than `u32::MAX` triplets.
    #[must_use]
    pub fn new(coo: &CooMatrix) -> Self {
        let nrows = coo.nrows;
        let nnz = coo.nnz();
        assert!(
            u32::try_from(nnz).is_ok(),
            "{nnz} triplets exceed an assembly map's u32 positions"
        );
        let mut row_start = vec![0usize; nrows + 1];
        for &r in &coo.rows {
            row_start[r + 1] += 1;
        }
        for i in 0..nrows {
            row_start[i + 1] += row_start[i];
        }
        let mut entries = vec![(0usize, 0f64); nnz];
        let mut next = row_start.clone();
        for (k, (&r, &c)) in coo.rows.iter().zip(&coo.cols).enumerate() {
            entries[next[r]] = (c, f64::from_bits(k as u64));
            next[r] += 1;
        }
        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(nnz);
        let mut order = Vec::with_capacity(nnz);
        let mut slot_ptr = Vec::with_capacity(nnz + 1);
        for r in 0..nrows {
            let row = &mut entries[row_start[r]..row_start[r + 1]];
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut last_col = usize::MAX;
            for &(c, position) in &*row {
                if c != last_col {
                    col_idx.push(c);
                    slot_ptr.push(order.len() as u32);
                    last_col = c;
                }
                order.push(position.to_bits() as u32);
            }
            row_ptr[r + 1] = col_idx.len();
        }
        slot_ptr.push(order.len() as u32);
        Self { nrows, ncols: coo.ncols, row_ptr, col_idx, order, slot_ptr }
    }

    /// Whether `coo` has the triplet index sequence (dimensions, and `(row, col)` at
    /// every position) this map was built from, so that [`CsrAssembly::apply`] gives
    /// exactly what `coo.to_csr()` would.
    #[must_use]
    pub fn matches(&self, coo: &CooMatrix) -> bool {
        if (coo.nrows, coo.ncols, coo.nnz()) != (self.nrows, self.ncols, self.order.len()) {
            return false;
        }
        // `order` visits every position once, so this compares the whole sequence.
        (0..self.nrows).all(|r| {
            (self.row_ptr[r]..self.row_ptr[r + 1]).all(|s| {
                let c = self.col_idx[s];
                self.terms(s)
                    .iter()
                    .all(|&k| coo.rows[k as usize] == r && coo.cols[k as usize] == c)
            })
        })
    }

    /// Assembles `coo`'s values into the recorded pattern.
    ///
    /// # Panics
    /// Panics if `coo`'s dimensions or triplet count differ from the map's; `coo`
    /// must [match](CsrAssembly::matches) it (checked in debug builds).
    #[must_use]
    pub fn apply(&self, coo: &CooMatrix) -> CsrMatrix {
        assert_eq!(
            (coo.nrows, coo.ncols, coo.nnz()),
            (self.nrows, self.ncols, self.order.len()),
            "triplets do not fit the assembly map"
        );
        debug_assert!(self.matches(coo), "triplet indices differ from the assembly map's");
        let values = (0..self.col_idx.len())
            .map(|s| {
                let (first, rest) = self.terms(s).split_first().expect("a slot has a term");
                let mut sum = coo.values[*first as usize];
                for &k in rest {
                    sum += coo.values[k as usize];
                }
                sum
            })
            .collect();
        CsrMatrix::from_raw_parts(
            self.nrows,
            self.ncols,
            self.row_ptr.clone(),
            self.col_idx.clone(),
            values,
        )
    }

    /// The triplet positions summed into slot `s`, in summation order.
    fn terms(&self, s: usize) -> &[u32] {
        &self.order[self.slot_ptr[s] as usize..self.slot_ptr[s + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let coo = CooMatrix::new(3, 4);
        assert_eq!(coo.nnz(), 0);
        let csr = coo.to_csr();
        assert_eq!(csr.nrows(), 3);
        assert_eq!(csr.ncols(), 4);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::with_capacity(2, 2, 4);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 4.0);
        coo.push(0, 1, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.get(0, 1), -1.0);
        assert_eq!(csr.get(1, 1), 4.0);
        assert_eq!(csr.get(1, 0), 0.0);
    }

    #[test]
    fn rows_are_sorted_by_column() {
        let mut coo = CooMatrix::new(1, 5);
        coo.push(0, 4, 4.0);
        coo.push(0, 1, 1.0);
        coo.push(0, 3, 3.0);
        let csr = coo.to_csr();
        assert_eq!(csr.row_cols(0), &[1, 3, 4]);
        assert_eq!(csr.row_values(0), &[1.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_push_panics() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(2, 0, 1.0);
    }
}
