//! Typed device operations: the vocabulary kernel programs are written in.
//!
//! A [`DeviceOp`] names one submission to the device together with the shape that
//! prices it.  The dual-operator approaches describe what they submit as ordered lists
//! of [`PricedOp`]s; the executor walks a list (requests the temporary device memory
//! each op's kernel holds and charges its cost, while the host computes the result),
//! the planner folds the same list through the phase scheduler, and the trace layer
//! labels every modelled lane with [`DeviceOp::name`].  A real CUDA backend would
//! interpret the same lists.

use crate::cost::{self, GpuCost, GpuSpec};
use crate::CudaGeneration;

/// One device operation and the shape its cost depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOp {
    /// Host-device (or device-host) copy of `bytes`.
    Transfer {
        /// Bytes moved over PCIe.
        bytes: usize,
    },
    /// Sparse-to-dense conversion of a `rows x cols` matrix with `nnz` entries.
    SparseToDense {
        /// Stored entries of the sparse operand.
        nnz: usize,
        /// Rows of the dense result.
        rows: usize,
        /// Columns of the dense result.
        cols: usize,
    },
    /// Dense triangular solve: `n x n` factor, `nrhs` right-hand sides.
    DenseTrsm {
        /// Factor dimension.
        n: usize,
        /// Right-hand-side columns.
        nrhs: usize,
    },
    /// Sparse triangular solve (cuSPARSE TRSM/TRSV) with a dense `n x nrhs` panel.
    SparseTrsm {
        /// API generation (sets the efficiency factor).
        generation: CudaGeneration,
        /// Stored entries of the factor.
        nnz: usize,
        /// Factor dimension.
        n: usize,
        /// Right-hand-side columns.
        nrhs: usize,
    },
    /// Boundary-restricted dense triangular solve (sparse right-hand side).
    SparseRhsTrsm {
        /// API generation (sets the slack on the skipped rows).
        generation: CudaGeneration,
        /// Factor dimension.
        n: usize,
        /// Right-hand-side columns.
        nrhs: usize,
        /// Distinct boundary rows the right-hand side touches.
        boundary_rows: usize,
    },
    /// SYRK producing an `n x n` result from a `k x n` operand.
    Syrk {
        /// Result dimension.
        n: usize,
        /// Contraction dimension.
        k: usize,
    },
    /// Boundary-restricted SYRK (operand rows zero above the boundary prefix).
    BoundarySyrk {
        /// API generation (sets the slack on the skipped rows).
        generation: CudaGeneration,
        /// Result dimension.
        n: usize,
        /// Contraction dimension.
        k: usize,
        /// Distinct boundary rows of the contraction dimension.
        boundary_rows: usize,
    },
    /// Sparse-times-dense product with `nrhs` dense columns (SpMV for one column).
    Spmm {
        /// Stored entries of the matrix.
        nnz: usize,
        /// Matrix rows.
        nrows: usize,
        /// Dense columns.
        nrhs: usize,
    },
    /// Symmetric product on one stored triangle of an `n x n` matrix, streamed once
    /// for `nrhs` simultaneous vectors (SYMM-shaped; SYMV for one vector).
    Symm {
        /// Matrix dimension.
        n: usize,
        /// Simultaneous right-hand sides.
        nrhs: usize,
    },
    /// Device scatter or gather kernel over `n` values.
    ScatterGather {
        /// Values moved.
        n: usize,
    },
}

impl DeviceOp {
    /// The modelled cost of this operation on a device described by `spec`.
    #[must_use]
    pub fn cost(&self, spec: &GpuSpec) -> GpuCost {
        match *self {
            DeviceOp::Transfer { bytes } => cost::transfer(spec, bytes),
            DeviceOp::SparseToDense { nnz, rows, cols } => {
                cost::sparse_to_dense(spec, nnz, rows, cols)
            }
            DeviceOp::DenseTrsm { n, nrhs } => cost::dense_trsm(spec, n, nrhs),
            DeviceOp::SparseTrsm { generation, nnz, n, nrhs } => {
                cost::sparse_trsm_for(spec, generation, nnz, n, nrhs)
            }
            DeviceOp::SparseRhsTrsm { generation, n, nrhs, boundary_rows } => {
                cost::sparse_rhs_trsm(spec, generation, n, nrhs, boundary_rows)
            }
            DeviceOp::Syrk { n, k } => cost::syrk(spec, n, k),
            DeviceOp::BoundarySyrk { generation, n, k, boundary_rows } => {
                cost::boundary_syrk(spec, generation, n, k, boundary_rows)
            }
            DeviceOp::Spmm { nnz, nrows, nrhs } => cost::spmm(spec, nnz, nrows, nrhs),
            DeviceOp::Symm { n, nrhs } => cost::symm(spec, n, nrhs),
            DeviceOp::ScatterGather { n } => cost::scatter_gather(spec, n),
        }
    }

    /// The kernel name exported to the trace layer's virtual-device lanes.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DeviceOp::Transfer { .. } => "transfer",
            DeviceOp::SparseToDense { .. } => "sparse_to_dense",
            DeviceOp::DenseTrsm { .. } => "trsm",
            DeviceOp::SparseTrsm { .. } => "sparse_trsm",
            DeviceOp::SparseRhsTrsm { .. } => "sparse_rhs_trsm",
            DeviceOp::Syrk { .. } => "syrk",
            DeviceOp::BoundarySyrk { .. } => "boundary_syrk",
            DeviceOp::Spmm { nrhs: 1, .. } => "spmv",
            DeviceOp::Spmm { .. } => "spmm",
            DeviceOp::Symm { nrhs: 1, .. } => "symv",
            DeviceOp::Symm { .. } => "symm",
            DeviceOp::ScatterGather { .. } => "scatter_gather",
        }
    }

    /// This operation with its cost on `spec` attached, holding no temporary memory.
    #[must_use]
    pub fn priced(self, spec: &GpuSpec) -> PricedOp {
        PricedOp { op: self, cost: self.cost(spec), temporary_bytes: 0 }
    }
}

/// A [`DeviceOp`] together with its cost on one concrete device and the temporary
/// device memory its kernel holds — what a program stores so that neither execution
/// nor estimation re-derives either per submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricedOp {
    /// The operation.
    pub op: DeviceOp,
    /// Its modelled cost.
    pub cost: GpuCost,
    /// Bytes of the temporary pool (§IV-A) the kernel holds.
    pub temporary_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_prices_through_its_cost_function_and_has_a_unique_name() {
        let s = GpuSpec::a100_40gb();
        let g = CudaGeneration::Modern;
        let (n, k, nnz) = (300usize, 40usize, 2_000usize);
        let ops = [
            (DeviceOp::Transfer { bytes: n }, cost::transfer(&s, n)),
            (
                DeviceOp::SparseToDense { nnz, rows: n, cols: k },
                cost::sparse_to_dense(&s, nnz, n, k),
            ),
            (DeviceOp::DenseTrsm { n, nrhs: k }, cost::dense_trsm(&s, n, k)),
            (
                DeviceOp::SparseTrsm { generation: g, nnz, n, nrhs: k },
                cost::sparse_trsm_for(&s, g, nnz, n, k),
            ),
            (
                DeviceOp::SparseRhsTrsm { generation: g, n, nrhs: k, boundary_rows: 9 },
                cost::sparse_rhs_trsm(&s, g, n, k, 9),
            ),
            (DeviceOp::Syrk { n: k, k: n }, cost::syrk(&s, k, n)),
            (
                DeviceOp::BoundarySyrk { generation: g, n: k, k: n, boundary_rows: 9 },
                cost::boundary_syrk(&s, g, k, n, 9),
            ),
            (DeviceOp::Spmm { nnz, nrows: k, nrhs: 1 }, cost::spmm(&s, nnz, k, 1)),
            (DeviceOp::Spmm { nnz, nrows: k, nrhs: 3 }, cost::spmm(&s, nnz, k, 3)),
            (DeviceOp::Symm { n: k, nrhs: 1 }, cost::symv(&s, k)),
            (DeviceOp::Symm { n: k, nrhs: 3 }, cost::symm(&s, k, 3)),
            (DeviceOp::ScatterGather { n }, cost::scatter_gather(&s, n)),
        ];
        let mut names = std::collections::HashSet::new();
        for (op, expected) in ops {
            assert_eq!(op.cost(&s), expected, "{op:?}");
            assert_eq!(op.priced(&s), PricedOp { op, cost: expected, temporary_bytes: 0 });
            assert!(names.insert(op.name()), "duplicate name {}", op.name());
        }
    }
}
