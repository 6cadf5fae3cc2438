//! The buffer-size query of the cuSPARSE-like sparse TRSM, in two API generations.
//!
//! The paper compares the *legacy* cuSPARSE API (CUDA 11.7, block triangular solves,
//! modest workspaces whose size depends on the factor/RHS memory order) with the
//! *modern* generic API (CUDA 12.4, much slower sparse TRSM and very large persistent
//! workspaces independent of the layout parameters).  The speed difference lives in
//! [`crate::cost`]; the workspace difference is this query, asked from shape alone by
//! the programs that book the persistent workspace and the walks that request the
//! temporary one.

use crate::CudaGeneration;
use feti_sparse::MemoryOrder;

/// Workspace requirements of a sparse TRSM call as reported by the API's buffer-size
/// query (§IV-C of the paper: factor order and RHS order change the legacy workspace;
/// the modern API always wants a large persistent buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrsmWorkspace {
    /// Bytes that must stay allocated for the lifetime of the solver instance.
    pub persistent_bytes: usize,
    /// Bytes needed only for the duration of the kernel (served by the temporary pool).
    pub temporary_bytes: usize,
}

/// Buffer-size query for the sparse TRSM from shape information alone (no factor in
/// hand) — what a-priori cost estimators and the device walks both ask, before or
/// without any factor on the device.  A row-major factor corresponds to CSR storage,
/// a column-major one to CSC.
#[must_use]
pub fn sparse_trsm_workspace_from_shape(
    generation: CudaGeneration,
    factor_bytes: usize,
    factor_dim: usize,
    factor_order: MemoryOrder,
    rhs_rows: usize,
    rhs_cols: usize,
    rhs_order: MemoryOrder,
) -> TrsmWorkspace {
    let rhs_bytes = rhs_rows * rhs_cols * 8;
    match generation {
        CudaGeneration::Legacy => {
            let mut temporary = factor_dim * 8;
            let mut persistent = factor_dim * 16;
            if factor_order == MemoryOrder::ColMajor {
                // Column-major factors force an internal transposed copy.
                temporary += factor_bytes;
                persistent += factor_bytes;
            }
            if rhs_order == MemoryOrder::ColMajor {
                // Column-major right-hand sides force an internal row-major copy.
                temporary += rhs_bytes;
            }
            TrsmWorkspace { persistent_bytes: persistent, temporary_bytes: temporary }
        }
        CudaGeneration::Modern => TrsmWorkspace {
            persistent_bytes: 2 * factor_bytes + 2 * rhs_bytes,
            temporary_bytes: rhs_bytes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceOp, GpuSpec};
    use MemoryOrder::{ColMajor, RowMajor};

    /// Stored entries and CSR/CSC footprint of an `n x n` banded lower factor with a
    /// diagonal, a first and a fourth subdiagonal.
    fn banded_factor(n: usize) -> (usize, usize) {
        let nnz = 3 * n - 5;
        (nnz, 16 * nnz + 8 * (n + 1))
    }

    #[test]
    fn modern_generation_is_slower_and_hungrier() {
        let (n, nrhs) = (500, 100);
        let (nnz, bytes) = banded_factor(n);
        let solve = |generation| DeviceOp::SparseTrsm { generation, nnz, n, nrhs };
        let s = GpuSpec::a100_40gb();
        let (legacy, modern) = (CudaGeneration::Legacy, CudaGeneration::Modern);
        assert!(solve(modern).cost(&s).seconds > solve(legacy).cost(&s).seconds);
        let workspace = |generation| {
            sparse_trsm_workspace_from_shape(generation, bytes, n, RowMajor, n, nrhs, RowMajor)
        };
        assert!(workspace(modern).persistent_bytes > workspace(legacy).persistent_bytes);
    }

    #[test]
    fn legacy_workspace_depends_on_layouts_as_in_the_paper() {
        let (n, nrhs) = (200, 50);
        let (_, bytes) = banded_factor(n);
        let workspace = |generation, factor_order, rhs_order| {
            sparse_trsm_workspace_from_shape(generation, bytes, n, factor_order, n, nrhs, rhs_order)
        };
        let legacy = CudaGeneration::Legacy;
        // A CSC factor needs an extra factor-sized buffer.
        let w_csr = workspace(legacy, RowMajor, RowMajor);
        let w_csc = workspace(legacy, ColMajor, RowMajor);
        assert_eq!(w_csc.temporary_bytes, w_csr.temporary_bytes + bytes);
        // A column-major RHS needs an extra RHS-sized buffer.
        let w_cm = workspace(legacy, RowMajor, ColMajor);
        assert_eq!(w_cm.temporary_bytes - w_csr.temporary_bytes, n * nrhs * 8);
        // The modern workspace is layout independent.
        let modern = CudaGeneration::Modern;
        let m1 = workspace(modern, RowMajor, RowMajor);
        let m2 = workspace(modern, ColMajor, ColMajor);
        assert_eq!(m1, m2);
    }
}
