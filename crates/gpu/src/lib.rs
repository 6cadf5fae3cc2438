//! A software-simulated CUDA-like device for the FETI dual-operator reproduction: it
//! prices and books device work, and computes none.
//!
//! The paper's contribution is executed on NVIDIA A100 GPUs through cuBLAS and
//! cuSPARSE.  This environment has no GPU, so — per the substitution rule recorded in
//! `DESIGN.md` — this crate provides the closest synthetic equivalent:
//!
//! * a [`DeviceOp`] names one kernel submission by its shape, and its [`GpuCost`] comes
//!   from an A100-calibrated [`GpuSpec`] (kernel-launch latency, HBM bandwidth, FP64
//!   throughput, PCIe transfers), which the benchmark harness uses as the device time;
//!   a [`PricedOp`] carries that cost and the temporary memory the kernel holds.  The
//!   results are computed on the host by the callers, through the host factor of
//!   `feti-solver` and the kernels of `feti-sparse`;
//! * the two cuSPARSE API generations the paper compares ("legacy" CUDA 11.7 vs
//!   "modern" CUDA 12.4) are modelled as two parameterizations of the sparse
//!   triangular solve's cost and of its workspace query ([`sparse`]), reproducing the
//!   qualitative findings of §V-A;
//! * device memory is split as §IV-A describes: the persistent bytes are booked when
//!   the temporary pool is made ([`MemoryLedger::temporary_pool`]), and the pool is
//!   every byte they leave, a [`MemoryLedger`] that blocks a request FIFO-fairly until
//!   it fits; the same type is the device budget the jobs of one service share.
//!
//! The asynchronous execution the paper relies on — one stream per host worker, a
//! phase that ends when the last stream drains — is scheduled by the caller's phase
//! scheduler (`feti_core::schedule`) from the ops' prices.

#![warn(missing_docs)]

pub mod cost;
pub mod memory;
pub mod op;
pub mod sparse;

pub use cost::{GpuCost, GpuSpec};
pub use memory::{MemoryError, MemoryLedger, Reservation};
pub use op::{DeviceOp, PricedOp};

/// Which cuSPARSE API generation the sparse kernels emulate.
///
/// `Legacy` corresponds to CUDA 11.7 (csrsm2-style block triangular solves, modest
/// workspaces); `Modern` corresponds to CUDA 12.4 (generic SpSM API, much slower sparse
/// triangular solves and very large persistent workspaces), matching the behaviour the
/// paper measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CudaGeneration {
    /// CUDA 11.7 / legacy cuSPARSE API.
    Legacy,
    /// CUDA 12.4 / modern generic cuSPARSE API.
    Modern,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_comparable() {
        assert_ne!(CudaGeneration::Legacy, CudaGeneration::Modern);
    }
}
