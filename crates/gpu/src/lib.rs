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
//! * device memory is managed exactly as described in §IV-A: persistent allocations
//!   that live for the whole solver lifetime plus a temporary pool allocator that
//!   blocks the submitting thread when the pool is exhausted, and a [`DeviceBudget`]
//!   shared by the jobs of one device;
//! * a [`DeviceTimeline`] of [`StreamTimeline`]s, one stream per host worker, models
//!   the asynchronous execution and the copy/compute overlap the paper relies on: the
//!   phase makespan is when the last stream drains.

#![warn(missing_docs)]

pub mod budget;
pub mod cost;
pub mod memory;
pub mod op;
pub mod sparse;
pub mod timeline;

pub use budget::{BudgetError, BudgetReservation, DeviceBudget};
pub use cost::{GpuCost, GpuSpec};
pub use memory::{MemoryError, MemoryManager, TempAlloc};
pub use op::{DeviceOp, PricedOp};
pub use timeline::{DeviceTimeline, StreamTimeline};

use parking_lot::Mutex;
use std::sync::Arc;

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

/// A handle to one simulated GPU (the paper maps one GPU to one cluster/process).
#[derive(Debug, Clone)]
pub struct GpuDevice {
    spec: GpuSpec,
    memory: Arc<Mutex<MemoryManager>>,
}

impl GpuDevice {
    /// Creates a device with the given hardware characteristics.
    #[must_use]
    pub fn new(spec: GpuSpec) -> Self {
        let memory = Arc::new(Mutex::new(MemoryManager::new(spec.memory_capacity_bytes)));
        Self { spec, memory }
    }

    /// The hardware characteristics of this device.
    #[must_use]
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Allocates persistent device memory (lives until [`GpuDevice::free_persistent`]).
    ///
    /// # Errors
    /// Returns [`MemoryError::OutOfMemory`] when the capacity would be exceeded.
    pub fn alloc_persistent(&self, bytes: usize) -> Result<(), MemoryError> {
        self.memory.lock().alloc_persistent(bytes)
    }

    /// Releases persistent device memory.
    pub fn free_persistent(&self, bytes: usize) {
        self.memory.lock().free_persistent(bytes);
    }

    /// Reserves the remaining free memory for the temporary pool allocator
    /// (the paper does this once at the end of the preparation phase).
    pub fn reserve_temporary_pool(&self) {
        self.memory.lock().reserve_temporary_pool();
    }

    /// Allocates from the temporary pool, blocking until space is available.
    ///
    /// # Errors
    /// Returns [`MemoryError::LargerThanPool`] if the request can never be satisfied.
    pub fn alloc_temporary(&self, bytes: usize) -> Result<TempAlloc, MemoryError> {
        MemoryManager::alloc_temporary(&self.memory, bytes)
    }

    /// Current memory statistics (persistent bytes, temporary pool bytes in use,
    /// capacity).
    #[must_use]
    pub fn memory_stats(&self) -> memory::MemoryStats {
        self.memory.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_exposes_spec_and_memory() {
        let dev = GpuDevice::new(GpuSpec::a100_40gb());
        assert!(dev.spec().memory_capacity_bytes > 30 * 1024 * 1024 * 1024);
        dev.alloc_persistent(1024).unwrap();
        let stats = dev.memory_stats();
        assert_eq!(stats.persistent_bytes, 1024);
        dev.free_persistent(1024);
        assert_eq!(dev.memory_stats().persistent_bytes, 0);
    }

    #[test]
    fn generation_is_comparable() {
        assert_ne!(CudaGeneration::Legacy, CudaGeneration::Modern);
    }
}
