//! The dual-operator approaches of Table III and the explicit-assembly parameter space
//! of Table I, together with the Table-II optimal auto-configuration.

use feti_gpu::CudaGeneration;
use feti_mesh::Dim;
use feti_solver::OrderingKind;
use feti_sparse::MemoryOrder;

/// The nine dual-operator approaches: Table III of the paper less its two MKL PARDISO
/// baselines (`impl mkl` / `expl mkl`, which would run exactly the host factor and
/// assembly of [`Self::ImplicitCholmod`] / [`Self::ExplicitCholmod`]), plus the
/// sparsity-aware explicit family of the sequel (arXiv 2509.21037).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DualOperatorApproach {
    /// Implicit application with the CHOLMOD-like CPU solver.
    ImplicitCholmod,
    /// Implicit application on the GPU (factors from the CHOLMOD-like solver), legacy
    /// CUDA libraries.
    ImplicitGpuLegacy,
    /// Implicit application on the GPU, modern CUDA libraries.
    ImplicitGpuModern,
    /// Explicit assembly with dense triangular solves through the CHOLMOD-like solver,
    /// application on the CPU.
    ExplicitCholmod,
    /// Explicit assembly and application on the GPU, legacy CUDA libraries
    /// (the paper's contribution).
    ExplicitGpuLegacy,
    /// Explicit assembly and application on the GPU, modern CUDA libraries
    /// (the paper's contribution).
    ExplicitGpuModern,
    /// Explicit assembly on the GPU with boundary-restricted (sparse-RHS) TRSM/SYRK,
    /// legacy CUDA libraries — the sequel paper's sparsity-aware assembly
    /// (arXiv 2509.21037).
    ExplicitSparseGpuLegacy,
    /// Explicit assembly on the GPU with boundary-restricted (sparse-RHS) TRSM/SYRK,
    /// modern CUDA libraries.
    ExplicitSparseGpuModern,
    /// Hybrid: explicit assembly on the CPU (the host assembly of
    /// [`Self::ExplicitCholmod`]), application on the GPU — the approach of the earlier
    /// acceleration attempts the paper cites.
    ExplicitHybrid,
}

impl DualOperatorApproach {
    /// All approaches: Table III's in order, with the sparsity-aware family inserted
    /// after its dense explicit-GPU counterparts.
    #[must_use]
    pub fn all() -> [DualOperatorApproach; 9] {
        [
            DualOperatorApproach::ImplicitCholmod,
            DualOperatorApproach::ImplicitGpuLegacy,
            DualOperatorApproach::ImplicitGpuModern,
            DualOperatorApproach::ExplicitCholmod,
            DualOperatorApproach::ExplicitGpuLegacy,
            DualOperatorApproach::ExplicitGpuModern,
            DualOperatorApproach::ExplicitSparseGpuLegacy,
            DualOperatorApproach::ExplicitSparseGpuModern,
            DualOperatorApproach::ExplicitHybrid,
        ]
    }

    /// The short name used in the paper's figures ("expl legacy", "impl cholmod", ...).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DualOperatorApproach::ImplicitCholmod => "impl cholmod",
            DualOperatorApproach::ImplicitGpuLegacy => "impl legacy",
            DualOperatorApproach::ImplicitGpuModern => "impl modern",
            DualOperatorApproach::ExplicitCholmod => "expl cholmod",
            DualOperatorApproach::ExplicitGpuLegacy => "expl legacy",
            DualOperatorApproach::ExplicitGpuModern => "expl modern",
            DualOperatorApproach::ExplicitSparseGpuLegacy => "expl sparse legacy",
            DualOperatorApproach::ExplicitSparseGpuModern => "expl sparse modern",
            DualOperatorApproach::ExplicitHybrid => "expl hybrid",
        }
    }

    /// `true` if the approach assembles an explicit dense `F̃ᵢ`.
    #[must_use]
    pub fn is_explicit(self) -> bool {
        matches!(
            self,
            DualOperatorApproach::ExplicitCholmod
                | DualOperatorApproach::ExplicitGpuLegacy
                | DualOperatorApproach::ExplicitGpuModern
                | DualOperatorApproach::ExplicitSparseGpuLegacy
                | DualOperatorApproach::ExplicitSparseGpuModern
                | DualOperatorApproach::ExplicitHybrid
        )
    }

    /// `true` if the approach assembles `F̃ᵢ` with device kernels: every explicit GPU
    /// approach but the hybrid, which assembles on the host.  With
    /// [`Self::is_explicit`] and [`Self::uses_gpu`] it says where each phase runs, for
    /// the operator that executes it and the planner that prices it alike.
    #[must_use]
    pub fn assembles_on_device(self) -> bool {
        self.is_explicit() && self.uses_gpu() && self != DualOperatorApproach::ExplicitHybrid
    }

    /// `true` if the approach uses the simulated GPU for the application.
    #[must_use]
    pub fn uses_gpu(self) -> bool {
        matches!(
            self,
            DualOperatorApproach::ImplicitGpuLegacy
                | DualOperatorApproach::ImplicitGpuModern
                | DualOperatorApproach::ExplicitGpuLegacy
                | DualOperatorApproach::ExplicitGpuModern
                | DualOperatorApproach::ExplicitSparseGpuLegacy
                | DualOperatorApproach::ExplicitSparseGpuModern
                | DualOperatorApproach::ExplicitHybrid
        )
    }

    /// The fill-reducing ordering of the approach's factors, chosen for the sweep that
    /// reads them.  The implicit approaches run two triangular sweeps over all of `L`
    /// per application, so they take approximate minimum degree, the smallest `L`
    /// (≈ 35 % fewer entries than nested dissection on heat 3D).  The explicit ones
    /// keep nested dissection: their forward solve is pruned to the reach of `B̃ᵢ`'s
    /// entries and their Gram to the rows two panels share, which pays off because
    /// dissection orders the boundary late (×1.5–2 slower under minimum degree).
    #[must_use]
    pub fn ordering(self) -> OrderingKind {
        if self.is_explicit() {
            OrderingKind::NestedDissection
        } else {
            OrderingKind::MinimumDegree
        }
    }

    /// CUDA generation used by GPU approaches (`None` for CPU-only approaches).
    #[must_use]
    pub fn generation(self) -> Option<CudaGeneration> {
        match self {
            DualOperatorApproach::ImplicitGpuLegacy
            | DualOperatorApproach::ExplicitGpuLegacy
            | DualOperatorApproach::ExplicitSparseGpuLegacy => Some(CudaGeneration::Legacy),
            DualOperatorApproach::ImplicitGpuModern
            | DualOperatorApproach::ExplicitGpuModern
            | DualOperatorApproach::ExplicitSparseGpuModern
            | DualOperatorApproach::ExplicitHybrid => Some(CudaGeneration::Modern),
            _ => None,
        }
    }
}

/// Which pair of kernels assembles `F̃ᵢ` (the "path" row of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Path {
    /// Two triangular solves followed by a sparse-dense multiplication:
    /// `F̃ᵢ = B̃ᵢ (U⁻¹ (U⁻ᵀ B̃ᵢᵀ))`.
    Trsm,
    /// One triangular solve followed by a symmetric rank-k update:
    /// `F̃ᵢ = (U⁻ᵀ B̃ᵢᵀ)ᵀ (U⁻ᵀ B̃ᵢᵀ)`.
    Syrk,
}

/// Storage of the triangular factor handed to the GPU solve (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FactorStorage {
    /// Keep the factor sparse (cuSPARSE TRSM).
    Sparse,
    /// Convert the factor to dense on the device (cuBLAS TRSM).
    Dense,
}

/// Where the scatter/gather of the cluster dual vector happens (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScatterGather {
    /// Copy each subdomain dual vector separately and scatter/gather on the CPU.
    Cpu,
    /// Copy the cluster-wide dual vector once and scatter/gather with device kernels.
    Gpu,
}

/// The full parameter set of the explicit assembly (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExplicitAssemblyParams {
    /// TRSM or SYRK path.
    pub path: Path,
    /// Storage of the factor in the forward solve.
    pub forward_factor_storage: FactorStorage,
    /// Storage of the factor in the backward solve (only used by the TRSM path).
    pub backward_factor_storage: FactorStorage,
    /// Memory order of the forward-solve factor (CSR/row-major vs CSC/col-major).
    pub forward_factor_order: MemoryOrder,
    /// Memory order of the backward-solve factor.
    pub backward_factor_order: MemoryOrder,
    /// Memory order of the dense right-hand side and solution.
    pub rhs_order: MemoryOrder,
    /// Where scatter and gather run during the application.
    pub scatter_gather: ScatterGather,
}

impl Default for ExplicitAssemblyParams {
    fn default() -> Self {
        Self {
            path: Path::Syrk,
            forward_factor_storage: FactorStorage::Dense,
            backward_factor_storage: FactorStorage::Dense,
            forward_factor_order: MemoryOrder::ColMajor,
            backward_factor_order: MemoryOrder::ColMajor,
            rhs_order: MemoryOrder::RowMajor,
            scatter_gather: ScatterGather::Gpu,
        }
    }
}

impl ExplicitAssemblyParams {
    /// The optimal configuration of Table II for the given CUDA generation, problem
    /// dimensionality and subdomain size (DOFs).
    #[must_use]
    pub fn auto_configure(generation: CudaGeneration, dim: Dim, dofs_per_subdomain: usize) -> Self {
        match generation {
            CudaGeneration::Legacy => {
                // Legacy CUDA: SYRK path; 2D factors stay sparse, 3D uses dense below
                // ~12k DOFs and sparse above; sparse factors row-major (CSR), dense
                // factors column-major; row-major right-hand sides.
                let storage = match dim {
                    Dim::Two => FactorStorage::Sparse,
                    Dim::Three => {
                        if dofs_per_subdomain < 12_000 {
                            FactorStorage::Dense
                        } else {
                            FactorStorage::Sparse
                        }
                    }
                };
                let factor_order = match storage {
                    FactorStorage::Sparse => MemoryOrder::RowMajor,
                    FactorStorage::Dense => MemoryOrder::ColMajor,
                };
                Self {
                    path: Path::Syrk,
                    forward_factor_storage: storage,
                    backward_factor_storage: storage,
                    forward_factor_order: factor_order,
                    backward_factor_order: factor_order,
                    rhs_order: MemoryOrder::RowMajor,
                    scatter_gather: ScatterGather::Gpu,
                }
            }
            CudaGeneration::Modern => {
                // Modern CUDA: the sparse TRSM underperforms, so always use dense
                // factors; column-major factors; RHS order depends on dimensionality.
                Self {
                    path: Path::Syrk,
                    forward_factor_storage: FactorStorage::Dense,
                    backward_factor_storage: FactorStorage::Dense,
                    forward_factor_order: MemoryOrder::ColMajor,
                    backward_factor_order: MemoryOrder::ColMajor,
                    rhs_order: match dim {
                        Dim::Two => MemoryOrder::ColMajor,
                        Dim::Three => MemoryOrder::RowMajor,
                    },
                    scatter_gather: ScatterGather::Gpu,
                }
            }
        }
    }

    /// Enumerates the full parameter space of Table I (used by the exhaustive-search
    /// benchmark behind Table II).
    #[must_use]
    pub fn all_combinations() -> Vec<Self> {
        let mut out = Vec::new();
        for path in [Path::Trsm, Path::Syrk] {
            for fwd_storage in [FactorStorage::Sparse, FactorStorage::Dense] {
                for bwd_storage in [FactorStorage::Sparse, FactorStorage::Dense] {
                    for fwd_order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
                        for bwd_order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
                            for rhs_order in [MemoryOrder::RowMajor, MemoryOrder::ColMajor] {
                                for sg in [ScatterGather::Cpu, ScatterGather::Gpu] {
                                    out.push(Self {
                                        path,
                                        forward_factor_storage: fwd_storage,
                                        backward_factor_storage: bwd_storage,
                                        forward_factor_order: fwd_order,
                                        backward_factor_order: bwd_order,
                                        rhs_order,
                                        scatter_gather: sg,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_approaches_have_unique_labels() {
        let labels: std::collections::HashSet<_> =
            DualOperatorApproach::all().iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), 9);
    }

    #[test]
    fn explicit_and_gpu_flags() {
        assert!(DualOperatorApproach::ExplicitGpuLegacy.is_explicit());
        assert!(DualOperatorApproach::ExplicitGpuLegacy.uses_gpu());
        assert!(!DualOperatorApproach::ImplicitCholmod.is_explicit());
        assert!(!DualOperatorApproach::ImplicitCholmod.uses_gpu());
        assert!(DualOperatorApproach::ExplicitHybrid.is_explicit());
        assert!(DualOperatorApproach::ExplicitHybrid.uses_gpu());
        assert!(DualOperatorApproach::ExplicitSparseGpuLegacy.is_explicit());
        assert!(DualOperatorApproach::ExplicitSparseGpuLegacy.uses_gpu());
        assert!(DualOperatorApproach::ExplicitSparseGpuLegacy.assembles_on_device());
        assert!(!DualOperatorApproach::ExplicitHybrid.assembles_on_device());
        assert!(!DualOperatorApproach::ImplicitGpuModern.assembles_on_device());
        assert!(!DualOperatorApproach::ExplicitCholmod.assembles_on_device());
        assert_eq!(
            DualOperatorApproach::ExplicitSparseGpuLegacy.generation(),
            Some(CudaGeneration::Legacy)
        );
        assert_eq!(
            DualOperatorApproach::ExplicitSparseGpuModern.generation(),
            Some(CudaGeneration::Modern)
        );
        assert_eq!(
            DualOperatorApproach::ImplicitGpuLegacy.generation(),
            Some(CudaGeneration::Legacy)
        );
        assert_eq!(DualOperatorApproach::ExplicitCholmod.generation(), None);
    }

    #[test]
    fn implicit_approaches_order_by_minimum_degree_and_explicit_ones_by_dissection() {
        let (implicit, explicit): (Vec<_>, Vec<_>) =
            DualOperatorApproach::all().into_iter().partition(|a| !a.is_explicit());
        assert_eq!((implicit.len(), explicit.len()), (3, 6));
        assert!(implicit.iter().all(|a| a.ordering() == OrderingKind::MinimumDegree));
        assert!(explicit.iter().all(|a| a.ordering() == OrderingKind::NestedDissection));
    }

    #[test]
    fn table2_auto_configuration() {
        // 2D legacy: sparse row-major factors.
        let p = ExplicitAssemblyParams::auto_configure(CudaGeneration::Legacy, Dim::Two, 5_000);
        assert_eq!(p.forward_factor_storage, FactorStorage::Sparse);
        assert_eq!(p.forward_factor_order, MemoryOrder::RowMajor);
        assert_eq!(p.path, Path::Syrk);
        // 3D legacy small: dense; large: sparse (crossover at ~12k DOFs).
        let small =
            ExplicitAssemblyParams::auto_configure(CudaGeneration::Legacy, Dim::Three, 5_000);
        assert_eq!(small.forward_factor_storage, FactorStorage::Dense);
        let large =
            ExplicitAssemblyParams::auto_configure(CudaGeneration::Legacy, Dim::Three, 20_000);
        assert_eq!(large.forward_factor_storage, FactorStorage::Sparse);
        // Modern: always dense, RHS order flips with dimensionality.
        let m2 = ExplicitAssemblyParams::auto_configure(CudaGeneration::Modern, Dim::Two, 5_000);
        assert_eq!(m2.forward_factor_storage, FactorStorage::Dense);
        assert_eq!(m2.rhs_order, MemoryOrder::ColMajor);
        let m3 = ExplicitAssemblyParams::auto_configure(CudaGeneration::Modern, Dim::Three, 5_000);
        assert_eq!(m3.rhs_order, MemoryOrder::RowMajor);
    }

    #[test]
    fn parameter_space_is_exhaustive() {
        let all = ExplicitAssemblyParams::all_combinations();
        assert_eq!(all.len(), 2 * 2 * 2 * 2 * 2 * 2 * 2);
        let unique: std::collections::HashSet<_> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }
}
