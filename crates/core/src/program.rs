//! One kernel program per approach: the single place where an approach's device-op
//! sequences and persistent device allocations are written down.
//!
//! The paper's explicit assembly is one fixed kernel sequence (§IV-B: upload → densify
//! `B̃ᵀ` → TRSM → SYRK | TRSM + SpMM) steered by the Table-I parameters, and the sequel
//! (arXiv 2509.21037) swaps two kernels of it.  [`ApproachProgram`] emits that sequence
//! — and the implicit/explicit application sequences — as lists of [`PricedOp`]s from
//! structure alone: each op its price and the temporary device memory its kernel
//! holds, next to the persistent allocations of [`ApproachProgram::persistent`].  The
//! GPU operators allocate the persistent list, request each op's temporaries and
//! charge its price, and the planner folds the very same lists through
//! [`PhaseScheduler`], so an estimate equals the executed model by construction.  A
//! real CUDA backend would interpret the same programs.

use crate::params::{
    DualOperatorApproach, ExplicitAssemblyParams, FactorStorage, Path, ScatterGather,
};
use crate::schedule::PhaseScheduler;
use feti_decompose::DecomposedProblem;
use feti_gpu::sparse::sparse_trsm_workspace_from_shape;
use feti_gpu::{CudaGeneration, DeviceOp, GpuSpec, PricedOp};
use feti_sparse::{CsrMatrix, MemoryOrder};

/// The CUDA generation an approach's programs are emitted for.  CPU-only approaches
/// emit no device ops, so the value they report is never priced.
#[must_use]
pub fn generation_of(approach: DualOperatorApproach) -> CudaGeneration {
    approach.generation().unwrap_or(CudaGeneration::Legacy)
}

/// The Table-II auto-configured assembly parameters of `approach` on `problem`.
#[must_use]
pub fn auto_params(
    approach: DualOperatorApproach,
    problem: &DecomposedProblem,
) -> ExplicitAssemblyParams {
    ExplicitAssemblyParams::auto_configure(
        generation_of(approach),
        problem.spec.dim,
        problem.spec.dofs_per_subdomain(),
    )
}

/// Structural facts about one subdomain that the programs are emitted from.
#[derive(Debug, Clone, Copy)]
pub struct SubdomainShape {
    /// Degrees of freedom.
    pub n: usize,
    /// Local Lagrange multipliers.
    pub nl: usize,
    /// Stored entries of the local gluing matrix `B̃ᵢ`.
    pub nnz_b: usize,
    /// Distinct nonzero columns of `B̃ᵢ` — the boundary-DOF count that prices the
    /// sparsity-aware assembly kernels.
    pub nb: usize,
    /// Device footprint of `B̃ᵢ` in bytes.
    pub b_bytes: usize,
    /// Symbolic factor size under the approach's ordering.
    pub fnnz: usize,
}

impl SubdomainShape {
    /// The shape of a subdomain with gluing matrix `gluing` (`nl x n`) whose factor
    /// holds `fnnz` entries.
    #[must_use]
    pub fn new(gluing: &CsrMatrix, fnnz: usize) -> Self {
        Self {
            n: gluing.ncols(),
            nl: gluing.nrows(),
            nnz_b: gluing.nnz(),
            nb: gluing.num_nonzero_cols(),
            b_bytes: gluing.bytes(),
            fnnz,
        }
    }
}

/// The persistent device allocations of one subdomain, in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistentAllocations {
    /// The sparse factor (values and indices).
    pub factor: usize,
    /// The gluing matrix `B̃ᵢ`.
    pub gluing: usize,
    /// The dense `F̃ᵢ`: one triangle (the paper packs two operators per allocation).
    pub f: usize,
    /// Primal or dual work vectors.
    pub vectors: usize,
    /// The persistent workspace of the sparse-TRSM library handle.
    pub workspace: usize,
}

impl PersistentAllocations {
    /// Sum of all allocations.
    #[must_use]
    pub fn total(&self) -> usize {
        self.factor + self.gluing + self.f + self.vectors + self.workspace
    }
}

/// The device side of one phase (preprocessing or application): ops submitted once
/// for the whole cluster before and after the subdomain loop (on subdomain 0's
/// stream), and the ops each subdomain submits to its worker's stream.
#[derive(Debug, Clone, Default)]
pub struct PhaseProgram {
    /// Cluster-wide ops submitted before the subdomain loop.
    pub prologue: Vec<PricedOp>,
    /// Cluster-wide ops submitted after the subdomain loop.
    pub epilogue: Vec<PricedOp>,
    /// Every subdomain's ops back to back, in submission order.
    ops: Vec<PricedOp>,
    /// `ends[i]` is where subdomain `i`'s ops end in `ops`.
    ends: Vec<usize>,
}

impl PhaseProgram {
    fn with_subdomains(n: usize) -> Self {
        Self { ends: Vec::with_capacity(n), ..Default::default() }
    }

    /// The ops subdomain `i` submits, in submission order.
    #[must_use]
    pub fn subdomain(&self, i: usize) -> &[PricedOp] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.ops[start..self.ends[i]]
    }

    /// Folds the phase through `scheduler`, charging subdomain `i` `host_seconds(i)`
    /// of host work ahead of its submissions.  Executor and planner both schedule
    /// through this one fold.
    pub fn record(&self, scheduler: &mut PhaseScheduler, host_seconds: impl Fn(usize) -> f64) {
        scheduler.record_subdomain(0, 0.0, &self.prologue);
        for i in 0..self.ends.len() {
            scheduler.record_subdomain(i, host_seconds(i), self.subdomain(i));
        }
        scheduler.record_subdomain(0, 0.0, &self.epilogue);
    }
}

/// Emits the device programs of one approach × parameter set × decomposition shape.
#[derive(Debug, Clone)]
pub struct ApproachProgram {
    spec: GpuSpec,
    approach: DualOperatorApproach,
    generation: CudaGeneration,
    params: ExplicitAssemblyParams,
    num_lambdas: usize,
    shapes: Vec<SubdomainShape>,
}

impl ApproachProgram {
    /// A program emitter for `approach` with `params` on a device described by
    /// `spec`, over subdomains of the given `shapes` glued by `num_lambdas` global
    /// multipliers.
    #[must_use]
    pub fn new(
        spec: &GpuSpec,
        approach: DualOperatorApproach,
        params: ExplicitAssemblyParams,
        num_lambdas: usize,
        shapes: Vec<SubdomainShape>,
    ) -> Self {
        let generation = generation_of(approach);
        Self { spec: *spec, approach, generation, params, num_lambdas, shapes }
    }

    /// The CUDA generation the programs are emitted for.
    #[must_use]
    pub fn generation(&self) -> CudaGeneration {
        self.generation
    }

    /// The subdomain shapes the programs are emitted over.
    #[must_use]
    pub fn shapes(&self) -> &[SubdomainShape] {
        &self.shapes
    }

    /// The persistent allocations of a subdomain of shape `s` — the only place the
    /// persistent footprint is defined.  The library workspace is the sparse-TRSM
    /// buffer-size query over the program's 16-byte per-entry device factor; the
    /// handle is created in the preparation phase whatever the parameters, but only
    /// a forward factor that is really kept sparse reaches it with its own layout (a
    /// densified one leaves it at the row-major baseline).
    #[must_use]
    pub fn persistent(&self, s: &SubdomainShape) -> PersistentAllocations {
        use DualOperatorApproach as A;
        let sparse_forward = matches!(self.approach, A::ExplicitGpuLegacy | A::ExplicitGpuModern)
            && self.params.forward_factor_storage == FactorStorage::Sparse;
        let handle_factor_order =
            if sparse_forward { self.params.forward_factor_order } else { MemoryOrder::RowMajor };
        let resident_factor = PersistentAllocations {
            factor: s.fnnz * 16,
            gluing: s.b_bytes,
            vectors: s.n * 16,
            ..Default::default()
        };
        let f = s.nl * s.nl * 8 / 2;
        match self.approach {
            A::ImplicitCholmod | A::ExplicitCholmod => PersistentAllocations::default(),
            A::ImplicitGpuLegacy | A::ImplicitGpuModern => resident_factor,
            A::ExplicitHybrid => {
                PersistentAllocations { f, vectors: s.nl * 16, ..Default::default() }
            }
            A::ExplicitGpuLegacy
            | A::ExplicitGpuModern
            | A::ExplicitSparseGpuLegacy
            | A::ExplicitSparseGpuModern => PersistentAllocations {
                f,
                workspace: sparse_trsm_workspace_from_shape(
                    self.generation,
                    resident_factor.factor,
                    s.n,
                    handle_factor_order,
                    s.n,
                    s.nl,
                    self.params.rhs_order,
                )
                .persistent_bytes,
                ..resident_factor
            },
        }
    }

    /// Total persistent device bytes over all subdomains (zero for CPU-only
    /// approaches) — what admission control reserves before anything is built.
    #[must_use]
    pub fn persistent_bytes(&self) -> usize {
        self.shapes.iter().map(|s| self.persistent(s).total()).sum()
    }

    /// The preprocessing program: what each subdomain submits after its host
    /// factorization — the factor upload of the implicit GPU approaches, the
    /// assembly kernel sequence of §IV-B/IV-C under the full Table-I parameter set,
    /// the sequel's boundary-restricted variant, or the hybrid's upload of `F̃ᵢ`.
    #[must_use]
    pub fn preprocess(&self) -> PhaseProgram {
        let mut phase = PhaseProgram::with_subdomains(self.shapes.len());
        for s in &self.shapes {
            self.assembly(s, &mut phase.ops);
            phase.ends.push(phase.ops.len());
        }
        phase
    }

    /// The assembly ops of a subdomain of shape `s`, each carrying the temporary device
    /// memory its kernel holds: the dense right-hand side `n·nl·8` bytes, a densified
    /// factor `n·n·8`, a sparse TRSM the library's temporary workspace for the factor
    /// order of its solve (forward or backward).
    fn assembly(&self, s: &SubdomainShape, ops: &mut Vec<PricedOp>) {
        use DualOperatorApproach as A;
        let (generation, p) = (self.generation, &self.params);
        let price = |op: DeviceOp| op.priced(&self.spec);
        let holding = |temporary_bytes, op: DeviceOp| PricedOp { temporary_bytes, ..price(op) };
        let upload_factor = price(DeviceOp::Transfer { bytes: s.fnnz * 12 });
        let upload_gluing = price(DeviceOp::Transfer { bytes: s.b_bytes });
        let densify_rhs = holding(
            s.n * s.nl * 8,
            DeviceOp::SparseToDense { nnz: s.nnz_b, rows: s.n, cols: s.nl },
        );
        let densify_factor =
            holding(s.n * s.n * 8, DeviceOp::SparseToDense { nnz: s.fnnz, rows: s.n, cols: s.n });
        match self.approach {
            A::ImplicitCholmod | A::ExplicitCholmod => {}
            A::ImplicitGpuLegacy | A::ImplicitGpuModern => ops.push(upload_factor),
            A::ExplicitHybrid => {
                ops.push(price(DeviceOp::Transfer { bytes: self.persistent(s).f }));
            }
            // The sparse family pins the SYRK path over a dense factor: the boundary
            // structure lives in the right-hand side, which only the forward solve
            // can exploit — after a backward solve the panels are dense, and a
            // sparse-factor TRSM has no dense panels to restrict.
            A::ExplicitSparseGpuLegacy | A::ExplicitSparseGpuModern => {
                let (n, nrhs, boundary_rows) = (s.n, s.nl, s.nb);
                let solve = DeviceOp::SparseRhsTrsm { generation, n, nrhs, boundary_rows };
                let syrk = DeviceOp::BoundarySyrk { generation, n: s.nl, k: s.n, boundary_rows };
                ops.extend([upload_factor, upload_gluing, densify_rhs, densify_factor]);
                ops.extend([solve, syrk].map(price));
            }
            A::ExplicitGpuLegacy | A::ExplicitGpuModern => {
                ops.extend([upload_factor, upload_gluing, densify_rhs]);
                let solve = |storage, order, ops: &mut Vec<PricedOp>| match storage {
                    FactorStorage::Dense => {
                        let trsm = price(DeviceOp::DenseTrsm { n: s.n, nrhs: s.nl });
                        ops.extend([densify_factor, trsm]);
                    }
                    FactorStorage::Sparse => {
                        // The library is handed `L` in CSC or CSR: `16·nnz + 8·(n + 1)` bytes.
                        let factor_bytes = 16 * s.fnnz + 8 * (s.n + 1);
                        let workspace = sparse_trsm_workspace_from_shape(
                            generation,
                            factor_bytes,
                            s.n,
                            order,
                            s.n,
                            s.nl,
                            p.rhs_order,
                        );
                        let trsm =
                            DeviceOp::SparseTrsm { generation, nnz: s.fnnz, n: s.n, nrhs: s.nl };
                        ops.push(holding(workspace.temporary_bytes, trsm));
                    }
                };
                solve(p.forward_factor_storage, p.forward_factor_order, ops);
                match p.path {
                    Path::Syrk => ops.push(price(DeviceOp::Syrk { n: s.nl, k: s.n })),
                    Path::Trsm => {
                        solve(p.backward_factor_storage, p.backward_factor_order, ops);
                        ops.push(price(DeviceOp::Spmm { nnz: s.nnz_b, nrows: s.nl, nrhs: s.nl }));
                    }
                }
            }
        }
    }

    /// The application program for a batch of `k` dual vectors.
    ///
    /// Implicit GPU: per subdomain, copy in, SpMM, two sparse triangular solves,
    /// SpMM, copy out (SpMV and single-RHS solves for `k = 1`).  Explicit GPU and
    /// hybrid: one SYMM (SYMV for `k = 1`) per subdomain, with the dual vectors either
    /// copied per subdomain ([`ScatterGather::Cpu`]) or copied once for the cluster
    /// and scattered/gathered by device kernels ([`ScatterGather::Gpu`]).
    #[must_use]
    pub fn apply(&self, k: usize) -> PhaseProgram {
        use DualOperatorApproach as A;
        let generation = self.generation;
        let price = |op: DeviceOp| op.priced(&self.spec);
        let dense_on_device = self.approach.is_explicit() && self.approach.uses_gpu();
        let device_scatter = dense_on_device && self.params.scatter_gather == ScatterGather::Gpu;
        let mut phase = PhaseProgram::with_subdomains(self.shapes.len());
        if device_scatter {
            let copy = price(DeviceOp::Transfer { bytes: self.num_lambdas * k * 8 });
            let scatter = price(DeviceOp::ScatterGather { n: self.num_lambdas * k });
            phase.prologue = vec![copy, scatter];
            phase.epilogue = vec![scatter, copy];
        }
        for s in &self.shapes {
            let copy = DeviceOp::Transfer { bytes: s.nl * k * 8 };
            let multiply = DeviceOp::Symm { n: s.nl, nrhs: k };
            match self.approach {
                A::ImplicitCholmod | A::ExplicitCholmod => {}
                A::ImplicitGpuLegacy | A::ImplicitGpuModern => {
                    let gluing = DeviceOp::Spmm { nnz: s.nnz_b, nrows: s.nl, nrhs: k };
                    let solve = DeviceOp::SparseTrsm { generation, nnz: s.fnnz, n: s.n, nrhs: k };
                    let [copy, gluing, solve] = [copy, gluing, solve].map(price);
                    phase.ops.extend([copy, gluing, solve, solve, gluing, copy]);
                }
                _ if device_scatter => phase.ops.push(price(multiply)),
                _ => {
                    let [copy, multiply] = [copy, multiply].map(price);
                    phase.ops.extend([copy, multiply, copy]);
                }
            }
            phase.ends.push(phase.ops.len());
        }
        phase
    }
}
