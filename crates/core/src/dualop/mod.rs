//! The dual operator `F = B K⁺ Bᵀ` and its nine approaches: those of Table III, less
//! the two MKL PARDISO baselines that would compute as `impl cholmod` / `expl cholmod`,
//! plus the sparsity-aware explicit family of the sequel (arXiv 2509.21037).
//!
//! The [`DualOperator`] trait exposes a `preprocess` step (numeric factorization and,
//! for explicit approaches, assembly of the dense local operators `F̃ᵢ`) and an
//! `apply` step (`q = F p` on the global dual vector).  Both report a
//! [`TimeBreakdown`] combining measured CPU time and modelled GPU time under the
//! paper's overlapped execution schedule.
//!
//! One implementation, [`ApproachOperator`], serves all nine approaches: each
//! subdomain keeps one host factor and computes through it ([`cpu`]; a device assembly
//! books its program in [`gpu`]), and the approaches differ in what they keep — the
//! factor or the assembled `F̃ᵢ` — and in the device program that prices them
//! ([`crate::program`]); the phases around that are written once.  The subdomain
//! loops run on the real host thread pool under this determinism contract: each
//! parallel region computes purely
//! per-subdomain results which are collected in subdomain-index order, and every
//! cross-subdomain reduction (the gather into the global dual vector, the scheduler
//! recording) happens sequentially in that order after the region joins — so the
//! numerics and the modelled device times are bit-for-bit independent of the thread
//! count and of scheduling.  Each phase returns its breakdown; a caller that accounts
//! time, such as the solver's per-application seconds, sums the breakdowns it got.

pub mod cpu;
pub mod gpu;

use crate::params::{DualOperatorApproach, ExplicitAssemblyParams};
use crate::planner::Planner;
use crate::program::{auto_params, ApproachProgram, PhaseProgram, SubdomainShape};
use crate::schedule::{PhaseScheduler, TimeBreakdown};
use feti_decompose::DecomposedProblem;
use feti_gpu::{GpuSpec, MemoryLedger};
use feti_solver::{SolverOptions, SymbolicCholesky};
use feti_sparse::{blas, CsrMatrix, DenseMatrix, PackedUpper};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Runs `work(i)` for every subdomain index on the host pool, one coarse task per
/// subdomain, collecting in index order.
pub(crate) fn par_subdomains<R: Send, C: FromParallelIterator<R>>(
    n: usize,
    work: impl Fn(usize) -> R + Sync,
) -> C {
    let indices: Vec<usize> = (0..n).collect();
    indices.par_iter().with_max_len(1).map(|&i| work(i)).collect()
}

/// `x̃ᵢ = x[lambda_mapᵢ]`: the local dual vector of one subdomain.
pub(crate) fn scatter(lambda_map: &[usize], x: &[f64]) -> Vec<f64> {
    lambda_map.iter().map(|&g| x[g]).collect()
}

/// `out[lambda_mapᵢ] += x̃ᵢ` for each `(lambda_mapᵢ, x̃ᵢ)` in the order given: the one
/// cross-subdomain sum of the dual space.  Callers pass the subdomains in index order,
/// after the region that computed the `x̃ᵢ` has joined, so every entry of `out` adds
/// its terms in one order whatever the thread count.
pub(crate) fn gather<'a>(
    out: &mut [f64],
    locals: impl IntoIterator<Item = (&'a Vec<usize>, &'a Vec<f64>)>,
) {
    for (lambda_map, x_local) in locals {
        for (&g, &v) in lambda_map.iter().zip(x_local) {
            out[g] += v;
        }
    }
}

/// Runs `f`, returning its value and the wall seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The dual operator interface shared by all approaches of Table III.
pub trait DualOperator: Send {
    /// Which approach this operator implements.
    fn approach(&self) -> DualOperatorApproach;

    /// Dimension of the (global) dual space.
    fn num_lambdas(&self) -> usize;

    /// FETI preprocessing: numeric factorization of every `Kᵢ,reg` and, for explicit
    /// approaches, assembly of the local dual operators `F̃ᵢ`.
    ///
    /// # Errors
    /// Returns an error if a factorization fails or the device runs out of memory.
    fn preprocess(&mut self) -> crate::Result<TimeBreakdown>;

    /// Applies the dual operator: `q = F p` (both are global dual vectors).
    ///
    /// # Panics
    /// Panics if `preprocess` has not been called or vector lengths do not match.
    fn apply(&mut self, p: &[f64], q: &mut [f64]) -> TimeBreakdown;

    /// Applies the dual operator to a batch of right-hand sides: `Q = F P`, one global
    /// dual vector per column, bit-for-bit identical to repeated single applies.
    ///
    /// On the host every column is computed as a single apply computes it (one SYMV
    /// or one implicit local action per subdomain and column).  Only the modelled
    /// device time is batched: the device program prices one SYMM-shaped kernel per
    /// subdomain for the whole batch, never more than `k` single applies.  The
    /// breakdown covers the whole batch: a caller that accounts per application
    /// divides it by the column count.
    ///
    /// # Panics
    /// Panics if `preprocess` has not been called, the row counts do not match the dual
    /// space, or `p` and `q` have different shapes.
    fn apply_many(&mut self, p: &DenseMatrix, q: &mut DenseMatrix) -> TimeBreakdown;
}

/// Per-subdomain data an operator keeps, copied from its problem: the regularized
/// stiffness matrix, the local gluing block and the local-to-global multiplier map.
pub(crate) struct SubdomainBlock {
    /// Regularized (SPD) subdomain stiffness matrix.
    pub(crate) k_reg: CsrMatrix,
    /// Local gluing matrix `B̃ᵢ` (`local_lambdas x ndofs`).
    pub(crate) b: CsrMatrix,
    /// Local-to-global multiplier map.
    pub(crate) lambda_map: Vec<usize>,
}

/// What preprocessing leaves behind for one subdomain: what the approach applies
/// through and the host factor — the one `K⁺` every local solve goes through — it
/// was built from, kept where [`ApproachOperator::preprocess_keeping`] says.
enum LocalState {
    /// The numeric factor (every implicit approach, on the host or the device).
    HostFactor(cpu::Factor),
    /// The assembled dense `F̃ᵢ` (every explicit approach), held as the packed upper
    /// triangle its SYMV reads.
    Dense(PackedUpper, Option<cpu::Factor>),
}

impl LocalState {
    fn factor(&self) -> Option<&cpu::Factor> {
        match self {
            LocalState::HostFactor(factor) => Some(factor),
            LocalState::Dense(_, kept) => kept.as_ref(),
        }
    }
}

/// The dual operator of any of the nine approaches.
pub struct ApproachOperator {
    /// The approach, its parameters and the dual-space size, and the emitter of every
    /// device op and persistent byte (a CPU-only approach's program emits none).
    program: ApproachProgram,
    blocks: Vec<SubdomainBlock>,
    opts: SolverOptions,
    /// One analysis per subdomain, one object per distinct `k_reg` pattern.
    symbolic: Vec<Arc<SymbolicCholesky>>,
    /// Empty until the first `preprocess`.
    state: Vec<LocalState>,
    /// The device's temporary pool, every byte the program's persistent allocations
    /// leave; `None` for CPU-only approaches.
    pub(crate) pool: Option<Arc<MemoryLedger>>,
    /// The preprocessing program, emitted once, and the application program with the
    /// batch width it was emitted for, emitted again only when the width changes.
    preprocess_program: PhaseProgram,
    apply_program: (usize, PhaseProgram),
}

impl ApproachOperator {
    /// Preparation over analyses a [`Plan`](crate::planner::Plan) made under the
    /// approach's own [ordering](DualOperatorApproach::ordering), one per subdomain (one
    /// object per distinct `k_reg` pattern), on the device described by `spec` — the
    /// one the plan priced: nothing is analysed here.  A GPU approach allocates the
    /// persistent structures its program lists (factors, `B̃ᵢ`, `F̃ᵢ`, dual vectors,
    /// persistent library workspaces) and the temporary pool.  Of `opts` the
    /// factorization reads the kernel and the pivot tolerance, never the ordering.
    /// `params` configures the explicit GPU assembly and the placement of
    /// scatter/gather; the other approaches ignore it.
    ///
    /// # Errors
    /// Returns an error if `symbolic` is not one analysis of the right size per
    /// subdomain, or if the device cannot hold the persistent structures.
    pub(crate) fn with_analyses(
        approach: DualOperatorApproach,
        problem: &DecomposedProblem,
        params: ExplicitAssemblyParams,
        opts: SolverOptions,
        symbolic: Vec<Arc<SymbolicCholesky>>,
        spec: &GpuSpec,
    ) -> crate::Result<Self> {
        let subdomains = &problem.subdomains;
        let fit = symbolic.len() == subdomains.len()
            && symbolic.iter().zip(subdomains).all(|(s, sd)| s.dim() == sd.num_dofs());
        if !fit {
            return Err(crate::FetiError::Factorization(
                "the symbolic analyses were made for another problem".into(),
            ));
        }
        let shapes = subdomains
            .iter()
            .zip(&symbolic)
            .map(|(sd, symbolic)| SubdomainShape::new(&sd.gluing, symbolic.factor_nnz()))
            .collect();
        let program = ApproachProgram::new(spec, approach, params, problem.num_lambdas, shapes);
        let (preprocess_program, apply_program) = (program.preprocess(), (1, program.apply(1)));
        let pool = approach
            .uses_gpu()
            .then(|| MemoryLedger::temporary_pool(spec, program.persistent_bytes()))
            .transpose()?;
        let blocks = subdomains
            .iter()
            .map(|sd| SubdomainBlock {
                k_reg: sd.k_reg.clone(),
                b: sd.gluing.clone(),
                lambda_map: sd.lambda_map.clone(),
            })
            .collect();
        Ok(Self {
            program,
            blocks,
            opts,
            symbolic,
            state: Vec::new(),
            pool,
            preprocess_program,
            apply_program,
        })
    }

    /// The explicit-assembly parameters in use.
    #[must_use]
    pub fn params(&self) -> &ExplicitAssemblyParams {
        &self.program.params
    }

    /// The assembled dense local dual operator `F̃ᵢ` of subdomain `i`, spelt out from
    /// the held triangle into a row-major copy with both triangles; `None` before
    /// `preprocess` has run and for implicit approaches.  Exposed so the conformance
    /// tier can compare the sparse-RHS and dense assembly paths entry by entry.
    #[must_use]
    pub fn local_operator(&self, i: usize) -> Option<DenseMatrix> {
        match self.state.get(i) {
            Some(LocalState::Dense(f, _)) => Some(f.to_dense()),
            _ => None,
        }
    }

    /// Preprocesses subdomain `i`, returning its new state and the seconds of real
    /// host work (factorization, host assembly) it measured.  A device assembly's
    /// host computation only stands in for the device kernels its program prices, so
    /// it is not host work.
    fn preprocess_subdomain(&self, i: usize, keep: bool) -> crate::Result<(LocalState, f64)> {
        let block = &self.blocks[i];
        let (factor, factorize_seconds) =
            timed(|| cpu::Factor::new(&self.symbolic[i], self.opts, &block.k_reg));
        let factor =
            factor.map_err(|e| crate::FetiError::Factorization(format!("subdomain {i}: {e}")))?;
        let approach = self.program.approach;
        if !approach.is_explicit() {
            return Ok((LocalState::HostFactor(factor), factorize_seconds));
        }
        let _span = feti_trace::span(|| format!("assemble[sd={i}]"));
        let (f, host_seconds) = match &self.pool {
            // The device assembly books its kernels' temporary device memory (§IV-B/IV-C,
            // or the sequel's boundary-restricted variant) from the shared FIFO pool in
            // one request per subdomain, held until `F̃ᵢ` exists: workers race their
            // subdomains against the pool as §IV-A describes — a request that does not
            // fit waits its turn until other workers release theirs, one larger than the
            // pool is an error — and no worker ever waits while it holds pool memory.
            // Under the reservation the host computes `F̃ᵢ` through the body of
            // `expl cholmod`, whatever kernels the program names: a real device would
            // round them its own way, and host twins would only reproduce rounding no
            // GPU matches bit for bit.  The ops' prices are charged by the scheduler.
            Some(pool) if approach.assembles_on_device() => {
                let ops = self.preprocess_program.subdomain(i);
                let _temporaries = pool.reserve(ops.iter().map(|op| op.temporary_bytes).sum())?;
                (factor.assemble(i, block), 0.0)
            }
            _ => timed(|| factor.assemble(i, block)),
        };
        Ok((LocalState::Dense(f, keep.then_some(factor)), factorize_seconds + host_seconds))
    }

    /// The phase behind [`DualOperator::preprocess`].  With `keep_factors` every
    /// approach keeps its host factors for [`Self::solve_local`] — the Total FETI
    /// solver asks for that, and factorizes nothing itself; without, only the
    /// approaches that apply through the host factor do, so an operator used on its
    /// own holds no more than its application needs.
    pub(crate) fn preprocess_keeping(
        &mut self,
        keep_factors: bool,
    ) -> crate::Result<TimeBreakdown> {
        let _span = feti_trace::span(|| "preprocess");
        let (results, wall) = timed(|| {
            par_subdomains::<_, crate::Result<Vec<_>>>(self.blocks.len(), |i| {
                let _span = feti_trace::span(|| format!("factorize[sd={i}]"));
                self.preprocess_subdomain(i, keep_factors)
            })
        });
        let (state, seconds): (Vec<_>, Vec<f64>) = results?.into_iter().unzip();
        let mut scheduler = PhaseScheduler::for_host();
        self.preprocess_program.record(&mut scheduler, |i| seconds[i]);
        // Device assembly: the host wall is the makespan of the measured host
        // segments scheduled over the workers, not the measured region wall — the
        // region also computes on the host what the device kernels produce, which
        // is simulation, not host work.
        let breakdown = if self.program.approach.assembles_on_device() {
            scheduler.finish()
        } else {
            scheduler.finish_measured(wall)
        };
        self.state = state;
        Ok(breakdown)
    }

    /// `K⁺ rhs` through the kept factor of subdomain `i` — the very `K⁺` the operator
    /// applies or was assembled from.  Panics on an operator not preprocessed so.
    pub(crate) fn solve_local(&self, i: usize, rhs: &[f64]) -> Vec<f64> {
        let factor = self.state.get(i).and_then(LocalState::factor);
        factor.expect("preprocess must be called first, keeping the factors").solve(rhs)
    }

    /// The local action `q̃ = F̃ᵢ p̃` of subdomain `i` (`q_local` arrives zeroed).  Every
    /// explicit approach, on the host or the device, multiplies by the packed upper
    /// triangle of `F̃ᵢ` through SYMV, one column at a time: the exact product the
    /// device's SYMM-shaped kernel computes for a batch, whose modelled time alone is
    /// batched.
    fn apply_local(&self, i: usize, p_local: &[f64], q_local: &mut [f64]) {
        match &self.state[i] {
            LocalState::HostFactor(factor) => factor.apply(&self.blocks[i], p_local, q_local),
            LocalState::Dense(f, _) => blas::symv_packed(1.0, f, p_local, 0.0, q_local),
        }
    }

    /// One application phase, `q[j] += F p[j]` for every column `j` (the `q[j]` arrive
    /// zeroed).  Per subdomain (parallel region) and per column, the local dual vector
    /// is scattered from `p[j]` and the local action computed; after the region joins
    /// the local results are gathered into `q[j]` in subdomain-index order — so a batch
    /// is bit-for-bit its columns' single applications.
    ///
    /// Timing: CPU approaches report their measured region; device-applied ones only
    /// *submit* from the host (the numerics above merely simulate the device), so
    /// their host share is zero and the time is the modelled schedule of the
    /// application program — one batched program for the batch's width, never one
    /// program per column, emitted again only when the width changes.
    pub(crate) fn apply_columns(
        &mut self,
        p: &[impl AsRef<[f64]> + Sync],
        q: &mut [impl AsMut<[f64]>],
    ) -> TimeBreakdown {
        assert_eq!(self.state.len(), self.blocks.len(), "preprocess must be called before apply");
        let nl = self.program.num_lambdas;
        assert_eq!(p.len(), q.len(), "input and output batches must have equal width");
        for (p, q) in p.iter().zip(q.iter_mut()) {
            assert_eq!(p.as_ref().len(), nl, "input length must match dual space");
            assert_eq!(q.as_mut().len(), nl, "output length must match dual space");
        }
        let _span = feti_trace::span(|| "apply");
        let (locals, wall) = timed(|| {
            par_subdomains::<_, Vec<(Vec<Vec<f64>>, f64)>>(self.blocks.len(), |i| {
                let lambda_map = &self.blocks[i].lambda_map;
                timed(|| {
                    p.iter()
                        .map(|p| {
                            let p_local = scatter(lambda_map, p.as_ref());
                            let mut q_local = vec![0.0; p_local.len()];
                            self.apply_local(i, &p_local, &mut q_local);
                            q_local
                        })
                        .collect()
                })
            })
        });
        for (j, q) in q.iter_mut().enumerate() {
            let maps = self.blocks.iter().map(|block| &block.lambda_map);
            gather(q.as_mut(), maps.zip(locals.iter().map(|(columns, _)| &columns[j])));
        }
        let k = p.len();
        if self.apply_program.0 != k {
            self.apply_program = (k, self.program.apply(k));
        }
        let on_device = self.program.approach.uses_gpu();
        let mut scheduler = PhaseScheduler::for_host();
        self.apply_program.1.record(&mut scheduler, |i| if on_device { 0.0 } else { locals[i].1 });
        let breakdown = scheduler.finish_measured(if on_device { 0.0 } else { wall });
        if feti_trace::enabled() {
            // Per-column application seconds, one histogram per approach.
            feti_trace::histogram_record(
                &format!("apply_seconds.{}", self.program.approach.label()),
                breakdown.total_seconds / k.max(1) as f64,
            );
        }
        breakdown
    }
}

impl DualOperator for ApproachOperator {
    fn approach(&self) -> DualOperatorApproach {
        self.program.approach
    }

    fn num_lambdas(&self) -> usize {
        self.program.num_lambdas
    }

    fn preprocess(&mut self) -> crate::Result<TimeBreakdown> {
        self.preprocess_keeping(false)
    }

    fn apply(&mut self, p: &[f64], q: &mut [f64]) -> TimeBreakdown {
        q.fill(0.0);
        self.apply_columns(&[p], &mut [q])
    }

    fn apply_many(&mut self, p: &DenseMatrix, q: &mut DenseMatrix) -> TimeBreakdown {
        let nl = self.program.num_lambdas;
        assert_eq!(q.nrows(), nl, "batch row count must match dual space");
        assert_eq!(p.ncols(), q.ncols(), "input and output batches must have equal width");
        let columns: Vec<Vec<f64>> = (0..p.ncols()).map(|j| p.col(j)).collect();
        let mut out = vec![vec![0.0; nl]; columns.len()];
        let breakdown = self.apply_columns(&columns, &mut out);
        for (j, column) in out.iter().enumerate() {
            for (g, &v) in column.iter().enumerate() {
                q.set(g, j, v);
            }
        }
        breakdown
    }
}

/// The operator a pinned door builds: a [pinned plan](Planner::plan_pinned) of
/// `approach` on an A100-like device ([`GpuSpec::a100_40gb`]) — one analysis per
/// distinct `k_reg` pattern under the approach's ordering, nothing priced, no trace
/// record — built with `params` (`None`: the Table-II auto-configuration).
pub(crate) fn pinned_operator(
    approach: DualOperatorApproach,
    problem: &DecomposedProblem,
    params: Option<ExplicitAssemblyParams>,
    opts: SolverOptions,
) -> crate::Result<ApproachOperator> {
    let plan = Planner::new(problem, GpuSpec::a100_40gb()).plan_pinned(approach);
    let params = params.unwrap_or_else(|| auto_params(approach, problem));
    plan.build(problem, approach, params, opts)
}

/// Builds the dual operator implementing `approach` for a decomposed problem, on an
/// A100-like device: a plan for the one approach, then its build
/// ([`Plan::build`](crate::planner::Plan::build) builds on any device).
///
/// `params` configures the explicit GPU assembly; when `None`, the Table-II
/// auto-configuration for the problem's dimensionality and subdomain size is used.
/// CPU-only approaches ignore `params`.
///
/// # Errors
/// Returns an error if the simulated device cannot hold the persistent structures.
pub fn build_dual_operator(
    approach: DualOperatorApproach,
    problem: &DecomposedProblem,
    params: Option<ExplicitAssemblyParams>,
) -> crate::Result<Box<dyn DualOperator>> {
    build_dual_operator_with_options(approach, problem, params, SolverOptions::default())
}

/// Like [`build_dual_operator`] with explicit solver options: the numeric
/// factorization kind ([`feti_solver::FactorizationKind`]) — both kinds yield
/// bit-identical operators, only wall time differs — and the pivot tolerance.
/// [`SolverOptions::ordering`] is not read: the approach orders its own factors
/// ([`DualOperatorApproach::ordering`]).
///
/// # Errors
/// Returns an error if the simulated device cannot hold the persistent structures.
pub fn build_dual_operator_with_options(
    approach: DualOperatorApproach,
    problem: &DecomposedProblem,
    params: Option<ExplicitAssemblyParams>,
    solver_options: SolverOptions,
) -> crate::Result<Box<dyn DualOperator>> {
    Ok(Box::new(pinned_operator(approach, problem, params, solver_options)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_decompose::DecompositionSpec;

    #[test]
    fn blocks_extracted_from_problem() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let approach = DualOperatorApproach::ImplicitCholmod;
        let op = pinned_operator(approach, &problem, None, SolverOptions::default()).unwrap();
        assert_eq!(op.blocks.len(), 4);
        for b in &op.blocks {
            assert_eq!(b.b.ncols(), b.k_reg.nrows());
            assert_eq!(b.b.nrows(), b.lambda_map.len());
        }
    }

    #[test]
    fn factory_builds_every_approach() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        for approach in DualOperatorApproach::all() {
            let op = build_dual_operator(approach, &problem, None).unwrap();
            assert_eq!(op.approach(), approach);
            assert_eq!(op.num_lambdas(), problem.num_lambdas);
        }
    }

    #[test]
    fn kept_factors_solve_bitwise_like_a_stand_alone_factorization() {
        // `solve_local` is the solve of the one factor preprocessing made: for all
        // nine approaches and both numeric kernels it equals, to the bit, a
        // stand-alone factorization under the approach's ordering.  Preprocessed on its
        // own, an operator keeps the factor only where it applies through it.
        use feti_mesh::{Dim, ElementOrder, Physics};
        use feti_solver::{CholeskyFactor, FactorizationKind};
        let spec = |dim, physics, order, elements_per_subdomain_side| DecompositionSpec {
            dim,
            physics,
            order,
            subdomains_per_side: 2,
            elements_per_subdomain_side,
            subdomains_per_cluster: if dim == Dim::Two { 4 } else { 8 },
        };
        for spec in [
            DecompositionSpec::small_heat_2d(),
            spec(Dim::Three, Physics::HeatTransfer, ElementOrder::Quadratic, 2),
            spec(Dim::Two, Physics::LinearElasticity, ElementOrder::Linear, 3),
        ] {
            let problem = DecomposedProblem::build(&spec);
            let loads = problem.subdomains.iter().map(|sd| &sd.assembled.load);
            for approach in DualOperatorApproach::all() {
                let ordering = approach.ordering();
                let expected: Vec<Vec<f64>> = problem
                    .subdomains
                    .iter()
                    .map(|sd| {
                        let opts = SolverOptions { ordering, ..SolverOptions::default() };
                        let factor = CholeskyFactor::new(&sd.k_reg, &opts);
                        factor.unwrap().solve(&sd.assembled.load)
                    })
                    .collect();
                for factorization in [FactorizationKind::Simplicial, FactorizationKind::Supernodal]
                {
                    let opts = SolverOptions { factorization, ..SolverOptions::default() };
                    let mut op = pinned_operator(approach, &problem, None, opts).unwrap();
                    op.preprocess_keeping(true).unwrap();
                    for (i, (load, want)) in loads.clone().zip(&expected).enumerate() {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let got = op.solve_local(i, load);
                        assert_eq!(bits(&got), bits(want), "{spec:?} {approach:?} {opts:?} {i}");
                    }
                    op.preprocess().unwrap();
                    let applies_through_it = !approach.is_explicit();
                    assert!(op.state.iter().all(|s| s.factor().is_some() == applies_through_it));
                }
            }
        }
    }

    #[test]
    fn every_explicit_approach_holds_one_packed_triangle_per_subdomain() {
        // The resident `F̃ᵢ` is the `nlᵢ(nlᵢ + 1)/2` values of its upper triangle, the
        // ones its SYMV reads, and `local_operator` spells out their exact mirror: a
        // second triangle may not creep back into what preprocessing keeps.
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        for approach in DualOperatorApproach::all().into_iter().filter(|a| a.is_explicit()) {
            let opts = SolverOptions::default();
            let mut op = pinned_operator(approach, &problem, None, opts).unwrap();
            op.preprocess().unwrap();
            assert_eq!(op.state.len(), problem.subdomains.len());
            for (i, sd) in problem.subdomains.iter().enumerate() {
                let nl = sd.lambda_map.len();
                let LocalState::Dense(f, _) = &op.state[i] else {
                    panic!("{approach:?} subdomain {i}: no assembled F̃ᵢ");
                };
                assert_eq!(f.len(), nl * (nl + 1) / 2, "{approach:?} subdomain {i}");
                let dense = op.local_operator(i).unwrap();
                assert_eq!((dense.nrows(), dense.ncols()), (nl, nl));
                for r in 0..nl {
                    for (k, v) in f.line(r).iter().enumerate() {
                        let (upper, lower) = (dense.get(r, r + k), dense.get(r + k, r));
                        assert_eq!(upper.to_bits(), v.to_bits(), "{approach:?} F̃_{i}[{r}]");
                        assert_eq!(lower.to_bits(), v.to_bits(), "{approach:?} F̃_{i}[{r}]");
                    }
                }
            }
        }
    }

    #[test]
    fn each_approach_factorizes_over_analyses_under_its_own_ordering() {
        // Every implicit approach's analyses carry the approximate-minimum-degree
        // permutation and every explicit one's the nested-dissection one — whether a
        // pinned door built the operator or a plan of every approach did — each that of
        // a stand-alone analysis under that ordering.
        use feti_solver::OrderingKind;
        let problem = DecomposedProblem::build(&DecompositionSpec {
            elements_per_subdomain_side: 6,
            ..DecompositionSpec::small_heat_2d()
        });
        let permutations = |ordering| -> Vec<Vec<usize>> {
            let opts = SolverOptions { ordering, ..SolverOptions::default() };
            let analyses =
                problem.subdomains.iter().map(|sd| SymbolicCholesky::analyze(&sd.k_reg, &opts));
            analyses.map(|s| s.permutation().new_to_old().to_vec()).collect()
        };
        let amd = permutations(OrderingKind::MinimumDegree);
        let nd = permutations(OrderingKind::NestedDissection);
        assert_ne!(amd, nd, "the two orderings must be told apart on this problem");
        let carried = |op: &ApproachOperator| -> Vec<Vec<usize>> {
            op.symbolic.iter().map(|s| s.permutation().new_to_old().to_vec()).collect()
        };
        let plan = Planner::new(&problem, GpuSpec::a100_40gb()).plan_auto(100);
        for approach in DualOperatorApproach::all() {
            let expected = if approach.is_explicit() { &nd } else { &amd };
            let opts = SolverOptions::default();
            let built = pinned_operator(approach, &problem, None, opts).unwrap();
            assert_eq!(&carried(&built), expected, "{approach:?} built");
            let params = auto_params(approach, &problem);
            let planned = plan.build(&problem, approach, params, opts).unwrap();
            assert_eq!(planned.approach(), approach);
            assert_eq!(&carried(&planned), expected, "{approach:?} planned");
        }
    }

    #[test]
    fn a_matrix_off_the_shared_pattern_is_a_typed_error_and_the_operator_survives_it() {
        // With one analysis serving several subdomains, a `k_reg` of the right size and
        // another pattern must fail its own factorization by name — under either
        // numeric kernel — and leave the operator fit for the next preprocessing,
        // whose bits are those of an operator that never saw it.
        use feti_solver::FactorizationKind;
        use feti_sparse::CooMatrix;
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let with_an_extra_pair = |k: &CsrMatrix| {
            let far = k.nrows() - 1;
            assert!(!k.row_cols(0).contains(&far), "the pair must be new to the pattern");
            let mut coo = CooMatrix::new(k.nrows(), k.ncols());
            k.iter().for_each(|(i, j, v)| coo.push(i, j, v));
            coo.push(0, far, -1e-3);
            coo.push(far, 0, -1e-3);
            coo.to_csr()
        };
        let p: Vec<f64> = (0..problem.num_lambdas).map(|i| (i as f64 * 0.41).cos()).collect();
        let applied = |op: &mut ApproachOperator| {
            let mut q = vec![0.0; p.len()];
            op.apply(&p, &mut q);
            q.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        for approach in DualOperatorApproach::all() {
            for factorization in [FactorizationKind::Simplicial, FactorizationKind::Supernodal] {
                let opts = SolverOptions { factorization, ..SolverOptions::default() };
                let build = || pinned_operator(approach, &problem, None, opts);
                let mut op = build().unwrap();
                let analysed = op.blocks[1].k_reg.clone();
                op.blocks[1].k_reg = with_an_extra_pair(&analysed);
                match op.preprocess() {
                    Err(crate::FetiError::Factorization(message)) => assert!(
                        message.starts_with("subdomain 1: pattern mismatch"),
                        "{approach:?} {factorization:?}: {message}"
                    ),
                    other => panic!("{approach:?} {factorization:?}: {other:?}"),
                }
                op.blocks[1].k_reg = analysed;
                op.preprocess().unwrap();
                let mut fresh = build().unwrap();
                fresh.preprocess().unwrap();
                assert_eq!(applied(&mut op), applied(&mut fresh), "{approach:?} {factorization:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match dual space")]
    fn every_approach_rejects_vectors_longer_than_the_dual_space() {
        // The trait promises a panic on mismatched lengths; the check lives in the
        // shared scaffolding, so over-long (not just unequal) vectors are refused by
        // all nine approaches alike.  Each approach's panic is caught and checked;
        // the last one is resumed so the test as a whole panics as declared.
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let long = problem.num_lambdas + 1;
        let mut last = None;
        for approach in DualOperatorApproach::all() {
            let mut op = build_dual_operator(approach, &problem, None).unwrap();
            op.preprocess().unwrap();
            let (p, mut q) = (vec![0.0; long], vec![0.0; long]);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                op.apply(&p, &mut q);
            }));
            let payload = outcome.expect_err("over-long vectors accepted");
            let message = payload.downcast_ref::<String>().expect("assert message");
            assert!(message.contains("must match dual space"), "{approach:?}: {message}");
            last = Some(payload);
        }
        std::panic::resume_unwind(last.expect("nine approaches ran"));
    }
}
