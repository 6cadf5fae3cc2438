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
//! recording, the statistics) happens sequentially in that order after the region
//! joins — so the numerics and the modelled device times are bit-for-bit independent
//! of the thread count and of scheduling.

pub mod cpu;
pub mod gpu;

use crate::params::{DualOperatorApproach, ExplicitAssemblyParams};
use crate::program::{auto_params, ApproachProgram, PhaseProgram, SubdomainShape};
use crate::schedule::{PhaseScheduler, TimeBreakdown};
use feti_decompose::DecomposedProblem;
use feti_gpu::{GpuDevice, GpuSpec};
use feti_solver::{SolverOptions, SymbolicCholesky};
use feti_sparse::{CsrMatrix, DenseMatrix};
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Accumulated statistics of a dual operator over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DualOperatorStats {
    /// Time spent in the **first** `preprocess` call (the cold preprocessing the
    /// planner prices).
    pub preprocessing: TimeBreakdown,
    /// Accumulated time of every preprocessing call after the first (numeric
    /// re-factorizations in multi-step runs).  Kept separate so the warm path
    /// (`ensure_preprocessed`, cached service solvers) cannot silently overwrite
    /// the cold cost.
    pub repreprocessing: TimeBreakdown,
    /// Number of `preprocess` calls recorded (cold + re-preprocessing).
    pub preprocess_count: usize,
    /// Sum of all `apply` calls since construction.
    pub total_apply: TimeBreakdown,
    /// Number of `apply` calls.
    pub apply_count: usize,
}

/// Thread-safe statistics accumulator shared by every operator implementation.
///
/// The subdomain loops now really run on several host threads, so the counters are
/// recorded through `&self` with atomics (counts) and mutexes (time breakdowns)
/// instead of `&mut` fields threaded through the parallel loop: concurrent recordings
/// from any number of workers merge exactly, never losing an increment.
#[derive(Debug, Default)]
pub struct SharedStats {
    preprocessing: Mutex<TimeBreakdown>,
    repreprocessing: Mutex<TimeBreakdown>,
    preprocess_count: AtomicUsize,
    total_apply: Mutex<TimeBreakdown>,
    apply_count: AtomicUsize,
}

impl SharedStats {
    /// Poison-tolerant lock: the guarded values are plain `Copy` bookkeeping, so a
    /// panicked recorder cannot leave them in a torn state.
    fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records one preprocessing phase: the first call sets the cold
    /// [`DualOperatorStats::preprocessing`] breakdown, every later call (numeric
    /// re-factorization of a warm operator) accumulates into
    /// [`DualOperatorStats::repreprocessing`] instead of overwriting the cold cost.
    pub fn record_preprocessing(&self, t: TimeBreakdown) {
        if self.preprocess_count.fetch_add(1, Ordering::Relaxed) == 0 {
            *Self::locked(&self.preprocessing) = t;
        } else {
            let mut re = Self::locked(&self.repreprocessing);
            *re = re.then(t);
        }
    }

    /// Accumulates one application phase covering `columns` right-hand sides.
    pub fn record_apply(&self, t: TimeBreakdown, columns: usize) {
        let mut total = Self::locked(&self.total_apply);
        *total = total.then(t);
        drop(total);
        self.apply_count.fetch_add(columns, Ordering::Relaxed);
    }

    /// A consistent copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> DualOperatorStats {
        DualOperatorStats {
            preprocessing: *Self::locked(&self.preprocessing),
            repreprocessing: *Self::locked(&self.repreprocessing),
            preprocess_count: self.preprocess_count.load(Ordering::Relaxed),
            total_apply: *Self::locked(&self.total_apply),
            apply_count: self.apply_count.load(Ordering::Relaxed),
        }
    }
}

/// Runs `work(i)` for every subdomain index on the host pool, one coarse task per
/// subdomain, collecting in index order.
pub(crate) fn par_subdomains<R: Send, C: FromParallelIterator<R>>(
    n: usize,
    work: impl Fn(usize) -> R + Sync,
) -> C {
    let indices: Vec<usize> = (0..n).collect();
    indices.par_iter().with_max_len(1).map(|&i| work(i)).collect()
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
    /// The batch amortizes memory traffic: the explicit approaches stream their dense
    /// `F̃ᵢ` once per batch instead of once per column (a GEMM/SYMM-shaped kernel
    /// instead of repeated GEMV/SYMV), and the modelled device time for `k` columns
    /// never exceeds `k` single applies.
    ///
    /// Statistics accounting: every column counts as one apply in
    /// [`DualOperatorStats::apply_count`], so amortization bookkeeping stays comparable
    /// between batched and unbatched runs.
    ///
    /// # Panics
    /// Panics if `preprocess` has not been called, the row counts do not match the dual
    /// space, or `p` and `q` have different shapes.
    fn apply_many(&mut self, p: &DenseMatrix, q: &mut DenseMatrix) -> TimeBreakdown;

    /// Statistics accumulated so far.
    fn stats(&self) -> DualOperatorStats;
}

/// Per-subdomain data shared by every implementation: the regularized stiffness
/// matrix, the local gluing block and the local-to-global multiplier map.
#[derive(Debug, Clone)]
pub struct SubdomainBlock {
    /// Regularized (SPD) subdomain stiffness matrix.
    pub k_reg: CsrMatrix,
    /// Local gluing matrix `B̃ᵢ` (`local_lambdas x ndofs`).
    pub b: CsrMatrix,
    /// Local-to-global multiplier map.
    pub lambda_map: Vec<usize>,
}

impl SubdomainBlock {
    /// Extracts the blocks needed by the dual operators from a decomposed problem.
    #[must_use]
    pub fn from_problem(problem: &DecomposedProblem) -> Vec<SubdomainBlock> {
        problem
            .subdomains
            .iter()
            .map(|sd| SubdomainBlock {
                k_reg: sd.k_reg.clone(),
                b: sd.gluing.clone(),
                lambda_map: sd.lambda_map.clone(),
            })
            .collect()
    }

    /// Number of DOFs of this subdomain.
    #[must_use]
    pub fn num_dofs(&self) -> usize {
        self.k_reg.nrows()
    }

    /// Number of Lagrange multipliers connected to this subdomain.
    #[must_use]
    pub fn num_local_lambdas(&self) -> usize {
        self.lambda_map.len()
    }

    /// Scatters the global dual vector into this subdomain's local dual vector.
    #[must_use]
    pub fn scatter(&self, global: &[f64]) -> Vec<f64> {
        self.lambda_map.iter().map(|&g| global[g]).collect()
    }

    /// Gathers (adds) this subdomain's local dual vector into the global dual vector.
    pub fn gather(&self, local: &[f64], global: &mut [f64]) {
        for (l, &g) in self.lambda_map.iter().enumerate() {
            global[g] += local[l];
        }
    }
}

/// The device half of a GPU approach: the simulated device it allocates from and the
/// emitter of the programs it submits.
pub(crate) struct DeviceSide {
    pub(crate) device: GpuDevice,
    pub(crate) program: ApproachProgram,
}

/// What preprocessing leaves behind for one subdomain: what the approach applies
/// through and the host factor — the one `K⁺` every local solve goes through — it
/// was built from, kept where [`ApproachOperator::preprocess_keeping`] says.
enum LocalState {
    /// The numeric factor (every implicit approach, on the host or the device).
    HostFactor(cpu::Factor),
    /// The assembled dense `F̃ᵢ` (every explicit approach).
    Dense(DenseMatrix, Option<cpu::Factor>),
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
    approach: DualOperatorApproach,
    params: ExplicitAssemblyParams,
    blocks: Vec<SubdomainBlock>,
    num_lambdas: usize,
    opts: SolverOptions,
    /// One analysis per subdomain, one object per distinct `k_reg` pattern.
    symbolic: Vec<Arc<SymbolicCholesky>>,
    /// Empty until the first `preprocess`.
    state: Vec<LocalState>,
    /// `None` for CPU-only approaches.
    device: Option<DeviceSide>,
    /// The device programs of the two phases, emitted once (the application one for
    /// a single column); for CPU-only approaches they hold no ops.
    preprocess_program: PhaseProgram,
    apply_program: PhaseProgram,
    stats: SharedStats,
}

impl ApproachOperator {
    /// Preparation: one symbolic analysis per distinct `k_reg` sparsity pattern under
    /// the approach's own [ordering](DualOperatorApproach::ordering), shared by the
    /// subdomains that have it, and, for GPU approaches, the persistent allocations
    /// its program lists (factors, `B̃ᵢ`, `F̃ᵢ`, dual vectors, persistent library
    /// workspaces) and the temporary pool, on an A100-like device
    /// ([`GpuSpec::a100_40gb`]).  Of `opts` the factorization reads
    /// the kernel and the pivot tolerance, never the ordering.  `params` configures the
    /// explicit GPU assembly and the placement of scatter/gather; the other approaches
    /// ignore it.
    ///
    /// # Errors
    /// Returns an error if the device cannot hold the persistent structures.
    pub fn new(
        approach: DualOperatorApproach,
        blocks: Vec<SubdomainBlock>,
        num_lambdas: usize,
        params: ExplicitAssemblyParams,
        opts: SolverOptions,
    ) -> crate::Result<Self> {
        let k_regs = blocks.iter().map(|block| &block.k_reg);
        let symbolic = cpu::analyze_by_pattern(k_regs, approach.ordering());
        let spec = GpuSpec::a100_40gb();
        Self::with_analyses(approach, blocks, num_lambdas, params, opts, symbolic, &spec)
    }

    /// [`Self::new`] over analyses made before under the approach's ordering, on a
    /// device described by `spec` (a [`Plan`](crate::planner::Plan) keeps the analyses
    /// and the device it priced): nothing is analysed here.
    ///
    /// # Errors
    /// Returns an error if `symbolic` is not one analysis of the right size per block,
    /// or if the device cannot hold the persistent structures.
    pub(crate) fn with_analyses(
        approach: DualOperatorApproach,
        blocks: Vec<SubdomainBlock>,
        num_lambdas: usize,
        params: ExplicitAssemblyParams,
        opts: SolverOptions,
        symbolic: Vec<Arc<SymbolicCholesky>>,
        spec: &GpuSpec,
    ) -> crate::Result<Self> {
        let fit = symbolic.len() == blocks.len()
            && symbolic.iter().zip(&blocks).all(|(s, block)| s.dim() == block.num_dofs());
        if !fit {
            return Err(crate::FetiError::Factorization(
                "the symbolic analyses were made for another problem".into(),
            ));
        }
        let shapes = blocks
            .iter()
            .zip(&symbolic)
            .map(|(block, symbolic)| SubdomainShape::new(&block.b, symbolic.factor_nnz()))
            .collect();
        let program = ApproachProgram::new(spec, approach, params, num_lambdas, shapes);
        let (preprocess_program, apply_program) = (program.preprocess(), program.apply(1));
        let device = if approach.uses_gpu() {
            let device = GpuDevice::new(*spec);
            for s in program.shapes() {
                device.alloc_persistent(program.persistent(s).total())?;
            }
            device.reserve_temporary_pool();
            Some(DeviceSide { device, program })
        } else {
            None
        };
        Ok(Self {
            approach,
            params,
            blocks,
            num_lambdas,
            opts,
            symbolic,
            state: Vec::new(),
            device,
            preprocess_program,
            apply_program,
            stats: SharedStats::default(),
        })
    }

    /// The operator of `approach` for a decomposed problem; `params: None` selects the
    /// Table-II auto-configuration.
    pub(crate) fn for_problem(
        approach: DualOperatorApproach,
        problem: &DecomposedProblem,
        params: Option<ExplicitAssemblyParams>,
        opts: SolverOptions,
    ) -> crate::Result<Self> {
        let blocks = SubdomainBlock::from_problem(problem);
        let params = params.unwrap_or_else(|| auto_params(approach, problem));
        Self::new(approach, blocks, problem.num_lambdas, params, opts)
    }

    /// The explicit-assembly parameters in use.
    #[must_use]
    pub fn params(&self) -> &ExplicitAssemblyParams {
        &self.params
    }

    /// The assembled dense local dual operator `F̃ᵢ` of subdomain `i`; `None` before
    /// `preprocess` has run and for implicit approaches.  Exposed so the conformance
    /// tier can compare the sparse-RHS and dense assembly paths entry by entry.
    #[must_use]
    pub fn local_operator(&self, i: usize) -> Option<&DenseMatrix> {
        match self.state.get(i) {
            Some(LocalState::Dense(f, _)) => Some(f),
            _ => None,
        }
    }

    /// The device half of a GPU approach.
    pub(crate) fn device_side(&self) -> &DeviceSide {
        self.device.as_ref().expect("GPU approaches are constructed with a device")
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
        if !self.approach.is_explicit() {
            return Ok((LocalState::HostFactor(factor), factorize_seconds));
        }
        let _span = feti_trace::span(|| format!("assemble[sd={i}]"));
        let (f, host_seconds) = if self.approach.assembles_on_device() {
            let (device, ops) = (&self.device_side().device, self.preprocess_program.subdomain(i));
            (gpu::run_assembly(device, ops, i, block, &factor)?, 0.0)
        } else {
            timed(|| factor.assemble(i, block))
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
        let breakdown = if self.approach.assembles_on_device() {
            scheduler.finish()
        } else {
            scheduler.finish_measured(wall)
        };
        self.stats.record_preprocessing(breakdown);
        self.state = state;
        Ok(breakdown)
    }

    /// `K⁺ rhs` through the kept factor of subdomain `i` — the very `K⁺` the operator
    /// applies or was assembled from.  Panics on an operator not preprocessed so.
    pub(crate) fn solve_local(&self, i: usize, rhs: &[f64]) -> Vec<f64> {
        let factor = self.state.get(i).and_then(LocalState::factor);
        factor.expect("preprocess must be called first, keeping the factors").solve(rhs)
    }

    /// The local action `q̃ = F̃ᵢ p̃` of subdomain `i` (`q_local` arrives zeroed).
    fn apply_local(&self, i: usize, p_local: &[f64], q_local: &mut [f64]) {
        match &self.state[i] {
            LocalState::HostFactor(factor) => factor.apply(&self.blocks[i], p_local, q_local),
            LocalState::Dense(f, _) => cpu::symv(f, p_local, q_local),
        }
    }

    /// One application phase over `k` columns.  Per subdomain (parallel region) and
    /// per column, the local dual vector is scattered from `p(global, column)`, the
    /// local action is computed, and after the region joins the local results are
    /// gathered through `q(global, column, value)` in subdomain-index order — so a
    /// batch is bit-for-bit `k` single applications.
    ///
    /// Timing: CPU approaches report their measured region; device-applied ones only
    /// *submit* from the host (the numerics above merely simulate the device), so
    /// their host share is zero and the time is the modelled schedule of the
    /// application program — one batched program for `k` columns, never `k` programs.
    fn apply_columns(
        &self,
        k: usize,
        p: impl Fn(usize, usize) -> f64 + Sync,
        mut q: impl FnMut(usize, usize, f64),
    ) -> TimeBreakdown {
        assert_eq!(self.state.len(), self.blocks.len(), "preprocess must be called before apply");
        let _span = feti_trace::span(|| "apply");
        let (locals, wall) = timed(|| {
            par_subdomains::<_, Vec<(Vec<Vec<f64>>, f64)>>(self.blocks.len(), |i| {
                let lambda_map = &self.blocks[i].lambda_map;
                timed(|| {
                    (0..k)
                        .map(|j| {
                            let p_local: Vec<f64> = lambda_map.iter().map(|&g| p(g, j)).collect();
                            let mut q_local = vec![0.0; p_local.len()];
                            self.apply_local(i, &p_local, &mut q_local);
                            q_local
                        })
                        .collect()
                })
            })
        });
        for (block, (columns, _)) in self.blocks.iter().zip(&locals) {
            for (j, q_local) in columns.iter().enumerate() {
                for (&g, &v) in block.lambda_map.iter().zip(q_local) {
                    q(g, j, v);
                }
            }
        }
        let batched;
        let program = match &self.device {
            Some(side) if k != 1 => {
                batched = side.program.apply(k);
                &batched
            }
            _ => &self.apply_program,
        };
        let on_device = self.approach.uses_gpu();
        let mut scheduler = PhaseScheduler::for_host();
        program.record(&mut scheduler, |i| if on_device { 0.0 } else { locals[i].1 });
        let breakdown = scheduler.finish_measured(if on_device { 0.0 } else { wall });
        self.stats.record_apply(breakdown, k);
        if feti_trace::enabled() {
            // Per-column application seconds, one histogram per approach.
            feti_trace::histogram_record(
                &format!("apply_seconds.{}", self.approach.label()),
                breakdown.total_seconds / k.max(1) as f64,
            );
        }
        breakdown
    }
}

impl DualOperator for ApproachOperator {
    fn approach(&self) -> DualOperatorApproach {
        self.approach
    }

    fn num_lambdas(&self) -> usize {
        self.num_lambdas
    }

    fn preprocess(&mut self) -> crate::Result<TimeBreakdown> {
        self.preprocess_keeping(false)
    }

    fn apply(&mut self, p: &[f64], q: &mut [f64]) -> TimeBreakdown {
        assert_eq!(p.len(), self.num_lambdas, "input length must match dual space");
        assert_eq!(q.len(), self.num_lambdas, "output length must match dual space");
        q.fill(0.0);
        self.apply_columns(1, |g, _| p[g], |g, _, v| q[g] += v)
    }

    fn apply_many(&mut self, p: &DenseMatrix, q: &mut DenseMatrix) -> TimeBreakdown {
        assert_eq!(p.nrows(), self.num_lambdas, "batch row count must match dual space");
        assert_eq!(q.nrows(), self.num_lambdas, "batch row count must match dual space");
        assert_eq!(p.ncols(), q.ncols(), "input and output batches must have equal width");
        q.fill(0.0);
        self.apply_columns(p.ncols(), |g, j| p.get(g, j), |g, j, v| q.add_assign_at(g, j, v))
    }

    fn stats(&self) -> DualOperatorStats {
        self.stats.snapshot()
    }
}

/// Builds the dual operator implementing `approach` for a decomposed problem.
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
    Ok(Box::new(ApproachOperator::for_problem(approach, problem, params, solver_options)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_decompose::DecompositionSpec;

    #[test]
    fn blocks_extracted_from_problem() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let blocks = SubdomainBlock::from_problem(&problem);
        assert_eq!(blocks.len(), 4);
        for b in &blocks {
            assert_eq!(b.b.ncols(), b.num_dofs());
            assert_eq!(b.b.nrows(), b.num_local_lambdas());
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let blocks = SubdomainBlock::from_problem(&problem);
        let global: Vec<f64> = (0..problem.num_lambdas).map(|i| i as f64).collect();
        let mut accumulated = vec![0.0; problem.num_lambdas];
        let mut counts = vec![0.0; problem.num_lambdas];
        for b in &blocks {
            let local = b.scatter(&global);
            assert_eq!(local.len(), b.num_local_lambdas());
            b.gather(&local, &mut accumulated);
            for &g in &b.lambda_map {
                counts[g] += 1.0;
            }
        }
        for i in 0..problem.num_lambdas {
            assert!((accumulated[i] - global[i] * counts[i]).abs() < 1e-12);
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
                    let mut op =
                        ApproachOperator::for_problem(approach, &problem, None, opts).unwrap();
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
    fn each_approach_factorizes_over_analyses_under_its_own_ordering() {
        // Every implicit approach's analyses carry the approximate-minimum-degree
        // permutation and every explicit one's the nested-dissection one — whether the
        // operator analysed for itself or a plan ranking the approach first handed its
        // analyses over — each that of a stand-alone analysis under that ordering.
        use crate::planner::{PlanCandidate, Planner};
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
            let built = ApproachOperator::for_problem(approach, &problem, None, opts).unwrap();
            assert_eq!(&carried(&built), expected, "{approach:?} built");
            let mut ranked = plan.clone();
            let at = ranked.candidates.iter().position(|c| c.approach == approach).unwrap();
            let first = PlanCandidate { fits_device_memory: true, ..ranked.candidates.remove(at) };
            ranked.candidates.insert(0, first);
            let planned = ranked.operator(&problem).unwrap();
            assert_eq!(planned.approach, approach);
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
                let build = || ApproachOperator::for_problem(approach, &problem, None, opts);
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

    #[test]
    fn shared_stats_counts_are_exact_under_four_threads() {
        use rayon::prelude::*;
        let stats = SharedStats::default();
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let recordings: Vec<usize> = (0..1000).collect();
        let t = TimeBreakdown { cpu_seconds: 0.5, gpu_seconds: 0.25, total_seconds: 0.5 };
        pool.install(|| {
            recordings.par_iter().for_each(|_| stats.record_apply(t, 3));
        });
        let snap = stats.snapshot();
        assert_eq!(snap.apply_count, 3000, "no increment may be lost under contention");
        assert!((snap.total_apply.cpu_seconds - 500.0).abs() < 1e-9);
        assert!((snap.total_apply.gpu_seconds - 250.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_preprocessing_accumulates_separately_from_the_cold_cost() {
        // Regression test for the old "last call wins" overwrite: the cold
        // breakdown must survive re-preprocessing, which accumulates on its own.
        let stats = SharedStats::default();
        let cold = TimeBreakdown { cpu_seconds: 2.0, gpu_seconds: 1.0, total_seconds: 2.5 };
        let warm = TimeBreakdown { cpu_seconds: 0.5, gpu_seconds: 0.25, total_seconds: 0.5 };
        stats.record_preprocessing(cold);
        stats.record_preprocessing(warm);
        stats.record_preprocessing(warm);
        let snap = stats.snapshot();
        assert_eq!(snap.preprocess_count, 3);
        assert!((snap.preprocessing.cpu_seconds - 2.0).abs() < 1e-12, "cold cost preserved");
        assert!((snap.preprocessing.total_seconds - 2.5).abs() < 1e-12);
        assert!((snap.repreprocessing.cpu_seconds - 1.0).abs() < 1e-12, "re-preprocess summed");
        assert!((snap.repreprocessing.total_seconds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_many_counts_every_column_as_one_apply() {
        // Regression test for the amortization accounting: a k-column batch must
        // advance `apply_count` by k for every approach, batched or not, so that
        // batched runs stay comparable to unbatched ones.
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let nl = problem.num_lambdas;
        let k = 3;
        let mut p = DenseMatrix::zeros(nl, k, feti_sparse::MemoryOrder::ColMajor);
        for j in 0..k {
            for i in 0..nl {
                p.set(i, j, (i + j) as f64 * 0.1 - 0.5);
            }
        }
        for approach in DualOperatorApproach::all() {
            let mut op = build_dual_operator(approach, &problem, None).unwrap();
            op.preprocess().unwrap();
            let mut q = DenseMatrix::zeros(nl, k, feti_sparse::MemoryOrder::ColMajor);
            op.apply_many(&p, &mut q);
            assert_eq!(op.stats().apply_count, k, "{approach:?}");
            let mut q1 = vec![0.0; nl];
            op.apply(&p.col(0), &mut q1);
            assert_eq!(op.stats().apply_count, k + 1, "{approach:?} after one more apply");
        }
    }
}
