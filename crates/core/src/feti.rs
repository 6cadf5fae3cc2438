//! The Total FETI solver: coarse problem, projector, lumped preconditioner and the
//! preconditioned conjugate projected gradient method (Algorithm 1 of the paper),
//! plus solution recovery.

use crate::dualop::{par_subdomains, ApproachOperator, DualOperator};
use crate::params::{DualOperatorApproach, ExplicitAssemblyParams};
use crate::schedule::TimeBreakdown;
use crate::{FetiError, Result};
use feti_decompose::DecomposedProblem;
use feti_solver::{CholeskyFactor, SolverOptions};
use feti_sparse::{blas, ops, CooMatrix, CsrMatrix, DenseMatrix, MemoryOrder, Transpose};
use rayon::prelude::*;
use std::sync::Arc;

/// One load case for [`TotalFetiSolver::solve_many`]: one load vector per subdomain,
/// each of the subdomain's DOF length.
pub type LoadCase = Vec<Vec<f64>>;

/// Options of the PCPG iteration.
#[derive(Debug, Clone, Copy)]
pub struct PcpgOptions {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Relative tolerance on the projected residual.
    pub tolerance: f64,
    /// Whether to use the lumped preconditioner `M = B K Bᵀ`
    /// ([`TotalFetiSolver::precondition`]).
    pub use_preconditioner: bool,
}

impl Default for PcpgOptions {
    fn default() -> Self {
        Self { max_iterations: 500, tolerance: 1e-9, use_preconditioner: true }
    }
}

/// The result of one FETI solve.
#[derive(Debug, Clone)]
pub struct FetiSolution {
    /// Converged Lagrange multipliers.
    pub lambda: Vec<f64>,
    /// Kernel amplitudes (stacked per subdomain).
    pub alpha: Vec<f64>,
    /// Per-subdomain primal solutions.
    pub subdomain_solutions: Vec<Vec<f64>>,
    /// Global primal solution (interface values averaged).
    pub global_solution: Vec<f64>,
    /// Number of PCPG iterations performed.
    pub iterations: usize,
    /// Final relative projected residual.
    pub final_residual: f64,
    /// Time spent in FETI preprocessing (dual-operator factorization / assembly).
    pub preprocessing_time: TimeBreakdown,
    /// Accumulated time of all dual-operator applications during PCPG.  For a batched
    /// [`TotalFetiSolver::solve_many`] run this is the load case's amortized share of
    /// the batched applications.
    pub dual_apply_time: TimeBreakdown,
}

/// The Total FETI solver driving the dual operator of any approach.
///
/// The solver *owns* its problem (shared through an [`Arc`]), so a fully constructed
/// — and, after the first solve, fully preprocessed — solver is `'static + Send` and
/// can be cached and handed between worker threads by a solve service.
/// Construction builds the coarse problem and analyses each distinct `Kᵢ` sparsity
/// pattern once — or nothing, [from a plan](Self::from_plan), which hands over the
/// analyses it priced; FETI preprocessing (the dual operator's factorization/assembly)
/// runs once per solver instance, and subsequent solves on the same instance reuse it
/// and report a zero preprocessing time.  The solver holds no factor of `Kᵢ` of its
/// own: `d = B K⁺ f − c` and the primal recovery solve through the one factor per
/// subdomain its operator made — under the approach's
/// [ordering](DualOperatorApproach::ordering) and the caller's factorization kind and
/// pivot tolerance — which the solver asks the operator to keep.
pub struct TotalFetiSolver {
    problem: Arc<DecomposedProblem>,
    dual_op: ApproachOperator,
    /// Per subdomain, what the lumped preconditioner multiplies by.
    lumped: Vec<BoundaryBlock>,
    g: CsrMatrix,
    gtg_factor: CholeskyFactor,
    kernel_dim: usize,
    options: PcpgOptions,
    /// The recorded dual-operator preprocessing breakdown, once it has run.
    preprocessed: Option<TimeBreakdown>,
    /// `(plan record id, chosen rank)` of the planning decision that built this
    /// solver, when tracing was enabled at plan time.  The solver stamps measured
    /// preprocessing and per-application seconds onto that record so the trace
    /// report shows predicted-vs-measured accuracy.
    plan_trace: Option<(u64, usize)>,
}

/// What the lumped preconditioner multiplies by on one subdomain: `B̃ᵢ` and `Kᵢ`
/// restricted to the boundary DOFs, the columns of `B̃ᵢ` that hold a stored entry.
struct BoundaryBlock {
    /// `B̃_b`: `B̃ᵢ` with its columns renumbered to boundary index (`local_lambdas x nb`).
    gluing: CsrMatrix,
    /// `K_bb`: the boundary rows and columns of `Kᵢ` (`nb x nb`), every row keeping
    /// its surviving entries in their stored order.
    stiffness: CsrMatrix,
}

impl BoundaryBlock {
    fn extract(gluing: &CsrMatrix, stiffness: &CsrMatrix) -> Self {
        let mut boundary = gluing.col_idx().to_vec();
        boundary.sort_unstable();
        boundary.dedup();
        let nb = boundary.len();
        // Boundary index of every DOF, ascending with the DOF so that renumbered rows
        // stay sorted; `None` for an interior DOF.
        let mut boundary_index = vec![None; gluing.ncols()];
        for (b, &j) in boundary.iter().enumerate() {
            boundary_index[j] = Some(b);
        }
        let gluing_b = CsrMatrix::from_raw_parts(
            gluing.nrows(),
            nb,
            gluing.row_ptr().to_vec(),
            gluing.col_idx().iter().filter_map(|&j| boundary_index[j]).collect(),
            gluing.values().to_vec(),
        );
        // Count, then fill at exact capacity.
        let is_boundary = |j: &&usize| boundary_index[**j].is_some();
        let nnz = boundary
            .iter()
            .map(|&i| stiffness.row_cols(i).iter().filter(is_boundary).count())
            .sum();
        let mut row_ptr = Vec::with_capacity(nb + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for &i in &boundary {
            for (&j, &v) in stiffness.row_cols(i).iter().zip(stiffness.row_values(i)) {
                if let Some(b) = boundary_index[j] {
                    col_idx.push(b);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            gluing: gluing_b,
            stiffness: CsrMatrix::from_raw_parts(nb, nb, row_ptr, col_idx, values),
        }
    }
}

impl TotalFetiSolver {
    /// Creates a solver for `problem` using the given dual-operator approach.
    ///
    /// # Errors
    /// Returns an error if the simulated device cannot hold the operator's persistent
    /// structures or the coarse problem `GᵀG` is singular.  No `Kᵢ` is factorized
    /// here: a subdomain factorization failure surfaces from
    /// [`TotalFetiSolver::ensure_preprocessed`] / [`TotalFetiSolver::solve`].
    pub fn new(
        problem: impl Into<Arc<DecomposedProblem>>,
        approach: DualOperatorApproach,
        params: Option<ExplicitAssemblyParams>,
        options: PcpgOptions,
    ) -> Result<Self> {
        Self::new_with_solver_options(problem, approach, params, SolverOptions::default(), options)
    }

    /// Like [`TotalFetiSolver::new`] with explicit [`SolverOptions`]: the host numeric
    /// factorization kind (bit-identical either way) and the pivot tolerance.
    /// [`SolverOptions::ordering`] is for stand-alone factors and is not read here:
    /// every `Kᵢ` is ordered by the approach ([`DualOperatorApproach::ordering`]).
    ///
    /// # Errors
    /// As for [`TotalFetiSolver::new`]: device capacity or a singular coarse problem;
    /// subdomain factorization failures surface at preprocessing.
    pub fn new_with_solver_options(
        problem: impl Into<Arc<DecomposedProblem>>,
        approach: DualOperatorApproach,
        params: Option<ExplicitAssemblyParams>,
        solver_options: SolverOptions,
        options: PcpgOptions,
    ) -> Result<Self> {
        let problem = problem.into();
        let dual_op = ApproachOperator::for_problem(approach, &problem, params, solver_options)?;
        Self::from_parts(problem, dual_op, options)
    }

    /// Creates a solver from an already-computed [`Plan`](crate::planner::Plan)
    /// (see [`Planner::plan`](crate::planner::Planner::plan)): the plan's winning
    /// candidate supplies the operator and the plan its symbolic analyses, so nothing
    /// is analysed here.  Callers that want to inspect or report the
    /// ranking build the plan themselves and hand it over here; when tracing was
    /// enabled during planning, this solver stamps its measured preprocessing and
    /// per-application seconds onto that same plan trace record.
    ///
    /// # Errors
    /// As for [`TotalFetiSolver::new`]: the planned operator cannot be constructed
    /// on the device or the coarse problem is singular; subdomain factorization
    /// failures surface at preprocessing.  A plan made for a problem with other
    /// subdomain sizes is refused here, one whose `Kᵢ` patterns differ at preprocessing
    /// (both [`FetiError::Factorization`]).
    pub fn from_plan(
        problem: impl Into<Arc<DecomposedProblem>>,
        plan: &crate::planner::Plan,
        options: PcpgOptions,
    ) -> Result<Self> {
        let problem = problem.into();
        let dual_op = plan.operator(&problem)?;
        let mut solver = Self::from_parts(problem, dual_op, options)?;
        solver.plan_trace = plan.trace_id.map(|id| (id, plan.chosen_rank()));
        Ok(solver)
    }

    /// Shared constructor body: the coarse problem and the preconditioner's blocks.
    fn from_parts(
        problem: Arc<DecomposedProblem>,
        dual_op: ApproachOperator,
        options: PcpgOptions,
    ) -> Result<Self> {
        // Coarse space: G = B R (per subdomain columns).
        let kernel_dim = problem.spec.physics.kernel_dim(problem.spec.dim);
        let num_lambdas = problem.num_lambdas;
        let ncols = kernel_dim * problem.subdomains.len();
        let mut g_coo = CooMatrix::new(num_lambdas, ncols);
        for (s, sd) in problem.subdomains.iter().enumerate() {
            for c in 0..kernel_dim {
                let r_col = sd.kernel.col(c);
                // column of B R
                let mut br = vec![0.0; sd.gluing.nrows()];
                ops::spmv_csr(1.0, &sd.gluing, Transpose::No, &r_col, 0.0, &mut br);
                for (local, &v) in br.iter().enumerate() {
                    if v != 0.0 {
                        g_coo.push(sd.lambda_map[local], s * kernel_dim + c, v);
                    }
                }
            }
        }
        let g = g_coo.to_csr();
        let gtg = ops::spgemm_csr(&g.transposed(), &g);
        let gtg_factor = CholeskyFactor::new(&gtg, &SolverOptions::default())
            .map_err(|e| FetiError::Factorization(format!("coarse problem GᵀG: {e}")))?;

        let lumped = problem
            .subdomains
            .iter()
            .map(|sd| BoundaryBlock::extract(&sd.gluing, &sd.assembled.stiffness))
            .collect();

        Ok(Self {
            problem,
            dual_op,
            lumped,
            g,
            gtg_factor,
            kernel_dim,
            options,
            preprocessed: None,
            plan_trace: None,
        })
    }

    /// The dual-space dimension.
    #[must_use]
    pub fn num_lambdas(&self) -> usize {
        self.problem.num_lambdas
    }

    /// The problem this solver owns.
    #[must_use]
    pub fn problem(&self) -> &Arc<DecomposedProblem> {
        &self.problem
    }

    /// Whether the dual operator has been preprocessed (i.e. the solver is *warm*:
    /// the next solve skips factorization and assembly entirely).
    #[must_use]
    pub fn is_preprocessed(&self) -> bool {
        self.preprocessed.is_some()
    }

    /// The PCPG options the next solve will use.
    #[must_use]
    pub fn options(&self) -> PcpgOptions {
        self.options
    }

    /// Replaces the PCPG options used by subsequent solves.  Preprocessing state
    /// (the coarse problem, the dual operator's factorization and assembly) is
    /// independent of these options and stays intact, so a cached warm
    /// solver can be retargeted to each job's tolerance, iteration cap and
    /// preconditioner choice before solving.
    pub fn set_options(&mut self, options: PcpgOptions) {
        self.options = options;
    }

    /// Runs the dual operator's preprocessing if it has not run yet and returns the
    /// recorded breakdown.  Idempotent: a warm solver returns the stored breakdown
    /// without redoing any work — this is what makes cached solvers skip
    /// preprocessing across a stream of repeated-geometry jobs.
    ///
    /// # Errors
    /// Returns [`FetiError::Factorization`] naming the lowest-index subdomain whose
    /// `Kᵢ,reg` is not positive definite, or a device-memory error from the assembly;
    /// the solver stays cold, so a later call fails the same way.
    pub fn ensure_preprocessed(&mut self) -> Result<TimeBreakdown> {
        match self.preprocessed {
            Some(t) => Ok(t),
            None => {
                let t = self.dual_op.preprocess_keeping(true)?;
                self.preprocessed = Some(t);
                if let Some((id, rank)) = self.plan_trace {
                    feti_trace::stamp_plan(id, rank, Some(t.total_seconds), None);
                }
                Ok(t)
            }
        }
    }

    /// Access to the underlying dual operator (e.g. for statistics).
    #[must_use]
    pub fn dual_operator(&self) -> &dyn DualOperator {
        &self.dual_op
    }

    /// Applies the projector `P x = x - G (GᵀG)⁻¹ Gᵀ x`.
    #[must_use]
    pub fn project(&self, x: &[f64]) -> Vec<f64> {
        let _span = feti_trace::span(|| "project");
        let mut gtx = vec![0.0; self.g.ncols()];
        ops::spmv_csr(1.0, &self.g, Transpose::Yes, x, 0.0, &mut gtx);
        let y = self.gtg_factor.solve(&gtx);
        let mut out = x.to_vec();
        ops::spmv_csr(-1.0, &self.g, Transpose::No, &y, 1.0, &mut out);
        out
    }

    /// Applies the lumped preconditioner `M w = Σᵢ B̃ᵢ Kᵢ B̃ᵢᵀ w̃ᵢ`, evaluated on the
    /// boundary DOFs alone: `M = Σᵢ B̃_b K_bb B̃_bᵀ`, with `B̃_b` the columns of `B̃ᵢ` that
    /// hold a stored entry and `K_bb` the rows and columns of `Kᵢ` at those DOFs
    /// (extracted once at construction).
    ///
    /// The result equals the product through the full `Kᵢ` to the bit.  `B̃ᵢᵀ w̃ᵢ` is
    /// `+0.0` at every interior DOF, so each term the restriction drops from a row sum
    /// of `Kᵢ` is `v · (+0.0) = ±0.0`, added to an accumulator that starts at `+0.0`
    /// and can never hold `−0.0` (a sum is `−0.0` only if both operands are): dropping
    /// it changes nothing.  The interior rows of that product are never read back,
    /// because `B̃ᵢ` has no entry in their columns, and the renumbering keeps the
    /// stored order of every surviving entry.
    #[must_use]
    pub fn precondition(&self, w: &[f64]) -> Vec<f64> {
        if !self.options.use_preconditioner {
            return w.to_vec();
        }
        let _span = feti_trace::span(|| "precondition");
        // Per-subdomain halves run in parallel; the gather into the shared dual
        // vector stays sequential in subdomain order so the floating-point sums are
        // independent of the thread count.
        let locals: Vec<Vec<f64>> = self
            .problem
            .subdomains
            .par_iter()
            .zip(self.lumped.par_iter())
            .with_max_len(1)
            .map(|(sd, block)| {
                let w_local: Vec<f64> = sd.lambda_map.iter().map(|&g| w[g]).collect();
                let nb = block.stiffness.nrows();
                let mut t = vec![0.0; nb];
                ops::spmv_csr(1.0, &block.gluing, Transpose::Yes, &w_local, 0.0, &mut t);
                let mut kt = vec![0.0; nb];
                ops::spmv_csr(1.0, &block.stiffness, Transpose::No, &t, 0.0, &mut kt);
                let mut q_local = vec![0.0; w_local.len()];
                ops::spmv_csr(1.0, &block.gluing, Transpose::No, &kt, 0.0, &mut q_local);
                q_local
            })
            .collect();
        let mut out = vec![0.0; w.len()];
        for (sd, q_local) in self.problem.subdomains.iter().zip(&locals) {
            for (local, &g) in sd.lambda_map.iter().enumerate() {
                out[g] += q_local[local];
            }
        }
        out
    }

    /// Computes the dual right-hand side `d = B K⁺ f - c` for one load case, through
    /// the preprocessed operator's factors.
    #[must_use]
    fn dual_rhs_for(&self, loads: &[Vec<f64>]) -> Vec<f64> {
        let mut d = vec![0.0; self.problem.num_lambdas];
        for (s, (sd, f)) in self.problem.subdomains.iter().zip(loads).enumerate() {
            let x = self.dual_op.solve_local(s, f);
            let mut q_local = vec![0.0; sd.gluing.nrows()];
            ops::spmv_csr(1.0, &sd.gluing, Transpose::No, &x, 0.0, &mut q_local);
            for (local, &g) in sd.lambda_map.iter().enumerate() {
                d[g] += q_local[local];
            }
        }
        for (di, ci) in d.iter_mut().zip(&self.problem.constraint_rhs) {
            *di -= ci;
        }
        d
    }

    /// Computes the kernel work `e = Rᵀ f` (stacked per subdomain) for one load case.
    #[must_use]
    fn kernel_work_for(&self, loads: &[Vec<f64>]) -> Vec<f64> {
        let kd = self.kernel_dim;
        let mut e = vec![0.0; kd * self.problem.subdomains.len()];
        for (s, (sd, f)) in self.problem.subdomains.iter().zip(loads).enumerate() {
            for c in 0..kd {
                e[s * kd + c] = blas::dot(&sd.kernel.col(c), f);
            }
        }
        e
    }

    /// Applies the dual operator to a batch of dual vectors through
    /// [`DualOperator::apply_many`] and returns the result columns.  `io` is the
    /// column-major input/output pair, which the caller keeps across iterations; it
    /// is reallocated only when the batch width changes.
    fn apply_batch(
        &mut self,
        cols: &[&Vec<f64>],
        io: &mut (DenseMatrix, DenseMatrix),
    ) -> (Vec<Vec<f64>>, TimeBreakdown) {
        let (nl, m) = (self.problem.num_lambdas, cols.len());
        if io.0.ncols() != m {
            let zeros = || DenseMatrix::zeros(nl, m, MemoryOrder::ColMajor);
            *io = (zeros(), zeros());
        }
        let (p, q) = io;
        for (j, col) in cols.iter().enumerate() {
            p.as_mut_slice()[j * nl..(j + 1) * nl].copy_from_slice(col);
        }
        let t = self.dual_op.apply_many(p, q);
        ((0..m).map(|j| q.as_slice()[j * nl..(j + 1) * nl].to_vec()).collect(), t)
    }

    /// Recovers the per-subdomain primal solutions `uᵢ = K⁺(fᵢ - B̃ᵢᵀ λ̃ᵢ) + Rᵢ αᵢ`,
    /// one independent local solve per subdomain on the host pool.
    fn recover_subdomains(
        &self,
        lambda: &[f64],
        alpha: &[f64],
        loads: &[Vec<f64>],
    ) -> Vec<Vec<f64>> {
        let kernel_dim = self.kernel_dim;
        par_subdomains(loads.len(), |s| {
            let sd = &self.problem.subdomains[s];
            let lambda_local: Vec<f64> = sd.lambda_map.iter().map(|&g| lambda[g]).collect();
            let mut rhs = loads[s].clone();
            ops::spmv_csr(-1.0, &sd.gluing, Transpose::Yes, &lambda_local, 1.0, &mut rhs);
            let mut u = self.dual_op.solve_local(s, &rhs);
            for c in 0..kernel_dim {
                let a = alpha[s * kernel_dim + c];
                let r_col = sd.kernel.col(c);
                blas::axpy(a, &r_col, &mut u);
            }
            u
        })
    }

    /// Runs FETI preprocessing and the PCPG iteration (Algorithm 1), then recovers the
    /// primal solution.
    ///
    /// # Errors
    /// Returns [`FetiError::NoConvergence`] if PCPG does not reach the tolerance (see
    /// [`TotalFetiSolver::solve_many`]), or the preprocessing error of
    /// [`TotalFetiSolver::ensure_preprocessed`].
    pub fn solve(&mut self) -> Result<FetiSolution> {
        let baseline: LoadCase =
            self.problem.subdomains.iter().map(|sd| sd.assembled.load.clone()).collect();
        let mut solutions = self.solve_many(std::slice::from_ref(&baseline))?;
        Ok(solutions.pop().expect("one load case yields one solution"))
    }

    /// Solves the problem for several load cases at once: FETI preprocessing runs
    /// once, and each PCPG iteration applies the dual operator to the whole block of
    /// still-unconverged search directions through [`DualOperator::apply_many`] — the
    /// dense GEMM-shaped batched path that amortizes the memory traffic of the
    /// explicit operators over the batch.
    ///
    /// Each load case iterates exactly as it would through [`TotalFetiSolver::solve`]
    /// (the batching changes the modelled time, not the numerics); cases leave the
    /// batch individually as they converge.
    ///
    /// # Errors
    /// Returns [`FetiError::NoConvergence`] if any load case ends with a residual that
    /// is not below the tolerance — the iteration limit was reached, the search
    /// direction broke down, or the residual stopped being finite (a `NaN` or `±∞` in
    /// a load vector), in which case the case halts at once instead of iterating on
    /// garbage — or the preprocessing error of [`TotalFetiSolver::ensure_preprocessed`].
    ///
    /// # Panics
    /// Panics if a load case does not provide one load vector of the right length per
    /// subdomain.
    pub fn solve_many(&mut self, loads: &[LoadCase]) -> Result<Vec<FetiSolution>> {
        let ncases = loads.len();
        if ncases == 0 {
            return Ok(Vec::new());
        }
        for case in loads {
            assert_eq!(case.len(), self.problem.subdomains.len(), "one load vector per subdomain");
            for (sd, f) in self.problem.subdomains.iter().zip(case) {
                assert_eq!(f.len(), sd.num_dofs(), "load vector length must match DOFs");
            }
        }
        // Preprocessing runs once per solver instance: a warm (cached) solver goes
        // straight to the iteration and reports a zero preprocessing time, since no
        // preprocessing work happened during *this* solve.
        let already_warm = self.is_preprocessed();
        let recorded = self.ensure_preprocessed()?;
        let preprocessing_time = if already_warm { TimeBreakdown::default() } else { recorded };
        let nl = self.problem.num_lambdas;
        let mut apply_time = TimeBreakdown::default();

        struct CaseState {
            d: Vec<f64>,
            lambda: Vec<f64>,
            r: Vec<f64>,
            w: Vec<f64>,
            p: Vec<f64>,
            wy: f64,
            w0_norm: f64,
            iterations: usize,
            residual: f64,
            halted: bool,
        }

        // λ0 = G (GᵀG)⁻¹ e per case (so that Gᵀ λ0 = e), then r0 = d - F λ0 through
        // one batched application.
        let lambdas0: Vec<Vec<f64>> = loads
            .iter()
            .map(|case| {
                let e = self.kernel_work_for(case);
                let y0 = self.gtg_factor.solve(&e);
                let mut lambda = vec![0.0; nl];
                ops::spmv_csr(1.0, &self.g, Transpose::No, &y0, 0.0, &mut lambda);
                lambda
            })
            .collect();
        let zeros = || DenseMatrix::zeros(nl, ncases, MemoryOrder::ColMajor);
        let mut batch_io = (zeros(), zeros());
        let (f_lambda0, t0) = self.apply_batch(&lambdas0.iter().collect::<Vec<_>>(), &mut batch_io);
        apply_time = apply_time.then(t0);

        let mut states: Vec<CaseState> = Vec::with_capacity(ncases);
        for ((case, lambda), f_lambda) in loads.iter().zip(lambdas0).zip(&f_lambda0) {
            let d = self.dual_rhs_for(case);
            let r: Vec<f64> = d.iter().zip(f_lambda).map(|(a, b)| a - b).collect();
            let w = self.project(&r);
            let w0_norm = blas::norm2(&w).max(f64::MIN_POSITIVE);
            let p = self.project(&self.precondition(&w));
            let wy = blas::dot(&w, &p);
            states.push(CaseState {
                d,
                lambda,
                r,
                w,
                p,
                wy,
                w0_norm,
                iterations: 0,
                residual: 1.0,
                halted: false,
            });
        }

        for k in 0..self.options.max_iterations {
            let _span = feti_trace::span(|| format!("pcpg_iter[{k}]"));
            let mut active = Vec::new();
            for (j, s) in states.iter_mut().enumerate() {
                if s.halted {
                    continue;
                }
                s.residual = blas::norm2(&s.w) / s.w0_norm;
                if s.residual < self.options.tolerance || !s.residual.is_finite() {
                    s.halted = true;
                } else {
                    active.push(j);
                }
            }
            if active.is_empty() {
                break;
            }
            let p_cols: Vec<&Vec<f64>> = active.iter().map(|&j| &states[j].p).collect();
            let (q_cols, t) = self.apply_batch(&p_cols, &mut batch_io);
            apply_time = apply_time.then(t);
            for (q, &j) in q_cols.iter().zip(&active) {
                let s = &mut states[j];
                s.iterations = k + 1;
                let pq = blas::dot(&s.p, q);
                if !pq.is_finite() || pq.abs() < f64::MIN_POSITIVE {
                    s.halted = true;
                    continue;
                }
                let delta = s.wy / pq;
                blas::axpy(delta, &s.p, &mut s.lambda);
                blas::axpy(-delta, q, &mut s.r);
                s.w = self.project(&s.r);
                let y = self.project(&self.precondition(&s.w));
                let wy_new = blas::dot(&s.w, &y);
                let beta = wy_new / s.wy;
                s.wy = wy_new;
                for (pi, yi) in s.p.iter_mut().zip(&y) {
                    *pi = yi + beta * *pi;
                }
                s.residual = blas::norm2(&s.w) / s.w0_norm;
            }
        }

        for s in &states {
            let converged = s.residual < self.options.tolerance;
            if !converged {
                return Err(FetiError::NoConvergence {
                    iterations: s.iterations,
                    residual: s.residual,
                });
            }
        }

        // α = (GᵀG)⁻¹ Gᵀ (F λ - d) per case, through one final batched application.
        let lambda_cols: Vec<&Vec<f64>> = states.iter().map(|s| &s.lambda).collect();
        let (f_lambda_final, tf) = self.apply_batch(&lambda_cols, &mut batch_io);
        apply_time = apply_time.then(tf);
        let share = apply_time.scaled(1.0 / ncases as f64);

        if feti_trace::enabled() {
            for s in &states {
                feti_trace::histogram_record("pcpg_iterations", s.iterations as f64);
            }
            if let Some((id, rank)) = self.plan_trace {
                let stats = self.dual_op.stats();
                if stats.apply_count > 0 {
                    feti_trace::stamp_plan(
                        id,
                        rank,
                        None,
                        Some(stats.total_apply.total_seconds / stats.apply_count as f64),
                    );
                }
            }
        }

        let mut solutions = Vec::with_capacity(ncases);
        for ((s, f_lambda), case) in states.iter().zip(&f_lambda_final).zip(loads) {
            let resid_dual: Vec<f64> = f_lambda.iter().zip(&s.d).map(|(a, b)| a - b).collect();
            let mut gt_res = vec![0.0; self.g.ncols()];
            ops::spmv_csr(1.0, &self.g, Transpose::Yes, &resid_dual, 0.0, &mut gt_res);
            let alpha = self.gtg_factor.solve(&gt_res);
            let subdomain_solutions = self.recover_subdomains(&s.lambda, &alpha, case);
            let global_solution = self.problem.gather_solution(&subdomain_solutions);
            solutions.push(FetiSolution {
                lambda: s.lambda.clone(),
                alpha,
                subdomain_solutions,
                global_solution,
                iterations: s.iterations,
                final_residual: s.residual,
                preprocessing_time,
                dual_apply_time: share,
            });
        }
        Ok(solutions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use feti_decompose::DecompositionSpec;
    use feti_gpu::GpuSpec;
    use feti_mesh::{Dim, ElementOrder, Physics};

    fn solve_with(
        spec: &DecompositionSpec,
        approach: DualOperatorApproach,
    ) -> (FetiSolution, Arc<DecomposedProblem>) {
        // Hand the solver a clone of the shared handle, not a deep copy of the
        // problem.
        let problem = Arc::new(DecomposedProblem::build(spec));
        let mut solver =
            TotalFetiSolver::new(Arc::clone(&problem), approach, None, PcpgOptions::default())
                .unwrap();
        let sol = solver.solve().unwrap();
        (sol, problem)
    }

    #[test]
    fn heat_2d_converges_and_satisfies_constraints() {
        let spec = DecompositionSpec::small_heat_2d();
        let (sol, problem) = solve_with(&spec, DualOperatorApproach::ImplicitCholmod);
        assert!(sol.iterations > 0 && sol.iterations < 200);
        assert!(sol.final_residual < 1e-8);
        // Interface continuity and Dirichlet satisfaction.
        assert!(problem.interface_jump(&sol.subdomain_solutions) < 1e-6);
        for sd in &problem.subdomains {
            for (node, lat) in sd.mesh.lattice.iter().enumerate() {
                if lat[0] == 0 {
                    let u = sol.subdomain_solutions[sd.index][node];
                    assert!(u.abs() < 1e-6, "Dirichlet node has value {u}");
                }
            }
        }
        // Heat source over the unit square with u = 0 on one edge: interior values are
        // positive.
        let max = sol.global_solution.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > 0.01, "solution should be positive somewhere, max = {max}");
    }

    #[test]
    fn all_approaches_give_the_same_solution() {
        let spec = DecompositionSpec::small_heat_2d();
        let (reference, _) = solve_with(&spec, DualOperatorApproach::ImplicitMkl);
        for approach in [
            DualOperatorApproach::ExplicitMkl,
            DualOperatorApproach::ExplicitGpuLegacy,
            DualOperatorApproach::ExplicitHybrid,
        ] {
            let (sol, _) = solve_with(&spec, approach);
            assert_eq!(sol.global_solution.len(), reference.global_solution.len());
            for (a, b) in sol.global_solution.iter().zip(&reference.global_solution) {
                assert!((a - b).abs() < 1e-6, "{approach:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn elasticity_2d_converges() {
        let spec = DecompositionSpec {
            dim: Dim::Two,
            physics: Physics::LinearElasticity,
            order: ElementOrder::Linear,
            subdomains_per_side: 2,
            elements_per_subdomain_side: 3,
            subdomains_per_cluster: 4,
        };
        let (sol, problem) = solve_with(&spec, DualOperatorApproach::ExplicitGpuLegacy);
        assert!(sol.final_residual < 1e-8);
        assert!(problem.interface_jump(&sol.subdomain_solutions) < 1e-6);
        // Gravity-like load pushes the body down: some negative vertical displacement.
        let min = sol.global_solution.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min < -1e-6);
    }

    #[test]
    fn heat_3d_quadratic_converges() {
        let spec = DecompositionSpec {
            dim: Dim::Three,
            physics: Physics::HeatTransfer,
            order: ElementOrder::Quadratic,
            subdomains_per_side: 2,
            elements_per_subdomain_side: 2,
            subdomains_per_cluster: 8,
        };
        let (sol, problem) = solve_with(&spec, DualOperatorApproach::ExplicitGpuModern);
        assert!(sol.final_residual < 1e-8);
        assert!(problem.interface_jump(&sol.subdomain_solutions) < 1e-6);
    }

    #[test]
    fn projector_is_idempotent_and_annihilates_g() {
        let spec = DecompositionSpec::small_heat_2d();
        let problem = Arc::new(DecomposedProblem::build(&spec));
        let solver = TotalFetiSolver::new(
            Arc::clone(&problem),
            DualOperatorApproach::ImplicitCholmod,
            None,
            PcpgOptions::default(),
        )
        .unwrap();
        let x: Vec<f64> = (0..problem.num_lambdas).map(|i| (i as f64 * 0.3).sin()).collect();
        let px = solver.project(&x);
        let ppx = solver.project(&px);
        for (a, b) in px.iter().zip(&ppx) {
            assert!((a - b).abs() < 1e-10, "projector must be idempotent");
        }
        // Gᵀ P x = 0
        let mut gtpx = vec![0.0; solver.g.ncols()];
        ops::spmv_csr(1.0, &solver.g, Transpose::Yes, &px, 0.0, &mut gtpx);
        assert!(blas::norm2(&gtpx) < 1e-9);
    }

    #[test]
    fn boundary_block_keeps_boundary_rows_and_columns_in_stored_order() {
        // B̃ with an empty row and DOF 4 glued twice; DOFs 1 and 4 are the boundary.
        let gluing =
            CsrMatrix::from_raw_parts(3, 5, vec![0, 1, 1, 3], vec![4, 1, 4], vec![1.0, -1.0, 1.0]);
        let mut k = CooMatrix::new(5, 5);
        for (i, j, v) in [
            (0, 0, 9.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 7.0),
            (1, 3, -2.0),
            (1, 4, -3.0),
            (3, 1, -2.0),
            (4, 1, -3.0),
            (4, 2, -4.0),
            (4, 4, 5.0),
        ] {
            k.push(i, j, v);
        }
        let block = BoundaryBlock::extract(&gluing, &k.to_csr());
        let expected_gluing =
            CsrMatrix::from_raw_parts(3, 2, vec![0, 1, 1, 3], vec![1, 0, 1], vec![1.0, -1.0, 1.0]);
        assert_eq!(block.gluing, expected_gluing);
        let expected_stiffness = CsrMatrix::from_raw_parts(
            2,
            2,
            vec![0, 2, 4],
            vec![0, 1, 0, 1],
            vec![7.0, -3.0, -3.0, 5.0],
        );
        assert_eq!(block.stiffness, expected_stiffness);

        // No stored entry, no boundary.
        let empty = BoundaryBlock::extract(&CsrMatrix::zeros(2, 5), &k.to_csr());
        assert_eq!(empty.gluing, CsrMatrix::zeros(2, 0));
        assert_eq!(empty.stiffness, CsrMatrix::zeros(0, 0));
    }

    #[test]
    fn a_non_finite_load_is_a_typed_failure_not_500_iterations() {
        let problem = Arc::new(DecomposedProblem::build(&DecompositionSpec::small_heat_2d()));
        let baseline: LoadCase =
            problem.subdomains.iter().map(|sd| sd.assembled.load.clone()).collect();
        let mut solver = TotalFetiSolver::new(
            Arc::clone(&problem),
            DualOperatorApproach::ExplicitCholmod,
            None,
            PcpgOptions::default(),
        )
        .unwrap();
        let healthy = solver.solve_many(std::slice::from_ref(&baseline)).unwrap().remove(0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = baseline.clone();
            poisoned[1][3] = bad;
            // Alone and beside a healthy case, which must not hide it.
            for loads in [vec![poisoned.clone()], vec![baseline.clone(), poisoned]] {
                match solver.solve_many(&loads) {
                    Err(FetiError::NoConvergence { iterations, residual }) => {
                        assert!(iterations <= 1, "{bad}: halted after {iterations} iterations");
                        assert!(!residual.is_finite(), "{bad}: residual {residual}");
                    }
                    other => panic!("{bad}: expected NoConvergence, got {:?}", other.map(drop)),
                }
            }
        }
        // The solver is as good as before.
        let again = solver.solve_many(&[baseline]).unwrap().remove(0);
        assert_eq!(again.iterations, healthy.iterations);
        assert_eq!(again.lambda, healthy.lambda);
        assert_eq!(again.global_solution, healthy.global_solution);
    }

    #[test]
    fn solve_many_matches_individual_solves() {
        let spec = DecompositionSpec::small_heat_2d();
        let problem = DecomposedProblem::build(&spec);
        let baseline: LoadCase =
            problem.subdomains.iter().map(|sd| sd.assembled.load.clone()).collect();
        // Scaling by a power of two keeps the scaled case's PCPG trajectory exactly
        // proportional, so both cases converge in the same number of iterations.
        let doubled: LoadCase =
            baseline.iter().map(|f| f.iter().map(|v| v * 2.0).collect()).collect();
        let mut batch_solver = TotalFetiSolver::new(
            Arc::new(problem),
            DualOperatorApproach::ExplicitGpuLegacy,
            None,
            PcpgOptions::default(),
        )
        .unwrap();
        let batch = batch_solver.solve_many(&[baseline, doubled]).unwrap();
        assert_eq!(batch.len(), 2);
        let (solo, _) = solve_with(&spec, DualOperatorApproach::ExplicitGpuLegacy);
        assert_eq!(batch[0].iterations, solo.iterations);
        for (a, b) in batch[0].global_solution.iter().zip(&solo.global_solution) {
            assert!((a - b).abs() < 1e-10, "batched case 0 must match the solo solve");
        }
        for (a, b) in batch[1].global_solution.iter().zip(&solo.global_solution) {
            assert!((a - 2.0 * b).abs() < 1e-8, "linearity: doubled load, doubled solution");
        }
        // Every batched column counts as one apply in the statistics.
        let stats = batch_solver.dual_operator().stats();
        assert_eq!(stats.apply_count, 2 * (solo.iterations + 2));
    }

    #[test]
    fn planned_solver_converges_to_the_reference_solution() {
        let spec = DecompositionSpec::small_heat_2d();
        let problem = DecomposedProblem::build(&spec);
        let plan = Planner::new(&problem, GpuSpec::a100_40gb()).plan(100);
        let mut solver =
            TotalFetiSolver::from_plan(Arc::new(problem), &plan, PcpgOptions::default()).unwrap();
        let sol = solver.solve().unwrap();
        assert!(sol.final_residual < 1e-8);
        let (reference, _) = solve_with(&spec, DualOperatorApproach::ImplicitMkl);
        for (a, b) in sol.global_solution.iter().zip(&reference.global_solution) {
            assert!((a - b).abs() < 1e-6, "planned solver must reproduce the solution");
        }
    }

    #[test]
    fn multistep_reuses_preparation() {
        let spec = DecompositionSpec::small_heat_2d();
        let problem = DecomposedProblem::build(&spec);
        let mut solver = TotalFetiSolver::new(
            Arc::new(problem),
            DualOperatorApproach::ExplicitGpuLegacy,
            None,
            PcpgOptions::default(),
        )
        .unwrap();
        // Algorithm 2: repeated steps re-run preprocessing + PCPG on the same symbolic
        // structures.
        let s1 = solver.solve().unwrap();
        let s2 = solver.solve().unwrap();
        for (a, b) in s1.global_solution.iter().zip(&s2.global_solution) {
            assert!((a - b).abs() < 1e-8);
        }
    }
}
