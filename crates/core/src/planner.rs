//! Cost-model-driven selection of the dual-operator approach.
//!
//! §V of the paper answers "which of the nine approaches should I run?" empirically,
//! and [`ExplicitAssemblyParams::auto_configure`] hard-codes the resulting Table-II
//! recommendations.  The [`Planner`] answers the same question *a priori*: given a
//! decomposed problem and a device description it estimates, without executing
//! anything, the preprocessing and per-application cost of every
//! [`DualOperatorApproach`] × [`ExplicitAssemblyParams`] combination through the same
//! calibrated roofline model the simulated device charges at execution time, amortizes
//! preprocessing over an expected PCPG iteration count, and constructs the winner.
//!
//! The estimates are built from structure alone: subdomain sizes, gluing-matrix
//! sparsity and the *symbolic* factor sizes (one analysis per distinct sparsity pattern
//! and per ordering an approach uses, made the first time pricing or a plan needs it,
//! which inspects index arrays only — no numeric factorization runs).  A [`Plan`] keeps
//! those analyses and the device, and is the one builder of an operator: it builds any
//! approach whose ordering it analysed, over them, on that device.  The
//! GPU side of an estimate folds the very [`ApproachProgram`] the operator executes
//! through the same [`PhaseScheduler`], so it equals the modelled device time of an
//! actual run by construction; the CPU side is priced by a calibrated [`HostSpec`]
//! roofline since real host time can only be measured.

use crate::dualop::{cpu, ApproachOperator};
use crate::params::{DualOperatorApproach, ExplicitAssemblyParams, ScatterGather};
use crate::program::{auto_params, ApproachProgram, SubdomainShape};
use crate::schedule::{PhaseScheduler, TimeBreakdown};
use feti_decompose::DecomposedProblem;
use feti_gpu::{cost, CudaGeneration, GpuSpec};
use feti_solver::{FactorizationKind, OrderingKind, SolverOptions, SymbolicCholesky};
use std::sync::{Arc, OnceLock};

/// Effective per-thread FP64 throughput for indexed sparse kernels (FLOP/second).
const SPARSE_FLOPS_FP64: f64 = 2.5e9;
/// Effective per-thread memory bandwidth for indexed sparse access (bytes/second).
const MEMORY_BANDWIDTH: f64 = 4.5e9;
/// Effective per-thread FP64 throughput for dense blocked kernels (FLOP/second).
/// The blocked SYMV/SYRK/TRSM kernels sustain well above the scalar indexed rate.
const DENSE_FLOPS_FP64: f64 = 6.0e9;
/// Effective bandwidth for dense regular-stride access when the working set is cache
/// resident (bytes/second).  Tiny subdomains' dense `F̃ᵢ` live entirely in cache
/// across PCPG iterations, so pricing them at streaming bandwidth overprices the host
/// apply by ~6× and makes the planner mispick a device-side approach.
const CACHE_BANDWIDTH: f64 = 2.8e10;
/// Working-set size under which dense traffic is served at [`CACHE_BANDWIDTH`]
/// (bytes).  Only the excess over this is charged at streaming [`MEMORY_BANDWIDTH`],
/// so the dense roofline is continuous and monotone in the task size.
const CACHE_BYTES: f64 = 256.0 * 1024.0;
/// Fixed overhead charged per subdomain task (seconds).
const TASK_OVERHEAD_SECONDS: f64 = 1.0e-6;

/// Roofline description of the host: effective per-thread FP64 throughput and memory
/// bandwidth, plus a per-subdomain-task overhead (dispatch, allocation), over a
/// number of worker threads.
///
/// Host work in this repository is *measured*, not modelled; the planner still needs a
/// price for it before anything has run.  The rates are constants calibrated against
/// the measured host kernels of this repository (Fig. 5 sweeps): indexed sparse access
/// runs far below STREAM bandwidth, so the effective numbers are per-core kernel
/// throughputs, not hardware peaks.  Recalibrating means editing those constants; only
/// the thread count is chosen per planner.
#[derive(Debug, Clone, Copy)]
pub struct HostSpec {
    /// Host worker threads the parallel subdomain loop will use (one modelled CUDA
    /// stream per thread).  Estimated host phases schedule their per-subdomain tasks
    /// across this many workers and report the makespan, matching the measured
    /// wall-clock `cpu_seconds` of an actual parallel run.
    threads: usize,
}

impl HostSpec {
    /// The calibration on the live thread configuration ([`crate::host_threads`], i.e.
    /// `FETI_THREADS` or the machine's available parallelism).
    #[must_use]
    pub fn calibrated() -> Self {
        Self { threads: crate::host_threads() }
    }

    /// The same calibration for an explicit thread count.
    #[must_use]
    pub fn calibrated_for_threads(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// Roofline time of one host task with indexed (sparse) access touching `bytes`
    /// and executing `flops`.  Index chasing defeats the cache even for small working
    /// sets, so sparse tasks are priced at the flat calibrated rates regardless of
    /// size (measured: implicit solves sustain ~6 GB/s at both 59 KB and 400 KB
    /// working sets).
    #[must_use]
    pub fn seconds(&self, bytes: f64, flops: f64) -> f64 {
        TASK_OVERHEAD_SECONDS + (bytes / MEMORY_BANDWIDTH).max(flops / SPARSE_FLOPS_FP64)
    }

    /// Roofline time of one host task with dense regular-stride access.  Two-level:
    /// traffic up to 256 KiB is served at the cache bandwidth, only the excess streams
    /// from memory.  This is what fixes the heat-3D 125-dof mispick: an 86×86 dense
    /// `F̃ᵢ` (~96 KB of effective SYMV traffic) runs ~6× faster than the streaming
    /// roofline predicts, and the planner must know that to prefer the host apply over
    /// shuttling tiny vectors through the device.
    #[must_use]
    pub fn dense_seconds(&self, bytes: f64, flops: f64) -> f64 {
        let compute = flops / DENSE_FLOPS_FP64;
        let cache = bytes / CACHE_BANDWIDTH;
        let stream = (bytes - CACHE_BYTES).max(0.0) / MEMORY_BANDWIDTH;
        TASK_OVERHEAD_SECONDS + compute.max(cache).max(stream)
    }
}

/// What the planner learns about one subdomain from structure alone.
#[derive(Debug, Clone, Copy)]
struct SubdomainFacts {
    /// The program shape, carrying the symbolic factor size under one ordering.
    shape: SubdomainShape,
    /// Number of supernodes of the factor (prices the run-blocked kernel).
    nsuper: usize,
}

/// The symbolic analyses of a problem under one ordering, one per subdomain (one object
/// per distinct pattern), and the facts the estimates read off them.
#[derive(Debug, Clone)]
struct OrderedAnalyses {
    ordering: OrderingKind,
    symbolic: Vec<Arc<SymbolicCholesky>>,
    facts: Vec<SubdomainFacts>,
}

impl OrderedAnalyses {
    /// Analyses every subdomain of `problem` under `ordering`, once per distinct
    /// pattern, and reads the facts the estimates need off the analyses.
    fn new(problem: &DecomposedProblem, ordering: OrderingKind) -> Self {
        let k_regs = problem.subdomains.iter().map(|sd| &sd.k_reg);
        let symbolic = cpu::analyze_by_pattern(k_regs, ordering);
        let facts = problem
            .subdomains
            .iter()
            .zip(&symbolic)
            .map(|(sd, symbolic)| SubdomainFacts {
                shape: SubdomainShape::new(&sd.gluing, symbolic.factor_nnz()),
                nsuper: symbolic.num_supernodes(),
            })
            .collect();
        Self { ordering, symbolic, facts }
    }
}

/// The estimated cost of running one approach with one parameter set.
#[derive(Debug, Clone, Copy)]
pub struct PlanCandidate {
    /// The approach estimated.
    pub approach: DualOperatorApproach,
    /// The explicit-assembly parameters the estimate assumed (CPU-only approaches
    /// ignore them).
    pub params: ExplicitAssemblyParams,
    /// The host numeric factorization kind the estimate assumed: in a plan always
    /// [`FactorizationKind::default_kind`], the kernel every built operator runs.  Both
    /// kinds produce bit-identical factors, so a kind asked of
    /// [`Planner::estimate_with_factorization`] only shifts the priced host
    /// preprocessing time.
    pub factorization: FactorizationKind,
    /// Estimated FETI preprocessing cost under the overlapped phase schedule.
    pub preprocessing: TimeBreakdown,
    /// Estimated cost of one dual-operator application.
    pub apply: TimeBreakdown,
    /// Whether the persistent device allocations of this approach fit the device.
    pub fits_device_memory: bool,
    /// Modelled persistent device allocation of this approach in bytes (zero for
    /// CPU-only approaches).  A service admission controller compares this against
    /// its device budget before letting the job construct real operators.
    pub persistent_device_bytes: usize,
}

impl PlanCandidate {
    /// Amortized total: preprocessing plus `iterations` applications.
    #[must_use]
    pub fn total_seconds(&self, iterations: usize) -> f64 {
        self.preprocessing.total_seconds + iterations as f64 * self.apply.total_seconds
    }
}

/// The result of a planning pass: every estimated candidate, cheapest first, and the
/// preparation they were priced from — the one builder of an operator.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The iteration count the amortization assumed.
    pub expected_iterations: usize,
    /// All candidates, sorted by amortized total with memory-infeasible ones last;
    /// empty in a [pinned plan](Planner::plan_pinned).
    pub candidates: Vec<PlanCandidate>,
    /// Identifier of the [`feti_trace`] plan record this pass emitted, if tracing
    /// was enabled when it ran.  A solver built from this plan stamps measured
    /// preprocessing and per-application seconds onto the candidate it built under
    /// this id, producing the predicted-vs-measured accuracy report.
    pub trace_id: Option<u64>,
    /// The symbolic analyses the planner made, one set per ordering, one analysis per
    /// subdomain in each: an operator built from this plan factorizes over the set of
    /// its approach's ordering and analyses nothing.
    analyses: Vec<OrderedAnalyses>,
    /// The device the candidates were priced on, the one every operator is built on.
    gpu: GpuSpec,
}

impl Plan {
    /// The winning candidate: the cheapest one whose persistent allocations fit the
    /// device (falling back to the overall cheapest if none fits).
    ///
    /// # Panics
    /// Panics if the plan is empty: a [pinned plan](Planner::plan_pinned) ranks
    /// nothing.
    #[must_use]
    pub fn best(&self) -> &PlanCandidate {
        &self.candidates[self.chosen_rank()]
    }

    /// The rank of the candidate [`Plan::best`] selects.
    #[must_use]
    pub fn chosen_rank(&self) -> usize {
        self.candidates.iter().position(|c| c.fits_device_memory).unwrap_or(0)
    }

    /// Builds the dual operator of `approach` with `params` for the problem the plan
    /// was made for (or one of the same structure), over the plan's analyses under the
    /// approach's [ordering](DualOperatorApproach::ordering) and on the plan's device,
    /// with the kernel and pivot tolerance of `opts`: nothing is analysed here.
    ///
    /// # Errors
    /// [`FetiError::Factorization`](crate::FetiError::Factorization) if the plan made no
    /// analyses under that ordering or `problem` has other subdomain sizes; a
    /// device-memory error if the device cannot hold the persistent allocations.
    pub fn build(
        &self,
        problem: &DecomposedProblem,
        approach: DualOperatorApproach,
        params: ExplicitAssemblyParams,
        opts: SolverOptions,
    ) -> crate::Result<ApproachOperator> {
        let ordering = approach.ordering();
        let Some(analyses) = self.analyses.iter().find(|a| a.ordering == ordering) else {
            let missing = format!("the plan made no {ordering:?} analyses");
            return Err(crate::FetiError::Factorization(missing));
        };
        let symbolic = analyses.symbolic.clone();
        ApproachOperator::with_analyses(approach, problem, params, opts, symbolic, &self.gpu)
    }
}

/// The approach planner: estimates every approach/parameter combination for one
/// decomposed problem and device, and picks the cheapest amortized one.
#[derive(Debug)]
pub struct Planner<'a> {
    problem: &'a DecomposedProblem,
    gpu: GpuSpec,
    host: HostSpec,
    /// One cell per ordering some approach uses, analysed the first time pricing or a
    /// plan needs it.
    analyses: Vec<(OrderingKind, OnceLock<OrderedAnalyses>)>,
}

impl<'a> Planner<'a> {
    /// Creates a planner for `problem` on a device described by `gpu`.  Nothing is
    /// analysed yet: the first estimate or plan that needs an ordering
    /// ([`DualOperatorApproach::ordering`]) runs one symbolic analysis per distinct
    /// `k_reg` sparsity pattern under it (sparsity only — no numeric work) to learn the
    /// factor sizes, and every plan made here carries the analyses to the operators it
    /// builds.
    #[must_use]
    pub fn new(problem: &'a DecomposedProblem, gpu: GpuSpec) -> Self {
        let mut analyses = Vec::new();
        for ordering in DualOperatorApproach::all().map(DualOperatorApproach::ordering) {
            if analyses.iter().all(|(o, _)| *o != ordering) {
                analyses.push((ordering, OnceLock::new()));
            }
        }
        Self { problem, gpu, host: HostSpec::calibrated(), analyses }
    }

    /// The analyses under `approach`'s ordering, made here on first use.
    fn analyses_for(&self, approach: DualOperatorApproach) -> &OrderedAnalyses {
        let ordering = approach.ordering();
        let (_, cell) = self.analyses.iter().find(|(o, _)| *o == ordering).expect("every ordering");
        cell.get_or_init(|| OrderedAnalyses::new(self.problem, ordering))
    }

    /// What the planner learnt about each subdomain under `approach`'s ordering.
    fn facts(&self, approach: DualOperatorApproach) -> &[SubdomainFacts] {
        &self.analyses_for(approach).facts
    }

    /// A plan of `candidates` over every analysis made so far.
    fn plan_of(&self, expected_iterations: usize, candidates: Vec<PlanCandidate>) -> Plan {
        let analyses = self.analyses.iter().filter_map(|(_, cell)| cell.get().cloned()).collect();
        Plan { expected_iterations, candidates, trace_id: None, analyses, gpu: self.gpu }
    }

    /// The plan of one pinned approach: it prices and ranks nothing and records no
    /// trace plan, holds the analyses of `approach`'s ordering (made here unless an
    /// estimate made them first) and any this planner made before, and builds
    /// `approach` with any parameters ([`Plan::build`]).
    #[must_use]
    pub fn plan_pinned(&self, approach: DualOperatorApproach) -> Plan {
        self.analyses_for(approach);
        self.plan_of(0, Vec::new())
    }

    /// Prices host phases over `host`'s thread count instead of the live one.
    #[must_use]
    pub fn with_host_spec(mut self, host: HostSpec) -> Self {
        self.host = host;
        self
    }

    /// Plans with the full Table-I parameter sweep for the explicit GPU approaches:
    /// every approach × parameter combination is estimated and the cheapest amortized
    /// candidate wins.
    #[must_use]
    pub fn plan(&self, expected_iterations: usize) -> Plan {
        self.plan_impl(expected_iterations, true)
    }

    /// Plans with only the Table-II auto-configured parameters per approach — the
    /// cheap search a production caller wants when the full sweep is not needed.
    #[must_use]
    pub fn plan_auto(&self, expected_iterations: usize) -> Plan {
        self.plan_impl(expected_iterations, false)
    }

    /// Prices every (approach, parameters) pair once, under the factorization kind
    /// every built operator runs ([`FactorizationKind::default_kind`]).
    fn plan_impl(&self, expected_iterations: usize, full_sweep: bool) -> Plan {
        let mut candidates = Vec::new();
        for approach in DualOperatorApproach::all() {
            for params in self.params_candidates(approach, full_sweep) {
                candidates.push(self.estimate(approach, params));
            }
        }
        candidates.sort_by(|a, b| {
            (!a.fits_device_memory, a.total_seconds(expected_iterations))
                .partial_cmp(&(!b.fits_device_memory, b.total_seconds(expected_iterations)))
                .expect("estimated costs are finite")
        });
        let mut plan = self.plan_of(expected_iterations, candidates);
        if feti_trace::enabled() {
            // One record per approach, not per parameter variant: a full-sweep plan
            // enumerates hundreds of parameter combinations whose estimates differ
            // only marginally, and recording them all would drown the accuracy
            // report in duplicates.  Kept per approach is its first candidate in rank
            // order — the ranking puts every candidate that fits device memory first,
            // so that is its best-ranked one that fits (the one `best()` could
            // select), else its best-ranked overall; ranks stay positions in the full
            // ranking, so the plan's chosen rank always names a recorded candidate.
            let mut deduped: Vec<(usize, &PlanCandidate)> = Vec::new();
            for (rank, c) in plan.candidates.iter().enumerate() {
                if deduped.iter().all(|(_, kept)| kept.approach != c.approach) {
                    deduped.push((rank, c));
                }
            }
            let records = deduped
                .into_iter()
                .map(|(rank, c)| feti_trace::PlanCandidateRecord {
                    rank,
                    approach: c.approach.label().to_string(),
                    factorization: format!("{:?}", c.factorization),
                    params: format!(
                        "path={:?} fwd={:?}/{:?} bwd={:?}/{:?} rhs={:?} sg={:?}",
                        c.params.path,
                        c.params.forward_factor_storage,
                        c.params.forward_factor_order,
                        c.params.backward_factor_storage,
                        c.params.backward_factor_order,
                        c.params.rhs_order,
                        c.params.scatter_gather,
                    ),
                    fits_device_memory: c.fits_device_memory,
                    predicted_preprocessing_s: c.preprocessing.total_seconds,
                    predicted_apply_s: c.apply.total_seconds,
                    predicted_total_s: c.total_seconds(expected_iterations),
                    measured_preprocessing_s: None,
                    measured_apply_s: None,
                })
                .collect();
            plan.trace_id =
                feti_trace::record_plan(expected_iterations, plan.chosen_rank(), records);
        }
        plan
    }

    /// The parameter sets worth estimating for one approach.
    fn params_candidates(
        &self,
        approach: DualOperatorApproach,
        full_sweep: bool,
    ) -> Vec<ExplicitAssemblyParams> {
        let auto = auto_params(approach, self.problem);
        match approach {
            DualOperatorApproach::ExplicitGpuLegacy | DualOperatorApproach::ExplicitGpuModern
                if full_sweep =>
            {
                ExplicitAssemblyParams::all_combinations()
            }
            DualOperatorApproach::ExplicitHybrid => {
                // Only the scatter/gather placement affects the hybrid approach.
                [ScatterGather::Gpu, ScatterGather::Cpu]
                    .into_iter()
                    .map(|scatter_gather| ExplicitAssemblyParams { scatter_gather, ..auto })
                    .collect()
            }
            _ => vec![auto],
        }
    }

    /// Estimates one approach with one parameter set — no execution, structure only.
    /// Prices the default host factorization kind, the one an operator built without
    /// options runs.
    #[must_use]
    pub fn estimate(
        &self,
        approach: DualOperatorApproach,
        params: ExplicitAssemblyParams,
    ) -> PlanCandidate {
        self.estimate_with_factorization(approach, params, FactorizationKind::default_kind())
    }

    /// Estimates one approach with one parameter set and an explicit host
    /// factorization kind.  The kind only reprices the host factorization phase (the
    /// kinds are bit-identical in their output).
    #[must_use]
    pub fn estimate_with_factorization(
        &self,
        approach: DualOperatorApproach,
        params: ExplicitAssemblyParams,
        factorization: FactorizationKind,
    ) -> PlanCandidate {
        let program = self.program(approach, params);
        // The host half: what each subdomain's worker does ahead of its submissions,
        // read off where the operator runs each phase.  Every approach factorizes on
        // the host; a host assembly follows, and a host application is the SYMV of
        // `F̃ᵢ` or the implicit solve pair.  Device phases only submit from the host.
        let host_assembly = approach.is_explicit() && !approach.assembles_on_device();
        let (host_pre, host_app): (Vec<f64>, Vec<f64>) = program
            .shapes()
            .iter()
            .zip(self.facts(approach))
            .map(|(s, facts)| {
                let factorize = self.host_factorize(s, facts.nsuper, factorization);
                let pre = if host_assembly { factorize + self.host_schur(s) } else { factorize };
                let app = if approach.uses_gpu() {
                    0.0
                } else if approach.is_explicit() {
                    self.host_symv(s.nl)
                } else {
                    self.host_implicit_apply(s)
                };
                (pre, app)
            })
            .unzip();
        // One modelled worker and one stream per host thread, matching what the
        // executed phases use; the device half is the program the operator executes.
        let mut pre = PhaseScheduler::new(self.host.threads);
        let mut app = PhaseScheduler::new(self.host.threads);
        program.preprocess().record(&mut pre, |i| host_pre[i]);
        program.apply(1).record(&mut app, |i| host_app[i]);
        let persistent_device_bytes = program.persistent_bytes();
        PlanCandidate {
            approach,
            params,
            factorization,
            preprocessing: pre.finish(),
            apply: app.finish(),
            fits_device_memory: persistent_device_bytes <= self.gpu.memory_capacity_bytes,
            persistent_device_bytes,
        }
    }

    /// The program `approach` executes with `params` on this problem, over the
    /// symbolic factor sizes under its ordering.
    pub(crate) fn program(
        &self,
        approach: DualOperatorApproach,
        params: ExplicitAssemblyParams,
    ) -> ApproachProgram {
        let shapes = self.facts(approach).iter().map(|facts| facts.shape).collect();
        ApproachProgram::new(&self.gpu, approach, params, self.problem.num_lambdas, shapes)
    }

    /// Host cost of one numeric Cholesky factorization, priced by `feti-gpu`'s host
    /// work model ([`cost::host_factor_work_simplicial`] /
    /// [`cost::host_factor_work_supernodal`]): identical flops for both kinds, less
    /// index traffic for wide supernodes.
    fn host_factorize(&self, s: &SubdomainShape, nsuper: usize, kind: FactorizationKind) -> f64 {
        let (bytes, flops) = match kind {
            FactorizationKind::Simplicial => cost::host_factor_work_simplicial(s.fnnz, s.n),
            FactorizationKind::Supernodal => cost::host_factor_work_supernodal(s.fnnz, s.n, nsuper),
        };
        self.host.seconds(bytes, flops)
    }

    /// Host cost of one implicit application: two gluing SpMVs and two triangular
    /// solves through the factor.  The ~19 effective bytes per stored entry are
    /// calibrated against the measured Fig. 5 application sweeps (the solves reuse
    /// index arrays, so they stream less than the raw two-pass estimate).
    fn host_implicit_apply(&self, s: &SubdomainShape) -> f64 {
        let bytes = 19.0 * (s.nnz_b + s.fnnz) as f64;
        let flops = (4 * s.nnz_b + 4 * s.fnnz) as f64;
        self.host.seconds(bytes, flops)
    }

    /// Host cost of assembling one dense `F̃ᵢ`, priced as **one** pass over `L` per
    /// local multiplier plus the gluing entries: what runs is one reach-pruned forward
    /// solve with `nlᵢ` right-hand sides followed by the panel-pair Gram over the rows
    /// two panels share, the same for both explicit CPU approaches (they tie); neither
    /// the pruning nor the Gram has a term of its own yet.
    fn host_schur(&self, s: &SubdomainShape) -> f64 {
        let flops = (2 * s.fnnz * s.nl + 2 * s.nnz_b * s.nl) as f64;
        let bytes = (12 * s.fnnz + 8 * s.n * s.nl) as f64;
        self.host.seconds(bytes, flops)
    }

    /// Host cost of one dense symmetric matrix-vector product.  The host SYMV streams
    /// the packed upper triangle of `F̃ᵢ` once, four rows per sweep from their diagonals
    /// (`blas::symv_packed`); the constant is still the one the measured Fig. 5 sweeps
    /// gave the full-row walk before it, ~13 bytes per entry of the full matrix.
    /// Dense regular access — priced by the cache-aware [`HostSpec::dense_seconds`]
    /// roofline, so tiny cache-resident `F̃ᵢ` are not charged streaming bandwidth.
    fn host_symv(&self, nl: usize) -> f64 {
        let nlf = nl as f64;
        self.host.dense_seconds(nlf * nlf * 13.0, 2.0 * nlf * nlf)
    }

    /// Modelled persistent device allocation of an approach in bytes, under its
    /// Table-II auto-configured parameters: the allocation list of the program the
    /// operator executes, so a service admission controller can reserve this amount
    /// against a device budget before any operator is constructed.  CPU-only
    /// approaches allocate nothing.  (Parameters enter only through the layout term
    /// of the legacy sparse-TRSM workspace; a candidate estimated with explicit
    /// parameters carries its own [`PlanCandidate::persistent_device_bytes`].)
    ///
    /// `generation` must be the approach's own generation; programs resolve it
    /// themselves and the argument remains for source compatibility.
    #[must_use]
    pub fn persistent_device_bytes(
        &self,
        approach: DualOperatorApproach,
        generation: CudaGeneration,
    ) -> usize {
        debug_assert!(approach.generation().is_none_or(|own| own == generation));
        self.program(approach, auto_params(approach, self.problem)).persistent_bytes()
    }
}

/// A key identifying the symbolic structure of a solve configuration: two jobs with
/// equal keys share the decomposition shape, every subdomain's sparsity structure,
/// the dual-operator approach and its parameters — so the symbolic analyses computed
/// for one are valid for the other.
///
/// The key hashes index arrays only, never values.  A solve service that caches warm
/// solvers under it — numeric factors and assembled `F̃ᵢ` included — therefore
/// *assumes* that equal structure comes with equal `k_reg`, `stiffness`, `gluing` and
/// `kernel` values, so that only the loads differ between jobs (they enter PCPG, not
/// preprocessing).  Nothing checks it: a problem with a cached structure and other
/// values would take the other problem's factors.  A value fingerprint that tells a
/// symbolic hit from a numeric one is ROADMAP item 3(d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanCacheKey {
    /// Fingerprint of the per-subdomain symbolic structure (dimensions and the
    /// sparsity patterns of `Kᵢ` and `B̃ᵢ`).
    structure: u64,
    /// Number of subdomains.
    num_subdomains: usize,
    /// Dual-space dimension.
    num_lambdas: usize,
    /// The dual-operator approach.
    approach: DualOperatorApproach,
    /// The explicit-assembly parameters (identity for CPU-only approaches).
    params: ExplicitAssemblyParams,
}

impl PlanCacheKey {
    /// Builds the key for one problem and one resolved solve configuration.
    ///
    /// The structural fingerprint hashes every subdomain's dimensions and the index
    /// arrays (not values) of its stiffness and gluing matrices, so geometrically
    /// identical decompositions collide on purpose while any structural difference —
    /// one extra nonzero, one reordered constraint — separates the keys.
    #[must_use]
    pub fn new(
        problem: &DecomposedProblem,
        approach: DualOperatorApproach,
        params: ExplicitAssemblyParams,
    ) -> Self {
        Self {
            structure: Self::structure_fingerprint(problem),
            num_subdomains: problem.subdomains.len(),
            num_lambdas: problem.num_lambdas,
            approach,
            params,
        }
    }

    /// Fingerprint of the problem's symbolic structure alone (no approach): hashes
    /// every subdomain's dimensions and index arrays.  Useful as the problem half of
    /// a plan cache key before an approach has been resolved.
    #[must_use]
    pub fn structure_fingerprint(problem: &DecomposedProblem) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        problem.num_global_dofs.hash(&mut h);
        problem.num_lambdas.hash(&mut h);
        for sd in &problem.subdomains {
            feti_solver::pattern_hash(&sd.k_reg).hash(&mut h);
            feti_solver::pattern_hash(&sd.gluing).hash(&mut h);
            sd.lambda_map.hash(&mut h);
        }
        h.finish()
    }

    /// The approach this key was resolved to.
    #[must_use]
    pub fn approach(&self) -> DualOperatorApproach {
        self.approach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualop::{build_dual_operator, DualOperator};
    use feti_decompose::DecompositionSpec;

    fn planner_for(problem: &DecomposedProblem) -> Planner<'_> {
        Planner::new(problem, GpuSpec::a100_40gb())
    }

    #[test]
    fn shapes_reflect_the_problem() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let planner = planner_for(&problem);
        for approach in DualOperatorApproach::all() {
            let mut facts = planner.facts(approach).iter().zip(&problem.subdomains);
            assert!(facts
                .all(|(f, sd)| (f.shape.n, f.shape.nl) == (sd.num_dofs(), sd.lambda_map.len())));
        }
    }

    #[test]
    fn a_shared_analysis_gives_the_factor_size_of_a_stand_alone_one() {
        // What licenses one shared analysis object per pattern: on the seed problems a
        // stand-alone CHOLMOD-like analysis of each subdomain under each ordering
        // predicts the factor size the planner took from its shared analyses.
        let mut specs = vec![DecompositionSpec::small_heat_2d()];
        specs.extend(other_problems());
        for spec in specs {
            let problem = DecomposedProblem::build(&spec);
            let plan = planner_for(&problem).plan_auto(100);
            let orderings: Vec<_> = plan.analyses.iter().map(|a| a.ordering).collect();
            assert_eq!(orderings, [OrderingKind::MinimumDegree, OrderingKind::NestedDissection]);
            for OrderedAnalyses { ordering, facts, .. } in &plan.analyses {
                let opts = SolverOptions { ordering: *ordering, ..SolverOptions::default() };
                for (sd, facts) in problem.subdomains.iter().zip(facts) {
                    let own = feti_solver::CholmodLike::analyze(&sd.k_reg, opts);
                    let at = format!("{spec:?} {ordering:?} subdomain {}", sd.index);
                    assert_eq!(own.factor_nnz(), facts.shape.fnnz, "{at}");
                }
            }
        }
    }

    #[test]
    fn a_plan_refuses_a_problem_it_was_not_made_for() {
        // And a pinned plan refuses an approach whose ordering it did not analyse.
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let plan = planner_for(&problem).plan_auto(100);
        let (best, opts) = (plan.best(), SolverOptions::default());
        assert!(plan.build(&problem, best.approach, best.params, opts).is_ok());
        let [_, elasticity_2d] = other_problems();
        let other = DecomposedProblem::build(&elasticity_2d);
        let refused = plan.build(&other, best.approach, best.params, opts).err();
        let refused = refused.expect("subdomain sizes differ");
        assert!(matches!(refused, crate::FetiError::Factorization(_)), "{refused:?}");
        let implicit = DualOperatorApproach::ImplicitCholmod;
        let pinned = planner_for(&problem).plan_pinned(implicit);
        assert!(pinned.candidates.is_empty());
        let params = ExplicitAssemblyParams::default();
        assert!(pinned.build(&problem, implicit, params, opts).is_ok());
        let explicit = DualOperatorApproach::ExplicitCholmod;
        let refused = pinned.build(&problem, explicit, params, opts).err();
        let refused = refused.expect("a pinned plan holds one ordering");
        assert!(matches!(refused, crate::FetiError::Factorization(_)), "{refused:?}");
    }

    #[test]
    fn estimates_are_finite_and_positive_for_every_combination() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let planner = planner_for(&problem);
        for approach in DualOperatorApproach::all() {
            for params in ExplicitAssemblyParams::all_combinations() {
                let c = planner.estimate(approach, params);
                assert!(
                    c.preprocessing.total_seconds.is_finite()
                        && c.preprocessing.total_seconds > 0.0,
                    "{approach:?} {params:?} preprocessing"
                );
                assert!(
                    c.apply.total_seconds.is_finite() && c.apply.total_seconds > 0.0,
                    "{approach:?} {params:?} apply"
                );
            }
        }
    }

    const GPU_APPROACHES: [DualOperatorApproach; 7] = [
        DualOperatorApproach::ImplicitGpuLegacy,
        DualOperatorApproach::ImplicitGpuModern,
        DualOperatorApproach::ExplicitGpuLegacy,
        DualOperatorApproach::ExplicitGpuModern,
        DualOperatorApproach::ExplicitSparseGpuLegacy,
        DualOperatorApproach::ExplicitSparseGpuModern,
        DualOperatorApproach::ExplicitHybrid,
    ];

    /// Heat 3D (quadratic) and elasticity 2D next to the default heat 2D problem.
    fn other_problems() -> [DecompositionSpec; 2] {
        let heat_3d = DecompositionSpec {
            dim: feti_mesh::Dim::Three,
            physics: feti_mesh::Physics::HeatTransfer,
            order: feti_mesh::ElementOrder::Quadratic,
            subdomains_per_side: 2,
            elements_per_subdomain_side: 2,
            subdomains_per_cluster: 8,
        };
        let elasticity_2d = DecompositionSpec {
            dim: feti_mesh::Dim::Two,
            physics: feti_mesh::Physics::LinearElasticity,
            order: feti_mesh::ElementOrder::Linear,
            subdomains_per_side: 2,
            elements_per_subdomain_side: 3,
            subdomains_per_cluster: 4,
        };
        [heat_3d, elasticity_2d]
    }

    #[test]
    fn gpu_side_of_the_estimate_matches_the_executed_model_exactly() {
        // Planner and operator fold the same program (the same `GpuCost` list in the
        // same order) and the symbolic factor size equals the numeric one, so the
        // modelled GPU seconds of an estimate are bit-identical to an actual run:
        // every Table-I combination on heat 2D, auto parameters on the other problems,
        // and, on a device with half the bandwidths, every candidate a plan builds.
        let agree = |problem: &DecomposedProblem,
                     estimate: PlanCandidate,
                     mut op: Box<dyn DualOperator>| {
            let (approach, params) = (estimate.approach, estimate.params);
            let measured_pre = op.preprocess().unwrap();
            let p: Vec<f64> = (0..problem.num_lambdas).map(|i| (i as f64 * 0.3).sin()).collect();
            let mut q = vec![0.0; problem.num_lambdas];
            let measured_apply = op.apply(&p, &mut q);
            assert_eq!(
                estimate.preprocessing.gpu_seconds.to_bits(),
                measured_pre.gpu_seconds.to_bits(),
                "{approach:?} {params:?} preprocessing GPU: est {} vs measured {}",
                estimate.preprocessing.gpu_seconds,
                measured_pre.gpu_seconds
            );
            assert_eq!(
                estimate.apply.gpu_seconds.to_bits(),
                measured_apply.gpu_seconds.to_bits(),
                "{approach:?} {params:?} apply GPU: est {} vs measured {}",
                estimate.apply.gpu_seconds,
                measured_apply.gpu_seconds
            );
        };
        let check = |problem: &DecomposedProblem, approach, params| {
            let estimate = planner_for(problem).estimate(approach, params);
            agree(problem, estimate, build_dual_operator(approach, problem, Some(params)).unwrap());
        };
        let heat_2d = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        for approach in GPU_APPROACHES {
            for params in ExplicitAssemblyParams::all_combinations() {
                check(&heat_2d, approach, params);
            }
        }
        for spec in other_problems() {
            let problem = DecomposedProblem::build(&spec);
            for approach in GPU_APPROACHES {
                check(&problem, approach, auto_params(approach, &problem));
            }
        }
        let a100 = GpuSpec::a100_40gb();
        let slower = GpuSpec {
            memory_bandwidth: a100.memory_bandwidth / 2.0,
            pcie_bandwidth: a100.pcie_bandwidth / 2.0,
            ..a100
        };
        let plan = Planner::new(&heat_2d, slower).plan_auto(100);
        let on_a100 = planner_for(&heat_2d);
        for approach in GPU_APPROACHES {
            let candidate = *plan.candidates.iter().find(|c| c.approach == approach).unwrap();
            let a100_apply = on_a100.estimate(approach, candidate.params).apply.gpu_seconds;
            assert_ne!(candidate.apply.gpu_seconds, a100_apply, "{approach:?}");
            let op = plan.build(&heat_2d, approach, candidate.params, SolverOptions::default());
            agree(&heat_2d, candidate, Box::new(op.unwrap()));
        }
    }

    #[test]
    fn persistent_device_bytes_equal_what_the_built_operator_allocates() {
        // Service admission reserves `persistent_device_bytes` before anything is
        // built; the operator allocates the same program's allocation list, so the
        // device's own ledger must agree to the byte.
        let mut specs = vec![DecompositionSpec::small_heat_2d()];
        specs.extend(other_problems());
        for spec in specs {
            let problem = DecomposedProblem::build(&spec);
            let planner = planner_for(&problem);
            let opts = SolverOptions::default();
            for approach in GPU_APPROACHES {
                let params = auto_params(approach, &problem);
                let op = planner.plan_pinned(approach).build(&problem, approach, params, opts);
                let op = op.unwrap();
                let pool = op.pool.as_ref().expect("a GPU approach has a pool");
                let built = GpuSpec::a100_40gb().memory_capacity_bytes - pool.capacity_bytes();
                let planned =
                    planner.persistent_device_bytes(approach, approach.generation().unwrap());
                assert_eq!(planned, built, "{spec:?} {approach:?}");
                assert_eq!(planned, planner.estimate(approach, params).persistent_device_bytes);
            }
        }
    }

    #[test]
    fn legacy_sparse_column_major_factors_pay_the_transposed_copy_persistently() {
        // Pin of the one footprint the program-derived definition changed: the
        // legacy sparse-TRSM handle keeps a transposed copy of a *sparse*
        // column-major forward factor (`sparse_trsm_workspace_from_shape`), which
        // the former hand-written formulas ignored.  Densified factors never reach
        // the handle and modern footprints are layout independent: both unchanged.
        use crate::params::FactorStorage::{Dense, Sparse};
        use feti_sparse::MemoryOrder::{ColMajor, RowMajor};
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let planner = planner_for(&problem);
        let bytes = |approach, forward_factor_storage, forward_factor_order| {
            let params = ExplicitAssemblyParams {
                forward_factor_storage,
                forward_factor_order,
                ..Default::default()
            };
            planner.estimate(approach, params).persistent_device_bytes
        };
        let legacy = DualOperatorApproach::ExplicitGpuLegacy;
        let factor_bytes: usize = planner.facts(legacy).iter().map(|f| f.shape.fnnz * 16).sum();
        let modern = DualOperatorApproach::ExplicitGpuModern;
        let baseline = bytes(legacy, Sparse, RowMajor);
        assert_eq!(bytes(legacy, Sparse, ColMajor), baseline + factor_bytes);
        assert_eq!(bytes(legacy, Dense, ColMajor), baseline);
        assert_eq!(bytes(modern, Sparse, ColMajor), bytes(modern, Sparse, RowMajor));
    }

    #[test]
    fn plan_orders_candidates_and_builds_the_winner() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let planner = planner_for(&problem);
        let plan = planner.plan(100);
        assert!(!plan.candidates.is_empty());
        for w in plan.candidates.windows(2) {
            if w[0].fits_device_memory == w[1].fits_device_memory {
                assert!(w[0].total_seconds(100) <= w[1].total_seconds(100));
            }
        }
        let best = plan.best();
        let op = plan.build(&problem, best.approach, best.params, SolverOptions::default());
        assert_eq!(op.unwrap().approach(), best.approach);
    }

    #[test]
    fn amortization_shifts_the_choice_towards_explicit_approaches() {
        // With one application the preprocessing dominates and an implicit approach
        // wins; with many applications the cheap explicit application amortizes the
        // assembly, exactly the trade-off of Fig. 6.  The 3D problem sits past the
        // crossover where the explicit GPU application beats the CPU ones.  The
        // crossover itself depends on the host parallelism (fewer threads serialize
        // the implicit applies and shift it below one iteration), so this pins the
        // paper's 16-thread node share rather than the live machine.
        let spec = DecompositionSpec {
            dim: feti_mesh::Dim::Three,
            physics: feti_mesh::Physics::HeatTransfer,
            order: feti_mesh::ElementOrder::Quadratic,
            subdomains_per_side: 2,
            elements_per_subdomain_side: 3,
            subdomains_per_cluster: 8,
        };
        let problem = DecomposedProblem::build(&spec);
        let planner = planner_for(&problem).with_host_spec(HostSpec::calibrated_for_threads(16));
        let eager = planner.plan(1);
        let amortized = planner.plan(100_000);
        assert!(!eager.best().approach.is_explicit(), "one apply cannot amortize assembly");
        assert!(
            amortized.best().approach.is_explicit(),
            "100k applies must amortize the explicit assembly, picked {:?}",
            amortized.best().approach
        );
    }

    #[test]
    fn auto_plan_is_close_to_the_full_sweep() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let planner = planner_for(&problem);
        for iterations in [1usize, 10, 100, 1000] {
            let full = planner.plan(iterations);
            let auto = planner.plan_auto(iterations);
            let ratio =
                auto.best().total_seconds(iterations) / full.best().total_seconds(iterations);
            assert!(ratio <= 2.0, "iterations {iterations}: auto/full ratio {ratio}");
        }
    }

    #[test]
    fn a_plan_prices_each_pair_once_under_the_production_kernel() {
        // A plan names the kernel every built operator runs, once per (approach,
        // parameters) pair: 9 approaches, the hybrid under both scatter/gather
        // placements, for `plan_auto`.
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let planner = planner_for(&problem);
        let [auto, full] = [planner.plan_auto(100), planner.plan(100)];
        assert_eq!(auto.candidates.len(), 10);
        for plan in [&auto, &full] {
            let pairs: std::collections::HashSet<_> =
                plan.candidates.iter().map(|c| (c.approach, c.params)).collect();
            assert_eq!(pairs.len(), plan.candidates.len());
            for c in &plan.candidates {
                assert_eq!(c.factorization, FactorizationKind::default_kind(), "{c:?}");
            }
        }
        // The column-at-a-time oracle is never priced below the run-blocked kernel:
        // same flops and same modelled GPU work, less host index traffic, same apply.
        for approach in DualOperatorApproach::all() {
            let params = auto_params(approach, &problem);
            let [simp, sup] = [FactorizationKind::Simplicial, FactorizationKind::Supernodal]
                .map(|kind| planner.estimate_with_factorization(approach, params, kind));
            assert_eq!(sup.factorization, FactorizationKind::Supernodal);
            assert_eq!(planner.estimate(approach, params).factorization, sup.factorization);
            assert!(
                sup.preprocessing.total_seconds <= simp.preprocessing.total_seconds,
                "{approach:?}: supernodal {} vs simplicial {}",
                sup.preprocessing.total_seconds,
                simp.preprocessing.total_seconds
            );
            assert_eq!(sup.apply.total_seconds, simp.apply.total_seconds, "{approach:?}");
        }
    }

    #[test]
    fn every_pair_of_approaches_is_priced_apart_somewhere_in_table_i() {
        // One approach per distinct computation: two approaches that the cost model
        // prices identically under every Table-I parameter set run the same program
        // on the same host half, and one of them is a twin to delete.
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let planner = planner_for(&problem);
        let (all, combinations) =
            (DualOperatorApproach::all(), ExplicitAssemblyParams::all_combinations());
        let prices: Vec<Vec<_>> = all
            .iter()
            .map(|&approach| {
                let estimates = combinations.iter().map(|&params| {
                    let c = planner.estimate(approach, params);
                    (c.preprocessing, c.apply, c.persistent_device_bytes)
                });
                estimates.collect()
            })
            .collect();
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate().skip(i + 1) {
                let apart = prices[i].iter().zip(&prices[j]).any(|(x, y)| x != y);
                assert!(apart, "{a:?} and {b:?} are priced alike under every parameter set");
            }
        }
    }

    #[test]
    fn infeasible_memory_is_detected() {
        let problem = DecomposedProblem::build(&DecompositionSpec::small_heat_2d());
        let mut tiny = GpuSpec::a100_40gb();
        tiny.memory_capacity_bytes = 1024;
        let planner = Planner::new(&problem, tiny);
        let plan = planner.plan(100);
        assert!(plan.candidates.iter().any(|c| !c.fits_device_memory));
        // CPU approaches never need device memory, so a feasible best always exists.
        assert!(plan.best().fits_device_memory);
        assert!(!plan.best().approach.uses_gpu());
    }
}
