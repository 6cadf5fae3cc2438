//! The direct pass: one *cycle* builds the problem and the solver fresh and times each
//! phase a user waits for from outside, through public functions only.
//!
//! ```text
//! setup       DecompositionSpec -> DecomposedProblem -> un-preprocessed TotalFetiSolver
//! preprocess  ensure_preprocessed() on that cold solver
//! iterate     solve_many(&[load]) on the now-preprocessed solver (PCPG + recovery)
//! solve       the interval spanning those two calls: cold solver -> solution
//! apply       q = F p on a preprocessed operator, seeded p
//! ```
//!
//! `solve_many` on a cold solver makes the same two calls back to back, so timing
//! them separately inside one interval yields all three numbers from one
//! preprocessing — the costliest thing a cycle does — and so twice the samples a
//! run of fixed length could otherwise afford.  `apply` needs `&mut dyn DualOperator`,
//! which a solver does not hand out, so it runs on operators built and preprocessed
//! once per run by [`Bench::prepare`] (whose preprocessing is one more sample).
//!
//! A workload with several problems (the service pool) times each phase over all of
//! them, so one sample is the sum over the pool.

use crate::rng::{self, Rng, Stream};
use crate::verify::{self, Tally};
use crate::workloads::{Config, Workload};
use feti_core::{
    DualOperator, DualOperatorApproach, FetiSolution, LoadCase, TimeBreakdown, TotalFetiSolver,
};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_trace::TraceReport;
use std::sync::Arc;
use std::time::Instant;

/// Warm solves per cycle: the cold phases dominate a cycle, so this buys samples
/// of `iterate_s` at little cost.
pub const WARM_SOLVES: usize = 2;
/// Applications per cycle.
pub const APPLIES: usize = 100;

/// The seeded inputs of the direct pass, generated once per run.
pub struct Inputs {
    /// Per problem: one load scaling per subdomain.
    pub scalings: Vec<Vec<f64>>,
    /// Per problem: `APPLIES` dual vectors.
    pub dual_vectors: Vec<Vec<Vec<f64>>>,
}

impl Inputs {
    pub fn generate(seed: u64, problems: &[Arc<DecomposedProblem>]) -> Self {
        let mut loads = Rng::new(seed, Stream::Loads);
        let mut duals = Rng::new(seed, Stream::DualVectors);
        Inputs {
            scalings: problems
                .iter()
                .map(|p| rng::load_scalings(&mut loads, p.subdomains.len()))
                .collect(),
            dual_vectors: problems
                .iter()
                .map(|p| {
                    (0..APPLIES).map(|_| rng::dual_vector(&mut duals, p.num_lambdas)).collect()
                })
                .collect(),
        }
    }
}

pub fn build_problems(specs: &[DecompositionSpec]) -> Vec<Arc<DecomposedProblem>> {
    specs.iter().map(|s| Arc::new(DecomposedProblem::build(s))).collect()
}

/// Seconds of one call, with a benchmark-owned span around it when tracing is on.
pub fn timed<R>(span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = feti_trace::span(|| span);
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Builds one operator per problem, then preprocesses them all; returns the seconds
/// the preprocessing alone took.
pub fn preprocessed_operators(
    problems: &[Arc<DecomposedProblem>],
    configs: &[Config],
) -> feti_core::Result<(Vec<Box<dyn DualOperator>>, f64)> {
    let mut operators = problems
        .iter()
        .zip(configs)
        .map(|(p, c)| c.operator(p))
        .collect::<feti_core::Result<Vec<_>>>()?;
    let start = Instant::now();
    for op in &mut operators {
        op.preprocess()?;
    }
    Ok((operators, start.elapsed().as_secs_f64()))
}

/// What a run holds for its whole length: resolved configurations, seeded inputs,
/// and the preprocessed operators `apply` is timed on.
pub struct Bench {
    /// What every cycle builds afresh.
    specs: Vec<DecompositionSpec>,
    pub configs: Vec<Config>,
    pub inputs: Inputs,
    /// The problems the operators were built from (the per-layer probes reuse them).
    pub problems: Vec<Arc<DecomposedProblem>>,
    pub operators: Vec<Box<dyn DualOperator>>,
    /// Seconds the cold `DualOperator::preprocess()` of those operators took — the
    /// very call `ensure_preprocessed` makes, so it counts as a `preprocess_s` sample.
    pub operators_preprocess_s: f64,
    outputs: Vec<Vec<f64>>,
}

impl Bench {
    /// Untimed.  Besides building the operators this first runs one throw-away cycle
    /// on a small problem, so that set-up a process pays once (block-size autotune,
    /// pool thread spawn, allocator growth) is not charged to the first sample.
    pub fn prepare(workload: &Workload, seed: u64) -> feti_core::Result<Self> {
        feti_sparse::blas::kernel_block_size();
        let small = [DecompositionSpec::small_heat_2d()];
        Self::build(&small, workload.approach, seed)?.cycle(false, &mut Tally::default())?;
        Self::build(&workload.specs, workload.approach, seed)
    }

    fn build(
        specs: &[DecompositionSpec],
        approach: Option<DualOperatorApproach>,
        seed: u64,
    ) -> feti_core::Result<Self> {
        let problems = build_problems(specs);
        let configs: Vec<Config> = problems.iter().map(|p| Config::resolve(approach, p)).collect();
        let (operators, operators_preprocess_s) = preprocessed_operators(&problems, &configs)?;
        Ok(Bench {
            specs: specs.to_vec(),
            inputs: Inputs::generate(seed, &problems),
            outputs: problems.iter().map(|p| vec![0.0; p.num_lambdas]).collect(),
            configs,
            problems,
            operators,
            operators_preprocess_s,
        })
    }
}

/// The trace of each phase of a traced cycle, drained right after the phase.
pub struct PhaseTraces {
    pub setup: TraceReport,
    pub preprocess: TraceReport,
    pub iterate: TraceReport,
    pub apply: TraceReport,
}

/// Everything one cycle measured.
pub struct Cycle {
    pub build_s: f64,
    pub construct_s: f64,
    pub preprocess_s: f64,
    /// The solve right after preprocessing first, then the extra warm solves.
    pub iterate_s: Vec<f64>,
    pub solve_s: f64,
    pub apply_s: Vec<f64>,
    /// Cost-model seconds reported by preprocessing / by one `apply` (summed over problems).
    pub modelled_preprocess_s: f64,
    pub modelled_apply_s: f64,
    /// PCPG facts of the last solve (summed over problems where additive).
    pub iterations: usize,
    pub final_residual: f64,
    pub dual_apply_s: f64,
    pub traces: Option<PhaseTraces>,
    /// The warm solvers, for the per-layer probes.
    pub solvers: Vec<TotalFetiSolver>,
}

impl Cycle {
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.construct_s
    }
}

/// The samples of a run's cycles.  Only these are kept: each cycle's problems and
/// solvers are dropped before the next cycle builds its own, as a user's would be.
#[derive(Default)]
pub struct Samples {
    pub build: Vec<f64>,
    pub setup: Vec<f64>,
    pub preprocess: Vec<f64>,
    pub iterate: Vec<f64>,
    pub solve: Vec<f64>,
    pub apply: Vec<f64>,
    /// `dual_apply_time` of a solve ÷ that solve's wall.
    pub apply_share: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, c: &Cycle) {
        self.build.push(c.build_s);
        self.setup.push(c.setup_s());
        self.preprocess.push(c.preprocess_s);
        self.iterate.extend_from_slice(&c.iterate_s);
        self.solve.push(c.solve_s);
        self.apply.extend_from_slice(&c.apply_s);
        if let Some(last) = c.iterate_s.last() {
            self.apply_share.push(c.dual_apply_s / last);
        }
    }
}

/// One load case through `solve_many`.
pub fn solve_one(solver: &mut TotalFetiSolver, load: &LoadCase) -> feti_core::Result<FetiSolution> {
    let mut sols = solver.solve_many(std::slice::from_ref(load))?;
    Ok(sols.pop().expect("one load case yields one solution"))
}

fn solve_all(
    solvers: &mut [TotalFetiSolver],
    loads: &[LoadCase],
) -> feti_core::Result<Vec<FetiSolution>> {
    solvers.iter_mut().zip(loads).map(|(solver, load)| solve_one(solver, load)).collect()
}

impl Bench {
    /// Runs one cycle.  With `traced`, tracing must already be enabled; each phase's
    /// events are drained into [`PhaseTraces`].
    ///
    /// # Errors
    /// A library error (factorization failure, no convergence, device memory): the
    /// workloads are chosen so that none occurs, so the run is aborted.
    pub fn cycle(&mut self, traced: bool, tally: &mut Tally) -> feti_core::Result<Cycle> {
        let drain = || if traced { feti_trace::take_report() } else { TraceReport::default() };

        let (problems, build_s) = timed("bench.setup.build", || build_problems(&self.specs));
        let (solvers, construct_s) = timed("bench.setup.construct", || {
            problems
                .iter()
                .zip(&self.configs)
                .map(|(p, c)| c.solver(p))
                .collect::<feti_core::Result<Vec<_>>>()
        });
        let mut solvers = solvers?;
        let setup_trace = drain();

        let loads: Vec<LoadCase> = problems
            .iter()
            .zip(&self.inputs.scalings)
            .map(|(p, s)| rng::scaled_load(p, s))
            .collect();
        let mut check = |what: &str, sols: &[FetiSolution]| {
            for ((problem, load), sol) in problems.iter().zip(&loads).zip(sols) {
                tally.record(what, verify::check_solution(problem, load, sol));
            }
        };

        let cold = Instant::now();
        let (breakdowns, preprocess_s) = timed("bench.preprocess", || {
            solvers
                .iter_mut()
                .map(TotalFetiSolver::ensure_preprocessed)
                .collect::<feti_core::Result<Vec<TimeBreakdown>>>()
        });
        let modelled_preprocess_s = breakdowns?.iter().map(|t| t.gpu_seconds).sum();
        let preprocess_trace = drain();
        let (sols, first_s) = timed("bench.iterate", || solve_all(&mut solvers, &loads));
        let solve_s = cold.elapsed().as_secs_f64();
        let mut last = sols?;
        check("solve from cold", &last);
        let iterate_trace = drain();

        let mut iterate_s = vec![first_s];
        for _ in 1..WARM_SOLVES {
            let (sols, t) = timed("bench.iterate", || solve_all(&mut solvers, &loads));
            last = sols?;
            check("warm solve", &last);
            iterate_s.push(t);
            // The first solve's events are kept; later ones only repeat them.
            let _ = drain();
        }

        let mut apply_s = Vec::with_capacity(APPLIES);
        let mut modelled_apply_s = 0.0;
        for k in 0..APPLIES {
            let (breakdowns, t) = timed("bench.apply", || {
                self.operators
                    .iter_mut()
                    .zip(&self.inputs.dual_vectors)
                    .zip(&mut self.outputs)
                    .map(|((op, p), q)| op.apply(&p[k], q))
                    .collect::<Vec<TimeBreakdown>>()
            });
            std::hint::black_box(&self.outputs);
            apply_s.push(t);
            modelled_apply_s = breakdowns.iter().map(|t| t.gpu_seconds).sum();
        }
        let apply_trace = drain();

        Ok(Cycle {
            build_s,
            construct_s,
            preprocess_s,
            iterate_s,
            solve_s,
            apply_s,
            modelled_preprocess_s,
            modelled_apply_s,
            iterations: last.iter().map(|s| s.iterations).sum(),
            final_residual: last.iter().map(|s| s.final_residual).fold(0.0, f64::max),
            dual_apply_s: last.iter().map(|s| s.dual_apply_time.total_seconds).sum(),
            traces: traced.then_some(PhaseTraces {
                setup: setup_trace,
                preprocess: preprocess_trace,
                iterate: iterate_trace,
                apply: apply_trace,
            }),
            solvers,
        })
    }
}
