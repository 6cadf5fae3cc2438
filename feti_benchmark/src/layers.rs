//! The per-layer run (`--trace 1`): the same cycles with and without tracing, the
//! stack's spans rolled up under the benchmark's own phase spans, and direct probes
//! of each layer on the workload's own matrices.
//!
//! Probes run on one thread.  Those whose cost is cubic in the subdomain size — the
//! dense kernels of `feti-sparse` and `solver.solve_matrix_s` — run on the *first
//! subdomain of each problem*; every other probe sums over all subdomains.  Each
//! probe is repeated up to 11 times within its slice of the run (at least 3 times) and
//! reports the median.

use crate::direct::{preprocessed_operators, Bench, Cycle, PhaseTraces, Samples, APPLIES};
use crate::run::{cycles_for, sessions_for};
use crate::schema::Report;
use crate::service::{self, Session};
use crate::stats::{median, quantile};
use crate::traces::{self, counter, durations, unexplained_fraction};
use crate::verify::Tally;
use crate::workloads::{Config, Workload, PLANNER_ITERATIONS};
use feti_core::{DualOperatorApproach, ExplicitAssemblyParams, Planner, TotalFetiSolver};
use feti_decompose::{DecomposedProblem, Subdomain};
use feti_gpu::{cost, CudaGeneration, GpuSpec};
use feti_mesh::{assemble_subdomain, generate::generate, SubdomainSpec};
use feti_order::{compute_ordering, OrderingKind};
use feti_service::CacheOutcome;
use feti_solver::{CholeskyFactor, CholmodFactor, CholmodLike, FactorizationKind, SolverOptions};
use feti_sparse::{blas, ops, DenseMatrix, DiagKind, MemoryOrder, Side, Transpose, Triangle};
use feti_trace::TraceReport;
use rayon::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of the run spent on alternating untraced / traced cycles (and sessions);
/// the probes get the rest.
const CYCLE_SHARE: f64 = 0.4;
const PROBE_REPEATS: usize = 11;
/// Fewest calls a probe makes however little of the run is left: the first call of
/// anything is cold, and a median of three outvotes it.
const PROBE_MIN: usize = 3;
/// Number of probe groups the remaining time is divided among.
const PROBE_SLICES: f64 = 24.0;

/// Repeats `run` on fresh input from `input` (untimed) until the slice is used up or
/// `PROBE_REPEATS` samples exist; seconds per call.
fn probe_with<T>(
    slice: Duration,
    mut input: impl FnMut() -> T,
    mut run: impl FnMut(T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < PROBE_MIN || (samples.len() < PROBE_REPEATS && start.elapsed() < slice) {
        let x = input();
        let t = Instant::now();
        run(x);
        samples.push(t.elapsed().as_secs_f64());
    }
    samples
}

fn probe(slice: Duration, mut run: impl FnMut()) -> Vec<f64> {
    probe_with(slice, || (), |()| run())
}

fn all_subdomains(problems: &[Arc<DecomposedProblem>]) -> impl Iterator<Item = &Subdomain> + Clone {
    problems.iter().flat_map(|p| &p.subdomains)
}

fn first_subdomains(problems: &[Arc<DecomposedProblem>]) -> impl Iterator<Item = &Subdomain> {
    problems.iter().map(|p| &p.subdomains[0])
}

fn factorize_all(
    symbolics: &[CholmodLike],
    problems: &[Arc<DecomposedProblem>],
) -> Vec<CholmodFactor> {
    symbolics
        .iter()
        .zip(all_subdomains(problems))
        .map(|(sym, sd)| sym.factorize(&sd.k_reg).expect("the regularized stiffness matrix is SPD"))
        .collect()
}

/// The per-layer run.
///
/// # Errors
/// A library error; verification failures are tallied instead.
pub fn per_layer(
    workload: &Workload,
    seed: u64,
    threads: usize,
    nproc: usize,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Report, String> {
    let run_start = Instant::now();
    let mut bench = Bench::prepare(workload, seed).map_err(|e| e.to_string())?;
    feti_core::install_trace_hooks();
    let mut r = Report::new(true);
    r.set("run.threads", threads as f64);
    r.set("run.nproc", nproc as f64);
    let supernodal = FactorizationKind::default_kind() == FactorizationKind::Supernodal;
    r.set("run.supernodal", f64::from(u8::from(supernodal)));

    // ---- Cycles: untraced and traced alternate, so drift hits both alike. ----------
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    plain.preprocess.push(bench.operators_preprocess_s);
    let mut first_traces: Option<PhaseTraces> = None;
    let mut last: Option<Cycle> = None;
    let direct_share = if workload.service { 0.5 * CYCLE_SHARE } else { CYCLE_SHARE };
    cycles_for(Duration::from_secs_f64(seconds * direct_share), 1, || {
        last = None;
        plain.push(&bench.cycle(false, tally)?);
        feti_trace::clear();
        feti_trace::set_enabled(true);
        let cycle = bench.cycle(true, tally);
        feti_trace::set_enabled(false);
        let mut cycle = cycle?;
        traced.push(&cycle);
        let traces = cycle.traces.take();
        if first_traces.is_none() {
            first_traces = traces;
        }
        last = Some(cycle);
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    let last = last.expect("at least one cycle ran");
    let t = first_traces.expect("the first traced cycle recorded its phases");

    for (name, a, b) in [
        ("setup_s", &traced.setup, &plain.setup),
        ("preprocess_s", &traced.preprocess, &plain.preprocess),
        ("apply_s", &traced.apply, &plain.apply),
        ("iterate_s", &traced.iterate, &plain.iterate),
        ("solve_s", &traced.solve, &plain.solve),
    ] {
        r.set(&format!("trace.overhead_frac.{name}"), median(a) / median(b) - 1.0);
    }
    r.set(
        "closure.solve_gap_s",
        median(&plain.solve) - (median(&plain.preprocess) + median(&plain.iterate)),
    );
    r.add("decompose.build_s", &plain.build);
    r.set("dualop.apply_p95_s", quantile(&plain.apply, 0.95));
    r.set("modelled_gpu_preprocess_s", last.modelled_preprocess_s);
    r.set("modelled_gpu_apply_s", last.modelled_apply_s);
    r.set("pcpg.iterations", last.iterations as f64);
    r.set("pcpg.final_residual", last.final_residual);
    r.add("pcpg.apply_share", &plain.apply_share);

    // ---- The first traced cycle, phase by phase. ---------------------------------------
    eprintln!("# traced cycle of {}", workload.name);
    for (phase, report) in [
        ("setup", &t.setup),
        ("preprocess", &t.preprocess),
        ("iterate", &t.iterate),
        ("apply", &t.apply),
    ] {
        traces::print_self_times(phase, report);
    }
    let phases = [&t.setup, &t.preprocess, &t.iterate, &t.apply];
    let factorize_span_s: f64 = durations(&t.preprocess, traces::is_factorize).iter().sum();
    r.set("dualop.factorize_span_s", factorize_span_s);
    r.set(
        "trace.unexplained_frac.preprocess",
        unexplained_fraction(&t.preprocess, "bench.preprocess", traces::is_factorize),
    );
    r.set(
        "trace.unexplained_frac.iterate",
        unexplained_fraction(&t.iterate, "bench.iterate", traces::is_pcpg_iter),
    );
    r.set(
        "trace.unexplained_frac.apply",
        unexplained_fraction(&t.apply, "bench.apply", |n| n == "apply"),
    );
    r.add("pcpg.iter_s", &durations(&t.iterate, traces::is_pcpg_iter));
    // One preprocessing plus one application: a fixed amount of work, so the count repeats.
    r.set(
        "gpu.device_ops",
        (t.preprocess.device_ops.len() + t.apply.device_ops.len() / APPLIES) as f64,
    );
    let regions =
        |report: &TraceReport, kind: &str| counter(report, &format!("rayon.region.{kind}"));
    let apply_regions: u64 =
        ["inline", "persistent", "spawned"].iter().map(|k| regions(&t.apply, k)).sum();
    r.set("pool.regions_per_apply", apply_regions as f64 / APPLIES as f64);
    r.set("pool.inline_regions", phases.iter().map(|p| regions(p, "inline")).sum::<u64>() as f64);
    r.set(
        "pool.persistent_regions",
        phases.iter().map(|p| regions(p, "persistent")).sum::<u64>() as f64,
    );
    r.set(
        "trace.events",
        phases.iter().map(|p| p.spans.len() + p.device_ops.len()).sum::<usize>() as f64,
    );
    r.set("trace.dropped_events", phases.iter().map(|p| p.dropped_events).sum::<u64>() as f64);

    // ---- The service, where the workload has one. ----------------------------------------
    service_layer(workload, seed, threads, seconds, &mut r, tally);

    // ---- Probes share what is left of the run. ------------------------------------------------
    let left = (seconds - run_start.elapsed().as_secs_f64()).max(0.0);
    let slice = Duration::from_secs_f64(left / PROBE_SLICES);
    let problems = bench.problems.clone();
    // The factor of each problem's first subdomain, shared by the first-subdomain probes.
    let first_factors: Vec<CholmodFactor> = first_subdomains(&problems)
        .map(|sd| {
            CholmodLike::analyze(&sd.k_reg, SolverOptions::default())
                .factorize(&sd.k_reg)
                .expect("the regularized stiffness matrix is SPD")
        })
        .collect();
    mesh_layer(workload, &problems, slice, &mut r);
    let factor_only_s = solver_layer(&problems, &first_factors, slice, &mut r);
    // Thread-seconds of the per-subdomain preprocessing tasks beyond the numeric
    // factorization itself: the assembly of F̃ᵢ (0 for implicit approaches).
    r.set("dualop.assemble_s", (factorize_span_s - factor_only_s).max(0.0));
    sparse_layer(&problems, &first_factors, &bench.inputs.dual_vectors, slice, &mut r);
    gpu_layer(&problems, &bench.configs, &first_factors, &mut r);
    dualop_layer(&mut bench, (threads, nproc), slice, &plain, &mut r).map_err(|e| e.to_string())?;
    pcpg_layer(&last.solvers, &bench.inputs.dual_vectors, slice, &mut r);
    planner_layer(&problems, &bench.configs, slice, &plain, &mut r);
    pool_layer(nproc, slice, &mut r);
    Ok(r)
}

fn service_layer(
    workload: &Workload,
    seed: u64,
    threads: usize,
    seconds: f64,
    r: &mut Report,
    tally: &mut Tally,
) {
    let sessions: Vec<Session> = if workload.service {
        let budget = Duration::from_secs_f64(seconds * 0.5 * CYCLE_SHARE);
        sessions_for(workload, seed, threads, budget, true, tally)
    } else {
        Vec::new()
    };
    let (untraced, traced): (Vec<Session>, Vec<Session>) =
        sessions.into_iter().partition(|s| s.trace.is_none());
    let n = workload.specs.len();
    let jobs = || untraced.iter().flat_map(|s| &s.jobs);
    let warm: Vec<f64> =
        jobs().filter(|j| j.cache == CacheOutcome::Hit).map(|j| j.latency_s).collect();
    r.set(
        "service.job_latency_cold_s",
        service::latency_by_outcome(&untraced, CacheOutcome::Miss, n).0,
    );
    r.set(
        "service.job_latency_warm_s",
        service::latency_by_outcome(&untraced, CacheOutcome::Hit, n).0,
    );
    r.set("service.job_latency_warm_p95_s", quantile(&warm, 0.95));
    r.add("service.jobs_per_s", &untraced.iter().map(Session::jobs_per_s).collect::<Vec<_>>());
    r.add("service.overhead_s", &jobs().map(|j| j.overhead_s).collect::<Vec<_>>());
    let spans = |name: &'static str| -> Vec<f64> {
        traced
            .iter()
            .filter_map(|s| s.trace.as_ref())
            .flat_map(|t| durations(t, |n| n == name))
            .collect()
    };
    r.add("service.queue_wait_s", &spans("queue_wait"));
    r.add("service.admit_s", &spans("admit"));
    let every = || untraced.iter().chain(&traced);
    let hits: usize = every().map(|s| s.stats.cache_hits).sum();
    let misses: usize = every().map(|s| s.stats.cache_misses).sum();
    r.set(
        "service.cache_hit_ratio",
        if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 },
    );
    r.set("service.evictions", every().map(|s| s.stats.cache_evictions).sum::<usize>() as f64);
    r.set("service.jobs_refused", every().map(|s| s.refused).sum::<usize>() as f64);
}

fn mesh_layer(
    workload: &Workload,
    problems: &[Arc<DecomposedProblem>],
    slice: Duration,
    r: &mut Report,
) {
    r.add(
        "mesh.generate_s",
        &probe(slice, || {
            for spec in &workload.specs {
                // Generation cost does not depend on where the subdomain sits.
                let sub = SubdomainSpec {
                    dim: spec.dim,
                    order: spec.order,
                    elements_per_side: spec.elements_per_subdomain_side,
                    origin_elements: [0, 0, 0],
                    cell_size: 1.0
                        / (spec.subdomains_per_side * spec.elements_per_subdomain_side) as f64,
                };
                for _ in 0..spec.num_subdomains() {
                    black_box(generate(&sub));
                }
            }
        }),
    );
    r.add(
        "mesh.assemble_s",
        &probe(slice, || {
            for p in problems {
                for sd in &p.subdomains {
                    black_box(assemble_subdomain(&sd.mesh, p.spec.physics));
                }
            }
        }),
    );
    r.set(
        "mesh.elements",
        all_subdomains(problems).map(|sd| sd.mesh.num_elements()).sum::<usize>() as f64,
    );
    r.set("decompose.num_lambdas", problems.iter().map(|p| p.num_lambdas).sum::<usize>() as f64);
    let boundary: usize = all_subdomains(problems).map(|sd| sd.gluing.num_nonzero_cols()).sum();
    let dofs: usize = all_subdomains(problems).map(Subdomain::num_dofs).sum();
    r.set("decompose.boundary_fraction", boundary as f64 / dofs as f64);
}

/// `feti-order` and `feti-solver`; returns the seconds the numeric factorization of
/// every subdomain takes on one thread.
fn solver_layer(
    problems: &[Arc<DecomposedProblem>],
    first_factors: &[CholmodFactor],
    slice: Duration,
    r: &mut Report,
) -> f64 {
    let subdomains = || all_subdomains(problems);
    r.add(
        "order.nd_s",
        &probe(slice, || {
            for sd in subdomains() {
                black_box(compute_ordering(&sd.k_reg, OrderingKind::NestedDissection));
            }
        }),
    );
    let options = |factorization| SolverOptions { factorization, ..SolverOptions::default() };
    let analyze = |kind| -> Vec<CholmodLike> {
        subdomains().map(|sd| CholmodLike::analyze(&sd.k_reg, options(kind))).collect()
    };
    r.add(
        "solver.analyze_s",
        &probe(slice, || drop(black_box(analyze(FactorizationKind::default_kind())))),
    );

    let simplicial = analyze(FactorizationKind::Simplicial);
    let supernodal = analyze(FactorizationKind::Supernodal);
    let t_simplicial = probe(slice, || drop(black_box(factorize_all(&simplicial, problems))));
    let t_supernodal = probe(slice, || drop(black_box(factorize_all(&supernodal, problems))));
    r.add("solver.factorize_simplicial_s", &t_simplicial);
    r.add("solver.factorize_supernodal_s", &t_supernodal);

    let factor_nnz: usize = simplicial.iter().map(CholmodLike::factor_nnz).sum();
    // Stored entries of the lower triangle of K, diagonal included.
    let k_nnz: usize = subdomains().map(|sd| (sd.k_reg.nnz() + sd.num_dofs()) / 2).sum();
    r.set("solver.factor_nnz", factor_nnz as f64);
    r.set("order.fill_ratio", factor_nnz as f64 / k_nnz as f64);
    let flops: f64 = subdomains()
        .map(|sd| {
            CholeskyFactor::new(&sd.k_reg, &SolverOptions::default())
                .expect("the regularized stiffness matrix is SPD")
                .flops()
        })
        .sum();
    r.set("solver.factor_flops", flops);
    r.set("solver.factor_gflops", flops / median(&t_simplicial) / 1e9);

    let factors = factorize_all(&simplicial, problems);
    r.add(
        "solver.solve_s",
        &probe(slice, || {
            for (factor, sd) in factors.iter().zip(subdomains()) {
                black_box(factor.solve(&sd.assembled.load));
            }
        }),
    );
    // The explicit CPU assembly's multi-RHS solve: B̃ᵀ dense, all local multipliers.
    let rhs: Vec<DenseMatrix> = first_subdomains(problems)
        .map(|sd| sd.gluing.transposed().to_dense(MemoryOrder::ColMajor))
        .collect();
    r.add(
        "solver.solve_matrix_s",
        &probe(slice, || {
            for (factor, bt) in first_factors.iter().zip(&rhs) {
                black_box(factor.solve_matrix(bt));
            }
        }),
    );
    median(&t_simplicial)
}

/// The dense and sparse kernels at the shapes `(n, nl, nb)` of each problem's first
/// subdomain, following the explicit assembly: `L X = P B̃ᵀ`, then `F̃ = XᵀX`.
fn sparse_layer(
    problems: &[Arc<DecomposedProblem>],
    first_factors: &[CholmodFactor],
    dual_vectors: &[Vec<Vec<f64>>],
    slice: Duration,
    r: &mut Report,
) {
    struct Shapes {
        l: DenseMatrix,
        bp: feti_sparse::CsrMatrix,
        rhs: DenseMatrix,
        solved: DenseMatrix,
        f: DenseMatrix,
        p: Vec<f64>,
        p8: DenseMatrix,
    }
    let shapes: Vec<Shapes> = first_subdomains(problems)
        .zip(first_factors)
        .zip(dual_vectors)
        .map(|((sd, factor), duals)| {
            let (l_csc, perm) = factor.extract_factor();
            let l = l_csc.to_csr().to_dense(MemoryOrder::RowMajor);
            let bp = perm.permute_cols(&sd.gluing);
            let rhs = bp.transposed().to_dense(MemoryOrder::ColMajor);
            let mut solved = rhs.clone();
            blas::trsm(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &l, &mut solved)
                .expect("a Cholesky factor has a nonzero diagonal");
            let nl = sd.num_local_lambdas();
            let mut f = DenseMatrix::zeros(nl, nl, MemoryOrder::RowMajor);
            blas::syrk(Triangle::Upper, Transpose::Yes, 1.0, &solved, 0.0, &mut f);
            f.symmetrize_from(Triangle::Upper);
            let p: Vec<f64> = sd.lambda_map.iter().map(|&g| duals[0][g]).collect();
            let mut p8 = DenseMatrix::zeros(nl, 8, MemoryOrder::ColMajor);
            for (j, dual) in duals.iter().take(8).enumerate() {
                for (i, &g) in sd.lambda_map.iter().enumerate() {
                    p8.set(i, j, dual[g]);
                }
            }
            Shapes { l, bp, rhs, solved, f, p, p8 }
        })
        .collect();

    type Trsm = fn(
        Triangle,
        Transpose,
        DiagKind,
        f64,
        &DenseMatrix,
        &mut DenseMatrix,
    ) -> feti_sparse::Result<()>;
    for (name, kernel) in [
        ("sparse.trsm_s", blas::trsm as Trsm),
        ("sparse.sparse_rhs_trsm_s", blas::sparse_rhs_trsm as Trsm),
    ] {
        let samples = probe_with(
            slice,
            || shapes.iter().map(|s| s.rhs.clone()).collect::<Vec<_>>(),
            |mut xs| {
                for (s, x) in shapes.iter().zip(&mut xs) {
                    kernel(Triangle::Lower, Transpose::No, DiagKind::NonUnit, 1.0, &s.l, x)
                        .expect("a Cholesky factor has a nonzero diagonal");
                }
                black_box(xs);
            },
        );
        r.add(name, &samples);
    }

    type Syrk = fn(Triangle, Transpose, f64, &DenseMatrix, f64, &mut DenseMatrix);
    let mut outs: Vec<DenseMatrix> = shapes.iter().map(|s| s.f.clone()).collect();
    for (name, kernel) in [
        ("sparse.syrk_s", blas::syrk as Syrk),
        ("sparse.boundary_syrk_s", blas::boundary_syrk as Syrk),
    ] {
        let samples = probe(slice, || {
            for (s, f) in shapes.iter().zip(&mut outs) {
                kernel(Triangle::Upper, Transpose::Yes, 1.0, &s.solved, 0.0, f);
            }
        });
        if name == "sparse.syrk_s" {
            // Computed, not counted: one multiply-add per stored output entry and row of X.
            let flops: f64 = shapes
                .iter()
                .map(|s| (s.f.nrows() * (s.f.nrows() + 1) * s.solved.nrows()) as f64)
                .sum();
            r.set("sparse.syrk_gflops", flops / median(&samples) / 1e9);
        }
        r.add(name, &samples);
    }

    let mut qs: Vec<Vec<f64>> = shapes.iter().map(|s| vec![0.0; s.p.len()]).collect();
    let symv = probe(slice, || {
        for (s, q) in shapes.iter().zip(&mut qs) {
            blas::symv(Triangle::Upper, 1.0, &s.f, &s.p, 0.0, q);
        }
        black_box(&qs);
    });
    // Computed bytes: the stored triangle streamed once; cache misses are not counted.
    let bytes: f64 = shapes.iter().map(|s| (s.f.nrows() * (s.f.nrows() + 1) / 2 * 8) as f64).sum();
    r.set("sparse.symv_gbps", bytes / median(&symv) / 1e9);
    r.add("sparse.symv_s", &symv);

    let mut q8s: Vec<DenseMatrix> =
        shapes.iter().map(|s| DenseMatrix::zeros(s.p.len(), 8, MemoryOrder::ColMajor)).collect();
    r.add(
        "sparse.symm_s",
        &probe(slice, || {
            for (s, q8) in shapes.iter().zip(&mut q8s) {
                blas::symm(Side::Left, Triangle::Upper, 1.0, &s.f, &s.p8, 0.0, q8);
            }
        }),
    );
    r.add(
        "sparse.spmm_s",
        &probe(slice, || {
            for (s, f) in shapes.iter().zip(&mut outs) {
                ops::spmm_csr_dense(1.0, &s.bp, Transpose::No, &s.solved, 0.0, f);
            }
        }),
    );
    let mut ys: Vec<Vec<f64>> =
        first_subdomains(problems).map(|sd| vec![0.0; sd.num_dofs()]).collect();
    r.add(
        "sparse.spmv_s",
        &probe(slice, || {
            for (sd, y) in first_subdomains(problems).zip(&mut ys) {
                ops::spmv_csr(1.0, &sd.k_reg, Transpose::No, &sd.assembled.load, 0.0, y);
            }
            black_box(&ys);
        }),
    );
    r.set("sparse.block_size", blas::kernel_block_size() as f64);
}

/// Cost-model seconds at the first subdomain's shapes: deterministic.
fn gpu_layer(
    problems: &[Arc<DecomposedProblem>],
    configs: &[Config],
    first_factors: &[CholmodFactor],
    r: &mut Report,
) {
    let spec = GpuSpec::a100_40gb();
    let shape = || first_subdomains(problems).map(|sd| (sd.num_dofs(), sd.num_local_lambdas()));
    r.set(
        "gpu.modelled_trsm_s",
        shape().map(|(n, nl)| cost::dense_trsm(&spec, n, nl).seconds).sum(),
    );
    r.set("gpu.modelled_syrk_s", shape().map(|(n, nl)| cost::syrk(&spec, nl, n).seconds).sum());
    r.set("gpu.modelled_symv_s", shape().map(|(_, nl)| cost::symv(&spec, nl).seconds).sum());
    r.set(
        "gpu.modelled_transfer_s",
        first_subdomains(problems)
            .zip(first_factors)
            .map(|(sd, factor)| {
                cost::transfer(&spec, factor.nnz() * 12)
                    .plus(cost::transfer(&spec, sd.gluing.bytes()))
                    .seconds
            })
            .sum(),
    );
    r.set(
        "gpu.persistent_bytes",
        problems
            .iter()
            .zip(configs)
            .map(|(p, c)| {
                let generation = c.approach.generation().unwrap_or(CudaGeneration::Legacy);
                Planner::new(p, spec).persistent_device_bytes(c.approach, generation)
            })
            .sum::<usize>() as f64,
    );
}

fn dualop_layer(
    bench: &mut Bench,
    (threads, nproc): (usize, usize),
    slice: Duration,
    plain: &Samples,
    r: &mut Report,
) -> feti_core::Result<()> {
    let (problems, configs) = (&bench.problems, &bench.configs);
    r.add(
        "dualop.symbolic_s",
        &probe(slice, || {
            for (p, c) in problems.iter().zip(configs) {
                drop(black_box(c.operator(p).expect("the operator was built before")));
            }
        }),
    );

    // The batched path: 8 columns at once, per column.
    let batches: Vec<DenseMatrix> = problems
        .iter()
        .zip(&bench.inputs.dual_vectors)
        .map(|(p, duals)| {
            let mut batch = DenseMatrix::zeros(p.num_lambdas, 8, MemoryOrder::ColMajor);
            for (j, dual) in duals.iter().take(8).enumerate() {
                for (i, v) in dual.iter().enumerate() {
                    batch.set(i, j, *v);
                }
            }
            batch
        })
        .collect();
    let mut outs = batches.clone();
    let operators = &mut bench.operators;
    let many = probe(slice, || {
        for ((op, p), q) in operators.iter_mut().zip(&batches).zip(&mut outs) {
            op.apply_many(p, q);
        }
    });
    r.add("dualop.apply_many_col_s", &many.iter().map(|t| t / 8.0).collect::<Vec<_>>());

    // The paper's headline: after how many applications does explicit assembly pay
    // for itself?  Both CHOLMOD-backed CPU approaches on this workload's problems;
    // the workload's own approach is not measured twice.
    let preprocess_with = |approach: Option<DualOperatorApproach>| {
        let configs: Vec<Config> = configs
            .iter()
            .map(|c| approach.map_or(*c, |a| Config { approach: a, params: None, ..*c }))
            .collect();
        preprocessed_operators(problems, &configs)
    };
    let measure = |approach| -> feti_core::Result<(f64, f64)> {
        if configs.iter().all(|c| c.approach == approach) {
            return Ok((median(&plain.preprocess), median(&plain.apply)));
        }
        let (mut ops, preprocess_s) = preprocess_with(Some(approach))?;
        let mut qs: Vec<Vec<f64>> = problems.iter().map(|p| vec![0.0; p.num_lambdas]).collect();
        let apply = probe(slice, || {
            for ((op, duals), q) in ops.iter_mut().zip(&bench.inputs.dual_vectors).zip(&mut qs) {
                op.apply(&duals[0], q);
            }
        });
        Ok((preprocess_s, median(&apply)))
    };
    let (pre_implicit, apply_implicit) = measure(DualOperatorApproach::ImplicitCholmod)?;
    let (pre_explicit, apply_explicit) = measure(DualOperatorApproach::ExplicitCholmod)?;
    let saved_per_apply = apply_implicit - apply_explicit;
    // 0 where explicit application is not faster: it never amortizes.
    r.set(
        "dualop.amortization_iters",
        if saved_per_apply > 0.0 {
            ((pre_explicit - pre_implicit) / saved_per_apply).max(0.0)
        } else {
            0.0
        },
    );

    // The plain single-threaded baseline of the same preprocessing, against every
    // core of the machine (which the timed runs do not use: see `host_threads`).
    let on_threads = |n: usize| -> feti_core::Result<f64> {
        if n == threads {
            return Ok(median(&plain.preprocess));
        }
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("the shimmed pool builder never fails");
        pool.install(|| {
            // Untimed first pass: a fresh worker thread faults in its own allocator
            // arena the first time it factorizes, which is the pool's cost, not the layer's.
            preprocess_with(None)?;
            preprocess_with(None).map(|(_, seconds)| seconds)
        })
    };
    let one_thread = on_threads(1)?;
    r.set("dualop.preprocess_1t_s", one_thread);
    r.set("dualop.preprocess_speedup", one_thread / on_threads(nproc)?);

    Ok(())
}

fn pcpg_layer(
    solvers: &[TotalFetiSolver],
    dual_vectors: &[Vec<Vec<f64>>],
    slice: Duration,
    r: &mut Report,
) {
    r.add(
        "pcpg.project_s",
        &probe(slice, || {
            for (solver, duals) in solvers.iter().zip(dual_vectors) {
                black_box(solver.project(&duals[0]));
            }
        }),
    );
    r.add(
        "pcpg.precondition_s",
        &probe(slice, || {
            for (solver, duals) in solvers.iter().zip(dual_vectors) {
                black_box(solver.precondition(&duals[0]));
            }
        }),
    );
}

fn planner_layer(
    problems: &[Arc<DecomposedProblem>],
    configs: &[Config],
    slice: Duration,
    plain: &Samples,
    r: &mut Report,
) {
    let planners: Vec<Planner> =
        problems.iter().map(|p| Planner::new(p, GpuSpec::a100_40gb())).collect();
    r.add(
        "planner.plan_s",
        &probe(slice, || {
            for planner in &planners {
                black_box(planner.plan_auto(PLANNER_ITERATIONS));
            }
        }),
    );
    r.set(
        "planner.candidates",
        planners.iter().map(|p| p.plan_auto(PLANNER_ITERATIONS).candidates.len()).sum::<usize>()
            as f64,
    );
    // Predicted (cost model, both sides labelled) over measured, for what actually ran.
    let (mut preprocess, mut apply) = (0.0, 0.0);
    for ((planner, p), c) in planners.iter().zip(problems).zip(configs) {
        let params = c.params.unwrap_or_else(|| {
            ExplicitAssemblyParams::auto_configure(
                c.approach.generation().unwrap_or(CudaGeneration::Legacy),
                p.spec.dim,
                p.spec.dofs_per_subdomain(),
            )
        });
        let estimate = planner.estimate_with_factorization(c.approach, params, c.factorization);
        preprocess += estimate.preprocessing.total_seconds;
        apply += estimate.apply.total_seconds;
    }
    r.set("planner.pred_over_meas_preprocess", preprocess / median(&plain.preprocess));
    r.set("planner.pred_over_meas_apply", apply / median(&plain.apply));
}

/// Entering and leaving a 64-item region that is dispatched to a pool.  The timed
/// runs may be pinned to one thread, where every region runs inline; this probe uses
/// a pool of its own with every core (at least two threads) so that dispatch, parking
/// and wake-up are what it measures.
fn pool_layer(nproc: usize, slice: Duration, r: &mut Report) {
    let items: Vec<usize> = (0..64).collect();
    const REGIONS: usize = 200;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(nproc.max(2))
        .build()
        .expect("the shimmed pool builder never fails");
    let samples = pool.install(|| {
        probe(slice, || {
            for _ in 0..REGIONS {
                items.par_iter().with_max_len(1).for_each(|i| {
                    black_box(i);
                });
            }
        })
    });
    r.add("pool.region_entry_s", &samples.iter().map(|t| t / REGIONS as f64).collect::<Vec<_>>());
}
