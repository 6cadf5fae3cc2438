//! Trace conformance suite: the observability layer must observe, never perturb.
//!
//! Three contracts are pinned here:
//!
//! 1. **Bit identity** — with tracing enabled, every dual-operator approach
//!    produces bit-for-bit the same `F·p` action, the same solution vector, and
//!    the same PCPG iteration count as with tracing disabled.  Tracing records
//!    wall timestamps around the numerics; it must never reorder or reformulate
//!    them.
//! 2. **Exporter round trip** — the Chrome trace-event document produced from a
//!    real solve parses back through the `feti-bench` JSON parser with both the
//!    measured-host and modelled-device process lanes intact.
//! 3. **Concurrent spans** — nested spans opened concurrently from the persistent
//!    worker pool (4 threads, nested parallel regions) land on per-thread stacks:
//!    no events are lost or dropped, every span carries its worker's label, and
//!    nesting depths are consistent.
//!
//! The trace enable flag is process-global, so every test here serializes on one
//! gate mutex and restores the disabled state (draining the buffers) on exit —
//! including on assertion panics — so the rest of the test binary never observes
//! tracing mid-toggle.

mod common;

use common::problems;
use feti_bench::json::{parse, Value};
use feti_core::{
    build_dual_operator, DualOperatorApproach, ExplicitAssemblyParams, Path, PcpgOptions,
    ScatterGather, TotalFetiSolver,
};
use feti_decompose::DecomposedProblem;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Serializes every trace-toggling test and guarantees the flag ends up disabled
/// (with the buffers drained) no matter how the test exits.
struct TraceGate(#[allow(dead_code)] MutexGuard<'static, ()>);

fn trace_gate() -> TraceGate {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match GATE.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        // A previous test panicked while holding the gate; the RAII drop below
        // already restored the disabled state, so the poison carries no meaning.
        Err(poisoned) => poisoned.into_inner(),
    };
    feti_trace::set_enabled(false);
    let _ = feti_trace::take_report();
    TraceGate(guard)
}

impl Drop for TraceGate {
    fn drop(&mut self) {
        feti_trace::set_enabled(false);
        let _ = feti_trace::take_report();
    }
}

/// One `F·p` action and one full PCPG solve of one approach, as raw bits.
fn run_approach(
    problem: &Arc<DecomposedProblem>,
    approach: DualOperatorApproach,
) -> (Vec<u64>, Vec<u64>, usize) {
    let nl = problem.num_lambdas;
    let p: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.37).sin() + 0.25).collect();
    let mut op = build_dual_operator(approach, problem, None).unwrap();
    op.preprocess().unwrap();
    let mut q = vec![0.0; nl];
    op.apply(&p, &mut q);
    let mut solver =
        TotalFetiSolver::new(Arc::clone(problem), approach, None, PcpgOptions::default()).unwrap();
    let sol = solver.solve().unwrap();
    (
        q.iter().map(|v| v.to_bits()).collect(),
        sol.global_solution.iter().map(|v| v.to_bits()).collect(),
        sol.iterations,
    )
}

/// Contract 1: tracing on vs off is bit-identical for every approach on every
/// conformance problem — same `F·p` bits, same solution bits, same iteration count.
#[test]
fn tracing_is_bit_identical_across_all_approaches() {
    let _gate = trace_gate();
    for (name, spec) in problems() {
        let problem = Arc::new(DecomposedProblem::build(&spec));
        for approach in DualOperatorApproach::all() {
            feti_trace::set_enabled(false);
            let off = run_approach(&problem, approach);
            feti_trace::set_enabled(true);
            let on = run_approach(&problem, approach);
            let report = feti_trace::take_report();
            feti_trace::set_enabled(false);
            assert_eq!(off.0, on.0, "{name} {approach:?}: F·p bits differ under tracing");
            assert_eq!(off.1, on.1, "{name} {approach:?}: solution bits differ under tracing");
            assert_eq!(off.2, on.2, "{name} {approach:?}: iteration count differs under tracing");
            // Sanity: the traced run really was traced.
            assert!(
                report.spans.iter().any(|s| s.name == "preprocess"),
                "{name} {approach:?}: traced run recorded no preprocess span"
            );
            assert!(
                report.spans.iter().any(|s| s.name.starts_with("pcpg_iter[")),
                "{name} {approach:?}: traced run recorded no PCPG iteration spans"
            );
        }
    }
}

/// Assembly is visible on its own: every explicit approach records one
/// `assemble[sd=i]` span per subdomain — around the host assembly, or around the walk
/// of the device program and the host numerics that stand in for its kernels — each
/// inside the `factorize[sd=i]` span of the same subdomain (whose name and extent stay
/// what they were), and no implicit approach records any.
#[test]
fn host_assembly_spans_nest_inside_their_factorize_spans() {
    let _gate = trace_gate();
    let problem = DecomposedProblem::build(&common::heat_3d());
    for approach in DualOperatorApproach::all() {
        let mut op = build_dual_operator(approach, &problem, None).unwrap();
        feti_trace::set_enabled(true);
        op.preprocess().unwrap();
        let report = feti_trace::take_report();
        feti_trace::set_enabled(false);
        let named = |name: String| report.spans.iter().filter(move |s| s.name == name);
        for i in 0..problem.subdomains.len() {
            let factorize: Vec<_> = named(format!("factorize[sd={i}]")).collect();
            let assemble: Vec<_> = named(format!("assemble[sd={i}]")).collect();
            assert_eq!(factorize.len(), 1, "{approach:?}: factorize[sd={i}] spans");
            assert_eq!(assemble.len(), usize::from(approach.is_explicit()), "{approach:?}: sd {i}");
            for inner in assemble {
                let outer = factorize[0];
                assert_eq!(inner.thread, outer.thread, "{approach:?}: sd {i} changed thread");
                assert_eq!(inner.depth, outer.depth + 1, "{approach:?}: sd {i} nesting depth");
                assert!(
                    inner.start_us >= outer.start_us
                        && inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us,
                    "{approach:?}: assemble[sd={i}] leaves factorize[sd={i}]"
                );
            }
        }
    }
}

/// The assembly says where it went: inside every `assemble[sd=i]` span — the host body
/// of `expl cholmod` and `expl hybrid` and the walk of the device program of the four
/// device-assembled approaches, on either path, all of which assemble through that one
/// body — lie one `forward[sd=i]` span and one `gram[sd=i]` span, one level deeper on
/// the same thread.
#[test]
fn forward_and_gram_spans_nest_inside_their_assemble_spans() {
    use DualOperatorApproach as A;
    let _gate = trace_gate();
    let problem = DecomposedProblem::build(&common::heat_3d());
    let on = |path| Some(ExplicitAssemblyParams { path, ..Default::default() });
    let cases = [
        (A::ExplicitHybrid, None),
        (A::ExplicitCholmod, None),
        (A::ExplicitGpuLegacy, on(Path::Syrk)),
        (A::ExplicitGpuModern, on(Path::Trsm)),
        (A::ExplicitSparseGpuLegacy, on(Path::Syrk)),
        (A::ExplicitSparseGpuModern, on(Path::Trsm)),
    ];
    for (approach, params) in cases {
        let mut op = build_dual_operator(approach, &problem, params).unwrap();
        feti_trace::set_enabled(true);
        op.preprocess().unwrap();
        let report = feti_trace::take_report();
        feti_trace::set_enabled(false);
        let named = |name: String| report.spans.iter().filter(move |s| s.name == name);
        for i in 0..problem.subdomains.len() {
            let assemble: Vec<_> = named(format!("assemble[sd={i}]")).collect();
            assert_eq!(assemble.len(), 1, "{approach:?}: assemble[sd={i}] spans");
            let outer = assemble[0];
            for child in ["forward", "gram"] {
                let spans: Vec<_> = named(format!("{child}[sd={i}]")).collect();
                assert_eq!(spans.len(), 1, "{approach:?}: {child}[sd={i}] spans");
                for inner in spans {
                    assert_eq!(inner.thread, outer.thread, "{approach:?}: {child}[sd={i}]");
                    assert_eq!(inner.depth, outer.depth + 1, "{approach:?}: {child}[sd={i}]");
                    assert!(
                        inner.start_us >= outer.start_us
                            && inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us,
                        "{approach:?}: {child}[sd={i}] leaves assemble[sd={i}]"
                    );
                }
            }
        }
    }
}

/// One symbolic analysis per distinct `k_reg` pattern and ordering, read off the trace:
/// the nine subdomains of the elasticity 3×3 problem share one pattern, the eight of
/// heat 3D quadratic 2×2×2 × 3 have four.  An operator analyses them under its own
/// ordering (one `analyze[<ordering>]` span each), a planner under both orderings the
/// approaches use, and a solver built from a plan analyses nothing: it factorizes over
/// the analyses the plan priced.
#[test]
fn symbolic_analyses_are_counted_per_pattern_and_a_plan_hands_its_own_over() {
    use feti_solver::OrderingKind::{MinimumDegree, NestedDissection};
    let _gate = trace_gate();
    // (analyses, subdomains, `analyze[MinimumDegree]` spans, `analyze[NestedDissection]`
    // spans) of one run.
    let counted = |run: &mut dyn FnMut()| {
        feti_trace::set_enabled(true);
        run();
        let report = feti_trace::take_report();
        feti_trace::set_enabled(false);
        let counter = |name: &str| {
            report.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, value)| *value)
        };
        let spans = |ordering| {
            let name = format!("analyze[{ordering:?}]");
            report.spans.iter().filter(|s| s.name == name).count() as u64
        };
        (
            counter("symbolic.analyses"),
            counter("symbolic.subdomains"),
            spans(MinimumDegree),
            spans(NestedDissection),
        )
    };
    let (_, elasticity) = common::pinned_families()[0];
    let heat_3d =
        feti_decompose::DecompositionSpec { elements_per_subdomain_side: 3, ..common::heat_3d() };
    for (spec, analyses, subdomains) in [(elasticity, 1, 9), (heat_3d, 4, 8)] {
        let problem = Arc::new(DecomposedProblem::build(&spec));
        for approach in
            [DualOperatorApproach::ImplicitCholmod, DualOperatorApproach::ExplicitGpuModern]
        {
            let built =
                counted(&mut || drop(build_dual_operator(approach, &problem, None).unwrap()));
            let (amd, nd) = if approach.is_explicit() { (0, analyses) } else { (analyses, 0) };
            assert_eq!(built, (analyses, subdomains, amd, nd), "{spec:?} {approach:?}");
        }
        let gpu = feti_gpu::GpuSpec::a100_40gb();
        let mut plan = None;
        let planned = counted(&mut || {
            plan = Some(feti_core::planner::Planner::new(&problem, gpu).plan_auto(100));
        });
        let both = (2 * analyses, 2 * subdomains, analyses, analyses);
        assert_eq!(planned, both, "{spec:?} planner");
        let plan = plan.expect("the closure ran");
        let best = plan.best();
        let mut solver = None;
        let from_plan = counted(&mut || {
            let (approach, params, options) = (best.approach, best.params, PcpgOptions::default());
            let built =
                TotalFetiSolver::from_plan(Arc::clone(&problem), &plan, approach, params, options);
            solver = Some(built.unwrap());
            let opts = feti_solver::SolverOptions::default();
            drop(plan.build(&problem, approach, params, opts).unwrap());
        });
        assert_eq!(from_plan, (0, 0, 0, 0), "{spec:?}: a planned construction analysed again");
        // And the handed-over analyses are the right ones: the planned solver's bits
        // are those of a solver that analysed for itself.
        let opts = feti_solver::SolverOptions {
            factorization: best.factorization,
            ..feti_solver::SolverOptions::default()
        };
        let mut own = TotalFetiSolver::new_with_solver_options(
            Arc::clone(&problem),
            best.approach,
            Some(best.params),
            opts,
            PcpgOptions::default(),
        )
        .unwrap();
        let bits = |solver: &mut TotalFetiSolver| {
            let solution = solver.solve().unwrap();
            solution.global_solution.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&mut solver.expect("the closure ran")), bits(&mut own), "{spec:?}");
    }
}

/// A solver built from a traced plan stamps the candidate it runs with what it
/// measured, to the bit: the cold preprocessing total, and the application seconds of
/// its one load case per column applied — one per PCPG iteration, plus the `λ₀` apply
/// and the final `α` apply.
#[test]
fn a_planned_solver_stamps_its_candidate_with_the_measured_seconds() {
    let _gate = trace_gate();
    feti_trace::set_enabled(true);
    let problem = Arc::new(DecomposedProblem::build(&common::heat_2d()));
    let plan =
        feti_core::planner::Planner::new(&problem, feti_gpu::GpuSpec::a100_40gb()).plan_auto(100);
    let (best, rank, options) = (*plan.best(), plan.chosen_rank(), PcpgOptions::default());
    let solver = TotalFetiSolver::from_plan(
        Arc::clone(&problem),
        &plan,
        best.approach,
        best.params,
        options,
    );
    let solution = solver.unwrap().solve().unwrap();
    let records = feti_trace::plan_records();
    feti_trace::set_enabled(false);
    let record = records.iter().find(|r| Some(r.id) == plan.trace_id).expect("plan recorded");
    let stamped = record.candidates.iter().find(|c| c.rank == rank).expect("best recorded");
    let preprocessing = solution.preprocessing_time.total_seconds;
    let per_apply = solution.dual_apply_time.total_seconds / (solution.iterations + 2) as f64;
    let bits = |seconds: Option<f64>| seconds.map(f64::to_bits);
    assert_eq!(bits(stamped.measured_preprocessing_s), bits(Some(preprocessing)));
    assert_eq!(bits(stamped.measured_apply_s), bits(Some(per_apply)));
}

/// What an iteration spends outside the dual operator has a name: every `pcpg_iter[k]`
/// that iterates holds exactly one `precondition` and two `project` spans, the last
/// one — which only finds the case converged — holds none, and the only others are
/// the one `precondition` and two `project` before the loop.
#[test]
fn precondition_and_project_spans_lie_inside_their_iteration() {
    let _gate = trace_gate();
    let problem = Arc::new(DecomposedProblem::build(&common::elasticity_2d()));
    let approach = DualOperatorApproach::ExplicitCholmod;
    let mut solver = TotalFetiSolver::new(problem, approach, None, PcpgOptions::default()).unwrap();
    solver.ensure_preprocessed().unwrap();
    feti_trace::set_enabled(true);
    let sol = solver.solve().unwrap();
    let report = feti_trace::take_report();
    feti_trace::set_enabled(false);

    let end = |s: &feti_trace::SpanRecord| s.start_us + s.dur_us;
    let iterations: Vec<_> =
        report.spans.iter().filter(|s| s.name.starts_with("pcpg_iter[")).collect();
    assert_eq!(iterations.len(), sol.iterations + 1);
    let loop_start = iterations.iter().map(|s| s.start_us).fold(f64::INFINITY, f64::min);
    for (name, per_iteration) in [("precondition", 1), ("project", 2)] {
        let spans: Vec<_> = report.spans.iter().filter(|s| s.name == name).collect();
        assert_eq!(spans.len(), per_iteration * (sol.iterations + 1), "{name} spans");
        for iteration in &iterations {
            let inside = spans
                .iter()
                .filter(|s| s.start_us >= iteration.start_us && end(s) <= end(iteration))
                .inspect(|s| assert_eq!(s.depth, iteration.depth + 1, "{name} nesting depth"))
                .count();
            let last = iteration.name == format!("pcpg_iter[{}]", sol.iterations);
            let expected = if last { 0 } else { per_iteration };
            assert_eq!(inside, expected, "{name} spans inside {}", iteration.name);
        }
        let before_the_loop = spans.iter().filter(|s| end(s) <= loop_start).count();
        assert_eq!(before_the_loop, per_iteration, "{name} spans before the loop");
    }
}

/// Contract 2: a Chrome trace exported from a real traced solve round-trips
/// through the JSON parser with both process lanes and the plan records intact.
#[test]
fn chrome_export_of_a_real_solve_round_trips() {
    let _gate = trace_gate();
    feti_trace::set_enabled(true);
    let spec = common::heat_3d();
    let problem = Arc::new(DecomposedProblem::build(&spec));
    let plan = feti_core::planner::Planner::new(&problem, feti_gpu::GpuSpec::a100_40gb()).plan(100);
    let (best, options) = (plan.best(), PcpgOptions::default());
    let solver = TotalFetiSolver::from_plan(
        Arc::clone(&problem),
        &plan,
        best.approach,
        best.params,
        options,
    );
    let mut solver = solver.unwrap();
    solver.solve().unwrap();
    // A GPU approach guarantees modelled device ops in the report even if the
    // planner picked a CPU family above.
    let mut gpu_op =
        build_dual_operator(DualOperatorApproach::ExplicitGpuLegacy, &problem, None).unwrap();
    gpu_op.preprocess().unwrap();
    let p: Vec<f64> = (0..problem.num_lambdas).map(|i| 0.5 - (i % 3) as f64 * 0.25).collect();
    let mut q = vec![0.0; problem.num_lambdas];
    gpu_op.apply(&p, &mut q);

    let report = feti_trace::take_report();
    feti_trace::set_enabled(false);
    assert!(!report.spans.is_empty(), "a traced solve must record spans");
    assert!(!report.device_ops.is_empty(), "a traced GPU preprocess must record device ops");
    assert!(!report.plans.is_empty(), "a traced plan() must record its ranking");

    let doc = feti_bench::chrome::chrome_trace(&report);
    let back = parse(&doc.to_json()).expect("exported Chrome trace must be valid JSON");
    let events = match back.get("traceEvents") {
        Some(Value::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    let pids: std::collections::BTreeSet<i64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| e.get("pid").and_then(Value::as_num))
        .map(|p| p as i64)
        .collect();
    assert!(
        pids.contains(&(feti_bench::chrome::HOST_PID as i64)),
        "measured host lane missing from the export"
    );
    assert!(
        pids.contains(&(feti_bench::chrome::DEVICE_PID as i64)),
        "modelled device lane missing from the export"
    );
    let plans = match back.get("plans") {
        Some(Value::Arr(plans)) => plans,
        other => panic!("plans must be an array, got {other:?}"),
    };
    assert_eq!(plans.len(), report.plans.len());
    let first = &plans[0];
    assert!(
        matches!(first.get("candidates"), Some(Value::Arr(c)) if !c.is_empty()),
        "exported plan must carry its ranked candidates"
    );
}

/// Device-op records carry the kernel names of the program the operator executes:
/// one traced `expl modern` application with device-side scatter/gather is exactly
/// the cluster-wide copy-in + scatter, one SYMV per subdomain, gather + copy-out.
/// (A zero-flop scatter/gather kernel used to be exported as a `transfer`.)
#[test]
fn device_ops_of_an_explicit_gpu_apply_carry_their_kernel_names() {
    let _gate = trace_gate();
    let problem = DecomposedProblem::build(&common::heat_2d());
    let params =
        ExplicitAssemblyParams { scatter_gather: ScatterGather::Gpu, ..Default::default() };
    let mut op =
        build_dual_operator(DualOperatorApproach::ExplicitGpuModern, &problem, Some(params))
            .unwrap();
    op.preprocess().unwrap();
    let p = vec![1.0; problem.num_lambdas];
    let mut q = vec![0.0; problem.num_lambdas];
    feti_trace::set_enabled(true);
    op.apply(&p, &mut q);
    let report = feti_trace::take_report();
    feti_trace::set_enabled(false);
    let count = |name: &str| report.device_ops.iter().filter(|op| op.name == name).count();
    assert_eq!(count("transfer"), 2);
    assert_eq!(count("scatter_gather"), 2);
    assert_eq!(count("symv"), problem.subdomains.len());
    assert_eq!(report.device_ops.len(), 4 + problem.subdomains.len());
}

/// Contract 3: concurrent nested spans from the persistent pool (4 workers,
/// nested parallel regions) are complete and consistent — nothing dropped, every
/// span labelled with its thread, inner spans one level deeper than their outer.
#[test]
fn concurrent_nested_spans_under_the_persistent_pool_are_complete() {
    const OUTER: usize = 16;
    const INNER: usize = 8;
    const ROUNDS: usize = 25;

    let _gate = trace_gate();
    feti_trace::set_enabled(true);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool construction");
    pool.install(|| {
        use rayon::prelude::*;
        let outer_ids: Vec<usize> = (0..OUTER).collect();
        for _ in 0..ROUNDS {
            let per_outer: Vec<usize> = outer_ids
                .par_iter()
                .map(|&i| {
                    let _outer = feti_trace::span(|| format!("outer[{i}]"));
                    let inner_ids: Vec<usize> = (0..INNER).collect();
                    // A nested region: its items may run on other workers or be
                    // self-drained by this one.
                    let inner: Vec<usize> = inner_ids
                        .par_iter()
                        .map(|&j| {
                            let _inner = feti_trace::span(|| format!("inner[{i}.{j}]"));
                            i + j
                        })
                        .collect();
                    inner.into_iter().sum()
                })
                .collect();
            assert_eq!(
                per_outer.into_iter().sum::<usize>(),
                (0..OUTER).map(|i| INNER * i + INNER * (INNER - 1) / 2).sum::<usize>()
            );
        }
    });
    let report = feti_trace::take_report();
    feti_trace::set_enabled(false);

    assert_eq!(report.dropped_events, 0, "the stress run must not overflow the buffers");
    let outer_spans = report.spans.iter().filter(|s| s.name.starts_with("outer[")).count();
    let inner_spans = report.spans.iter().filter(|s| s.name.starts_with("inner[")).count();
    assert_eq!(outer_spans, OUTER * ROUNDS, "every outer span must be recorded exactly once");
    assert_eq!(inner_spans, OUTER * INNER * ROUNDS, "every inner span must be recorded");
    for span in &report.spans {
        assert!(!span.thread.is_empty(), "span {:?} lost its thread label", span.name);
        assert!(span.dur_us >= 0.0, "span {:?} has negative duration", span.name);
    }
    // Nesting must be observed: a worker that submits a nested region claims that
    // region's indices itself, so at least some inner items run while their outer
    // span is live on the same thread and record a deeper stack level.  (An inner
    // item claimed by another worker legitimately starts a fresh stack at depth 0,
    // so only the existence of nested depths is pinned, not their count.)
    assert!(
        report.spans.iter().any(|s| s.name.starts_with("inner[") && s.depth >= 1),
        "no inner span ever recorded a nested depth"
    );
    // Outer spans always open from the region closure directly, never under
    // another span of this test on the same thread unless the pool interleaves
    // work while an application waits — both are valid stacks, but an outer span
    // can never be deeper than the total live spans this test creates.
    let max_depth = report.spans.iter().map(|s| s.depth).max().unwrap_or(0);
    assert!(
        max_depth < OUTER,
        "span stack depth {max_depth} exceeds anything this test can legally nest"
    );
}
