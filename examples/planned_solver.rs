//! Planned solving: let the cost-model planner pick the dual-operator approach a
//! priori, then solve several load cases at once through the batched multi-RHS
//! application path.
//!
//! Run with `cargo run --release --example planned_solver`.
//!
//! With `FETI_TRACE=trace.json` the run also exercises the observability layer:
//! spans, metrics, and the planner's decision records are collected, every ranked
//! candidate is measured and stamped next to its prediction (the plan-accuracy
//! report), and a Chrome trace-event timeline — measured host lanes plus the
//! modelled virtual-device streams — is written to the given path for
//! `chrome://tracing` / <https://ui.perfetto.dev>.

use feti_core::planner::Planner;
use feti_core::{DualOperator, LoadCase, PcpgOptions, TotalFetiSolver};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_gpu::GpuSpec;
use feti_mesh::{Dim, ElementOrder, Physics};
use feti_solver::SolverOptions;

fn main() {
    // 0. Observability: FETI_TRACE=<path> turns on the trace layer (off by
    //    default; a disabled run costs one relaxed atomic load per call site).
    let trace_path = feti_core::init_trace_from_env();

    // 1. Decompose a 3D heat-transfer problem (2x2x2 subdomains, quadratic elements).
    let spec = DecompositionSpec {
        dim: Dim::Three,
        physics: Physics::HeatTransfer,
        order: ElementOrder::Quadratic,
        subdomains_per_side: 2,
        elements_per_subdomain_side: 3,
        subdomains_per_cluster: 8,
    };
    let problem = DecomposedProblem::build(&spec);
    println!(
        "problem: {} subdomains, {} DOFs each, {} Lagrange multipliers",
        problem.subdomains.len(),
        spec.dofs_per_subdomain(),
        problem.num_lambdas
    );

    // 2. Plan: estimate every approach x parameter combination a priori (no
    //    execution) and inspect the ranking.
    let expected_iterations = 100;
    let planner = Planner::new(&problem, GpuSpec::a100_40gb());
    let plan = planner.plan(expected_iterations);
    println!("\nplanner ranking (amortized over {expected_iterations} iterations):");
    let mut seen = std::collections::HashSet::new();
    for c in &plan.candidates {
        if seen.insert(c.approach) {
            println!(
                "  {:<14} est. total {:>10.3} ms  (pre {:.3} ms + {expected_iterations} x {:.4} ms)",
                c.approach.label(),
                c.total_seconds(expected_iterations) * 1e3,
                c.preprocessing.total_seconds * 1e3,
                c.apply.total_seconds * 1e3
            );
        }
    }
    println!("planned pick: {}", plan.best().approach.label());

    // 3. Solve three load cases in one batched run: the baseline load and two
    //    variations, sharing one preprocessing and batching every PCPG application.
    let baseline: LoadCase =
        problem.subdomains.iter().map(|sd| sd.assembled.load.clone()).collect();
    let doubled: LoadCase = baseline.iter().map(|f| f.iter().map(|v| 2.0 * v).collect()).collect();
    let tilted: LoadCase = problem
        .subdomains
        .iter()
        .map(|sd| {
            sd.assembled
                .load
                .iter()
                .enumerate()
                .map(|(i, v)| v * (1.0 + 0.1 * (i as f64 * 0.05).sin()))
                .collect()
        })
        .collect();

    // The solver is built from the plan printed above — its winner, over the plan's
    // analyses — so its measured preprocessing and apply times are stamped onto the
    // same trace record the ranking came from.
    let best = plan.best();
    let mut solver = TotalFetiSolver::from_plan(
        &problem,
        &plan,
        best.approach,
        best.params,
        PcpgOptions::default(),
    )
    .expect("solver construction");
    let solutions = solver.solve_many(&[baseline, doubled, tilted]).expect("batched solve");

    println!("\nsolved {} load cases in one batched run:", solutions.len());
    for (i, sol) in solutions.iter().enumerate() {
        let max = sol.global_solution.iter().cloned().fold(f64::MIN, f64::max);
        println!(
            "  case {i}: {} iterations, residual {:.2e}, max temperature {max:.4}",
            sol.iterations, sol.final_residual
        );
    }
    // Each case applied the operator once for λ₀, once per iteration and once for α.
    let applications: usize = solutions.iter().map(|sol| sol.iterations + 2).sum();
    println!(
        "\ndual operator: {applications} applications (columns) through approach {}",
        solver.dual_operator().approach().label()
    );

    // 4. Plan accuracy: the solve stamped the chosen candidate's measured times
    //    onto the plan's trace record; measure the other ranked candidates too
    //    (one preprocessing + one application each) so the report shows
    //    predicted-vs-measured for every one.
    if let Some(id) = plan.trace_id {
        let record = feti_trace::plan_records()
            .into_iter()
            .find(|p| p.id == id)
            .expect("the plan above was recorded");
        let p: Vec<f64> = (0..problem.num_lambdas).map(|i| ((i % 17) as f64) * 0.1 - 0.8).collect();
        let mut q = vec![0.0; problem.num_lambdas];
        for c in &record.candidates {
            if c.rank == record.chosen_rank {
                continue; // carries the real solve's measurements
            }
            let candidate = &plan.candidates[c.rank];
            let (approach, params) = (candidate.approach, candidate.params);
            let built = plan.build(&problem, approach, params, SolverOptions::default());
            let Ok(mut op) = built else { continue };
            let Ok(pre) = op.preprocess() else { continue };
            let apply = op.apply(&p, &mut q);
            feti_trace::stamp_plan(id, c.rank, Some(pre.total_seconds), Some(apply.total_seconds));
        }
        let record = feti_trace::plan_records()
            .into_iter()
            .find(|p| p.id == id)
            .expect("the plan above was recorded");
        println!("\nplan accuracy (chosen rank starred; measured = one preprocess + one apply):");
        println!(
            "  {:<5} {:<18} {:>12} {:>12} {:>14} {:>14}",
            "rank", "approach", "pred pre ms", "meas pre ms", "pred apply ms", "meas apply ms"
        );
        let fmt_opt =
            |x: Option<f64>| x.map_or_else(|| "-".to_string(), |v| format!("{:.4}", v * 1e3));
        for c in &record.candidates {
            let star = if c.rank == record.chosen_rank { "*" } else { " " };
            println!(
                "  {:<5} {:<18} {:>12.4} {:>12} {:>14.5} {:>14}",
                format!("{}{star}", c.rank),
                c.approach,
                c.predicted_preprocessing_s * 1e3,
                fmt_opt(c.measured_preprocessing_s),
                c.predicted_apply_s * 1e3,
                fmt_opt(c.measured_apply_s),
            );
        }
    }

    // 5. Timeline export: drain everything the run recorded into one Chrome
    //    trace-event file — measured host spans as per-worker lanes, the modelled
    //    device operations as virtual-stream lanes.
    if let Some(path) = trace_path {
        let report = feti_trace::take_report();
        println!(
            "\ntrace: {} host spans, {} modelled device ops, {} plan record(s) -> {path}",
            report.spans.len(),
            report.device_ops.len(),
            report.plans.len()
        );
        feti_bench::chrome::write_chrome_trace(&report, &path).expect("trace file is writable");
        println!("load it in chrome://tracing or https://ui.perfetto.dev");
    }
}
