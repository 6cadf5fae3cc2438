//! One untraced run of one workload: the end-to-end metrics.

use crate::direct::{solve_one, Bench, Samples};
use crate::rng;
use crate::schema::Report;
use crate::service::{self, Session};
use crate::verify::{self, Tally};
use crate::workloads::{Config, Workload};
use feti_core::{DualOperatorApproach, TotalFetiSolver};
use feti_mesh::Physics;
use feti_service::CacheOutcome;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions per service run: `setup_s` and `jobs_per_s` get one sample each, and
/// every session starts with an empty cache, so every geometry is built cold at
/// least this many times.
pub const SESSIONS: usize = 6;
/// Share of a service run spent on the direct pass over the pool.
const SERVICE_DIRECT_SHARE: f64 = 0.25;

/// Calls `one` until `budget` is used up, and at least `at_least` times.
pub fn cycles_for(
    budget: Duration,
    at_least: u32,
    mut one: impl FnMut() -> feti_core::Result<()>,
) -> feti_core::Result<()> {
    let start = Instant::now();
    let mut done = 0u32;
    loop {
        one()?;
        done += 1;
        // Start another cycle only if most of it still fits.
        let per_cycle = start.elapsed() / done;
        if done >= at_least && start.elapsed() + per_cycle / 2 > budget {
            return Ok(());
        }
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Untimed, once per run, on the last cycle's warm solvers: the baseline-load
/// solution of every problem is compared with an independent global FEM solve (heat
/// problems) and with the implicit CHOLMOD-backed approach (every configuration that
/// is not that approach itself).
pub fn reference_checks(
    solvers: &mut [TotalFetiSolver],
    configs: &[Config],
    tally: &mut Tally,
) -> feti_core::Result<()> {
    for (solver, config) in solvers.iter_mut().zip(configs) {
        let problem = Arc::clone(solver.problem());
        let load = rng::baseline_load(&problem);
        let sol = solve_one(solver, &load)?;
        tally.record("baseline solve", verify::check_solution(&problem, &load, &sol));
        if problem.spec.physics == Physics::HeatTransfer {
            let reference = verify::reference_solution(&problem.spec);
            tally.record(
                "global FEM reference",
                verify::check_against_reference(&problem, &sol, &reference),
            );
        }
        if config.approach != DualOperatorApproach::ImplicitCholmod {
            let implicit = Config { approach: DualOperatorApproach::ImplicitCholmod, ..*config };
            let other = solve_one(&mut implicit.solver(&problem)?, &load)?;
            tally.record("agreement with implicit", verify::check_agreement(&other, &sol));
        }
    }
    Ok(())
}

/// Runs `SESSIONS` service sessions within `budget`, alternating traced and
/// untraced ones when `traced_every_other` is set.
pub fn sessions_for(
    workload: &Workload,
    seed: u64,
    threads: usize,
    budget: Duration,
    traced_every_other: bool,
    tally: &mut Tally,
) -> Vec<Session> {
    (0..SESSIONS)
        .map(|i| {
            let traced = traced_every_other && i % 2 == 1;
            feti_trace::set_enabled(traced);
            let s = service::session(
                workload,
                seed,
                i,
                threads,
                budget / SESSIONS as u32,
                traced,
                tally,
            );
            feti_trace::set_enabled(false);
            s
        })
        .collect()
}

/// The end-to-end run (`--trace 0`).
///
/// # Errors
/// A library error or an unreadable `/proc`; verification failures are tallied instead.
pub fn end_to_end(
    workload: &Workload,
    seed: u64,
    threads: usize,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Report, String> {
    let mut bench = Bench::prepare(workload, seed).map_err(|e| e.to_string())?;
    let direct_share = if workload.service { SERVICE_DIRECT_SHARE } else { 1.0 };

    let mut samples = Samples::default();
    samples.preprocess.push(bench.operators_preprocess_s);
    let mut last_solvers = Vec::new();
    cycles_for(Duration::from_secs_f64(seconds * direct_share), 2, || {
        last_solvers.clear();
        let c = bench.cycle(false, tally)?;
        samples.push(&c);
        eprintln!(
            "cycle {}: setup {:.3} preprocess {:.3} iterate {:.3} ({} iterations) apply {:.6}",
            samples.setup.len(),
            c.setup_s(),
            c.preprocess_s,
            c.iterate_s[0],
            c.iterations,
            crate::stats::median(&c.apply_s)
        );
        last_solvers = c.solvers;
        Ok(())
    })
    .map_err(|e| e.to_string())?;

    let mut report = Report::new(false);
    if workload.service {
        // Through the service, `solve_s` is a job that missed the cache and
        // `iterate_s` one that hit it; `setup_s` is pool generation + service start.
        let budget = Duration::from_secs_f64(seconds * (1.0 - direct_share));
        let sessions = sessions_for(workload, seed, threads, budget, false, tally);
        let n = workload.specs.len();
        let (cold, cold_n) = service::latency_by_outcome(&sessions, CacheOutcome::Miss, n);
        let (warm, warm_n) = service::latency_by_outcome(&sessions, CacheOutcome::Hit, n);
        if cold_n.contains(&0) || warm_n.contains(&0) {
            return Err(format!(
                "a pool geometry has no cold or no warm job (cold {cold_n:?}, warm {warm_n:?}): \
                 the run is too short to measure"
            ));
        }
        report.add("setup_s", &sessions.iter().map(|s| s.setup_s).collect::<Vec<_>>());
        report.set("solve_s", cold);
        report.set("iterate_s", warm);
    } else {
        report.add("setup_s", &samples.setup);
        report.add("solve_s", &samples.solve);
        report.add("iterate_s", &samples.iterate);
    }
    report.add("preprocess_s", &samples.preprocess);
    report.add("apply_s", &samples.apply);
    // Before the reference checks, whose global FEM factorization is the verifier's
    // memory, not the program's.
    report.set("peak_rss_mb", peak_rss_mib()?);

    reference_checks(&mut last_solvers, &bench.configs, tally).map_err(|e| e.to_string())?;
    Ok(report)
}
