//! Service stress: ≥4 tenants hammering one service concurrently.  Runs under both
//! `FETI_THREADS=1` and `=4` in CI.  Checks that the tenant-fair queue, the warm
//! cache and the budget ledger survive contention: every job completes, every
//! tenant's solutions stay correct (and identical across that tenant's repeats),
//! and the counters add up.

mod common;

use std::sync::Arc;

use feti_core::FetiError;
use feti_decompose::DecomposedProblem;
use feti_service::{FetiService, JobSpec, ServiceConfig, ServiceError};

const TENANTS: usize = 4;
const JOBS_PER_TENANT: usize = 6;

#[test]
fn four_tenants_submitting_concurrently_all_complete_with_identical_solutions() {
    let service = Arc::new(FetiService::start(ServiceConfig {
        workers: 3,
        queue_capacity: TENANTS * JOBS_PER_TENANT + 8,
        ..ServiceConfig::default()
    }));
    // Two distinct geometries spread across the tenants, so the cache serves
    // multiple keys while tenants share entries for the same geometry.
    let geometries: Vec<Arc<DecomposedProblem>> = vec![
        Arc::new(DecomposedProblem::build(&common::heat_2d())),
        Arc::new(DecomposedProblem::build(&common::elasticity_2d())),
    ];
    let handles: Vec<_> = (0..TENANTS)
        .map(|t| {
            let service = Arc::clone(&service);
            let problem = Arc::clone(&geometries[t % geometries.len()]);
            std::thread::spawn(move || {
                let tenant = format!("tenant-{t}");
                let tickets: Vec<_> = (0..JOBS_PER_TENANT)
                    .map(|_| {
                        service
                            .submit(JobSpec::new(tenant.clone(), Arc::clone(&problem)))
                            .expect("queue sized for the full stream")
                    })
                    .collect();
                let reports: Vec<_> =
                    tickets.into_iter().map(|t| t.wait().expect("job completes")).collect();
                // Every repeat of this tenant's geometry must give the identical
                // solution, warm or cold.
                let reference = &reports[0].solutions[0].global_solution;
                for r in &reports[1..] {
                    assert_eq!(
                        &r.solutions[0].global_solution, reference,
                        "{tenant}: solutions must not depend on cache state or contention"
                    );
                }
                reports.len()
            })
        })
        .collect();
    let completed: usize = handles.into_iter().map(|h| h.join().expect("tenant thread")).sum();
    assert_eq!(completed, TENANTS * JOBS_PER_TENANT);

    let service = Arc::into_inner(service).expect("all tenant threads joined");
    let stats = service.shutdown().unwrap();
    assert_eq!(stats.jobs_completed, TENANTS * JOBS_PER_TENANT);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.cache_hits + stats.cache_misses, TENANTS * JOBS_PER_TENANT);
    assert!(
        stats.cache_hits >= TENANTS * JOBS_PER_TENANT - 2 * geometries.len() * TENANTS,
        "repeated geometries should mostly hit the cache: {stats:?}"
    );
    // Fairness accounting: every tenant's jobs were all served.
    assert_eq!(stats.per_tenant_jobs.len(), TENANTS);
    for (tenant, jobs) in &stats.per_tenant_jobs {
        assert_eq!(*jobs, JOBS_PER_TENANT, "{tenant} lost jobs");
    }
}

#[test]
fn queue_overflow_is_a_typed_rejection_not_a_panic() {
    // One worker and a tiny queue: burst submissions must be rejected with the
    // typed QueueFull error once the queue is at capacity.
    let service = FetiService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServiceConfig::default()
    });
    let problem = Arc::new(DecomposedProblem::build(&common::heat_3d()));
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..24 {
        match service.submit(JobSpec::new("burst", Arc::clone(&problem))) {
            Ok(t) => tickets.push(t),
            Err(ServiceError::QueueFull { capacity }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error kind: {e}"),
        }
    }
    assert!(rejected > 0, "a 24-job burst into a 2-slot queue must overflow");
    for t in tickets {
        t.wait().expect("accepted jobs still complete");
    }
    service.shutdown().unwrap();
}

#[test]
fn a_non_spd_job_reports_the_typed_error_and_the_next_job_completes() {
    let service = FetiService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let healthy = Arc::new(DecomposedProblem::build(&common::heat_2d()));
    let broken = Arc::new(common::with_non_spd_subdomains(&healthy, &[1]));
    // Waited for before the healthy job is submitted: both share one cache key (the
    // structure is equal), and a failed job must leave nothing warm behind.
    match service.submit(JobSpec::new("tenant", broken)).unwrap().wait() {
        Err(ServiceError::Solve(FetiError::Factorization(m))) => {
            assert!(m.starts_with("subdomain 1:"), "{m}");
        }
        other => panic!("expected the typed factorization error, got {:?}", other.map(drop)),
    }
    service.submit(JobSpec::new("tenant", healthy)).unwrap().wait().expect("healthy job");
    let stats = service.shutdown().unwrap();
    assert_eq!((stats.jobs_failed, stats.jobs_completed, stats.cache_hits), (1, 1, 0));
    assert_eq!(stats.cache_misses, 2, "the failed cold build missed the cache too");
}

#[test]
fn a_non_finite_load_fails_typed_and_the_jobs_after_it_solve_bit_identically() {
    let service = FetiService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let problem = Arc::new(DecomposedProblem::build(&common::heat_2d()));
    let job = || JobSpec::new("tenant", Arc::clone(&problem));
    let solve = |spec: JobSpec| service.submit(spec).unwrap().wait();
    let first = solve(job()).expect("healthy job");

    // Claims the warm solver the first job left in the cache.
    let mut poisoned: Vec<Vec<f64>> =
        problem.subdomains.iter().map(|sd| sd.assembled.load.clone()).collect();
    poisoned[2][0] = f64::NAN;
    match solve(job().with_loads(vec![poisoned])) {
        Err(ServiceError::Solve(FetiError::NoConvergence { iterations, residual })) => {
            assert!(iterations <= 1 && residual.is_nan(), "{iterations} iterations, {residual}");
        }
        other => panic!("expected the typed non-convergence, got {:?}", other.map(drop)),
    }

    // The same worker, pool and cache: a rebuilt solver, then that solver warm.
    for _ in 0..2 {
        let next = solve(job()).expect("healthy job after the failed one");
        assert_eq!(next.solutions[0].iterations, first.solutions[0].iterations);
        assert_eq!(next.solutions[0].lambda, first.solutions[0].lambda);
        assert_eq!(next.solutions[0].global_solution, first.solutions[0].global_solution);
    }
    let stats = service.shutdown().unwrap();
    assert_eq!((stats.jobs_failed, stats.jobs_completed), (1, 3));
    assert_eq!((stats.cache_hits, stats.cache_misses), (2, 2));
}

#[test]
fn shutdown_drains_queued_jobs_before_exiting() {
    let service = FetiService::start(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServiceConfig::default()
    });
    let problem = Arc::new(DecomposedProblem::build(&common::heat_2d()));
    let tickets: Vec<_> = (0..8)
        .map(|_| service.submit(JobSpec::new("drain", Arc::clone(&problem))).unwrap())
        .collect();
    let stats = service.shutdown().unwrap();
    assert_eq!(stats.jobs_completed, 8, "graceful shutdown must drain the queue");
    for t in tickets {
        t.wait().expect("drained job has a report");
    }
}
