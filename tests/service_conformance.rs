//! Service cache conformance: a cached (warm) solver must produce **bit-for-bit**
//! the same solution as a cold one, for every one of the nine dual-operator
//! approaches.  The cache only skips preprocessing — factors and assembled
//! operators are reused, not recomputed — so every float of the PCPG trajectory
//! must be identical between the cold first job and the warm repeat.

mod common;

use std::sync::Arc;

use feti_core::DualOperatorApproach;
use feti_decompose::DecomposedProblem;
use feti_service::{CacheOutcome, FetiService, JobSpec, ServiceConfig};

/// Runs the same job twice through one service and checks the repeat is a cache hit
/// with a bitwise-identical solution.
fn assert_cached_solve_is_bitwise_identical(
    service: &FetiService,
    problem: &Arc<DecomposedProblem>,
    approach: DualOperatorApproach,
) {
    let job = || {
        JobSpec::new(format!("conformance-{approach:?}"), Arc::clone(problem))
            .with_approach(approach)
    };
    let cold = service.submit(job()).unwrap().wait().unwrap();
    let warm = service.submit(job()).unwrap().wait().unwrap();
    assert_eq!(cold.cache, CacheOutcome::Miss, "{approach:?}: first job must build cold");
    assert_eq!(warm.cache, CacheOutcome::Hit, "{approach:?}: repeat must hit the cache");
    assert_eq!(cold.key, warm.key);
    assert_eq!(cold.solutions.len(), warm.solutions.len());
    for (a, b) in cold.solutions.iter().zip(&warm.solutions) {
        assert_eq!(
            a.iterations, b.iterations,
            "{approach:?}: cached solve must take the identical PCPG trajectory"
        );
        assert_eq!(a.lambda, b.lambda, "{approach:?}: λ must be bit-for-bit identical");
        assert_eq!(a.alpha, b.alpha, "{approach:?}: α must be bit-for-bit identical");
        assert_eq!(
            a.global_solution, b.global_solution,
            "{approach:?}: the primal solution must be bit-for-bit identical"
        );
    }
}

#[test]
fn cached_solves_are_bitwise_identical_across_all_approaches_heat_2d() {
    let service = FetiService::start(ServiceConfig {
        workers: 1,
        cache_capacity: 2 * DualOperatorApproach::all().len(),
        ..ServiceConfig::default()
    });
    let problem = Arc::new(DecomposedProblem::build(&common::heat_2d()));
    for approach in DualOperatorApproach::all() {
        assert_cached_solve_is_bitwise_identical(&service, &problem, approach);
    }
    let stats = service.shutdown().unwrap();
    let n = DualOperatorApproach::all().len();
    assert_eq!(stats.jobs_completed, 2 * n);
    assert_eq!(stats.cache_hits, n);
    assert_eq!(stats.cache_misses, n);
}

#[test]
fn cached_solves_are_bitwise_identical_across_all_approaches_heat_3d() {
    let service = FetiService::start(ServiceConfig {
        workers: 1,
        cache_capacity: 2 * DualOperatorApproach::all().len(),
        ..ServiceConfig::default()
    });
    let problem = Arc::new(DecomposedProblem::build(&common::heat_3d()));
    for approach in DualOperatorApproach::all() {
        assert_cached_solve_is_bitwise_identical(&service, &problem, approach);
    }
    service.shutdown().unwrap();
}

#[test]
fn cache_eviction_falls_back_to_a_cold_build_with_the_same_solution() {
    // Capacity 1: the second geometry evicts the first, so the first geometry's
    // third job must rebuild cold — and still match its own cold solution exactly.
    let service = FetiService::start(ServiceConfig {
        workers: 1,
        cache_capacity: 1,
        ..ServiceConfig::default()
    });
    let p1 = Arc::new(DecomposedProblem::build(&common::heat_2d()));
    let p2 = Arc::new(DecomposedProblem::build(&common::elasticity_2d()));
    let approach = DualOperatorApproach::ExplicitGpuLegacy;
    let job =
        |p: &Arc<DecomposedProblem>| JobSpec::new("evict", Arc::clone(p)).with_approach(approach);
    let first = service.submit(job(&p1)).unwrap().wait().unwrap();
    assert_eq!(first.cache, CacheOutcome::Miss);
    let other = service.submit(job(&p2)).unwrap().wait().unwrap();
    assert_eq!(other.cache, CacheOutcome::Miss);
    let evicted_rerun = service.submit(job(&p1)).unwrap().wait().unwrap();
    assert_eq!(
        evicted_rerun.cache,
        CacheOutcome::Miss,
        "p1's warm solver must have been evicted by p2"
    );
    assert_eq!(first.solutions[0].global_solution, evicted_rerun.solutions[0].global_solution);
    let stats = service.shutdown().unwrap();
    assert!(stats.cache_evictions >= 1, "capacity-1 cache must have evicted");
}

#[test]
fn distinct_geometries_never_share_cache_entries() {
    // Same spec built twice gives an equal structure (and may share warm solvers);
    // a different spec must never collide.
    let service = FetiService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let approach = DualOperatorApproach::ImplicitCholmod;
    let a1 = Arc::new(DecomposedProblem::build(&common::heat_2d()));
    let a2 = Arc::new(DecomposedProblem::build(&common::heat_2d()));
    let b = Arc::new(DecomposedProblem::build(&common::heat_3d()));
    let r1 = service.submit(JobSpec::new("t", a1).with_approach(approach)).unwrap().wait().unwrap();
    let r2 = service.submit(JobSpec::new("t", a2).with_approach(approach)).unwrap().wait().unwrap();
    let rb = service.submit(JobSpec::new("t", b).with_approach(approach)).unwrap().wait().unwrap();
    assert_eq!(r1.key, r2.key, "identical decompositions must share the cache key");
    assert_eq!(r2.cache, CacheOutcome::Hit, "rebuilt-but-identical geometry is a hit");
    assert_ne!(r1.key, rb.key, "different geometry must have a different key");
    assert_eq!(rb.cache, CacheOutcome::Miss);
    service.shutdown().unwrap();
}
