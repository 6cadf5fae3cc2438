//! A service job is built from the plan it was admitted on: on
//! [`ServiceConfig::gpu`], over the plan's analyses.
//!
//! The trace enable flag is process-global and every job emits analysis counters,
//! so every test here serializes on one gate mutex and leaves tracing disabled (with
//! the buffers drained) however it exits.

use feti_core::program::auto_params;
use feti_core::{DualOperatorApproach, PcpgOptions, Planner, TotalFetiSolver};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_gpu::GpuSpec;
use feti_service::{CacheOutcome, FetiService, JobSpec, ServiceConfig};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

struct TraceGate(#[allow(dead_code)] MutexGuard<'static, ()>);

fn trace_gate() -> TraceGate {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = GATE.get_or_init(|| Mutex::new(())).lock();
    let gate = TraceGate(guard.unwrap_or_else(std::sync::PoisonError::into_inner));
    feti_trace::set_enabled(false);
    let _ = feti_trace::take_report();
    gate
}

impl Drop for TraceGate {
    fn drop(&mut self) {
        feti_trace::set_enabled(false);
        let _ = feti_trace::take_report();
    }
}

fn problem() -> Arc<DecomposedProblem> {
    Arc::new(DecomposedProblem::build(&DecompositionSpec::small_heat_2d()))
}

/// The modelled device seconds of a job's dual-operator applications are those of a
/// solver built from a plan on the configured device — half an A100's memory and
/// PCIe bandwidth — and not those of the same solver built on an A100.
#[test]
fn a_job_is_built_on_the_device_it_was_admitted_on() {
    let _gate = trace_gate();
    let a100 = GpuSpec::a100_40gb();
    let slower = GpuSpec {
        memory_bandwidth: a100.memory_bandwidth / 2.0,
        pcie_bandwidth: a100.pcie_bandwidth / 2.0,
        ..a100
    };
    let (p, approach) = (problem(), DualOperatorApproach::ExplicitGpuModern);
    let service =
        FetiService::start(ServiceConfig { workers: 1, gpu: slower, ..Default::default() });
    let report = service.submit(JobSpec::new("t", Arc::clone(&p)).with_approach(approach));
    let served = report.unwrap().wait().unwrap().solutions.remove(0).dual_apply_time;
    service.shutdown().unwrap();

    let params = auto_params(approach, &p);
    let plan = Planner::new(&p, slower).plan_pinned(approach);
    let options = PcpgOptions::default();
    let planned = TotalFetiSolver::from_plan(Arc::clone(&p), &plan, approach, params, options);
    let planned = planned.unwrap().solve().unwrap().dual_apply_time;
    let on_a100 = TotalFetiSolver::new(Arc::clone(&p), approach, None, options);
    let on_a100 = on_a100.unwrap().solve().unwrap().dual_apply_time;
    assert_eq!(served.gpu_seconds.to_bits(), planned.gpu_seconds.to_bits());
    assert_ne!(served.gpu_seconds.to_bits(), on_a100.gpu_seconds.to_bits());
}

/// With no warm solver kept, every job is built cold, and only planning analyses:
/// a pinned job's first submit analyses its approach's ordering alone, a planned
/// job's both orderings, and a rebuild from a cached plan nothing.
#[test]
fn a_cold_rebuild_analyses_nothing_and_a_pinned_job_only_its_own_ordering() {
    let _gate = trace_gate();
    let service =
        FetiService::start(ServiceConfig { workers: 1, cache_capacity: 0, ..Default::default() });
    let p = problem();
    let analyses = |spec: JobSpec| {
        feti_trace::set_enabled(true);
        let report = service.submit(spec).unwrap().wait().unwrap();
        let trace = feti_trace::take_report();
        feti_trace::set_enabled(false);
        assert_eq!(report.cache, CacheOutcome::Miss);
        let counter = trace.counters.iter().find(|(name, _)| name == "symbolic.analyses");
        counter.map_or(0, |(_, value)| *value)
    };
    let pinned =
        || JobSpec::new("t", Arc::clone(&p)).with_approach(DualOperatorApproach::ImplicitCholmod);
    let planned = || JobSpec::new("t", Arc::clone(&p));
    // `small_heat_2d` has one `k_reg` pattern over its four subdomains.
    assert_eq!(analyses(pinned()), 1, "a pinned job's first submit");
    assert_eq!(analyses(pinned()), 0, "a pinned job rebuilt from its cached plan");
    assert_eq!(analyses(planned()), 2, "a planned job's first submit");
    assert_eq!(analyses(planned()), 0, "a planned job rebuilt from its cached plan");
    let stats = service.shutdown().unwrap();
    assert_eq!((stats.cache_misses, stats.cache_evictions), (4, 4));
}
