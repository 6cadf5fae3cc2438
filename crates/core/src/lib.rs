//! Total FETI solver and the family of dual-operator implementations studied in
//! *Assembly of FETI dual operator using CUDA* (IPPS 2025).
//!
//! The crate provides:
//!
//! * the eleven dual-operator approaches: the nine of Table III (implicit/explicit ×
//!   CPU-MKL-like/CPU-CHOLMOD-like/GPU-legacy/GPU-modern, plus the hybrid approach)
//!   and the sparsity-aware explicit GPU family of the sequel (arXiv 2509.21037), all
//!   behind the [`DualOperator`] trait;
//! * the explicit-assembly parameter space of Table I ([`ExplicitAssemblyParams`]) and
//!   the Table-II auto-configuration ([`ExplicitAssemblyParams::auto_configure`]);
//! * the preconditioned conjugate projected gradient solver (Algorithm 1), the natural
//!   coarse-space projector and the lumped preconditioner;
//! * the multi-step simulation driver of Algorithm 2 (symbolic preparation once,
//!   numeric preprocessing + PCPG per step).
//!
//! Timing: CPU work is measured with wall-clock timers; GPU work is accounted by the
//! simulated device's cost model (`feti-gpu`).  [`TimeBreakdown`] carries both and
//! knows how to combine them with or without the CPU/GPU overlap the paper exploits.

#![warn(missing_docs)]

pub mod dualop;
pub mod feti;
pub mod params;
pub mod planner;
pub mod program;
pub mod schedule;

pub use dualop::{
    build_dual_operator, build_dual_operator_with_options, DualOperator, DualOperatorStats,
};
pub use feti::{FetiSolution, LoadCase, PcpgOptions, TotalFetiSolver};
pub use params::{
    DualOperatorApproach, ExplicitAssemblyParams, FactorStorage, Path, ScatterGather,
};
pub use planner::{HostSpec, Plan, PlanCacheKey, PlanCandidate, Planner};
pub use schedule::{PhaseScheduler, TimeBreakdown};

/// Installs the [`feti_trace`] hooks into the rayon shim: every parallel region
/// dispatch bumps a counter named after its kind (inline / persistent)
/// and records the region's item count in the `rayon.region_items` histogram.
/// Idempotent; the hook is a branch on a relaxed atomic while tracing is disabled.
pub fn install_trace_hooks() {
    fn on_region(items: usize, dispatch: rayon::RegionDispatch) {
        if !feti_trace::enabled() {
            return;
        }
        let kind = match dispatch {
            rayon::RegionDispatch::Inline => "rayon.region.inline",
            rayon::RegionDispatch::Persistent => "rayon.region.persistent",
        };
        feti_trace::counter_add(kind, 1);
        feti_trace::histogram_record("rayon.region_items", items as f64);
    }
    rayon::set_region_hook(Some(on_region));
}

/// Reads the `FETI_TRACE` environment variable, enables tracing accordingly, and
/// returns the export path when the variable names one (see
/// [`feti_trace::init_from_env`]).  When tracing comes up enabled this also
/// installs the rayon region hooks, so binaries get the full event stream from a
/// single call.
pub fn init_trace_from_env() -> Option<String> {
    let path = feti_trace::init_from_env();
    if feti_trace::enabled() {
        install_trace_hooks();
    }
    path
}

/// Number of host worker threads the parallel subdomain loops currently use.
///
/// This is the live rayon configuration: the `FETI_THREADS` environment variable (or
/// the machine's available parallelism) by default, or whatever thread count an
/// enclosing `rayon::ThreadPool::install` pinned.  The paper's runs use 16 OpenMP
/// threads per cluster; the reproduction follows the host it runs on.
#[must_use]
pub fn host_threads() -> usize {
    rayon::current_num_threads()
}

/// Errors reported by the FETI machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum FetiError {
    /// A subdomain factorization failed (the regularized matrix must be SPD).
    Factorization(String),
    /// PCPG did not converge within the allowed number of iterations.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// The simulated device ran out of memory.
    DeviceMemory(String),
}

impl std::fmt::Display for FetiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetiError::Factorization(m) => write!(f, "factorization failed: {m}"),
            FetiError::NoConvergence { iterations, residual } => {
                write!(
                    f,
                    "PCPG did not converge in {iterations} iterations (residual {residual:e})"
                )
            }
            FetiError::DeviceMemory(m) => write!(f, "device memory error: {m}"),
        }
    }
}

impl std::error::Error for FetiError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, FetiError>;

impl From<feti_solver::SolverError> for FetiError {
    fn from(e: feti_solver::SolverError) -> Self {
        FetiError::Factorization(e.to_string())
    }
}

impl From<feti_gpu::MemoryError> for FetiError {
    fn from(e: feti_gpu::MemoryError) -> Self {
        FetiError::DeviceMemory(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversions() {
        let e = FetiError::NoConvergence { iterations: 10, residual: 1e-3 };
        assert!(e.to_string().contains("10"));
        let e: FetiError = feti_solver::SolverError::SymbolicMissing.into();
        assert!(matches!(e, FetiError::Factorization(_)));
        let e: FetiError = feti_gpu::MemoryError::OutOfMemory { requested: 1, available: 0 }.into();
        assert!(matches!(e, FetiError::DeviceMemory(_)));
    }
}
