//! Shared benchmark harness for the FETI dual-operator reproduction.
//!
//! Every table and figure of the paper's evaluation section has a dedicated binary in
//! `src/bin/`; this library provides the common workload generator, the measurement
//! loop and the text output helpers they share.
//!
//! Timing semantics: CPU work is measured with wall-clock timers, GPU work is the
//! simulated device's cost model, and both are combined by the scheduler in
//! `feti-core::schedule` exactly as described in `DESIGN.md`.  Per-subdomain values are
//! phase totals divided by the number of subdomains, matching the "time per subdomain"
//! axes of the paper's figures.

#![warn(missing_docs)]

pub mod chrome;
pub mod json;

use feti_core::{build_dual_operator, DualOperatorApproach, ExplicitAssemblyParams, TimeBreakdown};
use feti_decompose::{DecomposedProblem, DecompositionSpec};
use feti_mesh::{Dim, ElementOrder, Physics};

/// Scale of the benchmark sweeps, controlled by the `FETI_BENCH_SCALE` environment
/// variable (`quick`, `default`, `full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// Tiny problems for CI smoke runs.
    Quick,
    /// The default: small problems that keep every binary in the minutes range.
    Default,
    /// Larger problems closer to the paper's sweeps (substantially slower).
    Full,
}

impl BenchScale {
    /// Reads the scale from the environment; unset means [`BenchScale::Default`].
    ///
    /// # Panics
    /// Panics if `FETI_BENCH_SCALE` is set to anything but `quick`, `default` or
    /// `full` — a typo must not silently start the minutes-long default sweep.
    #[must_use]
    pub fn from_env() -> Self {
        let raw = std::env::var_os("FETI_BENCH_SCALE").map(|s| s.to_string_lossy().into_owned());
        Self::parse(raw.as_deref()).unwrap_or_else(|msg| panic!("{msg}"))
    }

    fn parse(raw: Option<&str>) -> Result<Self, String> {
        match raw {
            None | Some("default") => Ok(BenchScale::Default),
            Some("quick") => Ok(BenchScale::Quick),
            Some("full") => Ok(BenchScale::Full),
            Some(other) => Err(format!(
                "FETI_BENCH_SCALE must be one of quick, default, full (or unset), got {other:?}"
            )),
        }
    }

    /// Elements per subdomain edge for the 2D sweeps.
    #[must_use]
    pub fn sweep_2d(self) -> Vec<usize> {
        match self {
            BenchScale::Quick => vec![3, 6],
            BenchScale::Default => vec![3, 6, 12, 20],
            BenchScale::Full => vec![3, 6, 12, 20, 32, 48],
        }
    }

    /// Elements per subdomain edge for the 3D sweeps.
    #[must_use]
    pub fn sweep_3d(self) -> Vec<usize> {
        match self {
            BenchScale::Quick => vec![2, 3],
            BenchScale::Default => vec![2, 3, 4, 6],
            BenchScale::Full => vec![2, 3, 4, 6, 8, 10],
        }
    }
}

/// Builds a decomposed benchmark problem.
#[must_use]
pub fn build_problem(
    dim: Dim,
    physics: Physics,
    order: ElementOrder,
    elements_per_subdomain_side: usize,
) -> DecomposedProblem {
    let subdomains_per_side = match dim {
        Dim::Two => 2,
        Dim::Three => 2,
    };
    let spec = DecompositionSpec {
        dim,
        physics,
        order,
        subdomains_per_side,
        elements_per_subdomain_side,
        subdomains_per_cluster: subdomains_per_side.pow(dim.as_usize() as u32),
    };
    DecomposedProblem::build(&spec)
}

/// One measurement of a dual-operator approach on one problem.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// The approach measured.
    pub approach: DualOperatorApproach,
    /// Degrees of freedom per subdomain.
    pub dofs_per_subdomain: usize,
    /// Number of subdomains in the problem.
    pub num_subdomains: usize,
    /// FETI preprocessing (factorization and, for explicit approaches, assembly).
    pub preprocessing: TimeBreakdown,
    /// One application of the dual operator.
    pub apply: TimeBreakdown,
}

impl Measurement {
    /// Preprocessing time per subdomain in milliseconds.
    #[must_use]
    pub fn preprocessing_ms_per_subdomain(&self) -> f64 {
        self.preprocessing.total_seconds * 1e3 / self.num_subdomains as f64
    }

    /// Application time per subdomain in milliseconds.
    #[must_use]
    pub fn apply_ms_per_subdomain(&self) -> f64 {
        self.apply.total_seconds * 1e3 / self.num_subdomains as f64
    }

    /// Total dual-operator time per subdomain (preprocessing + `iterations`
    /// applications) in milliseconds — the quantity plotted in Fig. 6.
    #[must_use]
    pub fn total_ms_per_subdomain(&self, iterations: usize) -> f64 {
        self.preprocessing_ms_per_subdomain() + iterations as f64 * self.apply_ms_per_subdomain()
    }
}

/// Measures one approach on one problem: preprocessing plus one application.
///
/// # Panics
/// Panics if the approach cannot be constructed or preprocessed (benchmark problems are
/// sized to fit the simulated device).
#[must_use]
pub fn measure_approach(
    problem: &DecomposedProblem,
    approach: DualOperatorApproach,
    params: Option<ExplicitAssemblyParams>,
) -> Measurement {
    let mut op = build_dual_operator(approach, problem, params).expect("operator construction");
    let preprocessing = op.preprocess().expect("preprocessing");
    let nl = problem.num_lambdas;
    let p: Vec<f64> = (0..nl).map(|i| ((i % 17) as f64) * 0.1 - 0.8).collect();
    let mut q = vec![0.0; nl];
    let apply = op.apply(&p, &mut q);
    Measurement {
        approach,
        dofs_per_subdomain: problem.spec.dofs_per_subdomain(),
        num_subdomains: problem.subdomains.len(),
        preprocessing,
        apply,
    }
}

/// Prints the host-runtime configuration every figure/table binary reports first:
/// the worker-thread count of the parallel subdomain loops (`FETI_THREADS` or the
/// machine's available parallelism) and the benchmark scale.
///
/// Host-side `cpu_seconds` are measured wall times of the parallel regions, so the
/// thread count is part of the measurement conditions and belongs next to the data.
pub fn print_run_config() {
    println!(
        "host threads: {} (set FETI_THREADS to override), bench scale: {:?}",
        feti_core::host_threads(),
        BenchScale::from_env()
    );
}

/// Prints a figure/table header in a uniform style.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    println!("{}", columns.join("\t"));
}

/// Formats milliseconds with three significant digits.
#[must_use]
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.1}")
    } else if ms >= 1.0 {
        format!("{ms:.3}")
    } else {
        format!("{ms:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_sweeps_are_ordered() {
        for scale in [BenchScale::Quick, BenchScale::Default, BenchScale::Full] {
            let s2 = scale.sweep_2d();
            let s3 = scale.sweep_3d();
            assert!(s2.windows(2).all(|w| w[0] < w[1]));
            assert!(s3.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn bench_scale_values_parse_or_fail_loudly() {
        assert_eq!(BenchScale::parse(None), Ok(BenchScale::Default));
        assert_eq!(BenchScale::parse(Some("default")), Ok(BenchScale::Default));
        assert_eq!(BenchScale::parse(Some("quick")), Ok(BenchScale::Quick));
        assert_eq!(BenchScale::parse(Some("full")), Ok(BenchScale::Full));
        for bad in ["ful", "", "Quick", "0"] {
            let err = BenchScale::parse(Some(bad)).unwrap_err();
            assert!(err.contains("FETI_BENCH_SCALE") && err.contains("quick, default, full"));
        }
    }

    #[test]
    fn measurement_totals_accumulate_iterations() {
        let problem = build_problem(Dim::Two, Physics::HeatTransfer, ElementOrder::Linear, 3);
        let m = measure_approach(&problem, DualOperatorApproach::ImplicitMkl, None);
        let t1 = m.total_ms_per_subdomain(1);
        let t100 = m.total_ms_per_subdomain(100);
        assert!(t100 > t1);
        assert!(m.preprocessing_ms_per_subdomain() >= 0.0);
    }

    #[test]
    fn formatting_is_compact() {
        assert_eq!(fmt_ms(123.456), "123.5");
        assert!(fmt_ms(0.00012).starts_with("0.000"));
    }
}
