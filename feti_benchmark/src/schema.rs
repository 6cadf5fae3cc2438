//! Every metric the benchmark reports, with its unit and kind, in one table.  The
//! lists in `BENCHMARK.json` must name exactly these (a unit test and the run-time
//! self-check both compare them), so a metric cannot be added, dropped or renamed in
//! one place only.

use crate::stats::{Kind, Metric};
use feti_bench::json::{self, Value};

/// `BENCHMARK.json`, embedded at build time: the contract the output is checked against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
}

const fn def(name: &'static str, unit: &'static str, kind: Kind) -> Def {
    Def { name, unit, kind }
}

use Kind::{Count, Modelled, Ratio, Wall};

/// Measured from outside with tracing off; every workload reports every one.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Wall),
    def("preprocess_s", "s", Wall),
    def("apply_s", "s", Wall),
    def("iterate_s", "s", Wall),
    def("solve_s", "s", Wall),
    def("peak_rss_mb", "MiB", Wall),
];

/// One layer = one crate or module.  A value of 0 means the workload does not
/// exercise that layer (e.g. `service.*` on the direct workloads).
pub const PER_LAYER: &[Def] = &[
    // Run configuration, recorded so a bimodal autotune or a changed core count shows.
    def("run.threads", "count", Count),
    def("run.nproc", "count", Count),
    def("run.supernodal", "count", Count),
    // feti-mesh
    def("mesh.generate_s", "s", Wall),
    def("mesh.assemble_s", "s", Wall),
    def("mesh.elements", "count", Count),
    // feti-decompose
    def("decompose.build_s", "s", Wall),
    def("decompose.num_lambdas", "count", Count),
    def("decompose.boundary_fraction", "ratio", Ratio),
    // feti-order
    def("order.nd_s", "s", Wall),
    def("order.fill_ratio", "ratio", Ratio),
    // feti-solver
    def("solver.analyze_s", "s", Wall),
    def("solver.factorize_simplicial_s", "s", Wall),
    def("solver.factorize_supernodal_s", "s", Wall),
    def("solver.factor_nnz", "count", Count),
    def("solver.factor_flops", "count", Count),
    def("solver.factor_gflops", "GF/s", Ratio),
    def("solver.solve_s", "s", Wall),
    def("solver.solve_matrix_s", "s", Wall),
    // feti-sparse
    def("sparse.spmv_s", "s", Wall),
    def("sparse.spmm_s", "s", Wall),
    def("sparse.trsm_s", "s", Wall),
    def("sparse.syrk_s", "s", Wall),
    def("sparse.symv_s", "s", Wall),
    def("sparse.symm_s", "s", Wall),
    def("sparse.sparse_rhs_trsm_s", "s", Wall),
    def("sparse.boundary_syrk_s", "s", Wall),
    def("sparse.syrk_gflops", "GF/s", Ratio),
    def("sparse.symv_gbps", "GB/s", Ratio),
    def("sparse.block_size", "count", Count),
    // feti-gpu (cost model: deterministic, never added to wall seconds)
    def("modelled_gpu_preprocess_s", "modelled_s", Modelled),
    def("modelled_gpu_apply_s", "modelled_s", Modelled),
    def("gpu.modelled_trsm_s", "modelled_s", Modelled),
    def("gpu.modelled_syrk_s", "modelled_s", Modelled),
    def("gpu.modelled_symv_s", "modelled_s", Modelled),
    def("gpu.modelled_transfer_s", "modelled_s", Modelled),
    def("gpu.device_ops", "count", Count),
    def("gpu.persistent_bytes", "count", Count),
    // feti-core::dualop
    def("dualop.symbolic_s", "s", Wall),
    def("dualop.factorize_span_s", "s", Wall),
    def("dualop.assemble_s", "s", Wall),
    def("dualop.apply_p95_s", "s", Wall),
    def("dualop.apply_many_col_s", "s", Wall),
    def("dualop.amortization_iters", "count", Ratio),
    def("dualop.preprocess_1t_s", "s", Wall),
    def("dualop.preprocess_speedup", "ratio", Ratio),
    // feti-core::feti (PCPG)
    def("pcpg.iterations", "count", Count),
    def("pcpg.iter_s", "s", Wall),
    def("pcpg.project_s", "s", Wall),
    def("pcpg.precondition_s", "s", Wall),
    def("pcpg.apply_share", "ratio", Ratio),
    def("pcpg.final_residual", "ratio", Ratio),
    // feti-core::planner
    def("planner.plan_s", "s", Wall),
    def("planner.candidates", "count", Count),
    def("planner.pred_over_meas_preprocess", "ratio", Ratio),
    def("planner.pred_over_meas_apply", "ratio", Ratio),
    // feti-service
    def("service.job_latency_cold_s", "s", Wall),
    def("service.job_latency_warm_s", "s", Wall),
    def("service.job_latency_warm_p95_s", "s", Wall),
    def("service.jobs_per_s", "1/s", Ratio),
    def("service.queue_wait_s", "s", Wall),
    def("service.admit_s", "s", Wall),
    def("service.overhead_s", "s", Wall),
    def("service.cache_hit_ratio", "ratio", Ratio),
    def("service.evictions", "count", Count),
    def("service.jobs_refused", "count", Count),
    // shims/rayon
    def("pool.region_entry_s", "s", Wall),
    def("pool.regions_per_apply", "count", Count),
    def("pool.inline_regions", "count", Count),
    def("pool.persistent_regions", "count", Count),
    // feti-trace: the cost of observing, and what the spans leave unexplained
    def("trace.overhead_frac.setup_s", "ratio", Ratio),
    def("trace.overhead_frac.preprocess_s", "ratio", Ratio),
    def("trace.overhead_frac.apply_s", "ratio", Ratio),
    def("trace.overhead_frac.iterate_s", "ratio", Ratio),
    def("trace.overhead_frac.solve_s", "ratio", Ratio),
    def("trace.events", "count", Count),
    def("trace.dropped_events", "count", Count),
    def("trace.unexplained_frac.preprocess", "ratio", Ratio),
    def("trace.unexplained_frac.iterate", "ratio", Ratio),
    def("trace.unexplained_frac.apply", "ratio", Ratio),
    // Closure of the end-to-end metrics themselves.
    def("closure.solve_gap_s", "s", Wall),
];

pub fn defs(trace: bool) -> &'static [Def] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Collects the metrics of one run; units and kinds come from the table above.
pub struct Report {
    trace: bool,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report { trace, metrics: Vec::new() }
    }

    /// # Panics
    /// Panics on a name the table does not list for this mode: that is a bug here.
    pub fn add(&mut self, name: &str, samples: &[f64]) {
        let def = defs(self.trace)
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the schema"));
        self.metrics.push(Metric::from_samples(name, def.unit, def.kind, samples));
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.add(name, &[value]);
    }

    /// Puts the metrics in the table's order, whatever order they were measured in.
    pub fn sort(&mut self) {
        let defs = defs(self.trace);
        self.metrics.sort_by_key(|m| defs.iter().position(|d| d.name == m.name));
    }
}

pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn contract() -> Result<Value, String> {
    json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn entries<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match doc.get(key) {
        Some(Value::Arr(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: {key} is not a list")),
    }
}

fn names(doc: &Value, key: &str) -> Result<Vec<String>, String> {
    entries(doc, key)?
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: a {key} entry has no name"))
        })
        .collect()
}

/// The metric names `BENCHMARK.json` promises for a mode.
pub fn contract_names(trace: bool) -> Result<Vec<String>, String> {
    names(&contract()?, if trace { "per_layer" } else { "end_to_end" })
}

pub fn contract_workloads() -> Result<Vec<String>, String> {
    names(&contract()?, "workloads")
}

/// `run_seconds`: a run at any other length is a smoke run.
pub fn contract_run_seconds() -> Result<f64, String> {
    contract()?
        .get("run_seconds")
        .and_then(Value::as_num)
        .ok_or_else(|| "BENCHMARK.json: run_seconds missing".to_string())
}

/// The regression bound of an end-to-end metric.
pub fn contract_bound(metric: &str) -> Result<f64, String> {
    let doc = contract()?;
    entries(&doc, "end_to_end")?
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some(metric))
        .and_then(|e| e.get("bound"))
        .and_then(Value::as_num)
        .ok_or_else(|| format!("BENCHMARK.json: no bound for {metric}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_schema() {
        for trace in [false, true] {
            let listed = contract_names(trace).unwrap();
            let ours: Vec<String> = defs(trace).iter().map(|d| d.name.to_string()).collect();
            assert_eq!(listed, ours, "BENCHMARK.json and schema.rs disagree (trace = {trace})");
            assert!(ours.iter().all(|n| valid_name(n)));
        }
        let doc = contract().unwrap();
        for key in ["end_to_end", "per_layer"] {
            for (entry, def) in entries(&doc, key).unwrap().iter().zip(defs(key == "per_layer")) {
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
            }
        }
        let workloads: Vec<String> =
            crate::workloads::all().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(contract_workloads().unwrap(), workloads);
        assert!(contract_bound("setup_s").unwrap() <= 0.25);
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn adding_an_unknown_metric_is_a_bug() {
        Report::new(false).set("made_up", 1.0);
    }
}
