//! What a run prints and writes: the one-line result object the driver reads, and
//! the detailed result file (`--out`) that `--compare` reads.

use crate::schema::{self, Report};
use crate::stats::Metric;
use crate::verify::Tally;
use feti_bench::json::{self, Value};

/// Facts about the run that are not metrics.
pub struct Meta {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub nproc: usize,
    pub block_size: usize,
    pub factorization: String,
}

impl Meta {
    /// A run at any length other than `run_seconds` is not comparable with the
    /// recorded baseline; `--compare` refuses it.
    pub fn smoke(&self) -> Result<bool, String> {
        Ok(self.seconds != schema::contract_run_seconds()?)
    }
}

/// The last line of standard output: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(report: &Report, tally: &Tally) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("{:?}: {{\"value\": {}, \"unit\": {:?}}}", m.name, m.median, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    )
}

/// Checks a result line the way a reader would: it parses, has exactly the four keys,
/// and names exactly the metrics `BENCHMARK.json` lists for the mode.
pub fn check_result_line(line: &str, trace: bool) -> Result<(), String> {
    let doc = json::parse(line)?;
    let Value::Obj(pairs) = &doc else { return Err("result is not an object".into()) };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    let names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    if names != schema::contract_names(trace)? {
        return Err("metrics differ from the list in BENCHMARK.json".into());
    }
    for (name, m) in metrics {
        if m.get("value").and_then(Value::as_num).is_none()
            || m.get("unit").and_then(Value::as_str).is_none()
        {
            return Err(format!("metric {name} lacks a finite value or a unit"));
        }
    }
    Ok(())
}

fn metric_value(m: &Metric) -> Value {
    let mut pairs = vec![
        ("name", Value::Str(m.name.clone())),
        ("unit", Value::Str(m.unit.to_string())),
        ("kind", Value::Str(m.kind.as_str().to_string())),
        ("median", Value::Num(m.median)),
        ("n", Value::Num(m.n as f64)),
        ("min", Value::Num(m.min)),
        ("max", Value::Num(m.max)),
        ("q1", Value::Num(m.q1)),
        ("q3", Value::Num(m.q3)),
    ];
    if let Some((p, v)) = m.tail {
        pairs.push(("percentile", Value::Num(f64::from(p))));
        pairs.push(("percentile_value", Value::Num(v)));
    }
    Value::obj(pairs)
}

/// `.git/HEAD` resolved by hand (no process is spawned); `None` outside a repository.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(format!(".git/{reference}")).ok().map(|s| s.trim().to_string())
        }
        None => Some(head.to_string()),
    }
}

/// The detailed document of one run.
pub fn run_document(meta: &Meta, report: &Report, tally: &Tally) -> Result<Value, String> {
    Ok(Value::obj(vec![
        ("schema", Value::Str("feti_benchmark.run/1".into())),
        ("workload", Value::Str(meta.workload.clone())),
        ("trace", Value::Bool(meta.trace)),
        // A string: a u64 seed does not fit a JSON number exactly.
        ("seed", Value::Str(meta.seed.to_string())),
        ("seconds", Value::Num(meta.seconds)),
        ("smoke", Value::Bool(meta.smoke()?)),
        ("threads", Value::Num(meta.threads as f64)),
        ("nproc", Value::Num(meta.nproc as f64)),
        ("block_size", Value::Num(meta.block_size as f64)),
        ("factorization", Value::Str(meta.factorization.clone())),
        ("git_revision", git_revision().map_or(Value::Null, Value::Str)),
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", Value::Num(tally.attempted as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        ("metrics", Value::Arr(report.metrics.iter().map(metric_value).collect())),
    ]))
}

/// Checks a run document read back from disk: well-formed names, every metric
/// `BENCHMARK.json` lists for the mode, and nothing else.
pub fn check_run_document(doc: &Value) -> Result<(), String> {
    let trace = matches!(doc.get("trace"), Some(Value::Bool(true)));
    let Some(Value::Arr(metrics)) = doc.get("metrics") else {
        return Err("run document has no metrics list".into());
    };
    let mut names = Vec::new();
    for m in metrics {
        let name = m.get("name").and_then(Value::as_str).ok_or("a metric has no name")?;
        if !schema::valid_name(name) {
            return Err(format!("metric name {name:?} is malformed"));
        }
        for key in ["median", "n", "min", "max"] {
            if m.get(key).and_then(Value::as_num).is_none() {
                return Err(format!("metric {name} has no finite {key}"));
            }
        }
        for key in ["unit", "kind"] {
            if m.get(key).and_then(Value::as_str).is_none() {
                return Err(format!("metric {name} has no {key}"));
            }
        }
        names.push(name.to_string());
    }
    let expected = schema::contract_names(trace)?;
    if let Some(missing) = expected.iter().find(|n| !names.contains(n)) {
        return Err(format!("metric {missing} is missing"));
    }
    if let Some(extra) = names.iter().find(|n| !expected.contains(n)) {
        return Err(format!("metric {extra} is not listed in BENCHMARK.json"));
    }
    if names.len() != expected.len() {
        return Err("a metric is listed twice".into());
    }
    Ok(())
}

/// Writes a document and reads it back through the parser: a malformed artifact is
/// a bug of the benchmark, found here rather than by whoever reads the file next.
pub fn write_checked(
    path: &str,
    doc: &Value,
    check: impl Fn(&Value) -> Result<(), String>,
) -> Result<(), String> {
    std::fs::write(path, doc.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot re-read {path}: {e}"))?;
    check(&json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

pub fn read_document(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// A human-readable table of one run, on standard error so that standard output
/// stays the driver's.
pub fn print_table(meta: &Meta, report: &Report) {
    eprintln!(
        "# {} (trace {}, seed {}, {} s, {} threads of {}, block {}, {})",
        meta.workload,
        u8::from(meta.trace),
        meta.seed,
        meta.seconds,
        meta.threads,
        meta.nproc,
        meta.block_size,
        meta.factorization
    );
    for m in &report.metrics {
        let tail = m.tail.map_or(String::new(), |(p, v)| format!("  p{p} {v:.6}"));
        eprintln!(
            "{:<40} {:>14.6} {:<10} {:<8} n={:<5} [{:.6}, {:.6}]{tail}",
            m.name,
            m.median,
            m.unit,
            m.kind.as_str(),
            m.n,
            m.min,
            m.max
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{END_TO_END, PER_LAYER};

    fn full_report(trace: bool) -> Report {
        let mut report = Report::new(trace);
        for (i, d) in schema::defs(trace).iter().enumerate() {
            report.add(d.name, &[0.5 + i as f64, 1.5 + i as f64, 1.0 + i as f64]);
        }
        report
    }

    fn meta(trace: bool) -> Meta {
        Meta {
            workload: "heat3d_implicit".into(),
            trace,
            seed: u64::MAX,
            seconds: 1.0,
            threads: 2,
            nproc: 2,
            block_size: 64,
            factorization: "Simplicial".into(),
        }
    }

    #[test]
    fn result_line_round_trips_and_is_checked() {
        for trace in [false, true] {
            let tally = Tally { attempted: 7, failed: 0 };
            let line = result_line(&full_report(trace), &tally);
            assert!(!line.contains('\n'));
            check_result_line(&line, trace).unwrap();
            assert!(check_result_line(&line, !trace).is_err(), "wrong mode must be rejected");
            let doc = json::parse(&line).unwrap();
            assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
            let first = if trace { PER_LAYER[0].name } else { END_TO_END[0].name };
            let m = doc.get("metrics").unwrap().get(first).unwrap();
            assert_eq!(m.get("value").unwrap().as_num(), Some(1.0));
        }
        let failed = result_line(&full_report(false), &Tally { attempted: 3, failed: 1 });
        assert_eq!(json::parse(&failed).unwrap().get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn run_document_is_validated_on_read_back() {
        let report = full_report(true);
        let doc = run_document(&meta(true), &report, &Tally { attempted: 1, failed: 0 }).unwrap();
        let reread = json::parse(&doc.to_json()).unwrap();
        check_run_document(&reread).unwrap();
        assert_eq!(reread.get("seed").and_then(Value::as_str), Some("18446744073709551615"));
        assert_eq!(reread.get("smoke"), Some(&Value::Bool(true)), "1 s is not run_seconds");

        let mut short = full_report(true);
        short.metrics.truncate(5);
        let doc = run_document(&meta(true), &short, &Tally::default()).unwrap();
        assert!(check_run_document(&doc).unwrap_err().contains("missing"));

        let wrong_mode = run_document(&meta(false), &report, &Tally::default()).unwrap();
        assert!(check_run_document(&wrong_mode).is_err());
    }
}
