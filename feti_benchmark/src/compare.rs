//! Running every workload into one result file, and comparing two such files — the
//! tool the "two sets of runs agree" criterion is checked with.
//!
//! Each workload runs in a child process of its own, so peak RSS, the block-size
//! autotune and pool state do not leak from one workload into the next.

use crate::output::{check_run_document, read_document, write_checked};
use crate::schema;
use feti_bench::json::Value;
use std::process::{Command, Stdio};

/// Counts that are a property of the problem and the algorithm, so that two runs of
/// one commit must agree on them bit for bit (every `modelled` metric must as well).
const EXACT_COUNTS: &[&str] = &[
    "pcpg.iterations",
    "gpu.device_ops",
    "gpu.persistent_bytes",
    "decompose.num_lambdas",
    "mesh.elements",
    "solver.factor_nnz",
    "planner.candidates",
];

fn check_set_document(doc: &Value) -> Result<(), String> {
    let Some(Value::Arr(runs)) = doc.get("runs") else {
        return Err("result file has no runs".into());
    };
    let mut seen = Vec::new();
    for run in runs {
        check_run_document(run)?;
        let workload =
            run.get("workload").and_then(Value::as_str).ok_or("a run names no workload")?;
        seen.push((workload.to_string(), matches!(run.get("trace"), Some(Value::Bool(true)))));
    }
    for workload in schema::contract_workloads()? {
        for trace in [false, true] {
            if !seen.contains(&(workload.clone(), trace)) {
                return Err(format!("no run of {workload} with trace {}", u8::from(trace)));
            }
        }
    }
    Ok(())
}

/// Runs every workload of `BENCHMARK.json`, untraced and traced, one child process
/// each, and writes the merged, re-validated result file.
pub fn run_all(seed: u64, seconds: f64, out: &str) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut runs = Vec::new();
    let mut correct = true;
    for workload in schema::contract_workloads()? {
        for trace in ["0", "1"] {
            let part = format!("{out}.{workload}.{trace}.part");
            let status = Command::new(&exe)
                .args(["--workload", &workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace, "--out", &part])
                // The child's result line is for a driver; this mode reads the file.
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("cannot start the run of {workload}: {e}"))?;
            let doc = read_document(&part);
            // The part is removed whether or not it could be read.
            let _ = std::fs::remove_file(&part);
            match status.code() {
                Some(0) => {}
                Some(1) => correct = false,
                _ => {
                    return Err(format!(
                        "the run of {workload} (trace {trace}) ended with {status}"
                    ))
                }
            }
            runs.push(doc?);
        }
    }
    let smoke = runs.iter().any(|r| r.get("smoke") != Some(&Value::Bool(false)));
    let doc = Value::obj(vec![
        ("schema", Value::Str("feti_benchmark.set/1".into())),
        ("seed", Value::Str(seed.to_string())),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(smoke)),
        ("correct", Value::Bool(correct)),
        ("runs", Value::Arr(runs)),
    ]);
    write_checked(out, &doc, check_set_document)?;
    println!("wrote {out}: every workload, end-to-end and per-layer, correct = {correct}");
    Ok(correct)
}

fn find_run<'a>(doc: &'a Value, workload: &str, trace: bool) -> Result<&'a Value, String> {
    let Some(Value::Arr(runs)) = doc.get("runs") else { return Err("no runs".into()) };
    runs.iter()
        .find(|r| {
            r.get("workload").and_then(Value::as_str) == Some(workload)
                && r.get("trace") == Some(&Value::Bool(trace))
        })
        .ok_or_else(|| format!("no run of {workload} with trace {}", u8::from(trace)))
}

fn find_metric<'a>(run: &'a Value, name: &str) -> Result<&'a Value, String> {
    let Some(Value::Arr(metrics)) = run.get("metrics") else { return Err("no metrics".into()) };
    metrics
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
        .ok_or_else(|| format!("metric {name} is missing"))
}

fn num(m: &Value, key: &str) -> Result<f64, String> {
    m.get(key).and_then(Value::as_num).ok_or_else(|| format!("a metric has no {key}"))
}

/// Within-run interquartile spread as a share of the median.
fn spread(m: &Value) -> Result<f64, String> {
    let median = num(m, "median")?;
    Ok(if median == 0.0 { 0.0 } else { (num(m, "q3")? - num(m, "q1")?) / median.abs() })
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// `b` against `a` for a lower-is-better metric: unresolved when either file's own
/// spread exceeds the bound, regressed when `b` is worse by more than the bound.
fn verdict(a_median: f64, b_median: f64, own_spread: f64, bound: f64) -> Verdict {
    if own_spread > bound {
        Verdict::Unresolved
    } else if b_median > a_median * (1.0 + bound) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compares two result files of `run_all`; `Ok(true)` when nothing regressed and
/// every exact-repeat metric matches.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (read_document(a_path)?, read_document(b_path)?);
    compare_documents(&a, &b)
}

fn compare_documents(a: &Value, b: &Value) -> Result<bool, String> {
    for (label, doc) in [("first", a), ("second", b)] {
        check_set_document(doc).map_err(|e| format!("{label} file: {e}"))?;
        if doc.get("smoke") != Some(&Value::Bool(false)) {
            return Err(format!(
                "the {label} file is a smoke run (not at run_seconds); smoke runs are not comparable"
            ));
        }
        if doc.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("the {label} file records failed verification"));
        }
    }
    let mut good = true;
    println!(
        "{:<18} {:<14} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "b/a", "bound"
    );
    for workload in schema::contract_workloads()? {
        let (ra, rb) = (find_run(a, &workload, false)?, find_run(b, &workload, false)?);
        for name in schema::contract_names(false)? {
            let (ma, mb) = (find_metric(ra, &name)?, find_metric(rb, &name)?);
            let bound = schema::contract_bound(&name)?;
            let (med_a, med_b) = (num(ma, "median")?, num(mb, "median")?);
            let v = verdict(med_a, med_b, spread(ma)?.max(spread(mb)?), bound);
            good &= v != Verdict::Regressed;
            println!(
                "{workload:<18} {name:<14} {med_a:>12.6} {med_b:>12.6} {:>9.4} {bound:>6.2}  {v:?}",
                med_b / med_a
            );
        }
        let (ta, tb) = (find_run(a, &workload, true)?, find_run(b, &workload, true)?);
        for name in schema::contract_names(true)? {
            let (ma, mb) = (find_metric(ta, &name)?, find_metric(tb, &name)?);
            let exact = ma.get("kind").and_then(Value::as_str) == Some("modelled")
                || EXACT_COUNTS.contains(&name.as_str());
            let (med_a, med_b) = (num(ma, "median")?, num(mb, "median")?);
            if exact && med_a.to_bits() != med_b.to_bits() {
                good = false;
                println!("{workload:<18} {name}: must repeat exactly, but {med_a} != {med_b}");
            }
        }
    }
    println!(
        "{}",
        if good { "no regression; exact metrics repeat" } else { "REGRESSED or inexact" }
    );
    Ok(good)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{run_document, Meta};
    use crate::schema::Report;
    use crate::verify::Tally;

    fn set(scale: f64, smoke: bool, iterations: f64) -> Value {
        let seconds = schema::contract_run_seconds().unwrap();
        let mut runs = Vec::new();
        for workload in schema::contract_workloads().unwrap() {
            for trace in [false, true] {
                let mut report = Report::new(trace);
                for d in schema::defs(trace) {
                    let v = if d.name == "pcpg.iterations" { iterations } else { 2.0 * scale };
                    report.add(d.name, &[v * 0.99, v, v * 1.01]);
                }
                let meta = Meta {
                    workload: workload.clone(),
                    trace,
                    seed: 1,
                    seconds,
                    threads: 2,
                    nproc: 2,
                    block_size: 64,
                    factorization: "Simplicial".into(),
                };
                runs.push(
                    run_document(&meta, &report, &Tally { attempted: 1, failed: 0 }).unwrap(),
                );
            }
        }
        Value::obj(vec![
            ("smoke", Value::Bool(smoke)),
            ("correct", Value::Bool(true)),
            ("runs", Value::Arr(runs)),
        ])
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(1.0, 1.05, 0.02, 0.10), Verdict::Ok);
        assert_eq!(verdict(1.0, 0.5, 0.02, 0.10), Verdict::Ok);
        assert_eq!(verdict(1.0, 1.2, 0.02, 0.10), Verdict::Regressed);
        assert_eq!(verdict(1.0, 1.2, 0.3, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn identical_sets_agree_and_a_slower_one_regresses() {
        assert_eq!(compare_documents(&set(1.0, false, 102.0), &set(1.0, false, 102.0)), Ok(true));
        assert_eq!(
            compare_documents(&set(1.0, false, 102.0), &set(1.05, false, 102.0)),
            Ok(false),
            "modelled seconds moved: exact metrics must match bit for bit"
        );
        assert_eq!(compare_documents(&set(1.0, false, 102.0), &set(1.0, false, 103.0)), Ok(false));
    }

    #[test]
    fn smoke_and_incomplete_files_are_refused() {
        let err = compare_documents(&set(1.0, true, 102.0), &set(1.0, false, 102.0)).unwrap_err();
        assert!(err.contains("smoke"), "{err}");
        let mut short = set(1.0, false, 102.0);
        if let Value::Obj(pairs) = &mut short {
            if let Some((_, Value::Arr(runs))) = pairs.iter_mut().find(|(k, _)| k == "runs") {
                runs.pop();
            }
        }
        assert!(compare_documents(&short, &set(1.0, false, 102.0))
            .unwrap_err()
            .contains("no run of"));
    }
}
