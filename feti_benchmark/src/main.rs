//! `feti_benchmark`: one seeded benchmark of the FETI stack along the paper's axes —
//! set-up, preprocessing (factorization + assembly of `F̃ᵢ`), one application of `F`,
//! a PCPG solve, and service job latency — with end-to-end, per-layer and traced
//! numbers.  See `README.md` beside this crate and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! feti-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <file>]
//! feti-benchmark --seed <u64> --out <file> [--seconds <n>]     every workload, both modes
//! feti-benchmark --compare <a.json> <b.json>
//! ```

mod compare;
mod direct;
mod layers;
mod output;
mod rng;
mod run;
mod schema;
mod service;
mod stats;
mod traces;
mod verify;
mod workloads;

use output::Meta;
use std::process::ExitCode;
use verify::Tally;

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = Some(value()?.parse().map_err(|_| "--seed takes a u64".to_string())?);
            }
            "--seconds" => {
                let s: f64 =
                    value()?.parse().map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => parsed.out = Some(value()?),
            "--compare" => parsed.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Host threads the stack's parallel regions are pinned to: up to four, and one core
/// fewer than the machine has.  With every core busy, whatever else runs on the box
/// (the driver, kernel threads, the hypervisor's other guests) takes its time out of
/// a worker inside a parallel region, which then waits for its slowest part: on the
/// two-core box this was written on, two threads repeated within ±20 % and one
/// thread within ±5 %.
fn host_threads(nproc: usize) -> usize {
    nproc.saturating_sub(1).clamp(1, 4)
}

/// Runs one workload in this process and prints the result line.
fn run_one(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<&str>,
) -> Result<bool, String> {
    let workload = workloads::by_name(name).ok_or_else(|| {
        format!("unknown workload {name}; BENCHMARK.json lists {:?}", schema::contract_workloads())
    })?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads = host_threads(nproc);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|_| "cannot build the host thread pool".to_string())?;
    let mut tally = Tally::default();
    let mut report = pool.install(|| {
        if trace {
            layers::per_layer(&workload, seed, threads, nproc, seconds, &mut tally)
        } else {
            run::end_to_end(&workload, seed, threads, seconds, &mut tally)
        }
    })?;
    report.sort();

    let meta = Meta {
        workload: name.to_string(),
        trace,
        seed,
        seconds,
        threads,
        nproc,
        block_size: feti_sparse::blas::kernel_block_size(),
        factorization: format!("{:?}", feti_solver::FactorizationKind::default_kind()),
    };
    output::print_table(&meta, &report);
    let line = output::result_line(&report, &tally);
    output::check_result_line(&line, trace)?;
    if let Some(path) = out {
        let doc = output::run_document(&meta, &report, &tally)?;
        output::write_checked(path, &doc, output::check_run_document)?;
    }
    println!("{line}");
    Ok(tally.failed == 0)
}

fn main() -> ExitCode {
    // No knob but the command line: whatever FETI_* the caller's shell carries
    // (thread count, block size, factorization kind, trace) must not reach the stack.
    let ambient: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FETI_"))
        .collect();
    for key in ambient {
        std::env::remove_var(key);
    }

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if let Some((a, b)) = &args.compare {
            return compare::compare_files(a, b);
        }
        let seed = args.seed.ok_or("--seed is required")?;
        let seconds = match args.seconds {
            Some(s) => s,
            None => schema::contract_run_seconds()?,
        };
        match &args.workload {
            Some(name) => run_one(name, seed, seconds, args.trace, args.out.as_deref()),
            None => {
                let out =
                    args.out.as_deref().ok_or("--out is required when every workload runs")?;
                compare::run_all(seed, seconds, out)
            }
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("feti-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "heat3d_implicit",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("heat3d_implicit"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(20.0), true));
        let c = args(&["--compare", "a.json", "b.json"]).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn one_core_is_left_to_the_rest_of_the_machine() {
        assert_eq!([1, 2, 3, 5, 64].map(host_threads), [1, 1, 2, 4, 4]);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            &["--seed"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "600"],
            &["--trace", "2"],
            &["--reps", "3"],
            &["--compare", "only-one.json"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
