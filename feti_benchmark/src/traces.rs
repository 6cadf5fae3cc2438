//! Reading a `TraceReport`: durations by span name, self time, and how much of a
//! benchmark-owned phase span the stack's own spans explain.
//!
//! The stack records `preprocess`, `factorize[sd=i]`, `apply`, `pcpg_iter[k]`,
//! `admit`, `queue_wait` and `run_job`; the benchmark wraps each outside call in a
//! `bench.*` span of its own.  A span on a pool worker has no recorded parent, so
//! "inside" is decided by time: a span belongs to whatever span's interval contains
//! its own, on any thread.

use feti_trace::{SpanRecord, TraceReport};

pub fn is_factorize(name: &str) -> bool {
    name.starts_with("factorize[")
}

pub fn is_pcpg_iter(name: &str) -> bool {
    name.starts_with("pcpg_iter[")
}

/// `factorize[sd=3]` → `factorize`.
fn base_name(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

/// Durations in seconds of every span whose name satisfies `pred`.
pub fn durations(report: &TraceReport, pred: impl Fn(&str) -> bool) -> Vec<f64> {
    report.spans.iter().filter(|s| pred(&s.name)).map(|s| s.dur_us * 1e-6).collect()
}

pub fn counter(report: &TraceReport, name: &str) -> u64 {
    report.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

fn end(s: &SpanRecord) -> f64 {
    s.start_us + s.dur_us
}

fn inside(child: &SpanRecord, parent: &SpanRecord) -> bool {
    !std::ptr::eq(child, parent) && child.start_us >= parent.start_us && end(child) <= end(parent)
}

/// Microseconds of `parent`'s interval covered by at least one of `children`.
fn covered_us<'a>(parent: &SpanRecord, children: impl Iterator<Item = &'a SpanRecord>) -> f64 {
    let mut intervals: Vec<(f64, f64)> = children.map(|c| (c.start_us, end(c))).collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = parent.start_us;
    for (start, stop) in intervals {
        if stop > reach {
            covered += stop - start.max(reach);
            reach = stop;
        }
    }
    covered
}

/// Self time per base span name in seconds, largest first, with the span count: a
/// span's duration minus the part of its interval that spans inside it cover.
/// Quadratic in the span count — meant for one phase of one cycle.
pub fn self_time_by_name(report: &TraceReport) -> Vec<(String, f64, usize)> {
    let mut rows: Vec<(String, f64, usize)> = Vec::new();
    for span in &report.spans {
        let covered = covered_us(span, report.spans.iter().filter(|c| inside(c, span)));
        let self_s = (span.dur_us - covered) * 1e-6;
        match rows.iter_mut().find(|(n, _, _)| n == base_name(&span.name)) {
            Some(row) => {
                row.1 += self_s;
                row.2 += 1;
            }
            None => rows.push((base_name(&span.name).to_string(), self_s, 1)),
        }
    }
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

/// The share of the spans named `phase` that no span inside them satisfying
/// `explained` covers.  Reported, not hidden: a large value says the stack has no
/// span there yet (e.g. the dense assembly of `F̃ᵢ` outside `factorize[sd=i]`).
pub fn unexplained_fraction(
    report: &TraceReport,
    phase: &str,
    explained: impl Fn(&str) -> bool,
) -> f64 {
    let (mut total, mut covered) = (0.0, 0.0);
    for parent in report.spans.iter().filter(|s| s.name == phase) {
        total += parent.dur_us;
        covered += covered_us(
            parent,
            report.spans.iter().filter(|c| explained(&c.name) && inside(c, parent)),
        );
    }
    if total == 0.0 {
        0.0
    } else {
        1.0 - covered / total
    }
}

/// Prints the self-time table of one phase on standard error.
pub fn print_self_times(phase: &str, report: &TraceReport) {
    eprintln!(
        "  self time under {phase} ({} spans, {} device ops):",
        report.spans.len(),
        report.device_ops.len()
    );
    for (name, seconds, count) in self_time_by_name(report).into_iter().take(6) {
        eprintln!("    {name:<24} {seconds:>10.6} s  x{count}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(thread: &str, name: &str, start_us: f64, dur_us: f64) -> SpanRecord {
        SpanRecord { thread: thread.into(), name: name.into(), start_us, dur_us, depth: 0 }
    }

    fn report() -> TraceReport {
        TraceReport {
            spans: vec![
                span("main", "bench.preprocess", 0.0, 100.0),
                span("main", "preprocess", 5.0, 90.0),
                // Two workers, overlapping in time: the union covers 10..70.
                span("w0", "factorize[sd=0]", 10.0, 40.0),
                span("w1", "factorize[sd=1]", 30.0, 40.0),
                // Outside the phase: must not count.
                span("main", "factorize[sd=9]", 200.0, 50.0),
            ],
            counters: vec![("rayon.region.inline".into(), 3)],
            ..TraceReport::default()
        }
    }

    #[test]
    fn unexplained_fraction_uses_the_union_of_inside_spans() {
        let r = report();
        let f = unexplained_fraction(&r, "bench.preprocess", is_factorize);
        assert!((f - 0.4).abs() < 1e-12, "{f}");
        assert_eq!(unexplained_fraction(&r, "bench.missing", is_factorize), 0.0);
    }

    #[test]
    fn self_time_subtracts_what_inner_spans_cover() {
        let rows = self_time_by_name(&report());
        let get = |n: &str| rows.iter().find(|r| r.0 == n).map(|r| (r.1 * 1e6, r.2)).unwrap();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(get("bench.preprocess").0, 10.0));
        assert!(close(get("preprocess").0, 30.0));
        let (factorize_us, count) = get("factorize");
        assert!(close(factorize_us, 130.0), "leaf spans keep their whole duration");
        assert_eq!(count, 3);
    }

    #[test]
    fn durations_and_counters_by_name() {
        let r = report();
        assert_eq!(durations(&r, is_factorize).len(), 3);
        assert_eq!(counter(&r, "rayon.region.inline"), 3);
        assert_eq!(counter(&r, "rayon.region.persistent"), 0);
        assert!(is_pcpg_iter("pcpg_iter[12]") && !is_pcpg_iter("apply"));
    }
}
