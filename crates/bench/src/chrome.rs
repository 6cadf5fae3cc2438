//! Chrome trace-event exporter for [`feti_trace`] reports.
//!
//! Renders a drained [`TraceReport`] in the trace-event JSON format that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load directly:
//!
//! - **process 1, "host (measured)"**: one lane per thread label (the worker
//!   names from the rayon shim, e.g. `feti-pool-0`), carrying the wall-clock
//!   spans (`preprocess`, `factorize[sd=i]`, `apply`, `pcpg_iter[k]`, service
//!   phases) as complete (`ph: "X"`) events;
//! - **process 2, "device (modelled)"**: one lane per virtual CUDA stream,
//!   carrying each modelled op, labelled with its kernel name, where the
//!   [`PhaseScheduler`](feti_core::PhaseScheduler)'s per-worker streams put it,
//!   on the same microsecond axis.
//!
//! The exporter reuses this crate's dependency-free [`crate::json`] writer; the
//! metrics registry and the planner's predicted-vs-measured records ride along
//! as extra top-level keys (`metrics`, `plans`), which trace viewers ignore.

use crate::json::Value;
use feti_trace::{HistogramSnapshot, PlanRecord, TraceReport, HISTOGRAM_BOUNDS};
use std::collections::BTreeMap;

/// Trace-event process id of the measured host lanes.
pub const HOST_PID: f64 = 1.0;
/// Trace-event process id of the modelled device-stream lanes.
pub const DEVICE_PID: f64 = 2.0;

fn metadata_event(pid: f64, tid: f64, kind: &str, name: &str) -> Value {
    Value::obj(vec![
        ("name", Value::Str(kind.to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::Num(pid)),
        ("tid", Value::Num(tid)),
        ("args", Value::obj(vec![("name", Value::Str(name.to_string()))])),
    ])
}

fn complete_event(pid: f64, tid: f64, name: &str, cat: &str, ts: f64, dur: f64) -> Value {
    Value::obj(vec![
        ("name", Value::Str(name.to_string())),
        ("cat", Value::Str(cat.to_string())),
        ("ph", Value::Str("X".to_string())),
        ("pid", Value::Num(pid)),
        ("tid", Value::Num(tid)),
        ("ts", Value::Num(ts)),
        ("dur", Value::Num(dur)),
    ])
}

fn histogram_value(h: &HistogramSnapshot) -> Value {
    let mut pairs = vec![
        ("count", Value::Num(h.count as f64)),
        ("sum", Value::Num(h.sum)),
        ("bounds", Value::Arr(HISTOGRAM_BOUNDS.iter().map(|&b| Value::Num(b)).collect())),
        ("counts", Value::Arr(h.counts.iter().map(|&c| Value::Num(c as f64)).collect())),
    ];
    // min/max are +/-infinity sentinels until the first record, and the JSON
    // writer (rightly) refuses non-finite numbers.
    if h.count > 0 {
        pairs.push(("min", Value::Num(h.min)));
        pairs.push(("max", Value::Num(h.max)));
    }
    Value::obj(pairs)
}

fn plan_value(plan: &PlanRecord) -> Value {
    let opt = |x: Option<f64>| x.map_or(Value::Null, Value::Num);
    Value::obj(vec![
        ("id", Value::Num(plan.id as f64)),
        ("expected_iterations", Value::Num(plan.expected_iterations as f64)),
        ("chosen_rank", Value::Num(plan.chosen_rank as f64)),
        (
            "candidates",
            Value::Arr(
                plan.candidates
                    .iter()
                    .map(|c| {
                        Value::obj(vec![
                            ("rank", Value::Num(c.rank as f64)),
                            ("approach", Value::Str(c.approach.clone())),
                            ("factorization", Value::Str(c.factorization.clone())),
                            ("params", Value::Str(c.params.clone())),
                            ("fits_device_memory", Value::Bool(c.fits_device_memory)),
                            ("predicted_preprocessing_s", Value::Num(c.predicted_preprocessing_s)),
                            ("predicted_apply_s", Value::Num(c.predicted_apply_s)),
                            ("predicted_total_s", Value::Num(c.predicted_total_s)),
                            ("measured_preprocessing_s", opt(c.measured_preprocessing_s)),
                            ("measured_apply_s", opt(c.measured_apply_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders a drained trace report as one Chrome trace-event document.
#[must_use]
pub fn chrome_trace(report: &TraceReport) -> Value {
    let mut events = vec![
        metadata_event(HOST_PID, 0.0, "process_name", "host (measured)"),
        metadata_event(DEVICE_PID, 0.0, "process_name", "device (modelled)"),
    ];

    // Host lanes: one tid per thread label, label-sorted so reruns diff cleanly.
    let mut threads: BTreeMap<&str, f64> = BTreeMap::new();
    for span in &report.spans {
        threads.entry(span.thread.as_str()).or_insert(0.0);
    }
    for (tid, (_, slot)) in threads.iter_mut().enumerate() {
        *slot = tid as f64;
    }
    for (label, tid) in &threads {
        events.push(metadata_event(HOST_PID, *tid, "thread_name", label));
    }
    for span in &report.spans {
        let tid = threads[span.thread.as_str()];
        events.push(complete_event(HOST_PID, tid, &span.name, "host", span.start_us, span.dur_us));
    }

    // Device lanes: one tid per virtual stream.
    let mut streams: Vec<usize> = report.device_ops.iter().map(|op| op.stream).collect();
    streams.sort_unstable();
    streams.dedup();
    for &stream in &streams {
        events.push(metadata_event(
            DEVICE_PID,
            stream as f64,
            "thread_name",
            &format!("stream {stream}"),
        ));
    }
    for op in &report.device_ops {
        events.push(complete_event(
            DEVICE_PID,
            op.stream as f64,
            &op.name,
            "device",
            op.start_us,
            op.dur_us,
        ));
    }

    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
        (
            "metrics",
            Value::obj(vec![
                (
                    "counters",
                    Value::Obj(
                        report
                            .counters
                            .iter()
                            .map(|(name, v)| (name.clone(), Value::Num(*v as f64)))
                            .collect(),
                    ),
                ),
                (
                    "histograms",
                    Value::Obj(
                        report
                            .histograms
                            .iter()
                            .map(|(name, h)| (name.clone(), histogram_value(h)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("plans", Value::Arr(report.plans.iter().map(plan_value).collect())),
        ("dropped_events", Value::Num(report.dropped_events as f64)),
    ])
}

/// Serializes a report with [`chrome_trace`] and writes it to `path`.
///
/// # Errors
/// Any I/O error from writing the file.
pub fn write_chrome_trace(report: &TraceReport, path: &str) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace(report).to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use feti_trace::{DeviceOpRecord, SpanRecord};

    fn sample_report() -> TraceReport {
        TraceReport {
            spans: vec![
                SpanRecord {
                    thread: "main".to_string(),
                    name: "preprocess".to_string(),
                    start_us: 10.0,
                    dur_us: 90.0,
                    depth: 0,
                },
                SpanRecord {
                    thread: "feti-pool-0".to_string(),
                    name: "factorize[sd=0]".to_string(),
                    start_us: 15.0,
                    dur_us: 40.0,
                    depth: 1,
                },
            ],
            device_ops: vec![
                DeviceOpRecord {
                    stream: 1,
                    name: "transfer".to_string(),
                    start_us: 20.0,
                    dur_us: 5.0,
                },
                DeviceOpRecord {
                    stream: 0,
                    name: "kernel".to_string(),
                    start_us: 25.0,
                    dur_us: 12.0,
                },
            ],
            counters: vec![("service.cache_hits".to_string(), 3)],
            histograms: vec![("pcpg_iterations".to_string(), {
                let mut h = feti_trace::HistogramSnapshot::default();
                h.counts[HISTOGRAM_BOUNDS.len()] += 1;
                h.count = 1;
                h.sum = 33.0;
                h.min = 33.0;
                h.max = 33.0;
                h
            })],
            plans: Vec::new(),
            dropped_events: 0,
        }
    }

    #[test]
    fn export_round_trips_through_the_json_parser_with_both_process_lanes() {
        let doc = chrome_trace(&sample_report());
        let back = parse(&doc.to_json()).expect("exported trace must be valid JSON");
        let events = match back.get("traceEvents") {
            Some(Value::Arr(events)) => events,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        let names_of = |pid: f64, ph: &str| -> Vec<String> {
            events
                .iter()
                .filter(|e| {
                    e.get("pid").and_then(Value::as_num) == Some(pid)
                        && e.get("ph").and_then(Value::as_str) == Some(ph)
                })
                .filter_map(|e| {
                    if ph == "M" {
                        e.get("args")?.get("name")?.as_str().map(str::to_string)
                    } else {
                        e.get("name")?.as_str().map(str::to_string)
                    }
                })
                .collect()
        };
        let host_lanes = names_of(HOST_PID, "M");
        assert!(host_lanes.contains(&"host (measured)".to_string()));
        assert!(host_lanes.contains(&"main".to_string()));
        assert!(host_lanes.contains(&"feti-pool-0".to_string()));
        let device_lanes = names_of(DEVICE_PID, "M");
        assert!(device_lanes.contains(&"device (modelled)".to_string()));
        assert!(device_lanes.contains(&"stream 0".to_string()));
        assert!(device_lanes.contains(&"stream 1".to_string()));
        assert_eq!(names_of(HOST_PID, "X"), ["preprocess", "factorize[sd=0]"]);
        assert_eq!(names_of(DEVICE_PID, "X"), ["transfer", "kernel"]);
        // The metrics ride along and survive the round trip.
        let hits = back
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("service.cache_hits"))
            .and_then(Value::as_num);
        assert_eq!(hits, Some(3.0));
    }

    #[test]
    fn empty_reports_export_cleanly() {
        let doc = chrome_trace(&TraceReport::default());
        let back = parse(&doc.to_json()).unwrap();
        assert!(matches!(back.get("traceEvents"), Some(Value::Arr(_))));
        assert_eq!(back.get("dropped_events").and_then(Value::as_num), Some(0.0));
    }
}
