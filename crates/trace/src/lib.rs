//! Hand-rolled, dependency-free observability layer for the FETI reproduction.
//!
//! Four cooperating pieces, all off by default and gated behind a single relaxed
//! atomic so the disabled fast path is one load and a branch:
//!
//! * **Span tracing** ([`span`], [`SpanGuard`]): thread-local span stacks record
//!   named phases (`preprocess`, `factorize[sd=i]`, `apply`, `pcpg_iter[k]`, the
//!   service's `admit`/`queue_wait`/`run_job`, …) with wall-clock timestamps into
//!   per-thread event buffers.  Each buffer is written only by its owning thread
//!   (its mutex is uncontended outside a flush), so the hot path never blocks on
//!   another thread; [`take_report`] drains every registered buffer.
//! * **Metrics registry** ([`counter_add`], [`histogram_record`]): named counters
//!   and fixed-bucket log-scale histograms (cache hit-rate, queue depth, admission
//!   wait, PCPG iterations, per-approach apply seconds).
//! * **Device-op records** ([`device_op`]): the phase scheduler's modelled streams
//!   report each submitted kernel/transfer so the exporter can render virtual
//!   device lanes next to the measured host lanes.
//! * **Planner decision records** ([`record_plan`], [`stamp_plan`]): every plan
//!   emits its ranked candidate estimates, and the solver stamps the measured
//!   outcome next to the prediction, producing the plan-accuracy report.
//!
//! The crate has no dependencies (std only) and sits at the bottom of the
//! workspace DAG so every layer — including the rayon shim — can call into it.
//! Timestamps are microseconds since a process-wide epoch ([`now_us`]); the
//! Chrome trace-event exporter in `feti-bench` converts a drained [`TraceReport`]
//! into a `chrome://tracing` / Perfetto JSON document.
//!
//! Tracing must never perturb numerics: nothing in this crate feeds back into the
//! solver, and every recording call is a no-op (without allocating — span names
//! are built inside closures evaluated only when enabled) while disabled.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable flag and clock
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing is currently enabled.
///
/// This is the compiled-in fast path: a relaxed atomic load and a branch.  Every
/// recording entry point checks it, so instrumented code may call the recording
/// functions unconditionally; use it directly only to skip *building* expensive
/// arguments (the closure taken by [`span`] already does this for span names).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off (the builder-style entry point; tests use it too).
pub fn set_enabled(on: bool) {
    if on {
        // Anchor the clock before the first event so timestamps are monotonic
        // from a stable epoch.
        let _ = epoch();
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables tracing when the `FETI_TRACE` environment variable is set, returning
/// the requested trace-file path.
///
/// `FETI_TRACE=trace.json` enables tracing and asks for a Chrome-trace export to
/// `trace.json`; empty, `0` and `off` leave tracing disabled.  The values `1`,
/// `true` and `on` enable tracing without naming an export path.
pub fn init_from_env() -> Option<String> {
    let value = std::env::var("FETI_TRACE").ok()?;
    if value.is_empty() || value == "0" || value.eq_ignore_ascii_case("off") {
        return None;
    }
    set_enabled(true);
    if value == "1" || value.eq_ignore_ascii_case("true") || value.eq_ignore_ascii_case("on") {
        None
    } else {
        Some(value)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process-wide trace epoch.
#[must_use]
pub fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

// ---------------------------------------------------------------------------
// Span tracing
// ---------------------------------------------------------------------------

/// One closed span: a named phase measured on one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Label of the thread the span ran on (the worker name from the rayon shim,
    /// e.g. `feti-pool-0`, or `main`).
    pub thread: String,
    /// Phase name, e.g. `preprocess` or `factorize[sd=3]`.
    pub name: String,
    /// Start timestamp in microseconds since the trace epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Nesting depth at the time the span was opened (0 = outermost).
    pub depth: usize,
}

/// One modelled device operation submitted to a virtual stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceOpRecord {
    /// Stream index within the modelled device.
    pub stream: usize,
    /// Operation label: the kernel name of the submitted op (`transfer`, `trsm`, …).
    pub name: String,
    /// Modelled start in microseconds (offset to the host clock by the caller).
    pub start_us: f64,
    /// Modelled duration in microseconds.
    pub dur_us: f64,
}

/// Hard cap on buffered events per thread; further events are counted as dropped
/// rather than growing without bound when nothing ever flushes.
const MAX_EVENTS_PER_THREAD: usize = 1 << 20;

struct ThreadBuf {
    label: String,
    events: Mutex<Vec<SpanRecord>>,
}

struct LocalState {
    buf: Arc<ThreadBuf>,
    stack: Vec<(String, f64)>,
}

thread_local! {
    static LOCAL: RefCell<Option<LocalState>> = const { RefCell::new(None) };
}

struct Registry {
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    device_ops: Mutex<Vec<DeviceOpRecord>>,
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, HistogramSnapshot>>,
    plans: Mutex<Vec<PlanRecord>>,
    next_plan_id: AtomicU64,
    dropped: AtomicU64,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        threads: Mutex::new(Vec::new()),
        device_ops: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        plans: Mutex::new(Vec::new()),
        next_plan_id: AtomicU64::new(1),
        dropped: AtomicU64::new(0),
    })
}

/// Poison-tolerant lock: tracing state stays usable after a panicking test
/// thread, mirroring the stats locks elsewhere in the workspace.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn with_local<R>(f: impl FnOnce(&mut LocalState) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let state = slot.get_or_insert_with(|| {
            let label = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{:?}", std::thread::current().id()), String::from);
            let buf = Arc::new(ThreadBuf { label, events: Mutex::new(Vec::new()) });
            locked(&registry().threads).push(Arc::clone(&buf));
            LocalState { buf, stack: Vec::new() }
        });
        f(state)
    })
}

/// RAII guard returned by [`span`]; records the span when dropped.
#[must_use = "a span measures the region it is alive for — bind it to a variable"]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_us();
        with_local(|state| {
            if let Some((name, start)) = state.stack.pop() {
                let record = SpanRecord {
                    thread: state.buf.label.clone(),
                    name,
                    start_us: start,
                    dur_us: end - start,
                    depth: state.stack.len(),
                };
                let mut events = locked(&state.buf.events);
                if events.len() < MAX_EVENTS_PER_THREAD {
                    events.push(record);
                } else {
                    registry().dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
    }
}

/// Opens a named span on the current thread; the name closure is only evaluated
/// when tracing is enabled, so `span(|| format!("factorize[sd={i}]"))` allocates
/// nothing on the disabled path.
pub fn span<F, S>(name: F) -> SpanGuard
where
    F: FnOnce() -> S,
    S: Into<String>,
{
    if !enabled() {
        return SpanGuard { active: false };
    }
    let start = now_us();
    with_local(|state| state.stack.push((name().into(), start)));
    SpanGuard { active: true }
}

/// Records an already-closed span with an explicit start timestamp, attributed to
/// the current thread.  Used for waits measured across threads (a job's
/// `queue_wait` starts on the submitting thread and ends on the worker).
pub fn record_closed_span<F, S>(name: F, start_us: f64)
where
    F: FnOnce() -> S,
    S: Into<String>,
{
    if !enabled() {
        return;
    }
    let end = now_us();
    with_local(|state| {
        let record = SpanRecord {
            thread: state.buf.label.clone(),
            name: name().into(),
            start_us,
            dur_us: (end - start_us).max(0.0),
            depth: state.stack.len(),
        };
        let mut events = locked(&state.buf.events);
        if events.len() < MAX_EVENTS_PER_THREAD {
            events.push(record);
        } else {
            registry().dropped.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Records one modelled device operation for the virtual-device lanes.
pub fn device_op(stream: usize, name: &str, start_us: f64, dur_us: f64) {
    if !enabled() {
        return;
    }
    locked(&registry().device_ops).push(DeviceOpRecord {
        stream,
        name: name.to_string(),
        start_us,
        dur_us,
    });
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Fixed logarithmic bucket bounds shared by every histogram: a value lands in
/// the first bucket whose upper bound is `>=` the value, or in the overflow
/// bucket past the last bound.  The decade grid covers nanoseconds-to-kiloseconds
/// durations as well as small integer quantities (queue depths, iteration
/// counts).
pub const HISTOGRAM_BOUNDS: [f64; 13] =
    [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3];

/// Snapshot of one fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; `counts[i]` counts values `<= HISTOGRAM_BOUNDS[i]`, and
    /// the final entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value.
    pub min: f64,
    /// Largest recorded value.
    pub max: f64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: vec![0; HISTOGRAM_BOUNDS.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

/// Adds `delta` to the named counter (no-op while disabled).
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    *locked(&registry().counters).entry(name.to_string()).or_insert(0) += delta;
}

/// Records one value into the named fixed-bucket histogram (no-op while
/// disabled).
pub fn histogram_record(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let mut histograms = locked(&registry().histograms);
    let h = histograms.entry(name.to_string()).or_default();
    let bucket =
        HISTOGRAM_BOUNDS.iter().position(|&bound| value <= bound).unwrap_or(HISTOGRAM_BOUNDS.len());
    h.counts[bucket] += 1;
    h.count += 1;
    h.sum += value;
    h.min = h.min.min(value);
    h.max = h.max.max(value);
}

// ---------------------------------------------------------------------------
// Planner decision records
// ---------------------------------------------------------------------------

/// One ranked candidate of a plan: the prediction, and (once the solver ran it)
/// the measured outcome stamped next to it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCandidateRecord {
    /// Position in the plan's ranking (0 = best).
    pub rank: usize,
    /// Dual-operator approach label (e.g. `expl modern`).
    pub approach: String,
    /// Factorization kind the estimate assumed.
    pub factorization: String,
    /// Compact rendering of the explicit-assembly parameters.
    pub params: String,
    /// Whether the planner judged the candidate to fit device memory.
    pub fits_device_memory: bool,
    /// Predicted one-off preprocessing seconds.
    pub predicted_preprocessing_s: f64,
    /// Predicted seconds per single application.
    pub predicted_apply_s: f64,
    /// Predicted total at the plan's expected iteration count.
    pub predicted_total_s: f64,
    /// Measured preprocessing seconds, stamped by the solver that ran this
    /// candidate (`None` until then).
    pub measured_preprocessing_s: Option<f64>,
    /// Measured seconds per application, stamped by the solver.
    pub measured_apply_s: Option<f64>,
}

/// One recorded planning decision: the ranked candidates of a `plan` /
/// `plan_auto` call.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRecord {
    /// Identifier the solver uses to stamp measured outcomes.
    pub id: u64,
    /// Iteration count the ranking amortized preprocessing over.
    pub expected_iterations: usize,
    /// Rank of the candidate `Plan::best()` selected.
    pub chosen_rank: usize,
    /// The ranked candidates, best first.
    pub candidates: Vec<PlanCandidateRecord>,
}

/// Records a planning decision and returns its id, or `None` while disabled.
pub fn record_plan(
    expected_iterations: usize,
    chosen_rank: usize,
    candidates: Vec<PlanCandidateRecord>,
) -> Option<u64> {
    if !enabled() {
        return None;
    }
    let reg = registry();
    let id = reg.next_plan_id.fetch_add(1, Ordering::Relaxed);
    locked(&reg.plans).push(PlanRecord { id, expected_iterations, chosen_rank, candidates });
    Some(id)
}

/// Stamps measured seconds onto one ranked candidate of a recorded plan.
///
/// The candidate is matched by its [`PlanCandidateRecord::rank`] field (not by
/// position): recorders may keep a deduplicated subset of a larger ranking while
/// preserving the original rank numbers.  Unknown ids/ranks are ignored; `None`
/// fields leave the existing stamp alone.
pub fn stamp_plan(
    id: u64,
    rank: usize,
    measured_preprocessing_s: Option<f64>,
    measured_apply_s: Option<f64>,
) {
    if !enabled() {
        return;
    }
    let mut plans = locked(&registry().plans);
    if let Some(plan) = plans.iter_mut().find(|p| p.id == id) {
        if let Some(candidate) = plan.candidates.iter_mut().find(|c| c.rank == rank) {
            if measured_preprocessing_s.is_some() {
                candidate.measured_preprocessing_s = measured_preprocessing_s;
            }
            if measured_apply_s.is_some() {
                candidate.measured_apply_s = measured_apply_s;
            }
        }
    }
}

/// Snapshot (without draining) of every recorded planning decision.
#[must_use]
pub fn plan_records() -> Vec<PlanRecord> {
    locked(&registry().plans).clone()
}

// ---------------------------------------------------------------------------
// Flush
// ---------------------------------------------------------------------------

/// Everything the trace layer collected, drained by [`take_report`].
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Closed spans from every thread, in per-thread recording order.
    pub spans: Vec<SpanRecord>,
    /// Modelled device operations.
    pub device_ops: Vec<DeviceOpRecord>,
    /// Counter values, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Planning decisions with any stamped measurements.
    pub plans: Vec<PlanRecord>,
    /// Events discarded because a per-thread buffer hit its cap.
    pub dropped_events: u64,
}

/// Drains every per-thread span buffer, the device-op sink, the metrics registry
/// and the plan records into one report.  Spans still open (their guard not yet
/// dropped) are not included.
#[must_use]
pub fn take_report() -> TraceReport {
    let reg = registry();
    let mut spans = Vec::new();
    for buf in locked(&reg.threads).iter() {
        spans.append(&mut locked(&buf.events));
    }
    spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    let device_ops = std::mem::take(&mut *locked(&reg.device_ops));
    let counters = std::mem::take(&mut *locked(&reg.counters)).into_iter().collect();
    let histograms = std::mem::take(&mut *locked(&reg.histograms)).into_iter().collect();
    let plans = std::mem::take(&mut *locked(&reg.plans));
    let dropped_events = reg.dropped.swap(0, Ordering::Relaxed);
    TraceReport { spans, device_ops, counters, histograms, plans, dropped_events }
}

/// Discards everything collected so far (test hygiene between scenarios).
pub fn clear() {
    let _ = take_report();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The enable flag and the sinks are process-global; every test that toggles
    // them holds this lock so `cargo test` can run the module multi-threaded.
    fn exclusive() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_span_records_nothing_and_evaluates_no_name() {
        let _gate = exclusive();
        set_enabled(false);
        clear();
        let mut evaluated = false;
        {
            let _s = span(|| {
                evaluated = true;
                "never"
            });
        }
        assert!(!evaluated, "span name closure must not run while disabled");
        counter_add("c", 1);
        histogram_record("h", 0.5);
        device_op(0, "kernel", 0.0, 1.0);
        assert!(record_plan(10, 0, Vec::new()).is_none());
        let report = take_report();
        assert!(report.spans.is_empty());
        assert!(report.device_ops.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.histograms.is_empty());
        assert!(report.plans.is_empty());
    }

    #[test]
    fn nested_spans_record_depth_and_containment() {
        let _gate = exclusive();
        set_enabled(true);
        clear();
        {
            let _outer = span(|| "outer");
            let _inner = span(|| "inner");
        }
        set_enabled(false);
        let report = take_report();
        assert_eq!(report.spans.len(), 2);
        let outer = report.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = report.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us + 1e-3);
        assert_eq!(outer.thread, inner.thread);
    }

    #[test]
    fn metrics_count_and_bucket() {
        let _gate = exclusive();
        set_enabled(true);
        clear();
        counter_add("jobs", 2);
        counter_add("jobs", 3);
        histogram_record("wait_s", 5e-4);
        histogram_record("wait_s", 2.0);
        set_enabled(false);
        let report = take_report();
        assert_eq!(report.counters, vec![("jobs".to_string(), 5)]);
        let (name, h) = &report.histograms[0];
        assert_eq!(name, "wait_s");
        assert_eq!(h.count, 2);
        assert!((h.sum - 2.0005).abs() < 1e-12);
        assert_eq!(h.min, 5e-4);
        assert_eq!(h.max, 2.0);
        // 5e-4 <= 1e-3 (bucket 6), 2.0 <= 1e1 (bucket 10).
        assert_eq!(h.counts[6], 1);
        assert_eq!(h.counts[10], 1);
        assert_eq!(h.counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn plan_records_stamp_measured_next_to_predicted() {
        let _gate = exclusive();
        set_enabled(true);
        clear();
        let candidate = PlanCandidateRecord {
            rank: 0,
            approach: "expl modern".into(),
            factorization: "simplicial".into(),
            params: "syrk".into(),
            fits_device_memory: true,
            predicted_preprocessing_s: 0.5,
            predicted_apply_s: 0.01,
            predicted_total_s: 1.5,
            measured_preprocessing_s: None,
            measured_apply_s: None,
        };
        let id = record_plan(100, 0, vec![candidate]).unwrap();
        stamp_plan(id, 0, Some(0.6), None);
        stamp_plan(id, 0, None, Some(0.012));
        stamp_plan(id, 7, Some(9.9), None); // unknown rank: ignored
        set_enabled(false);
        let plans = take_report().plans;
        assert_eq!(plans.len(), 1);
        let c = &plans[0].candidates[0];
        assert_eq!(c.measured_preprocessing_s, Some(0.6));
        assert_eq!(c.measured_apply_s, Some(0.012));
    }

    #[test]
    fn spans_from_multiple_threads_are_all_drained() {
        let _gate = exclusive();
        set_enabled(true);
        clear();
        let handles: Vec<_> = (0..4)
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("trace-test-{w}"))
                    .spawn(move || {
                        for i in 0..8 {
                            let _s = span(|| format!("work[{w}.{i}]"));
                        }
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let report = take_report();
        assert_eq!(report.spans.len(), 32);
        let threads: std::collections::BTreeSet<_> =
            report.spans.iter().map(|s| s.thread.clone()).collect();
        assert_eq!(threads.len(), 4);
        assert_eq!(report.dropped_events, 0);
    }

    #[test]
    fn cross_thread_closed_span_clamps_negative_durations() {
        let _gate = exclusive();
        set_enabled(true);
        clear();
        let start = now_us();
        record_closed_span(|| "queue_wait", start);
        record_closed_span(|| "skewed", start + 1e9);
        set_enabled(false);
        let report = take_report();
        assert_eq!(report.spans.len(), 2);
        assert!(report.spans.iter().all(|s| s.dur_us >= 0.0));
    }
}
