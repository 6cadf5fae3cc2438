//! Virtual per-stream timelines modelling asynchronous kernel execution and overlap.
//!
//! The paper submits every subdomain's kernels to one of 16 CUDA streams, so memory
//! transfers and kernels from different subdomains overlap, and CPU work (numeric
//! factorization of the next subdomain) overlaps with GPU work of the previous one.
//! [`DeviceTimeline`] reproduces that scheduling logic on virtual time: an operation
//! submitted at host time `t` to stream `s` starts at `max(t, stream_end[s])`, and a
//! device synchronization at host time `t` completes at `max(t, max_s stream_end[s])`.
//!
//! Under the real multithreaded host runtime, streams are keyed by the *worker* that
//! submits (one stream per host thread, as in the paper).  Determinism comes from the
//! phase scheduler recording subdomains in index order into a single timeline after
//! the parallel region joins.

use crate::cost::GpuCost;
use crate::op::PricedOp;

/// The virtual timeline of one stream.
#[derive(Debug, Clone, Default)]
pub struct StreamTimeline {
    end: f64,
}

impl StreamTimeline {
    /// Creates an empty stream timeline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits an operation that becomes ready (on the host) at `ready_at`; returns the
    /// virtual completion time.
    pub fn submit(&mut self, ready_at: f64, cost: &GpuCost) -> f64 {
        let start = self.end.max(ready_at);
        self.end = start + cost.seconds;
        self.end
    }

    /// Time at which the last submitted operation finishes.
    #[must_use]
    pub fn end_time(&self) -> f64 {
        self.end
    }
}

/// A set of stream timelines belonging to one device.
#[derive(Debug, Clone)]
pub struct DeviceTimeline {
    streams: Vec<StreamTimeline>,
}

impl DeviceTimeline {
    /// Creates a device timeline with `num_streams` streams (the paper uses 16, one per
    /// OpenMP thread).
    #[must_use]
    pub fn new(num_streams: usize) -> Self {
        assert!(num_streams > 0, "at least one stream is required");
        Self { streams: vec![StreamTimeline::new(); num_streams] }
    }

    /// Submits an operation to stream `stream % num_streams` with host ready time
    /// `ready_at`; returns the virtual completion time.
    pub fn submit(&mut self, stream: usize, ready_at: f64, cost: &GpuCost) -> f64 {
        let s = stream % self.streams.len();
        self.streams[s].submit(ready_at, cost)
    }

    /// Like [`Self::submit`], additionally exporting the operation to the trace
    /// layer as a virtual-device-lane record when tracing is enabled.
    ///
    /// The timeline itself retains only per-stream end times, so this is the
    /// export hook: the per-op start is recovered from the returned completion
    /// time (`start = completion − cost.seconds`), shifted by `epoch_us` (the
    /// wall-clock microsecond timestamp of the phase that owns this timeline) so
    /// the modelled lanes line up under the measured host spans.  The record is
    /// labelled with the operation's own kernel name ([`crate::DeviceOp::name`]).
    pub fn submit_traced(
        &mut self,
        stream: usize,
        ready_at: f64,
        op: &PricedOp,
        epoch_us: f64,
    ) -> f64 {
        let completion = self.submit(stream, ready_at, &op.cost);
        if feti_trace::enabled() {
            feti_trace::device_op(
                stream % self.streams.len(),
                op.op.name(),
                epoch_us + (completion - op.cost.seconds) * 1e6,
                op.cost.seconds * 1e6,
            );
        }
        completion
    }

    /// Virtual time at which all streams have drained, given that the host reaches the
    /// synchronization point at `host_time`.
    #[must_use]
    pub fn synchronize(&self, host_time: f64) -> f64 {
        self.streams.iter().map(StreamTimeline::end_time).fold(host_time, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(seconds: f64) -> GpuCost {
        GpuCost { seconds, bytes_moved: 0.0, flops: 0.0 }
    }

    #[test]
    fn single_stream_serializes_operations() {
        let mut s = StreamTimeline::new();
        assert_eq!(s.submit(0.0, &cost(1.0)), 1.0);
        // Submitted earlier than the stream is free: starts when the stream frees up.
        assert_eq!(s.submit(0.5, &cost(1.0)), 2.0);
        // Submitted after an idle gap: starts at the ready time.
        assert_eq!(s.submit(5.0, &cost(0.5)), 5.5);
    }

    #[test]
    fn multiple_streams_overlap() {
        let mut d = DeviceTimeline::new(2);
        d.submit(0, 0.0, &cost(1.0));
        d.submit(1, 0.0, &cost(1.0));
        // Two streams run concurrently: the device drains at t = 1, not t = 2.
        assert!((d.synchronize(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn synchronize_respects_host_time() {
        let mut d = DeviceTimeline::new(4);
        d.submit(2, 0.0, &cost(0.25));
        assert!((d.synchronize(3.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn submit_traced_exports_per_op_records_only_when_enabled() {
        use crate::DeviceOp;
        let priced =
            |op: DeviceOp, seconds: f64| PricedOp { op, cost: cost(seconds), temporary_bytes: 0 };
        let mut d = DeviceTimeline::new(2);
        feti_trace::clear();
        // Disabled: identical completion times, no exported records.
        let transfer = priced(DeviceOp::Transfer { bytes: 8 }, 1.0);
        assert_eq!(d.submit_traced(0, 0.0, &transfer, 0.0), 1.0);
        feti_trace::set_enabled(true);
        let end = d.submit_traced(0, 0.0, &priced(DeviceOp::Transfer { bytes: 8 }, 0.5), 100.0);
        // A zero-flop kernel is labelled by its own name, never guessed from its cost.
        d.submit_traced(1, 0.0, &priced(DeviceOp::ScatterGather { n: 4 }, 0.25), 0.0);
        feti_trace::set_enabled(false);
        assert_eq!(end, 1.5);
        let report = feti_trace::take_report();
        assert_eq!(report.device_ops.len(), 2);
        let op = &report.device_ops[0];
        assert_eq!(op.name, "transfer");
        assert_eq!(op.stream, 0);
        // start = completion − duration, shifted by the phase epoch.
        assert!((op.start_us - (100.0 + 1.0e6)).abs() < 1e-6);
        assert!((op.dur_us - 0.5e6).abs() < 1e-6);
        assert_eq!(report.device_ops[1].name, "scatter_gather");
    }

    #[test]
    fn stream_wraparound() {
        let mut d = DeviceTimeline::new(2);
        d.submit(0, 0.0, &cost(1.0));
        d.submit(2, 0.0, &cost(1.0)); // wraps to stream 0
        assert!((d.synchronize(0.0) - 2.0).abs() < 1e-12);
    }
}
