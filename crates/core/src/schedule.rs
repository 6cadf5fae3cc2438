//! Phase scheduling: combining measured CPU time with modelled GPU time under the
//! paper's execution model (parallel subdomain loop, one CUDA stream per host thread,
//! asynchronous submission, a single synchronization at the end of the phase).
//!
//! Determinism under the real multithreaded runtime: subdomains are *recorded* in
//! subdomain-index order after the parallel region joins, and subdomain `i` is always
//! attributed to modelled worker `i % num_threads` (whose stream is keyed by that
//! worker), so the modelled device timeline — and with it `gpu_seconds` and the
//! overlapped `total_seconds` — is a pure function of the per-subdomain inputs,
//! independent of which OS thread actually executed which subdomain or in what order
//! they completed.

use feti_gpu::{DeviceTimeline, PricedOp};

/// Wall-clock budget of one phase split into its CPU and GPU parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Host wall time of the phase (seconds): the measured wall time of the parallel
    /// subdomain region when the phase really ran, or the modelled makespan over the
    /// host workers for an a-priori estimate.  **Not** a sum over threads.
    pub cpu_seconds: f64,
    /// Modelled device busy time (seconds), summed over streams.
    pub gpu_seconds: f64,
    /// Phase wall time under the overlapped schedule (host work hides device work of
    /// previously submitted subdomains); always `>= max(cpu part, unhidden gpu part)`.
    pub total_seconds: f64,
}

impl TimeBreakdown {
    /// Adds another breakdown assuming sequential phases (no overlap between them).
    #[must_use]
    pub fn then(self, other: TimeBreakdown) -> Self {
        Self {
            cpu_seconds: self.cpu_seconds + other.cpu_seconds,
            gpu_seconds: self.gpu_seconds + other.gpu_seconds,
            total_seconds: self.total_seconds + other.total_seconds,
        }
    }

    /// Scales every component by `factor` (used to report each right-hand side's
    /// amortized share of a batched phase).
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            cpu_seconds: self.cpu_seconds * factor,
            gpu_seconds: self.gpu_seconds * factor,
            total_seconds: self.total_seconds * factor,
        }
    }
}

/// Schedules one phase of Algorithm 2: a parallel loop over subdomains where each
/// subdomain performs CPU work (factorization, conversions, submissions) and then
/// enqueues GPU operations on its worker's stream.
///
/// Subdomain `i` is handled by modelled worker `i % num_threads`, and each worker owns
/// its own stream — one CUDA stream per host thread, as in the paper (which uses 16
/// threads and 16 streams).  The phase ends with one device synchronization.
#[derive(Debug)]
pub struct PhaseScheduler {
    thread_cpu: Vec<f64>,
    timeline: DeviceTimeline,
    total_gpu_busy: f64,
    /// When set, every submitted device op is exported to the trace layer as a
    /// virtual-device-lane record anchored at this wall-clock microsecond
    /// timestamp.  Only *executed* phases ([`Self::for_host`]) export; a-priori
    /// estimate schedulers ([`Self::new`], used heavily by the planner) never do,
    /// so candidate pricing cannot flood the trace with hypothetical kernels.
    trace_epoch_us: Option<f64>,
}

impl PhaseScheduler {
    /// Creates a scheduler with `num_threads` host workers, each submitting to its own
    /// device stream.
    #[must_use]
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads > 0);
        Self {
            thread_cpu: vec![0.0; num_threads],
            timeline: DeviceTimeline::new(num_threads),
            total_gpu_busy: 0.0,
            trace_epoch_us: None,
        }
    }

    /// A scheduler matching the live host runtime: one modelled worker and one stream
    /// per actual worker thread of the current parallel configuration.  When tracing
    /// is enabled the phase's device submissions are exported as virtual-device
    /// lanes, anchored at the wall-clock time this scheduler was created (the phase
    /// records after its parallel region joins, so the modelled lanes appear at the
    /// recording point, with the phase's virtual time running forward from there).
    #[must_use]
    pub fn for_host() -> Self {
        let mut scheduler = Self::new(crate::host_threads());
        if feti_trace::enabled() {
            scheduler.trace_epoch_us = Some(feti_trace::now_us());
        }
        scheduler
    }

    /// Records the work of one subdomain: `cpu_seconds` of host work followed by the
    /// asynchronous submission of `gpu_ops` to the worker's stream.
    ///
    /// Callers under the parallel runtime must invoke this in subdomain-index order
    /// (after the parallel region joins) so the modelled timeline stays deterministic.
    pub fn record_subdomain(&mut self, subdomain: usize, cpu_seconds: f64, gpu_ops: &[PricedOp]) {
        let worker = subdomain % self.thread_cpu.len();
        self.thread_cpu[worker] += cpu_seconds;
        let ready = self.thread_cpu[worker];
        for op in gpu_ops {
            match self.trace_epoch_us {
                Some(epoch_us) => self.timeline.submit_traced(worker, ready, op, epoch_us),
                None => self.timeline.submit(worker, ready, &op.cost),
            };
            self.total_gpu_busy += op.cost.seconds;
        }
    }

    /// The modelled host makespan: the largest per-worker CPU accumulation.
    #[must_use]
    fn modelled_host_wall(&self) -> f64 {
        self.thread_cpu.iter().copied().fold(0.0, f64::max)
    }

    /// Ends an *estimated* phase: the host reaches the synchronization point at the
    /// modelled makespan over the workers, and the phase completes when the device
    /// drains.  `cpu_seconds` is that modelled host makespan.
    #[must_use]
    pub fn finish(&self) -> TimeBreakdown {
        self.finish_with_host_wall(self.modelled_host_wall())
    }

    /// Ends an *executed* phase whose parallel region took `measured_wall` seconds of
    /// real wall time: `cpu_seconds` reports the measured wall (not a per-thread sum),
    /// and the host reaches the synchronization point at that measured wall.  GPU
    /// ready times keep using the deterministic per-worker model so the device part
    /// of the breakdown is schedule-independent; the measured wall is **not** maxed
    /// with the modelled `i % threads` packing, which the real pool (each idle thread
    /// claims the next subdomain) can legitimately beat — a CPU-only phase must never
    /// report a total above what was actually measured.
    #[must_use]
    pub fn finish_measured(&self, measured_wall: f64) -> TimeBreakdown {
        self.finish_with_host_wall(measured_wall)
    }

    fn finish_with_host_wall(&self, host_wall: f64) -> TimeBreakdown {
        let total = self.timeline.synchronize(host_wall);
        TimeBreakdown {
            cpu_seconds: host_wall,
            gpu_seconds: self.total_gpu_busy,
            total_seconds: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu(seconds: f64) -> PricedOp {
        PricedOp {
            op: feti_gpu::DeviceOp::ScatterGather { n: 0 },
            cost: feti_gpu::GpuCost { seconds, bytes_moved: 0.0, flops: 0.0 },
            temporary_bytes: 0,
        }
    }

    #[test]
    fn cpu_only_phase_reports_the_parallel_makespan() {
        let mut s = PhaseScheduler::new(2);
        s.record_subdomain(0, 1.0, &[]);
        s.record_subdomain(1, 2.0, &[]);
        let t = s.finish();
        assert!((t.total_seconds - 2.0).abs() < 1e-12, "threads run in parallel");
        assert!((t.cpu_seconds - 2.0).abs() < 1e-12, "cpu_seconds is the makespan, not the sum");
    }

    #[test]
    fn measured_wall_overrides_the_modelled_makespan() {
        let mut s = PhaseScheduler::new(2);
        s.record_subdomain(0, 1.0, &[]);
        s.record_subdomain(1, 1.0, &[]);
        // The region really took 1.6 s of wall time (imperfect speedup).
        let t = s.finish_measured(1.6);
        assert!((t.cpu_seconds - 1.6).abs() < 1e-12);
        assert!((t.total_seconds - 1.6).abs() < 1e-12);
    }

    #[test]
    fn measured_wall_below_the_modelled_packing_is_trusted() {
        // The modelled `i % threads` packing puts 1.0 + 2.0 on one worker (makespan
        // 3.0), but the real pool balanced the region into 1.8 s of wall time.  A
        // CPU-only phase must report what was measured, never more.
        let mut s = PhaseScheduler::new(1);
        s.record_subdomain(0, 1.0, &[]);
        s.record_subdomain(1, 2.0, &[]);
        let t = s.finish_measured(1.8);
        assert!((t.cpu_seconds - 1.8).abs() < 1e-12);
        assert!((t.total_seconds - 1.8).abs() < 1e-12);
    }

    #[test]
    fn device_drain_extends_past_the_measured_wall() {
        let mut s = PhaseScheduler::new(1);
        s.record_subdomain(0, 1.0, &[gpu(2.0)]);
        let t = s.finish_measured(1.2);
        // GPU work becomes ready at the modelled 1.0, runs 2.0 → drains at 3.0.
        assert!((t.total_seconds - 3.0).abs() < 1e-12, "got {}", t.total_seconds);
        assert!((t.cpu_seconds - 1.2).abs() < 1e-12);
    }

    #[test]
    fn gpu_work_overlaps_with_later_cpu_work() {
        // One thread, one stream: subdomain 0's GPU work runs while subdomain 1's CPU
        // work proceeds, exactly the overlap described in §IV-B.
        let mut s = PhaseScheduler::new(1);
        s.record_subdomain(0, 1.0, &[gpu(0.8)]);
        s.record_subdomain(1, 1.0, &[gpu(0.8)]);
        let t = s.finish();
        // CPU: 2.0 total.  GPU of subdomain 0 runs during subdomain 1's CPU second; GPU
        // of subdomain 1 starts at max(2.0, 1.8) = 2.0 and ends at 2.8.
        assert!((t.total_seconds - 2.8).abs() < 1e-9, "got {}", t.total_seconds);
    }

    #[test]
    fn multiple_streams_increase_concurrency() {
        // One worker owns one stream; four workers own four, one per subdomain.
        let mut serial = PhaseScheduler::new(1);
        let mut parallel = PhaseScheduler::new(4);
        for i in 0..4 {
            serial.record_subdomain(i, 0.0, &[gpu(1.0)]);
            parallel.record_subdomain(i, 0.0, &[gpu(1.0)]);
        }
        assert!(serial.finish().total_seconds > parallel.finish().total_seconds * 2.0);
    }

    #[test]
    fn streams_are_keyed_by_worker() {
        // 2 workers, 2 streams, 4 subdomains: subdomains 0 and 2 share worker 0 and
        // therefore stream 0; their GPU ops serialize, while worker 1's overlap.
        let mut s = PhaseScheduler::new(2);
        for i in 0..4 {
            s.record_subdomain(i, 0.0, &[gpu(1.0)]);
        }
        let t = s.finish();
        assert!((t.total_seconds - 2.0).abs() < 1e-12, "two streams, two ops each");
        assert!((t.gpu_seconds - 4.0).abs() < 1e-12);
    }

    #[test]
    fn recording_order_is_the_only_input_that_matters() {
        // Two schedulers fed the same per-subdomain data in subdomain-index order
        // produce bit-identical breakdowns — the determinism contract the parallel
        // backends rely on after joining their region.
        let data = [(0usize, 0.5, 1.0), (1, 0.25, 2.0), (2, 0.75, 0.5), (3, 0.1, 0.9)];
        let run = || {
            let mut s = PhaseScheduler::new(2);
            for (i, cpu, g) in data {
                s.record_subdomain(i, cpu, &[gpu(g)]);
            }
            s.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_seconds.to_bits(), b.total_seconds.to_bits());
        assert_eq!(a.gpu_seconds.to_bits(), b.gpu_seconds.to_bits());
    }

    #[test]
    fn breakdown_composition() {
        let a = TimeBreakdown { cpu_seconds: 1.0, gpu_seconds: 0.0, total_seconds: 1.0 };
        let b = TimeBreakdown { cpu_seconds: 0.5, gpu_seconds: 2.0, total_seconds: 2.0 };
        let c = a.then(b);
        assert!((c.total_seconds - 3.0).abs() < 1e-12);
        assert!((c.cpu_seconds - 1.5).abs() < 1e-12);
        assert!((c.gpu_seconds - 2.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_scaling() {
        let b = TimeBreakdown { cpu_seconds: 1.0, gpu_seconds: 2.0, total_seconds: 2.5 };
        let half = b.scaled(0.5);
        assert!((half.cpu_seconds - 0.5).abs() < 1e-12);
        assert!((half.gpu_seconds - 1.0).abs() < 1e-12);
        assert!((half.total_seconds - 1.25).abs() < 1e-12);
    }
}
