//! The service pass: a closed loop of tenant clients over `FetiService`.
//!
//! One *session* generates the geometry pool, starts the service with `workers`
//! workers, and lets `workers + 1` client threads each submit its next seeded job only after the previous report arrived
//! (callers that wait for a reply make a closed loop; there is no arrival schedule
//! and so no generator lateness to report).  Each client verifies a reply before it
//! submits again — that is its think time, and is outside the measured latency.
//! The pool (6) exceeds the cache (4), so cold builds, warm hits and evictions keep
//! occurring for the whole session.

use crate::direct::{build_problems, timed};
use crate::rng::{self, Rng, Stream};
use crate::stats::median;
use crate::verify::{self, Tally};
use crate::workloads::Workload;
use feti_service::{CacheOutcome, FetiService, JobSpec, ServiceConfig, ServiceStats};
use feti_trace::TraceReport;
use std::time::{Duration, Instant};

pub const CACHE_CAPACITY: usize = 4;

/// One completed job as the client saw it.
pub struct JobRecord {
    pub geometry: usize,
    pub cache: CacheOutcome,
    /// Submit → `JobReport`, seconds.
    pub latency_s: f64,
    /// Latency minus the report's own `preprocess_seconds + solve_seconds`: queueing,
    /// admission, planning, cache-key and channel cost.
    pub overhead_s: f64,
}

pub struct Session {
    /// Generating the pool + `FetiService::start`.
    pub setup_s: f64,
    pub wall_s: f64,
    pub jobs: Vec<JobRecord>,
    /// Jobs the service refused at submit or failed.
    pub refused: usize,
    pub stats: ServiceStats,
    pub trace: Option<TraceReport>,
}

impl Session {
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs.len() as f64 / self.wall_s
    }
}

/// Runs one session of `duration`.  `stream` numbers the session so that every
/// session of a run draws its own job sequence.
pub fn session(
    workload: &Workload,
    seed: u64,
    stream: usize,
    workers: usize,
    duration: Duration,
    traced: bool,
    tally: &mut Tally,
) -> Session {
    // One client more than there are workers, so a job is always waiting: the queue,
    // tenant rotation and the claimed-solver path of the cache stay exercised.
    let clients = workers + 1;
    let ((pool, service), setup_s) = timed("bench.setup", || {
        let pool = build_problems(&workload.specs);
        let service = FetiService::start(ServiceConfig {
            workers,
            solver_threads: Some(1),
            cache_capacity: CACHE_CAPACITY,
            ..ServiceConfig::default()
        });
        (pool, service)
    });
    let sizes: Vec<usize> = pool.iter().map(|p| p.subdomains.len()).collect();

    let start = Instant::now();
    let deadline = start + duration;
    let per_client: Vec<(Vec<JobRecord>, usize, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (pool, sizes, service) = (&pool, &sizes, &service);
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, Stream::Jobs(stream * clients + client));
                    let (mut jobs, mut refused, mut tally) = (Vec::new(), 0, Tally::default());
                    while Instant::now() < deadline {
                        let job = rng::next_job(&mut rng, sizes);
                        let problem = &pool[job.geometry];
                        let load = rng::scaled_load(problem, &job.scalings);
                        let spec = JobSpec::new(format!("tenant-{client}"), problem.clone())
                            .with_loads(vec![load.clone()]);
                        let (outcome, latency_s) = timed("bench.job", || {
                            service.submit(spec).and_then(feti_service::JobTicket::wait)
                        });
                        match outcome {
                            Ok(report) => {
                                tally.record(
                                    "service job",
                                    report.solutions.first().map_or_else(
                                        || Err("report carries no solution".to_string()),
                                        |sol| verify::check_solution(problem, &load, sol),
                                    ),
                                );
                                jobs.push(JobRecord {
                                    geometry: job.geometry,
                                    cache: report.cache,
                                    latency_s,
                                    overhead_s: latency_s
                                        - report.preprocess_seconds
                                        - report.solve_seconds,
                                });
                            }
                            Err(e) => {
                                refused += 1;
                                tally.record("service job", Err(e.to_string()));
                            }
                        }
                    }
                    (jobs, refused, tally)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = match service.shutdown() {
        Ok(stats) => stats,
        Err(e) => {
            tally.record("service shutdown", Err(e.to_string()));
            ServiceStats::default()
        }
    };

    let mut session = Session {
        setup_s,
        wall_s,
        jobs: Vec::new(),
        refused: 0,
        stats,
        trace: traced.then(feti_trace::take_report),
    };
    for (jobs, refused, client_tally) in per_client {
        session.jobs.extend(jobs);
        session.refused += refused;
        tally.merge(client_tally);
    }
    session
}

/// Latency of one cache outcome across sessions: the mean over the pool's geometries
/// of each geometry's median.  A plain median over all jobs would sit on whichever
/// geometry the seeded mix happens to put at the 50 % mark; this does not move with
/// the mix.  Returns the per-geometry sample counts too.
pub fn latency_by_outcome(
    sessions: &[Session],
    outcome: CacheOutcome,
    geometries: usize,
) -> (f64, Vec<usize>) {
    let mut per_geometry = vec![Vec::new(); geometries];
    for job in sessions.iter().flat_map(|s| &s.jobs).filter(|j| j.cache == outcome) {
        per_geometry[job.geometry].push(job.latency_s);
    }
    let medians: Vec<f64> =
        per_geometry.iter().filter(|v| !v.is_empty()).map(|v| median(v)).collect();
    let mean =
        if medians.is_empty() { 0.0 } else { medians.iter().sum::<f64>() / medians.len() as f64 };
    (mean, per_geometry.iter().map(Vec::len).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(geometry: usize, cache: CacheOutcome, latency_s: f64) -> JobRecord {
        JobRecord { geometry, cache, latency_s, overhead_s: 0.0 }
    }

    #[test]
    fn latency_is_the_mean_of_per_geometry_medians() {
        use CacheOutcome::{Hit, Miss};
        let session = Session {
            setup_s: 0.0,
            wall_s: 2.0,
            jobs: vec![
                job(0, Hit, 1.0),
                job(0, Hit, 2.0),
                job(0, Hit, 30.0),
                job(1, Hit, 10.0),
                job(1, Miss, 100.0),
            ],
            refused: 0,
            stats: ServiceStats::default(),
            trace: None,
        };
        assert_eq!(session.jobs_per_s(), 2.5);
        let (warm, counts) = latency_by_outcome(std::slice::from_ref(&session), Hit, 3);
        assert_eq!((warm, counts), (6.0, vec![3, 1, 0]));
        let (cold, counts) = latency_by_outcome(std::slice::from_ref(&session), Miss, 3);
        assert_eq!((cold, counts), (100.0, vec![0, 1, 0]));
    }
}
