//! **Solver as a service**: a long-running multi-tenant runtime around
//! [`TotalFetiSolver`].
//!
//! The paper's pipeline (symbolic analysis → numeric factorization → dual-operator
//! assembly → PCPG) only pays off in production when its expensive front is amortized
//! across a *stream* of jobs: repeated geometries (time steps, parameter sweeps,
//! per-tenant model variants) share all symbolic and numeric preprocessing and differ
//! only in their loads.  This crate provides that runtime:
//!
//! - an **async job queue** with a fixed pool of worker threads; submission returns a
//!   [`JobTicket`] immediately and the result is collected later,
//! - **tenant fairness**: the queue is drained round-robin across tenants, so one
//!   tenant's burst cannot starve the others,
//! - a **plan + factor cache** keyed by [`PlanCacheKey`] — the symbolic structure of
//!   the decomposition plus the resolved approach and parameters (the plan's winner
//!   over [`EXPECTED_ITERATIONS`] for an unpinned job, a pinned approach's Table-II
//!   parameters otherwise).  A cache hit checks out a *warm* solver (factors,
//!   coarse problem and assembled dual operator intact) and skips preprocessing
//!   entirely,
//! - **admission control**: each job's persistent device footprint is estimated by
//!   the [`Planner`] on [`ServiceConfig::gpu`] *before* anything is constructed,
//!   reserved FIFO-fairly against that device's memory capacity (a [`MemoryLedger`],
//!   the type of the device's temporary pool), and jobs that could never fit are
//!   rejected with a typed error instead of crashing a worker mid-solve; a cold job
//!   is then built from the very [`Plan`] it was admitted on — over the plan's
//!   analyses, on that device — so it analyses nothing and runs on the device it
//!   was priced for,
//! - **typed errors everywhere**: queue-full, shutdown, admission and solve failures
//!   all surface as [`ServiceError`] values; a panicking job is caught and reported
//!   without taking down its worker thread.

use feti_core::planner::{Plan, PlanCacheKey, Planner};
use feti_core::program::auto_params;
use feti_core::{
    DualOperatorApproach, ExplicitAssemblyParams, FetiError, FetiSolution, LoadCase, PcpgOptions,
    TotalFetiSolver,
};
use feti_decompose::DecomposedProblem;
use feti_gpu::{GpuSpec, MemoryError, MemoryLedger};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The PCPG iteration count every unpinned job's plan amortizes preprocessing over.
/// The benchmark's `PLANNER_ITERATIONS` mirrors it, so its direct passes over the
/// service's geometries resolve to the configurations the service runs.
pub const EXPECTED_ITERATIONS: usize = 200;

/// Configuration of a [`FetiService`].
///
/// Jobs are planned over [`EXPECTED_ITERATIONS`], and admitted against the memory
/// capacity of [`ServiceConfig::gpu`], the device they are priced and built on.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing jobs (each drives the solver's parallel subdomain
    /// loops on the shimmed rayon pool).
    pub workers: usize,
    /// Worker-thread count for each job's *internal* parallel regions; `None`
    /// inherits the process-wide configuration (`FETI_THREADS`).  Each service
    /// worker builds **one persistent pool** of this size at startup and reuses its
    /// parked threads for every job it runs — jobs never pay pool construction or
    /// thread spawn.
    pub solver_threads: Option<usize>,
    /// Maximum number of idle warm solvers kept in the cache (least recently used
    /// keys are evicted beyond this).
    pub cache_capacity: usize,
    /// Maximum number of queued (not yet running) jobs before submissions are
    /// rejected with [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Device description used for planning and admission estimates, and the device
    /// every job's operator is built on.  Its `memory_capacity_bytes` is the
    /// modelled device-memory budget shared by all running jobs.
    pub gpu: GpuSpec,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            solver_threads: None,
            cache_capacity: 8,
            queue_capacity: 64,
            gpu: GpuSpec::a100_40gb(),
        }
    }
}

/// One solve request.  Its dual operator is the planner's winner over
/// [`EXPECTED_ITERATIONS`], or a pinned approach with its Table-II parameters
/// ([`auto_params`]).
#[derive(Clone)]
pub struct JobSpec {
    /// Tenant this job belongs to (fairness and accounting unit).
    pub tenant: String,
    /// The decomposed problem (shared; the service never copies it).
    pub problem: Arc<DecomposedProblem>,
    /// Dual-operator approach; `None` lets the planner choose.
    pub approach: Option<DualOperatorApproach>,
    /// Load cases to solve; empty means the problem's assembled baseline loads.
    pub loads: Vec<LoadCase>,
    /// PCPG options.
    pub options: PcpgOptions,
}

impl JobSpec {
    /// A job with default options solving the baseline loads, approach chosen by the
    /// planner.
    #[must_use]
    pub fn new(tenant: impl Into<String>, problem: Arc<DecomposedProblem>) -> Self {
        Self {
            tenant: tenant.into(),
            problem,
            approach: None,
            loads: Vec::new(),
            options: PcpgOptions::default(),
        }
    }

    /// Pins the dual-operator approach instead of planning it.
    #[must_use]
    pub fn with_approach(mut self, approach: DualOperatorApproach) -> Self {
        self.approach = Some(approach);
        self
    }

    /// Sets the load cases.
    #[must_use]
    pub fn with_loads(mut self, loads: Vec<LoadCase>) -> Self {
        self.loads = loads;
        self
    }
}

/// Whether a job's solver came out of the cache warm or was built cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A warm solver with finished preprocessing was checked out.
    Hit,
    /// A solver was constructed and preprocessed from scratch.
    Miss,
}

/// The result of one completed job.
pub struct JobReport {
    /// Tenant the job belonged to.
    pub tenant: String,
    /// One solution per load case (one entry for the baseline-load job).
    pub solutions: Vec<FetiSolution>,
    /// The cache key the job resolved to.
    pub key: PlanCacheKey,
    /// Whether the solver came from the cache.
    pub cache: CacheOutcome,
    /// Wall-clock seconds spent obtaining a ready (preprocessed) solver — near zero
    /// on a cache hit, construction + factorization + assembly on a miss.
    pub preprocess_seconds: f64,
    /// Wall-clock seconds spent in the PCPG solve itself.
    pub solve_seconds: f64,
    /// Modelled persistent device bytes reserved while the job ran.
    pub reserved_device_bytes: usize,
}

/// Errors surfaced by the service.  Every failure path is typed — a misbehaving job
/// is reported, never propagated as a panic into the runtime.
#[derive(Debug)]
pub enum ServiceError {
    /// The pending-job queue is at capacity; retry later.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The service is shutting down and no longer accepts jobs.
    ShuttingDown,
    /// Admission control rejected or could not serve the job's modelled device
    /// footprint.
    Admission(MemoryError),
    /// The solve itself failed.
    Solve(FetiError),
    /// The job panicked on its worker; the worker survived and the panic payload
    /// message is attached when printable.
    JobPanicked(String),
    /// The worker executing the job disappeared without replying (process-level
    /// failure; should not happen).
    WorkerLost,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => {
                write!(f, "job queue is full ({capacity} pending jobs)")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Admission(e) => write!(f, "admission control: {e}"),
            ServiceError::Solve(e) => write!(f, "solve failed: {e}"),
            ServiceError::JobPanicked(m) => write!(f, "job panicked: {m}"),
            ServiceError::WorkerLost => write!(f, "worker lost before replying"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<FetiError> for ServiceError {
    fn from(e: FetiError) -> Self {
        ServiceError::Solve(e)
    }
}

impl From<MemoryError> for ServiceError {
    fn from(e: MemoryError) -> Self {
        ServiceError::Admission(e)
    }
}

/// Aggregate service counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs completed successfully.
    pub jobs_completed: usize,
    /// Jobs that failed (solve error or panic).
    pub jobs_failed: usize,
    /// Cache hits (warm solver checked out).
    pub cache_hits: usize,
    /// Cache misses (cold construction).
    pub cache_misses: usize,
    /// Warm solvers evicted to respect the cache capacity.
    pub cache_evictions: usize,
    /// Jobs completed per tenant.
    pub per_tenant_jobs: Vec<(String, usize)>,
    /// Jobs currently queued (admitted but not yet picked up by a worker).
    pub queue_depth: usize,
    /// Queued-job counts per tenant, name-sorted.  Together with `queue_depth`
    /// this is the live backlog an operator watches; completed-job counters above
    /// only ever grow.
    pub per_tenant_pending: Vec<(String, usize)>,
}

/// A handle to one submitted job.
#[derive(Debug)]
pub struct JobTicket {
    rx: mpsc::Receiver<Result<JobReport, ServiceError>>,
}

impl JobTicket {
    /// Blocks until the job finishes and returns its report.
    ///
    /// # Errors
    /// Any [`ServiceError`] the job ran into.
    pub fn wait(self) -> Result<JobReport, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::WorkerLost))
    }

    /// Waits for the job for at most `timeout`.  Returns `None` if the job has
    /// not finished within the bound — the ticket stays valid, so the caller can
    /// keep polling or fall back to [`JobTicket::wait`].  A finished job returns
    /// `Some` with its report or typed error exactly as `wait` would.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobReport, ServiceError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServiceError::WorkerLost)),
        }
    }
}

/// A job after admission: the resolved configuration plus the reply channel.
struct QueuedJob {
    spec: JobSpec,
    resolved: ResolvedPlan,
    /// Trace timestamp of the moment the job entered the queue; the worker that
    /// pops it closes a `queue_wait` span from here.
    enqueued_us: f64,
    reply: mpsc::Sender<Result<JobReport, ServiceError>>,
}

/// The tenant-fair pending queue: one FIFO per tenant, drained round-robin.
#[derive(Default)]
struct JobQueue {
    per_tenant: HashMap<String, VecDeque<QueuedJob>>,
    rotation: VecDeque<String>,
    len: usize,
    closed: bool,
}

impl JobQueue {
    fn push(&mut self, job: QueuedJob) {
        let tenant = job.spec.tenant.clone();
        let q = self.per_tenant.entry(tenant.clone()).or_default();
        if q.is_empty() {
            self.rotation.push_back(tenant);
        }
        q.push_back(job);
        self.len += 1;
    }

    /// Takes the next job, rotating across tenants so every tenant with pending work
    /// is served once per round.
    fn pop(&mut self) -> Option<QueuedJob> {
        let tenant = self.rotation.pop_front()?;
        let q = self.per_tenant.get_mut(&tenant).expect("rotation tenant has a queue");
        let job = q.pop_front().expect("rotation tenant queue is non-empty");
        if q.is_empty() {
            self.per_tenant.remove(&tenant);
        } else {
            self.rotation.push_back(tenant);
        }
        self.len -= 1;
        Some(job)
    }
}

/// The warm-solver cache: idle preprocessed solvers by cache key, LRU-evicted.
struct SolverCache {
    capacity: usize,
    entries: HashMap<PlanCacheKey, Vec<TotalFetiSolver>>,
    /// Keys by recency, most recent at the back; duplicates resolved lazily.
    lru: VecDeque<PlanCacheKey>,
    len: usize,
}

impl SolverCache {
    fn new(capacity: usize) -> Self {
        Self { capacity, entries: HashMap::new(), lru: VecDeque::new(), len: 0 }
    }

    /// Checks a warm solver out of the cache (it is owned by the job while running
    /// and returned through [`SolverCache::release`]).
    fn claim(&mut self, key: &PlanCacheKey) -> Option<TotalFetiSolver> {
        let pool = self.entries.get_mut(key)?;
        let solver = pool.pop()?;
        if pool.is_empty() {
            self.entries.remove(key);
        }
        self.len -= 1;
        Some(solver)
    }

    /// Returns a warm solver to the cache, evicting least-recently-used entries to
    /// respect the capacity.  Returns how many solvers were evicted.
    fn release(&mut self, key: PlanCacheKey, solver: TotalFetiSolver) -> usize {
        if self.capacity == 0 {
            return 1;
        }
        self.entries.entry(key).or_default().push(solver);
        self.len += 1;
        self.lru.retain(|k| *k != key);
        self.lru.push_back(key);
        let mut evicted = 0;
        while self.len > self.capacity {
            let Some(old) = self.lru.front().copied() else { break };
            if let Some(pool) = self.entries.get_mut(&old) {
                if pool.pop().is_some() {
                    self.len -= 1;
                    evicted += 1;
                }
                if pool.is_empty() {
                    self.entries.remove(&old);
                    self.lru.pop_front();
                }
            } else {
                self.lru.pop_front();
            }
        }
        evicted
    }
}

struct ServiceShared {
    config: ServiceConfig,
    queue: Mutex<JobQueue>,
    queue_cv: Condvar,
    cache: Mutex<SolverCache>,
    budget: Arc<MemoryLedger>,
    stats: Mutex<StatsInner>,
    /// Resolved plans by (structure fingerprint, pinned approach): repeated
    /// geometries skip the planner's symbolic analysis on the submit path too.
    plans: Mutex<PlanCache>,
    /// One persistent solver pool per worker (index = worker index), built once at
    /// startup from [`ServiceConfig::solver_threads`] and reused by every job the
    /// worker runs — the pool's parked threads survive across jobs, so region entry
    /// inside a job never pays thread spawn/join.  `None` entries inherit the
    /// process-wide configuration (`FETI_THREADS` on the shim's global pool).
    solver_pools: Vec<Option<rayon::ThreadPool>>,
}

/// Bound on the submit-path plan memoization: enough for hundreds of distinct
/// geometry/request shapes in flight.  Each entry holds its plan's symbolic analyses
/// (one per pattern and analysed ordering), shared with the solvers built from it.
const PLAN_CACHE_CAPACITY: usize = 512;

/// The bounded plan memo: resolved plans by request, oldest entries evicted once
/// the capacity is reached so a long-running multi-tenant service's stream of
/// distinct geometries cannot grow it without bound.
struct PlanCache {
    capacity: usize,
    map: HashMap<PlanRequest, ResolvedPlan>,
    /// Insertion order; entries are never re-inserted while present, so a FIFO is
    /// an exact eviction order.
    order: VecDeque<PlanRequest>,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        Self { capacity, map: HashMap::new(), order: VecDeque::new() }
    }

    fn get(&self, request: &PlanRequest) -> Option<ResolvedPlan> {
        self.map.get(request).cloned()
    }

    fn insert(&mut self, request: PlanRequest, resolved: ResolvedPlan) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(request, resolved).is_none() {
            self.order.push_back(request);
            while self.map.len() > self.capacity {
                let Some(old) = self.order.pop_front() else { break };
                self.map.remove(&old);
            }
        }
    }
}

#[derive(Default)]
struct StatsInner {
    jobs_completed: usize,
    jobs_failed: usize,
    cache_hits: usize,
    cache_misses: usize,
    cache_evictions: usize,
    per_tenant_jobs: HashMap<String, usize>,
}

/// What a job asks the planner: its geometry's structure and its pinned approach, if
/// any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanRequest {
    structure: u64,
    approach: Option<DualOperatorApproach>,
}

/// What a request resolved to: the plan it was priced on, which every cold build of
/// the job runs from, and the configuration the plan builds.
#[derive(Clone)]
struct ResolvedPlan {
    /// Its analyses and [`ServiceConfig::gpu`], the device the job is admitted on.
    plan: Arc<Plan>,
    /// The warm-solver cache key, hashed once per plan.
    key: PlanCacheKey,
    approach: DualOperatorApproach,
    params: ExplicitAssemblyParams,
    persistent_bytes: usize,
}

/// Locks a service mutex, tolerating poison: the protected structures (queue, cache,
/// counters) are consistent between operations, and a panicking job must not wedge
/// the whole runtime.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The running service: spawn with [`FetiService::start`], feed with
/// [`FetiService::submit`], stop with [`FetiService::shutdown`].
pub struct FetiService {
    shared: Arc<ServiceShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl FetiService {
    /// Starts the worker pool.
    #[must_use]
    pub fn start(config: ServiceConfig) -> Self {
        let budget = MemoryLedger::new(config.gpu.memory_capacity_bytes);
        // `solver_threads` pins the worker count of each job's internal parallel
        // regions (subdomain loops on the shimmed rayon pool).  Each service worker
        // owns one persistent pool for its whole lifetime: the pool's parked
        // threads are spawned lazily on the worker's first parallel region and
        // reused by every subsequent job on that worker.
        let solver_pools = (0..config.workers.max(1))
            .map(|_| {
                config.solver_threads.map(|n| {
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(n.max(1))
                        .build()
                        .expect("the shimmed pool builder never fails")
                })
            })
            .collect();
        let shared = Arc::new(ServiceShared {
            queue: Mutex::new(JobQueue::default()),
            queue_cv: Condvar::new(),
            cache: Mutex::new(SolverCache::new(config.cache_capacity)),
            budget,
            stats: Mutex::new(StatsInner::default()),
            plans: Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
            solver_pools,
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("feti-service-worker-{w}"))
                    .spawn(move || worker_main(&shared, w))
                    .expect("spawn service worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Submits a job.  Admission control runs here, before the job is queued:
    /// a closed service or a full queue refuses it before anything is planned; then
    /// the approach is resolved (planned if unspecified), its persistent device
    /// footprint is estimated, and a job that could never fit the device is rejected
    /// with a typed error.
    ///
    /// # Errors
    /// [`ServiceError::ShuttingDown`], [`ServiceError::QueueFull`] or
    /// [`ServiceError::Admission`].
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, ServiceError> {
        let _span = feti_trace::span(|| "admit");
        self.check_open(&lock(&self.shared.queue))?;
        let resolved = self.resolve(&spec);
        let capacity = self.shared.budget.capacity_bytes();
        if resolved.persistent_bytes > capacity {
            return Err(ServiceError::Admission(MemoryError::LargerThanLedger {
                requested: resolved.persistent_bytes,
                capacity,
            }));
        }
        let (tx, rx) = mpsc::channel();
        let job = QueuedJob { spec, resolved, enqueued_us: feti_trace::now_us(), reply: tx };
        {
            // Checked again: the queue may have closed or filled while this job planned.
            let mut q = lock(&self.shared.queue);
            self.check_open(&q)?;
            q.push(job);
            feti_trace::histogram_record("service.queue_depth", q.len as f64);
        }
        self.shared.queue_cv.notify_one();
        Ok(JobTicket { rx })
    }

    /// Whether the queue takes one more job.
    fn check_open(&self, q: &JobQueue) -> Result<(), ServiceError> {
        let capacity = self.shared.config.queue_capacity;
        if q.closed {
            Err(ServiceError::ShuttingDown)
        } else if q.len >= capacity {
            Err(ServiceError::QueueFull { capacity })
        } else {
            Ok(())
        }
    }

    /// Resolves a job's plan, approach, parameters and modelled footprint — through
    /// the plan cache when this geometry and pinned approach were seen before.  A miss
    /// plans on [`ServiceConfig::gpu`]: an unpinned job runs the winner of every
    /// approach amortized over [`EXPECTED_ITERATIONS`], a pinned one its approach with
    /// the Table-II parameters ([`auto_params`]), analysing that approach's ordering
    /// alone.
    fn resolve(&self, spec: &JobSpec) -> ResolvedPlan {
        let request = PlanRequest {
            structure: PlanCacheKey::structure_fingerprint(&spec.problem),
            approach: spec.approach,
        };
        if let Some(hit) = lock(&self.shared.plans).get(&request) {
            return hit;
        }
        let planner = Planner::new(&spec.problem, self.shared.config.gpu);
        let (plan, chosen) = match spec.approach {
            None => {
                let plan = planner.plan_auto(EXPECTED_ITERATIONS);
                let best = *plan.best();
                (plan, best)
            }
            Some(approach) => {
                let chosen = planner.estimate(approach, auto_params(approach, &spec.problem));
                (planner.plan_pinned(approach), chosen)
            }
        };
        let (approach, params) = (chosen.approach, chosen.params);
        let resolved = ResolvedPlan {
            plan: Arc::new(plan),
            key: PlanCacheKey::new(&spec.problem, approach, params),
            approach,
            params,
            persistent_bytes: chosen.persistent_device_bytes,
        };
        lock(&self.shared.plans).insert(request, resolved.clone());
        resolved
    }

    /// Snapshot of the aggregate counters plus the live queue backlog.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let (queue_depth, mut per_tenant_pending) = {
            let q = lock(&self.shared.queue);
            let pending: Vec<(String, usize)> =
                q.per_tenant.iter().map(|(t, jobs)| (t.clone(), jobs.len())).collect();
            (q.len, pending)
        };
        per_tenant_pending.sort();
        let s = lock(&self.shared.stats);
        let mut per_tenant: Vec<(String, usize)> =
            s.per_tenant_jobs.iter().map(|(t, n)| (t.clone(), *n)).collect();
        per_tenant.sort();
        ServiceStats {
            jobs_completed: s.jobs_completed,
            jobs_failed: s.jobs_failed,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            cache_evictions: s.cache_evictions,
            per_tenant_jobs: per_tenant,
            queue_depth,
            per_tenant_pending,
        }
    }

    /// Graceful shutdown: already-queued jobs finish, new submissions are rejected
    /// with [`ServiceError::ShuttingDown`], workers drain and exit, and the final
    /// counters are returned.  Never panics: a worker that died earlier (it caught
    /// its jobs' panics, so this means a harness-level kill) is reported, not
    /// propagated.  Dropping the service does the same, without the counters.
    ///
    /// # Errors
    /// [`ServiceError::WorkerLost`] if a worker thread could not be joined.
    pub fn shutdown(mut self) -> Result<ServiceStats, ServiceError> {
        if self.stop() {
            return Err(ServiceError::WorkerLost);
        }
        Ok(self.stats())
    }

    /// Closes the queue, lets the workers drain it, joins them and closes the budget.
    /// Returns whether a worker could not be joined.
    fn stop(&mut self) -> bool {
        lock(&self.shared.queue).closed = true;
        self.shared.queue_cv.notify_all();
        let mut lost = false;
        for handle in self.workers.drain(..) {
            lost |= handle.join().is_err();
        }
        // Unblock any straggler waiting on budget (nothing should be, after join).
        self.shared.budget.close();
        lost
    }
}

impl Drop for FetiService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One worker thread: pop tenant-fairly, reserve budget, check the cache, solve,
/// release the warm solver back, reply.  Panicking jobs are caught and reported.
fn worker_main(shared: &Arc<ServiceShared>, index: usize) {
    // This worker's persistent solver pool, built once in `FetiService::start` and
    // shared by every job this worker runs.
    let solver_pool = shared.solver_pools[index].as_ref();
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.pop() {
                    break job;
                }
                if q.closed {
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        if feti_trace::enabled() {
            feti_trace::record_closed_span(|| "queue_wait", job.enqueued_us);
            let waited_s = ((feti_trace::now_us() - job.enqueued_us) / 1e6).max(0.0);
            feti_trace::histogram_record("service.admission_wait_s", waited_s);
        }
        let reply = job.reply.clone();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match solver_pool {
                Some(pool) => pool.install(|| run_job(shared, job)),
                None => run_job(shared, job),
            }));
        let result = match outcome {
            Ok(r) => r,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                Err(ServiceError::JobPanicked(msg))
            }
        };
        {
            let mut s = lock(&shared.stats);
            match &result {
                Ok(report) => {
                    s.jobs_completed += 1;
                    *s.per_tenant_jobs.entry(report.tenant.clone()).or_default() += 1;
                }
                Err(_) => s.jobs_failed += 1,
            }
        }
        // A dropped ticket is fine — the job still ran and was accounted.
        let _ = reply.send(result);
    }
}

/// Executes one admitted job on the calling worker thread.
fn run_job(shared: &Arc<ServiceShared>, job: QueuedJob) -> Result<JobReport, ServiceError> {
    let _span = feti_trace::span(|| "run_job");
    // FIFO-fair budget reservation: the job blocks here while other tenants' running
    // jobs hold the modelled device memory, and errors out typed if the ledger closes.
    let resolved = &job.resolved;
    let reservation = shared.budget.reserve(resolved.persistent_bytes)?;

    let prep_start = Instant::now();
    let warm = lock(&shared.cache).claim(&resolved.key);
    // Counted before the cold build, which may fail: a failed build still missed.
    let cache = if warm.is_some() { CacheOutcome::Hit } else { CacheOutcome::Miss };
    {
        let mut s = lock(&shared.stats);
        match cache {
            CacheOutcome::Hit => s.cache_hits += 1,
            CacheOutcome::Miss => s.cache_misses += 1,
        }
    }
    match cache {
        CacheOutcome::Hit => feti_trace::counter_add("service.cache_hits", 1),
        CacheOutcome::Miss => feti_trace::counter_add("service.cache_misses", 1),
    }
    let mut solver = match warm {
        Some(mut warm) => {
            // The cache key covers symbolic structure, approach and parameters —
            // not PCPG options.  Retarget the warm solver to this
            // job's tolerance / iteration cap / preconditioner choice before solving.
            warm.set_options(job.spec.options);
            warm
        }
        // Built from the plan the job was admitted on: its analyses, its device.
        None => TotalFetiSolver::from_plan(
            Arc::clone(&job.spec.problem),
            &resolved.plan,
            resolved.approach,
            resolved.params,
            job.spec.options,
        )?,
    };
    solver.ensure_preprocessed()?;
    let preprocess_seconds = prep_start.elapsed().as_secs_f64();

    let solve_start = Instant::now();
    let baseline: Vec<LoadCase>;
    let loads: &[LoadCase] = if job.spec.loads.is_empty() {
        baseline =
            vec![job.spec.problem.subdomains.iter().map(|sd| sd.assembled.load.clone()).collect()];
        &baseline
    } else {
        &job.spec.loads
    };
    let solved = solver.solve_many(loads);
    let solve_seconds = solve_start.elapsed().as_secs_f64();

    match solved {
        Ok(solutions) => {
            // Return the warm solver for the next job with this geometry.
            let evicted = lock(&shared.cache).release(resolved.key, solver);
            if evicted > 0 {
                lock(&shared.stats).cache_evictions += evicted;
            }
            drop(reservation);
            Ok(JobReport {
                tenant: job.spec.tenant,
                solutions,
                key: resolved.key,
                cache,
                preprocess_seconds,
                solve_seconds,
                reserved_device_bytes: resolved.persistent_bytes,
            })
        }
        Err(e) => {
            // A failed solve does not poison the cache: the solver is dropped.
            drop(reservation);
            Err(ServiceError::Solve(e))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feti_decompose::DecompositionSpec;

    fn problem() -> Arc<DecomposedProblem> {
        Arc::new(DecomposedProblem::build(&DecompositionSpec::small_heat_2d()))
    }

    /// `impl cholmod` on `p` with default parameters, from a pinned plan.
    fn resolved(p: &DecomposedProblem) -> ResolvedPlan {
        let (approach, params) =
            (DualOperatorApproach::ImplicitCholmod, ExplicitAssemblyParams::default());
        ResolvedPlan {
            plan: Arc::new(Planner::new(p, GpuSpec::a100_40gb()).plan_pinned(approach)),
            key: PlanCacheKey::new(p, approach, params),
            approach,
            params,
            persistent_bytes: 0,
        }
    }

    #[test]
    fn queue_rotates_across_tenants() {
        let mut q = JobQueue::default();
        let p = problem();
        let (tx, _rx) = mpsc::channel();
        let resolved = resolved(&p);
        for (tenant, n) in [("a", 3), ("b", 1), ("c", 2)] {
            for _ in 0..n {
                q.push(QueuedJob {
                    spec: JobSpec::new(tenant, Arc::clone(&p)),
                    resolved: resolved.clone(),
                    enqueued_us: 0.0,
                    reply: tx.clone(),
                });
            }
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop().map(|j| j.spec.tenant)).collect();
        assert_eq!(order, ["a", "b", "c", "a", "c", "a"]);
    }

    #[test]
    fn cache_claims_and_evicts_lru() {
        let p = problem();
        let mk = |approach| {
            TotalFetiSolver::new(Arc::clone(&p), approach, None, PcpgOptions::default()).unwrap()
        };
        let key = |approach| PlanCacheKey::new(&p, approach, ExplicitAssemblyParams::default());
        let mut cache = SolverCache::new(2);
        let (ka, kb, kc) = (
            key(DualOperatorApproach::ImplicitCholmod),
            key(DualOperatorApproach::ExplicitCholmod),
            key(DualOperatorApproach::ExplicitHybrid),
        );
        assert!(cache.claim(&ka).is_none(), "empty cache misses");
        assert_eq!(cache.release(ka, mk(DualOperatorApproach::ImplicitCholmod)), 0);
        assert_eq!(cache.release(kb, mk(DualOperatorApproach::ExplicitCholmod)), 0);
        // Touch `ka` so `kb` is the least recently used.
        let a = cache.claim(&ka).expect("ka cached");
        assert_eq!(cache.release(ka, a), 0);
        assert_eq!(cache.release(kc, mk(DualOperatorApproach::ExplicitHybrid)), 1);
        assert!(cache.claim(&kb).is_none(), "kb was evicted as LRU");
        assert!(cache.claim(&ka).is_some());
        assert!(cache.claim(&kc).is_some());
    }

    #[test]
    fn plan_cache_is_bounded_and_evicts_oldest_first() {
        let mut cache = PlanCache::new(2);
        let req = |structure| PlanRequest { structure, approach: None };
        let plan = resolved(&problem());
        cache.insert(req(1), plan.clone());
        cache.insert(req(2), plan.clone());
        assert!(cache.get(&req(1)).is_some());
        cache.insert(req(3), plan.clone());
        assert!(cache.get(&req(1)).is_none(), "oldest request is evicted at capacity");
        assert!(cache.get(&req(2)).is_some());
        assert!(cache.get(&req(3)).is_some());
        // Overwriting a present request must not evict anything.
        cache.insert(req(3), plan);
        assert!(cache.get(&req(2)).is_some());
        assert_eq!(cache.map.len(), 2);
        assert_eq!(cache.order.len(), 2);
    }

    #[test]
    fn warm_cache_hit_honors_the_jobs_pcpg_options() {
        let service = FetiService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let p = problem();
        let strict = service.submit(JobSpec::new("t", Arc::clone(&p))).unwrap().wait().unwrap();
        assert_eq!(strict.cache, CacheOutcome::Miss);
        let strict_iters = strict.solutions[0].iterations;
        assert!(strict_iters > 1, "the default tolerance takes several PCPG iterations");
        let mut loose = JobSpec::new("t", Arc::clone(&p));
        loose.options.tolerance = 1e-3;
        let report = service.submit(loose).unwrap().wait().unwrap();
        assert_eq!(report.cache, CacheOutcome::Hit, "repeated geometry must hit the cache");
        let loose_sol = &report.solutions[0];
        assert!(
            loose_sol.iterations < strict_iters,
            "a warm hit must solve with the job's own looser tolerance \
             ({} vs {strict_iters} iterations)",
            loose_sol.iterations
        );
        assert!(loose_sol.final_residual < 1e-3);
        service.shutdown().unwrap();
    }

    #[test]
    fn solver_threads_setting_keeps_solutions_bit_identical() {
        let p = problem();
        let run = |threads: usize| {
            let service = FetiService::start(ServiceConfig {
                workers: 1,
                solver_threads: Some(threads),
                ..ServiceConfig::default()
            });
            let mut report =
                service.submit(JobSpec::new("t", Arc::clone(&p))).unwrap().wait().unwrap();
            service.shutdown().unwrap();
            report.solutions.remove(0)
        };
        let s1 = run(1);
        let s4 = run(4);
        assert_eq!(s1.iterations, s4.iterations);
        for (a, b) in s1.lambda.iter().zip(&s4.lambda) {
            assert_eq!(a.to_bits(), b.to_bits(), "multipliers must not depend on solver_threads");
        }
        for (a, b) in s1.global_solution.iter().zip(&s4.global_solution) {
            assert_eq!(a.to_bits(), b.to_bits(), "solution must not depend on solver_threads");
        }
    }

    #[test]
    fn workers_reuse_one_persistent_solver_pool_across_jobs() {
        // Regression test for the per-job pool rebuild: the worker's solver pool is
        // built once at startup, its threads spawn lazily on the first job's first
        // parallel region, and every later job runs on those same threads.
        let service = FetiService::start(ServiceConfig {
            workers: 1,
            solver_threads: Some(2),
            ..ServiceConfig::default()
        });
        let pool = service.shared.solver_pools[0]
            .as_ref()
            .expect("solver_threads is set, so the worker owns a pool");
        assert!(
            pool.worker_thread_ids().is_empty(),
            "pool threads must spawn lazily, not at service startup"
        );
        let p = problem();
        let first = service.submit(JobSpec::new("t", Arc::clone(&p))).unwrap().wait().unwrap();
        assert_eq!(first.cache, CacheOutcome::Miss);
        let ids = pool.worker_thread_ids();
        assert_eq!(
            ids.len(),
            1,
            "the first job's subdomain regions must spawn the 2-thread pool's worker"
        );
        for _ in 0..3 {
            let next = service.submit(JobSpec::new("t", Arc::clone(&p))).unwrap().wait().unwrap();
            assert_eq!(next.cache, CacheOutcome::Hit);
            assert_eq!(
                pool.worker_thread_ids(),
                ids,
                "every job on this worker must reuse the same persistent pool threads"
            );
        }
        service.shutdown().unwrap();
    }

    #[test]
    fn stats_expose_the_live_queue_backlog_per_tenant() {
        // No workers draining: jobs pushed straight into the shared queue stay
        // pending, so the snapshot must see them.  (Workers = 1 service started,
        // but we inspect the queue before submitting through it.)
        let service = FetiService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let p = problem();
        let (tx, _rx) = mpsc::channel();
        let resolved = resolved(&p);
        {
            // Hold the queue lock while pushing so the worker cannot drain
            // between the pushes and the snapshot below is taken before release.
            let mut q = lock(&service.shared.queue);
            for tenant in ["a", "a", "b"] {
                q.push(QueuedJob {
                    spec: JobSpec::new(tenant, Arc::clone(&p)),
                    resolved: resolved.clone(),
                    enqueued_us: 0.0,
                    reply: tx.clone(),
                });
            }
            let pending: Vec<(String, usize)> =
                q.per_tenant.iter().map(|(t, jobs)| (t.clone(), jobs.len())).collect();
            assert_eq!(q.len, 3);
            let mut pending = pending;
            pending.sort();
            assert_eq!(pending, [("a".to_string(), 2), ("b".to_string(), 1)]);
        }
        // The public snapshot reads the same structures (the workers may have
        // started draining by now, so only monotone facts are asserted).
        let stats = service.stats();
        assert!(stats.queue_depth <= 3);
        assert_eq!(stats.queue_depth, stats.per_tenant_pending.iter().map(|(_, n)| n).sum());
        service.shutdown().unwrap();
    }

    #[test]
    fn wait_timeout_bounds_the_wait_and_keeps_the_ticket_valid() {
        let service = FetiService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let ticket = service.submit(JobSpec::new("t", problem())).unwrap();
        // Poll with a zero-ish timeout until the job lands; a timed-out poll
        // returns None and must leave the ticket usable.
        let mut report = None;
        for _ in 0..10_000 {
            match ticket.wait_timeout(Duration::from_millis(5)) {
                Some(r) => {
                    report = Some(r.unwrap());
                    break;
                }
                None => continue,
            }
        }
        let report = report.expect("the job finishes well within the polling budget");
        assert_eq!(report.tenant, "t");
        // A drained ticket reports the worker as gone rather than blocking.
        assert!(matches!(
            ticket.wait_timeout(Duration::from_millis(1)),
            None | Some(Err(ServiceError::WorkerLost))
        ));
        service.shutdown().unwrap();
    }

    #[test]
    fn submit_after_shutdown_is_a_typed_error() {
        let service = FetiService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let shared = Arc::clone(&service.shared);
        service.shutdown().unwrap();
        let orphan = FetiService { shared, workers: Vec::new() };
        let err = orphan.submit(JobSpec::new("t", problem())).unwrap_err();
        assert!(matches!(err, ServiceError::ShuttingDown));
    }

    #[test]
    fn a_refused_submission_plans_nothing() {
        let full = FetiService::start(ServiceConfig { queue_capacity: 0, ..Default::default() });
        let err = full.submit(JobSpec::new("t", problem())).unwrap_err();
        assert!(matches!(err, ServiceError::QueueFull { capacity: 0 }));
        assert!(lock(&full.shared.plans).map.is_empty(), "a full queue planned the job");

        let service = FetiService::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let shared = Arc::clone(&service.shared);
        service.shutdown().unwrap();
        let closed = FetiService { shared, workers: Vec::new() };
        let err = closed.submit(JobSpec::new("t", problem())).unwrap_err();
        assert!(matches!(err, ServiceError::ShuttingDown));
        assert!(lock(&closed.shared.plans).map.is_empty(), "a closed service planned the job");
    }

    #[test]
    fn a_dropped_service_joins_its_workers() {
        let service = FetiService::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
        let shared = Arc::downgrade(&service.shared);
        service.submit(JobSpec::new("t", problem())).unwrap().wait().unwrap();
        drop(service);
        assert!(shared.upgrade().is_none(), "a worker still holds the service state");
    }

    #[test]
    fn oversized_jobs_are_rejected_at_admission() {
        let gpu = GpuSpec { memory_capacity_bytes: 1, ..GpuSpec::a100_40gb() };
        let service = FetiService::start(ServiceConfig { workers: 1, gpu, ..Default::default() });
        let err = service
            .submit(
                JobSpec::new("t", problem()).with_approach(DualOperatorApproach::ExplicitGpuLegacy),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                ServiceError::Admission(MemoryError::LargerThanLedger { capacity, .. })
                    if capacity == gpu.memory_capacity_bytes
            ),
            "the ledger is the device's memory capacity: {err}"
        );
        // CPU-only jobs reserve nothing and sail through even a 1-byte device.
        let ticket = service
            .submit(
                JobSpec::new("t", problem()).with_approach(DualOperatorApproach::ExplicitCholmod),
            )
            .unwrap();
        let report = ticket.wait().unwrap();
        assert_eq!(report.reserved_device_bytes, 0);
        service.shutdown().unwrap();
    }

    #[test]
    fn repeated_geometry_hits_the_cache_and_queue_full_is_typed() {
        let service = FetiService::start(ServiceConfig {
            workers: 1,
            queue_capacity: 128,
            ..ServiceConfig::default()
        });
        let p = problem();
        let first = service.submit(JobSpec::new("t", Arc::clone(&p))).unwrap().wait().unwrap();
        assert_eq!(first.cache, CacheOutcome::Miss);
        let second = service.submit(JobSpec::new("t", Arc::clone(&p))).unwrap().wait().unwrap();
        assert_eq!(second.cache, CacheOutcome::Hit);
        assert_eq!(first.key, second.key);
        assert!(
            second.preprocess_seconds <= first.preprocess_seconds,
            "warm checkout must not be slower than cold construction"
        );
        let stats = service.shutdown().unwrap();
        assert_eq!(stats.jobs_completed, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }
}
