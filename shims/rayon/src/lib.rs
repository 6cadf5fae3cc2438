//! Offline stand-in for the `rayon` crate with **real** host parallelism on a
//! persistent pool of parked worker threads.
//!
//! The build environment has no access to crates.io, so this workspace shim provides
//! the slice of rayon's API the repo uses — `par_iter` on slices and vectors and the
//! `map` / `zip` / `for_each` / `collect` / `with_max_len` adapters.  Parallel regions
//! genuinely run on several host threads:
//!
//! * workers are **persistent OS threads**: each [`ThreadPool`] lazily spawns
//!   `num_threads - 1` workers on its first parallel region and parks them on a
//!   condvar between regions, so region entry costs a list push plus wakeups
//!   (single-digit µs) instead of a spawn/join round trip (tens to hundreds of µs) —
//!   this matters because the repo's hot phases are many *small* per-subdomain
//!   regions;
//! * the worker count defaults to [`std::thread::available_parallelism`] and can be
//!   pinned with the `FETI_THREADS` environment variable (read once per process);
//!   regions entered without an explicit [`ThreadPool::install`] run on one shared
//!   global pool of that size, which (like real rayon's) is never torn down;
//! * [`ThreadPool::install`] mirrors rayon's API for running a closure under an
//!   explicit pool; dropping a `ThreadPool` wakes and joins its parked workers;
//! * a region with one participant (one thread, or one item) runs inline on the
//!   calling thread; every other region hands its indices out **one at a time** from
//!   a shared atomic cursor, which the submitting thread and the woken workers claim
//!   from alike — the shape of the repo's regions, one heavy subdomain per index;
//! * every combinator is *indexed*: item `i` of the result is always produced from
//!   item `i` of the input, and `collect` writes each result into slot `i` of the
//!   output buffer, so results are **bit-for-bit identical** to a sequential run
//!   regardless of the thread count, the pool, or which thread claimed which index.
//!   `collect::<Result<…>>` reports the lowest-index error, matching what a
//!   sequential run would return;
//! * a panicking task poisons nothing: each index runs under `catch_unwind`, the
//!   first payload is re-raised on the submitting thread once the region has
//!   quiesced, remaining indices are discarded, and the pool's parked workers stay
//!   usable for the next region.
//!
//! `DESIGN.md` (§ "Host parallelism") records this substitution; swapping the real
//! rayon back in requires only deleting this shim from the workspace.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The rayon prelude: traits that put `par_iter` and the adapters in scope.
pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

// ---------------------------------------------------------------------------
// Process-wide configuration
// ---------------------------------------------------------------------------

/// Parses a `FETI_THREADS` value: `None` (unset) keeps the hardware default, a
/// positive integer pins the worker count, anything else is an error rather than a
/// silent fallback — a run that claims "4 threads" must not quietly use the core count.
fn threads_from_env(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!("FETI_THREADS must be a positive integer (e.g. 4) or unset, got {raw:?}")),
    }
}

/// The process-wide default worker count: `FETI_THREADS` if set, otherwise the
/// available hardware parallelism.
///
/// # Panics
/// Panics if `FETI_THREADS` is set to anything but a positive integer.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let raw = std::env::var_os("FETI_THREADS").map(|s| s.to_string_lossy().into_owned());
        match threads_from_env(raw.as_deref()) {
            Ok(Some(n)) => n,
            Ok(None) => std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
            Err(msg) => panic!("{msg}"),
        }
    })
}

/// The effective per-thread configuration of a parallel region: which pool runs it,
/// with how many participants.
///
/// Installed by [`ThreadPool::install`] and inherited by pool workers while they
/// execute a region's tasks (mirroring real rayon, where `install` closures run
/// *inside* the pool), so nested regions and `current_num_threads()` observe the
/// innermost installed pool on every participating thread.
#[derive(Clone)]
struct Cfg {
    threads: usize,
    core: Arc<PoolCore>,
}

thread_local! {
    /// The innermost installed configuration (`None` = process default/global pool).
    static CFG: RefCell<Option<Cfg>> = const { RefCell::new(None) };
}

/// The number of worker threads parallel regions started from this thread will use.
///
/// Mirrors `rayon::current_num_threads`: the innermost [`ThreadPool::install`] wins,
/// otherwise the process default (`FETI_THREADS` or the available parallelism).
#[must_use]
pub fn current_num_threads() -> usize {
    CFG.with(|c| c.borrow().as_ref().map(|cfg| cfg.threads)).unwrap_or_else(default_threads)
}

// ---------------------------------------------------------------------------
// Observability hooks (shim extension)
// ---------------------------------------------------------------------------

/// How the region driver dispatched a parallel region, reported to the
/// installed [`RegionHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionDispatch {
    /// The region ran inline on the calling thread (one thread or one item).
    Inline,
    /// The region ran on the persistent parked worker pool.
    Persistent,
}

/// Observability hook invoked once per parallel region, on the submitting thread,
/// with the region's item count and the dispatch decision.  Shim extension (real
/// rayon has no such hook): the tracing layer installs one to count regions and
/// histogram their sizes without the shim depending on any other crate.  The hook
/// must be cheap and must not enter a parallel region itself.
pub type RegionHook = fn(items: usize, dispatch: RegionDispatch);

/// The installed region hook as a raw fn pointer (0 = none).
static REGION_HOOK: AtomicUsize = AtomicUsize::new(0);

/// Installs (or with `None` removes) the process-wide [`RegionHook`].
pub fn set_region_hook(hook: Option<RegionHook>) {
    REGION_HOOK.store(hook.map_or(0, |f| f as usize), Ordering::Release);
}

#[inline]
fn notify_region_hook(items: usize, dispatch: RegionDispatch) {
    let raw = REGION_HOOK.load(Ordering::Acquire);
    if raw != 0 {
        // SAFETY: the only nonzero values ever stored are `RegionHook` fn pointers.
        let hook: RegionHook = unsafe { std::mem::transmute::<usize, RegionHook>(raw) };
        hook(items, dispatch);
    }
}

/// The shared global pool used by regions entered without an explicit `install`.
/// Like real rayon's global pool it is created on first use and never torn down.
fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        ThreadPoolBuilder::new().build().expect("building the global pool cannot fail")
    })
}

/// Error returned by [`ThreadPoolBuilder::build`] (mirrors rayon's opaque error).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to build the thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 keeps the process default).
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool.  Workers are spawned lazily on the pool's first parallel
    /// region, so building is cheap and a pool that only ever runs inline regions
    /// never starts a thread.
    ///
    /// # Errors
    /// Never fails in this shim; the `Result` mirrors rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 { default_threads() } else { self.num_threads };
        Ok(ThreadPool { num_threads: n, core: Arc::new(PoolCore::new(n)) })
    }
}

/// A persistent pool of parked worker threads, mirroring `rayon::ThreadPool`.
///
/// `num_threads - 1` workers are spawned lazily on the first parallel region run
/// under [`ThreadPool::install`] (the calling thread is the Nth participant) and
/// park on a condvar between regions.  Dropping the pool wakes and joins them; the
/// global default pool is never dropped.
pub struct ThreadPool {
    num_threads: usize,
    core: Arc<PoolCore>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("num_threads", &self.num_threads).finish()
    }
}

impl ThreadPool {
    /// The worker count parallel regions inside [`ThreadPool::install`] will use.
    #[must_use]
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Runs `op` with this pool governing every parallel region entered from the
    /// calling thread, restoring the previous configuration on exit (also on panic).
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        struct Restore(Option<Cfg>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CFG.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let previous = CFG.with(|c| c.replace(Some(self.cfg())));
        let _restore = Restore(previous);
        op()
    }

    /// The [`std::thread::ThreadId`]s of this pool's spawned workers — empty until
    /// the first parallel region triggers the lazy spawn, stable afterwards for the
    /// pool's whole lifetime.  Shim extension used by tests (e.g. `feti-service`
    /// asserts that consecutive jobs on one service worker reuse the same solver
    /// pool threads).
    #[must_use]
    pub fn worker_thread_ids(&self) -> Vec<std::thread::ThreadId> {
        lock(&self.core.state).worker_ids.clone()
    }

    /// The effective configuration regions installed from this pool will run under.
    fn cfg(&self) -> Cfg {
        Cfg { threads: self.num_threads, core: Arc::clone(&self.core) }
    }
}

impl Drop for ThreadPool {
    /// Wakes every parked worker, waits for in-flight regions to drain (a pool can
    /// only be dropped once no `install` borrows it, so at most foreign regions
    /// submitted from other threads are still active) and joins the worker threads.
    fn drop(&mut self) {
        self.core.shutdown();
    }
}

// ---------------------------------------------------------------------------
// The persistent parked pool core
// ---------------------------------------------------------------------------

/// Locks a mutex, tolerating poison.  A task panic is caught per index and never
/// unwinds through pool state, but the tolerance is kept everywhere (pool state,
/// region bookkeeping) so even an unforeseen panic path cannot cascade a poison
/// error through every region sharing the pool.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A raw pointer to a stack-allocated [`Region`], stored in the pool's active list.
///
/// Validity contract: the submitting thread keeps the `Region` alive until
/// [`Region::wait_done`] returns, removes the pointer from the active list *before*
/// waiting, and workers only engage (increment `helpers`) under the pool-state lock
/// while the pointer is still listed — so every dereference happens strictly before
/// the region is freed.
#[derive(Clone, Copy)]
struct RegionPtr(*const Region);

// SAFETY: see the validity contract above; the pointee is Sync.
unsafe impl Send for RegionPtr {}

/// Shared state of one pool: the active-region list workers scan, the lazily
/// spawned worker handles, and the shutdown flag.
struct PoolState {
    active: Vec<RegionPtr>,
    handles: Vec<std::thread::JoinHandle<()>>,
    worker_ids: Vec<std::thread::ThreadId>,
    spawned: bool,
    shutdown: bool,
}

/// The shareable core of a [`ThreadPool`]: worker threads hold an `Arc` of this and
/// outlive the `ThreadPool` handle only until `shutdown` joins them.
struct PoolCore {
    threads: usize,
    state: Mutex<PoolState>,
    /// Workers park here between regions; signalled on region submission and on
    /// shutdown.
    work_cv: Condvar,
}

impl PoolCore {
    fn new(threads: usize) -> Self {
        Self {
            threads,
            state: Mutex::new(PoolState {
                active: Vec::new(),
                handles: Vec::new(),
                worker_ids: Vec::new(),
                spawned: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        }
    }

    /// Wakes all parked workers and joins them.  Regions cannot be active at this
    /// point for the owning thread (dropping the pool requires no outstanding
    /// `install` borrow); workers finish whatever index they are on, observe the
    /// shutdown flag, and exit.
    fn shutdown(&self) {
        let handles = {
            let mut st = lock(&self.state);
            st.shutdown = true;
            std::mem::take(&mut st.handles)
        };
        self.work_cv.notify_all();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// One parallel region: the shared index cursor plus the bookkeeping that lets pool
/// workers help out and the submitter wait for full quiescence.
///
/// The region lives on the submitting thread's stack; `task` is a lifetime-erased
/// borrow of the caller's closure, valid because the submitter does not return until
/// [`Region::wait_done`] proves no worker can still touch the region.
struct Region {
    /// The next unclaimed index; every participant claims with `fetch_add(1)`, and a
    /// region whose cursor has passed `len` is pruned from the pool's active list
    /// (nothing left to help with).
    next: AtomicUsize,
    len: usize,
    task: &'static (dyn Fn(usize) + Sync),
    /// Indices not yet finished (executed or discarded after a panic).
    pending: AtomicUsize,
    /// Pool workers currently engaged with this region.
    helpers: AtomicUsize,
    /// Cap on engaged pool workers: the submitter is a participant itself.
    max_helpers: usize,
    /// Set on the first task panic; later indices are claimed and discarded so the
    /// region quiesces quickly instead of running doomed work.
    panicked: AtomicBool,
    /// The first panic payload, re-raised by the submitter after quiescence.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Configuration pool workers adopt while executing this region's tasks, so
    /// nested regions and `current_num_threads()` see the submitter's installed
    /// pool.
    cfg: Cfg,
    /// Mutex + condvar the submitter blocks on until `pending == 0 && helpers == 0`.
    done: Mutex<()>,
    done_cv: Condvar,
}

impl Region {
    /// Whether every index has been claimed.
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::SeqCst) >= self.len
    }

    /// Blocks until every index is finished and every engaged worker has exited.
    ///
    /// Must be called *after* the region is retired from the active list: no new
    /// worker can engage, so once the counts hit zero the region is unreachable and
    /// may be freed.  The final `helpers` decrement happens under the `done` mutex
    /// (see `helper_exit`), so a spuriously woken waiter can never observe the
    /// predicate true while the last worker still has region accesses in flight.
    fn wait_done(&self) {
        let mut guard = lock(&self.done);
        while self.pending.load(Ordering::SeqCst) != 0 || self.helpers.load(Ordering::SeqCst) != 0 {
            guard = self.done_cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Claims a region's indices one at a time from its shared cursor until the cursor
/// passes the end.  Each index runs under `catch_unwind`; after a panic the remaining
/// indices are claimed and discarded so the region quiesces.
fn drain(region: &Region) {
    loop {
        let i = region.next.fetch_add(1, Ordering::SeqCst);
        if i >= region.len {
            break;
        }
        if !region.panicked.load(Ordering::SeqCst) {
            let task = region.task;
            if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(i)))
            {
                region.panicked.store(true, Ordering::SeqCst);
                let mut slot = lock(&region.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
        region.pending.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Deregisters a pool worker from a region.  The decrement happens under the
/// region's `done` mutex and is the worker's **last** access to the region: after
/// it, the submitter's `wait_done` predicate may become true and the region freed.
fn helper_exit(region: &Region) {
    let guard = lock(&region.done);
    let left = region.helpers.fetch_sub(1, Ordering::SeqCst) - 1;
    if left == 0 && region.pending.load(Ordering::SeqCst) == 0 {
        region.done_cv.notify_all();
    }
    drop(guard);
}

/// Spawns the pool's workers if they are not running yet.  Called under the
/// pool-state lock from the first region submission.
fn ensure_spawned(core: &Arc<PoolCore>, st: &mut PoolState) {
    if st.spawned {
        return;
    }
    st.spawned = true;
    for w in 0..core.threads.saturating_sub(1) {
        let core = Arc::clone(core);
        let handle = std::thread::Builder::new()
            .name(format!("feti-pool-{w}"))
            .spawn(move || pool_worker(&core))
            .expect("spawning a pool worker thread");
        st.worker_ids.push(handle.thread().id());
        st.handles.push(handle);
    }
}

/// Body of a persistent pool worker: park until a region needs help, engage it,
/// drain it under the region's installed configuration, deregister, repeat.
fn pool_worker(core: &Arc<PoolCore>) {
    loop {
        let ptr = {
            let mut st = lock(&core.state);
            'find: loop {
                // Prune fully claimed regions: their submitters retire and free
                // them; holding stale pointers beyond this scan would be unsound.
                st.active.retain(|r| !unsafe { &*r.0 }.exhausted());
                for r in &st.active {
                    // SAFETY: the pointer is in the active list and we hold the
                    // state lock, so the submitter cannot have freed the region
                    // (it retires the pointer under this lock before waiting).
                    let region = unsafe { &*r.0 };
                    if region.helpers.load(Ordering::SeqCst) < region.max_helpers {
                        // Engaging under the state lock is what makes the
                        // RegionPtr validity contract hold: the submitter waits
                        // for `helpers` to reach zero after retiring the pointer.
                        region.helpers.fetch_add(1, Ordering::SeqCst);
                        break 'find *r;
                    }
                }
                if st.shutdown {
                    return;
                }
                st = core.work_cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: engaged above; the submitter cannot free the region until
        // helper_exit() deregisters this worker.
        let region = unsafe { &*ptr.0 };
        let previous = CFG.with(|c| c.replace(Some(region.cfg.clone())));
        drain(region);
        CFG.with(|c| *c.borrow_mut() = previous);
        helper_exit(region);
    }
}

/// Submits a region to the pool: lazily spawns the workers, lists the region so the
/// worker scan can find it, and wakes up to `max_helpers` parked workers.
fn submit_region(core: &Arc<PoolCore>, region: &Region) {
    {
        let mut st = lock(&core.state);
        ensure_spawned(core, &mut st);
        st.active.push(RegionPtr(region as *const Region));
    }
    for _ in 0..region.max_helpers {
        core.work_cv.notify_one();
    }
}

/// Removes a region from the pool's active list so no further worker can engage it.
fn retire_region(core: &PoolCore, region: &Region) {
    let target = region as *const Region;
    lock(&core.state).active.retain(|r| !std::ptr::eq(r.0, target));
}

/// Runs a region on the persistent pool: the calling thread submits, claims indices
/// from the cursor like any worker (so a worker submitting a nested region to its own
/// pool always makes progress — no circular wait), retires the region, waits for
/// quiescence, and re-raises the first task panic if there was one.
fn run_region_persistent(cfg: &Cfg, n: usize, workers: usize, task: &(dyn Fn(usize) + Sync)) {
    // SAFETY: only the lifetime is erased; the region (and with it this borrow) is
    // provably unreachable from any pool worker once wait_done() returns below, and
    // this function does not return before that.
    let task_static: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(task)
    };
    let region = Region {
        next: AtomicUsize::new(0),
        len: n,
        task: task_static,
        pending: AtomicUsize::new(n),
        helpers: AtomicUsize::new(0),
        max_helpers: workers - 1,
        panicked: AtomicBool::new(false),
        panic: Mutex::new(None),
        cfg: cfg.clone(),
        done: Mutex::new(()),
        done_cv: Condvar::new(),
    };
    submit_region(&cfg.core, &region);
    drain(&region);
    retire_region(&cfg.core, &region);
    region.wait_done();
    let payload = lock(&region.panic).take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

/// Runs `task(i)` for every `i` in `0..n`.  Each index is executed exactly once; no
/// ordering is guaranteed between indices (callers that need ordering must write
/// into indexed slots).
///
/// Dispatch: a region with one participant (one thread or one item) runs inline on
/// the calling thread; every other region goes to the installed pool's persistent
/// workers.
fn run_region(n: usize, task: impl Fn(usize) + Sync) {
    if n == 0 {
        return;
    }
    let installed = CFG.with(|c| c.borrow().clone());
    let threads = installed.as_ref().map_or_else(default_threads, |cfg| cfg.threads);
    let workers = threads.min(n);
    if workers <= 1 {
        notify_region_hook(n, RegionDispatch::Inline);
        for i in 0..n {
            task(i);
        }
        return;
    }
    let cfg = installed.unwrap_or_else(|| global_pool().cfg());
    notify_region_hook(n, RegionDispatch::Persistent);
    run_region_persistent(&cfg, n, workers, &task);
}

/// Shared write-once output buffer for `collect`: slot `i` is written by whichever
/// participant claims index `i`.
struct SharedOut<T> {
    ptr: *mut MaybeUninit<T>,
}

// SAFETY: every index is claimed exactly once from the region's cursor, so no two
// threads ever write the same slot, and the buffer outlives the region that writes it.
unsafe impl<T: Send> Sync for SharedOut<T> {}

impl<T> SharedOut<T> {
    /// # Safety
    /// `i` must be in bounds and written at most once.
    unsafe fn write(&self, i: usize, value: T) {
        (*self.ptr.add(i)).write(value);
    }
}

/// Parallel map of an indexed producer into a `Vec`, preserving index order.
fn drive_collect_vec<P: Producer>(p: P) -> Vec<P::Item> {
    let n = p.len();
    let mut storage: Vec<MaybeUninit<P::Item>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
    let out = SharedOut { ptr: storage.as_mut_ptr() };
    let out = &out;
    run_region(n, |i| {
        // SAFETY: the driver claims every index in 0..n exactly once, which is the
        // write-once contract of SharedOut.
        unsafe { out.write(i, p.produce(i)) }
    });
    // SAFETY: all n slots were initialized above (run_region covers every index; a
    // task panic propagates out of run_region before reaching this point, dropping
    // `storage` as plain MaybeUninit slots — leaked items, never UB).
    unsafe {
        let ptr = storage.as_mut_ptr().cast::<P::Item>();
        let len = storage.len();
        let cap = storage.capacity();
        std::mem::forget(storage);
        Vec::from_raw_parts(ptr, len, cap)
    }
}

// ---------------------------------------------------------------------------
// Indexed producers (the internal engine behind every combinator)
// ---------------------------------------------------------------------------

/// An indexed source of items: the engine behind every parallel iterator here.
///
/// Implementation detail of the shim (public because the [`ParallelIterator`] blanket
/// impl is bounded on it); user code should stick to the rayon-compatible surface.
#[doc(hidden)]
#[allow(clippy::len_without_is_empty)] // internal driver trait; emptiness is never queried
pub trait Producer: Sync + Sized {
    /// The item type produced.
    type Item: Send;

    /// Number of items.
    fn len(&self) -> usize;

    /// Produces the item at index `i` (`i` in `0..len()`).
    fn produce(&self, i: usize) -> Self::Item;
}

/// Parallel iterator over `&[T]`, returned by [`IntoParallelRefIterator::par_iter`].
#[derive(Debug)]
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> Producer for SliceIter<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.slice.len()
    }

    fn produce(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

/// Parallel iterator produced by [`ParallelIterator::map`].
#[derive(Debug)]
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, F, R> Producer for Map<I, F>
where
    I: Producer,
    F: Fn(I::Item) -> R + Sync,
    R: Send,
{
    type Item = R;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn produce(&self, i: usize) -> R {
        (self.f)(self.base.produce(i))
    }
}

/// Parallel iterator produced by [`ParallelIterator::zip`].
#[derive(Debug)]
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for Zip<A, B> {
    type Item = (A::Item, B::Item);

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }

    fn produce(&self, i: usize) -> Self::Item {
        (self.a.produce(i), self.b.produce(i))
    }
}

// ---------------------------------------------------------------------------
// The rayon-compatible surface
// ---------------------------------------------------------------------------

/// Operations available on every parallel iterator (the subset of rayon's
/// `ParallelIterator`/`IndexedParallelIterator` this workspace uses).
pub trait ParallelIterator: Producer {
    /// Transforms every item with `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Pairs this iterator's items with `other`'s, index by index.
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Caps the number of items a worker processes per claim (mirrors rayon's
    /// `IndexedParallelIterator::with_max_len`).  Every claim in this shim is one
    /// index, which satisfies any cap, so this returns the iterator unchanged.
    fn with_max_len(self, _max: usize) -> Self {
        self
    }

    /// Runs `f` on every item (no ordering guarantee between items).
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        run_region(self.len(), |i| f(self.produce(i)));
    }

    /// Collects the items, preserving index order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

impl<P: Producer> ParallelIterator for P {}

/// Types constructible from a parallel iterator, mirroring
/// `rayon::iter::FromParallelIterator`.
pub trait FromParallelIterator<T: Send>: Sized {
    /// Builds `Self` from the items of `iter`.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        drive_collect_vec(iter)
    }
}

impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E>
where
    T: Send,
    E: Send,
{
    /// Collects into `Ok(Vec)` or the **lowest-index** error — exactly what a
    /// sequential run would report, independent of scheduling.
    ///
    /// Unlike a sequential collect, the region does **not** short-circuit: every
    /// item still runs to completion before the error is reported (real rayon also
    /// finishes in-flight items; this shim finishes all of them).  Callers are
    /// fallible *preprocessing* phases where errors are construction-time defects,
    /// so the extra work on the error path is accepted in exchange for a driver with
    /// no cancellation machinery.
    fn from_par_iter<I: ParallelIterator<Item = Result<T, E>>>(iter: I) -> Self {
        drive_collect_vec(iter).into_iter().collect()
    }
}

/// Types that can produce a parallel iterator over shared references.
///
/// Mirrors `rayon::iter::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'a> {
    /// The parallel iterator type returned by [`par_iter`](Self::par_iter).
    type Iter: ParallelIterator<Item = Self::Item>;
    /// The item type yielded by the iterator.
    type Item: 'a;

    /// Returns a parallel iterator over `&self`.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: 'a + Sync> IntoParallelRefIterator<'a> for [T] {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;

    fn par_iter(&'a self) -> Self::Iter {
        SliceIter { slice: self }
    }
}

impl<'a, T: 'a + Sync> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;

    fn par_iter(&'a self) -> Self::Iter {
        SliceIter { slice: self }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A persistent pool of `n` threads: every region of two or more items genuinely
    /// runs on it, regardless of the host's core count.
    fn pool(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    /// Runs `f` on a helper thread and fails the test instead of hanging the suite
    /// if it does not finish within `secs`.
    fn watchdog(secs: u64, what: &str, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(secs)).unwrap_or_else(|_| panic!("timed out: {what}"));
    }

    #[test]
    fn par_iter_behaves_like_iter() {
        let v = vec![1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let zipped: Vec<(i32, i32)> =
            v.par_iter().zip(v.par_iter()).map(|(a, b)| (*a, a + b)).collect();
        assert_eq!(zipped[3], (4, 8));
    }

    #[test]
    fn par_iter_collects_results() {
        let v = vec![1, 2, 3];
        let ok: Result<Vec<i32>, ()> = v.par_iter().map(|x| Ok(*x)).collect();
        assert_eq!(ok.unwrap(), v);
    }

    #[test]
    fn result_collect_reports_the_lowest_index_error() {
        let v: Vec<usize> = (0..1000).collect();
        for threads in [1, 4] {
            let got: Result<Vec<usize>, usize> = pool(threads).install(|| {
                v.par_iter().map(|&x| if x % 7 == 3 { Err(x) } else { Ok(x) }).collect()
            });
            assert_eq!(got.unwrap_err(), 3, "threads={threads}");
        }
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let v: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.1).collect();
        let run = |threads: usize| -> Vec<f64> {
            pool(threads).install(|| v.par_iter().map(|x| (x * 1.7).sin() + x / 3.0).collect())
        };
        let seq = run(1);
        for threads in [2, 4, 7] {
            let par = run(threads);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-for-bit across thread counts");
            }
        }
    }

    #[test]
    fn work_really_runs_on_multiple_threads() {
        // Items are slow enough that a lone participant cannot claim every index
        // before the parked workers wake, even on a single hardware core.
        let v: Vec<usize> = (0..64).collect();
        let ids = Mutex::new(HashSet::new());
        pool(4).install(|| {
            v.par_iter().for_each(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        assert!(
            ids.lock().unwrap().len() > 1,
            "a 4-thread region over 64 slow items must use more than one thread"
        );
    }

    #[test]
    fn every_index_is_produced_exactly_once() {
        let v: Vec<usize> = (0..5000).collect();
        let counts: Vec<AtomicUsize> = (0..v.len()).map(|_| AtomicUsize::new(0)).collect();
        pool(8).install(|| {
            v.par_iter().for_each(|&i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn install_overrides_and_restores_the_thread_count() {
        let outer = current_num_threads();
        pool(3).install(|| {
            assert_eq!(current_num_threads(), 3);
            pool(2).install(|| assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 3);
        });
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn workers_inherit_the_installed_thread_count() {
        // Real rayon runs install closures inside the pool, so nested regions on any
        // worker see the pinned count; the shim must match, not fall back to the
        // process default on pool workers.
        let v: Vec<usize> = (0..64).collect();
        let seen = Mutex::new(HashSet::new());
        pool(3).install(|| {
            v.par_iter().for_each(|_| {
                seen.lock().unwrap().insert(current_num_threads());
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
        });
        assert_eq!(
            *seen.lock().unwrap(),
            HashSet::from([3]),
            "every worker must observe the installed thread count"
        );
    }

    #[test]
    fn builder_zero_means_default() {
        let p = ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(p.current_num_threads(), default_threads());
        assert!(default_threads() >= 1);
    }

    #[test]
    fn empty_and_tiny_inputs_work() {
        let empty: Vec<u8> = Vec::new();
        let out: Vec<u8> = pool(4).install(|| empty.par_iter().map(|x| *x).collect());
        assert!(out.is_empty());
        let one = [41usize];
        let out: Vec<usize> = pool(4).install(|| one.par_iter().map(|x| x + 1).collect());
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn zip_truncates_to_the_shorter_side() {
        let a = vec![1, 2, 3, 4, 5];
        let b = vec![10, 20, 30];
        let out: Vec<i32> =
            pool(4).install(|| a.par_iter().zip(b.par_iter()).map(|(x, y)| x + y).collect());
        assert_eq!(out, vec![11, 22, 33]);
    }

    #[test]
    fn short_regions_on_fresh_pools_do_not_deadlock() {
        // Many short regions with as many participants as indices, so most claims
        // race for the last few indices; building and dropping a fresh pool per
        // round additionally churns lazy spawn + join.  The watchdog turns a
        // deadlock into a test failure instead of a hung suite.
        watchdog(60, "short regions on fresh pools deadlocked", || {
            for round in 0..200 {
                let v: Vec<usize> = (0..8).collect();
                let out: Vec<usize> = pool(8).install(|| {
                    v.par_iter()
                        .map(|&i| {
                            std::thread::yield_now();
                            i + round
                        })
                        .collect()
                });
                assert_eq!(out.len(), 8);
            }
        });
    }

    #[test]
    fn uneven_item_costs_are_stolen() {
        // One pathological index (0 is very slow) must not serialize the rest: the
        // other participants claim the remaining indices meanwhile.
        let v: Vec<usize> = (0..64).collect();
        let out: Vec<usize> = pool(4).install(|| {
            v.par_iter()
                .map(|&i| {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    i * 2
                })
                .collect()
        });
        assert!(out.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn pool_workers_are_persistent_across_regions() {
        let p = pool(4);
        assert!(p.worker_thread_ids().is_empty(), "workers must spawn lazily");
        let v: Vec<usize> = (0..1024).collect();
        let expected: Vec<usize> = v.iter().map(|&x| x + 1).collect();
        let out: Vec<usize> = p.install(|| v.par_iter().map(|&x| x + 1).collect());
        assert_eq!(out, expected);
        let spawned = p.worker_thread_ids();
        assert_eq!(spawned.len(), 3, "a 4-thread pool spawns 3 workers (caller is the 4th)");
        // Region work must land on exactly those persistent threads (plus the
        // caller), and further regions must not spawn replacements.
        let caller = std::thread::current().id();
        let seen = Mutex::new(HashSet::new());
        for _ in 0..10 {
            p.install(|| {
                v.par_iter().for_each(|_| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                });
            });
        }
        let allowed: HashSet<_> = spawned.iter().copied().chain([caller]).collect();
        assert!(
            seen.lock().unwrap().is_subset(&allowed),
            "regions must run on the pool's persistent workers, not fresh threads"
        );
        assert_eq!(p.worker_thread_ids(), spawned, "worker IDs must be stable across regions");
    }

    #[test]
    fn panic_inside_install_leaves_the_pool_usable() {
        // A panicking region must re-raise on the submitter *and* leave the parked
        // workers ready: the next region on the same pool must be bit-identical to
        // a sequential run.
        let p = pool(4);
        let v: Vec<f64> = (0..4096).map(|i| i as f64 * 0.25).collect();
        let expected: Vec<u64> = v.iter().map(|x| (x.sqrt() + x).to_bits()).collect();
        for round in 0..3 {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.install(|| {
                    v.par_iter().for_each(|&x| {
                        if x == 137.0 * 0.25 {
                            panic!("task panic in round {round}");
                        }
                    });
                });
            }));
            assert!(caught.is_err(), "the task panic must reach the submitter");
            let out: Vec<f64> = p.install(|| v.par_iter().map(|&x| x.sqrt() + x).collect());
            let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, expected, "post-panic region must stay bit-identical");
        }
    }

    #[test]
    fn many_tiny_regions_and_park_unpark_churn() {
        // Stress the submit/park/wake path: thousands of small regions back to
        // back, with periodic idle gaps so the workers really park in between.
        watchdog(120, "tiny-region churn deadlocked or leaked", || {
            let p = pool(4);
            let v: Vec<usize> = (0..16).collect();
            for round in 0..2000 {
                let out: Vec<usize> = p.install(|| v.par_iter().map(|&i| i + round).collect());
                assert!(out.iter().enumerate().all(|(i, &x)| x == i + round));
                if round % 256 == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            assert_eq!(p.worker_thread_ids().len(), 3);
        });
    }

    #[test]
    fn oversubscribed_pool_completes_and_stays_deterministic() {
        // More workers than any realistic core count (FETI_THREADS > cores): all of
        // them contend for 4096 items and the result must still be bit-identical.
        watchdog(120, "oversubscribed pool hung", || {
            let v: Vec<f64> = (0..4096).map(|i| i as f64 * 0.5).collect();
            let seq: Vec<u64> = v.iter().map(|x| (x * 1.3).cos().to_bits()).collect();
            let p = pool(32);
            let out: Vec<f64> = p.install(|| v.par_iter().map(|&x| (x * 1.3).cos()).collect());
            assert_eq!(p.worker_thread_ids().len(), 31);
            let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, seq);
        });
    }

    #[test]
    fn drop_joins_the_parked_workers() {
        watchdog(30, "ThreadPool::drop must wake and join parked workers promptly", || {
            let p = pool(4);
            let v: Vec<usize> = (0..512).collect();
            let _: Vec<usize> = p.install(|| v.par_iter().map(|&x| x * 2).collect());
            drop(p);
        });
    }

    #[test]
    fn two_items_run_concurrently_on_a_multi_thread_pool() {
        // Each item waits for the other at a two-party barrier, so the region only
        // finishes if its two indices run on two threads at once.
        watchdog(
            30,
            "a 2-item region on a 4-thread pool ran its items one after the other",
            || {
                let barrier = std::sync::Barrier::new(2);
                let v = [0usize, 1];
                ThreadPoolBuilder::new().num_threads(4).build().unwrap().install(|| {
                    v.par_iter().for_each(|_| {
                        barrier.wait();
                    });
                });
            },
        );
    }

    #[test]
    fn a_blocked_index_holds_back_no_other_index() {
        // Index 0 spins until the other 63 have run: it may only hold back itself,
        // never indices handed out together with it.
        watchdog(30, "indices 1..64 waited behind a blocked index 0", || {
            let done = AtomicUsize::new(0);
            let v: Vec<usize> = (0..64).collect();
            ThreadPoolBuilder::new().num_threads(4).build().unwrap().install(|| {
                v.par_iter().for_each(|&i| {
                    if i == 0 {
                        while done.load(Ordering::SeqCst) < 63 {
                            std::thread::yield_now();
                        }
                    } else {
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                });
            });
        });
    }

    #[test]
    fn feti_threads_values_parse_or_fail_loudly() {
        assert_eq!(threads_from_env(None), Ok(None));
        assert_eq!(threads_from_env(Some("4")), Ok(Some(4)));
        assert_eq!(threads_from_env(Some(" 12 ")), Ok(Some(12)));
        for bad in ["four", "0", "", "-1", "4.0"] {
            let err = threads_from_env(Some(bad)).unwrap_err();
            assert!(err.contains("FETI_THREADS") && err.contains("positive integer"), "{err}");
        }
    }

    #[test]
    fn nested_regions_on_the_same_pool_do_not_deadlock() {
        // A pool worker submitting a nested region to its own pool claims that
        // region's indices itself, so progress never depends on another worker
        // being free.
        watchdog(60, "nested region on the same pool deadlocked", || {
            let p = pool(4);
            let outer: Vec<usize> = (0..8).collect();
            let result: Vec<Vec<usize>> = p.install(|| {
                outer
                    .par_iter()
                    .with_max_len(1)
                    .map(|&i| {
                        let inner: Vec<usize> = (0..512).collect();
                        inner.par_iter().map(|&j| i * 1000 + j).collect::<Vec<usize>>()
                    })
                    .collect()
            });
            for (i, row) in result.iter().enumerate() {
                assert!(row.iter().enumerate().all(|(j, &x)| x == i * 1000 + j));
            }
        });
    }
}
