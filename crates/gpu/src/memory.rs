//! Device memory as one FIFO byte ledger.
//!
//! §IV-A of the paper splits GPU memory into a *persistent* part (factors, `B̃ᵢ`,
//! `F̃ᵢ`, dual vectors, library workspaces — allocated once in the preparation phase)
//! and a *temporary* part handled by a pool allocator: a thread that cannot be served
//! blocks until other threads release enough memory.  A [`MemoryLedger`] is that
//! pool (sizes are tracked logically; no real device memory exists), and the same
//! type is the device budget a solve service admits jobs against.
//!
//! Waiting is **FIFO-fair**: every request takes a ticket and is granted strictly in
//! arrival order, so a small request arriving behind a large blocked one waits its
//! turn, which bounds every waiter's delay.  There is no exception to that order, so
//! a caller must never wait while it holds a [`Reservation`] of the same ledger: it
//! books everything it needs in one request.  A request larger than the whole ledger
//! fails fast — it could never be served and must not block the queue — and
//! [`MemoryLedger::close`] wakes every waiter with a typed error.

use crate::GpuSpec;
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// Errors of device memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// The persistent allocations exceed the device capacity.
    OutOfMemory {
        /// Persistent bytes requested.
        requested: usize,
        /// Device capacity.
        capacity: usize,
    },
    /// A request is larger than the whole ledger and can never be served.
    LargerThanLedger {
        /// Bytes requested.
        requested: usize,
        /// Capacity of the ledger.
        capacity: usize,
    },
    /// The ledger was closed while the request waited.
    Closed,
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::OutOfMemory { requested, capacity } => write!(
                f,
                "device out of memory: {requested} persistent bytes on a device of {capacity}"
            ),
            MemoryError::LargerThanLedger { requested, capacity } => {
                write!(f, "request of {requested} bytes exceeds the ledger of {capacity} bytes")
            }
            MemoryError::Closed => write!(f, "device memory ledger is closed"),
        }
    }
}

impl std::error::Error for MemoryError {}

#[derive(Debug, Default)]
struct LedgerState {
    in_use: usize,
    peak: usize,
    closed: bool,
    /// Tickets are handed out in arrival order; only `head` may be granted.
    next_ticket: u64,
    head: u64,
}

/// A fixed number of device bytes reserved FIFO-fairly, blocking while they are in
/// use; every grant is a [`Reservation`] that returns its bytes when dropped.
#[derive(Debug)]
pub struct MemoryLedger {
    capacity: usize,
    state: Mutex<LedgerState>,
    freed: Condvar,
}

impl MemoryLedger {
    /// A ledger of `capacity_bytes`.
    #[must_use]
    pub fn new(capacity_bytes: usize) -> Arc<Self> {
        Arc::new(Self {
            capacity: capacity_bytes,
            state: Mutex::new(LedgerState::default()),
            freed: Condvar::new(),
        })
    }

    /// The temporary pool of a device described by `spec` whose persistent
    /// allocations take `persistent_bytes`: every byte they leave.
    ///
    /// # Errors
    /// Returns [`MemoryError::OutOfMemory`] when the persistent bytes exceed the
    /// device capacity.
    pub fn temporary_pool(
        spec: &GpuSpec,
        persistent_bytes: usize,
    ) -> Result<Arc<Self>, MemoryError> {
        let capacity = spec.memory_capacity_bytes;
        if persistent_bytes > capacity {
            return Err(MemoryError::OutOfMemory { requested: persistent_bytes, capacity });
        }
        Ok(Self::new(capacity - persistent_bytes))
    }

    /// The capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Bytes currently reserved.
    #[must_use]
    pub fn in_use_bytes(&self) -> usize {
        self.state.lock().in_use
    }

    /// High-water mark of the reserved bytes.
    #[must_use]
    pub fn peak_bytes(&self) -> usize {
        self.state.lock().peak
    }

    /// Reserves `bytes`, blocking until every earlier request is served and `bytes`
    /// fit beside what is reserved.
    ///
    /// # Errors
    /// [`MemoryError::LargerThanLedger`] if the request exceeds the capacity,
    /// [`MemoryError::Closed`] if the ledger is closed before it is served.
    pub fn reserve(self: &Arc<Self>, bytes: usize) -> Result<Reservation, MemoryError> {
        if bytes > self.capacity {
            return Err(MemoryError::LargerThanLedger {
                requested: bytes,
                capacity: self.capacity,
            });
        }
        let mut s = self.state.lock();
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        while !s.closed && (s.head != ticket || s.in_use + bytes > self.capacity) {
            self.freed.wait(&mut s);
        }
        // Pass the head on whether served or closed: the next request may fit too.
        s.head += 1;
        self.freed.notify_all();
        if s.closed {
            return Err(MemoryError::Closed);
        }
        s.in_use += bytes;
        s.peak = s.peak.max(s.in_use);
        Ok(Reservation { ledger: Arc::clone(self), bytes })
    }

    /// Closes the ledger: every current and future request gets
    /// [`MemoryError::Closed`].  Reservations already granted stay valid until dropped.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.freed.notify_all();
    }
}

/// RAII guard of one grant: dropping it returns the bytes and wakes waiters.
#[derive(Debug)]
pub struct Reservation {
    ledger: Arc<MemoryLedger>,
    bytes: usize,
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.ledger.state.lock().in_use -= self.bytes;
        self.ledger.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Requests `bytes` on a thread of its own, which hands the grant to `granted`, and
    /// returns once the request holds its ticket: a request takes its ticket and, if
    /// it must wait, parks in one hold of the lock, so it is then either served or
    /// parked in the queue.
    fn queued<T: Send + 'static>(
        ledger: &Arc<MemoryLedger>,
        bytes: usize,
        granted: impl FnOnce(Reservation) -> T + Send + 'static,
    ) -> std::thread::JoinHandle<Result<T, MemoryError>> {
        let ticket = ledger.state.lock().next_ticket;
        let requester = Arc::clone(ledger);
        let handle = std::thread::spawn(move || requester.reserve(bytes).map(granted));
        while ledger.state.lock().next_ticket == ticket {
            std::thread::yield_now();
        }
        handle
    }

    fn pool_of(capacity: usize, persistent: usize) -> Result<Arc<MemoryLedger>, MemoryError> {
        let spec = GpuSpec { memory_capacity_bytes: capacity, ..GpuSpec::a100_40gb() };
        MemoryLedger::temporary_pool(&spec, persistent)
    }

    #[test]
    fn temporary_pool_of_an_a100_is_all_but_the_persistent_bytes() {
        let spec = GpuSpec::a100_40gb();
        assert!(spec.memory_capacity_bytes > 30 * 1024 * 1024 * 1024);
        let pool = MemoryLedger::temporary_pool(&spec, 1024).unwrap();
        assert_eq!(pool.capacity_bytes(), spec.memory_capacity_bytes - 1024);
        assert_eq!(pool.in_use_bytes(), 0);
    }

    #[test]
    fn persistent_allocation_respects_capacity() {
        let err = pool_of(1000, 1001).unwrap_err();
        assert_eq!(err, MemoryError::OutOfMemory { requested: 1001, capacity: 1000 });
        let full = pool_of(1000, 1000).unwrap();
        assert_eq!(full.capacity_bytes(), 0);
    }

    #[test]
    fn pool_reserves_remaining_memory() {
        let pool = pool_of(1000, 300).unwrap();
        assert_eq!(pool.capacity_bytes(), 700);
        assert!(pool.reserve(701).is_err());
        let _all = pool.reserve(700).unwrap();
    }

    #[test]
    fn oversized_temporary_request_is_rejected() {
        let ledger = MemoryLedger::new(100);
        let err = ledger.reserve(200).unwrap_err();
        assert_eq!(err, MemoryError::LargerThanLedger { requested: 200, capacity: 100 });
        assert_eq!((ledger.in_use_bytes(), ledger.peak_bytes()), (0, 0));
    }

    #[test]
    fn temporary_allocations_are_raii() {
        let ledger = MemoryLedger::new(1000);
        let a = ledger.reserve(400).unwrap();
        let b = ledger.reserve(400).unwrap();
        assert_eq!(ledger.in_use_bytes(), 800);
        drop(a);
        assert_eq!(ledger.in_use_bytes(), 400);
        drop(b);
        assert_eq!(ledger.in_use_bytes(), 0);
        assert_eq!(ledger.peak_bytes(), 800);
        let _all = ledger.reserve(1000).unwrap();
    }

    #[test]
    fn blocked_allocation_resumes_when_memory_is_freed() {
        let ledger = MemoryLedger::new(1000);
        let first = ledger.reserve(800).unwrap();
        // This waits until `first` is dropped.
        let handle = queued(&ledger, 600, drop);
        assert!(!handle.is_finished(), "the request must wait while the ledger is full");
        drop(first);
        assert_eq!(handle.join().unwrap(), Ok(()));
    }

    /// N threads race reservations against a ledger that can hold only N/2 of them
    /// at once: the run must make progress (watchdog), every reservation must be
    /// served, and the accounting must return to zero.
    #[test]
    fn stress_n_threads_against_half_sized_pool() {
        const N: usize = 8;
        const ROUNDS: usize = 25;
        const BYTES: usize = 100;
        let ledger = MemoryLedger::new((N / 2) * BYTES);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let stressed = Arc::clone(&ledger);
        let driver = std::thread::spawn(move || {
            let served = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let handles: Vec<_> = (0..N)
                .map(|t| {
                    let (ledger, served) = (Arc::clone(&stressed), Arc::clone(&served));
                    std::thread::spawn(move || {
                        for r in 0..ROUNDS {
                            let _held = ledger.reserve(BYTES).unwrap();
                            assert!(ledger.in_use_bytes() <= (N / 2) * BYTES);
                            // Hold briefly so the ledger really saturates.
                            if (t + r) % 3 == 0 {
                                std::thread::yield_now();
                            }
                            served.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            served.load(std::sync::atomic::Ordering::Relaxed)
        });
        // Watchdog: a deadlocked ledger must fail the test, not hang the suite.
        std::thread::spawn(move || {
            let _ = done_tx.send(driver.join());
        });
        let served = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("ledger deadlocked: no progress within the watchdog timeout")
            .expect("a stress worker panicked");
        assert_eq!(served, N * ROUNDS, "every reservation must be served exactly once");
        assert_eq!(ledger.in_use_bytes(), 0, "every reservation returned");
        assert!(ledger.peak_bytes() <= (N / 2) * BYTES, "capacity never exceeded");
    }

    /// A release must wake blocked requests, and grants must follow FIFO order: a
    /// small request that arrives while a larger one is queued may not pass it.
    #[test]
    fn release_wakes_blocked_in_fifo_order() {
        let ledger = MemoryLedger::new(100);
        let first = ledger.reserve(80).unwrap();
        // A large request (60 > 20 free) queues first; a small one that would fit
        // right now (80 + 10 ≤ 100) must queue behind it.  A request is granted in
        // the hold of the lock that gives it its ticket, so had the small one
        // passed, it would already be booked.
        let large = queued(&ledger, 60, |r| r);
        let small = queued(&ledger, 10, |r| r);
        assert_eq!(ledger.in_use_bytes(), 80, "both requests must wait while 80 is held");
        assert!(!large.is_finished() && !small.is_finished());
        drop(first);
        let (large, small) = (large.join().unwrap().unwrap(), small.join().unwrap().unwrap());
        assert_eq!(ledger.in_use_bytes(), 70);
        drop((large, small));
        assert_eq!(ledger.in_use_bytes(), 0);
    }

    /// An oversized request fails fast with an error even while the ledger is
    /// contended and other requests are queued — it must never hang itself or the
    /// queue.
    #[test]
    fn oversized_request_errors_while_pool_is_contended() {
        let ledger = MemoryLedger::new(100);
        let held = ledger.reserve(90).unwrap();
        let blocked = queued(&ledger, 50, drop);
        let err = ledger.reserve(101).unwrap_err();
        assert_eq!(err, MemoryError::LargerThanLedger { requested: 101, capacity: 100 });
        drop(held);
        assert_eq!(blocked.join().unwrap(), Ok(()));
    }

    /// Closing wakes every waiter with [`MemoryError::Closed`], refuses later
    /// requests, and leaves granted reservations valid until they drop.
    #[test]
    fn close_wakes_waiters_with_a_typed_error() {
        let ledger = MemoryLedger::new(100);
        let hold = ledger.reserve(100).unwrap();
        let waiters = [queued(&ledger, 50, drop), queued(&ledger, 10, drop)];
        ledger.close();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), Err(MemoryError::Closed));
        }
        assert_eq!(ledger.in_use_bytes(), 100);
        drop(hold);
        assert_eq!(ledger.reserve(1).unwrap_err(), MemoryError::Closed);
        assert_eq!(ledger.in_use_bytes(), 0);
    }

    #[test]
    fn error_messages_mention_sizes() {
        let e = MemoryError::OutOfMemory { requested: 10, capacity: 5 };
        assert!(e.to_string().contains("10") && e.to_string().contains('5'));
        let e = MemoryError::LargerThanLedger { requested: 12, capacity: 7 };
        assert!(e.to_string().contains("12") && e.to_string().contains('7'));
        assert!(MemoryError::Closed.to_string().contains("closed"));
    }
}
