//! A clock-visible MPMC queue.
//!
//! Target systems hand work between threads (request dispatch, WAL
//! records, replication ops, client replies). A plain channel blocks its
//! consumer inside the channel runtime, where a simulated clock cannot see
//! the wait: virtual time cannot advance past it and the blocked thread
//! cannot be woken at a virtual instant. [`ClockedQueue`] keeps the same
//! try/timeout surface as a bounded channel but parks consumers on the
//! clock's [`Waiter`], so under [`RealClock`](crate::clock::RealClock) it
//! behaves like a condvar-backed channel and under a simulated clock every
//! blocked `pop`/`pop_timeout` is a first-class discrete-event wait.
//!
//! Handles are cheaply cloneable; any handle may push or pop (MPMC).
//! Capacity is enforced on push (`Err(value)` when full, like `try_send`),
//! never by blocking producers.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::clock::{SharedClock, Waiter};

struct Inner<T> {
    queue: Mutex<VecDeque<T>>,
    waiter: Arc<dyn Waiter>,
    clock: SharedClock,
    capacity: usize,
    closed: AtomicBool,
}

/// A bounded, clock-visible MPMC queue (see module docs).
pub struct ClockedQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for ClockedQueue<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> ClockedQueue<T> {
    /// Creates a queue holding at most `capacity` items; pushes beyond it
    /// are rejected, never blocked.
    pub fn bounded(clock: &SharedClock, capacity: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                queue: Mutex::new(VecDeque::new()),
                waiter: clock.waiter(),
                clock: Arc::clone(clock),
                capacity: capacity.max(1),
                closed: AtomicBool::new(false),
            }),
        }
    }

    /// Creates a queue with no practical capacity limit.
    pub fn unbounded(clock: &SharedClock) -> Self {
        Self::bounded(clock, usize::MAX)
    }

    /// Enqueues `value`, waking one blocked consumer. Returns the value
    /// back when the queue is full or closed.
    pub fn push(&self, value: T) -> Result<(), T> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(value);
        }
        {
            let mut q = self.inner.queue.lock().unwrap();
            if q.len() >= self.inner.capacity {
                return Err(value);
            }
            q.push_back(value);
        }
        self.inner.waiter.notify_one();
        Ok(())
    }

    /// Dequeues without waiting.
    pub fn try_pop(&self) -> Option<T> {
        self.inner.queue.lock().unwrap().pop_front()
    }

    /// Dequeues, waiting on the clock until an item arrives. Returns `None`
    /// only once the queue is closed and drained — the idle wait of a
    /// dedicated consumer, which its producer ends with [`close`](Self::close).
    pub fn pop(&self) -> Option<T> {
        self.pop_until(None)
    }

    /// Dequeues, waiting on the clock up to `timeout` for an item. Returns
    /// `None` on timeout or when the queue is closed and drained.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        self.pop_until(Some(self.inner.clock.now() + timeout))
    }

    fn pop_until(&self, deadline: Option<Duration>) -> Option<T> {
        loop {
            if let Some(v) = self.try_pop() {
                return Some(v);
            }
            if self.inner.closed.load(Ordering::Acquire) {
                // Closed: one final drain check to beat a racing push.
                return self.try_pop();
            }
            match deadline {
                None => self.inner.waiter.wait(),
                Some(deadline) => {
                    let now = self.inner.clock.now();
                    if now >= deadline {
                        return None;
                    }
                    self.inner.waiter.wait_timeout(deadline - now);
                }
            }
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().unwrap().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pending items stay poppable, new pushes fail, and
    /// every blocked consumer wakes.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
        self.inner.waiter.notify_all();
    }

    /// Whether [`ClockedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }
}

impl<T> std::fmt::Debug for ClockedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClockedQueue")
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RealClock;

    #[test]
    fn push_pop_in_order() {
        let q = ClockedQueue::unbounded(&RealClock::shared());
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn capacity_rejects_not_blocks() {
        let q = ClockedQueue::bounded(&RealClock::shared(), 1);
        q.push(1).unwrap();
        assert_eq!(q.push(2), Err(2));
        q.try_pop();
        q.push(3).unwrap();
    }

    #[test]
    fn pop_timeout_waits_for_producer() {
        let q = ClockedQueue::unbounded(&RealClock::shared());
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            q2.push(7).unwrap();
        });
        assert_eq!(q.pop_timeout(Duration::from_secs(2)), Some(7));
        t.join().unwrap();
    }

    #[test]
    fn pop_timeout_times_out_empty() {
        let q: ClockedQueue<u8> = ClockedQueue::unbounded(&RealClock::shared());
        assert_eq!(q.pop_timeout(Duration::from_millis(20)), None);
    }

    #[test]
    fn close_wakes_and_rejects() {
        let q: ClockedQueue<u8> = ClockedQueue::unbounded(&RealClock::shared());
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), None);
        assert_eq!(q.push(1), Err(1));
    }

    #[test]
    fn pop_blocks_until_push_and_ends_on_close() {
        let q: ClockedQueue<u8> = ClockedQueue::unbounded(&RealClock::shared());
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = q2.pop() {
                got.push(v);
            }
            got
        });
        q.push(1).unwrap();
        q.push(2).unwrap();
        // Items queued before the close are still delivered.
        q.close();
        assert_eq!(t.join().unwrap(), vec![1, 2]);
        assert_eq!(q.pop(), None);
    }
}
