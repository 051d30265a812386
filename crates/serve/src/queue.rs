//! A bounded multi-producer queue with a blocking drain side: the
//! admission-control heart of the server. The acceptor `try_push`es
//! accepted connections; when the queue is full the caller sheds the
//! request with `503 + Retry-After` instead of queueing unbounded
//! work. Each worker takes one item per blocking pop.
//!
//! Lock poisoning is impossible to exploit here — a panicked pusher
//! leaves the `VecDeque` in a valid state — so every acquisition maps
//! a poisoned guard back to its inner value rather than panicking the
//! worker.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused; carries the item back so the caller can
/// shed it (write the 503) instead of silently dropping it.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity: shed the request.
    Full(T),
    /// The queue was closed for shutdown: stop accepting.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded MPSC-style queue (any number of pushers, cooperating
/// poppers) with close-for-drain semantics.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(cap),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn guard(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueue without blocking; `Full` is the backpressure signal.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut s = self.guard();
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until an item is available or the queue is closed *and*
    /// drained; `None` means shutdown.
    pub fn pop_blocking(&self) -> Option<T> {
        let mut s = self.guard();
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Items currently queued (the queue-depth gauge reads this).
    pub fn depth(&self) -> usize {
        self.guard().items.len()
    }

    /// Close for shutdown: pushes start failing with `Closed`, poppers
    /// drain what is queued and then observe `None`.
    pub fn close(&self) {
        self.guard().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn push_pop_respects_capacity_and_order() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop_blocking(), Some(1));
        assert_eq!(q.pop_blocking(), Some(2));
    }

    #[test]
    fn close_drains_then_signals_shutdown() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        assert_eq!(q.pop_blocking(), Some(7));
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn blocking_pop_wakes_on_cross_thread_push() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_blocking());
        std::thread::sleep(Duration::from_millis(5));
        q.try_push(42).unwrap();
        assert_eq!(h.join().unwrap(), Some(42));
    }
}
