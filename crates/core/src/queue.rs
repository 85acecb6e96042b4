//! The bounded, tenant-fair multi-producer multi-consumer job queue
//! with explicit backpressure — the admission-control primitive behind
//! `bea-serve`.
//!
//! [`FairQueue`] keeps one FIFO lane per tenant under a single global
//! capacity and pops round-robin across lanes, so a tenant flooding the
//! queue cannot starve the others. [`FairQueue::try_push`] never
//! blocks: a full queue is reported to the producer (HTTP `429`
//! upstream) instead of buffering without bound, and a closed queue
//! refuses new work during shutdown. [`FairQueue::pop`] blocks consumers
//! until an item arrives or the queue closes; after
//! [`FairQueue::close`], consumers stop immediately and the undrained
//! items are recovered with [`FairQueue::drain_remaining`] so the caller
//! can persist them.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`FairQueue::try_push`] refused an item; the item rides along
/// so the producer keeps ownership.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue holds `capacity` items — back off and retry.
    Full(T),
    /// The queue is shutting down and accepts no new work.
    Closed(T),
}

impl<T> PushError<T> {
    /// The refused item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

struct FairState<T> {
    /// One FIFO lane per tenant, in first-submission order. Lanes are
    /// kept once created (the tenant set is bounded by admission
    /// control) so the round-robin cursor stays meaningful.
    lanes: Vec<(String, VecDeque<T>)>,
    /// Index of the lane the next pop starts scanning from.
    cursor: usize,
    /// Total items across all lanes.
    len: usize,
    closed: bool,
}

impl<T> FairState<T> {
    /// Takes the front of the next non-empty lane at or after the
    /// cursor (wrapping around) and moves the cursor past that lane.
    fn pop_next(&mut self) -> Option<T> {
        let lanes = self.lanes.len();
        let lane =
            (0..lanes).map(|k| (self.cursor + k) % lanes).find(|&i| !self.lanes[i].1.is_empty())?;
        let item = self.lanes[lane].1.pop_front()?;
        self.len -= 1;
        self.cursor = (lane + 1) % lanes;
        Some(item)
    }
}

/// The tenant-fair bounded MPMC queue. See the [module docs](self).
pub struct FairQueue<T> {
    state: Mutex<FairState<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> FairQueue<T> {
    /// A queue holding at most `capacity` items in total (at least 1),
    /// shared across all lanes.
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(FairState { lanes: Vec::new(), cursor: 0, len: 0, closed: false }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured global capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued, across all lanes.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").len
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items currently queued for one tenant.
    pub fn lane_len(&self, tenant: &str) -> usize {
        let state = self.state.lock().expect("queue lock");
        state.lanes.iter().find(|(name, _)| name == tenant).map_or(0, |(_, lane)| lane.len())
    }

    /// `true` once [`FairQueue::close`] ran.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }

    /// Enqueues onto `tenant`'s lane without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when the queue holds `capacity` items in
    /// total, [`PushError::Closed`] after [`FairQueue::close`]; both
    /// return the item.
    pub fn try_push(&self, tenant: &str, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.len >= self.capacity {
            return Err(PushError::Full(item));
        }
        match state.lanes.iter_mut().find(|(name, _)| name == tenant) {
            Some((_, lane)) => lane.push_back(item),
            None => {
                let mut lane = VecDeque::new();
                lane.push_back(item);
                state.lanes.push((tenant.to_string(), lane));
            }
        }
        state.len += 1;
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues one item round-robin across tenants, blocking while the
    /// queue is empty and open. Returns `None` once the queue closes
    /// (close means "start no new work"; leftovers are recovered with
    /// [`FairQueue::drain_remaining`]).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if state.closed {
                return None;
            }
            if let Some(item) = state.pop_next() {
                return Some(item);
            }
            state = self.available.wait(state).expect("queue lock");
        }
    }

    /// Closes the queue: producers get [`PushError::Closed`], blocked
    /// and future pops return `None`. Idempotent.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }

    /// Removes and returns every item still queued, round-robin across
    /// lanes (ordinarily called after [`FairQueue::close`], to persist
    /// work that never started).
    pub fn drain_remaining(&self) -> Vec<T> {
        let mut state = self.state.lock().expect("queue lock");
        let mut items = Vec::with_capacity(state.len);
        while let Some(item) = state.pop_next() {
            items.push(item);
        }
        items
    }
}

impl<T> std::fmt::Debug for FairQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("queue lock");
        f.debug_struct("FairQueue")
            .field("capacity", &self.capacity)
            .field("len", &state.len)
            .field("lanes", &state.lanes.len())
            .field("closed", &state.closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn concurrent_producers_and_consumers_account_for_every_item() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 200;
        let queue: Arc<FairQueue<usize>> = Arc::new(FairQueue::new(8));
        let consumed = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let consumed = Arc::clone(&consumed);
                let sum = Arc::clone(&sum);
                std::thread::spawn(move || {
                    while let Some(item) = queue.pop() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(item, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Each producer is its own tenant, so the consumers pop
        // round-robin across four lanes.
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    let tenant = format!("t{p}");
                    for k in 0..PER_PRODUCER {
                        let mut item = p * PER_PRODUCER + k;
                        // Spin on Full: the bound is backpressure, not loss.
                        loop {
                            match queue.try_push(&tenant, item) {
                                Ok(()) => break,
                                Err(PushError::Full(back)) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed mid-run"),
                            }
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        // All items pushed; let consumers finish the backlog, then close.
        while !queue.is_empty() {
            std::thread::yield_now();
        }
        queue.close();
        for consumer in consumers {
            consumer.join().unwrap();
        }
        let total = PRODUCERS * PER_PRODUCER;
        assert_eq!(consumed.load(Ordering::Relaxed), total);
        assert_eq!(sum.load(Ordering::Relaxed), (0..total).sum::<usize>());
    }

    #[test]
    fn fair_queue_round_robins_across_tenants() {
        let queue = FairQueue::new(16);
        // Tenant "a" floods ahead of "b" and "c".
        for k in 0..6 {
            queue.try_push("a", format!("a{k}")).unwrap();
        }
        queue.try_push("b", "b0".to_string()).unwrap();
        queue.try_push("c", "c0".to_string()).unwrap();
        assert_eq!(queue.len(), 8);
        assert_eq!(queue.lane_len("a"), 6);
        assert_eq!(queue.lane_len("nobody"), 0);
        // Round-robin interleaves the minority tenants immediately
        // instead of making them wait behind the flood.
        let first_three: Vec<String> = (0..3).map(|_| queue.pop().unwrap()).collect();
        assert_eq!(first_three, vec!["a0", "b0", "c0"]);
        // With only "a" left the lane drains FIFO.
        let rest: Vec<String> = (0..5).map(|_| queue.pop().unwrap()).collect();
        assert_eq!(rest, vec!["a1", "a2", "a3", "a4", "a5"]);
        assert!(queue.is_empty());
    }

    #[test]
    fn fair_queue_is_bounded_globally_and_closes() {
        let queue = FairQueue::new(2);
        assert_eq!(queue.capacity(), 2);
        queue.try_push("a", 1).unwrap();
        queue.try_push("b", 2).unwrap();
        // The bound is global: a fresh tenant does not get fresh room.
        assert_eq!(queue.try_push("c", 3), Err(PushError::Full(3)));
        queue.close();
        assert!(queue.is_closed());
        assert_eq!(queue.try_push("a", 4), Err(PushError::Closed(4)));
        assert_eq!(PushError::Closed(4).into_inner(), 4);
        // Close wins over remaining items; they drain explicitly.
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.drain_remaining(), vec![1, 2]);
        assert!(queue.is_empty());
        assert_eq!(FairQueue::<u32>::new(0).capacity(), 1);
    }

    #[test]
    fn fair_queue_pop_blocks_until_push_and_wakes_on_close() {
        let queue: Arc<FairQueue<u32>> = Arc::new(FairQueue::new(4));
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        queue.try_push("a", 7).unwrap();
        assert_eq!(waiter.join().unwrap(), Some(7));

        let blocked = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        queue.close();
        assert_eq!(blocked.join().unwrap(), None);
    }
}
