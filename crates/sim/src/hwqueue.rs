//! Bounded FIFO queues modelling the Chisel `Queue` hardware primitives.
//!
//! Picos and Picos Manager are built almost entirely out of fixed-capacity FIFOs: the submission
//! queue, the per-core ready queues, the retirement queue, the routing queue inside the
//! work-fetch arbiter, and so on. [`BoundedQueue`] reproduces their behaviour: pushes fail
//! (return the rejected element) when the queue is full — this is what makes the non-blocking
//! RoCC instructions of the paper return failure flags.
//!
//! The distinction the paper draws between *fallthrough* Chisel queues and *non-fallthrough*
//! Picos queues (Section IV-F2, "protocol crossing modules") is about combinational timing in
//! RTL; at the cycle-count abstraction of this simulator both behave identically, and the
//! protocol-crossing latency is charged by the Picos Manager model instead.

use std::collections::VecDeque;

use crate::clock::Cycle;

/// A bounded FIFO.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-entry hardware queue cannot exist.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        BoundedQueue { items: VecDeque::with_capacity(capacity), capacity }
    }

    /// Maximum number of elements the queue can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue currently holds no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity (a push would be rejected).
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Attempts to enqueue `item`.
    ///
    /// Returns `Ok(())` on success and `Err(item)` (handing the element back to the producer,
    /// exactly like a de-asserted `ready` signal) if the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    /// Dequeues the oldest element, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Returns a reference to the oldest element without dequeuing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Iterates over queued elements from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

/// An unbounded queue of `(due-cycle, payload)` events kept permanently sorted by due time,
/// breaking ties by insertion order.
///
/// Picos' pipeline model defers retirements and ready publications to their simulated completion
/// cycles. The obvious representation — a `Vec` re-sorted on every drain with `remove(0)` pops —
/// is quadratic in the backlog and was one of the measured hot spots of the simulator
/// (`micro_components`). `TimedQueue` keeps the backlog ordered at all times: insertion is a
/// binary search plus a ring-buffer insert (`O(log n + n)` worst case but `O(log n)` when events
/// are scheduled in roughly increasing time order, which pipeline completions are), and popping
/// the next due event is `O(1)` with no re-sort.
///
/// The ordering contract is exactly what the previous stable-sort code provided — events with
/// equal due times drain in the order they were scheduled — so replacing one with the other
/// cannot change any simulated cycle count.
#[derive(Debug, Clone, Default)]
pub struct TimedQueue<T> {
    items: VecDeque<(Cycle, T)>,
}

impl<T> TimedQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        TimedQueue { items: VecDeque::new() }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Schedules `item` to become due at cycle `at`, after any already-scheduled event with the
    /// same due time (stable order).
    pub fn schedule(&mut self, at: Cycle, item: T) {
        let idx = self.items.partition_point(|&(t, _)| t <= at);
        if idx == self.items.len() {
            self.items.push_back((at, item));
        } else {
            self.items.insert(idx, (at, item));
        }
    }

    /// Due time of the earliest event, if any.
    pub fn next_due(&self) -> Option<Cycle> {
        self.items.front().map(|&(t, _)| t)
    }

    /// Pops the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        match self.items.front() {
            Some(&(t, _)) if t <= now => self.items.pop_front(),
            _ => None,
        }
    }

    /// Iterates over scheduled events, earliest first.
    pub fn iter(&self) -> impl Iterator<Item = &(Cycle, T)> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        q.push(9).unwrap();
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![2, 3, 9]);
    }

    #[test]
    fn push_to_full_queue_returns_item() {
        let mut q = BoundedQueue::new(2);
        q.push("a").unwrap();
        q.push("b").unwrap();
        assert!(q.is_full());
        assert_eq!(q.push("c"), Err("c"));
    }

    #[test]
    fn occupancy_accounting() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for _ in 0..3 {
            q.pop();
        }
        q.push(10).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.front(), Some(&3));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _: BoundedQueue<u8> = BoundedQueue::new(0);
    }

    #[test]
    fn pop_empty_is_none() {
        let mut q: BoundedQueue<u32> = BoundedQueue::new(1);
        assert_eq!(q.pop(), None);
        assert_eq!(q.front(), None);
    }
}

#[cfg(test)]
mod timed_tests {
    use super::*;

    #[test]
    fn drains_in_time_order() {
        let mut q = TimedQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_due(), Some(10));
        assert_eq!(q.pop_due(25), Some((10, "a")));
        assert_eq!(q.pop_due(25), Some((20, "b")));
        assert_eq!(q.pop_due(25), None, "c is not due yet");
        assert_eq!(q.pop_due(30), Some((30, "c")));
        assert!(q.is_empty());
    }

    #[test]
    fn equal_due_times_keep_schedule_order() {
        let mut q = TimedQueue::new();
        q.schedule(5, 'x');
        q.schedule(9, 'z');
        q.schedule(5, 'y');
        let order: Vec<char> = std::iter::from_fn(|| q.pop_due(100).map(|(_, v)| v)).collect();
        assert_eq!(order, vec!['x', 'y', 'z']);
    }

    #[test]
    fn matches_stable_sort_reference() {
        // The ordering contract that makes TimedQueue a drop-in replacement for the old
        // "stable-sort then remove(0)" pattern: interleave schedules and drains, compare.
        let mut q = TimedQueue::new();
        let mut model: Vec<(Cycle, u32)> = Vec::new();
        let times = [7u64, 3, 7, 7, 1, 9, 3, 3, 12, 0, 7, 5];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i as u32);
            model.push((t, i as u32));
            if i % 3 == 2 {
                model.sort_by_key(|&(t, _)| t); // stable
                let gate = t;
                while !model.is_empty() && model[0].0 <= gate {
                    assert_eq!(q.pop_due(gate), Some(model.remove(0)));
                }
                assert_eq!(q.pop_due(gate), None);
            }
        }
        model.sort_by_key(|&(t, _)| t);
        while !model.is_empty() {
            assert_eq!(q.pop_due(u64::MAX), Some(model.remove(0)));
        }
        assert!(q.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `TimedQueue` drains identically to the stable-sort + `remove(0)` pattern it replaced,
        /// for arbitrary interleavings of schedules and gated drains.
        #[test]
        fn timed_queue_matches_stable_sort_model(
            ops in proptest::collection::vec((0u64..32, any::<bool>()), 0..120)
        ) {
            let mut q = TimedQueue::new();
            let mut model: Vec<(Cycle, usize)> = Vec::new();
            for (i, (t, drain)) in ops.into_iter().enumerate() {
                if drain {
                    model.sort_by_key(|&(t, _)| t);
                    while !model.is_empty() && model[0].0 <= t {
                        prop_assert_eq!(q.pop_due(t), Some(model.remove(0)));
                    }
                    prop_assert_eq!(q.pop_due(t), None);
                } else {
                    q.schedule(t, i);
                    model.push((t, i));
                }
                prop_assert_eq!(q.len(), model.len());
            }
        }
    }
}

#[cfg(test)]
mod bounded_proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The queue behaves exactly like an unbounded VecDeque filtered by a capacity check:
        /// same contents, same pop order, and never exceeds capacity.
        #[test]
        fn matches_reference_model(capacity in 1usize..16, ops in proptest::collection::vec(any::<Option<u8>>(), 0..200)) {
            let mut q = BoundedQueue::new(capacity);
            let mut model: VecDeque<u8> = VecDeque::new();
            for op in ops {
                match op {
                    Some(v) => {
                        let r = q.push(v);
                        if model.len() < capacity {
                            prop_assert!(r.is_ok());
                            model.push_back(v);
                        } else {
                            prop_assert_eq!(r, Err(v));
                        }
                    }
                    None => {
                        prop_assert_eq!(q.pop(), model.pop_front());
                    }
                }
                prop_assert!(q.len() <= capacity);
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.front().copied(), model.front().copied());
            }
        }
    }
}
