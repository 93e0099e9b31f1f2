//! A deterministic discrete-event queue.
//!
//! Events carry an arbitrary payload `E`; ties at the same instant pop in
//! insertion order (a stable sequence number breaks them), which keeps
//! protocol simulations reproducible run-to-run.

use crate::time::Time;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A scheduled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: Time,
    /// The payload.
    pub event: E,
}

/// A heap entry: the payload rides with its `(at, seq)` key and is
/// ordered by the key alone. `seq` is unique, so no two entries tie.
#[derive(Debug)]
struct Entry<E> {
    key: (Time, u64),
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// Min-heap event queue with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: Time, event: E) {
        self.heap.push(Reverse(Entry {
            key: (at, self.seq),
            event,
        }));
        self.seq += 1;
    }

    /// Pops the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let Reverse(Entry {
            key: (at, _),
            event,
        }) = self.heap.pop()?;
        Some(Scheduled { at, event })
    }

    /// The firing time of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.key.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time(30), "c");
        q.schedule(Time(10), "a");
        q.schedule(Time(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Time(10)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(Time(5), 1);
        q.schedule(Time(5), 2);
        q.schedule(Time(5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time(10), "x");
        let first = q.pop().unwrap();
        assert_eq!(first.at, Time(10));
        q.schedule(Time(5), "y");
        q.schedule(Time(7), "z");
        assert_eq!(q.pop().unwrap().event, "y");
        assert_eq!(q.pop().unwrap().event, "z");
        assert!(q.pop().is_none());
    }

    #[test]
    fn large_volume_stays_sorted() {
        let mut q = EventQueue::new();
        // Deterministic pseudo-shuffle.
        for i in 0..1000u64 {
            q.schedule(Time((i * 7919) % 997), i);
        }
        let mut last = Time::ZERO;
        while let Some(s) = q.pop() {
            assert!(s.at >= last);
            last = s.at;
        }
    }
}
