//! Event calendar for the discrete-event engine.
//!
//! A binary min-heap keyed on simulation time. Times are finite `f64`s by
//! construction (sums of finite samples), so the total order is safe.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens at an event instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A class-`r` connection finishes.
    Departure {
        /// Class index.
        class: usize,
        /// Slot of the simulator's live-circuit table the connection was
        /// placed in. The slot may since have been freed and reused, so
        /// the departure is live only while the slot still holds
        /// `connection`.
        slot: u32,
        /// Unique connection id (also the tie-break between equal times).
        connection: u64,
    },
}

/// A scheduled event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Absolute simulation time.
    pub time: f64,
    /// Payload.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on time; equal times break ties arbitrarily
        // but deterministically via the connection id.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times must be finite")
            .then_with(|| match (self.kind, other.kind) {
                (
                    EventKind::Departure { connection: a, .. },
                    EventKind::Departure { connection: b, .. },
                ) => b.cmp(&a),
            })
    }
}

/// Min-heap event calendar.
#[derive(Debug, Default)]
pub struct Calendar {
    heap: BinaryHeap<Event>,
}

impl Calendar {
    /// An empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule an event.
    pub fn schedule(&mut self, time: f64, kind: EventKind) {
        debug_assert!(time.is_finite());
        self.heap.push(Event { time, kind });
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pop the next event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` iff no events pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep(c: u64) -> EventKind {
        EventKind::Departure {
            class: 0,
            slot: 0,
            connection: c,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(3.0, dep(1));
        cal.schedule(1.0, dep(2));
        cal.schedule(2.0, dep(3));
        let order: Vec<f64> = std::iter::from_fn(|| cal.pop().map(|e| e.time)).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_are_deterministic() {
        let mut cal = Calendar::new();
        cal.schedule(1.0, dep(5));
        cal.schedule(1.0, dep(2));
        cal.schedule(1.0, dep(9));
        let ids: Vec<u64> = std::iter::from_fn(|| {
            cal.pop().map(|e| match e.kind {
                EventKind::Departure { connection, .. } => connection,
            })
        })
        .collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut cal = Calendar::new();
        assert!(cal.is_empty());
        assert_eq!(cal.peek_time(), None);
        cal.schedule(7.5, dep(1));
        cal.schedule(2.5, dep(2));
        assert_eq!(cal.peek_time(), Some(2.5));
        assert_eq!(cal.len(), 2);
        assert_eq!(cal.pop().unwrap().time, 2.5);
        assert_eq!(cal.peek_time(), Some(7.5));
    }
}
