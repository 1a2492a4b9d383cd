//! The discrete-event engine: a time-ordered queue of events over a
//! user-supplied model `M`.
//!
//! Events are boxed `FnOnce(&mut M, &mut Engine<M>)` closures. An executing
//! event may freely mutate the model and schedule (or cancel) further events.
//! Ties in time are broken by insertion order, so execution is deterministic.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

use crate::time::{SimDuration, SimTime};

/// Handle to a scheduled event; used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

/// An event body: runs once against the model and the engine.
pub type EventFn<M> = Box<dyn FnOnce(&mut M, &mut Engine<M>)>;

struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    id: EventId,
    f: EventFn<M>,
}

// Order by (time, seq) so the heap pops the earliest event, FIFO among ties.
impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the min (earliest).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Deterministic discrete-event engine over a model `M`.
///
/// ```
/// use desim::{Engine, SimDuration, SimTime};
///
/// struct Counter(u32);
/// let mut engine = Engine::new();
/// let mut model = Counter(0);
/// engine.schedule_in(SimDuration::from_us(1), |m: &mut Counter, _e| m.0 += 1);
/// engine.schedule_in(SimDuration::from_us(2), |m: &mut Counter, e| {
///     m.0 += 10;
///     e.schedule_in(SimDuration::from_us(1), |m: &mut Counter, _| m.0 += 100);
/// });
/// engine.run(&mut model);
/// assert_eq!(model.0, 111);
/// assert_eq!(engine.now(), SimTime::ZERO + SimDuration::from_us(3));
/// ```
pub struct Engine<M> {
    now: SimTime,
    queue: BinaryHeap<Scheduled<M>>,
    next_seq: u64,
    /// Ids currently in the heap and not cancelled.
    live: BTreeSet<EventId>,
    /// Ids cancelled but not yet physically removed from the heap.
    cancelled: BTreeSet<EventId>,
    executed: u64,
}

impl<M> Default for Engine<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Engine<M> {
    /// A fresh engine at t = 0 with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            live: BTreeSet::new(),
            cancelled: BTreeSet::new(),
            executed: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (cancelled events excluded).
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// Schedule `f` to run at absolute time `at`.
    ///
    /// Panics if `at` is in the simulated past — the engine never rewinds.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut M, &mut Engine<M>) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let id = EventId(self.next_seq);
        self.queue.push(Scheduled {
            at,
            seq: self.next_seq,
            id,
            f: Box::new(f),
        });
        self.live.insert(id);
        self.next_seq += 1;
        id
    }

    /// Schedule `f` to run `after` from now.
    pub fn schedule_in(
        &mut self,
        after: SimDuration,
        f: impl FnOnce(&mut M, &mut Engine<M>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + after, f)
    }

    /// Cancel a pending event. Returns `true` only if the event was still
    /// queued; cancelling an executed, unknown, or already-cancelled id is a
    /// no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.live.remove(&id) {
            self.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// Time of the next pending (non-cancelled) event, if any.
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        self.prune_cancelled_head();
        self.queue.peek().map(|s| s.at)
    }

    fn prune_cancelled_head(&mut self) {
        while let Some(head) = self.queue.peek() {
            if self.cancelled.contains(&head.id) {
                let popped = self.queue.pop().expect("peeked head exists");
                self.cancelled.remove(&popped.id);
            } else {
                break;
            }
        }
    }

    /// Pop and execute the next event. Returns `false` if the queue is empty.
    pub fn step(&mut self, model: &mut M) -> bool {
        self.prune_cancelled_head();
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "heap returned an event from the past");
        self.live.remove(&ev.id);
        self.now = ev.at;
        self.executed += 1;
        (ev.f)(model, self);
        true
    }

    /// Run until the queue is empty.
    pub fn run(&mut self, model: &mut M) {
        while self.step(model) {}
    }

    /// Run until the queue is empty or the next event is strictly after
    /// `deadline`. The clock is left at the last executed event (it does NOT
    /// advance to `deadline` if nothing ran there).
    pub fn run_until(&mut self, model: &mut M, deadline: SimTime) {
        loop {
            match self.peek_next_time() {
                Some(t) if t <= deadline => {
                    self.step(model);
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Log(Vec<(u64, &'static str)>);

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn executes_in_time_order() {
        let mut e = Engine::new();
        let mut log = Log::default();
        e.schedule_at(at(3), |m: &mut Log, e| m.0.push((e.now().as_ps(), "c")));
        e.schedule_at(at(1), |m: &mut Log, e| m.0.push((e.now().as_ps(), "a")));
        e.schedule_at(at(2), |m: &mut Log, e| m.0.push((e.now().as_ps(), "b")));
        e.run(&mut log);
        let labels: Vec<_> = log.0.iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        assert_eq!(e.events_executed(), 3);
    }

    #[test]
    fn ties_break_fifo() {
        let mut e = Engine::new();
        let mut log = Log::default();
        for label in ["first", "second", "third"] {
            e.schedule_at(at(1), move |m: &mut Log, _| m.0.push((0, label)));
        }
        e.run(&mut log);
        let labels: Vec<_> = log.0.iter().map(|&(_, l)| l).collect();
        assert_eq!(labels, vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut e = Engine::new();
        let mut log = Log::default();
        e.schedule_at(at(1), |_m: &mut Log, e| {
            e.schedule_in(SimDuration::from_us(4), |m: &mut Log, e| {
                m.0.push((e.now().as_ps(), "nested"));
            });
        });
        e.run(&mut log);
        assert_eq!(log.0, vec![(5_000_000, "nested")]);
    }

    #[test]
    fn cancellation_prevents_execution() {
        let mut e = Engine::new();
        let mut log = Log::default();
        let id = e.schedule_at(at(1), |m: &mut Log, _| m.0.push((0, "cancelled")));
        e.schedule_at(at(2), |m: &mut Log, _| m.0.push((0, "kept")));
        assert!(e.cancel(id));
        assert!(!e.cancel(id), "double-cancel reports false");
        e.run(&mut log);
        assert_eq!(log.0, vec![(0, "kept")]);
        assert_eq!(e.events_executed(), 1);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut e: Engine<Log> = Engine::new();
        assert!(!e.cancel(EventId(42)));
    }

    #[test]
    fn cancel_after_execution_is_false_and_harmless() {
        let mut e = Engine::new();
        let mut log = Log::default();
        let id = e.schedule_at(at(1), |m: &mut Log, _| m.0.push((0, "ran")));
        e.run(&mut log);
        assert!(!e.cancel(id));
        assert_eq!(e.pending(), 0);
        assert_eq!(log.0, vec![(0, "ran")]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = Engine::new();
        let mut log = Log::default();
        e.schedule_at(at(1), |m: &mut Log, _| m.0.push((0, "in")));
        e.schedule_at(at(10), |m: &mut Log, _| m.0.push((0, "out")));
        e.run_until(&mut log, at(5));
        assert_eq!(log.0, vec![(0, "in")]);
        assert_eq!(e.now(), at(1));
        assert_eq!(e.pending(), 1);
        e.run(&mut log);
        assert_eq!(log.0.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut e = Engine::new();
        let mut log = Log::default();
        e.schedule_at(at(5), |_m: &mut Log, e| {
            e.schedule_at(SimTime::ZERO + SimDuration::from_us(1), |_, _| {});
        });
        e.run(&mut log);
    }

    #[test]
    fn peek_next_time_skips_cancelled() {
        let mut e: Engine<Log> = Engine::new();
        let id = e.schedule_at(at(1), |_, _| {});
        e.schedule_at(at(2), |_, _| {});
        e.cancel(id);
        assert_eq!(e.peek_next_time(), Some(at(2)));
    }

    #[test]
    fn pending_counts_exclude_cancelled() {
        let mut e: Engine<Log> = Engine::new();
        let a = e.schedule_at(at(1), |_, _| {});
        e.schedule_at(at(2), |_, _| {});
        assert_eq!(e.pending(), 2);
        e.cancel(a);
        assert_eq!(e.pending(), 1);
    }
}
