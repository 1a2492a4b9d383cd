//! Sim-time epochs and deterministic cross-shard event exchange.
//!
//! A sharded simulation advances all shards independently inside one
//! epoch window `[start, end)`, then meets at a barrier where shards
//! exchange the events they produced for each other. For the whole run
//! to replay bit-identically regardless of how many OS threads executed
//! the shards, the barrier must merge per-shard outboxes into **one
//! canonical delivery order** that depends only on simulated time and
//! shard identity — never on thread scheduling. [`exchange`] implements
//! that order: `(at, shard, seq)`, where `seq` is the producing shard's
//! own monotonic counter. Two messages from the same shard keep their
//! emission order; ties across shards break by shard index.

use crate::time::{SimDuration, SimTime};

/// Fixed-length epoch windows over the simulated clock.
///
/// Epoch `k` covers `[k·length, (k+1)·length)`; events with `t` exactly
/// on a boundary belong to the epoch *starting* there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochConfig {
    length: SimDuration,
}

impl EpochConfig {
    /// Windows of `length`; `None` when `length` is zero (epochs would
    /// never advance).
    pub fn new(length: SimDuration) -> Option<Self> {
        if length == SimDuration::ZERO {
            None
        } else {
            Some(EpochConfig { length })
        }
    }

    /// First instant of epoch `k` (saturating at the clock's end).
    pub fn start_of(&self, epoch: u64) -> SimTime {
        match self.length.as_ps().checked_mul(epoch) {
            Some(ps) => SimTime::from_ps(ps),
            None => SimTime::MAX,
        }
    }

    /// First instant *after* epoch `k` — the barrier deadline. Events with
    /// `t < end_of(k)` belong to epoch `k` or earlier.
    pub fn end_of(&self, epoch: u64) -> SimTime {
        self.start_of(epoch.saturating_add(1))
    }
}

/// One cross-shard message, stamped with everything the barrier needs to
/// order it canonically.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamped<T> {
    /// Simulated instant the producing shard emitted it.
    pub at: SimTime,
    /// Producing shard's index.
    pub shard: u32,
    /// Producing shard's monotonic emission counter.
    pub seq: u64,
    /// The message itself.
    pub payload: T,
}

/// Merge per-shard outboxes into the canonical delivery order
/// `(at, shard, seq)`.
///
/// `outboxes[i]` must hold shard `i`'s messages in emission order (its
/// `seq` values monotone). The result is a pure function of the outbox
/// *contents* — worker count and completion order cannot perturb it,
/// which is what makes an epoch barrier replay-safe.
pub fn exchange<T>(outboxes: Vec<Vec<Stamped<T>>>) -> Vec<Stamped<T>> {
    let mut merged: Vec<Stamped<T>> = outboxes.into_iter().flatten().collect();
    merged.sort_by_key(|m| (m.at, m.shard, m.seq));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(at_ps: u64, shard: u32, seq: u64) -> Stamped<&'static str> {
        Stamped {
            at: SimTime::from_ps(at_ps),
            shard,
            seq,
            payload: "x",
        }
    }

    #[test]
    fn epoch_windows_partition_the_clock() {
        let e = EpochConfig::new(SimDuration::from_secs(10)).expect("non-zero");
        assert_eq!(e.start_of(0), SimTime::ZERO);
        assert_eq!(e.end_of(0), e.start_of(1));
        assert!(EpochConfig::new(SimDuration::ZERO).is_none());
    }

    #[test]
    fn exchange_orders_by_time_then_shard_then_seq() {
        let a = vec![msg(5, 0, 0), msg(9, 0, 1)];
        let b = vec![msg(5, 1, 0), msg(7, 1, 1)];
        // Outbox order at the call site must not matter.
        let fwd = exchange(vec![a.clone(), b.clone()]);
        let rev = exchange(vec![b, a]);
        assert_eq!(fwd, rev);
        let key: Vec<(u64, u32, u64)> =
            fwd.iter().map(|m| (m.at.as_ps(), m.shard, m.seq)).collect();
        assert_eq!(key, vec![(5, 0, 0), (5, 1, 0), (7, 1, 1), (9, 0, 1)]);
    }
}
