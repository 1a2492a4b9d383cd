//! The workspace's one worker pool: scoped threads pulling from one queue.
//!
//! [`map_pulled`] is the only sanctioned way to run work on more than one
//! OS thread — detlint's CONC001 flags every other `std::thread` spawn or
//! scope. Workers pull the next item from one shared queue, so a single
//! heavy item occupies one worker while the rest drain the queue (a static
//! stripe would idle behind it). Worker 0 runs inline on the calling
//! thread: `workers <= 1` spawns nothing, and `W` workers pay `W − 1`
//! spawns. Results come back in item order whichever thread ran which
//! item, so when each item's result is a pure function of the item, the
//! output is bit-identical for every worker count. A panic in any item
//! resumes on the caller with its original payload.

use std::sync::{Mutex, PoisonError};

/// Apply `f` to every item on up to `workers` threads (never more threads
/// than items) and return the results in item order.
pub fn map_pulled<I, R, F>(items: I, workers: usize, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    let items = items.into_iter();
    let n = items.len();
    let queue = Mutex::new(items.enumerate());
    let run_worker = || {
        let mut out = Vec::new();
        loop {
            // The lock is held only for the pull, never while an item
            // runs, so a panicking item cannot leave the queue torn.
            let pulled = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((index, item)) = pulled else {
                return out;
            };
            out.push((index, f(item)));
        }
    };
    let mut done: Vec<(usize, R)> = Vec::with_capacity(n);
    // detlint: allow(CONC001) — this IS the workspace's one worker pool:
    // scoped threads, one pull queue, results restored to item order.
    std::thread::scope(|scope| {
        let run_worker = &run_worker;
        let spawned: Vec<_> = (1..workers.clamp(1, n.max(1)))
            .map(|_| scope.spawn(run_worker))
            .collect();
        done.extend(run_worker());
        for handle in spawned {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Pulls interleave across workers; the item index restores the order.
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// A little host work per item, so spawned workers get to pull.
    fn spin(i: usize) -> usize {
        (0..2_000 * (i % 3 + 1)).fold(i, |acc, k| std::hint::black_box(acc ^ k))
    }

    /// Items 0 and 1 of a 2-worker map: item 0 returns only after item 1
    /// has, so the two run on different workers and finish in reverse
    /// order.
    struct Handshake {
        done: mpsc::Sender<()>,
        wait: Mutex<mpsc::Receiver<()>>,
    }

    impl Handshake {
        fn new() -> Self {
            let (done, wait) = mpsc::channel();
            Handshake {
                done,
                wait: Mutex::new(wait),
            }
        }

        fn run(&self, i: usize) {
            if i == 0 {
                let waited = self
                    .wait
                    .lock()
                    .map(|w| w.recv_timeout(Duration::from_secs(30)));
                assert!(matches!(waited, Ok(Ok(()))), "item 1 ran on another worker");
            } else {
                self.done.send(()).expect("item 0 is still waiting");
            }
        }
    }

    #[test]
    fn results_come_back_in_item_order() {
        let caller = thread::current().id();
        for n in [0usize, 1, 3, 17] {
            for workers in 0..=5 {
                let out = map_pulled(0..n, workers, |i| {
                    spin(i);
                    (i, thread::current().id())
                });
                let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
                assert_eq!(
                    order,
                    (0..n).collect::<Vec<_>>(),
                    "{n} items, {workers} workers"
                );
                if workers <= 1 {
                    assert!(
                        out.iter().all(|&(_, id)| id == caller),
                        "one worker runs inline"
                    );
                }
            }
        }
    }

    #[test]
    fn results_finished_out_of_order_come_back_in_item_order() {
        let handshake = Handshake::new();
        let out = map_pulled(0..2, 2, |i| {
            handshake.run(i);
            (i, thread::current().id())
        });
        assert_eq!(out.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [0, 1]);
        assert_ne!(out[0].1, out[1].1, "two workers ran the two items");
    }

    #[test]
    fn every_item_of_a_mut_slice_is_visited_exactly_once() {
        for workers in 0..=5 {
            let mut visits = vec![0u32; 17];
            let out = map_pulled(&mut visits, workers, |v| {
                *v += 1;
                spin(*v as usize);
            });
            assert_eq!(out.len(), 17);
            assert!(
                visits.iter().all(|&v| v == 1),
                "{workers} workers: {visits:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "an item on a spawned worker failed")]
    fn a_panicking_item_resumes_on_the_caller() {
        let caller = thread::current().id();
        let handshake = Handshake::new();
        map_pulled(0..2, 2, |i| {
            handshake.run(i);
            if thread::current().id() != caller {
                panic!("an item on a spawned worker failed");
            }
        });
    }
}
