//! The server's hand-off queue: one FIFO that every server thread takes
//! calls from.
//!
//! A call the receiving thread does not run itself is sent on one
//! [`firefly_sync::channel`], and whichever server thread looks next
//! takes it — the paper's "awakens the server thread directly" (§3.1.3)
//! when one is parked. The seed runtime had one shared channel too; per-worker
//! queues with whole-queue stealing replaced it while every call went
//! to a worker, and the demultiplexer and the workers contended for the
//! one lock. That argument lapsed once the resident receiver ran the
//! calls itself: about one call in a thousand reaches a worker
//! (docs/SHARDING.md, "What it bought"), and per-worker queues only
//! let a call wait behind one busy worker while another was idle. One
//! queue is what eRPC's background threads and nanoPU's load balancer
//! aim for, and it is the channel the checker's `channel` model runs.
//!
//! A thread that finds the queue empty polls it a few times, yielding
//! the processor between polls, before it parks: a parked thread costs
//! its waker a futex call and a scheduling round trip, and under a
//! steady stream the next call comes within a few yields.

use firefly_sync::channel::{unbounded, Receiver, SendError, Sender};
use std::collections::VecDeque;

/// The one hand-off queue of a server's threads.
///
/// `push`'s `target` and `pop`'s `worker` and `local` are unused: they
/// named the per-worker queues this replaced, and the repo benchmark
/// still calls with them.
#[derive(Debug)]
pub struct WorkQueues<T> {
    tx: Sender<T>,
    rx: Receiver<T>,
    workers: usize,
}

impl<T> WorkQueues<T> {
    /// A queue for up to `workers` server threads (at least one).
    pub fn new(workers: usize) -> WorkQueues<T> {
        let (tx, rx) = unbounded();
        WorkQueues {
            tx,
            rx,
            workers: workers.max(1),
        }
    }

    /// The most server threads there may be.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Whether [`WorkQueues::shutdown`] was called.
    pub fn is_down(&self) -> bool {
        self.rx.is_closed()
    }

    /// Queues an item, waking a parked thread if any: `Ok(true)` when
    /// one was parked — the direct hand-off the paper's fast path counts
    /// on. After shutdown the item is refused and given back.
    pub fn offer(&self, item: T) -> Result<bool, T> {
        self.tx.send(item).map_err(|SendError(item)| item)
    }

    /// [`WorkQueues::offer`], dropping an item refused after shutdown:
    /// `false` then, as when it was queued with no thread parked.
    pub fn push(&self, _target: usize, item: T) -> bool {
        self.offer(item).unwrap_or(false)
    }

    /// Empty polls (each yielding the processor) before a thread parks.
    const POLLS_BEFORE_PARK: u32 = 32;

    /// The next item, blocking until one arrives. Returns `None` once
    /// [`WorkQueues::shutdown`] was called and the queue is empty.
    pub fn pop(&self, _worker: usize, _local: &mut VecDeque<T>) -> Option<T> {
        for _ in 0..Self::POLLS_BEFORE_PARK {
            match self.rx.try_recv() {
                Ok(Some(item)) => return Some(item),
                Ok(None) => std::thread::yield_now(),
                Err(_) => return None,
            }
        }
        self.rx.recv().ok()
    }

    /// Shuts the queue down and wakes every parked thread. What is
    /// queued is still taken: `pop` returns `None` only once it is empty.
    pub fn shutdown(&self) {
        self.tx.close();
    }

    /// Queued items (racy, for introspection).
    pub fn len(&self) -> usize {
        self.rx.len()
    }

    /// True when no items are queued (racy, for tests).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Threads parked waiting for an item (racy, for stats).
    pub fn idle_workers(&self) -> usize {
        self.rx.parked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn push_pop_round_trip() {
        let q = WorkQueues::new(2);
        let mut local = VecDeque::new();
        assert!(!q.push(0, 1)); // no worker parked yet
        q.push(0, 2);
        assert_eq!(q.pop(0, &mut local), Some(1));
        assert_eq!(q.pop(0, &mut local), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn items_come_out_in_push_order_whatever_the_target() {
        let q = WorkQueues::new(4);
        for i in 0..5 {
            q.push(i % 4, i);
        }
        let mut local = VecDeque::new();
        for i in 0..5 {
            assert_eq!(q.pop(0, &mut local), Some(i));
        }
        assert!(q.is_empty());
    }

    /// Two calls queued for one worker: while the worker that took the
    /// first runs it, another worker must get the second, not find it
    /// held behind the first in a private batch.
    #[test]
    fn an_idle_worker_takes_a_call_queued_behind_a_busy_one() {
        let q = Arc::new(WorkQueues::new(2));
        q.push(0, 'a');
        q.push(0, 'b');
        let mut held = VecDeque::new();
        assert_eq!(q.pop(0, &mut held), Some('a'));
        let (tx, rx) = std::sync::mpsc::channel();
        let other = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _ = tx.send(q.pop(1, &mut VecDeque::new()));
            })
        };
        let got = rx.recv_timeout(Duration::from_secs(2));
        assert_eq!(got, Ok(Some('b')), "worker 1 got {got:?}; worker 0 holds {held:?}");
        other.join().unwrap();
    }

    #[test]
    fn parked_worker_wakes_on_push() {
        let q = Arc::new(WorkQueues::new(2));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let mut local = VecDeque::new();
            q2.pop(1, &mut local)
        });
        firefly_sync::test_sleep();
        q.push(0, 42u32);
        assert_eq!(t.join().unwrap(), Some(42));
    }

    #[test]
    fn shutdown_drains_pending_work_then_stops() {
        let q = WorkQueues::new(2);
        q.push(0, "a");
        q.push(1, "b");
        q.shutdown();
        assert!(q.is_down());
        assert_eq!(q.offer("late"), Err("late"), "an offer after shutdown was queued");
        assert!(!q.push(0, "late"), "a push after shutdown was queued");
        let mut local = VecDeque::new();
        assert_eq!(q.pop(0, &mut local), Some("a"));
        assert_eq!(q.pop(1, &mut local), Some("b"));
        assert_eq!(q.pop(0, &mut local), None);
    }

    #[test]
    fn shutdown_unblocks_parked_workers() {
        let q = Arc::new(WorkQueues::<u8>::new(3));
        let workers: Vec<_> = (0..3)
            .map(|w| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut local = VecDeque::new();
                    q.pop(w, &mut local)
                })
            })
            .collect();
        firefly_sync::test_sleep();
        q.shutdown();
        for t in workers {
            assert_eq!(t.join().unwrap(), None);
        }
    }

    #[test]
    fn many_producers_many_workers_nothing_lost() {
        let q = Arc::new(WorkQueues::new(4));
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut local = VecDeque::new();
                    let mut got = Vec::new();
                    while let Some(v) = q.pop(w, &mut local) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..400 {
            q.push(i % 4, i);
        }
        q.shutdown();
        let mut all: Vec<usize> = workers
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<usize>>());
    }

    #[test]
    fn push_reports_idle_worker_presence() {
        let q = Arc::new(WorkQueues::new(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            let mut local = VecDeque::new();
            q2.pop(0, &mut local)
        });
        // Wait until the worker has actually parked.
        let deadline = Instant::now() + Duration::from_secs(5);
        while q.idle_workers() == 0 {
            assert!(Instant::now() < deadline, "worker never parked");
            std::thread::yield_now();
        }
        assert!(q.push(0, 7));
        assert_eq!(t.join().unwrap(), Some(7));
    }
}
