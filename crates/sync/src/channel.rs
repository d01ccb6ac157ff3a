//! An unbounded multi-producer multi-consumer channel.
//!
//! `std::sync::mpsc` is single-consumer, but the RPC runtime needs two
//! things it cannot provide: several server worker threads pulling from
//! one work queue (`recv` by `&self` from any thread), and loopback
//! stations whose receiver lives inside an `Arc`-shared `Transport`.
//! This is the minimal queue-plus-condvar channel covering that surface;
//! fairness and throughput match what the demux hand-off needs (one lock
//! per operation, wake one consumer per message).
//!
//! Disconnection mirrors `crossbeam::channel`: `recv` fails once the
//! queue is empty and every [`Sender`] is gone; `send` fails once every
//! [`Receiver`] is gone (the message is returned in the error). A
//! [`Sender::close`] ends the channel while both ends live, as the
//! server's shutdown does: sends fail from then on, and receivers take
//! what is queued, then fail as on a disconnect.

use crate::atomic::AtomicUsize;
use crate::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Error returned by [`Sender::send`] when all receivers are gone or the
/// channel is closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// closed, or all senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

struct Chan<T> {
    queue: Mutex<Queue<T>>,
    ready: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

/// The messages, and whether [`Sender::close`] was called.
struct Queue<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Creates an unbounded channel; both halves are cloneable.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    // lint:allow(no-alloc-on-fast-path): once per channel — a server's
    // hand-off queue or a loopback station — made before its traffic.
    let chan = Arc::new(Chan {
        queue: Mutex::new(Queue {
            items: VecDeque::new(),
            closed: false,
        }),
        ready: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// The sending half; cloneable across threads.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Sender<T> {
    /// Enqueues a message, waking one waiting receiver. `Ok(true)` says
    /// a receiver was parked in [`Receiver::recv`] when the message
    /// landed: the direct hand-off.
    pub fn send(&self, value: T) -> Result<bool, SendError<T>> {
        if self.chan.receivers.load(Ordering::Acquire) == 0 {
            return Err(SendError(value));
        }
        let parked = {
            let mut queue = self.chan.queue.lock();
            if queue.closed {
                return Err(SendError(value));
            }
            queue.items.push_back(value);
            // Exact here: a receiver parks and leaves holding this lock.
            self.chan.ready.waiters()
        };
        self.chan.ready.notify_one();
        Ok(parked > 0)
    }

    /// Closes the channel for every end: later sends fail, and every
    /// receiver, parked ones included, takes what is queued and then
    /// fails.
    pub fn close(&self) {
        self.chan.queue.lock().closed = true;
        self.chan.ready.notify_all();
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.chan.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.chan.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender gone: every blocked receiver must observe the
            // disconnect.
            let _guard = self.chan.queue.lock();
            self.chan.ready.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender")
    }
}

/// The receiving half; cloneable, `recv` takes `&self` so one receiver
/// can be shared by several worker threads.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Receiver<T> {
    /// Dequeues the next message, blocking until one arrives, or the
    /// channel is closed or every sender disconnects.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut queue = self.chan.queue.lock();
        loop {
            if let Some(value) = queue.items.pop_front() {
                return Ok(value);
            }
            if self.chan.senders.load(Ordering::Acquire) == 0 || queue.closed {
                return Err(RecvError);
            }
            // No deadline channel-side: a message, a close or the last
            // disconnect is the only wake condition, so park for a coarse
            // interval and re-check (spurious wakeups are harmless here).
            self.chan.ready.wait_until(
                &mut queue,
                std::time::Instant::now() + std::time::Duration::from_secs(3600),
            );
        }
    }

    /// Dequeues the next message without blocking.
    ///
    /// Returns `Ok(Some(_))` when a message was waiting, `Ok(None)` when
    /// the queue is momentarily empty, and `Err(RecvError)` once it is
    /// empty *and* closed or every sender has disconnected. A loopback
    /// station's nonblocking receive is this, and a server thread polls
    /// with it before it parks in [`Receiver::recv`].
    pub fn try_recv(&self) -> Result<Option<T>, RecvError> {
        let mut queue = self.chan.queue.lock();
        if let Some(value) = queue.items.pop_front() {
            return Ok(Some(value));
        }
        if self.chan.senders.load(Ordering::Acquire) == 0 || queue.closed {
            return Err(RecvError);
        }
        Ok(None)
    }

    /// Registers checker labels for the channel's internal atomics, so
    /// firefly-check race reports and publication classes name them
    /// `senders`/`receivers` instead of anonymous `atomic#N` — matching
    /// the static atomic-publication locations firefly-lint extracts
    /// from this file. No-op outside checker runs.
    pub fn check_labels(&self) {
        self.chan.senders.check_label("senders");
        self.chan.receivers.check_label("receivers");
    }

    /// Number of queued messages (racy, for tests and introspection).
    pub fn len(&self) -> usize {
        self.chan.queue.lock().items.len()
    }

    /// Whether [`Sender::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.chan.queue.lock().closed
    }

    /// Number of receivers parked in [`Receiver::recv`], read under the
    /// channel's lock (racy once returned, for stats and tests).
    pub fn parked(&self) -> usize {
        let _queue = self.chan.queue.lock();
        self.chan.ready.waiters()
    }

    /// True when no messages are queued (racy, for tests).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.chan.receivers.fetch_add(1, Ordering::AcqRel);
        Receiver {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.chan.receivers.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_then_recv() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || rx.recv());
        crate::test_sleep();
        tx.send(9u8).unwrap();
        assert_eq!(t.join().unwrap(), Ok(9));
    }

    #[test]
    fn recv_fails_when_senders_drop() {
        let (tx, rx) = unbounded::<u8>();
        let t = std::thread::spawn(move || rx.recv());
        crate::test_sleep();
        drop(tx);
        assert_eq!(t.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn send_fails_when_receivers_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn queued_messages_survive_sender_drop() {
        let (tx, rx) = unbounded();
        tx.send("a").unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok("a"));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn multiple_consumers_share_one_receiver() {
        let (tx, rx) = unbounded();
        let rx = std::sync::Arc::new(rx);
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let rx = std::sync::Arc::clone(&rx);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut all: Vec<i32> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<i32>>());
    }

    #[test]
    fn try_recv_never_blocks() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Ok(None));
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(Some(7)));
        assert_eq!(rx.try_recv(), Ok(None));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(RecvError));
    }

    #[test]
    fn try_recv_drains_queued_before_disconnect() {
        let (tx, rx) = unbounded();
        tx.send("x").unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(Some("x")));
        assert_eq!(rx.try_recv(), Err(RecvError));
    }

    #[test]
    fn close_fails_sends_and_drains_before_receives_fail() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.close();
        assert!(rx.is_closed());
        assert_eq!(tx.send(2), Err(SendError(2)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(RecvError));
    }

    #[test]
    fn cloned_receivers_compete_for_messages() {
        let (tx, rx1) = unbounded();
        let rx2 = rx1.clone();
        tx.send(1).unwrap();
        let v = rx1.recv().unwrap();
        assert_eq!(v, 1);
        tx.send(2).unwrap();
        assert_eq!(rx2.recv().unwrap(), 2);
    }
}
