//! The shared RPC packet-buffer pool.
//!
//! In Firefly RPC, "RPC packet buffers reside in memory shared among all
//! user address spaces and the Nub … RPC stubs in user spaces, and the
//! Ethernet driver code and interrupt handler in the Nub, all can read and
//! write packet buffers in memory using the same addresses. This strategy
//! eliminates the need for extra address mapping operations or copying when
//! doing RPC." (§3.2.)
//!
//! This crate reproduces that discipline in safe Rust:
//!
//! * a [`BufferPool`] is created once with a fixed number of 1514-byte
//!   buffers and shared (`Arc`-cloned) by every component — caller stubs,
//!   server stubs, transports and the demultiplexer, the moral equivalents
//!   of user spaces and the Nub;
//! * [`PacketBuf`] hands out exclusive access to one buffer and returns it
//!   to the free list on drop, so the fast path allocates **nothing** from
//!   the general-purpose heap;
//! * [`PoolStats`] counts allocations, frees, recycles and exhaustions so
//!   tests can prove the zero-allocation property;
//! * [`BufferPool::recycle_to_receive_queue`] and
//!   [`BufferPool::take_receive_buffer`] model the paper's on-the-fly
//!   receive-buffer replacement, where the interrupt handler moves the
//!   buffer found in a call-table entry straight onto the Ethernet
//!   controller's receive queue.
//!
//! # Examples
//!
//! ```
//! use firefly_pool::BufferPool;
//!
//! let pool = BufferPool::new(4);
//! let mut buf = pool.alloc().unwrap();
//! buf.set_len(74);
//! buf[0] = 0x02;
//! drop(buf); // Returned to the free list.
//! assert_eq!(pool.stats().outstanding(), 0);
//! ```

// No unsafe anywhere in this crate — see DESIGN.md ("Unsafe policy").
#![forbid(unsafe_code)]

use firefly_sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The size of every pool buffer: one maximal Ethernet frame.
pub const BUFFER_SIZE: usize = 1514;

/// Errors returned by pool operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// No free buffers; the pool is fixed-size by design.
    Exhausted,
    /// A blocking allocation timed out.
    Timeout,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Exhausted => write!(f, "packet buffer pool exhausted"),
            PoolError::Timeout => write!(f, "timed out waiting for a packet buffer"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Counters describing pool behaviour; all monotonically increasing except
/// the derived [`PoolStats::outstanding`]. A by-value snapshot: of one
/// shard (taken under its lock, so the figures agree with each other)
/// or, from [`ShardedPool::stats`], the sum over all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    allocs: u64,
    frees: u64,
    recycles: u64,
    exhaustions: u64,
    high_water: u64,
}

impl PoolStats {
    /// Total successful allocations.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Total buffers returned through drop.
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Buffers moved directly to the receive queue (the paper's
    /// interrupt-handler recycling).
    pub fn recycles(&self) -> u64 {
        self.recycles
    }

    /// Allocation attempts that found the pool empty.
    pub fn exhaustions(&self) -> u64 {
        self.exhaustions
    }

    /// Maximum simultaneously outstanding buffers observed; summed over
    /// shards it is an upper bound on the whole pool's true peak.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Buffers currently held by users (allocs − frees − recycles).
    pub fn outstanding(&self) -> u64 {
        self.allocs
            .saturating_sub(self.frees)
            .saturating_sub(self.recycles)
    }
}

/// Everything a pool shard shares, under its one lock: both lists and
/// the counters that describe them, so every operation is one
/// acquisition and the counters are plain integers that always agree
/// with the lists.
struct Slabs {
    free: Vec<Box<[u8]>>,
    /// Buffers parked on the simulated controller's receive queue.
    receive_queue: VecDeque<Box<[u8]>>,
    stats: PoolStats,
}

impl Slabs {
    /// Hands out a slab from the preferred list, falling back to the
    /// other one, and accounts for the outcome.
    fn take(&mut self, receive_queue_first: bool) -> Option<Box<[u8]>> {
        let slab = if receive_queue_first {
            self.receive_queue.pop_front().or_else(|| self.free.pop())
        } else {
            self.free.pop().or_else(|| self.receive_queue.pop_front())
        };
        if slab.is_some() {
            self.stats.allocs += 1;
            self.stats.high_water = self.stats.high_water.max(self.stats.outstanding());
        } else {
            self.stats.exhaustions += 1;
        }
        slab
    }
}

struct PoolInner {
    slabs: Mutex<Slabs>,
    available: Condvar,
    capacity: usize,
}

/// A fixed-size pool of packet buffers shared by the whole RPC machinery.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slabs = self.inner.slabs.lock();
        f.debug_struct("BufferPool")
            .field("capacity", &self.inner.capacity)
            .field("free", &slabs.free.len())
            .field("outstanding", &slabs.stats.outstanding())
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool with `capacity` pre-allocated 1514-byte buffers.
    ///
    /// All allocation happens here, once; the fast path only moves buffers
    /// between lists.
    pub fn new(capacity: usize) -> Self {
        let free = (0..capacity)
            // lint:allow(no-alloc-on-fast-path): the one-time slab
            // allocation at pool construction; never per packet.
            .map(|_| vec![0u8; BUFFER_SIZE].into_boxed_slice())
            .collect();
        BufferPool {
            inner: Arc::new(PoolInner {
                slabs: Mutex::new(Slabs {
                    free,
                    receive_queue: VecDeque::new(),
                    stats: PoolStats::default(),
                }),
                available: Condvar::new(),
                capacity,
            }),
        }
    }

    /// The configured number of buffers.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of buffers currently on the free list.
    pub fn free_count(&self) -> usize {
        self.inner.slabs.lock().free.len()
    }

    /// Number of buffers parked on the receive queue.
    pub fn receive_queue_len(&self) -> usize {
        self.inner.slabs.lock().receive_queue.len()
    }

    /// Pool statistics.
    pub fn stats(&self) -> PoolStats {
        self.inner.slabs.lock().stats
    }

    /// Labels this pool's lock for `firefly-check` with its lint
    /// lock-order class ("pool"). No-op outside a checked schedule.
    pub fn check_labels(&self) {
        self.inner.slabs.check_label("pool");
    }

    fn wrap(&self, slab: Box<[u8]>) -> PacketBuf {
        PacketBuf {
            pool: BufferPool {
                inner: Arc::clone(&self.inner),
            },
            slab: Some(slab),
            len: 0,
        }
    }

    fn take(&self, receive_queue_first: bool) -> Result<PacketBuf, PoolError> {
        let slab = self.inner.slabs.lock().take(receive_queue_first);
        slab.map(|s| self.wrap(s)).ok_or(PoolError::Exhausted)
    }

    /// Allocates a buffer, failing immediately if the pool is exhausted.
    ///
    /// This is the `Starter` path: "obtain a packet buffer for the call".
    /// When the free list is empty the Nub reclaims an idle buffer from
    /// the controller receive queue rather than failing.
    pub fn alloc(&self) -> Result<PacketBuf, PoolError> {
        self.take(false)
    }

    /// Allocates a buffer, blocking up to `timeout` for one to be freed.
    /// The clock is read only once the pool has been found dry.
    pub fn alloc_timeout(&self, timeout: Duration) -> Result<PacketBuf, PoolError> {
        let mut deadline = None;
        let mut slabs = self.inner.slabs.lock();
        loop {
            if let Some(slab) = slabs.take(false) {
                drop(slabs);
                return Ok(self.wrap(slab));
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            if self
                .inner
                .available
                .wait_until(&mut slabs, deadline)
                .timed_out()
            {
                return Err(PoolError::Timeout);
            }
        }
    }

    /// Moves a buffer straight onto the controller receive queue.
    ///
    /// The paper: "when putting the newly arrived packet into the call
    /// table, the interrupt handler removes the buffer found in that call
    /// table entry and adds it to the Ethernet controller's receive queue"
    /// (§3.2). The buffer is consumed without touching the free list.
    pub fn recycle_to_receive_queue(&self, mut buf: PacketBuf) {
        if let Some(slab) = buf.slab.take() {
            self.recycle_slab(slab);
        }
    }

    fn recycle_slab(&self, slab: Box<[u8]>) {
        self.put_back(|slabs| {
            slabs.receive_queue.push_back(slab);
            slabs.stats.recycles += 1;
        });
    }

    /// Takes a buffer from the receive queue (what the controller does when
    /// a packet arrives), falling back to the free list when the queue is
    /// empty.
    pub fn take_receive_buffer(&self) -> Result<PacketBuf, PoolError> {
        self.take(true)
    }

    fn return_slab(&self, slab: Box<[u8]>) {
        self.put_back(|slabs| {
            slabs.free.push(slab);
            slabs.stats.frees += 1;
        });
    }

    /// Puts a slab back under the shard lock, then wakes one blocked
    /// allocator (either list satisfies it) with the lock released —
    /// which costs a system call only when one is actually parked.
    fn put_back(&self, put: impl FnOnce(&mut Slabs)) {
        put(&mut self.inner.slabs.lock());
        self.inner.available.notify_one();
    }
}

/// A pool split into independent shards, each a full [`BufferPool`] with
/// its own lock, free list and receive queue.
///
/// The shard for a call is chosen by the runtime as a pure function of
/// the activity id (see `firefly_rpc::calltable::shard_for`), so a
/// caller thread and the demultiplexer touching the same call always
/// agree on which shard's locks they contend on — and calls on
/// different shards contend on nothing. A [`PacketBuf`] always returns
/// to the shard that allocated it (its owning [`BufferPool`]), so
/// cross-shard borrowing during exhaustion cannot leak buffers between
/// shards.
///
/// The exhaustion fallback scans the remaining shards in ascending
/// index order, matching the workspace-wide parametric lock discipline;
/// no two shard locks are ever held at once here (each attempt releases
/// its locks before the next shard is tried).
#[derive(Clone)]
pub struct ShardedPool {
    shards: Arc<[BufferPool]>,
}

impl fmt::Debug for ShardedPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedPool")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity())
            .field("free", &self.free_count())
            .finish()
    }
}

impl ShardedPool {
    /// Creates a pool of `capacity` total buffers split across `shards`
    /// shards (at least one buffer per shard; the remainder goes to the
    /// lowest-indexed shards).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n = shards.max(1);
        let base = (capacity / n).max(1);
        let extra = capacity.saturating_sub(base * n);
        let shards: Vec<BufferPool> = (0..n)
            .map(|i| BufferPool::new(base + usize::from(i < extra)))
            .collect();
        ShardedPool {
            shards: shards.into(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard at `idx` (wrapped, so any hash value is a valid index).
    pub fn shard(&self, idx: usize) -> &BufferPool {
        &self.shards[idx % self.shards.len()]
    }

    /// All shards, for per-shard introspection in tests.
    pub fn shards(&self) -> &[BufferPool] {
        &self.shards
    }

    /// Total configured buffers across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity()).sum()
    }

    /// Total buffers on free lists across all shards.
    pub fn free_count(&self) -> usize {
        self.shards.iter().map(|s| s.free_count()).sum()
    }

    /// Total buffers parked on receive queues across all shards.
    pub fn receive_queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.receive_queue_len()).sum()
    }

    /// Aggregate statistics across all shards.
    pub fn stats(&self) -> PoolStats {
        let mut sum = PoolStats::default();
        for s in &*self.shards {
            let st = s.stats();
            sum.allocs += st.allocs;
            sum.frees += st.frees;
            sum.recycles += st.recycles;
            sum.exhaustions += st.exhaustions;
            sum.high_water += st.high_water;
        }
        sum
    }

    /// Labels every shard's lock for `firefly-check`. No-op outside a
    /// checked schedule.
    pub fn check_labels(&self) {
        for s in &*self.shards {
            s.check_labels();
        }
    }

    /// Allocates from the home shard, falling back to the other shards
    /// in ascending index order when it is exhausted.
    pub fn alloc_from(&self, idx: usize) -> Result<PacketBuf, PoolError> {
        let n = self.shards.len();
        let home = idx % n;
        match self.shards[home].alloc() {
            Ok(buf) => Ok(buf),
            Err(_) => {
                for step in 1..n {
                    if let Ok(buf) = self.shards[(home + step) % n].alloc() {
                        return Ok(buf);
                    }
                }
                Err(PoolError::Exhausted)
            }
        }
    }

    /// Allocates from the home shard with a deadline, scanning the other
    /// shards between short blocking waits on the home shard. The
    /// deadline starts at the first scan that finds every shard dry.
    pub fn alloc_timeout_from(&self, idx: usize, timeout: Duration) -> Result<PacketBuf, PoolError> {
        let mut deadline = None;
        loop {
            if let Ok(buf) = self.alloc_from(idx) {
                return Ok(buf);
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + timeout);
            if now >= deadline {
                return Err(PoolError::Timeout);
            }
            // Every shard was empty at the instant of the scan: park
            // briefly on the home shard (frees there wake us directly;
            // frees elsewhere are caught by the rescan).
            let slice = Duration::from_millis(10).min(deadline - now);
            match self.shard(idx).alloc_timeout(slice) {
                Ok(buf) => return Ok(buf),
                Err(_) => continue,
            }
        }
    }

    /// Takes a receive-queue buffer from the home shard, falling back to
    /// an ascending-order allocation scan.
    pub fn take_receive_buffer_from(&self, idx: usize) -> Result<PacketBuf, PoolError> {
        match self.shard(idx).take_receive_buffer() {
            Ok(buf) => Ok(buf),
            Err(_) => self.alloc_from(idx),
        }
    }
}

/// Exclusive ownership of one pool buffer, returned to the pool on drop.
///
/// Dereferences to the first `len` bytes — the valid portion of the packet.
/// The full 1514-byte slab is reachable via [`PacketBuf::raw_mut`] for
/// header construction in place.
pub struct PacketBuf {
    pool: BufferPool,
    slab: Option<Box<[u8]>>,
    len: usize,
}

impl PacketBuf {
    /// Sets the number of valid bytes.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`BUFFER_SIZE`]; packets larger than one
    /// Ethernet frame cannot exist.
    pub fn set_len(&mut self, len: usize) {
        assert!(len <= BUFFER_SIZE, "packet length {len} exceeds buffer");
        self.len = len;
    }

    /// Number of valid bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bytes are valid yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole 1514-byte slab, regardless of `len`.
    pub fn raw_mut(&mut self) -> &mut [u8] {
        // The slab is Some from construction until drop; the empty-slice
        // fallback keeps the accessor panic-free for the demux thread.
        match self.slab.as_mut() {
            Some(slab) => slab,
            None => &mut [],
        }
    }

    /// Copies `src` into the buffer and sets the valid length.
    ///
    /// # Panics
    ///
    /// Panics if `src` exceeds [`BUFFER_SIZE`].
    pub fn fill_from(&mut self, src: &[u8]) {
        assert!(src.len() <= BUFFER_SIZE, "source exceeds buffer size");
        let Some(slab) = self.slab.as_mut() else {
            return;
        };
        slab[..src.len()].copy_from_slice(src);
        self.len = src.len();
    }

    /// Returns the owning pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Moves this buffer onto its *owning* pool's receive queue (the
    /// interrupt-handler recycling path). With a [`ShardedPool`] this
    /// keeps every slab in the shard that allocated it, so per-shard
    /// capacity is invariant no matter which thread recycles.
    pub fn recycle(mut self) {
        if let Some(slab) = self.slab.take() {
            self.pool.recycle_slab(slab);
        }
    }
}

impl Deref for PacketBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self.slab.as_ref() {
            Some(slab) => &slab[..self.len],
            None => &[],
        }
    }
}

impl DerefMut for PacketBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        let len = self.len;
        match self.slab.as_mut() {
            Some(slab) => &mut slab[..len],
            None => &mut [],
        }
    }
}

impl fmt::Debug for PacketBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PacketBuf").field("len", &self.len).finish()
    }
}

impl Drop for PacketBuf {
    fn drop(&mut self) {
        if let Some(slab) = self.slab.take() {
            self.pool.return_slab(slab);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_drop_round_trip() {
        let pool = BufferPool::new(2);
        assert_eq!(pool.free_count(), 2);
        let b = pool.alloc().unwrap();
        assert_eq!(pool.free_count(), 1);
        drop(b);
        assert_eq!(pool.free_count(), 2);
        assert_eq!(pool.stats().allocs(), 1);
        assert_eq!(pool.stats().frees(), 1);
        assert_eq!(pool.stats().outstanding(), 0);
    }

    #[test]
    fn exhaustion_is_reported_not_grown() {
        let pool = BufferPool::new(1);
        let _a = pool.alloc().unwrap();
        assert_eq!(pool.alloc().unwrap_err(), PoolError::Exhausted);
        assert_eq!(pool.stats().exhaustions(), 1);
        assert_eq!(pool.capacity(), 1);
    }

    #[test]
    fn len_discipline() {
        let pool = BufferPool::new(1);
        let mut b = pool.alloc().unwrap();
        assert!(b.is_empty());
        b.set_len(74);
        assert_eq!(b.len(), 74);
        assert_eq!(b.deref().len(), 74);
        b.fill_from(&[1, 2, 3]);
        assert_eq!(&*b, &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn oversize_len_panics() {
        let pool = BufferPool::new(1);
        let mut b = pool.alloc().unwrap();
        b.set_len(BUFFER_SIZE + 1);
    }

    #[test]
    fn recycling_feeds_receive_queue() {
        let pool = BufferPool::new(2);
        let b = pool.alloc().unwrap();
        pool.recycle_to_receive_queue(b);
        assert_eq!(pool.receive_queue_len(), 1);
        assert_eq!(pool.free_count(), 1);
        // The controller picks the recycled buffer up first.
        let b2 = pool.take_receive_buffer().unwrap();
        assert_eq!(pool.receive_queue_len(), 0);
        drop(b2);
        assert_eq!(pool.free_count(), 2);
    }

    #[test]
    fn take_receive_buffer_falls_back_to_free_list() {
        let pool = BufferPool::new(1);
        let b = pool.take_receive_buffer().unwrap();
        assert_eq!(pool.free_count(), 0);
        drop(b);
    }

    #[test]
    fn blocking_alloc_wakes_on_free() {
        let pool = BufferPool::new(1);
        let held = pool.alloc().unwrap();
        let p2 = pool.clone();
        let t = std::thread::spawn(move || p2.alloc_timeout(Duration::from_secs(5)).is_ok());
        firefly_sync::test_sleep();
        drop(held);
        assert!(t.join().unwrap());
    }

    #[test]
    fn blocking_alloc_times_out() {
        let pool = BufferPool::new(1);
        let _held = pool.alloc().unwrap();
        assert_eq!(
            pool.alloc_timeout(Duration::from_millis(10)).unwrap_err(),
            PoolError::Timeout
        );
    }

    #[test]
    fn high_water_tracks_peak() {
        let pool = BufferPool::new(3);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        drop(a);
        let c = pool.alloc().unwrap();
        drop(b);
        drop(c);
        assert_eq!(pool.stats().high_water(), 2);
    }

    #[test]
    fn sharded_pool_splits_capacity_and_isolates_shards() {
        let pool = ShardedPool::new(10, 4);
        assert_eq!(pool.shard_count(), 4);
        assert_eq!(pool.capacity(), 10);
        // Remainder buffers go to the lowest-indexed shards.
        assert_eq!(pool.shard(0).capacity(), 3);
        assert_eq!(pool.shard(1).capacity(), 3);
        assert_eq!(pool.shard(2).capacity(), 2);
        assert_eq!(pool.shard(3).capacity(), 2);
        let b = pool.alloc_from(2).unwrap();
        assert_eq!(pool.shard(2).free_count(), 1);
        assert_eq!(pool.shard(0).free_count(), 3);
        drop(b);
        // The buffer returns to the shard that allocated it.
        assert_eq!(pool.shard(2).free_count(), 2);
        assert_eq!(pool.stats().outstanding(), 0);
    }

    #[test]
    fn sharded_pool_borrows_ascending_on_exhaustion() {
        let pool = ShardedPool::new(4, 4);
        let _home = pool.alloc_from(1).unwrap();
        // Home shard 1 is now empty; the fallback scans 2, 3, 0.
        let borrowed = pool.alloc_from(1).unwrap();
        assert_eq!(pool.shard(2).free_count(), 0);
        drop(borrowed);
        assert_eq!(pool.shard(2).free_count(), 1);
        assert!(pool.shard(1).stats().exhaustions() >= 1);
    }

    #[test]
    fn sharded_pool_exhausts_only_when_every_shard_is_empty() {
        let pool = ShardedPool::new(4, 2);
        let held: Vec<_> = (0..4).map(|i| pool.alloc_from(i).unwrap()).collect();
        assert_eq!(pool.alloc_from(0).unwrap_err(), PoolError::Exhausted);
        assert_eq!(
            pool.alloc_timeout_from(0, Duration::from_millis(10))
                .unwrap_err(),
            PoolError::Timeout
        );
        drop(held);
        assert_eq!(pool.free_count(), 4);
    }

    #[test]
    fn sharded_pool_blocking_alloc_wakes_on_home_free() {
        let pool = ShardedPool::new(2, 2);
        let a = pool.alloc_from(0).unwrap();
        let _b = pool.alloc_from(1).unwrap();
        let p2 = pool.clone();
        let t =
            std::thread::spawn(move || p2.alloc_timeout_from(0, Duration::from_secs(5)).is_ok());
        firefly_sync::test_sleep();
        drop(a);
        assert!(t.join().unwrap());
    }

    #[test]
    fn sharded_pool_single_shard_matches_plain_pool() {
        let pool = ShardedPool::new(3, 1);
        assert_eq!(pool.shard_count(), 1);
        assert_eq!(pool.capacity(), 3);
        let b = pool.take_receive_buffer_from(7).unwrap();
        pool.shard(0).recycle_to_receive_queue(b);
        assert_eq!(pool.receive_queue_len(), 1);
        assert_eq!(pool.stats().recycles(), 1);
    }

    #[test]
    fn pool_is_shared_across_clones() {
        let pool = BufferPool::new(2);
        let clone = pool.clone();
        let b = clone.alloc().unwrap();
        assert_eq!(pool.free_count(), 1);
        drop(b);
        assert_eq!(pool.free_count(), 2);
    }
}
